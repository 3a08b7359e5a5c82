import json
import subprocess
import sys

import numpy as np
import pytest

from polystate.cli import main
from polystate.fock import basis_state, coherent, from_amplitudes, vector_to_dict

INV_PI = 1.0 / np.pi


def write_state(path, state):
    path.write_text(json.dumps(vector_to_dict(state)))
    return str(path)


def run(*argv):
    return main([str(a) for a in argv])


# ---- build / erase ----

def test_build_even_cat(tmp_path):
    out = tmp_path / "cat.json"
    assert run("build", "--coherent", 1, 0, "--group", "C", "--order", 2,
               "--irrep", 1, "--method", "superposition", "--output", out) == 0
    data = json.loads(out.read_text())
    amps = np.array([complex(re, im) for re, im in data["amplitudes"]])
    ref = coherent(1.0, 64).amplitudes.copy()
    ref[1::2] = 0.0
    ref /= np.linalg.norm(ref)
    assert np.abs(amps - ref).max() < 1e-12
    meta = data["metadata"]
    assert meta["method"] == "superposition"
    assert meta["group"] == "C" and meta["order"] == 2 and meta["irrep"] == 1
    assert abs(complex(*meta["n_lambda"])) * meta["raw_norm"] == pytest.approx(
        1.0, abs=1e-12)
    assert sum(meta["residue_class_masses"]) == pytest.approx(1.0, abs=1e-12)
    assert meta["tail_flagged"] is False


def test_build_trivial_group_copies_seed(tmp_path):
    seed = coherent(0.8, 24)
    src = write_state(tmp_path / "phi.json", seed)
    out = tmp_path / "out.json"
    assert run("build", "--input", src, "--order", 1, "--irrep", 1,
               "--output", out) == 0
    data = json.loads(out.read_text())
    assert data["n_max"] == 24
    amps = np.array([complex(re, im) for re, im in data["amplitudes"]])
    assert np.abs(amps - seed.amplitudes).max() < 1e-12


def test_build_dihedral_gaussian_real_amplitudes(tmp_path):
    out = tmp_path / "d3.json"
    assert run("build", "--gaussian", 1, 0, 1, 1, "--group", "D",
               "--order", 3, "--irrep", 2, "--output", out) == 0
    data = json.loads(out.read_text())
    assert data["metadata"]["method"] == "dihedral-sum"
    imag = max(abs(im) for _, im in data["amplitudes"])
    assert imag < 1e-12


def test_build_dihedral_difference_real_seed_empty(tmp_path):
    # a real-amplitude seed has no antisymmetric dihedral part
    assert run("build", "--coherent", 1, 0, "--group", "D", "--order", 3,
               "--irrep", 2, "--variant", "difference",
               "--output", tmp_path / "x.json") == 2


def test_erase_alias_matches_build(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    common = ["--coherent", 1.2, 0, "--order", 3, "--irrep", 2]
    assert run("build", *common, "--method", "erasure", "--output", a) == 0
    assert run("erase", *common, "--output", b) == 0
    assert json.loads(a.read_text()) == json.loads(b.read_text())


def test_build_respects_n_max(tmp_path):
    out = tmp_path / "s.json"
    assert run("build", "--coherent", 1, 0, "--order", 2, "--irrep", 1,
               "--n-max", 32, "--output", out) == 0
    data = json.loads(out.read_text())
    assert data["n_max"] == 32 and len(data["amplitudes"]) == 33


def test_build_empty_sector_exit(tmp_path):
    assert run("build", "--coherent", 0, 0, "--order", 3, "--irrep", 2,
               "--output", tmp_path / "x.json") == 2


def test_build_erasure_light_sector(tmp_path):
    # sector 30 of C_32 carries mass ~1e-8 for coherent(3) at n_max 128
    out = tmp_path / "s.json"
    assert run("build", "--coherent", 3, 0, "--order", 32, "--irrep", 30,
               "--n-max", 128, "--output", out) == 0
    data = json.loads(out.read_text())
    amps = np.array([complex(re, im) for re, im in data["amplitudes"]])
    ref = coherent(3.0, 128).amplitudes.copy()
    ref[np.arange(129) % 32 != 29] = 0.0
    assert np.abs(amps - ref / np.linalg.norm(ref)).max() < 1e-14
    meta = data["metadata"]
    assert abs(complex(*meta["n_lambda"])) * meta["raw_norm"] == pytest.approx(
        1.0, abs=1e-12)


def one_line_error(capsys):
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err
    return err


def test_build_superposition_self_check_exit(tmp_path, capsys):
    # the orbit route's absolute leakage check trips on this light sector
    assert run("build", "--coherent", 3, 0, "--order", 32, "--irrep", 30,
               "--n-max", 128, "--method", "superposition",
               "--output", tmp_path / "s.json") == 1
    assert "leakage" in one_line_error(capsys)


def test_negative_n_max_exit(tmp_path, capsys):
    assert run("build", "--coherent", 1, 0, "--order", 2, "--irrep", 1,
               "--n-max", -1, "--output", tmp_path / "s.json") == 1
    assert "n_max=-1" in one_line_error(capsys)


def test_gaussian_embedding_no_convergence_exit(tmp_path, capsys):
    assert run("build", "--gaussian", 0.5, 0, 25.45584412, 0, "--n-max", 512,
               "--order", 2, "--irrep", 1, "--output", tmp_path / "s.json") == 1
    assert "converge" in one_line_error(capsys)


def test_empty_sector_message_is_one_line(tmp_path, capsys):
    # 32 class masses would wrap over several lines if printed as an array
    assert run("build", "--coherent", 0, 0, "--order", 32, "--irrep", 2,
               "--output", tmp_path / "x.json") == 2
    assert "lam=2" in one_line_error(capsys)


def test_build_seed_flags_exclusive(tmp_path):
    src = write_state(tmp_path / "phi.json", coherent(1.0, 16))
    assert run("build", "--input", src, "--coherent", 1, 0,
               "--order", 2, "--irrep", 1) == 3
    assert run("build", "--order", 2, "--irrep", 1) == 3


# ---- wigner ----

def test_wigner_csv_vacuum(tmp_path):
    src = write_state(tmp_path / "vac.json", basis_state(0, 16))
    out = tmp_path / "w.csv"
    assert run("wigner", "--input", src, "--x-min", -1, "--x-max", 1,
               "--p-min", -1, "--p-max", 1, "--points", 3,
               "--output", out) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "x,p,w"
    assert len(lines) == 10
    center = lines[5].split(",")  # x fastest: row 4 of 9 is (x=0, p=0)
    assert float(center[0]) == 0.0 and float(center[1]) == 0.0
    assert float(center[2]) == pytest.approx(INV_PI, abs=1e-12)


def test_wigner_one_photon_negative_center(tmp_path):
    src = write_state(tmp_path / "one.json", basis_state(1, 16))
    out = tmp_path / "w.csv"
    assert run("wigner", "--input", src, "--x-min", -1, "--x-max", 1,
               "--p-min", -1, "--p-max", 1, "--points", 3,
               "--output", out) == 0
    w = [float(line.split(",")[2]) for line in
         out.read_text().splitlines()[1:]]
    assert min(w) == pytest.approx(-INV_PI, abs=1e-12)
    assert w[4] == min(w)


def test_wigner_check_symmetry(tmp_path, capsys):
    b = np.sqrt(2.0)
    assert run("build", "--gaussian", 1, 0, b, b, "--order", 3, "--irrep", 1,
               "--output", tmp_path / "c3.json") == 0
    assert run("wigner", "--input", tmp_path / "c3.json", "--points", 5,
               "--check-symmetry", 3, "--output", tmp_path / "w.csv") == 0
    err = capsys.readouterr().err
    assert "rotation symmetry residual (order 3):" in err
    assert float(err.strip().rsplit(" ", 1)[1]) < 1e-8


def test_wigner_missing_input(tmp_path):
    assert run("wigner", "--input", tmp_path / "nope.json") == 1


def test_input_directory_exit(tmp_path, capsys):
    assert run("mandel", "--input", tmp_path) == 1
    one_line_error(capsys)


# ---- mandel ----

def test_mandel_coherent(tmp_path, capsys):
    src = write_state(tmp_path / "coh.json", coherent(2.0, 64))
    assert run("mandel", "--input", src) == 0
    outp = capsys.readouterr().out
    assert "poissonian" in outp and "M_Q" in outp
    value = float(outp.splitlines()[0].split("=")[1].split("(")[0])
    assert value == pytest.approx(1.0, abs=1e-10)


def test_mandel_number_state(tmp_path, capsys):
    src = write_state(tmp_path / "two.json", basis_state(2, 16))
    assert run("mandel", "--input", src) == 0
    assert "subpoissonian" in capsys.readouterr().out


def test_mandel_vacuum_fails(tmp_path, capsys):
    src = write_state(tmp_path / "vac.json", basis_state(0, 8))
    assert run("mandel", "--input", src) == 1
    assert "vacuum" in capsys.readouterr().err


def test_mandel_zero_state_fails(tmp_path, capsys):
    src = tmp_path / "zero.json"
    src.write_text(json.dumps({"n_max": 2, "amplitudes": [[0.0, 0.0]] * 3}))
    assert run("mandel", "--input", src) == 1
    assert "zero vector" in one_line_error(capsys)


# ---- malformed input ----

def test_malformed_json_exit(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert run("mandel", "--input", bad) == 3


def test_missing_keys_exit(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"n_max": 4}))
    assert run("mandel", "--input", bad) == 3


def test_wrong_pair_count_exit(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"n_max": 4, "amplitudes": [[1.0, 0.0]] * 3}))
    assert run("build", "--input", bad, "--order", 2, "--irrep", 1) == 3


# ---- entangle ----

def write_bipartite(path, n, c, seed_1, seed_2):
    path.write_text(json.dumps({
        "n": n,
        "c": [[z.real, z.imag] for z in np.asarray(c, dtype=complex)],
        "seed_1": vector_to_dict(seed_1),
        "seed_2": vector_to_dict(seed_2),
    }))
    return str(path)


def test_entangle_product_state(tmp_path):
    src = write_bipartite(tmp_path / "spec.json", 3, [1.0, 0.0, 0.0],
                          coherent(1.0, 48), coherent(0.7, 48))
    out = tmp_path / "res.json"
    assert run("entangle", "--input", src, "--output", out) == 0
    data = json.loads(out.read_text())
    assert abs(data["s_linear"]) < 1e-10
    assert data["difference"] < 1e-10
    assert len(data["f_matrix"]) == 3
    assert len(data["d_tensor"]) == 3 and len(data["d_tensor"][0][0]) == 3


def test_entangle_bell_like(tmp_path):
    src = write_bipartite(tmp_path / "spec.json", 2, [1.0, 1.0],
                          coherent(3.0, 64), coherent(3.0, 64))
    out = tmp_path / "res.json"
    assert run("entangle", "--input", src, "--output", out) == 0
    data = json.loads(out.read_text())
    assert data["s_linear"] == pytest.approx(0.5, abs=1e-3)
    assert data["s_linear_oracle"] == pytest.approx(data["s_linear"], abs=1e-10)


def test_entangle_empty_sectors(tmp_path):
    amps = coherent(2.0, 64).amplitudes + coherent(-2.0, 64).amplitudes
    cat = from_amplitudes(amps / np.linalg.norm(amps))
    src = write_bipartite(tmp_path / "spec.json", 4, np.ones(4), cat, cat)
    out = tmp_path / "res.json"
    assert run("entangle", "--input", src, "--output", out) == 0
    data = json.loads(out.read_text())
    assert data["difference"] < 1e-12
    assert 0.1 < data["s_linear"] < 0.75


def test_entangle_memory_guard_exit(tmp_path):
    src = write_bipartite(tmp_path / "big.json", 2, [1.0, 1.0],
                          coherent(1.0, 4096), coherent(1.0, 4096))
    assert run("entangle", "--input", src, "--output",
               tmp_path / "res.json") == 4


def test_entangle_malformed_spec(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"n": 2, "c": [[1.0, 0.0], [1.0, 0.0]]}))
    assert run("entangle", "--input", bad) == 3


# ---- verify ----

def test_verify_single_suite(tmp_path):
    out = tmp_path / "report.txt"
    assert run("verify", "--suite", "characters", "--order", 12,
               "--output", out) == 0
    text = out.read_text()
    assert "pass" in text and "FAIL" not in text


def test_verify_erasure_suite(tmp_path):
    out = tmp_path / "report.txt"
    assert run("verify", "--suite", "erasure", "--seed", 42,
               "--output", out) == 0
    assert "FAIL" not in out.read_text()


def test_verify_all_suites(tmp_path):
    out = tmp_path / "report.txt"
    assert run("verify", "--output", out) == 0
    text = out.read_text()
    for suite in ("characters", "erasure", "gaussian", "wigner", "coherent"):
        assert suite in text
    assert "FAIL" not in text


def test_verify_deterministic_output(tmp_path):
    a, b = tmp_path / "a.txt", tmp_path / "b.txt"
    common = ["verify", "--suite", "characters", "--seed", 7,
              "--no-timestamp"]
    assert run(*common, "--output", a) == 0
    assert run(*common, "--output", b) == 0
    assert a.read_bytes() == b.read_bytes()


# ---- circle-limit ----

def test_circle_limit_command(tmp_path):
    out = tmp_path / "lim.json"
    assert run("circle-limit", "--coherent", 1, 0, "--irrep", 3,
               "--output", out) == 0
    data = json.loads(out.read_text())
    amps = np.array([complex(re, im) for re, im in data["amplitudes"]])
    assert abs(amps[2] - 1.0) < 1e-12
    assert np.abs(np.delete(amps, 2)).max() < 1e-12
    assert data["metadata"]["irrep"] == 3
    assert data["metadata"]["quadrature_gap"] <= 1e-10


def test_circle_limit_empty_exit(tmp_path):
    assert run("circle-limit", "--coherent", 0, 0, "--irrep", 2,
               "--output", tmp_path / "x.json") == 2


# ---- console wiring ----

def test_module_entry_point(tmp_path):
    src = write_state(tmp_path / "two.json", basis_state(2, 16))
    proc = subprocess.run(
        [sys.executable, "-m", "polystate.cli", "mandel", "--input", src],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert "subpoissonian" in proc.stdout
