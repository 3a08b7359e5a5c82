import json
import subprocess
import sys
import warnings

import numpy as np
import pytest
from scipy.special import gammaln

import polystate.cli as cli
from polystate.cli import main
from polystate.cyclic import CyclicSpec, circle_limit, cyclic_erasure, dihedral_state
from polystate.fock import (
    _pairs,
    basis_state,
    coherent,
    from_amplitudes,
    residue_class_masses,
    vector_to_dict,
)
from polystate.observables import (
    BipartiteSpec,
    bipartite_normalize,
    linear_entropy,
    linear_entropy_gram,
)

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


def test_build_tail_flag_survives_reload(tmp_path):
    # coherent(9) at n_max 16 is flagged; the C_3 sector's last slot (m = 16)
    # is off-class, so only the saved metadata can carry the flag forward
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert run("build", "--coherent", 9, 0, "--order", 3, "--irrep", 1,
               "--n-max", 16, "--output", a) == 0
    saved = json.loads(a.read_text())
    assert saved["metadata"]["tail_flagged"] is True
    assert saved["amplitudes"][16] == [0.0, 0.0]
    assert run("build", "--input", a, "--order", 3, "--irrep", 1, "--output", b) == 0
    assert json.loads(b.read_text())["metadata"]["tail_flagged"] is True


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


def test_build_superposition_light_sector(tmp_path):
    # sector 30 of C_32 carries mass ~1e-8 for coherent(3) at n_max 128; the
    # superposition convention is mu^(lam-1) times the erased state
    out = tmp_path / "s.json"
    assert run("build", "--coherent", 3, 0, "--order", 32, "--irrep", 30,
               "--n-max", 128, "--method", "superposition", "--output", out) == 0
    data = json.loads(out.read_text())
    amps = np.array([complex(re, im) for re, im in data["amplitudes"]])
    off = np.arange(129) % 32 != 29
    assert np.all(amps[off] == 0)
    m = np.arange(129)
    ref = np.exp(-4.5 + m * np.log(3.0) - 0.5 * gammaln(m + 1))
    ref[off] = 0.0
    want = np.exp(2j * np.pi * 29 / 32) * ref / np.linalg.norm(ref)
    assert np.abs(amps - want).max() < 1e-12
    assert data["metadata"]["method"] == "superposition"


def test_negative_n_max_exit(tmp_path, capsys):
    assert run("build", "--coherent", 1, 0, "--order", 2, "--irrep", 1,
               "--n-max", -1, "--output", tmp_path / "s.json") == 1
    assert "n_max=-1" in one_line_error(capsys)


@pytest.mark.parametrize("command", [["build", "--order", 3, "--irrep", 1],
                                     ["erase", "--order", 3, "--irrep", 1],
                                     ["circle-limit", "--irrep", 1]])
@pytest.mark.parametrize("n_max", [cli._N_MAX_LIMIT + 1, 100_000_000])
def test_huge_n_max_exit(monkeypatch, tmp_path, capsys, command, n_max):
    # rejected before any seed is built: the constructors would hold n_max + 1
    # Python values first (10^8 of them were killed for memory, exit 137)
    seed_file = tmp_path / "seed.json"
    seed_file.write_text(json.dumps(vector_to_dict(coherent(1.0, 8))))

    def unbuilt(*args):
        raise AssertionError("a seed was built")

    for name in ("coherent", "gaussian_to_fock"):
        monkeypatch.setattr(cli, name, unbuilt)
    for seed in (["--coherent", 1, 0], ["--gaussian", 0.5, 0, 1, 0]):
        out = tmp_path / "s.json"
        assert run(*command, *seed, "--n-max", n_max, "--output", out) == 1
        assert one_line_error(capsys) == (
            f"error: --n-max must be <= {cli._N_MAX_LIMIT}, got {n_max}\n")
        assert not out.exists()
    # --n-max is ignored for a seed read from --input, so nothing is refused
    out = tmp_path / "s.json"
    assert run(*command, "--input", seed_file, "--n-max", n_max, "--output", out) == 0
    assert out.exists()


def test_gaussian_embedding_large_displacement(tmp_path):
    # a coherent-like seed at alpha = 18 at n_max 512: the recurrence gives
    # the Poisson amplitudes to rounding
    b = 25.45584412
    out = tmp_path / "s.json"
    assert run("build", "--gaussian", 0.5, 0, b, 0, "--n-max", 512,
               "--order", 1, "--irrep", 1, "--output", out) == 0
    data = json.loads(out.read_text())
    amps = np.array([complex(re, im) for re, im in data["amplitudes"]])
    assert np.isfinite(amps).all()
    alpha = b / np.sqrt(2.0)
    m = np.arange(513)
    poisson = np.exp(-alpha ** 2 / 2 + m * np.log(alpha) - 0.5 * gammaln(m + 1))
    assert np.abs(amps - poisson).max() < 1e-9


def test_build_coherent_large_alpha(tmp_path, capsys):
    # |alpha| = 40 at n_max 2048 fits its truncation; the C_2 sector state is
    # the even half of the Poisson amplitudes, renormalized
    out = tmp_path / "s.json"
    assert run("build", "--coherent", 40, 0, "--order", 2, "--irrep", 1,
               "--n-max", 2048, "--output", out) == 0
    assert capsys.readouterr().err == ""
    amps = np.array([complex(re, im) for re, im in
                     json.loads(out.read_text())["amplitudes"]])
    m = np.arange(2049)
    want = np.exp(m * np.log(40.0) - 800.0 - 0.5 * gammaln(m + 1))
    want[1::2] = 0.0
    assert np.abs(amps - want / np.linalg.norm(want)).max() < 1e-9


def test_build_coherent_far_past_truncation(tmp_path, capsys):
    # coherent(40) at the default n_max 64: e^{-800} underflows every
    # amplitude, so the state is normalized in log space and tail-flagged
    out = tmp_path / "s.json"
    assert run("build", "--coherent", 40, 0, "--order", 3, "--irrep", 1,
               "--output", out) == 0
    assert capsys.readouterr().err == ""
    data = json.loads(out.read_text())
    assert data["metadata"]["tail_flagged"] is True
    amps = np.array([complex(re, im) for re, im in data["amplitudes"]])
    m = np.arange(65)
    log_mod = m * np.log(40.0) - 0.5 * gammaln(m + 1)
    want = np.where(m % 3 == 0, np.exp(log_mod - log_mod.max()), 0.0)
    assert np.abs(amps - want / np.linalg.norm(want)).max() < 1e-12


@pytest.mark.parametrize("seed, name", [
    (("--coherent", "nan", 0), "alpha must be finite"),
    (("--coherent", "inf", 0), "alpha must be finite"),
    (("--gaussian", 1, 0, "nan", 0), "parameter b must be finite"),
    (("--gaussian", 1, 0, 1e200, 0), "parameter b overflows"),
    (("--gaussian", 1e300, 0, 1, 0), "parameter a overflows"),
])
def test_non_finite_seed_is_one_line(tmp_path, capsys, seed, name):
    out = tmp_path / "s.json"
    assert run("build", *seed, "--order", 3, "--irrep", 1, "--output", out) == 1
    assert name in one_line_error(capsys)
    assert not out.exists()


def test_empty_sector_message_is_one_line(tmp_path, capsys):
    # 32 class masses would wrap over several lines if printed as an array
    assert run("build", "--coherent", 0, 0, "--order", 32, "--irrep", 2,
               "--output", tmp_path / "x.json") == 2
    assert "lam=2" in one_line_error(capsys)


def test_order_past_int64_is_one_line(tmp_path, capsys):
    assert run("erase", "--coherent", 1, 0, "--order", 10 ** 30, "--irrep", 2,
               "--n-max", 8, "--output", tmp_path / "x.json") == 1
    assert f"group order n={10 ** 30} outside" in one_line_error(capsys)


@pytest.mark.parametrize("order", [10 ** 11, 2 ** 63 - 1])
def test_huge_order_lists_the_occupied_classes(tmp_path, order):
    # past n_max + 1 each photon number is its own class: 17 masses, not 10^11
    out = tmp_path / "s.json"
    assert run("build", "--coherent", 1, 0, "--n-max", 16, "--order", order,
               "--irrep", 2, "--output", out) == 0
    masses = json.loads(out.read_text())["metadata"]["residue_class_masses"]
    assert masses == list(np.abs(coherent(1.0, 16).amplitudes) ** 2)


def test_huge_order_empty_sector_is_one_line(tmp_path, capsys):
    assert run("build", "--coherent", 1, 0, "--n-max", 16, "--order", 10 ** 11,
               "--irrep", 50, "--output", tmp_path / "x.json") == 2
    assert "(n=100000000000, lam=50)" in one_line_error(capsys)


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
    # the residual is the mass off the heaviest residue class mod N
    def residual(src, order):
        code = run("wigner", "--input", src, "--points", 3,
                   "--check-symmetry", order, "--output", tmp_path / "w.csv")
        err = capsys.readouterr().err
        prefix = f"rotation symmetry residual (order {order}): "
        assert code == 0 and err.startswith(prefix) and err.count("\n") == 1, err
        return err[len(prefix):-1]

    b = np.sqrt(2.0)
    assert run("build", "--gaussian", 1, 0, b, b, "--order", 3, "--irrep", 1,
               "--output", tmp_path / "c3.json") == 0
    assert residual(tmp_path / "c3.json", 3) == "0.000e+00"
    coh = write_state(tmp_path / "coh.json", coherent(1.0, 64))
    assert residual(coh, 2) == f"{(1 - np.exp(-2)) / 2:.3e}"
    assert residual(coh, 1) == "0.000e+00"
    # past n_max + 1 every class is one photon number or empty
    p = np.abs(coherent(1.0, 64).amplitudes) ** 2
    assert residual(coh, 10 ** 30) == f"{1 - p.max() / p.sum():.3e}"
    assert run("wigner", "--input", coh, "--points", 3, "--check-symmetry", -3,
               "--output", tmp_path / "w.csv") == 1
    assert "symmetry order must be >= 1" in one_line_error(capsys)


def test_wigner_check_symmetry_order_zero(tmp_path, capsys):
    src = write_state(tmp_path / "coh.json", coherent(1.0, 8))
    assert run("wigner", "--input", src, "--points", 5, "--check-symmetry", 0,
               "--output", tmp_path / "w.csv") == 1
    assert "symmetry order must be >= 1" in one_line_error(capsys)


@pytest.mark.parametrize("points", [-5, 0, 1])
def test_wigner_points_below_two_is_one_line(tmp_path, capsys, points):
    # checked before the state loads: a missing input still reports --points
    out = tmp_path / "w.csv"
    for src in (write_state(tmp_path / "coh.json", coherent(1.0, 8)),
                tmp_path / "nope.json"):
        assert run("wigner", "--input", src, "--points", points,
                   "--output", out) == 1
        assert (f"--points must be at least 2, got {points}"
                in one_line_error(capsys))
        assert not out.exists()


def test_wigner_missing_input(tmp_path):
    assert run("wigner", "--input", tmp_path / "nope.json") == 1


@pytest.mark.filterwarnings("error")
def test_wigner_far_bounds_read_exact_zeros(tmp_path):
    # the Hermite rows are exact zeros far out, so a grid reaching 1e200 is
    # written without a RuntimeWarning: W is e^{-2-p^2}/pi on its x = 0 row
    # (to the truncation at n_max 16) and 0 everywhere else
    src = write_state(tmp_path / "coh.json", coherent(1.0, 16))
    out = tmp_path / "w.csv"
    assert run("wigner", "--input", src, "--x-min=-1e200", "--x-max", 1e200,
               "--points", 5, "--output", out) == 0
    x, p, w = np.loadtxt(out, delimiter=",", skiprows=1).T
    assert x.size == 25 and (x == 0).sum() == 5
    np.testing.assert_allclose(w[x == 0], np.exp(-2.0 - p[x == 0] ** 2) / np.pi,
                               rtol=0, atol=1e-9)
    np.testing.assert_array_equal(w[x != 0], 0.0)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("bounds, message", [
    (("--x-max", "inf"), "--x-max must be finite"),
    (("--p-min", "nan"), "--p-min must be finite"),
])
def test_wigner_bounds_failure_is_one_line(tmp_path, capsys, bounds, message):
    # non-finite bounds are refused before the state loads, in one line
    src = write_state(tmp_path / "coh.json", coherent(1.0, 16))
    out = tmp_path / "w.csv"
    assert run("wigner", "--input", src, *bounds, "--points", 5,
               "--output", out) == 1
    assert message in one_line_error(capsys)
    assert not out.exists()


def test_wigner_non_finite_grid_not_written(tmp_path, capsys, monkeypatch):
    import polystate.cli as cli
    from polystate.observables import WignerGrid

    def nan_grid(state, x_range, p_range, points):
        values = np.zeros((points, points))
        values[0, :3] = np.nan
        values[1, 0] = np.inf
        return WignerGrid(*x_range, *p_range, points, values)

    monkeypatch.setattr(cli, "wigner", nan_grid)
    src = write_state(tmp_path / "vac.json", basis_state(0, 8))
    out = tmp_path / "w.csv"
    assert run("wigner", "--input", src, "--points", 5, "--output", out) == 1
    err = one_line_error(capsys)
    assert "Wigner grid: 4 of 25 values are not finite" in err
    assert not out.exists()
    assert run("wigner", "--input", src, "--points", 5) == 1
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize("message, shown", [
    ("Unable to allocate 11.9 GiB for an array with shape (40000, 40000) "
     "and data type float64", "shape (40000, 40000)"),
    ("", "allocation failed"),
])
def test_wigner_unallocatable_grid_is_one_line(tmp_path, capsys, monkeypatch,
                                               message, shown):
    # the kernel's MemoryError, as for --points 40000, without allocating it
    import polystate.cli as cli

    def too_large(state, x_range, p_range, points):
        raise MemoryError(message)

    monkeypatch.setattr(cli, "wigner", too_large)
    src = write_state(tmp_path / "vac.json", basis_state(0, 8))
    out = tmp_path / "w.csv"
    assert run("wigner", "--input", src, "--points", 40000, "--output", out) == 1
    err = one_line_error(capsys)
    assert err.startswith("error: out of memory: ") and shown in err
    assert not out.exists()


def test_mandel_non_finite_not_written(tmp_path, capsys, monkeypatch):
    import polystate.cli as cli

    monkeypatch.setattr(cli, "mandel", lambda state: float("inf"))
    src = write_state(tmp_path / "coh.json", coherent(1.0, 8))
    out = tmp_path / "m.txt"
    assert run("mandel", "--input", src, "--output", out) == 1
    assert "M_Q: 1 of 1 values are not finite" in one_line_error(capsys)
    assert not out.exists()


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


@pytest.mark.parametrize("scale", [1e200, 1e-200])
def test_state_file_is_a_ray_at_any_scale(tmp_path, capsys, scale):
    # |A|^2 overflows or underflows at these scales; the observables do not
    state = coherent(1.0 + 0.5j, 16)
    unit = write_state(tmp_path / "unit.json", state)
    scaled = tmp_path / "scaled.json"
    scaled.write_text(json.dumps({"n_max": 16,
                                  "amplitudes": _pairs(state.amplitudes * scale)}))
    outputs = []
    for src in (unit, scaled):
        assert run("wigner", "--input", src, "--points", 5, "--check-symmetry", 2,
                   "--output", tmp_path / "w.csv") == 0
        assert run("mandel", "--input", src, "--output", tmp_path / "m.txt") == 0
        w = np.loadtxt(tmp_path / "w.csv", delimiter=",", skiprows=1)[:, 2]
        m_q = float((tmp_path / "m.txt").read_text().split()[2])
        outputs.append((w, m_q, capsys.readouterr().err))
    (w_unit, m_unit, err_unit), (w_scaled, m_scaled, err_scaled) = outputs
    assert np.abs(w_scaled - w_unit).max() < 1e-14
    assert m_scaled == pytest.approx(m_unit, rel=1e-12)
    assert err_scaled == err_unit


def test_wigner_zero_state_is_one_line(tmp_path, capsys):
    src = tmp_path / "zero.json"
    src.write_text(json.dumps({"n_max": 2, "amplitudes": [[0.0, 0.0]] * 3}))
    assert run("wigner", "--input", src, "--points", 3,
               "--output", tmp_path / "w.csv") == 1
    assert "Wigner grid: 9 of 9 values are not finite" in one_line_error(capsys)


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


@pytest.mark.parametrize("command", [["mandel"], ["erase", "--order", 2, "--irrep", 1]])
def test_empty_state_file_exit(tmp_path, capsys, command):
    # n_max -1 with no amplitudes is malformed, not an IndexError traceback
    bad = tmp_path / "empty.json"
    bad.write_text(json.dumps({"n_max": -1, "amplitudes": []}))
    assert run(command[0], "--input", bad, *command[1:]) == 3
    assert "n_max must be >= 0" in one_line_error(capsys)


def test_non_boolean_tail_flag_exit(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({**vector_to_dict(coherent(1.0, 8)),
                               "metadata": {"tail_flagged": "yes"}}))
    assert run("build", "--input", bad, "--order", 2, "--irrep", 1) == 3
    assert "tail_flagged" in one_line_error(capsys)


# ---- entangle ----

ENTANGLE_KEYS = {"s_linear", "s_linear_oracle", "difference", "f_matrix"}

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
    assert data.keys() == ENTANGLE_KEYS
    assert np.array(data["f_matrix"]).shape == (3, 3, 2)


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


def test_entangle_large_truncation(tmp_path):
    # d1 d2 = 4097^2 is beyond the dense oracle's memory guard; the CLI's
    # Gram-route cross-check holds only the n x d rotated copies
    seed = coherent(1.0, 4096)
    src = write_bipartite(tmp_path / "big.json", 2, [1.0, 1.0], seed, seed)
    out = tmp_path / "res.json"
    assert run("entangle", "--input", src, "--output", out) == 0
    data = json.loads(out.read_text())
    want = linear_entropy(bipartite_normalize(
        BipartiteSpec(2, np.ones(2), seed, seed))).s_linear
    assert np.isfinite(data["s_linear"]) and 0.0 < data["s_linear"] < 0.5
    assert data["s_linear_oracle"] == pytest.approx(want, abs=1e-12)


def test_entangle_non_finite_not_written(tmp_path, capsys, monkeypatch):
    import polystate.cli as cli
    from polystate.observables import EntanglementResult, linear_entropy

    def nan_entropy(spec):
        result = linear_entropy(spec)
        f = result.f_matrix.copy()
        f[0, 1] = complex(np.nan, 0.0)
        return EntanglementResult(result.s_linear, f)

    monkeypatch.setattr(cli, "linear_entropy", nan_entropy)
    src = write_bipartite(tmp_path / "spec.json", 2, [1.0, 1.0],
                          coherent(1.0, 16), coherent(1.0, 16))
    out = tmp_path / "res.json"
    assert run("entangle", "--input", src, "--output", out) == 1
    assert "f_matrix: 1 of 4 values are not finite" in one_line_error(capsys)
    assert not out.exists()


def test_entangle_malformed_spec(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"n": 2, "c": [[1.0, 0.0], [1.0, 0.0]]}))
    assert run("entangle", "--input", bad) == 3


def test_entangle_group_order_below_one_is_exit_3(tmp_path, capsys):
    # checked before any array work: no remainder by zero, no warning
    seed = coherent(1.0, 8)
    src = write_bipartite(tmp_path / "spec.json", 0, [], seed, seed)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run("entangle", "--input", src) == 3
    assert "group order n must be >= 1, got 0" in one_line_error(capsys)


@pytest.mark.parametrize("c", [[1e309, 1.0], [1.0, complex(0.0, np.nan)]])
def test_entangle_non_finite_c_is_exit_3(tmp_path, capsys, c):
    # rejected when the spec is read: no numpy warning, one line naming c
    seed = coherent(1.0, 8)
    src = write_bipartite(tmp_path / "spec.json", 2, c, seed, seed)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run("entangle", "--input", src) == 3
    assert "malformed bipartite spec (c must be finite, got [" in one_line_error(capsys)
    proc = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", "-m", "polystate.cli",
         "entangle", "--input", src], capture_output=True, text=True)
    assert proc.returncode == 3 and proc.stderr.count("\n") == 1, proc.stderr


def test_entangle_reads_c_as_a_ray(tmp_path):
    # c is a ray, as state files are: power-of-two copies whose sum |c|^2
    # underflows or overflows write the bytes of the unscaled c, other
    # scales the same S_L up to rounding
    seed_1, seed_2 = coherent(1.0 + 0.5j, 24), coherent(0.8, 24)
    outputs = {}
    for name, c in (("unit", [1.0, 1.0, 2.0]), ("tiny", np.ldexp([1.0, 1.0, 2.0], -700)),
                    ("huge", np.ldexp([1.0, 1.0, 2.0], 1020)),
                    ("1e-200", [1e-200, 1e-200, 2e-200]),
                    ("ones", [1.0, 1.0, 1.0]), ("1e308", [1e308] * 3)):
        src = write_bipartite(tmp_path / f"{name}.json", 3, c, seed_1, seed_2)
        out = tmp_path / f"{name}.out.json"
        assert run("entangle", "--input", src, "--output", out) == 0, name
        outputs[name] = out.read_text()
    assert outputs["tiny"] == outputs["unit"]
    assert outputs["huge"] == outputs["unit"]
    for name, like in (("1e-200", "unit"), ("1e308", "ones")):
        assert json.loads(outputs[name])["s_linear"] == pytest.approx(
            json.loads(outputs[like])["s_linear"], rel=1e-12, abs=0)


# ---- JSON output ----

def bipartite_spec(path, n, n_max, seed):
    rng = np.random.default_rng(seed)
    seeds = []
    for _ in range(2):
        a = rng.standard_normal(n_max + 1) + 1j * rng.standard_normal(n_max + 1)
        seeds.append(from_amplitudes(a / np.linalg.norm(a)))
    c = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    return write_bipartite(path, n, c, *seeds), BipartiteSpec(n, c, *seeds)


@pytest.mark.parametrize("n, n_max", [(1, 8), (4, 32), (16, 64)])
def test_entangle_output_bytes(tmp_path, n, n_max):
    src, spec = bipartite_spec(tmp_path / "spec.json", n, n_max, n)
    out = tmp_path / "res.json"
    assert run("entangle", "--input", src, "--output", out) == 0
    spec = bipartite_normalize(spec)
    res = linear_entropy(spec)
    oracle = linear_entropy_gram(spec)
    text = out.read_text()
    assert text == json.dumps({
        "s_linear": res.s_linear, "s_linear_oracle": oracle,
        "difference": abs(res.s_linear - oracle),
        "f_matrix": _pairs(res.f_matrix),
    }, indent=2) + "\n"
    assert json.loads(text).keys() == ENTANGLE_KEYS


def test_build_and_circle_limit_output_bytes(tmp_path):
    seed = coherent(1.3 - 0.4j, 48)
    out = tmp_path / "state.json"
    for group, method, order, irrep in (("C", "erasure", 3, 2), ("C", "erasure", 1, 1),
                                        ("D", "dihedral-difference", 4, 3)):
        argv = ["build", "--coherent", 1.3, -0.4, "--n-max", 48, "--group", group,
                "--order", order, "--irrep", irrep, "--output", out]
        if group == "D":
            argv += ["--variant", "difference"]
            state, record = dihedral_state(seed, CyclicSpec(order, irrep), "difference")
        else:
            state = cyclic_erasure(seed, CyclicSpec(order, irrep))
            record = None
        assert run(*argv) == 0
        data = json.loads(out.read_text())
        payload = vector_to_dict(state)
        payload["metadata"] = data["metadata"]
        assert out.read_text() == json.dumps(payload, indent=2) + "\n"
        assert data["metadata"]["residue_class_masses"] == list(
            residue_class_masses(seed, order))
        if record is not None:
            assert data["metadata"]["raw_norm"] == record.raw_norm
    assert run("circle-limit", "--coherent", 1, 0.5, "--irrep", 3, "--n-max", 16,
               "--output", out) == 0
    payload = vector_to_dict(circle_limit(coherent(1 + 0.5j, 16), 3))
    payload["metadata"] = json.loads(out.read_text())["metadata"]
    assert set(payload["metadata"]) == {"irrep", "quadrature_gap"}
    assert out.read_text() == json.dumps(payload, indent=2) + "\n"


# ---- verify ----

def test_verify_single_suite(tmp_path):
    out = tmp_path / "report.txt"
    assert run("verify", "--suite", "characters", "--output", out) == 0
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


@pytest.mark.parametrize("suite", ["characters", "erasure"])
def test_verify_negative_seed_names_the_flag(tmp_path, capsys, suite):
    # rejected before any suite runs, whether or not the suite draws numbers
    out = tmp_path / "report.txt"
    assert run("verify", "--suite", suite, "--seed", -1, "--output", out) == 1
    assert one_line_error(capsys) == "error: --seed must be >= 0, got -1\n"
    assert not out.exists()


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


@pytest.mark.parametrize("seed, irrep, quantity", [
    (("--coherent", 1, 0), 100, "lam - 1 = 99 > n_max = 64"),
    (("--coherent", 0, 0), 2, "|A_1|^2 = 0.000e+00 is below 1e-24"),
])
def test_circle_limit_empty_message(tmp_path, capsys, seed, irrep, quantity):
    # names the quantity, its value and the threshold, not 65 probabilities
    assert run("circle-limit", *seed, "--irrep", irrep,
               "--output", tmp_path / "x.json") == 2
    err = one_line_error(capsys)
    assert len(err) < 200 and quantity in err


# ---- console wiring ----

def test_module_entry_point(tmp_path):
    src = write_state(tmp_path / "two.json", basis_state(2, 16))
    proc = subprocess.run(
        [sys.executable, "-m", "polystate.cli", "mandel", "--input", src],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert "subpoissonian" in proc.stdout
