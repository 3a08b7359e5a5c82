"""The four workloads: each builds, from the benchmark seed, the list of
operations that one round runs, and the check applied to each output.

An operation's `run` is the timed call into polystate; its `check` compares
the output with the reference computations in oracles.py and returns the
problems found. A check raises OpFailed when the operation did not complete
(non-zero exit code, non-finite output): that operation counts as failed,
not as wrong. Every round runs the same operations on the same inputs, so
the failed share of a run is the same whatever the seed or the run length.

The three operations that fail today sit on fixed inputs, independent of the
seed: the embedding of the alpha = 18 coherent-like seed at n_max 512
(seed-scan), the Wigner grid of coherent(5) at n_max 300 (phase-space) and
the coherent(3) families at n = 32 (sectors).
"""
from __future__ import annotations

import contextlib
import io
import json
import math
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import polystate.cli as cli
import polystate.cyclic as cyclic
import polystate.fock as fock
import polystate.gaussian as gaussian
import polystate.observables as observables
import polystate.verify as verify

import oracles as O


class OpFailed(Exception):
    """The operation did not complete: it ran but produced no usable output."""


@dataclass
class Op:
    kind: str
    label: str
    run: Callable[[], object]
    check: Callable[[object], list[str]]
    units: int = 1  # work the op delivers: states built, grid points written
    span: str | None = None  # benchmark-level span around run, traced runs only


class _References(dict):
    """Reference values computed at the first check and reused by later
    rounds, which repeat the same inputs; the output is checked every round."""

    def __call__(self, key: str, make):
        if key not in self:
            self[key] = make()
        return self[key]


def _gap(name: str, value: float, tol: float) -> list[str]:
    return [] if value <= tol else [f"{name} {value:.3e} > {tol:.0e}"]


def _finite(arr, what: str) -> None:
    bad = int(np.size(arr) - np.count_nonzero(np.isfinite(arr)))
    if bad:
        raise OpFailed(f"{bad} non-finite values in {what}")


def _random_amplitudes(rng: np.random.Generator, n_max: int) -> np.ndarray:
    v = rng.standard_normal(n_max + 1) + 1j * rng.standard_normal(n_max + 1)
    return v / np.linalg.norm(v)


def _polar(rng: np.random.Generator, lo: float, hi: float) -> complex:
    return complex(rng.uniform(lo, hi) * np.exp(2j * np.pi * rng.random()))


# ---------------------------------------------------------------------------
# verify: the 13 suites at the package's default seed. The --seed of the
# benchmark does not enter: this workload is the project's fixed gate.


def _check_rows(rows) -> list[str]:
    return [f"{r.suite}/{r.name}: {r.residual:.3e} vs {r.tolerance:.1e}"
            for r in rows if not r.passed]


def verify_ops(seed: int, work: Path) -> list[Op]:
    return [Op("suites", name, lambda name=name: verify.run_suites([name]),
               _check_rows, span=f"verify.{name}")
            for name in verify.SUITES]


# ---------------------------------------------------------------------------
# seed-scan: Gaussian seeds embedded, erased to C_2 and C_3, scored.

_B_AXIS = (-2.25, -0.75, 0.75, 2.25)
_SCAN_FAULT = (0.5, math.sqrt(2.0) * 18.0, 512)  # a, b, n_max


def _strata(rng: np.random.Generator, lo: float, hi: float, count: int) -> np.ndarray:
    """count draws from [lo, hi], one in each of count equal bins, shuffled."""
    return lo + (hi - lo) * (rng.permutation(count) + rng.random(count)) / count


def _scan_cases(rng: np.random.Generator) -> list[tuple[complex, complex, int]]:
    """(a, b, n_max): real a, complex a and coherent-like (a = 1/2,
    b = sqrt(2) alpha) seeds. At n_max 64, 64 of each: every point of a 4x4
    b grid four times, jittered; at n_max 128, 16 of each with 1.75 times the
    displacement. Quadrature effort depends on a and |b|, so a and |alpha|
    are stratified: every seed draws the same mix of easy and hard cases.
    The ranges keep every seed inside its truncation (no tail flag), so the
    continuum moments are a fair check of the embedded ones."""
    grid = [(bx, by) for bx in _B_AXIS for by in _B_AXIS]
    cases = []
    for n_max, scale, repeats in ((64, 1.0, 4), (128, 1.75, 1)):
        count = len(grid) * repeats
        real_a = _strata(rng, 0.35, 1.8, count)
        complex_a = _strata(rng, 0.6, 1.8, count) + 1j * _strata(rng, -0.4, 0.4, count)
        for avals in (real_a, complex_a):
            for a, (bx, by) in zip(avals, grid * repeats):
                jx, jy = rng.uniform(-0.3, 0.3, 2)
                cases.append((complex(a), scale * complex(bx + jx, by + jy), n_max))
        for r in _strata(rng, 0.5 * scale, 3.0 * scale, count):
            alpha = r * np.exp(2j * np.pi * rng.random())
            cases.append((0.5 + 0j, math.sqrt(2.0) * complex(alpha), n_max))
    return cases


def _scan_run(a: complex, b: complex, n_max: int):
    seed = gaussian.gaussian_to_fock(gaussian.GaussianParams(a, b), n_max)
    scores = {}
    for n in (2, 3):
        masses = fock.residue_class_masses(seed, n)
        for lam in range(1, n + 1):
            state = cyclic.cyclic_erasure(seed, cyclic.CyclicSpec(n, lam))
            scores[n, lam] = (masses[lam - 1], state, observables.mandel(state))
    return seed, scores


def _scan_check(a: complex, b: complex, theta: float | None):
    def check(out) -> list[str]:
        seed, scores = out
        amps = seed.amplitudes
        _finite(amps, "embedding")
        probs = []
        mx, mp = O.quadrature_means(amps)
        ex, ep = O.gaussian_means(a, b)
        probs += _gap("<x> vs Re b/(2 Re a)", abs(mx - ex), 1e-7)
        probs += _gap("<p> closed form", abs(mp - ep), 1e-7)
        if a == 0.5:
            alpha = b / math.sqrt(2.0)
            poisson = ref("poisson", lambda: O.poisson_amplitudes(alpha, seed.n_max))
            probs += _gap("Poisson amplitudes", np.abs(amps - poisson).max(), 1e-9)
        for (n, lam), (mass, state, m_q) in scores.items():
            kept = O.erased(amps, n, lam)
            probs += _gap(f"C_{n} lam={lam} erasure", np.abs(state.amplitudes - kept).max(), 1e-13)
            keep = O.class_mask(seed.n_max, n, lam)
            probs += _gap(f"C_{n} lam={lam} class mass",
                          abs(mass - float(np.sum(np.abs(amps[keep]) ** 2))), 1e-13)
            if a == 0.5 and n == 2:
                want = O.cat_mandel(b / math.sqrt(2.0), odd=lam == 2)
            else:
                want = O.mandel_from_amplitudes(kept)
            probs += _gap(f"C_{n} lam={lam} M_Q", abs(m_q - want) / abs(want), 1e-9)
        if theta is not None:
            moved = ref("moved", lambda: gaussian.gaussian_to_fock(gaussian.rotate_params(
                gaussian.GaussianParams(a, b), theta), seed.n_max).amplitudes)
            turned = fock.rotate(seed, theta).amplitudes
            probs += _gap("rotation commutation 1-F", 1.0 - O.fidelity(turned, moved), 1e-8)
        return probs
    ref = _References()
    return check


def seed_scan_ops(seed: int, work: Path) -> list[Op]:
    rng = np.random.default_rng(seed)
    ops = []
    for k, (a, b, n_max) in enumerate(_scan_cases(rng)):
        theta = 2.0 * np.pi * rng.random() if k % 8 == 0 else None
        ops.append(Op("scan_seeds", f"seed{k} n_max={n_max}",
                      lambda a=a, b=b, n_max=n_max: _scan_run(a, b, n_max),
                      _scan_check(a, b, theta)))
    a, b, n_max = _SCAN_FAULT
    ops.append(Op("scan_seeds", "coherent-like alpha=18 n_max=512",
                  lambda: _scan_run(a, b, n_max), _scan_check(a, b, None)))
    return ops


# ---------------------------------------------------------------------------
# phase-space: build -> wigner (201^2, --check-symmetry n) -> mandel, all
# through cli.main, reading and writing files in the work directory.


def _cli(argv: list[str]):
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = cli.main([str(a) for a in argv])
    if code != 0:
        raise OpFailed(f"exit {code}: {err.getvalue().strip()[-200:]}")
    return err.getvalue()


def _cli_op(kind: str, label: str, argv: list, check, units: int = 1) -> Op:
    return Op(kind, label, lambda: _cli(argv), check, units)


def _load_amplitudes(path: Path) -> np.ndarray:
    data = json.loads(path.read_text())
    return np.array([complex(re, im) for re, im in data["amplitudes"]])


def _read_grid(path: Path, points: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(x, p, W) as [i, j] = (x_i, p_j) arrays; the CSV has x varying fastest."""
    rows = np.loadtxt(path, delimiter=",", skiprows=1).reshape(points, points, 3)
    return rows[..., 0].T, rows[..., 1].T, rows[..., 2].T


@dataclass
class _PhaseState:
    tag: str
    n: int
    lam: int
    n_max: int
    group: str = "C"
    method: str = "erasure"               # C_n only; D_n builds the sum variant
    alpha: complex | None = None          # coherent seed
    gauss: tuple[complex, complex] | None = None
    probes: np.ndarray | None = None      # grid indices for the direct integral


def _phase_states(rng: np.random.Generator) -> list[_PhaseState]:
    out = []
    for n in range(2, 7):
        out.append(_PhaseState(f"coh-c{n}", n, int(rng.integers(1, n + 1)), 64,
                               method=("superposition", "erasure")[n % 2],
                               alpha=_polar(rng, 1.5, 2.5)))
    for n, n_max in ((3, 64), (4, 128)):
        a = complex(rng.uniform(0.6, 1.2), rng.uniform(-0.3, 0.3))
        out.append(_PhaseState(f"gauss-c{n}-{n_max}", n, int(rng.integers(1, n + 1)),
                               n_max, method="superposition",
                               gauss=(a, _polar(rng, 1.0, 2.0)),
                               probes=rng.integers(0, 201, (6, 2))))
    alpha = complex(rng.uniform(1.2, 2.0), rng.uniform(0.6, 1.2))
    out.append(_PhaseState("coh-d3", 3, int(rng.integers(1, 4)), 64, group="D", alpha=alpha))
    return out


def _build_argv(s: _PhaseState, path: Path) -> list:
    if s.alpha is not None:
        seed = ["--coherent", repr(s.alpha.real), repr(s.alpha.imag)]
    else:
        a, b = s.gauss
        seed = ["--gaussian", repr(a.real), repr(a.imag), repr(b.real), repr(b.imag)]
    argv = ["build", *seed, "--group", s.group, "--order", s.n, "--irrep", s.lam,
            "--n-max", s.n_max, "--output", path]
    return argv + (["--method", s.method] if s.group == "C" else [])


def _expected_amplitudes(s: _PhaseState) -> np.ndarray | None:
    if s.alpha is None:
        return None
    poisson = O.poisson_amplitudes(s.alpha, s.n_max)
    if s.group == "D":
        return O.erased(poisson.real.astype(complex), s.n, s.lam)
    ref = O.erased(poisson, s.n, s.lam)
    if s.method == "superposition":
        ref = ref * np.exp(2j * np.pi * (s.lam - 1) / s.n)
    return ref


def _phase_build_check(s: _PhaseState, path: Path):
    def check(_stderr) -> list[str]:
        amps = _load_amplitudes(path)
        _finite(amps, "state")
        probs = _gap("norm", abs(np.linalg.norm(amps) - 1.0), 1e-12)
        off = ~O.class_mask(s.n_max, s.n, s.lam)
        probs += _gap("off-class mass", float(np.sum(np.abs(amps[off]) ** 2)), 1e-24)
        ref = _expected_amplitudes(s)
        if ref is not None:
            probs += _gap("amplitudes vs Poisson", np.abs(amps - ref).max(), 1e-12)
        return probs
    return check


def _phase_wigner_check(s: _PhaseState, state_path: Path, csv_path: Path):
    def check(stderr: str) -> list[str]:
        x, p, w = _read_grid(csv_path, 201)
        _finite(w, "Wigner grid")
        residual = float(re.search(r"residual \(order \d+\): (\S+)", stderr).group(1))
        probs = _gap(f"order-{s.n} rotation residual", residual, 1e-8)
        if s.alpha is not None:
            k, betas = O.coherent_superposition(s.alpha, s.n, s.lam, s.group == "D")
            want = ref("w", lambda: O.coherent_superposition_wigner(k, betas, x, p).reshape(w.shape))
            probs += _gap("W vs coherent cross terms", np.abs(w - want).max(), 1e-10)
        else:
            want = ref("w", lambda: [O.direct_wigner(_load_amplitudes(state_path), x[i, j], p[i, j])
                                     for i, j in s.probes])
            worst = max(abs(w[i, j] - v) for (i, j), v in zip(s.probes, want))
            probs += _gap("W vs direct integral", worst, 1e-10)
        if s.group == "D":
            probs += _gap("W(x,-p) - W(x,p)", np.abs(w - w[:, ::-1]).max(), 1e-10)
        return probs
    ref = _References()
    return check


def _phase_mandel_check(s: _PhaseState, state_path: Path, out_path: Path):
    def check(_stderr) -> list[str]:
        m_q = float(out_path.read_text().split()[2])
        if s.alpha is not None and s.n == 2 and s.group == "C":
            want = O.cat_mandel(s.alpha, odd=s.lam == 2)
        else:
            want = O.mandel_from_amplitudes(_load_amplitudes(state_path))
        return _gap("M_Q", abs(m_q - want) / abs(want), 1e-10)
    return check


_WIGNER_FAULT = (5.0, 300, 61)  # coherent alpha, n_max, points per axis


def phase_space_ops(seed: int, work: Path) -> list[Op]:
    rng = np.random.default_rng(seed)
    ops = []
    for s in _phase_states(rng):
        state, grid, mq = (work / f"{s.tag}.json", work / f"{s.tag}.csv",
                           work / f"{s.tag}.txt")
        ops.append(_cli_op("builds", f"build {s.tag}", _build_argv(s, state),
                           _phase_build_check(s, state)))
        ops.append(_cli_op("wigner_points", f"wigner {s.tag}",
                           ["wigner", "--input", state, "--points", 201,
                            "--check-symmetry", s.n, "--output", grid],
                           _phase_wigner_check(s, state, grid), units=201 ** 2))
        ops.append(_cli_op("mandels", f"mandel {s.tag}",
                           ["mandel", "--input", state, "--output", mq],
                           _phase_mandel_check(s, state, mq)))
    alpha, n_max, points = _WIGNER_FAULT
    state, grid = work / "coherent5-300.json", work / "coherent5-300.csv"
    amps = O.poisson_amplitudes(alpha, n_max)
    state.write_text(json.dumps({"n_max": n_max,
                                 "amplitudes": [[z.real, z.imag] for z in amps]}))

    def fault_check(_stderr) -> list[str]:
        x, p, w = _read_grid(grid, points)
        _finite(w, "Wigner grid")
        want = ref("w", lambda: O.coherent_superposition_wigner([1.0], [alpha], x, p))
        return _gap("W vs coherent Gaussian", np.abs(w - want.reshape(w.shape)).max(), 1e-10)
    ref = _References()
    ops.append(_cli_op("wigner_points", "wigner coherent(5) n_max=300",
                       ["wigner", "--input", state, "--points", points, "--output", grid],
                       fault_check, units=points ** 2))
    return ops


# ---------------------------------------------------------------------------
# sectors: large-order sector work at n_max 128; no Wigner, no embedding.

_N_MAX = 128
_SECTOR_FAULT_ALPHA = 3.0  # sectors 28..32 of C_32 carry weight ~1e-8


def _state(amps: np.ndarray) -> "fock.FockVector":
    return fock.FockVector(amps.size - 1, amps)


def _family_check(phi: np.ndarray, n: int):
    def check(pairs) -> list[str]:
        if len(pairs) != n:
            return [f"{len(pairs)} of {n} sectors built"]
        states = np.array([s.amplitudes for s, _ in pairs])
        _finite(states, "family")
        probs = _gap("Gram - I", np.abs(states.conj() @ states.T - np.eye(n)).max(), 1e-10)
        worst = max(np.abs(states[lam - 1] * np.exp(-2j * np.pi * (lam - 1) / n)
                           - O.erased(phi, n, lam)).max() for lam in range(1, n + 1))
        return probs + _gap("mu^(1-lam) superposition vs erasure", worst, 1e-11)
    return check


def _erasure_check(phi: np.ndarray, n: int):
    def check(states) -> list[str]:
        worst = max(np.abs(s.amplitudes - O.erased(phi, n, lam)).max()
                    for lam, s in enumerate(states, 1))
        return _gap("erasure vs mask", worst, 1e-13)
    return check


def _random_density(rng: np.random.Generator) -> np.ndarray:
    w = rng.random(3)
    w /= w.sum()
    vecs = [_random_amplitudes(rng, _N_MAX) for _ in w]
    return sum(wk * np.outer(v, v.conj()) for wk, v in zip(w, vecs))


def _density_check(rho: np.ndarray, n: int, lam: int):
    def check(op) -> list[str]:
        out = op.matrix
        _finite(out, "density")
        probs = _gap("vs P rho P / tr", np.abs(out - O.projected_density(rho, n, lam)).max(), 1e-13)
        probs += _gap("trace - 1", abs(np.trace(out) - 1.0), 1e-12)
        m = np.arange(_N_MAX + 1)
        worst = max(np.abs(np.outer(ph, ph.conj()) * out - out).max()
                    for ph in (np.exp(-2j * np.pi * (r - 1) / n * m) for r in range(1, n + 1)))
        return probs + _gap("rotation invariance", worst, 1e-12)
    return check


def _dihedral_check(phi: np.ndarray, n: int, variant: str):
    part = phi.real if variant == "sum" else phi.imag
    phase = 1.0 if variant == "sum" else 1j

    def check(states) -> list[str]:
        worst = max(np.abs(s.amplitudes - phase * O.erased(part.astype(complex), n, lam)).max()
                    for lam, (s, _) in enumerate(states, 1))
        return _gap(f"dihedral {variant} vs masked part", worst, 1e-12)
    return check


def _entangle_spec(path: Path, n: int, c: np.ndarray, a1: np.ndarray, a2: np.ndarray) -> None:
    def vec(a):
        return {"n_max": a.size - 1, "amplitudes": [[z.real, z.imag] for z in a]}
    path.write_text(json.dumps({"n": n, "c": [[z.real, z.imag] for z in c],
                                "seed_1": vec(a1), "seed_2": vec(a2)}))


def _entangle_check(out_path: Path, n: int, c, a1, a2):
    def check(_stderr) -> list[str]:
        data = json.loads(out_path.read_text())
        _finite([data["s_linear"], data["s_linear_oracle"]], "entropy")
        want = ref("s", lambda: O.linear_entropy_svd(n, np.asarray(c), a1, a2))
        return (_gap("S_L vs SVD", abs(data["s_linear"] - want), 1e-9)
                + _gap("S_L oracle vs SVD", abs(data["s_linear_oracle"] - want), 1e-9))
    ref = _References()
    return check


def sectors_ops(seed: int, work: Path) -> list[Op]:
    rng = np.random.default_rng(seed)
    ops = []
    # Coherent seeds keep |alpha| >= 4.5: below that, the lightest sectors of
    # C_32 at n_max 128 fall to the weight where the leakage fault fires.
    seeds = [("random", n, _random_amplitudes(rng, _N_MAX)) for n in (32, 48, 64)]
    seeds += [(f"coherent |a|={abs(al):.2f}", n, O.poisson_amplitudes(al, _N_MAX))
              for n, al in ((16, _polar(rng, 4.5, 7.0)), (32, _polar(rng, 4.5, 7.0)))]
    seeds.append(("coherent(3)", 32, O.poisson_amplitudes(_SECTOR_FAULT_ALPHA, _N_MAX)))
    for name, n, phi in seeds:
        ops.append(Op("sector_states", f"cyclic_set {name} n={n}",
                      lambda phi=_state(phi), n=n: cyclic.cyclic_set(phi, n),
                      _family_check(phi, n), units=n))

    for name, n, phi in (("random", 64, _random_amplitudes(rng, _N_MAX)),
                         ("coherent", 32, O.poisson_amplitudes(_polar(rng, 4.5, 7.0), _N_MAX))):
        ops.append(Op("sector_states", f"cyclic_erasure {name} n={n}",
                      lambda phi=_state(phi), n=n: [cyclic.cyclic_erasure(
                          phi, cyclic.CyclicSpec(n, lam)) for lam in range(1, n + 1)],
                      _erasure_check(phi, n), units=n))

    for n in (8, 16, 32):
        rho, lam = _random_density(rng), int(rng.integers(1, n + 1))
        ops.append(Op("density_ops", f"cyclic_density n={n}",
                      lambda op=fock.FockOperator(_N_MAX, rho), spec=cyclic.CyclicSpec(n, lam):
                      cyclic.cyclic_density(op, spec),
                      _density_check(rho, n, lam)))
    rho, lam = _random_density(rng), int(rng.integers(1, 17))

    def gap_check(gap) -> list[str]:
        _finite(gap, "route gap")
        return _gap("density route gap", gap, 1e-12)
    ops.append(Op("density_ops", "density_route_gap n=16",
                  lambda op=fock.FockOperator(_N_MAX, rho), spec=cyclic.CyclicSpec(16, lam):
                  cyclic.density_route_gap(op, spec), gap_check))

    for n, variant in ((16, "sum"), (32, "difference")):
        phi = _random_amplitudes(rng, _N_MAX)
        ops.append(Op("sector_states", f"dihedral_state {variant} n={n}",
                      lambda phi=_state(phi), n=n, variant=variant: [cyclic.dihedral_state(
                          phi, cyclic.CyclicSpec(n, lam), variant) for lam in range(1, n + 1)],
                      _dihedral_check(phi, n, variant), units=n))

    specs = [(n, rng.standard_normal(n) + 1j * rng.standard_normal(n),
              _random_amplitudes(rng, _N_MAX), _random_amplitudes(rng, _N_MAX), f"random n={n}")
             for n in (4, 16, 32)]
    fault = O.poisson_amplitudes(_SECTOR_FAULT_ALPHA, _N_MAX)
    specs.append((32, np.ones(32, dtype=complex), fault, fault, "coherent(3) n=32"))
    for k, (n, c, a1, a2, name) in enumerate(specs):
        spec_path, out_path = work / f"spec{k}.json", work / f"entangle{k}.json"
        _entangle_spec(spec_path, n, c, a1, a2)
        ops.append(_cli_op("entangle_specs", f"entangle {name}",
                           ["entangle", "--input", spec_path, "--output", out_path],
                           _entangle_check(out_path, n, c, a1, a2)))

    for k, (alpha, lam) in enumerate(((_polar(rng, 4.5, 7.0), int(rng.integers(1, 33))),
                                      (complex(_SECTOR_FAULT_ALPHA), 30))):
        out_path = work / f"erasure{k}.json"
        s = _PhaseState(f"erasure{k}", 32, lam, _N_MAX, alpha=alpha)
        ops.append(_cli_op("sector_states", f"build --method erasure |alpha|={abs(alpha):.2f} n=32 lam={lam}",
                           _build_argv(s, out_path), _phase_build_check(s, out_path)))
    return ops


BUILDERS = {
    "verify": verify_ops,
    "seed-scan": seed_scan_ops,
    "phase-space": phase_space_ops,
    "sectors": sectors_ops,
}
