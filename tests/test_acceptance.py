"""Acceptance gate: one test per primary criterion, each backed by a
verify suite. pytest -v shows one line per criterion; -s adds an
explicit pass/FAIL line for each."""
from polystate.verify import run_suites


def run_criterion(k, suite, description):
    rows = run_suites([suite])
    ok = all(r.passed for r in rows)
    print(f"[PRIMARY {k}] {description}: {'pass' if ok else 'FAIL'}")
    failed = [f"{r.name}: {r.residual:.3e} > {r.tolerance:.1e}"
              for r in rows if not r.passed]
    assert ok, f"criterion {k} ({suite}): " + "; ".join(failed)


def test_primary_01_characters():
    run_criterion(1, "characters",
                  "character identities and exact root sums")


def test_primary_02_orthonormality():
    run_criterion(2, "orthonormality",
                  "cyclic sector states form an orthonormal set")


def test_primary_03_erasure():
    run_criterion(3, "erasure",
                  "erasure route equals phased superposition route")


def test_primary_04_rotation():
    run_criterion(4, "rotation",
                  "rotation eigenstate fidelity and phase per group element")


def test_primary_05_density():
    run_criterion(5, "density",
                  "density routes agree; invariance, hermiticity, trace, "
                  "sector orthogonality")


def test_primary_06_gaussian():
    run_criterion(6, "gaussian",
                  "Gaussian embedding commutes with rotation across the "
                  "parameter grid and matches its quadrature oracle; cyclic "
                  "Gaussians match the position route")


def test_primary_07_c2():
    run_criterion(7, "c2",
                  "C_2 closed-form wavefunctions match and are orthogonal")


def test_primary_08_mandel():
    run_criterion(8, "mandel",
                  "parameter scan finds subpoissonian points, "
                  "deterministically")


def test_primary_09_circle():
    run_criterion(9, "circle",
                  "large-order cyclic Gaussians approach the number-state "
                  "limit")


def test_primary_10_entangle():
    run_criterion(10, "entangle",
                  "linear entropy matches the dense oracle; product and "
                  "Bell-like limits")


def test_primary_11_inverse():
    run_criterion(11, "inverse",
                  "rotated seeds reconstructed from the full sector family")


def test_primary_12_wigner():
    run_criterion(12, "wigner",
                  "Wigner grid vs quadrature, coherent(5) at n_max 300 vs "
                  "its closed form, normalization refinement, symmetry "
                  "residuals")


def test_primary_13_coherent():
    run_criterion(13, "coherent",
                  "annihilation shifts sectors; truncated eigenvalue "
                  "residual shrinks with n_max")
