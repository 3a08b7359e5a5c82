"""Gaussian seed wavefunctions and their embedding into the truncated Fock space.

A seed is psi(x) = N e^{-a x^2 + b x} with Re(a) > 0 and b != 0, normalized
in L^2 by

    N = ((a + a*)/pi * (1 + 2a)/(1 + 2a*))^{1/4} * e^{-(b^2 + b b*)/(4(a + a*))}.

principal branches throughout. With this prefactor the rotated wavefunction
<x|R(theta)|psi_{a,b}> equals psi at the rotated parameters exactly, with no
residual phase, so the closed-form expressions below can be compared against
the Fock route pointwise.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import roots_hermite

from .fock import FockVector, _checked_n_max
from .cyclic import CyclicSpec, NormalizationRecord, cyclic_superposition
from .group import character, mu, theta

__all__ = [
    "GaussianParams",
    "GaussianMoments",
    "wavefunction",
    "moments",
    "rotate_params",
    "hermite_functions",
    "gaussian_to_fock",
    "fock_wavefunction",
    "cyclic_gaussian",
    "cyclic_gaussian_wavefunction",
    "c2_closed_form",
]

EMBED_TAIL_TOL = 1e-8


@dataclass(frozen=True)
class GaussianParams:
    """Exponent parameters of e^{-a x^2 + b x}; Re(a) > 0 and b != 0.

    a = 1/2 with b = sqrt(2) alpha is the coherent state |alpha>.
    """

    a: complex
    b: complex

    def __post_init__(self):
        a = complex(self.a)
        b = complex(self.b)
        if not (a.real > 0):
            raise ValueError(f"Re(a) must be positive, got a={a}")
        if b == 0:
            raise ValueError("b must be nonzero (the seed must break rotation symmetry)")
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)


@dataclass(frozen=True)
class GaussianMoments:
    """First and second quadrature moments.

    covariance is the symmetrized 2x2 matrix in (p, x) component order:
    [0,0] = Var p, [1,1] = Var x, off-diagonal = Cov(p, x).
    """

    mean_x: float
    mean_p: float
    covariance: np.ndarray


def _prefactor(a: complex, b: complex) -> complex:
    ac, bc = np.conj(a), np.conj(b)
    quartic = ((a + ac) / np.pi * (1 + 2 * a) / (1 + 2 * ac)) ** 0.25
    return quartic * np.exp(-(b * b + b * bc) / (4 * (a + ac)))


def wavefunction(params: GaussianParams, x) -> np.ndarray:
    """psi(x) on an array of positions; unit L^2 norm."""
    x = np.asarray(x, dtype=float)
    a, b = params.a, params.b
    return _prefactor(a, b) * np.exp(-a * x * x + b * x)


def moments(params: GaussianParams) -> GaussianMoments:
    a, b = params.a, params.b
    ac, bc = np.conj(a), np.conj(b)
    s = a + ac  # 2 Re a, real positive
    mean_x = ((b + bc) / (2 * s)).real
    mean_p = (1j * (a * bc - ac * b) / s).real
    cov = np.array([
        [4 * abs(a) ** 2, -2 * a.imag],
        [-2 * a.imag, 1.0],
    ]) / (2 * s.real)
    return GaussianMoments(mean_x=float(mean_x), mean_p=float(mean_p), covariance=cov)


def rotate_params(params: GaussianParams, theta_: float) -> GaussianParams:
    """Parameters of R(theta)|psi_{a,b}>; exact, composition-consistent.

    a(theta) = (2 i a cos t - sin t) / (2 (i cos t - 2 a sin t))
    b(theta) = b / (cos t + 2 i a sin t)

    The denominator cannot vanish for Re(a) > 0; the guard is defensive.
    """
    a, b = params.a, params.b
    c, s = np.cos(theta_), np.sin(theta_)
    den = c + 2j * a * s
    if abs(den) < 1e-14:
        raise ValueError(f"rotation denominator vanished at theta={theta_}")
    a_t = (2j * a * c - s) / (2 * (1j * c - 2 * a * s))
    b_t = b / den
    return GaussianParams(a=a_t, b=b_t)


def hermite_functions(n_max: int, x) -> np.ndarray:
    """Matrix u[m, k] of harmonic-oscillator eigenfunctions u_m(x_k), m <= n_max.

    Upward recurrence u_{m+1} = sqrt(2/(m+1)) x u_m - sqrt(m/(m+1)) u_{m-1};
    stable since the functions are bounded. u_0 underflows to zero for
    |x| beyond ~38, which is harmless: every integrand using these decays
    faster than the loss.
    """
    x = np.atleast_1d(np.asarray(x, dtype=float))
    u = np.empty((n_max + 1, x.size))
    u[0] = np.pi ** -0.25 * np.exp(-x * x / 2)
    if n_max >= 1:
        u[1] = np.sqrt(2.0) * x * u[0]
    for m in range(1, n_max):
        u[m + 1] = np.sqrt(2.0 / (m + 1)) * x * u[m] - np.sqrt(m / (m + 1.0)) * u[m - 1]
    return u


_gh_cache: dict[int, tuple[np.ndarray, np.ndarray]] = {}


def _gh_nodes(n_nodes: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Hermite nodes with weights W = w e^{x^2} for plain integrals.

    Underflowed weights (w = 0 in float, |x| beyond ~27) are dropped: the
    log-space correction is undefined there and the integrands this module
    feeds in are far below resolvable size at those nodes.
    """
    if n_nodes not in _gh_cache:
        x, w = roots_hermite(n_nodes)
        keep = w > 0
        x = x[keep]
        logw = np.log(w[keep]) + x * x
        _gh_cache[n_nodes] = (x, np.exp(logw))
    return _gh_cache[n_nodes]


def gaussian_to_fock(params: GaussianParams, n_max: int | None = None,
                     quad_tol: float = 1e-13, node_cap: int = 30000) -> FockVector:
    """Project the seed onto |0>..|n_max> by adaptive Gauss-Hermite quadrature.

    Node counts start at 2 n_max + 32 and grow by 1.6x until two successive
    rules agree on the normalized amplitude vector to quad_tol in the sup
    norm. The floor alone is not enough: weakly confined seeds (Re a well
    below 1/2) have slowly decaying integrands and need several thousand
    nodes. Strongly chirped seeds (large Im a) cancellation-limit the
    achievable agreement near 1e-12, so a refinement that has stopped
    gaining while already below 1e-10 also counts as converged; that floor
    keeps every downstream 1e-8 fidelity contract comfortable. The returned
    vector is renormalized; tail_flagged is set when the truncation loses
    more than EMBED_TAIL_TOL of the continuum norm or the last amplitude
    carries more than that mass.
    """
    n_max = _checked_n_max(n_max)
    n_nodes = 2 * n_max + 32
    prev = None
    prev_diff = None
    while True:
        x, w_eff = _gh_nodes(n_nodes)
        vals = w_eff * wavefunction(params, x)
        raw = hermite_functions(n_max, x) @ vals
        nrm = float(np.linalg.norm(raw))
        if nrm == 0.0:
            raise RuntimeError("quadrature annihilated the seed; parameters degenerate")
        cur = raw / nrm
        if prev is not None:
            diff = float(np.abs(cur - prev).max())
            if diff <= quad_tol:
                break
            stalled = prev_diff is not None and diff > 0.5 * prev_diff
            if stalled and diff <= 1e-10:
                break
            prev_diff = diff
        if n_nodes >= node_cap:
            raise RuntimeError(
                f"Fock embedding did not converge within {node_cap} quadrature nodes")
        prev = cur
        n_nodes = int(np.ceil(n_nodes * 1.6))
    loss = max(0.0, 1.0 - nrm * nrm)
    flagged = loss > EMBED_TAIL_TOL or float(np.abs(cur[-1]) ** 2) > EMBED_TAIL_TOL
    return FockVector(n_max=n_max, amplitudes=cur, tail_flagged=flagged)


def fock_wavefunction(state: FockVector, x) -> np.ndarray:
    """Position representation sum_m A_m u_m(x) of a truncated state."""
    u = hermite_functions(state.n_max, x)
    return state.amplitudes @ u


def cyclic_gaussian_wavefunction(params: GaussianParams, spec: CyclicSpec, x,
                                 n_lambda: complex) -> np.ndarray:
    """Position route: n_lambda sum_r chi^(lam)(g_r) psi_{a(theta_r), b(theta_r)}(x).

    n_lambda must come from the Fock route's NormalizationRecord so the two
    routes carry the same phase and scale.
    """
    x = np.asarray(x, dtype=float)
    acc = np.zeros_like(x, dtype=complex)
    for r in range(1, spec.n + 1):
        pr = rotate_params(params, theta(spec.n, r))
        acc += character(spec.n, spec.lam, r) * wavefunction(pr, x)
    return n_lambda * acc


def cyclic_gaussian(params: GaussianParams, spec: CyclicSpec,
                    n_max: int | None = None
                    ) -> tuple[FockVector, NormalizationRecord]:
    """Symmetry-adapted Gaussian: embed, superpose, and cross-validate.

    The Fock-route result is compared pointwise on x in [-6, 6] against the
    closed-form position route; disagreement beyond 1e-6 raises. The check
    is skipped when the embedding is tail-flagged, since then the truncated
    state is not a faithful image of the continuum seed at any tolerance.
    """
    seed = gaussian_to_fock(params, n_max)
    state, record = cyclic_superposition(seed, spec)
    if not seed.tail_flagged:
        grid = np.linspace(-6.0, 6.0, 241)
        direct = cyclic_gaussian_wavefunction(params, spec, grid, record.n_lambda)
        via_fock = fock_wavefunction(state, grid)
        gap = float(np.abs(direct - via_fock).max())
        if gap > 1e-6:
            raise AssertionError(
                f"position and Fock routes disagree by {gap:.3e}")
    return state, record


def c2_closed_form(params: GaussianParams, lam: int, x) -> np.ndarray:
    """Closed-form C_2 state: even (lam = 1) or odd (lam = 2) seed combination.

    psi(x) proportional to e^{-a x^2} (e^{b x} +/- e^{-b x}), normalized and
    carrying the same global phase as the superposition route, so it matches
    cyclic_gaussian output pointwise rather than only up to phase.
    """
    if lam not in (1, 2):
        raise ValueError(f"C_2 has irreps lam = 1, 2; got {lam}")
    x = np.asarray(x, dtype=float)
    a, b = params.a, params.b
    ac, bc = np.conj(a), np.conj(b)
    sign = 1.0 if lam == 1 else -1.0
    overlap = np.exp(-(b * bc) / (a + ac)).real  # parity overlap, real in (0, 1)
    norm = _prefactor(a, b) / np.sqrt(2.0 * (1.0 + sign * overlap))
    branch = np.exp(-a * x * x) * (np.exp(b * x) + sign * np.exp(-b * x))
    return mu(2) ** (lam - 1) * norm * branch
