"""Observables on symmetry-adapted states: Wigner function, photon statistics,
and bipartite entanglement of two-mode rotated superpositions.

The Wigner convention is W(x, p) = (1/pi) int dy psi^*(x+y) psi(x-y) e^{2ipy},
normalized so that int W dx dp = 1 and bounded below by -1/pi.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np
from scipy.special import gammaln

from .fock import FockVector, residue_class_masses, rotate
from .cyclic import EmptyRepresentationError, NormalizationRecord
from .gaussian import _gh_nodes, fock_wavefunction
from .group import mu, theta

__all__ = [
    "WignerGrid",
    "wigner_points",
    "wigner",
    "wigner_direct",
    "wigner_normalization_error",
    "wigner_rotation_residual",
    "wigner_reflection_residual",
    "write_wigner_csv",
    "mandel",
    "BipartiteSpec",
    "MemoryGuardError",
    "bipartite_norm_squared",
    "bipartite_normalize",
    "reconstruct_rotated",
    "EntanglementResult",
    "linear_entropy",
    "linear_entropy_oracle",
]


@dataclass(frozen=True)
class WignerGrid:
    """W on a rectangular grid; values[i, j] = W(x_i, p_j)."""

    x_min: float
    x_max: float
    p_min: float
    p_max: float
    points_per_axis: int
    values: np.ndarray

    def __post_init__(self):
        if not (self.x_max > self.x_min and self.p_max > self.p_min):
            raise ValueError("grid bounds must be strictly increasing")
        if self.points_per_axis < 2:
            raise ValueError("points_per_axis must be at least 2")
        v = np.asarray(self.values, dtype=float)
        if v.shape != (self.points_per_axis, self.points_per_axis):
            raise ValueError(f"values must be {self.points_per_axis} square")
        v.setflags(write=False)
        object.__setattr__(self, "values", v)

    @property
    def x_axis(self) -> np.ndarray:
        return np.linspace(self.x_min, self.x_max, self.points_per_axis)

    @property
    def p_axis(self) -> np.ndarray:
        return np.linspace(self.p_min, self.p_max, self.points_per_axis)


def wigner_points(state: FockVector, xs, ps) -> np.ndarray:
    """W at arbitrary phase-space points, vectorized over the point list.

    Number-basis kernel, assembled per off-diagonal distance d = m' - m with
    a three-term Laguerre recurrence. The e^{-(x^2+p^2)} damping is folded
    into the recurrence seed so intermediates stay bounded out to
    x^2 + p^2 of several hundred.
    """
    xs = np.atleast_1d(np.asarray(xs, dtype=float))
    ps = np.atleast_1d(np.asarray(ps, dtype=float))
    if xs.shape != ps.shape:
        raise ValueError("xs and ps must have matching shapes")
    A = state.amplitudes / state.norm
    nmax = state.n_max

    y = 2.0 * (xs * xs + ps * ps)
    damped = np.exp(-y / 2.0)  # e^{-(x^2+p^2)}, absorbed into L_0
    z = np.sqrt(2.0) * (xs - 1j * ps)

    m_idx = np.arange(nmax + 1)
    sign = (-1.0) ** m_idx
    total = np.zeros(xs.size, dtype=complex)
    zd = np.ones(xs.size, dtype=complex)
    for d in range(nmax + 1):
        coeff = sign[: nmax + 1 - d] * np.conj(A[: nmax + 1 - d]) * A[d:]
        if d > 0:
            m = m_idx[: nmax + 1 - d]
            coeff = coeff * np.exp(0.5 * (gammaln(m + 1) - gammaln(m + d + 1)))
        lm_prev = damped  # e^{-y/2} L_0^d
        acc = coeff[0] * lm_prev
        if nmax - d >= 1:
            lm = (1.0 + d - y) * damped
            acc = acc + coeff[1] * lm
            for m in range(1, nmax - d):
                lm, lm_prev = (((2 * m + 1 + d - y) * lm - (m + d) * lm_prev)
                               / (m + 1)), lm
                acc = acc + coeff[m + 1] * lm
        contrib = zd * acc
        total += contrib if d == 0 else contrib + np.conj(contrib)
        zd = zd * z
    return total.real / np.pi


def wigner(state: FockVector, x_range: tuple[float, float] = (-6.0, 6.0),
           p_range: tuple[float, float] | None = None,
           points_per_axis: int = 201) -> WignerGrid:
    """W on a rectangular grid; p_range defaults to x_range."""
    if p_range is None:
        p_range = x_range
    x = np.linspace(x_range[0], x_range[1], points_per_axis)
    p = np.linspace(p_range[0], p_range[1], points_per_axis)
    X, P = np.meshgrid(x, p, indexing="ij")  # values[i, j] = W(x_i, p_j)
    vals = wigner_points(state, X.ravel(), P.ravel()).reshape(X.shape)
    return WignerGrid(x_min=float(x_range[0]), x_max=float(x_range[1]),
                      p_min=float(p_range[0]), p_max=float(p_range[1]),
                      points_per_axis=points_per_axis, values=vals)


def wigner_direct(state: FockVector, x: float, p: float,
                  quad_nodes: int = 1200) -> float:
    """Oracle evaluation by direct quadrature of the defining integral.

    Slow and pointwise; exists to pin the kernel route, not for production
    grids.
    """
    nodes, w_eff = _gh_nodes(quad_nodes)
    left = np.conj(fock_wavefunction(state, x + nodes))
    right = fock_wavefunction(state, x - nodes)
    val = np.sum(w_eff * left * right * np.exp(2j * p * nodes))
    return float(val.real / np.pi)


def _trapezoid_weights(lo: float, hi: float, k: int) -> np.ndarray:
    h = (hi - lo) / (k - 1)
    w = np.full(k, h)
    w[0] = w[-1] = h / 2
    return w


def wigner_normalization_error(grid: WignerGrid) -> float:
    """|int W dx dp - 1| by the trapezoid rule on the stored grid."""
    wx = _trapezoid_weights(grid.x_min, grid.x_max, grid.points_per_axis)
    wp = _trapezoid_weights(grid.p_min, grid.p_max, grid.points_per_axis)
    return float(abs(wx @ grid.values @ wp - 1.0))


def _probe_points(bounds: tuple[float, float], points: int):
    ax = np.linspace(bounds[0], bounds[1], points)
    X, P = np.meshgrid(ax, ax)
    return X.ravel(), P.ravel()


def wigner_rotation_residual(state: FockVector, n: int,
                             bounds: tuple[float, float] = (-5.0, 5.0),
                             points: int = 61) -> float:
    """max |W(rotated point) - W(point)| for rotation by 2 pi / n.

    A state in any C_n symmetry sector satisfies this exactly: the group
    element changes the state only by a phase, and the Wigner function is
    phase-blind.
    """
    xs, ps = _probe_points(bounds, points)
    c, s = np.cos(2 * np.pi / n), np.sin(2 * np.pi / n)
    base = wigner_points(state, xs, ps)
    moved = wigner_points(state, c * xs - s * ps, s * xs + c * ps)
    return float(np.abs(moved - base).max())


def wigner_reflection_residual(state: FockVector,
                               bounds: tuple[float, float] = (-5.0, 5.0),
                               points: int = 61) -> float:
    """max |W(x, -p) - W(x, p)|; zero when the state is a phase times a
    real-amplitude vector."""
    xs, ps = _probe_points(bounds, points)
    base = wigner_points(state, xs, ps)
    flipped = wigner_points(state, xs, -ps)
    return float(np.abs(flipped - base).max())


def write_wigner_csv(grid: WignerGrid, stream) -> None:
    """CSV rows x,p,w with x varying fastest (p is the outer loop)."""
    stream.write("x,p,w\n")
    x_ax, p_ax = grid.x_axis, grid.p_axis
    for j, pv in enumerate(p_ax):
        for i, xv in enumerate(x_ax):
            stream.write(f"{xv:.12e},{pv:.12e},{grid.values[i, j]:.12e}\n")


def mandel(state: FockVector) -> float:
    """Mandel M_Q = Var(n)/<n>; values below 1 mean subpoissonian statistics.

    Undefined for the zero vector and for the vacuum, which has <n> = 0.
    """
    p = np.abs(state.amplitudes) ** 2
    total = p.sum()
    if total == 0.0:
        raise ValueError("Mandel parameter is undefined for the zero vector "
                         "(total probability 0)")
    p = p / total
    m = np.arange(p.size)
    nbar = float((m * p).sum())
    if nbar == 0.0:
        raise ValueError("Mandel parameter is undefined for the vacuum (<n> = 0)")
    var = float((m * m * p).sum()) - nbar * nbar
    return var / nbar


# ---------------------------------------------------------------------------
# Bipartite rotated superpositions


class MemoryGuardError(RuntimeError):
    """The dense two-mode oracle would exceed its memory budget."""


@dataclass(frozen=True)
class BipartiteSpec:
    """Two-mode state sum_r c_r R(theta_r)|seed_1> (x) R(theta_r)|seed_2>."""

    n: int
    c: np.ndarray
    seed_1: FockVector
    seed_2: FockVector

    def __post_init__(self):
        c = np.asarray(self.c, dtype=complex)
        if c.shape != (self.n,):
            raise ValueError(f"c must have length n={self.n}, got shape {c.shape}")
        c.setflags(write=False)
        object.__setattr__(self, "c", c)


def _rotated_gram(seed: FockVector, n: int) -> np.ndarray:
    """g[r'-1, r-1] = <R_{r'} seed | R_r seed>.

    Circulant in r - r': g[i, j] = sum_l w_l mu_n^(-(j-i) l), the FFT of the
    residue-class masses w_l (class l holds m = l mod n).
    """
    h = np.fft.fft(residue_class_masses(seed, n))
    k = np.arange(n)
    return h[(k[None, :] - k[:, None]) % n]


def bipartite_norm_squared(spec: BipartiteSpec) -> float:
    g = _rotated_gram(spec.seed_1, spec.n) * _rotated_gram(spec.seed_2, spec.n)
    return float(np.real(np.conj(spec.c) @ g @ spec.c))


def bipartite_normalize(spec: BipartiteSpec) -> BipartiteSpec:
    """Rescale c by a positive constant so the two-mode state has unit norm."""
    nsq = bipartite_norm_squared(spec)
    if nsq <= 0:
        raise ValueError("two-mode state has zero norm; coefficients degenerate")
    return BipartiteSpec(spec.n, spec.c / np.sqrt(nsq), spec.seed_1, spec.seed_2)


def reconstruct_rotated(pairs: Sequence[tuple[FockVector, NormalizationRecord]],
                        n: int, r: int) -> FockVector:
    """Invert the symmetry adaptation: recover R(theta_r)|phi> from the family.

    pairs holds the (state, record) outputs of the superposition route, one
    per sector; each state's sector label is read off its support. All n
    sectors must be present for the inversion to be exact.
    """
    if not pairs:
        raise ValueError("no sector states to reconstruct from")
    acc = np.zeros(pairs[0][0].n_max + 1, dtype=complex)
    seen = set()
    for state, record in pairs:
        lam = int(np.argmax(np.abs(state.amplitudes)) % n) + 1
        seen.add(lam)
        weight = mu(n) ** ((1 - r) * (lam - 1)) / (n * record.n_lambda)
        acc += weight * state.amplitudes
    missing = sorted(set(range(1, n + 1)) - seen)
    if missing:
        raise EmptyRepresentationError(
            n, missing[0], np.zeros(n),
            detail="reconstruction needs every sector")
    return FockVector(pairs[0][0].n_max, acc)


@dataclass(frozen=True)
class EntanglementResult:
    """s_linear = 1 - Tr(rho_1^2); f_matrix = rho_1 in the sector basis;
    d_tensor[r-1] is the per-element coefficient matrix before summation."""

    s_linear: float
    f_matrix: np.ndarray
    d_tensor: np.ndarray


def _unit_root_powers(k: np.ndarray, n: int) -> np.ndarray:
    """mu_n^(-k) for integer arrays k, reduced mod n before exponentiating."""
    return np.exp(-2j * np.pi * (k % n) / n)


def linear_entropy(spec: BipartiteSpec) -> EntanglementResult:
    """Reduced-state linear entropy of the two-mode superposition.

    Expands each rotated seed over its symmetry sectors,
    R_r|seed> = sum_lam mu_n^(-(r-1)(lam-1)) sqrt(w_lam) |lam>, with w_lam the
    seed's residue-class masses. Since sector states of distinct lam are
    orthonormal, the reduced density matrix in that basis is G G^dag with
    the Hankel sector matrix
    G[la, lb] = sqrt(w1_la) sqrt(w2_lb) FFT(c)[k mod n] mu_n^(-k),
    k = la + lb - 2. Empty sectors contribute zero rows and columns.
    Requires a normalized spec (run bipartite_normalize first).
    """
    n = spec.n
    k = np.arange(n)
    ksum = k[:, None] + k[None, :]
    amp = np.outer(np.sqrt(residue_class_masses(spec.seed_1, n)),
                   np.sqrt(residue_class_masses(spec.seed_2, n)))
    g = amp * np.fft.fft(spec.c)[ksum % n] * _unit_root_powers(ksum, n)
    d = (spec.c[:, None, None] * amp
         * _unit_root_powers((k + 1)[:, None, None] * ksum, n))

    total = float(np.sum(np.abs(g) ** 2))
    if abs(total - 1.0) > 1e-8:
        raise ValueError(
            f"spec is not normalized (sector mass {total:.6f}); "
            "call bipartite_normalize first")
    f = g @ g.conj().T
    s_linear = 1.0 - float(np.sum(np.abs(f) ** 2))
    return EntanglementResult(s_linear=s_linear, f_matrix=f, d_tensor=d)


def linear_entropy_oracle(spec: BipartiteSpec,
                          memory_budget: int = 2 ** 24) -> float:
    """Dense two-mode computation of the same quantity, for cross-checks.

    Builds the full (n_max+1)^2 joint amplitude matrix T, so it refuses
    inputs whose T would exceed memory_budget entries.
    """
    d1 = spec.seed_1.n_max + 1
    d2 = spec.seed_2.n_max + 1
    if d1 * d2 > memory_budget:
        raise MemoryGuardError(
            f"joint amplitude matrix needs {d1 * d2} entries, "
            f"budget is {memory_budget}")
    t = np.zeros((d1, d2), dtype=complex)
    for r in range(1, spec.n + 1):
        a1 = rotate(spec.seed_1, theta(spec.n, r)).amplitudes
        a2 = rotate(spec.seed_2, theta(spec.n, r)).amplitudes
        t += spec.c[r - 1] * np.outer(a1, a2)
    rho_1 = t @ t.conj().T
    return 1.0 - float(np.sum(np.abs(rho_1) ** 2))  # Tr rho^2, rho Hermitian
