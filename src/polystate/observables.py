"""Observables on symmetry-adapted states: Wigner function, photon statistics,
and bipartite entanglement of two-mode rotated superpositions.

The Wigner convention is W(x, p) = (1/pi) int dy psi^*(x+y) psi(x-y) e^{2ipy},
normalized so that int W dx dp = 1 and bounded below by -1/pi.

W is evaluated by an exact Hermite-Gauss factorisation. The state is first
cut at its support m*, the last m whose amplitude tail sum_{k>=m} |A_k|^2
exceeds 2^-120 of the norm squared (m* <= n_max; the dropped tail moves W
by at most 2 * 2^-60 / pi = 5.5e-19). Then psi^*(x+y) psi(x-y) is e^{-y^2}
times a polynomial in y of degree <= 2 m*, so the K-node Gauss-Hermite rule
with K = 2 m* + 1 gives its coefficients on the Hermite functions
h_k(sqrt(2) y), k < K, without error, and h_k is an eigenfunction of the
Fourier transform: int h_k(sqrt(2) y) e^{2ipy} dy = sqrt(pi) i^k
h_k(sqrt(2) p). On a grid,

    W = pi^{-1/2} [(F o w) G^T diag(i^k)] H_p,

with F[i, a] = psi^*(x_i + t_a/sqrt2) psi(x_i - t_a/sqrt2), G[k, a] =
h_k(t_a), H_p[k, j] = h_k(sqrt(2) p_j) and the Christoffel weights
w_a = 1 / sum_k h_k(t_a)^2: two GEMMs, exact up to rounding at any n_max.
G, H_p and the weights all come from one Hermite table per call, taken
at the nodes and at sqrt(2) p. The nodes are 0 and the square roots of
numpy's eigvalsh of the m* x m* Laguerre Jacobi matrix (K is odd),
mirrored and Newton-polished on h_K, at every K.

F(x, a) is also e^{-x^2} times a polynomial of degree <= 2 m* in x, so
it lies in span{h_j(sqrt(2) x), j < K}. With more than K distinct x, F is
therefore formed only at the K Gauss rows x_b = t_b/sqrt2 and mapped to x
exactly by H_x^T (G o w), with H_x[j, i] = h_j(sqrt(2) x_i) taken in the
same table: the rule integrates the degree <= 4 m* <= 2K - 2 products
exactly.

Scattered points (x_i, p_i) run the same pipeline and differ only in the
last contraction, which pairs the coefficient row of x_i with column i of
H_p. The number-basis Laguerre double sum (Cahill & Glauber, Phys. Rev.
177, 1857 (1969)) gives the same W; wigner_direct, the defining integral
by the trapezoid rule on a grid, is the oracle.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .fock import FockVector, _as_ray, _ray_scale, _rotated_copies, residue_class_masses
from .gaussian import (_hermite_reach, _hermite_rows, _trapezoid_weights, fock_wavefunction,
                       hermite_functions)
from .group import unit_root

__all__ = [
    "WignerGrid",
    "wigner_points",
    "wigner",
    "wigner_direct",
    "wigner_normalization_error",
    "wigner_reflection_residual",
    "write_wigner_csv",
    "mandel",
    "BipartiteSpec",
    "MemoryGuardError",
    "bipartite_normalize",
    "EntanglementResult",
    "linear_entropy",
    "linear_entropy_gram",
    "linear_entropy_oracle",
]


# Wavefunction values psi(x_i + t_a / sqrt 2) per row block of
# _weighted_products at x.
_WIGNER_BLOCK = 2 ** 14
# Relative norm of the amplitude tail that _support_cut drops: W moves by at
# most 2 * 2^-60 / pi = 5.5e-19, since W = <Pi(x, p)>/pi with ||Pi|| = 1.
_SUPPORT_TOL = 2.0 ** -60
# Lines per block of write_wigner_csv (72 bytes each in its byte buffer).
_CSV_BLOCK = 2 ** 13
# Distance from 1/2 within which _e12_fields leaves a mantissa's rounding to
# Python: over twice its 2.3e-3 error bound.
_ROUND_MARGIN = 0.005
# Most entries of linear_entropy_oracle's joint amplitude matrix.
_ORACLE_BUDGET = 2 ** 24


@dataclass(frozen=True, eq=False)
class WignerGrid:
    """W on a rectangular grid; values[i, j] = W(x_i, p_j), a read-only copy
    of the array passed in. Equality is identity."""

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
        v = np.array(self.values, dtype=float)
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


def _wigner_nodes(n_max: int) -> np.ndarray:
    """The K = 2 n_max + 1 Gauss-Hermite nodes t_a, ascending.

    K is the exactness condition and is odd, so h_K(t) is t L_n^(1/2)(t^2)
    e^{-t^2/2} up to a constant, n = n_max (Szego, Orthogonal Polynomials,
    5.6): the nodes are 0 and +-sqrt(xi), xi the eigenvalues of the n x n
    Laguerre Jacobi matrix (diagonal 2j + 3/2, off-diagonal sqrt(j (j + 1/2));
    Golub & Welsch, Math. Comp. 23, 221 (1969)) by numpy's eigvalsh, polished
    by one Newton step on h_K(t) = 0 and mirrored: t[K-1-a] = -t[a] exactly.
    """
    k = 2 * n_max + 1
    j = np.arange(1, n_max)
    jacobi = np.diag(2.0 * np.arange(n_max) + 1.5) + np.diag(np.sqrt(j * (j + 0.5)), -1)
    s = np.sqrt(np.linalg.eigvalsh(jacobi))
    for m, row in enumerate(_hermite_rows(k, s)):
        if m == k - 1:
            below = row.copy()
    s = s - row / (np.sqrt(2.0 * k) * below)  # h_K' = sqrt(2K) h_{K-1} at a root
    return np.concatenate([-s[::-1], [0.0], s])


def _weighted_products(state: FockVector, x: np.ndarray | None, t: np.ndarray,
                       w: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Real and imaginary parts of F[i, a] w_a / |psi|^2, with
    F[i, a] = psi*(x_i + t_a/sqrt2) psi(x_i - t_a/sqrt2), in row blocks.

    x None stands for the K Gauss rows x_b = t_b / sqrt2, where
    psi((t_b + t_a)/sqrt2) is symmetric in (a, b): one triangle of it,
    K (K + 1) / 2 values, is evaluated, in one block of K^2 entries.
    """
    if x is None:
        i, j = np.triu_indices(t.size)
        psi = np.empty((t.size, t.size), dtype=complex)
        psi[i, j] = fock_wavefunction(state, (t[i] + t[j]) / np.sqrt(2.0))
        psi[j, i] = psi[i, j]
        blocks = [(slice(None), psi)]
    else:
        step = max(1, _WIGNER_BLOCK // t.size)
        blocks = ((blk, fock_wavefunction(state, (x[blk, None] + t / np.sqrt(2.0)).ravel()))
                  for blk in (slice(lo, lo + step) for lo in range(0, x.size, step)))
    rows = t.size if x is None else x.size
    fr, fi = np.empty((rows, t.size)), np.empty((rows, t.size))
    w = w / state.norm ** 2
    for blk, psi in blocks:
        psi = psi.reshape(-1, t.size)
        f = np.conj(psi) * psi[:, ::-1]  # psi(x - t_a/sqrt2) = psi(x + t_{K-1-a}/sqrt2)
        np.multiply(f.real, w, out=fr[blk])
        np.multiply(f.imag, w, out=fi[blk])
    return fr, fi


def _support_cut(state: FockVector) -> FockVector:
    """The state cut at its support m*, the last m with
    sum_{k>=m} |A_k|^2 > _SUPPORT_TOL^2 sum_k |A_k|^2.

    The dropped tail has norm eps <= _SUPPORT_TOL relative to the state's,
    so the two normalized projectors are 2 eps apart in trace norm, and
    W = <Pi(x, p)>/pi with a displaced parity Pi of norm 1 (Royer, Phys.
    Rev. A 15, 449 (1977)) moves by at most 2 eps / pi = 5.5e-19. Exact
    trailing zeros are cut without loss. It cuts the state's kept ray
    (fock._as_ray); a ray reaching n_max, and the zero vector, stay uncut.
    """
    state = _as_ray(state)
    mass = np.abs(state.amplitudes) ** 2
    tail = np.cumsum(mass[::-1])[::-1]  # tail[m] = sum_{k>=m}, non-increasing
    m = int(np.count_nonzero(tail > _SUPPORT_TOL ** 2 * tail[0])) - 1
    if m in (-1, state.n_max):
        return state
    return FockVector(m, state.amplitudes[:m + 1])


def _wigner_kernel(state: FockVector, x: np.ndarray, p: np.ndarray, contract):
    """pi^{-1/2} times the sum, over the parities of k, of contract(c, H_p)
    between the row coefficients c of x and H_p[k, j] = sigma_k h_k(sqrt(2) p_j).

    The state is first cut at its support m* (_support_cut), so K = 2 m* + 1
    and every array is sized to the amplitudes the state uses; W moves by at
    most 5.5e-19. One Hermite table H, k < K, is taken at the nodes t, at
    sqrt(2) p and, beyond K distinct x, at sqrt(2) x. Its node block
    G[k, a] = h_k(t_a) gives the weights w_a = 1 / sum_k G[k, a]^2 and the
    coefficients b_ik = sum_a F[i, a] w_a h_k(t_a) of
    f_i(y) = psi*(x_i + y) psi(x_i - y) on h_k(sqrt(2) y). As
    f_i(-y) = f_i(y)*, b_ik is real for even k and imaginary for odd k, so
    Re(i^k b_ik) = sigma_k Re b_ik or sigma_k Im b_ik, sigma_k = 1, -1, -1, 1
    for k = 0, 1, 2, 3 mod 4: one GEMM against G's rows of each parity,
    with sigma_k put on H_p's rows in place.

    Up to K distinct x, F o w is formed at x itself (K wavefunction values
    per x); beyond K, at the K Gauss rows (K (K + 1) / 2 values in all),
    mapped to x by H_x^T (G o w) as the module docstring derives. The map
    needs the rule's discrete orthogonality to rounding: the Newton-polished
    nodes hold it to about 1e-14 up to K = 1201.
    """
    state = _support_cut(state)
    t = _wigner_nodes(state.n_max)
    k = t.size
    gauss = k < x.size
    h = hermite_functions(k - 1, np.concatenate(
        [t, np.sqrt(2.0) * p] + ([np.sqrt(2.0) * x] if gauss else [])))
    g, hp = h[:, :k], h[:, k:k + p.size]
    w = 1.0 / np.einsum("ka,ka->a", g, g)
    hp[1::4] *= -1.0  # sigma_k
    hp[2::4] *= -1.0
    fr, fi = _weighted_products(state, None if gauss else x, t, w)
    c = fr @ g[0::2].T, fi @ g[1::2].T
    if gauss:
        to_x = h[:, k + p.size:].T @ (g * w)  # plain weights: the rows carry 1/|psi|^2
        c = to_x @ c[0], to_x @ c[1]
    return (contract(c[0], hp[0::2]) + contract(c[1], hp[1::2])) / np.sqrt(np.pi)


def wigner_points(state: FockVector, xs, ps) -> np.ndarray:
    """W at arbitrary phase-space points, shaped like xs.

    W(x, p) = pi^{-1/2} sum_k Re(i^k b_k(x)) h_k(sqrt(2) p), from the same
    row coefficients as the grid, exact for the state cut at its support m*
    since K = 2 m* + 1 (the cut moves W by at most 5.5e-19; m* = n_max when
    the amplitudes reach the truncation). All points go through one pass,
    which holds K values per point and per distinct x: the coefficients do
    not depend on p, so they are formed once per distinct x (from the K
    Gauss rows when there are more than K), and a meshgrid costs about what
    its grid does.
    """
    xs = np.atleast_1d(np.asarray(xs, dtype=float))
    ps = np.atleast_1d(np.asarray(ps, dtype=float))
    if xs.shape != ps.shape:
        raise ValueError("xs and ps must have matching shapes")
    x, row = np.unique(xs.ravel(), return_inverse=True)
    out = _wigner_kernel(state, x, ps.ravel(),
                         lambda c, h: np.einsum("ik,ki->i", c[row], h))
    return out.reshape(xs.shape)


def wigner(state: FockVector, x_range: tuple[float, float] = (-6.0, 6.0),
           p_range: tuple[float, float] | None = None,
           points_per_axis: int = 201) -> WignerGrid:
    """W on a rectangular grid; p_range defaults to x_range."""
    if p_range is None:
        p_range = x_range
    x = np.linspace(x_range[0], x_range[1], points_per_axis)
    p = np.linspace(p_range[0], p_range[1], points_per_axis)
    return WignerGrid(x_min=float(x_range[0]), x_max=float(x_range[1]),
                      p_min=float(p_range[0]), p_max=float(p_range[1]),
                      points_per_axis=points_per_axis,
                      values=_wigner_kernel(state, x, p, np.matmul))


def wigner_direct(state: FockVector, x, p) -> np.ndarray:
    """Oracle: the defining integral by the trapezoid rule in y on the x
    (outer) by p grid, shaped x.shape + p.shape.

    psi and its Fourier transform vanish to rounding past R =
    _hermite_reach(n_max), so the rule runs on |y| <= R + max|x| with a step
    of at most pi / (R + max|p|), which aliases e^{2ipy} psi*(x+y) psi(x-y)
    only from 2R out in frequency: 275 nodes at n_max 16 on [-5, 5]^2. At
    fixed x the product does not depend on p, so one pair of wavefunction
    evaluations over the nodes and one product with e^{2ipy} give every
    row. Exists to pin the kernel route, not for production grids.
    """
    x = np.asarray(x, dtype=float)
    p = np.asarray(p, dtype=float)
    reach = _hermite_reach(state.n_max)
    half = reach + np.abs(x).max(initial=0.0)
    k = int(np.ceil(2.0 * half * (reach + np.abs(p).max(initial=0.0)) / np.pi)) + 1
    nodes = np.linspace(-half, half, k)
    rows = x.reshape(-1, 1)
    left = np.conj(fock_wavefunction(state, (rows + nodes).ravel()))
    right = fock_wavefunction(state, (rows - nodes).ravel())
    f = (left * right).reshape(x.size, k) * _trapezoid_weights(-half, half, k)
    val = f @ np.exp(2j * np.outer(nodes, p.ravel()))
    return (val.real / np.pi).reshape(x.shape + p.shape)


def wigner_normalization_error(grid: WignerGrid) -> float:
    """|int W dx dp - 1| by the trapezoid rule on the stored grid."""
    wx = _trapezoid_weights(grid.x_min, grid.x_max, grid.points_per_axis)
    wp = _trapezoid_weights(grid.p_min, grid.p_max, grid.points_per_axis)
    return float(abs(wx @ grid.values @ wp - 1.0))


def wigner_reflection_residual(state: FockVector) -> float:
    """max |W(x, -p) - W(x, p)| on the 61 x 61 grid over [-5, 5]^2; zero when
    the state is a phase times a real-amplitude vector. The axis is exactly
    antisymmetric, so W(x, -p) is the grid's reversed p columns."""
    ax = np.linspace(-5.0, 5.0, 61)
    ax = 0.5 * (ax - ax[::-1])  # exactly antisymmetric
    values = _wigner_kernel(state, ax, ax, np.matmul)
    return float(np.abs(values[:, ::-1] - values).max())


def write_wigner_csv(grid: WignerGrid, stream) -> None:
    """CSV rows x,p,w in %.12e, x varying fastest (p is the outer loop).

    The text is exactly f"{x:.12e},{p:.12e},{w:.12e}\\n" per point. The axes
    go through Python's formatter and the W column through _e12_fields,
    which rounds by array arithmetic. For |w| in [1e-290, 1e290] it takes
    e = floor(log10|w|) and m = |w| s, with s = float("1e{12-e}") the
    correctly rounded power of ten. Two roundings of relative size at most
    2^-53 put m < 1e13 within 2.3e-3 of the exact |w| 10^(12-e), so rint(m)
    is the correctly rounded 13-digit mantissa whenever frac(m) is more
    than _ROUND_MARGIN = 0.005 from 1/2. The other values (about 1 % of a
    Wigner grid: mantissas within the margin or at a decade's edge, zeros,
    non-finite values and |w| outside that range) also go through Python's
    formatter, so every field is Python's by construction.

    Lines are made a block of p-rows (_CSV_BLOCK lines) at a time, as three
    NUL-padded 24-byte fields a line whose NULs are deleted on output. A
    201 x 201 grid takes about 5.5 ms to write to a file, against 15.3 ms
    for one Python format per point (2-vCPU x86_64, Python 3.11, numpy 2.4).
    """
    stream.write("x,p,w\n")
    n = grid.points_per_axis
    x_cols = _python_fields(grid.x_axis, ",")
    p_cols = _python_fields(grid.p_axis, ",")
    tables = _digit_tables()
    step = max(1, _CSV_BLOCK // n)
    for j0 in range(0, n, step):
        rows = grid.values[:, j0:j0 + step].T
        buf = np.empty((rows.size, 18), np.uint32)
        lines = buf.reshape(rows.shape + (18,))
        lines[..., :6] = x_cols
        lines[..., 6:12] = p_cols[j0:j0 + step, None]
        buf[:, 12:] = _e12_fields(rows.ravel(), tables).T
        stream.write(buf.tobytes().translate(None, b"\0").decode("ascii"))


def _python_fields(values: np.ndarray, end: str) -> np.ndarray:
    """f"{v:.12e}{end}" of each value, NUL-padded to 24 bytes: (len, 6) uint32."""
    text = [f"{v:.12e}{end}".encode() for v in values.tolist()]
    return np.array(text, dtype="S24").view(np.uint32).reshape(-1, 6)


def _digit_tables() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """4-byte ASCII words, indexed by value: head[100 s + d] = sign (NUL or
    '-'), the two digits of d with '.' between; four[d] = the digits of
    0000..9999; tail[d] = the digits of 000..999 and 'e'."""
    d = np.arange(100)
    two = np.stack([d // 10, d % 10], axis=1).astype(np.uint8) + 48
    head = np.zeros((2, 100, 4), np.uint8)
    head[1, :, 0] = 45
    head[..., 1], head[..., 2], head[..., 3] = two[:, 0], 46, two[:, 1]
    four = np.empty((100, 100, 4), np.uint8)
    four[..., :2], four[..., 2:] = two[:, None], two
    four = four.reshape(10000, 4)
    tail = np.empty((1000, 4), np.uint8)
    tail[:, :3], tail[:, 3] = four[:1000, 1:], 101
    return tuple(t.view(np.uint32).ravel() for t in (head, four, tail))


def _e12_fields(v: np.ndarray, tables) -> np.ndarray:
    """f"{x:.12e}\\n" of each x in v as a (6, len(v)) array of 4-byte words,
    NUL-padded like _python_fields and transposed. The rounding argument is
    write_wigner_csv's. A value whose m lies outside [1e12, 1e13), or
    rounds up to 1e13, sits at a decade's edge and is left to _python_fields
    with the rest. The digits come from float splits of the integer-valued
    mantissa, exact below 2^53, and table lookups.
    """
    head, four, tail = tables
    a = np.abs(v)
    fast = (a >= 1e-290) & (a <= 1e290)
    a[~fast] = 1.0
    e = np.floor(np.log10(a)).astype(np.int64)
    e_lo = int(e.min())
    powers = range(e_lo, int(e.max()) + 1)
    scale = np.array([float(f"1e{12 - k}") for k in powers])
    m = a * scale[e - e_lo]
    r = np.rint(m)
    fast &= (np.abs(m - r) < 0.5 - _ROUND_MARGIN) & (m >= 1e12) & (r < 1e13)
    top = np.floor(r / 1e11)
    r -= top * 1e11
    high = np.floor(r / 1e7)
    r -= high * 1e7
    mid = np.floor(r / 1e3)
    r -= mid * 1e3
    top += 100.0 * (v < 0)
    exps = np.array([f"{k:+03d}".encode() for k in powers], dtype="S4")
    out = np.empty((6, v.size), np.uint32)
    # clip: an index only leaves its table for a value left to Python
    np.take(head, top.astype(np.intp), out=out[0], mode="clip")
    np.take(four, high.astype(np.intp), out=out[1], mode="clip")
    np.take(four, mid.astype(np.intp), out=out[2], mode="clip")
    np.take(tail, r.astype(np.intp), out=out[3], mode="clip")
    np.take(exps.view(np.uint32), e - e_lo, out=out[4], mode="clip")
    out[5] = np.array([10, 0, 0, 0], np.uint8).view(np.uint32)[0]
    slow = np.flatnonzero(~fast)
    if slow.size:
        out[:, slow] = _python_fields(v[slow], "\n").T
    return out


def mandel(state: FockVector) -> float:
    """Mandel M_Q = Var(n)/<n>; values below 1 mean subpoissonian statistics.

    Undefined for the zero vector and for the vacuum, which has <n> = 0.
    The weights are those of the state's kept ray (FockVector._ray), so M_Q
    is the same at any scale.
    """
    return float(_fano(np.abs(state._ray) ** 2))


def _fano(p: np.ndarray) -> np.ndarray:
    """Var(n)/<n> over the last axis of photon-number weights p.

    mandel applies it to the weights of one state's kept ray
    (FockVector._ray), verify's mandel scan to a grid of rows.
    ValueError if any row is zero or holds all its weight on the vacuum.
    Written for the cost of one row, which mandel pays per call: the sums
    are np.add.reduce without the sum method's wrapper, a float m keeps the
    products free of casts, and one row reduces to scalars with plain truth tests.
    """
    rows = p.ndim > 1
    total = np.add.reduce(p, -1, keepdims=rows)
    if not (total.all() if rows else total):
        raise ValueError("Mandel parameter is undefined for the zero vector "
                         "(total probability 0)")
    p = p / total
    m = np.arange(p.shape[-1], dtype=float)
    nbar = np.add.reduce(m * p, -1)
    if not (nbar.all() if rows else nbar):
        raise ValueError("Mandel parameter is undefined for the vacuum (<n> = 0)")
    return (np.add.reduce(m * m * p, -1) - nbar * nbar) / nbar


# ---------------------------------------------------------------------------
# Bipartite rotated superpositions


class MemoryGuardError(RuntimeError):
    """The dense two-mode oracle would exceed its memory budget."""


@dataclass(frozen=True, eq=False)
class BipartiteSpec:
    """Two-mode state sum_r c_r R(theta_r)|seed_1> (x) R(theta_r)|seed_2>;
    c is a read-only copy of the array passed in. Equality is identity."""

    n: int
    c: np.ndarray
    seed_1: FockVector
    seed_2: FockVector

    def __post_init__(self):
        if self.n < 1:
            raise ValueError(f"group order n must be >= 1, got {self.n}")
        c = np.array(self.c, dtype=complex)
        if c.shape != (self.n,):
            raise ValueError(f"c must have length n={self.n}, got shape {c.shape}")
        if not np.isfinite(c).all():
            raise ValueError(f"c must be finite, got {np.array2string(c, precision=3)}")
        c.setflags(write=False)
        object.__setattr__(self, "c", c)


def _sector_matrix(c: np.ndarray, w1: np.ndarray, w2: np.ndarray) -> np.ndarray:
    """The Hankel sector matrices G (..., n, n) of a stack of two-mode states
    with coefficients c (..., n) and the seeds' residue-class masses w1, w2
    (..., n): their amplitudes on the products |la>|lb> of the seeds' unit
    sector states.

    Each rotated seed expands over its sectors as
    R_r|seed> = sum_lam mu_n^(-(r-1)(lam-1)) sqrt(w_lam) |lam>, with w_lam
    the seed's residue-class masses, so
    G[la, lb] = sqrt(w1_la) sqrt(w2_lb) FFT(c)[k mod n] mu_n^(-k),
    k = la + lb - 2: the sum over r = 1..n of the per-element matrices
    c_r sqrt(w1_la) sqrt(w2_lb) mu_n^(-r k). Empty sectors give zero rows
    and columns.
    """
    n = c.shape[-1]
    k = np.arange(n)
    ksum = k[:, None] + k[None, :]
    amp = np.sqrt(w1)[..., :, None] * np.sqrt(w2)[..., None, :]
    return amp * np.fft.fft(c)[..., ksum % n] * unit_root(-ksum, n)


def _masses(spec: BipartiteSpec) -> tuple[np.ndarray, np.ndarray]:
    """The residue-class masses of the spec's two seeds."""
    return (residue_class_masses(spec.seed_1, spec.n),
            residue_class_masses(spec.seed_2, spec.n))


def _sum_sq(g: np.ndarray) -> np.ndarray:
    """sum |G|^2 of each matrix in the stack g (..., k, k)."""
    return np.sum(np.abs(g) ** 2, axis=(-2, -1))


def bipartite_normalize(spec: BipartiteSpec) -> BipartiteSpec:
    """Rescale c by a positive constant so the two-mode state has unit norm; c,
    and a seed of squared norm outside [1/2, 2), are first read as rays
    (fock._ray_scale), a tighter range than a FockVector's kept ray (_ray), as
    sum |G|^2 multiplies the seeds' masses. This is the one-spec call of _unit_coefficients."""
    seeds = [FockVector(s.n_max, _ray_scale(s.amplitudes, 0.5, 2.0)[0], s.tail_flagged)
             for s in (spec.seed_1, spec.seed_2)]
    spec = BipartiteSpec(spec.n, spec.c, *seeds)
    return BipartiteSpec(spec.n, _unit_coefficients(spec.c, *_masses(spec)), *seeds)


def _unit_coefficients(c: np.ndarray, w1: np.ndarray, w2: np.ndarray) -> np.ndarray:
    """bipartite_normalize's coefficients for a stack of specs, given as in
    _sector_matrix: (..., n). Each row of c is read as a ray, times the exact
    power of two that brings its largest real or imaginary part into
    [1/2, 1), then divided by ||Psi|| = sqrt(sum |G|^2): the sector states of
    distinct lam are orthonormal. ValueError if any spec has zero norm."""
    parts = np.ascontiguousarray(c).view(float)
    c = np.ldexp(parts, -np.frexp(np.abs(parts).max(-1, keepdims=True))[1]).view(complex)
    nsq = _sum_sq(_sector_matrix(c, w1, w2))
    if (nsq <= 0).any():
        raise ValueError("two-mode state has zero norm; coefficients degenerate")
    return c / np.sqrt(nsq)[..., None]


def _reconstructions(states: np.ndarray, n_lambda: np.ndarray, n: int, r) -> np.ndarray:
    """Invert the symmetry adaptation: R(theta_r)|phi> for every element
    index in the 1-D r, from a stack of families: the superposition route's
    unit states (..., n, d) for lam = 1..n in order, with their records'
    n_lambda (..., n), as _superpositions(amps, n, range(1, n + 1)) returns
    them. Returns (..., r.size, d), one weight product
    mu_n^((1-r)(lam-1)) / (n n_lambda) with the states per family."""
    k = np.multiply.outer(1 - np.asarray(r), np.arange(n))
    return (unit_root(k, n) / (n * n_lambda[..., None, :])) @ states


@dataclass(frozen=True, eq=False)
class EntanglementResult:
    """s_linear = 1 - Tr(rho_1^2); f_matrix = rho_1 in the sector basis, a
    read-only copy of the array passed in. Equality is identity."""

    s_linear: float
    f_matrix: np.ndarray

    def __post_init__(self):
        f = np.array(self.f_matrix, dtype=complex)
        f.setflags(write=False)
        object.__setattr__(self, "f_matrix", f)


def linear_entropy(spec: BipartiteSpec) -> EntanglementResult:
    """Reduced-state linear entropy of the two-mode superposition.

    The reduced density matrix in the seeds' sector basis is G G^dag, with G
    the Hankel sector matrix (_sector_matrix). Seeds with empty sectors are
    accepted. Requires a normalized spec (run bipartite_normalize first).
    This is the one-spec call of _linear_entropies.
    """
    s_linear, f = _linear_entropies(_sector_matrix(spec.c, *_masses(spec)))
    return EntanglementResult(s_linear=float(s_linear), f_matrix=f)


def _linear_entropies(g: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """linear_entropy of a stack of sector matrices g (..., n, n): S_L (...)
    and rho_1 = G G^dag (..., n, n). The first matrix in C order whose mass
    is more than 1e-8 from 1 raises ValueError, as one call per spec would."""
    total = _sum_sq(g)
    off = np.abs(total - 1.0) > 1e-8
    if off.any():
        raise ValueError(
            f"spec is not normalized (sector mass {total.flat[np.argmax(off)]:.6f}); "
            "call bipartite_normalize first")
    f = g @ np.swapaxes(g.conj(), -1, -2)
    return 1.0 - _sum_sq(f), f


def linear_entropy_gram(spec: BipartiteSpec) -> float:
    """Gram-route cross-check of linear_entropy, the one the CLI runs.

    With the rotated copies a_r = R_r|seed_1>, b_r = R_r|seed_2>, their Gram
    matrices A = [<a_i|a_j>], B = [<b_i|b_j>] and X = (c c^dag) o B^T,
    Tr(rho_1^2) = Tr((X A)^2). O(n^2 d) work on n x d copies, with no
    residue-class or FFT algebra, so it stays independent of the Hankel
    route. Requires a normalized spec. This is the one-spec call of
    _gram_entropies.
    """
    return float(_gram_entropies(spec.c, spec.seed_1.amplitudes, spec.seed_2.amplitudes))


def _gram_entropies(c: np.ndarray, a1: np.ndarray, a2: np.ndarray) -> np.ndarray:
    """linear_entropy_gram of a stack of specs with coefficients c (..., n)
    and seed amplitudes a1 (..., d1), a2 (..., d2): (...), every product
    batched over the stack."""
    n = c.shape[-1]
    a, b = _rotated_copies(a1, n), _rotated_copies(a2, n)
    cc = c[..., :, None] * c.conj()[..., None, :]
    xa = (cc * (b @ np.swapaxes(b.conj(), -1, -2))) @ (a.conj() @ np.swapaxes(a, -1, -2))
    return 1.0 - np.sum(xa * np.swapaxes(xa, -1, -2), axis=(-2, -1)).real


def linear_entropy_oracle(spec: BipartiteSpec) -> float:
    """Dense two-mode computation of the same quantity, for cross-checks.

    Builds the full (n_max+1)^2 joint amplitude matrix T = a^T diag(c) b
    from the rotated copies a, b and returns 1 - sum |T T^dag|^2, so it
    refuses (MemoryGuardError) inputs whose T would exceed _ORACLE_BUDGET
    entries. Only verify (the entangle suite, one call per spec) and the
    tests call it; the CLI cross-checks with linear_entropy_gram.
    """
    n, a1, a2 = spec.n, spec.seed_1.amplitudes, spec.seed_2.amplitudes
    if a1.size * a2.size > _ORACLE_BUDGET:
        raise MemoryGuardError(
            f"joint amplitude matrix needs {a1.size * a2.size} entries, "
            f"budget is {_ORACLE_BUDGET}")
    t = (_rotated_copies(a1, n).T * spec.c) @ _rotated_copies(a2, n)
    # Tr rho^2 = sum |rho|^2, rho Hermitian
    return float(1.0 - _sum_sq(t @ t.conj().T))
