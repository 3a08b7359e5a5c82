"""Gaussian seed wavefunctions and their embedding into the truncated Fock space.

A seed is psi(x) = N e^{-a x^2 + b x} with Re(a) > 0 and b != 0, normalized
in L^2 by

    N = ((a + a*)/pi * (1 + 2a)/(1 + 2a*))^{1/4} * e^{-(b^2 + b b*)/(4(a + a*))}.

principal branches throughout. With this prefactor the rotated wavefunction
<x|R(theta)|psi_{a,b}> equals psi at the rotated parameters exactly, with no
residual phase, so the closed-form expressions below can be compared against
the Fock route pointwise.

The Fock amplitudes A_m = <m|psi> follow from the Hermite generating function
sum_m u_m(x) z^m / sqrt(m!) = pi^{-1/4} e^{-x^2/2 + sqrt(2) x z - z^2/2}:
integrating it against psi gives sum_m A_m z^m / sqrt(m!) =
A_0 e^{beta z + gamma z^2 / 2}, the number expansion of a displaced squeezed
state (H. P. Yuen, Phys. Rev. A 13, 2226 (1976)). With s = a + 1/2,
beta = b / (sqrt(2) s) and gamma = 1/s - 1,

    A_0 = N pi^{-1/4} sqrt(pi/s) e^{b^2/(4s)},
    A_{m+1} = (beta A_m + gamma sqrt(m) A_{m-1}) / sqrt(m + 1),

which gaussian_to_fock evaluates exactly. Adaptive trapezoid quadrature of
<u_m|psi>, batched over seeds (_quadrature_rows), is kept as its
independent oracle for verify and the tests.

The recurrence holds elementwise for any number of seeds, so verify embeds
its seed grids (the mandel suite's 1680-point b scans and the gaussian
suite's 1680 rotated seeds) through one array recurrence, _embedding_rows.
A single seed keeps the Python-scalar loop of gaussian_to_fock
(fock._yuen_state, which fock.coherent shares): at
n_max = 64 it takes about 80 us there against about 750 us through the
array loop (2-vCPU x86_64, numpy 2.4), while 1680 seeds take about 6 ms
through the array loop.
"""
from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .fock import _RESCALE, FockVector, _checked_n_max, _too_tight, _yuen_state
from .cyclic import CyclicSpec, NormalizationRecord, cyclic_state
from .group import character, theta, unit_root

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

# log of fock._RESCALE, the running rescale the Hermite rows share.
_LOG_RESCALE = 200.0 * math.log(2.0)
# hermite_functions seeds u_0 no lower than e^{-600}, well inside the normal
# range; points beyond |x| = sqrt(1200) carry the rest as a log scale.
_SEED_LOG_FLOOR = 600.0
# Past |x| = sqrt(2 n_max + 1) + _FAR_MARGIN every u_m with m <= n_max
# rounds to 0 (checked up to n_max 4096), so _hermite_rows yields exact
# zeros there without running the recurrence, whose x^2 would overflow.
_FAR_MARGIN = 40.0


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
        for name, value in (("a", a), ("b", b)):
            if not cmath.isfinite(value):
                raise ValueError(f"Gaussian parameter {name} must be finite, got {value}")
        if not (a.real > 0):
            raise ValueError(f"Re(a) must be positive, got a={a}")
        if b == 0:
            raise ValueError("b must be nonzero (the seed must break rotation symmetry)")
        with np.errstate(all="ignore"):  # |a| or |b|^2 / Re(a) past the float range
            log_n = _log_prefactor(a, b)
            if not cmath.isfinite(log_n):
                name = "b" if cmath.isfinite(_log_prefactor(a, 0)) else "a"
                raise ValueError(f"Gaussian parameter {name} overflows the "
                                 f"normalization: log N(a={a}, b={b}) = {log_n}")
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


def _log_prefactor(a: complex, b: complex) -> complex:
    """log N on the principal branch; finite where N itself underflows."""
    ac, bc = np.conj(a), np.conj(b)
    return (0.25 * np.log((a + ac) / np.pi * (1 + 2 * a) / (1 + 2 * ac))
            - (b * b + b * bc) / (4 * (a + ac)))


def _prefactor(a: complex, b: complex) -> complex:
    return np.exp(_log_prefactor(a, b))


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
    a_t, b_t, den = _rotated_exponents(params.a, params.b, theta_)
    if abs(den) < 1e-14:
        raise ValueError(f"rotation denominator vanished at theta={theta_}")
    return GaussianParams(a=a_t, b=b_t)


def _rotated_exponents(a, b, theta_):
    """rotate_params' a(theta), b(theta) and denominator over broadcast arrays,
    unvalidated; one seed too takes numpy's complex division (not Python's)."""
    a = np.asarray(a, dtype=complex)
    c, s = np.cos(theta_), np.sin(theta_)
    den = c + 2j * a * s
    return (2j * a * c - s) / (2 * (1j * c - 2 * a * s)), b / den, den


def _hermite_rows(n_max: int, x: np.ndarray):
    """Yield u_0(x), ..., u_{n_max}(x) in turn; see hermite_functions.

    The yielded arrays are buffers the recurrence reuses, so each must be
    read before the next is asked for. Points past the far margin stay 0.
    """
    far = np.abs(x) > math.sqrt(2 * n_max + 1) + _FAR_MARGIN
    if far.any():
        near, row = ~far, np.zeros(x.size)
        for part in _hermite_rows(n_max, x[near]):
            row[near] = part
            yield row
        return
    half_sq = 0.5 * x * x
    shift = np.maximum(half_sq - _SEED_LOG_FLOOR, 0.0)
    scale = np.exp(-shift) if shift.any() else None
    cur = np.pi ** -0.25 * np.exp(shift - half_sq)
    prev, nxt, tmp = np.zeros(x.size), np.empty(x.size), np.empty(x.size)
    for m in range(n_max + 1):
        yield cur if scale is None else np.multiply(cur, scale, out=tmp)
        if m == n_max:
            return
        np.multiply(np.sqrt(2.0 / (m + 1)), x, out=nxt)
        nxt *= cur
        nxt -= np.multiply(np.sqrt(m / (m + 1.0)), prev, out=tmp)
        prev, cur, nxt = cur, nxt, prev
        if scale is not None and (big := np.abs(cur) > _RESCALE).any():
            cur[big] /= _RESCALE
            prev[big] /= _RESCALE
            shift[big] -= _LOG_RESCALE
            scale[big] = np.exp(-shift[big])


def hermite_functions(n_max: int, x) -> np.ndarray:
    """Matrix u[m, k] of harmonic-oscillator eigenfunctions u_m(x_k), m <= n_max.

    Upward recurrence u_{m+1} = sqrt(2/(m+1)) x u_m - sqrt(m/(m+1)) u_{m-1};
    stable since the functions are bounded. Where the seed u_0 =
    pi^{-1/4} e^{-x^2/2} would leave the normal range (|x| beyond ~34,
    while u_m reaches out to |x| ~ sqrt(2 n_max + 1)), the recurrence runs
    on v_m = u_m e^{shift} with a per-point log scale that drops by
    log 2^200 whenever |v_m| passes 2^200, as gaussian_to_fock does; u_m is
    then exact wherever it is itself a normal double. Past |x| =
    sqrt(2 n_max + 1) + 40, where every u_m rounds to 0, the rows are exact
    zeros, up to |x| = inf.
    """
    x = np.atleast_1d(np.asarray(x, dtype=float))
    u = np.empty((n_max + 1, x.size))
    for m, row in enumerate(_hermite_rows(n_max, x)):
        u[m] = row
    return u


def _hermite_reach(n_max: int) -> float:
    """sqrt(2 n_max + 1) + 10: past it every u_m with m <= n_max is below
    e^{-60} of its peak, and so is any state on |0>..|n_max> or its Fourier
    transform. The quadrature oracles' windows start from it."""
    return math.sqrt(2 * n_max + 1) + 10.0


def _trapezoid_weights(lo: float, hi: float, k: int) -> np.ndarray:
    """Weights of the k-point trapezoid rule on [lo, hi]. It converges
    geometrically in the step on entire integrands with Gaussian decay, as
    every oracle's is (Trefethen & Weideman, SIAM Rev. 56, 385 (2014))."""
    h = (hi - lo) / (k - 1)
    w = np.full(k, h)
    w[0] = w[-1] = h / 2
    return w


def _yuen_start(a, b):
    """beta, gamma and log A_0 of the embedding recurrence for seeds (a, b).

    Elementwise, so a and b may be scalars or arrays. Both callers read only
    Im log A_0, the phase of A_0: gaussian_to_fock takes log |A_0| from
    _log_abs_a0, and _embedding_rows renormalizes its rows.
    """
    s = a + 0.5
    log_a0 = (_log_prefactor(a, b) - 0.25 * math.log(math.pi)
              + 0.5 * np.log(math.pi / s) + b * b / (4 * s))
    return b / (math.sqrt(2.0) * s), 1.0 / s - 1.0, log_a0


def _log_abs_a0(a: complex, b: complex) -> float:
    """log |A_0| as same-signed terms, s = a + 1/2: 4 log |A_0| = log(2 Re a / |s|^2)
    - Im(s* b / |s|)^2 / Re s - (Re b)^2 / (2 Re a Re s); _yuen_start's cancel in b^2."""
    s = a + 0.5
    w = (s.conjugate() / abs(s) * b).imag
    return (math.log(2.0 * a.real) - 2.0 * math.log(abs(s)) - w * w / s.real
            - b.real * b.real / (2.0 * a.real * s.real)) / 4.0


def gaussian_to_fock(params: GaussianParams, n_max: int | None = None) -> FockVector:
    """Project the seed onto |0>..|n_max> by the exact three-term recurrence.

    With s = a + 1/2, beta = b / (sqrt(2) s) and gamma = 1/s - 1,

        A_0 = N pi^{-1/4} sqrt(pi/s) e^{b^2/(4s)},
        A_{m+1} = (beta A_m + gamma sqrt(m) A_{m-1}) / sqrt(m + 1),

    the displaced squeezed-state number expansion (Yuen, Phys. Rev. A 13,
    2226 (1976)). |gamma| = |1/2 - a| / |1/2 + a| < 1 for every Re a > 0.
    It runs in fock._yuen_state, the scalar loop that fock.coherent
    (a = 1/2) also uses: A_0 is taken in log space and the recurrence carries a log
    scale, rescaling whenever a value passes 2^200, so large displacements
    (where A_0 itself underflows, |alpha| beyond ~38) neither underflow nor
    overflow. The returned vector is renormalized and tail-flagged by the
    fock._too_tight rule on _log_abs_a0. _quadrature_rows is its oracle.
    """
    n_max = _checked_n_max(n_max)
    beta, gamma, log_a0 = _yuen_start(params.a, params.b)
    return _yuen_state(beta, gamma, complex(_log_abs_a0(params.a, params.b), log_a0.imag),
                       n_max)


def _embedding_rows(a, b, n_max: int) -> np.ndarray:
    """gaussian_to_fock's normalized amplitudes for a grid of seeds at once.

    The same recurrence, run elementwise over the broadcast arrays a and b
    with the same per-row 2^200 rescale; returns the unit rows, shaped
    a.shape + (n_max + 1,) after broadcasting. The seeds are not validated
    as GaussianParams are. Only the loop over m differs from
    gaussian_to_fock, whose fock._yuen_state keeps Python complex
    scalars because one seed through this array loop costs several times as
    much.
    """
    beta, gamma, log_a0 = _yuen_start(np.asarray(a, dtype=complex),
                                      np.asarray(b, dtype=complex))
    root = np.sqrt(np.arange(n_max + 1))
    rows = np.empty(log_a0.shape + (n_max + 1,), dtype=complex)
    prev, cur = np.zeros(log_a0.shape, dtype=complex), np.exp(1j * log_a0.imag)
    rows[..., 0] = cur
    for m in range(n_max):
        prev, cur = cur, (beta * cur + gamma * root[m] * prev) / root[m + 1]
        big = np.abs(cur)
        if (big > _RESCALE).any():
            big = np.where(big > _RESCALE, big, 1.0)
            rows[..., :m + 1] /= big[..., None]
            prev, cur = prev / big, cur / big
        rows[..., m + 1] = cur
    rows /= np.linalg.norm(rows, axis=-1, keepdims=True)
    return rows


def _quadrature_rows(seeds, n_max: int) -> tuple[list[FockVector], np.ndarray]:
    """Oracle for gaussian_to_fock: <u_m|psi> of each seed by adaptive
    trapezoid quadrature, and its final node count.

    The nodes are uniform on +-_hermite_reach(n_max), whatever the seed.
    Node counts start at 2 n_max + 32 and grow by 1.6x until two successive
    rules agree on the normalized amplitude vector to 1e-13 in the sup
    norm. Strongly chirped seeds (large Im a) cancellation-limit the
    agreement near 1e-12, so a refinement that has stopped gaining while
    below 1e-10 also counts as converged. The renormalization and tail flag
    are those of gaussian_to_fock. The last rule is clamped to 30000 nodes,
    the cap: seeds whose photon number lies far beyond n_max meet it and
    raise RuntimeError:
    GaussianParams(0.1 + 2j, 3.0) at n_max 63 (<x> = 15, <p> = -60, <n>
    above 1900) keeps a norm of only 7e-8 in the truncation, so rounding in
    its integrand leaves successive rules agreeing to about 1e-7.

    The seeds still refining at a rule share its one hermite_functions
    matrix and one product; each keeps its own convergence test, node cap
    and tail flag.
    """
    states, nodes = [None] * len(seeds), np.zeros(len(seeds), dtype=int)
    live, prev, prev_diff = np.arange(len(seeds)), None, np.full(len(seeds), np.inf)
    reach = _hermite_reach(n_max)
    n_nodes = 2 * n_max + 32
    while live.size:
        x = np.linspace(-reach, reach, n_nodes)
        vals = (_trapezoid_weights(-reach, reach, n_nodes)
                * np.array([wavefunction(seeds[i], x) for i in live]))
        raw = vals @ hermite_functions(n_max, x).T
        nrm = np.linalg.norm(raw, axis=-1)
        if not nrm.all():
            raise RuntimeError("quadrature annihilated the seed; parameters degenerate")
        cur = raw / nrm[:, None]
        done = np.zeros(live.size, dtype=bool)
        if prev is not None:
            diff = np.abs(cur - prev).max(axis=-1)
            stalled = diff > 0.5 * prev_diff[live]
            done = (diff <= 1e-13) | (stalled & (diff <= 1e-10))
            prev_diff[live] = diff
        for k in np.flatnonzero(done):
            states[live[k]] = FockVector(n_max, cur[k], _too_tight(1.0 - nrm[k] ** 2, 1.0))
            nodes[live[k]] = n_nodes
        if n_nodes >= 30000 and not done.all():
            raise RuntimeError(
                "Fock embedding did not converge within 30000 quadrature nodes")
        live, prev = live[~done], cur[~done]
        n_nodes = min(int(np.ceil(n_nodes * 1.6)), 30000)
    return states, nodes


def fock_wavefunction(state: FockVector, x) -> np.ndarray:
    """Position representation sum_m A_m u_m(x) of a truncated state.

    The sum runs along the Hermite recurrence, so it holds O(len(x))
    values whatever n_max is.
    """
    x = np.atleast_1d(np.asarray(x, dtype=float)).ravel()
    re, im, tmp = np.zeros(x.size), np.zeros(x.size), np.empty(x.size)
    for amp, row in zip(state.amplitudes.tolist(), _hermite_rows(state.n_max, x)):
        if amp.real:
            re += np.multiply(amp.real, row, out=tmp)
        if amp.imag:
            im += np.multiply(amp.imag, row, out=tmp)
    return re + 1j * im


def cyclic_gaussian_wavefunction(params: GaussianParams, spec: CyclicSpec, x,
                                 n_lambda: complex) -> np.ndarray:
    """Position route: n_lambda sum_r chi^(lam)(g_r) psi_{a(theta_r), b(theta_r)}(x).

    The oracle for cyclic_gaussian, reached only from verify and the tests.
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
    """Symmetry-adapted Gaussian: cyclic_state of the embedded seed.

    Its position-space oracle is cyclic_gaussian_wavefunction with this
    record's n_lambda (verify row gaussian / position route).
    """
    return cyclic_state(gaussian_to_fock(params, n_max), spec)


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
    return unit_root(lam - 1, 2) * norm * branch
