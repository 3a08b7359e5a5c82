"""Reference computations made apart from polystate.

Every function here uses numpy (and the standard library) only, from the
closed forms the package's conventions fix: x = (a + a^dag)/sqrt(2),
p = i (a^dag - a)/sqrt(2), R(theta) multiplies amplitude m by e^{-i theta m},
and theta_r = 2 pi (r-1)/n. None of them calls into polystate, so a fault in
the program cannot hide behind the same fault in its check.
"""
from __future__ import annotations

import math

import numpy as np

_LGAMMA = np.frompyfunc(math.lgamma, 1, 1)


def class_mask(n_max: int, n: int, lam: int) -> np.ndarray:
    """True on photon numbers m = lam - 1 (mod n)."""
    return (np.arange(n_max + 1) - (lam - 1)) % n == 0


def poisson_amplitudes(alpha: complex, n_max: int) -> np.ndarray:
    """Coherent-state amplitudes alpha^m e^{-|alpha|^2/2}/sqrt(m!) in log space,
    renormalized on |0>..|n_max>."""
    m = np.arange(n_max + 1)
    lgam = _LGAMMA(m + 1.0).astype(float)
    log_mod = -0.5 * abs(alpha) ** 2 + m * math.log(abs(alpha)) - 0.5 * lgam
    amps = np.exp(log_mod - log_mod.max()) * np.exp(1j * m * np.angle(alpha))
    return amps / np.linalg.norm(amps)


def erased(amps: np.ndarray, n: int, lam: int) -> np.ndarray:
    """Residue-class erasure of an amplitude vector, renormalized."""
    out = np.where(class_mask(amps.size - 1, n, lam), amps, 0.0)
    return out / np.linalg.norm(out)


def quadrature_means(amps: np.ndarray) -> tuple[float, float]:
    """<x>, <p> from <a> = sum_m sqrt(m+1) A_m^* A_{m+1} of a unit vector."""
    a_mean = np.sum(np.conj(amps[:-1]) * np.sqrt(np.arange(1, amps.size)) * amps[1:])
    return math.sqrt(2.0) * a_mean.real, math.sqrt(2.0) * a_mean.imag


def gaussian_means(a: complex, b: complex) -> tuple[float, float]:
    """<x>, <p> of e^{-a x^2 + b x}: <x> = Re b / (2 Re a) and, since
    psi'/psi = -2 a x + b, <p> = Im b - 2 Im a <x>."""
    mean_x = b.real / (2.0 * a.real)
    return mean_x, b.imag - 2.0 * a.imag * mean_x


def mandel_from_amplitudes(amps: np.ndarray) -> float:
    """Var(n)/<n> of the photon-number distribution |A_m|^2."""
    p = np.abs(amps) ** 2
    p = p / p.sum()
    m = np.arange(p.size)
    nbar = float(m @ p)
    return (float((m * m) @ p) - nbar * nbar) / nbar


def cat_mandel(alpha: complex, odd: bool) -> float:
    """M_Q = 1 + |alpha|^4/nbar - nbar of the even or odd cat state, with
    nbar = |alpha|^2 tanh|alpha|^2 (even) or coth|alpha|^2 (odd); a^2 acts
    on both as alpha^2, so <n(n-1)> = |alpha|^4."""
    s = abs(alpha) ** 2
    nbar = s / math.tanh(s) if odd else s * math.tanh(s)
    return 1.0 + s * s / nbar - nbar


def coherent_superposition(alpha: complex, n: int, lam: int, dihedral: bool
                           ) -> tuple[np.ndarray, np.ndarray]:
    """(weights, amplitudes) of the coherent components of a sector state.

    C_n: sum_r chi_r R(theta_r)|alpha> = sum_r chi_r |alpha e^{-i theta_r}>.
    D_n sum variant: that plus sum_r chi_r^* |alpha^* e^{i theta_r}>, the
    conjugated and counter-rotated copies."""
    th = 2.0 * np.pi * np.arange(n) / n
    chi = np.exp(1j * (lam - 1) * th)
    betas = alpha * np.exp(-1j * th)
    if not dihedral:
        return chi, betas
    return (np.concatenate([chi, np.conj(chi)]),
            np.concatenate([betas, np.conj(alpha) * np.exp(1j * th)]))


def coherent_superposition_wigner(weights, betas, x, p) -> np.ndarray:
    """W of the normalized state sum_j k_j |beta_j> at the points (x, p):
    (1/pi) sum_{j,j'} k_j k_j'^* <beta_j'|beta_j> e^{-2 (xi - beta_j)(xi^* - beta_j'^*)}
    divided by the norm sum_{j,j'} k_j k_j'^* <beta_j'|beta_j>, xi = (x + i p)/sqrt(2)."""
    k = np.asarray(weights, dtype=complex)
    b = np.asarray(betas, dtype=complex)
    overlap = np.exp(-0.5 * np.abs(b)[None, :] ** 2 - 0.5 * np.abs(b)[:, None] ** 2
                     + np.conj(b)[:, None] * b[None, :])  # [j', j] = <b_j'|b_j>
    coef = overlap * k[None, :] * np.conj(k)[:, None]
    norm = coef.sum().real
    xi = (np.ravel(x) + 1j * np.ravel(p)) / math.sqrt(2.0)
    total = np.zeros(xi.size, dtype=complex)
    for jp in range(b.size):
        for j in range(b.size):
            total += coef[jp, j] * np.exp(-2.0 * (xi - b[j]) * (np.conj(xi) - np.conj(b[jp])))
    return total.real / (math.pi * norm)


def hermite_functions(n_max: int, x: np.ndarray) -> np.ndarray:
    """u[m, k] = <x_k|m>, normalized oscillator eigenfunctions, by the
    three-term recurrence on the normalized functions."""
    u = np.empty((n_max + 1, x.size))
    u[0] = math.pi ** -0.25 * np.exp(-0.5 * x * x)
    if n_max >= 1:
        u[1] = math.sqrt(2.0) * x * u[0]
    for m in range(2, n_max + 1):
        u[m] = math.sqrt(2.0 / m) * x * u[m - 1] - math.sqrt((m - 1) / m) * u[m - 2]
    return u


def direct_wigner(amps: np.ndarray, x: float, p: float,
                  half_width: float = 22.0, step: float = 0.005) -> float:
    """W(x, p) = (1/pi) int psi^*(x + y) psi(x - y) e^{2 i p y} dy by the
    trapezoid rule, which converges spectrally for this smooth, Gaussian-
    decaying integrand; psi(x) = sum_m A_m u_m(x)."""
    y = np.arange(-half_width, half_width + step / 2, step)
    n_max = amps.size - 1
    left = np.conj(amps @ hermite_functions(n_max, x + y))
    right = amps @ hermite_functions(n_max, x - y)
    return float((left * right * np.exp(2j * p * y)).sum().real * step / math.pi)


def rotated(amps: np.ndarray, n: int, r: int) -> np.ndarray:
    """R(theta_r) applied to an amplitude vector, r = 1..n."""
    return amps * np.exp(-2j * np.pi * (r - 1) / n * np.arange(amps.size))


def linear_entropy_svd(n: int, c: np.ndarray, seed_1: np.ndarray,
                       seed_2: np.ndarray) -> float:
    """S_L = 1 - sum sigma^4 / (sum sigma^2)^2 from the singular values of the
    joint amplitude matrix T = sum_r c_r R_r seed_1 (x) R_r seed_2."""
    t = sum(c[r - 1] * np.outer(rotated(seed_1, n, r), rotated(seed_2, n, r))
            for r in range(1, n + 1))
    s2 = np.linalg.svd(t, compute_uv=False) ** 2
    return 1.0 - float((s2 * s2).sum() / s2.sum() ** 2)


def projected_density(rho: np.ndarray, n: int, lam: int) -> np.ndarray:
    """P rho P / Tr(P rho P) for the residue-class projector P."""
    keep = class_mask(rho.shape[0] - 1, n, lam)
    out = np.where(keep[:, None] & keep[None, :], rho, 0.0)
    return out / np.trace(out).real


def fidelity(a: np.ndarray, b: np.ndarray) -> float:
    return float(abs(np.vdot(a, b)) ** 2 / (np.vdot(a, a).real * np.vdot(b, b).real))
