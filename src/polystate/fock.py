"""Truncated Fock-space states, operators, and the elementary maps on them.

A state lives in the span of |0>..|n_max> and is stored as its complex
amplitude vector A_m. Conventions fixed here and inherited by every other
module: x = (a + a^dag)/sqrt(2), p = i (a^dag - a)/sqrt(2), and the
rotation R(theta) = exp(-i theta n) multiplies A_m by exp(-i theta m).
With these choices the coherent state with real alpha > 0 has
<x> = sqrt(2) alpha and <p> = 0. The group rotations R(theta_r),
theta_r = 2 pi (r-1)/n, read their phases from one exact C_n table
(_rotation_table), and so do the inversions U_r = C R(theta_r).
"""
from __future__ import annotations

import cmath
import itertools
import json
import math
import numbers
from dataclasses import dataclass, field

import numpy as np

from .group import unit_root

__all__ = [
    "TAIL_TOL",
    "FockVector",
    "FockOperator",
    "QuadratureMeans",
    "from_amplitudes",
    "basis_state",
    "coherent",
    "rotate",
    "inner",
    "fidelity",
    "quadrature_means",
    "sector_mask",
    "residue_class_masses",
    "annihilate",
    "vector_to_dict",
    "vector_from_dict",
]

# The one tail-flag threshold: see _too_tight.
TAIL_TOL = 1e-10

# Running rescale threshold for the recurrences here and in gaussian; squares
# of values below it, summed over thousands of slots, stay far from overflow.
_RESCALE = 2.0 ** 200


@dataclass(frozen=True, eq=False)
class FockVector:
    """State vector on |0>..|n_max|; amplitudes has length n_max + 1.

    tail_flagged, the truncation too tight for the state (_too_tight), is
    the flag passed in OR-ed with this vector's own last-slot test.

    amplitudes is the state's ray (_ray_scale), a read-only array of its
    own: the copy of the array passed in when sum |A_m|^2 is a normal
    double, so unit-scale inputs keep their bits, else that copy times an
    exact power of two. _total is its sum |A_m|^2. So every route reads the
    same values at any input scale. Equality is identity.
    """

    n_max: int
    amplitudes: np.ndarray
    tail_flagged: bool = False
    _total: float = field(init=False, repr=False)

    def __post_init__(self):
        amps = np.array(self.amplitudes, dtype=complex)
        if amps.ndim != 1 or amps.size != self.n_max + 1:
            raise ValueError(
                f"amplitudes must have length n_max+1={self.n_max + 1}, got {amps.shape}"
            )
        amps, total = _ray_scale(amps)
        if not math.isfinite(total):  # finite exactly when every amplitude is
            raise ValueError("amplitudes must be finite")
        amps.setflags(write=False)  # value semantics
        object.__setattr__(self, "amplitudes", amps)
        object.__setattr__(self, "_total", total)
        object.__setattr__(self, "tail_flagged", bool(self.tail_flagged) or _too_tight(
            abs(complex(amps[-1])) ** 2, total))

    @property
    def norm(self) -> float:
        return float(np.linalg.norm(self.amplitudes))

    @property
    def tail_mass(self) -> float:
        """|A_(n_max)|^2 / sum |A_m|^2: at any scale, 0 if zero."""
        return float(np.abs(self.amplitudes[-1]) ** 2 / self._total) if self._total else 0.0


@dataclass(frozen=True, eq=False)
class FockOperator:
    """Operator on the truncated space; matrix is (n_max+1) x (n_max+1), the
    ray of the array passed in by FockVector's rule (on sum |rho_ij|^2), a
    read-only array of its own. Equality is identity.
    """

    n_max: int
    matrix: np.ndarray

    def __post_init__(self):
        mat = np.array(self.matrix, dtype=complex)
        d = self.n_max + 1
        if mat.shape != (d, d):
            raise ValueError(f"matrix must be {d}x{d}, got {mat.shape}")
        mat, total = _ray_scale(mat)
        if not math.isfinite(total):  # finite exactly when every entry is
            raise ValueError("matrix entries must be finite")
        mat.setflags(write=False)
        object.__setattr__(self, "matrix", mat)


@dataclass(frozen=True)
class QuadratureMeans:
    mean_x: float
    mean_p: float


def from_amplitudes(amps) -> FockVector:
    """Wrap an amplitude array; FockVector tests its last slot."""
    return FockVector(n_max=np.size(amps) - 1, amplitudes=amps)


def _too_tight(mass, total) -> bool:
    """The one truncation rule: mass on the last slot, or lost past n_max, over TAIL_TOL total."""
    return bool(mass > TAIL_TOL * total)


def _checked_n_max(n_max: int | None) -> int:
    """n_max, or the default 64 when None; a negative truncation raises ValueError."""
    if n_max is None:
        n_max = 64
    if n_max < 0:
        raise ValueError(f"truncation n_max={n_max} must be >= 0")
    return n_max


def basis_state(m: int, n_max: int | None = None) -> FockVector:
    """Number state |m>."""
    n_max = _checked_n_max(n_max)
    if not 0 <= m <= n_max:
        raise ValueError(f"basis index m={m} outside 0..{n_max}")
    amps = np.zeros(n_max + 1, dtype=complex)
    amps[m] = 1.0
    return FockVector(n_max=n_max, amplitudes=amps)


def coherent(alpha: complex, n_max: int | None = None) -> FockVector:
    """Coherent state amplitudes alpha^m e^{-|alpha|^2/2}/sqrt(m!), renormalized.

    Built by the ratio recurrence A_{m+1} = alpha A_m / sqrt(m + 1) from
    A_0 = e^{-|alpha|^2/2}: Yuen's recurrence (_yuen_state) with
    beta = alpha and gamma = 0, the Gaussian embedding at a = 1/2. Its log
    scale keeps every finite alpha finite (|alpha| = 40 at n_max 2048 is
    within 1e-16 of the exact amplitudes), and since beta is alpha itself,
    real alpha gives exactly real amplitudes and imaginary alpha exactly
    alternating ones. A non-finite |alpha| raises.
    """
    n_max = _checked_n_max(n_max)
    r = 2 * abs(alpha / 2)  # = |alpha|; abs(alpha) raises OverflowError past 1.8e308
    if not math.isfinite(r):
        raise ValueError(f"coherent amplitude alpha must be finite, got {alpha}")
    return _yuen_state(complex(alpha), 0.0, complex(-0.5 * r * r), n_max)


def _yuen_state(beta: complex, gamma: complex, log_a0: complex, n_max: int) -> FockVector:
    """The number expansion sum_m A_m z^m / sqrt(m!) = A_0 e^{beta z + gamma z^2 / 2}
    on |0>..|n_max> (Yuen, Phys. Rev. A 13, 2226 (1976)), renormalized.

    Runs A_{m+1} = (beta A_m + gamma sqrt(m) A_{m-1}) / sqrt(m + 1) on Python
    complex scalars from A_0 = e^{log_a0}, taken in log space, with a log
    scale that divides every value by |A_m| whenever |A_m| passes 2^200. So
    neither an underflowing A_0 nor a large beta leaves the float range.

    The loop divides only the two live values and records where it
    rescaled, so it takes O(n_max) Python steps. The values kept before
    each rescale are divided afterwards by the same factors in the same
    order, one array pass per rescale with the quotient that Python's
    complex / float takes: the bits are those of dividing every kept value
    at each rescale inside the loop. _lost_too_much adds to the tail flag.
    """
    root = np.sqrt(np.arange(n_max + 1)).tolist()
    logs = [log_a0.real]
    prev, cur = 0j, cmath.exp(1j * log_a0.imag)
    amps = [cur]
    rescales = []  # (number of values kept before the rescale, its divisor)
    for m in range(n_max):
        prev, cur = cur, (beta * cur + gamma * root[m] * prev) / root[m + 1]
        if (big := abs(cur)) > _RESCALE:
            rescales.append((m + 1, big))
            prev, cur = prev / big, cur / big
            logs.append(math.log(big))
        amps.append(cur)
    amps = np.array(amps)
    re, im = amps.real, amps.imag
    for end, big in rescales:
        # CPython's z / big is ((re + im 0) / big, (im - re 0) / big): signed zeros too
        re_, im_ = re[:end], im[:end]
        re[:end], im[:end] = (re_ + im_ * 0.0) / big, (im_ - re_ * 0.0) / big
    nrm = float(np.linalg.norm(amps))
    return FockVector(n_max, amps / nrm, _lost_too_much([*logs, math.log(nrm)], n_max))


def _lost_too_much(logs: list, steps: int) -> bool:
    """_too_tight for the mass lost past n_max, from logs, the terms of the log of
    the norm kept, after steps recurrence steps. Summed exactly, they carry a few
    eps of each term and step, so only lost mass above 8 eps (sum |logs| + steps)
    counts (a running sum read 2.5e-10 for coherent(700)'s empty tail at n_max
    532,000); a state that keeps nothing is flagged."""
    lost = -math.expm1(2.0 * math.fsum(logs))
    resolution = 8 * 2.0 ** -52 * (math.fsum(map(abs, logs)) + steps)  # 8 eps
    return _too_tight(lost - resolution, 1.0) or lost == 1.0


def rotate(state: FockVector, theta: float) -> FockVector:
    """R(theta) = exp(-i theta n): amplitude m picks up exp(-i theta m)."""
    return FockVector(state.n_max, state.amplitudes * _rotation_phases(theta, state.n_max),
                      state.tail_flagged)


def _rotation_phases(theta, n_max: int) -> np.ndarray:
    """rotate's phases exp(-i theta m), m = 0..n_max, for an angle or an array."""
    return np.exp(-1j * np.multiply.outer(theta, np.arange(n_max + 1)))


def _rotation_table(n: int, d: int) -> np.ndarray:
    """The C_n phase table mu_n^(-(r-1) m), r = 1..n, m = 0..d-1, shaped (n, d):
    row r-1 holds R(theta_r)'s phases as exact roots of unity rather than the
    floating angles theta_r m that rotate would form, so row 0 is exactly 1.
    Row -k mod n holds mu_n^(k m) with unit_root(k m, n)'s bits: the phases of
    the inversion U_(k+1) = C R(theta_(k+1)), which maps A_m to A_m^* mu_n^(k m)."""
    return unit_root(-np.outer(np.arange(n), np.arange(d)), n)


def _rotated_copies(amps: np.ndarray, n: int) -> np.ndarray:
    """The copies R(theta_r)|A>, r = 1..n, of amplitudes amps (..., d), shaped
    (..., n, d): the _rotation_table times amps."""
    return _rotation_table(n, amps.shape[-1]) * amps[..., None, :]


def inner(bra: FockVector, ket: FockVector) -> complex:
    """<bra|ket> = sum_m A_m(bra)^* A_m(ket); shorter vector is zero-padded."""
    a, b = bra.amplitudes, ket.amplitudes
    k = min(a.size, b.size)  # padding contributes nothing
    return complex(np.vdot(a[:k], b[:k]))


def fidelity(a: FockVector, b: FockVector) -> float:
    """|<a|b>|^2 for unit vectors; inputs are normalized defensively. Each
    vector holds its ray, so the value is the same at any scale."""
    na, nb = a.norm, b.norm
    if na == 0.0 or nb == 0.0:
        raise ValueError("fidelity of a zero vector is undefined")
    return float(abs(inner(a, b)) ** 2 / (na * nb) ** 2)


def quadrature_means(state: FockVector) -> QuadratureMeans:
    """<x> and <p> from <a> = sum_m sqrt(m+1) A_m^* A_{m+1}.

    <x> = sqrt(2) Re <a>, <p> = sqrt(2) Im <a>; sign convention fixed so
    coherent(alpha real > 0) gives <x> = sqrt(2) alpha, <p> = 0.
    """
    A = state.amplitudes
    m = np.arange(1, A.size)
    a_mean = np.vdot(A[:-1], np.sqrt(m) * A[1:])
    return QuadratureMeans(mean_x=float(np.sqrt(2) * a_mean.real),
                           mean_p=float(np.sqrt(2) * a_mean.imag))


def sector_mask(n_max: int, n: int, lam: int) -> np.ndarray:
    """True on the photon numbers m = lam - 1 (mod n) of |0>..|n_max>.

    This residue class is the whole support of the (n, lam) sector state.
    The production sector routes read it as the slice [lam - 1::n]; this
    boolean form is for the orbit oracle's leakage check, verify's Mandel
    scan and the tests.
    """
    m = np.arange(n_max + 1)
    return (m - (lam - 1)) % n == 0


def _class_sums(p: np.ndarray, n: int) -> np.ndarray:
    """Sums of each row of the weights p (..., d) over the residue classes
    lam = 1..min(n, d) mod n, shaped (..., min(n, d)); no photon number lies
    past them, so any order n costs O(p.size). One weighted bin count takes
    every row, each in its own n bins, so each sum adds its row's weights in
    the order of m, as a one-row call does."""
    d = p.shape[-1]
    n = min(n, d)  # the same classes for every n >= d
    bins = np.arange(d) % n
    if p.ndim > 1:
        bins = (bins + np.arange(0, p.size // d * n, n)[:, None]).ravel()
    return np.bincount(bins, weights=p.ravel(),
                       minlength=bins.size // d * n).reshape(p.shape[:-1] + (n,))


def _class_masses(amps: np.ndarray, n: int) -> np.ndarray:
    """residue_class_masses of each row of the amplitudes amps (..., d): (..., n)."""
    w = _class_sums(np.abs(amps) ** 2, n)
    if w.shape[-1] == n:
        return w
    return np.concatenate((w, np.zeros(w.shape[:-1] + (n - w.shape[-1],))), axis=-1)


def residue_class_masses(state: FockVector, n: int) -> np.ndarray:
    """w_lam for lam = 1..n: mass on photon numbers m = lam - 1 (mod n), the
    _class_sums of |A_m|^2 with zeros for the classes past n_max."""
    return _class_masses(state.amplitudes, n)


def annihilate(state: FockVector) -> FockVector:
    """a|psi>: amplitude m of the result is sqrt(m+1) A_{m+1}. Unnormalized."""
    A = state.amplitudes
    out = np.zeros_like(A)
    m = np.arange(1, A.size)
    out[:-1] = np.sqrt(m) * A[1:]
    return FockVector(state.n_max, out, state.tail_flagged)


# ---------------------------------------------------------------------------
# JSON interchange: {"n_max": N, "amplitudes": [[re, im], ...]} with exactly
# N+1 pairs. _pairs is the list form; _json_text writes the same pairs as
# text, one format per array, in json.dumps(indent=2)'s layout.

def _pairs(arr: np.ndarray) -> list:
    """Nested [re, im] lists encoding a complex array of any rank."""
    return np.stack((arr.real, arr.imag), -1).tolist()


def _array_layout(shape: tuple, pad: str) -> str:
    """json.dumps(indent=2)'s layout of nested lists of this shape at
    indentation pad, with a %s for each leaf."""
    if not shape:
        return "%s"
    if not shape[0]:
        return "[]"
    inner = pad + "  "
    item = _array_layout(shape[1:], inner)
    return "[\n" + inner + (",\n" + inner).join([item] * shape[0]) + "\n" + pad + "]"


def _json_text(value, pad: str = "") -> str:
    """json.dumps(value, indent=2), each ndarray in it written as _pairs(array)
    would be, continuing lines at indentation pad.

    An array is one %-format of its layout with the reprs of its floats,
    which are json's own float text for finite values; the amplitudes of a
    FockVector are finite by construction, and the CLI checks every other
    array before it writes it. A non-empty dict recurses, and any other value
    is json.dumps' own text, indented by pad (JSON text holds no raw newline).
    """
    if isinstance(value, np.ndarray):
        floats = np.stack((value.real, value.imag), -1).ravel().tolist()
        return _array_layout(value.shape + (2,), pad) % tuple(map(float.__repr__, floats))
    if isinstance(value, dict) and value:
        inner = pad + "  "
        return ("{\n" + ",\n".join(inner + json.dumps(k) + ": " + _json_text(v, inner)
                                   for k, v in value.items())
                + "\n" + pad + "}")
    return json.dumps(value, indent=2).replace("\n", "\n" + pad)


def vector_to_dict(state: FockVector) -> dict:
    return {"n_max": int(state.n_max), "amplitudes": _pairs(state.amplitudes)}


def _ray_scale(amps: np.ndarray, lo=np.finfo(float).tiny, hi=np.inf) -> tuple:
    """The ray of amps and its sum |A_m|^2: amps itself when lo <= that sum <
    hi (by default, when it is a normal double), else amps times the exact
    power of two that brings its largest real or imaginary part into [1/2, 1)
    (_unit_scaled, a new array)."""
    total = np.vdot(amps, amps).real
    if lo <= total < hi:
        return amps, total
    ray = _unit_scaled(amps, None)
    return ray, np.vdot(ray, ray).real


def _unit_scaled(z: np.ndarray, axis=-1) -> np.ndarray:
    """z times the exact power of two that brings the largest real or
    imaginary part of each row over the last axis (of all of z, axis None)
    into [1/2, 1), as a new array; a zero row stays zero."""
    parts = np.ascontiguousarray(z).view(float)
    out = np.empty(z.shape, complex)
    np.ldexp(parts, -np.frexp(np.abs(parts).max(axis, keepdims=True))[1], out=out.view(float))
    return out


def _check_numbers(name: str, values, kind=numbers.Real) -> None:
    """Raise ValueError unless every value is a kind of number (numbers.Integral
    for a count, numpy's integers included) and not a bool: int() and
    complex() would read true, "2", or 2.7 for a count. One test per type."""
    values = list(values)
    for t in set(map(type, values)):
        if issubclass(t, bool) or not issubclass(t, kind):
            what = "an integer" if kind is numbers.Integral else "a number"
            bad = next(v for v in values if type(v) is t)
            raise ValueError(f"{name} must be {what}, got {bad!r}")


def vector_from_dict(data: dict) -> FockVector:
    """The state of a JSON dict, held as its ray (FockVector); a boolean
    metadata.tail_flagged (as build writes it) is OR-ed into the flag that
    FockVector derives."""
    try:
        _check_numbers("n_max", [data["n_max"]], numbers.Integral)
        n_max = int(data["n_max"])
        if n_max < 0:
            raise ValueError(f"n_max must be >= 0, got {n_max}")
        pairs = data["amplitudes"]
        if len(pairs) != n_max + 1:
            raise ValueError(
                f"expected {n_max + 1} amplitude pairs, got {len(pairs)}"
            )
        _check_numbers("amplitude part", itertools.chain.from_iterable(pairs))
        amps = np.array([complex(re, im) for re, im in pairs])
        metadata = data.get("metadata")
        saved = metadata.get("tail_flagged", False) if isinstance(metadata, dict) else False
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed state JSON: {exc}") from exc
    if not isinstance(saved, bool):
        raise ValueError(f"metadata.tail_flagged must be true or false, got {saved!r}")
    return FockVector(n_max, amps, saved)
