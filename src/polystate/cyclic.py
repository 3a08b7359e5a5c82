"""Symmetry adaptation of Fock-space seeds under C_n and D_n.

A C_n sector state is supported on the single residue class
m = lam - 1 (mod n), so the production routes work on that class directly,
read as the strided slice [lam - 1::n]: one kernel (_sector_part) keeps the
seed's amplitudes there and measures their norm sqrt(w_lam); cyclic_state,
cyclic_erasure, normalization_record and dihedral_state scale that part in
closed form, and density matrices are projected onto the class's block.
fock.sector_mask is the class's full-length boolean form, for the orbit
oracle's leakage check (_off_class) and the tests. Two independent routes
are kept once each as oracles for verify and the tests, and no production
path calls them: the character-weighted superposition over the rotated
copies of the seed (cyclic_superposition) and the double character sum
over density matrices (density_route_gap). Both take their rotation phases
from fock's one C_n phase table (fock._rotation_table). A FockVector or
FockOperator holds its input's ray (fock._ray_scale), so no result depends
on its input's scale.

Phase convention. The raw superposition sum_r chi^(lam)(g_r) R(theta_r)|phi>
has m-amplitude n A_m on the residue class and zero elsewhere, so it is a
positive multiple of the erased vector with norm raw_norm = n sqrt(w_lam).
The normalization constant is chosen as N_lam = mu_n^(lam-1) / raw_norm,
which makes

    erased = mu_n^(1-lam) x superposition

an exact identity, while the erasure route stays real and positive on the
seed's surviving amplitudes.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .fock import (
    FockVector,
    FockOperator,
    _class_sums,
    _rotated_copies,
    _rotation_table,
    annihilate,
    basis_state,
    sector_mask,
)
from .group import unit_root

__all__ = [
    "CyclicSpec",
    "NormalizationRecord",
    "EmptyRepresentationError",
    "cyclic_superposition",
    "cyclic_state",
    "cyclic_erasure",
    "cyclic_set",
    "normalization_record",
    "cyclic_density",
    "density_route_gap",
    "circle_limit",
    "circle_limit_quadrature_gap",
    "dihedral_state",
    "annihilation_irrep_shift",
]

# A class holding at most tol^2 of the seed's total mass is absent (_absent).
_EMPTY_TOL = 1e-12
# Norm off the target residue class above this fails a route's self-check.
_LEAK_TOL = 1e-12


@dataclass(frozen=True)
class CyclicSpec:
    """Group order n and 1-based irrep label lam in 1..n."""

    n: int
    lam: int

    def __post_init__(self):
        if not 1 <= self.n < 2 ** 63:  # the residue arithmetic runs in int64
            raise ValueError(f"group order n={self.n} outside 1..2^63 - 1")
        if not 1 <= self.lam <= self.n:
            raise ValueError(f"irrep index lam={self.lam} outside 1..{self.n}")


@dataclass(frozen=True)
class NormalizationRecord:
    """raw_norm is ||sum_r chi_r R(theta_r) phi|| = n sqrt(w_lam); n_lambda the
    applied constant.

    Invariant: |n_lambda| * raw_norm = 1 for a unit-norm output.
    phase_convention names where the unimodular freedom went: the erasure
    route is real-positive and the superposition constant carries
    mu_n^(lam-1), making the two routes differ by exactly mu_n^(1-lam).
    """

    raw_norm: float
    n_lambda: complex
    phase_convention: str = "erasure-real-positive"


def _absent(mass, total):
    """Every route's presence rule, elementwise and the same at any scale."""
    return mass <= _EMPTY_TOL ** 2 * total


class EmptyRepresentationError(ValueError):
    """The seed has no component in the requested symmetry sector (_absent).

    masses are the class sums of the seed's photon-number weights; with
    weights None (the circle limit) masses is None and detail is the message.
    """

    def __init__(self, n: int, lam: int, weights: np.ndarray | None, detail: str = ""):
        self.n, self.lam = n, lam
        self.masses = masses = None if weights is None else _class_sums(weights, n)
        if masses is not None:
            detail = (f"seed carries no weight in the (n={n}, lam={lam}) sector; "
                      f"residue-class masses {np.array2string(masses, precision=3)}"
                      + (f" ({detail})" if detail else ""))
        super().__init__(detail)


def cyclic_superposition(phi: FockVector, spec: CyclicSpec
                         ) -> tuple[FockVector, NormalizationRecord]:
    """Character-weighted sum over the rotated seed copies, normalized.

    The orbit route, kept as the oracle that verify and the tests compare
    cyclic_state and the other closed forms against. Raises
    EmptyRepresentationError when the residue class m = lam - 1 (mod n) is
    _absent, judged by raw_norm / n alone. The output support is verified to
    lie on that class (off-class leakage <= 1e-12 after normalizing). The
    phases are exactly reduced roots of unity, so the off-class terms
    cancel to about eps times the off-class amplitudes over sqrt(w_lam):
    sectors far lighter than the seed's other classes can still trip the
    check. This is the one-seed, one-lam call of _superpositions.
    """
    states, raw_norm, n_lambda = _superpositions(phi.amplitudes, spec.n, [spec.lam])
    return (FockVector(phi.n_max, states[0], phi.tail_flagged),
            NormalizationRecord(raw_norm=float(raw_norm[0]), n_lambda=complex(n_lambda[0])))


def _superpositions(amps: np.ndarray, n: int, lams
                    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """cyclic_superposition for a stack of seeds amps (..., d) and L labels
    lam: every seed with each int of a 1-D lams, or each seed with its own
    row of an array lams (..., L). One product of the character table
    mu_n^((lam-1) r), r 0-based, with the rotated copies gives them all.

    Returns the unit states (..., L, d) and their records' raw_norm and
    n_lambda, each (..., L). The empty-sector and leakage checks run over the
    whole stack; the first failing (seed, lam) in C order raises, as one
    call per seed and lam in that order would.
    """
    lams = np.asarray(lams)
    chi = unit_root(np.multiply.outer(lams - 1, np.arange(n)), n)
    states = chi @ _rotated_copies(amps, n)
    raw_norm = np.linalg.norm(states, axis=-1)
    weights = np.abs(amps) ** 2
    empty = _absent((raw_norm / n) ** 2, weights.sum(axis=-1, keepdims=True))
    scale = np.where(empty, 1.0, raw_norm)  # empty rows raise below
    n_lambda = unit_root(lams - 1, n) / scale
    states = n_lambda[..., None] * states
    off = _off_class(states, n, lams)
    failed = empty | (off > _LEAK_TOL)
    if failed.any():
        first = np.unravel_index(np.argmax(failed), failed.shape)
        lam = int(np.broadcast_to(lams, failed.shape)[first])
        if empty[first]:
            raise EmptyRepresentationError(n, lam, weights[first[:-1]])
        raise _leakage_error(float(off[first]), n, lam, "superposition")
    return states, raw_norm, n_lambda


def _off_class(states: np.ndarray, n: int, lam) -> np.ndarray:
    """The norm of each row of states (..., d) off its residue class
    m = lam - 1 (mod n), lam an int or an array broadcast against
    states.shape[:-1]."""
    keep = sector_mask(states.shape[-1] - 1, n, np.asarray(lam)[..., None])
    return np.linalg.norm(np.where(keep, 0, states), axis=-1)


def _leakage_error(off: float, n: int, lam: int, route: str) -> AssertionError:
    return AssertionError(
        f"off-class leakage {off:.3e} in the {route} route for (n={n}, "
        f"lam={lam}) exceeds the threshold {_LEAK_TOL:.0e}")


def _sector_part(phi: FockVector, spec: CyclicSpec, variant: str = ""
                 ) -> tuple[np.ndarray, float]:
    """The seed's amplitudes (a dihedral variant's Re A_m or i Im A_m) on the
    sector's class, and their norm; raises if _absent."""
    seed, total = phi.amplitudes, phi._total
    cls = slice(spec.lam - 1, None, spec.n)
    on = seed[cls]
    # the sum variant's part is real: a complex one's .real dots at another
    # stride, and the mass dots all d slots: the slice alone sums otherwise
    part = np.zeros(seed.shape, float if variant == "sum" else complex)
    part[cls] = on.real if variant == "sum" else 1j * on.imag if variant else on
    mass = part.real.dot(part.real) + part.imag.dot(part.imag)  # np.linalg.norm's sum
    if _absent(mass, total):
        raise EmptyRepresentationError(spec.n, spec.lam, np.abs(seed) ** 2,
                                       variant and f"dihedral {variant} variant vanishes")
    return part, float(np.sqrt(mass))


def cyclic_state(phi: FockVector, spec: CyclicSpec
                 ) -> tuple[FockVector, NormalizationRecord]:
    """What cyclic_superposition returns, in closed form: the orbit sum is
    n A_m on the residue class, so the state is mu_n^(lam-1) times the erased
    seed, raw_norm = n sqrt(w_lam) and n_lambda = mu_n^(lam-1) / raw_norm.
    Raises EmptyRepresentationError where cyclic_erasure does."""
    part, nrm = _sector_part(phi, spec)
    phase = complex(unit_root(spec.lam - 1, spec.n))
    record = NormalizationRecord(raw_norm=spec.n * nrm,
                                 n_lambda=complex(phase / (spec.n * nrm)))
    return FockVector(phi.n_max, (phase / nrm) * part, phi.tail_flagged), record


def normalization_record(phi: FockVector, spec: CyclicSpec) -> NormalizationRecord:
    """The NormalizationRecord of cyclic_state (and of cyclic_superposition)."""
    return cyclic_state(phi, spec)[1]


def cyclic_erasure(phi: FockVector, spec: CyclicSpec) -> FockVector:
    """Keep only amplitudes with m = lam - 1 (mod n), then renormalize.

    Acts as the identity on states already supported on the class. The
    scale is real and positive: surviving amplitudes keep their phases.
    """
    part, nrm = _sector_part(phi, spec)
    return FockVector(phi.n_max, part / nrm, phi.tail_flagged)


def cyclic_set(phi: FockVector, n: int
               ) -> list[tuple[FockVector, NormalizationRecord]]:
    """cyclic_state for lam = 1..n, skipping sectors where the seed has no weight.
    Only lam - 1 <= n_max name a class that holds a photon number, so no later
    lam is tried."""
    out = []
    for lam in range(1, min(n, phi.n_max + 1) + 1):
        try:
            out.append(cyclic_state(phi, CyclicSpec(n, lam)))
        except EmptyRepresentationError:
            continue
    return out


def _projected_density(rho: np.ndarray, n: int, lam: int) -> np.ndarray:
    """P rho P, unnormalized, P the projector onto lam's residue class."""
    cls = slice(lam - 1, None, n)
    out = np.zeros_like(rho)
    out[cls, cls] = rho[cls, cls]
    return out


def density_route_gap(rho: FockOperator, spec: CyclicSpec) -> float:
    """Entrywise max difference between the double character sum and P rho P.

    The double sum (1/n^2) sum_{r,r'} chi_r chi_{r'}^* R_r rho R_{r'}^dag
    factorises as P_chi rho P_chi^dag, P_chi = (1/n) sum_r chi_r R_r diagonal:
    one row of characters times the phase table (fock._rotation_table).
    The independent oracle for cyclic_density: no residue-class mask.
    """
    n, mat = spec.n, rho.matrix
    chi = unit_root((spec.lam - 1) * np.arange(n), n)[None, :]
    p_chi = (chi @ _rotation_table(n, rho.n_max + 1))[0] / n
    acc = p_chi[:, None] * mat * np.conj(p_chi)[None, :]
    return float(np.abs(acc - _projected_density(mat, n, spec.lam)).max())


def cyclic_density(rho: FockOperator, spec: CyclicSpec) -> FockOperator:
    """Symmetry-adapted density matrix P rho P / tr, P the residue-class projector.

    P rho P equals the double character sum
    (1/n^2) sum_{r,r'} chi_r chi_{r'}^* R_r rho R_{r'}^dag = P_chi rho P_chi^dag
    entrywise; density_route_gap measures that agreement. rho holds its ray,
    so the result is the same at any scale. An _absent tr P rho P (against
    tr rho) raises EmptyRepresentationError with rho's diagonal.
    """
    mat, cls = rho.matrix, slice(spec.lam - 1, None, spec.n)
    projected = _projected_density(mat, spec.n, spec.lam)
    # the whole diagonal's sum: the class block alone adds in another order
    tr = np.trace(projected).real
    if _absent(tr, np.trace(mat).real):
        raise EmptyRepresentationError(spec.n, spec.lam, np.diagonal(mat).real)
    projected[cls, cls] /= tr  # in place: FockOperator makes the one copy
    return FockOperator(rho.n_max, projected)


def _circle_average(phi: FockVector, lam: int) -> np.ndarray:
    """(1/2pi) int dtheta e^{i theta (lam-1)} R(theta)|phi> by trapezoid rule.

    2 (n_max + 1) equispaced angles resolve every frequency present, so the
    rule integrates the trigonometric-polynomial integrand exactly. The rule
    weighs A_m by (1/N) sum_j e^{i theta_j (lam - 1 - m)}, the inverse FFT of
    the N uniform angle weights at index lam - 1 - m (mod N), so it needs
    O(n_max) memory at any truncation.
    """
    npts = 2 * (phi.n_max + 1)
    m = np.arange(phi.n_max + 1)
    return np.fft.ifft(np.ones(npts))[(lam - 1 - m) % npts] * phi.amplitudes


def circle_limit_quadrature_gap(phi: FockVector, lam: int) -> float:
    """Max amplitude difference between the quadrature and analytic limits."""
    limit = circle_limit(phi, lam)
    quad = _circle_average(phi, lam)
    return float(np.abs(quad / np.linalg.norm(quad) - limit.amplitudes).max())


def circle_limit(phi: FockVector, lam: int) -> FockVector:
    """The n -> infinity limit of the cyclic family: the number state |lam - 1>.

    The analytic limit is exact and carries the phase of the seed amplitude
    A_(lam-1), empty when lam - 1 > n_max or |A_(lam-1)|^2 is _absent from the
    seed; circle_limit_quadrature_gap checks it against the angle average.
    """
    if lam < 1:
        raise ValueError(f"irrep index lam={lam} must be >= 1")
    if lam - 1 > phi.n_max:
        raise EmptyRepresentationError(0, lam, None, (
            f"circle limit |{lam - 1}> lies beyond the truncation: "
            f"lam - 1 = {lam - 1} > n_max = {phi.n_max}"))
    a, total = phi.amplitudes[lam - 1], phi._total
    if _absent(abs(a) ** 2, total):
        raise EmptyRepresentationError(0, lam, None, (
            f"circle limit |{lam - 1}> is empty: seed mass |A_{lam - 1}|^2 = "
            f"{abs(a) ** 2:.3e} is below {_EMPTY_TOL ** 2:.0e} times the seed's {total:.3e}"))
    limit = basis_state(lam - 1, phi.n_max).amplitudes * (a / abs(a))
    return FockVector(phi.n_max, limit)


def dihedral_state(phi: FockVector, spec: CyclicSpec, variant: str = "sum"
                   ) -> tuple[FockVector, NormalizationRecord]:
    """D_n-adapted state built from the cyclic sum and its conjugate partner.

    The rotation-plus-inversion sum sum_r chi_r R_r phi + s sum_r chi_r^* U_r phi
    has m-amplitude n (A_m + s A_m^*) on the residue class m = lam - 1 (mod n)
    and zero elsewhere: 2n Re A_m for variant 'sum' (s = 1) and 2in Im A_m
    for 'difference' (s = -1). The state is that masked part, normalized by
    the real-positive constant 1 / raw_norm, so sum amplitudes come out real
    and difference amplitudes purely imaginary. A seed with real amplitudes
    has a vanishing difference variant, which raises EmptyRepresentationError.
    """
    if variant not in ("sum", "difference"):
        raise ValueError(f"variant must be 'sum' or 'difference', got {variant!r}")
    part, nrm = _sector_part(phi, spec, variant)
    raw_norm = 2 * spec.n * nrm
    record = NormalizationRecord(raw_norm=raw_norm, n_lambda=complex(1.0 / raw_norm),
                                 phase_convention="real-positive")
    return FockVector(phi.n_max, part / nrm, phi.tail_flagged), record


def annihilation_irrep_shift(psi: FockVector, spec: CyclicSpec
                             ) -> tuple[FockVector, int]:
    """a|psi^(lam)> lands in the lam - 1 sector (wrapping lam = 1 to n).

    Returns the normalized annihilated state and its new irrep label. An
    _absent ||a psi||^2 (against ||psi||^2) raises EmptyRepresentationError,
    and off-class leakage beyond 1e-12 an AssertionError: the shift is exact.
    """
    n, lam = spec.n, spec.lam
    new_lam = lam - 1 if lam >= 2 else n
    lowered = annihilate(psi)
    nrm = lowered.norm
    if _absent(nrm * nrm, psi.norm ** 2):
        raise EmptyRepresentationError(n, new_lam, np.abs(psi.amplitudes) ** 2,
                                       "annihilation gives the zero vector")
    amps = lowered.amplitudes / nrm
    off = float(_off_class(amps, n, new_lam))
    if off > _LEAK_TOL:
        raise _leakage_error(off, n, new_lam, "annihilation")
    return FockVector(psi.n_max, amps, psi.tail_flagged), new_lam
