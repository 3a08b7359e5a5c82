"""Symmetry adaptation of Fock-space seeds under C_n and D_n.

A C_n sector state is supported on the single residue class
m = lam - 1 (mod n) (fock.sector_mask), so the production routes work on
that class directly: the erasure map keeps the seed's amplitudes there,
the normalization constant follows from the class mass w_lam, dihedral
states take the real or imaginary part of the kept amplitudes, and
density matrices are projected onto the class. Two independent routes are
kept once each as oracles for verify and the tests, and no production
path calls them: the character-weighted superposition over the rotated
copies of the seed (cyclic_superposition) and the double character sum
over density matrices (density_route_gap).

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
    annihilate,
    basis_state,
    inner,
    inversion,
    residue_class_masses,
    rotate,
    sector_mask,
)
from .group import character, mu, theta

__all__ = [
    "CyclicSpec",
    "NormalizationRecord",
    "EmptyRepresentationError",
    "cyclic_superposition",
    "cyclic_erasure",
    "cyclic_set",
    "normalization_record",
    "rotation_phase_check",
    "cyclic_density",
    "density_route_gap",
    "circle_limit",
    "circle_limit_quadrature_gap",
    "dihedral_state",
    "dihedral_inversion_check",
    "dihedral_gram",
    "annihilation_irrep_shift",
]

# Mass below tol^2 on the target residue class means the component is absent.
_EMPTY_TOL = 1e-12


@dataclass(frozen=True)
class CyclicSpec:
    """Group order n and 1-based irrep label lam in 1..n."""

    n: int
    lam: int

    def __post_init__(self):
        if self.n < 1:
            raise ValueError(f"group order n={self.n} must be >= 1")
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


class EmptyRepresentationError(ValueError):
    """The seed has no component in the requested symmetry sector."""

    def __init__(self, n: int, lam: int, masses: np.ndarray, detail: str = ""):
        self.n = n
        self.lam = lam
        self.masses = masses
        msg = (f"seed carries no weight in the (n={n}, lam={lam}) sector; "
               f"residue-class masses {np.array2string(masses, precision=3)}")
        if detail:
            msg += f" ({detail})"
        super().__init__(msg)


def _raw_superposition(phi: FockVector, spec: CyclicSpec) -> np.ndarray:
    n, lam = spec.n, spec.lam
    acc = np.zeros(phi.n_max + 1, dtype=complex)
    for r in range(1, n + 1):
        acc += character(n, lam, r) * rotate(phi, theta(n, r)).amplitudes
    return acc


def cyclic_superposition(phi: FockVector, spec: CyclicSpec
                         ) -> tuple[FockVector, NormalizationRecord]:
    """Character-weighted sum over the rotated seed copies, normalized.

    The orbit route, kept as the oracle that verify and the tests compare
    the closed forms against; it also serves build --method superposition.
    Raises EmptyRepresentationError when the seed has no weight on the
    residue class m = lam - 1 (mod n). The output support is verified to
    lie on that class (off-class leakage <= 1e-12 of the norm; the exact
    cancellation is limited by rotation phases e^{-i theta m} with
    theta*m of order n_max, so machine noise here is ~1e-14, not eps).
    """
    n, lam = spec.n, spec.lam
    raw = _raw_superposition(phi, spec)
    raw_norm = float(np.linalg.norm(raw))
    if raw_norm < _EMPTY_TOL:
        raise EmptyRepresentationError(n, lam, residue_class_masses(phi, n))
    n_lambda = complex(mu(n) ** (lam - 1) / raw_norm)
    amps = n_lambda * raw

    off = np.linalg.norm(amps[~sector_mask(phi.n_max, n, lam)])
    if off > 1e-12:
        raise AssertionError(f"off-class leakage {off:.3e} in superposition route")

    out = FockVector(phi.n_max, amps, phi.tail_flagged)
    return out, NormalizationRecord(raw_norm=raw_norm, n_lambda=n_lambda)


def _class_part(phi: FockVector, spec: CyclicSpec) -> np.ndarray:
    """The seed's amplitudes on the sector's residue class, zero elsewhere."""
    return np.where(sector_mask(phi.n_max, spec.n, spec.lam), phi.amplitudes, 0)


def normalization_record(phi: FockVector, spec: CyclicSpec) -> NormalizationRecord:
    """The NormalizationRecord of cyclic_superposition, in closed form.

    raw_norm = n sqrt(w_lam) from the class mass and n_lambda =
    mu_n^(lam-1) / raw_norm; the orbit sum is never formed. Raises
    EmptyRepresentationError where cyclic_superposition would.
    """
    n, lam = spec.n, spec.lam
    raw_norm = n * float(np.linalg.norm(_class_part(phi, spec)))
    if raw_norm < _EMPTY_TOL:
        raise EmptyRepresentationError(n, lam, residue_class_masses(phi, n))
    return NormalizationRecord(raw_norm=raw_norm,
                               n_lambda=complex(mu(n) ** (lam - 1) / raw_norm))


def cyclic_erasure(phi: FockVector, spec: CyclicSpec) -> FockVector:
    """Keep only amplitudes with m = lam - 1 (mod n), then renormalize.

    Acts as the identity on states already supported on the class. The
    scale is real and positive: surviving amplitudes keep their phases.
    """
    n, lam = spec.n, spec.lam
    amps = _class_part(phi, spec)
    nrm = np.linalg.norm(amps)
    if nrm < _EMPTY_TOL:
        raise EmptyRepresentationError(n, lam, residue_class_masses(phi, n))
    return FockVector(phi.n_max, amps / nrm, phi.tail_flagged)


def cyclic_set(phi: FockVector, n: int
               ) -> list[tuple[FockVector, NormalizationRecord]]:
    """All constructible (state, record) pairs for lam = 1..n, in lam order.

    Each state is what cyclic_superposition returns, in closed form:
    n_lambda times the orbit sum n A_m on the class, which is mu_n^(lam-1)
    times the erased seed. Sectors where the seed has no weight are
    skipped; an entirely empty result is impossible for a nonzero seed.
    """
    out = []
    for lam in range(1, n + 1):
        spec = CyclicSpec(n, lam)
        try:
            record = normalization_record(phi, spec)
        except EmptyRepresentationError:
            continue
        amps = record.n_lambda * n * _class_part(phi, spec)
        out.append((FockVector(phi.n_max, amps, phi.tail_flagged), record))
    return out


def rotation_phase_check(psi: FockVector, spec: CyclicSpec, l: int
                         ) -> tuple[float, float]:
    """Apply l elementary rotations and compare against the predicted phase.

    R(2 pi l / n) acting on the lam-sector state reproduces it up to the
    phase mu_n^((1-lam) l). Returns (fidelity, phase_residual): fidelity is
    |<psi|R|psi>| for the unit-normalized state, the residual is the angle
    difference wrapped to (-pi, pi]. l = n is the identity element.
    """
    n, lam = spec.n, spec.lam
    rotated = rotate(psi, 2.0 * np.pi * l / n)
    ov = inner(psi, rotated)
    fid = abs(ov) / (psi.norm ** 2)
    predicted = mu(n) ** ((1 - lam) * l)
    diff = np.angle(ov / predicted)
    return float(fid), float(abs(diff))


def _projected_density(rho: FockOperator, spec: CyclicSpec) -> np.ndarray:
    """P rho P, unnormalized, with P the projector onto the residue class."""
    keep = sector_mask(rho.n_max, spec.n, spec.lam)
    return np.where(keep[:, None] & keep[None, :], rho.matrix, 0)


def density_route_gap(rho: FockOperator, spec: CyclicSpec) -> float:
    """Entrywise max difference between the double character sum and P rho P.

    The double sum (1/n^2) sum_{r,r'} chi_r chi_{r'}^* R_r rho R_{r'}^dag is
    the independent oracle for cyclic_density and is evaluated only here.
    """
    n, lam = spec.n, spec.lam
    m = np.arange(rho.n_max + 1)
    chis = [character(n, lam, r) for r in range(1, n + 1)]
    phases = [np.exp(-1j * theta(n, r) * m) for r in range(1, n + 1)]
    acc = np.zeros_like(rho.matrix)
    for chi_r, phase_r in zip(chis, phases):
        for chi_rp, phase_rp in zip(chis, phases):
            weight = chi_r * np.conj(chi_rp)
            acc += weight * (phase_r[:, None] * rho.matrix * np.conj(phase_rp)[None, :])
    return float(np.abs(acc / n ** 2 - _projected_density(rho, spec)).max())


def cyclic_density(rho: FockOperator, spec: CyclicSpec) -> FockOperator:
    """Symmetry-adapted density matrix P rho P / tr, P the residue-class projector.

    P rho P equals the double character sum
    (1/n^2) sum_{r,r'} chi_r chi_{r'}^* R_r rho R_{r'}^dag entrywise;
    density_route_gap measures that agreement.
    """
    n, lam = spec.n, spec.lam
    projected = _projected_density(rho, spec)
    tr = projected.trace().real
    if tr < _EMPTY_TOL:
        raise EmptyRepresentationError(n, lam, np.abs(np.diag(rho.matrix)).real)
    return FockOperator(rho.n_max, projected / tr)


def _circle_average(phi: FockVector, lam: int) -> np.ndarray:
    """(1/2pi) int dtheta e^{i theta (lam-1)} R(theta)|phi> by trapezoid rule.

    2 (n_max + 1) equispaced angles resolve every frequency present, so the
    rule integrates the trigonometric-polynomial integrand exactly.
    """
    npts = 2 * (phi.n_max + 1)
    thetas = 2.0 * np.pi * np.arange(npts) / npts
    m = np.arange(phi.n_max + 1)
    return (np.exp(1j * np.outer(thetas, (lam - 1) - m)) * phi.amplitudes).mean(axis=0)


def circle_limit_quadrature_gap(phi: FockVector, lam: int) -> float:
    """Max amplitude difference between the quadrature and analytic limits."""
    limit = circle_limit(phi, lam)
    quad = _circle_average(phi, lam)
    return float(np.abs(quad / np.linalg.norm(quad) - limit.amplitudes).max())


def circle_limit(phi: FockVector, lam: int) -> FockVector:
    """The n -> infinity limit of the cyclic family: the number state |lam - 1>.

    The analytic limit is exact and carries the phase of the seed amplitude
    A_(lam-1). circle_limit_quadrature_gap cross-checks it against the
    continuous average over all rotation angles.
    """
    if lam < 1:
        raise ValueError(f"irrep index lam={lam} must be >= 1")
    if lam - 1 > phi.n_max:
        raise EmptyRepresentationError(
            0, lam, np.abs(phi.amplitudes) ** 2, detail="lam - 1 beyond truncation")
    a = phi.amplitudes[lam - 1]
    if abs(a) ** 2 < _EMPTY_TOL ** 2:
        raise EmptyRepresentationError(0, lam, np.abs(phi.amplitudes) ** 2)
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
    n, lam = spec.n, spec.lam
    part = _class_part(phi, spec)
    part = part.real if variant == "sum" else 1j * part.imag
    nrm = float(np.linalg.norm(part))
    raw_norm = 2 * n * nrm
    if raw_norm < _EMPTY_TOL:
        raise EmptyRepresentationError(
            n, lam, residue_class_masses(phi, n),
            detail=f"dihedral {variant} variant vanishes")
    out = FockVector(phi.n_max, part / nrm, phi.tail_flagged)
    record = NormalizationRecord(raw_norm=raw_norm, n_lambda=complex(1.0 / raw_norm),
                                 phase_convention="real-positive")
    return out, record


def dihedral_inversion_check(gamma: FockVector, spec: CyclicSpec, l: int
                             ) -> tuple[float, complex]:
    """Apply the inversion U_l = C R(2 pi l / n); return (fidelity, phase).

    l counts elementary rotation units, matching rotation_phase_check. The
    sum variant reproduces itself with phase mu_n^((lam-1) l), the
    difference variant with the opposite sign (its amplitudes are purely
    imaginary, and U is antilinear in the global phase, so the sign is a
    convention, which is why the phase is returned rather than judged).
    Fidelity alone certifies the state is an eigenvector of the inversion.
    """
    r = (l % spec.n) + 1  # theta_r = 2 pi l / n mod 2 pi
    inverted = inversion(gamma, r, spec.n)
    ov = inner(gamma, inverted)
    fid = abs(ov) ** 2 / (gamma.norm ** 4)
    return float(fid), complex(ov / abs(ov)) if abs(ov) > 0 else complex(0)


def dihedral_gram(phi: FockVector, n: int, variant: str = "sum") -> np.ndarray:
    """Gram matrix of the constructible dihedral states over lam = 1..n.

    Entries for sectors that raise EmptyRepresentationError are left as
    identity rows so the residual against the identity stays meaningful.
    """
    states: dict[int, FockVector] = {}
    for lam in range(1, n + 1):
        try:
            states[lam], _ = dihedral_state(phi, CyclicSpec(n, lam), variant)
        except EmptyRepresentationError:
            continue
    g = np.eye(n, dtype=complex)
    for i in states:
        for j in states:
            g[i - 1, j - 1] = inner(states[i], states[j])
    return g


def annihilation_irrep_shift(psi: FockVector, spec: CyclicSpec
                             ) -> tuple[FockVector, int]:
    """a|psi^(lam)> lands in the lam - 1 sector (wrapping lam = 1 to n).

    Returns the normalized annihilated state and its new irrep label.
    Off-class leakage beyond 1e-12 raises, since the shift property is an
    exact consequence of the single-class support.
    """
    n, lam = spec.n, spec.lam
    new_lam = lam - 1 if lam >= 2 else n
    lowered = annihilate(psi)
    nrm = lowered.norm
    if nrm < _EMPTY_TOL:
        raise EmptyRepresentationError(
            n, new_lam, residue_class_masses(psi, n),
            detail="annihilation gives the zero vector")
    amps = lowered.amplitudes / nrm
    off = float(np.linalg.norm(amps[~sector_mask(psi.n_max, n, new_lam)]))
    if off > 1e-12:
        raise AssertionError(f"annihilation leaked {off:.3e} outside the shifted class")
    return FockVector(psi.n_max, amps, psi.tail_flagged), new_lam
