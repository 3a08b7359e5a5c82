"""Character and root-of-unity arithmetic for the cyclic group C_n.

Conventions used across the package: group elements g_r are the discrete
phase-space rotations by theta_r = 2 pi (r-1)/n, indices are 1-based, the
irreducible representations of C_n are labeled lam = 1..n with character
chi_n^(lam)(g_r) = exp(2 pi i (lam-1)(r-1)/n), and mu_n = exp(2 pi i / n)
denotes the primitive n-th root of unity.
"""
from __future__ import annotations

import numpy as np

__all__ = [
    "mu",
    "theta",
    "character",
    "root_sum",
    "character_orthogonality_report",
]


def mu(n: int) -> complex:
    """Primitive n-th root of unity exp(2 pi i / n)."""
    return complex(np.exp(2j * np.pi / n))


def theta(n: int, r: int) -> float:
    """Rotation angle theta_r = 2 pi (r-1)/n of the r-th group element (1-based)."""
    if not 1 <= r <= n:
        raise ValueError(f"element index r={r} outside 1..{n}")
    return 2.0 * np.pi * (r - 1) / n


def character(n: int, lam: int, r: int) -> complex:
    """Character chi_n^(lam)(g_r) = exp(2 pi i (lam-1)(r-1)/n).

    Always evaluated from this single canonical expression rather than by
    repeated multiplication, so the phase error stays at machine level for
    any n. Indices lam and r are 1-based; out-of-range values raise.
    """
    if not 1 <= lam <= n:
        raise ValueError(f"irrep index lam={lam} outside 1..{n}")
    if not 1 <= r <= n:
        raise ValueError(f"element index r={r} outside 1..{n}")
    return complex(np.exp(2j * np.pi * (lam - 1) * (r - 1) / n))


def root_sum(n: int, r: int) -> complex:
    """Sum of mu_n^(j r) over j = 1..n by explicit summation.

    Equals n when r is a multiple of n (negative r included) and 0
    otherwise. The closed form is deliberately not used here, so tests of
    that identity are non-circular.
    """
    if n < 1:
        raise ValueError(f"group order must be >= 1, got {n}")
    j = np.arange(1, n + 1, dtype=np.int64)
    # reduce j*r mod n exactly in integers; exp of a large float angle
    # would leak phase error ~|angle|*eps into every term
    return complex(np.exp(2j * np.pi * ((j * int(r)) % n) / n).sum())


def character_orthogonality_report(n: int) -> tuple[float, float]:
    """Max residuals of the two character Gram identities for C_n.

    Returns (row_residual, column_residual) where row_residual is
    max over (lam, lam') of |(1/n) sum_r chi^(lam)(g_r) chi*^(lam')(g_r)
    - delta_{lam lam'}| and column_residual is the same with the roles of
    irrep and element indices exchanged.
    """
    if n < 1:
        raise ValueError(f"group order must be >= 1, got {n}")
    lam = np.arange(n)
    tab = np.exp(2j * np.pi * np.outer(lam, lam) / n)  # tab[l-1, r-1] = chi^(l)(g_r)
    eye = np.eye(n)
    rows = np.abs(tab @ tab.conj().T / n - eye).max()
    cols = np.abs(tab.conj().T @ tab / n - eye).max()
    return float(rows), float(cols)
