"""Character and root-of-unity arithmetic for the cyclic group C_n.

Conventions used across the package: group elements g_r are the discrete
phase-space rotations by theta_r = 2 pi (r-1)/n, indices are 1-based, the
irreducible representations of C_n are labeled lam = 1..n with character
chi_n^(lam)(g_r) = mu_n^((lam-1)(r-1)), and mu_n = exp(2 pi i / n)
denotes the primitive n-th root of unity. unit_root is the package's one
evaluator of mu_n^k: every character, rotation phase and sector phase.
"""
from __future__ import annotations

import numpy as np

__all__ = [
    "unit_root",
    "mu",
    "theta",
    "character",
    "root_sum",
    "character_orthogonality_report",
]


def unit_root(k, n: int):
    """mu_n^k for an integer or integer array k, reduced mod n in integers
    before exponentiating: exp of the unreduced angle would leak ~|k| eps."""
    return np.exp(2j * np.pi * (k % n) / n)


def mu(n: int) -> complex:
    """Primitive n-th root of unity exp(2 pi i / n)."""
    return complex(unit_root(1, n))


def theta(n: int, r: int) -> float:
    """Rotation angle theta_r = 2 pi (r-1)/n of the r-th group element (1-based)."""
    if not 1 <= r <= n:
        raise ValueError(f"element index r={r} outside 1..{n}")
    return 2.0 * np.pi * (r - 1) / n


def character(n: int, lam: int, r: int) -> complex:
    """Character chi_n^(lam)(g_r) = mu_n^((lam-1)(r-1)), by unit_root.

    Indices lam and r are 1-based; out-of-range values raise.
    """
    if not 1 <= lam <= n:
        raise ValueError(f"irrep index lam={lam} outside 1..{n}")
    if not 1 <= r <= n:
        raise ValueError(f"element index r={r} outside 1..{n}")
    return complex(unit_root((lam - 1) * (r - 1), n))


def root_sum(n: int, r: int) -> complex:
    """Sum of mu_n^(j r) over j = 1..n by explicit summation.

    Equals n when r is a multiple of n (negative r included) and 0
    otherwise. The closed form is deliberately not used here, so tests of
    that identity are non-circular.
    """
    if n < 1:
        raise ValueError(f"group order must be >= 1, got {n}")
    return complex(unit_root(np.arange(1, n + 1) * int(r), n).sum())


def character_orthogonality_report(n: int) -> tuple[float, float]:
    """Max residuals of the two character Gram identities for C_n.

    Returns (row_residual, column_residual) where row_residual is
    max over (lam, lam') of |(1/n) sum_r chi^(lam)(g_r) chi*^(lam')(g_r)
    - delta_{lam lam'}| and column_residual is the same with the roles of
    irrep and element indices exchanged.
    """
    if n < 1:
        raise ValueError(f"group order must be >= 1, got {n}")
    k = np.arange(n)
    tab = unit_root(np.outer(k, k), n)  # tab[l-1, r-1] = chi^(l)(g_r)
    eye = np.eye(n)
    rows = np.abs(tab @ tab.conj().T / n - eye).max()
    cols = np.abs(tab.conj().T @ tab / n - eye).max()
    return float(rows), float(cols)
