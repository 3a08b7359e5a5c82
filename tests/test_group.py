import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from polystate.group import (
    character,
    character_orthogonality_report,
    mu,
    root_sum,
    theta,
    unit_root,
)


def test_unit_root_reduces_the_exponent_exactly():
    # a huge exponent is reduced in integers, so it lands on the same bits
    assert unit_root(7 * 10**14 + 3, 7) == unit_root(3, 7)
    assert unit_root(-4, 7) == unit_root(3, 7)
    assert unit_root(0, 5) == 1.0
    k = np.array([[7 * 10**14 + 3, -4], [3, -7 * 10**14 - 4]])
    np.testing.assert_array_equal(unit_root(k, 7), np.full((2, 2), unit_root(3, 7)))
    ks = np.arange(-40, 41)
    for shift in (9, -9 * 10**12, 9 * 10**12):
        np.testing.assert_array_equal(unit_root(ks + shift, 9), unit_root(ks, 9))
    with mpmath.workdps(30):
        exact = [complex(mpmath.expjpi(mpmath.mpf(2 * int(j)) / 9)) for j in ks]
    np.testing.assert_allclose(unit_root(ks, 9), exact, rtol=0, atol=1e-15)
    assert abs(unit_root(1, 12) - np.exp(2j * np.pi / 12)) < 1e-15


def test_group_functions_evaluate_through_unit_root():
    # mu, character, root_sum and the orthogonality table give the
    # evaluator's bits, not a differently rounded exp of their own
    for n in (1, 2, 7, 12, 64):
        assert mu(n) == unit_root(1, n)
        for lam in range(1, n + 1):
            for r in range(1, n + 1):
                assert character(n, lam, r) == unit_root((lam - 1) * (r - 1), n)
        for r in (-3 * n - 1, -1, 0, 5, 10**12 + 1):
            assert root_sum(n, r) == unit_root(np.arange(1, n + 1) * r, n).sum()
        tab = unit_root(np.outer(np.arange(n), np.arange(n)), n)
        eye = np.eye(n)
        assert character_orthogonality_report(n) == (
            float(np.abs(tab @ tab.conj().T / n - eye).max()),
            float(np.abs(tab.conj().T @ tab / n - eye).max()))


def test_character_direct_values():
    assert character(4, 2, 2) == pytest.approx(1j)
    assert character(7, 1, 5) == pytest.approx(1.0)
    assert character(3, 2, 3) == pytest.approx(np.exp(4j * np.pi / 3))


def test_character_index_validation():
    with pytest.raises(ValueError):
        character(4, 0, 1)
    with pytest.raises(ValueError):
        character(4, 5, 1)
    with pytest.raises(ValueError):
        character(4, 1, 0)
    with pytest.raises(ValueError):
        character(4, 1, 5)


def test_theta_values():
    assert theta(4, 1) == 0.0
    assert theta(4, 3) == pytest.approx(np.pi)
    with pytest.raises(ValueError):
        theta(4, 0)
    with pytest.raises(ValueError):
        theta(4, 5)


def test_mu_is_primitive_root():
    for n in (1, 2, 3, 8, 17):
        assert mu(n) ** n == pytest.approx(1.0)
    assert abs(mu(5) - np.exp(2j * np.pi / 5)) < 1e-15


def test_root_sum_known_values():
    assert root_sum(5, 0) == pytest.approx(5.0)
    assert abs(root_sum(5, 3)) < 1e-12
    assert root_sum(4, -8) == pytest.approx(4.0)


def test_root_sum_rejects_bad_order():
    with pytest.raises(ValueError):
        root_sum(0, 1)


@settings(max_examples=200, deadline=None)
@given(n=st.integers(min_value=1, max_value=64), k=st.integers(min_value=-3, max_value=3),
       off=st.integers(min_value=0, max_value=63))
def test_root_sum_property(n, k, off):
    # r = k*n + off covers multiples and non-multiples over |r| <= 3n + n
    r = k * n + off % n
    expected = n if r % n == 0 else 0
    assert abs(root_sum(n, r) - expected) < 1e-12


def test_orthogonality_report():
    assert character_orthogonality_report(1) == (0.0, 0.0)
    r2 = character_orthogonality_report(2)
    assert max(r2) <= 1e-15
    r12 = character_orthogonality_report(12)
    assert max(r12) <= 1e-12
