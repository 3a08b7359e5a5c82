import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from polystate.group import (
    character,
    character_orthogonality_report,
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


def test_unit_root_arrays_match_the_exp_expression_bit_for_bit():
    # arrays longer than n read the n residues' exponentials; shorter ones
    # and scalars exponentiate each entry: both give the same bits
    rng = np.random.default_rng(15)
    for n in (*range(1, 70), 97, 128, 10**3, 10**6):
        for k in (rng.integers(-2**62, 2**62, 300),
                  rng.integers(-3 * n, 3 * n, (4, 25)),
                  np.arange(-n - 2, 0),
                  rng.integers(-5, 5, 3)):
            want = np.exp(2j * np.pi * (k % n) / n)
            got = unit_root(k, n)
            assert got.shape == k.shape and got.dtype == want.dtype
            np.testing.assert_array_equal(got.view(np.uint64), want.view(np.uint64))
    assert unit_root(np.array([], dtype=np.int64), 3).shape == (0,)
    assert unit_root(-4, 7) == np.exp(2j * np.pi * (-4 % 7) / 7)


def test_group_functions_evaluate_through_unit_root():
    # character, root_sum and the orthogonality table give the
    # evaluator's bits, not a differently rounded exp of their own
    for n in (1, 2, 7, 12, 64):
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
        assert unit_root(1, n) ** n == pytest.approx(1.0)
    assert abs(unit_root(1, 5) - np.exp(2j * np.pi / 5)) < 1e-15


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


def test_root_sum_array_matches_scalar_calls():
    # one call over an integer array gives each scalar call's bits
    for n in (1, 2, 7, 12, 64):
        r = np.arange(-3 * n, 3 * n + 1)
        sums = root_sum(n, r)
        assert sums.shape == r.shape
        np.testing.assert_array_equal(sums, [root_sum(n, int(k)) for k in r])
    grid = np.array([[0, 5], [-10, 3]])
    np.testing.assert_array_equal(root_sum(5, grid),
                                  [[root_sum(5, 0), root_sum(5, 5)],
                                   [root_sum(5, -10), root_sum(5, 3)]])
    assert type(root_sum(5, 3)) is complex
    assert type(root_sum(5, np.int64(3))) is complex


def test_orthogonality_report():
    assert character_orthogonality_report(1) == (0.0, 0.0)
    r2 = character_orthogonality_report(2)
    assert max(r2) <= 1e-15
    r12 = character_orthogonality_report(12)
    assert max(r12) <= 1e-12
