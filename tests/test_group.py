import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from polystate.group import (
    character,
    character_orthogonality_report,
    mu,
    root_sum,
    theta,
)


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
