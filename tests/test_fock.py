import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

import polystate.fock as fock
from polystate.group import unit_root
from polystate.fock import (
    TAIL_TOL,
    FockOperator,
    FockVector,
    annihilate,
    basis_state,
    coherent,
    fidelity,
    from_amplitudes,
    inner,
    quadrature_means,
    residue_class_masses,
    rotate,
    sector_mask,
    _json_text,
    _pairs,
    _rotated_copies,
    _rotation_phases,
    _rotation_table,
    vector_from_dict,
    vector_to_dict,
)


def random_state(rng, n_max=20):
    amps = rng.normal(size=n_max + 1) + 1j * rng.normal(size=n_max + 1)
    return from_amplitudes(amps / np.linalg.norm(amps))


amplitude_lists = st.lists(
    st.tuples(st.floats(-1, 1, allow_nan=False), st.floats(-1, 1, allow_nan=False)),
    min_size=2, max_size=24,
).filter(lambda ps: sum(re * re + im * im for re, im in ps) > 1e-6)


def state_from_pairs(pairs):
    amps = np.array([complex(re, im) for re, im in pairs])
    return from_amplitudes(amps / np.linalg.norm(amps))


def photon_distribution(state):
    """(<n>, <n^2>, p_m) with p_m = |A_m|^2."""
    p = np.abs(state.amplitudes) ** 2
    m = np.arange(p.size)
    return (m * p).sum(), (m * m * p).sum(), p


# ---- rotation ----

def test_rotate_identity():
    rng = np.random.default_rng(0)
    st_ = random_state(rng)
    out = rotate(st_, 0.0)
    np.testing.assert_array_equal(out.amplitudes, st_.amplitudes)


def test_rotate_one_photon_pi():
    one = basis_state(1, 4)
    out = rotate(one, np.pi)
    np.testing.assert_allclose(out.amplitudes[1], -1.0, atol=1e-15)


def test_rotate_inverse():
    rng = np.random.default_rng(1)
    st_ = random_state(rng)
    back = rotate(rotate(st_, 0.7), -0.7)
    assert np.abs(back.amplitudes - st_.amplitudes).max() < 1e-15


def test_rotate_preserves_photon_distribution():
    rng = np.random.default_rng(2)
    st_ = random_state(rng)
    p0 = np.abs(st_.amplitudes) ** 2
    p1 = np.abs(rotate(st_, 1.3).amplitudes) ** 2
    np.testing.assert_allclose(p1, p0, rtol=1e-14, atol=1e-16)


@settings(max_examples=60, deadline=None)
@given(pairs=amplitude_lists, th=st.floats(-8, 8, allow_nan=False))
def test_rotate_inverse_property(pairs, th):
    st_ = state_from_pairs(pairs)
    back = rotate(rotate(st_, th), -th)
    assert np.abs(back.amplitudes - st_.amplitudes).max() < 1e-13


# ---- the C_n phase table, and the inversions U_r = C R(theta_r): A_m goes to
# A_m^* times row -(r-1) mod n of the table (conjugation C is U_1) ----

def _inverted(amps, r, n):
    """U_r|A>, as verify's dihedral inversion row forms it."""
    return np.conj(amps) * _rotation_table(n, amps.size)[(1 - r) % n]


def _assert_involution(amps, n):
    # each reflection U_r of D_n squares to the identity: exactly for U_1 = C,
    # to rounding for the others, whose table entries are unit to rounding
    np.testing.assert_array_equal(_inverted(_inverted(amps, 1, n), 1, n), amps)
    for r in range(2, n + 1):
        assert np.abs(_inverted(_inverted(amps, r, n), r, n) - amps).max() < 1e-15


def test_conjugate_involution():
    rng = np.random.default_rng(3)
    _assert_involution(random_state(rng).amplitudes, 3)


@settings(max_examples=60, deadline=None)
@given(pairs=amplitude_lists)
def test_conjugate_involution_property(pairs):
    _assert_involution(state_from_pairs(pairs).amplitudes, 3)


def test_conjugate_coherent_maps_alpha_to_conjugate():
    alpha = 0.8 + 0.3j
    left = np.conj(coherent(alpha, 40).amplitudes)
    right = coherent(np.conj(alpha), 40)
    assert np.abs(left - right.amplitudes).max() < 1e-14


def test_inversion_r1_is_conjugate():
    rng = np.random.default_rng(4)
    st_ = random_state(rng)
    for n in (1, 2, 5):
        np.testing.assert_array_equal(_inverted(st_.amplitudes, 1, n),
                                      np.conj(st_.amplitudes))


def test_inversion_one_photon():
    out = _inverted(basis_state(1, 3).amplitudes, 2, 2)
    np.testing.assert_allclose(out[1], -1.0, atol=1e-15)


def test_inversion_closed_form():
    # the table row against the float angles: U_r A = A_m^* exp(i theta_r m)
    rng = np.random.default_rng(5)
    st_ = random_state(rng)
    n, r = 5, 3
    th = 2.0 * np.pi * (r - 1) / n
    m = np.arange(st_.n_max + 1)
    expected = np.conj(st_.amplitudes) * np.exp(1j * th * m)
    assert np.abs(_inverted(st_.amplitudes, r, n) - expected).max() < 1e-15


def test_rotation_table_rows():
    # row 0 is exactly 1; row -k mod n has unit_root(k m, n)'s bits, which is
    # why verify's dihedral inversion row reads exactly 0; and _rotated_copies
    # is the table times the amplitudes, bit for bit
    amps = random_state(np.random.default_rng(8), 40).amplitudes
    m = np.arange(41)
    for n in (1, 2, 3, 5, 8, 41, 64):
        table = _rotation_table(n, 41)
        assert table.shape == (n, 41)
        np.testing.assert_array_equal(table[0], 1.0)
        for k in range(n):
            np.testing.assert_array_equal(table[-k % n], unit_root(k * m, n))
        np.testing.assert_array_equal(_rotated_copies(amps, n), table * amps)
        np.testing.assert_array_equal(_rotated_copies(np.array([amps, 2 * amps]), n),
                                      table * np.array([amps, 2 * amps])[:, None, :])


# ---- inner products and distances ----

def test_inner_normalized_self():
    rng = np.random.default_rng(6)
    st_ = random_state(rng)
    assert inner(st_, st_) == pytest.approx(1.0, abs=1e-14)


def test_inner_orthogonal_basis():
    assert inner(basis_state(2, 6), basis_state(3, 6)) == 0.0


def test_inner_coherent_overlap():
    alpha = 1.1
    val = inner(coherent(alpha, 60), coherent(-alpha, 60))
    assert abs(val - np.exp(-2.0 * alpha**2)) < 1e-12


def test_fidelity_and_phase_alignment():
    rng = np.random.default_rng(7)
    st_ = random_state(rng)
    shifted = from_amplitudes(st_.amplitudes * np.exp(0.4j))
    assert fidelity(st_, shifted) == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("scale", [1e-160, 1e-170, 1e160, 1e200])
def test_fidelity_reads_rays_at_any_scale(scale):
    # sum |A_m|^2 underflows or overflows at these scales; unit inputs keep
    # their bits
    seed = coherent(1.2 + 0.3j, 16)
    other = coherent(0.7, 16)
    scaled = FockVector(16, scale * seed.amplitudes)
    assert fidelity(scaled, scaled) == pytest.approx(1.0, abs=1e-15)
    assert fidelity(scaled, other) == pytest.approx(fidelity(seed, other), rel=1e-14)
    assert fidelity(seed, other) == abs(inner(seed, other)) ** 2 / (seed.norm * other.norm) ** 2
    with pytest.raises(ValueError, match="zero vector"):
        fidelity(scaled, FockVector(16, np.zeros(17)))


# ---- moments ----

def test_quadrature_means_vacuum_and_number_states():
    for m in (0, 3):
        qm = quadrature_means(basis_state(m, 8))
        assert qm.mean_x == 0.0 and qm.mean_p == 0.0


def test_quadrature_means_coherent():
    qm = quadrature_means(coherent(1.0, 50))
    assert qm.mean_x == pytest.approx(np.sqrt(2.0), abs=1e-12)
    assert qm.mean_p == pytest.approx(0.0, abs=1e-12)


def test_quadrature_means_rotation_covariance():
    # clockwise: the coherent peak at +x moves to -p after a quarter turn
    st_ = coherent(1.0, 50)
    qm = quadrature_means(rotate(st_, np.pi / 2))
    assert qm.mean_x == pytest.approx(0.0, abs=1e-12)
    assert qm.mean_p == pytest.approx(-np.sqrt(2.0), abs=1e-12)
    th = 0.9
    q0 = quadrature_means(st_)
    q1 = quadrature_means(rotate(st_, th))
    c, s = np.cos(th), np.sin(th)
    assert q1.mean_x == pytest.approx(c * q0.mean_x + s * q0.mean_p, abs=1e-12)
    assert q1.mean_p == pytest.approx(-s * q0.mean_x + c * q0.mean_p, abs=1e-12)


def test_photon_moments_number_state():
    mean, second, p = photon_distribution(basis_state(3, 6))
    assert mean == pytest.approx(3.0)
    assert second == pytest.approx(9.0)
    expected = np.zeros(7)
    expected[3] = 1.0
    np.testing.assert_allclose(p, expected)


def test_photon_moments_superposition():
    st_ = from_amplitudes(np.array([1.0, 0.0, 1.0]) / np.sqrt(2.0))
    mean, second, p = photon_distribution(st_)
    assert mean == pytest.approx(1.0)
    assert second == pytest.approx(2.0)
    np.testing.assert_allclose(p, [0.5, 0.0, 0.5], atol=1e-15)


def test_photon_moments_coherent_poisson_mean():
    alpha = 1.4
    mean, _, _ = photon_distribution(coherent(alpha, 64))
    assert mean == pytest.approx(alpha**2, abs=1e-10)


# ---- noninvariance / residue classes ----

def test_sector_mask_residue_class():
    np.testing.assert_array_equal(
        sector_mask(7, 3, 2), [False, True, False, False, True, False, False, True])
    assert sector_mask(4, 1, 1).all()
    assert not sector_mask(2, 5, 5).any()  # class m = 4 lies beyond n_max


def test_residue_class_masses_match_masks():
    rng = np.random.default_rng(3)
    st_ = random_state(rng)
    p = np.abs(st_.amplitudes) ** 2
    for n in (1, 2, 5, 7, 21, 22, 40):  # from n = 22 on, past the 21 amplitudes
        w = residue_class_masses(st_, n)
        expected = [p[sector_mask(st_.n_max, n, lam)].sum() for lam in range(1, n + 1)]
        np.testing.assert_allclose(w, expected, rtol=0, atol=1e-15)
        # one class per photon number, then zeros for the classes past n_max
        if n >= p.size:
            np.testing.assert_array_equal(w, np.pad(p, (0, n - p.size)))


def test_residue_class_masses_sum_to_one():
    st_ = coherent(1.2, 40)
    w = residue_class_masses(st_, 4)
    assert w.shape == (4,)
    assert w.sum() == pytest.approx(1.0, abs=1e-12)


# ---- coherent states ----

def test_coherent_zero_is_vacuum():
    st_ = coherent(0.0, 10)
    np.testing.assert_array_equal(st_.amplitudes, basis_state(0, 10).amplitudes)


def test_negative_n_max_rejected():
    from polystate.gaussian import GaussianParams, gaussian_to_fock

    for build in (lambda n_max: coherent(1.0, n_max),
                  lambda n_max: basis_state(0, n_max),
                  lambda n_max: gaussian_to_fock(GaussianParams(1.0, 1.0), n_max)):
        with pytest.raises(ValueError, match="n_max=-1"):
            build(-1)


def test_coherent_mean_photon_number():
    mean, _, _ = photon_distribution(coherent(1.0, 32))
    assert mean == pytest.approx(1.0, abs=1e-10)


def test_coherent_rotation_covariance():
    alpha, th = 0.9 + 0.2j, 0.6
    left = rotate(coherent(alpha, 48), th)
    right = coherent(alpha * np.exp(-1j * th), 48)
    assert np.abs(left.amplitudes - right.amplitudes).max() < 1e-14


def test_coherent_overflow_flags_tail():
    assert coherent(9.0, 16).tail_flagged  # |alpha|^2 = 81 > n_max


def test_coherent_large_alpha_log_space():
    # alpha^m / sqrt(m!) alone would overflow here; the recurrence carries
    # a log scale
    from scipy.special import gammaln

    alpha = 40.0 * np.exp(0.3j)
    with np.errstate(over="raise", invalid="raise", divide="raise"):
        st_ = coherent(alpha, 2048)
    m = np.arange(2049)
    log_mod = m * np.log(40.0) - 800.0 - 0.5 * gammaln(m + 1)
    want = np.exp(log_mod + 1j * 0.3 * m)
    assert np.abs(st_.amplitudes - want).max() < 1e-9
    assert st_.norm == pytest.approx(1.0, abs=1e-12)
    assert not st_.tail_flagged


def test_coherent_far_past_truncation_is_finite():
    # e^{-|alpha|^2/2} underflows every amplitude here; the recurrence's log
    # scale keeps them finite, flagged, with the ratios of alpha^m / sqrt(m!)
    from scipy.special import gammaln

    for alpha, n_max in ((40.0, 64), (-1e200j, 8), (1e300 + 1e300j, 4)):
        st_ = coherent(alpha, n_max)
        assert st_.tail_flagged and st_.norm == pytest.approx(1.0, abs=1e-12)
    st_ = coherent(40.0, 64)
    m = np.arange(65)
    log_mod = m * np.log(40.0) - 0.5 * gammaln(m + 1)
    want = np.exp(log_mod - log_mod.max())
    assert np.abs(st_.amplitudes - want / np.linalg.norm(want)).max() < 1e-12
    assert np.abs(coherent(1e200, 3).amplitudes - [0, 0, 0, 1]).max() < 1e-150


@pytest.mark.parametrize("alpha", [complex("nan"), complex("inf"), complex(0, -np.inf),
                                   complex(1.5e308, 1.5e308)])
def test_coherent_rejects_non_finite_alpha(alpha):
    with pytest.raises(ValueError, match="alpha must be finite"):
        coherent(alpha, 16)


def test_coherent_moderate_alpha_matches_unshifted_formula():
    # where e^{-|alpha|^2/2} is representable (|alpha|^2 <= n_max) the
    # recurrence equals alpha^m e^{-|alpha|^2/2} / sqrt(m!), renormalized on
    # the kept slots, in 40-digit mpmath to rounding
    import mpmath

    rng = np.random.default_rng(7)
    with mpmath.workdps(40):
        for n_max in (16, 64, 128):
            for _ in range(40):
                alpha = np.sqrt(n_max * rng.random()) * np.exp(2j * np.pi * rng.random())
                a = mpmath.mpc(alpha.real, alpha.imag)
                damp = mpmath.exp(-abs(a) ** 2 / 2)
                plain = [a ** m * damp / mpmath.sqrt(mpmath.factorial(m))
                         for m in range(n_max + 1)]
                norm = mpmath.sqrt(mpmath.fsum(abs(v) ** 2 for v in plain))
                want = np.array([complex(v / norm) for v in plain])
                got = coherent(alpha, n_max).amplitudes
                assert np.abs(got - want).max() <= 1e-15


def test_coherent_exact_phases_on_axes():
    # real and imaginary alpha give exactly real and imaginary amplitudes
    assert np.all(coherent(-1.5, 40).amplitudes.imag == 0.0)
    amps = coherent(1.5j, 40).amplitudes
    assert np.all(amps[0::2].imag == 0.0) and np.all(amps[1::2].real == 0.0)


def _yuen_dividing_every_value(beta, gamma, log_a0, n_max):
    """fock._yuen_state's amplitudes with every kept value divided at each
    rescale, as Python complex / float: the reference for its bits. Also
    returns the number of rescales."""
    import cmath

    root = np.sqrt(np.arange(n_max + 1)).tolist()
    prev, cur = 0j, cmath.exp(1j * log_a0.imag)
    amps = [cur]
    rescales = 0
    for m in range(n_max):
        prev, cur = cur, (beta * cur + gamma * root[m] * prev) / root[m + 1]
        if (big := abs(cur)) > fock._RESCALE:
            rescales += 1
            amps = [v / big for v in amps]
            prev, cur = prev / big, cur / big
        amps.append(cur)
    amps = np.array(amps)
    return amps / float(np.linalg.norm(amps)), rescales


def test_yuen_rescale_keeps_the_bits():
    # the deferred division gives the bits of dividing every kept value at
    # each rescale, signed zeros included: coherent seeds on and off the
    # axes, past and far past the truncation, and Gaussian seeds whose
    # A_0 underflows
    from polystate.gaussian import _yuen_start

    cases = []
    for alpha, n_max in ((40.0, 64), (-1e200j, 8), (1e300 + 1e300j, 4), (1e200, 3),
                         (1e300 + 1e300j, 64), (5.0 + 5.0j, 400), (-25.0 + 25.0j, 1024),
                         (40.0 * np.exp(0.3j), 2048), (18.0, 512), (-18.0, 512),
                         (20j, 300), (-20j, 300), (complex(-17.0, -0.0), 64),
                         (1e80, 2048), (1e200, 2000), (1.3, 64), (0.0, 16)):
        r = abs(alpha)
        cases.append((complex(alpha), 0.0, complex(-0.5 * r * r), n_max))
    for a, b, n_max in ((0.5, np.sqrt(2.0) * 40.0 * np.exp(0.7j), 2048),
                        (0.45 + 0.05j, 25.0 - 14.0j, 512), (1.0, 1.0 + 1.0j, 64),
                        (2.0 - 1.5j, 60.0, 300)):
        beta, gamma, log_a0 = _yuen_start(complex(a), complex(b))
        cases.append((beta, gamma, complex(log_a0), n_max))
    rescaled = 0
    for args in cases:
        got = fock._yuen_state(*args).amplitudes
        want, rescales = _yuen_dividing_every_value(*args)
        assert got.tobytes() == want.tobytes(), args
        rescaled += rescales > 0
    assert rescaled >= 10  # the rescale fires in most of these


def test_yuen_rescale_work_is_linear():
    # coherent(1e200) rescales at every step; the loop's Python lines stay
    # O(n_max) (dividing every kept value at each rescale ran O(n_max^2))
    import sys

    lines = 0

    def tracer(frame, event, arg):
        nonlocal lines
        if frame.f_code.co_filename != fock.__file__:
            return None
        if event == "line":
            lines += 1
        return tracer

    for n_max in (500, 2000):
        lines = 0
        sys.settrace(tracer)
        try:
            st_ = coherent(1e200, n_max)
        finally:
            sys.settrace(None)
        assert st_.tail_flagged and abs(st_.amplitudes[-1]) == 1.0
        assert lines <= 12 * (n_max + 1), (n_max, lines)


# ---- annihilation ----

def test_annihilate_vacuum():
    out = annihilate(basis_state(0, 5))
    assert np.abs(out.amplitudes).max() == 0.0


def test_annihilate_one_photon():
    out = annihilate(basis_state(1, 5))
    np.testing.assert_allclose(out.amplitudes, basis_state(0, 5).amplitudes)


def test_annihilate_coherent_eigenproperty():
    alpha = 1.1
    st_ = coherent(alpha, 64)
    out = annihilate(st_)
    assert np.abs(out.amplitudes - alpha * st_.amplitudes).max() < 1e-12


# ---- construction, flags, validation ----

def test_clean_states_have_unit_mass():
    for st_ in (coherent(1.0, 64), basis_state(2, 8)):
        assert not st_.tail_flagged
        assert np.sum(np.abs(st_.amplitudes) ** 2) == pytest.approx(1.0, abs=1e-12)


def test_every_vector_tests_its_last_slot():
    # the last-slot half of the one rule runs on every FockVector and is
    # OR-ed with the flag passed in: a number state on the last slot is
    # flagged, and an annihilated or rotated state keeps its input's flag
    assert basis_state(8, 8).tail_flagged and basis_state(0, 0).tail_flagged
    assert not basis_state(7, 8).tail_flagged
    assert FockVector(2, np.array([1.0, 0.0, 0.0]), True).tail_flagged
    flagged = coherent(9.0, 16)
    assert flagged.tail_flagged
    assert annihilate(flagged).tail_flagged and rotate(flagged, 0.3).tail_flagged
    edge = np.zeros(9)
    edge[0], edge[-1] = 1.0, 1.01e-5  # last-slot mass 1.02e-10 of the total
    assert FockVector(8, edge).tail_flagged
    edge[-1] = 0.99e-5
    assert not FockVector(8, edge).tail_flagged


def test_coherent_and_gaussian_share_one_flag():
    # coherent(alpha) and the a = 1/2 Gaussian e^{-x^2/2 + sqrt(2) alpha x}
    # are one state built by one recurrence, so one rule gives both one flag,
    # across the alpha where the truncation at 64 becomes too tight
    from polystate.gaussian import GaussianParams, gaussian_to_fock

    flags = []
    for alpha in np.arange(4.5, 6.0, 0.05):
        want = coherent(alpha, 64).tail_flagged
        assert gaussian_to_fock(GaussianParams(0.5, np.sqrt(2.0) * alpha), 64).tail_flagged is want
        flags.append(want)
    assert flags.index(True) > 0 and all(flags[flags.index(True):])
    assert coherent(5.25, 64).tail_flagged
    assert gaussian_to_fock(GaussianParams(0.5, 7.424621202458749), 64).tail_flagged


def test_lost_mass_rule_ignores_rounding_in_the_log_sum():
    # coherent(700) at n_max 532,000: Re log A_0 = -245,000 and the rescale
    # divisors' logs sum back to it, while the Poisson tail is 0 (60 sigma
    # out). Two ulps of error in those logs read a lost mass of 1.2e-10,
    # above TAIL_TOL, which the rule's resolution of 8 eps (sum |log| + steps)
    # = 1.8e-9 absorbs
    logs = [-245000.0, 244999.99999999994, 0.0]
    lost = -np.expm1(2.0 * sum(logs))
    assert TAIL_TOL < lost < 2e-10
    assert not fock._lost_too_much(logs, 532000)
    # a lost mass above the resolution still counts at those magnitudes,
    # and any lost mass above TAIL_TOL counts at small ones
    assert fock._lost_too_much([-245000.0, 244999.999999998, 0.0], 532000)
    assert fock._lost_too_much([0.5 * np.log1p(-2e-10), 0.0], 64)
    assert not fock._lost_too_much([0.5 * np.log1p(-0.5e-10), 0.0], 64)
    # nothing kept at all (an A_0 that underflows past any log) is flagged
    assert fock._lost_too_much([-np.inf, 0.0], 3)


def test_from_amplitudes_tail_flag():
    amps = np.zeros(9)
    amps[-1] = 1.0
    assert from_amplitudes(amps).tail_flagged
    assert not from_amplitudes(np.array([1.0, 0.0, 0.0])).tail_flagged
    assert TAIL_TOL == 1e-10


def test_from_amplitudes_tail_flag_is_scale_free():
    # the flag reads the tail mass relative to sum |A_m|^2, so a ray gets the
    # same flag at any scale, with no overflow past |A| ~ 1e154
    rng = np.random.default_rng(11)
    v = rng.standard_normal(17) + 1j * rng.standard_normal(17)
    for tail, flagged in ((1e-3, True), (1e-7, False)):
        v[-1] = tail * np.linalg.norm(v[:-1])
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            flags = [from_amplitudes(v * scale).tail_flagged
                     for scale in (1.0, 1e200, 1e-200, 1e4, 1e-4)]
        assert flags == [flagged] * 5
    with np.errstate(all="raise"):
        assert not from_amplitudes(np.zeros(9, dtype=complex)).tail_flagged


def test_tail_mass_is_relative_at_any_scale():
    # |A_(n_max)|^2 / sum |A_m|^2: no overflow at 1e200, no zero at 1e-200
    rng = np.random.default_rng(13)
    v = rng.standard_normal(17) + 1j * rng.standard_normal(17)
    v[-1] = 1e-3 * np.linalg.norm(v[:-1])
    ref = from_amplitudes(v).tail_mass
    assert ref == pytest.approx(1e-6 / (1.0 + 1e-6), rel=1e-12)
    with np.errstate(over="raise", invalid="raise", divide="raise"):
        for scale in (1e200, 1e-200):
            assert from_amplitudes(v * scale).tail_mass == pytest.approx(ref, rel=1e-15)
        assert from_amplitudes(np.ones(5) * 1e200).tail_mass == pytest.approx(0.2, rel=1e-15)
        assert from_amplitudes(np.zeros(9)).tail_mass == 0.0


def test_a_vector_keeps_one_ray():
    # the ray is the amplitudes object itself when sum |A_m|^2 is a normal
    # double, else their exact power-of-two rescale; both are read-only, and
    # repr ignores them
    st = coherent(1.2 + 0.3j, 16)
    assert st._ray is st.amplitudes and st._total == np.vdot(st._ray, st._ray).real
    assert fock._as_ray(st) is st
    for scale in (1e-170, 1e200):
        scaled = fock.FockVector(16, scale * st.amplitudes)
        assert scaled._ray is not scaled.amplitudes and not scaled._ray.flags.writeable
        two_k = scaled._ray[0].real / scaled.amplitudes[0].real  # A_0 > 0
        assert np.frexp(two_k)[0] == 0.5
        np.testing.assert_array_equal(scaled._ray, scaled.amplitudes * two_k)
        assert 0.25 <= scaled._total < 17
        np.testing.assert_array_equal(fock._as_ray(scaled).amplitudes, scaled._ray)
    assert repr(st) == repr(fock.FockVector(16, st.amplitudes.copy()))
    assert "_ray" not in repr(st)


def test_strided_amplitudes_accepted():
    # finiteness and ray scaling read views whose last axis is not contiguous
    column = np.ones((9, 2), dtype=complex)[:, 0]
    every_other = np.ones(18, dtype=complex)[::2]
    for amps in (column, every_other):
        st_ = from_amplitudes(amps)
        np.testing.assert_array_equal(st_.amplitudes, np.ones(9))
        assert st_.tail_mass == pytest.approx(1 / 9, rel=1e-15)
    tiny = from_amplitudes(1e-200 * every_other)
    assert tiny.tail_mass == pytest.approx(1 / 9, rel=1e-15)


def test_transposed_matrix_accepted():
    m = np.arange(16, dtype=complex).reshape(4, 4)
    np.testing.assert_array_equal(FockOperator(3, m.T).matrix, m.T)
    with pytest.raises(ValueError, match="matrix entries must be finite"):
        FockOperator(3, np.where(m == 6, np.nan, m).T)


def test_fock_vector_validation():
    with pytest.raises(ValueError):
        FockVector(3, np.zeros(3, dtype=complex))  # needs n_max + 1 entries
    with pytest.raises(ValueError):
        from_amplitudes(np.array([1.0, np.nan]))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, complex(0.0, np.nan),
                                 complex(1.0, -np.inf)])
def test_non_finite_entries_rejected(bad):
    # a NaN or infinity in either part of any entry
    with pytest.raises(ValueError, match="amplitudes must be finite"):
        FockVector(2, np.array([0.5, bad, 0.5]))
    with pytest.raises(ValueError, match="matrix entries must be finite"):
        FockOperator(1, np.array([[1.0, 0.0], [bad, 0.0]]))


def test_amplitudes_immutable():
    st_ = basis_state(0, 3)
    with pytest.raises(ValueError):
        st_.amplitudes[0] = 5.0


def test_a_vector_built_on_a_view_keeps_its_values():
    # the vector copies the view, so writing its base moves neither the
    # amplitudes nor the last-slot test and kept ray read from them
    base = np.zeros((2, 5), dtype=complex)
    base[0, 0] = 1.0
    st_ = FockVector(4, base[0])
    base[0, 4] = 1e3
    assert st_.tail_mass == 0.0 and not st_.tail_flagged
    np.testing.assert_array_equal(st_.amplitudes, [1, 0, 0, 0, 0])


def _value_type(name):
    from polystate.gaussian import GaussianMoments
    from polystate.observables import BipartiteSpec, EntanglementResult, WignerGrid

    seed = basis_state(0, 2)
    return {
        "amplitudes": (lambda a: FockVector(3, a), np.array([1, 0, 0, 0], complex)),
        "matrix": (lambda a: FockOperator(1, a), np.eye(2, dtype=complex)),
        "values": (lambda a: WignerGrid(-1.0, 1.0, -1.0, 1.0, 2, a), np.ones((2, 2))),
        "c": (lambda a: BipartiteSpec(2, a, seed, seed), np.ones(2, complex)),
        "f_matrix": (lambda a: EntanglementResult(0.0, a), np.eye(2, dtype=complex)),
        "covariance": (lambda a: GaussianMoments(0.0, 0.0, a), 0.5 * np.eye(2)),
    }[name]


@pytest.mark.parametrize("name", ["amplitudes", "matrix", "values", "c", "f_matrix",
                                  "covariance"])
def test_value_types_own_their_arrays(name):
    # each keeps a read-only copy: the caller's array stays writable, writing
    # it changes nothing held, and equality is identity, not an array compare
    make, arr = _value_type(name)
    obj, twin = make(arr), make(arr)
    held = getattr(obj, name)
    assert held is not arr and not held.flags.writeable and arr.flags.writeable
    arr[...] = 7.0
    assert not (held == 7.0).any()
    assert obj == obj and obj != twin


def test_default_truncation_is_64():
    from polystate.gaussian import GaussianParams, gaussian_to_fock

    assert coherent(1.0).n_max == 64
    assert basis_state(3).n_max == 64
    assert gaussian_to_fock(GaussianParams(1.0, 1.0)).n_max == 64


def test_rotated_copies_on_exact_roots_of_unity():
    from polystate.group import theta
    rng = np.random.default_rng(4)
    st_ = random_state(rng, 300)
    for n in (1, 2, 3, 7, 32):
        copies = _rotated_copies(st_.amplitudes, n)
        assert copies.shape == (n, 301)
        for r in range(1, n + 1):
            np.testing.assert_allclose(copies[r - 1],
                                       rotate(st_, theta(n, r)).amplitudes,
                                       rtol=0, atol=1e-12)
        # the phase of photon number m depends on m mod n only, bit for bit
        phases = _rotated_copies(np.ones(301, dtype=complex), n)
        m = np.arange(301)
        np.testing.assert_array_equal(phases, phases[:, m % n])
        np.testing.assert_array_equal(phases[0], 1.0)


def test_rotation_phases_for_an_angle_array():
    # each row of the array call has its scalar call's bits, which are rotate's
    thetas = np.concatenate([2.0 * np.pi * np.arange(1, 8) / 7, [0.7, -3.1, 11.0]])
    phases = _rotation_phases(thetas, 32)
    assert phases.shape == (thetas.size, 33)
    state = coherent(1.2 - 0.4j, 32)
    m = np.arange(33)
    for th, row in zip(thetas, phases):
        assert np.array_equal(row, _rotation_phases(th, 32))
        assert np.array_equal(rotate(state, th).amplitudes,
                              state.amplitudes * np.exp(-1j * th * m))


# ---- JSON ----

def test_vector_json_round_trip():
    rng = np.random.default_rng(8)
    st_ = random_state(rng)
    d = vector_to_dict(st_)
    assert len(d["amplitudes"]) == st_.n_max + 1
    back = vector_from_dict(json.loads(json.dumps(d)))
    np.testing.assert_array_equal(back.amplitudes, st_.amplitudes)
    assert back.n_max == st_.n_max


def test_pairs_match_per_element_encoding():
    def per_element(arr):
        if arr.ndim == 0:
            z = complex(arr)
            return [z.real, z.imag]
        return [per_element(sub) for sub in arr]

    row = np.array([complex(-0.0, 0.0), complex(1.5, -0.0), complex(1 / 3, 1e300),
                    complex(-2.5e-300, -0.0)])
    for arr in (row, row.reshape(2, 2), row.reshape(2, 1, 2)):
        assert (json.dumps(_pairs(arr), indent=2)
                == json.dumps(per_element(arr), indent=2))
        assert _json_text({"a": arr}) == json.dumps({"a": _pairs(arr)}, indent=2)
    d = vector_to_dict(FockVector(3, row))
    assert json.dumps(d) == json.dumps({"n_max": 3, "amplitudes": per_element(row)})
    assert "-0.0" in json.dumps(d)


finite_floats = st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from(
    [-0.0, 5e-324, 1.7976931348623157e308])
complex_arrays = hnp.arrays(complex, hnp.array_shapes(min_dims=0, max_dims=3, min_side=0,
                                                     max_side=3),
                            elements=st.builds(complex, finite_floats, finite_floats))
json_leaves = (st.none() | st.booleans() | st.integers() | finite_floats
               | st.text(alphabet=st.sampled_from('a"\\\n\u00e9\u03bb\U0001d53c'))
               | st.lists(finite_floats, max_size=4))
json_payloads = st.recursive(json_leaves | complex_arrays,
                             lambda inner: st.dictionaries(st.text(max_size=4), inner,
                                                           max_size=4))


def _as_pairs(value):
    if isinstance(value, np.ndarray):
        return _pairs(value)
    if isinstance(value, dict):
        return {k: _as_pairs(v) for k, v in value.items()}
    return value


@settings(max_examples=100, deadline=None)
@given(payload=json_payloads)
def test_json_text_is_json_dumps(payload):
    # one format per array writes what json.dumps writes for its _pairs lists
    assert _json_text(payload) == json.dumps(_as_pairs(payload), indent=2)


def test_vector_json_malformed():
    with pytest.raises(ValueError):
        vector_from_dict({"n_max": 2})
    with pytest.raises(ValueError):
        vector_from_dict({"n_max": 2, "amplitudes": [[1.0, 0.0]]})  # wrong count
    with pytest.raises(ValueError):
        vector_from_dict({"amplitudes": [[1.0, 0.0]]})


def test_pure_density_properties():
    a = coherent(0.5, 10).amplitudes
    rho = FockOperator(10, np.outer(a, a.conj()))
    assert np.abs(rho.matrix - rho.matrix.conj().T).max() < 1e-15
    assert np.trace(rho.matrix) == pytest.approx(1.0, abs=1e-12)
    assert np.linalg.eigvalsh(rho.matrix)[0] > -1e-12


@pytest.mark.parametrize("n", [1, 2, 3, 8, 64, 65, 100, 2 ** 62])
def test_class_sums_rows_match_one_bincount_per_row(n):
    # a (3, 4, d) stack of weights: each row's sums are the bits of one
    # bincount over that row alone, and the masses pad to n classes
    weights = np.random.default_rng(n % 97).random((3, 4, 65))
    sums = fock._class_sums(weights, n)
    k = min(n, 65)
    assert sums.shape == (3, 4, k)
    for idx in np.ndindex(3, 4):
        one = np.bincount(np.arange(65) % k, weights=weights[idx], minlength=k)
        np.testing.assert_array_equal(sums[idx], one)
    if n <= 100:
        amps = np.sqrt(weights) * np.exp(1j * weights)
        masses = fock._class_masses(amps, n)
        assert masses.shape == (3, 4, n)
        for idx in np.ndindex(3, 4):
            np.testing.assert_array_equal(
                masses[idx], fock.residue_class_masses(from_amplitudes(amps[idx]), n))
