import cmath

import numpy as np
import pytest
from scipy.special import gammaln

from polystate.fock import TAIL_TOL, basis_state, coherent, fidelity, quadrature_means, rotate
from polystate.cyclic import CyclicSpec, EmptyRepresentationError
from polystate.gaussian import (
    GaussianParams,
    _embedding_rows,
    _quadrature_rows,
    _rotated_exponents,
    _trapezoid_weights,
    c2_closed_form,
    cyclic_gaussian,
    cyclic_gaussian_wavefunction,
    fock_wavefunction,
    gaussian_to_fock,
    hermite_functions,
    moments,
    rotate_params,
    wavefunction,
)

X_WIDE = np.linspace(-12.0, 12.0, 4801)  # independent trapezoid oracle


def trapz(values):
    """The trapezoid rule on X_WIDE, written out: np.trapezoid needs numpy 2,
    and gaussian._trapezoid_weights is the rule under test."""
    return np.sum(np.diff(X_WIDE) * (values[1:] + values[:-1]) / 2)


def trapz_norm(values):
    return float(trapz(np.abs(values) ** 2))


def test_params_validation():
    with pytest.raises(ValueError):
        GaussianParams(-0.1 + 1j, 1.0)
    with pytest.raises(ValueError):
        GaussianParams(0.0, 1.0)
    with pytest.raises(ValueError):
        GaussianParams(1.0, 0.0)


# ---- wavefunction ----

def test_wavefunction_vacuum_limit():
    x = np.linspace(-4, 4, 101)
    psi = wavefunction(GaussianParams(0.5, 1e-12), x)
    ground = np.pi ** -0.25 * np.exp(-x * x / 2)
    assert np.abs(psi - ground).max() < 1e-6


def test_wavefunction_peak_location():
    x = np.linspace(-2, 4, 6001)
    density = np.abs(wavefunction(GaussianParams(0.5, 1.0), x)) ** 2
    assert x[np.argmax(density)] == pytest.approx(1.0, abs=1e-3)


def test_wavefunction_normalized():
    for params in (GaussianParams(1.0, np.sqrt(2) * (1 + 1j)),
                   GaussianParams(0.5, 1.0),
                   GaussianParams(1.3 + 0.4j, -0.7 + 2.0j)):
        assert trapz_norm(wavefunction(params, X_WIDE)) == pytest.approx(1.0, abs=1e-10)


# ---- moments ----

def test_moments_real_displacement():
    mom = moments(GaussianParams(0.5, 1.0))
    assert mom.mean_x == pytest.approx(1.0, abs=1e-14)
    assert mom.mean_p == pytest.approx(0.0, abs=1e-14)
    np.testing.assert_allclose(mom.covariance, 0.5 * np.eye(2), atol=1e-14)


def test_moments_imaginary_displacement():
    mom = moments(GaussianParams(0.5, 1j))
    assert mom.mean_x == pytest.approx(0.0, abs=1e-14)
    assert mom.mean_p == pytest.approx(1.0, abs=1e-14)


def test_moments_match_fock_route():
    for params in (GaussianParams(0.5, 1.0), GaussianParams(1.0, 1.0 + 1.0j),
                   GaussianParams(0.7 + 0.3j, -1.2 + 0.5j)):
        mom = moments(params)
        qm = quadrature_means(gaussian_to_fock(params, 64))
        assert abs(mom.mean_x - qm.mean_x) < 1e-8
        assert abs(mom.mean_p - qm.mean_p) < 1e-8


def test_covariance_purity():
    # pure Gaussian states saturate the uncertainty bound
    for a in (0.5, 1.0, 0.3 + 1.5j, 2.0 - 0.8j):
        det = np.linalg.det(moments(GaussianParams(a, 1.0)).covariance)
        assert det == pytest.approx(0.25, abs=1e-12)


# ---- parameter rotation ----

def test_rotate_params_identity():
    p = GaussianParams(0.8 + 0.2j, 1.0 - 0.5j)
    out = rotate_params(p, 0.0)
    assert out.a == pytest.approx(p.a) and out.b == pytest.approx(p.b)


def test_rotate_params_half_turn():
    p = GaussianParams(0.8 + 0.2j, 1.0 - 0.5j)
    out = rotate_params(p, np.pi)
    assert out.a == pytest.approx(p.a, abs=1e-12)
    assert out.b == pytest.approx(-p.b, abs=1e-12)


def test_rotate_params_quarter_turn_self_dual():
    p = GaussianParams(0.5, 1.0 + 0.3j)
    out = rotate_params(p, np.pi / 2)
    assert out.a == pytest.approx(0.5, abs=1e-12)
    assert out.b == pytest.approx(-1j * p.b, abs=1e-12)


def test_rotate_params_composition():
    p = GaussianParams(1.2 + 0.4j, 0.5 - 1.0j)
    once = rotate_params(rotate_params(p, 0.4), 0.9)
    direct = rotate_params(p, 1.3)
    assert once.a == pytest.approx(direct.a, abs=1e-12)
    assert once.b == pytest.approx(direct.b, abs=1e-12)


def test_rotate_params_takes_a_tiny_denominator():
    # a = 1e-15 at a quarter turn: cos t + 2ia sin t is about 2e-15, yet
    # a(t) ~ 1/(4a) and b(t) are finite, and turning back gives the seed
    p = GaussianParams(1e-15, 1.0)
    out = rotate_params(p, np.pi / 2)
    assert out.a == pytest.approx(0.25e15, rel=0.05) and cmath.isfinite(out.b)
    back = rotate_params(out, -np.pi / 2)
    assert back.a == pytest.approx(p.a, rel=1e-12) and back.b == pytest.approx(p.b, rel=1e-12)


# ---- Fock embedding ----

def test_embedding_vacuum():
    st = gaussian_to_fock(GaussianParams(0.5, 1e-14), 16)
    assert np.abs(st.amplitudes - basis_state(0, 16).amplitudes).max() < 1e-7


def test_embedding_coherent_correspondence():
    b = 1.8
    st = gaussian_to_fock(GaussianParams(0.5, b), 48)
    ref = coherent(b / np.sqrt(2.0), 48)
    # align global phase via the vacuum component, then compare
    phase = ref.amplitudes[0] / st.amplitudes[0]
    phase /= abs(phase)
    assert np.abs(st.amplitudes * phase - ref.amplitudes).max() < 1e-10


def test_embedding_tail_example():
    st = gaussian_to_fock(GaussianParams(1.0, np.sqrt(6.0) + 2j), 64)
    assert not st.tail_flagged
    assert st.tail_mass < TAIL_TOL


def poisson_amplitudes(alpha: complex, n_max: int) -> np.ndarray:
    """Coherent-state amplitudes e^{-|alpha|^2/2} alpha^m / sqrt(m!) in log space."""
    m = np.arange(n_max + 1)
    log_mod = -abs(alpha) ** 2 / 2 + m * np.log(abs(alpha)) - 0.5 * gammaln(m + 1)
    return np.exp(log_mod + 1j * m * np.angle(alpha))


@pytest.mark.parametrize("n_max", [64, 128])
def test_embedding_matches_quadrature_oracle(n_max):
    # real and complex a on both sides of 1/2, including negative chirp
    for a in (0.3, 0.5, 1.4, 0.6 - 0.4j, 0.85 + 2.0j, 2.0 + 0.3j):
        for b in (3.0, -2.1 + 2.1j, 0.5 - 0.5j, 1e-3j):
            p = GaussianParams(a, b)
            st = gaussian_to_fock(p, n_max)
            (oracle,), _ = _quadrature_rows([p], n_max)
            assert np.abs(st.amplitudes - oracle.amplitudes).max() < 1e-10
            assert st.tail_flagged == oracle.tail_flagged


def test_quadrature_rows_match_one_seed_calls():
    # the batched adaptive rule against one call per seed: the same vector,
    # tail flag and converged node count; the seeds stop at several rules
    seeds = [GaussianParams(a, b)
             for a in (0.3, 1.4, 0.6 - 0.4j, 0.3 + 1.5j, 0.05, 6.0)
             for b in (3.0, -2.1 + 2.1j, 1e-6)]
    states, nodes = _quadrature_rows(seeds, 63)
    for p, state, count in zip(seeds, states, nodes):
        (one,), (one_count,) = _quadrature_rows([p], 63)
        assert np.abs(state.amplitudes - one.amplitudes).max() <= 1e-15
        assert state.tail_flagged is one.tail_flagged  # a bool, as FockVector gives
        assert count == one_count
    assert len(set(nodes.tolist())) >= 3
    assert any(s.tail_flagged for s in states) and not all(s.tail_flagged for s in states)


def test_quadrature_oracle_matches_far_coherent_seed():
    # the coherent-like seed at alpha = 18 (<x> = 25.5) lies inside the
    # window at n_max 512: alone or beside a seed that converges earlier,
    # the oracle gives the recurrence's vector and tail flag
    far = GaussianParams(0.5, 18.0 * np.sqrt(2.0))
    want = gaussian_to_fock(far, 512)
    for seeds in ([far], [GaussianParams(0.8, 1.0 + 1.0j), far]):
        got = _quadrature_rows(seeds, 512)[0][-1]
        assert np.abs(got.amplitudes - want.amplitudes).max() < 1e-10
        assert got.tail_flagged is want.tail_flagged


def test_quadrature_cap_raises_for_mass_beyond_n_max():
    # centred well inside the window (<x> = 15, <p> = -60), but with a norm of
    # only 7e-8 below n_max = 63: successive rules stall near 1e-7 and the
    # cap is met, alone or beside a seed that converges
    beyond = GaussianParams(0.1 + 2j, 3.0)
    with pytest.raises(RuntimeError, match="30000 quadrature nodes"):
        _quadrature_rows([beyond], 63)
    with pytest.raises(RuntimeError, match="30000 quadrature nodes"):
        _quadrature_rows([GaussianParams(0.8, 1.0 + 1.0j), beyond], 63)


def test_quadrature_rules_stop_at_the_cap(monkeypatch):
    # the 1.6x growth is clamped: 30000 nodes is the largest rule built
    # before the cap's error, not the 44565 that 1.6 x 27853 would give
    import polystate.gaussian as gaussian

    sizes = []
    table = gaussian.hermite_functions
    monkeypatch.setattr(gaussian, "hermite_functions",
                        lambda n_max, x: sizes.append(np.size(x)) or table(n_max, x))
    with pytest.raises(RuntimeError, match="within 30000 quadrature nodes"):
        _quadrature_rows([GaussianParams(0.1 + 2j, 3.0)], 63)
    assert sizes[-2:] == [27853, 30000] and max(sizes) == 30000


def test_rotated_exponents_match_rotate_params():
    # the array helper gives every (seed, angle) pair rotate_params' bits
    rng = np.random.default_rng(31)
    a = rng.uniform(0.05, 3.0, 40) + 1j * rng.uniform(-3.0, 3.0, 40)
    b = rng.uniform(-4.0, 4.0, 40) + 1j * rng.uniform(-4.0, 4.0, 40)
    thetas = np.concatenate([2.0 * np.pi * np.arange(1, 8) / 8, rng.uniform(-9.0, 9.0, 9)])
    a_t, b_t = _rotated_exponents(a[:, None], b[:, None], thetas)
    for i, j in np.ndindex(a_t.shape):
        turned = rotate_params(GaussianParams(a[i], b[i]), thetas[j])
        assert (turned.a, turned.b) == (a_t[i, j], b_t[i, j])


def test_embedding_large_displacement_rescales():
    # A_0 = e^{-800} underflows; the running rescale keeps every slot finite
    alpha = 40.0 * np.exp(0.7j)
    st = gaussian_to_fock(GaussianParams(0.5, np.sqrt(2.0) * alpha), 2048)
    assert np.abs(st.amplitudes - poisson_amplitudes(alpha, 2048)).max() < 1e-9
    assert st.norm == pytest.approx(1.0, abs=1e-12)
    assert not st.tail_flagged


def test_embedding_rows_match_gaussian_to_fock():
    # the batched recurrence against one scalar call per seed: random
    # complex-a seeds, and |alpha| = 18 and 40, where the rescale fires
    rng = np.random.default_rng(23)
    a = rng.uniform(0.1, 3.0, 60) + 1j * rng.uniform(-2.0, 2.0, 60)
    b = rng.uniform(-4.0, 4.0, 60) + 1j * rng.uniform(-4.0, 4.0, 60)
    cases = [(a.reshape(3, 20), b.reshape(3, 20), 64), (a[:8], b[:8], 0)]
    for alpha, n_max in ((18.0, 512), (40.0, 2048)):
        phases = np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, 3))
        cases.append((np.array([0.5, 0.5, 0.45 + 0.05j]),
                       np.sqrt(2.0) * alpha * phases, n_max))
    for a, b, n_max in cases:
        rows = _embedding_rows(a, b, n_max)
        assert rows.shape == a.shape + (n_max + 1,)
        for idx in np.ndindex(a.shape):
            ref = gaussian_to_fock(GaussianParams(a[idx], b[idx]), n_max)
            assert np.abs(rows[idx] - ref.amplitudes).max() <= 1e-14


def test_verify_grids_use_the_batched_embedding(monkeypatch):
    # the mandel and gaussian suites embed their seed grids in batches;
    # one scalar embedding per grid point would be several thousand calls
    import polystate.gaussian as gaussian
    import polystate.verify as verify

    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return gaussian_to_fock(*args, **kwargs)

    monkeypatch.setattr(gaussian, "gaussian_to_fock", counted)
    monkeypatch.setattr(verify, "gaussian_to_fock", counted)
    rows = verify.suite_mandel() + verify.suite_gaussian()
    assert all(r.passed for r in rows)
    assert len(calls) <= 100


def test_gaussian_suite_batches_its_oracles(monkeypatch):
    # one Hermite matrix per quadrature rule for all 80 base seeds, and no
    # rotate_params or rotate call per (seed, theta) pair: the 1680 pairs
    # run through the array helpers
    import polystate.gaussian as gaussian
    import polystate.verify as verify

    calls = {"hermite_functions": 0, "rotate_params": 0, "rotate": 0}

    def counting(module, name):
        original = getattr(module, name)

        def counted(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)
        return counted

    monkeypatch.setattr(gaussian, "hermite_functions", counting(gaussian, "hermite_functions"))
    monkeypatch.setattr(gaussian, "rotate_params", counting(gaussian, "rotate_params"))
    monkeypatch.setattr(verify, "rotate", counting(verify, "rotate"))
    assert all(r.passed for r in verify.suite_gaussian())
    # the position route's 64 rotated copies are the only rotate_params calls
    # the base seeds stop at the rules of 256, 410 and 656 nodes, after 160
    assert calls == {"hermite_functions": 4, "rotate_params": 64, "rotate": 0}


def test_scan_route_row_reads_the_production_pipeline(monkeypatch):
    # the batched scan takes M_Q from the Fano helper, not from mandel, so
    # a fault in the per-seed pipeline shows only in this row
    import polystate.verify as verify
    from polystate.observables import mandel

    monkeypatch.setattr(verify, "mandel", lambda state: mandel(state) * (1.0 + 1e-9))
    rows = {r.name: r for r in verify.suite_mandel()}
    assert not rows["scan route"].passed
    assert rows["determinism"].passed and rows["subpoissonian a=1.0"].passed


@pytest.mark.parametrize("a, b, n_max", [(0.8 + 0.2j, 30.0 - 12.0j, 1400),
                                          (0.15 + 0.1j, 20.0 + 25.0j, 3000)])
def test_embedding_squeezed_large_displacement_moments(a, b, n_max):
    # gamma != 0 far from the origin, beyond the quadrature oracle's nodes:
    # <a>, <a^2> and <n> of the amplitudes against the closed-form moments
    params = GaussianParams(a, b)
    st = gaussian_to_fock(params, n_max)
    assert not st.tail_flagged
    amps, m = st.amplitudes, np.arange(n_max + 1)
    mom = moments(params)
    xx = mom.covariance[1, 1] + mom.mean_x ** 2
    pp = mom.covariance[0, 0] + mom.mean_p ** 2
    sym_xp = 2.0 * (mom.covariance[0, 1] + mom.mean_x * mom.mean_p)
    qm = quadrature_means(st)
    assert abs(qm.mean_x - mom.mean_x) < 1e-10
    assert abs(qm.mean_p - mom.mean_p) < 1e-10
    n_mean = float(np.sum(m * np.abs(amps) ** 2))
    assert n_mean == pytest.approx((xx + pp - 1.0) / 2.0, rel=1e-12)
    a_sq = np.sum(np.sqrt((m[:-2] + 1.0) * (m[:-2] + 2.0))
                  * np.conj(amps[:-2]) * amps[2:])
    assert a_sq == pytest.approx((xx - pp + 1j * sym_xp) / 2.0, rel=1e-12)


@pytest.mark.parametrize("a", [0.05, 6.0])
def test_embedding_tail_flag_counts_lost_norm(a):
    # strongly squeezed, nearly even seeds: the odd last slot is almost empty,
    # so only the norm lost beyond n_max = 63 can set the flag
    p = GaussianParams(a, 1e-6)
    st = gaussian_to_fock(p, 63)
    assert st.tail_mass < TAIL_TOL
    assert st.tail_flagged
    assert _quadrature_rows([p], 63)[0][0].tail_flagged


def test_log_abs_a0_needs_no_cancellation():
    # log |A_0| against 50-digit arithmetic of the complex form, on seeds
    # where that form's real part in doubles loses up to 6e6 eps to its
    # cancelling b^2 terms
    import mpmath

    from polystate.gaussian import _log_abs_a0

    rng = np.random.default_rng(41)
    for _ in range(200):
        a = complex(10 ** rng.uniform(-2, 3), 10 ** rng.uniform(-2, 3) * rng.choice([-1, 1]))
        u = rng.uniform(-9000, 9000) * 10 ** rng.uniform(-4, 0)
        b = complex(u, a.imag * u / (a.real + 0.5) * (1 + 10 ** rng.uniform(-8, 0)))
        with mpmath.workdps(50):
            am, bm = mpmath.mpc(a.real, a.imag), mpmath.mpc(b.real, b.imag)
            ac, bc, s = mpmath.conj(am), mpmath.conj(bm), am + 0.5
            want = float(mpmath.re(
                0.25 * mpmath.log((am + ac) / mpmath.pi * (1 + 2 * am) / (1 + 2 * ac))
                - (bm * bm + bm * bc) / (4 * (am + ac)) - 0.25 * mpmath.log(mpmath.pi)
                + 0.5 * mpmath.log(mpmath.pi / s) + bm * bm / (4 * s)))
        assert abs(_log_abs_a0(a, b) - want) <= 8 * np.finfo(float).eps * (1 + abs(want))


def test_far_squeezed_seed_with_an_empty_tail_is_not_flagged():
    # <n> is about 17,000 and the last slot holds 1e-104 of the mass: the lost
    # mass is rounding only, which read 2.4e-10 through the complex form's
    # cancelling b^2 terms and stays within the resolution through _log_abs_a0
    st = gaussian_to_fock(GaussianParams(20.0, 7427.0), 21834)
    assert st.tail_mass < 1e-100
    assert not st.tail_flagged


def test_embedding_far_outside_truncation_is_flagged_not_nan():
    # every amplitude of this seed on |0>..|64> is below e^{-4000}
    st = gaussian_to_fock(GaussianParams(0.5, 100.0), 64)
    assert np.isfinite(st.amplitudes).all()
    assert st.norm == pytest.approx(1.0, abs=1e-12)
    assert st.tail_flagged


def test_embedding_rotation_commutation():
    p = GaussianParams(1.0, 1.0 + 1.0j)
    th = 2.0 * np.pi / 3.0
    left = rotate(gaussian_to_fock(p, 64), th)
    right = gaussian_to_fock(rotate_params(p, th), 64)
    assert 1.0 - fidelity(left, right) < 1e-8


def test_embedding_matches_wavefunction():
    p = GaussianParams(1.0, np.sqrt(2) * (1 + 1j))
    st = gaussian_to_fock(p, 64)
    x = np.linspace(-5, 5, 201)
    # the embedding may rescale by a global phase only
    target = wavefunction(p, x)
    rebuilt = fock_wavefunction(st, x)
    ratio = rebuilt[100] / target[100]
    assert abs(abs(ratio) - 1.0) < 1e-8
    assert np.abs(rebuilt - ratio * target).max() < 1e-8


def test_hermite_functions_orthonormal():
    x = np.linspace(-15.0, 15.0, 301)
    w = _trapezoid_weights(-15.0, 15.0, 301)
    u = hermite_functions(12, x)
    gram = (u * w) @ u.T
    assert np.abs(gram - np.eye(13)).max() < 1e-12


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("n_max", [0, 1, 64, 1024])
def test_hermite_functions_are_exact_zeros_far_out(n_max):
    # past sqrt(2 n_max + 1) + 40 the rows are 0 without the recurrence,
    # whose x^2 overflows from 1e154; nearer points keep their values
    far = np.array([1e300, -1e300, 1e100, -np.inf, np.inf])
    near = np.array([0.3, -2.0, 30.0])
    u = hermite_functions(n_max, np.concatenate([far, near]))
    np.testing.assert_array_equal(u[:, :far.size], 0.0)
    np.testing.assert_array_equal(u[:, far.size:], hermite_functions(n_max, near))


# ---- cyclic Gaussians ----

def test_cyclic_gaussian_trivial_group():
    p = GaussianParams(1.0, 1.0 + 0.5j)
    state, rec = cyclic_gaussian(p, CyclicSpec(1, 1), 64)
    assert 1.0 - fidelity(state, gaussian_to_fock(p, 64)) < 1e-12
    assert abs(rec.n_lambda) * rec.raw_norm == pytest.approx(1.0, abs=1e-12)


def test_cyclic_gaussian_even_parity():
    state, _ = cyclic_gaussian(GaussianParams(1.0, 1.2), CyclicSpec(2, 1), 64)
    x = np.linspace(-4, 4, 161)
    psi = fock_wavefunction(state, x)
    assert np.abs(psi - psi[::-1]).max() < 1e-10


def test_cyclic_gaussian_position_route_agrees():
    p = GaussianParams(1.0, np.sqrt(2) * (1 + 1j))
    spec = CyclicSpec(3, 2)
    state, rec = cyclic_gaussian(p, spec, 64)
    x = np.linspace(-5, 5, 161)
    direct = cyclic_gaussian_wavefunction(p, spec, x, rec.n_lambda)
    assert np.abs(fock_wavefunction(state, x) - direct).max() < 1e-6


def test_cyclic_gaussian_all_sectors_constructible():
    p = GaussianParams(1.0, np.sqrt(2) * (1 + 1j))
    for lam in (1, 2, 3):
        state, _ = cyclic_gaussian(p, CyclicSpec(3, lam), 64)
        assert state.norm == pytest.approx(1.0, abs=1e-12)


# ---- C_2 closed form ----

def test_c2_even_odd_structure():
    p = GaussianParams(1.0, 1.0 + 1.0j)
    x = np.linspace(-5, 5, 201)
    even = c2_closed_form(p, 1, x)
    odd = c2_closed_form(p, 2, x)
    assert np.abs(even - even[::-1]).max() < 1e-12
    assert np.abs(odd + odd[::-1]).max() < 1e-12
    assert abs(c2_closed_form(p, 2, np.array([0.0]))[0]) < 1e-14
    with pytest.raises(ValueError):
        c2_closed_form(p, 3, x)


def test_c2_orthonormal_by_quadrature():
    p = GaussianParams(1.0, 1.0 + 1.0j)
    one = c2_closed_form(p, 1, X_WIDE)
    two = c2_closed_form(p, 2, X_WIDE)
    assert trapz_norm(one) == pytest.approx(1.0, abs=1e-10)
    assert trapz_norm(two) == pytest.approx(1.0, abs=1e-10)
    overlap = trapz(np.conj(one) * two)
    assert abs(overlap) < 1e-10


def test_c2_matches_fock_construction():
    p = GaussianParams(1.0, 1.0 + 1.0j)
    x = np.linspace(-5, 5, 201)
    for lam in (1, 2):
        state, _ = cyclic_gaussian(p, CyclicSpec(2, lam), 80)
        assert np.abs(fock_wavefunction(state, x) - c2_closed_form(p, lam, x)).max() < 1e-6


def test_c2_both_sectors_constructible():
    # a displaced Gaussian (b != 0) is never parity-pure, so both
    # sectors must come out normalized
    p = GaussianParams(0.6, 2.0j)
    for lam in (1, 2):
        state, _ = cyclic_gaussian(p, CyclicSpec(2, lam), 80)
        assert state.norm == pytest.approx(1.0, abs=1e-12)
