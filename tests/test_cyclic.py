import json
import tracemalloc

import numpy as np
import pytest

import polystate.cli as cli
import polystate.cyclic as cyclic
import polystate.fock as fock
import polystate.gaussian as gaussian
import polystate.observables as observables
from polystate.fock import (
    basis_state,
    coherent,
    fidelity,
    from_amplitudes,
    rotate,
    sector_mask,
)
from polystate.fock import FockOperator, _rotation_table
from polystate.group import character, theta, unit_root
from polystate.cyclic import (
    CyclicSpec,
    EmptyRepresentationError,
    annihilation_irrep_shift,
    circle_limit,
    circle_limit_quadrature_gap,
    cyclic_density,
    cyclic_erasure,
    cyclic_set,
    cyclic_state,
    cyclic_superposition,
    density_route_gap,
    dihedral_state,
    normalization_record,
)


def _pure(phi):
    """|phi><phi| of a unit state."""
    return FockOperator(phi.n_max, np.outer(phi.amplitudes, phi.amplitudes.conj()))


def test_spec_validation():
    with pytest.raises(ValueError):
        CyclicSpec(0, 1)
    CyclicSpec(2 ** 63 - 1, 1)
    with pytest.raises(ValueError, match=f"n={2 ** 63}"):
        CyclicSpec(2 ** 63, 1)
    with pytest.raises(ValueError):
        CyclicSpec(3, 0)
    with pytest.raises(ValueError):
        CyclicSpec(3, 4)


# ---- superposition route ----

def test_superposition_even_class_projection():
    phi = from_amplitudes(np.array([1.0, 1.0, 0.0]) / np.sqrt(2.0))
    psi, _ = cyclic_superposition(phi, CyclicSpec(2, 1))
    assert np.abs(psi.amplitudes - basis_state(0, 2).amplitudes).max() < 1e-15


def test_superposition_trivial_group_is_identity():
    phi = coherent(0.7 + 0.2j, 24)
    psi, rec = cyclic_superposition(phi, CyclicSpec(1, 1))
    assert np.abs(psi.amplitudes - phi.amplitudes).max() < 1e-14
    assert rec.n_lambda == pytest.approx(1.0)


def test_superposition_cat_states():
    alpha = 1.3
    phi = coherent(alpha, 48)
    plus = coherent(alpha, 48).amplitudes + coherent(-alpha, 48).amplitudes
    minus = coherent(alpha, 48).amplitudes - coherent(-alpha, 48).amplitudes
    even_cat = from_amplitudes(plus / np.linalg.norm(plus))
    odd_cat = from_amplitudes(minus / np.linalg.norm(minus))
    for lam, cat in ((1, even_cat), (2, odd_cat)):
        psi, _ = cyclic_superposition(phi, CyclicSpec(2, lam))
        assert 1.0 - fidelity(psi, cat) < 1e-12
        # the erasure route carries the real-positive representative
        er = cyclic_erasure(phi, CyclicSpec(2, lam))
        assert np.abs(er.amplitudes - cat.amplitudes).max() < 1e-13


def test_normalization_record_invariant():
    phi = coherent(1.1 + 0.4j, 40)
    for n in (2, 3, 5):
        for lam in range(1, n + 1):
            rec = normalization_record(phi, CyclicSpec(n, lam))
            assert abs(rec.n_lambda) * rec.raw_norm == pytest.approx(1.0, abs=1e-12)
            assert rec.phase_convention == "erasure-real-positive"


def test_empty_sector_raises_with_diagnostics():
    with pytest.raises(EmptyRepresentationError) as exc:
        cyclic_superposition(basis_state(0, 8), CyclicSpec(3, 2))
    msg = str(exc.value)
    assert "n=3" in msg and "lam=2" in msg and "masses" in msg
    assert exc.value.masses[0] == pytest.approx(1.0)


# ---- erasure route ----

def test_erasure_single_survivor():
    phi = from_amplitudes(np.array([1.0, 1.0, 1.0]) / np.sqrt(3))
    out = cyclic_erasure(phi, CyclicSpec(3, 2))
    assert np.abs(out.amplitudes - basis_state(1, 2).amplitudes).max() < 1e-15


def test_erasure_identity_on_image():
    psi = cyclic_erasure(coherent(1.0, 30), CyclicSpec(3, 1))
    again = cyclic_erasure(psi, CyclicSpec(3, 1))
    assert np.abs(again.amplitudes - psi.amplitudes).max() < 1e-15


def test_route_equivalence_seeded():
    rng = np.random.default_rng(99)
    amps = rng.normal(size=33) + 1j * rng.normal(size=33)
    phi = from_amplitudes(amps / np.linalg.norm(amps))
    spec = CyclicSpec(5, 3)
    er = cyclic_erasure(phi, spec)
    sup, _ = cyclic_superposition(phi, spec)
    assert np.abs(er.amplitudes - unit_root(1 - 3, 5) * sup.amplitudes).max() < 1e-12


def test_cyclic_set_skips_empty_sectors():
    phi = from_amplitudes(np.array([1.0, 1.0, 0.0]) / np.sqrt(2.0))
    pairs = cyclic_set(phi, 3)
    assert len(pairs) == 2  # class 2 carries no mass


def test_cyclic_set_tries_only_the_classes_that_exist(monkeypatch):
    # C_1000 at n_max 8: the classes lam > 9 hold no photon number, so only
    # lam = 1..9 are tried (all 1000 before), and the list is that of trying
    # every lam and skipping the empty ones
    phi, n = coherent(1.0, 8), 1000
    want = []
    for lam in range(1, n + 1):
        try:
            want.append(cyclic_state(phi, CyclicSpec(n, lam)))
        except EmptyRepresentationError:
            pass
    calls = []
    state = cyclic.cyclic_state
    monkeypatch.setattr(cyclic, "cyclic_state",
                        lambda *args: calls.append(args) or state(*args))
    got = cyclic_set(phi, n)
    assert len(calls) <= 9
    assert len(got) == len(want) == 9
    for (st, record), (want_st, want_record) in zip(got, want):
        assert st.amplitudes.tobytes() == want_st.amplitudes.tobytes()
        assert record == want_record


def test_cyclic_set_light_sectors():
    # coherent(3) at n_max 128: sectors 28..32 of C_32 carry mass ~1e-8
    phi = coherent(3.0, 128)
    pairs = cyclic_set(phi, 32)
    assert len(pairs) == 32
    states = np.array([s.amplitudes for s, _ in pairs])
    assert np.abs(states.conj() @ states.T - np.eye(32)).max() < 1e-12
    for lam, (state, record) in enumerate(pairs, 1):
        er = cyclic_erasure(phi, CyclicSpec(32, lam)).amplitudes
        assert np.abs(state.amplitudes - unit_root(lam - 1, 32) * er).max() < 1e-14
        assert abs(record.n_lambda) * record.raw_norm == pytest.approx(1.0, abs=1e-12)


def test_superposition_route_on_light_sectors():
    # orbit phases from floating angles theta_r * m leaked 1.2e-12 to 1.0e-11
    # off-class in these sectors; exactly reduced roots of unity stay below 1e-12
    phi = coherent(3.0, 128)
    for lam in range(28, 33):
        spec = CyclicSpec(32, lam)
        sup, orbit = cyclic_superposition(phi, spec)
        state, record = cyclic_state(phi, spec)
        assert np.abs(sup.amplitudes - state.amplitudes).max() < 1e-12
        assert orbit.raw_norm == pytest.approx(record.raw_norm, rel=1e-12)
        assert abs(orbit.n_lambda - record.n_lambda) * record.raw_norm < 1e-12


@pytest.mark.parametrize("route, construct, lam", [
    # the orbit sum leaks about eps / sqrt(w_lam) off the light sector
    ("superposition", cyclic_superposition, 2),
    # the seed is no sector state, so its shift leaves class lam - 1 = 1
    ("annihilation", annihilation_irrep_shift, 1),
    # the all-lam family call names the one row that leaks
    ("superposition",
     lambda phi, spec: cyclic._superpositions(phi.amplitudes, spec.n, range(1, spec.n + 1)), 2),
])
def test_leakage_failure_names_its_threshold(route, construct, lam):
    # a random seed whose class 1 mod 3 (the lam = 2 sector) is scaled by 1e-11
    amps = [1, 1j] @ np.random.default_rng(0).normal(size=(2, 33))
    amps[1::3] *= 1e-11
    with pytest.raises(AssertionError) as exc:
        construct(from_amplitudes(amps / np.linalg.norm(amps)), CyclicSpec(3, 2))
    message = str(exc.value)
    assert message.startswith("off-class leakage ")
    assert message.endswith(f"in the {route} route for (n=3, lam={lam}) "
                            "exceeds the threshold 1e-12")


@pytest.mark.parametrize("n", [1, 2, 3, 5, 8, 16])
def test_superposition_family_matches_one_lam_calls(n):
    # the families of 50 seeds from one character-table product against one
    # call per seed and lam
    amps = np.random.default_rng(n).normal(size=(50, 65, 2)) @ [1, 1j]
    amps /= np.linalg.norm(amps, axis=1, keepdims=True)
    states, raw_norm, n_lambda = cyclic._superpositions(amps, n, range(1, n + 1))
    assert states.shape == (50, n, 65) and raw_norm.shape == n_lambda.shape == (50, n)
    for seed, family, norms, constants in zip(amps, states, raw_norm, n_lambda):
        phi = from_amplitudes(seed)
        for lam, (state, norm, constant) in enumerate(zip(family, norms, constants), 1):
            one, record = cyclic_superposition(phi, CyclicSpec(n, lam))
            assert np.abs(state - one.amplitudes).max() <= 1e-15
            assert abs(norm - record.raw_norm) <= 1e-15 * record.raw_norm
            assert abs(constant - record.n_lambda) <= 1e-15 * abs(record.n_lambda)


def test_superposition_family_names_its_empty_sector():
    amps = np.random.default_rng(3).normal(size=33) + 0.5j
    amps[2::5] = 0.0  # class 2 mod 5, the lam = 3 sector of C_5
    phi = from_amplitudes(amps / np.linalg.norm(amps))
    with pytest.raises(EmptyRepresentationError) as exc:
        cyclic._superpositions(phi.amplitudes, 5, range(1, 6))
    assert exc.value.lam == 3 and "(n=5, lam=3)" in str(exc.value)
    assert exc.value.masses[2] == 0.0


def test_superposition_stack_names_its_first_failing_row():
    # C_3 seeds: one good, one with an empty lam = 3 sector (class 2 mod 3)
    # and one whose light lam = 2 sector (class 1 mod 3, scaled by 1e-11)
    # leaks; the first failing (seed, lam) in stack order is the one named
    good, empty, leaky = np.random.default_rng(0).normal(size=(3, 33, 2)) @ [1, 1j]
    empty[2::3] = 0.0
    leaky[1::3] *= 1e-11
    good, empty, leaky = (a / np.linalg.norm(a) for a in (good, empty, leaky))
    for stack in (np.array([good, empty, leaky]), np.array([[good, good], [good, empty]])):
        with pytest.raises(EmptyRepresentationError) as exc:
            cyclic._superpositions(stack, 3, range(1, 4))
        assert exc.value.lam == 3
        np.testing.assert_array_equal(exc.value.masses,
                                      fock.residue_class_masses(from_amplitudes(empty), 3))
    with pytest.raises(AssertionError, match=r"superposition route for \(n=3, lam=2\)"):
        cyclic._superpositions(np.array([good, leaky, empty]), 3, range(1, 4))


def test_verify_families_take_one_product_each(monkeypatch):
    # the orthonormality, rotation and inverse suites build the families of
    # each group order's whole seed stack by one _superpositions call, never by
    # one call per seed or one cyclic_superposition per lam; the inverse suite
    # asks for lam = 1..n in order, which _reconstructions relies on
    import polystate.verify as verify

    calls = []

    def counted(amps, n, lams):
        calls.append((amps.shape, n, list(lams)))
        return cyclic._superpositions(amps, n, lams)

    monkeypatch.setattr(verify, "_superpositions", counted)
    monkeypatch.setattr(verify, "cyclic_superposition", None)
    rows = verify.suite_orthonormality() + verify.suite_rotation() + verify.suite_inverse()
    assert all(r.passed for r in rows)
    assert [call[:2] for call in calls] == 2 * [((50, 65), n) for n in (2, 3, 5, 8)] + [
        ((20, 65), n) for n in range(2, 7)]
    assert [call[2] for call in calls[-5:]] == [list(range(1, n + 1)) for n in range(2, 7)]


def test_rotation_rows_fail_on_broken_states(monkeypatch):
    # the rotation suite's rows can fail: an off-class amplitude on one order-3
    # state breaks the modulus and the phase; a global phase i on the dihedral
    # states breaks the inversion row, since U_r is antiunitary
    import polystate.verify as verify

    orbit, dihedral = verify._suite2_states, verify._dihedral_families

    def leaky(seed):
        families = orbit(seed)
        states = families[3][0].copy()
        states[0, 0, 1] += 1e-3  # seed 0, lam = 1 lives on m = 0 mod 3
        return {**families, 3: (states,) + families[3][1:]}

    monkeypatch.setattr(verify, "_suite2_states", leaky)
    rows = {r.name: r for r in verify.suite_rotation()}
    # |<psi|R_r|psi>| = |1 + eps^2 mu^(-(r-1))| / (1 + eps^2) -> 1 - 3 eps^2 / 2,
    # at the angle sqrt(3) eps^2 / 2, eps = 1e-3
    assert rows["modulus"].residual == pytest.approx(1.5e-6, rel=1e-3)
    assert rows["phase"].residual == pytest.approx(np.sqrt(3) / 2 * 1e-6, rel=1e-3)
    assert not rows["modulus"].passed and not rows["phase"].passed
    assert rows["dihedral inversion"].passed

    monkeypatch.setattr(verify, "_suite2_states", orbit)
    monkeypatch.setattr(verify, "_dihedral_families", lambda seed, count: {
        key: 1j * states for key, states in dihedral(seed, count).items()})
    rows = {r.name: r for r in verify.suite_rotation()}
    # U_r (i Gamma) = -i U_r Gamma: the row reads 2 max |Gamma_m|
    assert rows["dihedral inversion"].residual > 1.0
    assert not rows["dihedral inversion"].passed
    assert rows["modulus"].passed and rows["phase"].passed


def test_cyclic_set_matches_superposition_route():
    rng = np.random.default_rng(5)
    amps = rng.normal(size=41) + 1j * rng.normal(size=41)
    phi = from_amplitudes(amps / np.linalg.norm(amps))
    for lam, (state, record) in enumerate(cyclic_set(phi, 6), 1):
        sup, orbit = cyclic_superposition(phi, CyclicSpec(6, lam))
        assert np.abs(state.amplitudes - sup.amplitudes).max() < 1e-13
        assert record.raw_norm == pytest.approx(orbit.raw_norm, rel=1e-12)
        assert abs(record.n_lambda - orbit.n_lambda) * orbit.raw_norm < 1e-12


def test_production_routes_skip_the_oracles(monkeypatch, tmp_path):
    def oracle(*args, **kwargs):
        raise AssertionError("production path ran an oracle route")

    modules = (cyclic, fock, gaussian, observables, cli)
    for name in ("character", "rotate", "theta", "cyclic_superposition",
                 "_superpositions", "cyclic_gaussian_wavefunction",
                 "rotate_params", "_rotated_exponents", "_rotation_phases",
                 "linear_entropy_oracle", "density_route_gap", "wigner_direct",
                 "_quadrature_rows", "_trapezoid_weights"):
        owners = [mod for mod in modules if hasattr(mod, name)]
        assert owners, f"oracle {name} is in none of the patched modules"
        for mod in owners:
            monkeypatch.setattr(mod, name, oracle)
    phi = coherent(1.0 + 0.5j, 32)
    spec = CyclicSpec(4, 2)
    cyclic_state(phi, spec)
    normalization_record(phi, spec)
    assert len(cyclic_set(phi, 4)) == 4
    dihedral_state(phi, spec, "difference")
    cyclic_density(_pure(phi), spec)
    circle_limit(phi, 2)
    two_mode = observables.bipartite_normalize(
        observables.BipartiteSpec(4, np.ones(4), phi, phi))
    observables.linear_entropy(two_mode)
    observables.linear_entropy_gram(two_mode)
    # the Gaussian embedding never reaches the quadrature oracle
    for params, n_max in ((gaussian.GaussianParams(0.8 + 0.3j, 1.0 - 0.5j), 64),
                          (gaussian.GaussianParams(0.5, 18 * np.sqrt(2.0)), 512)):
        gaussian.gaussian_to_fock(params, n_max)
    gaussian.cyclic_gaussian(gaussian.GaussianParams(1.0, 1.0 + 1.0j), spec, 64)
    assert cli.main(["build", "--coherent", "1", "0.5", "--order", "4",
                     "--irrep", "2", "--n-max", "32", "--method", "superposition",
                     "--output", str(tmp_path / "s.json")]) == 0
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps({"n": 4, "c": [[1.0, 0.0]] * 4,
                                     "seed_1": fock.vector_to_dict(phi),
                                     "seed_2": fock.vector_to_dict(phi)}))
    assert cli.main(["entangle", "--input", str(spec_path),
                     "--output", str(tmp_path / "e.json")]) == 0
    assert cli.main(["build", "--coherent", "1", "0.5", "--order", "4",
                     "--irrep", "2", "--n-max", "32",
                     "--output", str(tmp_path / "s.json")]) == 0
    assert cli.main(["wigner", "--input", str(tmp_path / "s.json"), "--points", "21",
                     "--check-symmetry", "4", "--output", str(tmp_path / "w.csv")]) == 0


def test_empty_sector_masses_at_huge_order():
    # every raise site lists the n_max + 1 classes that can hold mass
    # (the density site reports the diagonal of the rho it was given)
    phi = coherent(1.0 + 0.5j, 16)
    rho = _pure(phi)
    for build, masses in ((lambda spec: cyclic_state(phi, spec), np.abs(phi.amplitudes) ** 2),
                          (lambda spec: dihedral_state(phi, spec, "difference"),
                           np.abs(phi.amplitudes) ** 2),
                          (lambda spec: cyclic_density(rho, spec), np.diag(rho.matrix).real)):
        with pytest.raises(EmptyRepresentationError) as exc:
            build(CyclicSpec(10 ** 11, 50))
        np.testing.assert_allclose(exc.value.masses, masses, rtol=0, atol=1e-16)
    with pytest.raises(EmptyRepresentationError) as exc:
        annihilation_irrep_shift(basis_state(0, 16), CyclicSpec(2 ** 63 - 1, 1))
    np.testing.assert_array_equal(exc.value.masses, basis_state(0, 16).amplitudes.real)


# ---- one presence rule: relative mass, at any scale ----

PRESENCE_MASSES = [0.0, 1e-30, 1e-25, 1e-23, 1e-14, 1e-6]
PRESENCE_SCALES = [1e-100, 1e-20, 1.0, 1e20]


def _verdict(build):
    """'built', 'empty' (EmptyRepresentationError) or 'leak' (the orbit
    oracle's own off-class AssertionError)."""
    try:
        build()
    except EmptyRepresentationError:
        return "empty"
    except AssertionError:
        return "leak"
    return "built"


@pytest.mark.parametrize("scale", PRESENCE_SCALES)
@pytest.mark.parametrize("rel", PRESENCE_MASSES)
def test_every_route_judges_presence_by_relative_mass(rel, scale):
    # a real seed of C_3 whose lam = 2 class (m = 1 mod 3) holds the fraction
    # rel of its mass: every route keeps the sector exactly when rel > 1e-24,
    # whatever the seed's scale
    spec, on = CyclicSpec(3, 2), sector_mask(12, 3, 2)
    signs = np.where(np.arange(13) % 2, -1.0, 1.0)
    amps = signs * np.where(on, np.sqrt(rel / on.sum()), np.sqrt((1 - rel) / (~on).sum()))
    phi = fock.FockVector(12, scale * amps)
    verdicts = {name: _verdict(build) for name, build in (
        ("state", lambda: cyclic_state(phi, spec)),
        ("erasure", lambda: cyclic_erasure(phi, spec)),
        ("record", lambda: normalization_record(phi, spec)),
        ("dihedral sum", lambda: dihedral_state(phi, spec, "sum")),
        ("density", lambda: cyclic_density(_pure(phi), spec)),
        ("orbit", lambda: cyclic_superposition(phi, spec)))}
    want = "built" if rel > 1e-24 else "empty"
    # the orbit oracle's leakage check may fire, but only on a built sector
    if verdicts["orbit"] == "leak" and want == "built":
        verdicts["orbit"] = "built"
    assert verdicts == dict.fromkeys(verdicts, want)
    if want == "built":
        ref = np.where(on, amps, 0.0)
        np.testing.assert_allclose(cyclic_erasure(phi, spec).amplitudes,
                                   ref / np.linalg.norm(ref), rtol=0, atol=1e-15)


@pytest.mark.parametrize("scale", PRESENCE_SCALES)
@pytest.mark.parametrize("rel", PRESENCE_MASSES)
def test_circle_limit_judges_presence_by_relative_mass(rel, scale):
    # |A_2|^2 is the fraction rel of the seed's mass
    amps = np.zeros(9, dtype=complex)
    amps[0], amps[2] = np.sqrt(1 - rel), np.sqrt(rel) * 1j
    phi = fock.FockVector(8, scale * amps)
    if rel > 1e-24:
        np.testing.assert_allclose(circle_limit(phi, 3).amplitudes,
                                   1j * basis_state(2, 8).amplitudes, rtol=0, atol=1e-15)
    else:
        with pytest.raises(EmptyRepresentationError, match="is below 1e-24 times"):
            circle_limit(phi, 3)


@pytest.mark.parametrize("scale", PRESENCE_SCALES)
@pytest.mark.parametrize("rel", PRESENCE_MASSES)
def test_irrep_shift_judges_presence_by_relative_mass(rel, scale):
    # psi in the lam = 1 sector of C_4 on |0> and |4>: a psi = eps 2 |3>,
    # whose mass is the fraction rel of psi's
    eps = np.sqrt(rel / 4)
    amps = np.zeros(9, dtype=complex)
    amps[0], amps[4] = 1.0, eps
    psi = fock.FockVector(8, scale * amps)
    if rel > 1e-24:
        shifted, new_lam = annihilation_irrep_shift(psi, CyclicSpec(4, 1))
        assert new_lam == 4
        np.testing.assert_allclose(shifted.amplitudes, basis_state(3, 8).amplitudes,
                                   rtol=0, atol=1e-15)
    else:
        with pytest.raises(EmptyRepresentationError, match="zero vector"):
            annihilation_irrep_shift(psi, CyclicSpec(4, 1))


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("scale", [1e-160, 1e-170, 1e160, 1e200, 1e170, 1e-300, 1e300])
def test_orbit_oracle_and_irrep_shift_read_a_ray(scale):
    # coherent(1.2 + 0.3i) scaled so that sum |A_m|^2 leaves the normal
    # range: the orbit state is still mu_3 times the erased seed, and the
    # shifted C_3 state the unit state's (both raised or drifted by 1e-4 or
    # more before they read the ray); the circle limit's quadrature gap
    # stays at rounding (NaN or a false 1.0 before)
    seed, spec = coherent(1.2 + 0.3j, 16), CyclicSpec(3, 2)
    assert circle_limit_quadrature_gap(fock.FockVector(16, scale * seed.amplitudes), 2) <= 1e-15
    orbit = cyclic_superposition(fock.FockVector(16, scale * seed.amplitudes), spec)[0]
    np.testing.assert_allclose(orbit.amplitudes,
                               unit_root(1, 3) * cyclic_erasure(seed, spec).amplitudes,
                               rtol=0, atol=1e-15)
    psi = cyclic_state(seed, spec)[0]
    want, want_lam = annihilation_irrep_shift(psi, spec)
    got, new_lam = annihilation_irrep_shift(fock.FockVector(16, scale * psi.amplitudes), spec)
    assert new_lam == want_lam == 1
    np.testing.assert_allclose(got.amplitudes, want.amplitudes, rtol=0, atol=1e-15)


def test_sector_states_test_their_own_last_slot():
    # coherent(4.75) at n_max 64 is not flagged, but its C_64 lam = 1 sector
    # lives on |0> and |64> and holds 3.3e-3 of its mass on |64>
    seed, spec = coherent(4.75, 64), CyclicSpec(64, 1)
    assert not seed.tail_flagged
    for state in (cyclic_erasure(seed, spec), cyclic_state(seed, spec)[0],
                  dihedral_state(seed, spec)[0]):
        assert state.tail_mass > 3e-3 and state.tail_flagged
    assert not cyclic_erasure(seed, CyclicSpec(64, 2)).tail_flagged


def test_near_empty_sector_routes_agree():
    # mass 1e-14 in the odd class of C_2: the closed form, the density route
    # and erasure all build it; at 2.5e-25 all three and the orbit oracle call
    # it empty, before the oracle's leakage check (1.2e-4 there) can fire
    for eps, built in ((1e-7, True), (5e-13, False)):
        amps = np.zeros(9, dtype=complex)
        amps[0], amps[1] = 1.0, eps
        phi = from_amplitudes(amps / np.linalg.norm(amps))
        spec = CyclicSpec(2, 2)
        routes = [lambda: cyclic_state(phi, spec), lambda: cyclic_erasure(phi, spec),
                  lambda: cyclic_density(_pure(phi), spec)]
        assert [_verdict(r) for r in routes] == ["built" if built else "empty"] * 3
        if not built:
            assert _verdict(lambda: cyclic_superposition(phi, spec)) == "empty"


def test_absent_is_relative_to_the_total():
    # a zero seed's class is absent; a tiny seed's whole mass is not
    assert cyclic._absent(0.0, 0.0) and not cyclic._absent(1e-300, 1e-277)


# ---- rotation eigenphase ----

def _rotation_residuals(amps, n, lam):
    """verify's rotation rows for lam-sector states amps (..., d), for every
    element r = 1..n: the modulus |<psi|R_r|psi>| / <psi|psi> and the angle of
    <psi|R_r|psi> against mu^((1-lam)(r-1)), each (..., n). The overlaps are
    one product of |A_m|^2 with the phase table; r = 1 is the identity."""
    w = np.abs(amps) ** 2
    ov = w @ _rotation_table(n, w.shape[-1]).T
    predicted = unit_root(np.multiply.outer(1 - np.asarray(lam), np.arange(n)), n)
    return np.abs(ov) / w.sum(axis=-1)[..., None], np.abs(np.angle(ov / predicted))


def test_rotation_full_cycle_is_identity():
    # R_(n+1) = R_1, the identity: row 0 of the table
    psi, _ = cyclic_superposition(coherent(1.0, 40), CyclicSpec(4, 2))
    fid, phase = _rotation_residuals(psi.amplitudes, 4, 2)
    assert fid[0] == pytest.approx(1.0, abs=1e-12)
    assert phase[0] < 1e-12


def test_rotation_trivial_irrep_phase_zero():
    psi, _ = cyclic_superposition(coherent(1.0, 40), CyclicSpec(3, 1))
    fid, phase = _rotation_residuals(psi.amplitudes, 3, 1)
    assert fid == pytest.approx(np.ones(3), abs=1e-12)
    assert (phase < 1e-12).all()


def test_rotation_phase_n4_lam3_l2():
    # two elementary rotations (r = 3): mu_4^((1-3)*2) = mu_4^(-4) = 1, so the
    # picked-up phase vanishes
    psi, _ = cyclic_superposition(coherent(1.0, 40), CyclicSpec(4, 3))
    fid, phase = _rotation_residuals(psi.amplitudes, 4, 3)
    assert fid[2] == pytest.approx(1.0, abs=1e-12)
    assert phase[2] < 1e-12


def test_rotation_every_element():
    psi, _ = cyclic_superposition(coherent(1.2, 48), CyclicSpec(5, 4))
    fid, phase = _rotation_residuals(psi.amplitudes, 5, 4)
    assert fid.shape == phase.shape == (5,)
    assert (np.abs(fid - 1.0) < 1e-10).all()
    assert (phase < 1e-10).all()


def test_rotation_off_sector_modulus_drops():
    # off the sector the modulus drops below 1 on every element but the
    # identity, and each is |<phi|R(theta_r)|phi>| by rotate's float angles
    rng = np.random.default_rng(5)
    v = rng.standard_normal(33) + 1j * rng.standard_normal(33)
    phi = from_amplitudes(v / np.linalg.norm(v))
    fid, _ = _rotation_residuals(phi.amplitudes, 4, 1)
    assert fid[0] == pytest.approx(1.0, abs=1e-14) and (fid[1:] < 0.9).all()
    for r in range(1, 5):
        assert abs(abs(np.vdot(phi.amplitudes, rotate(phi, theta(4, r)).amplitudes))
                   - fid[r - 1]) < 1e-15


def test_rotation_phase_exact_at_order_64():
    # every group element's phase mu^((1-lam)(r-1)) holds to rounding at n = 64,
    # all 64 sectors in one product; float angles 2 pi (r-1) m / n leaked up
    # to ~4e-14 here
    rng = np.random.default_rng(64)
    v = rng.standard_normal(257) + 1j * rng.standard_normal(257)
    phi = from_amplitudes(v / np.linalg.norm(v))
    lams = np.arange(1, 65)
    states = np.array([cyclic_state(phi, CyclicSpec(64, lam))[0].amplitudes for lam in lams])
    fid, phase = _rotation_residuals(states, 64, lams)
    assert fid.shape == phase.shape == (64, 64)
    assert (np.abs(fid - 1.0) < 1e-12).all()
    assert phase.max() <= 1e-15


# ---- density matrices ----

def test_density_invariant_input_unchanged():
    rho = _pure(basis_state(0, 4))
    out = cyclic_density(rho, CyclicSpec(2, 1))
    assert np.abs(out.matrix - rho.matrix).max() < 1e-14


def test_density_pure_state_matches_erasure_outer_product():
    phi = coherent(1.0, 24)
    spec = CyclicSpec(3, 2)
    out = cyclic_density(_pure(phi), spec)
    er = cyclic_erasure(phi, spec)
    expected = np.outer(er.amplitudes, np.conj(er.amplitudes))
    assert np.abs(out.matrix - expected).max() < 1e-12


def test_density_mixture_class_projection():
    half = 0.5 * (_pure(basis_state(0, 4)).matrix
                  + _pure(basis_state(1, 4)).matrix)
    rho = FockOperator(4, half)
    out = cyclic_density(rho, CyclicSpec(2, 2))
    expected = _pure(basis_state(1, 4)).matrix
    assert np.abs(out.matrix - expected).max() < 1e-14


def test_density_route_gap_small():
    rho = _pure(coherent(0.9 + 0.5j, 20))
    assert density_route_gap(rho, CyclicSpec(4, 2)) < 1e-13


def _literal_double_sum(rho, spec):
    """(1/n^2) sum_{r,r'} chi_r chi_{r'}^* R_r rho R_{r'}^dag, term by term."""
    n, m = spec.n, np.arange(rho.n_max + 1)
    acc = np.zeros_like(rho.matrix)
    for r in range(1, n + 1):
        for rp in range(1, n + 1):
            weight = character(n, spec.lam, r) * np.conj(character(n, spec.lam, rp))
            acc += weight * (np.exp(-2j * np.pi * ((r - 1) * m % n) / n)[:, None]
                             * rho.matrix
                             * np.exp(2j * np.pi * ((rp - 1) * m % n) / n)[None, :])
    return acc / n ** 2


@pytest.mark.parametrize("n_max", [64, 128])
@pytest.mark.parametrize("n", [1, 2, 5, 16, 32])
def test_density_route_gap_is_the_double_sum(monkeypatch, n, n_max):
    # the factorised P_chi rho P_chi^dag against the n^2-term double sum: with
    # the residue-class projection swapped for the literal sum, the gap is
    # the distance between the two evaluations of the oracle
    rng = np.random.default_rng(n * n_max)
    weights = rng.random(3)
    mixed = np.zeros((n_max + 1, n_max + 1), dtype=complex)
    for w in weights / weights.sum():
        v = rng.standard_normal(n_max + 1) + 1j * rng.standard_normal(n_max + 1)
        mixed += w * np.outer(v, v.conj()) / np.vdot(v, v).real
    rho = FockOperator(n_max, mixed)
    lam = n // 2 + 1
    literal = _literal_double_sum(rho, CyclicSpec(n, lam))
    monkeypatch.setattr(cyclic, "_projected_density", lambda *_: literal)
    assert density_route_gap(rho, CyclicSpec(n, lam)) <= 1e-15
    if n > 1:
        # the oracle tells sectors apart: against the class-1 state's own
        # density, sector lam != 1 misses its whole weight
        phi = cyclic_erasure(coherent(1.0, n_max), CyclicSpec(n, 1))
        pure = _pure(phi)
        monkeypatch.setattr(cyclic, "_projected_density", lambda *_: pure.matrix)
        assert density_route_gap(pure, CyclicSpec(n, lam)) > 0.5


def test_density_empty_sector_raises():
    with pytest.raises(EmptyRepresentationError):
        cyclic_density(_pure(basis_state(0, 6)), CyclicSpec(2, 2))


def test_density_empty_sector_reports_class_masses():
    # the n residue-class masses of diag(rho), not the d-entry diagonal
    with pytest.raises(EmptyRepresentationError) as exc:
        cyclic_density(_pure(basis_state(0, 6)), CyclicSpec(2, 2))
    np.testing.assert_array_equal(exc.value.masses, [1.0, 0.0])


@pytest.mark.parametrize("lam", [1, 2])
def test_density_reads_a_ray(lam):
    # rho = 1e307 v v^dag (|v_m| = 1, d = 40) is finite, and its sector is the
    # unit-scale one's (tr rho once overflowed to a false empty sector); an
    # exact power of two, with sum |rho_ij|^2 below, inside or past the normal
    # range, gives the same bytes, and a unit-scale rho keeps P rho P / tr's bits
    v = np.exp(1j * np.random.default_rng(40).uniform(0.0, 2 * np.pi, 40))
    unit = np.outer(v, v.conj())
    spec = CyclicSpec(2, lam)
    want = cyclic_density(FockOperator(39, unit), spec).matrix
    mask = sector_mask(39, 2, lam)
    projected = np.where(np.outer(mask, mask), unit, 0)
    np.testing.assert_array_equal(want, projected / np.trace(projected).real)
    got = cyclic_density(FockOperator(39, 1e307 * unit), spec).matrix
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-15)
    for k in (-600, -3, 700):
        scaled = cyclic_density(FockOperator(39, np.ldexp(1.0, k) * unit), spec)
        assert scaled.matrix.tobytes() == want.tobytes()


@pytest.mark.parametrize("k", [-1060, 1000])
def test_density_oracle_reads_a_ray(k):
    # density_route_gap reads rho's ray: 2^k rho gives the ray's gap bit for
    # bit (a raw matrix read 0.0 at 2^-1060 and 1.6e284 at 2^1000)
    rng = np.random.default_rng(37)
    v = rng.standard_normal(40) + 1j * rng.standard_normal(40)
    rho = np.outer(v, v.conj()) / np.vdot(v, v).real
    spec = CyclicSpec(3, 2)
    gap = density_route_gap(FockOperator(39, 2.0 ** k * rho), spec)
    assert gap == density_route_gap(FockOperator(39, fock._ray_scale(2.0 ** k * rho)[0]), spec)
    assert 0 < gap < 1e-14


# ---- the residue-class slice against its boolean mask ----

def _mask_part(phi, spec, variant=""):
    """cyclic._sector_part read through the full-length sector_mask."""
    seed, total = phi.amplitudes, phi._total
    amps = seed.real if variant == "sum" else 1j * seed.imag if variant else seed
    part = np.where(sector_mask(phi.n_max, spec.n, spec.lam), amps, 0)
    mass = part.real.dot(part.real) + part.imag.dot(part.imag)
    if cyclic._absent(mass, total):
        raise EmptyRepresentationError(spec.n, spec.lam, np.abs(seed) ** 2,
                                       variant and f"dihedral {variant} variant vanishes")
    return part, float(np.sqrt(mass))


def _mask_projection(mat, n, lam):
    """cyclic._projected_density through the mask's outer product."""
    keep = sector_mask(mat.shape[-1] - 1, n, lam)
    return np.where(keep[:, None] & keep[None, :], mat, 0)


def _mask_density(rho, spec):
    """cyclic_density dividing the whole projected matrix by its trace."""
    projected = _mask_projection(rho.matrix, spec.n, spec.lam)
    tr = np.trace(projected).real
    if cyclic._absent(tr, np.trace(rho.matrix).real):
        raise EmptyRepresentationError(spec.n, spec.lam, np.diagonal(rho.matrix).real)
    return FockOperator(rho.n_max, projected / tr)


def _outcomes(routes):
    """{route: its output's bytes, or its error's type and text}."""
    out = {}
    for name, route in routes.items():
        try:
            out[name] = route()
        except EmptyRepresentationError as exc:
            out[name] = (type(exc), str(exc))
    return out


def _vector_routes(phi, spec):
    """The outcomes of every production route that reads the seed's class."""
    def vector(state, record=None):
        out = state.amplitudes.tobytes() + bytes([state.tail_flagged])
        return out if record is None else out + np.array(
            [record.raw_norm, record.n_lambda]).tobytes() + record.phase_convention.encode()

    return _outcomes({
        "state": lambda: vector(*cyclic_state(phi, spec)),
        "erasure": lambda: vector(cyclic_erasure(phi, spec)),
        "sum": lambda: vector(*dihedral_state(phi, spec, "sum")),
        "difference": lambda: vector(*dihedral_state(phi, spec, "difference")),
    })


def _density_routes(rho, spec, density=cyclic_density):
    """The outcomes of the density route and, below the orders whose
    character row is too long to hold, of its oracle."""
    routes = {"density": lambda: density(rho, spec).matrix.tobytes()}
    if spec.n < 2 ** 20:
        routes["gap"] = lambda: np.float64(density_route_gap(rho, spec)).tobytes()
    return _outcomes(routes)


@pytest.mark.parametrize("d", [1, 2, 65, 129])
def test_class_slice_keeps_the_mask_bits(monkeypatch, d):
    # the production routes read the residue class as the slice [lam-1::n];
    # against the full-length mask they built before, every output keeps its
    # bytes and every empty sector its error text, for every lam (lam - 1 past
    # n_max too), at unit scale and at 1e+-200. A real seed, whose difference
    # variant is empty at every lam, runs at unit scale up to n = 64: each
    # empty sector formats its class masses, the bulk of the test's time
    rng = np.random.default_rng(d)
    cplx = rng.standard_normal(d) + 1j * rng.standard_normal(d)
    real = np.where(np.arange(d) % 3 == 1, 0.0, rng.standard_normal(d))
    mix = rng.standard_normal((d, 3)) + 1j * rng.standard_normal((d, 3))

    def both(routes, *args, **reference):
        """The slice routes' outcomes, and the mask reference's."""
        with monkeypatch.context() as m:
            m.setattr(cyclic, "_sector_part", _mask_part)
            m.setattr(cyclic, "_projected_density", _mask_projection)
            want = routes(*args, **reference)
        return routes(*args), want

    inputs = [(scale, FockOperator(d - 1, scale * mix @ mix.conj().T),
               [fock.FockVector(d - 1, scale * amps) for amps in (cplx, real)])
              for scale in (1.0, 1e200, 1e-200)]
    for n in sorted({1, 2, 3, 64, d, d + 5, 2 ** 63 - 1}):
        for lam in sorted(set(range(1, min(n, d + 2) + 1)) | {n}):
            spec = CyclicSpec(n, lam)
            for scale, rho, phis in inputs:
                got, want = both(_density_routes, rho, spec, density=_mask_density)
                assert got == want, (n, lam, scale)
                for phi in phis if scale == 1.0 and n <= 64 else phis[:1]:
                    got, want = both(_vector_routes, phi, spec)
                    assert got == want, (n, lam, scale)


# ---- circle limit ----

def test_circle_limit_vacuum_component():
    out = circle_limit(coherent(0.8, 24), 1)
    assert np.abs(out.amplitudes - basis_state(0, 24).amplitudes).max() < 1e-14


def test_circle_limit_number_state_selection():
    out = circle_limit(coherent(1.0, 24), 3)
    assert np.abs(out.amplitudes - basis_state(2, 24).amplitudes).max() < 1e-14


def test_circle_limit_fixed_point():
    out = circle_limit(basis_state(5, 8), 6)
    np.testing.assert_array_equal(out.amplitudes, basis_state(5, 8).amplitudes)


def test_circle_limit_quadrature_gap():
    assert circle_limit_quadrature_gap(coherent(1.0, 32), 2) < 1e-10


def test_circle_limit_quadrature_memory():
    # the 2 (n_max + 1)-angle rule at n_max 1024 must not hold a table of
    # rotated copies (67 MB); O(n_max) memory is about 0.1 MB
    phi = coherent(1.0, 1024)
    tracemalloc.start()
    try:
        gap = circle_limit_quadrature_gap(phi, 3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert gap <= 1e-10
    assert peak < 4 * 2 ** 20


def test_circle_limit_empty_raises():
    with pytest.raises(EmptyRepresentationError):
        circle_limit(basis_state(5, 8), 1)


# ---- dihedral states ----

def test_dihedral_sum_matches_cyclic_for_real_seed():
    phi = coherent(1.1, 32)  # real alpha, real amplitudes
    for lam in (1, 2):
        gamma, rec = dihedral_state(phi, CyclicSpec(2, lam), "sum")
        psi, _ = cyclic_superposition(phi, CyclicSpec(2, lam))
        assert 1.0 - fidelity(gamma, psi) < 1e-12
        assert rec.phase_convention == "real-positive"
        assert np.abs(gamma.amplitudes.imag).max() < 1e-14


def test_dihedral_difference_vanishes_for_real_seed():
    with pytest.raises(EmptyRepresentationError):
        dihedral_state(coherent(1.1, 32), CyclicSpec(2, 1), "difference")


def test_dihedral_variants_reality_structure():
    # sum amplitudes real, difference purely imaginary; both unit norm
    phi = coherent(1.0 + 0.8j, 40)
    gs, _ = dihedral_state(phi, CyclicSpec(3, 2), "sum")
    gd, _ = dihedral_state(phi, CyclicSpec(3, 2), "difference")
    assert np.abs(gs.amplitudes.imag).max() < 1e-14
    assert np.abs(gd.amplitudes.real).max() < 1e-14
    assert gs.norm == pytest.approx(1.0, abs=1e-12)
    assert gd.norm == pytest.approx(1.0, abs=1e-12)


def test_dihedral_invalid_variant():
    with pytest.raises(ValueError):
        dihedral_state(coherent(1.0, 16), CyclicSpec(2, 1), "product")


def test_dihedral_inversion_eigenstate():
    phi = coherent(1.0 + 0.8j, 40)
    n = 3
    table = _rotation_table(n, 41)
    for lam in (1, 2, 3):
        for variant, sign in (("sum", 1.0), ("difference", -1.0)):
            gamma = dihedral_state(phi, CyclicSpec(n, lam), variant)[0].amplitudes
            for r in range(1, n + 1):
                # U_r gamma = gamma^* mu^((r-1) m) = +-mu^((lam-1)(r-1)) gamma:
                # an eigenvector, phase and all
                predicted = sign * unit_root((lam - 1) * (r - 1), n) * gamma
                assert np.abs(np.conj(gamma) * table[(1 - r) % n] - predicted).max() < 1e-10


def test_dihedral_state_matches_rotation_plus_inversion_sum():
    rng = np.random.default_rng(11)
    amps = rng.normal(size=41) + 1j * rng.normal(size=41)
    phi = from_amplitudes(amps / np.linalg.norm(amps))
    n = 5
    m = np.arange(41)
    for lam in range(1, n + 1):
        for variant, sign in (("sum", 1.0), ("difference", -1.0)):
            acc = np.zeros(41, dtype=complex)
            for r in range(n):
                chi = np.exp(2j * np.pi * (lam - 1) * r / n)
                rotated = phi.amplitudes * np.exp(-2j * np.pi * r * m / n)
                inverted = np.conj(phi.amplitudes) * np.exp(2j * np.pi * r * m / n)
                acc += chi * rotated + sign * np.conj(chi) * inverted
            gamma, rec = dihedral_state(phi, CyclicSpec(n, lam), variant)
            raw_norm = np.linalg.norm(acc)
            assert rec.raw_norm == pytest.approx(raw_norm, rel=1e-12)
            assert rec.n_lambda == pytest.approx(1.0 / raw_norm, rel=1e-12)
            assert np.abs(gamma.amplitudes - acc / raw_norm).max() < 1e-12


def _dihedral_gram(phi, n, variant, lams):
    states = [dihedral_state(phi, CyclicSpec(n, lam), variant)[0] for lam in lams]
    return np.array([[fock.inner(a, b) for b in states] for a in states])


def test_dihedral_gram_identity():
    g = _dihedral_gram(coherent(1.0 + 0.8j, 40), 3, "sum", (1, 2, 3))
    assert np.abs(g - np.eye(3)).max() < 1e-10


def test_dihedral_gram_empty_sectors():
    # a real seed has no difference variant: every sector is empty
    for lam in range(1, 5):
        with pytest.raises(EmptyRepresentationError, match="difference variant vanishes"):
            dihedral_state(coherent(1.3, 40), CyclicSpec(4, lam), "difference")
    # no weight on m = 2 (mod 4) leaves sector lam = 3 of C_4 empty; the
    # three built states of each variant stay orthonormal
    amps = np.zeros(41, dtype=complex)
    amps[[0, 1, 3, 4, 5, 7]] = [0.5, 0.3 + 0.4j, 0.1 - 0.2j, -0.2j, 0.6 + 0.1j, 0.2j]
    phi = from_amplitudes(amps / np.linalg.norm(amps))
    for variant in ("sum", "difference"):
        with pytest.raises(EmptyRepresentationError):
            dihedral_state(phi, CyclicSpec(4, 3), variant)
        assert np.abs(_dihedral_gram(phi, 4, variant, (1, 2, 4)) - np.eye(3)).max() < 1e-15


# ---- annihilation shift ----

def test_annihilation_shift_odd_cat():
    psi, _ = cyclic_superposition(coherent(1.0, 48), CyclicSpec(2, 2))
    shifted, new_lam = annihilation_irrep_shift(psi, CyclicSpec(2, 2))
    assert new_lam == 1
    w = np.abs(shifted.amplitudes[1::2]) ** 2
    assert w.sum() < 1e-24  # support moved to the even class


def test_annihilation_shift_wraps():
    psi, _ = cyclic_superposition(coherent(1.0, 48), CyclicSpec(3, 1))
    _, new_lam = annihilation_irrep_shift(psi, CyclicSpec(3, 1))
    assert new_lam == 3


def test_annihilation_n_cycle():
    n, lam = 3, 2
    state, cur = cyclic_superposition(coherent(1.0, 48), CyclicSpec(n, lam))[0], lam
    for _ in range(n):
        state, cur = annihilation_irrep_shift(state, CyclicSpec(n, cur))
    assert cur == lam
    off = np.abs(state.amplitudes[~sector_mask(state.n_max, n, lam)]).max()
    assert off < 1e-12


def test_superpositions_take_a_lam_per_seed():
    # each seed with its own lam, bit for bit against cyclic_superposition;
    # the first failing (seed, lam) names its own lam
    rng = np.random.default_rng(11)
    amps = rng.standard_normal((6, 33)) + 1j * rng.standard_normal((6, 33))
    amps /= np.linalg.norm(amps, axis=1, keepdims=True)
    lams = np.array([[1], [3], [2], [5], [4], [3]])
    states, raw_norm, n_lambda = cyclic._superpositions(amps, 5, lams)
    assert states.shape == (6, 1, 33)
    for k, [lam] in enumerate(lams):
        one, record = cyclic_superposition(from_amplitudes(amps[k]), CyclicSpec(5, lam))
        np.testing.assert_array_equal(states[k, 0], one.amplitudes)
        assert raw_norm[k, 0] == record.raw_norm and n_lambda[k, 0] == record.n_lambda
    amps[3, 4::5] = 0.0  # class 4 mod 5: seed 3's lam = 5 is empty
    with pytest.raises(EmptyRepresentationError) as exc:
        cyclic._superpositions(amps, 5, lams)
    assert exc.value.lam == 5 and exc.value.masses[4] == 0.0


def test_erasure_suite_takes_one_orbit_product_per_order(monkeypatch):
    import polystate.verify as verify

    calls = []

    def counted(amps, n, lams):
        calls.append((n, amps.shape, np.shape(lams)))
        return cyclic._superpositions(amps, n, lams)

    monkeypatch.setattr(verify, "_superpositions", counted)
    monkeypatch.setattr(verify, "cyclic_superposition", None)
    assert all(r.passed for r in verify.suite_erasure())
    assert [n for n, _, _ in calls] == list(range(2, 9))
    for _, (count, d), lams in calls:
        assert d == 65 and lams == (count, 1)
    assert sum(count for _, (count, _), _ in calls) == 100


def test_dihedral_seeds_are_not_the_orbit_seeds():
    # the dihedral families' seeds come from default_rng([seed, 1]); the
    # orbit families' first five seeds, from default_rng(seed), differ
    import polystate.verify as verify

    for seed in (verify.DEFAULT_SEED, 2026):
        own = verify._random_stack(np.random.default_rng([seed, 1]), 5)
        orbit = verify._random_stack(np.random.default_rng(seed), 5)
        assert not np.isin(own, orbit).any()
        for (n, variant), families in verify._dihedral_families(seed, 5).items():
            assert families.shape == (5, n, 65)
            for amps, family in zip(own, families):
                for lam, gamma in enumerate(family, 1):
                    expected, _ = dihedral_state(from_amplitudes(amps), CyclicSpec(n, lam),
                                                 variant)
                    np.testing.assert_array_equal(gamma, expected.amplitudes)
