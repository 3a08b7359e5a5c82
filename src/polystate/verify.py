"""Seeded property suites: every structural claim as a measured residual.

Each suite returns CheckRow records with the observed residual and the
tolerance it must meet; the CLI renders them as a table and the test suite
asserts on them. All randomness flows from one integer seed per suite, so
reports are bit-reproducible under one BLAS thread count (not across counts).
"""
from __future__ import annotations

from dataclasses import dataclass
from datetime import datetime, timezone
from fractions import Fraction

import numpy as np

from .group import character_orthogonality_report, root_sum, unit_root
from .fock import (
    FockOperator,
    FockVector,
    _class_masses,
    _rotated_copies,
    _rotation_phases,
    _rotation_table,
    annihilate,
    basis_state,
    coherent,
    fidelity,
    from_amplitudes,
    quadrature_means,
    rotate,
    sector_mask,
)
from .cyclic import (
    CyclicSpec,
    EmptyRepresentationError,
    _off_class,
    _superpositions,
    annihilation_irrep_shift,
    circle_limit,
    circle_limit_quadrature_gap,
    cyclic_density,
    cyclic_erasure,
    cyclic_superposition,
    density_route_gap,
    dihedral_state,
    normalization_record,
)
from .gaussian import (
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
    moments,
)
from .observables import (
    BipartiteSpec,
    _fano,
    _gram_entropies,
    _linear_entropies,
    _reconstructions,
    _sector_matrix,
    _unit_coefficients,
    bipartite_normalize,
    linear_entropy,
    linear_entropy_oracle,
    mandel,
    wigner,
    wigner_direct,
    wigner_normalization_error,
    wigner_points,
    wigner_reflection_residual,
)

__all__ = ["CheckRow", "DEFAULT_SEED", "SUITES", "run_suites", "format_report"]

DEFAULT_SEED = 12345


@dataclass(frozen=True)
class CheckRow:
    suite: str
    name: str
    prop: str
    residual: float
    tolerance: float
    passed: bool


def _row(suite: str, name: str, prop: str, residual: float, tolerance: float,
         strict: bool = False) -> CheckRow:
    residual = float(residual)
    ok = residual < tolerance if strict else residual <= tolerance
    return CheckRow(suite, name, prop, residual, float(tolerance), bool(ok))


def _random_amplitudes(rng: np.random.Generator, n_max: int = 64) -> np.ndarray:
    v = rng.standard_normal(n_max + 1) + 1j * rng.standard_normal(n_max + 1)
    return v / np.linalg.norm(v)


def _random_state(rng: np.random.Generator, n_max: int = 64) -> FockVector:
    return from_amplitudes(_random_amplitudes(rng, n_max))


# ---------------------------------------------------------------------------


def suite_characters(seed: int = DEFAULT_SEED):
    worst = max(max(character_orthogonality_report(n)) for n in range(1, 13))
    out = [_row("characters", "orthogonality",
                "character Gram matrices are the identity for n <= 12",
                worst, 1e-12)]
    worst = 0.0
    for n in range(1, 65):
        r = np.arange(-3 * n, 3 * n + 1)
        expected = np.where(r % n == 0, n, 0)
        worst = max(worst, float(np.abs(root_sum(n, r) - expected).max()))
    out.append(_row("characters", "root sums",
                    "sum of mu^(jr) is n on multiples of n, else 0 (n <= 64, |r| <= 3n)",
                    worst, 1e-12))
    return out


_SUITE2_ORDERS = (2, 3, 5, 8)
_SUITE2_SEEDS = 50


def _random_stack(rng: np.random.Generator, count: int) -> np.ndarray:
    """count successive _random_amplitudes draws, stacked."""
    return np.array([_random_amplitudes(rng) for _ in range(count)])


def _suite2_states(seed: int):
    """n -> the stacked orbit families (states (50, n, d), raw_norm,
    n_lambda) of 50 random seeds, shared by suites 2 and 4.

    The suites test the character construction itself, so they build their
    families by the orbit route (_superpositions) rather than with the
    closed-form cyclic_set. Random seeds carry weight in every sector.
    """
    rng = np.random.default_rng(seed)
    return {n: _superpositions(_random_stack(rng, _SUITE2_SEEDS), n, range(1, n + 1))
            for n in _SUITE2_ORDERS}


def _dihedral_families(seed: int, count: int):
    """(n, variant) -> the amplitudes of the dihedral states for lam = 1..n
    of count random seeds, stacked (count, n, d), for the orders of
    _SUITE2_ORDERS.

    The seeds come from a stream of their own, default_rng([seed, 1]), so
    they are not the orbit families' seeds and those rows keep their bits.
    Random seeds have complex amplitudes on every class, so no sector of
    either variant is empty.
    """
    rng = np.random.default_rng([seed, 1])
    phis = [_random_state(rng) for _ in range(count)]
    return {(n, variant): np.array([
                [dihedral_state(phi, CyclicSpec(n, lam), variant)[0].amplitudes
                 for lam in range(1, n + 1)] for phi in phis])
            for n in _SUITE2_ORDERS for variant in ("sum", "difference")}


def suite_orthonormality(seed: int = DEFAULT_SEED):
    out = []
    for n, (states, _, _) in _suite2_states(seed).items():
        gram = states.conj() @ np.swapaxes(states, -1, -2)
        out.append(_row("orthonormality", f"gram n={n}",
                        f"{_SUITE2_SEEDS} random seeds: cyclic family is orthonormal",
                        float(np.abs(gram - np.eye(n)).max()), 1e-10))
    worst = 0.0
    for (n, _), states in _dihedral_families(seed, 5).items():
        gram = states.conj() @ np.swapaxes(states, -1, -2)
        worst = max(worst, float(np.abs(gram - np.eye(n)).max()))
    # the sum and difference states of one lam overlap, so each variant's
    # family is checked on its own and no 2n-state set is claimed
    out.append(_row("orthonormality", "dihedral gram",
                    "5 random seeds: each dihedral variant's family over "
                    "lam = 1..n is orthonormal, n in {2,3,5,8}", worst, 1e-10))
    return out


def suite_erasure(seed: int = DEFAULT_SEED):
    rng = np.random.default_rng(seed)
    trials = []
    for _ in range(100):
        n = int(rng.integers(2, 9))
        trials.append((n, int(rng.integers(1, n + 1)), _random_state(rng)))
    worst = worst_record = 0.0
    for n in sorted({t[0] for t in trials}):
        group = [t for t in trials if t[0] == n]
        # the orbit route: every trial of order n in one product, each with its lam
        sups, raw_norms, n_lambdas = _superpositions(
            np.array([phi.amplitudes for _, _, phi in group]), n,
            np.array([[lam] for _, lam, _ in group]))
        for (_, lam, phi), [sup], [raw_norm], [n_lambda] in zip(
                group, sups, raw_norms, n_lambdas):
            spec = CyclicSpec(n, lam)
            er = cyclic_erasure(phi, spec)
            gap = np.abs(er.amplitudes - unit_root(1 - lam, n) * sup).max()
            worst = max(worst, float(gap))
            closed = normalization_record(phi, spec)
            worst_record = max(worst_record,
                               abs(closed.raw_norm - raw_norm) / raw_norm,
                               abs(closed.n_lambda - n_lambda) * raw_norm)
    return [
        _row("erasure", "route equivalence",
             "erasure equals mu^(1-lam) x superposition, 100 trials, n <= 8",
             worst, 1e-12),
        _row("erasure", "closed-form record",
             "raw_norm = n sqrt(w_lam) and n_lambda match the orbit route's "
             "record (relative), 100 trials, n <= 8",
             worst_record, 1e-12),
    ]


def suite_rotation(seed: int = DEFAULT_SEED):
    worst_fid = worst_phase = 0.0
    for n, (states, _, _) in _suite2_states(seed).items():
        # <psi|R_r|psi> for every (seed, lam, r) in one product: (50, lam, r),
        # against the predicted phase mu^((1-lam)(r-1)); r = 1 is the identity
        k = np.arange(n)
        w = np.abs(states) ** 2
        ov = w @ _rotation_table(n, w.shape[-1]).T
        fid = np.abs(ov) / w.sum(axis=-1, keepdims=True)
        worst_fid = max(worst_fid, float(np.abs(fid - 1.0).max()))
        worst_phase = max(worst_phase, float(np.abs(np.angle(
            ov / unit_root(np.outer(-k, k), n))).max()))
    worst_inv = 0.0
    for (n, variant), [family] in _dihedral_families(seed, 1).items():
        # U_r Gamma = Gamma^* mu^((r-1) m) for every (lam, r) at once: (lam, r, d)
        sign = 1.0 if variant == "sum" else -1.0
        k = np.arange(n)
        inverted = np.conj(family)[:, None, :] * _rotation_table(n, family.shape[-1])[-k % n]
        expected = (sign * unit_root(np.outer(k, k), n))[:, :, None] * family[:, None, :]
        worst_inv = max(worst_inv, float(np.abs(inverted - expected).max()))
    return [
        _row("rotation", "modulus",
             "every group element holds each cyclic state fixed up to phase",
             worst_fid, 1e-10),
        _row("rotation", "phase",
             "the picked-up phase is mu^((1-lam) l) for every element",
             worst_phase, 1e-10),
        _row("rotation", "dihedral inversion",
             "every inversion U_r maps each dihedral state to +-mu^((lam-1)(r-1)) "
             "times itself (+ sum, - difference), n in {2,3,5,8}",
             worst_inv, 1e-10),
    ]


def _random_mixed_density(rng: np.random.Generator, n_max: int = 64) -> np.ndarray:
    weights = rng.random(3)
    weights /= weights.sum()
    mat = np.zeros((n_max + 1, n_max + 1), dtype=complex)
    for w in weights:
        psi = _random_amplitudes(rng, n_max)
        mat += w * np.outer(psi, np.conj(psi))
    return mat


def suite_density(seed: int = DEFAULT_SEED):
    rng = np.random.default_rng(seed)
    worst_gap = worst_inv = worst_herm = worst_tr = worst_cross = 0.0
    for n in (2, 3, 4):
        specs = [CyclicSpec(n, lam) for lam in range(1, n + 1)]
        for _ in range(5):
            # every lam of one rho per pass, stacked (lam, d, d) for the rows
            # below: the (r, lam, d, d) rotations of a whole order's stack
            # would take 5.4 MB at n = 4
            rho = FockOperator(64, _random_mixed_density(rng))
            worst_gap = max(worst_gap, *(density_route_gap(rho, spec) for spec in specs))
            sectors = np.array([cyclic_density(rho, spec).matrix for spec in specs])
            worst_herm = max(worst_herm, float(np.abs(
                sectors - np.swapaxes(sectors.conj(), -1, -2)).max()))
            worst_tr = max(worst_tr, float(np.abs(
                np.trace(sectors, axis1=-2, axis2=-1) - 1.0).max()))
            # R_r rho R_r^dag for every group element r at once
            ph = _rotation_table(n, rho.n_max + 1)
            rotated = ph[:, None, :, None] * sectors
            rotated *= np.conj(ph)[:, None, None, :]
            rotated -= sectors
            worst_inv = max(worst_inv, float(np.abs(rotated).max()))
            cross = np.einsum("aij,bji->ab", sectors, sectors)[np.triu_indices(n, 1)]
            worst_cross = max(worst_cross, float(np.abs(cross).max()))
    return [
        _row("density", "route agreement",
             "double character sum equals residue-class projection entrywise",
             worst_gap, 1e-12),
        _row("density", "rotation invariance",
             "R rho R^dag = rho entrywise for every group element",
             worst_inv, 1e-14),
        _row("density", "hermiticity", "outputs stay Hermitian",
             worst_herm, 1e-12),
        _row("density", "unit trace", "outputs are trace renormalized",
             worst_tr, 1e-12),
        _row("density", "sector orthogonality",
             "Tr(rho^(lam) rho^(lam')) = 0 for lam != lam'",
             worst_cross, 1e-12),
    ]


# The seeds of the cyclic Gaussian states that the c2, circle and wigner
# suites build; the gaussian suite's position-route row checks every state.
_C2_SEEDS = (GaussianParams(0.5, 1.0), GaussianParams(1.0, 1.0 + 1.0j),
             GaussianParams(1.3 + 0.5j, -0.3 + 2.0j), GaussianParams(0.6, 2.0j))
_CIRCLE_SEED = GaussianParams(1.0, np.sqrt(6.0) + 2.0j)
_CIRCLE_ORDERS = (10, 15, 20)
_WIGNER_SEED = GaussianParams(1.0, np.sqrt(2.0) * (1 + 1j))


def suite_gaussian(seed: int = DEFAULT_SEED):
    avals = (0.3, 0.85, 1.4, 2.0)
    bvals = (3.0, 3.0j, -3.0, 2.1 + 2.1j, 0.5 - 0.5j)
    thetas = np.array([2.0 * np.pi * float(frac) for frac in
                       sorted({Fraction(k, n) for n in range(2, 9) for k in range(1, n)})])
    base = [GaussianParams(ar + 1j * ai, b) for ar in avals for ai in avals for b in bvals]
    seeds = np.array([gaussian_to_fock(p, 64).amplitudes for p in base])
    quad, _ = _quadrature_rows(base, 64)
    worst_route = float(np.abs(seeds - [q.amplitudes for q in quad]).max())
    # all (seed, theta) pairs: rotated-parameter embeddings against Fock rotations
    a_t, b_t = _rotated_exponents(np.array([[p.a] for p in base]),
                                  np.array([[p.b] for p in base]), thetas)
    overlaps = np.einsum("sm,tm,stm->st", seeds.conj(), _rotation_phases(thetas, 64).conj(),
                         _embedding_rows(a_t, b_t, 64))
    worst = float((1.0 - np.abs(overlaps) ** 2).max())
    x = np.linspace(-6.0, 6.0, 241)
    worst_position = 0.0
    for params, spec, n_max in (
            [(p, CyclicSpec(2, lam), 80) for p in _C2_SEEDS for lam in (1, 2)]
            + [(_CIRCLE_SEED, CyclicSpec(n, 1), 64) for n in _CIRCLE_ORDERS]
            + [(_WIGNER_SEED, CyclicSpec(3, 1), 64)]):
        state, record = cyclic_gaussian(params, spec, n_max)
        direct = cyclic_gaussian_wavefunction(params, spec, x, record.n_lambda)
        worst_position = max(worst_position, float(np.abs(
            direct - fock_wavefunction(state, x)).max()))
    # squeezed seeds centred far out (<x> = 18.75 and 66.7)
    worst_moments = 0.0
    for params, n_max in ((GaussianParams(0.8 + 0.2j, 30.0 - 12.0j), 1400),
                          (GaussianParams(0.15 + 0.1j, 20.0 + 25.0j), 3000)):
        embedded, closed = quadrature_means(gaussian_to_fock(params, n_max)), moments(params)
        worst_moments = max(worst_moments, abs(embedded.mean_x - closed.mean_x),
                            abs(embedded.mean_p - closed.mean_p))
    return [
        _row("gaussian", "rotation commutation",
             "Fock-space rotation matches the rotated-parameter embedding "
             "over a (Re a, Im a) in [0.3,2]^2, |b| <= 3, theta = 2 pi k/n grid",
             worst, 1e-8),
        _row("gaussian", "embedding route agreement",
             "the three-term recurrence matches adaptive trapezoid "
             "quadrature (sup norm) on the 80 base seeds at n_max = 64",
             worst_route, 1e-10),
        _row("gaussian", "position route",
             "the c2, circle and wigner suites' cyclic Gaussian states match "
             "the rotated-parameter position sum on [-6, 6]",
             worst_position, 1e-6),
        _row("gaussian", "large displacement",
             "the embedding's <x>, <p> match the closed-form moments for two "
             "squeezed seeds far from the origin (n_max 1400, 3000)",
             worst_moments, 1e-10),
    ]


def suite_c2(seed: int = DEFAULT_SEED):
    x = np.linspace(-5.0, 5.0, 201)
    nodes, w_eff = np.linspace(-12.0, 12.0, 401), _trapezoid_weights(-12.0, 12.0, 401)
    worst_match = worst_orth = worst_norm = 0.0
    for params in _C2_SEEDS:
        closed = {}
        for lam in (1, 2):
            state, _ = cyclic_gaussian(params, CyclicSpec(2, lam), 80)
            closed[lam] = c2_closed_form(params, lam, x)
            gap = np.abs(fock_wavefunction(state, x) - closed[lam]).max()
            worst_match = max(worst_match, float(gap))
            on_nodes = c2_closed_form(params, lam, nodes)
            nrm = np.sum(w_eff * np.abs(on_nodes) ** 2)
            worst_norm = max(worst_norm, abs(float(nrm) - 1.0))
        ov = np.sum(w_eff * np.conj(c2_closed_form(params, 1, nodes))
                    * c2_closed_form(params, 2, nodes))
        worst_orth = max(worst_orth, abs(complex(ov)))
    return [
        _row("c2", "closed form",
             "order-2 states match the even/odd closed-form wavefunctions on [-5,5]",
             worst_match, 1e-6),
        _row("c2", "orthogonality",
             "the two closed-form states are orthogonal by quadrature",
             worst_orth, 1e-10),
        _row("c2", "normalization",
             "closed-form states are unit norm by quadrature",
             worst_norm, 1e-10),
    ]


_MANDEL_AXIS = np.linspace(-3.0, 3.0, 41)


def _mandel_scan(a: float) -> np.ndarray:
    """M_Q of the odd C_2 sector over the 41x41 (Re b, Im b) grid; NaN at
    the excluded origin (b = 0 is outside the seed family).

    The 1680 seeds run through one batched recurrence. The odd-class mask
    is applied to |A_m|^2 without renormalizing, since M_Q is scale-free.
    """
    b = _MANDEL_AXIS[:, None] + 1j * _MANDEL_AXIS[None, :]
    keep = b != 0.0
    rows = _embedding_rows(a, b[keep], 64)
    out = np.full(b.shape, np.nan)
    out[keep] = _fano(np.abs(rows) ** 2 * sector_mask(64, 2, 2))
    return out


def suite_mandel(seed: int = DEFAULT_SEED):
    out = []
    scans = {}
    for a in (0.25, 0.5, 1.0):
        scans[a] = _mandel_scan(a)
        out.append(_row("mandel", f"subpoissonian a={a}",
                        "the odd order-2 Gaussian scan reaches M_Q < 1",
                        float(np.nanmin(scans[a])), 1.0, strict=True))
    probe = ([3, 10, 30, 40, 21], [7, 21, 5, 40, 20])
    again = _mandel_scan(1.0)[probe]
    worst = 0.0
    for i, j, scanned in zip(*probe, scans[1.0][probe]):
        seed_f = gaussian_to_fock(
            GaussianParams(1.0, _MANDEL_AXIS[i] + 1j * _MANDEL_AXIS[j]), 64)
        single = mandel(cyclic_erasure(seed_f, CyclicSpec(2, 2)))
        worst = max(worst, abs(single - scanned) / abs(single))
    out.append(_row("mandel", "determinism",
                    "recomputed scan points are bit-identical",
                    float(np.abs(again - scans[1.0][probe]).max()), 0.0))
    out.append(_row("mandel", "scan route",
                    "the batched scan matches gaussian_to_fock -> "
                    "cyclic_erasure -> mandel at the probe points (relative)",
                    worst, 1e-12))
    return out


def suite_circle(seed: int = DEFAULT_SEED):
    vacuum = basis_state(0, 64)
    fids = [fidelity(cyclic_gaussian(_CIRCLE_SEED, CyclicSpec(n, 1), 64)[0], vacuum)
            for n in _CIRCLE_ORDERS]
    increase = max(fids[0] - fids[1], fids[1] - fids[2])
    seed_f = gaussian_to_fock(_CIRCLE_SEED, 64)
    worst_quad = max(circle_limit_quadrature_gap(seed_f, lam) for lam in (1, 2, 3))
    exact = 1.0 - fidelity(circle_limit(seed_f, 3), basis_state(2, 64))
    return [
        _row("circle", "fidelity growth",
             "vacuum fidelity strictly increases over orders 10, 15, 20",
             increase, 0.0, strict=True),
        _row("circle", "quadrature route",
             "angle-averaged quadrature matches the analytic limit",
             worst_quad, 1e-10),
        _row("circle", "number-state limit",
             "the analytic limit is exactly the basis state |lam-1>",
             exact, 1e-14),
    ]


def suite_entangle(seed: int = DEFAULT_SEED):
    rng = np.random.default_rng(seed)
    worst_pair = worst_gram = worst_bound = 0.0
    for n in (2, 3, 4):
        # 50 specs drawn in turn, then each stacked route over the whole stack
        # and the dense oracle once per spec
        draws = [(rng.standard_normal(n) + 1j * rng.standard_normal(n),
                  _random_amplitudes(rng), _random_amplitudes(rng)) for _ in range(50)]
        c, a1, a2 = (np.array(rows) for rows in zip(*draws))
        w1, w2 = _class_masses(a1, n), _class_masses(a2, n)
        c = _unit_coefficients(c, w1, w2)
        dec, _ = _linear_entropies(_sector_matrix(c, w1, w2))
        orc = np.array([linear_entropy_oracle(BipartiteSpec(
            n, c_k, from_amplitudes(a1_k), from_amplitudes(a2_k)))
            for c_k, a1_k, a2_k in zip(c, a1, a2)])
        worst_pair = max(worst_pair, float(np.abs(dec - orc).max()))
        worst_gram = max(worst_gram, float(np.abs(_gram_entropies(c, a1, a2) - orc).max()))
        worst_bound = max(worst_bound, float(dec.max()) - (1.0 - 1.0 / n),
                          -float(dec.min()))
    worst_prod = 0.0
    for n in (2, 3, 4):
        c = np.zeros(n, dtype=complex)
        c[int(rng.integers(0, n))] = 1.0 + 0.5j
        spec = bipartite_normalize(BipartiteSpec(
            n, c, _random_state(rng), _random_state(rng)))
        worst_prod = max(worst_prod, abs(linear_entropy(spec).s_linear),
                         abs(linear_entropy_oracle(spec)))
    branch = bipartite_normalize(BipartiteSpec(
        2, np.ones(2, dtype=complex), coherent(3.0, 64), coherent(3.0, 64)))
    two_branch = abs(linear_entropy(branch).s_linear - 0.5)
    shifted = BipartiteSpec(2, branch.c * np.exp(0.7j), branch.seed_1,
                            branch.seed_2)
    phase_gap = abs(linear_entropy(shifted).s_linear
                    - linear_entropy(branch).s_linear)
    return [
        _row("entangle", "oracle agreement",
             "sector decomposition matches the dense partial trace, "
             "150 random specs, n in {2,3,4}", worst_pair, 1e-8),
        _row("entangle", "gram route",
             "Gram matrices of the rotated copies match the dense partial "
             "trace on the same 150 specs", worst_gram, 1e-12),
        _row("entangle", "product state",
             "a single branch gives zero linear entropy", worst_prod, 1e-12),
        _row("entangle", "two-branch limit",
             "equal coherent branches at alpha = 3 give S_L near 1/2",
             two_branch, 1e-3),
        _row("entangle", "phase invariance",
             "a global phase on the coefficients leaves S_L unchanged",
             phase_gap, 1e-10),
        _row("entangle", "rank bound",
             "0 <= S_L <= 1 - 1/n on every spec", worst_bound, 1e-10),
    ]


def suite_inverse(seed: int = DEFAULT_SEED):
    rng = np.random.default_rng(seed)
    worst = 0.0
    for n in range(2, 7):
        amps = _random_stack(rng, 20)
        states, _, n_lambda = _superpositions(amps, n, range(1, n + 1))
        rec = _reconstructions(states, n_lambda, n, np.arange(1, n + 1))
        worst = max(worst, float(np.abs(rec - _rotated_copies(amps, n)).max()))
    return [_row("inverse", "seed recovery",
                 "weighted sector sums reproduce every rotated seed, n <= 6",
                 worst, 1e-10)]


def suite_wigner(seed: int = DEFAULT_SEED):
    rng = np.random.default_rng(seed)
    out = []

    worst = 0.0
    for _ in range(2):
        state = _random_state(rng, 16)
        grid = wigner(state, (-5.0, 5.0), points_per_axis=41)
        direct = wigner_direct(state, grid.x_axis, grid.p_axis)
        worst = max(worst, np.abs(grid.values - direct).max())
    out.append(_row("wigner", "kernel vs integral",
                    "Hermite-Gauss grid matches the defining integral on a "
                    "41x41 grid at n_max = 16", worst, 1e-8))

    axis = np.linspace(-6.0, 6.0, 61)
    grid = wigner(coherent(5.0, 300), (-6.0, 6.0), points_per_axis=61)
    closed = np.exp(-(axis[:, None] - 5.0 * np.sqrt(2.0)) ** 2
                    - axis[None, :] ** 2) / np.pi
    out.append(_row("wigner", "large n_max",
                    "coherent(5) at n_max = 300 matches the closed-form "
                    "Gaussian on the +-6, 61x61 grid",
                    float(np.abs(grid.values - closed).max()), 1e-10))

    centre = 11.5 * np.sqrt(2.0)
    grid = wigner(coherent(11.5, 400), (centre - 6.0, centre + 6.0), (-6.0, 6.0),
                  points_per_axis=11)
    closed = np.exp(-(grid.x_axis[:, None] - centre) ** 2 - grid.p_axis[None, :] ** 2) / np.pi
    out.append(_row("wigner", "large support",
                    "coherent(11.5) at n_max = 400, support m* = 302 (K = 605 "
                    "nodes), matches the closed-form Gaussian on an 11x11 grid",
                    float(np.abs(grid.values - closed).max()), 1e-10))

    c3, _ = cyclic_gaussian(_WIGNER_SEED, CyclicSpec(3, 1), 64)
    errs = [wigner_normalization_error(wigner(c3, (-9.0, 9.0), points_per_axis=k))
            for k in (21, 41, 81)]
    out.append(_row("wigner", "normalization refinement",
                    "grid-quadrature mass error decreases under refinement",
                    max(errs[1] - errs[0], errs[2] - errs[1]), 0.0, strict=True))
    out.append(_row("wigner", "normalization",
                    "the finest grid integrates to 1", errs[2], 1e-8))

    # W of a C_3 state is invariant under the geometric rotation by 2 pi / 3
    grid = wigner(c3, (-5.0, 5.0), points_per_axis=31)
    xs, ps = np.meshgrid(grid.x_axis, grid.p_axis, indexing="ij")
    c, s = np.cos(2.0 * np.pi / 3.0), np.sin(2.0 * np.pi / 3.0)
    rot_res = float(np.abs(wigner_points(c3, c * xs - s * ps, s * xs + c * ps)
                           - grid.values).max())
    refl_res = wigner_reflection_residual(c3)
    out.append(_row("wigner", "threefold symmetry",
                    "the order-3 Gaussian state's Wigner function is invariant "
                    "under phase-space rotation by 2 pi/3",
                    rot_res, 1e-8))
    out.append(_row("wigner", "inversion asymmetry",
                    "its reflection asymmetry exceeds 10x the rotation residual",
                    10.0 * rot_res - refl_res, 0.0, strict=True))

    seed_f = gaussian_to_fock(GaussianParams(1.0, 1.0 + 1.0j), 64)
    worst = 0.0
    for lam in (1, 2, 3):
        for variant in ("sum", "difference"):
            try:
                gamma, _ = dihedral_state(seed_f, CyclicSpec(3, lam), variant)
            except EmptyRepresentationError:
                continue
            worst = max(worst, wigner_reflection_residual(gamma))
    out.append(_row("wigner", "dihedral reflection",
                    "order-3 dihedral states are reflection invariant",
                    worst, 1e-8))

    state = _random_state(rng, 32)
    th = 0.7
    xs, ps = np.meshgrid(np.linspace(-4, 4, 31), np.linspace(-4, 4, 31))
    xs, ps = xs.ravel(), ps.ravel()
    c, s = np.cos(th), np.sin(th)
    gap = np.abs(wigner_points(rotate(state, th), xs, ps)
                 - wigner_points(state, c * xs - s * ps, s * xs + c * ps)).max()
    out.append(_row("wigner", "rotation covariance",
                    "rotating the state rotates its Wigner function",
                    float(gap), 1e-8))
    return out


def suite_coherent(seed: int = DEFAULT_SEED):
    worst_leak = 0.0
    alpha = 1.3 + 0.4j
    for n in (2, 3, 5):
        for lam in range(1, n + 1):
            psi, _ = cyclic_superposition(coherent(alpha, 64), CyclicSpec(n, lam))
            shifted, new_lam = annihilation_irrep_shift(psi, CyclicSpec(n, lam))
            off = _off_class(shifted.amplitudes, n, new_lam)
            expected = lam - 1 if lam >= 2 else n
            if new_lam != expected:
                off = 1.0
            worst_leak = max(worst_leak, float(off))

    worst_strict = -np.inf
    worst_rel = -np.inf
    for n, lam in ((2, 1), (3, 2)):
        vals = []
        for n_max in (32, 64, 128):
            psi = cyclic_erasure(coherent(1.0, n_max), CyclicSpec(n, lam))
            an = psi
            for _ in range(n):
                an = annihilate(an)
            vals.append(float(np.linalg.norm(an.amplitudes - psi.amplitudes)))
        worst_strict = max(worst_strict, vals[1] - vals[0])
        worst_rel = max(worst_rel, (vals[2] - vals[1]) / vals[1])
    return [
        _row("coherent", "irrep shift",
             "annihilation moves lam to lam-1 (1 wraps to n) with no leakage",
             worst_leak, 1e-14),
        _row("coherent", "eigenresidual 32 to 64",
             "the n-fold annihilation residual strictly drops from n_max 32 to 64",
             worst_strict, 0.0, strict=True),
        _row("coherent", "eigenresidual 64 to 128",
             "and does not grow from 64 to 128 (relative)",
             worst_rel, 1e-12),
    ]


SUITES = {
    "characters": suite_characters,
    "orthonormality": suite_orthonormality,
    "erasure": suite_erasure,
    "rotation": suite_rotation,
    "density": suite_density,
    "gaussian": suite_gaussian,
    "c2": suite_c2,
    "mandel": suite_mandel,
    "circle": suite_circle,
    "entangle": suite_entangle,
    "inverse": suite_inverse,
    "wigner": suite_wigner,
    "coherent": suite_coherent,
}


def run_suites(names=None, seed: int = DEFAULT_SEED) -> list[CheckRow]:
    if names is None:
        names = list(SUITES)
    rows = []
    for name in names:
        if name not in SUITES:
            raise KeyError(f"unknown suite {name!r}; choose from {sorted(SUITES)}")
        rows.extend(SUITES[name](seed=seed))
    return rows


def format_report(rows: list[CheckRow], timestamp: bool = True) -> str:
    headers = ("suite", "check", "property", "residual", "tolerance", "status")
    table = [(r.suite, r.name, r.prop, f"{r.residual:.3e}",
              f"{r.tolerance:.1e}", "pass" if r.passed else "FAIL")
             for r in rows]
    widths = [max(len(h), *(len(t[i]) for t in table)) if table else len(h)
              for i, h in enumerate(headers)]
    lines = []
    if timestamp:
        lines.append(f"generated {datetime.now(timezone.utc).isoformat()}")
    lines.append("  ".join(h.ljust(w) for h, w in zip(headers, widths)))
    lines.append("  ".join("-" * w for w in widths))
    for t in table:
        lines.append("  ".join(c.ljust(w) for c, w in zip(t, widths)))
    failed = sum(1 for r in rows if not r.passed)
    lines.append(f"{len(rows) - failed}/{len(rows)} checks passed")
    return "\n".join(lines) + "\n"
