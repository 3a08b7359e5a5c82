import io
import json

import mpmath
import numpy as np
import pytest

from polystate.cyclic import CyclicSpec, _superpositions, cyclic_superposition
import polystate.fock as fock
import polystate.observables as observables
from polystate.cli import main
from polystate.fock import (_rotated_copies, basis_state, coherent, from_amplitudes,
                            residue_class_masses, rotate, vector_from_dict)
from polystate.group import theta
from polystate.observables import (
    BipartiteSpec,
    _digit_tables,
    _e12_fields,
    _fano,
    _reconstructions,
    MemoryGuardError,
    WignerGrid,
    bipartite_normalize,
    linear_entropy,
    linear_entropy_gram,
    linear_entropy_oracle,
    mandel,
    wigner,
    wigner_direct,
    wigner_normalization_error,
    wigner_points,
    wigner_reflection_residual,
    write_wigner_csv,
)

INV_PI = 1.0 / np.pi


def random_state(rng, n_max):
    amps = rng.standard_normal(n_max + 1) + 1j * rng.standard_normal(n_max + 1)
    amps /= np.linalg.norm(amps)
    return from_amplitudes(amps)


# ---- Wigner function ----

def test_wigner_vacuum_origin():
    assert wigner_points(basis_state(0, 32), 0.0, 0.0)[0] == pytest.approx(
        INV_PI, abs=1e-12)


def test_wigner_one_photon_origin():
    assert wigner_points(basis_state(1, 32), 0.0, 0.0)[0] == pytest.approx(
        -INV_PI, abs=1e-12)


def test_wigner_vacuum_closed_form():
    xs = np.array([0.0, 0.5, -1.0, 2.0])
    ps = np.array([0.0, -0.5, 1.5, 0.3])
    expected = np.exp(-(xs ** 2 + ps ** 2)) / np.pi
    np.testing.assert_allclose(wigner_points(basis_state(0, 32), xs, ps),
                               expected, atol=1e-12)


def test_wigner_coherent_closed_form():
    alpha = 1.3
    st = coherent(alpha, 48)
    xs = np.array([0.0, 1.0, np.sqrt(2) * alpha])
    ps = np.array([0.2, -0.4, 0.0])
    expected = np.exp(-((xs - np.sqrt(2) * alpha) ** 2 + ps ** 2)) / np.pi
    np.testing.assert_allclose(wigner_points(st, xs, ps), expected, atol=1e-10)


def laguerre_sum_wigner(amps, x, p, dps=50):
    """W(x, p) by the number-basis double sum, Laguerre values in mpmath.

    W = (1/pi) Re sum_{d>=0} (2 - [d=0]) e^{i d arg z} sum_m conj(A_m) A_{m+d}
    lam_{m,d}, z = sqrt(2)(x - ip), y = |z|^2, with the bounded real factors
    lam_{m,d} = (-1)^m sqrt(m!/(m+d)!) y^{d/2} e^{-y/2} L_m^d(y) from the
    three-term Laguerre recurrence at dps digits (Cahill & Glauber, Phys.
    Rev. 177, 1857 (1969)). Only the cancelling Laguerre sums need the extra
    digits; the amplitude products are summed in double precision.
    """
    amps = np.asarray(amps, dtype=complex)
    n = amps.size
    total = 0j
    with mpmath.workdps(dps):
        y = 2 * (mpmath.mpf(x) ** 2 + mpmath.mpf(p) ** 2)
        root = [mpmath.sqrt(k) for k in range(2 * n)]
        damp = mpmath.exp(-y / 2)
        lead = damp  # sqrt(1/d!) y^{d/2} e^{-y/2}, advanced with d
        for d in range(n):
            lam = np.empty(n - d)
            prev, cur, scale = mpmath.mpf(0), mpmath.mpf(1), lead
            for m in range(n - d):
                lam[m] = float((-1) ** m * scale * cur)
                prev, cur = cur, ((2 * m + 1 + d - y) * cur - (m + d) * prev) / (m + 1)
                scale = scale * root[m + 1] / root[m + d + 1]
            inner = np.sum(np.conj(amps[:n - d]) * amps[d:] * lam)
            total += (1 if d == 0 else 2) * np.exp(-1j * d * np.arctan2(p, x)) * inner
            lead = lead * mpmath.sqrt(y) / root[d + 1]
    return total.real / np.pi


def coherent_sum_wigner(weights, betas, x, p):
    """Closed-form W of sum_r weights[r] |betas[r]>, normalized: Gaussian
    cross terms (1/pi) <b_s|b_r> e^{-2 (xi - b_r)(xi* - b_s*)}, xi = (x+ip)/sqrt2,
    each taken in log space."""
    xi = (np.asarray(x) + 1j * np.asarray(p)) / np.sqrt(2.0)
    total = 0.0
    norm = 0.0
    for wr, br in zip(weights, betas):
        for ws, bs in zip(weights, betas):
            log_overlap = -abs(br) ** 2 / 2 - abs(bs) ** 2 / 2 + np.conj(bs) * br
            norm += (np.conj(ws) * wr * np.exp(log_overlap)).real
            total = total + np.conj(ws) * wr * np.exp(
                log_overlap - 2 * (xi - br) * (np.conj(xi) - np.conj(bs)))
    return total.real / (np.pi * norm)


@pytest.mark.parametrize("n_max, points", [(64, 5), (300, 3)])
def test_wigner_matches_laguerre_double_sum(n_max, points):
    rng = np.random.default_rng(n_max)
    st = random_state(rng, n_max)
    xs, ps = rng.uniform(-4.0, 4.0, (2, points))
    got = wigner_points(st, xs, ps)
    want = [laguerre_sum_wigner(st.amplitudes, x, p) for x, p in zip(xs, ps)]
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)


@pytest.mark.parametrize("alpha, n_max, x_min, points", [
    (5.0, 300, -6.0, 61), (5.0, 600, -6.0, 61),
    # support m* = 42: K = 85 < 201 x, the Gauss rows
    (1.5 + 0.5j, 1024, -6.0, 201),
    # support m* = 302: K = 605 > 201 x, the rows at x
    (11.5, 400, 10.26, 201)], ids=["300", "600", "1024", "400"])
def test_wigner_coherent_large_n_max(tmp_path, alpha, n_max, x_min, points):
    # through the CLI, every written value is the closed form's; coherent(5)
    # at n_max 300 gave 120 NaN values under the old kernel
    state_path, csv_path = tmp_path / "state.json", tmp_path / "w.csv"
    argv = ["build", "--coherent", alpha.real, alpha.imag, "--order", 1, "--irrep", 1,
            "--n-max", n_max, "--output", state_path]
    assert main([str(a) for a in argv]) == 0
    argv = ["wigner", "--input", state_path, "--points", points,
            f"--x-min={x_min}", f"--x-max={x_min + 12.0}", "--output", csv_path]
    assert main([str(a) for a in argv]) == 0
    x, p, w = np.loadtxt(csv_path, delimiter=",", skiprows=1, unpack=True)
    assert w.size == points ** 2
    np.testing.assert_allclose(w, coherent_sum_wigner([1.0], [alpha], x, p),
                               rtol=0, atol=1e-10)


def _node_sizes(monkeypatch):
    """The list of every n_max (K = 2 n_max + 1) the kernel passes to
    _wigner_nodes from now on."""
    sizes = []
    nodes = observables._wigner_nodes
    monkeypatch.setattr(observables, "_wigner_nodes",
                        lambda n_max: sizes.append(n_max) or nodes(n_max))
    return sizes


def test_wigner_coherent_and_cat_at_n_max_1024(monkeypatch):
    # the support of coherent(20) ends at m* = 678 of 1024: K = 1357 nodes
    sizes = _node_sizes(monkeypatch)
    alpha = 20.0
    centre = np.sqrt(2.0) * alpha
    st = coherent(alpha, 1024)
    amps = st.amplitudes + coherent(-alpha, 1024).amplitudes
    cat = from_amplitudes(amps / np.linalg.norm(amps))
    cases = (
        (st, [1.0], [alpha], (centre - 4, centre + 4), (-4.0, 4.0)),
        (cat, [1.0, 1.0], [alpha, -alpha], (centre - 4, centre + 4), (-4.0, 4.0)),
        (cat, [1.0, 1.0], [alpha, -alpha], (-1.0, 1.0), (-1.0, 1.0)),  # fringes
    )
    for state, weights, betas, x_range, p_range in cases:
        grid = wigner(state, x_range, p_range, points_per_axis=17)
        x, p = np.meshgrid(grid.x_axis, grid.p_axis, indexing="ij")
        assert np.isfinite(grid.values).all()
        np.testing.assert_allclose(
            grid.values, coherent_sum_wigner(weights, betas, x, p),
            rtol=0, atol=1e-10)
    assert sizes == [678] * 3 and 2 * min(sizes) + 1 >= 1201


def test_wigner_grid_equals_points():
    rng = np.random.default_rng(3)
    for n_max in (16, 64, 300):
        st = random_state(rng, n_max)
        grid = wigner(st, (-5.0, 4.0), (-3.0, 6.0), points_per_axis=41)
        x, p = np.meshgrid(grid.x_axis, grid.p_axis, indexing="ij")
        np.testing.assert_allclose(wigner_points(st, x, p), grid.values,
                                   rtol=0, atol=1e-15)


def test_wigner_points_scattered():
    # more points than the 16384 / K that one pass of the old kernel took
    rng = np.random.default_rng(17)
    st = random_state(rng, 16)
    xs, ps = rng.uniform(-4.0, 4.0, (2, 150))
    want = [laguerre_sum_wigner(st.amplitudes, x, p) for x, p in zip(xs, ps)]
    np.testing.assert_allclose(wigner_points(st, xs, ps), want, rtol=0, atol=1e-13)
    st = random_state(rng, 300)
    grid = wigner(st, (-4.0, 4.0), points_per_axis=41)
    i, j = rng.integers(0, 41, (2, 200))  # grid nodes in no grid order
    np.testing.assert_allclose(wigner_points(st, grid.x_axis[i], grid.p_axis[j]),
                               grid.values[i, j], rtol=0, atol=1e-15)


def test_wigner_points_runs_the_node_recurrence_once(monkeypatch):
    # each kernel call runs the recurrence once for the Newton step and forms
    # one Hermite table (nodes, sqrt(2) p and, beyond K distinct x, sqrt(2) x),
    # whatever the number of points: up to K distinct x the rows at x (K
    # wavefunction values per x), beyond that the K Gauss rows (K (K + 1) / 2)
    from polystate import observables

    calls = {"nodes": 0, "tables": 0, "psi": 0}

    def counted(key, fn, size=False):
        def wrapper(*args):
            calls[key] += np.size(args[1]) if size else 1
            return fn(*args)
        return wrapper

    monkeypatch.setattr(observables, "_hermite_rows",
                        counted("nodes", observables._hermite_rows))
    monkeypatch.setattr(observables, "hermite_functions",
                        counted("tables", observables.hermite_functions))
    monkeypatch.setattr(observables, "fock_wavefunction",
                        counted("psi", observables.fock_wavefunction, size=True))
    for n_max, points, want in (
            # rows at x
            (64, 1, {"nodes": 1, "tables": 1, "psi": 129}),
            (64, 129, {"nodes": 1, "tables": 1, "psi": 129 * 129}),
            # the Gauss rows, at K = 151 and beyond on the same node route
            (64, 130, {"nodes": 1, "tables": 1, "psi": 129 * 130 // 2}),
            (64, 1000, {"nodes": 1, "tables": 1, "psi": 129 * 130 // 2}),
            (75, 1000, {"nodes": 1, "tables": 1, "psi": 151 * 152 // 2}),
            (128, 1000, {"nodes": 1, "tables": 1, "psi": 257 * 258 // 2})):
        st = random_state(np.random.default_rng(6), n_max)
        calls.update(nodes=0, tables=0, psi=0)
        xs, ps = np.random.default_rng(points).uniform(-3.0, 3.0, (2, points))
        wigner_points(st, xs, ps)
        assert calls == want, (n_max, points)


def test_wigner_eigvalsh_nodes_match_roots_hermite():
    from scipy.special import roots_hermite

    # K = 1 ... 149 (scipy's small-K route) and 257 ... 2049 (its asymptotic one)
    for n_max in [*range(75), 128, 300, 600, 1024]:
        t = observables._wigner_nodes(n_max)
        want, _ = roots_hermite(2 * n_max + 1)
        np.testing.assert_allclose(t, want, rtol=1e-13, atol=1e-13)


def test_wigner_nodes_match_mpmath_at_151():
    # the positive nodes of h_151, Newton-polished from float starts at 32
    # digits; roots_hermite(151), unpolished, is 1.0e-14 off them
    k = 151
    t = observables._wigner_nodes(k // 2)
    with mpmath.workdps(32):
        for got in t[k // 2 + 1:]:
            root = mpmath.mpf(got)
            for _ in range(2):
                below, last = mpmath.mpf(0), mpmath.pi ** -0.25 * mpmath.exp(-root ** 2 / 2)
                for m in range(k):
                    below, last = last, (mpmath.sqrt(mpmath.mpf(2) / (m + 1)) * root * last
                                         - mpmath.sqrt(mpmath.mpf(m) / (m + 1)) * below)
                root -= last / (mpmath.sqrt(2 * k) * below)
            assert abs(got - root) <= 6e-15, (got, root)


@pytest.mark.parametrize("n_max, tol", [
    (0, 1e-13), (1, 1e-13), (16, 1e-13), (74, 1e-13), (75, 1e-13),
    # roots_hermite's unpolished nodes hold it only to 1.5e-13 at K = 601
    (300, 1e-13), (600, 1e-13),
])
def test_wigner_nodes_are_an_orthonormal_rule_of_2n_plus_1(n_max, tol, monkeypatch):
    # sum_a w_a h_j(t_a) h_k(t_a) = delta_jk over exactly K = 2 n_max + 1 nodes,
    # with the weights the kernel reads from its table at a full-support state
    from polystate.gaussian import hermite_functions

    rules = []
    weighted = observables._weighted_products
    monkeypatch.setattr(observables, "_weighted_products",
                        lambda state, x, t, w: rules.append((t, w)) or weighted(state, x, t, w))
    wigner_points(random_state(np.random.default_rng(n_max), n_max), 0.3, -0.2)
    (t, w), = rules
    assert t.shape == w.shape == (2 * n_max + 1,)
    np.testing.assert_array_equal(t, -t[::-1])
    g = hermite_functions(t.size - 1, t)
    np.testing.assert_allclose((g * w) @ g.T, np.eye(t.size), rtol=0, atol=tol)


def _branch_values(state, x, p):
    """W on the x by p grid by the rows at x, in runs of at most K x, and by
    the Gauss rows, with x padded past K points."""
    k = 2 * observables._support_cut(state).n_max + 1
    at_x = np.concatenate([observables._wigner_kernel(state, x[i:i + k], p, np.matmul)
                           for i in range(0, x.size, k)])
    padded = np.concatenate([x, np.linspace(-1.0, 1.0, k + 1)])
    gauss = observables._wigner_kernel(state, padded, p, np.matmul)[:x.size]
    return at_x, gauss


def _uncut_values(state, x, p):
    """W on the x by p grid through the kernel at K = 2 n_max + 1, without
    the support cut."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(observables, "_support_cut", lambda cut: cut)
        return observables._wigner_kernel(state, x, p, np.matmul)


def test_wigner_full_support_is_not_cut():
    # random states reach n_max: the kernel runs K = 2 n_max + 1, bit for bit
    # (41 rows: the Gauss rows at n_max 16, the rows at x above)
    rng = np.random.default_rng(22)
    for n_max in (16, 64, 300):
        st = random_state(rng, n_max)
        assert observables._support_cut(st) is st
        grid = wigner(st, (-5.0, 4.0), (-3.0, 6.0), points_per_axis=41)
        np.testing.assert_array_equal(
            grid.values, _uncut_values(st, grid.x_axis, grid.p_axis))


@pytest.mark.parametrize("alpha, n_max, support", [
    (1.5 + 0.5j, 1024, 42), (5.0, 300, 111), (2.0, 64, 50), (-3.0j, 128, 68)])
def test_wigner_support_cut_matches_the_uncut_grid(alpha, n_max, support):
    st = coherent(alpha, n_max)
    cut = observables._support_cut(st)
    assert cut.n_max == support
    np.testing.assert_array_equal(cut.amplitudes, st.amplitudes[:support + 1])
    grid = wigner(st, (-6.0, 6.0), points_per_axis=41)
    np.testing.assert_allclose(grid.values, _uncut_values(st, grid.x_axis, grid.p_axis),
                               rtol=0, atol=1e-15)


def test_wigner_vacuum_at_n_max_64_runs_one_node(monkeypatch):
    sizes = _node_sizes(monkeypatch)
    grid = wigner(basis_state(0, 64), (-4.0, 4.0), points_per_axis=31)
    assert sizes == [0]  # m* = 0, K = 1
    x, p = np.meshgrid(grid.x_axis, grid.p_axis, indexing="ij")
    np.testing.assert_allclose(grid.values, np.exp(-x ** 2 - p ** 2) / np.pi,
                               rtol=1e-14, atol=1e-17)


def test_wigner_support_cut_threshold():
    # a last amplitude of relative norm just above 2^-60 is kept, one just
    # below it is cut, and so are the exact zeros before it; exact trailing
    # zeros are cut at any size
    for factor, support in ((1.0 + 1e-9, 10), (1.0 - 1e-9, 0)):
        amps = np.zeros(11, dtype=complex)
        amps[0], amps[10] = 1.0, 2.0 ** -60 * factor
        st = from_amplitudes(amps)
        assert observables._support_cut(st).n_max == support, factor
    for scale in (1.0, 1e-200, 1e200):
        st = from_amplitudes(scale * basis_state(3, 64).amplitudes)
        assert observables._support_cut(st).n_max == 3
    # the dropped tail moves W by far less than rounding
    amps = coherent(1.0, 40).amplitudes.copy()
    amps[-1] = 2.0 ** -61
    st = from_amplitudes(amps)
    assert observables._support_cut(st).n_max < 40
    xs, ps = np.random.default_rng(9).uniform(-3.0, 3.0, (2, 50))
    np.testing.assert_allclose(wigner_points(st, xs, ps),
                               coherent_sum_wigner([1.0], [1.0], xs, ps), rtol=0, atol=1e-15)


@pytest.mark.filterwarnings("error")
def test_wigner_points_are_exact_zeros_far_out():
    # far-field Hermite rows are exact zeros: W there is 0, not NaN, on
    # both branches (4 distinct x, then 204 of them, more than K)
    st = coherent(1.0, 64)
    far = np.array([1e300, -1e300, 1e100, 1e50])
    np.testing.assert_array_equal(wigner_points(st, far, np.zeros(4)), 0.0)
    np.testing.assert_array_equal(wigner_points(st, np.zeros(4), far), 0.0)
    xs = np.concatenate([far, np.linspace(-3.0, 3.0, 200)])
    ps = np.full(xs.size, 0.4)
    got = wigner_points(st, xs, ps)
    np.testing.assert_array_equal(got[:far.size], 0.0)
    want = coherent_sum_wigner([1.0], [1.0], xs[far.size:], ps[far.size:])
    np.testing.assert_allclose(got[far.size:], want, rtol=0, atol=1e-14)


def test_wigner_zero_state_exits_one_with_one_line(tmp_path, capsys):
    # the zero vector passes the cut unchanged and fails the finite check
    assert observables._support_cut(from_amplitudes(np.zeros(65))).n_max == 64
    src = tmp_path / "zero.json"
    src.write_text(json.dumps({"n_max": 64, "amplitudes": [[0.0, 0.0]] * 65}))
    assert main(["wigner", "--input", str(src), "--points", "5",
                 "--output", str(tmp_path / "w.csv")]) == 1
    out = capsys.readouterr()
    assert out.out == "" and out.err.count("\n") == 1
    assert out.err.startswith("error: Wigner grid: 25 of 25 values are not finite")
    assert not (tmp_path / "w.csv").exists()


@pytest.mark.parametrize("n_max", [0, 1, 7, 16, 40, 74])
def test_wigner_gauss_rows_match_the_rows_at_x(n_max):
    # a state of norm 1.7: the rows carry 1/|psi|^2 and the row map must not
    st = random_state(np.random.default_rng(n_max + 40), n_max)
    st = from_amplitudes(1.7 * st.amplitudes)
    k = 2 * n_max + 1
    p = np.linspace(-4.0, 4.5, 23)
    for lo, hi in ((-6.0, 6.0), (5.0, 9.0), (-30.0, 30.0), (-0.01, 0.01), (-2.0, -1.0)):
        for count in (max(2, k // 2), max(2, k), k + 1, 3 * k):  # both sides of x.size > K
            at_x, gauss = _branch_values(st, np.linspace(lo, hi, count), p)
            assert np.abs(gauss - at_x).max() <= 2e-14 * np.abs(at_x).max(), (lo, hi, count)


@pytest.mark.parametrize("n_max, alpha, weights", [
    (128, 3.0, [1.0]), (128, 3.0, [1.0, 1.0]), (300, 5.0, [1.0, 1.0])],
    ids=["coherent-128", "cat-128", "cat-300"])
def test_wigner_both_branches_match_the_closed_form_beyond_k_rows(n_max, alpha, weights):
    # K + 50 distinct x at K = 257 and 601: through roots_hermite's unpolished
    # nodes the Gauss rows of a cat at n_max 600 were 1.4e-13 off
    betas = [alpha, -alpha][:len(weights)]
    amps = sum(w * coherent(b, n_max).amplitudes for w, b in zip(weights, betas))
    state = from_amplitudes(amps / np.linalg.norm(amps))
    edge = np.sqrt(2.0) * alpha + 6.0
    x = np.linspace(-edge, edge, 2 * n_max + 51)
    p = np.linspace(-4.0, 4.0, 9)
    want = coherent_sum_wigner(weights, betas, x[:, None], p)
    for got in _branch_values(state, x, p):
        np.testing.assert_allclose(got, want, rtol=0, atol=2e-14)


def test_package_runs_without_scipy(tmp_path):
    # the package needs numpy alone: in one interpreter where any scipy
    # import raises, the kernel runs on both branches on either side of
    # K = 151; build --gaussian, build --coherent, wigner, mandel, entangle
    # and circle-limit run through cli.main; and so do the gaussian, c2 and
    # wigner verify suites, whose quadrature oracles once took scipy's nodes
    import subprocess
    import sys

    code = ("import sys\n"
            "sys.modules['scipy'] = None\n"
            "import json\n"
            "import numpy as np\n"
            "from polystate.cli import main\n"
            "from polystate.fock import vector_to_dict\n"
            "from polystate.gaussian import GaussianParams, gaussian_to_fock\n"
            "from polystate.observables import wigner, wigner_points\n"
            "tmp = sys.argv[1]\n"
            "seed = GaussianParams(0.5, np.sqrt(2.0))\n"
            "for n_max in (0, 16, 74, 75, 128):\n"
            "    state = gaussian_to_fock(seed, n_max)\n"
            "    wigner(state, points_per_axis=41)\n"
            "    wigner_points(state, np.linspace(-3, 3, 400), np.zeros(400))\n"
            "gauss = ['--gaussian', '0.8', '0.3', '1.0', '-0.5', '--n-max', '16']\n"
            "assert main(['build', *gauss, '--order', '3', '--irrep', '2',\n"
            "             '--output', f'{tmp}/c3_16.json']) == 0\n"
            "assert main(['wigner', '--input', f'{tmp}/c3_16.json', '--points', '201',\n"
            "             '--output', f'{tmp}/c3_16.csv']) == 0\n"
            "assert main(['mandel', '--input', f'{tmp}/c3_16.json',\n"
            "             '--output', f'{tmp}/mandel.txt']) == 0\n"
            "seed_16 = vector_to_dict(gaussian_to_fock(seed, 16))\n"
            "spec = {'n': 3, 'c': [[1.0, 0.0]] * 3, 'seed_1': seed_16, 'seed_2': seed_16}\n"
            "open(f'{tmp}/spec.json', 'w').write(json.dumps(spec))\n"
            "assert main(['entangle', '--input', f'{tmp}/spec.json',\n"
            "             '--output', f'{tmp}/e.json']) == 0\n"
            "assert main(['circle-limit', *gauss, '--irrep', '2',\n"
            "             '--output', f'{tmp}/limit.json']) == 0\n"
            "assert main(['build', '--coherent', '1.7', '0.9', '--order', '3',\n"
            "             '--irrep', '2', '--output', f'{tmp}/c3_coherent.json']) == 0\n"
            "for suite in ('gaussian', 'c2', 'wigner'):\n"
            "    assert main(['verify', '--suite', suite, '--no-timestamp',\n"
            "                 '--output', f'{tmp}/verify_{suite}.txt']) == 0\n"
            "print(sorted(m for m, mod in sys.modules.items()\n"
            "             if m.startswith('scipy') and mod is not None))\n")
    proc = subprocess.run([sys.executable, "-c", code, str(tmp_path)],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip().splitlines()[-1] == "[]"
    assert len((tmp_path / "c3_16.csv").read_text().splitlines()) == 1 + 201 ** 2


def test_wigner_normalizes_the_state():
    # on both sides of K = 49 distinct x: rows at x and Gauss rows
    st = random_state(np.random.default_rng(4), 24)
    scaled = from_amplitudes(3.0 * st.amplitudes)
    for points in (11, 61):
        np.testing.assert_allclose(wigner(scaled, points_per_axis=points).values,
                                   wigner(st, points_per_axis=points).values,
                                   rtol=0, atol=1e-14)
    xs, ps = np.random.default_rng(5).uniform(-3.0, 3.0, (2, 100))
    for x, p in ((0.3, -0.2), (xs, ps)):
        np.testing.assert_allclose(wigner_points(scaled, x, p),
                                   wigner_points(st, x, p), rtol=0, atol=1e-14)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("scale", [1e-160, 1e-170, 1e160, 1e200, 1e170, 1e-300, 1e300])
def test_wigner_reads_a_ray_at_any_scale(scale):
    # sum |A_m|^2 underflows or overflows: the kernel reads the state's kept
    # ray, so the grid on both sides of K = 33 distinct x, scattered points
    # and the reflection residual are the unit state's (NaN before)
    seed = coherent(1.2 + 0.3j, 16)
    scaled = fock.FockVector(16, scale * seed.amplitudes)
    for points in (11, 61):
        np.testing.assert_allclose(wigner(scaled, points_per_axis=points).values,
                                   wigner(seed, points_per_axis=points).values,
                                   rtol=0, atol=1e-15)
    xs, ps = np.random.default_rng(6).uniform(-3.0, 3.0, (2, 100))
    np.testing.assert_allclose(wigner_points(scaled, xs, ps), wigner_points(seed, xs, ps),
                               rtol=0, atol=1e-15)
    assert wigner_reflection_residual(scaled) == pytest.approx(
        wigner_reflection_residual(seed), rel=0, abs=1e-15)


def test_wigner_lower_bound():
    cat, _ = cyclic_superposition(coherent(2.0, 64), CyclicSpec(3, 1))
    grid = wigner(cat, (-4.0, 4.0), points_per_axis=81)
    assert grid.values.min() >= -INV_PI - 1e-9


def test_wigner_kernel_matches_direct_quadrature():
    st = random_state(np.random.default_rng(11), 12)
    for x, p in ((0.0, 0.0), (0.7, -0.3), (-1.5, 2.2), (2.5, 0.1)):
        kernel = wigner_points(st, x, p)[0]
        direct = wigner_direct(st, x, p)
        assert abs(kernel - direct) < 1e-9


def test_wigner_direct_matches_kernel_at_n_max_64():
    # the trapezoid rule's window and step follow n_max, |x| and |p|
    st = random_state(np.random.default_rng(13), 64)
    grid = wigner(st, (-6.0, 6.0), (-4.0, 7.0), points_per_axis=31)
    direct = wigner_direct(st, grid.x_axis, grid.p_axis)
    np.testing.assert_allclose(direct, grid.values, rtol=0, atol=1e-13)


def test_wigner_direct_grid():
    st = random_state(np.random.default_rng(12), 12)
    grid = wigner(st, (-3.0, 3.5), (-2.0, 4.0), points_per_axis=9)
    direct = wigner_direct(st, grid.x_axis, grid.p_axis)
    assert direct.shape == (9, 9)
    np.testing.assert_allclose(direct, grid.values, rtol=0, atol=1e-12)
    for i, j in ((0, 0), (3, 7), (8, 2)):
        scalar = wigner_direct(st, grid.x_axis[i], grid.p_axis[j])
        assert scalar.shape == ()
        assert abs(float(scalar) - direct[i, j]) < 1e-12


def test_wigner_rotation_covariance():
    st = random_state(np.random.default_rng(5), 20)
    th = 0.7
    c, s = np.cos(th), np.sin(th)
    xs = np.array([0.3, -1.1, 2.0, 0.0])
    ps = np.array([0.9, 0.4, -1.5, 0.0])
    base = wigner_points(st, xs, ps)
    moved = wigner_points(rotate(st, th), c * xs + s * ps, -s * xs + c * ps)
    np.testing.assert_allclose(moved, base, atol=1e-10)


def _threefold_residual(state):
    """max |W(R_{2 pi/3}(x, p)) - W(x, p)| over the 31^2 grid on [-5, 5]^2,
    rotating the points, not the state, as verify's threefold row does."""
    grid = wigner(state, (-5.0, 5.0), points_per_axis=31)
    xs, ps = np.meshgrid(grid.x_axis, grid.p_axis, indexing="ij")
    c, s = np.cos(2.0 * np.pi / 3.0), np.sin(2.0 * np.pi / 3.0)
    return np.abs(wigner_points(state, c * xs - s * ps, s * xs + c * ps)
                  - grid.values).max()


def test_wigner_threefold_symmetry_sector_state():
    cat, _ = cyclic_superposition(coherent(2.0, 64), CyclicSpec(3, 2))
    assert _threefold_residual(cat) < 1e-10
    # the unsymmetrised seed is not invariant
    assert _threefold_residual(coherent(2.0, 64)) > 1e-2


def test_wigner_threefold_symmetry_cyclic_gaussian():
    from polystate.gaussian import GaussianParams, cyclic_gaussian
    st, _ = cyclic_gaussian(GaussianParams(1.0, np.sqrt(2) * (1 + 1j)),
                            CyclicSpec(3, 1), 64)
    assert _threefold_residual(st) < 1e-8


def test_wigner_reflection_residual():
    even, _ = cyclic_superposition(coherent(1.5, 64), CyclicSpec(2, 1))
    assert wigner_reflection_residual(even) < 1e-13
    # a rotated coherent state breaks p -> -p symmetry
    tilted = rotate(coherent(1.5, 64), 0.7)
    assert wigner_reflection_residual(tilted) > 1e-3


def test_wigner_reflection_residual_is_one_grid(monkeypatch):
    # one kernel call; W(x, -p) read from the reversed columns matches
    # max |W(x, -p) - W(x, p)| evaluated point by point on [-5, 5]^2
    from polystate import observables

    calls = []
    kernel = observables._wigner_kernel
    monkeypatch.setattr(observables, "_wigner_kernel",
                        lambda *args: calls.append(1) or kernel(*args))
    st = random_state(np.random.default_rng(9), 24)
    residual = wigner_reflection_residual(st)
    assert len(calls) == 1
    xs, ps = np.meshgrid(np.linspace(-5.0, 5.0, 61), np.linspace(-5.0, 5.0, 61))
    want = np.abs(wigner_points(st, xs, -ps) - wigner_points(st, xs, ps)).max()
    assert residual > 1e-2
    assert residual == pytest.approx(want, rel=0, abs=1e-14)


def test_wigner_grid_layout():
    st = coherent(1.0, 32)
    grid = wigner(st, (-2.0, 3.0), (-1.0, 4.0), points_per_axis=6)
    assert grid.values.shape == (6, 6)
    x_ax, p_ax = grid.x_axis, grid.p_axis
    for i, j in ((0, 0), (2, 4), (5, 1)):
        pointwise = wigner_points(st, x_ax[i], p_ax[j])[0]
        assert grid.values[i, j] == pytest.approx(pointwise, abs=1e-14)


def test_wigner_grid_validation():
    vals = np.zeros((3, 3))
    with pytest.raises(ValueError):
        WignerGrid(1.0, -1.0, -1.0, 1.0, 3, vals)
    with pytest.raises(ValueError):
        WignerGrid(-1.0, 1.0, -1.0, 1.0, 1, np.zeros((1, 1)))
    with pytest.raises(ValueError):
        WignerGrid(-1.0, 1.0, -1.0, 1.0, 3, np.zeros((3, 4)))
    grid = WignerGrid(-1.0, 1.0, -1.0, 1.0, 3, vals)
    with pytest.raises(ValueError):
        grid.values[0, 0] = 1.0


def test_wigner_normalization_vacuum():
    grid = wigner(basis_state(0, 16), (-6.0, 6.0), points_per_axis=61)
    assert wigner_normalization_error(grid) < 1e-8


def test_wigner_csv_format():
    grid = wigner(basis_state(0, 8), (-1.0, 1.0), points_per_axis=3)
    buf = io.StringIO()
    write_wigner_csv(grid, buf)
    lines = buf.getvalue().splitlines()
    assert lines[0] == "x,p,w"
    assert len(lines) == 1 + 9
    rows = [line.split(",") for line in lines[1:]]
    assert all(len(row) == 3 for row in rows)
    # x varies fastest within each p block
    assert float(rows[0][0]) == -1.0 and float(rows[1][0]) == 0.0
    assert float(rows[0][1]) == float(rows[1][1]) == -1.0
    assert float(rows[3][1]) == 0.0
    for (sx, sp, sw), (i, j) in zip(rows, [(i, j) for j in range(3)
                                           for i in range(3)]):
        assert sx == f"{grid.x_axis[i]:.12e}"
        assert sp == f"{grid.p_axis[j]:.12e}"
        assert sw == f"{grid.values[i, j]:.12e}"


def _template_csv(grid):
    """The CSV text by one Python format per point: a template of the x
    column per p-row, filled by str.replace for p and % for the W values."""
    text = ["x,p,w\n"]
    row = "".join(f"{x:.12e},{{p}},%.12e\n" for x in grid.x_axis.tolist())
    for j, pv in enumerate(grid.p_axis.tolist()):
        text.append(row.replace("{p}", f"{pv:.12e}")
                    % tuple(grid.values[:, j].tolist()))
    return "".join(text)


def _csv(grid):
    buf = io.StringIO()
    write_wigner_csv(grid, buf)
    return buf.getvalue()


def _e12_text(values):
    fields = _e12_fields(np.asarray(values, dtype=float), _digit_tables())
    return fields.T.tobytes().translate(None, b"\0").decode("ascii")


def _python_text(values):
    return "".join(f"{v:.12e}\n" for v in values)


def test_e12_fields_match_python_on_log_uniform_values():
    rng = np.random.default_rng(41)
    v = 10.0 ** rng.uniform(-300.0, 300.0, 200_000) * rng.choice([-1.0, 1.0], 200_000)
    assert _e12_text(v) == _python_text(v.tolist())


def test_e12_fields_carry_and_exponent_width():
    v = [9.99999999999996, -9.9999999999995, 0.99999999999995,
         9.9999999999996e99, 9.9999999999996e-100, 9.99999999999996e-101,
         9.999999999999e99, 1e99, 1e100, -1e-99, 1e-100, 1e-101, 1e101,
         1e22, 1e23, 1e-22, 1e-23, 1e-290, 1e290, 123.0, 0.1]
    text = _e12_text(v)
    assert text == _python_text(v)
    lines = text.splitlines()
    assert lines[:6] == ["1.000000000000e+01", "-1.000000000000e+01",
                         "1.000000000000e+00", "1.000000000000e+100",
                         "1.000000000000e-99", "1.000000000000e-100"]


def test_e12_fields_leave_half_way_mantissas_to_python(monkeypatch):
    # these mantissas lie within the margin of a half-integer, where the
    # array rounding cannot settle the digit: two computed ties (Python
    # rounds the first down, the second up) and two 3e-3 away from one
    seen = []
    python_fields = observables._python_fields

    def spy(values, end):
        seen.extend(values.tolist())
        return python_fields(values, end)

    monkeypatch.setattr(observables, "_python_fields", spy)
    near = [1.2345678901235, 7.0000000000005e-3, 1.234567890123503, -1.234567890123497]
    v = [0.25, near[0], -3.5, near[1], near[2], 2.0 ** -30, near[3]]
    assert _e12_text(v) == _python_text(v)
    assert seen == near
    assert f"{1.2345678901235:.12e}" == "1.234567890123e+00"


def test_e12_fields_leave_decade_edges_to_python(monkeypatch):
    # just below a power of ten, 10^k (1 - c 1e-14) prints as 1.000000000000e+k:
    # its m is just below 1e12 or rounds up to 1e13, so Python formats it;
    # the ulps around each power, on either side, print as Python's too
    seen = []
    python_fields = observables._python_fields

    def spy(values, end):
        seen.extend(values.tolist())
        return python_fields(values, end)

    monkeypatch.setattr(observables, "_python_fields", spy)
    powers = 10.0 ** np.arange(-289, 290)
    edges = np.outer(powers, 1 - 1e-14 * np.array([0.5, 1.0, 2.0, 3.0, 4.0])).ravel()
    ulps = np.concatenate([np.nextafter(powers, 0), powers, np.nextafter(powers, np.inf)])
    for sign in (1.0, -1.0):
        v = sign * np.concatenate([edges, ulps])
        assert _e12_text(v) == _python_text(v.tolist())
        assert set((sign * edges).tolist()) <= set(seen)
        assert all(f"{x:.12e}".startswith(("1.000000000000e", "-1.000000000000e"))
                   for x in edges.tolist())


def test_wigner_csv_special_values():
    # zeros, subnormals, huge, non-finite and out-of-range values all go
    # through Python's formatter; exponents of 2 and 3 digits on the axes
    v = np.resize([0.0, -0.0, 5e-324, -5e-324, 1e-310, 1e308, -1e308, np.nan,
                   np.inf, -np.inf, 1e-295, -1e295, 0.25, -0.5, 1e-100,
                   -9.9999999999996e99], (4, 4))
    grid = WignerGrid(-2.0, 3.0, -1e-120, 1e120, 4, v)
    text = _csv(grid)
    assert text == _template_csv(grid)
    assert "nan" in text and "-inf" in text and "-0.000000000000e+00" in text


def test_wigner_csv_blocks_agree(monkeypatch):
    grid = wigner(coherent(1.2 + 0.7j, 24), (-4.0, 4.0), points_per_axis=37)
    one_block = _csv(grid)
    assert one_block == _template_csv(grid)
    for lines in (100, 10):  # 2 p-rows per block, and 1 when a row is longer
        monkeypatch.setattr(observables, "_CSV_BLOCK", lines)
        assert _csv(grid) == one_block


@pytest.mark.parametrize("seed", [
    ["--coherent", 1.7, 0.9, "--order", 2, "--irrep", 1],
    ["--coherent", 1.7, 0.9, "--order", 3, "--irrep", 2],
    ["--coherent", -1.2, 1.6, "--order", 3, "--irrep", 2, "--method", "superposition"],
    ["--coherent", 0.3, -2.2, "--order", 4, "--irrep", 4],
    ["--coherent", 2.0, 0.4, "--order", 5, "--irrep", 3, "--method", "superposition"],
    ["--coherent", -1.5, -1.1, "--order", 6, "--irrep", 1],
    ["--gaussian", 0.9, 0.2, 1.1, -0.8, "--order", 3, "--irrep", 1,
     "--method", "superposition"],
    ["--gaussian", 0.7, -0.1, -0.6, 1.3, "--order", 4, "--irrep", 2,
     "--method", "superposition", "--n-max", 128],
    ["--coherent", 1.6, 0.8, "--group", "D", "--order", 3, "--irrep", 2],
], ids=["C2", "C3-erasure", "C3", "C4", "C5", "C6", "gauss-C3", "gauss-C4-128", "D3"])
def test_wigner_cli_grid_matches_template(tmp_path, seed):
    # the 201 x 201 grids of the phase-space benchmark round, written by the
    # CLI, byte for byte the per-point template of the same grid
    state_path, csv_path = tmp_path / "state.json", tmp_path / "w.csv"
    argv = ["build", "--n-max", 64, *seed, "--output", state_path]
    assert main([str(a) for a in argv]) == 0
    assert main(["wigner", "--input", str(state_path), "--output", str(csv_path)]) == 0
    state = vector_from_dict(json.loads(state_path.read_text()))
    grid = wigner(state, (-6.0, 6.0), (-6.0, 6.0), 201)
    assert csv_path.read_text() == _template_csv(grid)


# ---- Mandel parameter ----

def test_mandel_number_states():
    for k in (1, 2, 5):
        assert abs(mandel(basis_state(k, 16))) < 1e-12


def test_mandel_coherent_poissonian():
    assert mandel(coherent(2.0, 64)) == pytest.approx(1.0, abs=1e-10)


def test_mandel_vacuum_undefined():
    with pytest.raises(ValueError):
        mandel(basis_state(0, 8))


def test_mandel_zero_state_undefined():
    with pytest.raises(ValueError, match="zero vector"):
        mandel(from_amplitudes(np.zeros(9)))


def test_mandel_is_the_fano_formula():
    # mandel keeps the bits of its literal formula, and the row helper
    # gives each row's value at any scale
    rng = np.random.default_rng(17)
    rows = []
    for n_max in (1, 2, 16, 64, 300):
        for scale in (1e-150, 1.0, 1e150):
            amps = scale * random_state(rng, n_max).amplitudes
            p = np.abs(amps) ** 2
            q = p / p.sum()
            m = np.arange(p.size)
            nbar = float((m * q).sum())
            expected = (float((m * m * q).sum()) - nbar * nbar) / nbar
            assert mandel(from_amplitudes(amps)) == expected
            if n_max == 64:
                rows.append(p)
    np.testing.assert_allclose(_fano(np.array(rows)),
                               [mandel(from_amplitudes(np.sqrt(p))) for p in rows],
                               rtol=1e-14, atol=0)
    with pytest.raises(ValueError, match="vacuum"):
        _fano(np.array([[1.0, 2.0], [3.0, 0.0]]))


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("scale", [1e-160, 1e-170, 1e160, 1e200, 1e170, 1e-300, 1e300])
def test_mandel_reads_a_ray_at_any_scale(scale):
    # sum |A_m|^2 underflows or overflows: the weights are those of the
    # state's ray, so M_Q is the unit state's (0.998813 or NaN before)
    # and no |A_m|^2 overflows on the way
    seed = coherent(1.2 + 0.3j, 16)
    value = mandel(fock.FockVector(16, scale * seed.amplitudes))
    assert value == pytest.approx(mandel(seed), rel=1e-14)
    assert mandel(seed) == pytest.approx(0.99999999986, rel=1e-11)


def test_fano_one_row_matches_the_row_path():
    # the scalar path of one state against the same state as a 1-row stack
    rng = np.random.default_rng(29)
    for _ in range(1000):
        n_max = int(rng.integers(1, 301))
        amps = random_state(rng, n_max).amplitudes * 10.0 ** rng.uniform(-5.0, 5.0)
        p = np.abs(amps) ** 2
        one, row = _fano(p), _fano(p[None])
        assert np.ndim(one) == 0 and row.shape == (1,)
        np.testing.assert_array_max_ulp(one, row[0], maxulp=1)
    with pytest.raises(ValueError, match="zero vector"):
        _fano(np.zeros(5))
    with pytest.raises(ValueError, match="vacuum"):
        _fano(np.array([2.0, 0.0, 0.0]))


def test_mandel_cat_states_split():
    # even cat is superpoissonian, odd cat subpoissonian at small alpha
    even, _ = cyclic_superposition(coherent(0.8, 64), CyclicSpec(2, 1))
    odd, _ = cyclic_superposition(coherent(0.8, 64), CyclicSpec(2, 2))
    assert mandel(even) > 1.0
    assert mandel(odd) < 1.0


# ---- bipartite construction ----

def dense_joint(spec):
    t = np.zeros((spec.seed_1.n_max + 1, spec.seed_2.n_max + 1), dtype=complex)
    for r in range(1, spec.n + 1):
        a1 = rotate(spec.seed_1, theta(spec.n, r)).amplitudes
        a2 = rotate(spec.seed_2, theta(spec.n, r)).amplitudes
        t += spec.c[r - 1] * np.outer(a1, a2)
    return t


def test_bipartite_spec_validation():
    with pytest.raises(ValueError):
        BipartiteSpec(3, np.array([1.0, 0.0]), coherent(1.0, 16),
                      coherent(1.0, 16))


def hankel_norm_squared(spec):
    # ||Psi||^2 = sum |G|^2 over the sector matrix, which bipartite_normalize
    # divides c by the square root of
    g = observables._sector_matrix(spec.c, *observables._masses(spec))
    return float(observables._sum_sq(g))


def test_bipartite_norm_single_branch():
    spec = BipartiteSpec(1, np.array([1.0]), coherent(1.0, 32),
                         coherent(0.5, 32))
    assert hankel_norm_squared(spec) == pytest.approx(1.0, abs=1e-12)


def test_bipartite_norm_matches_dense():
    rng = np.random.default_rng(21)
    spec = BipartiteSpec(4, rng.standard_normal(4) + 1j * rng.standard_normal(4),
                         random_state(rng, 24), random_state(rng, 24))
    dense = float(np.sum(np.abs(dense_joint(spec)) ** 2))
    assert hankel_norm_squared(spec) == pytest.approx(dense, abs=1e-12)


def test_bipartite_normalize():
    rng = np.random.default_rng(8)
    spec = BipartiteSpec(3, np.array([1.0, 2.0, 0.5 + 1j]),
                         random_state(rng, 20), random_state(rng, 20))
    normed = bipartite_normalize(spec)
    assert hankel_norm_squared(normed) == pytest.approx(1.0, abs=1e-12)
    assert float(np.sum(np.abs(dense_joint(normed)) ** 2)) == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("scale", [1.0, 1e-60, 1e-100, 1e-160])
def test_bipartite_normalize_at_any_seed_scale(scale):
    # each seed is brought to unit scale by an exact power of two before
    # sum |G|^2 is formed, so it no longer underflows with w1 w2 (1e-100 per
    # seed raised "zero norm", 1e-77 moved S_L's last digits); a unit seed
    # is left as it is
    rng = np.random.default_rng(5)
    c = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    seeds = [coherent(1.2 + 0.3j, 24), coherent(0.7 - 0.9j, 24)]
    want = linear_entropy(bipartite_normalize(BipartiteSpec(4, c, *seeds)))
    spec = bipartite_normalize(BipartiteSpec(
        4, c, *(fock.FockVector(24, scale * s.amplitudes) for s in seeds)))
    assert hankel_norm_squared(spec) == pytest.approx(1.0, abs=1e-12)
    assert linear_entropy(spec).s_linear == pytest.approx(want.s_linear, rel=0, abs=1e-14)
    assert linear_entropy_gram(spec) == pytest.approx(want.s_linear, rel=0, abs=1e-14)
    if scale == 1.0:
        np.testing.assert_array_equal(spec.seed_1.amplitudes, seeds[0].amplitudes)
        np.testing.assert_array_equal(spec.seed_2.amplitudes, seeds[1].amplitudes)


def qubit_like_seed(n_max=16):
    # (|0> + |1>)/sqrt(2) maps to its orthogonal complement under R(pi)
    amps = np.zeros(n_max + 1, dtype=complex)
    amps[0] = amps[1] = 1.0 / np.sqrt(2.0)
    return from_amplitudes(amps)


def test_bipartite_normalize_orthogonal_branches():
    s = qubit_like_seed()
    spec = bipartite_normalize(BipartiteSpec(2, np.array([1.0, 1.0]), s, s))
    np.testing.assert_allclose(spec.c, np.full(2, 1 / np.sqrt(2)), atol=1e-12)


def test_bipartite_normalize_degenerate():
    vac = basis_state(0, 8)
    spec = BipartiteSpec(2, np.array([1.0, -1.0]), vac, vac)
    with pytest.raises(ValueError):
        bipartite_normalize(spec)


# ---- reconstruction ----

def _family(pairs):
    """The superposition route's (state, record) pairs as _reconstructions'
    stacked unit states and n_lambda."""
    return (np.array([state.amplitudes for state, _ in pairs]),
            np.array([record.n_lambda for _, record in pairs]))


def test_reconstruct_trivial_group():
    seed = coherent(1.0, 32)
    pairs = [cyclic_superposition(seed, CyclicSpec(1, 1))]
    out = _reconstructions(*_family(pairs), 1, [1])[0]
    assert np.abs(out - seed.amplitudes).max() < 1e-12


def test_reconstruct_coherent_branches():
    seed = coherent(1.2, 48)
    pairs = [cyclic_superposition(seed, CyclicSpec(2, lam)) for lam in (1, 2)]
    out = _reconstructions(*_family(pairs), 2, [1, 2])
    for r, row in enumerate(out, 1):
        target = rotate(seed, theta(2, r))
        assert np.abs(row - target.amplitudes).max() < 1e-10


def test_reconstruct_every_element():
    seed = random_state(np.random.default_rng(7), 40)
    pairs = [cyclic_superposition(seed, CyclicSpec(5, lam))
             for lam in range(1, 6)]
    out = _reconstructions(*_family(pairs), 5, np.arange(1, 6))
    for r, row in enumerate(out, 1):
        target = rotate(seed, theta(5, r))
        assert np.abs(row - target.amplitudes).max() < 1e-10


def test_reconstruct_stack_matches_one_r_calls():
    # every R(theta_r)|phi> of a stack of families from one weight product
    # against one family and one r at a time, from the public route's pairs
    amps = np.random.default_rng(11).normal(size=(4, 33, 2)) @ [1, 1j]
    amps /= np.linalg.norm(amps, axis=1, keepdims=True)
    for n in (1, 2, 5):
        states, _, n_lambda = _superpositions(amps, n, range(1, n + 1))
        rec = _reconstructions(states, n_lambda, n, np.arange(1, n + 1))
        assert rec.shape == (4, n, 33)
        for seed, rows in zip(amps, rec):
            family = _family([cyclic_superposition(from_amplitudes(seed), CyclicSpec(n, lam))
                              for lam in range(1, n + 1)])
            for r, row in enumerate(rows, 1):
                assert np.abs(row - _reconstructions(*family, n, [r])[0]).max() <= 1e-15
            np.testing.assert_allclose(rows, _rotated_copies(seed, n), rtol=0, atol=1e-14)


# ---- linear entropy ----

def hankel_sum(spec):
    """G = sum_r D_r, with the per-element sector matrices
    D_r[la, lb] = c_r sqrt(w1_la) sqrt(w2_lb) mu_n^(-r (la + lb - 2)), r = 1..n,
    summed term by term with the angles taken mod 2 pi."""
    n = spec.n
    w1 = residue_class_masses(spec.seed_1, n)
    w2 = residue_class_masses(spec.seed_2, n)
    g = np.zeros((n, n), dtype=complex)
    for r in range(1, n + 1):
        for la in range(1, n + 1):
            for lb in range(1, n + 1):
                angle = 2 * np.pi * ((r * (la + lb - 2)) % n) / n
                g[la - 1, lb - 1] += (spec.c[r - 1] * np.sqrt(w1[la - 1] * w2[lb - 1])
                                      * np.exp(-1j * angle))
    return g


def test_linear_entropy_product_state():
    spec = bipartite_normalize(BipartiteSpec(
        3, np.array([1.0, 0.0, 0.0]), coherent(1.0, 48), coherent(0.7, 48)))
    res = linear_entropy(spec)
    assert abs(res.s_linear) < 1e-10
    assert abs(linear_entropy_oracle(spec)) < 1e-10
    assert res.f_matrix.shape == (3, 3)
    g = hankel_sum(spec)
    assert np.abs(g @ g.conj().T - res.f_matrix).max() < 1e-14


def test_linear_entropy_bell_like():
    spec = bipartite_normalize(BipartiteSpec(
        2, np.array([1.0, 1.0]), coherent(3.0, 64), coherent(3.0, 64)))
    res = linear_entropy(spec)
    assert res.s_linear == pytest.approx(0.5, abs=1e-3)


def test_linear_entropy_rank_two_maximal():
    # two exactly orthogonal equal-weight branches: S_L = 1/2
    s = qubit_like_seed()
    spec = bipartite_normalize(BipartiteSpec(2, np.array([1.0, 1.0]), s, s))
    assert linear_entropy(spec).s_linear == pytest.approx(0.5, abs=1e-12)
    assert linear_entropy_oracle(spec) == pytest.approx(0.5, abs=1e-12)


def test_linear_entropy_phase_invariant():
    rng = np.random.default_rng(3)
    c = rng.standard_normal(3) + 1j * rng.standard_normal(3)
    s1, s2 = random_state(rng, 32), random_state(rng, 32)
    spec = bipartite_normalize(BipartiteSpec(3, c, s1, s2))
    shifted = BipartiteSpec(3, spec.c * np.exp(0.37j), s1, s2)
    assert linear_entropy(shifted).s_linear == pytest.approx(
        linear_entropy(spec).s_linear, abs=1e-12)


def test_linear_entropy_requires_normalization():
    spec = BipartiteSpec(2, np.array([5.0, 0.0]), coherent(1.0, 32),
                         coherent(1.0, 32))
    with pytest.raises(ValueError, match="normalize"):
        linear_entropy(spec)


def test_linear_entropy_matches_oracle():
    rng = np.random.default_rng(13)
    c = rng.standard_normal(3) + 1j * rng.standard_normal(3)
    spec = bipartite_normalize(BipartiteSpec(
        3, c, random_state(rng, 32), random_state(rng, 32)))
    res = linear_entropy(spec)
    assert abs(res.s_linear - linear_entropy_oracle(spec)) < 1e-10
    f = res.f_matrix
    assert np.abs(f - f.conj().T).max() < 1e-14
    assert np.trace(f).real == pytest.approx(1.0, abs=1e-10)


def test_linear_entropy_empty_sectors():
    # an even cat has no weight on odd photon numbers: half the C_4 sectors
    # are empty, and they drop out of the sector matrix
    amps = coherent(2.0, 64).amplitudes + coherent(-2.0, 64).amplitudes
    cat = from_amplitudes(amps / np.linalg.norm(amps))
    spec = bipartite_normalize(BipartiteSpec(4, np.ones(4), cat, cat))
    res = linear_entropy(spec)
    assert res.s_linear == pytest.approx(linear_entropy_oracle(spec), abs=1e-12)
    assert 0.1 < res.s_linear < 0.75
    g = hankel_sum(spec)
    assert np.abs(g @ g.conj().T - res.f_matrix).max() < 1e-14
    assert np.abs(res.f_matrix[1::2]).max() == 0.0


def test_oracle_memory_guard(monkeypatch):
    spec = bipartite_normalize(BipartiteSpec(
        2, np.array([1.0, 1.0]), coherent(1.0, 32), coherent(1.0, 32)))
    monkeypatch.setattr(observables, "_ORACLE_BUDGET", 100)
    with pytest.raises(MemoryGuardError, match="needs 1089 entries, budget is 100"):
        linear_entropy_oracle(spec)
    monkeypatch.setattr(observables, "_ORACLE_BUDGET", 33 * 33)
    assert linear_entropy_oracle(spec) == pytest.approx(
        linear_entropy_gram(spec), abs=1e-12)


@pytest.mark.parametrize("n_max", [64, 128, 300])
def test_linear_entropy_gram_matches_dense_trace(n_max):
    rng = np.random.default_rng(n_max)
    for n in (1, 2, 3, 5, 7, 16, 32):
        c = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        spec = bipartite_normalize(BipartiteSpec(
            n, c, random_state(rng, n_max), random_state(rng, n_max)))
        gram = linear_entropy_gram(spec)
        assert gram == pytest.approx(linear_entropy_oracle(spec), abs=1e-12)
        assert gram == pytest.approx(linear_entropy(spec).s_linear, abs=1e-12)


def test_linear_entropy_gram_beyond_the_memory_guard():
    # d1 d2 = 4097^2 exceeds the dense oracle's budget; the Gram route holds
    # only the n x d copies
    spec = bipartite_normalize(BipartiteSpec(
        2, np.array([1.0, 1.0]), coherent(1.0, 4096), coherent(1.0, 4096)))
    with pytest.raises(MemoryGuardError, match="budget"):
        linear_entropy_oracle(spec)
    assert linear_entropy_gram(spec) == pytest.approx(
        linear_entropy(spec).s_linear, abs=1e-12)


def _spec_stack(n, count=12, d1=33, d2=41, seed=0):
    # count specs of order n, drawn spec by spec: c, then the two seeds
    rng = np.random.default_rng(seed + n)
    specs = [BipartiteSpec(n, rng.standard_normal(n) + 1j * rng.standard_normal(n),
                           random_state(rng, d1 - 1), random_state(rng, d2 - 1))
             for _ in range(count)]
    return (specs, np.array([s.c for s in specs]),
            np.array([s.seed_1.amplitudes for s in specs]),
            np.array([s.seed_2.amplitudes for s in specs]))


@pytest.mark.parametrize("n", [1, 2, 3, 5, 16])
def test_entropy_stacks_match_one_spec_calls(n):
    # each stacked route, bit for bit against its one-spec public call: the
    # elementwise arithmetic is shared and each product is one BLAS call per
    # spec, batched or not
    specs, c, a1, a2 = _spec_stack(n)
    w1, w2 = fock._class_masses(a1, n), fock._class_masses(a2, n)
    unit = observables._unit_coefficients(c, w1, w2)
    normed = [bipartite_normalize(s) for s in specs]
    np.testing.assert_array_equal(unit, [s.c for s in normed])
    g = observables._sector_matrix(unit, w1, w2)
    assert g.shape == (12, n, n)
    s_linear, f = observables._linear_entropies(g)
    gram = observables._gram_entropies(unit, a1, a2)
    for k, spec in enumerate(normed):
        one = linear_entropy(spec)
        assert s_linear[k] == one.s_linear
        np.testing.assert_array_equal(f[k], one.f_matrix)
        assert gram[k] == linear_entropy_gram(spec)
    # rows scaled by 1e200 and 1e-200 are read as rays: each gives its unit row's S_L
    huge_tiny = observables._unit_coefficients(c * np.resize([1e200, 1e-200], (12, 1)), w1, w2)
    np.testing.assert_allclose(
        observables._linear_entropies(observables._sector_matrix(huge_tiny, w1, w2))[0],
        s_linear, rtol=0, atol=1e-15)


def test_entropy_stacks_raise_as_the_first_failing_spec():
    specs, c, a1, a2 = _spec_stack(3, count=5)
    w1, w2 = fock._class_masses(a1, 3), fock._class_masses(a2, 3)
    # zero-norm coefficients at specs 2 and 4: one-spec calls raise the same
    zero = c.copy()
    zero[[2, 4]] = 0.0
    with pytest.raises(ValueError) as one:
        bipartite_normalize(BipartiteSpec(3, zero[2], specs[2].seed_1, specs[2].seed_2))
    with pytest.raises(ValueError) as stacked:
        observables._unit_coefficients(zero, w1, w2)
    assert str(stacked.value) == str(one.value)
    # unnormalized specs 1 (scaled by 2) and 3 (by 3): spec 1's mass is named
    unit = observables._unit_coefficients(c, w1, w2)
    scaled = unit * np.array([1, 2, 1, 3, 1])[:, None]
    with pytest.raises(ValueError) as one:
        linear_entropy(BipartiteSpec(3, scaled[1], specs[1].seed_1, specs[1].seed_2))
    with pytest.raises(ValueError) as stacked:
        observables._linear_entropies(observables._sector_matrix(scaled, w1, w2))
    assert str(stacked.value) == str(one.value)
    assert "sector mass 4.000000" in str(one.value)
    # a joint matrix over budget: the oracle refuses before forming it
    big = BipartiteSpec(3, c[0], from_amplitudes(np.ones(5000)), from_amplitudes(np.ones(4000)))
    with pytest.raises(MemoryGuardError) as one:
        linear_entropy_oracle(big)
    assert str(one.value) == "joint amplitude matrix needs 20000000 entries, budget is 16777216"


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_unnormalized_entropy_check_does_not_overflow():
    # seeds held at 1e150 give a sector mass near 1e600: the check reads it
    # on the power-of-two scaled G, so it names that mass (it once squared
    # G, warned "overflow encountered in square" and reported inf)
    unit = coherent(1.2 + 0.3j, 30)
    huge = fock.FockVector(30, 1e150 * unit.amplitudes)
    with pytest.raises(ValueError, match=r"sector mass 2\.946295\)"):
        linear_entropy(BipartiteSpec(3, np.ones(3), unit, unit))
    with pytest.raises(ValueError, match=r"sector mass about 1e600\)"):
        linear_entropy(BipartiteSpec(3, np.ones(3), huge, huge))
    tiny = fock.FockVector(30, 1e-150 * unit.amplitudes)
    with pytest.raises(ValueError, match=r"sector mass 0\.000000\)"):
        linear_entropy(BipartiteSpec(3, np.ones(3), tiny, tiny))
    # normalized first, each gives the unit seeds' entropy
    want = linear_entropy(bipartite_normalize(BipartiteSpec(3, np.ones(3), unit, unit)))
    for seed in (huge, tiny):
        got = linear_entropy(bipartite_normalize(BipartiteSpec(3, np.ones(3), seed, seed)))
        assert got.s_linear == pytest.approx(want.s_linear, rel=0, abs=1e-15)
        np.testing.assert_allclose(got.f_matrix, want.f_matrix, rtol=0, atol=1e-15)
