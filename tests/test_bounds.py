import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from oracles import (
    FunctionJet,
    bound_core_matrix,
    bound_grid_pointwise,
    bound_vector_tensor,
    numerical_range_box,
    polygon_contains,
    random_diagonalizable,
    rational_apply,
    taylor_expm,
)
from ratmat.bounds import BoundQuery, bound_bilinear, bound_vector
from ratmat.experiment import ExperimentConfig, derive_poles
from ratmat.interp import NodeList, rational_interpolate_fixed_denominator
from ratmat.jets import ExpJet, FactoredPoly, ProductJet, VExpDerivative
from ratmat.linalg import EigenFactorization
from ratmat.rom import FinitePole, PoleSpec, build_krylov_basis, reduce


def _fac(rng, n, radius=1.0):
    A, S, ev, Sinv = random_diagonalizable(rng, n, radius=radius)
    return A, EigenFactorization(S, ev)


def test_core_matrix_vanishes_on_spectrum_nodes():
    rng = np.random.default_rng(127)
    A, fac = _fac(rng, 6)
    v = FactoredPoly([4.0], [1], 1.0)
    q = BoundQuery(fac, NodeList(fac.eigenvalues), v)
    core = bound_core_matrix(q, 0.5, complex(fac.eigenvalues[0]))
    assert np.abs(core).max() <= 1e-8


def test_core_matrix_scalar_case():
    a, z1 = 0.7 - 0.2j, 0.3
    q = BoundQuery(np.array([[a]]), NodeList([z1]), FactoredPoly((), (), 1.0))
    s = 0.4
    core = bound_core_matrix(q, s, z1)
    expected = (a - z1) * np.exp((1 - s) * z1 + s * a)
    assert abs(core[0, 0] - expected) <= 1e-12 * abs(expected)


def test_core_matrix_diagonal_factor_route():
    """Partial-fraction route equals S diag(h_i) S^-1 with hand-built h_i.

    With v = z - 3 and t = 1 the closed form collapses: (v e^z)''' = z e^z,
    so the per-eigenvalue factors need no library code at all.
    """
    rng = np.random.default_rng(131)
    A, S, ev, Sinv = random_diagonalizable(rng, 6, radius=1.0)
    fac = EigenFactorization(S, ev)
    nodes = NodeList(0.7 * (rng.standard_normal(3) + 1j * rng.standard_normal(3)))
    v = FactoredPoly([3.0], [1], 1.0)
    q = BoundQuery(fac, nodes, v, t=1.0)
    s, mu = 0.35, 0.2 + 0.1j
    core = bound_core_matrix(q, s, mu)
    ev = fac.eigenvalues
    omega = np.prod(ev[:, None] - nodes.nodes[None, :], axis=1)
    xi = (1 - s) * mu + s * ev
    h = omega / (ev - 3.0) * (xi * np.exp(xi)) / math.factorial(3)
    ref = (fac.S * h[None, :]) @ Sinv
    assert np.abs(core - ref).max() <= 1e-10 * max(1.0, np.abs(ref).max())


def test_bound_vector_scalar_closed_form():
    # 1x1 system: max over s of |(1-0) e^s| lands at s = 1
    q = BoundQuery(np.array([[1.0]]), NodeList([0.0]), FactoredPoly((), (), 1.0))
    res = bound_vector(q, [1.0])
    assert abs(res.value - math.e) <= 1e-12
    assert res.argmax_s == 1.0
    assert res.argmax_mu == 0.0
    assert res.n_mu == 1 and res.n_s == 11


def test_bound_vector_zero_when_nodes_are_spectrum():
    rng = np.random.default_rng(137)
    A, fac = _fac(rng, 5)
    q = BoundQuery(fac, NodeList(fac.eigenvalues), FactoredPoly([4.0], [1], 1.0))
    res = bound_vector(q, rng.standard_normal(5))
    assert res.value == 0.0


def test_bound_vector_dominates_true_error():
    """e1 from a refined grid is above the actual remainder norm."""
    rng = np.random.default_rng(139)
    for _ in range(5):
        A, fac = _fac(rng, 6)
        nodes = NodeList(0.8 * (rng.standard_normal(3) + 1j * rng.standard_normal(3)))
        v = FactoredPoly([3.5 + 0.5j], [1], 1.0)
        r = rational_interpolate_fixed_denominator(ExpJet(1.0), nodes, v)
        b = rng.standard_normal(6) + 1j * rng.standard_normal(6)
        err = np.linalg.norm(taylor_expm(A) @ b - rational_apply(r, A, b))
        q = BoundQuery(fac, nodes, v, s_samples=41, mu_samples=200)
        res = bound_vector(q, b)
        assert err <= res.value * 1.01


def test_bound_grid_refinement_stability():
    rng = np.random.default_rng(149)
    A, fac = _fac(rng, 6)
    nodes = NodeList(0.8 * (rng.standard_normal(4) + 1j * rng.standard_normal(4)))
    v = FactoredPoly([3.0], [1], 1.0)
    b = rng.standard_normal(6)
    coarse = bound_vector(BoundQuery(fac, nodes, v), b).value
    fine = bound_vector(BoundQuery(fac, nodes, v, s_samples=21, mu_samples=100), b).value
    assert fine >= coarse * (1.0 - 1e-6)


def test_bound_bilinear_orthogonal_output():
    """d orthogonal to the core's image sends the bilinear bound to zero."""
    rng = np.random.default_rng(151)
    A, S, ev, Sinv = random_diagonalizable(rng, 5, radius=1.0)
    fac = EigenFactorization(S, ev)
    # first node is an exact eigenvalue, so column 1 of the factor table dies
    nodes = NodeList([fac.eigenvalues[0], 0.3 + 0.1j, -0.2])
    v = FactoredPoly([4.0], [1], 1.0)
    q = BoundQuery(fac, nodes, v)
    b = rng.standard_normal(5) + 1j * rng.standard_normal(5)
    d = Sinv.conj().T[:, 0]
    ref = bound_vector(q, b).value
    res = bound_bilinear(q, b, d)
    assert res.value <= 1e-10 * max(1.0, ref * np.linalg.norm(d))


def test_bound_bilinear_scalar_closed_form_and_spectrum_nodes():
    q = BoundQuery(np.array([[1.0]]), NodeList([0.0]), FactoredPoly((), (), 1.0))
    assert abs(bound_bilinear(q, [1.0], [1.0]).value - math.e) <= 1e-12
    rng = np.random.default_rng(157)
    A, fac = _fac(rng, 4)
    q2 = BoundQuery(fac, NodeList(fac.eigenvalues), FactoredPoly([4.0], [1], 1.0))
    assert bound_bilinear(q2, rng.standard_normal(4), rng.standard_normal(4)).value == 0.0


def test_bound_norm_domination_chain():
    rng = np.random.default_rng(163)
    A, fac = _fac(rng, 6)
    nodes = NodeList(0.8 * (rng.standard_normal(3) + 1j * rng.standard_normal(3)))
    v = FactoredPoly([3.0 - 1.0j], [1], 1.0)
    q = BoundQuery(fac, nodes, v)
    b = rng.standard_normal(6) + 1j * rng.standard_normal(6)
    b /= np.linalg.norm(b)
    d = rng.standard_normal(6) + 1j * rng.standard_normal(6)
    vec = bound_vector(q, b).value
    bil = bound_bilinear(q, b, d).value
    assert bil <= vec * np.linalg.norm(d) * (1.0 + 1e-10)


def test_numerical_range_box_diagonal_example():
    A = np.diag([1.0j, -1.0j, 1.0])
    box = numerical_range_box(A)
    expected = np.array([-1.0j, 1.0 - 1.0j, 1.0 + 1.0j, 1.0j])
    assert box.size == 4
    assert np.abs(box - expected).max() <= 1e-9


def test_numerical_range_box_scalar_matrix():
    c = 0.4 - 0.8j
    box = numerical_range_box(c * np.eye(3))
    assert np.abs(box - c).max() <= 1e-10


def _polygon_area(verts):
    if verts.size < 3:
        return 0.0
    x, y = verts.real, verts.imag
    return 0.5 * abs(np.sum(x * np.roll(y, -1) - np.roll(x, -1) * y))


def test_numerical_range_box_more_angles_shrink():
    rng = np.random.default_rng(191)
    A = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
    base = numerical_range_box(A, (0.0, -np.pi / 2))
    more = numerical_range_box(A, (0.0, -np.pi / 2, -np.pi / 4, -3 * np.pi / 4))
    assert _polygon_area(more) <= _polygon_area(base) + 1e-12
    for z in np.linalg.eigvals(A):
        assert polygon_contains(more, complex(z), slack=1e-8)


def test_numerical_range_box_scaling_homogeneity():
    rng = np.random.default_rng(193)
    A = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
    alpha = 1.7 * np.exp(0.6j)
    angles = np.array([0.0, -np.pi / 2])
    box = numerical_range_box(A, angles)
    scaled = numerical_range_box(alpha * A, angles + 0.6)
    ref = alpha * box
    assert scaled.size == ref.size
    tol = 1e-10 * max(1.0, np.abs(ref).max())
    for z in ref:
        assert np.abs(scaled - z).min() <= tol


def test_numerical_range_box_empty_angles():
    with pytest.raises(ValueError):
        numerical_range_box(np.eye(2), ())


def test_bound_query_validation():
    A = np.diag([1.0, 2.0])
    with pytest.raises(ValueError, match="pole meets spectrum"):
        BoundQuery(A, NodeList([0.0]), FactoredPoly([1.0], [1], 1.0))
    with pytest.raises(ValueError, match="interpolation node"):
        BoundQuery(A, NodeList([0.0]), FactoredPoly([0.0], [1], 1.0))
    with pytest.raises(ValueError, match="^s_samples must be at least 2, got 1$"):
        BoundQuery(A, NodeList([0.0]), FactoredPoly((), (), 1.0), s_samples=1)
    with pytest.raises(ValueError, match="^mu_samples must be at least 1, got 0$"):
        BoundQuery(A, NodeList([0.0]), FactoredPoly((), (), 1.0), mu_samples=0)
    with pytest.raises(ValueError, match="^t must be a finite number, got nan$"):
        BoundQuery(A, NodeList([0.0]), FactoredPoly((), (), 1.0), t=math.nan)
    bad = EigenFactorization(np.diag([1.0, 1e-13]), [1.0, 2.0])
    with pytest.raises(ValueError, match="unusable"):
        BoundQuery(bad, NodeList([0.0]), FactoredPoly((), (), 1.0))


def test_bound_query_pole_near_spectrum_is_relative():
    A = np.diag([1.0, 2.0])
    with pytest.raises(ValueError, match="pole meets spectrum"):
        BoundQuery(A, NodeList([0.0]), FactoredPoly([1.0 + 1e-15], [1], 1.0))
    # the threshold scales with v, so a tiny scale alone is not a pole hit
    q = BoundQuery(A, NodeList([0.0]), FactoredPoly([1.5], [1], 1e-20))
    assert q.weights.shape == (2,)


def test_bound_vector_exp_route_matches_generic_jet():
    """e1 through the factored exp jet equals e1 through the Leibniz rule.

    A system as the experiment draws it: n = 48 with its spectrum in the
    default rectangle, the eight fitted poles, and the reduced spectrum as
    nodes.  The generic route is the Leibniz rule on v and e^z given as a
    FunctionJet, evaluated pointwise on the query's own grid points by the
    oracle.
    """
    rng = np.random.default_rng(331)
    config = ExperimentConfig(n=48, trials=1)
    poles = derive_poles(config)
    r = config.rectangle
    nu = (rng.uniform(r["re_min"], r["re_max"], config.n)
          + 1j * rng.uniform(r["im_min"], r["im_max"], config.n))
    S = (rng.uniform(-1.0, 1.0, (config.n, config.n))
         + 1j * rng.uniform(-1.0, 1.0, (config.n, config.n)))
    fac = EigenFactorization(S, nu)
    A = (S * nu) @ np.linalg.inv(S)
    b = rng.standard_normal(config.n) + 1j * rng.standard_normal(config.n)
    b /= np.linalg.norm(b)
    spec = PoleSpec(1, tuple(FinitePole(complex(p)) for p in poles))
    V, _ = build_krylov_basis(A, b, spec)
    model = reduce(A, b, V, spec=spec)
    v = spec.denominator()
    N = len(model.reduced_nodes)
    generic_jet = ProductJet(v, FunctionJet([np.exp] * (N + 1)))

    q = BoundQuery(fac, model.reduced_nodes, v)
    s = np.repeat(q.s_grid, q.mu_points.size)
    mu = np.tile(q.mu_points, q.s_grid.size)
    P = ((1.0 - s) * mu)[:, np.newaxis] + s[:, np.newaxis] * nu[np.newaxis, :]
    want = generic_jet.eval(P, N)[N]
    assert np.abs(q.vf_derivative(P) - want).max() <= 1e-9 * np.abs(want).max()

    fast = bound_vector(q, b)
    slow = BoundQuery(fac, model.reduced_nodes, v)
    slow.vf_derivative = lambda points: generic_jet.eval(points, N)[N]
    generic = bound_grid_pointwise(slow, b)
    assert len(poles) == 8 and N == 9
    assert abs(fast.value - generic.value) <= 1e-9 * generic.value
    assert (fast.argmax_s, fast.argmax_mu) == (generic.argmax_s, generic.argmax_mu)


def _reduced_system(rng, n, spec, re_min=-1.0):
    """Spectrum in [re_min, 0] x [-pi, pi], b and d, and the reduced
    spectrum of the spec's (one- or two-sided) reduction as nodes."""
    nu = rng.uniform(re_min, 0.0, n) + 1j * rng.uniform(-np.pi, np.pi, n)
    S = rng.uniform(-1.0, 1.0, (n, n)) + 1j * rng.uniform(-1.0, 1.0, (n, n))
    fac = EigenFactorization(S, nu)
    b = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    d = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    V, _ = build_krylov_basis(fac, b, spec, d=d)
    model = reduce(fac, b, V, d=d, spec=spec)
    return fac, b, d, model.reduced_nodes, spec.denominator()


def _factored_case(name):
    rng = np.random.default_rng(353)
    xp_spec = PoleSpec(1, tuple(FinitePole(complex(p))
                                for p in derive_poles(ExperimentConfig(n=128, trials=1))))
    if name == "xp-run-n128":
        return (*_reduced_system(rng, 128, xp_spec), 1.0)
    if name == "two-sided-double-pole":
        spec = PoleSpec(1, (FinitePole(-2.0 + 1.0j, 1, 1), FinitePole(-3.0 - 2.0j, 1, 0)),
                        chi0=1)
        assert spec.denominator().mults.tolist() == [2, 1]
        return (*_reduced_system(rng, 40, spec), 1.0)
    if name == "constant-v":
        fac, b, d, nodes, _ = _reduced_system(rng, 32, PoleSpec(4))
        return fac, b, d, nodes, FactoredPoly((), (), 2.5 - 0.5j), 1.0
    # spectrum reaching Re = -400 at t = 2: the shift sigma_s does the work
    return (*_reduced_system(rng, 96, xp_spec, re_min=-400.0), 2.0)


@pytest.mark.parametrize("grid", [(2, 1), (11, 50), (17, 73)])
@pytest.mark.parametrize("case", ["xp-run-n128", "two-sided-double-pole",
                                  "constant-v", "wide-spectrum-t2"])
def test_factored_grid_matches_pointwise_oracle(case, grid):
    """The factored tables give the pointwise grid's value and argmax."""
    fac, b, d, nodes, v, t = _factored_case(case)
    q = BoundQuery(fac, nodes, v, t=t, s_samples=grid[0], mu_samples=grid[1])
    if case == "xp-run-n128":
        assert len(nodes) == 9 and v.degree == 8
    for got, want in ((bound_vector(q, b), bound_grid_pointwise(q, b)),
                      (bound_bilinear(q, b, d), bound_grid_pointwise(q, b, d))):
        assert want.value > 0.0
        assert abs(got.value - want.value) <= 1e-12 * want.value
        assert (got.argmax_s, got.argmax_mu) == (want.argmax_s, want.argmax_mu)
        assert (got.n_s, got.n_mu) == (want.n_s, want.n_mu)


def _tensor_reference(q, b):
    """e1 from the R-tensor oracle, and the largest grid value below it."""
    values = bound_vector_tensor(q, b)
    runner_up = np.partition(values.ravel(), -2)[-2] if values.size > 1 else -np.inf
    return q._result(values), runner_up


@pytest.mark.parametrize("grid", [(2, 1), (11, 50), (17, 73)])
@pytest.mark.parametrize("case", ["xp-run-n128", "two-sided-double-pole",
                                  "constant-v", "wide-spectrum-t2"])
def test_gram_form_matches_tensor_oracle(case, grid):
    """The Gram matrices give the value and argmax of the n_s n n_mu tensor
    of core vectors."""
    fac, b, _, nodes, v, t = _factored_case(case)
    q = BoundQuery(fac, nodes, v, t=t, s_samples=grid[0], mu_samples=grid[1])
    got = bound_vector(q, b)
    want, _ = _tensor_reference(q, b)
    assert want.value > 0.0
    assert abs(got.value - want.value) <= 1e-13 * want.value
    assert (got.argmax_s, got.argmax_mu) == (want.argmax_s, want.argmax_mu)
    assert (got.n_s, got.n_mu) == (want.n_s, want.n_mu)


_OFF_SPECTRUM_POLE = st.builds(complex, st.floats(-4.0, -1.5), st.floats(-4.0, 4.0))


@settings(max_examples=30)
@given(n=st.integers(2, 40), seed=st.integers(0, 2 ** 32 - 1), kappa0=st.integers(1, 2),
       poles=st.lists(st.tuples(_OFF_SPECTRUM_POLE, st.integers(1, 2), st.integers(0, 2)),
                      max_size=3, unique_by=lambda p: p[0]),
       two_sided=st.booleans(), grid=st.sampled_from([(2, 1), (11, 50), (5, 17)]))
def test_gram_form_matches_tensor_oracle_random_systems(n, seed, kappa0, poles,
                                                        two_sided, grid):
    """bound_vector against the R-tensor oracle on random reduced systems of
    order up to 40, one- and two-sided."""
    spec = PoleSpec(kappa0, tuple(FinitePole(lam, k, chi if two_sided else 0)
                                  for lam, k, chi in poles), chi0=int(two_sided))
    assume(spec.total() <= n)
    fac, b, _, nodes, v = _reduced_system(np.random.default_rng(seed), n, spec)
    q = BoundQuery(fac, nodes, v, s_samples=grid[0], mu_samples=grid[1])
    got = bound_vector(q, b)
    want, runner_up = _tensor_reference(q, b)
    assert abs(got.value - want.value) <= 1e-13 * want.value
    # rounding may swap two points closer than that
    if runner_up < want.value * (1.0 - 1e-9):
        assert (got.argmax_s, got.argmax_mu) == (want.argmax_s, want.argmax_mu)


@settings(max_examples=30)
@given(n=st.integers(2, 40), seed=st.integers(0, 2 ** 32 - 1), kappa0=st.integers(1, 2),
       poles=st.lists(st.tuples(_OFF_SPECTRUM_POLE, st.integers(1, 2), st.integers(0, 2)),
                      max_size=3, unique_by=lambda p: p[0]),
       two_sided=st.booleans(), shift=st.floats(0.0, 4.0))
def test_s_one_row_is_one_value(n, seed, kappa0, poles, two_sided, shift):
    """At s = 1 the value does not depend on mu, and bound_vector's row there
    is bitwise constant, so an argmax on it reports mu_points[0] by the tie
    rule.  The reduced nodes are shifted left, which moves most argmaxes to
    s = 1."""
    spec = PoleSpec(kappa0, tuple(FinitePole(lam, k, chi if two_sided else 0)
                                  for lam, k, chi in poles), chi0=int(two_sided))
    assume(spec.total() <= n)
    fac, b, _, nodes, v = _reduced_system(np.random.default_rng(seed), n, spec)
    q = BoundQuery(fac, NodeList(nodes.nodes - shift), v)
    rows, result = [], q._result

    def recording(values):
        rows.append(values[-1].copy())
        return result(values)

    q._result = recording
    res = bound_vector(q, b)
    assert np.all(rows[0] == rows[0][0])
    if res.argmax_s == 1.0:
        assert res.argmax_mu == q.mu_points[0]


def _peak_bytes(route, fac, nodes, v, b, n_mu):
    """BoundQuery.grid_bytes, and the traced peak of setting the query up
    and evaluating its grid on one route."""
    c = fac.solve(b)
    tracemalloc.start()
    try:
        q = BoundQuery(fac, nodes, v, mu_samples=n_mu)
        route(q, *((b,) if route is bound_vector else (b, b)), c=c)
        return q.grid_bytes, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("n, n_mu", [(256, 2000), (128, 20000)])
def test_grid_bytes_counts_the_peak(n, n_mu):
    """The memory cap's estimate covers what the grid allocates, the tables'
    temporaries included, and overstates bound_vector's peak by at most half."""
    rng = np.random.default_rng(359)
    nu = rng.uniform(-1.0, 0.0, n) + 1j * rng.uniform(-np.pi, np.pi, n)
    fac = EigenFactorization(rng.uniform(-1.0, 1.0, (n, n))
                             + 1j * rng.uniform(-1.0, 1.0, (n, n)), nu)
    poles = derive_poles(ExperimentConfig(n=128, trials=1))
    v = FactoredPoly(poles, np.ones(poles.size, dtype=int), 1.0)
    nodes = NodeList(0.5 * (rng.uniform(-1.0, 0.0, 9) + 1j * rng.uniform(-np.pi, np.pi, 9)))
    b = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    estimate, peak = _peak_bytes(bound_vector, fac, nodes, v, b, n_mu)
    assert peak <= estimate <= 1.5 * peak
    estimate, peak = _peak_bytes(bound_bilinear, fac, nodes, v, b, n_mu)
    assert peak <= estimate


def test_gram_form_memory_has_no_n_times_mu_term():
    """At n = 256 with 2,000 mu samples the tensor of core vectors alone
    takes 11 * 256 * 2000 * 16 B = 90 MB; the Gram form's peak is bounded by
    its tables, each of size n_s n_mu K or n_s K n."""
    rng = np.random.default_rng(359)
    n, n_mu = 256, 2000
    nu = rng.uniform(-1.0, 0.0, n) + 1j * rng.uniform(-np.pi, np.pi, n)
    fac = EigenFactorization(rng.uniform(-1.0, 1.0, (n, n))
                             + 1j * rng.uniform(-1.0, 1.0, (n, n)), nu)
    poles = derive_poles(ExperimentConfig(n=128, trials=1))
    v = FactoredPoly(poles, np.ones(poles.size, dtype=int), 1.0)
    nodes = NodeList(0.5 * (rng.uniform(-1.0, 0.0, 9) + 1j * rng.uniform(-np.pi, np.pi, 9)))
    b = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    q = BoundQuery(fac, nodes, v, mu_samples=n_mu)
    n_s, K = q.s_grid.size, v.degree + 1
    tracemalloc.start()
    try:
        bound_vector(q, b)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 16 * (4 * n_s * n_mu * K + 5 * n_s * K * n) + 2 ** 20


@pytest.mark.parametrize("case", ["xp-run-n128", "two-sided-double-pole",
                                  "constant-v", "wide-spectrum-t2"])
def test_factored_tables_match_pointwise_jet(case):
    """sum_k C[j, m, k] X[j, k, i] is the jet at (1-s_j) mu_m + s_j nu_i,
    at every grid point and not just at the argmax, to 1e-13 of each s
    row's largest entry."""
    fac, _, _, nodes, v, t = _factored_case(case)
    q = BoundQuery(fac, nodes, v, t=t)
    C, X = q._tables()
    a = (1.0 - q.s_grid)[:, np.newaxis] * q.mu_points[np.newaxis, :]
    x = q.s_grid[:, np.newaxis] * fac.eigenvalues[np.newaxis, :]
    H = q.vf_derivative(a[:, :, np.newaxis] + x[:, np.newaxis, :])
    err = np.abs(C @ X - H).max(axis=(1, 2))
    assert np.all(err <= 1e-13 * np.abs(H).max(axis=(1, 2)))


def test_bound_grid_is_factored(monkeypatch):
    """No jet call per grid point, and one product with S of n_s (deg v + 1)
    columns for the whole grid."""
    fac, b, d, nodes, v, _ = _factored_case("xp-run-n128")

    def pointwise(self, z):
        raise AssertionError("the grid evaluated the jet pointwise")

    monkeypatch.setattr(VExpDerivative, "__call__", pointwise)
    q = BoundQuery(fac, nodes, v)
    widths = []
    times = EigenFactorization.times

    def recording(self, X):
        widths.append(np.shape(X)[1])
        return times(self, X)

    monkeypatch.setattr(EigenFactorization, "times", recording)
    bound_vector(q, b)
    bound_bilinear(q, b, d)
    assert widths == [11 * (v.degree + 1)]
    C, X = q._tables()
    assert C.shape == (11, q.mu_points.size, v.degree + 1)
    assert X.shape == (11, v.degree + 1, fac.order)
    assert np.abs(X[:, 0]).max(axis=1) == pytest.approx(1.0, rel=1e-12)


def test_bound_overflow_is_refused():
    """|H| reaches 4e271: squaring it in the norm overflowed to e1 = inf."""
    rng = np.random.default_rng(0)
    n = 48
    nu = rng.uniform(-300.0, 0.0, n) + 1j * rng.uniform(-3.0, 3.0, n)
    S = rng.uniform(-1.0, 1.0, (n, n)) + 1j * rng.uniform(-1.0, 1.0, (n, n))
    b = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    fac = EigenFactorization(S, nu)
    v = FactoredPoly([350.0 + 1.0j, 350.0 - 1.0j], [1, 1], 1.0)
    q = BoundQuery(fac, NodeList(300.0 + 1j * np.linspace(-2, 2, 5)), v, t=2.0)
    with pytest.raises(ValueError, match="bound evaluation overflowed"):
        bound_vector(q, b)
    assert np.isfinite(bound_bilinear(q, b, b).value)
    # a grid whose mu-side exponential itself overflows fails on both routes
    far = BoundQuery(fac, NodeList(400.0 + 1j * np.linspace(-2, 2, 5)), v, t=2.0)
    for route, args in ((bound_vector, (b,)), (bound_bilinear, (b, b))):
        with pytest.raises(ValueError, match="bound evaluation overflowed"):
            route(far, *args)


def test_bound_result_json_schema():
    q = BoundQuery(np.array([[1.0]]), NodeList([0.0]), FactoredPoly((), (), 1.0))
    obj = bound_vector(q, [1.0]).to_json()
    assert set(obj) == {"e1", "argmax_s", "argmax_mu", "grid"}
    assert obj["grid"] == {"s": 11, "mu": 1}
    assert obj["argmax_mu"] == [0.0, 0.0]
    assert isinstance(obj["e1"], float)
