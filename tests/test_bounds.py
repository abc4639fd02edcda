import math

import numpy as np
import pytest

from oracles import (
    bound_core_matrix,
    numerical_range_box,
    polygon_contains,
    random_diagonalizable,
    rational_apply,
    taylor_expm,
)
from ratmat.bounds import BoundQuery, bound_bilinear, bound_vector
from ratmat.experiment import ExperimentConfig, derive_poles
from ratmat.interp import NodeList, rational_interpolate_fixed_denominator
from ratmat.jets import ExpJet, FactoredPoly, FunctionJet, ProductJet
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
    with pytest.raises(ValueError):
        BoundQuery(A, NodeList([0.0]), FactoredPoly((), (), 1.0), s_samples=1)
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
    """e1 through the precomputed exp jet equals e1 through the Leibniz rule.

    A system as the experiment draws it: n = 48 with its spectrum in the
    default rectangle, the eight fitted poles, and the reduced spectrum as
    nodes.  The generic route is the Leibniz rule on v and e^z given as a
    FunctionJet, evaluated on the query's own grid points.
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
    v = spec.denominator("one")
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
    generic = bound_vector(slow, b)
    assert len(poles) == 8 and N == 9
    assert abs(fast.value - generic.value) <= 1e-9 * generic.value
    assert (fast.argmax_s, fast.argmax_mu) == (generic.argmax_s, generic.argmax_mu)


def test_bound_result_json_schema():
    q = BoundQuery(np.array([[1.0]]), NodeList([0.0]), FactoredPoly((), (), 1.0))
    obj = bound_vector(q, [1.0]).to_json()
    assert set(obj) == {"e1", "argmax_s", "argmax_mu", "grid"}
    assert obj["grid"] == {"s": 11, "mu": 1}
    assert obj["argmax_mu"] == [0.0, 0.0]
    assert isinstance(obj["e1"], float)
