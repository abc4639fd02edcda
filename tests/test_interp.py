import math

import numpy as np
import numpy.polynomial.polynomial as npp
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from oracles import (
    FunctionJet,
    PolyJet,
    contour_divdiff_oracle,
    divided_differences_by_run_start,
    genocchi_hermite_oracle,
    partial_fractions,
)
from ratmat.interp import (
    CONFLUENCE_TOL,
    NewtonForm,
    NodeList,
    RationalInterpolant,
    UnattainablePointError,
    divided_differences,
    hermite_interpolate,
    linearized_rational_fit,
    rational_interpolate_fixed_denominator,
    remainder_scalar,
)
from ratmat.jets import ExpJet, FactoredPoly


def test_node_list_canonicalization():
    nl = NodeList([1.0, 0.0, 1.0 + 1e-13])
    assert np.array_equal(nl.reps, [1.0, 0.0])
    assert np.array_equal(nl.mults, [2, 1])
    assert np.array_equal(nl.nodes, [1.0, 1.0, 0.0])
    assert nl.mults.max() == 2
    assert len(nl.append(0.0)) == 4
    with pytest.raises(ValueError):
        NodeList([])


@pytest.mark.parametrize("scale", [1.0, 1e8])
def test_node_list_merges_one_ulp_pair_at_any_scale(scale):
    """A pair one ulp apart is one confluent node, so the divided
    difference is the derivative, not a cancelled difference quotient."""
    z = scale * (0.3 + 0.4j)
    pair = [z, z * (1 + 3e-16)]
    assert pair[0] != pair[1]
    nl = NodeList(pair)
    assert np.array_equal(nl.mults, [2])
    f = ExpJet(1.0 / scale)
    dd = divided_differences(f, nl)[-1]
    exact = f.t * np.exp(f.t * z)
    assert abs(dd - exact) <= 1e-14 * abs(exact)


# offsets in units of the confluence tolerance: some snap to their site,
# some land just outside it and start a new representative
_NEAR = [0.0, 0.5, 0.9, 1.5, 2.5]


@given(st.lists(
    st.tuples(st.sampled_from([0.0, 1.0, -2.0 + 1.0j]),
              st.sampled_from(_NEAR), st.sampled_from(_NEAR)),
    min_size=1, max_size=12,
), st.sampled_from([1.0, 1e8]))
def test_node_list_canonicalization_idempotent(points, scale):
    """At scale 1e8 the tolerance is relative; merging the node of largest
    modulus can shrink it, and the reps must still stay apart."""
    raw = [scale * (site + CONFLUENCE_TOL * complex(re, im))
           for site, re, im in points]
    once = NodeList(raw)
    twice = NodeList(once.nodes)
    assert np.array_equal(twice.reps, once.reps)
    assert np.array_equal(twice.mults, once.mults)
    assert np.array_equal(twice.nodes, once.nodes)


def test_node_list_omega():
    nl = NodeList([0.0, 2.0, 0.0])
    omega = nl.omega()
    z = np.array([3.0])
    assert omega(z)[0] == 9.0 * 1.0  # (3-0)^2 (3-2)


def test_divided_differences_confluent_pair():
    # two equal nodes give the first derivative
    dd = divided_differences(ExpJet(1.0), NodeList([0.0, 0.0]))
    assert np.allclose(dd, [1.0, 1.0])


def test_divided_differences_square():
    dd = divided_differences(PolyJet([0.0, 0.0, 1.0]), NodeList([0.0, 1.0]))
    assert np.allclose(dd, [0.0, 1.0])


def test_divided_differences_exp_three_nodes():
    # f[0,1,2] = ((e^2-e) - (e-1)) / 2 for f = exp
    dd = divided_differences(ExpJet(1.0), NodeList([0.0, 1.0, 2.0]))
    expected = (math.e ** 2 - 2 * math.e + 1) / 2.0
    assert abs(dd[-1] - expected) <= 1e-12 * expected


def test_divided_differences_permutation_symmetry():
    rng = np.random.default_rng(71)
    nodes = rng.standard_normal(5) + 1j * rng.standard_normal(5)
    ref = divided_differences(ExpJet(1.0), NodeList(nodes))[-1]
    for _ in range(5):
        perm = rng.permutation(5)
        got = divided_differences(ExpJet(1.0), NodeList(nodes[perm]))[-1]
        assert abs(got - ref) <= 1e-10 * abs(ref)


@given(
    nodes=st.lists(
        st.tuples(st.sampled_from([0.0, 1.0, -1.0 + 0.5j, 0.5 - 1.0j, 1.5j]),
                  st.integers(1, 3)),
        min_size=1, max_size=3, unique_by=lambda p: p[0],
    ).map(lambda sites: [z for z, m in sites for _ in range(m)]).flatmap(
        lambda z: st.tuples(st.just(z), st.permutations(z))),
    t=st.sampled_from([0.5, 1.0, -1.5]),
)
def test_divided_differences_permutation_invariant(nodes, t):
    """f[z_1..z_N] for e^(tz) ignores the node order, confluent or not."""
    original, permuted = nodes
    ref = divided_differences(ExpJet(t), NodeList(original))[-1]
    got = divided_differences(ExpJet(t), NodeList(permuted))[-1]
    assert abs(got - ref) <= 1e-10 * abs(ref)


_POINT = st.builds(complex, st.floats(-3.0, 3.0), st.floats(-3.0, 3.0))


@given(
    nodes=st.lists(st.tuples(_POINT, st.integers(1, 3)), min_size=1, max_size=5,
                   unique_by=lambda p: p[0]).map(
        lambda sites: [z for z, m in sites for _ in range(m)]).flatmap(st.permutations),
    t=st.floats(-2.0, 2.0),
    roots=st.lists(_POINT, max_size=3),
    coeffs=st.lists(_POINT, min_size=1, max_size=5),
)
def test_divided_differences_match_the_run_start_table_bit_for_bit(nodes, t, roots, coeffs):
    """One index of runs gives the bytes the table keyed by run start gave,
    for e^(tz), v e^(tz) and a polynomial, over shuffled confluent nodes."""
    nl = NodeList(nodes)
    v = FactoredPoly(roots, [1] * len(roots), 1.0)
    for f in (ExpJet(t), ExpJet(t, v), PolyJet(coeffs)):
        assert divided_differences(f, nl).tobytes() == \
            divided_differences_by_run_start(f, nl).tobytes()


def test_divided_differences_full_confluence():
    # f[z,...,z] with k+1 copies is f^(k)(z)/k!
    f = ExpJet(1.3)
    z = 0.4 - 0.2j
    dd = divided_differences(f, NodeList([z] * 4))
    expected = 1.3 ** 3 * np.exp(1.3 * z) / 6.0
    assert abs(dd[-1] - expected) <= 1e-12 * abs(expected)


def test_genocchi_oracle_trivial_cases():
    assert abs(genocchi_hermite_oracle(ExpJet(1.0), NodeList([0.0, 0.0]), 20) - 1.0) <= 1e-12
    # a linear integrand has vanishing second derivative
    lin = PolyJet([2.0, -0.5])
    out = genocchi_hermite_oracle(lin, NodeList([0.0, 1.0j, 2.0]), 10)
    assert abs(out) <= 1e-14


def test_genocchi_oracle_matches_recurrence():
    f = ExpJet(1.0)
    nodes = NodeList([0.0, 1.0, 2.0])
    dd = divided_differences(f, nodes)[-1]
    quad = genocchi_hermite_oracle(f, nodes, 200)
    assert abs(quad - dd) <= 1e-6


def test_genocchi_oracle_scale_limit():
    with pytest.raises(ValueError, match="oracle scale exceeded"):
        genocchi_hermite_oracle(ExpJet(1.0), NodeList([0.0, 1.0, 2.0, 3.0, 4.0]), 10)
    with pytest.raises(ValueError):
        genocchi_hermite_oracle(ExpJet(1.0), NodeList([0.0, 1.0]), 0)


def test_contour_oracle_trivial_cases():
    # constant f over two nodes: first-order difference of a constant is 0
    const = PolyJet([1.0])
    out = contour_divdiff_oracle(const, NodeList([0.0, 1.0]), 0.5, 2.0, 64)
    assert abs(out) <= 1e-12
    ident = PolyJet([0.0, 1.0])
    out = contour_divdiff_oracle(ident, NodeList([0.0, 1.0]), 0.5, 2.0, 64)
    assert abs(out - 1.0) <= 1e-12


def test_contour_oracle_matches_recurrence():
    f = ExpJet(1.0)
    nodes = NodeList([0.0, 1.0, 2.0])
    dd = divided_differences(f, nodes)[-1]
    quad = contour_divdiff_oracle(f, nodes, 1.0, 4.0, 256)
    assert abs(quad - dd) <= 1e-10


def test_contour_oracle_node_placement():
    with pytest.raises(ValueError, match="strictly inside"):
        contour_divdiff_oracle(ExpJet(1.0), NodeList([0.0, 5.0]), 0.0, 2.0, 64)
    with pytest.raises(ValueError):
        contour_divdiff_oracle(ExpJet(1.0), NodeList([0.0]), 0.0, -1.0, 64)


def test_hermite_taylor_case():
    p = hermite_interpolate(ExpJet(1.0), NodeList([0.0, 0.0, 0.0]))
    assert np.allclose(p.power_coeffs(), [1.0, 1.0, 0.5], atol=1e-14)


def test_hermite_reproduces_cubic():
    p = hermite_interpolate(PolyJet([0.0, 0.0, 0.0, 1.0]), NodeList([0.0, 1.0, 2.0, 3.0]))
    assert np.allclose(p.power_coeffs(), [0.0, 0.0, 0.0, 1.0], atol=1e-12)


def test_hermite_two_point_exp():
    p = hermite_interpolate(ExpJet(1.0), NodeList([0.0, 1.0]))
    assert np.allclose(p.power_coeffs(), [1.0, math.e - 1.0], atol=1e-14)


def test_hermite_conditions_random():
    """p matches the jet of f at every node up to its multiplicity."""
    rng = np.random.default_rng(73)
    f = ExpJet(0.9)
    reps = rng.standard_normal(3) + 1j * rng.standard_normal(3)
    nodes = NodeList(np.repeat(reps, [3, 1, 2]))
    p = hermite_interpolate(f, nodes)
    scale = float(np.abs(f(nodes.nodes)).max())
    for rep, m in zip(nodes.reps, nodes.mults):
        got = PolyJet(p.power_coeffs()).eval(rep, int(m) - 1)
        want = f.eval(rep, int(m) - 1)
        assert np.abs(got - want).max() <= 1e-9 * scale


def test_newton_form_validation():
    with pytest.raises(ValueError):
        NewtonForm(NodeList([0.0, 1.0]), [1.0])


def test_fixed_denominator_constant_v_reduces_to_polynomial():
    f = ExpJet(1.0)
    nodes = NodeList([0.0, 0.5, 1.0])
    r = rational_interpolate_fixed_denominator(f, nodes, FactoredPoly((), (), 1.0))
    p = hermite_interpolate(f, nodes)
    assert np.allclose(r.numerator.coefficients, p.coefficients, atol=1e-15)


def test_fixed_denominator_exact_rational():
    # f = 1/(1+z) with its own pole as denominator: vf is constant
    f = FunctionJet([lambda z: 1.0 / (1.0 + z)])
    v = FactoredPoly([-1.0], [1], 1.0)
    r = rational_interpolate_fixed_denominator(f, NodeList([0.0]), v)
    assert np.allclose(r.numerator.coefficients, [1.0])
    z = np.array([0.5, 2.0, -0.3])
    assert np.allclose(r(z), 1.0 / (1.0 + z), atol=1e-14)
    assert np.array_equal(r.poles, [-1.0])


def test_fixed_denominator_pade_one_one():
    # confluent triple node at 0 with v = 1 - z/2 gives the exp Pade pair
    v = FactoredPoly([2.0], [1], -0.5)
    r = rational_interpolate_fixed_denominator(ExpJet(1.0), NodeList([0.0] * 3), v)
    assert np.allclose(r.numerator.power_coeffs(), [1.0, 0.5], atol=1e-14)
    z = np.array([0.3, -0.4 + 0.2j])
    assert np.allclose(r(z), (1 + z / 2) / (1 - z / 2), atol=1e-13)


def test_fixed_denominator_pole_at_node():
    v = FactoredPoly([0.0], [1], 1.0)
    with pytest.raises(ValueError, match="vanishes at node"):
        rational_interpolate_fixed_denominator(ExpJet(1.0), NodeList([0.0, 1.0]), v)


def test_fixed_denominator_vanishing_is_relative_to_its_scale():
    """A tiny scale alone is not a zero of v: v = 1e-20 (z - 1.5) gives the
    interpolant that v = z - 1.5 gives."""
    nodes = NodeList([0.0, 0.5])
    z = np.array([0.25, 1.0, -0.5 + 0.5j])
    ref = rational_interpolate_fixed_denominator(ExpJet(1.0), nodes,
                                                 FactoredPoly([1.5], [1], 1.0))
    tiny = rational_interpolate_fixed_denominator(ExpJet(1.0), nodes,
                                                  FactoredPoly([1.5], [1], 1e-20))
    assert np.abs(tiny(z) - ref(z)).max() <= 1e-15 * np.abs(ref(z)).max()


def test_rational_interpolant_refuses_a_non_finite_denominator():
    """|v| = 1e309 at the node 10 overflows to inf; its floor, 1e297, does not.
    It is refused as an overflow, with no RuntimeWarning."""
    nodes = NodeList([10.0])
    with pytest.raises(ValueError, match="^denominator overflows"):
        RationalInterpolant(NewtonForm(nodes, [1.0]), FactoredPoly([0.0], [1], 1e308), nodes)


def test_rational_interpolant_degree_check():
    num = NewtonForm(NodeList([0.0, 1.0, 2.0]), [1.0, 1.0, 1.0])
    with pytest.raises(ValueError, match="degree"):
        RationalInterpolant(num, FactoredPoly((), (), 1.0), NodeList([0.0, 1.0]))


def test_remainder_vanishes_at_nodes():
    v = FactoredPoly([3.0], [1], 1.0)
    r = rational_interpolate_fixed_denominator(ExpJet(1.0), NodeList([0.0, 1.0]), v)
    assert remainder_scalar(ExpJet(1.0), r, 1.0) == 0.0


def test_remainder_single_node_closed_form():
    r = rational_interpolate_fixed_denominator(
        ExpJet(1.0), NodeList([0.0]), FactoredPoly((), (), 1.0)
    )
    rem = remainder_scalar(ExpJet(1.0), r, 1.0)
    assert abs(rem - (math.e - 1.0)) <= 1e-12
    assert abs((math.e - r(np.array([1.0]))[0]) - rem) <= 1e-12


def test_remainder_pade_closed_form():
    v = FactoredPoly([2.0], [1], -0.5)
    r = rational_interpolate_fixed_denominator(ExpJet(1.0), NodeList([0.0] * 3), v)
    # r(1) = 1.5/0.5 = 3, so the true error at z=1 is e - 3
    rem = remainder_scalar(ExpJet(1.0), r, 1.0)
    assert abs(rem - (math.e - 3.0)) <= 1e-10
    with pytest.raises(ValueError, match="vanishes"):
        remainder_scalar(ExpJet(1.0), r, 2.0)


def test_remainder_identity_random():
    """f - r equals the divided-difference remainder formula."""
    rng = np.random.default_rng(79)
    for _ in range(20):
        N = int(rng.integers(1, 9))
        nodes = NodeList(1.5 * (rng.uniform(-1, 1, N) + 1j * rng.uniform(-1, 1, N)))
        m = int(rng.integers(1, 4))
        poles = 3.0 + rng.uniform(0, 1, m) + 1j * rng.uniform(-1, 1, m)
        v = FactoredPoly(poles, np.ones(m, dtype=int), 1.0)
        f = ExpJet(float(rng.uniform(0.5, 1.5)))
        r = rational_interpolate_fixed_denominator(f, nodes, v)
        z = complex(1.5 * (rng.uniform(-1, 1) + 1j * rng.uniform(-1, 1)))
        lhs = complex(f(np.asarray(z))) - complex(r(np.asarray(z)))
        rhs = remainder_scalar(f, r, z)
        assert abs(lhs - rhs) <= 1e-9 * (1.0 + abs(complex(f(np.asarray(z)))))


def test_fit_recovers_simple_rational():
    f = lambda z: 1.0 / (1.0 + z)
    fit = linearized_rational_fit([(0.0, f(0.0)), (1.0, f(1.0))], 0, 1)
    assert fit.residuals.max() <= 1e-12
    assert np.abs(fit.poles - (-1.0)).max() <= 1e-10
    z = np.array([0.3, 2.5, -0.4])
    r = npp.polyval(z, fit.u_coeffs) / npp.polyval(z, fit.v_coeffs)
    assert np.allclose(r, f(z), atol=1e-10)


def test_fit_degenerate_constant():
    fit = linearized_rational_fit([(0.7, 3.0)], 0, 0)
    assert np.allclose(fit.u_coeffs, [3.0])
    assert np.allclose(fit.v_coeffs, [1.0])


def test_fit_unattainable_point():
    # forcing a zero value at one sample drives v to vanish at the other
    with pytest.raises(UnattainablePointError) as info:
        linearized_rational_fit([(0.0, 0.0), (1.0, 2.0)], 0, 1)
    assert info.value.index == 1
    assert abs(info.value.point - 1.0) <= 1e-15


def test_fit_input_validation():
    with pytest.raises(ValueError, match="distinct"):
        linearized_rational_fit([(1.0, 1.0), (1.0, 2.0), (2.0, 3.0)], 1, 1)
    with pytest.raises(ValueError, match="samples"):
        linearized_rational_fit([(0.0, 1.0), (1.0, 2.0)], 1, 1)


def test_fit_conjugate_closed_sample_set():
    """Conjugate-symmetric data gives real coefficients and paired poles."""
    pts = np.array([0.5j, -0.5j, 1 + 1j, 1 - 1j, 2.0, -1.0])
    fit = linearized_rational_fit([(z, np.exp(z)) for z in pts], 3, 2)
    assert np.abs(fit.v_coeffs.imag).max() <= 1e-8
    for p in fit.poles:
        assert np.abs(fit.poles - np.conj(p)).min() <= 1e-8
    assert fit.residuals.max() <= 1e-8


def test_partial_fractions_omega_equals_v():
    v = FactoredPoly([1.0, -2.0], [1, 1], 1.0)
    pf = partial_fractions(v.coeffs(), v)
    assert np.allclose(pf.quotient, [1.0])
    for res in pf.residues:
        assert np.abs(res).max() <= 1e-14


def test_partial_fractions_long_division():
    # z^2 / (z-1) = (z+1) + 1/(z-1)
    pf = partial_fractions([0.0, 0.0, 1.0], FactoredPoly([1.0], [1], 1.0))
    assert np.allclose(pf.quotient, [1.0, 1.0])
    assert np.allclose(pf.residues[0], [1.0])


def test_partial_fractions_simple_pole_residue_formula():
    """Simple-pole residues are Omega(pole)/v'(pole)."""
    rng = np.random.default_rng(83)
    roots = rng.standard_normal(8) + 1j * rng.standard_normal(8)
    v = FactoredPoly(roots, np.ones(8, dtype=int), 1.0)
    omega = rng.standard_normal(10) + 1j * rng.standard_normal(10)
    pf = partial_fractions(omega, v)
    assert pf.quotient.size == 2  # degree 9 over degree 8
    for k, pole in enumerate(pf.poles):
        vprime = np.prod(pole - np.delete(roots, k))
        expected = npp.polyval(pole, omega) / vprime
        assert abs(pf.residues[k][0] - expected) <= 1e-8 * max(1.0, abs(expected))


def test_partial_fractions_probe_identity():
    rng = np.random.default_rng(89)
    v = FactoredPoly([1.0, -2.0 + 0.5j], [2, 1], -3.0)
    omega = rng.standard_normal(5) + 1j * rng.standard_normal(5)
    pf = partial_fractions(omega, v)
    z = 4.0 * (rng.uniform(-1, 1, 20) + 1j * rng.uniform(-1, 1, 20))
    z = z[np.abs(v(z)) > 1e-3]  # stay away from the poles
    direct = npp.polyval(z, omega) / v(z)
    assert np.abs(pf(z) - direct).max() <= 1e-8 * max(1.0, np.abs(direct).max())


# pole sites at least 1 apart, and the probe points' distance from them
_PF_SITES = [1.0, -2.0 + 0.5j, 0.5 - 1.5j, 3.0j, -1.0 - 1.0j]
_PF_GAP = 0.1


@given(
    poles=st.lists(st.tuples(st.sampled_from(_PF_SITES), st.integers(1, 3)),
                   min_size=1, max_size=4, unique_by=lambda p: p[0]),
    omega=st.lists(st.tuples(st.integers(-5, 5), st.integers(-5, 5)),
                   min_size=1, max_size=9),
    scale=st.sampled_from([1.0, -3.0, 0.5j]),
    probes=st.lists(st.complex_numbers(max_magnitude=4.0), min_size=1, max_size=8),
)
def test_partial_fractions_reconstruct_quotient(poles, omega, scale, probes):
    """Omega/v = quotient + pole terms at probe points off the poles."""
    coeffs = np.array([complex(re, im) for re, im in omega])
    assume(np.any(coeffs))
    v = FactoredPoly([p for p, _ in poles], [m for _, m in poles], scale)
    z = np.array(probes)
    z = z[np.abs(z[:, None] - v.roots[None, :]).min(axis=1) > _PF_GAP]
    assume(z.size)
    pf = partial_fractions(coeffs, v)
    direct = npp.polyval(z, coeffs) / v(z)
    assert np.abs(pf(z) - direct).max() <= 1e-8 * max(1.0, np.abs(direct).max())


def test_partial_fractions_constant_denominator_and_errors():
    pf = partial_fractions([2.0, 4.0], FactoredPoly((), (), 2.0))
    assert np.allclose(pf.quotient, [1.0, 2.0])
    assert pf.poles.size == 0
    with pytest.raises(ValueError, match="zero numerator"):
        partial_fractions([0.0], FactoredPoly([1.0], [1], 1.0))
