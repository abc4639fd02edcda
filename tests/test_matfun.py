import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from oracles import (
    FunctionJet,
    PolyJet,
    ProductJet,
    central_difference,
    matfun_via_factorization,
    poly_apply,
    random_diagonalizable,
    rational_apply,
    taylor_expm,
    vexp_w_loop,
)
from ratmat.interp import (
    NewtonForm,
    NodeList,
    RationalInterpolant,
    hermite_interpolate,
    rational_interpolate_fixed_denominator,
)
from ratmat.jets import ExpJet, FactoredPoly, VExpDerivative
from ratmat.linalg import EigenFactorization, eig_small


def test_matfun_zero_matrix():
    fac = eig_small(np.zeros((3, 3)))
    out = matfun_via_factorization(fac, np.exp)
    assert np.allclose(out, np.eye(3), atol=1e-14)


def test_matfun_diagonal():
    fac = eig_small(np.diag([0.3, -1.0 + 2.0j]))
    out = matfun_via_factorization(fac, np.exp)
    assert np.allclose(np.diag(out), np.exp([0.3, -1.0 + 2.0j]))


def test_matfun_matches_taylor_oracle():
    rng = np.random.default_rng(97)
    A, S, ev, Sinv = random_diagonalizable(rng, 6)
    fac = EigenFactorization(S, ev)
    E = matfun_via_factorization(fac, np.exp)
    ref = taylor_expm(A)
    assert np.linalg.norm(E - ref, 2) <= 1e-8 * np.linalg.norm(ref, 2)


def test_matfun_identity_at_t_zero():
    rng = np.random.default_rng(101)
    A, S, ev, Sinv = random_diagonalizable(rng, 5)
    fac = EigenFactorization(S, ev)
    out = matfun_via_factorization(fac, lambda w: np.exp(0.0 * w))
    assert np.abs(out - np.eye(5)).max() <= 1e-10 * fac.cond_estimate


def test_matfun_semigroup():
    rng = np.random.default_rng(103)
    A, S, ev, Sinv = random_diagonalizable(rng, 5, radius=1.0)
    fac = EigenFactorization(S, ev)
    e12 = matfun_via_factorization(fac, lambda w: np.exp(0.7 * w))
    e1 = matfun_via_factorization(fac, lambda w: np.exp(0.3 * w))
    e2 = matfun_via_factorization(fac, lambda w: np.exp(0.4 * w))
    assert np.linalg.norm(e12 - e1 @ e2, 2) <= 1e-7 * np.linalg.norm(e12, 2)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_matfun_rejects_undefined_values_and_unusable_fac():
    fac = eig_small(np.diag([1.0, 2.0]))
    with pytest.raises(ValueError, match="non-finite"):
        matfun_via_factorization(fac, lambda w: 1.0 / (w - 1.0))
    bad = EigenFactorization(np.diag([1.0, 1e-13]), [1.0, 2.0])
    with pytest.raises(ValueError, match="unusable"):
        matfun_via_factorization(bad, np.exp)


def test_poly_apply_constant_and_identity():
    A = np.array([[1.0, 2.0], [3.0, 4.0]])
    const = NewtonForm(NodeList([0.0]), [5.0])
    assert np.allclose(poly_apply(const, A), 5.0 * np.eye(2))
    ident = NewtonForm(NodeList([0.0, 1.0]), [0.0, 1.0])  # p(z) = z
    assert np.allclose(poly_apply(ident, A), A)


def test_poly_apply_interpolant_reproduces_exp():
    """Interpolating exp on the spectrum turns p(A) into e^A."""
    rng = np.random.default_rng(107)
    A, S, ev, Sinv = random_diagonalizable(rng, 5)
    p = hermite_interpolate(ExpJet(1.0), NodeList(ev))
    ref = taylor_expm(A)
    assert np.linalg.norm(poly_apply(p, A) - ref, 2) <= 1e-7 * np.linalg.norm(ref, 2)


def test_rational_apply_trivial_cases():
    A = np.array([[0.0, 1.0], [0.0, 0.0]])
    b = np.array([1.0, 2.0j])
    one = NewtonForm(NodeList([0.0]), [1.0])
    r = RationalInterpolant(one, FactoredPoly((), (), 1.0), NodeList([0.0]))
    assert np.allclose(rational_apply(r, A, b), b)
    # r(z) = 1/(lam - z) applied to A = 0 is b/lam
    lam = 2.5
    rr = RationalInterpolant(one, FactoredPoly([lam], [1], -1.0), NodeList([0.0]))
    out = rational_apply(rr, np.zeros((2, 2)), b)
    assert np.allclose(out, b / lam, atol=1e-14)


def test_rational_apply_pade_on_diagonal():
    v = FactoredPoly([2.0], [1], -0.5)
    r = rational_interpolate_fixed_denominator(ExpJet(1.0), NodeList([0.0] * 3), v)
    A = np.diag([0.1, 0.2])
    out = rational_apply(r, A, np.array([1.0, 1.0]))
    expected = (1 + np.array([0.1, 0.2]) / 2) / (1 - np.array([0.1, 0.2]) / 2)
    assert np.abs(out - expected).max() <= 1e-12


def test_rational_apply_matches_factorization_route():
    rng = np.random.default_rng(109)
    A, S, ev, Sinv = random_diagonalizable(rng, 6)
    fac = EigenFactorization(S, ev)
    nodes = NodeList(0.5 * (rng.standard_normal(4) + 1j * rng.standard_normal(4)))
    v = FactoredPoly([4.0 + 1.0j, 5.0 - 2.0j], [1, 1], 1.0)
    r = rational_interpolate_fixed_denominator(ExpJet(1.0), nodes, v)
    b = rng.standard_normal(6) + 1j * rng.standard_normal(6)
    direct = rational_apply(r, A, b)
    via_fac = matfun_via_factorization(fac, lambda w: r(w)) @ b
    scale = np.linalg.norm(via_fac)
    assert np.linalg.norm(direct - via_fac) <= 1e-8 * max(1.0, scale)


@pytest.mark.filterwarnings("ignore")
def test_rational_apply_pole_meets_spectrum():
    v = FactoredPoly([1.0], [1], 1.0)
    r = rational_interpolate_fixed_denominator(
        ExpJet(1.0), NodeList([0.0, 3.0]), v
    )
    with pytest.raises(ValueError, match="pole meets spectrum"):
        rational_apply(r, np.diag([1.0, 2.0]), np.array([1.0, 1.0]))


def test_vexp_derivative_trivial_forms():
    # v = 1: every derivative of e^z is e^z
    vd = VExpDerivative(FactoredPoly((), (), 1.0), 1.0, 2)
    z = np.array([0.0, 1.0, -0.5 + 0.3j])
    assert np.allclose(vd(z), np.exp(z))
    # v = z, N = 1: product rule gives (1 + z) e^z
    vd = VExpDerivative(FactoredPoly([0.0], [1], 1.0), 1.0, 1)
    assert np.allclose(vd(z), (1 + z) * np.exp(z))


def test_vexp_derivative_hand_expanded():
    # (z^2 e^{2z})''' = (8z^2 + 24z + 12) e^{2z}
    vd = VExpDerivative(FactoredPoly([0.0], [2], 1.0), 2.0, 3)
    z = np.array([0.3, -1.2, 0.1j])
    expected = (8 * z ** 2 + 24 * z + 12) * np.exp(2 * z)
    assert np.abs(vd(z) - expected).max() <= 1e-12 * np.abs(expected).max()


def test_vexp_derivative_difference_stencil():
    """Level N agrees with the stencil derivative of level N-1."""
    rng = np.random.default_rng(113)
    for t in (0.1, 1.0, 2.0):
        roots = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        v = FactoredPoly(roots, [1, 2, 1], 1.0)
        for N in (1, 4, 12):
            hi = VExpDerivative(v, t, N)
            lo = VExpDerivative(v, t, N - 1)
            for _ in range(5):
                z = complex(rng.standard_normal() + 1j * rng.standard_normal())
                fd = central_difference(lambda w: lo(np.asarray(w)), z, 1e-5)
                val = complex(hi(np.asarray(z)))
                assert abs(val - fd) <= 1e-6 * max(1.0, abs(val))


def test_vexp_derivative_order_validation():
    with pytest.raises(ValueError):
        VExpDerivative(FactoredPoly((), (), 1.0), 1.0, -1)


# roots as large as the fitted poles (|p| <= 15), points as far out as the
# bound grids go
_roots = st.builds(lambda r, phi: r * np.exp(1j * phi),
                   st.floats(0.0, 15.0), st.floats(0.0, 2 * np.pi))
_points = st.builds(complex, st.floats(-4.0, 4.0), st.floats(-4.0, 4.0))


_factors = st.lists(st.tuples(_roots, st.integers(1, 3)), max_size=4)
_scales = st.builds(complex, st.floats(0.5, 2.0), st.floats(-1.0, 1.0))
_times = st.one_of(st.just(0.0), st.floats(-2.0, 2.0))


def _poly(factors, scale) -> FactoredPoly:
    return FactoredPoly([r for r, _ in factors], [m for _, m in factors], scale)


@given(factors=_factors, scale=_scales, t=_times, offset=st.integers(-3, 3))
def test_vexp_derivative_keeps_the_bits_of_its_loop(factors, scale, t, offset):
    """w, which the bound grid takes its Taylor tables from, has the bits of
    the loop VExpDerivative ran before the closed form moved to ExpJet.w;
    N runs below, at and above deg v."""
    v = _poly(factors, scale)
    N = max(v.degree + offset, 0)
    want = vexp_w_loop(v, t, N)
    assert np.array_equal(VExpDerivative(v, t, N).w, want)
    assert np.array_equal(ExpJet(t, v).w(N), want)


@given(factors=_factors, scale=_scales, t=_times, offset=st.integers(-3, 3),
       z=st.lists(_points, min_size=1, max_size=6))
def test_vexp_derivative_matches_leibniz(factors, scale, t, offset, z):
    """The closed-form jet of v e^(t.), every row of it, agrees with the
    Leibniz rule on the expanded v and e^(t.) given as derivative callables.

    N runs below, at and above deg v.  Both sides round differently, so
    they are compared relative to the same sum taken over the moduli of
    roots, scale, t and z, which bounds every term either side adds up.
    """
    v = _poly(factors, scale)
    N = max(v.degree + offset, 0)
    z = np.array(z)
    exp_t = FunctionJet([lambda x, k=k: t ** k * np.exp(t * x) for k in range(N + 1)])
    want = ProductJet(PolyJet(v.coeffs()), exp_t).eval(z, N)
    majorant = FactoredPoly(-np.abs(v.roots), v.mults, abs(v.scale))
    size = ProductJet(majorant, ExpJet(abs(t))).eval(np.abs(z), N).real
    assert np.all(np.abs(ExpJet(t, v).eval(z, N) - want) <= 1e-13 * size)
    got = VExpDerivative(v, t, N)(z)
    assert np.all(np.abs(got - want[N]) <= 1e-13 * size[N])
    if t == 0.0 and N > v.degree:
        assert np.all(got == 0)
