import numpy as np
import numpy.polynomial.polynomial as npp
import pytest
from hypothesis import given
from hypothesis import strategies as st

from oracles import (
    FunctionJet,
    PolyJet,
    ProductJet,
    central_difference,
    jet_divide,
    jet_product,
    restrict,
    taylor_row_major,
    vexp_w_loop,
)
from ratmat.experiment import ExperimentConfig, derive_poles
from ratmat.jets import ExpJet, FactoredPoly, VExpDerivative


def test_exp_jet_values_and_shape():
    f = ExpJet(2.0)
    z = np.array([0.0, 1.0j, -0.5])
    J = f.eval(z, 3)
    assert J.shape == (4, 3)
    for k in range(4):
        assert np.allclose(J[k], 2.0 ** k * np.exp(2.0 * z))


def test_poly_jet_matches_derivative_stencil():
    rng = np.random.default_rng(61)
    c = rng.standard_normal(6) + 1j * rng.standard_normal(6)
    p = PolyJet(c)
    z = 0.3 - 0.2j
    J = p.eval(z, 3)
    fd = central_difference(p, z, 1e-6)
    assert abs(J[1] - fd) <= 1e-6 * max(1.0, abs(J[1]))
    # order far beyond the degree is identically zero
    assert np.all(p.eval(z, 9)[7:] == 0)


def test_factored_poly_exact_zeros_and_coeffs():
    v = FactoredPoly([1.0, -2.0j], [2, 1], scale=3.0)
    assert v.degree == 3
    assert v(np.array([1.0]))[0] == 0.0  # factored evaluation is exact at roots
    # expanded coefficients reproduce the same values elsewhere
    z = np.array([0.7 + 0.1j, -1.3])
    direct = 3.0 * (z - 1.0) ** 2 * (z + 2.0j)
    assert np.allclose(v(z), direct)
    assert np.allclose(np.polynomial.polynomial.polyval(z, v.coeffs()), direct)


def test_factored_poly_from_coeffs_round_trip():
    v = FactoredPoly.from_coeffs([2.0, 0.0, -1.0])  # 2 - z^2
    assert v.degree == 2
    z = np.array([0.5, 1.0j])
    assert np.allclose(v(z), 2.0 - z ** 2)
    const = FactoredPoly.from_coeffs([4.0, 0.0])  # trailing zero trimmed
    assert const.degree == 0 and const(np.array([9.0]))[0] == 4.0
    with pytest.raises(ValueError):
        FactoredPoly.from_coeffs([0.0, 0.0])


@given(roots=st.lists(st.builds(complex, st.floats(-3.0, 3.0), st.floats(-3.0, 3.0)),
                      max_size=4),
       scale=st.builds(complex, st.floats(0.5, 2.0), st.floats(-1.0, 1.0)),
       z=st.lists(st.builds(complex, st.floats(-3.0, 3.0), st.floats(-3.0, 3.0)),
                  min_size=1, max_size=5),
       extra=st.integers(0, 3))
def test_factored_poly_eval_is_the_expanded_jet(roots, scale, z, extra):
    """FactoredPoly.eval, the t = 0 case of ExpJet, gives every derivative
    of the expanded coefficients, up to and past the degree, bit for bit;
    its value row is the factored product."""
    v = FactoredPoly(roots, [1] * len(roots), scale)
    z = np.array(z)
    order = v.degree + extra
    got = v.eval(z, order)
    want = PolyJet(v.coeffs()).eval(z, order)
    assert got.shape == (order + 1, z.size)
    assert np.array_equal(got[0], v(z))
    assert np.array_equal(got[1:], want[1:])
    assert np.all(got[v.degree + 1:] == 0)


def test_exp_jet_times_is_the_product():
    """times(p) multiplies v by p in factored form: roots and
    multiplicities concatenated, scales multiplied."""
    p = FactoredPoly([1.0], [2], 3.0)
    f = ExpJet(0.5, FactoredPoly([-2.0j], [1], 2.0)).times(p)
    assert f.t == 0.5 and f.v.scale == 6.0
    assert np.array_equal(f.v.roots, [1.0, -2.0j]) and np.array_equal(f.v.mults, [2, 1])
    z = np.array([0.3 + 0.1j, -1.0])
    assert np.allclose(f(z), 6.0 * (z - 1.0) ** 2 * (z + 2.0j) * np.exp(0.5 * z))
    assert np.array_equal(ExpJet(0.5).times(p).v.roots, p.roots)


def test_factored_poly_restrict():
    v = FactoredPoly([1.0, 2.0], [2, 1], scale=-1.0)
    w = restrict(v, 1.0)
    assert w.degree == 1
    assert np.allclose(w(np.array([3.0])), -1.0)


def test_factored_poly_validation():
    with pytest.raises(ValueError):
        FactoredPoly([1.0], [0])
    with pytest.raises(ValueError):
        FactoredPoly([1.0], [1], scale=0.0)
    with pytest.raises(ValueError):
        FactoredPoly([1.0], [1, 2])


def _random_v(rng) -> FactoredPoly:
    """Up to 8 random roots, half the time closed under conjugation and
    every third time with the exact roots 0, 1j, -1j and 2 added, so the
    coefficients hold exact and signed zeros."""
    roots = rng.standard_normal(rng.integers(0, 9)) * (1 + 1j * rng.standard_normal())
    if rng.integers(2):
        roots = np.concatenate((roots, roots.conj()))
    if rng.integers(3) == 0:
        roots = np.concatenate((roots, [0.0, 1j, -1j, 2.0]))
    scale = complex(rng.standard_normal(), rng.standard_normal())
    return FactoredPoly(roots, rng.integers(1, 3, roots.size), scale)


def test_exp_jet_w_keeps_the_bytes_of_the_polyder_loop():
    """ExpJet.w differentiates its coefficients by slicing; its bytes, signed
    zeros included, are those of the loop over numpy's polyder, on 600
    random (v, t, N) and on the default config's [9/8] poles at N = 9."""
    rng = np.random.default_rng(83)
    cases = [(_random_v(rng), float(rng.choice([0.0, rng.uniform(-3.0, 3.0)])),
              int(rng.integers(0, 25))) for _ in range(600)]
    poles = derive_poles(ExperimentConfig())
    cases.append((FactoredPoly(poles, [1] * poles.size), 1.0, 9))
    for v, t, N in cases:
        assert ExpJet(t, v).w(N).tobytes() == vexp_w_loop(v, t, N).tobytes()


def test_product_jet_leibniz_vs_expanded():
    # (z-1)^2 * (c0 + c1 z + c2 z^2) expanded once, jetted twice
    v = FactoredPoly([1.0], [2])
    q = PolyJet([0.5, -1.0, 2.0])
    prod = ProductJet(v, q)
    expanded = PolyJet(np.polynomial.polynomial.polymul(v.coeffs(), q.coeffs))
    z = np.array([0.4, -0.3 + 1.1j])
    assert np.allclose(prod.eval(z, 4), expanded.eval(z, 4), atol=1e-12)


def test_jet_product_and_divide_round_trip():
    rng = np.random.default_rng(67)
    z = 0.2 + 0.5j
    F = ExpJet(1.0).eval(z, 5)
    G = PolyJet(rng.standard_normal(4)).eval(z, 5)
    H = jet_product(F, G)
    assert np.allclose(jet_divide(H, G), F, atol=1e-10)
    with pytest.raises(ValueError):
        jet_divide(F, PolyJet([0.0, 1.0]).eval(0.0, 5))  # g(0) = 0


def test_function_jet_order_limit():
    f = FunctionJet([np.exp, np.exp])
    assert np.allclose(f.eval(0.0, 1), [1.0, 1.0])
    with pytest.raises(ValueError, match="unavailable"):
        f.eval(0.0, 2)


_DISK = st.builds(lambda r, phi: r * np.exp(1j * phi),
                  st.floats(0.0, 4.0), st.floats(0.0, 2.0 * np.pi))


@given(w=st.lists(st.builds(complex, st.floats(-10.0, 10.0), st.floats(-10.0, 10.0)),
                  min_size=1, max_size=9),
       a=_DISK, x=_DISK)
def test_taylor_shift_reproduces_w(w, a, x):
    """sum_k T_k(a) x^k = w(a + x) for w of degree 0-8 and |a|, |x| <= 4."""
    jet = VExpDerivative(FactoredPoly((), (), 1.0), 1.0, 0)
    jet.w = np.array(w, dtype=np.complex128)
    T = jet.taylor(np.array([a, 0.0]))
    assert T.shape == (2, len(w))
    assert np.array_equal(T[1], jet.w)  # the shift by 0 is exact
    got = np.sum(T[0] * x ** np.arange(len(w)))
    scale = np.sum(np.abs(jet.w) * (abs(a) + abs(x)) ** np.arange(len(w)))
    assert abs(got - npp.polyval(a + x, jet.w)) <= 1e-12 * scale


def test_taylor_shift_example():
    """w = 1 + 2z + 3z^2 at a = 1: w(1 + x) = 6 + 8x + 3x^2."""
    jet = VExpDerivative(FactoredPoly((), (), 1.0), 1.0, 0)
    jet.w = np.array([1.0, 2.0, 3.0], dtype=np.complex128)
    assert np.array_equal(jet.taylor(1.0), [6.0, 8.0, 3.0])


@pytest.mark.parametrize("shape", [(), (7,), (11, 50)])
def test_taylor_coefficient_major_keeps_the_bits(shape):
    """The coefficient-major division gives the row-major loop's bits, in
    the same shape shape(a) + (deg w + 1,) and the same point-major layout:
    the bilinear grid's matmul takes other bits from a strided table."""
    rng = np.random.default_rng(71)
    v = FactoredPoly(rng.standard_normal(8) + 1j * rng.standard_normal(8), [1] * 8, 0.3)
    jet = VExpDerivative(v, 1.0, 9)
    a = 3.0 * (rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
    got = jet.taylor(a)
    assert got.shape == shape + (9,) and got.flags.c_contiguous
    assert np.array_equal(got, taylor_row_major(jet.w, a))
