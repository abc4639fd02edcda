import numpy as np
import pytest

from oracles import central_difference
from ratmat.jets import (
    ExpJet,
    FactoredPoly,
    FunctionJet,
    PolyJet,
    ProductJet,
    jet_divide,
    jet_product,
)


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


def test_factored_poly_restrict():
    v = FactoredPoly([1.0, 2.0], [2, 1], scale=-1.0)
    w = v.restrict(1.0)
    assert w.degree == 1
    assert np.allclose(w(np.array([3.0])), -1.0)


def test_factored_poly_validation():
    with pytest.raises(ValueError):
        FactoredPoly([1.0], [0])
    with pytest.raises(ValueError):
        FactoredPoly([1.0], [1], scale=0.0)
    with pytest.raises(ValueError):
        FactoredPoly([1.0], [1, 2])


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
