"""Scalar functions carrying their derivatives ("jets").

A jet function exposes ``eval(z, order)`` returning the stack

    [f(z), f'(z), ..., f^(order)(z)]

as an array of shape ``(order+1,) + shape(z)``; ``z`` may be a scalar or any
ndarray.  Derivatives are raw (not divided by factorials).  Implementations
must be vectorized over ``z``.  The jets here are exp (ExpJet), a polynomial
kept in factored form (FactoredPoly) and the Leibniz product of two jets
(ProductJet); VExpDerivative is the one derivative the bound needs,
(v e^(t.))^(N), in closed form.
"""

from __future__ import annotations

from math import comb

import numpy as np
import numpy.polynomial.polynomial as npp


def _as_points(z):
    return np.asarray(z, dtype=np.complex128)


class ExpJet:
    """f(z) = e^(t z); every derivative is t^k e^(t z)."""

    def __init__(self, t: float = 1.0):
        self.t = float(t)

    def __call__(self, z):
        return np.exp(self.t * _as_points(z))

    def eval(self, z, order: int):
        z = _as_points(z)
        base = np.exp(self.t * z)
        powers = self.t ** np.arange(order + 1)
        return powers.reshape((order + 1,) + (1,) * z.ndim) * base[np.newaxis]


class FactoredPoly:
    """Polynomial kept in factored form scale * prod (z - root_k)^(m_k).

    The factored product is used for plain evaluation (exact zeros at the
    roots); derivatives go through expanded coefficients.  An empty root list
    gives the constant ``scale``.
    """

    def __init__(self, roots=(), mults=(), scale: complex = 1.0):
        self.roots = np.atleast_1d(np.asarray(roots, dtype=np.complex128))
        self.mults = np.atleast_1d(np.asarray(mults, dtype=np.int64))
        if self.roots.size == 0:
            self.roots = self.roots.reshape(0)
            self.mults = self.mults.reshape(0)
        if self.roots.shape != self.mults.shape:
            raise ValueError("roots and multiplicities must pair up")
        if np.any(self.mults < 1):
            raise ValueError("multiplicities must be >= 1")
        self.scale = complex(scale)
        if self.scale == 0:
            raise ValueError("zero scale makes the polynomial identically zero")
        self._deriv_coeffs: list[np.ndarray] | None = None

    @classmethod
    def from_coeffs(cls, coeffs) -> "FactoredPoly":
        """Factor an ascending-coefficient polynomial via its roots."""
        from .linalg import as_vector, poly_roots

        c = as_vector(coeffs, "coefficients")
        nz = np.nonzero(np.abs(c) > 0)[0]
        if nz.size == 0:
            raise ValueError("zero polynomial")
        c = c[: nz[-1] + 1]
        if c.size == 1:
            return cls((), (), c[0])
        roots = poly_roots(c)
        return cls(roots, np.ones(roots.size, dtype=int), c[-1])

    @property
    def degree(self) -> int:
        return int(self.mults.sum())

    def expanded_roots(self) -> np.ndarray:
        return np.repeat(self.roots, self.mults)

    def coeffs(self) -> np.ndarray:
        c = npp.polyfromroots(self.expanded_roots()) * self.scale
        return c.astype(np.complex128)

    def __call__(self, z):
        z = _as_points(z)
        out = np.full(z.shape, self.scale, dtype=np.complex128)
        for root, m in zip(self.roots, self.mults):
            out = out * (z - root) ** int(m)
        return out

    def eval(self, z, order: int):
        z = _as_points(z)
        if self._deriv_coeffs is None:
            self._deriv_coeffs = [self.coeffs()]
        while len(self._deriv_coeffs) <= order:
            prev = self._deriv_coeffs[-1]
            self._deriv_coeffs.append(
                npp.polyder(prev) if prev.size > 1 else np.zeros(0)
            )
        rows = [self(z)]
        for j in range(1, order + 1):
            c = self._deriv_coeffs[j]
            rows.append(npp.polyval(z, c) if c.size else np.zeros_like(z))
        return np.stack(rows)


class ProductJet:
    """Jet of a product f*g via the Leibniz rule."""

    def __init__(self, f, g):
        self.f, self.g = f, g

    def __call__(self, z):
        return self.f(z) * self.g(z)

    def eval(self, z, order: int):
        F = self.f.eval(z, order)
        G = self.g.eval(z, order)
        return jet_product(F, G)


def jet_product(F, G):
    """Leibniz combination of two derivative stacks of equal order."""
    F = np.asarray(F)
    G = np.asarray(G)
    if F.shape != G.shape:
        raise ValueError("jet stacks must have matching shapes")
    n = F.shape[0] - 1
    H = np.empty_like(F)
    for m in range(n + 1):
        acc = np.zeros(F.shape[1:], dtype=np.complex128)
        for k in range(m + 1):
            acc += comb(m, k) * F[k] * G[m - k]
        H[m] = acc
    return H


class VExpDerivative:
    """The N-th derivative of z -> v(z) e^(t z) in closed form.

    (v exp_t)^(N)(z) = e^(t z) w(z) with the single polynomial
    w = sum_{j<=min(N, deg v)} C(N,j) t^(N-j) v^(j) of degree deg v.  The
    coefficients of w are precomputed here; a call is one Horner pass over z
    times e^(t z), and ``taylor`` gives the coefficients of w shifted to a
    point, which the bound grid uses in place of calls.  Vectorized over z.
    """

    def __init__(self, v: FactoredPoly, t: float, N: int):
        if N < 0:
            raise ValueError("derivative order must be >= 0")
        self.v = v
        self.t = float(t)
        self.N = int(N)
        d = v.coeffs()
        w = np.zeros(d.size, dtype=np.complex128)
        for j in range(min(self.N, v.degree) + 1):
            w[: d.size] += comb(self.N, j) * self.t ** (self.N - j) * d
            d = npp.polyder(d)
        self.w = w

    def __call__(self, z):
        z = np.asarray(z, dtype=np.complex128)
        acc = np.full(z.shape, self.w[-1], dtype=np.complex128)
        for c in self.w[-2::-1]:
            acc *= z
            acc += c
        return acc * np.exp(self.t * z)

    def taylor(self, a):
        """Taylor coefficients of w at a: T[..., k] with w(a + x) = sum T_k x^k.

        Repeated synthetic division by (x - a), O(deg^2) per point; the
        result has shape shape(a) + (deg w + 1,).  The division runs
        coefficient-major, so each step sweeps contiguous memory; the result
        is copied back to point-major order, the layout the grid's products
        take their bits from.
        """
        a = np.asarray(a, dtype=np.complex128)
        T = np.empty(self.w.shape + a.shape, dtype=np.complex128)
        T[...] = self.w.reshape(self.w.shape + (1,) * a.ndim)
        for i in range(self.w.size - 1):
            for j in range(self.w.size - 2, i - 1, -1):
                T[j] += a * T[j + 1]
        return np.ascontiguousarray(np.moveaxis(T, 0, -1))
