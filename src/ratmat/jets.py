"""Scalar functions carrying their derivatives ("jets").

A jet function exposes ``eval(z, order)`` returning the stack

    [f(z), f'(z), ..., f^(order)(z)]

as an array of shape ``(order+1,) + shape(z)``; ``z`` may be a scalar or any
ndarray.  Derivatives are raw (not divided by factorials).  Implementations
must be vectorized over ``z``, and ``times(p)`` gives the jet of p f for a
FactoredPoly p, which is how interpolation forms v f.

Every f the library evaluates is e^(t.), so one jet serves it: ExpJet(t, v)
is v e^(t.) for a polynomial v kept in factored form (FactoredPoly), with
the closed form (v e^(t.))^(j) = e^(t.) w_j.  VExpDerivative is the one
derivative the bound needs, (v e^(t.))^(N), with the Taylor coefficients of
w_N that its grid takes in place of calls.
"""

from __future__ import annotations

from math import comb

import numpy as np
import numpy.polynomial.polynomial as npp


def _as_points(z):
    return np.asarray(z, dtype=np.complex128)


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

    def coeffs(self) -> np.ndarray:
        c = npp.polyfromroots(np.repeat(self.roots, self.mults)) * self.scale
        return c.astype(np.complex128)

    def __mul__(self, other: "FactoredPoly") -> "FactoredPoly":
        return FactoredPoly(np.concatenate((self.roots, other.roots)),
                            np.concatenate((self.mults, other.mults)), self.scale * other.scale)

    def __call__(self, z):
        z = _as_points(z)
        out = np.full(z.shape, self.scale, dtype=np.complex128)
        for root, m in zip(self.roots, self.mults):
            out = out * (z - root) ** int(m)
        return out

    def eval(self, z, order: int):
        return ExpJet(0.0, self).eval(z, order)  # at t = 0, w_j is v^(j)


class ExpJet:
    """f(z) = v(z) e^(t z), with v = 1 when omitted.

    The j-th derivative is e^(t z) w_j(z) with the single polynomial
    w_j = sum_{i<=min(j, deg v)} C(j,i) t^(j-i) v^(i) of degree deg v.
    """

    def __init__(self, t: float = 1.0, v: FactoredPoly | None = None):
        self.t = float(t)
        self.v = FactoredPoly() if v is None else v

    def __call__(self, z):
        z = _as_points(z)
        return self.v(z) * np.exp(self.t * z)

    def w(self, N: int) -> np.ndarray:
        """Ascending coefficients of w_N; a power of t beyond the float
        range is refused."""
        if N < 0:
            raise ValueError("derivative order must be >= 0")
        d = self.v.coeffs()
        w = np.zeros(d.size, dtype=np.complex128)
        try:
            for j in range(min(N, self.v.degree) + 1):
                w[: d.size] += comb(N, j) * self.t ** (N - j) * d
                d = d[1:] * np.arange(1, d.size)  # npp.polyder's products
        except OverflowError as exc:  # float ** int raises where numpy gives inf
            raise ValueError("bound evaluation overflowed at "
                             f"t^{N}, t = {self.t}") from exc
        return w

    def eval(self, z, order: int):
        z = _as_points(z)
        base = np.exp(self.t * z)
        rows = [self.v(z) * base]
        rows += [npp.polyval(z, self.w(j)) * base for j in range(1, order + 1)]
        return np.stack(rows)

    def times(self, p: FactoredPoly) -> "ExpJet":
        return ExpJet(self.t, p * self.v)


class VExpDerivative:
    """The N-th derivative of z -> v(z) e^(t z): e^(t z) w with w = w_N of
    ExpJet(t, v), precomputed here.

    A call is one Horner pass over z times e^(t z), and ``taylor`` gives the
    coefficients of w shifted to a point, which the bound grid uses in place
    of calls.  Vectorized over z.
    """

    def __init__(self, v: FactoredPoly, t: float, N: int):
        self.t = float(t)
        self.w = ExpJet(t, v).w(int(N))

    def __call__(self, z):
        return npp.polyval(_as_points(z), self.w) * np.exp(self.t * _as_points(z))

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
