"""Scalar functions carrying their derivatives ("jets").

A jet function exposes ``eval(z, order)`` returning the stack

    [f(z), f'(z), ..., f^(order)(z)]

as an array of shape ``(order+1,) + shape(z)``; ``z`` may be a scalar or any
ndarray.  Derivatives are raw (not divided by factorials).  Implementations
must be vectorized over ``z``.
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


class PolyJet:
    """Polynomial with ascending coefficients c0 + c1 z + ...; exact jets."""

    def __init__(self, coeffs):
        c = np.atleast_1d(np.asarray(coeffs, dtype=np.complex128))
        if c.ndim != 1 or c.size == 0:
            raise ValueError("coefficients must be a nonempty 1-D sequence")
        self.coeffs = c

    def __call__(self, z):
        return npp.polyval(_as_points(z), self.coeffs)

    def eval(self, z, order: int):
        z = _as_points(z)
        rows = []
        c = self.coeffs
        for _ in range(order + 1):
            rows.append(npp.polyval(z, c) if c.size else np.zeros_like(z))
            c = npp.polyder(c) if c.size > 1 else np.zeros(0)
        return np.stack(rows)


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

    def restrict(self, drop_root: complex) -> "FactoredPoly":
        """The cofactor with one root removed entirely."""
        keep = [i for i, r in enumerate(self.roots) if r != drop_root]
        return FactoredPoly(self.roots[keep], self.mults[keep], self.scale)


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


class FunctionJet:
    """Jet backed by explicit derivative callables fns[k] = f^(k)."""

    def __init__(self, fns):
        self.fns = list(fns)
        if not self.fns:
            raise ValueError("need at least the value callable")

    def __call__(self, z):
        return np.asarray(self.fns[0](_as_points(z)), dtype=np.complex128)

    def eval(self, z, order: int):
        if order >= len(self.fns):
            raise ValueError(
                f"derivative order {order} unavailable: only "
                f"{len(self.fns) - 1} provided"
            )
        z = _as_points(z)
        return np.stack(
            [np.asarray(fn(z), dtype=np.complex128) for fn in self.fns[: order + 1]]
        )


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


def jet_divide(F, G):
    """Derivative stack of f/g from stacks of f and g; needs g(z) != 0."""
    F = np.asarray(F)
    G = np.asarray(G)
    if F.shape != G.shape:
        raise ValueError("jet stacks must have matching shapes")
    if np.any(G[0] == 0):
        raise ValueError("division by a vanishing function value")
    n = F.shape[0] - 1
    H = np.empty_like(F)
    H[0] = F[0] / G[0]
    for m in range(1, n + 1):
        acc = F[m].astype(np.complex128).copy()
        for k in range(1, m + 1):
            acc -= comb(m, k) * G[k] * H[m - k]
        H[m] = acc / G[0]
    return H
