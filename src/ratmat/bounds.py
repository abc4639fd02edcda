"""Certified a-posteriori error bounds for rational approximation of the
matrix exponential.

The central quantity is, for interpolation nodes z_1..z_N (node polynomial
Omega), denominator v, and f = exp_t,

    e1 = max over s in [0,1], mu in co{z_1..z_N} of
         || Omega(A) [v(A)]^-1 (v f)^(N)((1-s) mu I + s A) / N! ||

in bilinear and vector-norm flavors.  The maximum over the hull
is taken over boundary samples only (maximum modulus), and the s range over a
uniform grid; both grid sizes are part of the query and the result.  The grid
is evaluated a block of s samples at a time (block_rows), so its tables take
the same memory whatever the number of s samples.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import factorial
from numbers import Integral

import numpy as np

from .geometry import convex_hull, hull_boundary_samples
from .interp import NodeList, denominator_at
from .jets import FactoredPoly, VExpDerivative
# eig_small is not called here; perfbench's tracer wraps it by this name
from .linalg import (EigenFactorization, as_vector, eig_small,  # noqa: F401
                     factorize, real_from_json, require_memory)

# Table entries per block of s samples in the e1 grid (512 KB of C and X at
# 16 bytes each), unless the LU of S was freed before the grid and its room
# holds more (see block_rows): xp run's default 11 x 50 grid (deg v = 8) is
# one block at every order, by this rule up to n = 280 and by the LU's from
# n = 279.
GRID_BLOCK = 1 << 15


@dataclass
class BoundResult:
    """Grid maximum of a bound expression with its argmax location."""

    value: float
    argmax_s: float
    argmax_mu: complex
    n_s: int
    n_mu: int

    def to_json(self) -> dict:
        return {
            "e1": float(self.value),
            "argmax_s": float(self.argmax_s),
            "argmax_mu": [float(self.argmax_mu.real), float(self.argmax_mu.imag)],
            "grid": {"s": int(self.n_s), "mu": int(self.n_mu)},
        }


def _sample_entries(n: int, n_mu: int, K: int) -> int:
    """The 16-byte entries one s sample of a block takes at its peak: 2K + 6
    arrays over the mu points (C and the Taylor array or G C, a, e^(ta) and
    temporaries) and 2K + 3 over the eigenvalues (X and Y, x and temporaries)."""
    return (2 * K + 6) * n_mu + (2 * K + 3) * n


def block_rows(n_s: int, n: int, n_mu: int, K: int, lu_freed: bool) -> int:
    """s samples per block of the grid, at least one: as many as fit in
    GRID_BLOCK of the K (n + n_mu) table entries (X and C) one sample takes,
    or, once the LU of S is freed (as a trial and `xp bound` do), whole in
    the n^2 entries (16 n^2 bytes) it held, whichever allows more.  A block
    is one product with S, which reads all of S."""
    room = n * n if lu_freed else 0
    return min(n_s, max(1, GRID_BLOCK // (K * (n + n_mu)),
                        room // _sample_entries(n, n_mu, K)))


def check_query(t, s_samples: int, mu_samples: int, n: int, K: int, nodes: int) -> int:
    """Refuse, before any work, a query no grid answers: t must be a finite real
    number (a bool, a string or None is none), s_samples an integer of at least
    2 (the endpoints), mu_samples an integer of at least 1 (a bool is neither),
    both indexable, and the grid's evaluation must fit in physical memory for
    an A of order n, a denominator of degree K - 1 and at most ``nodes``
    distinct nodes.  Returns its bytes."""
    real_from_json("t", t)
    for name, size, least in (("s_samples", s_samples, 2), ("mu_samples", mu_samples, 1)):
        if isinstance(size, bool) or not isinstance(size, Integral):
            raise ValueError(f"{name} must be an integer, got {size!r}")
        if size < least:
            raise ValueError(f"{name} must be at least {least}, got {size}")
        if size > np.iinfo(np.intp).max:  # building the grid would overflow
            raise ValueError(f"{name} is beyond numpy's index range")
    # the peak of the grid's evaluation in bytes: the mu points (the hull's
    # vertices are distinct nodes, so n_mu bounds mu_grid's count), the
    # n_s n_mu real values, and one block of s samples, the larger one that
    # the room of a freed LU allows
    n_mu = max(mu_samples, nodes)
    r = block_rows(s_samples, n, n_mu, K, True)
    grid_bytes = 16 * (n_mu + r * _sample_entries(n, n_mu, K)) + 8 * s_samples * n_mu
    require_memory(grid_bytes, f"the {s_samples} x {n_mu} grid is too big: its tables")
    return grid_bytes


def mu_grid(points, count: int):
    """e1's mu samples: the convex hull of the points, and max(count, its
    vertex count) samples on its boundary, every vertex among them."""
    hull = convex_hull(points)
    return hull, hull_boundary_samples(hull, max(count, hull.size))


class BoundQuery:
    """Everything needed to evaluate the error bound for one system.

    ``A`` is a matrix or an EigenFactorization (see linalg.factorize), whose
    LU applies S^-1 to b unless the caller passes c = S^-1 b, as it must
    once the LU is dropped.  ``v`` is the fixed denominator and f = exp_t, so
    ``vf_derivative`` is the closed-form jet (v e^(t.))^(N) = e^(t.) w; the
    grid is evaluated in factored form from its Taylor coefficients (see
    ``_tables``), with no jet call per point.  The evaluation always runs
    through the factorization; the denominator must not vanish on the
    spectrum or at a node (interp.denominator_at).
    """

    def __init__(self, A, nodes: NodeList, v: FactoredPoly, t: float = 1.0,
                 s_samples: int = 11, mu_samples: int = 50):
        order = A.order if isinstance(A, EigenFactorization) else np.shape(A)[0]
        self.grid_bytes = check_query(t, s_samples, mu_samples, order, v.degree + 1,
                                      nodes.reps.size)
        self.fac = factorize(A)
        self.nodes = nodes
        self.v = v
        self.N = len(nodes)
        self.vf_derivative = VExpDerivative(v, t, self.N)
        self.omega = nodes.omega()

        v_at_ev = denominator_at(v, self.fac.eigenvalues,
                                 "pole meets spectrum: denominator vanishes on an eigenvalue")
        denominator_at(v, nodes.reps, "denominator vanishes at an interpolation node")
        self.weights = self.omega(self.fac.eigenvalues) / v_at_ev

        _, self.mu_points = mu_grid(nodes.nodes, mu_samples)
        self.s_grid = np.linspace(0.0, 1.0, s_samples)

    # -- grid machinery ----------------------------------------------------

    def _blocks(self):
        """The s grid as slices of block_rows samples each."""
        n_s = self.s_grid.size
        rows = block_rows(n_s, self.fac.order, self.mu_points.size, self.v.degree + 1,
                          self.fac.lu is None)
        return [slice(j, j + rows) for j in range(0, n_s, rows)]

    def _tables(self, rows=slice(None)):
        """The (s, mu) grid in factored form, for the s samples ``rows``
        (all by default): the mu-side C and nu-side X.

        With a = (1-s_j) mu_m, x = s_j nu_i and T_k(a) the Taylor
        coefficients of w at a (see VExpDerivative),

            (vf)^(N)(a + x) = e^(t(a+x)) w(a+x) = sum_k C[j, m, k] X[j, k, i],
            C[j, m, k] = e^(t a + sigma_j) T_k(a),
            X[j, k, i] = e^(t x - sigma_j) x^k,

        where sigma_j = max_i Re(t s_j nu_i) keeps every exponential in X at
        most 1.  The core matrix at (s_j, mu_m) is then
        S diag(weights/N! * sum_k C[j, m, k] X[j, k]) S^-1.
        """
        t = self.vf_derivative.t
        s = self.s_grid[rows]
        x = s[:, np.newaxis] * self.fac.eigenvalues[np.newaxis, :]
        sigma = (t * x.real).max(axis=1, keepdims=True)
        a = (1.0 - s)[:, np.newaxis] * self.mu_points[np.newaxis, :]
        with np.errstate(over="ignore", invalid="ignore"):  # refused below
            C = np.exp(t * a + sigma)[..., np.newaxis] * self.vf_derivative.taylor(a)
            X = np.empty((x.shape[0], C.shape[2], x.shape[1]), dtype=np.complex128)
            X[:, 0] = np.exp(t * x - sigma)
            for k in range(1, X.shape[1]):
                X[:, k] = X[:, k - 1] * x
        if not (np.all(np.isfinite(C)) and np.all(np.isfinite(X))):
            raise ValueError("bound evaluation overflowed; check poles vs spectrum")
        return C, X

    def _fold(self, y: np.ndarray) -> np.ndarray:
        """y scaled by the per-eigenvalue weights Omega(nu)/v(nu)/N!."""
        return y * (self.weights / float(factorial(self.N)))

    def _result(self, values: np.ndarray) -> BoundResult:
        """Grid maximum of values[j, m] at (s_j, mu_m); ties go to the
        first point in s-major, mu-minor order."""
        if not np.all(np.isfinite(values)):
            raise ValueError("bound evaluation overflowed; check poles vs spectrum")
        j, m = divmod(int(np.argmax(values)), self.mu_points.size)
        return BoundResult(
            value=float(values[j, m]),
            argmax_s=float(self.s_grid[j]),
            argmax_mu=complex(self.mu_points[m]),
            n_s=self.s_grid.size,
            n_mu=self.mu_points.size,
        )


def bound_vector(q: BoundQuery, b, *, c=None) -> BoundResult:
    """max over the grid of || core(s, mu) b ||_2 (this is e1); c = S^-1 b is
    solved here unless the caller passes it.

    One product with S covers a block of s samples (see BoundQuery._blocks):
    its r (deg v + 1) columns are the block's folded X, and the block Y_j of
    deg v + 1 of them that belongs to s_j maps C[j, m] to the core vector at
    (s_j, mu_m).  These GEMMs are the one O(n^2 n_s deg v) step, so they run
    in scipy's BLAS, next to the LU of S (see linalg.blas_pin).  The norms
    then come from the Gram matrices G_j = Y_j^H Y_j as
    ||Y_j C[j, m]||^2 = C[j, m]^H G_j C[j, m], so a mu sample costs
    O(deg^2 v) and nothing in n.
    """
    b = as_vector(b)
    folded = q._fold(q.fac.solve(b) if c is None else c)
    sq = np.empty((q.s_grid.size, q.mu_points.size))
    for rows in q._blocks():
        C, X = q._tables(rows)
        X *= folded
        r, n_k, n = X.shape
        Y = q.fac.times(X.reshape(r * n_k, n).T).reshape(n, r, n_k).transpose(1, 0, 2)
        del X  # BoundQuery.grid_bytes counts it only until Y exists
        with np.errstate(over="ignore", invalid="ignore"):  # non-finite is refused below
            G = Y.conj().transpose(0, 2, 1) @ Y
            GC = C @ G.transpose(0, 2, 1)  # GC[j, m] = G_j C[j, m]
            sq[rows] = (np.einsum("jmk,jmk->jm", C.real, GC.real)
                        + np.einsum("jmk,jmk->jm", C.imag, GC.imag))
        del C, Y, G, GC  # before the next block's tables
    # at s = 1, a = (1 - s) mu is 0 and the value does not depend on mu: one
    # value for the row leaves an argmax there to _result's tie rule, not rounding
    sq[-1] = sq[-1, 0]
    # rounding can take a zero norm below 0; NaN passes np.maximum to _result
    return q._result(np.sqrt(np.maximum(sq, 0.0, out=sq), out=sq))


def bound_bilinear(q: BoundQuery, b, d, *, c=None) -> BoundResult:
    """max over the grid of | d^H core(s, mu) b |, a block of s samples at a
    time; c as in bound_vector."""
    b = as_vector(b)
    d = as_vector(d)
    u = q.fac.times(d, left=True)
    folded = q._fold(u * (q.fac.solve(b) if c is None else c))
    values = np.empty((q.s_grid.size, q.mu_points.size))
    for rows in q._blocks():
        C, X = q._tables(rows)
        values[rows] = np.abs(C @ (X @ folded)[..., np.newaxis])[..., 0]
        del C, X  # before the next block's tables
    return q._result(values)
