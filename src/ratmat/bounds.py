"""Certified a-posteriori error bounds for rational approximation of the
matrix exponential.

The central quantity is, for interpolation nodes z_1..z_N (node polynomial
Omega), denominator v, and f = exp_t,

    e1 = max over s in [0,1], mu in co{z_1..z_N} of
         || Omega(A) [v(A)]^-1 (v f)^(N)((1-s) mu I + s A) / N! ||

in bilinear and vector-norm flavors.  The maximum over the hull
is taken over boundary samples only (maximum modulus), and the s range over a
uniform grid; both grid sizes are part of the query and the result.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import factorial, isfinite

import numpy as np

from .geometry import convex_hull, hull_boundary_samples
from .interp import CONFLUENCE_TOL, NodeList
from .jets import FactoredPoly, VExpDerivative
# eig_small is not called here; perfbench's tracer wraps it by this name
from .linalg import as_vector, eig_small, factorize, require_memory  # noqa: F401


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


def check_query(t, s_samples: int, mu_samples: int) -> None:
    """Refuse, before any work, a query no grid answers: t must be finite, s_samples
    must be at least 2 (the endpoints), mu_samples must be at least 1, both indexable."""
    if not isfinite(t):
        raise ValueError(f"t must be a finite number, got {t}")
    for name, size, least in (("s_samples", s_samples, 2), ("mu_samples", mu_samples, 1)):
        if size < least:
            raise ValueError(f"{name} must be at least {least}, got {size}")
        if size > np.iinfo(np.intp).max:  # building the grid would overflow
            raise ValueError(f"{name} is beyond numpy's index range")


def mu_grid(points, count: int):
    """e1's mu samples: the convex hull of the points, and max(count, its
    vertex count) samples on its boundary, every vertex among them."""
    hull = convex_hull(points)
    return hull, hull_boundary_samples(hull, max(count, hull.size))


class BoundQuery:
    """Everything needed to evaluate the error bound for one system.

    ``A`` is a matrix or an EigenFactorization (see linalg.factorize), whose
    LU applies S^-1 to b.  ``v`` is the fixed denominator and f = exp_t, so
    ``vf_derivative`` is the closed-form jet (v e^(t.))^(N) = e^(t.) w; the
    grid is evaluated in factored form from its Taylor coefficients (see
    ``_tables``), with no jet call per point.  The evaluation always runs
    through the factorization; the denominator is checked against the
    spectrum.
    """

    def __init__(self, A, nodes: NodeList, v: FactoredPoly, t: float = 1.0,
                 s_samples: int = 11, mu_samples: int = 50):
        check_query(t, s_samples, mu_samples)
        self.fac = factorize(A)
        self.nodes = nodes
        self.v = v
        self.N = len(nodes)
        self.vf_derivative = VExpDerivative(v, t, self.N)
        self.omega = nodes.omega()

        ev = self.fac.eigenvalues
        v_at_ev = v(ev)
        scale = np.abs(ev).max(initial=1.0)
        floor = CONFLUENCE_TOL * abs(v.scale) * scale ** max(v.degree, 1)
        if np.any(np.abs(v_at_ev) <= floor) or not np.all(np.isfinite(v_at_ev)):
            raise ValueError("pole meets spectrum: denominator vanishes on an eigenvalue")
        v_at_nodes = v(nodes.reps)
        if np.any(v_at_nodes == 0):
            raise ValueError("denominator vanishes at an interpolation node")
        self.weights = self.omega(ev) / v_at_ev

        # the peak of the grid's evaluation in bytes: the mu points (the hull's
        # vertices are distinct nodes, so n_mu bounds mu_grid's count), three
        # n_s n_mu arrays (a, e^(ta), a temporary), two n_s n_mu K (C and the
        # Taylor array, or C and G C) and three n_s K n (X, Y and conj(Y))
        n_mu = max(mu_samples, nodes.reps.size)
        K, n = v.degree + 1, self.fac.order
        self.grid_bytes = 16 * (n_mu + s_samples * (n_mu * (3 + 2 * K) + 3 * K * n))
        require_memory(self.grid_bytes,
                       f"the {s_samples} x {n_mu} grid is too big: its tables")
        _, self.mu_points = mu_grid(nodes.nodes, mu_samples)
        self.s_grid = np.linspace(0.0, 1.0, s_samples)
        self._tables_cache = None

    # -- grid machinery ----------------------------------------------------

    def _tables(self):
        """The (s, mu) grid in factored form: the mu-side C and nu-side X.

        With a = (1-s_j) mu_m, x = s_j nu_i and T_k(a) the Taylor
        coefficients of w at a (see VExpDerivative),

            (vf)^(N)(a + x) = e^(t(a+x)) w(a+x) = sum_k C[j, m, k] X[j, k, i],
            C[j, m, k] = e^(t a + sigma_j) T_k(a),
            X[j, k, i] = e^(t x - sigma_j) x^k,

        where sigma_j = max_i Re(t s_j nu_i) keeps every exponential in X at
        most 1.  The core matrix at (s_j, mu_m) is then
        S diag(weights/N! * sum_k C[j, m, k] X[j, k]) S^-1.
        """
        if self._tables_cache is None:
            t = self.vf_derivative.t
            x = self.s_grid[:, np.newaxis] * self.fac.eigenvalues[np.newaxis, :]
            sigma = (t * x.real).max(axis=1, keepdims=True)
            a = (1.0 - self.s_grid)[:, np.newaxis] * self.mu_points[np.newaxis, :]
            with np.errstate(over="ignore", invalid="ignore"):  # refused below
                C = np.exp(t * a + sigma)[..., np.newaxis] * self.vf_derivative.taylor(a)
                X = np.empty((x.shape[0], C.shape[2], x.shape[1]), dtype=np.complex128)
                X[:, 0] = np.exp(t * x - sigma)
                for k in range(1, X.shape[1]):
                    X[:, k] = X[:, k - 1] * x
            if not (np.all(np.isfinite(C)) and np.all(np.isfinite(X))):
                raise ValueError("bound evaluation overflowed; check poles vs spectrum")
            self._tables_cache = (C, X)
        return self._tables_cache

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

    One product with S covers the whole grid: its n_s (deg v + 1) columns
    are the folded X, and the block Y_j of deg v + 1 of them that belongs to
    s_j maps C[j, m] to the core vector at (s_j, mu_m).  That GEMM is the one
    O(n^2 n_s deg v) step, so it runs in scipy's BLAS, next to the LU of S
    (see linalg.blas_pin).  The norms then come from the Gram
    matrices G_j = Y_j^H Y_j as ||Y_j C[j, m]||^2 = C[j, m]^H G_j C[j, m], so
    a mu sample costs O(deg^2 v) and nothing in n.
    """
    b = as_vector(b)
    C, X = q._tables()
    Xc = X * q._fold(q.fac.solve(b) if c is None else c)
    n_s, n_k, n = X.shape
    Y = q.fac.times(Xc.reshape(n_s * n_k, n).T).reshape(n, n_s, n_k).transpose(1, 0, 2)
    del Xc  # BoundQuery.grid_bytes counts it only until Y exists
    with np.errstate(over="ignore", invalid="ignore"):  # non-finite is refused below
        G = Y.conj().transpose(0, 2, 1) @ Y
        GC = C @ G.transpose(0, 2, 1)  # GC[j, m] = G_j C[j, m]
        sq = (np.einsum("jmk,jmk->jm", C.real, GC.real)
              + np.einsum("jmk,jmk->jm", C.imag, GC.imag))
    # at s = 1, a = (1 - s) mu is 0 and the value does not depend on mu: one
    # value for the row leaves an argmax there to _result's tie rule, not rounding
    sq[-1] = sq[-1, 0]
    # rounding can take a zero norm below 0; NaN passes np.maximum to _result
    return q._result(np.sqrt(np.maximum(sq, 0.0)))


def bound_bilinear(q: BoundQuery, b, d, *, c=None) -> BoundResult:
    """max over the grid of | d^H core(s, mu) b |; c as in bound_vector."""
    b = as_vector(b)
    d = as_vector(d)
    C, X = q._tables()
    u = d.conj() @ q.fac.S
    y = X @ q._fold(u * (q.fac.solve(b) if c is None else c))
    return q._result(np.abs(C @ y[..., np.newaxis])[..., 0])
