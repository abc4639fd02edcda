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
from math import factorial

import numpy as np

from .geometry import convex_hull, hull_boundary_samples
from .interp import CONFLUENCE_TOL, NodeList
from .jets import FactoredPoly, VExpDerivative
# eig_small is not called here; perfbench's tracer wraps it by this name
from .linalg import as_vector, eig_small, factorize  # noqa: F401


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


class BoundQuery:
    """Everything needed to evaluate the error bound for one system.

    ``A`` is a matrix or an EigenFactorization (see linalg.factorize), whose
    LU applies S^-1 to b.  ``v`` is the fixed denominator and f = exp_t, so
    ``vf_derivative`` is the closed-form jet (v e^(t.))^(N) at an array of
    points.  The evaluation always runs through the factorization; the
    denominator is checked against the spectrum.
    """

    def __init__(self, A, nodes: NodeList, v: FactoredPoly, t: float = 1.0,
                 s_samples: int = 11, mu_samples: int = 50):
        if s_samples < 2:
            raise ValueError("need at least the endpoints in the s grid")
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

        self.hull = convex_hull(nodes.nodes)
        self.mu_points = hull_boundary_samples(self.hull, max(mu_samples, self.hull.size))
        self.s_grid = np.linspace(0.0, 1.0, s_samples)
        self._grid_cache = None

    # -- grid machinery ----------------------------------------------------

    def _grid(self):
        """Flattened (s, mu) grid and the per-eigenvalue factor table H.

        H[g, i] = Omega(nu_i)/v(nu_i) * (vf)^(N)((1-s_g) mu_g + s_g nu_i) / N!
        so that the core matrix at grid point g is S diag(H[g]) S^-1.
        """
        if self._grid_cache is None:
            ev = self.fac.eigenvalues
            s = np.repeat(self.s_grid, self.mu_points.size)
            mu = np.tile(self.mu_points, self.s_grid.size)
            P = ((1.0 - s) * mu)[:, np.newaxis] + s[:, np.newaxis] * ev[np.newaxis, :]
            H = self.vf_derivative(P)
            H *= self.weights[np.newaxis, :] / float(factorial(self.N))
            if not np.all(np.isfinite(H)):
                raise ValueError("bound evaluation overflowed; check poles vs spectrum")
            self._grid_cache = (s, mu, H)
        return self._grid_cache

    def _result(self, values: np.ndarray) -> BoundResult:
        g = int(np.argmax(values))
        s, mu, _ = self._grid()
        return BoundResult(
            value=float(values[g]),
            argmax_s=float(s[g]),
            argmax_mu=complex(mu[g]),
            n_s=self.s_grid.size,
            n_mu=self.mu_points.size,
        )


def bound_vector(q: BoundQuery, b) -> BoundResult:
    """max over the grid of || core(s, mu) b ||_2 (this is e1)."""
    b = as_vector(b)
    _, _, H = q._grid()
    c = q.fac.solve(b)
    R = q.fac.S @ (H * c[np.newaxis, :]).T
    return q._result(np.linalg.norm(R, axis=0))


def bound_bilinear(q: BoundQuery, b, d) -> BoundResult:
    """max over the grid of | d^H core(s, mu) b |."""
    b = as_vector(b)
    d = as_vector(d)
    _, _, H = q._grid()
    c = q.fac.solve(b)
    u = d.conj() @ q.fac.S
    return q._result(np.abs(H @ (u * c)))

