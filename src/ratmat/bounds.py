"""Certified a-posteriori error bounds for rational approximation of matrix
functions, plus numerical-range utilities.

The central quantity is, for interpolation nodes z_1..z_N (node polynomial
Omega), denominator v, and f = exp_t,

    e1 = max over s in [0,1], mu in co{z_1..z_N} of
         || Omega(A) [v(A)]^-1 (v f)^(N)((1-s) mu I + s A) / N! ||

in bilinear and vector-norm flavors.  The maximum over the hull
is taken over boundary samples only (maximum modulus), and the s range over a
uniform grid; both grids are part of the query and the result.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import factorial, pi

import numpy as np
import scipy.linalg as sla

from .geometry import clip_polygon_halfplane, convex_hull, hull_boundary_samples
from .interp import CONFLUENCE_TOL, NodeList, partial_fractions
from .jets import ExpJet, FactoredPoly, ProductJet
# eig_small is not called here; perfbench's tracer wraps it by this name
from .linalg import (  # noqa: F401
    as_square_matrix,
    as_vector,
    eig_extreme_hermitian,
    eig_small,
    factorize,
)
from .matfun import VExpDerivative, matfun_via_factorization


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

    ``A`` is a matrix or an EigenFactorization with S^-1 (see
    linalg.factorize).  ``v`` is the fixed denominator; ``f`` defaults to
    exp_t with the given t.  The evaluation always runs through the
    factorization; the denominator is checked against the spectrum.
    """

    def __init__(self, A, nodes: NodeList, v: FactoredPoly, t: float = 1.0,
                 f=None, s_samples: int = 11, mu_samples: int = 50,
                 s_grid=None, mu_points=None):
        self.fac = factorize(A)
        self.nodes = nodes
        self.v = v
        self.f = ExpJet(t) if f is None else f
        self.N = len(nodes)
        self._vexp = (VExpDerivative(v, self.f.t, self.N)
                      if isinstance(self.f, ExpJet) else None)
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
        if mu_points is None:
            want = max(mu_samples, self.hull.size)
            self.mu_points = hull_boundary_samples(self.hull, want)
        else:
            self.mu_points = as_vector(mu_points, "mu_points")
        if s_grid is None:
            if s_samples < 2:
                raise ValueError("need at least the endpoints in the s grid")
            self.s_grid = np.linspace(0.0, 1.0, s_samples)
        else:
            self.s_grid = np.asarray(s_grid, dtype=float)
            if not (np.any(self.s_grid == 0.0) and np.any(self.s_grid == 1.0)):
                raise ValueError("s grid must contain 0 and 1")
        self._grid_cache = None

    # -- scalar derivative factor ------------------------------------------

    def vf_derivative(self, points):
        """(v f)^(N) at an array of points."""
        if self._vexp is not None:
            return self._vexp(points)
        return ProductJet(self.v, self.f).eval(points, self.N)[self.N]

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


def bound_core_matrix(q: BoundQuery, s: float, mu: complex) -> np.ndarray:
    """The bounded matrix Omega(A)[v(A)]^-1 (vf)^(N)((1-s)mu I + s A)/N!.

    Omega(A)[v(A)]^-1 goes through the partial fractions of Omega/v (shifted
    solves, no explicit inverse of v(A)); the derivative factor goes through
    the factorization.
    """
    A = (q.fac.S * q.fac.eigenvalues[np.newaxis, :]) @ q.fac.Sinv
    n = A.shape[0]
    pf = partial_fractions(q.omega.coeffs(), q.v)
    K = np.zeros((n, n), dtype=np.complex128)
    if pf.quotient.size:
        acc = pf.quotient[-1] * np.eye(n, dtype=np.complex128)
        for c in pf.quotient[-2::-1]:
            acc = A @ acc
            acc[np.diag_indices(n)] += c
        K += acc
    for pole, res in zip(pf.poles, pf.residues):
        lu = sla.lu_factor(A - pole * np.eye(n))
        X = np.eye(n, dtype=np.complex128)
        for coeff in res:
            X = sla.lu_solve(lu, X)
            if not np.all(np.isfinite(X)):
                raise ValueError(f"pole meets spectrum: solve at {pole} diverged")
            K += coeff * X
    F = matfun_via_factorization(
        q.fac, lambda w: q.vf_derivative((1.0 - s) * mu + s * w)
    ) / float(factorial(q.N))
    return K @ F


def bound_vector(q: BoundQuery, b) -> BoundResult:
    """max over the grid of || core(s, mu) b ||_2 (this is e1)."""
    b = as_vector(b)
    _, _, H = q._grid()
    c = q.fac.Sinv @ b
    R = q.fac.S @ (H * c[np.newaxis, :]).T
    return q._result(np.linalg.norm(R, axis=0))


def bound_bilinear(q: BoundQuery, b, d) -> BoundResult:
    """max over the grid of | d^H core(s, mu) b |."""
    b = as_vector(b)
    d = as_vector(d)
    _, _, H = q._grid()
    c = q.fac.Sinv @ b
    u = d.conj() @ q.fac.S
    return q._result(np.abs(H @ (u * c)))


def numerical_range_box(A, angles=(0.0, -pi / 2)) -> np.ndarray:
    """Convex polygon containing the numerical range of A.

    Intersection over the given angles phi of the strips

        q_min <= Re(e^(-i phi) lambda) <= q_max

    where q_min/q_max are the extreme eigenvalues of the Hermitian part of
    e^(-i phi) A.  Each strip is widened by a ~1e-12 safety pad so the
    intersection cannot collapse to the empty set through rounding.
    """
    A = as_square_matrix(A)
    angles = np.atleast_1d(np.asarray(angles, dtype=float))
    if angles.size == 0:
        raise ValueError("need at least one angle")
    scale = float(np.linalg.norm(A)) if A.size else 0.0
    pad = 1e-12 * max(1.0, scale)
    R = 2.0 * scale + 1.0
    poly = np.array([R * (-1 - 1j), R * (1 - 1j), R * (1 + 1j), R * (-1 + 1j)])
    for phi in angles:
        rot = np.exp(-1j * phi)
        H = 0.5 * (rot * A + (rot * A).conj().T)
        qmin, qmax = eig_extreme_hermitian(H)
        n = np.exp(1j * phi)
        poly = clip_polygon_halfplane(poly, (qmax + pad) * n, n)
        poly = clip_polygon_halfplane(poly, (qmin - pad) * n, -n)
        if poly.size == 0:
            raise RuntimeError("strip intersection emptied; numerical failure")
    return convex_hull(poly)
