"""Scalar functions applied to matrices.

Polynomials act on a matrix by nested multiplication; rational functions act
on vectors through partial fractions and shifted solves, never by forming
v(A)^-1.  VExpDerivative evaluates the jet (v e^(t.))^(N) of the bound at
scalar points.
"""

from __future__ import annotations

from math import comb

import numpy as np
import numpy.polynomial.polynomial as npp
import scipy.linalg as sla

from .interp import NewtonForm, RationalInterpolant, partial_fractions
from .jets import FactoredPoly
from .linalg import as_square_matrix, as_vector


def poly_apply(p: NewtonForm, A) -> np.ndarray:
    """Evaluate a Newton-form polynomial at a matrix argument.

    Nested multiplication over the (A - z_k I) factors.
    """
    A = as_square_matrix(A)
    n = A.shape[0]
    w = p.nodes.nodes
    c = p.coefficients
    P = c[-1] * np.eye(n, dtype=np.complex128)
    for j in range(c.size - 2, -1, -1):
        P = (A - w[j] * np.eye(n)) @ P
        P[np.diag_indices(n)] += c[j]
    return P


def rational_apply(r: RationalInterpolant, A, b) -> np.ndarray:
    """r(A) b through the partial fractions of u/v and repeated solves."""
    A = as_square_matrix(A)
    b = as_vector(b)
    if b.size != A.shape[0]:
        raise ValueError("dimension mismatch between A and b")
    pf = partial_fractions(r.numerator.power_coeffs(), r.denominator)
    out = np.zeros_like(b)
    if pf.quotient.size:
        # Horner in A applied directly to the vector
        acc = pf.quotient[-1] * b
        for c in pf.quotient[-2::-1]:
            acc = A @ acc + c * b
        out = out + acc
    for pole, res in zip(pf.poles, pf.residues):
        lu = sla.lu_factor(A - pole * np.eye(A.shape[0]))
        x = b
        for j, coeff in enumerate(res, start=1):
            x = sla.lu_solve(lu, x)
            if not np.all(np.isfinite(x)):
                raise ValueError(f"pole meets spectrum: solve at {pole} diverged")
            # 1/(z - pole)^j term: j solves against (A - pole I)
            out = out + coeff * x
    return out


class VExpDerivative:
    """The N-th derivative of z -> v(z) e^(t z) in closed form.

    (v exp_t)^(N)(z) = e^(t z) w(z) with the single polynomial
    w = sum_{j<=min(N, deg v)} C(N,j) t^(N-j) v^(j) of degree deg v.  The
    coefficients of w are precomputed here; a call is one Horner pass over z
    times e^(t z).  Vectorized over z.
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
