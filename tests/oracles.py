"""Reference routes used only by the tests.

Everything here deliberately avoids the library's own evaluation paths:
matrix exponentials come from a scaled-and-squared Taylor sum, derivatives
from difference stencils, p(A) and r(A) b from the matrix A itself by
products and shifted LU solves, with u/v and Omega/v split into partial
fractions here (by polynomial and quotient jets of this module), the jet of
a product by the Leibniz rule instead of the library's closed form for
v e^(t.), and the bound's (s, mu) grid from the jet at every point instead
of the library's factored tables, or from the factored tables with every
core vector formed instead of the library's Gram matrices.  Agreement
between library and oracle is then a two-route check instead of a
tautology.  The numerical-range box and its polygon helpers live here too:
only the tests use them, to check where the reduced spectrum lies.  So do
the writers of the CLI's JSON matrix format, which the library only reads.
"""

from dataclasses import dataclass
from math import comb, factorial, pi

import numpy as np
import numpy.polynomial.polynomial as npp
import scipy.linalg as sla

from ratmat.bounds import BoundQuery, BoundResult
from ratmat.geometry import convex_hull
from ratmat.interp import NewtonForm, NodeList, RationalInterpolant
from ratmat.jets import FactoredPoly
from ratmat.linalg import EigenFactorization, as_matrix, as_square_matrix, as_vector


class PolyJet:
    """Polynomial with ascending coefficients c0 + c1 z + ...; exact jets."""

    def __init__(self, coeffs):
        c = np.atleast_1d(np.asarray(coeffs, dtype=np.complex128))
        if c.ndim != 1 or c.size == 0:
            raise ValueError("coefficients must be a nonempty 1-D sequence")
        self.coeffs = c

    def __call__(self, z):
        return npp.polyval(np.asarray(z, dtype=np.complex128), self.coeffs)

    def eval(self, z, order: int):
        z = np.asarray(z, dtype=np.complex128)
        rows = []
        c = self.coeffs
        for _ in range(order + 1):
            rows.append(npp.polyval(z, c) if c.size else np.zeros_like(z))
            c = npp.polyder(c) if c.size > 1 else np.zeros(0)
        return np.stack(rows)


class FunctionJet:
    """Jet backed by explicit derivative callables fns[k] = f^(k)."""

    def __init__(self, fns):
        self.fns = list(fns)
        if not self.fns:
            raise ValueError("need at least the value callable")

    def __call__(self, z):
        return np.asarray(self.fns[0](np.asarray(z, dtype=np.complex128)),
                          dtype=np.complex128)

    def times(self, p):
        return ProductJet(p, self)

    def eval(self, z, order: int):
        if order >= len(self.fns):
            raise ValueError(
                f"derivative order {order} unavailable: only "
                f"{len(self.fns) - 1} provided"
            )
        z = np.asarray(z, dtype=np.complex128)
        return np.stack(
            [np.asarray(fn(z), dtype=np.complex128) for fn in self.fns[: order + 1]]
        )


class ProductJet:
    """Jet of a product f*g via the Leibniz rule: the reference the
    library's closed-form jet of v e^(t.) is checked against."""

    def __init__(self, f, g):
        self.f, self.g = f, g

    def __call__(self, z):
        return self.f(z) * self.g(z)

    def eval(self, z, order: int):
        return jet_product(self.f.eval(z, order), self.g.eval(z, order))

    def times(self, p):
        return ProductJet(p, self)


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


def vexp_w_loop(v: FactoredPoly, t: float, N: int) -> np.ndarray:
    """Coefficients of w with (v e^(t.))^(N) = e^(t.) w, by the loop that
    ``VExpDerivative.__init__`` ran before the closed form moved to
    ``ExpJet.w``: the bits the bound's grid is pinned to."""
    t = float(t)
    d = v.coeffs()
    w = np.zeros(d.size, dtype=np.complex128)
    for j in range(min(N, v.degree) + 1):
        w[: d.size] += comb(N, j) * t ** (N - j) * d
        d = npp.polyder(d)
    return w


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


def restrict(v: FactoredPoly, drop_root: complex) -> FactoredPoly:
    """The cofactor of v with one root removed entirely."""
    keep = [i for i, r in enumerate(v.roots) if r != drop_root]
    return FactoredPoly(v.roots[keep], v.mults[keep], v.scale)


@dataclass
class PartialFractions:
    """Omega/v = quotient + sum_k sum_j residues[k][j-1] / (z - pole_k)^j."""

    quotient: np.ndarray  # ascending coefficients, empty for a zero quotient
    poles: np.ndarray
    residues: list  # residues[k][j-1] multiplies (z - pole_k)^(-j)

    def __call__(self, z):
        z = np.asarray(z, dtype=np.complex128)
        out = npp.polyval(z, self.quotient) if self.quotient.size else np.zeros_like(z)
        for pole, res in zip(self.poles, self.residues):
            shifted = z - pole
            for j, r in enumerate(res, start=1):
                out = out + r / shifted ** j
        return out


def partial_fractions(omega_coeffs, v: FactoredPoly) -> PartialFractions:
    """Decompose Omega/v into polynomial quotient plus pole terms.

    Omega is given by ascending coefficients; v in factored form.  Residues
    at a pole of multiplicity m come from the order-(m-1) Taylor jet of
    (remainder / cofactor) there.
    """
    omega = as_vector(omega_coeffs, "omega coefficients")
    if not omega.size or not np.any(omega):
        raise ValueError("zero numerator polynomial")
    if v.degree == 0:
        return PartialFractions(omega / v.scale, np.zeros(0, complex), [])
    quot, rem = npp.polydiv(omega, v.coeffs())
    quot = np.trim_zeros(quot, "b")
    rem_jetter = PolyJet(rem if rem.size else np.zeros(1))

    residues = []
    for pole, m in zip(v.roots, v.mults):
        m = int(m)
        cof = restrict(v, pole)
        top = rem_jetter.eval(pole, m - 1)
        bot = PolyJet(cof.coeffs()).eval(pole, m - 1)
        taylor = jet_divide(top, bot)
        fact = np.array([factorial(j) for j in range(m)])
        c = taylor / fact  # c_j = (rem/cof)^(j)(pole)/j!
        # c_j (z-pole)^(j-m): the (z-pole)^(-i) coefficient is c_{m-i}
        residues.append(np.array([c[m - j] for j in range(1, m + 1)]))
    return PartialFractions(np.asarray(quot, dtype=np.complex128), v.roots.copy(), residues)


def matrix_to_json(m) -> dict:
    """m in the JSON matrix format that linalg.matrix_from_json reads."""
    m = as_matrix(m)
    data = [[float(z.real), float(z.imag)] for z in m.reshape(-1)]
    return {"rows": int(m.shape[0]), "cols": int(m.shape[1]), "data": data}


def vector_to_json(v) -> dict:
    """v as a one-column matrix in the JSON matrix format."""
    return matrix_to_json(as_vector(v).reshape(-1, 1))


def taylor_expm(A, terms=30):
    """e^A by scaling and squaring of a truncated Taylor sum.

    The argument is halved until its max-row-sum norm is <= 0.5, so the
    30-term tail is far below double precision.
    """
    A = np.asarray(A, dtype=np.complex128)
    n = A.shape[0]
    norm = float(np.abs(A).sum(axis=1).max()) if A.size else 0.0
    squarings = 0
    while norm > 0.5:
        norm /= 2.0
        squarings += 1
    B = A / 2.0 ** squarings
    E = np.eye(n, dtype=np.complex128)
    term = np.eye(n, dtype=np.complex128)
    for k in range(1, terms + 1):
        term = term @ B / k
        E = E + term
    for _ in range(squarings):
        E = E @ E
    return E


def central_difference(fn, z, h):
    """(fn(z+h) - fn(z-h)) / (2h), an order-h^2 derivative stencil."""
    return (fn(z + h) - fn(z - h)) / (2.0 * h)


def random_diagonalizable(rng, n, radius=2.0, separation=0.1, cond_limit=1e4):
    """A = S diag(ev) S^-1 with simple, well-separated spectrum.

    Eigenvalues are drawn uniformly in a disc of the given radius and
    redrawn until pairwise distances exceed ``separation``; S is redrawn
    until its one-norm condition estimate is below ``cond_limit``.
    Returns (A, S, ev, Sinv).
    """
    for _ in range(200):
        ev = radius * (rng.uniform(-1, 1, n) + 1j * rng.uniform(-1, 1, n))
        diffs = np.abs(ev[:, None] - ev[None, :]) + np.eye(n)
        if diffs.min() > separation:
            break
    else:
        raise RuntimeError("no well-separated spectrum found")
    for _ in range(50):
        S = rng.uniform(-1, 1, (n, n)) + 1j * rng.uniform(-1, 1, (n, n))
        Sinv = np.linalg.inv(S)
        cond = np.abs(S).sum(axis=0).max() * np.abs(Sinv).sum(axis=0).max()
        if cond < cond_limit:
            break
    else:
        raise RuntimeError("no acceptably conditioned S found")
    A = (S * ev[None, :]) @ Sinv
    return A, S, ev, Sinv


def matfun_via_factorization(fac: EigenFactorization, f) -> np.ndarray:
    """f(A) = S diag(f(eigenvalues)) S^-1 for a vectorized scalar f.

    S^-1 is formed densely here, which the library never does.
    """
    if not fac.usable:
        raise ValueError("eigenvector matrix flagged unusable; cannot form f(A)")
    vals = np.asarray(f(fac.eigenvalues), dtype=np.complex128)
    if vals.shape != fac.eigenvalues.shape or not np.all(np.isfinite(vals)):
        raise ValueError("f undefined (non-finite) at an eigenvalue")
    return (fac.S * vals[np.newaxis, :]) @ np.linalg.inv(fac.S)


def apply_partial_fractions(pf: PartialFractions, A, X) -> np.ndarray:
    """pf(A) X for a vector or a block of columns X.

    The quotient goes through Horner in A, each pole term through repeated
    solves with one LU of (A - pole I).
    """
    n = A.shape[0]
    out = np.zeros_like(X)
    if pf.quotient.size:
        acc = pf.quotient[-1] * X
        for c in pf.quotient[-2::-1]:
            acc = A @ acc + c * X
        out = out + acc
    for pole, res in zip(pf.poles, pf.residues):
        lu = sla.lu_factor(A - pole * np.eye(n))
        Y = X
        for coeff in res:
            # 1/(z - pole)^j term: j solves against (A - pole I)
            Y = sla.lu_solve(lu, Y)
            if not np.all(np.isfinite(Y)):
                raise ValueError(f"pole meets spectrum: solve at {pole} diverged")
            out = out + coeff * Y
    return out


def rational_apply(r: RationalInterpolant, A, b) -> np.ndarray:
    """r(A) b through the partial fractions of u/v and repeated solves."""
    A = as_square_matrix(A)
    b = as_vector(b)
    if b.size != A.shape[0]:
        raise ValueError("dimension mismatch between A and b")
    pf = partial_fractions(r.numerator.power_coeffs(), r.denominator)
    return apply_partial_fractions(pf, A, b)


def poly_apply(p: NewtonForm, A) -> np.ndarray:
    """A Newton-form polynomial at a matrix argument, by nested
    multiplication over the (A - z_k I) factors."""
    A = as_square_matrix(A)
    n = A.shape[0]
    w = p.nodes.nodes
    c = p.coefficients
    P = c[-1] * np.eye(n, dtype=np.complex128)
    for j in range(c.size - 2, -1, -1):
        P = (A - w[j] * np.eye(n)) @ P
        P[np.diag_indices(n)] += c[j]
    return P


def bound_core_matrix(q: BoundQuery, s: float, mu: complex) -> np.ndarray:
    """The bounded matrix Omega(A)[v(A)]^-1 (vf)^(N)((1-s)mu I + s A)/N!.

    Omega(A)[v(A)]^-1 goes through the partial fractions of Omega/v (shifted
    solves, no explicit inverse of v(A)); the derivative factor goes through
    the factorization with a dense S^-1.
    """
    A = (q.fac.S * q.fac.eigenvalues[np.newaxis, :]) @ np.linalg.inv(q.fac.S)
    pf = partial_fractions(q.omega.coeffs(), q.v)
    K = apply_partial_fractions(pf, A, np.eye(A.shape[0], dtype=np.complex128))
    F = matfun_via_factorization(
        q.fac, lambda w: q.vf_derivative((1.0 - s) * mu + s * w)
    ) / float(factorial(q.N))
    return K @ F


def bound_grid_pointwise(q: BoundQuery, b, d=None) -> BoundResult:
    """e1 (or, with d, the bilinear bound) by the jet at every grid point.

    The table H[g, i] = Omega(nu_i)/v(nu_i) (vf)^(N)((1-s_g) mu_g + s_g nu_i)/N!
    over the flattened s-major, mu-minor grid is formed in full from
    ``q.vf_derivative``; the vector bound multiplies S by its len(grid)
    columns, the bilinear one contracts it with u * c.
    """
    ev = q.fac.eigenvalues
    s = np.repeat(q.s_grid, q.mu_points.size)
    mu = np.tile(q.mu_points, q.s_grid.size)
    P = ((1.0 - s) * mu)[:, np.newaxis] + s[:, np.newaxis] * ev[np.newaxis, :]
    H = q.vf_derivative(P)
    H *= q.weights[np.newaxis, :] / float(factorial(q.N))
    if not np.all(np.isfinite(H)):
        raise ValueError("bound evaluation overflowed; check poles vs spectrum")
    c = q.fac.solve(as_vector(b))
    if d is None:
        values = np.linalg.norm(q.fac.S @ (H * c[np.newaxis, :]).T, axis=0)
    else:
        u = as_vector(d).conj() @ q.fac.S
        values = np.abs(H @ (u * c))
    g = int(np.argmax(values))
    return BoundResult(value=float(values[g]), argmax_s=float(s[g]),
                       argmax_mu=complex(mu[g]), n_s=q.s_grid.size,
                       n_mu=q.mu_points.size)


def bound_vector_tensor(q: BoundQuery, b) -> np.ndarray:
    """The grid of e1 values from the factored tables, every core vector
    formed; ``q._result`` of it is e1 as ``bound_vector`` gave it before
    its Gram form.

    The tensor R[j, :, m] = Y_j C[j, m] of all n_s n n_mu core vectors is
    built from the grid GEMM Y and C, and its 2-norms are summed over the
    eigenvalue axis.
    """
    C, X = q._tables()
    Xc = X * q._fold(q.fac.solve(as_vector(b)))
    n_s, n_k, n = X.shape
    Y = q.fac.times(Xc.reshape(n_s * n_k, n).T).reshape(n, n_s, n_k)
    R = Y.transpose(1, 0, 2) @ C.transpose(0, 2, 1)
    with np.errstate(over="ignore"):  # an overflowed norm is refused by _result
        return np.sqrt(np.einsum("jim,jim->jm", R.real, R.real)
                       + np.einsum("jim,jim->jm", R.imag, R.imag))


def taylor_row_major(w, a) -> np.ndarray:
    """Taylor coefficients of the polynomial w at a, T[..., k], by repeated
    synthetic division over the last axis: the point-major loop that
    ``VExpDerivative.taylor`` ran before it went coefficient-major."""
    a = np.asarray(a, dtype=np.complex128)
    T = np.empty(a.shape + w.shape, dtype=np.complex128)
    T[...] = w
    for i in range(w.size - 1):
        for j in range(w.size - 2, i - 1, -1):
            T[..., j] += a * T[..., j + 1]
    return T


def eig_extreme_hermitian(A):
    """Extreme eigenvalues (min, max) of a Hermitian matrix.

    The input is symmetrized internally; it must be Hermitian to a tolerance
    of 1e-10 times its largest entry.
    """
    A = as_square_matrix(A)
    if A.shape[0] == 0:
        raise ValueError("empty matrix")
    scale = np.abs(A).max()
    asym = np.abs(A - A.conj().T).max()
    if asym > 1e-10 * max(scale, 1e-300):
        raise ValueError(f"matrix is not Hermitian (asymmetry {asym:.2e})")
    H = 0.5 * (A + A.conj().T)
    w = np.linalg.eigvalsh(H)
    return float(w[0]), float(w[-1])


def clip_polygon_halfplane(vertices, a: complex, n: complex) -> np.ndarray:
    """Clip a ccw convex polygon to the half-plane Re(conj(n) (z - a)) <= 0.

    ``n`` is the outward normal of the boundary line through ``a``.
    Returns the (possibly empty) clipped vertex array.
    """
    verts = as_vector(vertices, "vertices")
    if verts.size == 0:
        return verts

    def side(z: complex) -> float:
        return (np.conj(n) * (z - a)).real

    out: list[complex] = []
    m = verts.size
    for i in range(m):
        p, q = verts[i], verts[(i + 1) % m]
        sp, sq = side(p), side(q)
        if sp <= 0:
            out.append(p)
            if sq > 0:
                out.append(p + (q - p) * (sp / (sp - sq)))
        elif sq <= 0:
            out.append(p + (q - p) * (sp / (sp - sq)))
    if not out:
        return np.array([], dtype=np.complex128)
    # dedup consecutive near-identical corners from tangential cuts
    scale = max(abs(z) for z in out) or 1.0
    dedup: list[complex] = []
    for z in out:
        if not dedup or abs(z - dedup[-1]) > 1e-14 * scale:
            dedup.append(z)
    if len(dedup) > 1 and abs(dedup[0] - dedup[-1]) <= 1e-14 * scale:
        dedup.pop()
    return np.array(dedup)


def polygon_contains(vertices, z: complex, slack: float = 0.0) -> bool:
    """Point-in-convex-polygon test with absolute slack outward.

    ``vertices`` must be in counterclockwise order; degenerate polygons
    (segments, single points) are handled by distance.
    """
    verts = as_vector(vertices, "vertices")
    m = verts.size
    if m == 0:
        raise ValueError("empty polygon")
    if m == 1:
        return abs(z - verts[0]) <= slack
    if m == 2:
        return _point_segment_distance(z, verts[0], verts[1]) <= slack
    for i in range(m):
        a, b = verts[i], verts[(i + 1) % m]
        edge = b - a
        # signed distance of z from the edge line, positive inside (ccw order)
        if (edge.conjugate() * (z - a)).imag / abs(edge) < -slack:
            return False
    return True


def _point_segment_distance(z: complex, a: complex, b: complex) -> float:
    d = b - a
    L2 = abs(d) ** 2
    if L2 == 0.0:
        return abs(z - a)
    t = ((z - a).real * d.real + (z - a).imag * d.imag) / L2
    t = min(1.0, max(0.0, t))
    return abs(z - (a + t * d))


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


def dense_krylov_vectors(A, x, kappa0, pole_mults, dual):
    """Raw rational Krylov vectors by numpy products and solves against A.

    Powers x, Mx, ... (kappa0 of them), then for each (lam, m) the resolvent
    powers (lam I - M)^-j x for j = 1..m, with M = A, or M = A^H and conj(lam)
    on the dual side.
    """
    M = A.conj().T if dual else A
    out, y = [], x
    for _ in range(kappa0):
        out.append(y)
        y = M @ y
    for lam, m in pole_mults:
        shift = np.conj(lam) if dual else lam
        y = x
        for _ in range(m):
            y = np.linalg.solve(shift * np.eye(x.size) - M, y)
            out.append(y)
    return out


def krylov_basis_longdouble(S, nu, b, kappa0, pole_mults, refinements=3):
    """Orthonormal basis, in np.clongdouble, of the one-sided rational Krylov
    space of A = S diag(nu) S^-1 and b in listing order (see
    dense_krylov_vectors): c = S^-1 b solved in double and refined against
    S with residuals in extended precision, the vectors b, S (nu^j c) and
    S (c / (lam - nu)^j) formed in np.clongdouble, then two passes of
    modified Gram-Schmidt.  On x86-64 long double carries 64 bits of
    mantissa, so c and the basis hold about three more digits than any
    double route to them."""
    Sl, bl, nul = (np.asarray(x, dtype=np.clongdouble) for x in (S, b, nu))
    c = np.linalg.solve(S, b).astype(np.clongdouble)
    for _ in range(refinements):
        c += np.linalg.solve(S, (bl - Sl @ c).astype(np.complex128))
    cols, y = ([bl] if kappa0 else []), c
    for _ in range(1, kappa0):
        y = nul * y
        cols.append(Sl @ y)
    for lam, m in pole_mults:
        y = c
        for _ in range(m):
            y = y / (lam - nul)
            cols.append(Sl @ y)
    basis = []
    for w in cols:
        for _ in range(2):
            for q in basis:
                w = w - (q.conj() @ w) * q
        basis.append(w / np.sqrt(np.sum(w.real ** 2 + w.imag ** 2)))
    return np.column_stack(basis)


def span_gap(Q, V) -> float:
    """||(I - Q Q^H) V||_2 for orthonormal Q (any precision) and V: the sine
    of the largest principal angle between their spans when they have the
    same dimension."""
    V = np.asarray(V, dtype=Q.dtype)
    return float(np.linalg.norm((V - Q @ (Q.conj().T @ V)).astype(np.complex128), 2))


def draw_eigenvectors_summed(rng, n):
    """S as the sum of a real draw and i times a second real draw, the
    expression the trial's one-buffer draw replaced."""
    return rng.uniform(-1.0, 1.0, (n, n)) + 1j * rng.uniform(-1.0, 1.0, (n, n))


def numpy_serial_counts(builds, before: dict) -> dict:
    """The thread counts blas_pin should leave from PIN_BELOW_N up: 1 on
    numpy's builds and the prior count on the others, or no change at all
    when numpy's build is not a library of its own."""
    own = {b.name for b in builds if b.numpy}
    separable = 0 < len(own) < len(builds)
    return {name: 1 if separable and name in own else count
            for name, count in before.items()}


def random_gaussian_matrix(rng, n):
    """Complex Ginibre matrix scaled so the spectrum sits in the unit disc."""
    G = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return G / np.sqrt(2.0 * n)


def divided_differences_by_run_start(f, nodes: NodeList) -> np.ndarray:
    """The library's divided-difference table as it was before it found a
    node's run through one index: jets keyed by the run's first position,
    reached through a second index of run starts.  Kept to pin the library's
    routine to it bit for bit."""
    z = nodes.nodes
    N = z.size
    jets = {}
    pos = 0
    for r, m in zip(nodes.reps, nodes.mults):
        jets[pos] = f.eval(r, int(m) - 1)
        pos += int(m)
    rep_index = np.repeat(np.arange(nodes.reps.size), nodes.mults)
    rep_start = np.repeat(
        np.concatenate(([0], np.cumsum(nodes.mults)[:-1])), nodes.mults
    )

    col = np.array([jets[rep_start[i]][0] for i in range(N)])
    out = [col[0]]
    for j in range(1, N):
        nxt = np.empty(N - j, dtype=np.complex128)
        for i in range(N - j):
            if rep_index[i] == rep_index[i + j]:
                nxt[i] = jets[rep_start[i]][j] / factorial(j)
            else:
                nxt[i] = (col[i + 1] - col[i]) / (z[i + j] - z[i])
        col = nxt
        out.append(col[0])
    return np.array(out)


def genocchi_hermite_oracle(f, nodes: NodeList, quad_points: int) -> complex:
    """Divided difference as an iterated integral of f^(N-1) over a simplex.

    Gauss-Legendre with ``quad_points`` nodes per axis on the nested ranges
    0 <= t_{N-1} <= ... <= t_1 <= 1.  Cost grows like quad_points^(N-1), so
    only N <= 4 is supported.
    """
    z = nodes.nodes
    N = z.size
    if N > 4:
        raise ValueError("oracle scale exceeded: at most 4 nodes supported")
    if N == 1:
        return complex(f.eval(z[0], 0)[0])
    if quad_points < 1:
        raise ValueError("quad_points must be >= 1")

    x, w = np.polynomial.legendre.leggauss(quad_points)
    x = 0.5 * (x + 1.0)  # shift to [0, 1]
    w = 0.5 * w

    upper = np.array(1.0)  # running upper limit t_{k-1}
    weight = np.array(1.0)
    point = np.array(z[0])
    for k in range(1, N):
        t = upper[..., np.newaxis] * x
        weight = weight[..., np.newaxis] * (upper[..., np.newaxis] * w)
        point = point[..., np.newaxis] + t * (z[k] - z[k - 1])
        upper = t
    vals = f.eval(point, N - 1)[N - 1]
    return complex(np.sum(weight * vals))


def contour_divdiff_oracle(
    f, nodes: NodeList, center: complex, radius: float, quad_points: int
) -> complex:
    """Divided difference as the contour integral of f/Omega over a circle.

    Trapezoid rule on |lambda - center| = radius; all nodes must lie strictly
    inside the circle.  Spectrally convergent in quad_points.
    """
    if radius <= 0:
        raise ValueError("radius must be positive")
    if quad_points < 2:
        raise ValueError("quad_points must be >= 2")
    dist = np.abs(nodes.nodes - center)
    if np.any(dist >= radius * (1.0 - 1e-12)):
        raise ValueError("all nodes must lie strictly inside the contour")
    theta = 2.0 * np.pi * np.arange(quad_points) / quad_points
    lam = center + radius * np.exp(1j * theta)
    omega = nodes.omega()
    vals = f.eval(lam, 0)[0] / omega(lam)
    # dlambda = i (lambda - center) dtheta; the 1/(2 pi i) cancels it
    return complex(np.mean(vals * (lam - center)))
