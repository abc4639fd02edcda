"""Reference routes used only by the tests.

Everything here deliberately avoids the library's own evaluation paths:
matrix exponentials come from a scaled-and-squared Taylor sum, derivatives
from difference stencils.  Agreement between library and oracle is then a
two-route check instead of a tautology.
"""

import numpy as np

from ratmat.interp import NodeList


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


def random_gaussian_matrix(rng, n):
    """Complex Ginibre matrix scaled so the spectrum sits in the unit disc."""
    G = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return G / np.sqrt(2.0 * n)


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
