"""Planar convex geometry on points of the complex plane.

Points are complex numbers; polygons are vertex arrays in counterclockwise
order.  Everything here is exact enough for sets with diameters well above
machine precision, which is all the bound evaluation needs.
"""

from __future__ import annotations

import numpy as np

from .linalg import as_vector


def _cross(o: complex, a: complex, b: complex) -> float:
    # z-component of (a-o) x (b-o); > 0 for a left turn
    return (a - o).real * (b - o).imag - (a - o).imag * (b - o).real


def _lex_key(z: complex):
    return (z.real, z.imag)


def convex_hull(points) -> np.ndarray:
    """Convex hull vertices in counterclockwise order (monotone chain).

    Collinear points on hull edges are dropped.  Degenerate inputs collapse:
    a single distinct point gives a one-vertex hull, collinear points give the
    two extreme ones.  The vertex list starts at the lexicographically
    smallest point (by real part, then imaginary part).
    """
    pts = sorted(set(complex(z) for z in as_vector(points, "points")), key=_lex_key)
    if not pts:
        raise ValueError("no points given")
    if len(pts) <= 2:
        return np.array(pts)

    lower: list[complex] = []
    for p in pts:
        while len(lower) >= 2 and _cross(lower[-2], lower[-1], p) <= 0:
            lower.pop()
        lower.append(p)
    upper: list[complex] = []
    for p in reversed(pts):
        while len(upper) >= 2 and _cross(upper[-2], upper[-1], p) <= 0:
            upper.pop()
        upper.append(p)
    return np.array(lower[:-1] + upper[:-1])


def hull_boundary_samples(vertices, count: int) -> np.ndarray:
    """``count`` points on the boundary of a convex polygon.

    All vertices are included; the remaining points are distributed over the
    edges proportionally to edge length (largest-remainder rounding) and
    spaced uniformly within each edge.  Degenerate hulls: a single point just
    returns that point; a segment is traversed once end to end.  The output
    is allocated before anything else, so a count too large for memory
    fails there.
    """
    verts = as_vector(vertices, "vertices")
    m = verts.size
    if m == 0:
        raise ValueError("empty polygon")
    if m == 1:
        return verts.copy()
    if count < m:
        raise ValueError(f"count {count} is below the vertex count {m}")
    if m == 2:
        t = np.linspace(0.0, 1.0, count)
        return verts[0] + t * (verts[1] - verts[0])

    out = np.empty(count, dtype=np.complex128)
    closed = np.append(verts, verts[0])
    seg = np.diff(closed)
    lengths = np.abs(seg)
    total = lengths.sum()
    if total == 0.0:
        out[:] = verts[0]
        return out

    extra = count - m
    quota = extra * lengths / total
    alloc = np.floor(quota).astype(int)
    short = extra - alloc.sum()
    if short > 0:
        order = np.argsort(quota - alloc)[::-1]
        alloc[order[:short]] += 1

    # each vertex, then its edge's k interior points at fractions j / (k + 1)
    start = 0
    for i, k in enumerate(alloc):
        out[start] = closed[i]
        out[start + 1:start + k + 1] = closed[i] + seg[i] * (np.arange(1, k + 1) / (k + 1))
        start += k + 1
    return out

