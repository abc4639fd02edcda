import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from oracles import clip_polygon_halfplane, polygon_contains
from ratmat.geometry import convex_hull, hull_boundary_samples


def test_hull_collinear_collapses_to_segment():
    hull = convex_hull([0.0, 1.0, 2.0])
    assert np.array_equal(hull, [0.0, 2.0])


def test_hull_square_drops_interior_point():
    pts = [0.0, 1.0, 1.0 + 1.0j, 1.0j, 0.5 + 0.5j]
    hull = convex_hull(pts)
    assert np.array_equal(hull, [0.0, 1.0, 1.0 + 1.0j, 1.0j])


def test_hull_degenerate_point():
    assert np.array_equal(convex_hull([2.0 + 1.0j, 2.0 + 1.0j]), [2.0 + 1.0j])
    with pytest.raises(ValueError):
        convex_hull([])


@given(
    base=st.tuples(st.integers(-5, 5), st.integers(-5, 5)),
    step=st.tuples(st.integers(-3, 3), st.integers(-3, 3)).filter(lambda d: d != (0, 0)),
    ks=st.lists(st.integers(-6, 6), min_size=1, max_size=12),
)
def test_hull_of_points_on_a_line_is_its_extremes(base, step, ks):
    """Repeated or collinear points, exact in floating point, give one
    vertex or the lexicographically first and last point, in that order."""
    pts = [complex(*base) + k * complex(*step) for k in ks]
    ends = sorted(set(pts), key=lambda z: (z.real, z.imag))
    hull = convex_hull(pts)
    assert hull.tolist() == (ends if len(ends) == 1 else [ends[0], ends[-1]])


def test_hull_random_halfplane_check():
    """Brute-force: every input lies left of every ccw hull edge, and every
    hull vertex is one of the inputs."""
    rng = np.random.default_rng(53)
    pts = rng.standard_normal(50) + 1j * rng.standard_normal(50)
    hull = convex_hull(pts)
    m = hull.size
    assert m >= 3
    for i in range(m):
        a, b = hull[i], hull[(i + 1) % m]
        cross = (b - a).real * (pts - a).imag - (b - a).imag * (pts - a).real
        assert cross.min() >= -1e-12
    for v in hull:
        assert np.abs(pts - v).min() <= 1e-15


def test_boundary_samples_segment_and_point():
    seg = hull_boundary_samples(np.array([0.0, 1.0]), 3)
    assert np.array_equal(seg, [0.0, 0.5, 1.0])
    pt = hull_boundary_samples(np.array([2.0j]), 7)
    assert np.array_equal(pt, [2.0j])


def test_boundary_samples_square_uniform():
    # perimeter 4 split into 8 points: gaps of 0.5 everywhere
    square = np.array([0.0, 1.0, 1.0 + 1.0j, 1.0j])
    out = hull_boundary_samples(square, 8)
    assert out.size == 8
    closed = np.append(out, out[0])
    gaps = np.abs(np.diff(closed))
    assert np.allclose(gaps, 0.5)
    for v in square:
        assert np.abs(out - v).min() <= 1e-15


def test_boundary_samples_include_vertices_random():
    rng = np.random.default_rng(59)
    hull = convex_hull(rng.standard_normal(30) + 1j * rng.standard_normal(30))
    out = hull_boundary_samples(hull, hull.size + 13)
    assert out.size == hull.size + 13
    for v in hull:
        assert np.abs(out - v).min() <= 1e-15


@given(
    nodes=st.lists(st.complex_numbers(max_magnitude=10.0), min_size=1, max_size=20),
    extra=st.integers(0, 40),
)
def test_boundary_samples_lie_in_hull(nodes, extra):
    """Every boundary sample lies on or inside the hull of the nodes."""
    hull = convex_hull(nodes)
    out = hull_boundary_samples(hull, hull.size + extra)
    slack = 1e-12 * max(1.0, float(np.abs(nodes).max()))
    for z in out:
        assert polygon_contains(hull, z, slack=slack)


def test_boundary_samples_are_vertices_and_edge_fractions():
    """Bit for bit, each edge contributes its vertex v_i, then the points
    v_i + (v_(i+1) - v_i) (j / (k + 1)), j = 1..k, in scalar arithmetic."""
    rng = np.random.default_rng(61)
    for size in (3, 5, 9, 30):
        hull = convex_hull(rng.standard_normal(size) + 1j * rng.standard_normal(size))
        closed = np.append(hull, hull[0])
        for extra in (0, 1, 7, 50, 200):
            out = hull_boundary_samples(hull, hull.size + extra)
            starts = [int(np.flatnonzero(out == v)[0]) for v in hull] + [out.size]
            assert starts[0] == 0 and starts == sorted(starts)
            for i in range(hull.size):
                k = starts[i + 1] - starts[i] - 1
                step = closed[i + 1] - closed[i]
                expect = [closed[i]] + [closed[i] + step * (j / (k + 1))
                                        for j in range(1, k + 1)]
                assert np.array(expect).tobytes() == out[starts[i]:starts[i + 1]].tobytes()


def test_boundary_samples_count_too_small():
    square = np.array([0.0, 1.0, 1.0 + 1.0j, 1.0j])
    with pytest.raises(ValueError, match="below the vertex count"):
        hull_boundary_samples(square, 3)


def test_polygon_contains_square():
    square = np.array([0.0, 1.0, 1.0 + 1.0j, 1.0j])
    assert polygon_contains(square, 0.5 + 0.5j)
    assert polygon_contains(square, 0.0)  # vertex counts as inside
    assert not polygon_contains(square, 1.2 + 0.5j)
    assert polygon_contains(square, 1.2 + 0.5j, slack=0.25)
    assert polygon_contains(np.array([1.0j]), 1.0j + 1e-12, slack=1e-9)
    assert polygon_contains(np.array([0.0, 2.0]), 1.0 + 1e-12, slack=1e-9)


def test_clip_halfplane():
    square = np.array([0.0, 1.0, 1.0 + 1.0j, 1.0j])
    # keep Re z <= 0.5
    clipped = clip_polygon_halfplane(square, 0.5, 1.0)
    assert max(z.real for z in clipped) <= 0.5 + 1e-12
    assert min(z.real for z in clipped) == 0.0
    # cutting everything away leaves the empty polygon
    gone = clip_polygon_halfplane(square, -1.0, 1.0)
    assert gone.size == 0
