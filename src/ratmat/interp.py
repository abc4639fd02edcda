"""Confluent divided differences, Hermite/Newton interpolation, rational
interpolation with a fixed denominator, and multipoint rational fitting.

Interpolation nodes are an ordered complex sequence; a repeated node encodes
a derivative (Hermite) condition of correspondingly higher order.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import factorial

import numpy as np
import numpy.polynomial.polynomial as npp

from .jets import FactoredPoly
from .linalg import as_vector

# Nodes closer than this, relative to max(1, max |z|), are one confluent node.
CONFLUENCE_TOL = 1e-12


def denominator_at(v: FactoredPoly, z, message: str) -> np.ndarray:
    """v at the points z, refused with ValueError(message) where |v| is at
    most CONFLUENCE_TOL |v.scale| max(1, max |z|)^max(deg v, 1), and as an
    overflow where it is not finite."""
    with np.errstate(over="ignore", invalid="ignore"):  # refused below
        vals = v(z)
    if not np.all(np.isfinite(vals)):
        raise ValueError("denominator overflows: |v| is beyond the float range at a point")
    floor = CONFLUENCE_TOL * abs(v.scale) * np.abs(z).max(initial=1.0) ** max(v.degree, 1)
    if np.any(np.abs(vals) <= floor):
        raise ValueError(message)
    return vals


class NodeList:
    """Interpolation nodes with multiplicities encoded by repetition.

    Canonicalization snaps nodes within the confluence tolerance to the first
    occurrence and stores equal nodes adjacently; distinct values keep their
    first-appearance order.  ``tol`` is relative: two nodes merge when they
    are within tol * max(1, max |z|) of each other.
    """

    def __init__(self, nodes, tol: float = CONFLUENCE_TOL):
        raw = as_vector(nodes, "nodes")
        if raw.size == 0:
            raise ValueError("empty node list")
        tol = tol * max(1.0, float(np.abs(raw).max()))
        reps: list[complex] = []
        counts: list[int] = []
        for z in raw:
            for i, r in enumerate(reps):
                if abs(z - r) <= tol:
                    counts[i] += 1
                    break
            else:
                reps.append(complex(z))
                counts.append(1)
        self.reps = np.array(reps)
        self.mults = np.array(counts, dtype=np.int64)
        self.nodes = np.repeat(self.reps, self.mults)

    def __len__(self) -> int:
        return self.nodes.size

    def omega(self) -> FactoredPoly:
        """Node polynomial prod (z - z_k) over all nodes with multiplicity."""
        return FactoredPoly(self.reps, self.mults, 1.0)

    def append(self, z: complex) -> "NodeList":
        return NodeList(np.append(self.nodes, z))


def divided_differences(f, nodes: NodeList) -> np.ndarray:
    """Divided differences f[z1], f[z1,z2], ..., f[z1,...,zN].

    The table recurrence is used where the denominator is nonzero; a run of
    equal nodes takes the confluent value f^(j)(z)/j!.
    """
    z = nodes.nodes
    N = z.size
    # the run of equal nodes each node lies in, and one jet per run up to
    # the order its multiplicity requires
    run = np.repeat(np.arange(nodes.reps.size), nodes.mults)
    jets = [f.eval(r, int(m) - 1) for r, m in zip(nodes.reps, nodes.mults)]
    col = np.array([jets[k][0] for k in run])
    out = [col[0]]
    for j in range(1, N):
        nxt = np.empty(N - j, dtype=np.complex128)
        for i in range(N - j):
            if run[i] == run[i + j]:
                nxt[i] = jets[run[i]][j] / factorial(j)
            else:
                nxt[i] = (col[i + 1] - col[i]) / (z[i + j] - z[i])
        col = nxt
        out.append(col[0])
    return np.array(out)


class NewtonForm:
    """Polynomial in Newton form over a node list.

    p(z) = c0 + c1 (z - z1) + c2 (z - z1)(z - z2) + ...
    """

    def __init__(self, nodes: NodeList, coefficients):
        self.nodes = nodes
        self.coefficients = as_vector(coefficients, "coefficients")
        if self.coefficients.size != len(nodes):
            raise ValueError("need one coefficient per node")

    @property
    def degree(self) -> int:
        return self.coefficients.size - 1

    def __call__(self, z):
        z = np.asarray(z, dtype=np.complex128)
        w = self.nodes.nodes
        c = self.coefficients
        p = np.full(z.shape, c[-1], dtype=np.complex128)
        for j in range(c.size - 2, -1, -1):
            p = c[j] + (z - w[j]) * p
        return p

    def power_coeffs(self) -> np.ndarray:
        """Ascending power-basis coefficients of the same polynomial."""
        w = self.nodes.nodes
        c = self.coefficients
        p = np.array([c[-1]], dtype=np.complex128)
        for j in range(c.size - 2, -1, -1):
            p = npp.polymul(p, np.array([-w[j], 1.0]))
            p[0] += c[j]
        return p


def hermite_interpolate(f, nodes: NodeList) -> NewtonForm:
    """Interpolating polynomial matching f and its derivatives at the nodes."""
    return NewtonForm(nodes, divided_differences(f, nodes))


class RationalInterpolant:
    """r = u/v with a fixed denominator v and numerator in Newton form."""

    def __init__(self, numerator: NewtonForm, denominator: FactoredPoly,
                 nodes: NodeList):
        denominator_at(denominator, nodes.reps, "denominator vanishes at node")
        if numerator.degree > len(nodes) - 1:
            raise ValueError("numerator degree exceeds N - 1")
        self.numerator = numerator
        self.denominator = denominator
        self.nodes = nodes

    @property
    def poles(self) -> np.ndarray:
        return self.denominator.roots

    def __call__(self, z):
        return self.numerator(z) / self.denominator(z)


def rational_interpolate_fixed_denominator(
    f, nodes: NodeList, denominator: FactoredPoly
) -> RationalInterpolant:
    """Interpolate the jet f by u/v with v fixed: u interpolates f.times(v), v*f."""
    u = hermite_interpolate(f.times(denominator), nodes)
    return RationalInterpolant(u, denominator, nodes)


def remainder_scalar(f, r: RationalInterpolant, z: complex) -> complex:
    """Interpolation remainder Omega(z)/v(z) * (v f)[z1,...,zN,z]."""
    v = r.denominator
    vz = complex(v(np.asarray(z)))
    if vz == 0:
        raise ValueError("denominator vanishes at evaluation point")
    omega = r.nodes.omega()
    ext = r.nodes.append(z)
    dd = divided_differences(f.times(v), ext)[-1]
    return complex(omega(np.asarray(z))) / vz * complex(dd)


class UnattainablePointError(ValueError):
    """The fitted denominator vanishes at a sample point."""

    def __init__(self, index: int, point: complex):
        super().__init__(
            f"denominator vanishes at sample {index} (z = {point}); "
            "interpolation condition unattainable"
        )
        self.index = index
        self.point = point


@dataclass
class RationalFit:
    """Result of a linearized multipoint rational fit."""

    u_coeffs: np.ndarray
    v_coeffs: np.ndarray
    poles: np.ndarray
    residuals: np.ndarray


def _conjugate_closed(pts: np.ndarray, vals: np.ndarray) -> bool:
    """True if the sample set is closed under complex conjugation."""
    scale_z = max(np.abs(pts).max(), 1.0)
    scale_f = max(np.abs(vals).max(), 1.0)
    for z, fv in zip(pts, vals):
        hit = (np.abs(pts - z.conjugate()) <= 1e-12 * scale_z) & (
            np.abs(vals - fv.conjugate()) <= 1e-10 * scale_f
        )
        if not np.any(hit):
            return False
    return True


def linearized_rational_fit(samples, L: int, M: int) -> RationalFit:
    """Fit u/v (deg u <= L, deg v <= M) through L+M+1 samples.

    Solves the linearized conditions u(z_i) - f_i v(z_i) = 0 as the
    minimal-singular-value null vector of the (L+M+1) x (L+M+2) coefficient
    system, with columns scaled by powers of rho = max |z_i| for balance.
    The denominator coefficient vector is normalized to unit Euclidean norm
    with positive-real leading entry.

    When the samples are closed under conjugation the null vector is
    computed in real arithmetic, so the coefficients are real and the pole
    set is conjugate-symmetric (the null space can be nearly degenerate and
    a complex SVD would pick an unsymmetric vector from it).
    """
    pts = np.array([complex(z) for z, _ in samples])
    vals = np.array([complex(fv) for _, fv in samples])
    n = pts.size
    if n != L + M + 1:
        raise ValueError(f"need exactly L+M+1 = {L + M + 1} samples, got {n}")
    if len(set(pts.tolist())) != n:
        raise ValueError("sample points must be distinct")

    rho = np.abs(pts).max() or 1.0
    zs = pts / rho
    A = np.empty((n, L + M + 2), dtype=np.complex128)
    for k in range(L + 1):
        A[:, k] = zs ** k
    for k in range(M + 1):
        A[:, L + 1 + k] = -vals * zs ** k
    if _conjugate_closed(pts, vals):
        _, _, Vh = np.linalg.svd(np.vstack([A.real, A.imag]))
        null = Vh[-1].astype(np.complex128)
    else:
        _, _, Vh = np.linalg.svd(A)
        null = Vh[-1].conj()

    scale_u = rho ** -np.arange(L + 1)
    scale_v = rho ** -np.arange(M + 1)
    u_c = null[: L + 1] * scale_u
    v_c = null[L + 1 :] * scale_v

    lead = v_c[np.nonzero(np.abs(v_c) > 1e-14 * np.abs(v_c).max())[0][-1]]
    phase = abs(lead) / lead
    norm = np.linalg.norm(v_c)
    u_c = u_c * (phase / norm)
    v_c = v_c * (phase / norm)

    v_at = npp.polyval(pts, v_c)
    vmax = np.abs(v_at).max()
    bad = np.nonzero(np.abs(v_at) <= 1e-12 * max(vmax, 1e-300))[0]
    if bad.size:
        raise UnattainablePointError(int(bad[0]), complex(pts[bad[0]]))

    residuals = np.abs(npp.polyval(pts, u_c) / v_at - vals)
    poles = FactoredPoly.from_coeffs(v_c).roots
    return RationalFit(u_c, v_c, poles, residuals)

