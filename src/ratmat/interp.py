"""Confluent divided differences, Hermite/Newton interpolation, rational
interpolation with a fixed denominator, multipoint rational fitting, and
partial fractions.

Interpolation nodes are an ordered complex sequence; a repeated node encodes
a derivative (Hermite) condition of correspondingly higher order.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import factorial

import numpy as np
import numpy.polynomial.polynomial as npp

from .jets import FactoredPoly, PolyJet, ProductJet, jet_divide
from .linalg import as_vector

# Nodes closer than this (absolute) are treated as one confluent node.
CONFLUENCE_TOL = 1e-12


class NodeList:
    """Interpolation nodes with multiplicities encoded by repetition.

    Canonicalization snaps nodes within the confluence tolerance to the first
    occurrence and stores equal nodes adjacently; distinct values keep their
    first-appearance order.
    """

    def __init__(self, nodes, tol: float = CONFLUENCE_TOL):
        raw = as_vector(nodes, "nodes")
        if raw.size == 0:
            raise ValueError("empty node list")
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

    def __iter__(self):
        return iter(self.nodes)

    @property
    def max_multiplicity(self) -> int:
        return int(self.mults.max())

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
    # one jet per distinct node, up to the order its multiplicity requires
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

    def eval(self, z, order: int):
        """Jet of p at z via nested multiplication carried on derivatives."""
        z = np.asarray(z, dtype=np.complex128)
        w = self.nodes.nodes
        c = self.coefficients
        jet = np.zeros((order + 1,) + z.shape, dtype=np.complex128)
        jet[0] = c[-1]
        for j in range(c.size - 2, -1, -1):
            shifted = z - w[j]
            for k in range(order, 0, -1):
                jet[k] = shifted * jet[k] + k * jet[k - 1]
            jet[0] = c[j] + shifted * jet[0]
        return jet

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
        vals = np.abs(denominator(nodes.reps))
        scale = max(np.abs(nodes.reps).max(), 1.0)
        if np.any(vals <= CONFLUENCE_TOL * scale ** max(denominator.degree, 1)):
            raise ValueError("denominator vanishes at node")
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
    """Interpolate f by u/v with v fixed: u interpolates the product v*f."""
    u = hermite_interpolate(ProductJet(denominator, f), nodes)
    return RationalInterpolant(u, denominator, nodes)


def remainder_scalar(f, r: RationalInterpolant, z: complex) -> complex:
    """Interpolation remainder Omega(z)/v(z) * (v f)[z1,...,zN,z]."""
    v = r.denominator
    vz = complex(v(np.asarray(z)))
    if vz == 0:
        raise ValueError("denominator vanishes at evaluation point")
    omega = r.nodes.omega()
    ext = r.nodes.append(z)
    dd = divided_differences(ProductJet(v, f), ext)[-1]
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

    interpolant: RationalInterpolant
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
    v_poly = FactoredPoly.from_coeffs(v_c)
    node_list = NodeList(pts)
    u_newton = hermite_interpolate(PolyJet(u_c), node_list)
    interpolant = RationalInterpolant(u_newton, v_poly, node_list)
    return RationalFit(interpolant, u_c, v_c, v_poly.roots.copy(), residuals)


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
        cof = v.restrict(pole)
        top = rem_jetter.eval(pole, m - 1)
        bot = cof.eval(pole, m - 1)
        taylor = jet_divide(top, bot)
        fact = np.array([factorial(j) for j in range(m)])
        c = taylor / fact  # c_j = (rem/cof)^(j)(pole)/j!
        # c_j (z-pole)^(j-m): the (z-pole)^(-i) coefficient is c_{m-i}
        residues.append(np.array([c[m - j] for j in range(1, m + 1)]))
    return PartialFractions(np.asarray(quot, dtype=np.complex128), v.roots.copy(), residues)
