"""Rational Krylov order reduction of x' = Ax, x(0) = b, output d^H x.

The search space is spanned by powers A^j b (j < kappa0) and resolvents
(lambda_k I - A)^-j b (j <= kappa_k); the two-sided variant extends it with
the corresponding vectors built from A^H and d.  The reduced model is the
orthogonal projection (Ahat, bhat, dhat) = (V^H A V, V^H b, V^H d).

Every entry point takes A as a matrix or as its EigenFactorization
A = S diag(nu) S^-1 and works on the factorization (linalg.factorize): a
shifted solve is a division by (lambda - nu) in eigen-coordinates, and A is
never multiplied out.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
# rom takes no dense LU; perfbench's tracer counts LUs through this name, so
# a traced run reads 0 instead of reporting the metric absent
import scipy.linalg as sla  # noqa: F401

from .bounds import BoundQuery, BoundResult, bound_bilinear, bound_vector
from .interp import NodeList
from .jets import FactoredPoly
from .linalg import (
    EigenFactorization,
    as_vector,
    eig_small,
    factorize,
    mgs_orthonormalize,
)

# Relative clustering distance for assigning multiplicities to the reduced
# spectrum; Ahat almost surely has simple eigenvalues, but confluent nodes
# must be recognized when they do occur.
CLUSTER_TOL = 1e-8


@dataclass(frozen=True)
class FinitePole:
    lam: complex
    kappa: int = 1
    chi: int = 0

    def __post_init__(self):
        if self.kappa < 0 or self.chi < 0:
            raise ValueError("multiplicities must be nonnegative")


@dataclass(frozen=True)
class PoleSpec:
    """Pole structure of the rational Krylov space.

    kappa0 counts the power vectors b, Ab, ... (the pole at infinity);
    chi0 is its dual multiplicity for the two-sided variant.
    """

    kappa0: int
    poles: tuple = ()
    chi0: int = 0

    def __post_init__(self):
        if self.kappa0 < 0 or self.chi0 < 0:
            raise ValueError("multiplicities must be nonnegative")
        object.__setattr__(self, "poles", tuple(self.poles))
        lams = [p.lam for p in self.poles]
        if len(set(lams)) != len(lams):
            raise ValueError("finite poles must be distinct")
        if self.total("two" if self.is_two_sided else "one") == 0:
            raise ValueError("empty pole specification")

    @property
    def is_two_sided(self) -> bool:
        return self.chi0 > 0 or any(p.chi > 0 for p in self.poles)

    def total(self, side: str) -> int:
        t = self.kappa0 + sum(p.kappa for p in self.poles)
        if side == "two":
            t += self.chi0 + sum(p.chi for p in self.poles)
        return t

    def denominator(self, side: str) -> FactoredPoly:
        """v = prod (lambda - lambda_k)^(kappa_k (+ chi_k)) over finite poles."""
        roots, mults = [], []
        for p in self.poles:
            m = p.kappa + (p.chi if side == "two" else 0)
            if m > 0:
                roots.append(p.lam)
                mults.append(m)
        if not roots:
            return FactoredPoly((), (), 1.0)
        return FactoredPoly(roots, mults, 1.0)

    def to_json(self) -> dict:
        out = {
            "kappa0": int(self.kappa0),
            "poles": [
                {
                    "lambda": [float(p.lam.real), float(p.lam.imag)],
                    "kappa": int(p.kappa),
                    "chi": int(p.chi),
                }
                for p in self.poles
            ],
        }
        if self.chi0:
            out["chi0"] = int(self.chi0)
        return out

    @classmethod
    def from_json(cls, obj) -> "PoleSpec":
        try:
            kappa0 = int(obj["kappa0"])
            raw = obj.get("poles", [])
            poles = tuple(
                FinitePole(
                    complex(p["lambda"][0], p["lambda"][1]),
                    int(p.get("kappa", 1)),
                    int(p.get("chi", 0)),
                )
                for p in raw
            )
        except (KeyError, TypeError, IndexError) as exc:
            raise ValueError("malformed pole specification") from exc
        return cls(kappa0, poles, int(obj.get("chi0", 0)))


def _krylov_vectors(fac: EigenFactorization, x0, kappa0, pole_mults, dual):
    """Krylov vectors in listing order: powers first, then poles in order.

    The vectors stay in eigen-coordinates c = S^-1 x0, where a power is a
    product by nu and a resolvent power a division by (lambda - nu); one
    product by S maps all of them back.  The dual side does the same with
    A^H = S^-H diag(conj(nu)) S^H.  Poles are always given in primal form.
    """
    S, nu, Sinv = fac.S, fac.eigenvalues, fac.Sinv
    if dual:
        S, nu, Sinv = Sinv.conj().T, nu.conj(), S.conj().T
    c = Sinv @ x0
    cols = []
    y = c
    for _ in range(1, kappa0):
        y = nu * y
        cols.append(y)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for lam, m in pole_mults:
            shift = (np.conj(lam) if dual else lam) - nu
            y = c
            for _ in range(m):
                y = y / shift
                if not np.all(np.isfinite(y)):
                    raise ValueError(f"pole in spectrum: solve at {lam} diverged")
                cols.append(y)
    vectors = [x0] if kappa0 else []
    if cols:
        vectors += list((S @ np.column_stack(cols)).T)
    return vectors


def build_krylov_basis(A, b, spec: PoleSpec, side: str = "one", d=None,
                       dep_tol: float = 1e-10):
    """Orthonormal basis V of the rational Krylov space, with a kept report.

    A is a matrix or an EigenFactorization with S^-1; each vector costs
    O(n^2) in eigen-coordinates.  Returns (V, kept): kept lists which
    generated vectors survived the Gram-Schmidt dependence filter, in
    generation order.
    """
    fac = factorize(A)
    b = as_vector(b)
    if side not in ("one", "two"):
        raise ValueError("side must be 'one' or 'two'")
    if side == "two" and d is None:
        raise ValueError("two-sided basis needs the output vector d")
    raw = _krylov_vectors(fac, b, spec.kappa0,
                          [(p.lam, p.kappa) for p in spec.poles], False)
    if side == "two":
        d = as_vector(d)
        raw += _krylov_vectors(fac, d, spec.chi0,
                               [(p.lam, p.chi) for p in spec.poles], True)
    return mgs_orthonormalize(raw, dep_tol=dep_tol)


@dataclass
class ReducedModel:
    """Projected system (Ahat, bhat, dhat) = (V^H A V, V^H b, V^H d)."""

    V: np.ndarray
    Ahat: np.ndarray
    bhat: np.ndarray
    dhat: np.ndarray | None
    spec: PoleSpec | None = None
    side: str = "one"
    reduced_fac: EigenFactorization = field(init=False)
    reduced_nodes: NodeList = field(init=False)

    def __post_init__(self):
        self.reduced_fac = eig_small(self.Ahat)
        ev = self.reduced_fac.eigenvalues
        tol = CLUSTER_TOL * max(1.0, float(np.abs(ev).max()))
        self.reduced_nodes = NodeList(ev, tol=tol)

    @property
    def order(self) -> int:
        return self.Ahat.shape[0]

    @property
    def reduced_spectrum(self) -> np.ndarray:
        return self.reduced_fac.eigenvalues


def reduce(A, b, V, d=None, spec: PoleSpec | None = None,
           side: str = "one") -> ReducedModel:
    """Project the system onto the span of the orthonormal columns of V.

    A is a matrix or an EigenFactorization with S^-1; either way
    Ahat = ((V^H S) diag(nu)) (S^-1 V) without forming A.
    """
    fac = factorize(A)
    b = as_vector(b)
    V = np.asarray(V, dtype=np.complex128)
    nh = V.shape[1]
    ortho = np.abs(V.conj().T @ V - np.eye(nh)).max()
    if ortho > 1e-10:
        raise ValueError(f"V is not orthonormal: deviation {ortho:.2e}")
    Ahat = ((V.conj().T @ fac.S) * fac.eigenvalues) @ (fac.Sinv @ V)
    bhat = V.conj().T @ b
    dhat = V.conj().T @ as_vector(d) if d is not None else None
    return ReducedModel(V, Ahat, bhat, dhat, spec=spec, side=side)


def scalar_impulse_exact(fac: EigenFactorization, b, d, t: float) -> complex:
    """d^H e^(At) b through the eigen factorization of A."""
    fac = factorize(fac)
    b = as_vector(b)
    d = as_vector(d)
    return complex(
        (d.conj() @ fac.S) @ (np.exp(t * fac.eigenvalues) * (fac.Sinv @ b))
    )


def impulse_reduced(model: ReducedModel, t: float, kind: str = "scalar"):
    """Reduced impulse response: d^H V e^(Ahat t) bhat or V e^(Ahat t) bhat."""
    fac = factorize(model.reduced_fac)
    y = fac.S @ (np.exp(t * fac.eigenvalues) * (fac.Sinv @ model.bhat))
    if kind == "vector":
        return model.V @ y
    if kind == "scalar":
        if model.dhat is None:
            raise ValueError("scalar impulse needs dhat")
        return complex(model.dhat.conj() @ y)
    raise ValueError("kind must be 'scalar' or 'vector'")


def moment_match_check(model: ReducedModel, A, b, d=None, kind: str = "vector",
                       probes=None) -> float:
    """Max relative mismatch of the moment-matching identities.

    kind 'vector' checks r(A) b = V r(Ahat) bhat for probes admissible in the
    one-sided sense (powers j < kappa0, resolvent orders j <= kappa_k);
    kind 'bilinear' checks d^H r(A) b = dhat^H r(Ahat) bhat with the combined
    multiplicities kappa + chi.  Probes are ("power", j) or
    ("resolvent", lam, j); None means every admissible probe of the spec.
    A is a matrix or an EigenFactorization, as in build_krylov_basis; the
    reduced side runs through model.reduced_fac.
    """
    if model.spec is None:
        raise ValueError("model carries no pole specification")
    if kind not in ("vector", "bilinear"):
        raise ValueError("kind must be 'vector' or 'bilinear'")
    if kind == "bilinear" and (d is None or model.dhat is None):
        raise ValueError("bilinear check needs d and dhat")
    fac = factorize(A)
    reduced = factorize(model.reduced_fac)
    b = as_vector(b)
    spec = model.spec
    two = kind == "bilinear"
    max_pow = spec.kappa0 + (spec.chi0 if two else 0)
    pole_lim = {p.lam: p.kappa + (p.chi if two else 0) for p in spec.poles}

    if probes is None:
        probes = [("power", j) for j in range(max_pow)]
        probes += [
            ("resolvent", lam, j)
            for lam, lim in pole_lim.items()
            for j in range(1, lim + 1)
        ]

    worst = 0.0
    for probe in probes:
        if probe[0] == "power":
            j = probe[1]
            if not 0 <= j < max_pow:
                raise ValueError(f"power probe {j} outside admissible range")
            chain = (j + 1, ())
        elif probe[0] == "resolvent":
            _, lam, j = probe
            lim = pole_lim.get(lam)
            if lim is None or not 1 <= j <= lim:
                raise ValueError(f"resolvent probe ({lam}, {j}) not admissible")
            chain = (0, ((lam, j),))
        else:
            raise ValueError(f"unknown probe kind {probe[0]!r}")
        # the probe is the last vector of its Krylov chain, on either side
        big = _krylov_vectors(fac, b, *chain, False)[-1]
        small = _krylov_vectors(reduced, model.bhat, *chain, False)[-1]
        if kind == "vector":
            lhs = big
            rhs = model.V @ small
            mismatch = np.linalg.norm(lhs - rhs) / max(np.linalg.norm(lhs), 1e-300)
        else:
            lhs = complex(as_vector(d).conj() @ big)
            rhs = complex(model.dhat.conj() @ small)
            mismatch = abs(lhs - rhs) / max(abs(lhs), 1e-300)
        worst = max(worst, float(mismatch))
    return worst


def arnoldi_error_bound(model: ReducedModel, A, b, d=None, t: float = 1.0,
                        s_samples: int = 11, mu_samples: int = 50) -> BoundResult:
    """Certified bound on the reduction error of the impulse response.

    One-sided: bounds ||e^(At) b - V e^(Ahat t) bhat||_2.  Two-sided (d
    given): bounds |d^H e^(At) b - dhat^H e^(Ahat t) bhat|.  The nodes are
    the reduced spectrum, the denominator collects the finite poles with
    their multiplicities.  A is a matrix or an EigenFactorization with
    S^-1; a caller that already holds the factorization passes it.
    """
    if model.spec is None:
        raise ValueError("model carries no pole specification")
    declared = model.spec.total(model.side)
    if model.order != declared:
        raise ValueError(
            f"basis kept {model.order} of {declared} vectors; the bound "
            "requires the full declared multiplicities"
        )
    v = model.spec.denominator(model.side)
    q = BoundQuery(A, model.reduced_nodes, v, t=t,
                   s_samples=s_samples, mu_samples=mu_samples)
    if d is not None:
        return bound_bilinear(q, b, d)
    return bound_vector(q, b)
