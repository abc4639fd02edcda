"""Rational Krylov order reduction of x' = Ax, x(0) = b, output d^H x.

The search space is spanned by powers A^j b (j < kappa0) and resolvents
(lambda_k I - A)^-j b (j <= kappa_k); the two-sided variant extends it with
the corresponding vectors built from A^H and d.  The reduced model is the
orthogonal projection (Ahat, bhat, dhat) = (V^H A V, V^H b, V^H d).

Every entry point takes A as its EigenFactorization A = S diag(nu) S^-1
(linalg.eig_small makes one of a matrix): a shifted solve is a division by
(lambda - nu) in eigen-coordinates, S^-1 is applied by solves with the LU of
S, which refuse an unusable S, and neither A nor S^-1 is formed.
"""

from __future__ import annotations

import cmath
import numbers
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
    check_json_object,
    eig_small,
    integer_from_json,
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
        if not (isinstance(self.lam, numbers.Number) and cmath.isfinite(self.lam)):
            raise ValueError(f"lambda must be a finite number, got {self.lam!r}")
        _multiplicities(self, "kappa", "chi")


@dataclass(frozen=True)
class PoleSpec:
    """Pole structure of the rational Krylov space.

    kappa0 counts the power vectors b, Ab, ... (the pole at infinity);
    chi0 is its dual multiplicity for the two-sided variant.  Each
    multiplicity is a non-negative integer and each pole a FinitePole.
    """

    kappa0: int
    poles: tuple = ()
    chi0: int = 0

    def __post_init__(self):
        _multiplicities(self, "kappa0", "chi0")
        object.__setattr__(self, "poles", tuple(self.poles))
        if not all(isinstance(p, FinitePole) for p in self.poles):
            raise ValueError(f"poles must be FinitePole instances, got {self.poles!r}")
        lams = [p.lam for p in self.poles]
        if len(set(lams)) != len(lams):
            raise ValueError("finite poles must be distinct")
        if self.total() == 0:
            raise ValueError("empty pole specification")

    @property
    def is_two_sided(self) -> bool:
        return self.chi0 > 0 or any(p.chi > 0 for p in self.poles)

    def total(self) -> int:
        """Dimension of the space: every kappa and chi (all chi are 0 when one-sided)."""
        return self.kappa0 + self.chi0 + sum(p.kappa + p.chi for p in self.poles)

    def check_output_vector(self, d) -> None:
        """Refuse a two-sided spec without the output vector d."""
        if self.is_two_sided and d is None:
            raise ValueError("two-sided basis needs the output vector d")

    def check_basis(self, order: int, d) -> None:
        """Refuse a basis this spec cannot give on an A of this order: a
        two-sided one without the output vector d, or one of more vectors
        than the order."""
        self.check_output_vector(d)
        if (total := self.total()) > order:
            raise ValueError(f"{total} Krylov vectors exceed the order {order} of A")

    def denominator(self) -> FactoredPoly:
        """v = prod (lambda - lambda_k)^(kappa_k + chi_k) over finite poles."""
        poles = [p for p in self.poles if p.kappa + p.chi > 0]
        return FactoredPoly([p.lam for p in poles], [p.kappa + p.chi for p in poles], 1.0)

    def to_json(self) -> dict:
        # the constructors hold every multiplicity as an int
        out = {
            "kappa0": self.kappa0,
            "poles": [
                {"lambda": [float(p.lam.real), float(p.lam.imag)],
                 "kappa": p.kappa, "chi": p.chi}
                for p in self.poles
            ],
        }
        if self.chi0:
            out["chi0"] = self.chi0
        return out

    @classmethod
    def from_json(cls, obj) -> "PoleSpec":
        """Spec from a decoded JSON object; a key left out takes the
        constructor's default (a pole's kappa 1, its chi and chi0 0).

        A missing kappa0 or lambda, an unknown key or a lambda that is not
        a [re, im] pair of numbers raises ValueError naming the key; so does
        a value the constructors refuse, with the pole's index.  Every
        message starts "malformed pole specification: ".
        """
        check_json_object(obj, "spec", ("kappa0", "poles", "chi0"), ("kappa0",), _MALFORMED)
        raw = obj.get("poles", [])
        if not isinstance(raw, list):
            raise _malformed(f"poles must be a list, got {raw!r}")
        poles = []
        for i, p in enumerate(raw):
            where = f"poles[{i}]"
            check_json_object(p, where, ("lambda", "kappa", "chi"), ("lambda",), _MALFORMED)
            try:
                re, im = p["lambda"]
                lam = complex(re, im)
            except (TypeError, ValueError) as exc:
                raise _malformed(f"{where}.lambda is not a [re, im] pair of "
                                 f"numbers: {p['lambda']!r}") from exc
            except OverflowError as exc:  # an integer beyond the float range
                raise _malformed(f"{where}.lambda is out of the float range") from exc
            try:
                poles.append(FinitePole(lam, **{k: v for k, v in p.items() if k != "lambda"}))
            except ValueError as exc:
                raise _malformed(f"{where}.{exc}") from exc
        try:
            return cls(**{**obj, "poles": tuple(poles)})
        except ValueError as exc:
            raise _malformed(str(exc)) from exc


_MALFORMED = "malformed pole specification: "


def _malformed(what: str) -> ValueError:
    return ValueError(_MALFORMED + what)


def _multiplicities(obj, *names: str) -> None:
    """Set each named field of the frozen obj to its value as an int, refusing
    one that is not a non-negative integer with a ValueError naming it."""
    for name in names:
        m = integer_from_json(name, getattr(obj, name))
        if m < 0:
            raise ValueError(f"{name} must be nonnegative, got {m}")
        object.__setattr__(obj, name, m)


def _krylov_vectors(fac: EigenFactorization, x0, kappa0, pole_mults, dual, c=None):
    """Krylov vectors in listing order: powers first, then poles in order.

    The vectors stay in eigen-coordinates c = S^-1 x0, where a power is a
    product by nu and a resolvent power a division by (lambda - nu); one
    product by S maps all of them back.  The dual side does the same with
    A^H = S^-H diag(conj(nu)) S^H: c = S^H x0, and one solve with S^H maps
    the vectors back.  Poles are always given in primal form.
    """
    nu = fac.eigenvalues.conj() if dual else fac.eigenvalues
    if c is None:
        c = fac.times(x0, left=True).conj() if dual else fac.solve(x0)
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
        C = np.array(cols).T  # column-major, so times copies nothing
        del cols, y  # C holds them now
        vectors += list((fac.solve_adjoint(C) if dual else fac.times(C)).T)
    return vectors


def build_krylov_basis(fac: EigenFactorization, b, spec: PoleSpec, d=None, *, c=None):
    """Orthonormal basis V of the rational Krylov space, with a kept report.

    A spec with a chi is two-sided and needs d for its dual vectors (built
    from A^H and d); d is unused otherwise.  Each vector costs O(n^2) in the
    eigen-coordinates of fac, after one solve c = S^-1 b with the LU of S (a
    caller that holds c passes it).  A spec of more vectors than the order
    of A is refused before any is built.  Returns (V, kept): kept lists which
    generated vectors survived the Gram-Schmidt filter, in generation order.
    """
    b = as_vector(b)
    spec.check_basis(fac.order, d)
    raw = _krylov_vectors(fac, b, spec.kappa0,
                          [(p.lam, p.kappa) for p in spec.poles], False, c)
    if spec.is_two_sided:
        d = as_vector(d)
        raw += _krylov_vectors(fac, d, spec.chi0,
                               [(p.lam, p.chi) for p in spec.poles], True)
    return mgs_orthonormalize(raw)


@dataclass
class ReducedModel:
    """Projected system (Ahat, bhat, dhat) = (V^H A V, V^H b, V^H d)."""

    V: np.ndarray
    Ahat: np.ndarray
    bhat: np.ndarray
    dhat: np.ndarray | None
    spec: PoleSpec | None = None
    reduced_fac: EigenFactorization = field(init=False)
    reduced_nodes: NodeList = field(init=False)

    def __post_init__(self):
        self.reduced_fac = eig_small(self.Ahat)
        self.reduced_nodes = NodeList(self.reduced_fac.eigenvalues, tol=CLUSTER_TOL)

    @property
    def order(self) -> int:
        return self.Ahat.shape[0]

    @property
    def reduced_spectrum(self) -> np.ndarray:
        return self.reduced_fac.eigenvalues


def reduce(fac: EigenFactorization, b, V, d=None,
           spec: PoleSpec | None = None) -> ReducedModel:
    """Project the system onto the span of the orthonormal columns of V.

    Ahat = ((V^H S) diag(nu)) (S^-1 V) without forming A, with S^-1 V one
    block solve with the LU of S, taken first, and V^H S one block product.
    """
    b = as_vector(b)
    V = np.asarray(V, dtype=np.complex128)
    nh = V.shape[1]
    ortho = np.abs(V.conj().T @ V - np.eye(nh)).max()
    if ortho > 1e-10:
        raise ValueError(f"V is not orthonormal: deviation {ortho:.2e}")
    W = fac.solve(V)
    Ahat = (fac.times(V, left=True) * fac.eigenvalues) @ W
    bhat = V.conj().T @ b
    dhat = V.conj().T @ as_vector(d) if d is not None else None
    return ReducedModel(V, Ahat, bhat, dhat, spec=spec)


def impulse_reduced(model: ReducedModel, t: float, kind: str = "scalar"):
    """Reduced impulse response: d^H V e^(Ahat t) bhat or V e^(Ahat t) bhat."""
    fac = model.reduced_fac
    y = fac.times(np.exp(t * fac.eigenvalues) * fac.solve(model.bhat))
    if kind == "vector":
        return model.V @ y
    if kind == "scalar":
        if model.dhat is None:
            raise ValueError("scalar impulse needs dhat")
        return complex(model.dhat.conj() @ y)
    raise ValueError("kind must be 'scalar' or 'vector'")


def moment_match_check(model: ReducedModel, fac: EigenFactorization, b, d=None) -> float:
    """Max relative mismatch of the moment-matching identities.

    Without d, checks r(A) b = V r(Ahat) bhat for every probe admissible in
    the one-sided sense (powers j < kappa0, resolvent orders j <= kappa_k);
    with d, checks d^H r(A) b = dhat^H r(Ahat) bhat with the combined
    multiplicities kappa + chi.  fac is A's factorization, as in
    build_krylov_basis; the reduced side runs through model.reduced_fac.
    """
    if model.spec is None:
        raise ValueError("model carries no pole specification")
    two = d is not None
    if two and model.dhat is None:
        raise ValueError("bilinear check needs dhat: reduce the model with d")
    b = as_vector(b)
    spec = model.spec
    # the probes A^j b (j < kappa0) and (lam I - A)^-j b (j <= kappa) are the
    # Krylov vectors of one chain in listing order, b itself first when
    # kappa0 > 0; one chain per side costs one solve with S and one product
    # of S with its vectors
    chain = (spec.kappa0 + (spec.chi0 if two else 0),
             [(p.lam, p.kappa + (p.chi if two else 0)) for p in spec.poles], False)
    worst = 0.0
    for big, small in zip(_krylov_vectors(fac, b, *chain),
                          _krylov_vectors(model.reduced_fac, model.bhat, *chain),
                          strict=True):
        if two:
            lhs = complex(as_vector(d).conj() @ big)
            rhs = complex(model.dhat.conj() @ small)
            mismatch = abs(lhs - rhs) / max(abs(lhs), 1e-300)
        else:
            lhs = big
            rhs = model.V @ small
            mismatch = np.linalg.norm(lhs - rhs) / max(np.linalg.norm(lhs), 1e-300)
        worst = max(worst, float(mismatch))
    return worst


def arnoldi_error_bound(model: ReducedModel, fac: EigenFactorization, b, d=None,
                        t: float = 1.0, s_samples: int = 11, mu_samples: int = 50,
                        *, c=None) -> BoundResult:
    """Certified bound on the reduction error of the impulse response.

    Without d: bounds ||e^(At) b - V e^(Ahat t) bhat||_2.  With d, which a
    two-sided spec requires: bounds |d^H e^(At) b - dhat^H e^(Ahat t) bhat|.
    The nodes are the reduced spectrum, the denominator collects the finite
    poles with their multiplicities (see PoleSpec.denominator).  c = S^-1 b
    is solved with the LU of fac, A's factorization, unless the caller passes it.
    """
    if model.spec is None:
        raise ValueError("model carries no pole specification")
    model.spec.check_output_vector(d)
    declared = model.spec.total()
    if model.order != declared:
        raise ValueError(
            f"basis kept {model.order} of {declared} vectors; the bound "
            "requires the full declared multiplicities"
        )
    v = model.spec.denominator()
    q = BoundQuery(fac, model.reduced_nodes, v, t=t,
                   s_samples=s_samples, mu_samples=mu_samples)
    if d is not None:
        return bound_bilinear(q, b, d, c=c)
    return bound_vector(q, b, c=c)
