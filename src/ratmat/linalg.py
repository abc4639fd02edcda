"""Dense complex linear-algebra kernels used throughout the package.

All matrices and vectors are plain ``numpy`` arrays of dtype ``complex128``;
the helpers here validate shapes and finiteness at API boundaries and provide
the JSON wire format used by the CLI:

    {"rows": r, "cols": c, "data": [[re, im], ...]}   (row-major)

Vectors use ``cols = 1``.
"""

from __future__ import annotations

import ctypes
import logging
import os
import threading
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg as sla

log = logging.getLogger(__name__)

# General dense eigenproblems are only supported at small order; the pipeline
# needs spectra of reduced matrices and companion matrices, nothing larger.
MAX_EIG_ORDER = 64

# Above this one-norm condition estimate an eigenvector matrix is considered
# numerically useless for S f(D) S^-1 evaluation.
UNUSABLE_COND = 1e12


def as_matrix(a, name: str = "matrix") -> np.ndarray:
    """Validate and convert ``a`` to a 2-D complex128 array."""
    m = np.array(a, dtype=np.complex128, order="C")
    if m.ndim != 2:
        raise ValueError(f"{name} must be 2-dimensional, got shape {m.shape}")
    if m.size and not np.all(np.isfinite(m)):
        raise ValueError(f"{name} contains non-finite entries")
    return m


def as_square_matrix(a, name: str = "matrix") -> np.ndarray:
    m = as_matrix(a, name)
    if m.shape[0] != m.shape[1]:
        raise ValueError(f"{name} must be square, got shape {m.shape}")
    return m


def as_vector(a, name: str = "vector") -> np.ndarray:
    """Validate and convert ``a`` to a 1-D complex128 array."""
    v = np.array(a, dtype=np.complex128).reshape(-1)
    if v.size and not np.all(np.isfinite(v)):
        raise ValueError(f"{name} contains non-finite entries")
    return v


def matrix_to_json(m) -> dict:
    m = as_matrix(m)
    data = [[float(z.real), float(z.imag)] for z in m.reshape(-1)]
    return {"rows": int(m.shape[0]), "cols": int(m.shape[1]), "data": data}


def matrix_from_json(obj, name: str = "matrix") -> np.ndarray:
    try:
        rows, cols, data = int(obj["rows"]), int(obj["cols"]), obj["data"]
    except (KeyError, TypeError) as exc:
        raise ValueError(f"{name}: expected keys rows/cols/data") from exc
    if len(data) != rows * cols:
        raise ValueError(
            f"{name}: data length {len(data)} does not match {rows}x{cols}"
        )
    flat = np.array([complex(re, im) for re, im in data], dtype=np.complex128)
    return as_matrix(flat.reshape(rows, cols), name)


def vector_to_json(v) -> dict:
    v = as_vector(v)
    return matrix_to_json(v.reshape(-1, 1))


def vector_from_json(obj, name: str = "vector") -> np.ndarray:
    m = matrix_from_json(obj, name)
    if min(m.shape) != 1 and m.size > 0:
        raise ValueError(f"{name}: expected a single row or column, got {m.shape}")
    return m.reshape(-1)


def _norm1(m: np.ndarray) -> float:
    return float(np.abs(m).sum(axis=0).max()) if m.size else 0.0


@dataclass
class EigenFactorization:
    """Eigen decomposition A = S diag(eigenvalues) S^-1.

    ``Sinv`` is None when the eigenvector matrix was too ill-conditioned to
    invert reliably; the eigenvalue list is still valid in that case.
    """

    S: np.ndarray
    eigenvalues: np.ndarray
    Sinv: np.ndarray | None
    cond_estimate: float = field(default=np.inf)

    def __post_init__(self):
        self.S = as_square_matrix(self.S, "S")
        self.eigenvalues = as_vector(self.eigenvalues, "eigenvalues")
        n = self.S.shape[0]
        if self.eigenvalues.size != n:
            raise ValueError("eigenvalue count does not match S")
        if self.Sinv is not None:
            self.Sinv = as_square_matrix(self.Sinv, "Sinv")
            if self.Sinv.shape[0] != n:
                raise ValueError("Sinv shape does not match S")
            self.cond_estimate = _norm1(self.S) * _norm1(self.Sinv)
            resid = np.abs(self.S @ self.Sinv - np.eye(n)).max() if n else 0.0
            if resid > 1e-8 * max(1.0, self.cond_estimate):
                raise ValueError(
                    f"S*Sinv deviates from identity by {resid:.2e}; "
                    "inversion not trustworthy"
                )

    @property
    def order(self) -> int:
        return self.S.shape[0]

    @property
    def usable(self) -> bool:
        return self.Sinv is not None

    @classmethod
    def from_eigensystem(cls, S, eigenvalues) -> "EigenFactorization":
        """Build from eigenvectors/eigenvalues, inverting S if feasible."""
        S = as_square_matrix(S, "S")
        eigenvalues = as_vector(eigenvalues, "eigenvalues")
        try:
            Sinv = np.linalg.inv(S)
        except np.linalg.LinAlgError:
            return cls(S, eigenvalues, None)
        cond = _norm1(S) * _norm1(Sinv)
        if not np.isfinite(cond) or cond > UNUSABLE_COND:
            return cls(S, eigenvalues, None)
        return cls(S, eigenvalues, Sinv)


def mgs_orthonormalize(cols, dep_tol: float = 1e-10):
    """Orthonormalize a sequence of vectors by modified Gram-Schmidt.

    Uses a second orthogonalization pass for numerical orthogonality.  A
    vector is dropped when its residual after projection onto the span of the
    previously kept ones has norm <= dep_tol times its original norm.

    Returns (Q, kept) where Q has the surviving orthonormal columns and kept
    lists the indices of the inputs that produced them.
    """
    vecs = [as_vector(c, f"column {i}") for i, c in enumerate(cols)]
    if not vecs:
        raise ValueError("no vectors to orthonormalize")
    if dep_tol <= 0:
        raise ValueError("dep_tol must be positive")
    dim = vecs[0].size
    if any(v.size != dim for v in vecs):
        raise ValueError("vectors have mixed dimensions")

    basis: list[np.ndarray] = []
    kept: list[int] = []
    for i, v in enumerate(vecs):
        norm0 = np.linalg.norm(v)
        w = v.copy()
        for _ in range(2):
            for q in basis:
                w -= (q.conj() @ w) * q
        norm = np.linalg.norm(w)
        if norm <= dep_tol * norm0:
            continue
        basis.append(w / norm)
        kept.append(i)
    if not basis:
        raise ValueError("rank zero: all vectors linearly dependent or zero")
    return np.column_stack(basis), kept


def eig_small(A) -> EigenFactorization:
    """Dense complex eigen decomposition, supported up to order 64 only."""
    A = as_square_matrix(A)
    n = A.shape[0]
    if n == 0:
        raise ValueError("empty matrix")
    if n > MAX_EIG_ORDER:
        raise ValueError(f"order {n} exceeds dense eigensolver limit {MAX_EIG_ORDER}")
    try:
        w, S = np.linalg.eig(A)
    except np.linalg.LinAlgError as exc:
        raise ValueError(f"eigenvalue iteration failed: {exc}") from exc
    scale = np.abs(A).max() if n else 0.0
    resid = np.abs(A @ S - S * w[None, :]).max()
    if resid > 1e-8 * max(scale, 1e-300):
        raise ValueError(f"eigen residual {resid:.2e} too large for scale {scale:.2e}")
    return EigenFactorization.from_eigensystem(S, w)


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


def poly_roots(coeffs):
    """Roots of a polynomial with ascending coefficients c0 + c1 z + ...

    Computed as eigenvalues of the companion matrix, so the degree is limited
    to the dense eigensolver order.
    """
    c = as_vector(coeffs, "coefficients")
    if c.size < 2:
        raise ValueError("polynomial degree must be at least 1")
    if c[-1] == 0:
        raise ValueError("leading coefficient must be nonzero")
    monic = c / c[-1]
    d = c.size - 1
    if d == 1:
        return np.array([-monic[0]])
    comp = np.zeros((d, d), dtype=np.complex128)
    comp[1:, :-1] = np.eye(d - 1)
    comp[:, -1] = -monic[:-1]
    return eig_small(comp).eigenvalues


class _OpenBLASPin:
    """Process-wide OpenBLAS thread count, shared by every Python thread.

    numpy and scipy each load their own OpenBLAS build, and each build keeps
    one thread count for the whole process.  The builds are found on first
    use from the process's memory map, so importing costs nothing.  The
    outermost entry saves and sets the counts, the outermost exit restores
    them, and entries in between only count depth, under one lock.
    """

    def __init__(self):
        self._lock = threading.Lock()
        self._builds = None  # [(library name, get, set)]
        self._depth = 0
        self._threads = None
        self._saved = []

    def builds(self):
        with self._lock:
            return self._discover()

    def _discover(self):
        if self._builds is None:
            self._builds = []
            try:
                with open("/proc/self/maps") as fh:
                    paths = sorted({line.split()[-1] for line in fh
                                    if "openblas" in line.lower() and ".so" in line})
            except OSError:
                paths = []
            for path in paths:
                try:
                    lib = ctypes.CDLL(path)
                except OSError:
                    continue
                functions = _thread_functions(lib)
                if functions is not None:
                    self._builds.append((os.path.basename(path), *functions))
        return self._builds

    def enter(self, k: int):
        with self._lock:
            if self._depth and k != self._threads:
                raise ValueError(
                    f"blas_threads({k}) inside blas_threads({self._threads})"
                )
            if not self._depth:
                builds = self._discover()
                self._saved = [(name, get(), setter)
                               for name, get, setter in builds]
                for _, _, setter in builds:
                    setter(k)
                self._threads = k
                if builds:
                    log.debug("OpenBLAS threads set to %d on %s (were %s)", k,
                              ", ".join(name for name, _, _ in builds),
                              ", ".join(str(c) for _, c, _ in self._saved))
                else:
                    log.debug("no OpenBLAS loaded; blas_threads(%d) does nothing", k)
            self._depth += 1

    def exit(self):
        with self._lock:
            self._depth -= 1
            if not self._depth:
                for _, count, setter in self._saved:
                    setter(count)
                if self._saved:
                    log.debug("OpenBLAS threads restored to %s",
                              ", ".join(str(c) for _, c, _ in self._saved))
                self._saved = []
                self._threads = None


def _thread_functions(lib):
    """(get, set) thread-count functions of an OpenBLAS build, or None."""
    for prefix in ("scipy_openblas", "openblas"):
        for suffix in ("64_", ""):
            getter = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
            setter = getattr(lib, f"{prefix}_set_num_threads{suffix}", None)
            if getter is not None and setter is not None:
                getter.argtypes, getter.restype = [], ctypes.c_int
                setter.argtypes, setter.restype = [ctypes.c_int], None
                return getter, setter
    return None


_PIN = _OpenBLASPin()


def blas_thread_counts() -> dict:
    """Current thread count of each loaded OpenBLAS build, by library name."""
    return {name: get() for name, get, _ in _PIN.builds()}


@contextmanager
def blas_threads(k: int | None):
    """Run the block with every loaded OpenBLAS build on ``k`` threads.

    ``None`` changes nothing.  The setting is process-wide: nested entries and
    entries from other threads share it and must ask for the same ``k``, and
    the prior counts come back when the last of them exits.  Without a loaded
    OpenBLAS this does nothing.
    """
    if k is None:
        yield
        return
    if k < 1:
        raise ValueError(f"blas_threads needs k >= 1, got {k}")
    _PIN.enter(k)
    try:
        yield
    finally:
        _PIN.exit()
