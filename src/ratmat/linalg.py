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
import math
import numbers
import os
import threading
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable, NamedTuple

import numpy as np
import scipy.linalg
from scipy.linalg import blas, lapack

log = logging.getLogger(__name__)

# Above this one-norm condition estimate an eigenvector matrix is considered
# numerically useless for S f(D) S^-1 evaluation.
UNUSABLE_COND = 1e12

# Largest accepted backward error of a solve with S; LU with partial pivoting
# attains about n * 1e-16.
BACKWARD_TOL = 1e-10

# MGS drops a vector whose residual after projection is at most this times
# its original norm.
DEP_TOL = 1e-10

# Entries of S per block of rows copied into its column-major LU buffer
# (512 KB): a block's cache lines stay in L2 while its columns are written.
COPY_BLOCK = 1 << 15

# Below this order blas_pin puts every OpenBLAS build on one thread, so e1's
# bits do not depend on the core count.  From it up only scipy's build (the
# LU of S, the grid product) keeps its threads: idle threads spin after a
# call, so threads in two builds fight over the cores (n = 1024, 2 cores: a
# 47 ms zgetrf, then a 50 ms GEMM, took 212 ms).  README.md has the timings.
PIN_BELOW_N = 640


def as_matrix(a, name: str = "matrix") -> np.ndarray:
    """Validate and convert ``a`` to a 2-D complex128 array, copied only if needed."""
    m = np.asarray(a, dtype=np.complex128, order="C")
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


def matrix_from_json(obj, name: str = "matrix") -> np.ndarray:
    try:
        rows, cols, data = obj["rows"], obj["cols"], obj["data"]
    except (KeyError, TypeError) as exc:
        raise ValueError(f"{name}: expected keys rows/cols/data") from exc
    rows = integer_from_json(f"{name}: rows", rows)
    cols = integer_from_json(f"{name}: cols", cols)
    if rows < 0 or cols < 0:
        raise ValueError(f"{name}: size {rows}x{cols} is negative")
    if not isinstance(data, list):
        raise ValueError(f"{name}: data must be a list of [re, im] pairs")
    if len(data) != rows * cols:
        raise ValueError(
            f"{name}: data length {len(data)} does not match {rows}x{cols}"
        )
    values = []
    for i, entry in enumerate(data):
        try:
            re, im = entry
            values.append(complex(re, im))
        except (TypeError, ValueError) as exc:
            raise ValueError(
                f"{name}: entry {i} is not a [re, im] pair of numbers: {entry!r}"
            ) from exc
        except OverflowError as exc:  # an integer beyond the float range
            raise ValueError(f"{name}: entry {i} is out of the float range") from exc
    return as_matrix(np.array(values, dtype=np.complex128).reshape(rows, cols), name)


def integer_from_json(name: str, value) -> int:
    """value as an int; an integral float such as 64.0 or a numpy integer is
    accepted, a bool, a string or a fraction raises ValueError naming ``name``."""
    if isinstance(value, float) and value.is_integer():
        return int(value)
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return int(value)


def real_from_json(name: str, value) -> float:
    """value as a finite float; a bool, a string, None, a non-finite number or
    an integer beyond the float range raises ValueError naming ``name``."""
    try:
        if (isinstance(value, numbers.Real) and not isinstance(value, bool)
                and math.isfinite(x := float(value))):
            return x
    except OverflowError:  # an integer beyond the float range
        pass
    raise ValueError(f"{name} must be a finite number, got {value!r}")


def check_json_object(obj, where: str, known: tuple, required=(), prefix="") -> None:
    """Refuse a decoded JSON value that is not an object, has a key outside
    ``known`` or lacks one of ``required``, naming it ``where`` after ``prefix``."""
    if not isinstance(obj, dict):
        raise ValueError(f"{prefix}{where} must be an object, got {obj!r}")
    for key in obj:
        if key not in known:
            raise ValueError(f"{prefix}unknown {where} key {key!r}")
    for key in required:
        if key not in obj:
            raise ValueError(f"{prefix}{where} is missing {key!r}")


def vector_from_json(obj, name: str = "vector") -> np.ndarray:
    m = matrix_from_json(obj, name)
    if min(m.shape) != 1 and m.size > 0:
        raise ValueError(f"{name}: expected a single row or column, got {m.shape}")
    return m.reshape(-1)


def require_memory(nbytes: int, what: str) -> None:
    """Refuse nbytes beyond the machine's physical memory, with the message
    "<what> need X GiB, more than the Y GiB of physical memory"."""
    have = os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")
    if nbytes > have:  # an integer beyond the float range needs inf GiB
        need = nbytes / 2**30 if nbytes < 2**1024 else float("inf")
        raise ValueError(f"{what} need {need:.3g} GiB, more than the "
                         f"{have / 2**30:.3g} GiB of physical memory")


def _norm1(m: np.ndarray) -> float:
    return float(np.abs(m).sum(axis=0).max()) if m.size else 0.0


def _column_major(S: np.ndarray) -> np.ndarray:
    """A column-major copy of the row-major S, made a block of rows at a
    time; the one-pass transposing copy that numpy or f2py would make
    walks all of S a column at a time and loses its cache lines, worst at a
    power-of-two order (CHANGES.md has the timings)."""
    n = S.shape[0]
    out = np.empty(S.shape, dtype=S.dtype, order="F")
    rows = max(1, COPY_BLOCK // n)
    for i in range(0, n, rows):
        out[i:i + rows] = S[i:i + rows]
    return out


@dataclass
class EigenFactorization:
    """Eigen decomposition A = S diag(eigenvalues) S^-1, with S held as its LU.

    S is held as given, not copied, when it is C-contiguous complex128, so
    its owner must leave it unchanged; zgetrf factors a column-major copy in
    place.  S^-1 is never formed: ``solve`` and
    ``solve_adjoint`` apply S^-1 and S^-H through the LU factors and check
    the backward error of what they return.  ``cond_estimate`` is LAPACK's
    one-norm condition estimate of S (zgecon; N. J. Higham, ACM TOMS 14,
    1988), infinite when S is singular.  A factorization is not ``usable``
    when S is too ill-conditioned to solve with reliably; the eigenvalue
    list is still valid in that case.
    """

    S: np.ndarray
    eigenvalues: np.ndarray
    lu: tuple = field(init=False, repr=False)
    norm1: float = field(init=False)
    cond_estimate: float = field(init=False)

    def __post_init__(self):
        S = np.asarray(self.S, dtype=np.complex128, order="C")
        self.norm1 = _norm1(S) if S.ndim == 2 else np.nan
        # a NaN or inf entry makes its column sum, and so the norm, non-finite;
        # only then (or for a misshapen S) does the entrywise check run, for its
        # message, and a finite S whose norm overflows passes it
        if not np.isfinite(self.norm1) or S.shape[0] != S.shape[1]:
            S = as_square_matrix(S, "S")
        self.S = S
        self.eigenvalues = as_vector(self.eigenvalues, "eigenvalues")
        if S.shape[0] == 0:
            raise ValueError("S is empty")
        if self.eigenvalues.size != S.shape[0]:
            raise ValueError("eigenvalue count does not match S")
        lu, piv, info = lapack.zgetrf(_column_major(S), overwrite_a=1)
        rcond = lapack.zgecon(lu, self.norm1)[0] if info == 0 else 0.0
        self.lu = (lu, piv)
        self.cond_estimate = 1.0 / rcond if rcond > 0 else np.inf

    @property
    def order(self) -> int:
        return self.S.shape[0]

    @property
    def usable(self) -> bool:
        return bool(self.cond_estimate <= UNUSABLE_COND)

    def times(self, X, left: bool = False) -> np.ndarray:
        """S X, or X^H S when ``left``, for a block of columns X, by scipy's
        BLAS like S's LU: numpy's calls for S @ X and X.conj().T @ S, with the
        same bits ((S X)^T = X^T S^T and (X^H S)^T = S^T conj(X) column-major,
        S^T being the row-major S).  Nothing is copied when X is column-major
        (row-major when ``left``); the result is row-major.
        """
        if X.shape[1] == 1:  # numpy takes GEMV here, with other bits than GEMM
            return X.conj().T @ self.S if left else self.S @ X
        if left:
            return blas.zgemm(1.0, self.S.T, X.conj().T, trans_b=1).T
        return blas.zgemm(1.0, X, self.S.T, trans_a=1).T

    def solve(self, Y) -> np.ndarray:
        """S^-1 Y for a vector or a block of columns Y."""
        return self._solve(Y, adjoint=False)

    def solve_adjoint(self, Y) -> np.ndarray:
        """S^-H Y for a vector or a block of columns Y."""
        return self._solve(Y, adjoint=True)

    def _solve(self, Y, adjoint: bool) -> np.ndarray:
        """M^-1 Y for M = S or S^H, refused when its normwise backward error
        ||M X - Y||_1 / (||M||_1 ||X||_1) exceeds BACKWARD_TOL."""
        Y = np.asarray(Y, dtype=np.complex128)
        X, _ = lapack.zgetrs(*self.lu, Y.reshape(Y.shape[0], -1),
                             trans=2 if adjoint else 0)
        X = X.reshape(Y.shape)
        if adjoint:  # S^H X as (X^H S)^H; ||S^H||_1 is S's largest row sum
            MX = (self.times(X, left=True) if X.ndim == 2 else X.conj() @ self.S).conj().T
            norm = float(np.abs(self.S).sum(axis=1).max())
        else:  # a block goes through times, a vector stays a numpy product
            MX, norm = self.times(X) if X.ndim == 2 else self.S @ X, self.norm1
        resid, scale = _norm1(MX - Y), norm * _norm1(X)
        if not resid <= BACKWARD_TOL * scale:
            err = resid / scale if scale else np.inf
            raise ValueError(f"solve with S has backward error {err:.2e} (limit "
                             f"{BACKWARD_TOL:.0e}); its LU factors are not trustworthy")
        return X


def mgs_orthonormalize(cols):
    """Orthonormalize a sequence of vectors by modified Gram-Schmidt.

    Uses a second orthogonalization pass for numerical orthogonality.  A
    vector is dropped when its residual after projection onto the span of the
    previously kept ones has norm <= DEP_TOL times its original norm.

    Returns (Q, kept) where Q has the surviving orthonormal columns and kept
    lists the indices of the inputs that produced them.
    """
    vecs = [as_vector(c, f"column {i}") for i, c in enumerate(cols)]
    if not vecs:
        raise ValueError("no vectors to orthonormalize")
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
        if norm <= DEP_TOL * norm0:
            continue
        basis.append(w / norm)
        kept.append(i)
    if not basis:
        raise ValueError("rank zero: all vectors linearly dependent or zero")
    return np.column_stack(basis), kept


def eig_small(A) -> EigenFactorization:
    """Dense complex eigen decomposition of a square matrix of any order.

    LAPACK's zgeev comes from scipy's build, which blas_pin leaves threaded
    from PIN_BELOW_N up.  The eigenpairs are checked by their residual; the
    result is flagged unusable when S is singular or too ill-conditioned
    (see EigenFactorization).
    """
    A = as_square_matrix(A)
    n = A.shape[0]
    if n == 0:
        raise ValueError("empty matrix")
    try:
        w, S = scipy.linalg.eig(A, check_finite=False)
    except np.linalg.LinAlgError as exc:
        raise ValueError(f"eigenvalue iteration failed: {exc}") from exc
    scale = np.abs(A).max() if n else 0.0
    resid = np.abs(A @ S - S * w[None, :]).max()
    if resid > 1e-8 * max(scale, 1e-300):
        raise ValueError(f"eigen residual {resid:.2e} too large for scale {scale:.2e}")
    return EigenFactorization(S, w)


def factorize(A) -> EigenFactorization:
    """A as its eigen-factorization, the one form the package uses.

    An EigenFactorization is returned as it is, a matrix goes through
    eig_small.  Either way S must be usable: the shifted solves, the
    projection and the bound all apply S^-1 through its LU.
    """
    fac = A if isinstance(A, EigenFactorization) else eig_small(A)
    if not fac.usable:
        raise ValueError(
            "unusable eigenbasis: the eigenvector matrix S is singular or too "
            f"ill-conditioned to solve with (condition estimate "
            f"{fac.cond_estimate:.1e}; the matrix is defective or nearly so)"
        )
    return fac


def poly_roots(coeffs):
    """Roots of a polynomial with ascending coefficients c0 + c1 z + ...

    Computed as eigenvalues of the companion matrix.
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


class _Build(NamedTuple):
    """One loaded OpenBLAS build and its thread-count functions."""

    name: str       # library file name
    numpy: bool     # loaded from numpy's package or its .libs folder
    get: Callable[[], int]
    set: Callable[[int], None]


def _numpy_owns(path: str) -> bool:
    root = os.path.dirname(os.path.realpath(np.__file__))
    return (os.path.dirname(path) == root + ".libs"
            or path.startswith(root + os.sep))


class _OpenBLASPin:
    """Process-wide OpenBLAS thread counts, shared by every Python thread.

    numpy and scipy each load their own OpenBLAS build, and each build keeps
    one thread count for the whole process.  The builds are found on first
    use from the process's memory map, so importing costs nothing.  A pin
    sets one thread on every build, or on numpy's build alone.  The
    outermost entry saves and sets the counts, the outermost exit restores
    them, and entries in between only count depth, under one lock.
    """

    def __init__(self):
        self._lock = threading.Lock()
        self._builds = None  # [_Build]
        self._depth = 0
        self._n = 0  # the order of the outermost pin held
        self._saved = []

    def builds(self) -> list:
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
                    self._builds.append(
                        _Build(os.path.basename(path), _numpy_owns(path), *functions))
        return self._builds

    def _targets(self, numpy_only: bool) -> list:
        """The builds a pin sets: all, or numpy's alone; none of numpy's
        when its build cannot be told from the others or is the only one."""
        builds = self._discover()
        if not numpy_only:
            return builds
        own = [b for b in builds if b.numpy]
        return own if len(own) < len(builds) else []

    def enter(self, n: int):
        """Take the pin of order n (see blas_pin) and return its thread count."""
        numpy_only = n >= PIN_BELOW_N
        with self._lock:
            if self._depth and numpy_only != (self._n >= PIN_BELOW_N):
                raise ValueError(f"blas_pin({n}) inside blas_pin({self._n}): the orders "
                                 f"lie on two sides of PIN_BELOW_N = {PIN_BELOW_N}")
            if not self._depth:
                targets = self._targets(numpy_only)
                self._saved = [(b, b.get()) for b in targets]
                for b in targets:
                    b.set(1)
                self._n = n
                if targets:
                    log.debug("OpenBLAS threads set to 1 on %s (were %s)",
                              ", ".join(b.name for b in targets),
                              ", ".join(str(c) for _, c in self._saved))
                elif not self._builds:
                    log.debug("no OpenBLAS loaded; blas_pin(%d) does nothing", n)
                else:
                    log.debug("numpy's OpenBLAS is not a build of its own; "
                              "blas_pin(%d) does nothing", n)
            self._depth += 1
        return None if numpy_only else 1

    def exit(self):
        with self._lock:
            self._depth -= 1
            if not self._depth:
                for b, count in self._saved:
                    b.set(count)
                if self._saved:
                    log.debug("OpenBLAS threads restored to %s",
                              ", ".join(str(c) for _, c in self._saved))
                self._saved = []


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
    return {b.name: b.get() for b in _PIN.builds()}


@contextmanager
def blas_pin(n: int):
    """Run the block under the BLAS thread rule of order n: every loaded
    OpenBLAS build on one thread below PIN_BELOW_N (yields 1), numpy's build
    alone from it up (yields None; nothing is set when numpy's build cannot
    be told apart from the others).  The setting is process-wide: nested and
    concurrent entries share it and must lie on one side of PIN_BELOW_N, and
    the last exit restores the prior counts."""
    threads = _PIN.enter(n)
    try:
        yield threads
    finally:
        _PIN.exit()
