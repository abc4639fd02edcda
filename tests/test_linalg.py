import contextlib
import logging
import os
import re
import sys
import threading
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
import scipy

from oracles import (
    eig_extreme_hermitian,
    matrix_to_json,
    numpy_serial_counts,
    vector_to_json,
)
from ratmat import linalg
from ratmat.linalg import (
    PIN_BELOW_N,
    EigenFactorization,
    as_matrix,
    as_vector,
    blas_pin,
    blas_thread_counts,
    eig_small,
    factorize,
    matrix_from_json,
    mgs_orthonormalize,
    poly_roots,
    vector_from_json,
)


def test_validation_rejects_nonfinite():
    with pytest.raises(ValueError):
        as_matrix([[1.0, np.nan]])
    with pytest.raises(ValueError):
        as_vector([1.0, np.inf])
    with pytest.raises(ValueError):
        as_matrix([1.0, 2.0])  # 1-D is not a matrix


def test_matrix_json_round_trip():
    rng = np.random.default_rng(7)
    m = rng.standard_normal((3, 4)) + 1j * rng.standard_normal((3, 4))
    obj = matrix_to_json(m)
    assert obj["rows"] == 3 and obj["cols"] == 4
    assert len(obj["data"]) == 12
    back = matrix_from_json(obj)
    assert np.array_equal(back, m)
    # an integral float is a size, as for every other JSON integer
    assert np.array_equal(matrix_from_json({**obj, "rows": 3.0}), m)


def test_vector_json_round_trip_and_shapes():
    v = np.array([1 + 2j, -3.0, 0.5j])
    obj = vector_to_json(v)
    assert obj["cols"] == 1
    assert np.array_equal(vector_from_json(obj), v)
    # a row vector is accepted too
    assert np.array_equal(vector_from_json({"rows": 1, "cols": 2, "data": [[1, 0], [2, 0]]}),
                          np.array([1.0, 2.0]))
    with pytest.raises(ValueError):
        vector_from_json({"rows": 2, "cols": 2, "data": [[0, 0]] * 4})


def test_matrix_json_malformed():
    with pytest.raises(ValueError):
        matrix_from_json({"rows": 2, "cols": 2})
    with pytest.raises(ValueError):
        matrix_from_json({"rows": 2, "cols": 2, "data": [[0, 0]] * 3})


@pytest.mark.parametrize("rows, cols, message", [
    (2.7, 2, "A: rows must be an integer, got 2.7"),
    ("2", 2, "A: rows must be an integer, got '2'"),
    (True, 1, "A: rows must be an integer, got True"),
    (2, None, "A: cols must be an integer, got None"),
    (-1, -1, "A: size -1x-1 is negative"),
    (-2, 0, "A: size -2x0 is negative"),
])
def test_matrix_json_refuses_bad_sizes(rows, cols, message):
    with pytest.raises(ValueError) as info:
        matrix_from_json({"rows": rows, "cols": cols, "data": [[0, 0]]}, "A")
    assert str(info.value) == message


def test_eigen_factorization_checks_inverse():
    rng = np.random.default_rng(11)
    S = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    ev = rng.standard_normal(4)
    fac = EigenFactorization(S, ev)
    assert fac.usable and fac.order == 4
    y = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    assert np.linalg.norm(S @ fac.solve(y) - y) <= 1e-12 * np.linalg.norm(y)
    # corrupted LU factors no longer solve with S, and the backward error of
    # each solve says so
    fac.lu[0][1, 2] += 0.1
    with pytest.raises(ValueError, match="backward error"):
        fac.solve(y)
    with pytest.raises(ValueError, match="backward error"):
        fac.solve_adjoint(np.column_stack([y, 2 * y]))
    with pytest.raises(ValueError):
        EigenFactorization(S, ev[:3])
    with pytest.raises(ValueError, match="empty"):
        EigenFactorization(np.zeros((0, 0)), [])


def test_eigen_factorization_flags_unusable():
    # cond ~ 1e13 exceeds the usability threshold; eigenvalues stay valid
    S = np.diag([1.0, 1e-13]).astype(complex)
    fac = EigenFactorization(S, [1.0, 2.0])
    assert not fac.usable
    assert np.array_equal(fac.eigenvalues, [1.0, 2.0])


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("cols", [None, 3])
def test_solve_and_solve_adjoint_match_numpy(seed, cols):
    rng = np.random.default_rng([19, seed])
    n = 9
    S = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    fac = EigenFactorization(S, np.arange(n))
    assert abs(fac.cond_estimate / np.linalg.cond(S, 1) - 1.0) <= 0.5
    shape = (n,) if cols is None else (n, cols)
    Y = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    for got, M in ((fac.solve(Y), S), (fac.solve_adjoint(Y), S.conj().T)):
        ref = np.linalg.solve(M, Y)
        assert got.shape == ref.shape
        tol = 1e-14 * fac.cond_estimate * np.linalg.norm(ref)
        assert np.linalg.norm(got - ref) <= tol


def test_factorize_refuses_nearly_parallel_and_singular_S():
    """An S the dense-inverse check refused is refused by its estimate too."""
    rng = np.random.default_rng(29)
    n = 8
    S = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    ev = np.arange(n) + 0.5j
    # two nearly parallel columns: cond ~ 1e15
    near = S.copy()
    near[:, 1] = near[:, 0] + 1e-15 * (rng.standard_normal(n) + 1j * rng.standard_normal(n))
    assert np.linalg.cond(near, 1) > 1e14
    # a zero column: exactly singular, the LU meets a zero pivot
    singular = S.copy()
    singular[:, 3] = 0.0
    for bad in (near, singular):
        fac = EigenFactorization(bad, ev)
        assert not fac.usable and fac.cond_estimate > linalg.UNUSABLE_COND
        with pytest.raises(ValueError, match="unusable eigenbasis"):
            factorize(fac)
    assert EigenFactorization(singular, ev).cond_estimate == np.inf


def test_mgs_identity_basis():
    e1 = np.array([1.0, 0.0, 0.0])
    e2 = np.array([0.0, 1.0, 0.0])
    Q, kept = mgs_orthonormalize([e1, e2])
    assert kept == [0, 1]
    assert np.allclose(Q, np.column_stack([e1, e2]))


def test_mgs_drops_dependent_vector():
    e1 = np.array([1.0, 0.0])
    Q, kept = mgs_orthonormalize([e1, 2 * e1])
    assert kept == [0]
    assert Q.shape == (2, 1)


def test_mgs_drops_at_the_dependence_tolerance():
    """A vector is kept when its residual after projection exceeds DEP_TOL
    times its norm, and dropped at half of that."""
    e1, e2 = np.eye(2)
    for scale, kept_expected in ((2.0, [0, 1]), (0.5, [0])):
        _, kept = mgs_orthonormalize([e1, e1 + scale * linalg.DEP_TOL * e2])
        assert kept == kept_expected


def test_mgs_random_span_and_projector():
    """Orthonormality plus span: (I - QQ^H) annihilates every input."""
    rng = np.random.default_rng(23)
    vecs = [rng.standard_normal(8) + 1j * rng.standard_normal(8) for _ in range(5)]
    Q, kept = mgs_orthonormalize(vecs)
    assert kept == list(range(5))
    assert np.abs(Q.conj().T @ Q - np.eye(5)).max() <= 1e-12
    P = Q @ Q.conj().T
    assert np.abs(P @ P - P).max() <= 1e-10
    for v in vecs:
        assert np.linalg.norm(v - P @ v) <= 1e-9 * np.linalg.norm(v)


def test_mgs_errors():
    with pytest.raises(ValueError):
        mgs_orthonormalize([])
    with pytest.raises(ValueError, match="rank zero"):
        mgs_orthonormalize([np.zeros(3), np.zeros(3)])


def test_eig_small_diagonal_and_rotation():
    fac = eig_small(np.diag([1.0, 2.0j]))
    assert np.allclose(sorted(fac.eigenvalues, key=lambda z: z.real), [2.0j, 1.0])
    fac = eig_small(np.array([[0.0, 1.0], [-1.0, 0.0]]))
    got = sorted(fac.eigenvalues, key=lambda z: z.imag)
    assert np.allclose(got, [-1j, 1j], atol=1e-12)


def test_eig_small_residual_random():
    rng = np.random.default_rng(31)
    A = rng.standard_normal((9, 9)) + 1j * rng.standard_normal((9, 9))
    fac = eig_small(A)
    resid = np.abs(A @ fac.S - fac.S * fac.eigenvalues[None, :]).max()
    assert resid <= 1e-8 * np.abs(A).max()


def test_eig_small_order_limit():
    # no cap on the order: above 64 a matrix factorizes like any other
    fac = eig_small(np.eye(65))
    assert fac.order == 65 and np.all(fac.eigenvalues == 1.0)
    with pytest.raises(ValueError):
        eig_small(np.ones((2, 3)))


def test_factorize_converts_once():
    fac = EigenFactorization(np.eye(2), [1.0, 2.0])
    assert factorize(fac) is fac
    got = factorize(np.diag([1.0, 2.0j]))
    assert sorted(got.eigenvalues, key=abs) == [1.0, 2.0j]
    # a Jordan block has no invertible eigenbasis, as matrix or as factors
    jordan = np.array([[1.0, 1.0], [0.0, 1.0]])
    with pytest.raises(ValueError, match="unusable eigenbasis"):
        factorize(jordan)
    with pytest.raises(ValueError, match="unusable eigenbasis"):
        factorize(eig_small(jordan))


def test_eig_extreme_hermitian_basic():
    assert eig_extreme_hermitian(np.diag([-2.0, 1.0])) == (-2.0, 1.0)
    assert eig_extreme_hermitian(np.zeros((3, 3))) == (0.0, 0.0)
    with pytest.raises(ValueError, match="Hermitian"):
        eig_extreme_hermitian(np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_eig_extreme_hermitian_rayleigh_sampling():
    """Every Rayleigh quotient of a Hermitian matrix sits in [qmin, qmax]."""
    rng = np.random.default_rng(37)
    G = rng.standard_normal((100, 100)) + 1j * rng.standard_normal((100, 100))
    H = 0.5 * (G + G.conj().T)
    qmin, qmax = eig_extreme_hermitian(H)
    Z = rng.standard_normal((100, 10000)) + 1j * rng.standard_normal((100, 10000))
    Z /= np.linalg.norm(Z, axis=0)[None, :]
    rayleigh = np.real(np.sum(Z.conj() * (H @ Z), axis=0))
    pad = 1e-10 * max(1.0, abs(qmin), abs(qmax))
    assert rayleigh.min() >= qmin - pad
    assert rayleigh.max() <= qmax + pad


def test_eig_extreme_hermitian_shift():
    rng = np.random.default_rng(41)
    G = rng.standard_normal((12, 12)) + 1j * rng.standard_normal((12, 12))
    H = 0.5 * (G + G.conj().T)
    c = 0.7
    lo, hi = eig_extreme_hermitian(H)
    lo2, hi2 = eig_extreme_hermitian(H + c * np.eye(12))
    assert abs(lo2 - lo - c) <= 1e-10
    assert abs(hi2 - hi - c) <= 1e-10


def test_poly_roots_quadratics():
    got = sorted(poly_roots([1.0, 0.0, 1.0]), key=lambda z: z.imag)
    assert np.allclose(got, [-1j, 1j], atol=1e-10)
    got = sorted(poly_roots([2.0, -3.0, 1.0]), key=lambda z: z.real)
    assert np.allclose(got, [1.0, 2.0], atol=1e-10)


def test_poly_roots_recover_random():
    """Build from known roots, recover, match after greedy pairing."""
    rng = np.random.default_rng(43)
    roots = rng.uniform(-2, 2, 8) + 1j * rng.uniform(-2, 2, 8)
    coeffs = np.polynomial.polynomial.polyfromroots(roots)
    got = list(poly_roots(coeffs))
    for r in roots:
        j = int(np.argmin([abs(g - r) for g in got]))
        assert abs(got[j] - r) <= 1e-6
        got.pop(j)
    # residual form of the same contract
    vals = np.polynomial.polynomial.polyval(poly_roots(coeffs), coeffs)
    assert np.abs(vals).max() <= 1e-6 * np.abs(coeffs).max()


def test_poly_roots_degree_errors():
    with pytest.raises(ValueError):
        poly_roots([3.0])
    with pytest.raises(ValueError):
        poly_roots([1.0, 0.0])


def _openblas_counts():
    counts = blas_thread_counts()
    if not counts:
        pytest.skip("no OpenBLAS build loaded in this process")
    return counts


# orders on each side of the threshold: every build pinned, numpy's alone
_SERIAL, _NUMPY_ONLY = PIN_BELOW_N - 1, PIN_BELOW_N


@pytest.mark.parametrize("depth", [1, 2])
def test_blas_threads_sets_and_restores(depth):
    """Every build reads 1 under a pin below PIN_BELOW_N entered ``depth``
    times, each entry yields 1, and the counts come back when the block
    raises through the outermost exit."""
    before = _openblas_counts()
    with pytest.raises(RuntimeError, match="inside the pin"):
        with contextlib.ExitStack() as stack:
            for _ in range(depth):
                assert stack.enter_context(blas_pin(_SERIAL)) == 1
            assert set(blas_thread_counts().values()) == {1}
            raise RuntimeError("inside the pin")
    assert blas_thread_counts() == before


def test_numpy_blas_serial_pins_numpy_build_alone():
    """From PIN_BELOW_N up numpy's build reads 1, every other build keeps its
    count and the pin yields None; a pin below the threshold inside it is
    refused, so is one from it up inside one below, and the counts come
    back after."""
    before = _openblas_counts()
    expected = numpy_serial_counts(linalg._PIN.builds(), before)
    with blas_pin(_NUMPY_ONLY) as threads:
        assert threads is None
        assert blas_thread_counts() == expected
        with blas_pin(2 * PIN_BELOW_N) as inner:
            assert inner is None
        assert blas_thread_counts() == expected
        with pytest.raises(ValueError, match=rf"blas_pin\({_SERIAL}\) inside "
                                             rf"blas_pin\({_NUMPY_ONLY}\)"):
            with blas_pin(_SERIAL):
                pass
    assert blas_thread_counts() == before
    with blas_pin(_SERIAL):
        with pytest.raises(ValueError, match=rf"blas_pin\({_NUMPY_ONLY}\) inside "
                                             rf"blas_pin\({_SERIAL}\): the orders lie "
                                             rf"on two sides of PIN_BELOW_N = {PIN_BELOW_N}"):
            with blas_pin(_NUMPY_ONLY):
                pass
    assert blas_thread_counts() == before


def test_numpy_build_is_told_by_its_path():
    root = os.path.dirname(os.path.realpath(np.__file__))
    assert linalg._numpy_owns(root + ".libs/libscipy_openblas64_-x.so")
    assert linalg._numpy_owns(root + "/.dylibs/libopenblas.so")
    scipy_root = os.path.dirname(os.path.realpath(scipy.__file__))
    assert not linalg._numpy_owns(scipy_root + ".libs/libscipy_openblas-x.so")
    assert not linalg._numpy_owns("/usr/lib/libopenblas.so.0")


def test_numpy_blas_serial_without_a_numpy_build_is_a_no_op(monkeypatch, caplog):
    """One shared library, or builds numpy's path does not tell apart: the
    pin from PIN_BELOW_N up sets nothing."""
    calls = []
    shared = linalg._Build("libopenblas.so.0", False, lambda: 2, calls.append)
    pin = linalg._OpenBLASPin()
    pin._builds = [shared]
    monkeypatch.setattr(linalg, "_PIN", pin)
    with caplog.at_level(logging.DEBUG, logger="ratmat"):
        with blas_pin(_NUMPY_ONLY) as threads:
            assert threads is None
    assert calls == []
    assert (f"numpy's OpenBLAS is not a build of its own; blas_pin({_NUMPY_ONLY}) "
            "does nothing") in caplog.text
    pin._builds = [shared._replace(numpy=True)]
    with blas_pin(_NUMPY_ONLY):
        pass
    assert calls == []


def test_times_is_the_product_with_S():
    rng = np.random.default_rng(5)
    n, m = 40, 7
    S = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    fac = EigenFactorization(S, np.arange(n))
    X = (rng.standard_normal((m, n)) + 1j * rng.standard_normal((m, n))).T
    Y = fac.times(X)
    assert Y.shape == (n, m) and Y.flags.c_contiguous
    ref = S @ X
    assert np.abs(Y - ref).max() <= 1e-14 * np.abs(ref).max()
    V = X.copy(order="C")  # row-major, as the left product takes it
    Z = fac.times(V, left=True)
    assert Z.shape == (m, n) and Z.flags.c_contiguous
    ref = V.conj().T @ S
    assert np.abs(Z - ref).max() <= 1e-14 * np.abs(ref).max()
    # one column or a vector is numpy's GEMV, whose bits the block route
    # would not keep
    assert np.array_equal(fac.times(X[:, :1]), S @ X[:, :1])
    assert np.array_equal(fac.times(V[:, :1], left=True), V[:, :1].conj().T @ S)
    x = X[:, 0].copy()
    assert fac.times(x).shape == (n,) and np.array_equal(fac.times(x), S @ x)
    assert np.array_equal(fac.times(x, left=True), x.conj() @ S)


def test_only_linalg_reads_S():
    """EigenFactorization.times is the package's one product with S: no
    module but linalg reads an S attribute."""
    src = Path(linalg.__file__).parent
    readers = [p.name for p in sorted(src.glob("*.py"))
               if re.search(r"\.S\b", p.read_text())]
    assert readers == ["linalg.py"]


def test_eigen_factorization_holds_S_without_copy():
    rng = np.random.default_rng(6)
    S = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
    assert EigenFactorization(S, np.arange(5)).S is S
    assert EigenFactorization(S.real, np.arange(5)).S is not S.real  # converted
    S[2, 3] = np.nan
    with pytest.raises(ValueError, match="S contains non-finite entries"):
        EigenFactorization(S, np.arange(5))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, complex(0.0, np.inf),
                                 complex(np.nan, 1.0)])
def test_eigen_factorization_refuses_non_finite_S(bad):
    rng = np.random.default_rng(7)
    S = rng.standard_normal((300, 300)) + 1j * rng.standard_normal((300, 300))
    S[299, 0] = bad
    with pytest.raises(ValueError, match="S contains non-finite entries"):
        EigenFactorization(S, np.arange(300))


def test_eigen_factorization_accepts_finite_S_whose_norm_overflows():
    S = np.diag([1e308, 1e308, 1.0]).astype(np.complex128)
    S[1, 0] = 1e308  # column 0 sums past the float range
    with np.errstate(over="ignore"):
        fac = EigenFactorization(S, np.arange(3))
    assert fac.S is S and fac.norm1 == np.inf


def test_drop_lu_frees_the_factors_and_refuses_a_solve():
    """drop_lu releases the 16 n^2 bytes of the LU buffer; products with S,
    the norms and the estimate stay, and every solve is refused."""
    rng = np.random.default_rng(12)
    n = 200
    S = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    X = rng.standard_normal((n, 3)) + 1j * rng.standard_normal((n, 3))
    tracemalloc.start()
    try:
        fac = EigenFactorization(S, np.arange(n))
        fac.solve(X[:, 0])
        products = fac.times(X), fac.times(X, left=True), fac.cond_estimate, fac.norm1
        held = tracemalloc.get_traced_memory()[0]
        fac.drop_lu()
        freed = held - tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert freed >= 16 * n * n
    assert fac.lu is None and fac.usable
    got = fac.times(X), fac.times(X, left=True), fac.cond_estimate, fac.norm1
    assert all(np.array_equal(a, b) for a, b in zip(got, products))
    for solve, Y in ((fac.solve, X[:, 0]), (fac.solve, X), (fac.solve_adjoint, X)):
        with pytest.raises(ValueError) as info:
            solve(Y)
        assert str(info.value) == "solve with S after drop_lu: its LU factors are gone"


@pytest.mark.parametrize("shape", [(1, 1), (2, 3), (5, 5), (181, 181), (182, 182),
                                   (300, 300), (1000, 1000), (7, 300), (300, 7)])
def test_norms_have_the_bits_of_the_whole_sums(shape):
    """||S||_1 and ||S||_inf, read from one |S|, are bit for bit the maxima
    of np.abs(S).sum(axis=0) and .sum(axis=1); rows scaled over ten decades
    make the order of the additions show.  A non-square S has no norms to
    read: it is refused with as_square_matrix's message."""
    rng = np.random.default_rng(shape)
    S = ((rng.uniform(-1.0, 1.0, shape) + 1j * rng.uniform(-1.0, 1.0, shape))
         * 10.0 ** rng.uniform(-5.0, 5.0, (shape[0], 1)))
    if shape[0] != shape[1]:
        with pytest.raises(ValueError) as info:
            EigenFactorization(S, np.arange(shape[0]))
        assert str(info.value) == f"S must be square, got shape {shape}"
        return
    fac = EigenFactorization(S, np.arange(shape[0]))
    assert (fac.norm1, fac.norm_inf) == (float(np.abs(S).sum(axis=0).max()),
                                         float(np.abs(S).sum(axis=1).max()))


@pytest.mark.parametrize("n", [5, 300])
def test_norms_of_an_eig_S_are_those_of_its_row_major_copy(n):
    """eig returns S column-major; the factorization holds it row-major and
    reads the norms from that copy, with its whole sums' bits (numpy sums
    the column-major |S| in another order, which can move the last bits)."""
    rng = np.random.default_rng(n)
    w, S = scipy.linalg.eig(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
    assert S.flags.f_contiguous and not S.flags.c_contiguous
    fac = EigenFactorization(S, w)
    C = np.ascontiguousarray(S)
    assert (fac.norm1, fac.norm_inf) == (float(np.abs(C).sum(axis=0).max()),
                                         float(np.abs(C).sum(axis=1).max()))


def test_eigen_factorization_peaks_at_its_LU_buffer():
    """|S| (8 n^2 bytes) is freed before the LU buffer (16 n^2) is made, so
    building the factorization at n = 512 peaks at the buffer and a few
    vectors: 39 KB above it measured, 128 KB allowed."""
    rng = np.random.default_rng(14)
    n = 512
    S = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    tracemalloc.start()
    try:
        fac = EigenFactorization(S, np.arange(n))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert fac.usable
    assert 16 * n * n <= peak <= 16 * n * n + 2 ** 17


def test_adjoint_solve_makes_no_n_by_n_temporary():
    """S^-H y reads ||S||_inf from the factorization: the solve of a vector at
    n = 512 allocates a small fraction of the 2 MiB that np.abs(S) alone
    would take."""
    rng = np.random.default_rng(13)
    n = 512
    S = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    fac = EigenFactorization(S, np.arange(n))
    y = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    tracemalloc.start()
    try:
        x = fac.solve_adjoint(y)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.linalg.norm(S.conj().T @ x - y) <= 1e-10 * np.linalg.norm(y)
    assert peak <= n * n


def _strided(S):
    big = np.zeros((2 * S.shape[0], 3 * S.shape[1]), dtype=np.complex128)
    big[::2, ::3] = S
    return big[::2, ::3]


@pytest.mark.parametrize("layout", [np.ascontiguousarray, np.asfortranarray, _strided])
@pytest.mark.parametrize("n", [1, 5, 181, 300])
def test_eigen_factorization_lu_is_zgetrf_of_S(layout, n):
    """The LU of the block-copied column-major S is bit for bit zgetrf's of
    S itself, whatever S's layout (300 takes three blocks of rows)."""
    rng = np.random.default_rng(n)
    S = layout(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
    fac = EigenFactorization(S, np.arange(n))
    lu, piv, info = scipy.linalg.lapack.zgetrf(S)
    assert info == 0
    assert np.array_equal(fac.lu[0], lu) and np.array_equal(fac.lu[1], piv)
    assert np.array_equal(fac.S, S)


def test_eigen_factorization_hands_zgetrf_a_column_major_buffer(monkeypatch):
    """zgetrf gets a Fortran-ordered copy of S and factors it in place, so
    f2py makes no copy of its own and S is left as it was."""
    zgetrf = linalg.lapack.zgetrf
    calls = []

    def guarded(a, *args, **kwargs):
        assert a.flags.f_contiguous and a.dtype == np.complex128
        lu, piv, info = zgetrf(a, *args, **kwargs)
        assert np.shares_memory(lu, a)
        calls.append(lu)
        return lu, piv, info

    monkeypatch.setattr(linalg.lapack, "zgetrf", guarded)
    rng = np.random.default_rng(8)
    S = rng.standard_normal((300, 300)) + 1j * rng.standard_normal((300, 300))
    before = S.copy()
    fac = EigenFactorization(S, np.arange(300))
    assert len(calls) == 1 and fac.lu[0] is calls[0]
    assert fac.S is S and np.array_equal(S, before)
    assert not np.shares_memory(fac.lu[0], S)


@pytest.mark.parametrize("layout", [np.ascontiguousarray, np.asfortranarray])
def test_eigen_factorization_holds_S_row_major_and_unchanged(layout):
    """Row-major S and eig's Fortran-ordered S alike are held row-major and
    left as they were, and the LU buffer is a copy of its own."""
    rng = np.random.default_rng(9)
    S = layout(rng.standard_normal((50, 50)) + 1j * rng.standard_normal((50, 50)))
    before = S.copy()
    fac = EigenFactorization(S, np.arange(50))
    assert fac.S.flags.c_contiguous and np.array_equal(fac.S, S)
    assert np.array_equal(S, before) and not np.shares_memory(fac.lu[0], S)


def test_blas_threads_nested_restores_once():
    before = _openblas_counts()
    with blas_pin(_SERIAL):
        with blas_pin(1):
            pass
        # the inner exit must leave the outer pin in place
        assert set(blas_thread_counts().values()) == {1}
        with pytest.raises(ValueError, match=rf"inside blas_pin\({_SERIAL}\)"):
            with blas_pin(_NUMPY_ONLY):
                pass
        assert set(blas_thread_counts().values()) == {1}
    assert blas_thread_counts() == before


def test_blas_threads_two_threads_restore_once():
    before = _openblas_counts()
    both_inside = threading.Barrier(2, timeout=10)
    first_left = threading.Event()
    seen = []

    def worker(i):
        with blas_pin(_SERIAL):
            both_inside.wait()
            if i == 1:
                first_left.wait(10)
                seen.append(blas_thread_counts())
        if i == 0:
            first_left.set()

    threads = [threading.Thread(target=worker, args=(i,)) for i in range(2)]
    for th in threads:
        th.start()
    for th in threads:
        th.join(timeout=10)
        assert not th.is_alive()
    # the thread still inside keeps its pin after the other one left
    assert first_left.is_set() and len(seen) == 1
    assert set(seen[0].values()) == {1}
    assert blas_thread_counts() == before


def test_blas_threads_stress_many_threads():
    before = _openblas_counts()
    pinned = []
    old_interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        def worker():
            for _ in range(100):
                with blas_pin(_SERIAL):
                    pinned.append(set(blas_thread_counts().values()) == {1})

        threads = [threading.Thread(target=worker) for _ in range(8)]
        for th in threads:
            th.start()
        for th in threads:
            th.join(timeout=30)
            assert not th.is_alive()
    finally:
        sys.setswitchinterval(old_interval)
    assert len(pinned) == 800 and all(pinned)
    assert blas_thread_counts() == before


def test_blas_threads_without_openblas_is_a_no_op(monkeypatch, caplog):
    pin = linalg._OpenBLASPin()
    pin._builds = []
    monkeypatch.setattr(linalg, "_PIN", pin)
    with caplog.at_level(logging.DEBUG, logger="ratmat"):
        with blas_pin(_SERIAL) as threads:
            assert threads == 1 and blas_thread_counts() == {}
    assert f"no OpenBLAS loaded; blas_pin({_SERIAL}) does nothing" in caplog.text
