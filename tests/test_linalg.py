import logging
import sys
import threading

import numpy as np
import pytest

from ratmat import linalg
from ratmat.linalg import (
    EigenFactorization,
    as_matrix,
    as_vector,
    blas_thread_counts,
    blas_threads,
    eig_extreme_hermitian,
    eig_small,
    factorize,
    matrix_from_json,
    matrix_to_json,
    mgs_orthonormalize,
    poly_roots,
    vector_from_json,
    vector_to_json,
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


def test_eigen_factorization_checks_inverse():
    rng = np.random.default_rng(11)
    S = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    ev = rng.standard_normal(4)
    fac = EigenFactorization(S, ev, np.linalg.inv(S))
    assert fac.usable and fac.order == 4
    with pytest.raises(ValueError):
        EigenFactorization(S, ev, np.linalg.inv(S) + 0.1)
    with pytest.raises(ValueError):
        EigenFactorization(S, ev[:3], np.linalg.inv(S))


def test_from_eigensystem_flags_unusable():
    # cond ~ 1e13 exceeds the usability threshold; eigenvalues stay valid
    S = np.diag([1.0, 1e-13]).astype(complex)
    fac = EigenFactorization.from_eigensystem(S, [1.0, 2.0])
    assert not fac.usable
    assert np.array_equal(fac.eigenvalues, [1.0, 2.0])


def test_mgs_identity_basis():
    e1 = np.array([1.0, 0.0, 0.0])
    e2 = np.array([0.0, 1.0, 0.0])
    Q, kept = mgs_orthonormalize([e1, e2])
    assert kept == [0, 1]
    assert np.allclose(Q, np.column_stack([e1, e2]))


def test_mgs_drops_dependent_vector():
    e1 = np.array([1.0, 0.0])
    Q, kept = mgs_orthonormalize([e1, 2 * e1], dep_tol=1e-10)
    assert kept == [0]
    assert Q.shape == (2, 1)


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
    with pytest.raises(ValueError):
        mgs_orthonormalize([np.ones(3)], dep_tol=0.0)


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
    fac = EigenFactorization(np.eye(2), [1.0, 2.0], np.eye(2))
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


@pytest.mark.parametrize("k", [1, 2])
def test_blas_threads_sets_and_restores(k):
    before = _openblas_counts()
    with blas_threads(k):
        assert set(blas_thread_counts().values()) == {k}
    assert blas_thread_counts() == before
    with pytest.raises(RuntimeError, match="inside the pin"):
        with blas_threads(k):
            assert set(blas_thread_counts().values()) == {k}
            raise RuntimeError("inside the pin")
    assert blas_thread_counts() == before


def test_blas_threads_none_changes_nothing():
    before = _openblas_counts()
    with blas_threads(2):
        with blas_threads(None):
            assert set(blas_thread_counts().values()) == {2}
    with blas_threads(None):
        assert blas_thread_counts() == before
    assert blas_thread_counts() == before


def test_blas_threads_nested_restores_once():
    before = _openblas_counts()
    with blas_threads(1):
        with blas_threads(1):
            pass
        # the inner exit must leave the outer pin in place
        assert set(blas_thread_counts().values()) == {1}
        with pytest.raises(ValueError, match="inside blas_threads"):
            with blas_threads(2):
                pass
        assert set(blas_thread_counts().values()) == {1}
    assert blas_thread_counts() == before
    with pytest.raises(ValueError, match="k >= 1"):
        with blas_threads(0):
            pass


def test_blas_threads_two_threads_restore_once():
    before = _openblas_counts()
    both_inside = threading.Barrier(2, timeout=10)
    first_left = threading.Event()
    seen = []

    def worker(i):
        with blas_threads(1):
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
                with blas_threads(1):
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
        with blas_threads(1):
            assert blas_thread_counts() == {}
    assert "no OpenBLAS loaded" in caplog.text
