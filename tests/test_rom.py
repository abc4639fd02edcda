import json
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.optimize import linear_sum_assignment

from oracles import dense_krylov_vectors, random_diagonalizable, taylor_expm
from ratmat import rom
from ratmat.bounds import BoundQuery
from ratmat.experiment import ExperimentConfig, derive_poles
from ratmat.linalg import EigenFactorization
from ratmat.rom import (
    FinitePole,
    PoleSpec,
    ReducedModel,
    arnoldi_error_bound,
    build_krylov_basis,
    impulse_reduced,
    moment_match_check,
    reduce,
)


# ---------------------------------------------------------------- PoleSpec

def test_pole_spec_validation():
    with pytest.raises(ValueError, match="nonnegative"):
        PoleSpec(-1)
    with pytest.raises(ValueError, match="nonnegative"):
        FinitePole(2.0, kappa=-1)
    with pytest.raises(ValueError, match="distinct"):
        PoleSpec(1, [FinitePole(2.0), FinitePole(2.0, 2)])
    with pytest.raises(ValueError, match="empty"):
        PoleSpec(0)
    with pytest.raises(ValueError, match="empty"):
        PoleSpec(0, [FinitePole(2.0, 0, 0)])


@pytest.mark.parametrize("build, message", [
    (lambda: rom.FinitePole(3 + 1j, 2.5), "kappa must be an integer, got 2.5"),
    (lambda: rom.FinitePole(3 + 1j, True), "kappa must be an integer, got True"),
    (lambda: rom.FinitePole(3 + 1j, 1, -1), "chi must be nonnegative, got -1"),
    (lambda: rom.FinitePole(float("nan")), "lambda must be a finite number, got nan"),
    (lambda: rom.FinitePole("3"), "lambda must be a finite number, got '3'"),
    (lambda: rom.PoleSpec(1.5, (rom.FinitePole(3 + 1j),)), "kappa0 must be an integer, got 1.5"),
    (lambda: rom.PoleSpec(1, chi0=None), "chi0 must be an integer, got None"),
    (lambda: rom.PoleSpec(1, ((3 + 1j, 1, 0),)),
     "poles must be FinitePole instances, got (((3+1j), 1, 0),)"),
])
def test_pole_spec_built_in_python_names_a_bad_field(build, message):
    """A spec built in Python meets the rules from_json applies; these used
    to raise a TypeError or AttributeError inside the basis, to take True
    as kappa 1, or to report a NaN pole as a diverged solve."""
    with pytest.raises(ValueError) as refused:
        build()
    assert str(refused.value) == message


@pytest.mark.parametrize("literal", ["NaN", "Infinity", "-Infinity"])
def test_json_and_python_poles_refuse_a_non_finite_lambda_alike(literal):
    """FinitePole owns the finite-lambda rule: a JSON spec gets the text a
    Python caller gets, after the pole's index."""
    obj = json.loads(f'{{"kappa0": 1, "poles": [{{"lambda": [{literal}, 0.0]}}]}}')
    with pytest.raises(ValueError) as python:
        FinitePole(complex(*obj["poles"][0]["lambda"]))
    with pytest.raises(ValueError) as from_json:
        PoleSpec.from_json(obj)
    assert str(from_json.value) == f"malformed pole specification: poles[0].{python.value}"


def test_pole_spec_takes_integral_multiplicities_as_ints():
    """2.0 and numpy integers are integers, as in from_json; 2.0 used to
    raise a TypeError inside the basis."""
    spec = PoleSpec(np.int64(2), [FinitePole(3.0, 2.0, np.int64(0))])
    assert spec == PoleSpec(2, [FinitePole(3.0, 2, 0)])
    assert type(spec.kappa0) is int and type(spec.poles[0].kappa) is int
    assert spec.to_json() == PoleSpec(2, [FinitePole(3.0, 2, 0)]).to_json()


def test_pole_spec_totals_and_denominator():
    spec = PoleSpec(1, [FinitePole(2.0, 2, 1), FinitePole(-1.0j, 0, 3)])
    assert spec.is_two_sided
    assert spec.total() == 7
    v = spec.denominator()
    assert list(v.roots) == [2.0, -1.0j] and list(v.mults) == [3, 3]
    # no finite poles at all: v is the constant 1
    vinf = PoleSpec(4).denominator()
    assert vinf.degree == 0 and vinf(1.7) == 1.0


def test_pole_spec_json_round_trip():
    spec = PoleSpec(2, [FinitePole(2.0 + 1.0j, 2, 1)], chi0=1)
    obj = spec.to_json()
    assert obj["chi0"] == 1
    assert PoleSpec.from_json(obj) == spec
    one_sided = PoleSpec(3, [FinitePole(-4.0)])
    obj2 = one_sided.to_json()
    assert "chi0" not in obj2
    assert PoleSpec.from_json(obj2) == one_sided
    assert not one_sided.is_two_sided


def test_pole_spec_from_json_defaults_and_errors():
    spec = PoleSpec.from_json({"kappa0": 1, "poles": [{"lambda": [3.0, 0.0]}]})
    assert spec.poles[0] == FinitePole(3.0 + 0.0j, 1, 0)
    with pytest.raises(ValueError, match="malformed"):
        PoleSpec.from_json({"poles": []})
    with pytest.raises(ValueError, match="malformed"):
        PoleSpec.from_json({"kappa0": 1, "poles": [{"lambda": [0.0]}]})


# ------------------------------------------------------------------ basis

def test_basis_single_power_vector():
    rng = np.random.default_rng(211)
    b = rng.standard_normal(6) + 1j * rng.standard_normal(6)
    V, kept = build_krylov_basis(np.eye(6), b, PoleSpec(1))
    assert kept == [0]
    assert np.abs(V[:, 0] - b / np.linalg.norm(b)).max() <= 1e-14


def test_basis_full_space_recovers_spectrum():
    rng = np.random.default_rng(223)
    A, S, ev, Sinv = random_diagonalizable(rng, 6)
    b = rng.standard_normal(6) + 1j * rng.standard_normal(6)
    V, kept = build_krylov_basis(A, b, PoleSpec(6))
    assert kept == list(range(6))
    assert np.abs(V.conj().T @ V - np.eye(6)).max() <= 1e-12
    model = reduce(A, b, V)
    got = np.sort_complex(model.reduced_spectrum)
    assert np.abs(got - np.sort_complex(ev)).max() <= 1e-8


def test_basis_mixed_poles_spans_expected_vectors():
    rng = np.random.default_rng(227)
    A, S, ev, Sinv = random_diagonalizable(rng, 8)
    b = rng.standard_normal(8) + 1j * rng.standard_normal(8)
    spec = PoleSpec(2, [FinitePole(3.0 + 1.0j, 2), FinitePole(-4.0, 1)])
    V, kept = build_krylov_basis(A, b, spec)
    assert kept == list(range(5))
    P = V @ V.conj().T
    x = np.linalg.solve((3.0 + 1.0j) * np.eye(8) - A, b)
    for vec in (b, A @ b, x,
                np.linalg.solve((3.0 + 1.0j) * np.eye(8) - A, x),
                np.linalg.solve(-4.0 * np.eye(8) - A, b)):
        assert np.linalg.norm(P @ vec - vec) <= 1e-8 * np.linalg.norm(vec)


def test_basis_two_sided_dual_chain():
    """The dual block must contain d, A^H d and the conjugated resolvents."""
    rng = np.random.default_rng(229)
    A, S, ev, Sinv = random_diagonalizable(rng, 8)
    b = rng.standard_normal(8) + 1j * rng.standard_normal(8)
    d = rng.standard_normal(8) + 1j * rng.standard_normal(8)
    lam = 3.0 - 2.0j
    spec = PoleSpec(1, [FinitePole(lam, 1, 1)], chi0=2)
    V, kept = build_krylov_basis(A, b, spec, d=d)
    assert len(kept) == spec.total() == 5
    P = V @ V.conj().T
    dual = np.linalg.solve(np.conj(lam) * np.eye(8) - A.conj().T, d)
    for vec in (d, A.conj().T @ d, dual):
        assert np.linalg.norm(P @ vec - vec) <= 1e-8 * np.linalg.norm(vec)


def test_basis_argument_errors():
    with pytest.raises(ValueError, match="output vector d"):
        build_krylov_basis(np.eye(3), np.ones(3), PoleSpec(1, chi0=1))


@pytest.mark.filterwarnings("ignore")
def test_basis_pole_in_spectrum():
    A = np.diag([1.0, 2.0, 3.0])
    with pytest.raises(ValueError, match="pole in spectrum"):
        build_krylov_basis(A, np.ones(3), PoleSpec(0, [FinitePole(2.0)]))


# ----------------------------------------------------------------- reduce

def test_reduce_identity_projection():
    rng = np.random.default_rng(233)
    A = rng.standard_normal((5, 5))
    b = rng.standard_normal(5)
    model = reduce(A, b, np.eye(5))
    assert np.abs(model.Ahat - A).max() <= 1e-14
    assert np.abs(model.bhat - b).max() <= 1e-14
    assert model.dhat is None and model.spec is None
    assert model.order == 5


def test_reduce_rank_one_rayleigh_quotient():
    rng = np.random.default_rng(239)
    A = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
    b = rng.standard_normal(6) + 1j * rng.standard_normal(6)
    u = b / np.linalg.norm(b)
    model = reduce(A, b, u[:, None])
    assert abs(model.Ahat[0, 0] - u.conj() @ A @ u) <= 1e-12 * np.abs(A).max()


def test_reduce_rejects_bad_basis():
    with pytest.raises(ValueError, match="not orthonormal"):
        reduce(np.eye(3), np.ones(3), 2.0 * np.eye(3))


def test_reduced_model_clusters_defective_spectrum():
    model = ReducedModel(np.eye(2), np.array([[1.0, 1.0], [0.0, 1.0]]),
                         np.ones(2), None)
    assert list(model.reduced_nodes.mults) == [2]
    assert not model.reduced_fac.usable
    with pytest.raises(ValueError, match="unusable eigenbasis"):
        impulse_reduced(model, 1.0, kind="vector")


# --------------------------------------------------------------- impulses

def test_impulse_reduced_full_order_is_exact():
    rng = np.random.default_rng(257)
    A, S, ev, Sinv = random_diagonalizable(rng, 6)
    b = rng.standard_normal(6) + 1j * rng.standard_normal(6)
    d = rng.standard_normal(6) + 1j * rng.standard_normal(6)
    Q, _ = np.linalg.qr(rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6)))
    model = reduce(A, b, Q, d=d)
    for t in (0.1, 1.0, 2.0):
        exact = complex(d.conj() @ (taylor_expm(t * A) @ b))
        assert abs(impulse_reduced(model, t) - exact) <= 1e-8 * abs(exact)
        vec = impulse_reduced(model, t, kind="vector")
        ref = taylor_expm(t * A) @ b
        assert np.linalg.norm(vec - ref) <= 1e-8 * np.linalg.norm(ref)


def test_impulse_reduced_time_zero_projects():
    rng = np.random.default_rng(263)
    A = rng.standard_normal((5, 5))
    b = rng.standard_normal(5)
    d = rng.standard_normal(5)
    u = b / np.linalg.norm(b)
    model = reduce(A, b, u[:, None], d=d)
    ref = d @ u * (u @ b)
    assert abs(impulse_reduced(model, 0.0) - ref) <= 1e-12 * max(1.0, abs(ref))


def test_impulse_reduced_argument_errors():
    model = reduce(np.eye(3), np.ones(3), np.eye(3))
    with pytest.raises(ValueError, match="needs dhat"):
        impulse_reduced(model, 1.0, kind="scalar")
    with pytest.raises(ValueError, match="kind"):
        impulse_reduced(model, 1.0, kind="norm")


# --------------------------------------------------------- moment matching

def test_moment_match_one_sided():
    rng = np.random.default_rng(269)
    A, S, ev, Sinv = random_diagonalizable(rng, 16)
    b = rng.standard_normal(16) + 1j * rng.standard_normal(16)
    spec = PoleSpec(3, [FinitePole(2.5 + 0.5j, 2), FinitePole(-3.0 - 1.0j, 1)])
    V, kept = build_krylov_basis(A, b, spec)
    assert len(kept) == spec.total()
    model = reduce(A, b, V, spec=spec)
    assert moment_match_check(model, A, b) <= 1e-8


def test_moment_match_builds_one_chain_per_side(monkeypatch):
    """The 24 probes of kappa0 = 8 and two poles of multiplicity 8 cost one
    solve with S and one product of S with the 23 vectors other than b; each
    probe used to rebuild its chain (24 solves, 100 columns)."""
    rng = np.random.default_rng(13)
    n = 200
    nu = rng.uniform(-1.0, 0.0, n) + 1j * rng.uniform(-np.pi, np.pi, n)
    S = rng.uniform(-1.0, 1.0, (n, n)) + 1j * rng.uniform(-1.0, 1.0, (n, n))
    fac = EigenFactorization(S, nu)
    b = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    spec = PoleSpec(8, [FinitePole(1.0 + 1.0j, 8), FinitePole(1.0 - 1.0j, 8)])
    V, kept = build_krylov_basis(fac, b, spec)
    assert len(kept) == 24
    model = reduce(fac, b, V, spec=spec)

    solves, columns = [], []
    solve, times = EigenFactorization.solve, EigenFactorization.times

    def counted_solve(self, Y):
        if self is fac:
            solves.append(np.shape(Y))
        return solve(self, Y)

    def counted_times(self, X, *args, **kwargs):
        if self is fac:
            columns.append(X.shape[1])
        return times(self, X, *args, **kwargs)

    monkeypatch.setattr(EigenFactorization, "solve", counted_solve)
    monkeypatch.setattr(EigenFactorization, "times", counted_times)
    assert moment_match_check(model, fac, b) <= 1e-8
    assert solves == [(n,)]
    assert columns == [23]


def test_moment_match_two_sided_both_kinds():
    rng = np.random.default_rng(271)
    A, S, ev, Sinv = random_diagonalizable(rng, 16)
    b = rng.standard_normal(16) + 1j * rng.standard_normal(16)
    d = rng.standard_normal(16) + 1j * rng.standard_normal(16)
    spec = PoleSpec(2, [FinitePole(3.0, 1, 1), FinitePole(2.0j + 2.0, 1, 1)], chi0=1)
    V, kept = build_krylov_basis(A, b, spec, d=d)
    assert len(kept) == spec.total()
    model = reduce(A, b, V, d=d, spec=spec)
    assert moment_match_check(model, A, b) <= 1e-8
    assert moment_match_check(model, A, b, d=d) <= 1e-8


# pole sites at least 1.5 from the square |Re z|, |Im z| <= 1 that holds
# the spectrum, and at least 2 apart
_MOMENT_SITES = [3.0, -3.0 + 1.0j, 0.5 + 3.0j, -1.0 - 3.0j, 2.5 + 2.5j]


@given(
    seed=st.integers(0, 2 ** 16),
    poles=st.lists(
        st.tuples(st.sampled_from(_MOMENT_SITES), st.integers(0, 3), st.integers(0, 3)),
        min_size=1, max_size=2, unique_by=lambda p: p[0],
    ),
    kappa0=st.integers(0, 3),
    chi0=st.integers(0, 3),
    two_sided=st.booleans(),
    spare=st.integers(1, 4),
)
def test_moment_match_random_specs(seed, poles, kappa0, chi0, two_sided, spare):
    """Every admissible probe matches to 1e-8, in both kinds, for one- and
    two-sided specs with multiplicities up to 3 on a random diagonalizable A
    of order ``spare`` above the space's dimension."""
    if not two_sided:
        poles, chi0 = [(lam, kappa, 0) for lam, kappa, _ in poles], 0
    finite = [FinitePole(lam, kappa, chi) for lam, kappa, chi in poles]
    assume(kappa0 + sum(p.kappa for p in finite) > 0)
    spec = PoleSpec(kappa0, finite, chi0=chi0)
    n = spec.total() + spare
    rng = np.random.default_rng(seed)
    A, S, ev, Sinv = random_diagonalizable(rng, n, radius=1.0)
    b = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    d = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    V, _ = build_krylov_basis(A, b, spec, d=d)
    model = reduce(A, b, V, d=d, spec=spec)
    assert moment_match_check(model, A, b) <= 1e-8
    assert moment_match_check(model, A, b, d=d) <= 1e-8


@settings(max_examples=30)
@given(
    seed=st.integers(0, 2 ** 16),
    poles=st.lists(
        st.tuples(st.sampled_from(_MOMENT_SITES), st.integers(0, 2), st.integers(0, 2)),
        min_size=1, max_size=2, unique_by=lambda p: p[0],
    ),
    kappa0=st.integers(1, 2),
    chi0=st.integers(0, 2),
    two_sided=st.booleans(),
)
def test_spec_decides_space_and_denominator(seed, poles, kappa0, chi0, two_sided):
    """The spec alone fixes the space and the bound's v, with d passed either
    way: the basis keeps spec.total() vectors, and v has degree
    sum(kappa_k + chi_k) when the spec is two-sided and sum(kappa_k) when not."""
    if not two_sided:
        poles, chi0 = [(lam, kappa, 0) for lam, kappa, _ in poles], 0
    spec = PoleSpec(kappa0, [FinitePole(*p) for p in poles], chi0=chi0)
    n = spec.total() + 2
    rng = np.random.default_rng(seed)
    A, S, ev, Sinv = random_diagonalizable(rng, n, radius=1.0)
    b = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    d = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    V, kept = build_krylov_basis(A, b, spec, d=d)
    assert len(kept) == spec.total()
    model = reduce(A, b, V, d=d, spec=spec)
    seen = []

    def recording(A, nodes, v, **kwargs):
        seen.append(v.degree)
        return BoundQuery(A, nodes, v, **kwargs)

    with mock.patch.object(rom, "BoundQuery", recording):
        arnoldi_error_bound(model, A, b, d=d)
    want = sum(p.kappa + p.chi if spec.is_two_sided else p.kappa for p in spec.poles)
    assert seen == [want]


def test_moment_match_argument_errors():
    rng = np.random.default_rng(277)
    A, S, ev, Sinv = random_diagonalizable(rng, 8)
    b = rng.standard_normal(8)
    spec = PoleSpec(2, [FinitePole(3.0, 1)])
    V, _ = build_krylov_basis(A, b, spec)
    model = reduce(A, b, V, spec=spec)
    with pytest.raises(ValueError, match="needs dhat"):
        moment_match_check(model, A, b, d=b)
    bare = reduce(A, b, V)
    with pytest.raises(ValueError, match="no pole specification"):
        moment_match_check(bare, A, b)


# ------------------------------------------------------------ error bound

def test_arnoldi_bound_requires_full_basis():
    rng = np.random.default_rng(281)
    A, S, ev, Sinv = random_diagonalizable(rng, 8)
    b = rng.standard_normal(8)
    spec = PoleSpec(4)
    V, _ = build_krylov_basis(A, b, spec)
    short = reduce(A, b, V[:, :-1], spec=spec)
    with pytest.raises(ValueError, match="full declared multiplicities"):
        arnoldi_error_bound(short, A, b)


def test_arnoldi_bound_vanishes_at_full_order():
    rng = np.random.default_rng(283)
    ev = np.linspace(-1.0, 1.0, 5)
    A = np.diag(ev)
    b = rng.standard_normal(5) + 0.1
    spec = PoleSpec(5)
    V, _ = build_krylov_basis(A, b, spec)
    model = reduce(A, b, V, spec=spec)
    res = arnoldi_error_bound(model, A, b)
    assert res.value <= 1e-8


def test_arnoldi_bound_covers_true_error_one_sided():
    rng = np.random.default_rng(293)
    A, S, ev, Sinv = random_diagonalizable(rng, 24)
    b = rng.standard_normal(24) + 1j * rng.standard_normal(24)
    spec = PoleSpec(2, [FinitePole(3.0 + 1.0j), FinitePole(3.0 - 1.0j)])
    V, kept = build_krylov_basis(A, b, spec)
    assert len(kept) == 4
    model = reduce(A, b, V, spec=spec)
    approx = impulse_reduced(model, 1.0, kind="vector")
    e0 = np.linalg.norm(taylor_expm(A) @ b - approx)
    e1 = arnoldi_error_bound(model, A, b, t=1.0).value
    assert e0 <= e1 * 1.05
    assert e1 > 0.0


def test_arnoldi_bound_covers_true_error_two_sided():
    rng = np.random.default_rng(307)
    A, S, ev, Sinv = random_diagonalizable(rng, 20)
    b = rng.standard_normal(20) + 1j * rng.standard_normal(20)
    d = rng.standard_normal(20) + 1j * rng.standard_normal(20)
    spec = PoleSpec(1, [FinitePole(2.5, 1, 1)], chi0=1)
    V, kept = build_krylov_basis(A, b, spec, d=d)
    assert len(kept) == spec.total()
    model = reduce(A, b, V, d=d, spec=spec)
    with pytest.raises(ValueError, match="two-sided basis needs the output vector d"):
        arnoldi_error_bound(model, A, b)
    exact = complex(d.conj() @ (taylor_expm(A) @ b))
    e0 = abs(exact - impulse_reduced(model, 1.0))
    e1 = arnoldi_error_bound(model, A, b, d=d, t=1.0).value
    assert e0 <= e1 * 1.05


# ------------------------------------------------- A as its factorization

def _span_residual(V, x):
    return np.linalg.norm(x - V @ (V.conj().T @ x)) / np.linalg.norm(x)


def _check_eigen_route(fac, b, d, spec):
    """The basis holds the Krylov space and reduces to its Ritz values.

    Every raw Krylov vector, computed by dense solves against the formed A,
    lies in the span to 1e-10.  The Ritz values are compared with an
    independent reduction: QR of the kept raw vectors, then Q^H A Q.  Both
    are only as well determined as the raw Krylov matrix K is conditioned
    (about 1e9 at n = 48 with the fitted poles, where both sit about 1e-7
    from a 40-digit reference), so the tolerance is on the scale
    eps * cond(K).
    """
    A = (fac.S * fac.eigenvalues) @ np.linalg.inv(fac.S)
    V, kept = build_krylov_basis(fac, b, spec, d=d)

    raw = dense_krylov_vectors(A, b, spec.kappa0,
                               [(p.lam, p.kappa) for p in spec.poles], False)
    if spec.is_two_sided:
        raw += dense_krylov_vectors(A, d, spec.chi0,
                                    [(p.lam, p.chi) for p in spec.poles], True)
    for x in raw:
        assert _span_residual(V, x) <= 1e-10

    model = reduce(fac, b, V, d=d, spec=spec)
    K = np.column_stack([x / np.linalg.norm(x) for x in raw])
    sv = np.linalg.svd(K, compute_uv=False)
    tol = 1e3 * np.finfo(float).eps * sv[0] / sv[-1]
    Q, _ = np.linalg.qr(K[:, kept])
    ev_ref = np.linalg.eigvals(Q.conj().T @ A @ Q)
    ev = model.reduced_spectrum
    rows, cols = linear_sum_assignment(np.abs(ev_ref[:, None] - ev[None, :]))
    assert np.abs(ev_ref[rows] - ev[cols]).max() <= tol * np.abs(ev_ref).max()

    assert moment_match_check(model, fac, b) <= 1e-8
    assert moment_match_check(model, fac, b, d=d) <= 1e-8


def _rectangle_system(rng, n):
    """The experiment's draw: spectrum in [-1, 0] x [-pi, pi], S uniform."""
    nu = rng.uniform(-1.0, 0.0, n) + 1j * rng.uniform(-np.pi, np.pi, n)
    S = rng.uniform(-1.0, 1.0, (n, n)) + 1j * rng.uniform(-1.0, 1.0, (n, n))
    fac = EigenFactorization(S, nu)
    b = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    d = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    return fac, b, d


@pytest.mark.parametrize("side", ["one", "two"])
def test_eigen_route_spans_krylov_space(side):
    fac, b, d = _rectangle_system(np.random.default_rng(401), 48)
    chi = 1 if side == "two" else 0
    poles = derive_poles(ExperimentConfig())
    spec = PoleSpec(1, [FinitePole(complex(p), 1, chi) for p in poles], chi0=chi)
    assert len(poles) == 8 and spec.is_two_sided == (side == "two")
    _check_eigen_route(fac, b, d, spec)


# candidate poles outside the spectrum's rectangle, at least 1 apart
_POLE_SITES = [complex(re, im) for re in (1.5, 3.0, 5.0) for im in (-4.0, 0.0, 4.0)]


@given(
    poles=st.lists(
        st.tuples(st.sampled_from(_POLE_SITES), st.integers(0, 2), st.integers(0, 2)),
        min_size=1, max_size=3, unique_by=lambda p: p[0],
    ),
    kappa0=st.integers(0, 2),
    chi0=st.integers(0, 2),
)
def test_eigen_route_spans_krylov_space_random_poles(poles, kappa0, chi0):
    finite = [FinitePole(lam, kappa, chi) for lam, kappa, chi in poles]
    assume(kappa0 + sum(p.kappa for p in finite) > 0)
    spec = PoleSpec(kappa0, finite, chi0=chi0)
    fac, b, d = _rectangle_system(np.random.default_rng(409), 32)
    _check_eigen_route(fac, b, d, spec)


@pytest.mark.filterwarnings("ignore")
@pytest.mark.parametrize("side", ["one", "two"])
def test_factorization_route_pole_in_spectrum(side):
    # a scaled permutation: A = S D S^-1 is formed exactly (it is diagonal),
    # so the eigenvalues its own factorization finds contain 2 exactly too
    S = np.array([[0.0, 2.0, 0.0], [0.0, 0.0, 4.0], [0.5, 0.0, 0.0]])
    ev = np.array([1.0, 2.0, 3.0])
    fac = EigenFactorization(S, ev)
    A = (S * ev) @ np.linalg.inv(S)
    b = np.ones(3)
    if side == "one":
        spec, d = PoleSpec(0, [FinitePole(2.0)]), None
    else:
        spec, d = PoleSpec(1, [FinitePole(2.0, 0, 1)]), np.ones(3)
    messages = []
    for op in (A, fac):
        with pytest.raises(ValueError, match="pole in spectrum") as info:
            build_krylov_basis(op, b, spec, d=d)
        messages.append(str(info.value))
    assert messages[0] == messages[1]


def test_factorization_route_needs_inverse():
    fac = EigenFactorization(np.diag([1.0, 1e-13]), [1.0, 2.0])
    with pytest.raises(ValueError, match="unusable"):
        build_krylov_basis(fac, np.ones(2), PoleSpec(1, [FinitePole(3.0)]))
    with pytest.raises(ValueError, match="unusable"):
        reduce(fac, np.ones(2), np.eye(2)[:, :1])
