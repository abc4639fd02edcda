import dataclasses
import json
import math
import os
import struct
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from oracles import dense_krylov_vectors, matrix_to_json, taylor_expm, vector_to_json
from ratmat import cli
from ratmat.bounds import BoundQuery
from ratmat.cli import main
from ratmat.experiment import ExperimentConfig, derive_poles
from ratmat.interp import NodeList
from ratmat.jets import FactoredPoly
from ratmat.linalg import eig_small, matrix_from_json, vector_from_json
from ratmat.rom import (
    PoleSpec,
    arnoldi_error_bound,
    build_krylov_basis,
    reduce,
)


def _dump(tmp_path, name, obj):
    path = tmp_path / name
    path.write_text(json.dumps(obj))
    return str(path)


def _bound_args(tmp_path, A, b, spec, d=None, extra=()):
    args = [
        "bound",
        "--A", _dump(tmp_path, "A.json", matrix_to_json(A)),
        "--b", _dump(tmp_path, "b.json", vector_to_json(b)),
        "--poles", _dump(tmp_path, "spec.json", spec),
    ]
    if d is not None:
        args += ["--d", _dump(tmp_path, "d.json", vector_to_json(d))]
    return args + list(extra)


def _rectangle_system(rng, n):
    """A = S diag(nu) S^-1 as the experiment draws it, with b and d."""
    nu = rng.uniform(-1.0, 0.0, n) + 1j * rng.uniform(-np.pi, np.pi, n)
    S = rng.uniform(-1.0, 1.0, (n, n)) + 1j * rng.uniform(-1.0, 1.0, (n, n))
    A = (S * nu) @ np.linalg.inv(S)
    b = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    d = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    return A, b, d


def test_poles_command(tmp_path, capsys):
    cfg = _dump(tmp_path, "cfg.json", {"n": 16, "trials": 1})
    assert main(["poles", "--config", cfg]) == 0
    out = capsys.readouterr().out
    spec = json.loads(out)
    assert spec["kappa0"] == 1
    assert len(spec["poles"]) == 8
    for p in spec["poles"]:
        assert p["kappa"] == 1 and p["chi"] == 0
        assert len(p["lambda"]) == 2
    # the printed spec is valid input for the library, and its own JSON form
    assert out == json.dumps(PoleSpec.from_json(spec).to_json(), indent=2) + "\n"


def test_bound_scalar_system_full_space(tmp_path, capsys):
    # order 1 with one basis vector: the reduction is exact, the bound is 0
    args = _bound_args(tmp_path, np.array([[1.0]]), [1.0], {"kappa0": 1})
    assert main(args) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["e1"] == 0.0


def test_bound_matches_library(tmp_path, capsys):
    A = np.diag([0.3, 1.2, -0.5])
    b = np.array([1.0, 2.0, 3.0])
    spec_obj = {"kappa0": 1, "poles": [{"lambda": [3.0, 0.0]}]}
    args = _bound_args(tmp_path, A, b, spec_obj, extra=["--t", "0.7"])
    assert main(args) == 0
    out = json.loads(capsys.readouterr().out)

    spec = PoleSpec.from_json(spec_obj)
    fac = eig_small(A)
    V, _ = build_krylov_basis(fac, b, spec)
    model = reduce(fac, b, V, spec=spec)
    res = arnoldi_error_bound(model, fac, b, t=0.7)
    assert out["e1"] == res.value
    assert out["argmax_s"] == res.argmax_s
    assert out["argmax_mu"] == [res.argmax_mu.real, res.argmax_mu.imag]
    assert out["grid"] == {"s": 11, "mu": 50}
    assert out["e1"] > 0.0


def test_bound_zero_input_vector(tmp_path, capsys):
    args = _bound_args(tmp_path, np.eye(2), [0.0, 0.0], {"kappa0": 1},
                       extra=["--s-samples", "7", "--mu-samples", "13"])
    assert main(args) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["e1"] == 0.0
    assert out["grid"] == {"s": 7, "mu": 13}


def test_bound_two_sided_dispatch(tmp_path, capsys):
    A = np.diag([0.2, 0.9, -0.4])
    b = np.array([1.0, 1.0, 2.0])
    d = np.array([0.5, -1.0, 1.0])
    spec_obj = {"kappa0": 1, "chi0": 1}
    args = _bound_args(tmp_path, A, b, spec_obj, d=d)
    assert main(args) == 0
    out = json.loads(capsys.readouterr().out)

    spec = PoleSpec.from_json(spec_obj)
    fac = eig_small(A)
    V, _ = build_krylov_basis(fac, b, spec, d=d)
    model = reduce(fac, b, V, d=d, spec=spec)
    res = arnoldi_error_bound(model, fac, b, d=d, t=1.0)
    assert out["e1"] == res.value


@pytest.mark.parametrize("b", [[1.0, 2.0, 0.5], [0.0, 0.0, 0.0]], ids=["b", "zero_b"])
def test_bound_two_sided_spec_needs_d(tmp_path, capsys, monkeypatch, b):
    """A spec with chi fixes a two-sided space; without --d this printed an
    e1 of the one-sided reduction, or 0 for b = 0.  It is refused before A
    is factorized."""
    def refused(A):
        raise AssertionError("A factorized for a spec that needs d")

    monkeypatch.setattr(cli, "eig_small", refused)
    spec = {"kappa0": 1, "poles": [{"lambda": [3.0, 0.0], "chi": 1}]}
    assert main(_bound_args(tmp_path, np.diag([-0.5, -1.0 + 1.0j, -0.2]), b, spec)) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == ["error: two-sided basis needs the output vector d"]


def test_bound_output_independent_of_openblas_threads(tmp_path):
    """xp bound takes its BLAS thread count from the order, as a trial does."""
    A, b, d = _rectangle_system(np.random.default_rng(64), 64)
    poles = derive_poles(ExperimentConfig())
    spec_obj = {"kappa0": 1, "chi0": 1, "poles": [
        {"lambda": [p.real, p.imag], "kappa": 1, "chi": k % 2}
        for k, p in enumerate(poles)
    ]}
    args = _bound_args(tmp_path, A, b, spec_obj, d=d)
    outs = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads)
        proc = subprocess.run([sys.executable, "-m", "ratmat"] + args,
                              capture_output=True, text=True, env=env, timeout=300)
        assert proc.returncode == 0, proc.stderr
        outs.append(proc.stdout)
    assert json.loads(outs[0])["e1"] > 0.0
    assert outs[0] == outs[1]


def _fitted_spec(chi=0):
    return {"kappa0": 1, "chi0": chi, "poles": [
        {"lambda": [p.real, p.imag], "kappa": 1, "chi": chi}
        for p in derive_poles(ExperimentConfig())
    ]}


def test_bound_above_order_64(tmp_path, capsys):
    """No order cap: e1 at n = 80 covers e0 from an independent reduction."""
    A, b, _ = _rectangle_system(np.random.default_rng(80), 80)
    spec = _fitted_spec()
    assert main(_bound_args(tmp_path, A, b, spec)) == 0
    e1 = json.loads(capsys.readouterr().out)["e1"]

    # e0 by QR of the raw Krylov vectors, Q^H A Q and a Taylor exponential
    pole_mults = [(complex(*p["lambda"]), 1) for p in spec["poles"]]
    Q, _ = np.linalg.qr(np.column_stack(dense_krylov_vectors(A, b, 1, pole_mults,
                                                             False)))
    approx = Q @ (taylor_expm(Q.conj().T @ A @ Q) @ (Q.conj().T @ b))
    e0 = np.linalg.norm(taylor_expm(A) @ b - approx)
    assert 0.0 < e0 <= e1 * 1.05


def test_bound_factorizes_once_without_lu(tmp_path, capsys, monkeypatch):
    """xp bound takes no LU of a shifted matrix and one eig each for A and
    for Ahat, both from scipy's LAPACK; S^-1 goes through LAPACK's LU of S,
    not scipy.linalg's."""
    A, b, d = _rectangle_system(np.random.default_rng(32), 32)
    args = _bound_args(tmp_path, A, b, _fitted_spec(chi=1), d=d)

    def refuse(*args, **kwargs):
        raise AssertionError("xp bound took a dense LU")

    for name in ("lu_factor", "lu_solve"):
        monkeypatch.setattr(scipy.linalg, name, refuse)
    monkeypatch.setattr(np.linalg, "solve", refuse)
    monkeypatch.setattr(np.linalg, "eig", refuse)
    calls = []
    eig = scipy.linalg.eig

    def counted(M, **kwargs):
        calls.append(M.shape[0])
        return eig(M, **kwargs)

    monkeypatch.setattr(scipy.linalg, "eig", counted)
    assert main(args) == 0, capsys.readouterr().err
    assert json.loads(capsys.readouterr().out)["e1"] > 0.0
    assert calls == [32, 18]


def test_bound_drops_the_lu_after_its_last_solve(tmp_path, capsys, lu_events):
    """xp bound frees the LU of S after reduce's solve, the last one: S^-1 b,
    the primal block S C, the dual's S^H d, S^-H on the dual block, S^-1 V
    (each solve with its residual product) and V^H S run before, and the
    bilinear grid's u = d^H S, its one product with S, after."""
    A, b, d = _rectangle_system(np.random.default_rng(32), 32)
    args = _bound_args(tmp_path, A, b, _fitted_spec(chi=1), d=d)
    events = lu_events(32)
    assert main(args) == 0, capsys.readouterr().err
    assert json.loads(capsys.readouterr().out)["e1"] > 0.0
    assert events == ["_solve", "times(vector)", "times(8)", "times(vector, left)",
                      "_solve", "times(8, left)", "_solve", "times(18)", "times(18, left)",
                      "drop_lu", "times(vector, left)"]


def test_bound_forms_no_inverse(tmp_path, capsys, monkeypatch):
    """S^-1 of A and of Ahat is applied by solves; no inverse is formed."""
    A, b, d = _rectangle_system(np.random.default_rng(64), 64)
    args = _bound_args(tmp_path, A, b, _fitted_spec(chi=1), d=d)

    def refuse(*args, **kwargs):
        raise AssertionError("xp bound called np.linalg.inv")

    monkeypatch.setattr(np.linalg, "inv", refuse)
    assert main(args) == 0, capsys.readouterr().err
    assert json.loads(capsys.readouterr().out)["e1"] > 0.0


def test_bound_defective_matrix(tmp_path, capsys):
    # a spec of 2 vectors fits the 3 x 3 Jordan block, so A's eigenbasis is
    # what gets refused
    jordan = np.array([[1.0, 1.0, 0.0], [0.0, 1.0, 1.0], [0.0, 0.0, 1.0]])
    spec = {"kappa0": 1, "poles": [{"lambda": [5.0, 0.0]}]}
    args = _bound_args(tmp_path, jordan, np.ones(3), spec)
    assert main(args) == 1
    assert "unusable eigenbasis" in capsys.readouterr().err


@pytest.mark.parametrize("name", ["b", "d"])
def test_bound_vector_length_mismatch(tmp_path, capsys, name):
    b, d = np.ones(3), np.ones(3)
    if name == "b":
        b = np.ones(2)
    else:
        d = np.ones(4)
    args = _bound_args(tmp_path, np.eye(3), b, {"kappa0": 1, "chi0": 1}, d=d)
    assert main(args) == 1
    size = 2 if name == "b" else 4
    assert f"error: {name} has length {size}, A has order 3" in capsys.readouterr().err


@pytest.mark.parametrize("t", ["nan", "inf", "-inf"])
def test_bound_non_finite_t(tmp_path, capsys, t):
    args = _bound_args(tmp_path, np.diag([0.3, -0.5]), [1.0, 2.0],
                       {"kappa0": 1}, extra=[f"--t={t}"])
    assert main(args) == 1
    assert f"error: t must be a finite number, got {float(t)}" in capsys.readouterr().err


@pytest.mark.parametrize("b", [[1.0, 2.0], [0.0, 0.0]], ids=["b", "zero_b"])
@pytest.mark.parametrize("flag,least", [("--s-samples", 2), ("--mu-samples", 1)])
def test_bound_grid_sizes_below_minimum(tmp_path, capsys, b, flag, least):
    # the b = 0 shortcut echoes the grid, so it is refused there as well
    args = _bound_args(tmp_path, np.eye(2), b, {"kappa0": 1},
                       extra=[flag, str(least - 1)])
    assert main(args) == 1
    err = capsys.readouterr().err
    name = flag[2:].replace("-", "_")
    assert f"error: {name} must be at least {least}, got {least - 1}" in err


def test_cli_error_paths(tmp_path, capsys):
    cfg = _dump(tmp_path, "cfg.json", {"n": 16})
    missing = str(tmp_path / "nope.json")
    assert main(["run", "--config", missing]) == 1
    assert capsys.readouterr().err.startswith("error:")

    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["run", "--config", str(bad)]) == 1
    assert capsys.readouterr().err.startswith("error:")

    rect = _dump(tmp_path, "A.json", {"rows": 1, "cols": 2,
                                      "data": [[1.0, 0.0], [2.0, 0.0]]})
    bvec = _dump(tmp_path, "b.json", vector_to_json([1.0]))
    spec = _dump(tmp_path, "spec.json", {"kappa0": 1})
    assert main(["bound", "--A", rect, "--b", bvec, "--poles", spec]) == 1
    assert "square" in capsys.readouterr().err


    with pytest.raises(SystemExit):
        main([])


_RECT = {"re_min": -1.0, "re_max": 0.0, "im_min": -1.0, "im_max": 1.0}


@pytest.mark.parametrize("config, named", [
    ({"rectangle": {"re_min": -1}}, "'re_max'"),
    ({"rectangle": {**_RECT, "re_mid": 0.0}}, "'re_mid'"),
    ({"rectangle": {**_RECT, "im_max": "pi"}}, "rectangle.im_max"),
    ({"rectangle": [0, 1]}, "rectangle"),
    ({"n": None}, "n must be"),
    ({"n": 32.5}, "n must be"),
    ({"trials": True}, "trials must be"),
    ({"t": "1"}, "t must be"),
    ({"fit_degree": [9]}, "fit_degree"),
    ({"fit_degree": 9}, "fit_degree"),
    ({"fit_degree": [9, "8"]}, "fit_degree"),
    ({"outdir": 5}, "outdir"),
    ({"trails": 3, "n": 32}, "'trails'"),
    ([16], "config must be an object"),
    ({"boundary_nodes": 18}, "'boundary_nodes'"),
    ({"fit_degree": [-1, 2]}, "fit_degree must be two non-negative degrees, got [-1, 2]"),
    ({"fit_degree": [9, -2]}, "fit_degree must be two non-negative degrees, got [9, -2]"),
])
@pytest.mark.parametrize("command", ["run", "poles"])
def test_config_errors_exit_cleanly(tmp_path, capsys, command, config, named):
    cfg = _dump(tmp_path, "cfg.json", config)
    assert main([command, "--config", cfg]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: config: ") and named in err
    assert len(err.splitlines()) == 1
    _assert_constructor_refuses_alike(config, err)


def _assert_constructor_refuses_alike(config, err):
    """A config built in Python from the refused JSON object's keys is
    refused with the CLI's message after "error: config: "; a key that is
    no field, or a value that is no object, is from_json's to refuse."""
    if isinstance(config, dict) and config.keys() <= _CONFIG_FIELDS:
        with pytest.raises(ValueError) as refused:
            ExperimentConfig(**config)
        assert err == f"error: config: {refused.value}\n"


_CONFIG_FIELDS = {f.name for f in dataclasses.fields(ExperimentConfig)}


def test_run_refuses_an_order_beyond_physical_memory(tmp_path, capsys):
    """At the smallest n whose S and LU buffer (32 n^2 bytes) exceed physical
    memory, `xp run` refuses the config before drawing S, and `xp poles`,
    which draws none, still runs: the 11 x 50 grid's values and one block of
    its tables at that n (24,400 + 336 n bytes) are far below physical
    memory on any machine."""
    have = os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")
    n = math.isqrt(have // 32) + 1
    cfg = _dump(tmp_path, "cfg.json", {"n": n, "outdir": str(tmp_path / "out")})
    assert main(["run", "--config", cfg]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (f"error: config: n = {n} is too big: S and its LU buffer "
                            f"need {32 * n * n / 2 ** 30:.3g} GiB, more than the "
                            f"{have / 2 ** 30:.3g} GiB of physical memory\n")
    assert not (tmp_path / "out").exists()
    assert main(["poles", "--config", cfg]) == 0
    assert len(json.loads(capsys.readouterr().out)["poles"]) == 8


@pytest.mark.parametrize("data, named", [
    ([1], "A: entry 0 "),
    ([["a", "b"]], "A: entry 0 "),
    ([[1.0, 0.0, 2.0]], "A: entry 0 "),
    ({"re": 1.0}, "A: data must be a list"),
])
def test_bound_malformed_matrix_json(tmp_path, capsys, data, named):
    A = _dump(tmp_path, "A.json", {"rows": 1, "cols": 1, "data": data})
    b = _dump(tmp_path, "b.json", vector_to_json([1.0]))
    spec = _dump(tmp_path, "spec.json", {"kappa0": 1})
    assert main(["bound", "--A", A, "--b", b, "--poles", spec]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and named in err


def _finite_float(bits: int) -> float:
    return struct.unpack("<d", struct.pack("<Q", bits))[0]


# entries of every kind json.dumps writes: any finite double (subnormals
# among them), signed zeros, the float range's ends, and integer literals
# within and beyond 64 bits
_ENTRIES = st.one_of(
    st.integers(0, 2 ** 64 - 1).map(_finite_float).filter(math.isfinite),
    st.sampled_from([0.0, -0.0, 5e-324, -2.2250738585072014e-308,
                     1.7976931348623157e308, -1.7976931348623157e308]),
    st.integers(-10 ** 300, 10 ** 300),
)


@settings(suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(rows=st.integers(0, 3), cols=st.integers(1, 3), data=st.data())
@example(rows=1, cols=1, data=None)
def test_matrix_reader_gives_json_bits(tmp_path, rows, cols, data):
    """`xp bound`'s reader gives the complex128 bits of json.load and
    matrix_from_json (vector_from_json for one column), whichever decoder
    it takes; the example holds 2^64 + 2^11 + 1, just above a halfway point,
    which orjson returns as a float."""
    if data is None:
        entries = [[2 ** 64 + 2 ** 11 + 1, -(2 ** 70 + 1)]]
    else:
        entries = data.draw(st.lists(st.lists(_ENTRIES, min_size=2, max_size=2),
                                     min_size=rows * cols, max_size=rows * cols))
    path = _dump(tmp_path, "A.json", {"rows": rows, "cols": cols, "data": entries})
    convert = vector_from_json if cols == 1 else matrix_from_json
    with open(path) as fh:
        want = convert(json.load(fh), "A")
    got = cli._read_matrix(path, "A", convert)
    assert got.dtype == np.complex128 and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


def test_matrix_reader_leaves_json_a_well_formed_file(tmp_path, monkeypatch):
    """A well-formed matrix file never reaches json; a refused one does."""
    read = []
    monkeypatch.setattr(cli, "_load_json", lambda path: read.append(path) or
                        json.loads(Path(path).read_text()))
    good = _dump(tmp_path, "A.json", matrix_to_json(np.eye(2)))
    assert np.array_equal(cli._read_matrix(good, "A", matrix_from_json), np.eye(2))
    assert read == []
    bad = _dump(tmp_path, "B.json", {"rows": 1, "cols": 1, "data": [[math.nan, 0.0]]})
    with pytest.raises(ValueError, match="^B contains non-finite entries$"):
        cli._read_matrix(bad, "B", matrix_from_json)
    assert read == [bad]


def test_matrix_reader_takes_a_huge_entry_from_json(tmp_path, monkeypatch):
    """An entry of magnitude 2^63 or more is read again by json, so its bits
    do not rest on how orjson rounds an integer literal beyond 64 bits:
    here a stand-in for orjson that reads 2^65 one ulp high."""
    import orjson

    path = _dump(tmp_path, "A.json", {"rows": 1, "cols": 1, "data": [[2 ** 65, 0]]})
    high = {"rows": 1, "cols": 1, "data": [[math.nextafter(2.0 ** 65, math.inf), 0]]}
    monkeypatch.setattr(orjson, "loads", lambda _: high)
    assert cli._read_matrix(path, "A", matrix_from_json).tobytes() == \
        np.array([[2.0 ** 65]], dtype=np.complex128).tobytes()


# (file text, stderr after "error: " with {} for the file's name), the
# line json's reading gives
_REFUSED_MATRIX_FILES = {
    "NaN": ('{"rows": 1, "cols": 1, "data": [[NaN, 0.0]]}',
            "{} contains non-finite entries"),
    "Infinity": ('{"rows": 1, "cols": 1, "data": [[0.0, -Infinity]]}',
                 "{} contains non-finite entries"),
    "1e400": ('{"rows": 1, "cols": 1, "data": [[1e400, 0.0]]}',
              "{} contains non-finite entries"),
    "10**400": ('{"rows": 1, "cols": 1, "data": [[1%s, 0.0]]}' % ("0" * 400),
                "{}: entry 0 is out of the float range"),
    "rows 2**64 + 1": ('{"rows": 18446744073709551617, "cols": 1, "data": [[1.0, 0.0]]}',
                       "{}: data length 1 does not match 18446744073709551617x1"),
    "truncated": ('{"rows": 1, "cols": 1, "data": [[1.0, 0.0]',
                  "Expecting ',' delimiter: line 1 column 43 (char 42)"),
    "UTF-8 BOM": ('\ufeff{"rows": 1, "cols": 1, "data": [[1.0, 0.0]]}',
                  "Unexpected UTF-8 BOM (decode using utf-8-sig): line 1 column 1 (char 0)"),
    "string entry": ('{"rows": 1, "cols": 1, "data": [["1", 0.0]]}',
                     "{}: entry 0 is not a [re, im] pair of numbers: ['1', 0.0]"),
    "65-bit entry": ('{"rows": 1, "cols": 1, "data": [[18446744073709551617]]}',
                     "{}: entry 0 is not a [re, im] pair of numbers: "
                     "[18446744073709551617]"),
}


@pytest.mark.parametrize("target", ["A", "b", "d"])
@pytest.mark.parametrize("case", list(_REFUSED_MATRIX_FILES))
def test_bound_refuses_a_matrix_file_as_json_does(tmp_path, capsys, target, case):
    """Each file that orjson refuses or reads differently exits 1 with the
    line json's reading gives: the same entry, size or position."""
    text, message = _REFUSED_MATRIX_FILES[case]
    scalar = {"rows": 1, "cols": 1, "data": [[-1.0, 0.0]]}
    files = {key: _dump(tmp_path, f"{key}.json", scalar) for key in ("A", "b", "d")}
    Path(files[target]).write_text(text, encoding="utf-8")
    spec = _dump(tmp_path, "spec.json", {"kappa0": 1})
    args = ["bound", "--A", files["A"], "--b", files["b"], "--d", files["d"],
            "--poles", spec]
    assert main(args) == 1
    assert capsys.readouterr() == ("", f"error: {message.format(target)}\n")


def test_only_xp_bound_loads_orjson(tmp_path):
    """orjson is imported by the matrix reader alone: importing the CLI,
    `xp run` and `xp poles` leave it unloaded, and `xp bound` loads it."""
    cfg = _dump(tmp_path, "cfg.json", {"n": 16, "trials": 1,
                                       "outdir": str(tmp_path / "out")})
    bound = _bound_args(tmp_path, np.diag([-1.0, -2.0]), [1.0, 1.0], {"kappa0": 1})
    probe = ("import sys\nfrom ratmat import cli\nargv = {!r}\n"
             "if argv: assert cli.main(argv) == 0\n"
             "print('orjson' in sys.modules)")
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))
    for argv, loads in (([], False), (["run", "--config", cfg], False),
                        (["poles", "--config", cfg], False), (bound, True)):
        proc = subprocess.run([sys.executable, "-c", probe.format(argv)], env=env,
                              capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines()[-1] == str(loads), argv


def test_bound_refuses_a_fractional_matrix_size(tmp_path, capsys):
    """A 2.7 x 2 matrix is refused, not read as 2 x 2."""
    A = _dump(tmp_path, "A.json", {"rows": 2.7, "cols": 2, "data": [[-1.0, 0.0]] * 4})
    b = _dump(tmp_path, "b.json", vector_to_json([1.0, 1.0]))
    spec = _dump(tmp_path, "spec.json", {"kappa0": 1})
    assert main(["bound", "--A", A, "--b", b, "--poles", spec]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "A: rows must be an integer, got 2.7" in err


@pytest.mark.parametrize("spec, named", [
    ({"kappa0": 1, "chi0": None}, "chi0 must be an integer, got None"),
    ({"kappa0": 1, "chi_0": 1}, "unknown spec key 'chi_0'"),
    ({"kappa0": 1.5}, "kappa0 must be an integer"),
    ({"chi0": 1}, "spec is missing 'kappa0'"),
    ([1], "spec must be an object"),
    ({"kappa0": 1, "poles": {"lambda": [3.0, 0.0]}}, "poles must be a list"),
    ({"kappa0": 1, "poles": [{"lambda": [3.0, 0.0], "kapa": 2}]},
     "unknown poles[0] key 'kapa'"),
    ({"kappa0": 1, "poles": [{"kappa": 2}]}, "poles[0] is missing 'lambda'"),
    ({"kappa0": 1, "poles": [{"lambda": [3.0, "0"]}]}, "poles[0].lambda is not"),
    ({"kappa0": 1, "poles": [{"lambda": [3.0, 0.0, 1.0]}]}, "poles[0].lambda is not"),
    ({"kappa0": 1, "poles": [{"lambda": [3.0, 0.0], "chi": "1"}]},
     "poles[0].chi must be an integer"),
    ({"kappa0": 1, "poles": [{"lambda": [float("nan"), 0.0]}]},
     "poles[0].lambda must be a finite number, got (nan+0j)"),
    ({"kappa0": 1, "poles": [{"lambda": [float("inf"), 0.0]}]},
     "poles[0].lambda must be a finite number, got (inf+0j)"),
    ({"kappa0": -1}, "kappa0 must be nonnegative, got -1"),
    ({"kappa0": 1, "poles": [{"lambda": [3.0, 0.0], "kappa": -1}]},
     "poles[0].kappa must be nonnegative, got -1"),
    ({"kappa0": 0}, "empty pole specification"),
])
def test_bound_malformed_pole_spec(tmp_path, capsys, spec, named):
    A = np.diag([-1.0, -2.0, -3.0])
    args = _bound_args(tmp_path, A, np.ones(3), spec, d=np.ones(3))
    assert main(args) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: malformed pole specification: ") and named in err


_HUGE = 10 ** 400  # a JSON integer no float can hold


@pytest.mark.parametrize("config, named", [
    ({"t": _HUGE}, "config: t must be a finite number"),
    ({"rectangle": {**_RECT, "re_min": -_HUGE}},
     "config: rectangle.re_min must be a finite number"),
    ({"n": 16, "mu_samples": _HUGE}, "mu_samples is beyond numpy's index range"),
    ({"n": 16, "s_samples": 2 ** 63 + 1}, "s_samples is beyond numpy's index range"),
    # the grid's bytes are an integer beyond the float range
    ({"n": _HUGE}, "config: the 11 x 50 grid is too big: its tables need inf GiB"),
])
def test_config_out_of_range_number_exits_cleanly(tmp_path, capsys, config, named):
    cfg = _dump(tmp_path, "cfg.json", config)
    assert main(["run", "--config", cfg]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and named in err
    assert "Traceback" not in err
    _assert_constructor_refuses_alike(config, err)


def test_run_refuses_an_oversized_grid_before_the_first_draw(tmp_path, capsys,
                                                             monkeypatch):
    """The config refuses s_samples = 2**63 + 1; it used to pass until the
    first trial had drawn S and factored it."""
    def refuse(*args, **kwargs):
        raise AssertionError("xp run drew S before checking the grid sizes")

    monkeypatch.setattr("ratmat.experiment.draw_eigenvectors", refuse)
    cfg = _dump(tmp_path, "cfg.json", {"n": 16, "s_samples": 2 ** 63 + 1,
                                       "outdir": str(tmp_path / "out")})
    assert main(["run", "--config", cfg]) == 1
    assert capsys.readouterr().err == \
        "error: config: s_samples is beyond numpy's index range\n"
    assert not (tmp_path / "out").exists()


_QUERY_A = np.diag([-1.0, -2.0 + 1j])
_QUERY_FAC = eig_small(_QUERY_A)


@settings(suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(t=st.floats(-4.0, 4.0) | st.sampled_from([math.nan, math.inf, -math.inf]),
       s_samples=st.integers(-1, 3) | st.sampled_from([2 ** 63, 2 ** 63 + 1]),
       mu_samples=st.integers(-1, 3) | st.sampled_from([2 ** 63, 2 ** 63 + 1]))
def test_query_rules_are_the_same_at_every_entry_point(tmp_path, capsys, t, s_samples,
                                                       mu_samples):
    """A config, `xp bound`'s flags and a BoundQuery meet one rule set for
    t and the grid sizes: the same verdict and, after each prefix, the same
    message.  Accepted sizes stay small, so no grid is beyond physical memory."""
    verdicts = []
    for build in (
        lambda: ExperimentConfig(t=t, s_samples=s_samples, mu_samples=mu_samples),
        lambda: BoundQuery(_QUERY_FAC, NodeList([-1.5]), FactoredPoly((), (), 1.0), t=t,
                           s_samples=s_samples, mu_samples=mu_samples),
    ):
        try:
            build()
            verdicts.append(None)
        except ValueError as exc:
            verdicts.append(str(exc))
    args = _bound_args(tmp_path, _QUERY_A, [1.0, 2.0], {"kappa0": 1},
                       extra=[f"--t={t!r}", f"--s-samples={s_samples}",
                              f"--mu-samples={mu_samples}"])
    code = main(args)
    err = capsys.readouterr().err
    verdicts.append(None if code == 0 else err.removeprefix("error: ").rstrip("\n"))
    assert verdicts[0] == verdicts[1] == verdicts[2]


@pytest.mark.parametrize("t", ["1", None, True, math.nan])
def test_t_that_is_no_finite_number_is_refused_alike(t):
    """A config and a BoundQuery built in Python refuse a t that is a
    string, None or a bool, as a non-finite one, with one message."""
    for build in (
        lambda: ExperimentConfig(t=t),
        lambda: BoundQuery(_QUERY_FAC, NodeList([-1.5]), FactoredPoly((), (), 1.0), t=t),
    ):
        with pytest.raises(ValueError) as refused:
            build()
        assert str(refused.value) == f"t must be a finite number, got {t!r}"


def test_bound_t_whose_power_overflows_exits_cleanly(tmp_path, capsys):
    """t = 1e120 is finite, but t^3 in the jet of a 3-node bound is beyond
    the float range: one error line, not an OverflowError's traceback."""
    spec = {"kappa0": 1, "poles": [{"lambda": [3.0, 0.0]}, {"lambda": [4.0, 0.0]}]}
    args = _bound_args(tmp_path, np.diag([-1.0, -2.0 + 1j, -0.5 - 2j]), [1.0] * 3, spec,
                       extra=["--t=1e120"])
    assert main(args) == 1
    err = capsys.readouterr().err
    assert err == "error: bound evaluation overflowed at t^3, t = 1e+120\n"


@pytest.mark.parametrize("target, named", [
    ("A", "A: entry 0 is out of the float range"),
    ("b", "b: entry 0 is out of the float range"),
    ("d", "d: entry 0 is out of the float range"),
    ("poles", "poles[0].lambda is out of the float range"),
])
def test_bound_out_of_range_number_exits_cleanly(tmp_path, capsys, target, named):
    scalar = {"rows": 1, "cols": 1, "data": [[-1.0, 0.0]]}
    files = {"A": scalar, "b": scalar, "d": scalar,
             "poles": {"kappa0": 1, "poles": [{"lambda": [3.0, 0.0]}]}}
    if target == "poles":
        files[target] = {"kappa0": 1, "poles": [{"lambda": [_HUGE, 0]}]}
    else:
        files[target] = {"rows": 1, "cols": 1, "data": [[0, _HUGE]]}
    args = ["bound"]
    for key, obj in files.items():
        args += [f"--{key}", _dump(tmp_path, f"{key}.json", obj)]
    assert main(args) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and named in err


_SYSTEMS = {"": (np.array([[-1.0]]), [1.0]), "-zero_b": (np.array([[-1.0]]), [0.0]),
            "-empty_A": (np.zeros((0, 0)), []),
            "-order3": (np.diag([-1.0, -2.0 + 1j, -0.5 - 2j]), [1.0, 2.0, 3.0])}
_TOO_MANY = [{"kappa0": _HUGE},
             {"kappa0": 1, "poles": [{"lambda": [3.0, 0.0], "kappa": _HUGE}]}]


@pytest.mark.parametrize("spec, A, b", [
    pytest.param(spec, *system, id=f"spec{i}{name}")
    for name, system in _SYSTEMS.items() for i, spec in enumerate(_TOO_MANY)
])
def test_bound_refuses_more_vectors_than_the_order(tmp_path, capsys, monkeypatch,
                                                   spec, A, b):
    """Refused before A is factorized (this ran until killed), also when
    b = 0 makes e1 zero; both printed e1 = 0 for b = 0."""
    def refuse(*args, **kwargs):
        raise AssertionError("xp bound factorized A before checking the spec")

    monkeypatch.setattr(cli, "eig_small", refuse)
    assert main(_bound_args(tmp_path, A, b, spec)) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")
    assert f"exceed the order {A.shape[0]} of A" in captured.err


def test_bound_out_of_range_mu_samples_exits_cleanly(tmp_path, capsys):
    # 2**63 + 1 passes argparse and the lower bound, and used to reach
    # np.linspace as the s grid's size
    for flag, size, named in (("--mu-samples", _HUGE, "mu_samples is beyond"),
                              ("--s-samples", 2 ** 63 + 1, "s_samples is beyond")):
        args = _bound_args(tmp_path, np.diag([-1.0, -2 + 1j, -0.5 - 2j, -3 + 0.5j]),
                           [1.0] * 4, {"kappa0": 3}, extra=[f"{flag}={size}"])
        assert main(args) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and named in err


def test_bound_huge_mu_samples_fails_at_one_allocation(tmp_path, capsys):
    # 2**60 is inside numpy's index range; the memory check on the grid's
    # tables refuses it ("grid is too big") before the samples are allocated
    args = _bound_args(tmp_path, np.diag([-1.0, -2 + 1j, -0.5 - 2j, -3 + 0.5j]),
                       [1.0] * 4, {"kappa0": 3}, extra=[f"--mu-samples={2 ** 60}"])
    assert main(args) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "too big" in err


def test_grid_beyond_physical_memory_is_refused(tmp_path, capsys, monkeypatch):
    """10**9 mu samples: the 11 x 10**9 grid's tables would take most of a
    TiB, so both commands print one error line before allocating them, and
    before any O(n^3) step: `xp bound` before it factorizes A (it used to
    factorize A, build the basis and reduce first), `xp run` when it reads
    the config."""
    def refuse(*args, **kwargs):
        raise AssertionError("the grid's size was checked after O(n^3) work")

    monkeypatch.setattr(cli, "eig_small", refuse)
    monkeypatch.setattr(cli, "run_experiment", refuse)
    spec = {"kappa0": 1, "poles": [{"lambda": [x, 0.0]} for x in (3.0, 4.0, 5.0)]}
    bound = _bound_args(tmp_path, np.diag([-1.0, -2 + 1j, -0.5 - 2j, -3 + 0.5j]),
                        [1.0] * 4, spec, extra=["--mu-samples=1000000000"])
    run = ["run", "--config", _dump(tmp_path, "cfg.json", {
        "n": 16, "trials": 2, "mu_samples": 10 ** 9, "outdir": str(tmp_path / "out")})]
    for args in (bound, run):
        tracemalloc.start()
        try:
            assert main(args) == 1
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        prefix = "error: config: " if args is run else "error: "
        assert len(lines) == 1 and lines[0].startswith(f"{prefix}the 11 x 1000000000 grid")
        assert "GiB of physical memory" in lines[0]
        assert peak < 2 ** 24
    assert not (tmp_path / "out").exists()


def test_twenty_thousand_mu_samples_are_accepted(tmp_path, capsys):
    args = _bound_args(tmp_path, np.diag([-1.0, -2 + 1j, -0.5 - 2j, -3 + 0.5j]),
                       [1.0] * 4, {"kappa0": 3}, extra=["--mu-samples=20000"])
    assert main(args) == 0
    assert json.loads(capsys.readouterr().out)["grid"] == {"s": 11, "mu": 20000}
    cfg = _dump(tmp_path, "cfg.json", {"n": 16, "trials": 1, "mu_samples": 20000,
                                       "outdir": str(tmp_path / "out")})
    assert main(["run", "--config", cfg]) == 0
    assert json.loads(capsys.readouterr().out)["config"]["mu_samples"] == 20000


def test_run_command_small(tmp_path, capsys):
    cfg = _dump(tmp_path, "cfg.json", {
        "n": 16, "trials": 2, "seed": 9, "outdir": str(tmp_path / "out"),
    })
    assert main(["run", "--config", cfg]) == 0
    summary = json.loads(capsys.readouterr().out)
    assert summary["config"]["trials"] == 2
    assert summary["mean_ratio"] >= 0.0
    assert (tmp_path / "out" / "trials.csv").exists()
    assert (tmp_path / "out" / "figure.csv").exists()
    assert (tmp_path / "out" / "summary.json").exists()
