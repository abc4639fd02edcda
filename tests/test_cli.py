import json
import os
import subprocess
import sys

import numpy as np
import pytest
import scipy.linalg

from oracles import dense_krylov_vectors, taylor_expm
from ratmat.cli import main
from ratmat.experiment import ExperimentConfig, derive_poles
from ratmat.linalg import matrix_to_json, vector_to_json
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
    spec = json.loads(capsys.readouterr().out)
    assert spec["kappa0"] == 1
    assert len(spec["poles"]) == 8
    for p in spec["poles"]:
        assert p["kappa"] == 1 and p["chi"] == 0
        assert len(p["lambda"]) == 2
    # the printed spec is valid input for the library
    PoleSpec.from_json(spec)


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
    V, _ = build_krylov_basis(A, b, spec)
    model = reduce(A, b, V, spec=spec)
    res = arnoldi_error_bound(model, A, b, t=0.7)
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
    V, _ = build_krylov_basis(A, b, spec, side="two", d=d)
    model = reduce(A, b, V, d=d, spec=spec, side="two")
    res = arnoldi_error_bound(model, A, b, d=d, t=1.0)
    assert out["e1"] == res.value


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
    """xp bound takes no dense LU and one eig each for A and for Ahat."""
    A, b, d = _rectangle_system(np.random.default_rng(32), 32)
    args = _bound_args(tmp_path, A, b, _fitted_spec(chi=1), d=d)

    def refuse(*args, **kwargs):
        raise AssertionError("xp bound took a dense LU")

    for name in ("lu_factor", "lu_solve"):
        monkeypatch.setattr(scipy.linalg, name, refuse)
    monkeypatch.setattr(np.linalg, "solve", refuse)
    calls = []
    eig = np.linalg.eig

    def counted(M):
        calls.append(M.shape[0])
        return eig(M)

    monkeypatch.setattr(np.linalg, "eig", counted)
    assert main(args) == 0, capsys.readouterr().err
    assert json.loads(capsys.readouterr().out)["e1"] > 0.0
    assert calls == [32, 18]


def test_bound_defective_matrix(tmp_path, capsys):
    jordan = np.array([[1.0, 1.0, 0.0], [0.0, 1.0, 1.0], [0.0, 0.0, 1.0]])
    args = _bound_args(tmp_path, jordan, np.ones(3), _fitted_spec())
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
    assert f"error: --t must be finite, got {float(t)}" in capsys.readouterr().err


@pytest.mark.parametrize("b", [[1.0, 2.0], [0.0, 0.0]], ids=["b", "zero_b"])
@pytest.mark.parametrize("flag,least", [("--s-samples", 2), ("--mu-samples", 1)])
def test_bound_grid_sizes_below_minimum(tmp_path, capsys, b, flag, least):
    # the b = 0 shortcut echoes the grid, so it is refused there as well
    args = _bound_args(tmp_path, np.eye(2), b, {"kappa0": 1},
                       extra=[flag, str(least - 1)])
    assert main(args) == 1
    err = capsys.readouterr().err
    assert f"error: {flag} must be at least {least}, got {least - 1}" in err


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
