import json
import os
import subprocess
import sys

import numpy as np
import pytest

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
    rng = np.random.default_rng(64)
    n = 64
    nu = rng.uniform(-1.0, 0.0, n) + 1j * rng.uniform(-np.pi, np.pi, n)
    S = rng.uniform(-1.0, 1.0, (n, n)) + 1j * rng.uniform(-1.0, 1.0, (n, n))
    A = (S * nu) @ np.linalg.inv(S)
    b = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    d = rng.standard_normal(n) + 1j * rng.standard_normal(n)
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

    big = _dump(tmp_path, "big.json", matrix_to_json(np.eye(65)))
    bigb = _dump(tmp_path, "bigb.json", vector_to_json(np.ones(65)))
    assert main(["bound", "--A", big, "--b", bigb, "--poles", spec]) == 1
    assert "exceeds" in capsys.readouterr().err

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
