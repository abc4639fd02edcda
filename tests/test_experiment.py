import csv
import json
import os
import subprocess
import sys

import numpy as np
import pytest

from ratmat import experiment, rom
from ratmat.linalg import blas_thread_counts
from ratmat.experiment import (
    ExperimentConfig,
    boundary_fit_nodes,
    derive_poles,
    run_experiment,
    run_trial,
)


def test_config_validation():
    with pytest.raises(ValueError, match="trials"):
        ExperimentConfig(trials=0)
    with pytest.raises(ValueError, match="boundary_nodes must equal"):
        ExperimentConfig(boundary_nodes=17)
    with pytest.raises(ValueError, match="even"):
        ExperimentConfig(boundary_nodes=19, fit_degree=(9, 9))
    with pytest.raises(ValueError, match="degenerate rectangle"):
        ExperimentConfig(rectangle={"re_min": 0.0, "re_max": 0.0,
                                    "im_min": -1.0, "im_max": 1.0})
    with pytest.raises(ValueError, match="reduced order"):
        ExperimentConfig(n=8)
    with pytest.raises(ValueError, match="grid sizes"):
        ExperimentConfig(mu_samples=0)


def test_config_json_round_trip():
    config = ExperimentConfig(n=32, trials=7, seed=5, outdir="elsewhere",
                              mu_samples=40, s_samples=9, t=0.5)
    again = ExperimentConfig.from_json(config.to_json())
    assert again.to_json() == config.to_json()
    assert ExperimentConfig.from_json({}).to_json() == ExperimentConfig().to_json()
    partial = ExperimentConfig.from_json({"n": 64, "fit_degree": [9, 8]})
    assert partial.n == 64 and partial.fit_degree == (9, 8)


def test_boundary_fit_nodes_default_rectangle():
    nodes = boundary_fit_nodes(ExperimentConfig())
    assert nodes.size == 18
    ims = np.array([-np.pi + k * (2 * np.pi / 8) for k in range(9)])
    expected = np.concatenate([0.0 + 1j * ims, -1.0 + 1j * ims])
    assert np.abs(nodes - expected).max() <= 1e-15


def test_derive_poles_outside_rectangle():
    config = ExperimentConfig()
    poles = derive_poles(config)
    assert poles.size == 8
    r = config.rectangle
    for p in poles:
        inside = (r["re_min"] <= p.real <= r["re_max"]
                  and r["im_min"] <= p.imag <= r["im_max"])
        assert not inside
    # exp is real on the real axis, so the pole set is conjugate closed
    for p in poles:
        assert np.abs(poles - np.conj(p)).min() <= 1e-8


def test_run_trial_deterministic_stream():
    config = ExperimentConfig(n=32, trials=1)
    poles = derive_poles(config)
    rec1 = run_trial(config, poles, np.random.default_rng([0, 5]))
    rec2 = run_trial(config, poles, np.random.default_rng([0, 5]))
    assert rec1.e0 == rec2.e0
    assert rec1.e1 == rec2.e1
    assert rec1.argmax_s == rec2.argmax_s
    assert rec1.argmax_mu == rec2.argmax_mu


def test_run_trial_bound_covers_error():
    config = ExperimentConfig(n=64, trials=1)
    poles = derive_poles(config)
    for trial in range(3):
        rec = run_trial(config, poles, np.random.default_rng([42, trial]))
        assert rec.e0 > 0.0
        assert rec.e1 >= rec.e0 / 1.05
        assert rec.ratio == rec.e1 / rec.e0


def test_run_trial_full_basis_reproduces_exponential():
    # n equals the reduced order, so the reduction is exact up to rounding
    config = ExperimentConfig(n=9, trials=1)
    poles = derive_poles(config)
    rec = run_trial(config, poles, np.random.default_rng([1, 0]))
    assert rec.e0 <= 1e-8


def test_run_trial_takes_no_dense_lu(monkeypatch):
    """A trial reduces through its own factorization: no formed A, no LU."""
    config = ExperimentConfig(n=32, trials=1)
    poles = derive_poles(config)

    def refuse(*args, **kwargs):
        raise AssertionError("a trial called lu_factor")

    monkeypatch.setattr(rom.sla, "lu_factor", refuse)
    rec = run_trial(config, poles, np.random.default_rng([0, 3]))
    assert 0.0 < rec.e0 <= rec.e1 * 1.05


def _read_rows(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def test_run_experiment_outputs(tmp_path):
    config = ExperimentConfig(n=16, trials=4, seed=11,
                              outdir=str(tmp_path / "out"))
    summary = run_experiment(config)

    text = (tmp_path / "out" / "trials.csv").read_text()
    lines = text.strip().split("\n")
    assert lines[0] == "trial,e0,e1,ratio,argmax_s,argmax_mu_re,argmax_mu_im"
    assert len(lines) == 5

    rows = _read_rows(tmp_path / "out" / "trials.csv")
    e0s = np.array([float(r["e0"]) for r in rows])
    e1s = np.array([float(r["e1"]) for r in rows])
    ratios = np.array([float(r["ratio"]) for r in rows])
    assert [int(r["trial"]) for r in rows] == [0, 1, 2, 3]
    assert abs(summary["mean_e0"] - e0s.mean()) <= 1e-12 * max(e0s.mean(), 1e-300)
    assert abs(summary["mean_e1"] - e1s.mean()) <= 1e-12 * max(e1s.mean(), 1e-300)
    assert abs(summary["mean_ratio"] - ratios.mean()) <= 1e-12 * ratios.mean()
    assert summary["min_ratio"] == ratios.min()
    assert summary["max_ratio"] == ratios.max()
    assert len(summary["poles"]) == 8
    assert summary["config"]["n"] == 16

    stored = json.loads((tmp_path / "out" / "summary.json").read_text())
    assert stored["mean_ratio"] == summary["mean_ratio"]

    fig = _read_rows(tmp_path / "out" / "figure.csv")
    counts = {}
    for row in fig:
        counts[row["kind"]] = counts.get(row["kind"], 0) + 1
    assert counts["fit_node"] == 18
    assert counts["pole"] == 8
    assert counts["sigma_A"] == 16
    assert counts["sigma_Ahat"] == 9
    assert counts["hull_vertex"] >= 3
    assert counts["mu_sample"] >= 50


def test_run_experiment_byte_identical_reruns(tmp_path, monkeypatch):
    def go(sub, threads=None):
        if threads is None:
            monkeypatch.delenv("RATMAT_THREADS", raising=False)
        else:
            monkeypatch.setenv("RATMAT_THREADS", str(threads))
        config = ExperimentConfig(n=16, trials=3, seed=2,
                                  outdir=str(tmp_path / sub))
        run_experiment(config)
        return ((tmp_path / sub / "trials.csv").read_bytes(),
                (tmp_path / sub / "figure.csv").read_bytes())

    first = go("a")
    assert go("b") == first
    # thread count must not leak into the results
    assert go("c", threads=2) == first


def test_run_experiment_rows_match_independent_trials(tmp_path):
    config = ExperimentConfig(n=16, trials=3, seed=3,
                              outdir=str(tmp_path / "out"))
    run_experiment(config)
    poles = derive_poles(config)
    rows = _read_rows(tmp_path / "out" / "trials.csv")
    for k, row in enumerate(rows):
        rec = run_trial(config, poles, np.random.default_rng([3, k]))
        assert float(row["e0"]) == rec.e0
        assert float(row["e1"]) == rec.e1
        assert float(row["argmax_s"]) == rec.argmax_s
        assert float(row["argmax_mu_re"]) == rec.argmax_mu.real
        assert float(row["argmax_mu_im"]) == rec.argmax_mu.imag


def test_run_experiment_n128_independent_of_workers(tmp_path, monkeypatch):
    # below PIN_BELOW_N every trial runs on one BLAS thread, whatever runs it
    def go(sub, threads=None):
        if threads is None:
            monkeypatch.delenv("RATMAT_THREADS", raising=False)
        else:
            monkeypatch.setenv("RATMAT_THREADS", str(threads))
        config = ExperimentConfig(n=128, trials=2, seed=3,
                                  outdir=str(tmp_path / sub))
        summary = run_experiment(config)
        outputs = ((tmp_path / sub / "trials.csv").read_bytes(),
                   (tmp_path / sub / "figure.csv").read_bytes())
        return outputs, summary["diagnostics"]

    serial, diag1 = go("serial")
    threaded, diag2 = go("threaded", threads=2)
    assert threaded == serial
    assert diag1["workers"] == 1 and diag2["workers"] == 2
    assert diag1["blas_threads"] == diag2["blas_threads"] == 1
    assert diag1["openblas_libraries"] == len(blas_thread_counts())

    config = ExperimentConfig(n=128, trials=2, seed=3)
    poles = derive_poles(config)
    rows = _read_rows(tmp_path / "serial" / "trials.csv")
    for k, row in enumerate(rows):
        rec = run_trial(config, poles, np.random.default_rng([3, k]))
        assert float(row["e0"]) == rec.e0
        assert float(row["e1"]) == rec.e1
        assert float(row["argmax_s"]) == rec.argmax_s
        assert float(row["argmax_mu_re"]) == rec.argmax_mu.real
        assert float(row["argmax_mu_im"]) == rec.argmax_mu.imag


def test_run_experiment_serial_unpinned_at_crossover(tmp_path, monkeypatch):
    monkeypatch.setattr(experiment, "PIN_BELOW_N", 16)
    monkeypatch.setenv("RATMAT_THREADS", "2")
    config = ExperimentConfig(n=16, trials=3, seed=2,
                              outdir=str(tmp_path / "out"))
    diagnostics = run_experiment(config)["diagnostics"]
    assert diagnostics["workers"] == 1
    assert diagnostics["blas_threads"] is None
    stored = json.loads((tmp_path / "out" / "summary.json").read_text())
    assert stored["diagnostics"] == diagnostics


@pytest.mark.parametrize("value", ["two", "1.5", "", "0", "-3"])
def test_run_experiment_rejects_bad_ratmat_threads(tmp_path, monkeypatch, value):
    monkeypatch.setenv("RATMAT_THREADS", value)
    config = ExperimentConfig(n=16, trials=2, outdir=str(tmp_path / "out"))
    with pytest.raises(ValueError, match=f"RATMAT_THREADS .* got {value!r}"):
        run_experiment(config)
    assert not (tmp_path / "out").exists()


def test_cli_run_n128_independent_of_openblas_threads(tmp_path):
    outs = []
    for threads in ("1", "2"):
        outdir = tmp_path / f"blas{threads}"
        cfg = tmp_path / f"blas{threads}.json"
        cfg.write_text(json.dumps({
            "n": 128, "trials": 2, "seed": 4, "outdir": str(outdir),
        }))
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads)
        proc = subprocess.run(
            [sys.executable, "-m", "ratmat", "run", "--config", str(cfg)],
            capture_output=True, text=True, env=env, timeout=300,
        )
        assert proc.returncode == 0, proc.stderr
        outs.append(((outdir / "trials.csv").read_bytes(),
                     (outdir / "figure.csv").read_bytes()))
    assert outs[0] == outs[1]
