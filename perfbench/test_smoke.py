"""Smoke test of the benchmark at tiny sizes (n = 16 to 24, a few calls).

    python3 -m pytest perfbench/test_smoke.py

Runs the benchmark in this process with its workload sizes shrunk.  Checks
that every metric BENCHMARK.json names is printed with its unit, that a
corrupted e1 or non-repeating output trips the correctness checks, that a
renamed public name makes its metric absent instead of crashing, that trials
run in worker threads are still told apart, and that the benchmark refuses
to run without the package sources.
"""

import dataclasses
import importlib.util
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in BENCH["workloads"]]
SMOKE = ["--seed", "5", "--seconds", "0.2"]
# the workloads at tiny sizes: (kind, n, trials per call | systems)
TINY = {
    "xp-run-n128": ("run", 16, 2),
    "xp-run-n1024": ("run", 24, 1),
    "xp-bound-n64": ("bound", 16, 3),
}

sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import spans  # noqa: E402
import ratmat.cli  # noqa: E402
import ratmat.experiment  # noqa: E402


def _bench():
    """run.py, loaded afresh, at tiny sizes with one fresh-process probe."""
    spec = importlib.util.spec_from_file_location("perfbench_run", HERE / "run.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    assert set(module.WORKLOADS) == set(TINY)
    module.WORKLOADS, module.PROBES = TINY, 1
    return module


def _result(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_prints(workload, trace, capsys):
    code = _bench().main(["--workload", workload, "--trace", str(trace), *SMOKE])
    out = capsys.readouterr().out
    assert code == 0, out
    result = _result(out)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = BENCH["per_layer" if trace else "end_to_end"]
    printed = {name: m["unit"] for name, m in result["metrics"].items()}
    assert printed == {m["name"]: m["unit"] for m in declared}
    report = out.splitlines()[:-1]
    for name in printed:
        assert any(line.split()[:1] == [name] for line in report), name
    assert any(line.startswith("environment ") for line in report)


def _report_line(out: str, prefix: str) -> str:
    return next(line for line in out.splitlines() if line.startswith(prefix))


def test_layers_not_entered_are_named(capsys):
    code = _bench().main(["--workload", "xp-bound-n64", "--trace", "1", *SMOKE])
    out = capsys.readouterr().out
    assert code == 0, out
    idle = _report_line(out, "not entered by this workload, so 0: ")
    idle = set(idle.split(": ", 1)[1].split(", "))
    assert idle == {"experiment.self_ms", "experiment.output_ms",
                    "experiment.derive_poles_ms", "interp.rational_fit_ms",
                    "linalg.eigfac_ms", "rom.impulse_ms"}
    metrics = _result(out)["metrics"]
    assert all(metrics[name]["value"] == 0.0 for name in idle)


def test_threaded_trials_are_told_apart(monkeypatch, capsys):
    monkeypatch.setenv("RATMAT_THREADS", "2")
    code = _bench().main(["--workload", "xp-run-n128", "--trace", "1", *SMOKE])
    out = capsys.readouterr().out
    assert code == 0, out
    words = _report_line(out, "trial split: ").split()
    assert int(words[2]) == int(words[4]) >= 1, words
    metrics = _result(out)["metrics"]
    assert metrics["experiment.self_ms"]["value"] > 0.0
    assert metrics["bounds.grid_ms"]["value"] > 0.0


def _corrupt(monkeypatch, change):
    """Pass every e1 the CLI and the experiment compute through `change`."""
    for module in (ratmat.cli, ratmat.experiment):
        original = module.arnoldi_error_bound

        def corrupted(*args, _original=original, **kwargs):
            res = _original(*args, **kwargs)
            return dataclasses.replace(res, value=change(res.value))

        monkeypatch.setattr(module, "arnoldi_error_bound", corrupted)


@pytest.mark.parametrize("change", [lambda e1: 0.1 * e1, lambda e1: float("nan")],
                         ids=["too-small", "nan"])
@pytest.mark.parametrize("workload", ["xp-run-n128", "xp-bound-n64"])
def test_corrupted_e1_is_caught(workload, change, monkeypatch, capsys):
    _corrupt(monkeypatch, change)
    code = _bench().main(["--workload", workload, "--trace", "0", *SMOKE])
    result = _result(capsys.readouterr().out)
    assert code == 1
    assert not result["correct"] and result["failed"] >= 1


def test_non_repeating_output_is_caught(monkeypatch, capsys):
    calls = []

    def drift(e1):
        calls.append(e1)
        return e1 * (1.0 + 1e-9 * len(calls))

    _corrupt(monkeypatch, drift)
    code = _bench().main(["--workload", "xp-run-n128", "--trace", "0", *SMOKE])
    out = capsys.readouterr().out
    assert code == 1
    assert "differs between repeated invocations" in out


def test_renamed_name_reports_absent(monkeypatch, capsys):
    targets = tuple(t for t in spans.TARGETS if t[2] != "matfun.vexp")
    targets += (("ratmat.bounds", "VExpDerivativeRenamed.__call__", "matfun.vexp"),)
    monkeypatch.setattr(spans, "TARGETS", targets)
    before = ratmat.experiment.build_krylov_basis
    code = _bench().main(["--workload", "xp-run-n128", "--trace", "1", *SMOKE])
    result = _result(capsys.readouterr().out)
    assert code == 0 and result["correct"]
    assert "matfun.vexp_ms" not in result["metrics"]
    assert "jets.factored_eval_ms" in result["metrics"]
    assert ratmat.experiment.build_krylov_basis is before   # wrappers removed


def test_refuses_without_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("work", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", WORKLOADS[0],
         "--trace", "0", *SMOKE],
        cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
