"""The names perfbench's tracer wraps still resolve in the package.

``perfbench/spans.py`` wraps library functions by their import path, as the
calling module sees them, and reports a per-layer metric as absent when its
name is gone.  A refactor of ``src/`` that drops or moves one of them fails
here, with the name, and not only in the benchmark's own smoke suite.  A
traced run of each workload, shrunk, must end in the result line the
benchmark reads: strict JSON, correct, with every per-layer metric.
"""

import importlib.util
import json
import sys
from pathlib import Path

import pytest

from ratmat import bounds, rom
from ratmat.jets import FactoredPoly, VExpDerivative

ROOT = Path(__file__).resolve().parents[1]
SPANS = ROOT / "perfbench" / "spans.py"
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
# the benchmark's workloads at tiny sizes: (kind, n, trials per call | systems)
TINY = {
    "xp-run-n128": ("run", 16, 2),
    "xp-run-n1024": ("run", 24, 1),
    "xp-bound-n64": ("bound", 16, 3),
}


def _load(name: str, path: Path):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _spans_module():
    return _load("perfbench_spans", SPANS)


def _strict_json(text: str):
    """json.loads refusing NaN and Infinity, which json.dumps prints for a
    non-finite float."""
    def refuse(constant):
        raise ValueError(f"non-finite number {constant} in the result line")
    return json.loads(text, parse_constant=refuse)


@pytest.mark.parametrize("workload", [w["name"] for w in BENCH["workloads"]])
def test_traced_run_ends_in_a_strict_json_result(workload, capsys, monkeypatch):
    """A traced run of each benchmark workload, shrunk, ends in a result line
    of strict JSON that is correct and holds every per-layer metric: a wrapped
    name that is gone, an extractor that raises or a NaN metric fails here."""
    monkeypatch.setattr(sys, "path", list(sys.path))  # run.py prepends to it
    run = _load("perfbench_run", ROOT / "perfbench" / "run.py")
    assert set(run.WORKLOADS) == set(TINY)
    run.WORKLOADS = TINY
    code = run.main(["--workload", workload, "--trace", "1", "--seed", "5",
                     "--seconds", "0.2"])
    out = capsys.readouterr().out
    assert code == 0, out
    result = _strict_json(out.strip().splitlines()[-1])
    assert result["correct"] is True, out
    assert set(result["metrics"]) == {m["name"] for m in BENCH["per_layer"]}


def test_every_traced_name_but_two_resolves():
    """experiment takes the hull through bounds.mu_grid, so only its two
    geometry targets are absent."""
    def targets():
        return (vars(FactoredPoly).get("eval"), vars(VExpDerivative).get("__call__"),
                rom.BoundQuery)

    originals = targets()
    tracer = _spans_module().Tracer()
    with tracer.installed():
        pass
    assert tracer.missing == ["ratmat.experiment:convex_hull",
                              "ratmat.experiment:hull_boundary_samples"]
    # every wrapper is taken out again
    assert targets() == originals and rom.BoundQuery is bounds.BoundQuery
