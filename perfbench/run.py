"""The ratmat benchmark.

    python3 perfbench/run.py --workload xp-run-n128 --seed 1 --seconds 30 --trace 0

Workloads (README.md in this directory says why each was chosen):
    xp-run-n128    `xp run`, default config at n = 128, 5 trials per call
    xp-run-n1024   `xp run`, default config at n = 1024, 1 trial per call
    xp-bound-n64   `xp bound --d` on 128 generated two-sided systems at n = 64

An operation is one `xp bound` call or one trial of `xp run`.  For xp-run the
time of an operation is its call's time divided by the trials in the call, so
op_ms_p50 and op_ms_p90 are percentiles of per-call means at n = 128.

Every call goes through ``ratmat.cli.main`` in this process, one after the
other (a closed loop with one client), with RATMAT_THREADS and the BLAS
thread variables left as the caller set them.  Every output is checked.

--trace 0 measures the end-to-end metrics untraced.  --trace 1 runs the same
loop untraced for half the time and traced for the other half, and reports
the per-layer metrics.  The last line of standard output is one JSON object
with keys correct, attempted, failed and metrics.  The exit code is 0 when
every check passed, 1 when one failed, and 2, with no result printed, when
the package sources are not next to this directory.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

# workload -> (kind, n, trials per call | systems)
WORKLOADS = {
    "xp-run-n128": ("run", 128, 5),
    "xp-run-n1024": ("run", 1024, 1),
    "xp-bound-n64": ("bound", 64, 128),
}
PROBES = 5   # fresh interpreters per run
MIN_BATCHES = 2

END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "op_ms_p50": "ms",
    "op_ms_p90": "ms",
    "peak_rss_mb": "MB",
    "ratio_p50": "ratio",
}


def _blas_libraries():
    """OpenBLAS builds loaded in this process: config string and thread count."""
    with open("/proc/self/maps") as fh:
        paths = sorted({line.split()[-1] for line in fh
                        if "openblas" in line.lower() and ".so" in line})
    symbols = [(f"{prefix}_get_config{suffix}", f"{prefix}_get_num_threads{suffix}")
               for prefix in ("scipy_openblas", "openblas") for suffix in ("64_", "")]
    found = []
    for path in paths:
        lib = ctypes.CDLL(path)
        info = {"library": os.path.basename(path)}
        for config_name, threads_name in symbols:
            if hasattr(lib, config_name) and hasattr(lib, threads_name):
                config, threads = getattr(lib, config_name), getattr(lib, threads_name)
                config.argtypes, config.restype = [], ctypes.c_char_p
                threads.argtypes, threads.restype = [], ctypes.c_int
                info.update(config=config().decode(), threads=threads())
                break
        found.append(info)
    return found


def environment(seed: int) -> dict:
    import numpy
    import scipy
    import scipy.linalg  # noqa: F401  (loads scipy's BLAS)

    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "blas": _blas_libraries(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "thread_env": {k: os.environ.get(k) for k in (
            "RATMAT_THREADS", "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
            "MKL_NUM_THREADS")},
        "seed": seed,
    }


class Tally:
    """Operations attempted and failed, with the first few failure messages."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.messages = []

    def fail(self, ops: int, message: str):
        self.failed += ops
        if len(self.messages) < 5:
            self.messages.append(message)


def probe(workload, tally: Tally):
    """Median set-up time over fresh interpreters; peak RSS from the first.

    Only the first interpreter goes on to run one operation, because peak
    RSS repeats closely and the n = 1024 operation is slow.
    """
    setups, rss = [], None
    for i in range(PROBES):
        cmd = [sys.executable, str(HERE / "probe.py"), repr(time.time()),
               str(SRC), "operation" if i == 0 else "setup", *workload.probe_argv]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=150)
        tally.attempted += 1
        if proc.returncode != 0:
            tally.fail(1, f"probe exited {proc.returncode}: {proc.stderr.strip()[-300:]}")
            continue
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        setups.append(result["setup_s"])
        if i == 0:
            rss = result["peak_rss_mb"]
            if result["code"] != 0:
                tally.fail(1, f"probe operation exited with code {result['code']}")
    out = {"probes": len(setups)}
    if setups:
        out["setup_s"] = statistics.median(setups)
    if rss is not None:
        out["peak_rss_mb"] = rss
    return out


def measure(workload, main, seconds: float, tally: Tally, min_batches=MIN_BATCHES,
            after_unit=None):
    """Closed loop over whole batches for `seconds`, at least `min_batches`.

    Returns the time of each operation (ms) and the operations completed per
    second of calls.  Output checks and ``after_unit(unit, ok)`` run outside
    the timed region.
    """
    from workloads import OpFailure, call_cli

    op_ms, ops, busy = [], 0, 0.0
    deadline = time.perf_counter() + seconds
    batches = 0
    while batches < min_batches or time.perf_counter() < deadline:
        batches += 1
        for unit in workload.units:
            tally.attempted += unit.ops
            start = time.perf_counter()
            try:
                out = call_cli(main, unit.argv)
                elapsed = time.perf_counter() - start
                unit.check(out)
            except OpFailure as exc:
                tally.fail(unit.ops, str(exc))
                ok = False
            except Exception:  # the loop goes on; the run is marked incorrect
                tally.fail(unit.ops, traceback.format_exc(limit=4))
                ok = False
            else:
                ok = True
                busy += elapsed
                ops += unit.ops
                op_ms.append(1e3 * elapsed / unit.ops)
            if after_unit is not None:
                after_unit(unit, ok)
    return op_ms, (ops / busy if ops else None)


def percentile(values, q: int) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def make_workload(name: str, seed: int, workdir: Path):
    from workloads import XpBound, XpRun

    kind, n, count = WORKLOADS[name]
    cls = XpRun if kind == "run" else XpBound
    return cls(n, count, seed, workdir)


def end_to_end(workload, seconds: float, tally: Tally, report: list):
    from ratmat.cli import main

    probes = probe(workload, tally)
    measure(workload, main, 0.0, tally, min_batches=1)   # warm-up, checked
    op_ms, rate = measure(workload, main, seconds, tally)
    ratios = workload.ratio_values()
    metrics = {k: probes[k] for k in ("setup_s", "peak_rss_mb") if k in probes}
    if op_ms:
        metrics["ops_per_s"] = rate
        metrics["op_ms_p50"] = statistics.median(op_ms)
        metrics["op_ms_p90"] = percentile(op_ms, 90)
    if ratios:
        metrics["ratio_p50"] = statistics.median(ratios)
    report.append(f"samples: {len(op_ms)} operation times, {probes['probes']} fresh "
                  f"interpreters, {len(ratios)} e1/e0 ratios")
    return {name: (metrics[name], unit, "") for name, unit in END_TO_END.items()
            if name in metrics}


def per_layer(workload, seconds: float, tally: Tally, report: list):
    import layers
    from spans import Tracer
    from ratmat.cli import main

    measure(workload, main, 0.0, tally, min_batches=1)   # warm-up, checked
    plain_ms, plain = measure(workload, main, seconds / 2, tally)

    tracer = Tracer()
    op_rows, call_rows, split, seen = [], [], [], set()

    def collect(unit, ok):
        if ok:
            present = tracer.installed_keys() | {"cli.main"}
            rows, call, at_trials = layers.call_rows(
                workload.kind, tracer.spans, tracer.counts, present, unit.ops,
                unit.input_bytes)
            op_rows.extend(rows)
            call_rows.append(call)
            split.append(at_trials)
            seen.update(s.key for s in tracer.spans)
        tracer.clear()

    with tracer.installed():
        traced_ms, traced = measure(workload, tracer.wrap("cli.main", main),
                                    seconds / 2, tally, after_unit=collect)

    metrics = layers.summarize(op_rows, call_rows)
    if plain and traced:
        metrics["trace.overhead_frac"] = plain / traced - 1.0
    report.append(f"samples: {len(plain_ms)} untraced and {len(traced_ms)} traced "
                  f"operation times; {len(op_rows)} traced operations in "
                  f"{len(call_rows)} calls")
    if workload.kind == "run":
        report.append(f"trial split: {sum(split)} of {len(split)} calls told apart "
                      "at trial ends; the others spread evenly over their trials")
    if tracer.missing or tracer.broken:
        report.append("absent (name renamed or removed): "
                      + ", ".join(tracer.missing + sorted(tracer.broken)))
    idle = layers.not_entered(tracer.installed_keys(), seen)
    if idle:
        report.append("not entered by this workload, so 0: " + ", ".join(idle))
    for left, lval, right, rval in layers.ordering(metrics):
        if lval is not None and rval is not None:
            sign = ">" if lval > rval else "<="
            report.append(f"split: {left} {lval:.3f} ms {sign} {right} {rval:.3f} ms")
    report.append("counts named *_computed come from array shapes, not measurement")
    return {name: (metrics[name], unit, f"{what}; should move {moves} on {where}")
            for name, (unit, _better, _level, what, moves, where)
            in layers.PER_LAYER.items() if name in metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "ratmat" / "__init__.py").is_file():
        print(f"error: no ratmat package under {SRC}", file=sys.stderr)
        return 2
    for path in (str(SRC), str(HERE)):
        if path not in sys.path:
            sys.path.insert(0, path)

    workdir = HERE / "work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True)
    tally, report = Tally(), []
    try:
        workload = make_workload(args.workload, args.seed, workdir)
        if args.trace:
            metrics = per_layer(workload, args.seconds, tally, report)
        else:
            metrics = end_to_end(workload, args.seconds, tally, report)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):   # another run may still use it
            workdir.parent.rmdir()

    correct = tally.failed == 0 and tally.attempted > 0
    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds:g}  "
          f"trace {args.trace}")
    print("environment " + json.dumps(environment(args.seed)))
    for line in report:
        print(line)
    for name, (value, unit, note) in metrics.items():
        print(f"  {name:30s} {value:14.6g} {unit:6s} {note}".rstrip())
    print(f"  {'failed_frac':30s} {tally.failed / max(tally.attempted, 1):14.6g} "
          f"({tally.failed} of {tally.attempted} operations)")
    for message in tally.messages:
        print("failure: " + message)
    print(json.dumps({
        "correct": correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit, _note) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
