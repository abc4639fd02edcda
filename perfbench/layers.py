"""Per-layer metrics from the spans of traced `xp` calls.

An operation is one trial of `xp run` or one `xp bound` call.  Trial-level
metrics are medians over operations; the metrics marked "call" happen once
per `xp run` invocation and are medians over invocations (for xp-bound a
call is both).  Times are self times in milliseconds unless the map says
otherwise; counts ending in ``_computed`` are derived from array shapes, not
measured.  Trials that ``RATMAT_THREADS`` > 1 runs in worker threads are told
apart within each thread.  A layer that a workload never enters (under `xp
bound`: run_experiment and what only it calls) reads 0: its wrappers were
installed and recorded no span.
"""

from __future__ import annotations

import statistics
from collections import defaultdict

# name: (unit, better, level, what it is, end-to-end metric it should move, on)
PER_LAYER = {
    "experiment.self_ms": ("ms", "lower", "trial",
                           "draw S, inv, cond check, form A, exact e0",
                           "ops_per_s", "xp-run-n1024 (n128: ~0)"),
    "experiment.derive_poles_ms": ("ms", "lower", "call",
                                   "derive_poles, including the fit (inclusive)",
                                   "setup_s", "both xp-run"),
    "interp.rational_fit_ms": ("ms", "lower", "call", "linearized_rational_fit",
                               "setup_s", "both xp-run"),
    "experiment.output_ms": ("ms", "lower", "call",
                             "after the last trial: CSV, figure and summary writing",
                             "ops_per_s", "both xp-run (expect ~0)"),
    "linalg.eigfac_ms": ("ms", "lower", "trial",
                         "EigenFactorization, including the S*Sinv check",
                         "ops_per_s", "xp-run-n1024"),
    "linalg.eig_small_ms": ("ms", "lower", "trial", "eig_small",
                            "op_ms_p50", "xp-bound-n64"),
    "linalg.eig_small_calls": ("count", "lower", "trial", "eig_small calls",
                               "op_ms_p50", "xp-bound-n64"),
    "linalg.mgs_ms": ("ms", "lower", "trial", "mgs_orthonormalize",
                      "ops_per_s / op_ms_p50", "xp-run-n1024 / xp-bound-n64"),
    "linalg.mgs_kept_ratio": ("ratio", "higher", "trial",
                              "kept / generated Krylov vectors",
                              "ops_per_s / op_ms_p50", "xp-run-n1024 / xp-bound-n64"),
    "rom.basis_ms": ("ms", "lower", "trial",
                     "build_krylov_basis without MGS; includes rom's LU calls",
                     "ops_per_s / op_ms_p50", "xp-run-n1024 / xp-bound-n64"),
    "rom.lu_factor_calls": ("count", "lower", "trial", "lu_factor as rom calls it",
                            "ops_per_s / op_ms_p50", "xp-run-n1024 / xp-bound-n64"),
    "rom.lu_solve_calls": ("count", "lower", "trial", "lu_solve as rom calls it",
                           "ops_per_s / op_ms_p50", "xp-run-n1024 / xp-bound-n64"),
    "rom.lu_gflop_computed": ("GFLOP", "lower", "trial",
                              "8n^3/3 per LU, 8n^2 per solve column, from shapes",
                              "ops_per_s / op_ms_p50", "xp-run-n1024 / xp-bound-n64"),
    "rom.reduce_ms": ("ms", "lower", "trial", "reduce without eig_small",
                      "ops_per_s", "xp-run-n1024"),
    "rom.impulse_ms": ("ms", "lower", "trial", "impulse_reduced",
                       "ops_per_s", "xp-run-n1024"),
    "bounds.query_ms": ("ms", "lower", "trial",
                        "BoundQuery without eig_small and geometry",
                        "ops_per_s / op_ms_p50", "both xp-run / xp-bound-n64"),
    "bounds.grid_ms": ("ms", "lower", "trial",
                       "bound_vector / bound_bilinear without the jet: GEMM and norms",
                       "ops_per_s / op_ms_p50", "both xp-run / xp-bound-n64"),
    "bounds.grid_points_computed": ("count", "lower", "trial",
                                    "s samples x mu samples x eigenvalues",
                                    "ops_per_s / op_ms_p50", "both xp-run / xp-bound-n64"),
    "matfun.vexp_ms": ("ms", "lower", "trial",
                       "VExpDerivative.__call__ without FactoredPoly.eval",
                       "ops_per_s / op_ms_p50", "n128 most, then xp-bound, then n1024"),
    "jets.factored_eval_ms": ("ms", "lower", "trial", "FactoredPoly.eval",
                              "ops_per_s / op_ms_p50", "n128 most, then xp-bound, then n1024"),
    "geometry.ms": ("ms", "lower", "trial", "convex hulls and boundary samples",
                    "nothing; a control", "all"),
    "cli.self_ms": ("ms", "lower", "call",
                    "cli.main without its callees: argparse, JSON decode, print",
                    "op_ms_p50", "xp-bound-n64 only"),
    "cli.parse_ms": ("ms", "lower", "call",
                     "JSON to arrays and specs: *_from_json as cli calls them",
                     "op_ms_p50", "xp-bound-n64 only"),
    "cli.input_bytes": ("count", "lower", "call", "bytes of the input files of one call",
                        "op_ms_p50", "xp-bound-n64 only"),
    "trace.overhead_frac": ("frac", "lower", "run",
                            "traced time per operation / untraced - 1",
                            "nothing; tracing cost", "all"),
}

# metric -> layer key whose self time it sums
_SELF_TIME = {
    "linalg.eigfac_ms": "linalg.eigfac",
    "linalg.eig_small_ms": "linalg.eig_small",
    "linalg.mgs_ms": "linalg.mgs",
    "rom.basis_ms": "rom.basis",
    "rom.reduce_ms": "rom.reduce",
    "rom.impulse_ms": "rom.impulse",
    "bounds.query_ms": "bounds.query",
    "bounds.grid_ms": "bounds.grid",
    "matfun.vexp_ms": "matfun.vexp",
    "jets.factored_eval_ms": "jets.factored_eval",
    "geometry.ms": "geometry",
    "interp.rational_fit_ms": "interp.rational_fit",
    "cli.self_ms": "cli.main",
    "cli.parse_ms": "cli.parse",
}
_COUNTS = ("linalg.eig_small_calls", "rom.lu_factor_calls", "rom.lu_solve_calls",
           "rom.lu_gflop_computed", "bounds.grid_points_computed")
_TRIAL_END = "rom.error_bound"   # the last public call a trial makes


# metric -> layer key whose spans it needs; a layer with no span in the
# traced run was never entered, and its metric reads 0
_LAYER_OF = {
    **_SELF_TIME,
    "experiment.self_ms": "experiment.run",
    "experiment.output_ms": "experiment.run",
    "experiment.derive_poles_ms": "experiment.derive_poles",
}


def _row(spans, counts, lo, hi, thread=None):
    """Self time per key (ms) and counts of the spans that end in (lo, hi],
    in one thread or, with thread None, in all."""
    row = defaultdict(float)
    for s in spans:
        if lo < s.end <= hi and thread in (None, s.thread):
            row[s.key] += 1e3 * s.own
    for c in counts:
        if lo < c.end <= hi and thread in (None, c.thread):
            row[c.name] += c.value
    return row


def _metrics(row, present):
    out = {name: row[key] for name, key in _SELF_TIME.items() if key in present}
    out.update({name: row[name] for name in _COUNTS if name in present})
    if {"linalg.mgs_generated", "linalg.mgs_kept"} <= present and row["linalg.mgs_generated"]:
        out["linalg.mgs_kept_ratio"] = row["linalg.mgs_kept"] / row["linalg.mgs_generated"]
    return out


def call_rows(kind, spans, counts, present, trials, input_bytes):
    """Split one traced `xp` call into (per-operation rows, per-call row,
    whether the trials were told apart rather than spread evenly)."""
    everything = _row(spans, counts, float("-inf"), float("inf"))
    if kind == "bound":   # the call is the operation
        row = _metrics(everything, present)
        row["cli.input_bytes"] = input_bytes
        # `xp bound` never enters run_experiment
        row.update({name: 0.0 for name in ("experiment.self_ms", "experiment.output_ms",
                                           "experiment.derive_poles_ms")
                    if _LAYER_OF[name] in present})
        return [row], row, True

    call = {k: v for k, v in _metrics(everything, present).items()
            if k in ("interp.rational_fit_ms", "cli.self_ms", "cli.parse_ms")}
    call["cli.input_bytes"] = input_bytes
    runs = [s for s in spans if s.key == "experiment.run"]
    if not runs:   # run_experiment not visible: spread the work evenly
        return [{k: v / trials for k, v in _metrics(everything, present).items()}], call, False

    run = runs[0]
    # the spans directly below the run: one level down in its own thread, and
    # at the top of the worker threads that RATMAT_THREADS > 1 starts
    children = [s for s in spans if run.start <= s.start and s.end <= run.end
                and s.depth == (run.depth + 1 if s.thread == run.thread else 0)]
    derive = [s for s in children if s.key == "experiment.derive_poles"]
    first = derive[0].end if derive else run.start
    if derive:
        call["experiment.derive_poles_ms"] = 1e3 * (derive[0].end - derive[0].start)
    ends = defaultdict(list)   # thread -> ends of its trials, in order
    for s in children:
        if s.key == _TRIAL_END:
            ends[s.thread].append(s.end)
    if sum(map(len, ends.values())) != trials:   # trial boundaries not visible
        body = _metrics(_row(spans, counts, first, run.end), present)
        return [{k: v / trials for k, v in body.items()}], call, False

    def nested(thread, lo, hi):
        return sum(s.end - s.start for s in children
                   if s.thread == thread and lo < s.end <= hi)

    rows = []
    for thread, thread_ends in ends.items():
        # a worker thread's first trial starts when the pole derivation ends
        for lo, hi in zip([first] + thread_ends, thread_ends):
            row = _metrics(_row(spans, counts, lo, hi, thread), present)
            row["experiment.self_ms"] = 1e3 * (hi - lo - nested(thread, lo, hi))
            rows.append(row)
    last = max(max(thread_ends) for thread_ends in ends.values())
    call["experiment.output_ms"] = 1e3 * (run.end - last - nested(run.thread, last, run.end))
    return rows, call, True


def not_entered(present, seen):
    """Per-layer metrics whose layer is wrapped but had no span in the run."""
    return sorted(name for name, key in _LAYER_OF.items()
                  if key in present and key not in seen)


def summarize(op_rows, call_rows_):
    """Median of each per-layer metric over operations or calls."""
    out = {}
    for name, (_unit, _better, level, *_rest) in PER_LAYER.items():
        rows = op_rows if level == "trial" else call_rows_
        values = [row[name] for row in rows if name in row]
        if values:
            out[name] = statistics.median(values)
    return out


def ordering(metrics):
    """The two stage orderings the traced split should reproduce, if visible."""
    def total(*names):
        if all(n in metrics for n in names):
            return sum(metrics[n] for n in names)
        return None

    e1_path = total("bounds.query_ms", "bounds.grid_ms", "matfun.vexp_ms",
                    "jets.factored_eval_ms")
    rom_mgs = total("rom.basis_ms", "rom.reduce_ms", "rom.impulse_ms", "linalg.mgs_ms")
    e1_grid = total("bounds.grid_ms", "matfun.vexp_ms", "jets.factored_eval_ms")
    setup = total("rom.basis_ms", "experiment.self_ms", "linalg.eigfac_ms")
    return [
        ("bounds + matfun + jets", e1_path, "rom + linalg.mgs", rom_mgs),
        ("rom.basis + experiment.self + linalg.eigfac", setup, "e1 grid", e1_grid),
    ]
