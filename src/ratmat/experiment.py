"""Randomized bound-vs-error experiment.

Draws diagonalizable matrices A = S D S^-1 with spectrum uniform in a
rectangle, reduces e^(At) b by a one-sided rational Arnoldi method whose
poles come from a multipoint rational fit of exp on the rectangle boundary,
and records the true reduction error e0 next to the certified bound e1.

Per-trial randomness uses numpy's PCG64 seeded by SeedSequence([seed, trial])
so trials are reproducible independently of execution order.
"""

from __future__ import annotations

import json
import os
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .geometry import convex_hull, hull_boundary_samples
from .interp import linearized_rational_fit
from .linalg import EigenFactorization, _norm1, blas_thread_counts, blas_threads
from .rom import (
    FinitePole,
    PoleSpec,
    arnoldi_error_bound,
    build_krylov_basis,
    impulse_reduced,
    reduce,
)

COND_LIMIT = 1e8
MAX_REDRAWS = 10

# Below this order a trial, and an `xp bound` call, runs on one BLAS thread,
# so its output bits do not depend on the core count, and trials may run
# concurrently instead.  At and above it BLAS keeps its own threads and
# trials run one after another.  640 was the serial crossover while a trial
# ran eight dense LUs; without them one BLAS thread no longer makes a serial
# trial faster (README.md has the measurements), but a lower threshold would
# tie the default n = 256 output to the core count.
PIN_BELOW_N = 640


@dataclass
class ExperimentConfig:
    n: int = 256
    trials: int = 100
    rectangle: dict = field(
        default_factory=lambda: {
            "re_min": -1.0, "re_max": 0.0,
            "im_min": -np.pi, "im_max": np.pi,
        }
    )
    boundary_nodes: int = 18
    fit_degree: tuple = (9, 8)
    mu_samples: int = 50
    s_samples: int = 11
    t: float = 1.0
    seed: int = 0
    outdir: str = "xp_out"

    def __post_init__(self):
        L, M = self.fit_degree
        if self.trials < 1:
            raise ValueError("trials must be >= 1")
        if self.boundary_nodes != L + M + 1:
            raise ValueError(
                f"boundary_nodes must equal L+M+1 = {L + M + 1} for a [{L}/{M}] fit"
            )
        if self.boundary_nodes % 2:
            raise ValueError("boundary_nodes must be even (two rectangle edges)")
        r = self.rectangle
        if r["re_max"] <= r["re_min"] or r["im_max"] <= r["im_min"]:
            raise ValueError("degenerate rectangle")
        if self.n < 1 + M:
            raise ValueError(f"n must be at least the reduced order {1 + M}")
        if self.mu_samples < 1 or self.s_samples < 2:
            raise ValueError("grid sizes too small")

    @classmethod
    def from_json(cls, obj) -> "ExperimentConfig":
        kw = {}
        for key in ("n", "trials", "boundary_nodes", "mu_samples",
                    "s_samples", "seed"):
            if key in obj:
                kw[key] = int(obj[key])
        for key in ("t",):
            if key in obj:
                kw[key] = float(obj[key])
        if "rectangle" in obj:
            kw["rectangle"] = {k: float(v) for k, v in obj["rectangle"].items()}
        if "fit_degree" in obj:
            L, M = obj["fit_degree"]
            kw["fit_degree"] = (int(L), int(M))
        if "outdir" in obj:
            kw["outdir"] = str(obj["outdir"])
        return cls(**kw)

    def to_json(self) -> dict:
        return {
            "n": self.n, "trials": self.trials,
            "rectangle": dict(self.rectangle),
            "boundary_nodes": self.boundary_nodes,
            "fit_degree": list(self.fit_degree),
            "mu_samples": self.mu_samples, "s_samples": self.s_samples,
            "t": self.t, "seed": self.seed, "outdir": self.outdir,
        }


@dataclass
class TrialRecord:
    trial: int
    e0: float
    e1: float
    ratio: float
    argmax_s: float
    argmax_mu: complex
    seconds: float


def boundary_fit_nodes(config: ExperimentConfig) -> np.ndarray:
    """Fit nodes on the two vertical rectangle edges, half per edge.

    For the default rectangle and 18 nodes this reproduces the points
    0, +-i pi/4, +-i pi/2, +-i 3pi/4, +-i pi and their -1 translates.
    """
    r = config.rectangle
    per_edge = config.boundary_nodes // 2
    ims = np.linspace(r["im_min"], r["im_max"], per_edge)
    return np.concatenate([r["re_max"] + 1j * ims, r["re_min"] + 1j * ims])


def derive_poles(config: ExperimentConfig) -> np.ndarray:
    """Poles of the [L/M] rational fit of exp on the rectangle boundary.

    The poles must all land outside the (slightly padded) closed rectangle;
    anything else means the fit degenerated.
    """
    L, M = config.fit_degree
    nodes = boundary_fit_nodes(config)
    fit = linearized_rational_fit([(z, np.exp(z)) for z in nodes], L, M)
    if fit.residuals.max() > 1e-6:
        raise ValueError(
            f"rational fit too inaccurate (max residual {fit.residuals.max():.2e})"
        )
    poles = fit.poles
    if poles.size != M:
        raise ValueError(f"fit produced {poles.size} poles, expected {M}")
    r = config.rectangle
    pad = 1e-9 * max(r["re_max"] - r["re_min"], r["im_max"] - r["im_min"])
    inside = (
        (poles.real >= r["re_min"] - pad) & (poles.real <= r["re_max"] + pad)
        & (poles.imag >= r["im_min"] - pad) & (poles.imag <= r["im_max"] + pad)
    )
    if np.any(inside):
        raise ValueError(f"fit pole {poles[np.nonzero(inside)[0][0]]} inside the rectangle")
    return poles


def blas_threads_for(n: int) -> int | None:
    """BLAS threads for work on order n: 1 below PIN_BELOW_N, else BLAS's own."""
    return 1 if n < PIN_BELOW_N else None


def _run_trial_full(config: ExperimentConfig, poles: np.ndarray, rng):
    # the BLAS thread count moves e0 in the last digits, so every route to a
    # trial takes it from the config alone
    with blas_threads(blas_threads_for(config.n)):
        return _run_trial_pinned(config, poles, rng)


def _run_trial_pinned(config: ExperimentConfig, poles: np.ndarray, rng):
    start = time.perf_counter()
    r = config.rectangle
    n = config.n
    nu = (rng.uniform(r["re_min"], r["re_max"], n)
          + 1j * rng.uniform(r["im_min"], r["im_max"], n))

    for attempt in range(MAX_REDRAWS + 1):
        S = rng.uniform(-1.0, 1.0, (n, n)) + 1j * rng.uniform(-1.0, 1.0, (n, n))
        Sinv = np.linalg.inv(S)
        if _norm1(S) * _norm1(Sinv) <= COND_LIMIT:
            break
    else:
        raise RuntimeError(f"no acceptably conditioned S in {MAX_REDRAWS + 1} draws")
    fac = EigenFactorization(S, nu, Sinv)

    raw = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    b = raw / np.linalg.norm(raw)

    # basis, projection, e0 and e1 all run through the one factorization;
    # A itself is never formed
    spec = PoleSpec(1, tuple(FinitePole(complex(p)) for p in poles))
    V, _ = build_krylov_basis(fac, b, spec)
    model = reduce(fac, b, V, spec=spec, side="one")

    exact = S @ (np.exp(config.t * nu) * (Sinv @ b))
    approx = impulse_reduced(model, config.t, kind="vector")
    e0 = float(np.linalg.norm(exact - approx))

    bres = arnoldi_error_bound(model, fac, b, t=config.t,
                               s_samples=config.s_samples,
                               mu_samples=config.mu_samples)
    e1 = bres.value
    ratio = e1 / e0 if e0 > 0 else float("inf")
    return TrialRecord(
        trial=-1, e0=e0, e1=e1, ratio=ratio,
        argmax_s=bres.argmax_s, argmax_mu=bres.argmax_mu,
        seconds=time.perf_counter() - start,
    ), model, nu


def run_trial(config: ExperimentConfig, poles: np.ndarray, rng) -> TrialRecord:
    """One draw of (A, b), reduction, true error e0 and bound e1."""
    return _run_trial_full(config, poles, rng)[0]


def _figure_rows(config, poles, model, nu):
    rows = [("fit_node", z) for z in boundary_fit_nodes(config)]
    rows += [("pole", z) for z in poles]
    rows += [("sigma_A", z) for z in nu]
    rows += [("sigma_Ahat", z) for z in model.reduced_spectrum]
    hull = convex_hull(model.reduced_nodes.nodes)
    rows += [("hull_vertex", z) for z in hull]
    count = max(config.mu_samples, hull.size)
    rows += [("mu_sample", z) for z in hull_boundary_samples(hull, count)]
    return rows


def _fmt(x: float) -> str:
    return "%.17g" % x


def _requested_workers() -> int:
    raw = os.environ.get("RATMAT_THREADS")
    if raw is None:
        return 1
    try:
        workers = int(raw)
    except ValueError:
        workers = 0
    if workers < 1:
        raise ValueError(f"RATMAT_THREADS must be a positive integer, got {raw!r}")
    return workers


def run_experiment(config: ExperimentConfig) -> dict:
    """Run all trials, write trials.csv / figure.csv / summary.json.

    Below PIN_BELOW_N every trial runs on one BLAS thread, and trials run
    concurrently when RATMAT_THREADS is set above 1.  At and above it trials
    run one after another on BLAS's own threads.  Each trial owns an
    independent RNG stream, so results do not depend on scheduling.
    """
    t_start = time.perf_counter()
    requested = _requested_workers()
    poles = derive_poles(config)

    def one(trial: int):
        rng = np.random.default_rng([config.seed, trial])
        record, model, nu = _run_trial_full(config, poles, rng)
        record.trial = trial
        if trial != 0:
            model, nu = None, None  # only trial 0 feeds the figure data
        return record, model, nu

    pin = blas_threads_for(config.n)
    workers = min(requested, config.trials) if pin is not None else 1
    with blas_threads(pin):
        if workers > 1:
            with ThreadPoolExecutor(max_workers=workers) as pool:
                results = list(pool.map(one, range(config.trials)))
        else:
            results = [one(i) for i in range(config.trials)]
    results.sort(key=lambda item: item[0].trial)
    records = [item[0] for item in results]

    outdir = Path(config.outdir)
    outdir.mkdir(parents=True, exist_ok=True)

    lines = ["trial,e0,e1,ratio,argmax_s,argmax_mu_re,argmax_mu_im"]
    for rec in records:
        lines.append(",".join([
            str(rec.trial), _fmt(rec.e0), _fmt(rec.e1), _fmt(rec.ratio),
            _fmt(rec.argmax_s), _fmt(rec.argmax_mu.real), _fmt(rec.argmax_mu.imag),
        ]))
    (outdir / "trials.csv").write_text("\n".join(lines) + "\n")

    fig_lines = ["kind,re,im"]
    model0, nu0 = results[0][1], results[0][2]
    for kind, z in _figure_rows(config, poles, model0, nu0):
        fig_lines.append(f"{kind},{_fmt(complex(z).real)},{_fmt(complex(z).imag)}")
    (outdir / "figure.csv").write_text("\n".join(fig_lines) + "\n")

    e0s = np.array([rec.e0 for rec in records])
    e1s = np.array([rec.e1 for rec in records])
    ratios = np.array([rec.ratio for rec in records])
    summary = {
        "config": config.to_json(),
        "poles": [[float(p.real), float(p.imag)] for p in poles],
        "mean_e0": float(e0s.mean()), "std_e0": float(e0s.std()),
        "mean_e1": float(e1s.mean()), "std_e1": float(e1s.std()),
        "mean_ratio": float(ratios.mean()), "std_ratio": float(ratios.std()),
        "min_ratio": float(ratios.min()), "max_ratio": float(ratios.max()),
        "seconds_total": time.perf_counter() - t_start,
        "seconds_per_trial": [rec.seconds for rec in records],
        "diagnostics": {
            "workers": workers,
            "blas_threads": pin,
            "openblas_libraries": len(blas_thread_counts()),
        },
    }
    with open(outdir / "summary.json", "w") as fh:
        json.dump(summary, fh, indent=2)
        fh.write("\n")
    return summary
