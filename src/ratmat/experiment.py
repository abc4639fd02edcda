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
import math
import time
from dataclasses import dataclass, field, fields
from pathlib import Path

import numpy as np

from .bounds import check_query, mu_grid
from .interp import linearized_rational_fit
from .linalg import (
    EigenFactorization,
    blas_pin,
    blas_thread_counts,
    check_json_object,
    integer_from_json,
    require_memory,
)
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

# Real numbers per block of rows in the draw of S (256 KB, one block up to
# n = 181).
DRAW_BLOCK = 1 << 15

_INT_KEYS = ("n", "trials", "mu_samples", "s_samples", "seed")
_RECTANGLE_KEYS = ("re_min", "re_max", "im_min", "im_max")


def _real(key: str, value) -> float:
    if not isinstance(value, bool) and isinstance(value, (int, float)):
        try:
            return float(value)
        except OverflowError:  # an integer beyond the float range
            pass
    raise ValueError(f"config: {key} must be a finite number, got {value!r}")


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
    fit_degree: tuple = (9, 8)
    mu_samples: int = 50
    s_samples: int = 11
    t: float = 1.0
    seed: int = 0
    outdir: str = "xp_out"

    def __post_init__(self):
        L, M = self.fit_degree
        if L < 0 or M < 0:
            raise ValueError(f"fit_degree must be two non-negative degrees, got [{L}, {M}]")
        if self.trials < 1:
            raise ValueError("trials must be >= 1")
        if (L + M) % 2 == 0:
            raise ValueError(f"L + M must be odd for a [{L}/{M}] fit: its L + M + 1 "
                             "nodes split evenly over two rectangle edges")
        r = self.rectangle
        for key in _RECTANGLE_KEYS:
            if not math.isfinite(r[key]):
                raise ValueError(f"rectangle.{key} must be a finite number, got {r[key]}")
        if r["re_max"] <= r["re_min"] or r["im_max"] <= r["im_min"]:
            raise ValueError("degenerate rectangle")
        if self.n < 1 + M:
            raise ValueError(f"n must be at least the reduced order {1 + M}")
        check_query(self.t, self.s_samples, self.mu_samples)

    @classmethod
    def from_json(cls, obj) -> "ExperimentConfig":
        """Config from a decoded JSON object; absent keys keep their default.

        An unknown key, a value of the wrong type, a rectangle without
        exactly its four bounds, a fit_degree that is not a pair or a value
        the constructor refuses raises ValueError, "config: " and the key.
        """
        check_json_object(obj, "config", tuple(f.name for f in fields(cls)), (), "config: ")
        kw = {}
        for key, value in obj.items():
            if key in _INT_KEYS:
                kw[key] = integer_from_json(f"config: {key}", value)
            elif key == "t":
                kw[key] = _real(key, value)
            elif key == "rectangle":
                check_json_object(value, "rectangle", _RECTANGLE_KEYS, _RECTANGLE_KEYS,
                                  "config: ")
                kw[key] = {k: _real(f"rectangle.{k}", v) for k, v in value.items()}
            elif key == "fit_degree":
                if not isinstance(value, list) or len(value) != 2:
                    raise ValueError(f"config: fit_degree must be a pair [L, M], "
                                     f"got {value!r}")
                kw[key] = tuple(integer_from_json("config: fit_degree", x) for x in value)
            elif not isinstance(value, str):  # outdir, the one string key
                raise ValueError(f"config: outdir must be a string, got {value!r}")
            else:
                kw[key] = value
        try:
            return cls(**kw)
        except ValueError as exc:  # a value __post_init__ refuses
            raise ValueError(f"config: {exc}") from exc

    def to_json(self) -> dict:
        return {
            "n": self.n, "trials": self.trials,
            "rectangle": dict(self.rectangle),
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
    cond_S: float   # condition estimate of the accepted S
    redraws: int    # draws of S refused before it


def boundary_fit_nodes(config: ExperimentConfig) -> np.ndarray:
    """The L + M + 1 fit nodes, half on each vertical rectangle edge.

    For the default rectangle and [9/8] fit this reproduces the 18 points
    0, +-i pi/4, +-i pi/2, +-i 3pi/4, +-i pi and their -1 translates.
    """
    r = config.rectangle
    per_edge = (sum(config.fit_degree) + 1) // 2
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


def draw_eigenvectors(rng, n: int) -> np.ndarray:
    """S with real and imaginary parts uniform in [-1, 1]: all real parts,
    then all imaginary parts, each in row-major order.

    The parts are drawn a block of rows at a time into one small buffer and
    written straight into S, with the bits and the final generator state of
    two n x n rng.uniform(-1, 1) draws: 2u is exact, so -1 + 2u rounds once
    either way.
    """
    S = np.empty((n, n), dtype=np.complex128)
    rows = max(1, DRAW_BLOCK // n)
    buf = np.empty((min(rows, n), n))
    for part in (S.real, S.imag):
        for i in range(0, n, rows):
            block = buf[:min(rows, n - i)]
            rng.random(out=block)
            block *= 2.0
            block -= 1.0
            part[i:i + rows] = block
    return S


def _run_trial_pinned(config: ExperimentConfig, poles: np.ndarray, rng):
    start = time.perf_counter()
    r = config.rectangle
    n = config.n
    nu = (rng.uniform(r["re_min"], r["re_max"], n)
          + 1j * rng.uniform(r["im_min"], r["im_max"], n))

    for redraws in range(MAX_REDRAWS + 1):
        S = draw_eigenvectors(rng, n)
        fac = EigenFactorization(S, nu)
        if fac.cond_estimate <= COND_LIMIT:
            break
    else:
        raise RuntimeError(f"no acceptably conditioned S in {MAX_REDRAWS + 1} draws")

    raw = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    b = raw / np.linalg.norm(raw)

    # basis, projection, e0 and e1 all run through the one factorization
    # and the one solve c = S^-1 b; A itself is never formed
    spec = PoleSpec(1, tuple(FinitePole(complex(p)) for p in poles))
    c = fac.solve(b)
    V, _ = build_krylov_basis(fac, b, spec, c=c)
    model = reduce(fac, b, V, spec=spec)

    exact = S @ (np.exp(config.t * nu) * c)
    approx = impulse_reduced(model, config.t, kind="vector")
    e0 = float(np.linalg.norm(exact - approx))

    bres = arnoldi_error_bound(model, fac, b, t=config.t,
                               s_samples=config.s_samples,
                               mu_samples=config.mu_samples, c=c)
    e1 = bres.value
    ratio = e1 / e0 if e0 > 0 else float("inf")
    return TrialRecord(
        trial=-1, e0=e0, e1=e1, ratio=ratio,
        argmax_s=bres.argmax_s, argmax_mu=bres.argmax_mu,
        seconds=time.perf_counter() - start,
        cond_S=fac.cond_estimate, redraws=redraws,
    ), model, nu


def run_trial(config: ExperimentConfig, poles: np.ndarray, rng) -> TrialRecord:
    """One draw of (A, b), reduction, true error e0 and bound e1."""
    # the BLAS thread counts move e0 in the last digits, so every route to a
    # trial takes them from the config alone (run_experiment holds the same
    # pin around all of its trials)
    with blas_pin(config.n):
        return _run_trial_pinned(config, poles, rng)[0]


def _figure_rows(config, poles, model, nu):
    rows = [("fit_node", z) for z in boundary_fit_nodes(config)]
    rows += [("pole", z) for z in poles]
    rows += [("sigma_A", z) for z in nu]
    rows += [("sigma_Ahat", z) for z in model.reduced_spectrum]
    hull, mu = mu_grid(model.reduced_nodes.nodes, config.mu_samples)
    rows += [("hull_vertex", z) for z in hull]
    rows += [("mu_sample", z) for z in mu]
    return rows


def _fmt(x: float) -> str:
    return "%.17g" % x


def run_experiment(config: ExperimentConfig) -> dict:
    """Run all trials, write trials.csv / figure.csv / summary.json.

    Trials run one after another under linalg.blas_pin(n), each on an
    independent RNG stream.  An n whose S and LU buffer exceed physical
    memory is refused before the first draw.
    """
    t_start = time.perf_counter()
    n = config.n
    require_memory(32 * n * n, f"config: n = {n} is too big: S and its LU buffer")
    poles = derive_poles(config)
    records = []
    with blas_pin(n) as blas_threads:
        for trial in range(config.trials):
            rng = np.random.default_rng([config.seed, trial])
            record, model, nu = _run_trial_pinned(config, poles, rng)
            record.trial = trial
            records.append(record)
            if trial == 0:  # only trial 0 feeds the figure data
                model0, nu0 = model, nu

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
            "blas_threads": blas_threads,
            "openblas_libraries": len(blas_thread_counts()),
            "cond_S": [rec.cond_S for rec in records],
            "redraws": [rec.redraws for rec in records],
            "e1_argmax_edge": [{0.0: "s=0", 1.0: "s=1"}.get(rec.argmax_s)
                               for rec in records],
        },
    }
    with open(outdir / "summary.json", "w") as fh:
        json.dump(summary, fh, indent=2)
        fh.write("\n")
    return summary
