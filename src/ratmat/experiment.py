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
import time
from collections.abc import Mapping
from dataclasses import dataclass, field, fields
from pathlib import Path
from types import MappingProxyType

import numpy as np

from .bounds import check_query, mu_grid
from .interp import linearized_rational_fit
from .linalg import (
    EigenFactorization,
    blas_pin,
    blas_thread_counts,
    check_json_object,
    integer_from_json,
    real_from_json,
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

_RECTANGLE_KEYS = ("re_min", "re_max", "im_min", "im_max")


@dataclass(frozen=True)
class ExperimentConfig:
    """One experiment's inputs.  The constructor converts each field (an int
    field by integer_from_json, t and the rectangle's bounds to finite
    floats) and checks its range, check_query's rules included: a refusal
    is a ValueError naming the field, before any draw of S.  The config is
    frozen, so an assignment after construction, which would skip these
    rules, raises dataclasses.FrozenInstanceError; the rectangle is held
    read-only, so an assignment to one of its bounds raises TypeError.
    """

    n: int = 256
    trials: int = 100
    rectangle: Mapping = field(
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
        def put(name, value):  # a frozen field is set here only
            object.__setattr__(self, name, value)
            return value

        for f in fields(self):  # the fields declared int
            if f.type == "int":
                put(f.name, integer_from_json(f.name, getattr(self, f.name)))
        put("t", real_from_json("t", self.t))
        r = self.rectangle
        if isinstance(r, Mapping):  # its keys are checked below
            r = {k: real_from_json(f"rectangle.{k}", v) for k, v in r.items()}
        if not isinstance(self.fit_degree, (list, tuple)) or len(self.fit_degree) != 2:
            raise ValueError(f"fit_degree must be a pair [L, M], got {self.fit_degree!r}")
        L, M = put("fit_degree", tuple(integer_from_json("fit_degree", x)
                                       for x in self.fit_degree))
        if not isinstance(self.outdir, str):
            raise ValueError(f"outdir must be a string, got {self.outdir!r}")
        if L < 0 or M < 0:
            raise ValueError(f"fit_degree must be two non-negative degrees, got [{L}, {M}]")
        if self.trials < 1:
            raise ValueError("trials must be >= 1")
        if (L + M) % 2 == 0:
            raise ValueError(f"L + M must be odd for a [{L}/{M}] fit: its L + M + 1 "
                             "nodes split evenly over two rectangle edges")
        check_json_object(r, "rectangle", _RECTANGLE_KEYS, _RECTANGLE_KEYS)
        if r["re_max"] <= r["re_min"] or r["im_max"] <= r["im_min"]:
            raise ValueError("degenerate rectangle")
        put("rectangle", MappingProxyType(r))
        if self.n < 1 + M:
            raise ValueError(f"n must be at least the reduced order {1 + M}")
        # a trial's reduction has 1 + M vectors and a degree-M denominator
        check_query(self.t, self.s_samples, self.mu_samples, self.n, M + 1, M + 1)

    @classmethod
    def from_json(cls, obj) -> "ExperimentConfig":
        """Config from a decoded JSON object; absent keys keep their default.

        An unknown key, or a value the constructor refuses, raises
        ValueError with the constructor's message after "config: ".
        """
        check_json_object(obj, "config", tuple(f.name for f in fields(cls)), (), "config: ")
        try:
            return cls(**obj)
        except ValueError as exc:
            raise ValueError(f"config: {exc}") from exc

    def to_json(self) -> dict:
        return {**{f.name: getattr(self, f.name) for f in fields(self)},
                "rectangle": dict(self.rectangle), "fit_degree": list(self.fit_degree)}


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
