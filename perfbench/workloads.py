"""Workload inputs, operations and output checks for the ratmat benchmark.

Each workload turns a seed into input files, runs one operation through
``ratmat.cli.main`` exactly as the ``xp`` command would, and checks what the
operation printed or wrote.  Nothing here reuses the code under test to judge
its own results: the xp-bound oracle builds its own reduced model and takes
the exact impulse response from the benchmark's own S and nu.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np
import scipy.linalg as sla

# The acceptance suite accepts e1 >= e0 / 1.05 (roundoff in e0 and the grid).
COVER_SLACK = 1.05

# Poles of the [9/8] rational fit of exp on the default rectangle, as
# `xp poles` derives them for the default config.  Fixed here so that a seed
# gives the same xp-bound inputs on every commit.
FIT_POLES = (
    6.075898211780465 - 13.486067962846503j,
    9.091602724931514 - 9.364978877517078j,
    10.735092338405353 - 5.550071823536553j,
    11.485728798056893 - 1.8407312687724606j,
    11.485728798052623 + 1.8407312687760742j,
    6.075898211781412 + 13.486067962846883j,
    10.73509233841208 + 5.55007182353207j,
    9.091602724927045 + 9.364978877517604j,
)

# xp-bound pole spec: (index into FIT_POLES, kappa, chi).  Four poles, the
# first at multiplicity 2 in the two-sided denominator, plus kappa0 = chi0 = 1.
# e1 lands near 1e-3, far above the floating-point floor of e0.
BOUND_POLES = ((0, 1, 1), (2, 1, 0), (4, 0, 1), (6, 1, 0))

RECT_RE = (-1.0, 0.0)
RECT_IM = (-math.pi, math.pi)


class OpFailure(Exception):
    """An operation's output broke a correctness check."""


def _matrix_json(m) -> dict:
    """The repo's matrix schema: row-major [re, im] pairs."""
    m = np.ascontiguousarray(m, dtype=np.complex128)
    return {
        "rows": int(m.shape[0]), "cols": int(m.shape[1]),
        "data": m.view(np.float64).reshape(-1, 2).tolist(),
    }


def _write_json(path: Path, obj) -> Path:
    path.write_text(json.dumps(obj))
    return path


def call_cli(main, argv) -> str:
    """Run ``main(argv)`` in-process as `xp` would; return what it printed."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(argv)
    if code != 0:
        raise OpFailure(f"xp {argv[0]} exited with code {code}")
    return buf.getvalue()


def check_cover(e0: float, e1: float, what: str) -> None:
    if not math.isfinite(e1):
        raise OpFailure(f"{what}: non-finite e1 {e1!r}")
    if not math.isfinite(e0) or e1 < e0 / COVER_SLACK:
        raise OpFailure(f"{what}: e1 = {e1:.6e} does not cover e0 = {e0:.6e}")


class Unit(NamedTuple):
    """One timed call of ``xp``: ``ops`` operations, checked after timing."""

    argv: list
    ops: int
    input_bytes: int
    check: Callable[[str], None]


class XpRun:
    """`xp run` on the default config at order n, `trials` trials per call.

    One operation is one trial; one unit and one batch are one `xp run`
    invocation.  Every invocation uses the same config, so its trials.csv
    and figure.csv must match the first invocation's byte for byte.
    """

    kind = "run"

    def __init__(self, n: int, trials: int, seed: int, workdir: Path):
        self.trials = trials
        self.outdir = workdir / "out"
        config = _write_json(workdir / "config.json", {
            "n": n, "trials": trials, "seed": seed, "outdir": str(self.outdir),
        })
        # the fresh-process probe runs a single trial of the same problem
        probe_config = _write_json(workdir / "probe_config.json", {
            "n": n, "trials": 1, "seed": seed,
            "outdir": str(workdir / "probe_out"),
        })
        self.probe_argv = ["run", "--config", str(probe_config)]
        self.units = [Unit(["run", "--config", str(config)], trials,
                           config.stat().st_size, self._check)]
        self.reference = None
        self.ratios = []

    def ratio_values(self):
        return list(self.ratios)

    def _check(self, _stdout: str) -> None:
        paths = [self.outdir / "trials.csv", self.outdir / "figure.csv"]
        outputs = tuple(path.read_bytes() for path in paths)
        for path in paths:   # the next invocation must write them afresh
            path.unlink()
        if self.reference is not None:
            if outputs != self.reference:
                raise OpFailure("trials.csv or figure.csv differs between "
                                "repeated invocations of one config")
            return
        rows = list(csv.DictReader(io.StringIO(outputs[0].decode())))
        if len(rows) != self.trials:
            raise OpFailure(f"trials.csv has {len(rows)} rows, expected {self.trials}")
        for row in rows:
            e0, e1 = float(row["e0"]), float(row["e1"])
            check_cover(e0, e1, f"trial {row['trial']}")
            self.ratios.append(e1 / e0)
        self.reference = outputs


class XpBound:
    """Repeated `xp bound --d` calls, cycling over `systems` generated systems.

    One operation and one unit are one call; one batch is one pass over the
    systems.  Each call's e1 must cover the true error e0 that
    ``bound_system`` computes independently of the bound code.
    """

    kind = "bound"

    def __init__(self, n: int, systems: int, seed: int, workdir: Path):
        spec = _write_json(workdir / "spec.json", {
            "kappa0": 1, "chi0": 1,
            "poles": [
                {"lambda": [FIT_POLES[i].real, FIT_POLES[i].imag],
                 "kappa": kappa, "chi": chi}
                for i, kappa, chi in BOUND_POLES
            ],
        })
        self.units, self.ratios = [], {}
        for k in range(systems):
            A, b, d, e0 = bound_system(seed, k, n)
            files = [_write_json(workdir / f"{name}{k}.json", _matrix_json(m))
                     for name, m in (("A", A), ("b", b[:, None]), ("d", d[:, None]))]
            argv = ["bound", "--A", str(files[0]), "--b", str(files[1]),
                    "--d", str(files[2]), "--poles", str(spec)]
            size = sum(f.stat().st_size for f in files) + spec.stat().st_size
            self.units.append(Unit(argv, 1, size, self._checker(k, e0)))
        self.probe_argv = self.units[0].argv

    def ratio_values(self):
        return list(self.ratios.values())

    def _checker(self, k: int, e0: float):
        def check(stdout: str) -> None:
            e1 = float(json.loads(stdout)["e1"])
            check_cover(e0, e1, f"system {k}")
            self.ratios[k] = e1 / e0
        return check


def bound_system(seed: int, k: int, n: int):
    """System k of a seed: A = S diag(nu) S^-1, unit b and d, and the true e0.

    e0 = |d^H e^A b - dhat^H e^Ahat bhat|, where the exact response comes
    from S and nu and the reduced model from a QR basis of the same rational
    Krylov space, exponentiated by scipy's expm.
    """
    rng = np.random.default_rng([seed, k])
    nu = rng.uniform(*RECT_RE, n) + 1j * rng.uniform(*RECT_IM, n)
    S = rng.uniform(-1.0, 1.0, (n, n)) + 1j * rng.uniform(-1.0, 1.0, (n, n))
    Sinv = np.linalg.inv(S)
    A = (S * nu) @ Sinv
    b = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    d = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    b /= np.linalg.norm(b)
    d /= np.linalg.norm(d)

    vectors = [b, d]
    for i, kappa, chi in BOUND_POLES:
        lu = sla.lu_factor(FIT_POLES[i] * np.eye(n) - A)
        x, y = b, d
        for _ in range(kappa):
            x = sla.lu_solve(lu, x)
            vectors.append(x)
        for _ in range(chi):
            y = sla.lu_solve(lu, y, trans=2)
            vectors.append(y)
    V, _ = np.linalg.qr(np.column_stack(vectors))
    Ahat = V.conj().T @ A @ V
    exact = d.conj() @ (S @ (np.exp(nu) * (Sinv @ b)))
    reduced = (V.conj().T @ d).conj() @ sla.expm(Ahat) @ (V.conj().T @ b)
    return A, b, d, float(abs(exact - reduced))
