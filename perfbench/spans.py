"""Spans around the public names that ratmat's modules call, for traced runs.

``Tracer.installed()`` replaces each name in ``TARGETS`` with a wrapper, as
the calling module sees it, and puts every original back when the block
ends.  A name the package no longer has is skipped and listed in
``missing``; metrics that need it are then reported as absent.

A span is attributed to a layer key such as ``rom.basis``.  Its self time is
its duration minus the spans nested in it.  A span with key None (the LAPACK
calls rom makes) only counts work: its time stays with the span it runs in.
Each thread nests its own spans, so the trials that ``RATMAT_THREADS`` > 1
runs in worker threads start at depth 0 there.  Finished spans are kept in
memory as ``Span`` tuples, counts as ``Count`` tuples.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import threading
import time
import types
from typing import NamedTuple

# (calling module, name as that module sees it, layer key)
TARGETS = (
    ("ratmat.cli", "run_experiment", "experiment.run"),
    ("ratmat.cli", "ExperimentConfig.from_json", "cli.parse"),
    ("ratmat.cli", "PoleSpec.from_json", "cli.parse"),
    ("ratmat.cli", "matrix_from_json", "cli.parse"),
    ("ratmat.cli", "vector_from_json", "cli.parse"),
    ("ratmat.cli", "build_krylov_basis", "rom.basis"),
    ("ratmat.cli", "reduce", "rom.reduce"),
    ("ratmat.cli", "arnoldi_error_bound", "rom.error_bound"),
    ("ratmat.experiment", "derive_poles", "experiment.derive_poles"),
    ("ratmat.experiment", "linearized_rational_fit", "interp.rational_fit"),
    ("ratmat.experiment", "EigenFactorization", "linalg.eigfac"),
    ("ratmat.experiment", "build_krylov_basis", "rom.basis"),
    ("ratmat.experiment", "reduce", "rom.reduce"),
    ("ratmat.experiment", "impulse_reduced", "rom.impulse"),
    ("ratmat.experiment", "arnoldi_error_bound", "rom.error_bound"),
    ("ratmat.experiment", "convex_hull", "geometry"),
    ("ratmat.experiment", "hull_boundary_samples", "geometry"),
    ("ratmat.rom", "mgs_orthonormalize", "linalg.mgs"),
    ("ratmat.rom", "sla.lu_factor", None),
    ("ratmat.rom", "sla.lu_solve", None),
    ("ratmat.rom", "eig_small", "linalg.eig_small"),
    ("ratmat.rom", "BoundQuery", "bounds.query"),
    ("ratmat.rom", "bound_vector", "bounds.grid"),
    ("ratmat.rom", "bound_bilinear", "bounds.grid"),
    ("ratmat.bounds", "eig_small", "linalg.eig_small"),
    ("ratmat.bounds", "convex_hull", "geometry"),
    ("ratmat.bounds", "hull_boundary_samples", "geometry"),
    ("ratmat.bounds", "VExpDerivative.__call__", "matfun.vexp"),
    ("ratmat.bounds", "FactoredPoly.eval", "jets.factored_eval"),
)


# -- counts taken from arguments and results (computed, not measured) ------

def _lu_factor_counts(args, _kwargs, _result):
    n = args[0].shape[0]
    # complex LU: n^3/3 multiply-adds of 8 real flops each
    return {"rom.lu_factor_calls": 1, "rom.lu_gflop_computed": 8.0 * n ** 3 / 3e9}


def _lu_solve_counts(args, _kwargs, _result):
    n = args[0][0].shape[0]
    rhs = 1 if args[1].ndim == 1 else args[1].shape[1]
    # two triangular solves: n^2 complex multiply-adds per right-hand side
    return {"rom.lu_solve_calls": 1, "rom.lu_gflop_computed": 8.0 * n * n * rhs / 1e9}


def _mgs_counts(args, _kwargs, result):
    return {"linalg.mgs_generated": len(args[0]), "linalg.mgs_kept": len(result[1])}


def _eig_small_counts(_args, _kwargs, _result):
    return {"linalg.eig_small_calls": 1}


def _grid_counts(args, _kwargs, _result):
    q = args[0]
    points = q.s_grid.size * q.mu_points.size * q.fac.eigenvalues.size
    return {"bounds.grid_points_computed": points}


_LU = ("rom.lu_factor_calls", "rom.lu_solve_calls", "rom.lu_gflop_computed")

# (calling module, name) -> (extractor, the count names it can produce)
COUNTS = {
    ("ratmat.rom", "sla.lu_factor"): (_lu_factor_counts, _LU),
    ("ratmat.rom", "sla.lu_solve"): (_lu_solve_counts, _LU),
    ("ratmat.rom", "mgs_orthonormalize"):
        (_mgs_counts, ("linalg.mgs_generated", "linalg.mgs_kept")),
    ("ratmat.rom", "eig_small"): (_eig_small_counts, ("linalg.eig_small_calls",)),
    ("ratmat.bounds", "eig_small"): (_eig_small_counts, ("linalg.eig_small_calls",)),
    ("ratmat.rom", "bound_vector"): (_grid_counts, ("bounds.grid_points_computed",)),
    ("ratmat.rom", "bound_bilinear"): (_grid_counts, ("bounds.grid_points_computed",)),
}


class _ModuleView(types.ModuleType):
    """Stands in for a module inside one caller, so that a wrapped name
    there leaves every other caller of that module untouched."""

    def __init__(self, module):
        super().__init__(module.__name__)
        self._module = module

    def __getattr__(self, name):
        return getattr(self._module, name)


class Span(NamedTuple):
    key: str
    start: float
    end: float
    own: float      # self time, seconds
    depth: int      # spans open below it in its thread
    thread: int


class Count(NamedTuple):
    end: float
    name: str
    value: float
    thread: int


class _Frame:
    __slots__ = ("key", "start", "nested")

    def __init__(self, key, start):
        self.key, self.start, self.nested = key, start, 0.0


class Tracer:
    def __init__(self):
        self.spans = []     # Span
        self.counts = []    # Count
        self.missing = []   # "module:name" targets the package no longer has
        self.broken = set() # count names whose extraction failed
        self._local = threading.local()
        self._undo = []

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    # -- recording ---------------------------------------------------------

    def wrap(self, key, fn, counts=None):
        @functools.wraps(fn, updated=())
        def wrapper(*args, **kwargs):
            stack = self._stack()
            frame = _Frame(key, time.perf_counter())
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                self._close(stack, frame, end)
            if counts is not None:
                self._count(counts, args, kwargs, result, end)
            return result
        return wrapper

    def _close(self, stack, frame, end):
        parent = stack[-1] if stack else None
        duration = end - frame.start
        if frame.key is None:
            if parent is not None:
                parent.nested += frame.nested
            return
        self.spans.append(Span(frame.key, frame.start, end, duration - frame.nested,
                               len(stack), threading.get_ident()))
        if parent is not None:
            parent.nested += duration

    def _count(self, counts, args, kwargs, result, end):
        extract, names = counts
        try:
            values = extract(args, kwargs, result)
        except (AttributeError, IndexError, KeyError, TypeError):
            # the call's signature or result changed: report these as absent
            self.broken.update(names)
            return
        thread = threading.get_ident()
        for name, value in values.items():
            self.counts.append(Count(end, name, value, thread))

    def clear(self):
        self.spans.clear()
        self.counts.clear()

    # -- installing --------------------------------------------------------

    @contextlib.contextmanager
    def installed(self):
        """Wrap every target for the duration of a ``with`` block."""
        try:
            self._install()
            yield self
        finally:
            self._uninstall()

    def _install(self):
        views = {}
        for module_name, path, key in TARGETS:
            try:
                owner = importlib.import_module(module_name)
                *parents, attr = path.split(".")
                for i, part in enumerate(parents):
                    child = getattr(owner, part)
                    if isinstance(child, types.ModuleType):
                        view_key = (module_name, ".".join(parents[: i + 1]))
                        if view_key not in views:
                            views[view_key] = _ModuleView(child)
                            self._set(owner, part, views[view_key])
                        child = views[view_key]
                    owner = child
                original = getattr(owner, attr)
            except (ImportError, AttributeError):
                self.missing.append(f"{module_name}:{path}")
                continue
            counts = COUNTS.get((module_name, path))
            raw = vars(owner).get(attr, original) if isinstance(owner, type) else original
            if isinstance(raw, classmethod):
                wrapped = classmethod(self.wrap(key, raw.__func__, counts))
            elif isinstance(raw, staticmethod):
                wrapped = staticmethod(self.wrap(key, raw.__func__, counts))
            else:
                wrapped = self.wrap(key, raw, counts)
            self._set(owner, attr, wrapped)

    def _set(self, owner, attr, value):
        had = attr in vars(owner)
        self._undo.append((owner, attr, vars(owner).get(attr), had))
        setattr(owner, attr, value)

    def _uninstall(self):
        while self._undo:
            owner, attr, old, had = self._undo.pop()
            if had:
                setattr(owner, attr, old)
            else:
                delattr(owner, attr)

    def installed_keys(self):
        """Layer keys and count names that at least one wrapper records."""
        gone = set(self.missing)
        present = set()
        for module_name, path, key in TARGETS:
            if f"{module_name}:{path}" in gone:
                continue
            present.add(key)
            present.update(COUNTS.get((module_name, path), ((), ()))[1])
        return present - self.broken
