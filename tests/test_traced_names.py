"""The names perfbench's tracer wraps still resolve in the package.

``perfbench/spans.py`` wraps library functions by their import path, as the
calling module sees them, and reports a per-layer metric as absent when its
name is gone.  A refactor of ``src/`` that drops or moves one of them fails
here, with the name, and not only in the benchmark's own smoke suite.
"""

import importlib.util
from pathlib import Path

from ratmat import bounds, rom
from ratmat.jets import FactoredPoly, VExpDerivative

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _spans_module():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


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
