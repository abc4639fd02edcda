import os
import sys

import numpy as np
import pytest
from hypothesis import settings

# property tests draw the same examples on every run and are not timed out
# on a slow or busy machine
settings.register_profile("ratmat", derandomize=True, deadline=None)
settings.load_profile("ratmat")

# make the shared oracle helpers importable regardless of pytest import mode
sys.path.insert(0, os.path.dirname(__file__))

# one line per acceptance criterion, filled by test_acceptance and printed
# after the run so the pass/fail report survives output capturing
ACCEPTANCE_LINES = []


@pytest.fixture
def acceptance_report():
    """Record one pass/fail line for a criterion, then enforce it."""

    def gate(number: str, name: str, ok: bool, detail: str):
        status = "PASS" if ok else "FAIL"
        ACCEPTANCE_LINES.append(f"criterion {number}  {status}  {name}: {detail}")
        assert ok, f"criterion {number} ({name}): {detail}"

    return gate


@pytest.fixture
def lu_events(monkeypatch):
    """Given an order n, a list that records in call order the solves
    ("_solve"), the products with S and the LU drop ("drop_lu") of every
    order-n EigenFactorization.  A product is "times(k)" for a block of k
    columns and "times(vector)" for a vector, with ", left" for X^H S;
    every solve's residual check is the product after it."""
    from ratmat.linalg import EigenFactorization

    def record(n):
        events = []

        def recording(name, real):
            def method(self, *args, **kwargs):
                if self.order == n:
                    events.append(name)
                return real(self, *args, **kwargs)
            return method

        def times(self, X, left=False):
            if self.order == n:
                width = "vector" if np.ndim(X) == 1 else np.shape(X)[1]
                events.append(f"times({width}{', left' if left else ''})")
            return real_times(self, X, left)

        real_times = EigenFactorization.times
        for name in ("_solve", "drop_lu"):
            monkeypatch.setattr(EigenFactorization, name,
                                recording(name, getattr(EigenFactorization, name)))
        monkeypatch.setattr(EigenFactorization, "times", times)
        return events

    return record


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)
