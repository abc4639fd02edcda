"""End-to-end checks of the package's headline guarantees.

Each test enforces one advertised property at its stated tolerance and
reports a single pass/fail line through the acceptance_report fixture; the
collected lines are printed after the run.  Reference values come from the
independent oracles in oracles.py, never from the code under test.
"""

import json
import subprocess
import sys
import time

import numpy as np
import pytest

from oracles import (
    contour_divdiff_oracle,
    genocchi_hermite_oracle,
    numerical_range_box,
    poly_apply,
    polygon_contains,
    random_diagonalizable,
    random_gaussian_matrix,
    taylor_expm,
)
from ratmat.experiment import ExperimentConfig, run_experiment
from ratmat.interp import (
    NodeList,
    divided_differences,
    hermite_interpolate,
    rational_interpolate_fixed_denominator,
    remainder_scalar,
)
from ratmat.jets import ExpJet, FactoredPoly
from ratmat.linalg import mgs_orthonormalize
from ratmat.rom import (
    FinitePole,
    PoleSpec,
    build_krylov_basis,
    impulse_reduced,
    moment_match_check,
    reduce,
)


def test_criterion_01_interpolation_exact_on_spectrum(acceptance_report):
    start = time.perf_counter()
    rng = np.random.default_rng(1001)
    worst = 0.0
    for _ in range(50):
        n = int(rng.integers(2, 13))
        A, S, ev, Sinv = random_diagonalizable(rng, n)
        p = hermite_interpolate(ExpJet(1.0), NodeList(ev))
        E = taylor_expm(A)
        rel = np.linalg.norm(poly_apply(p, A) - E, 2) / np.linalg.norm(E, 2)
        worst = max(worst, rel)
    elapsed = time.perf_counter() - start
    acceptance_report(
        "01", "interpolation exactness on the spectrum",
        worst <= 1e-7 and elapsed < 5.0,
        f"max rel error {worst:.2e} over 50 draws, {elapsed:.2f} s",
    )


def test_criterion_02_pade_numerator_recovery(acceptance_report):
    # triple node at 0 with v = 1 - z/2; by hand (Leibniz on v * exp):
    # (v e)(0) = 1, (v e)'(0) = 1/2, (v e)''(0) = 0, so u = 1 + z/2
    v = FactoredPoly([2.0], [1], -0.5)
    r = rational_interpolate_fixed_denominator(ExpJet(1.0), NodeList([0.0] * 3), v)
    coeffs = r.numerator.power_coeffs()
    ok = coeffs.size == 2 and np.abs(coeffs - np.array([1.0, 0.5])).max() <= 1e-12
    dev = np.abs(coeffs - np.array([1.0, 0.5])).max() if coeffs.size == 2 else np.inf
    acceptance_report(
        "02", "degenerate interpolation recovers the 1+z/2 numerator", ok,
        f"coefficient deviation {dev:.2e}",
    )


def test_criterion_03_remainder_identity(acceptance_report):
    start = time.perf_counter()
    rng = np.random.default_rng(1003)
    worst = 0.0
    for _ in range(100):
        N = int(rng.integers(1, 9))
        pts = 0.8 * (rng.standard_normal(N) + 1j * rng.standard_normal(N))
        if N >= 2 and rng.random() < 0.3:
            pts[1] = pts[0]  # exercise a confluent pair
        nodes = NodeList(pts)
        k = int(rng.integers(1, 3))
        poles = 3.0 + rng.uniform(0, 1, k) + 1j * rng.uniform(-1, 1, k)
        vden = FactoredPoly(poles, [1] * k, 1.0)
        t = rng.uniform(0.5, 1.5)
        f = ExpJet(t)
        r = rational_interpolate_fixed_denominator(f, nodes, vden)
        z = complex(0.9 * (rng.standard_normal() + 1j * rng.standard_normal()))
        lhs = np.exp(t * z) - r(z)
        rhs = remainder_scalar(f, r, z)
        worst = max(worst, abs(lhs - rhs) / (1.0 + abs(np.exp(t * z))))
    elapsed = time.perf_counter() - start
    acceptance_report(
        "03", "remainder equals Omega/v times the extended difference",
        worst <= 1e-9 and elapsed < 5.0,
        f"max mismatch {worst:.2e} over 100 instances, {elapsed:.2f} s",
    )


def test_criterion_04_divided_difference_oracles(acceptance_report):
    rng = np.random.default_rng(1004)
    worst_contour = 0.0
    worst_simplex = 0.0
    n_simplex = 0
    for _ in range(50):
        N = int(rng.integers(1, 9))
        pts = 0.8 * (rng.standard_normal(N) + 1j * rng.standard_normal(N))
        if N >= 2 and rng.random() < 0.3:
            pts[-1] = pts[0]
        nodes = NodeList(pts)
        f = ExpJet(rng.uniform(0.5, 1.5))
        dd = divided_differences(f, nodes)[-1]
        center = complex(nodes.reps.mean())
        c = contour_divdiff_oracle(f, nodes, center, 3.0, 256)
        worst_contour = max(worst_contour, abs(dd - c))
        if len(nodes) <= 4:
            g = genocchi_hermite_oracle(f, nodes, 40)
            worst_simplex = max(worst_simplex, abs(dd - g))
            n_simplex += 1
    ok = worst_contour <= 1e-10 and worst_simplex <= 1e-6 and n_simplex >= 10
    acceptance_report(
        "04", "recurrence matches contour and simplex-integral oracles", ok,
        f"contour {worst_contour:.2e} (50 cases), "
        f"simplex {worst_simplex:.2e} ({n_simplex} cases)",
    )


def _random_pole_spec(rng, allow_two_sided=True):
    while True:
        two = allow_two_sided and bool(rng.random() < 0.5)
        kappa0 = int(rng.integers(1, 3))
        chi0 = int(rng.integers(0, 2)) if two else 0
        poles = []
        for _ in range(int(rng.integers(1, 4))):
            lam = (2.0 + 2.0 * rng.random()) * np.exp(2j * np.pi * rng.random())
            kappa = int(rng.integers(1, 3))
            chi = int(rng.integers(0, 2)) if two else 0
            poles.append(FinitePole(complex(lam), kappa, chi))
        spec = PoleSpec(kappa0, tuple(poles), chi0)
        if 2 <= spec.total() <= 10:
            return spec


def test_criterion_05_moment_matching(acceptance_report):
    rng = np.random.default_rng(1005)
    worst_vec = 0.0
    worst_bil = 0.0
    for _ in range(20):
        A = random_gaussian_matrix(rng, 64)
        b = rng.standard_normal(64) + 1j * rng.standard_normal(64)
        d = rng.standard_normal(64) + 1j * rng.standard_normal(64)
        b /= np.linalg.norm(b)
        d /= np.linalg.norm(d)
        spec = _random_pole_spec(rng)
        V, kept = build_krylov_basis(A, b, spec, d=d)
        assert len(kept) == spec.total()
        model = reduce(A, b, V, d=d, spec=spec)
        worst_vec = max(worst_vec, moment_match_check(model, A, b))
        worst_bil = max(worst_bil, moment_match_check(model, A, b, d=d))
    acceptance_report(
        "05", "moment matching over admissible probes",
        worst_vec <= 1e-8 and worst_bil <= 1e-8,
        f"vector {worst_vec:.2e}, bilinear {worst_bil:.2e} over 20 systems",
    )


def test_criterion_06_bound_validity_at_n128(acceptance_report, tmp_path):
    start = time.perf_counter()
    config = ExperimentConfig(n=128, trials=100, seed=0,
                              outdir=str(tmp_path / "n128"))
    summary = run_experiment(config)
    elapsed = time.perf_counter() - start
    min_ratio = summary["min_ratio"]
    acceptance_report(
        "06", "bound covers the true error in every trial (n=128)",
        min_ratio >= 1.0 / 1.05 and elapsed < 120.0,
        f"min e1/e0 {min_ratio:.4f} over 100 trials, {elapsed:.1f} s",
    )


def test_criterion_07_desk_scale_statistics(acceptance_report, tmp_path):
    config = ExperimentConfig(n=256, trials=100, seed=0,
                              outdir=str(tmp_path / "n256"))
    summary = run_experiment(config)
    mr, me0 = summary["mean_ratio"], summary["mean_e0"]
    acceptance_report(
        "07-desk", "experiment statistics at n=256",
        1.0 <= mr <= 10.0 and 1e-9 <= me0 <= 1e-4,
        f"mean ratio {mr:.3f}, mean e0 {me0:.2e}",
    )


@pytest.mark.slow
def test_criterion_07_full_scale_statistics(acceptance_report, tmp_path):
    start = time.perf_counter()
    config = ExperimentConfig(n=1024, trials=100, seed=0,
                              outdir=str(tmp_path / "n1024"))
    summary = run_experiment(config)
    elapsed = time.perf_counter() - start
    mr = summary["mean_ratio"]
    acceptance_report(
        "07-full", "experiment statistics at n=1024",
        1.0 <= mr <= 6.0 and elapsed <= 1800.0,
        f"mean ratio {mr:.3f}, mean e0 {summary['mean_e0']:.2e}, {elapsed:.0f} s",
    )


def test_criterion_08_reduced_spectrum_containment(acceptance_report):
    rng = np.random.default_rng(1008)
    angles = (0.0, -np.pi / 2, -np.pi / 4, -3 * np.pi / 4)
    failures = 0
    for _ in range(50):
        A = random_gaussian_matrix(rng, 32)
        b = rng.standard_normal(32) + 1j * rng.standard_normal(32)
        spec = _random_pole_spec(rng)
        d = rng.standard_normal(32) + 1j * rng.standard_normal(32)
        V, _ = build_krylov_basis(A, b, spec, d=d)
        model = reduce(A, b, V)
        box = numerical_range_box(A, angles)
        for z in model.reduced_spectrum:
            if not polygon_contains(box, complex(z), slack=1e-8):
                failures += 1
    acceptance_report(
        "08", "reduced spectrum inside the numerical-range box",
        failures == 0, f"{failures} escapes over 50 systems",
    )


def test_criterion_09_projection_identities(acceptance_report):
    rng = np.random.default_rng(1009)
    worst_resid = 0.0
    worst_change = 0.0
    for _ in range(20):
        n = int(rng.integers(12, 25))
        A = random_gaussian_matrix(rng, n)
        b = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        d = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        spec = _random_pole_spec(rng, allow_two_sided=False)
        V, kept = build_krylov_basis(A, b, spec)
        width = len(kept)
        model = reduce(A, b, V, d=d, spec=spec)
        # AV - V Ahat is exactly the part of AV outside the basis
        R = A @ V - V @ model.Ahat - (np.eye(n) - V @ V.conj().T) @ (A @ V)
        worst_resid = max(worst_resid, np.abs(R).max() / np.abs(A).max())
        # same subspace in a different orthonormal basis, same output
        T = np.eye(width) + 0.3 * (rng.standard_normal((width, width))
                                   + 1j * rng.standard_normal((width, width)))
        V2, kept2 = mgs_orthonormalize(list((V @ T).T))
        assert len(kept2) == width
        model2 = reduce(A, b, V2, d=d)
        s1 = impulse_reduced(model, 1.0)
        s2 = impulse_reduced(model2, 1.0)
        worst_change = max(worst_change, abs(s1 - s2) / max(abs(s1), 1e-300))
    acceptance_report(
        "09", "projection residual and basis-change invariance",
        worst_resid <= 1e-10 and worst_change <= 1e-8,
        f"residual {worst_resid:.2e}, impulse change {worst_change:.2e}",
    )


def test_criterion_10_cli_byte_determinism(acceptance_report, tmp_path):
    outs = []
    for tag in ("first", "second"):
        outdir = tmp_path / tag
        cfg = tmp_path / f"{tag}.json"
        cfg.write_text(json.dumps({
            "n": 32, "trials": 3, "seed": 7, "outdir": str(outdir),
        }))
        proc = subprocess.run(
            [sys.executable, "-m", "ratmat", "run", "--config", str(cfg)],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0, proc.stderr
        outs.append((
            (outdir / "trials.csv").read_bytes(),
            (outdir / "figure.csv").read_bytes(),
        ))
    acceptance_report(
        "10", "repeated CLI runs write identical CSV bytes",
        outs[0] == outs[1],
        "trials.csv and figure.csv byte-identical" if outs[0] == outs[1]
        else "outputs differ between runs",
    )
