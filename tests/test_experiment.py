import contextlib
import csv
import dataclasses
import json
import os
import subprocess
import sys

import numpy as np
import pytest

from oracles import draw_eigenvectors_summed, numpy_serial_counts
from ratmat import experiment, linalg, rom
from ratmat.linalg import EigenFactorization, blas_thread_counts
from ratmat.experiment import (
    ExperimentConfig,
    boundary_fit_nodes,
    derive_poles,
    draw_eigenvectors,
    run_experiment,
    run_trial,
)


def test_config_validation():
    with pytest.raises(ValueError, match="trials"):
        ExperimentConfig(trials=0)
    with pytest.raises(ValueError, match="L \\+ M must be odd"):
        ExperimentConfig(fit_degree=(9, 9))
    with pytest.raises(ValueError, match="degenerate rectangle"):
        ExperimentConfig(rectangle={"re_min": 0.0, "re_max": 0.0,
                                    "im_min": -1.0, "im_max": 1.0})
    with pytest.raises(ValueError, match="reduced order"):
        ExperimentConfig(n=8)
    with pytest.raises(ValueError, match="^mu_samples must be at least 1, got 0$"):
        ExperimentConfig(mu_samples=0)
    # a config built in Python meets the rules a JSON one does, at construction
    with pytest.raises(ValueError, match="^t must be a finite number, got nan$"):
        ExperimentConfig(t=float("nan"))
    nan_edge = {"re_min": float("nan"), "re_max": 0.0, "im_min": -1.0, "im_max": 1.0}
    with pytest.raises(ValueError,
                       match=r"^rectangle\.re_min must be a finite number, got nan$"):
        ExperimentConfig(rectangle=nan_edge)


def test_config_rectangle_without_a_bound_names_it():
    """A rectangle built in Python without one of its four bounds raised a
    KeyError; the constructor names the key, as from_json does."""
    edges = {"re_min": -1.0, "re_max": 0.0, "im_min": -1.0}
    with pytest.raises(ValueError, match="^rectangle is missing 'im_max'$"):
        ExperimentConfig(rectangle=edges)
    with pytest.raises(ValueError, match="^config: rectangle is missing 'im_max'$"):
        ExperimentConfig.from_json({"rectangle": edges})
    with pytest.raises(ValueError, match="^unknown rectangle key 're_mid'$"):
        ExperimentConfig(rectangle={**edges, "im_max": 1.0, "re_mid": 0.0})
    with pytest.raises(ValueError, match=r"^rectangle must be an object, got \[0, 1\]$"):
        ExperimentConfig(rectangle=[0, 1])


def test_config_refuses_a_grid_beyond_physical_memory():
    """The e1 grid's tables are counted when the config is built: 10**9 mu
    samples need most of a TiB."""
    with pytest.raises(ValueError, match=r"^the 11 x 1000000000 grid is too big: its "
                                         r"tables need .* GiB of physical memory$"):
        ExperimentConfig(n=16, mu_samples=10 ** 9)


def test_config_json_round_trip():
    config = ExperimentConfig(n=32, trials=7, seed=5, outdir="elsewhere",
                              mu_samples=40, s_samples=9, t=0.5)
    again = ExperimentConfig.from_json(config.to_json())
    assert again.to_json() == config.to_json()
    assert ExperimentConfig.from_json({}).to_json() == ExperimentConfig().to_json()
    partial = ExperimentConfig.from_json({"n": 64, "fit_degree": [9, 8]})
    assert partial.n == 64 and partial.fit_degree == (9, 8)
    # an integral float is an integer; 32.5 is refused (test_cli)
    assert ExperimentConfig.from_json({"n": 64.0, "t": 2}).to_json() == \
        ExperimentConfig(n=64, t=2.0).to_json()


@pytest.mark.parametrize("field, value, message", [
    ("s_samples", 11.5, "s_samples must be an integer, got 11.5"),
    ("mu_samples", True, "mu_samples must be an integer, got True"),
    ("t", "1", "t must be a finite number, got '1'"),
    ("seed", 1.5, "seed must be an integer, got 1.5"),
    ("fit_degree", (9.5, 8), "fit_degree must be an integer, got 9.5"),
])
def test_python_config_of_a_wrong_type_is_refused_before_any_work(
        tmp_path, monkeypatch, field, value, message):
    """A config built in Python meets the type rules of a JSON one.  These
    used to pass the constructor and fail inside a trial (s_samples = 11.5,
    seed = 1.5), raise a TypeError (t = "1") or run (mu_samples = True as
    one mu sample)."""
    def refuse(*args, **kwargs):
        raise AssertionError("a config of a wrong type reached the experiment")

    monkeypatch.setattr(experiment, "draw_eigenvectors", refuse)
    monkeypatch.setattr(experiment, "derive_poles", refuse)
    out = tmp_path / "out"
    with pytest.raises(ValueError) as refused:
        run_experiment(ExperimentConfig(n=32, trials=1, outdir=str(out), **{field: value}))
    assert str(refused.value) == message
    assert not out.exists()


def test_python_config_runs_integral_values_as_ints(tmp_path):
    """s_samples = 11.0 used to end in a numpy TypeError after the LU of S;
    it and a numpy integer n run as 11 and 32, with the same bytes."""
    config = ExperimentConfig(n=np.int64(32), trials=1, s_samples=11.0,
                              outdir=str(tmp_path / "converted"))
    assert type(config.n) is int and type(config.s_samples) is int
    plain = ExperimentConfig(n=32, trials=1, s_samples=11, outdir=str(tmp_path / "plain"))
    assert run_experiment(config)["config"] == {**plain.to_json(), "outdir": config.outdir}
    run_experiment(plain)
    for name in ("trials.csv", "figure.csv"):
        assert (tmp_path / "converted" / name).read_bytes() == \
            (tmp_path / "plain" / name).read_bytes()


@pytest.mark.parametrize("field, value", [
    ("s_samples", 11.0), ("n", 32), ("t", "1"), ("fit_degree", (9, 8)),
])
def test_config_is_frozen_after_its_checks(field, value):
    """An assignment after construction, which would skip the checks (11.0
    used to pass until the first trial had factored S), raises; the config
    keeps its converted value."""
    config = ExperimentConfig(n=32, trials=1)
    before = config.to_json()
    with pytest.raises(dataclasses.FrozenInstanceError):
        setattr(config, field, value)
    assert config.to_json() == before


def test_config_rectangle_is_read_only():
    """The rectangle's bounds are checked once, at construction: an item
    assignment, which used to reach boundary_fit_nodes unchecked, raises.
    A config rebuilt from its JSON or by dataclasses.replace is equal."""
    config = ExperimentConfig(n=32, trials=1)
    with pytest.raises(TypeError):
        config.rectangle["re_min"] = "x"
    assert config.rectangle["re_min"] == -1.0
    assert ExperimentConfig(**config.to_json()) == config
    assert dataclasses.replace(config, n=33).rectangle == config.rectangle


def test_summary_holds_the_rectangle_as_given(tmp_path):
    """summary.json writes the read-only rectangle as a plain object, its
    bounds as floats in the order given."""
    rect = {"im_max": np.pi, "im_min": -np.pi, "re_max": 0, "re_min": -1}
    run_experiment(ExperimentConfig(n=16, trials=1, rectangle=rect,
                                    outdir=str(tmp_path / "out")))
    text = (tmp_path / "out" / "summary.json").read_text()
    assert ('  "rectangle": {\n'
            '      "im_max": 3.141592653589793,\n'
            '      "im_min": -3.141592653589793,\n'
            '      "re_max": 0.0,\n'
            '      "re_min": -1.0\n'
            '    },\n') in text


def test_boundary_fit_nodes_default_rectangle():
    nodes = boundary_fit_nodes(ExperimentConfig())
    assert nodes.size == 18
    ims = np.array([-np.pi + k * (2 * np.pi / 8) for k in range(9)])
    expected = np.concatenate([0.0 + 1j * ims, -1.0 + 1j * ims])
    assert np.abs(nodes - expected).max() <= 1e-15


def test_derive_poles_outside_rectangle():
    config = ExperimentConfig()
    poles = derive_poles(config)
    assert poles.size == 8
    r = config.rectangle
    for p in poles:
        inside = (r["re_min"] <= p.real <= r["re_max"]
                  and r["im_min"] <= p.imag <= r["im_max"])
        assert not inside
    # exp is real on the real axis, so the pole set is conjugate closed
    for p in poles:
        assert np.abs(poles - np.conj(p)).min() <= 1e-8


def test_run_trial_deterministic_stream():
    config = ExperimentConfig(n=32, trials=1)
    poles = derive_poles(config)
    rec1 = run_trial(config, poles, np.random.default_rng([0, 5]))
    rec2 = run_trial(config, poles, np.random.default_rng([0, 5]))
    assert rec1.e0 == rec2.e0
    assert rec1.e1 == rec2.e1
    assert rec1.argmax_s == rec2.argmax_s
    assert rec1.argmax_mu == rec2.argmax_mu


def test_run_trial_bound_covers_error():
    config = ExperimentConfig(n=64, trials=1)
    poles = derive_poles(config)
    for trial in range(3):
        rec = run_trial(config, poles, np.random.default_rng([42, trial]))
        assert rec.e0 > 0.0
        assert rec.e1 >= rec.e0 / 1.05
        assert rec.ratio == rec.e1 / rec.e0


def test_run_trial_full_basis_reproduces_exponential():
    # n equals the reduced order, so the reduction is exact up to rounding
    config = ExperimentConfig(n=9, trials=1)
    poles = derive_poles(config)
    rec = run_trial(config, poles, np.random.default_rng([1, 0]))
    assert rec.e0 <= 1e-8


def test_run_trial_takes_no_dense_lu(monkeypatch):
    """A trial reduces through its own factorization: no formed A, no LU."""
    config = ExperimentConfig(n=32, trials=1)
    poles = derive_poles(config)

    def refuse(*args, **kwargs):
        raise AssertionError("a trial called lu_factor")

    monkeypatch.setattr(rom.sla, "lu_factor", refuse)
    rec = run_trial(config, poles, np.random.default_rng([0, 3]))
    assert 0.0 < rec.e0 <= rec.e1 * 1.05


def test_run_trial_forms_no_inverse(monkeypatch):
    """S^-1 is applied by solves with the LU of S; no inverse is formed."""
    config = ExperimentConfig(n=32, trials=1)
    poles = derive_poles(config)

    def refuse(*args, **kwargs):
        raise AssertionError("a trial called np.linalg.inv")

    monkeypatch.setattr(np.linalg, "inv", refuse)
    rec = run_trial(config, poles, np.random.default_rng([0, 3]))
    assert 0.0 < rec.e0 <= rec.e1 * 1.05
    assert rec.redraws == 0 and 1.0 <= rec.cond_S <= experiment.COND_LIMIT


def test_run_trial_solves_for_b_once(monkeypatch):
    """One trial solves with the LU of S twice: c = S^-1 b, which the basis,
    e0 and the bound share, and the block S^-1 V of the reduction."""
    n = 32
    config = ExperimentConfig(n=n, trials=1)
    poles = derive_poles(config)
    widths = []
    zgetrs = linalg.lapack.zgetrs

    def spy(lu, piv, b, *args, **kwargs):
        if lu.shape[0] == n:  # not the solves of the order-9 reduced model
            widths.append(b.shape[1])
        return zgetrs(lu, piv, b, *args, **kwargs)

    monkeypatch.setattr(linalg.lapack, "zgetrs", spy)
    rec = run_trial(config, poles, np.random.default_rng([0, 3]))
    assert widths == [1, 9]
    assert 0.0 < rec.e0 <= rec.e1 * 1.05


def test_run_trial_block_products_go_through_times(monkeypatch):
    """Every block product with S of a trial is EigenFactorization.times:
    the Krylov block, V^H S, the check of S^-1 V and the grid's 99 columns."""
    n = 32
    config = ExperimentConfig(n=n, trials=1)
    poles = derive_poles(config)
    seen = []
    times = EigenFactorization.times

    def recording(self, X, left=False):
        if self.order == n:
            seen.append((np.shape(X)[1], left))
        return times(self, X, left)

    monkeypatch.setattr(EigenFactorization, "times", recording)
    run_trial(config, poles, np.random.default_rng([0, 3]))
    assert seen == [(8, False), (9, True), (9, False), (99, False)]


def test_run_trial_gives_up_after_max_redraws(monkeypatch):
    monkeypatch.setattr(experiment, "COND_LIMIT", 1e-6)
    config = ExperimentConfig(n=16, trials=1)
    poles = derive_poles(config)
    with pytest.raises(RuntimeError,
                       match="no acceptably conditioned S in 11 draws"):
        run_trial(config, poles, np.random.default_rng([0, 0]))


def _read_rows(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def test_run_experiment_outputs(tmp_path):
    config = ExperimentConfig(n=16, trials=4, seed=11,
                              outdir=str(tmp_path / "out"))
    summary = run_experiment(config)

    text = (tmp_path / "out" / "trials.csv").read_text()
    lines = text.strip().split("\n")
    assert lines[0] == "trial,e0,e1,ratio,argmax_s,argmax_mu_re,argmax_mu_im"
    assert len(lines) == 5

    rows = _read_rows(tmp_path / "out" / "trials.csv")
    e0s = np.array([float(r["e0"]) for r in rows])
    e1s = np.array([float(r["e1"]) for r in rows])
    ratios = np.array([float(r["ratio"]) for r in rows])
    assert [int(r["trial"]) for r in rows] == [0, 1, 2, 3]
    assert abs(summary["mean_e0"] - e0s.mean()) <= 1e-12 * max(e0s.mean(), 1e-300)
    assert abs(summary["mean_e1"] - e1s.mean()) <= 1e-12 * max(e1s.mean(), 1e-300)
    assert abs(summary["mean_ratio"] - ratios.mean()) <= 1e-12 * ratios.mean()
    assert summary["min_ratio"] == ratios.min()
    assert summary["max_ratio"] == ratios.max()
    assert len(summary["poles"]) == 8
    assert summary["config"]["n"] == 16

    stored = json.loads((tmp_path / "out" / "summary.json").read_text())
    assert stored["mean_ratio"] == summary["mean_ratio"]
    # per-trial condition estimates and redraw counts, in trial order
    diagnostics = stored["diagnostics"]
    assert diagnostics["redraws"] == [0, 0, 0, 0]
    for k, cond in enumerate(diagnostics["cond_S"]):
        rec = run_trial(config, derive_poles(config),
                        np.random.default_rng([11, k]))
        assert cond == rec.cond_S and 1.0 <= cond <= experiment.COND_LIMIT

    fig = _read_rows(tmp_path / "out" / "figure.csv")
    counts = {}
    for row in fig:
        counts[row["kind"]] = counts.get(row["kind"], 0) + 1
    assert counts["fit_node"] == 18
    assert counts["pole"] == 8
    assert counts["sigma_A"] == 16
    assert counts["sigma_Ahat"] == 9
    assert counts["hull_vertex"] >= 3
    assert counts["mu_sample"] >= 50


def test_summary_names_the_e1_argmax_edge(tmp_path):
    """Per trial, "s=0" or "s=1" when the e1 argmax sits on that edge of the
    s grid and null inside it; the CSVs do not carry it."""
    config = ExperimentConfig(n=16, trials=3, seed=0, outdir=str(tmp_path / "out"))
    summary = run_experiment(config)
    rows = _read_rows(tmp_path / "out" / "trials.csv")
    assert [float(r["argmax_s"]) for r in rows][:2] == [0.0, 1.0]
    assert 0.0 < float(rows[2]["argmax_s"]) < 1.0
    assert summary["diagnostics"]["e1_argmax_edge"] == ["s=0", "s=1", None]
    stored = json.loads((tmp_path / "out" / "summary.json").read_text())
    assert stored["diagnostics"]["e1_argmax_edge"] == ["s=0", "s=1", None]
    assert list(rows[0]) == ["trial", "e0", "e1", "ratio", "argmax_s",
                             "argmax_mu_re", "argmax_mu_im"]


def test_run_experiment_byte_identical_reruns(tmp_path):
    def go(sub):
        config = ExperimentConfig(n=16, trials=3, seed=2,
                                  outdir=str(tmp_path / sub))
        run_experiment(config)
        return ((tmp_path / sub / "trials.csv").read_bytes(),
                (tmp_path / sub / "figure.csv").read_bytes())

    assert go("b") == go("a")


def _assert_rows_are_trials(config, outdir):
    """Each trials.csv row bit for bit the record of run_trial on its stream."""
    poles = derive_poles(config)
    rows = _read_rows(outdir / "trials.csv")
    assert len(rows) == config.trials
    for k, row in enumerate(rows):
        rec = run_trial(config, poles, np.random.default_rng([config.seed, k]))
        assert float(row["e0"]) == rec.e0
        assert float(row["e1"]) == rec.e1
        assert float(row["argmax_s"]) == rec.argmax_s
        assert float(row["argmax_mu_re"]) == rec.argmax_mu.real
        assert float(row["argmax_mu_im"]) == rec.argmax_mu.imag


def test_run_experiment_rows_match_independent_trials(tmp_path):
    config = ExperimentConfig(n=16, trials=3, seed=3,
                              outdir=str(tmp_path / "out"))
    run_experiment(config)
    _assert_rows_are_trials(config, tmp_path / "out")


def test_run_experiment_n128_independent_of_workers(tmp_path):
    # below PIN_BELOW_N every trial runs on one BLAS thread
    config = ExperimentConfig(n=128, trials=2, seed=3, outdir=str(tmp_path / "out"))
    diagnostics = run_experiment(config)["diagnostics"]
    assert diagnostics["blas_threads"] == 1
    assert diagnostics["openblas_libraries"] == len(blas_thread_counts())
    _assert_rows_are_trials(config, tmp_path / "out")


def test_run_experiment_ignores_ratmat_threads_from_pin_up(tmp_path, monkeypatch):
    """The environment picks no thread regime: with RATMAT_THREADS=2 set, an
    n = 640 run still writes what run_trial computes under the pin of n."""
    monkeypatch.setenv("RATMAT_THREADS", "2")
    config = ExperimentConfig(n=640, trials=2, seed=3, outdir=str(tmp_path / "out"))
    diagnostics = run_experiment(config)["diagnostics"]
    _assert_rows_are_trials(config, tmp_path / "out")
    assert diagnostics["blas_threads"] is None


def test_run_experiment_serial_unpinned_at_crossover(tmp_path, monkeypatch):
    # from PIN_BELOW_N up trials leave scipy's build on its own threads
    monkeypatch.setattr(linalg, "PIN_BELOW_N", 16)
    outdir = tmp_path / "out"
    config = ExperimentConfig(n=16, trials=3, seed=2, outdir=str(outdir))
    diagnostics = run_experiment(config)["diagnostics"]
    assert diagnostics["blas_threads"] is None
    stored = json.loads((outdir / "summary.json").read_text())
    assert stored["diagnostics"] == diagnostics


@pytest.mark.parametrize("pin_below, threads", [(linalg.PIN_BELOW_N, 1), (16, None)])
def test_summary_records_the_threads_blas_pin_yielded(tmp_path, monkeypatch,
                                                      pin_below, threads):
    """diagnostics.blas_threads is what the run's blas_pin yielded: 1 at
    n = 16, null with the threshold at 16."""
    monkeypatch.setattr(linalg, "PIN_BELOW_N", pin_below)
    yielded = []
    pin = experiment.blas_pin

    @contextlib.contextmanager
    def recorded(n):
        with pin(n) as value:
            yielded.append(value)
            yield value

    monkeypatch.setattr(experiment, "blas_pin", recorded)
    outdir = tmp_path / "out"
    run_experiment(ExperimentConfig(n=16, trials=2, seed=1, outdir=str(outdir)))
    stored = json.loads((outdir / "summary.json").read_text())["diagnostics"]
    assert yielded == [threads] and stored["blas_threads"] == threads


def _record_threads(monkeypatch, n):
    """Thread counts of every OpenBLAS build at each LU of an order-n S
    (zgetrf) and at each block product with S, recorded by wrapping both."""
    seen = []
    zgetrf = linalg.lapack.zgetrf
    times = EigenFactorization.times

    def lu(a, *args, **kwargs):
        if a.shape[0] == n:  # not the small LUs of derive_poles or the ROM
            seen.append(("zgetrf", blas_thread_counts()))
        return zgetrf(a, *args, **kwargs)

    def product(self, X, *args, **kwargs):
        seen.append(("times", blas_thread_counts()))
        return times(self, X, *args, **kwargs)

    monkeypatch.setattr(linalg.lapack, "zgetrf", lu)
    monkeypatch.setattr(EigenFactorization, "times", product)
    return seen


def test_threads_below_pin_are_one_on_every_build(tmp_path, monkeypatch):
    before = blas_thread_counts()
    seen = _record_threads(monkeypatch, 16)
    run_experiment(ExperimentConfig(n=16, trials=2, seed=2,
                                    outdir=str(tmp_path / "out")))
    assert {name for name, _ in seen} == {"zgetrf", "times"}
    assert all(set(counts.values()) <= {1} for _, counts in seen)
    assert blas_thread_counts() == before


def test_threads_from_pin_up_serialize_numpy_build_alone(tmp_path, monkeypatch):
    """From PIN_BELOW_N up numpy's build reads 1 at the LU and at every
    block product with S, the other builds read their own counts, the counts
    come back afterwards, and two runs write the same bytes."""
    monkeypatch.setattr(linalg, "PIN_BELOW_N", 16)
    before = blas_thread_counts()
    expected = numpy_serial_counts(linalg._PIN.builds(), before)
    seen = _record_threads(monkeypatch, 24)
    outputs = []
    for sub in ("a", "b"):
        config = ExperimentConfig(n=24, trials=2, seed=2,
                                  outdir=str(tmp_path / sub))
        assert run_experiment(config)["diagnostics"]["blas_threads"] is None
        assert blas_thread_counts() == before
        outputs.append(((tmp_path / sub / "trials.csv").read_bytes(),
                        (tmp_path / sub / "figure.csv").read_bytes()))
    assert outputs[0] == outputs[1]
    assert {name for name, _ in seen} == {"zgetrf", "times"}
    assert all(counts == expected for _, counts in seen)


def test_draw_eigenvectors_matches_summed_draw():
    n = 64
    S = draw_eigenvectors(np.random.default_rng([1, 0]), n)
    ref = draw_eigenvectors_summed(np.random.default_rng([1, 0]), n)
    assert S.dtype == np.complex128 and S.flags.c_contiguous
    assert np.array_equal(S, ref)


@pytest.mark.parametrize("n", [1, 7, 128, 1000, 1024])
def test_draw_eigenvectors_is_the_two_uniform_draw(n):
    """Bit for bit the parts of two whole n x n uniform draws, and the
    generator ends where those draws leave it."""
    rng, ref_rng = np.random.default_rng([2, n]), np.random.default_rng([2, n])
    S = draw_eigenvectors(rng, n)
    ref = np.empty((n, n), dtype=np.complex128)
    ref.real = ref_rng.uniform(-1.0, 1.0, (n, n))
    ref.imag = ref_rng.uniform(-1.0, 1.0, (n, n))
    assert S.tobytes() == ref.tobytes()
    assert np.array_equal(rng.random(5), ref_rng.random(5))
    assert rng.bit_generator.state == ref_rng.bit_generator.state


def test_cli_run_n128_independent_of_openblas_threads(tmp_path):
    outs = []
    for threads in ("1", "2"):
        outdir = tmp_path / f"blas{threads}"
        cfg = tmp_path / f"blas{threads}.json"
        cfg.write_text(json.dumps({
            "n": 128, "trials": 2, "seed": 4, "outdir": str(outdir),
        }))
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads)
        proc = subprocess.run(
            [sys.executable, "-m", "ratmat", "run", "--config", str(cfg)],
            capture_output=True, text=True, env=env, timeout=300,
        )
        assert proc.returncode == 0, proc.stderr
        outs.append(((outdir / "trials.csv").read_bytes(),
                     (outdir / "figure.csv").read_bytes()))
    assert outs[0] == outs[1]
