import contextlib
import io
import json
import math
import os
import signal
import sys
import warnings

import numpy as np
import pytest

from seqopt import harness
from seqopt.errors import ConfigError
from seqopt.harness import (TaskAssets, ablation_table,
                            extrapolation_experiment, grid_search, ode_steps_sweep,
                            results_dir, run_benchmark, run_jobs, write_cells_csv,
                            write_samples, write_summary)
from seqopt.nn.layers import NonFiniteError
from seqopt.sampling import SamplerConfig, guided_sample

BASE = SamplerConfig(steps=8, guidance_steps=2, alpha=0.3, batch=48, top_k=16,
                     mode="manifold", seed=0)
SEEDS = [0, 1, 2]


class TestRunBenchmark:
    def test_deterministic_and_aggregates_consistent(self, tiny_stack):
        _, _, assets = tiny_stack
        a = run_benchmark(assets, BASE, SEEDS)
        b = run_benchmark(assets, BASE, SEEDS)
        assert a.to_json() == b.to_json()
        for metric in ("median_fitness", "diversity", "novelty"):
            vals = [getattr(r, metric) for r in a.reports]
            assert abs(a.mean[metric] - np.mean(vals)) < 1e-12
            assert abs(a.std[metric] - np.std(vals)) < 1e-12

    def test_guided_beats_unconditional_on_tiny_task(self, tiny_stack):
        _, _, assets = tiny_stack
        guided = run_benchmark(assets, BASE, SEEDS)
        uncond = run_benchmark(assets, SamplerConfig(steps=8, batch=48, top_k=48,
                                                     mode="unconditional", seed=0),
                               SEEDS)
        assert guided.mean["median_fitness"] > uncond.mean["median_fitness"]

    def test_unconditional_keeps_whole_batch(self, tiny_stack):
        _, _, assets = tiny_stack
        cfg = SamplerConfig(steps=8, batch=48, top_k=16, mode="unconditional", seed=0)
        summary = run_benchmark(assets, cfg, [0])
        # top_k lifted to batch for prior-only analysis; dedup still applies
        assert summary.config["sampler"]["top_k"] == 48

    def test_parallel_equals_serial(self, tiny_stack):
        _, _, assets = tiny_stack
        a = run_benchmark(assets, BASE, SEEDS, parallelism=1)
        b = run_benchmark(assets, BASE, SEEDS, parallelism=3)
        assert a.to_json() == b.to_json()

    def test_parallel_manifold_bytes_equal_serial(self, tiny_stack):
        _, _, assets = tiny_stack
        runs = [run_benchmark(assets, BASE, [0, 1], parallelism=p, keep_samples=True)
                for p in (1, 2)]
        (a, res_a), (b, res_b) = runs
        assert json.dumps(a.to_json()).encode() == json.dumps(b.to_json()).encode()
        for s in (0, 1):
            assert res_a[s].raw_latents.tobytes() == res_b[s].raw_latents.tobytes()
            assert res_a[s].sequences.tobytes() == res_b[s].sequences.tobytes()

    def test_format_row(self, tiny_stack):
        _, _, assets = tiny_stack
        summary = run_benchmark(assets, BASE, [0, 1])
        row = summary.format_row()
        assert "+-" in row and row.count("|") == 2


class TestGridSearch:
    def test_zero_cell_matches_unconditional_exactly(self, tiny_stack):
        _, _, assets = tiny_stack
        cells = grid_search(assets, BASE, alphas=[0.0], guidance_steps=[0], seed=7)
        uncond = guided_sample(SamplerConfig(steps=8, batch=48, top_k=16,
                                             mode="unconditional", seed=7),
                               assets.flow, assets.vae, assets.predictor)
        from seqopt.metrics import compute_metrics
        ref = compute_metrics(uncond.sequences, assets.oracle, assets.normalizer,
                              assets.train, seed=7)
        assert cells[0]["median_fitness"] == ref.median_fitness
        assert cells[0]["diversity"] == ref.diversity

    def test_cell_count_and_fields(self, tiny_stack):
        _, _, assets = tiny_stack
        cells = grid_search(assets, BASE, alphas=[0.0, 0.3], guidance_steps=[0, 2],
                            seed=1)
        assert len(cells) == 4
        assert {"alpha", "guidance_steps", "median_fitness", "diversity",
                "novelty", "n_unique", "error"} <= set(cells[0])

    def test_single_cell_reduces_to_one_record(self, tiny_stack):
        _, _, assets = tiny_stack
        cells = grid_search(assets, BASE, alphas=[0.3], guidance_steps=[2], seed=2)
        assert len(cells) == 1 and cells[0]["error"] == ""

    def test_empty_grid_rejected(self, tiny_stack):
        _, _, assets = tiny_stack
        with pytest.raises(ValueError):
            grid_search(assets, BASE, alphas=[], guidance_steps=[1])

    def test_failing_cell_recorded_not_fatal(self, tiny_stack):
        _, _, assets = tiny_stack
        cells = grid_search(assets, BASE, alphas=[-1.0, 0.3], guidance_steps=[1],
                            seed=3)
        assert len(cells) == 2
        assert cells[0]["error"] != "" and np.isnan(cells[0]["median_fitness"])
        assert cells[1]["error"] == ""

    def test_diverging_cell_recorded_not_fatal(self, tiny_stack):
        # an infinite step size fails inside a network layer, not in the ODE
        _, _, assets = tiny_stack
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            cells = grid_search(assets, BASE, alphas=[0.3, np.inf], guidance_steps=[2],
                                seed=2)
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
        assert cells[0] == grid_search(assets, BASE, alphas=[0.3], guidance_steps=[2],
                                       seed=2)[0]
        assert cells[1]["error"].startswith("layer ")
        assert "non-finite" in cells[1]["error"] and cells[1]["n_unique"] == 0
        # the first guided step sends the state to inf; the next forward pass
        # fails inside the same Euler step
        assert cells[1]["error"].endswith(" at integration step 0")
        assert np.isnan(cells[1]["median_fitness"])


class TestExtrapolation:
    def test_row_count_is_grid_times_modes(self, tiny_stack):
        _, _, assets = tiny_stack
        rows = extrapolation_experiment(assets, y_values=[0.2, 0.6, 1.0],
                                        base_cfg=BASE, seed=4)
        assert len(rows) == 6
        modes = {r["mode"] for r in rows}
        assert modes == {"manifold", "learned_posterior"}

    def test_requires_conditional_checkpoint(self, tiny_stack):
        _, _, assets = tiny_stack
        stripped = TaskAssets(name=assets.name, vocab=assets.vocab,
                              train=assets.train, normalizer=assets.normalizer,
                              oracle=assets.oracle, vae=assets.vae,
                              flow=assets.flow, predictor=assets.predictor,
                              flow_conditional=None)
        with pytest.raises(ConfigError, match="conditional"):
            extrapolation_experiment(stripped, [1.0], base_cfg=BASE, seed=0)


class TestOdeSweep:
    def test_row_count(self, tiny_stack):
        _, _, assets = tiny_stack
        rows = ode_steps_sweep(assets, BASE, [4, 8, 16], seed=5)
        assert [r["steps"] for r in rows] == [4, 8, 16]

    def test_singleton_grid_reproduces_default_run(self, tiny_stack):
        _, _, assets = tiny_stack
        rows = ode_steps_sweep(assets, BASE, [8], seed=6)
        summary = run_benchmark(assets, BASE, [6])
        assert rows[0]["median_fitness"] == summary.reports[0].median_fitness
        assert rows[0]["diversity"] == summary.reports[0].diversity

    def test_bad_step_count(self, tiny_stack):
        _, _, assets = tiny_stack
        with pytest.raises(ValueError):
            ode_steps_sweep(assets, BASE, [0])


class TestAblation:
    def test_three_rows_and_modes(self, tiny_stack):
        _, _, assets = tiny_stack
        rows = ablation_table(assets, BASE, seeds=[0, 1])
        assert [r["mode"] for r in rows] == ["manifold", "naive", "learned_posterior"]
        for r in rows:
            assert np.isfinite(r["median_fitness_mean"])


class TestResultsLayout:
    def test_directory_and_files(self, tiny_stack, tmp_path):
        _, _, assets = tiny_stack
        summary, results = run_benchmark(assets, BASE, [0, 1], keep_samples=True)
        out = results_dir(tmp_path, assets.name, "evaluate", timestamp="20260101-000000")
        assert out == tmp_path / "tiny" / "evaluate" / "20260101-000000"
        write_summary(out, summary.to_json())
        write_cells_csv(out, [{"a": 1, "b": 2.5}])
        written = write_samples(out, results, assets.vocab)
        assert (out / "summary.json").exists()
        assert (out / "cells.csv").read_text().startswith("a,b")
        assert len(written) == 2 and all(p.parent.name == "samples" for p in written)
        payload = json.loads((out / "summary.json").read_text())
        assert payload["config"]["task"] == "tiny"
        sample = json.loads(written[0].read_text())
        assert "provenance" in sample and "sequences" in sample


    def test_same_timestamp_gets_distinct_directories(self, tmp_path):
        first = results_dir(tmp_path, "tiny", "evaluate", timestamp="20260101-000000")
        second = results_dir(tmp_path, "tiny", "evaluate", timestamp="20260101-000000")
        third = results_dir(tmp_path, "tiny", "evaluate", timestamp="20260101-000000")
        assert len({first, second, third}) == 3
        assert second.name == "20260101-000000-1" and third.name == "20260101-000000-2"
        assert all(p.is_dir() and not any(p.iterdir()) for p in (first, second, third))

    def test_writer_failing_mid_write_keeps_previous_file(self, tmp_path):
        out = write_cells_csv(tmp_path, [{"a": 1, "b": 2.5}])
        before = out.read_bytes()
        # the second row has a field the header lacks: DictWriter raises
        # after the header and the first row were written
        with pytest.raises(ValueError):
            write_cells_csv(tmp_path, [{"a": 3, "b": 4.0}, {"a": 5, "c": 6}])
        assert out.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["cells.csv"]


@contextlib.contextmanager
def time_limit(seconds):
    """Fail the block with TimeoutError instead of hanging past `seconds`."""
    def expire(signum, frame):
        raise TimeoutError(f"no result within {seconds} s")
    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def same_values(a, b):
    """`a == b` over nested dicts and lists, where NaN equals NaN: a row
    pickled back from a worker holds its own NaN object, which `==` (an
    identity shortcut for the same object) would call unequal."""
    if isinstance(a, dict):
        return isinstance(b, dict) and a.keys() == b.keys() and \
            all(same_values(a[k], b[k]) for k in a)
    if isinstance(a, list):
        return isinstance(b, list) and len(a) == len(b) and all(map(same_values, a, b))
    if isinstance(a, float) and isinstance(b, float) and math.isnan(a):
        return math.isnan(b)
    return a == b


class TestWorkQueue:
    def test_keyed_assembly_independent_of_order(self):
        import time as _time

        def make(k):
            def job():
                _time.sleep(0.01 * (3 - k))  # later keys finish first
                return k * 10
            return job

        jobs = {k: make(k) for k in range(3)}
        assert run_jobs(jobs, parallelism=3) == {0: 0, 1: 10, 2: 20}
        assert run_jobs(jobs, parallelism=1) == {0: 0, 1: 10, 2: 20}

    def test_keys_dealt_round_robin_to_fixed_processes(self):
        jobs = {k: os.getpid for k in "abcdefg"}
        for _ in range(2):
            pids = run_jobs(jobs, parallelism=3)
            assert pids["a"] == pids["d"] == pids["g"] == os.getpid()  # the caller
            assert pids["b"] == pids["e"] and pids["c"] == pids["f"]
            assert len({pids["a"], pids["b"], pids["c"]}) == 3
            for pid in (pids["b"], pids["c"]):  # each worker was reaped
                with pytest.raises(ChildProcessError):
                    os.waitpid(pid, os.WNOHANG)

    @pytest.mark.parametrize("exc", [
        NonFiniteError("layer 0 (dense) produced non-finite values at integration step 3"),
        ConfigError(["alpha must be >= 0", "steps must be >= 1"]),
    ])
    def test_child_exception_reraised_with_type_and_message(self, exc):
        def fail():
            raise exc
        jobs = {0: lambda: 0, 1: fail}  # key 1 runs in the forked worker
        with time_limit(60), pytest.raises(type(exc)) as raised:
            run_jobs(jobs, parallelism=2)
        assert str(raised.value) == str(exc)
        assert getattr(raised.value, "problems", None) == getattr(exc, "problems", None)

    @pytest.mark.parametrize("failing", [(1, 2), (2, 3), (4, 3), (5, 6)])
    def test_earliest_failing_key_wins(self, failing):
        def job(k):
            def run():
                if k in failing:
                    raise ValueError(f"key {k}")
                return k
            return run
        jobs = {k: job(k) for k in range(7)}
        with pytest.raises(ValueError) as serial:
            run_jobs(jobs, parallelism=1)
        for parallelism in (2, 3):
            with time_limit(60), pytest.raises(ValueError) as parallel:
                run_jobs(jobs, parallelism=parallelism)
            assert str(parallel.value) == str(serial.value) == f"key {min(failing)}"

    def test_dead_worker_named_not_hung_and_reaped(self, tmp_path):
        pid_file = tmp_path / "pid"

        def die():
            pid_file.write_text(str(os.getpid()))
            os._exit(3)
        jobs = {0: lambda: 0, 1: die, 2: lambda: 2}
        with time_limit(60), pytest.raises(RuntimeError, match="run_jobs worker 1 .*code 3"):
            run_jobs(jobs, parallelism=2)
        with pytest.raises(ChildProcessError):  # already reaped: no zombie left
            os.waitpid(int(pid_file.read_text()), os.WNOHANG)

    def test_blas_pinned_during_run_and_restored_after(self):
        blas = harness._openblas_threads()
        if blas is None:
            pytest.skip("no OpenBLAS loaded")
        get, set_ = blas
        original = get()
        set_(3)
        try:
            counts = run_jobs({k: get for k in range(4)}, parallelism=2)
            assert get() == 3
        finally:
            set_(original)
        assert counts == {k: 1 for k in range(4)}

    @pytest.mark.skipif(not sys.platform.startswith("linux"),
                        reason="the lookup reads the process's memory maps")
    def test_pin_lookup_finds_openblas(self):
        shown = io.StringIO()
        with contextlib.redirect_stdout(shown):
            np.show_config()
        if "openblas" not in shown.getvalue().lower():
            pytest.skip("numpy is not built against OpenBLAS")
        get, set_ = harness._openblas_threads()
        assert get() >= 1


class TestSweepDispatch:
    """The sweeps hand their runs to `run_jobs` with the caller's parallelism
    and return, in parallel, the rows a serial run returns."""

    @pytest.fixture
    def dispatched(self, monkeypatch):
        real = harness.run_jobs
        calls = []

        def recorder(jobs, parallelism=1):
            calls.append((len(jobs), parallelism))
            return real(jobs, parallelism)

        monkeypatch.setattr(harness, "run_jobs", recorder)
        return calls

    def serial_and_parallel(self, dispatched, run):
        serial, parallel = run(1), run(2)
        assert [p for _, p in dispatched] == [1, 2]  # one pool call per run
        assert dispatched[0][0] == dispatched[1][0]
        assert same_values(parallel, serial)
        return serial

    def test_grid_search(self, tiny_stack, dispatched, monkeypatch):
        _, _, assets = tiny_stack
        real_sample = harness.guided_sample

        def diverges_at_alpha_0_2(cfg, *models):
            if cfg.alpha == 0.2:
                raise FloatingPointError("non-finite state at integration step 3")
            return real_sample(cfg, *models)

        monkeypatch.setattr(harness, "guided_sample", diverges_at_alpha_0_2)
        cells = self.serial_and_parallel(dispatched, lambda p: grid_search(
            assets, BASE, alphas=[0.3, -1.0, 0.2, 0.3], guidance_steps=[2],
            seed=3, parallelism=p))
        assert [c["alpha"] for c in cells] == [0.3, -1.0, 0.2, 0.3]
        assert dispatched[0][0] == 3  # the invalid alpha=-1 cell runs no job
        assert "alpha must be >= 0" in cells[1]["error"]
        assert cells[2]["error"] == "non-finite state at integration step 3"
        assert np.isnan(cells[2]["median_fitness"]) and cells[2]["n_unique"] == 0
        assert cells[0] == cells[3] and cells[0]["error"] == ""

    def test_extrapolation_experiment(self, tiny_stack, dispatched):
        _, _, assets = tiny_stack
        rows = self.serial_and_parallel(dispatched, lambda p: extrapolation_experiment(
            assets, [0.6, 0.2, 0.6], base_cfg=BASE, seed=4, parallelism=p))
        assert [(r["mode"], r["target_y"]) for r in rows] == [
            ("manifold", 0.6), ("manifold", 0.2), ("manifold", 0.6),
            ("learned_posterior", 0.6), ("learned_posterior", 0.2),
            ("learned_posterior", 0.6)]
        assert dispatched[0][0] == 6
        assert rows[0] == rows[2] and rows[3] == rows[5]

    def test_ode_steps_sweep(self, tiny_stack, dispatched):
        _, _, assets = tiny_stack
        rows = self.serial_and_parallel(dispatched, lambda p: ode_steps_sweep(
            assets, BASE, [8, 4, 8], seed=5, parallelism=p))
        assert [r["steps"] for r in rows] == [8, 4, 8] and dispatched[0][0] == 3
        assert rows[0] == rows[2]


class TestAssetsValidation:
    def test_latent_mismatch_rejected(self, tiny_stack):
        task, bundle, assets = tiny_stack
        from seqopt.flow import FlowModel
        bad = FlowModel.build(assets.vae.latent_dim + 1, seed=0, hidden=8)
        with pytest.raises(ConfigError, match="latent dim"):
            TaskAssets(name="x", vocab=assets.vocab, train=assets.train,
                       normalizer=assets.normalizer, oracle=assets.oracle,
                       vae=assets.vae, flow=bad, predictor=assets.predictor)
