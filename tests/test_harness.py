import contextlib
import dataclasses
import gc
import io
import json
import multiprocessing
import os
import pickle
import signal
import subprocess
import sys
import threading
import time
import warnings
from dataclasses import replace
from functools import partial

import numpy as np
import pytest

from seqopt import data, harness, jobs
from seqopt.errors import ConfigError
from seqopt.harness import (TaskAssets, ablation_table,
                            extrapolation_experiment, grid_search, ode_steps_sweep,
                            results_dir, run_benchmark, run_jobs, write_cells_csv,
                            write_samples, write_summary)
from seqopt.metrics import MetricReport
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
        serial, parallel = [benchmark_bytes(run_benchmark(assets, BASE, [0, 1], parallelism=p,
                                                          keep_samples=True))
                            for p in (1, 2)]
        assert parallel == serial

    def test_format_row(self, tiny_stack):
        _, _, assets = tiny_stack
        summary = run_benchmark(assets, BASE, [0, 1])
        row = summary.format_row()
        assert "+-" in row and row.count("|") == 2


@dataclasses.dataclass(frozen=True)
class CountedReport(MetricReport):
    """A report that also carries the pid of each training side preparation
    its process had made or inherited, and the process's own pid."""
    prepared: tuple = ()
    pid: int = 0


class TestPreparedTrainingSide:
    def test_second_run_prepares_no_training_side(self, tiny_stack, monkeypatch):
        """The training set's side of novelty is prepared once per Dataset:
        the first two-process run prepares it in the caller before the worker
        forks, so the worker inherits it and prepares none. A second run's
        caller keeps it, and the same worker, kept since the first run, still
        holds only what it inherited at its fork. The patches are in place
        before the assets of their own sweep, so the worker forked for them
        runs the patched code."""
        _, _, assets = tiny_stack
        prepared = []
        prepare, measure = data.prepare_rows, harness.compute_metrics

        def counted(rows):
            prepared.append(os.getpid())
            return prepare(rows)

        def reporting(*args, **kwargs):
            report = measure(*args, **kwargs)
            return CountedReport(**dataclasses.asdict(report), prepared=tuple(prepared),
                                 pid=os.getpid())
        monkeypatch.setattr(data, "prepare_rows", counted)
        monkeypatch.setattr(harness, "compute_metrics", reporting)
        assets = replace(assets, train=assets.train.subset(np.arange(assets.train.n)))
        cfg = replace(BASE, batch=16, top_k=8)
        first = run_benchmark(assets, cfg, [0, 1], parallelism=2)
        assert first.reports[0].pid == os.getpid() != first.reports[1].pid
        assert [r.prepared for r in first.reports] == [(os.getpid(),)] * 2
        prepared.clear()
        second = run_benchmark(assets, cfg, [0, 1], parallelism=2)
        assert [r.prepared for r in second.reports] == [(), (os.getpid(),)]
        assert second.reports[1].pid == first.reports[1].pid
        assert second.mean == first.mean


class TestGridSearch:
    def test_zero_cell_matches_unconditional_exactly(self, tiny_stack):
        _, _, assets = tiny_stack
        cells = grid_search(assets, replace(BASE, seed=7), alphas=[0.0],
                            guidance_steps=[0])
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
        cells = grid_search(assets, replace(BASE, seed=1), alphas=[0.0, 0.3],
                            guidance_steps=[0, 2])
        assert len(cells) == 4
        assert {"alpha", "guidance_steps", "median_fitness", "diversity",
                "novelty", "n_unique", "error"} <= set(cells[0])

    def test_single_cell_reduces_to_one_record(self, tiny_stack):
        _, _, assets = tiny_stack
        cells = grid_search(assets, replace(BASE, seed=2), alphas=[0.3],
                            guidance_steps=[2])
        assert len(cells) == 1 and cells[0]["error"] == ""

    def test_empty_grid_rejected(self, tiny_stack):
        _, _, assets = tiny_stack
        with pytest.raises(ValueError):
            grid_search(assets, BASE, alphas=[], guidance_steps=[1])

    def test_failing_cell_recorded_not_fatal(self, tiny_stack):
        _, _, assets = tiny_stack
        cells = grid_search(assets, replace(BASE, seed=3), alphas=[-1.0, 0.3],
                            guidance_steps=[1])
        assert len(cells) == 2
        assert cells[0]["error"] != "" and np.isnan(cells[0]["median_fitness"])
        assert cells[1]["error"] == ""

    def test_diverging_cell_recorded_not_fatal(self, tiny_stack):
        # an infinite step size fails inside a network layer, not in the ODE
        _, _, assets = tiny_stack
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            cells = grid_search(assets, replace(BASE, seed=2), alphas=[0.3, np.inf],
                                guidance_steps=[2])
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
        assert cells[0] == grid_search(assets, replace(BASE, seed=2), alphas=[0.3],
                                       guidance_steps=[2])[0]
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
                                        base_cfg=replace(BASE, seed=4))
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
            extrapolation_experiment(stripped, [1.0], base_cfg=BASE)


class TestOdeSweep:
    def test_row_count(self, tiny_stack):
        _, _, assets = tiny_stack
        rows = ode_steps_sweep(assets, replace(BASE, seed=5), [4, 8, 16])
        assert [r["steps"] for r in rows] == [4, 8, 16]

    def test_singleton_grid_reproduces_default_run(self, tiny_stack):
        _, _, assets = tiny_stack
        rows = ode_steps_sweep(assets, replace(BASE, seed=6), [8])
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

    def test_rows_are_each_modes_benchmark(self, tiny_stack):
        _, _, assets = tiny_stack
        for row in ablation_table(assets, BASE, seeds=[0, 1]):
            summary = run_benchmark(assets, BASE.for_mode(row["mode"]), [0, 1])
            assert row == {"mode": row["mode"],
                           "median_fitness_mean": summary.mean["median_fitness"],
                           "median_fitness_std": summary.std["median_fitness"],
                           "diversity_mean": summary.mean["diversity"],
                           "novelty_mean": summary.mean["novelty"]}


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


    def test_json_writes_float64_and_refuses_other_numpy_values(self, tmp_path):
        """np.float64 subclasses float, so it is written as one and a
        non-finite one as null; a numpy int or array is a TypeError that
        leaves no file and no temporary file behind."""
        write_summary(tmp_path, {"a": np.float64(0.25), "b": [np.float64("nan")]})
        assert json.loads((tmp_path / "summary.json").read_text()) == {"a": 0.25, "b": [None]}
        for bad in (np.int64(3), np.arange(2)):
            out = tmp_path / type(bad).__name__
            out.mkdir()
            with pytest.raises(TypeError):
                write_summary(out, {"x": bad})
            assert not any(out.iterdir())

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
        with time_limit(60), pytest.raises(RuntimeError, match="pool worker 1 .*code 3"):
            run_jobs(jobs, parallelism=2)
        with pytest.raises(ChildProcessError):  # already reaped: no zombie left
            os.waitpid(int(pid_file.read_text()), os.WNOHANG)

    def test_result_that_does_not_pickle_named_with_its_cause(self, capfd):
        lock = threading.Lock()
        with time_limit(60), pytest.raises(RuntimeError, match="pool worker 1 .*code 1"):
            run_jobs({0: lambda: 0, 1: lambda: lock}, parallelism=2)
        assert "cannot pickle '_thread.lock' object" in capfd.readouterr().err

    def test_no_jobs_or_no_parallelism(self):
        assert run_jobs({}, parallelism=2) == {}
        pids = run_jobs({k: os.getpid for k in range(3)}, parallelism=0)
        assert pids == {k: os.getpid() for k in range(3)}  # serially, in the caller

    @pytest.mark.parametrize("outer", [1, 2])
    def test_nested_call_runs_in_its_jobs_process(self, outer):
        def job():
            return os.getpid(), run_jobs({j: os.getpid for j in range(2)}, parallelism=2)
        with time_limit(60):
            done = run_jobs({k: job for k in range(2)}, parallelism=outer)
        for pid, inner in done.values():
            assert inner == {0: pid, 1: pid}

    def test_blas_pinned_during_run_and_restored_after(self):
        blas = jobs.openblas()
        if blas is None:
            pytest.skip("no OpenBLAS loaded")
        get, set_ = blas("get_num_threads"), blas("set_num_threads")
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
        assert jobs.openblas()("get_num_threads")() >= 1


class TestPool:
    """`jobs.pool`: workers forked once for a block, tasks dealt k mod n, and
    memory shared before the fork written both ways."""

    def test_workers_kept_for_the_block_and_reaped(self):
        source, shared = jobs.shared_array(1), jobs.shared_array((7, 2))

        def task(k, value):
            shared[k] = value, source[0]
            return os.getpid()

        with time_limit(60):
            with jobs.pool(task, 4) as run:  # more processes than this host's cores
                runs = []
                for value in range(1, 21):
                    source[0] = -value
                    pids = run([(k, value) for k in range(7)])
                    assert shared.tolist() == [[value, -value]] * 7
                    runs.append(pids)
        pids = runs[0]
        assert all(later == pids for later in runs)
        assert pids[0] == pids[4] == os.getpid()
        assert pids[1] == pids[5] and pids[2] == pids[6] and len(set(pids[:4])) == 4
        for pid in pids[1:4]:
            with pytest.raises(ChildProcessError):  # reaped: neither running nor a zombie
                os.waitpid(pid, os.WNOHANG)

    def test_fewer_tasks_than_workers_then_more(self):
        with time_limit(60), jobs.pool(lambda k: os.getpid(), 4) as run:
            few = run([(k,) for k in range(2)])
            pids = run([(k,) for k in range(7)])
        assert few == pids[:2]
        assert pids[0] == pids[4] == os.getpid()
        assert pids[1] == pids[5] and pids[2] == pids[6] and len(set(pids[:4])) == 4
        for pid in pids[1:4]:
            with pytest.raises(ChildProcessError):  # reaped: neither running nor a zombie
                os.waitpid(pid, os.WNOHANG)

    def test_no_tasks(self):
        with time_limit(60), jobs.pool(lambda k: k, 3) as run:
            assert run([]) == []

    def test_result_that_does_not_pickle_named_with_its_cause(self, capfd):
        lock = threading.Lock()
        with time_limit(60), pytest.raises(RuntimeError, match="pool worker 1 .*code 1"):
            with jobs.pool(lambda k: lock if k else 0, 2) as run:
                run([(0,), (1,)])
        assert "cannot pickle '_thread.lock' object" in capfd.readouterr().err

    def test_worker_interrupted_mid_share_exits_quietly(self, capfd):
        def task(k):
            if k:
                os.kill(os.getpid(), signal.SIGINT)
                time.sleep(60)  # interrupted
            return k

        with time_limit(60), pytest.raises(RuntimeError, match="pool worker 1 .*code 0"):
            with jobs.pool(task, 2) as run:
                run([(0,), (1,)])
        assert "Traceback" not in capfd.readouterr().err

    def test_earliest_failing_task_wins(self):
        def task(k):
            if k in (2, 3):
                raise ValueError(f"task {k}")
            return k

        with time_limit(60), jobs.pool(task, 2) as run:
            assert run([(k,) for k in range(2)]) == [0, 1]
            with pytest.raises(ValueError, match="^task 2$"):
                run([(k,) for k in range(5)])
            assert run([(4,)]) == [4]  # the workers are still there

    @pytest.mark.parametrize("outer", [1, 2])
    def test_serial_inside_a_job(self, outer):
        def job():
            with jobs.pool(lambda k: os.getpid(), 2) as run:
                return os.getpid(), run([(k,) for k in range(3)])

        with time_limit(60):
            done = run_jobs({k: job for k in range(2)}, parallelism=outer)
        for pid, inner in done.values():
            assert inner == [pid] * 3


@pytest.fixture
def started(monkeypatch):
    """The processes started from here on, in start order."""
    processes, start = [], multiprocessing.process.BaseProcess.start

    def recorded(self):
        start(self)
        processes.append(self)

    monkeypatch.setattr(multiprocessing.process.BaseProcess, "start", recorded)
    return processes


def reaped(pid: int) -> bool:
    """Whether the child `pid` has been waited for: neither running nor a zombie."""
    try:
        os.waitpid(pid, os.WNOHANG)
    except ChildProcessError:
        return True
    return False


def benchmark_bytes(out) -> list:
    """A kept-samples `run_benchmark` result as bytes: its summary, and each
    seed's latents and selected sequences."""
    summary, results = out
    return [json.dumps(summary.to_json()).encode()] + [
        b"".join((res.raw_latents.tobytes(), res.sequences.tobytes()))
        for _, res in sorted(results.items())]


class TestSweepDispatch:
    """The sweeps hand their runs to `_sweep` on as many processes as the
    process has CPUs, and return on two, on a first call that forks a kept
    worker and on a second that reuses it, the bytes they return on one.
    Each test patches before it makes the assets of its own sweeps, so their
    worker runs the patched code."""

    @pytest.fixture
    def dispatched(self, monkeypatch):
        real = harness._sweep
        calls = []

        def recorder(assets, configs, measure, parallelism, on_error=None):
            calls.append((len(configs), parallelism))
            return real(assets, configs, measure, parallelism, on_error)

        monkeypatch.setattr(harness, "_sweep", recorder)
        return calls

    def serial_and_parallel(self, dispatched, monkeypatch, started, run):
        runs = []
        for cores in (1, 2, 2):
            monkeypatch.setattr(harness, "process_cores", lambda cores=cores: cores)
            runs.append(run())
        serial, first, second = runs
        n = len(dispatched) // 3  # sweeps per run
        assert [p for _, p in dispatched] == [1] * n + [2] * 2 * n
        assert [j for j, _ in dispatched[:n]] == [j for j, _ in dispatched[n:2 * n]]
        assert len(started) == 1  # the second run reused the first run's worker
        # as JSON, so a NaN pickled back from a worker equals the caller's
        assert json.dumps(first) == json.dumps(second) == json.dumps(serial)
        return serial

    def test_grid_search(self, tiny_stack, dispatched, monkeypatch, started):
        real_sample = harness.guided_sample

        def diverges_at_alpha_0_2(cfg, *models):
            if cfg.alpha == 0.2:
                raise FloatingPointError("non-finite state at integration step 3")
            return real_sample(cfg, *models)

        monkeypatch.setattr(harness, "guided_sample", diverges_at_alpha_0_2)
        assets = replace(tiny_stack[2])
        cells = self.serial_and_parallel(dispatched, monkeypatch, started, lambda: grid_search(
            assets, replace(BASE, seed=3), alphas=[0.3, -1.0, 0.2, 0.3, np.inf],
            guidance_steps=[2]))
        assert [c["alpha"] for c in cells] == [0.3, -1.0, 0.2, 0.3, np.inf]
        assert dispatched[0] == (4, 1)  # the invalid alpha=-1 cell runs no job
        assert "alpha must be >= 0" in cells[1]["error"]
        assert cells[2]["error"] == "non-finite state at integration step 3"
        assert np.isnan(cells[2]["median_fitness"]) and cells[2]["n_unique"] == 0
        assert cells[0] == cells[3] and cells[0]["error"] == ""
        assert cells[4]["error"].startswith("layer ") and cells[4]["n_unique"] == 0

    def test_extrapolation_experiment(self, tiny_stack, dispatched, monkeypatch, started):
        assets = replace(tiny_stack[2])
        rows = self.serial_and_parallel(
            dispatched, monkeypatch, started, lambda: extrapolation_experiment(
                assets, [0.6, 0.2, 0.6], base_cfg=replace(BASE, seed=4)))
        assert [(r["mode"], r["target_y"]) for r in rows] == [
            ("manifold", 0.6), ("manifold", 0.2), ("manifold", 0.6),
            ("learned_posterior", 0.6), ("learned_posterior", 0.2),
            ("learned_posterior", 0.6)]
        assert dispatched[0] == (6, 1)
        assert rows[0] == rows[2] and rows[3] == rows[5]

    def test_ode_steps_sweep(self, tiny_stack, dispatched, monkeypatch, started):
        assets = replace(tiny_stack[2])
        rows = self.serial_and_parallel(dispatched, monkeypatch, started, lambda: ode_steps_sweep(
            assets, replace(BASE, seed=5), [8, 4, 8]))
        assert [r["steps"] for r in rows] == [8, 4, 8] and dispatched[0] == (3, 1)
        assert rows[0] == rows[2]

    def test_ablation_table(self, tiny_stack, dispatched, monkeypatch, started):
        assets = replace(tiny_stack[2])
        rows = self.serial_and_parallel(
            dispatched, monkeypatch, started, lambda: ablation_table(
                assets, replace(BASE, seed=6), seeds=[0, 1]))
        assert [r["mode"] for r in rows] == ["manifold", "naive", "learned_posterior"]
        assert dispatched[0] == (6, 1)  # one sweep over every (mode, seed)


class TestKeptSweepPool:
    """A sweep on more than one process runs on a pool kept for its
    TaskAssets: a later sweep on the same assets, on as many processes,
    forks nothing, and one on changed or other assets, or on another
    process count, forks anew. Every run gives the bytes of a serial run.

    A kept worker runs the code it inherited at its fork. So a test that
    replaces a function of `harness` or `metrics` must make the assets of
    its sweeps after the patch, as TestSweepDispatch and
    TestPreparedTrainingSide do: a worker kept for shared assets would run
    the unpatched code."""

    CFG = replace(BASE, batch=16, top_k=8)

    def run(self, assets, parallelism, seeds=(0, 1)):
        return benchmark_bytes(run_benchmark(assets, self.CFG, seeds, parallelism=parallelism,
                                             keep_samples=True))

    def test_second_run_forks_nothing(self, tiny_stack, started):
        assets = replace(tiny_stack[2])
        serial = self.run(assets, 1)
        assert self.run(assets, 2) == serial and len(started) == 1
        assert self.run(assets, 2) == serial and len(started) == 1
        assert started[0].is_alive()

    def test_model_changed_in_place_forks_anew(self, tiny_stack, started):
        from seqopt.predictor import PredictorConfig, PredictorModel
        base = tiny_stack[2]
        predictor = PredictorModel.build(base.vae.length, base.vocab.size,
                                         PredictorConfig(hidden_channels=4, hidden_dense=8),
                                         seed=0)
        assets = replace(base, predictor=predictor)
        before = self.run(assets, 2)
        predictor.net.params.flat[:] += 0.5
        after = self.run(assets, 2)
        assert after != before and after == self.run(assets, 1)
        assert len(started) == 2 and reaped(started[0].pid)

    def test_fields_cannot_be_replaced(self, tiny_stack):
        """A field replaced after the fork would not reach a kept worker."""
        assets = replace(tiny_stack[2])
        with pytest.raises(dataclasses.FrozenInstanceError):
            assets.train = assets.train.subset(np.arange(3))

    @pytest.mark.parametrize("sig, exitcode", [(signal.SIGKILL, -signal.SIGKILL),
                                                (signal.SIGINT, 0)])
    def test_worker_ended_between_runs_forks_anew(self, tiny_stack, started, capfd,
                                                  sig, exitcode):
        """A worker killed, or interrupted as a Ctrl-C interrupts every
        process of the terminal's group, between runs is replaced; an idle
        worker interrupted exits quietly."""
        assets = replace(tiny_stack[2])
        serial = self.run(assets, 1)
        assert self.run(assets, 2) == serial
        os.kill(started[0].pid, sig)
        with time_limit(60):
            while started[0].is_alive():
                time.sleep(0.01)
        assert self.run(assets, 2) == serial
        assert len(started) == 2 and started[0].exitcode == exitcode
        assert "Traceback" not in capfd.readouterr().err

    def test_other_assets_fork_anew(self, tiny_stack, started):
        first, other = replace(tiny_stack[2]), replace(tiny_stack[2])
        serial = self.run(first, 1)
        assert self.run(first, 2) == serial
        assert self.run(other, 2) == serial
        assert len(started) == 2 and reaped(started[0].pid)
        assert self.run(first, 2) == serial and len(started) == 3  # one pool is kept
        assert reaped(started[1].pid)

    def test_other_process_count_forks_anew(self, tiny_stack, started):
        assets = replace(tiny_stack[2])
        serial = self.run(assets, 1, seeds=(0, 1, 2))
        assert self.run(assets, 2, seeds=(0, 1, 2)) == serial and len(started) == 1
        assert self.run(assets, 3, seeds=(0, 1, 2)) == serial and len(started) == 3
        assert reaped(started[0].pid)
        # one seed needs one process: the sweep runs serially and keeps the pool
        assert self.run(assets, 3, seeds=(0,)) == self.run(assets, 1, seeds=(0,))
        assert self.run(assets, 3, seeds=(0, 1, 2)) == serial and len(started) == 3

    def test_serial_inside_a_job_and_in_a_forked_child(self, tiny_stack, started):
        assets = replace(tiny_stack[2])
        serial = self.run(assets, 1)
        assert self.run(assets, 2) == serial and len(started) == 1

        def job():
            return os.getpid(), self.run(assets, 2), len(started)

        with time_limit(60):
            done = run_jobs({0: job, 1: job}, parallelism=2)
        # the run_jobs worker, started after its fork, and nothing inside either job
        assert len(started) == 2
        assert done[0] == (os.getpid(), serial, 2)
        assert done[1][0] == started[1].pid and done[1][1:] == (serial, 1)

        mine, theirs = multiprocessing.Pipe()
        child = multiprocessing.get_context("fork").Process(
            target=lambda: theirs.send((self.run(assets, 2), len(started))))
        with time_limit(60):
            child.start()
            child.join()
        assert child.exitcode == 0 and mine.recv() == (serial, 2)  # nothing started in it
        # the kept worker is still in step with this process's pipes
        assert self.run(assets, 2) == serial and len(started) == 3
        assert started[0].is_alive()


def exited(pid: int) -> bool:
    """Whether the process `pid` is gone or a zombie."""
    try:
        with open(f"/proc/{pid}/stat") as fh:
            return fh.read().rsplit(")", 1)[1].split()[0] == "Z"
    except FileNotFoundError:
        return True


class DisruptedOracle:
    """`oracle`, except that while `trigger` exists, a call in the caller
    raises KeyboardInterrupt (where="caller") or a call in another process
    ends it with code 3 (where="worker"), and removes `trigger` first."""

    def __init__(self, oracle, trigger, where):
        self.oracle, self.length = oracle, oracle.length
        self.trigger, self.where, self.caller = trigger, where, os.getpid()

    def predict_sequences(self, seqs):
        here = "caller" if os.getpid() == self.caller else "worker"
        if here == self.where and self.trigger.exists():
            self.trigger.unlink()
            if here == "caller":
                raise KeyboardInterrupt
            os._exit(3)
        return self.oracle.predict_sequences(seqs)


KEPT_POOL_EXIT = """
import weakref

class Anchor:
    pass

anchor = Anchor()
if __import__("sys").argv[2] == "exit-late":
    # weakref's exit hook is registered before multiprocessing's, so it runs after
    weakref.finalize(anchor, print, end="")

import multiprocessing, os, pickle, signal, sys
from seqopt.harness import run_benchmark
from seqopt.sampling import SamplerConfig

with open(sys.argv[1], "rb") as fh:
    assets = pickle.load(fh)
cfg = SamplerConfig(steps=8, guidance_steps=2, alpha=0.3, batch=16, top_k=8, seed=0)
run_benchmark(assets, cfg, [0, 1], parallelism=2)
print(" ".join(str(p.pid) for p in multiprocessing.active_children()), flush=True)
if sys.argv[2] == "killed":
    os.kill(os.getpid(), signal.SIGKILL)
"""


class TestKeptPoolLifetime:
    """A kept sweep pool ends with its TaskAssets, with its process, or with
    the run that raised."""

    CFG = TestKeptSweepPool.CFG

    def test_released_assets_reap_their_workers_without_gc(self, tiny_stack, started):
        assets = replace(tiny_stack[2])
        gc.disable()
        try:
            run_benchmark(assets, self.CFG, [0, 1], parallelism=2)
            (worker,) = started
            assert worker.is_alive()
            del assets
            assert reaped(worker.pid) and harness._kept is None
        finally:
            gc.enable()

    @pytest.mark.parametrize("end", ["exit", "exit-late", "killed"])
    def test_kept_workers_end_with_their_process(self, tiny_stack, tmp_path, end):
        """A process that exits without closing its kept pool reaps its
        workers first, whichever of the assets' finalizer and
        multiprocessing's exit hook runs first; one that is killed leaves
        workers that read the end of their pipes and exit, to be reaped by
        whichever process adopts them."""
        path = tmp_path / "assets.pkl"
        path.write_bytes(pickle.dumps(replace(tiny_stack[2])))
        src = os.path.dirname(os.path.dirname(harness.__file__))  # the package under test
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            [src] + [p for p in [os.environ.get("PYTHONPATH")] if p])}
        done = subprocess.run([sys.executable, "-c", KEPT_POOL_EXIT, str(path), end], env=env,
                              capture_output=True, text=True, timeout=60)
        assert done.returncode == (-signal.SIGKILL if end == "killed" else 0), done.stderr
        pids = [int(pid) for pid in done.stdout.split()]
        assert len(pids) == 1
        with time_limit(60):
            while not all(map(exited, pids)):
                time.sleep(0.05)
        if end != "killed":
            for pid in pids:
                with pytest.raises(ProcessLookupError):
                    os.kill(pid, 0)

    @pytest.mark.parametrize("where, error", [("worker", RuntimeError),
                                              ("caller", KeyboardInterrupt)])
    def test_disrupted_run_forks_anew(self, tiny_stack, tmp_path, started, where, error):
        trigger = tmp_path / "trigger"
        base = tiny_stack[2]
        assets = replace(base, oracle=DisruptedOracle(base.oracle, trigger, where))
        serial = benchmark_bytes(run_benchmark(assets, self.CFG, [0, 1], keep_samples=True))
        run = partial(run_benchmark, assets, self.CFG, [0, 1], parallelism=2, keep_samples=True)
        assert benchmark_bytes(run()) == serial
        trigger.touch()
        with time_limit(60), pytest.raises(error):
            run()
        assert not trigger.exists() and reaped(started[0].pid) and harness._kept is None
        assert benchmark_bytes(run()) == serial
        assert len(started) == 2 and started[1].is_alive()


class TestAssetsValidation:
    def test_latent_mismatch_rejected(self, tiny_stack):
        task, bundle, assets = tiny_stack
        from seqopt.flow import FlowModel
        bad = FlowModel.build(assets.vae.latent_dim + 1, seed=0, hidden=8)
        with pytest.raises(ConfigError, match="latent dim"):
            TaskAssets(name="x", vocab=assets.vocab, train=assets.train,
                       normalizer=assets.normalizer, oracle=assets.oracle,
                       vae=assets.vae, flow=bad, predictor=assets.predictor)

    @staticmethod
    def predictor_of_length(assets, length):
        from seqopt.predictor import PredictorConfig, PredictorModel
        return PredictorModel.build(length, assets.vocab.size,
                                    PredictorConfig(hidden_channels=2, hidden_dense=2), seed=0)

    def test_predictor_length_mismatch_rejected(self, tiny_stack):
        assets = tiny_stack[2]
        length = assets.vae.length
        with pytest.raises(ConfigError) as raised:
            replace(assets, predictor=self.predictor_of_length(assets, length + 1))
        assert raised.value.problems == [
            f"length mismatch: predictor {length + 1} vs vae {length}"]

    def test_conditional_flow_latent_mismatch_rejected(self, tiny_stack):
        from seqopt.flow import FlowModel
        assets = tiny_stack[2]
        dim = assets.vae.latent_dim
        with pytest.raises(ConfigError) as raised:
            replace(assets, flow_conditional=FlowModel.build(dim + 1, seed=0,
                                                             conditional=True, hidden=8))
        assert raised.value.problems == [
            f"latent dim mismatch: vae {dim} vs conditional flow {dim + 1}"]

    def test_every_mismatch_listed(self, tiny_stack):
        from seqopt.flow import FlowModel
        assets = tiny_stack[2]
        dim, length = assets.vae.latent_dim, assets.vae.length
        longer = self.predictor_of_length(assets, length + 1)
        with pytest.raises(ConfigError) as raised:
            replace(assets, flow=FlowModel.build(dim + 2, seed=0, hidden=8),
                    flow_conditional=FlowModel.build(dim + 1, seed=0, conditional=True,
                                                     hidden=8),
                    predictor=longer, oracle=longer)
        assert raised.value.problems == [
            f"latent dim mismatch: vae {dim} vs flow {dim + 2}",
            f"latent dim mismatch: vae {dim} vs conditional flow {dim + 1}",
            f"length mismatch: predictor {length + 1} vs vae {length}",
            f"length mismatch: oracle {length + 1} vs vae {length}"]

    def test_learned_posterior_needs_a_conditional_flow(self, tiny_stack):
        assets = replace(tiny_stack[2], flow_conditional=None)
        assert assets.flow_for("manifold") is assets.flow
        with pytest.raises(ConfigError) as raised:
            assets.flow_for("learned_posterior")
        assert raised.value.problems == [
            "learned_posterior mode needs a conditional flow checkpoint"]
