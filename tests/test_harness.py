import contextlib
import dataclasses
import io
import json
import math
import os
import signal
import sys
import threading
import warnings
from dataclasses import replace

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
        forks, so the worker inherits it and prepares none; a second run's
        caller keeps it, and its worker inherits it too."""
        _, _, assets = tiny_stack
        assets = replace(assets, train=assets.train.subset(np.arange(assets.train.n)))
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
        cfg = replace(BASE, batch=16, top_k=8)
        first = run_benchmark(assets, cfg, [0, 1], parallelism=2)
        assert first.reports[0].pid == os.getpid() != first.reports[1].pid
        assert [r.prepared for r in first.reports] == [(os.getpid(),)] * 2
        prepared.clear()
        second = run_benchmark(assets, cfg, [0, 1], parallelism=2)
        assert [r.prepared for r in second.reports] == [(), ()]
        assert second.reports[0].pid == os.getpid() != second.reports[1].pid
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


class TestSweepDispatch:
    """The sweeps hand their runs to `run_jobs` on as many processes as the
    process has CPUs, and return on two the rows they return on one."""

    @pytest.fixture
    def dispatched(self, monkeypatch):
        real = harness.run_jobs
        calls = []

        def recorder(jobs, parallelism=1):
            calls.append((len(jobs), parallelism))
            return real(jobs, parallelism)

        monkeypatch.setattr(harness, "run_jobs", recorder)
        return calls

    def serial_and_parallel(self, dispatched, monkeypatch, run):
        runs = []
        for cores in (1, 2):
            monkeypatch.setattr(harness, "process_cores", lambda cores=cores: cores)
            runs.append(run())
        serial, parallel = runs
        n = len(dispatched) // 2  # pool calls per run
        assert [p for _, p in dispatched] == [1] * n + [2] * n
        assert [j for j, _ in dispatched[:n]] == [j for j, _ in dispatched[n:]]
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
        cells = self.serial_and_parallel(dispatched, monkeypatch, lambda: grid_search(
            assets, replace(BASE, seed=3), alphas=[0.3, -1.0, 0.2, 0.3],
            guidance_steps=[2]))
        assert [c["alpha"] for c in cells] == [0.3, -1.0, 0.2, 0.3]
        assert dispatched[0] == (3, 1)  # the invalid alpha=-1 cell runs no job
        assert "alpha must be >= 0" in cells[1]["error"]
        assert cells[2]["error"] == "non-finite state at integration step 3"
        assert np.isnan(cells[2]["median_fitness"]) and cells[2]["n_unique"] == 0
        assert cells[0] == cells[3] and cells[0]["error"] == ""

    def test_extrapolation_experiment(self, tiny_stack, dispatched, monkeypatch):
        _, _, assets = tiny_stack
        rows = self.serial_and_parallel(
            dispatched, monkeypatch, lambda: extrapolation_experiment(
                assets, [0.6, 0.2, 0.6], base_cfg=replace(BASE, seed=4)))
        assert [(r["mode"], r["target_y"]) for r in rows] == [
            ("manifold", 0.6), ("manifold", 0.2), ("manifold", 0.6),
            ("learned_posterior", 0.6), ("learned_posterior", 0.2),
            ("learned_posterior", 0.6)]
        assert dispatched[0] == (6, 1)
        assert rows[0] == rows[2] and rows[3] == rows[5]

    def test_ode_steps_sweep(self, tiny_stack, dispatched, monkeypatch):
        _, _, assets = tiny_stack
        rows = self.serial_and_parallel(dispatched, monkeypatch, lambda: ode_steps_sweep(
            assets, replace(BASE, seed=5), [8, 4, 8]))
        assert [r["steps"] for r in rows] == [8, 4, 8] and dispatched[0] == (3, 1)
        assert rows[0] == rows[2]

    def test_ablation_table(self, tiny_stack, dispatched, monkeypatch):
        _, _, assets = tiny_stack
        rows = self.serial_and_parallel(dispatched, monkeypatch, lambda: ablation_table(
            assets, replace(BASE, seed=6), seeds=[0, 1]))
        assert [r["mode"] for r in rows] == ["manifold", "naive", "learned_posterior"]
        assert dispatched[:3] == [(2, 1)] * 3  # one pool call per mode


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
