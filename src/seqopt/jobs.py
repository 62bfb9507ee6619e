"""The process pools every parallel path runs on: `run_jobs` and `pool`.

`run_jobs` deals {key: zero-arg callable} round-robin by position to up to
`parallelism` processes: the caller runs one share and forked workers run
the others. The jobs reach the workers by fork, as the closures they are, so
only results and exceptions are pickled. BLAS is pinned to one thread for
the duration, because one BLAS thread pool per process oversubscribes the
cores; only the outermost pin calls OpenBLAS, and a pin nested in a job or
a worker leaves it be. Results are assembled by key and a failure re-raises
the earliest failing key's exception, so neither the worker count nor the
completion order affects output.

A `run_jobs` call made inside a job of another, in the caller's share or in
a forked worker, runs its jobs serially in that process. So a sweep on N
processes stays on N processes when each of its jobs samples through a
pool of its own.

`pool` keeps its forked workers for the life of a `with` block, for a loop
that hands them small tasks many times over: `nn.optim.fit` runs each
training batch's 64-sequence chunks on it. A task's inputs reach its worker
over a pipe, and what a worker writes for the caller beyond its pickled
result goes to memory mapped before the fork (`shared_array`). The same rules
hold: BLAS on one thread in every process, the earliest failing task's
exception re-raised, serial inside a job of another pool or `run_jobs` call.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import itertools
import mmap
import multiprocessing
import os
import sys
import traceback

import numpy as np

# True while a run_jobs call or a pool runs its jobs; forked workers inherit it.
_running_jobs = False
# True while the outermost `one_blas_thread` block holds BLAS at one thread;
# forked workers inherit it.
_blas_pinned = False


def process_cores() -> int:
    """The number of CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def run_jobs(jobs: dict, parallelism: int = 1) -> dict:
    """Execute {key: zero-arg callable} and return {key: result}, assembled by
    key. With parallelism > 1, worker w of n = min(parallelism, len(jobs))
    runs keys[w::n]: the caller is worker 0 and the others are forked
    processes, all with one BLAS thread. A failing job ends its worker's share,
    and the exception of the earliest failing key is re-raised, as in a serial
    run. The jobs run serially where `fork` does not exist and inside a job of
    another `run_jobs` call."""
    global _running_jobs
    keys = list(jobs)
    workers = min(parallelism, len(keys))
    nested, _running_jobs = _running_jobs, True
    try:
        if nested or workers <= 1 or "fork" not in multiprocessing.get_all_start_methods():
            return {key: jobs[key]() for key in keys}
        return _run_forked(jobs, keys, workers)
    finally:
        _running_jobs = nested


def _run_forked(jobs: dict, keys: list, workers: int) -> dict:
    context = multiprocessing.get_context("fork")
    with one_blas_thread():
        started = []
        try:
            for w in range(1, workers):
                receive, send = context.Pipe(duplex=False)
                proc = context.Process(target=_worker, args=(jobs, keys[w::workers], send),
                                       name=f"run_jobs worker {w}")
                proc.start()
                send.close()  # the worker now holds the only writing end
                started.append((proc, receive))
            shares = [_run_share(jobs, keys[::workers])]
            shares += [_receive(proc, receive) for proc, receive in started]
        except BaseException:
            for proc, _ in started:
                proc.terminate()
            raise
        finally:
            for proc, receive in started:
                receive.close()
                proc.join()
    return _assemble(shares, keys)


def _assemble(shares: list, keys: list) -> dict:
    """{key: result} from the workers' shares, in key order, or the exception
    of the earliest failing key."""
    done, failures = {}, {}
    position = {key: i for i, key in enumerate(keys)}
    for results, failure in shares:
        done.update(results)
        if failure is not None:
            key, exc, text = failure
            failures[position[key]] = exc, text
    if failures:
        exc, text = failures[min(failures)]
        if exc.__traceback__ is not None:  # raised in this process
            raise exc
        raise exc from _WorkerTraceback(text)
    return {key: done[key] for key in keys}


def _run_share(jobs: dict, keys: list):
    """({key: result}, None), or the results before the first failing key and
    (key, exception, its traceback as text)."""
    results = {}
    for key in keys:
        try:
            results[key] = jobs[key]()
        except Exception as exc:
            return results, (key, exc, traceback.format_exc())
    return results, None


def _worker(jobs: dict, keys: list, send) -> None:
    """Body of a forked worker: run its share, send it back and exit at once,
    without the interpreter shutdown the caller waits for in `join`. A result
    or exception that does not pickle ends the worker before anything is sent."""
    send.send(_run_share(jobs, keys))
    sys.stdout.flush()
    sys.stderr.flush()
    os._exit(0)


def _receive(proc, receive):
    try:
        return receive.recv()
    except EOFError:
        proc.join()
        raise RuntimeError(f"{proc.name} (pid {proc.pid}) exited with code "
                           f"{proc.exitcode} before returning its results") from None


class _WorkerTraceback(Exception):
    """The traceback, as text, of a job that failed in a forked worker."""

    def __str__(self):
        return "\n" + self.args[0]


@contextlib.contextmanager
def pool(work, processes: int):
    """Yield `run(tasks)`, which returns [work(*task) for task in tasks], on
    up to `processes` processes kept for the life of the block: task k runs on
    worker k mod n, where the caller is worker 0 and the n - 1 others are
    forked on entry. BLAS runs on one thread in every process inside the block.
    The tasks go to the workers pickled, one message per worker per `run`, and
    the results come back the same way; a worker reads the caller's memory as
    it was at the fork, except for `shared_array`s made before entry, which
    both sides see written. A failing task ends its worker's share of that
    `run`, and the exception of the earliest failing task is re-raised. The
    tasks run serially where `fork` does not exist and inside a job of a
    `run_jobs` call or another pool. No worker outlives the block: on a normal
    exit each reads the end of its pipe and exits, on an exception it is
    terminated, and either way it is reaped."""
    global _running_jobs
    nested, _running_jobs = _running_jobs, True
    workers = []
    try:
        with one_blas_thread():
            if not nested and processes > 1 and "fork" in multiprocessing.get_all_start_methods():
                _keep_heap()
                context = multiprocessing.get_context("fork")
                for w in range(1, processes):
                    mine, theirs = context.Pipe()
                    # the worker closes the caller's end of every pipe it inherits,
                    # so it reads end-of-file once the caller closes its own
                    proc = context.Process(target=_pool_worker, name=f"pool worker {w}",
                                           args=(work, theirs, [c for _, c in workers] + [mine]))
                    proc.start()
                    theirs.close()
                    workers.append((proc, mine))
            yield functools.partial(_run_pool, work, workers)
    except BaseException:
        for proc, _ in workers:
            proc.terminate()
        raise
    finally:
        for proc, conn in workers:
            conn.close()
            proc.join()
        _running_jobs = nested


def _run_pool(work, workers: list, tasks: list) -> list:
    n = len(workers) + 1
    keys = list(range(len(tasks)))
    busy = workers[:len(keys) - 1]  # worker w runs keys[w::n]
    for w, (_, conn) in enumerate(busy, 1):
        conn.send([(k, tasks[k]) for k in keys[w::n]])
    shares = [_run_share({k: functools.partial(work, *tasks[k]) for k in keys[::n]}, keys[::n])]
    shares += [_receive(proc, conn) for proc, conn in busy]
    return list(_assemble(shares, keys).values())


def _pool_worker(work, conn, inherited: list) -> None:
    """Body of a pool worker: run each share the caller sends and send back
    its results, until the caller closes its end of the pipe."""
    for end in inherited:
        end.close()
    try:
        while True:
            try:
                tasks = conn.recv()
            except EOFError:
                break
            conn.send(_run_share({k: functools.partial(work, *task) for k, task in tasks},
                                 [k for k, _ in tasks]))
    finally:
        sys.stdout.flush()
        sys.stderr.flush()
        os._exit(0)


def _keep_heap() -> None:
    """Have glibc's malloc keep up to 64 MiB of freed memory at the top of
    the heap and serve requests under 32 MiB from the heap: the values its
    dynamic rule settles at once a 32 MiB block has been freed. Without this,
    the heap gives a training step's temporaries back to the kernel and takes
    them again every step, and while a forked child shares the heap each
    page of that comes back as a 4 KiB fault, on both sides: about 120,000
    faults per hard-config VAE fit, against 5,000 with it. A no-op without
    glibc."""
    mallopt = getattr(ctypes.CDLL(None), "mallopt", None)
    if mallopt is not None:
        mallopt.argtypes, mallopt.restype = [ctypes.c_int, ctypes.c_int], ctypes.c_int
        mallopt(-3, 32 << 20)  # M_MMAP_THRESHOLD
        mallopt(-1, 64 << 20)  # M_TRIM_THRESHOLD


def shared_array(shape) -> np.ndarray:
    """A float64 array of zeros in anonymous shared memory: a process forked
    after this call and its parent see each other's writes to it."""
    size = int(np.prod(shape))
    return np.frombuffer(mmap.mmap(-1, max(size, 1) * 8), np.float64, size).reshape(shape)


@contextlib.contextmanager
def one_blas_thread():
    """Pin the OpenBLAS numpy loaded to one thread, and restore the caller's
    count on exit; forked workers inherit the pin. Inside another such block,
    in this process or in a worker forked within one, the pin is in force and
    this is a no-op: OpenBLAS's `set_num_threads` in a forked child starts a
    thread that busy-waits beside the work. Without OpenBLAS, a no-op."""
    global _blas_pinned
    blas = None if _blas_pinned else openblas()
    if blas is None:
        yield
        return
    get, set_ = blas("get_num_threads"), blas("set_num_threads")
    before = get()
    set_(1)
    _blas_pinned = True
    try:
        yield
    finally:
        _blas_pinned = False
        set_(before)


@functools.cache
def openblas():
    """The OpenBLAS mapped into this process as a function from a name
    ("get_num_threads") to the ctypes function of that name, or None without
    OpenBLAS. numpy 2 wheels export scipy_openblas_*64_, older wheels
    openblas_*64_, a system OpenBLAS plain openblas_*."""
    try:
        with open("/proc/self/maps") as fh:
            fields = [line.split(maxsplit=5) for line in fh]
    except OSError:  # no /proc on this platform
        return None
    paths = sorted({f[5].strip() for f in fields if len(f) == 6 and "openblas" in f[5]})
    for path in paths:
        try:
            lib = ctypes.CDLL(path)
        except OSError:  # e.g. a mapping whose file was replaced since
            continue
        for prefix, suffix in itertools.product(("scipy_openblas", "openblas"), ("64_", "")):
            if hasattr(lib, f"{prefix}_get_num_threads{suffix}"):
                return lambda name: getattr(lib, f"{prefix}_{name}{suffix}")
    return None
