"""The process pool every parallel path runs on: `pool`, and `run_jobs`, one
run of a pool.

`pool(work, processes)` keeps up to `processes` processes for the life of a
`with` block and yields `run(tasks)`, which returns
[work(*task) for task in tasks]: task k runs on worker k mod n, where the
caller is worker 0 and the n - 1 others are forked on entry. `nn.optim.fit`
runs each training batch's 64-sequence chunks on a pool kept over the fit.
`run_jobs` runs {key: zero-arg callable} as one run of a pool of as many
processes as it has jobs, up to `parallelism`, whose workers exit as soon as
they have sent their share; the sweeps, the sampler's chain blocks and the
VAE's accuracy pass run on it.

A worker reads the caller's memory as it was at the fork, so the callables
reach it as the closures they are. A task's arguments and its result or
exception are pickled, one message per worker per run; what a worker writes
for the caller beyond that goes to memory mapped before the fork
(`shared_array`). While a pool has forked workers, BLAS runs on one thread in
every process, because one BLAS thread pool per process oversubscribes the
cores; only the outermost pin calls OpenBLAS, and a pin nested in a job or a
worker leaves it be. Every pool, serial ones included, also sets the heap
rule on entry, before it forks (`_keep_heap`), so tape-sized temporaries are
reused from the malloc heap in the caller and in every worker. Results are
assembled by task, and a failure re-raises the earliest failing task's
exception, so neither the worker count nor the completion order affects
output. A worker that dies, or whose result does not pickle, is named in a
RuntimeError with its exit code.

A pool or `run_jobs` call made inside a task of another, in the caller's
share or in a forked worker, runs its tasks serially in that process, as
does every pool where `fork` does not exist. So a sweep on N processes stays
on N processes when each of its jobs samples through a pool of its own.
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

# True while a pool runs its tasks; forked workers inherit it.
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
    key, as one run of a `pool` of min(parallelism, len(jobs)) processes:
    worker w of n runs the keys at positions w, w + n, ..., and the caller is
    worker 0. A failing job ends its worker's share, and the exception of the
    earliest failing key is re-raised, as in a serial run. Where the pool
    runs serially, so do the jobs."""
    keys = list(jobs)
    with pool(lambda key: jobs[key](), min(parallelism, len(keys))) as run:
        return dict(zip(keys, run([(key,) for key in keys], _last=True)))


@contextlib.contextmanager
def pool(work, processes: int):
    """Yield `run(tasks)`, which returns [work(*task) for task in tasks], on
    up to `processes` processes kept for the life of the block: task k runs on
    worker k mod n, where the caller is worker 0 and the n - 1 others are
    forked on entry, every process then on one BLAS thread. A failing task
    ends its worker's share of that `run`, and the exception of the earliest
    failing task is re-raised. The tasks run serially where `fork` does not
    exist and inside a task of another pool. The heap rule (`_keep_heap`) is
    set first, so the workers inherit it. No worker outlives the block: on
    a normal exit each reads the end of its pipe and exits, on an exception
    it is terminated, and either way it is reaped."""
    global _running_jobs
    _keep_heap()
    fork = (not _running_jobs and processes > 1
            and "fork" in multiprocessing.get_all_start_methods())
    nested, _running_jobs = _running_jobs, True
    workers = []
    try:
        with one_blas_thread() if fork else contextlib.nullcontext():
            for w in range(1, processes if fork else 1):
                mine, theirs = multiprocessing.Pipe()
                # the worker closes the caller's end of every pipe it inherits,
                # so it reads end-of-file once the caller closes its own
                proc = multiprocessing.get_context("fork").Process(
                    target=_worker, name=f"pool worker {w}",
                    args=(work, theirs, [c for _, c in workers] + [mine]))
                proc.start()
                theirs.close()
                workers.append((proc, mine))
            yield functools.partial(_run, work, workers)
    except BaseException:
        for proc, _ in workers:
            proc.terminate()
        raise
    finally:
        for proc, conn in workers:
            conn.close()
            proc.join()
        _running_jobs = nested


def _keep_heap() -> None:
    """The heap rule: allocate and free one 16 MiB buffer, never written.

    glibc's malloc serves a request above its mmap threshold from a fresh
    mapping, and gives the top of its heap back to the kernel whenever more
    than its trim threshold lies free there. Freeing a mapped buffer of up
    to 32 MiB raises the two thresholds to its size and twice that, so from
    here on glibc serves tape-sized requests (a 64-row tape is about 8 MB at
    the hard config) from the heap and keeps up to 32 MiB free at its top.
    Without it, a process that has freed no large array hands each tape
    back to the kernel and faults it in again on the next use, one 4 KiB
    page at a time, and while a forked child shares the heap both sides
    pay: in a fresh process, a 2-epoch VAE fit on the hard task's training
    set took 128,000 faults in the caller against 7,200, and a 64-chain
    guided sample 25,900 against 2,500. No result bit depends on it; under
    another allocator it is one unused allocation."""
    np.empty(16 << 20, dtype=np.uint8)


def _run(work, workers: list, tasks: list, _last: bool = False) -> list:
    """One `run` of a pool. `_last` says the pool runs nothing more: each
    worker then exits as soon as it has sent its share, instead of waiting
    for the end of the block, so the caller's `join` finds it exiting."""
    n, numbered = len(workers) + 1, list(enumerate(tasks))
    busy = workers[:len(tasks) - 1]
    for w, (_, conn) in enumerate(busy, 1):
        conn.send((numbered[w::n], _last))
    shares = [_run_share(work, numbered[::n])]
    shares += [_receive(proc, conn) for proc, conn in busy]
    done, failures = {}, {}
    for results, failure in shares:
        done.update(results)
        if failure is not None:
            failures[failure[0]] = failure
    if not failures:
        return [done[k] for k in range(len(tasks))]
    _, exc, text = failures[min(failures)]
    # the raised exception's traceback holds this frame, so the frame keeps no
    # reference to it, which would make a cycle only a collection frees
    del shares, failure, failures
    try:
        if exc.__traceback__ is not None:  # raised in this process
            raise exc
        raise exc from _WorkerTraceback(text)
    finally:
        del exc


def _run_share(work, share: list):
    """({k: result}, None) for the numbered tasks [(k, task)], or the results
    before the first failing task and (k, exception, its traceback as text)."""
    results = {}
    for k, task in share:
        try:
            results[k] = work(*task)
        except Exception as exc:
            return results, (k, exc, traceback.format_exc())
    return results, None


def _worker(work, conn, inherited: list) -> None:
    """Body of a forked worker: run each share the caller sends and send back
    its results, until the caller closes its end of the pipe or marks a share
    the last; then exit at once, without the interpreter shutdown the caller
    waits for in `join`. A result or exception that does not pickle raises
    out of `send`, which ends the worker with code 1 and the traceback on
    stderr."""
    for end in inherited:
        end.close()
    last = False
    while not last:
        try:
            share, last = conn.recv()
        except EOFError:
            break
        conn.send(_run_share(work, share))
    sys.stdout.flush()
    sys.stderr.flush()
    os._exit(0)


def _receive(proc, conn):
    try:
        return conn.recv()
    except EOFError:
        proc.join()
        raise RuntimeError(f"{proc.name} (pid {proc.pid}) exited with code "
                           f"{proc.exitcode} before returning its results") from None


class _WorkerTraceback(Exception):
    """The traceback, as text, of a task that failed in a forked worker."""

    def __str__(self):
        return "\n" + self.args[0]


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
