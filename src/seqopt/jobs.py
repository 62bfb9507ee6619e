"""The process pool every parallel path runs on: `Pool`, and `run_jobs`,
one run of a Pool.

`Pool(work, processes)` forks up to `processes` - 1 workers, which it keeps
until `close`, and is a context manager: `with Pool(work, n) as pool:` closes
it on a normal exit and terminates it on an exception. `run(tasks)` returns
[work(*task) for task in tasks]: task k runs on worker k mod n, where the
caller is worker 0. `nn.optim.fit` runs each training batch's 64-sequence
chunks on one kept over the fit. `run_jobs` runs {key: zero-arg callable}
as the one run of a Pool of as many processes as it has jobs, up to
`parallelism`, whose workers exit as soon as they have sent their share;
guided sampling's chain blocks and the VAE's accuracy pass run on it. The
harness keeps one Pool alive across sweeps (`harness._sweep_pool`), with
daemonic workers.

A worker reads the caller's memory as it was at the fork, so `work` reaches
it as the closure it is, and a kept worker runs the code and data it
inherited then, however the caller changes later. A task's arguments and
its result or exception are pickled, one message per worker per run, so a
task for a kept worker names its functions by module and name; what a
worker writes for the caller beyond that goes to memory mapped before the
fork (`shared_array`). Only the process that forked a pool talks to its
workers: a process forked from it closes the caller's end of every live
pool's pipes at once (`_forget_pools`), so a worker reads end-of-file, and
exits, as soon as its caller closes its ends or dies. A worker ignores
SIGINT: a Ctrl-C in the terminal, which reaches every process of the
foreground group, interrupts the caller alone, and the caller's `with`
block (or the harness, for its kept pool) terminates the workers.

One BLAS thread pool per process oversubscribes the cores, so a Pool that
forks holds BLAS at one thread (`one_blas_thread`) from before its first
fork until it is closed, and its workers inherit the pin for life. The pin
counts its holders: the first reads the thread count and sets 1, the last
restores the count, in whatever order they release it, and a process
forked while the count is above 0 never calls OpenBLAS. The caller is
flagged as running jobs (`_running_jobs`) while a run executes, and a
worker for life, so a pool made inside a task runs serially; between the
runs of a kept Pool the caller is not, and a `guided_sample` it calls then
forks its own workers. Every pool, serial ones included, also sets the heap
rule when it is made, before it forks (`_keep_heap`), so tape-sized
temporaries are reused from the malloc heap in the caller and in every
worker. Results are assembled by task, and a failure re-raises the earliest
failing task's exception, so neither the worker count nor the completion
order affects output. A worker that dies, or whose result does not pickle,
is named in a RuntimeError with its exit code.

A pool made inside a task of another, in the caller's share or in a forked
worker, runs its tasks serially in that process, as does every pool where
`fork` does not exist. So a sweep on N processes stays on N processes when
each of its jobs samples through a pool of its own.
"""

from __future__ import annotations

import ctypes
import functools
import itertools
import mmap
import multiprocessing
import os
import signal
import sys
import traceback
import weakref

import numpy as np

# True while a pool runs its tasks, and in a forked worker.
_running_jobs = False
# The holders of the BLAS pin in this process; a forked child inherits them.
_pins = 0
# The OpenBLAS thread count the first holder found, which the last restores.
_unpinned_threads = None
# The pools whose workers this process talks to.
_live = weakref.WeakSet()


def process_cores() -> int:
    """The number of CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def forks(processes: int) -> bool:
    """Whether a pool of `processes` processes made here forks workers: more
    than one process, outside every pool's run, where `fork` exists."""
    return (not _running_jobs and processes > 1
            and "fork" in multiprocessing.get_all_start_methods())


def run_jobs(jobs: dict, parallelism: int = 1) -> dict:
    """Execute {key: zero-arg callable} and return {key: result}, assembled by
    key, as the one run of a Pool of min(parallelism, len(jobs)) processes:
    worker w of n runs the keys at positions w, w + n, ..., and the caller is
    worker 0. A failing job ends its worker's share, and the exception of the
    earliest failing key is re-raised, as in a serial run. Where the pool
    runs serially, so do the jobs."""
    keys = list(jobs)
    with Pool(lambda key: jobs[key](), min(parallelism, len(keys))) as pool:
        return dict(zip(keys, pool.run([(key,) for key in keys], _last=True)))


class Pool:
    """Up to `processes` processes running `work`, the n - 1 workers forked
    here (see the module docstring) and kept until `close`; `daemon` workers
    are ended by multiprocessing's exit hook if the interpreter exits before
    `close`. The tasks run serially where `forks(processes)` is false. The
    heap rule (`_keep_heap`) is set first, and a Pool that forks takes the
    BLAS pin before its first fork, so the workers inherit both; it holds
    the pin until `close` or `terminate`."""

    def __init__(self, work, processes: int, daemon: bool = False):
        _keep_heap()
        self.work, self.workers = work, []
        if not forks(processes):
            return
        _pin()
        _live.add(self)
        try:
            for w in range(1, processes):
                mine, theirs = multiprocessing.Pipe()
                proc = multiprocessing.get_context("fork").Process(
                    target=_worker, name=f"pool worker {w}", args=(work, theirs, mine),
                    daemon=daemon)
                proc.start()
                theirs.close()
                self.workers.append((proc, mine))
        except BaseException:
            self.terminate()
            raise

    def __enter__(self):
        return self

    def __exit__(self, exc_type, *_):
        if exc_type is None:
            self.close()
        else:
            self.terminate()

    def run(self, tasks: list, _last: bool = False) -> list:
        """[work(*task) for task in tasks], dealt as the module docstring
        says. A failing task ends its worker's share of this run, and the
        exception of the earliest failing task is re-raised. `_last` says
        the pool runs nothing more: each worker then exits as soon as it has
        sent its share, so the caller's `join` finds it exiting."""
        global _running_jobs
        nested, _running_jobs = _running_jobs, True
        try:
            return _run(self.work, self.workers, tasks, _last)
        finally:
            _running_jobs = nested

    def alive(self) -> bool:
        """Whether every worker still runs; one that has exited is reaped."""
        return all(proc.is_alive() for proc, _ in self.workers)

    def close(self) -> None:
        """Release the BLAS pin and end the workers: each reads the end of its
        pipe and exits. Reap them."""
        workers, self.workers = self.workers, []
        if self in _live:  # a pool that forked here, not one inherited by a fork
            _live.discard(self)
            _unpin()
        for _, conn in workers:
            conn.close()
        for proc, _ in workers:
            proc.join()

    def terminate(self) -> None:
        """End the workers at once, whatever they are running, and close."""
        for proc, _ in self.workers:
            proc.terminate()
        self.close()


def _forget_pools() -> None:
    """In a process just forked: close the caller's end of every live pool's
    pipes and forget the pools' workers, which only their caller talks to."""
    for live in _live:
        for _, conn in live.workers:
            conn.close()
        live.workers = []
    _live.clear()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_pools)


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


def _run(work, workers: list, tasks: list, _last: bool) -> list:
    """The body of `Pool.run`, on the (process, pipe end) `workers`."""
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


def _worker(work, conn, mine) -> None:
    """Body of a forked worker: ignore SIGINT, flag the process as running
    jobs, and run each share the caller sends and send back its results,
    until the caller closes its end of the pipe (`mine`, which the worker
    closes first) or marks a share the last; then exit at once, without the
    interpreter shutdown the caller waits for in `join`. A result or
    exception that does not pickle raises out of `send`, which ends the
    worker with code 1 and the traceback on stderr."""
    global _running_jobs
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    _running_jobs = True
    mine.close()
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


class one_blas_thread:
    """Hold the BLAS pin for a `with` block: OpenBLAS on one thread until the
    pin's last holder releases it (see the module docstring). A holder in a
    process forked while the pin was held makes no OpenBLAS call:
    `set_num_threads` in a forked child starts a thread that busy-waits
    beside the work. Without OpenBLAS, only the count moves."""

    def __enter__(self):
        _pin()

    def __exit__(self, *exc):
        _unpin()


def _pin() -> None:
    global _pins, _unpinned_threads
    if _pins == 0 and (blas := openblas()) is not None:
        _unpinned_threads = blas("get_num_threads")()
        blas("set_num_threads")(1)
    _pins += 1


def _unpin() -> None:
    global _pins
    _pins -= 1
    if _pins == 0 and (blas := openblas()) is not None:
        blas("set_num_threads")(_unpinned_threads)


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
