"""Adam with bias correction, one elementwise pass over a network's flat
parameter buffer (`ParamStore.flat`) and its flat gradient, and the one
training loop every model here runs through, which the VAE and predictor run
in fixed chunks on the process's cores."""

from __future__ import annotations

import contextlib
import functools

import numpy as np

from .. import jobs
from ..errors import TrainingDivergedError
from .layers import NonFiniteError, ParamStore


BETA1, BETA2, EPSILON = 0.9, 0.999, 1e-8
# rows of a training batch per chunk in a chunked `fit`; the trained bits depend on it
CHUNK_ROWS = 64
# rows per forward pass of `tasks.encode_latents` and the predictor's MSE; not CHUNK_ROWS,
# as a short 64-row last piece takes another BLAS kernel, moving bits the golden files pin
FORWARD_ROWS = 512


class AdamState:
    """First/second moment estimates over a flat parameter buffer of `size`
    entries, the step counter, and a (2, size) scratch buffer for the update."""

    def __init__(self, size: int):
        self.m, self.v, self.step_count = np.zeros(size), np.zeros(size), 0
        self.scratch = np.empty((2, size))


def adam_step(params: ParamStore, grad: np.ndarray, learning_rate: float,
              state: AdamState) -> AdamState:
    """One bias-corrected Adam update from a gradient laid out like
    `params.flat`; mutates `params.flat` in place so its named views, and the
    networks wrapping them, observe the new values.

    The update is `m = b1 m + (1 - b1) g`, `v = b2 v + (1 - b2) g g` and
    `p -= lr m_hat / (sqrt(v_hat) + eps)`, evaluated in that order of
    operations through `state.scratch`, so it allocates no array."""
    if grad.shape != params.flat.shape:
        raise ValueError(f"gradient shape {grad.shape} != parameter shape {params.flat.shape}")
    state.step_count += 1
    step, denom = state.scratch
    state.m *= BETA1
    state.m += np.multiply(grad, 1 - BETA1, out=step)
    state.v *= BETA2
    np.multiply(grad, 1 - BETA2, out=step)
    state.v += np.multiply(step, grad, out=step)
    np.divide(state.m, 1 - BETA1 ** state.step_count, out=step)  # m_hat
    step *= learning_rate
    np.divide(state.v, 1 - BETA2 ** state.step_count, out=denom)  # v_hat
    np.sqrt(denom, out=denom)
    denom += EPSILON
    params.flat -= np.divide(step, denom, out=step)
    return state


def check_training_fields(cfg) -> None:
    """Raise ValueError naming a training config's first bad field among
    learning_rate, batch_size and epochs."""
    if cfg.learning_rate <= 0:
        raise ValueError("learning_rate must be > 0")
    if cfg.batch_size < 1:
        raise ValueError("batch_size must be >= 1")
    if cfg.epochs < 0:
        raise ValueError("epochs must be >= 0")


def fit(nets, batches, loss_tape, learning_rate: float, epochs: int,
        chunked: bool = False) -> list[tuple]:
    """Minimize `loss_tape` over `nets` with Adam, one state per network.

    Each epoch iterates the generator `batches()`; `loss_tape(*batch)` returns
    the loss Tensor and a tuple of floats to report. Returns, per epoch, the
    element-wise sum of those tuples and the batch count. A non-finite
    activation or loss raises TrainingDivergedError naming the epoch. The
    parameter leaves are frozen again when this returns.

    With `chunked`, BLAS runs on one thread, and a batch of more than
    CHUNK_ROWS rows is cut into chunks of CHUNK_ROWS rows, the last one
    shorter: every array of the batch is cut along its first axis, anything
    else goes whole to each chunk. Each chunk's loss and report are weighted
    by its share of the batch's rows, and its gradient is taken on a tape of
    its own; chunk k runs on process k mod P of a `jobs.Pool`, P being the
    process's cores or the chunk count if fewer, the caller being process 0.
    The chunk gradients are summed in chunk order before the one Adam step,
    so the trained bits depend on CHUNK_ROWS but not on the BLAS thread
    count, on P or on which process ran a chunk. A batch of CHUNK_ROWS rows
    or fewer is one tape, as without `chunked`. On return the pool has
    unmapped its shared buffers and dropped `nets` and `loss_tape`, and a
    raised error holds no shared buffer either."""
    if learning_rate <= 0:
        raise ValueError("learning_rate must be > 0")
    states = [AdamState(net.params.flat.size) for net in nets]
    history = []
    with contextlib.ExitStack() as stack:
        gradients = functools.partial(_tape_gradients, nets, loss_tape)
        if chunked:
            stack.enter_context(jobs.one_blas_thread())
            gradients = stack.enter_context(_Chunks(nets, loss_tape))
        for epoch in range(epochs):
            sums, count = (), 0
            for batch in batches():
                diverged = None
                try:
                    grads, report = gradients(batch)
                except NonFiniteError as exc:
                    diverged = f"epoch {epoch}: {exc}"
                # raised outside `except`, it has no context whose traceback holds the pool
                if diverged is not None:
                    raise TrainingDivergedError(diverged)
                for net, grad, state in zip(nets, grads, states):
                    adam_step(net.params, grad, learning_rate, state)
                sums = tuple(a + b for a, b in zip(sums, report)) if sums else tuple(report)
                count += 1
            history.append((sums, count))
    return history


def _tape_gradients(nets, loss_tape, batch, share: float = 1.0):
    """Each network's flat gradient, and the report, of one tape over
    `batch` whose loss is weighted by `share`."""
    for net in nets:
        net.refresh()
    loss, report = loss_tape(*batch)
    if not np.isfinite(loss.data):
        raise NonFiniteError("non-finite loss")
    (loss if share == 1.0 else loss * share).backward()
    return [net.collect_grads() for net in nets], report


class _Chunks:
    """`fit`'s chunked gradient of a batch. The first batch of more than one
    chunk moves the parameters into memory shared with the pool it then
    starts, next to a (chunks, parameters) buffer whose row k receives chunk
    k's gradient; a later batch of more chunks than that starts them anew.
    The pool sets the heap rule when it is made, serial or not, so each
    chunk's tape is reused from the malloc heap (`jobs._keep_heap`). Leaving the
    block ends the pool, moves the parameters back to private memory and
    drops the buffer and the pool. Nothing the pool holds refers back to this
    object, so once `fit` returns or raises, reference counting alone unmaps
    the buffers and frees the networks."""

    def __init__(self, nets, loss_tape):
        self.nets, self.loss_tape = nets, loss_tape
        self.sizes = [net.params.flat.size for net in nets]
        self.rows = np.empty((0, sum(self.sizes)))
        self.stack = contextlib.ExitStack()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.rows = self.run = None  # a raised fit's traceback holds this object
        return self.stack.__exit__(*exc)

    def __call__(self, batch):
        n = len(batch[0])
        if n <= CHUNK_ROWS:
            return _tape_gradients(self.nets, self.loss_tape, batch)
        tasks = [(k, (min(n, start + CHUNK_ROWS) - start) / n,
                  tuple(a[start:start + CHUNK_ROWS] if isinstance(a, np.ndarray) else a
                        for a in batch))
                 for k, start in enumerate(range(0, n, CHUNK_ROWS))]
        if len(tasks) > len(self.rows):
            self._start(len(tasks))
        reports = self.run(tasks)
        # a private sum, as a raised fit's traceback holds `fit`'s last gradients
        grad = self.rows[0] + self.rows[1]
        for row in self.rows[2:len(tasks)]:
            grad += row
        report = tuple(sum(share * value for (_, share, _), value in zip(tasks, column))
                       for column in zip(*reports))
        return np.split(grad, np.cumsum(self.sizes)[:-1]), report

    def _start(self, chunks: int) -> None:
        self.stack.close()
        shared = jobs.shared_array(sum(self.sizes))
        for net, start, size in zip(self.nets, np.cumsum([0] + self.sizes), self.sizes):
            self.stack.callback(net.move_params, np.empty(size))
            net.move_params(shared[start:start + size])
        self.rows = jobs.shared_array((chunks, shared.size))
        work = functools.partial(_chunk, self.nets, self.loss_tape, self.rows)
        pool = jobs.Pool(work, min(jobs.process_cores(), chunks))
        self.run = self.stack.enter_context(pool).run


def _chunk(nets, loss_tape, rows: np.ndarray, k: int, share: float, chunk: tuple) -> tuple:
    """Chunk k's report; its gradient goes to `rows[k]`."""
    grads, report = _tape_gradients(nets, loss_tape, chunk, share)
    np.concatenate(grads, out=rows[k])
    return report
