"""The one training loop (`nn.optim.fit`) under the VAE, predictor and flow:
its divergence policy, the state it leaves the parameters in, the exact
weights it trains, and its chunked form, whose bits depend on neither the BLAS
thread count nor the number of processes."""

import collections
import gc
import hashlib
import json
import multiprocessing
import os
import platform
import subprocess
import sys
from dataclasses import asdict
from pathlib import Path

import numpy as np
import pytest

import seqopt.nn.layers as layers
from seqopt import jobs, sampling
from seqopt.data import Dataset
from seqopt.errors import TrainingDivergedError
from seqopt.flow import FlowModel, FlowTrainConfig, train_flow
from seqopt.harness import run_benchmark
from seqopt.jobs import run_jobs
from seqopt.nn import autodiff as ad
from seqopt.nn import optim
from seqopt.nn.autodiff import Tensor
from seqopt.nn.checkpoint import params_checksum
from seqopt.nn.layers import Network, NonFiniteError
from seqopt.nn.optim import fit
from seqopt.predictor import PredictorConfig, PredictorModel, train_predictor
from seqopt.vae import VaeConfig, VaeModel, reconstruction_accuracy, train_vae
from test_harness import BASE, time_limit

VAE_CFG = VaeConfig(latent_dim=3, beta=0.01, epochs=3, batch_size=16, hidden_channels=8)
PRED_CFG = PredictorConfig(hidden_channels=4, hidden_dense=8, epochs=3, batch_size=16)
FLOW_CFG = FlowTrainConfig(epochs=3, batch_size=16, seed=5, hidden=8)


def records(n=40):
    seqs = np.random.default_rng(7).integers(0, 5, size=(n, 6))
    return Dataset.from_arrays(seqs, np.linspace(0, 1, n))


def latents(n=40):
    return np.random.default_rng(9).standard_normal((n, 3))


def cyclic_garbage(call) -> collections.Counter:
    """The objects, counted by type, that `call()`, run with the collector
    off, leaves for a garbage collection to free: those in reference cycles."""
    gc.collect()
    gc.disable()
    try:
        call()
    finally:
        gc.enable()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        gc.collect()
        return collections.Counter(type(obj).__name__ for obj in gc.garbage)
    finally:
        gc.set_debug(0)
        gc.garbage.clear()


def shared_mappings() -> set:
    """The address ranges of this process's shared writable mappings; none
    where there is no /proc/self/maps."""
    try:
        with open("/proc/self/maps") as fh:
            return {fields[0] for fields in map(str.split, fh) if fields[1] == "rw-s"}
    except FileNotFoundError:
        return set()


@pytest.fixture
def nan_first_bias(monkeypatch):
    """Every network built from here on has a NaN bias in layer 0."""
    init = layers.init_params

    def poisoned(descriptor, seed):
        params = init(descriptor, seed)
        params.arrays["0.bias"][0] = np.nan
        return params

    monkeypatch.setattr(layers, "init_params", poisoned)


def test_trained_weights_pinned():
    """Checksums of tiny runs, taken before the three trainers shared `fit`.
    A change that reorders floating-point sums in training moves them; such a
    change updates these pins and says so in CHANGES.md."""
    def h(report):
        return hashlib.sha256(json.dumps(report).encode()).hexdigest()[:16]

    vae, vae_report = train_vae(records(), VAE_CFG, seed=3, vocab_size=5)
    pred, pred_report = train_predictor(records(), PRED_CFG, seed=4, vocab_size=5)
    flow, flow_losses = train_flow(latents(), FLOW_CFG)
    cond, cond_losses = train_flow(latents(), FLOW_CFG, labels=np.linspace(0, 1, 40))
    got = {"vae_encoder": params_checksum(vae.encoder.params)[:16],
           "vae_decoder": params_checksum(vae.decoder.params)[:16],
           "predictor": params_checksum(pred.net.params)[:16],
           "flow": params_checksum(flow.net.params)[:16],
           "flow_conditional": params_checksum(cond.net.params)[:16],
           "reports": [h(asdict(vae_report)), h(asdict(pred_report)),
                       h(flow_losses), h(cond_losses)]}
    assert got == {"vae_encoder": "3841aa4343f83501", "vae_decoder": "7e74a4e31be0812e",
                   "predictor": "0ff1589980b58d42", "flow": "6029ef72e99e32b9",
                   "flow_conditional": "b0cd35f9b8c104d9",
                   "reports": ["62564f6f7e35b8a7", "bc0d27c5b3cb059f",
                               "9aad9a15badead75", "b62e9ab3fe303591"]}


def test_parameter_leaves_frozen_after_training():
    vae, _ = train_vae(records(), VAE_CFG, seed=3, vocab_size=5)
    pred, _ = train_predictor(records(), PRED_CFG, seed=4, vocab_size=5)
    flow, _ = train_flow(latents(), FLOW_CFG)
    leaves = [t for net in (vae.encoder, vae.decoder, pred.net, flow.net)
              for t in net._tensors.values()]
    assert leaves
    assert all(not t.requires_grad and t.grad is None for t in leaves)


class TestDivergence:
    LAYER = r"^epoch 0: layer 0 \((conv1d|dense)\) produced non-finite values$"

    def test_vae_non_finite_activation(self, nan_first_bias):
        with pytest.raises(TrainingDivergedError, match=self.LAYER):
            train_vae(records(), VAE_CFG, seed=3, vocab_size=5)

    def test_vae_non_finite_loss(self):
        cfg = VaeConfig(latent_dim=3, beta=np.inf, epochs=2, hidden_channels=8)
        with pytest.raises(TrainingDivergedError, match="^epoch 0: non-finite loss$"):
            train_vae(records(), cfg, seed=3, vocab_size=5)

    def test_predictor_non_finite_activation(self, nan_first_bias):
        with pytest.raises(TrainingDivergedError, match=self.LAYER):
            train_predictor(records(), PRED_CFG, seed=4, vocab_size=5)

    def test_predictor_non_finite_loss(self):
        # finite raw labels whose squared residual overflows
        data = Dataset(records().sequences, np.full(40, 1e200), 0.0, 2e200)
        with np.errstate(over="ignore"), \
                pytest.raises(TrainingDivergedError, match="^epoch 0: non-finite loss$"):
            train_predictor(data, PRED_CFG, seed=4, vocab_size=5, role="oracle")

    def test_flow_non_finite_activation(self):
        z = latents()
        z[11, 1] = np.nan
        with pytest.raises(TrainingDivergedError,
                           match=r"^epoch 0: layer 0 \(dense\) produced non-finite values$"):
            train_flow(z, FLOW_CFG)

    def test_flow_non_finite_loss(self):
        with np.errstate(over="ignore"), \
                pytest.raises(TrainingDivergedError, match="^epoch 0: non-finite loss$"):
            train_flow(latents() * 1e160, FLOW_CFG)


class TestFit:
    def net(self):
        return Network.build([{"kind": "dense", "in": 2, "out": 1}], seed=0)

    def test_epoch_sums_and_batch_counts(self):
        net = self.net()
        x = np.ones((3, 2))

        def batches():
            yield x, 1.0
            yield x[:1], 2.0

        def loss_tape(xb, w):
            loss = ad.tmean(net.apply(Tensor(xb, requires_grad=False))) * 0.0
            return loss, (w, xb.shape[0])

        assert fit([net], batches, loss_tape, 0.1, 2) == [((3.0, 4), 2), ((3.0, 4), 2)]

    def test_batches_drawn_between_steps(self):
        net = self.net()
        events = []

        def batches():
            for i in range(2):
                events.append(f"draw {i}")
                yield (i,)

        def loss_tape(i):
            events.append(f"step {i}")
            return ad.tsum(net.apply(Tensor(np.ones((1, 2)), requires_grad=False))), ()

        fit([net], batches, loss_tape, 0.1, 2)
        assert events == ["draw 0", "step 0", "draw 1", "step 1"] * 2

    @pytest.mark.parametrize("epoch", [0, 2])
    def test_divergence_names_the_epoch(self, epoch):
        net = self.net()
        seen = []

        def loss_tape():
            seen.append(None)
            scale = np.nan if len(seen) > epoch else 1.0
            return ad.tsum(net.apply(Tensor(np.ones((1, 2)), requires_grad=False))) * scale, ()

        with pytest.raises(TrainingDivergedError, match=f"^epoch {epoch}: non-finite loss$"):
            fit([net], lambda: iter([()]), loss_tape, 0.1, 5)

    def test_layer_failure_names_the_epoch(self):
        net = self.net()
        seen = []

        def loss_tape():
            seen.append(None)
            if len(seen) == 2:
                raise NonFiniteError("layer 0 (dense) produced non-finite values")
            return ad.tsum(net.apply(Tensor(np.ones((1, 2)), requires_grad=False))), ()

        with pytest.raises(TrainingDivergedError,
                           match=r"^epoch 1: layer 0 \(dense\) produced non-finite values$"):
            fit([net], lambda: iter([()]), loss_tape, 0.1, 3)


def hard_shape_data():
    """202 sequences of length 20 over 20 tokens: batches of 128 and 74 rows."""
    rng = np.random.default_rng(11)
    return Dataset.from_arrays(rng.integers(0, 20, size=(202, 20)), rng.random(202))


def hard_shape_training(epochs=1):
    """A VAE and a predictor of the hard config's widths (48 and 24 channels)
    trained at its batch size of 128 on `hard_shape_data`, and an
    unconditional and a conditional flow of its width (a 128-wide trunk)
    trained at its batch size of 256 on 600 latents of its 14 dimensions
    (batches of 256, 256 and 88 rows): the networks' checksums, and the VAE's
    and the predictor's per-epoch reports."""
    data = hard_shape_data()
    vae, vae_report = train_vae(data, VaeConfig(epochs=epochs), seed=0, vocab_size=20)
    pred, pred_report = train_predictor(data, PredictorConfig(epochs=epochs), seed=1,
                                        vocab_size=20)
    rng = np.random.default_rng(13)
    z, y = rng.standard_normal((600, 14)), rng.random(600)
    flow_cfg = FlowTrainConfig(epochs=epochs, seed=2)
    flow, cond_flow = train_flow(z, flow_cfg)[0], train_flow(z, flow_cfg, labels=y)[0]
    checksums = {name: params_checksum(net.params) for name, net in
                 (("vae_encoder", vae.encoder), ("vae_decoder", vae.decoder),
                  ("predictor", pred.net), ("flow", flow.net),
                  ("conditional_flow", cond_flow.net))}
    return checksums, vae_report.per_epoch, pred_report.per_epoch_mse


# Print hard_shape_training()'s checksums from a process pinned to the one CPU argv[1].
ONE_CPU_TRAINING = """
import json, os, sys
os.sched_setaffinity(0, {int(sys.argv[1])})
from seqopt import jobs
from test_training import hard_shape_training
assert jobs.process_cores() == 1
print(json.dumps(hard_shape_training()[0]))
"""

# Minor page faults of the caller in a 2-epoch VAE fit at the hard config's
# shapes, 16 batches of 128 rows in two 64-row chunks on 2 processes, in a
# process that has freed no large array; argv[1] "skip" stubs out the heap
# rule that every pool sets on entry.
FRESH_PROCESS_FIT = """
import resource, sys
import numpy as np
from seqopt import jobs
from seqopt.data import Dataset
from seqopt.vae import VaeConfig, train_vae
if sys.argv[1] == "skip":
    jobs._keep_heap = lambda: None
jobs.process_cores = lambda: 2
rng = np.random.default_rng(0)
data = Dataset.from_arrays(rng.integers(0, 20, size=(2048, 20)), rng.uniform(size=2048))
cfg = VaeConfig(latent_dim=14, hidden_channels=48, epochs=2, batch_size=128)
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
train_vae(data, cfg, seed=0, vocab_size=20)
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""


@pytest.fixture
def blas_threads():
    """Set OpenBLAS's thread count for the test; the original is restored after."""
    blas = jobs.openblas()
    if blas is None:
        pytest.skip("no OpenBLAS loaded")
    get, set_ = blas("get_num_threads"), blas("set_num_threads")
    original = get()
    yield set_
    set_(original)


class TestChunkedFit:
    """`fit(..., chunked=True)`, the VAE's and the predictor's: 64-row chunks,
    one BLAS thread each, on the process's cores."""

    def test_bits_independent_of_threads_and_cores(self, blas_threads):
        """Batches of 128 and 74 rows at the hard config's widths: at these
        sizes one tape over the batch gives other bits on 2 BLAS threads than
        on 1, and the 64-row chunks give the same bits on 2 threads (with the
        chunks on this process's cores), on 1, and in a process on one CPU.
        The flows, one tape per batch of up to 256 rows, give the same bits
        in all three as well."""
        blas_threads(2)
        two_threads = hard_shape_training()[0]
        blas_threads(1)
        one_thread = hard_shape_training()[0]
        tests = Path(__file__).resolve().parent
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            [str(tests.parent / "src"), str(tests), os.environ.get("PYTHONPATH", "")])}
        cpu = min(os.sched_getaffinity(0))
        done = subprocess.run([sys.executable, "-c", ONE_CPU_TRAINING, str(cpu)], env=env,
                              capture_output=True, text=True, timeout=300)
        assert done.returncode == 0, done.stderr
        one_cpu = json.loads(done.stdout.splitlines()[-1])
        assert two_threads == one_thread == one_cpu

    def test_reports_match_one_tape_per_batch(self, monkeypatch):
        _, vae_chunked, pred_chunked = hard_shape_training(epochs=2)
        monkeypatch.setattr(optim, "CHUNK_ROWS", 10 ** 9)  # every batch one tape
        _, vae_whole, pred_whole = hard_shape_training(epochs=2)
        assert len(vae_chunked) == len(pred_chunked) == 2
        for chunked, whole in zip(vae_chunked, vae_whole):
            assert chunked.keys() == whole.keys()
            for key in chunked:
                assert chunked[key] == pytest.approx(whole[key], rel=1e-12, abs=0)
        assert pred_chunked == pytest.approx(pred_whole, rel=1e-12, abs=0)


class TestChunkPoolLifetime:
    """No worker of a chunked `fit` outlives it, and the caller's BLAS thread
    count is restored, whether it returns, diverges or is interrupted."""

    BATCH = np.arange(8.0).reshape(4, 2)  # two 2-row chunks; chunk 1 runs on worker 1

    @pytest.fixture
    def forked(self, monkeypatch, blas_threads):
        """Two processes and 2-row chunks, whatever this host's cores; yields
        the pids the fit forks, and checks afterwards that each was reaped and
        that BLAS is back at the 3 threads the test set."""
        monkeypatch.setattr(optim, "CHUNK_ROWS", 2)
        monkeypatch.setattr(jobs, "process_cores", lambda: 2)
        pids, fork = [], os.fork

        def recording_fork():
            pid = fork()
            if pid:
                pids.append(pid)
            return pid

        monkeypatch.setattr(os, "fork", recording_fork)
        blas_threads(3)
        with time_limit(60):
            yield pids
        assert pids
        for pid in pids:
            with pytest.raises(ChildProcessError):  # reaped: neither running nor a zombie
                os.waitpid(pid, os.WNOHANG)
        assert multiprocessing.active_children() == []
        assert jobs.openblas()("get_num_threads")() == 3

    def fit(self, batches, epochs=3, poison_epoch=None):
        """Fit a dense net on `batches`; from epoch `poison_epoch` on, the rows
        of the batch's second chunk are NaN, and loss_tape checks that they
        reach it in a forked worker, not in the caller."""
        net = Network.build([{"kind": "dense", "in": 2, "out": 1}], seed=0)
        caller, epoch = os.getpid(), [-1]

        def loss_tape(x):
            if np.isnan(x).any() and os.getpid() == caller:
                raise AssertionError("the poisoned chunk ran in the caller")
            return ad.tmean(net.apply(Tensor(x, requires_grad=False))), (float(x.sum()),)

        def counted():
            epoch[0] += 1
            for batch in batches():
                if poison_epoch is not None and epoch[0] >= poison_epoch:
                    batch = (np.concatenate([batch[0][:2], np.full((2, 2), np.nan)]),)
                yield batch
        return fit([net], counted, loss_tape, 0.1, epochs, chunked=True)

    def test_returns(self, forked):
        history = self.fit(lambda: iter([(self.BATCH,)]))
        # each chunk's report, the sum of its rows, is weighted by its share, 1/2
        assert history == [((self.BATCH.sum() / 2,), 1)] * 3

    def test_worker_chunk_diverges(self, forked):
        with pytest.raises(TrainingDivergedError,
                           match=r"^epoch 1: layer 0 \(dense\) produced non-finite values$"):
            self.fit(lambda: iter([(self.BATCH,)]), poison_epoch=1)

    def test_divergence_leaves_no_cycle(self, forked):
        """A fit whose worker chunk diverges frees its shared buffers while
        the caller still holds the error, and leaves nothing for a collection
        to free once it lets go."""
        before, held = shared_mappings(), []

        def call():
            try:
                self.fit(lambda: iter([(self.BATCH,)]), poison_epoch=1)
            except TrainingDivergedError as exc:
                held.append((exc.__context__ is None, shared_mappings() - before))
        assert cyclic_garbage(call) == {}
        assert held == [(True, set())]

    def test_parameters_private_again(self, forked):
        """After the fit, the parameters are out of the shared mapping: a
        worker forked later writes only its own copy, and the network's leaves
        wrap the private buffer."""
        net = Network.build([{"kind": "dense", "in": 2, "out": 1}], seed=0)
        x = Tensor(self.BATCH, requires_grad=False)
        fit([net], lambda: iter([(self.BATCH,)]),
            lambda xb: (ad.tmean(net.apply(Tensor(xb, requires_grad=False))), ()),
            0.1, 2, chunked=True)
        trained, out = net.params.flat.copy(), net.apply(x).data.copy()

        def clobber():
            net.params.flat[:] = 0.0
        run_jobs({0: lambda: None, 1: clobber}, parallelism=2)
        assert net.params.flat.tobytes() == trained.tobytes()
        net.params.arrays["0.bias"][0] += 1.0
        assert np.allclose(net.apply(x).data, out + 1.0, rtol=0.0, atol=1e-12)

    def test_interrupted_while_drawing_a_batch(self, forked):
        def batches():
            yield (self.BATCH,)
            raise KeyboardInterrupt
        with pytest.raises(KeyboardInterrupt):
            self.fit(batches)

    @pytest.mark.parametrize("train", [
        lambda: train_vae(records(), VAE_CFG, seed=3, vocab_size=5),
        lambda: train_predictor(records(), PRED_CFG, seed=4, vocab_size=5),
    ], ids=["train_vae", "train_predictor"])
    def test_leaves_no_cycle(self, forked, train):
        """Once a chunked fit returns, reference counting alone has freed its
        pool's buffers and networks: a collection finds nothing, and no shared
        mapping the fit made is left."""
        before = shared_mappings()
        assert cyclic_garbage(train) == {}
        assert shared_mappings() - before == set()


@pytest.mark.parametrize("entry", ["train_flow", "reconstruction_accuracy", "guided_sample",
                                   "run_benchmark"])
def test_other_entry_points_leave_no_cycle(entry, monkeypatch, request):
    """Nor do the flow's unchunked fit and the pools of the VAE's accuracy
    pass, of a two-block guided sample and of a two-seed benchmark, each on 2
    processes, leave anything for a garbage collection to free."""
    monkeypatch.setattr("seqopt.vae.process_cores", lambda: 2)
    monkeypatch.setattr(sampling, "process_cores", lambda: 2)
    model = VaeModel.build(6, 5, VaeConfig(latent_dim=3, hidden_channels=8), seed=0)
    if entry == "train_flow":
        def call():
            train_flow(latents(), FLOW_CFG)
    elif entry == "reconstruction_accuracy":
        data = records(3 * optim.CHUNK_ROWS)  # three pieces

        def call():
            reconstruction_accuracy(model, data)
    elif entry == "guided_sample":
        flow = FlowModel.build(3, seed=1, hidden=16)
        pred = PredictorModel.build(6, 5, PredictorConfig(hidden_channels=8, hidden_dense=16),
                                    seed=2)
        cfg = sampling.SamplerConfig(steps=2, guidance_steps=1, alpha=0.05,
                                     batch=2 * sampling.CHAIN_BLOCK, top_k=4)

        def call():
            sampling.guided_sample(cfg, flow, model, pred)
    else:
        assets = request.getfixturevalue("tiny_stack")[2]

        def call():
            run_benchmark(assets, BASE, [0, 1], parallelism=2)
    with time_limit(120):
        assert cyclic_garbage(call) == {}


@pytest.mark.parametrize("failing", [0, 1], ids=["caller", "worker"])
def test_failing_run_jobs_leaves_no_cycle(failing):
    """A two-worker `run_jobs` whose job fails, in the caller's share or in
    the forked worker, leaves no frame or traceback for a collection to free
    once its error is let go."""
    def job(k):
        def run():
            if k == failing:
                raise ValueError(f"job {k}")
            return k
        return run

    def call():
        try:
            run_jobs({k: job(k) for k in range(2)}, parallelism=2)
        except ValueError as exc:
            assert str(exc) == f"job {failing}"
    with time_limit(60):
        assert cyclic_garbage(call) == {}


class TestBlasPinnedOnce:
    """Only the outermost `jobs.one_blas_thread` calls OpenBLAS. A pin inside
    a forked worker would start a thread that busy-waits beside the work, so
    a chunked `fit` in a forked job, or a pool inside a pool, leaves the pin
    it inherits alone."""

    @pytest.fixture
    def calls(self, monkeypatch):
        """OpenBLAS replaced by a stub at 3 threads: the calls the caller
        makes, as (name, args), and a shared count of the calls made in any
        other process."""
        caller, threads, elsewhere, mine = os.getpid(), [3], jobs.shared_array(1), []

        def blas(name):
            def call(*args):
                if os.getpid() == caller:
                    mine.append((name, args))
                else:
                    elsewhere[0] += 1
                if name == "set_num_threads":
                    threads[0] = args[0]
                return threads[0]
            return call

        monkeypatch.setattr(jobs, "openblas", lambda: blas)
        return mine, elsewhere

    @staticmethod
    def outermost_only(calls):
        """The caller made the outermost pin's read, set and restore, and no
        process made any other call."""
        mine, elsewhere = calls
        assert elsewhere[0] == 0
        assert mine == [("get_num_threads", ()), ("set_num_threads", (1,)),
                        ("set_num_threads", (3,))]

    def test_chunked_fit_in_a_forked_job(self, calls, monkeypatch):
        monkeypatch.setattr(optim, "CHUNK_ROWS", 2)
        batch = np.arange(8.0).reshape(4, 2)  # two 2-row chunks

        def job():
            net = Network.build([{"kind": "dense", "in": 2, "out": 1}], seed=0)
            fit([net], lambda: iter([(batch,)]),
                lambda xb: (ad.tmean(net.apply(Tensor(xb, requires_grad=False))), ()),
                0.1, 2, chunked=True)
            return os.getpid()

        with time_limit(60):
            pids = run_jobs({0: job, 1: job}, parallelism=2)
        assert pids[0] == os.getpid() != pids[1]  # job 1 ran in a forked worker
        self.outermost_only(calls)

    def test_pool_in_a_pool(self, calls):
        def outer(k):
            with jobs.pool(lambda j: os.getpid(), 2) as run:
                return run([(j,) for j in range(3)])

        with time_limit(60), jobs.pool(outer, 2) as run:
            done = run([(0,), (1,)])
        # task 0 opened its pool in the caller, task 1 in a forked worker
        assert done[0] == [os.getpid()] * 3 and done[1][0] != os.getpid()
        self.outermost_only(calls)


class TestHeapRule:
    """Every `jobs.pool`, serial and nested ones included, sets the heap rule
    (`jobs._keep_heap`) once on entry, in the process that opens it and
    before it forks, so its workers inherit it; nothing else sets it."""

    @pytest.fixture
    def rules(self, monkeypatch):
        """The rule, counted in any process instead of set."""
        count = jobs.shared_array(1)

        def keep_heap():
            count[0] += 1

        monkeypatch.setattr(jobs, "_keep_heap", keep_heap)
        return count

    def test_once_per_run_jobs(self, rules):
        def nested():
            return run_jobs({0: os.getpid, 1: os.getpid}, parallelism=2)

        with time_limit(60):
            pids = run_jobs({0: os.getpid, 1: os.getpid}, parallelism=2)
            assert pids[0] != pids[1] and rules[0] == 1
            run_jobs({0: os.getpid}, parallelism=1)  # a serial pool
            assert rules[0] == 2
            # one outer pool, and a serial inner one in the caller and a worker
            run_jobs({0: nested, 1: nested}, parallelism=2)
        assert rules[0] == 2 + 3

    def test_once_in_guided_sample_on_two_cores(self, rules, monkeypatch):
        monkeypatch.setattr(sampling, "process_cores", lambda: 2)
        vae = VaeModel.build(6, 5, VaeConfig(latent_dim=3, hidden_channels=8), seed=0)
        flow = FlowModel.build(3, seed=1, hidden=16)
        pred = PredictorModel.build(6, 5, PredictorConfig(hidden_channels=8, hidden_dense=16),
                                    seed=2)
        cfg = sampling.SamplerConfig(steps=2, guidance_steps=1, alpha=0.05,
                                     batch=2 * sampling.CHAIN_BLOCK, top_k=4)
        with time_limit(60):
            sampling.guided_sample(cfg, flow, vae, pred)  # two blocks, one in a worker
        assert rules[0] == 1

    def test_once_per_training_pool_start(self, rules, monkeypatch):
        monkeypatch.setattr(optim, "CHUNK_ROWS", 2)
        monkeypatch.setattr(jobs, "process_cores", lambda: 2)
        net = Network.build([{"kind": "dense", "in": 2, "out": 1}], seed=0)
        # 2 chunks start a pool, 2 reuse it, 3 start another, 1 is one tape
        rows = (4, 4, 6, 2)
        with time_limit(60):
            fit([net], lambda: iter([(np.ones((n, 2)),) for n in rows]),
                lambda xb: (ad.tmean(net.apply(Tensor(xb, requires_grad=False))), ()),
                0.1, 1, chunked=True)
        assert rules[0] == 2

    @pytest.mark.skipif(platform.libc_ver()[0] != "glibc",
                        reason="measures glibc's heap trimming")
    def test_fresh_process_chunked_fit_reuses_tapes(self):
        # without the rule, each chunk's tape is returned to the OS when
        # released and faulted in again by the next step (about 3.8k faults
        # per step here, against about 7k for the whole fit)
        src = str(Path(jobs.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            [src] + [p for p in [os.environ.get("PYTHONPATH")] if p])}
        faults = {}
        for variant in ("keep", "skip"):
            out = subprocess.run([sys.executable, "-c", FRESH_PROCESS_FIT, variant],
                                 capture_output=True, text=True, check=True, env=env,
                                 timeout=300)
            faults[variant] = int(out.stdout)
        assert 10 * faults["keep"] < faults["skip"], faults
