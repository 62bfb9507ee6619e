"""The one training loop (`nn.optim.fit`) under the VAE, predictor and flow:
its divergence policy, the state it leaves the parameters in, and the exact
weights it trains."""

import hashlib
import json
from dataclasses import asdict

import numpy as np
import pytest

import seqopt.nn.layers as layers
from seqopt.data import Dataset
from seqopt.errors import TrainingDivergedError
from seqopt.flow import FlowTrainConfig, train_flow
from seqopt.nn import autodiff as ad
from seqopt.nn.autodiff import Tensor
from seqopt.nn.checkpoint import params_checksum
from seqopt.nn.layers import Network, NonFiniteError
from seqopt.nn.optim import fit
from seqopt.predictor import PredictorConfig, train_predictor
from seqopt.vae import VaeConfig, train_vae

VAE_CFG = VaeConfig(latent_dim=3, beta=0.01, epochs=3, batch_size=16, hidden_channels=8)
PRED_CFG = PredictorConfig(hidden_channels=4, hidden_dense=8, epochs=3, batch_size=16)
FLOW_CFG = FlowTrainConfig(epochs=3, batch_size=16, seed=5, hidden=8)


def records(n=40):
    seqs = np.random.default_rng(7).integers(0, 5, size=(n, 6))
    return Dataset.from_arrays(seqs, np.linspace(0, 1, n))


def latents(n=40):
    return np.random.default_rng(9).standard_normal((n, 3))


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
