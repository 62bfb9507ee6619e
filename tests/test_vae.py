import numpy as np
import pytest

from _gradcheck import numeric_gradient, rel_err
from seqopt.data import Dataset
from seqopt.nn.autodiff import Tensor
from seqopt import vae as vae_module
from seqopt.nn.checkpoint import CheckpointError, load_checkpoint, save_checkpoint
from seqopt.nn.optim import CHUNK_ROWS
from seqopt.tasks import encode_latents
from seqopt.vae import (VaeConfig, VaeModel, _loss_tape, load_vae, reconstruction_accuracy,
                        sample_vae_prior, save_vae, train_vae)

rng = np.random.default_rng(77)


def loss_values(model, seqs, noise):
    """(total, reconstruction, kl) of the training loss tape, as floats."""
    return tuple(float(t.data) for t in _loss_tape(model, seqs, noise))


def tiny_model(length=6, vocab=5, latent=3, seed=0, hidden=8):
    cfg = VaeConfig(latent_dim=latent, beta=0.01, hidden_channels=hidden)
    return VaeModel.build(length, vocab, cfg, seed)


@pytest.fixture(scope="module")
def overfit_model():
    """A model driven to perfect reconstruction on 8 memorized records."""
    seqs = np.random.default_rng(5).integers(0, 5, size=(8, 6))
    data = Dataset.from_arrays(seqs, np.linspace(0, 1, 8))
    cfg = VaeConfig(latent_dim=4, beta=1e-4, learning_rate=3e-3, epochs=400,
                    batch_size=8, hidden_channels=16)
    model, report = train_vae(data, cfg, seed=1, vocab_size=5)
    return model, data, report


class StubNoise:
    """Stands in for the generator `encode_latents` draws its noise from."""

    def __init__(self, eps):
        self.eps = np.asarray(eps, dtype=np.float64)

    def standard_normal(self, shape):
        return np.broadcast_to(self.eps, shape).copy()


def fixed_head_model(mean, log_variance):
    """A model whose encoder emits the same posterior for every sequence."""
    model = tiny_model(latent=len(mean), seed=15)
    model.encoder.params.arrays["5.weight"][...] = 0.0
    model.encoder.params.arrays["5.bias"][...] = [*mean, *log_variance]
    return model


def random_records(n):
    return Dataset.from_arrays(rng.integers(0, 5, size=(n, 6)), np.linspace(0, 1, n))


class TestReparameterize:
    """z = mean + exp(log_variance / 2) * eps, as `encode_latents` draws it."""

    def test_zero_noise_returns_mean(self, monkeypatch):
        model = tiny_model(seed=16)
        data = random_records(5)
        monkeypatch.setattr(np.random, "default_rng", lambda seed: StubNoise(0.0))
        mean, _ = model.encode_batch(data.sequences)
        np.testing.assert_array_equal(encode_latents(model, data, seed=0), mean)

    def test_unit_sigma_basis_noise(self, monkeypatch):
        model = fixed_head_model([1.0, -2.0], [0.0, 0.0])
        monkeypatch.setattr(np.random, "default_rng", lambda seed: StubNoise([1.0, 0.0]))
        z = encode_latents(model, random_records(3), seed=0)
        np.testing.assert_allclose(z, np.tile([2.0, -2.0], (3, 1)))

    def test_monte_carlo_variance(self):
        model = fixed_head_model([0.0, 0.0, 0.0], [0.8, -1.2, 0.0])
        data = random_records(100_000)
        _, logvar = model.encode_batch(data.sequences[:1])
        sample_var = encode_latents(model, data, seed=3).var(axis=0)
        np.testing.assert_allclose(sample_var, np.exp(logvar[0]), rtol=0.05)


class TestEncodeDecode:
    def test_shapes_for_aav_style_config(self):
        # d=28 sequences, 20-token alphabet, 16-dim latent
        cfg = VaeConfig(latent_dim=16, beta=0.01, hidden_channels=8)
        model = VaeModel.build(28, 20, cfg, seed=0)
        seq = rng.integers(0, 20, size=28)
        mean, logvar = model.encode_batch(seq[None])
        assert mean.shape == (1, 16) and logvar.shape == (1, 16)
        logits = model.decode_logits_batch(rng.standard_normal((1, 16)))
        assert logits.shape == (1, 28, 20)

    def test_encode_deterministic(self):
        model = tiny_model()
        seq = rng.integers(0, 5, size=6)
        mean_a, logvar_a = model.encode_batch(seq[None])
        mean_b, logvar_b = model.encode_batch(seq[None])
        np.testing.assert_array_equal(mean_a, mean_b)
        np.testing.assert_array_equal(logvar_a, logvar_b)

    def test_log_variance_bounded(self):
        model = tiny_model(seed=3)
        model.encoder.params.arrays["5.bias"][...] = 1e6  # drive raw head huge
        _, logvar = model.encode_batch(rng.integers(0, 5, size=(1, 6)))
        assert np.all(np.abs(logvar) <= 10.0)

    def test_softmax_rows_sum_to_one(self):
        model = tiny_model()
        probs = model.decode_probs_tape(Tensor(rng.standard_normal((2, 3)))).data
        np.testing.assert_allclose(probs.sum(axis=-1), np.ones((2, 6)))

    def test_argmax_tie_breaks_to_lower_index(self):
        model = tiny_model()
        logits = np.zeros((1, 6, 5))
        logits[0, 2, 1] = logits[0, 2, 3] = 7.0  # exact two-way tie
        # argmax semantics checked on the raw path the model uses
        assert logits.argmax(axis=-1)[0, 2] == 1

    def test_decode_tokens_matches_logits_argmax(self):
        model = tiny_model(seed=2)
        z = rng.standard_normal((4, 3))
        np.testing.assert_array_equal(model.decode_tokens_batch(z),
                                      model.decode_logits_batch(z).argmax(axis=-1))

    def test_decode_input_gradient_matches_fd(self):
        import seqopt.nn.autodiff as ad
        model = tiny_model(seed=4)
        z = rng.standard_normal((1, 3))
        probe = rng.standard_normal((1, 6, 5))
        zt = Tensor(z.copy())
        loss = ad.tsum(model.decode_logits_tape(zt) * Tensor(probe))
        loss.backward()

        def f(zv):
            return float((model.decode_logits_batch(zv) * probe).sum())

        assert rel_err(zt.grad, numeric_gradient(f, z.copy())) < 1e-4

    def test_decode_gradient_finite_in_6_sigma_ball(self):
        import seqopt.nn.autodiff as ad
        model = tiny_model(seed=6)
        for _ in range(10):
            z = rng.uniform(-6, 6, size=(1, 3))
            zt = Tensor(z)
            ad.tsum(model.decode_logits_tape(zt)).backward()
            assert np.isfinite(zt.grad).all()

    def test_length_mismatch_rejected(self):
        model = tiny_model()
        with pytest.raises(ValueError, match="length"):
            model.encode_batch(np.zeros((1, 9), dtype=np.int64))
        with pytest.raises(ValueError, match="latent"):
            model.decode_logits_batch(np.zeros((1, 7)))


class TestVaeLoss:
    def test_kl_zero_when_posterior_equals_prior(self):
        model = tiny_model(seed=8)
        # freeze encoder head at exactly mean=0, logvar=0
        model.encoder.params.arrays["5.weight"][...] = 0.0
        model.encoder.params.arrays["5.bias"][...] = 0.0
        seqs = rng.integers(0, 5, size=(3, 6))
        _, _, kl = loss_values(model, seqs, np.zeros((3, 3)))
        assert kl == pytest.approx(0.0, abs=1e-9)

    def test_kl_closed_form_unit_mean(self):
        # mean=1 in every dim, logvar=0, one latent dim -> KL = 0.5
        model = tiny_model(latent=1, seed=9)
        model.encoder.params.arrays["5.weight"][...] = 0.0
        model.encoder.params.arrays["5.bias"][...] = [1.0, 0.0]
        seqs = rng.integers(0, 5, size=(2, 6))
        _, _, kl = loss_values(model, seqs, np.zeros((2, 1)))
        assert kl == pytest.approx(0.5, abs=1e-9)

    def test_uniform_logits_give_log_vocab_reconstruction(self):
        model = tiny_model(vocab=20, seed=10)
        for name, arr in model.decoder.params.arrays.items():
            arr[...] = 0.0  # decoder emits all-zero logits == uniform
        seqs = rng.integers(0, 20, size=(4, 6))
        _, recon, _ = loss_values(model, seqs, np.zeros((4, 3)))
        assert recon == pytest.approx(np.log(20), abs=1e-9)

    def test_kl_nonnegative_random_models(self):
        for seed in range(5):
            model = tiny_model(seed=seed)
            seqs = rng.integers(0, 5, size=(3, 6))
            _, _, kl = loss_values(model, seqs, rng.standard_normal((3, 3)))
            assert kl >= 0

    def test_total_is_recon_plus_beta_kl(self):
        model = tiny_model(seed=11)
        seqs = rng.integers(0, 5, size=(3, 6))
        total, recon, kl = loss_values(model, seqs, rng.standard_normal((3, 3)))
        assert total == pytest.approx(recon + model.config.beta * kl)

    def test_loss_gradient_matches_fd_probe_parameter(self):
        model = tiny_model(seed=12)
        seqs = rng.integers(0, 5, size=(2, 6))
        noise = rng.standard_normal((2, 3))
        model.encoder.refresh()
        total, _, _ = _loss_tape(model, seqs, noise)
        total.backward()
        name = "0.weight"  # encoder conv probe
        analytic = model.encoder.params.views(model.encoder.collect_grads())[name]
        orig = model.encoder.params.arrays[name].copy()

        def f(pv):
            model.encoder.params.arrays[name][...] = pv
            val, _, _ = loss_values(model, seqs, noise)
            model.encoder.params.arrays[name][...] = orig
            return val

        assert rel_err(analytic, numeric_gradient(f, orig.copy())) < 1e-4


class TestTraining:
    def test_overfit_reaches_perfect_reconstruction(self, overfit_model):
        model, data, report = overfit_model
        assert reconstruction_accuracy(model, data) == 1.0
        assert report.final_accuracy == 1.0

    def test_loss_decreases(self, overfit_model):
        _, _, report = overfit_model
        assert report.per_epoch[-1]["total"] < report.per_epoch[0]["total"]

    def test_epochs_zero_near_chance(self):
        seqs = np.random.default_rng(6).integers(0, 5, size=(64, 6))
        data = Dataset.from_arrays(seqs, np.linspace(0, 1, 64))
        cfg = VaeConfig(latent_dim=3, beta=0.01, epochs=0, hidden_channels=8)
        model, report = train_vae(data, cfg, seed=2, vocab_size=5)
        assert report.per_epoch == []
        assert report.final_accuracy < 0.5  # chance is 1/5

    def test_training_deterministic(self):
        seqs = np.random.default_rng(7).integers(0, 5, size=(32, 6))
        data = Dataset.from_arrays(seqs, np.linspace(0, 1, 32))
        cfg = VaeConfig(latent_dim=3, beta=0.01, epochs=3, batch_size=16,
                        hidden_channels=8)
        m1, r1 = train_vae(data, cfg, seed=3, vocab_size=5)
        m2, r2 = train_vae(data, cfg, seed=3, vocab_size=5)
        for k in m1.encoder.params.arrays:
            np.testing.assert_array_equal(m1.encoder.params.arrays[k],
                                          m2.encoder.params.arrays[k])
        assert r1.per_epoch == r2.per_epoch

    def test_one_token_change_moves_the_mean(self, overfit_model):
        model, data, _ = overfit_model
        seq = data.sequences[0].copy()
        mean_a, _ = model.encode_batch(seq[None])
        seq2 = seq.copy()
        seq2[2] = (seq2[2] + 1) % 5
        mean_b, _ = model.encode_batch(seq2[None])
        assert np.abs(mean_a - mean_b).max() > 1e-6

    def test_accuracy_invariant_to_record_order(self, overfit_model):
        model, data, _ = overfit_model
        shuffled = data.subset(np.random.default_rng(8).permutation(data.n))
        assert reconstruction_accuracy(model, shuffled) == \
            reconstruction_accuracy(model, data)

    @pytest.mark.parametrize("cores", [1, 2])
    def test_accuracy_in_pieces_equals_whole_batch_count(self, monkeypatch, cores):
        monkeypatch.setattr(vae_module, "process_cores", lambda: cores)
        model = tiny_model(seed=16)
        data = random_records(3 * CHUNK_ROWS + 17)
        decoded = model.decode_tokens_batch(model.encode_batch(data.sequences)[0])
        correct = int((decoded == data.sequences).sum())
        assert 0 < correct < data.sequences.size
        assert reconstruction_accuracy(model, data) == correct / data.sequences.size

    def test_constant_decoder_accuracy_equals_token_frequency(self):
        model = tiny_model(vocab=5, seed=13)
        for name, arr in model.decoder.params.arrays.items():
            arr[...] = 0.0
        model.decoder.params.arrays["5.bias"][...] = [0, 0, 0, 9.0, 0]  # always token 3
        seqs = rng.integers(0, 5, size=(50, 6))
        data = Dataset.from_arrays(seqs, np.linspace(0, 1, 50))
        freq = (seqs == 3).mean()
        assert reconstruction_accuracy(model, data) == pytest.approx(freq)


class TestPriorSampling:
    def test_count_zero(self):
        model = tiny_model()
        assert sample_vae_prior(model, 0, seed=0).shape == (0, 6)

    def test_fixed_seed_reproducible(self):
        model = tiny_model(seed=14)
        a = sample_vae_prior(model, 20, seed=5)
        b = sample_vae_prior(model, 20, seed=5)
        np.testing.assert_array_equal(a, b)
        c = sample_vae_prior(model, 20, seed=6)
        assert not np.array_equal(a, c)


class TestCheckpoints:
    def test_round_trip_bitwise(self, tmp_path):
        model = tiny_model()
        save_vae(model, tmp_path)
        loaded = load_vae(tmp_path)
        assert loaded.config == model.config
        assert (loaded.length, loaded.vocab_size) == (model.length, model.vocab_size)
        for a, b in ((model.encoder, loaded.encoder), (model.decoder, loaded.decoder)):
            assert a.params.flat.tobytes() == b.params.flat.tobytes()

    def test_disagreement_names_both_files_and_each_field(self, tmp_path):
        save_vae(tiny_model(), tmp_path)
        decoder = tmp_path / "vae_decoder.npz"
        descriptor, params, extra = load_checkpoint(decoder, "vae_decoder")
        save_checkpoint(decoder, "vae_decoder", descriptor, params,
                        {**extra, "beta": 0.5, "hidden_channels": 9})
        with pytest.raises(CheckpointError) as info:
            load_vae(tmp_path)
        assert str(info.value) == (
            f"{tmp_path / 'vae_encoder.npz'} and {decoder} disagree: "
            "'beta' is 0.01 against 0.5; 'hidden_channels' is 8 against 9")
