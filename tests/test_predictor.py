import numpy as np
import pytest

from _gradcheck import numeric_gradient, rel_err
from seqopt.data import Dataset
from seqopt.errors import ConfigError
from seqopt.landscape import make_landscape, synthetic_full_dataset
from seqopt.nn.autodiff import Tensor
from seqopt.nn.checkpoint import CheckpointError
from seqopt.predictor import (LandscapeOracle, PredictorConfig, PredictorModel,
                              load_external_predictor, save_predictor, train_predictor)
from seqopt.seqs import Vocabulary
from seqopt.tasks import TaskData, task_oracle, train_predictor_stage
from test_landscape import rotation_pool

rng = np.random.default_rng(404)
CFG = PredictorConfig(hidden_channels=8, hidden_dense=16, epochs=80, batch_size=32)


def random_relaxed(d, v, rng):
    """A batch of one (d, v) relaxed one-hot matrix."""
    x = rng.uniform(0.1, 1.0, size=(1, d, v))
    return x / x.sum(axis=-1, keepdims=True)


@pytest.fixture(scope="module")
def toy_regression():
    """Sequences with additive per-token effects; labels in [0, 1]-ish."""
    gen = np.random.default_rng(1)
    effects = gen.uniform(0, 0.1, size=(8, 5))
    seqs = gen.integers(0, 5, size=(400, 8))
    fitness = effects[np.arange(8)[None, :], seqs].sum(axis=1)
    return Dataset.from_arrays(seqs, fitness)


class TestPredict:
    def test_identical_inputs_identical_outputs(self):
        model = PredictorModel.build(8, 5, CFG, seed=0)
        x = random_relaxed(8, 5, rng)
        a = model.predict_tape(Tensor(x, requires_grad=False)).data
        b = model.predict_tape(Tensor(x.copy(), requires_grad=False)).data
        np.testing.assert_array_equal(a, b)

    def test_shape_violation_rejected(self):
        model = PredictorModel.build(8, 5, CFG, seed=0)
        with pytest.raises(ValueError, match="length 7 != predictor length 8"):
            model.predict_sequences(np.zeros((1, 7), dtype=np.int64))

    def test_input_gradient_matches_fd(self):
        model = PredictorModel.build(6, 4, CFG, seed=1)
        x = random_relaxed(6, 4, rng)[0]
        xt = Tensor(x[None])
        model.predict_tape(xt).backward(np.ones(1))

        def f(xv):
            return float(model.predict_tape(Tensor(xv[None], requires_grad=False)).data[0])

        assert rel_err(xt.grad[0], numeric_gradient(f, x.copy())) < 1e-4

    def test_batch_order_does_not_change_predictions(self):
        model = PredictorModel.build(8, 5, CFG, seed=2)
        seqs = rng.integers(0, 5, size=(10, 8))
        solo = np.array([model.predict_sequences(s[None])[0] for s in seqs])
        batch = model.predict_sequences(seqs)
        perm = rng.permutation(10)
        shuffled = model.predict_sequences(seqs[perm])
        np.testing.assert_allclose(batch, solo, atol=1e-12)
        np.testing.assert_allclose(shuffled, batch[perm], atol=1e-12)


class TestTraining:
    def test_constant_fitness_converges_to_constant(self):
        seqs = rng.integers(0, 5, size=(120, 8))
        data = Dataset(seqs, np.full(120, 0.4), 0.0, 1.0)
        model, report = train_predictor(data, CFG, seed=3, vocab_size=5)
        preds = model.predict_sequences(seqs[:50])
        assert report.final_train_mse < 1e-3
        assert report.final_train_mse < report.per_epoch_mse[0] / 100
        np.testing.assert_allclose(preds, 0.4, atol=0.05)

    def test_beats_mean_predictor_on_structured_data(self, toy_regression):
        data = toy_regression
        val = data.subset(np.arange(80))
        train = data.subset(np.arange(80, data.n))
        model, report = train_predictor(train, CFG, seed=4, vocab_size=5,
                                        val_data=val)
        label_var = float(val.normalized_fitness().var())
        assert report.val_mse < 0.5 * label_var

    def test_label_shuffle_control(self, toy_regression):
        # with permuted labels there is nothing to learn: held-out MSE ~ variance
        data = toy_regression
        gen = np.random.default_rng(9)
        shuffled = Dataset(data.sequences, data.fitness[gen.permutation(data.n)],
                           data.y_min, data.y_max)
        val = shuffled.subset(np.arange(80))
        train = shuffled.subset(np.arange(80, data.n))
        model, report = train_predictor(train, CFG, seed=5, vocab_size=5,
                                        val_data=val)
        label_var = float(val.normalized_fitness().var())
        assert report.val_mse > 0.5 * label_var

    def test_prediction_close_to_label_after_training(self, toy_regression):
        data = toy_regression
        model, report = train_predictor(data, CFG, seed=6, vocab_size=5)
        i = 17
        pred = model.predict_sequences(data.sequences[i:i + 1])[0]
        label = data.normalized_fitness()[i]
        tol = max(3 * np.sqrt(report.final_train_mse), 0.05)
        assert abs(pred - label) < tol

    def test_training_deterministic(self, toy_regression):
        m1, r1 = train_predictor(toy_regression, CFG, seed=7, vocab_size=5)
        m2, r2 = train_predictor(toy_regression, CFG, seed=7, vocab_size=5)
        for k in m1.net.params.arrays:
            np.testing.assert_array_equal(m1.net.params.arrays[k], m2.net.params.arrays[k])
        assert r1.per_epoch_mse == r2.per_epoch_mse


class TestOracle:
    def test_oracle_pure(self):
        vocab = Vocabulary.amino_acids()
        ls = make_landscape(seed=12, length=9, vocab=vocab)
        oracle = task_oracle(TaskData("synthetic", vocab, full=None, train=None,
                                      landscape=ls))
        assert isinstance(oracle, LandscapeOracle) and oracle.role == "oracle"
        seqs = rng.integers(0, 20, size=(5, 9))
        np.testing.assert_array_equal(oracle.predict_sequences(seqs),
                                      oracle.predict_sequences(seqs))

    def test_net_oracle_trains_on_raw_labels(self, tmp_path):
        vocab = Vocabulary.amino_acids()
        ls = make_landscape(seed=13, length=8, vocab=vocab)
        full = synthetic_full_dataset(ls, count=300, seed=14,
                                      edit_tokens=rotation_pool(ls.target, vocab.size))
        task = TaskData("csv", vocab, full=full, train=full)
        model, _ = train_predictor_stage(task, 15, PredictorConfig(
            hidden_channels=8, hidden_dense=16, epochs=15), role="oracle")
        with pytest.raises(ConfigError, match="oracle_checkpoint"):
            task_oracle(task)
        save_predictor(model, tmp_path / "oracle.npz")
        oracle = task_oracle(task, tmp_path / "oracle.npz")
        assert oracle.role == "oracle"
        preds = oracle.predict_sequences(full.sequences[:100])
        np.testing.assert_array_equal(preds, model.predict_sequences(full.sequences[:100]))
        # raw-scale outputs: same ballpark as raw fitness, not forced into [0,1]
        assert np.corrcoef(preds, full.fitness[:100])[0, 1] > 0.5


class TestCheckpointing:
    def test_save_load_bitwise_identical_predictions(self, toy_regression, tmp_path):
        model, _ = train_predictor(toy_regression, CFG, seed=8, vocab_size=5)
        p = tmp_path / "pred.npz"
        save_predictor(model, p)
        loaded = load_external_predictor(p)
        assert loaded.role == "predictor"
        seqs = rng.integers(0, 5, size=(20, 8))
        np.testing.assert_array_equal(loaded.predict_sequences(seqs),
                                      model.predict_sequences(seqs))

    def test_wrong_kind_refused(self, tmp_path):
        from seqopt.nn.checkpoint import save_checkpoint
        from seqopt.nn.layers import Network
        net = Network.build([{"kind": "dense", "in": 2, "out": 2}], seed=0)
        p = tmp_path / "x.npz"
        save_checkpoint(p, "flow", net.descriptor, net.params)
        with pytest.raises(CheckpointError, match="kind 'flow' is not 'predictor'"):
            load_external_predictor(p)
