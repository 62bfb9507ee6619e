import numpy as np
import pytest

from _gradcheck import numeric_gradient, rel_err
from seqopt.flow import (FlowModel, FlowTrainConfig, _frequencies, euler_integrate,
                         flow_matching_loss, interpolate, load_flow, save_flow,
                         sinusoidal_embedding, train_flow)
from seqopt.nn import autodiff as ad
from seqopt.nn.checkpoint import CheckpointError, load_checkpoint, save_checkpoint

rng = np.random.default_rng(55)


class ConstantField:
    """Stub velocity model: v(z, t) = c."""

    def __init__(self, c):
        self.c = np.asarray(c, dtype=np.float64)
        self.latent_dim = self.c.size

    def velocity(self, z, t, y=None):
        return np.broadcast_to(self.c, np.atleast_2d(z).shape)


class DecayField:
    """Stub velocity model: v(z, t) = -z."""

    latent_dim = None

    def velocity(self, z, t, y=None):
        return -np.atleast_2d(z)


def zeroed_flow(dim, seed=0, conditional=False):
    model = FlowModel.build(dim, seed=seed, conditional=conditional, hidden=8)
    for arr in model.net.params.arrays.values():
        arr[...] = 0.0
    model.net.refresh()
    return model


class TestInterpolate:
    def test_endpoints_exact(self):
        z0, z1 = rng.standard_normal((2, 7))
        np.testing.assert_array_equal(interpolate(z0, z1, 0.0), z0)
        np.testing.assert_array_equal(interpolate(z0, z1, 1.0), z1)

    def test_midpoint(self):
        z0, z1 = rng.standard_normal((2, 4))
        np.testing.assert_allclose(interpolate(z0, z1, 0.5), (z0 + z1) / 2)

    def test_out_of_range_rejected(self):
        z = rng.standard_normal(3)
        with pytest.raises(ValueError):
            interpolate(z, z, 1.5)
        with pytest.raises(ValueError):
            interpolate(z, z, -0.1)

    def test_per_row_times(self):
        z0 = np.zeros((3, 2))
        z1 = np.ones((3, 2))
        got = interpolate(z0, z1, np.array([0.0, 0.25, 1.0]))
        np.testing.assert_allclose(got, [[0, 0], [0.25, 0.25], [1, 1]])


class TestLoss:
    def test_model_matching_target_gives_zero(self):
        model = zeroed_flow(3)
        z0 = rng.standard_normal((1, 3))
        z1 = rng.standard_normal((1, 3))
        model.net.params.arrays["4.bias"][...] = (z1 - z0)[0]
        model.net.refresh()
        assert flow_matching_loss(model, z1, z0, np.array([0.37])) == pytest.approx(0.0)

    def test_zero_output_model_gives_half_norm(self):
        model = zeroed_flow(5)
        z0 = rng.standard_normal((8, 5))
        z1 = rng.standard_normal((8, 5))
        t = rng.uniform(0, 1, 8)
        want = 0.5 * np.mean(np.sum((z1 - z0) ** 2, axis=1))
        assert flow_matching_loss(model, z1, z0, t) == pytest.approx(want)

    def test_loss_nonnegative(self):
        model = FlowModel.build(4, seed=3, hidden=16)
        for _ in range(10):
            z0, z1 = rng.standard_normal((2, 6, 4))
            assert flow_matching_loss(model, z1, z0, rng.uniform(0, 1, 6)) >= 0

    def test_loss_gradient_matches_fd(self):
        from seqopt.flow import _loss_tape
        model = FlowModel.build(3, seed=4, hidden=8)
        z0 = rng.standard_normal((4, 3))
        z1 = rng.standard_normal((4, 3))
        t = rng.uniform(0, 1, 4)
        model.net.refresh()
        loss = _loss_tape(model, z1, z0, t, None)
        loss.backward()
        name = "0.weight"
        analytic = model.net.params.views(model.net.collect_grads())[name]
        orig = model.net.params.arrays[name].copy()

        def f(pv):
            model.net.params.arrays[name][...] = pv
            val = flow_matching_loss(model, z1, z0, t)
            model.net.params.arrays[name][...] = orig
            return val

        assert rel_err(analytic, numeric_gradient(f, orig.copy())) < 1e-4


class TestEuler:
    def test_constant_field_exact_for_any_steps(self):
        c = np.array([0.5, -1.5, 2.0])
        model = ConstantField(c)
        z0 = rng.standard_normal((4, 3))
        for steps in (1, 7, 32):
            final = euler_integrate(model, z0, steps)[-1]
            np.testing.assert_allclose(final, z0 + c, atol=1e-12)

    def test_linear_decay_matches_recurrence_exactly(self):
        z0 = rng.standard_normal((5, 4))
        final = euler_integrate(DecayField(), z0, steps=32)[-1]
        ref = z0.copy()
        for _ in range(32):
            ref = ref * (1 - 1 / 32)
        np.testing.assert_array_equal(final, ref)
        # and the limit: within 2% of e^{-1} * z0
        np.testing.assert_allclose(final, np.exp(-1) * z0, rtol=0.02)

    def test_trajectory_shape(self):
        traj = euler_integrate(ConstantField(np.zeros(2)), np.zeros((3, 2)), steps=5)
        assert traj.shape == (6, 3, 2)

    def test_non_finite_abort_names_step(self):
        class Exploding:
            def velocity(self, z, t, y=None):
                return np.full_like(np.atleast_2d(z), np.inf) if t > 0.4 else np.zeros_like(np.atleast_2d(z))

        with pytest.raises(FloatingPointError, match="step 5"):
            euler_integrate(Exploding(), np.zeros((1, 2)), steps=10)

    def test_bad_steps(self):
        with pytest.raises(ValueError):
            euler_integrate(DecayField(), np.zeros((1, 2)), steps=0)


class TestTraining:
    def test_point_mass_contraction(self):
        latents = np.zeros((256, 4))
        cfg = FlowTrainConfig(learning_rate=2e-3, batch_size=128, epochs=500, seed=5,
                              hidden=48)
        model, losses = train_flow(latents, cfg)
        z0 = np.random.default_rng(6).standard_normal((64, 4))
        final = euler_integrate(model, z0, steps=32)[-1]
        assert np.linalg.norm(final, axis=1).max() < 0.1 * np.sqrt(4)

    def test_2d_gaussian_moments(self):
        data = np.random.default_rng(7).normal(3.0, 0.5, size=(4096, 2))
        cfg = FlowTrainConfig(learning_rate=1e-3, batch_size=512, epochs=100, seed=8,
                              hidden=64)
        model, losses = train_flow(data, cfg)
        assert losses[-1] < losses[0]
        z0 = np.random.default_rng(9).standard_normal((4096, 2))
        final = euler_integrate(model, z0, steps=32)[-1]
        assert np.abs(final.mean(axis=0) - 3.0).max() < 0.2
        assert np.abs(final.std(axis=0) - 0.5).max() < 0.15

    def test_richardson_step_halving(self):
        data = np.random.default_rng(10).normal(1.5, 0.6, size=(2048, 2))
        cfg = FlowTrainConfig(learning_rate=1e-3, batch_size=512, epochs=60, seed=11,
                              hidden=32)
        model, _ = train_flow(data, cfg)
        z0 = np.random.default_rng(12).standard_normal((128, 2))
        finals = {k: euler_integrate(model, z0, steps=k)[-1] for k in (8, 16, 32)}
        d1 = np.linalg.norm(finals[8] - finals[16], axis=1).mean()
        d2 = np.linalg.norm(finals[16] - finals[32], axis=1).mean()
        assert d2 < d1  # order-1 convergence: halving the step shrinks the change
        assert d1 / d2 < 4.5

    def test_epochs_zero_smoke(self):
        latents = np.random.default_rng(13).standard_normal((64, 3))
        model, losses = train_flow(latents, FlowTrainConfig(epochs=0, seed=14, hidden=8))
        assert losses == []
        final = euler_integrate(model, np.zeros((4, 3)), steps=8)[-1]
        assert np.isfinite(final).all()

    def test_training_deterministic(self):
        latents = np.random.default_rng(15).standard_normal((128, 3))
        cfg = FlowTrainConfig(batch_size=64, epochs=5, seed=16, hidden=16)
        m1, l1 = train_flow(latents, cfg)
        m2, l2 = train_flow(latents, cfg)
        assert l1 == l2
        for k in m1.net.params.arrays:
            np.testing.assert_array_equal(m1.net.params.arrays[k], m2.net.params.arrays[k])


class TestConditional:
    def test_constant_label_matches_unconditional_moments(self):
        data = np.random.default_rng(17).normal(2.0, 0.4, size=(2048, 2))
        cfg = FlowTrainConfig(learning_rate=1e-3, batch_size=512, epochs=80, seed=18,
                              hidden=48)
        uncond, _ = train_flow(data, cfg)
        cond, _ = train_flow(data, cfg, labels=np.full(2048, 0.7))
        z0 = np.random.default_rng(19).standard_normal((2048, 2))
        f_u = euler_integrate(uncond, z0, steps=32)[-1]
        f_c = euler_integrate(cond, z0, steps=32, y=0.7)[-1]
        assert np.abs(f_u.mean(0) - f_c.mean(0)).max() < 0.25
        assert np.abs(f_u.std(0) - f_c.std(0)).max() < 0.2

    def test_conditional_requires_label(self):
        model = FlowModel.build(3, seed=20, conditional=True, hidden=8)
        with pytest.raises(ValueError, match="needs a fitness"):
            model.velocity(np.zeros((1, 3)), 0.5)

    def test_unconditional_rejects_label(self):
        model = FlowModel.build(3, seed=21, hidden=8)
        with pytest.raises(ValueError, match="unconditional"):
            model.velocity(np.zeros((1, 3)), 0.5, y=1.0)


class TestEmbedding:
    def test_shape_and_determinism(self):
        e = sinusoidal_embedding(np.array([0.0, 0.5, 1.0]), dim=8)
        assert e.shape == (3, 8)
        np.testing.assert_array_equal(e, sinusoidal_embedding(np.array([0.0, 0.5, 1.0]), 8))

    def test_distinct_times_distinct_embeddings(self):
        e = sinusoidal_embedding(np.linspace(0, 1, 11), dim=16)
        assert np.abs(e[0] - e[5]).max() > 1e-3

    def test_odd_dim_rejected(self):
        with pytest.raises(ValueError):
            sinusoidal_embedding(np.zeros(2), dim=7)

    def test_frequencies_cached_read_only(self):
        freqs = _frequencies(8, 64.0)
        assert freqs is _frequencies(8, 64.0)
        np.testing.assert_array_equal(freqs, np.geomspace(1.0, 64.0, 8) * np.pi)
        assert not freqs.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            freqs[0] = 0.0


class TestScalarTime:
    """A scalar t (and y) is embedded once and broadcast to the batch; the
    result must equal embedding it per row, to the bit."""

    @pytest.mark.parametrize("t", [0.0, 1.0 / 3.0, 0.71875, 1.0])
    def test_plain_flow_scalar_equals_per_row(self, t):
        model = FlowModel.build(3, seed=22, hidden=8)
        z = np.random.default_rng(23).standard_normal((5, 3))
        rows = np.full(5, t)
        np.testing.assert_array_equal(model.velocity(z, t), model.velocity(z, rows))
        np.testing.assert_array_equal(model.velocity(z, t), model.velocity(z, np.array([t])))
        tape = model.velocity_tape(ad.Tensor(z, requires_grad=False), t).data
        np.testing.assert_array_equal(
            tape, model.velocity_tape(ad.Tensor(z, requires_grad=False), rows).data)

    @pytest.mark.parametrize("t, y", [(0.0, 0.9), (0.40625, -1.5), (0.999, 2.0 / 3.0)])
    def test_conditional_flow_scalar_equals_per_row(self, t, y):
        model = FlowModel.build(3, seed=24, conditional=True, hidden=8)
        z = np.random.default_rng(25).standard_normal((6, 3))
        t_rows, y_rows = np.full(6, t), np.full(6, y)
        np.testing.assert_array_equal(model.velocity(z, t, y),
                                      model.velocity(z, t_rows, y_rows))
        runs = []
        for tt, yy in ((t, y), (t_rows, y_rows)):
            zt = ad.Tensor(z)
            v = model.velocity_tape(zt, tt, yy)
            ad.tsum(v * v).backward()
            runs.append((v.data, zt.grad))
        np.testing.assert_array_equal(runs[0][0], runs[1][0])
        np.testing.assert_array_equal(runs[0][1], runs[1][1])


class TestCheckpoint:
    def _saved(self, tmp_path, conditional=False):
        path = tmp_path / "flow.npz"
        save_flow(FlowModel.build(3, seed=28, conditional=conditional, hidden=8), path)
        return path

    def _resave(self, path, **fields):
        descriptor, params, extra = load_checkpoint(path, "flow")
        extra.update(fields)
        save_checkpoint(path, "flow", descriptor, params, extra)

    def test_absent_max_freq_defaults(self, tmp_path):
        path = self._saved(tmp_path)
        descriptor, params, extra = load_checkpoint(path, "flow")
        del extra["max_freq"]
        save_checkpoint(path, "flow", descriptor, params, extra)
        assert load_flow(path).max_freq == 64.0

    def test_integer_max_freq_accepted(self, tmp_path):
        path = self._saved(tmp_path)
        self._resave(path, max_freq=32)
        model = load_flow(path)
        assert model.max_freq == 32.0 and type(model.max_freq) is float

    @pytest.mark.parametrize("value", ["x", None, 0.0, -64.0, float("nan"), float("inf"),
                                       True, "64.0"])
    def test_bad_max_freq_refused(self, tmp_path, value):
        path = self._saved(tmp_path)
        self._resave(path, max_freq=value)
        with pytest.raises(CheckpointError) as info:
            load_flow(path)
        assert str(info.value) == (f"{path}: metadata field 'max_freq' is {value!r}, "
                                   "not a finite number > 0")

    @pytest.mark.parametrize("name", ["time_embed_dim", "fitness_embed_dim"])
    def test_odd_embedding_width_refused(self, tmp_path, name):
        path = self._saved(tmp_path, conditional=True)
        self._resave(path, **{name: 15})
        with pytest.raises(CheckpointError) as info:
            load_flow(path)
        assert str(info.value) == f"{path}: metadata field {name!r} is 15, not an even width"

    @pytest.mark.parametrize("conditional", [False, True])
    @pytest.mark.parametrize("name", ["time_embed_dim", "fitness_embed_dim", "latent_dim"])
    def test_widths_disagreeing_with_trunk_input_refused(self, tmp_path, conditional, name):
        path = self._saved(tmp_path, conditional=conditional)
        descriptor, _, extra = load_checkpoint(path, "flow")
        self._resave(path, **{name: extra[name] + 2})
        extra[name] += 2
        with pytest.raises(CheckpointError) as info:
            load_flow(path)
        # numpy's own reason follows
        assert str(info.value).startswith(
            f"{path}: metadata fields 'latent_dim' {extra['latent_dim']}, 'time_embed_dim' "
            f"{extra['time_embed_dim']}, 'fitness_embed_dim' {extra['fitness_embed_dim']} give "
            f"input shape ({descriptor[0]['in'] + 2},) and output shape ({extra['latent_dim']},), "
            "but the network fails on that input: ")

    def test_latent_width_disagreeing_with_trunk_output_refused(self, tmp_path):
        path = self._saved(tmp_path)
        self._resave(path, latent_dim=5, time_embed_dim=14)
        with pytest.raises(CheckpointError) as info:
            load_flow(path)
        assert str(info.value) == (
            f"{path}: metadata fields 'latent_dim' 5, 'time_embed_dim' 14, 'fitness_embed_dim' 0 "
            "give input shape (19,) and output shape (5,), but the network returns shape (3,)")
