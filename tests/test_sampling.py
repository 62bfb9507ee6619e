import os
import platform
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from _gradcheck import numeric_gradient, rel_err
from seqopt import sampling
from seqopt.errors import ConfigError
from seqopt.flow import FlowModel, euler_integrate
from seqopt.nn.autodiff import Tensor
from seqopt.nn.layers import NonFiniteError
from seqopt.predictor import PredictorConfig, PredictorModel
from seqopt.sampling import (CHAIN_BLOCK, SamplerConfig, _objective_tape,
                             _select_top_k, guidance_step, guided_sample,
                             initial_latents)
from seqopt.vae import VaeConfig, VaeModel

rng = np.random.default_rng(606)

D, V, L = 6, 5, 3

# Minor page faults of one 64-chain guided sample at the hard config's model
# shapes, in a process that has freed no large array; argv[1] "skip" leaves
# out the freed buffer that keeps block tapes on the heap.
FRESH_PROCESS_SAMPLE = """
import resource, sys
from seqopt import sampling
from seqopt.flow import FlowModel
from seqopt.predictor import PredictorConfig, PredictorModel
from seqopt.vae import VaeConfig, VaeModel
if sys.argv[1] == "skip":
    sampling._keep_tapes_on_heap = lambda: None
vae = VaeModel.build(20, 20, VaeConfig(latent_dim=14, hidden_channels=48), seed=0)
flow = FlowModel.build(14, seed=1, hidden=128)
pred = PredictorModel.build(20, 20, PredictorConfig(hidden_channels=24, hidden_dense=64),
                            seed=2)
cfg = sampling.SamplerConfig(steps=4, guidance_steps=2, alpha=0.5, batch=64, top_k=8)
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
sampling.guided_sample(cfg, flow, vae, pred)
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""


@pytest.fixture(scope="module")
def stack():
    vae = VaeModel.build(D, V, VaeConfig(latent_dim=L, beta=0.01, hidden_channels=8), seed=0)
    flow = FlowModel.build(L, seed=1, hidden=16)
    pred = PredictorModel.build(D, V, PredictorConfig(hidden_channels=8, hidden_dense=16), seed=2)
    return vae, flow, pred


class ConstantField:
    def __init__(self, c):
        self.c = np.asarray(c, dtype=np.float64)
        self.latent_dim = self.c.size
        self.conditional = False

    def velocity_tape(self, z, t, y=None):
        return Tensor(np.broadcast_to(self.c, z.shape), requires_grad=False)


class TestEndpointExtrapolation:
    """Manifold guidance scores the endpoint z + (1 - t - dt) * v(z, t) and
    differentiates at z. Under a constant field c the endpoint is z shifted by
    (1 - t - dt) * c, so the manifold step at z is the naive step at the
    shifted state, shifted back."""

    @staticmethod
    def assert_shifted_naive_step(stack, t, dt):
        vae, _, pred = stack
        field = ConstantField([1.0, -2.0, 0.5])
        z = rng.standard_normal((3, L))
        offset = (1.0 - t - dt) * field.c
        manifold = guidance_step(z, field, vae, pred, 1.0, 0.3, t, dt, manifold=True)
        naive = guidance_step(z + offset, field, vae, pred, 1.0, 0.3, t, dt,
                              manifold=False)
        np.testing.assert_allclose(manifold, naive - offset, atol=1e-12)

    def test_constant_field_algebra(self, stack):
        self.assert_shifted_naive_step(stack, t=0.0, dt=0.25)
        self.assert_shifted_naive_step(stack, t=0.5, dt=0.125)

    def test_vanishing_coefficient_at_last_step(self, stack):
        self.assert_shifted_naive_step(stack, t=1 - 1 / 8, dt=1 / 8)

    def test_single_step_case(self, stack):
        self.assert_shifted_naive_step(stack, t=0.0, dt=1.0)


class TestForMode:
    GUIDED = SamplerConfig(steps=4, guidance_steps=3, alpha=0.2, batch=8, top_k=4,
                           mode="manifold", seed=5, target_y=0.7)

    @pytest.mark.parametrize("mode", ["unconditional", "learned_posterior"])
    def test_unguided_modes_drop_guidance(self, mode):
        cfg = self.GUIDED.for_mode(mode)
        assert cfg == replace(self.GUIDED, mode=mode, alpha=0.0, guidance_steps=0)

    @pytest.mark.parametrize("mode", ["manifold", "naive"])
    def test_guided_modes_keep_guidance(self, mode):
        cfg = self.GUIDED.for_mode(mode)
        assert cfg == replace(self.GUIDED, mode=mode)


class TestGuidanceStep:
    def test_alpha_zero_is_identity(self, stack):
        vae, flow, pred = stack
        z = rng.standard_normal((4, L))
        out = guidance_step(z, flow, vae, pred, 1.0, 0.0, 0.25, 0.125)
        np.testing.assert_array_equal(out, z)

    def test_stationary_at_exact_target(self, stack):
        vae, flow, _ = stack
        pred = PredictorModel.build(D, V, PredictorConfig(hidden_channels=8,
                                                          hidden_dense=16), seed=3)
        for arr in pred.net.params.arrays.values():
            arr[...] = 0.0  # predictor outputs exactly 0 everywhere
        pred.net.refresh()
        z = rng.standard_normal((3, L))
        out = guidance_step(z, flow, vae, pred, target_y=0.0, alpha=0.5,
                            t=0.25, dt=0.125)
        np.testing.assert_array_equal(out, z)

    def test_full_chain_gradient_matches_fd(self, stack):
        vae, flow, pred = stack
        z = rng.standard_normal((1, L))
        t, dt = 0.25, 0.125
        zt = Tensor(z.copy())
        obj = _objective_tape(zt, flow, vae, pred, 0.9, t, dt, True, 1.0,
                              "match_target", None)
        obj.backward()

        def f(zv):
            return float(_objective_tape(Tensor(zv), flow, vae, pred, 0.9, t, dt,
                                         True, 1.0, "match_target", None).data)

        assert rel_err(zt.grad, numeric_gradient(f, z.copy())) < 1e-3

    def test_first_order_descent_small_alpha(self, stack):
        vae, flow, pred = stack

        def objective(zv):
            return float(_objective_tape(Tensor(zv), flow, vae, pred, 1.0, 0.25,
                                         0.125, True, 1.0, "match_target", None).data)

        z = rng.standard_normal((8, L))
        before = objective(z)
        stepped = guidance_step(z, flow, vae, pred, 1.0, 1e-3, 0.25, 0.125)
        after = objective(stepped)
        assert after <= before + 1e-9

    def test_naive_equals_manifold_at_final_step(self, stack):
        vae, flow, pred = stack
        z = rng.standard_normal((4, L))
        dt = 1 / 8
        a = guidance_step(z, flow, vae, pred, 1.0, 0.3, 1 - dt, dt, manifold=True)
        b = guidance_step(z, flow, vae, pred, 1.0, 0.3, 0.0, 0.0, manifold=False)
        np.testing.assert_allclose(a, b, atol=1e-12)

    def test_maximize_objective_increases_score(self, stack):
        vae, flow, pred = stack
        z = rng.standard_normal((6, L))

        def mean_score(zv):
            probs = vae.decode_probs_tape(Tensor(zv)).data
            return float(pred.predict(probs).mean())

        before = mean_score(z)
        out = z
        for _ in range(10):
            out = guidance_step(out, flow, vae, pred, 0.0, 0.05, 0.25, 0.125,
                                manifold=False, objective="maximize")
        assert mean_score(out) > before


class TestSelection:
    class SumScore:
        def predict_sequences(self, seqs):
            return np.asarray(seqs).sum(axis=1).astype(float)

    def test_dedup_and_ranking(self):
        decoded = np.array([[1, 1], [0, 3], [1, 1], [2, 0], [0, 3]])
        seqs, scores, chains, short = _select_top_k(decoded, self.SumScore(), top_k=3)
        assert len(seqs) == 3 and not short
        # scores: (0,3)->3, (1,1)->2, (2,0)->2; the tie at 2 breaks lexicographically
        np.testing.assert_array_equal(scores, [3.0, 2.0, 2.0])
        np.testing.assert_array_equal(seqs[0], [0, 3])
        np.testing.assert_array_equal(seqs[1], [1, 1])
        np.testing.assert_array_equal(seqs[2], [2, 0])
        assert chains[0] == 1  # first occurrence of (0,3)

    def test_idempotent_and_permutation_stable(self):
        gen = np.random.default_rng(3)
        decoded = gen.integers(0, 3, size=(40, 4))
        a_seqs, a_scores, _, _ = _select_top_k(decoded, self.SumScore(), top_k=10)
        b_seqs, b_scores, _, _ = _select_top_k(decoded[gen.permutation(40)],
                                               self.SumScore(), top_k=10)
        np.testing.assert_array_equal(a_seqs, b_seqs)
        np.testing.assert_array_equal(a_scores, b_scores)
        c_seqs, c_scores, _, _ = _select_top_k(a_seqs, self.SumScore(), top_k=10)
        np.testing.assert_array_equal(a_seqs, c_seqs)

    def test_shortfall_flag(self):
        decoded = np.array([[1, 1], [1, 1], [0, 2]])
        seqs, _, _, short = _select_top_k(decoded, self.SumScore(), top_k=3)
        assert short and len(seqs) == 2


class TestGuidedSample:
    def test_reduction_identity_bit_exact(self, stack):
        vae, flow, pred = stack
        cfg = SamplerConfig(steps=8, guidance_steps=0, alpha=0.0, batch=16,
                            top_k=8, mode="manifold", seed=11)
        result = guided_sample(cfg, flow, vae, pred)
        z0 = initial_latents(11, 16, L)
        ref = euler_integrate(flow, z0, steps=8)[-1]
        np.testing.assert_array_equal(result.raw_latents, ref)

    def test_unconditional_mode_equals_manifold_j0(self, stack):
        vae, flow, pred = stack
        a = guided_sample(SamplerConfig(steps=8, batch=16, top_k=8,
                                        mode="unconditional", seed=12),
                          flow, vae, pred)
        b = guided_sample(SamplerConfig(steps=8, guidance_steps=0, alpha=0.7,
                                        batch=16, top_k=8, mode="manifold", seed=12),
                          flow, vae, pred)
        np.testing.assert_array_equal(a.raw_latents, b.raw_latents)
        np.testing.assert_array_equal(a.sequences, b.sequences)

    def test_determinism_and_seed_sensitivity(self, stack):
        vae, flow, pred = stack
        cfg = SamplerConfig(steps=6, guidance_steps=2, alpha=0.05, batch=12,
                            top_k=6, mode="manifold", seed=13)
        a = guided_sample(cfg, flow, vae, pred)
        b = guided_sample(cfg, flow, vae, pred)
        np.testing.assert_array_equal(a.raw_latents, b.raw_latents)
        np.testing.assert_array_equal(a.sequences, b.sequences)
        np.testing.assert_array_equal(a.predictor_scores, b.predictor_scores)
        c = guided_sample(SamplerConfig(steps=6, guidance_steps=2, alpha=0.05,
                                        batch=12, top_k=6, mode="manifold", seed=14),
                          flow, vae, pred)
        assert not np.array_equal(a.raw_latents, c.raw_latents)

    def test_result_invariants(self, stack):
        vae, flow, pred = stack
        cfg = SamplerConfig(steps=6, guidance_steps=1, alpha=0.02, batch=24,
                            top_k=5, mode="naive", seed=15)
        res = guided_sample(cfg, flow, vae, pred)
        assert len(res.sequences) <= 5
        keys = {s.tobytes() for s in res.sequences}
        assert len(keys) == len(res.sequences)  # unique
        assert (np.diff(res.predictor_scores) <= 1e-12).all()  # descending
        assert res.raw_latents.shape == (24, L)
        assert res.raw_sequences.shape == (24, D)
        assert set(res.provenance["checksums"]) == {"flow", "vae_encoder",
                                                    "vae_decoder", "predictor"}
        assert res.provenance["config"]["seed"] == 15

    def test_partial_block_agrees_with_one_block(self, stack, monkeypatch):
        vae, flow, pred = stack
        cfg = SamplerConfig(steps=4, guidance_steps=2, alpha=0.05,
                            batch=CHAIN_BLOCK + 37, top_k=8, mode="manifold", seed=22)
        blocked = guided_sample(cfg, flow, vae, pred)
        monkeypatch.setattr(sampling, "CHAIN_BLOCK", cfg.batch)
        whole = guided_sample(cfg, flow, vae, pred)
        np.testing.assert_allclose(blocked.raw_latents, whole.raw_latents,
                                   rtol=0, atol=1e-12)
        np.testing.assert_array_equal(blocked.raw_sequences, whole.raw_sequences)
        np.testing.assert_array_equal(blocked.sequences, whole.sequences)

    def test_chain_bits_depend_only_on_their_block(self, stack):
        vae, flow, pred = stack
        cfg = SamplerConfig(steps=3, guidance_steps=1, alpha=0.05,
                            batch=4 * CHAIN_BLOCK, top_k=8, mode="manifold", seed=23)
        big = guided_sample(cfg, flow, vae, pred)
        small = guided_sample(replace(cfg, batch=2 * CHAIN_BLOCK), flow, vae, pred)
        assert big.raw_latents[:2 * CHAIN_BLOCK].tobytes() == small.raw_latents.tobytes()
        np.testing.assert_array_equal(big.raw_sequences[:2 * CHAIN_BLOCK],
                                      small.raw_sequences)

    def test_diverging_layer_names_step_across_blocks(self, stack, monkeypatch):
        # only the second (partial) block fails at step 0, every block fails
        # from step 1 on: running each block through all steps before the
        # next would report step 1
        def fail_late_or_partial(zb, *args, **kwargs):
            t = args[5]
            if t > 0 or len(zb) < CHAIN_BLOCK:
                raise NonFiniteError("layer 0 (dense) produced non-finite values")
            return zb

        monkeypatch.setattr(sampling, "guidance_step", fail_late_or_partial)
        vae, flow, pred = stack
        cfg = SamplerConfig(steps=4, guidance_steps=2, alpha=0.05,
                            batch=CHAIN_BLOCK + 5, top_k=4, mode="manifold", seed=24)
        with pytest.raises(NonFiniteError, match=r"non-finite values at integration step 0$"):
            guided_sample(cfg, flow, vae, pred)

    @pytest.mark.skipif(platform.libc_ver()[0] != "glibc",
                        reason="measures glibc's heap trimming")
    def test_fresh_process_reuses_block_tapes(self):
        # without the freed buffer, each block-step's tape is returned to the
        # OS when released and faulted in again by the next (about 2k faults
        # per guidance step here, against about 3k for the whole sample)
        src = str(Path(sampling.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            [src] + [p for p in [os.environ.get("PYTHONPATH")] if p])}
        faults = {}
        for variant in ("keep", "skip"):
            out = subprocess.run([sys.executable, "-c", FRESH_PROCESS_SAMPLE, variant],
                                 capture_output=True, text=True, check=True, env=env)
            faults[variant] = int(out.stdout)
        assert 3 * faults["keep"] < faults["skip"], faults

    def test_learned_posterior_requires_conditional_flow(self, stack):
        vae, flow, pred = stack
        cfg = SamplerConfig(steps=4, batch=4, top_k=2, mode="learned_posterior", seed=17)
        with pytest.raises(ConfigError, match="conditioned"):
            guided_sample(cfg, flow, vae, pred)
        cond = FlowModel.build(L, seed=18, conditional=True, hidden=16)
        res = guided_sample(cfg, cond, vae, pred)
        assert res.raw_latents.shape == (4, L)

    def test_latent_dim_mismatch_rejected(self, stack):
        vae, _, pred = stack
        bad_flow = FlowModel.build(L + 1, seed=19, hidden=8)
        with pytest.raises(ConfigError, match="latent dim"):
            guided_sample(SamplerConfig(steps=4, batch=4, top_k=2, seed=0),
                          bad_flow, vae, pred)

    def test_predictor_length_mismatch_rejected(self, stack):
        vae, flow, _ = stack
        bad_pred = PredictorModel.build(D + 1, V, PredictorConfig(hidden_channels=8,
                                                                  hidden_dense=8), seed=20)
        with pytest.raises(ConfigError, match="length mismatch"):
            guided_sample(SamplerConfig(steps=4, batch=4, top_k=2, seed=0),
                          flow, vae, bad_pred)

    def test_config_validation(self):
        with pytest.raises(ConfigError, match="unconditional"):
            SamplerConfig(mode="unconditional", alpha=0.5)
        with pytest.raises(ConfigError, match="top_k"):
            SamplerConfig(batch=4, top_k=8)
        with pytest.raises(ConfigError, match="mode"):
            SamplerConfig(mode="magic")

    def test_trained_parameter_leaves_untouched_by_guidance(self, tiny_stack):
        _, _, assets = tiny_stack
        flow = assets.flow_for("manifold")
        guided_sample(SamplerConfig(steps=4, guidance_steps=2, alpha=0.3, batch=16,
                                    top_k=8, mode="manifold", seed=3),
                      flow, assets.vae, assets.predictor)
        nets = [flow.net, assets.vae.encoder, assets.vae.decoder, assets.predictor.net]
        leaves = [t for net in nets for t in net._tensors.values()]
        assert leaves
        assert all(t.grad is None and not t.requires_grad for t in leaves)

    def test_to_json_round_trippable(self, stack):
        import json
        from seqopt.seqs import Vocabulary
        vae, flow, pred = stack
        res = guided_sample(SamplerConfig(steps=4, batch=6, top_k=3, seed=21),
                            flow, vae, pred)
        payload = res.to_json(Vocabulary(("A", "B", "C", "D", "E")))
        text = json.dumps(payload)
        assert json.loads(text)["n_unique"] == len(res.sequences)


class TestChainStreams:
    def test_prefix_property(self):
        a = initial_latents(seed=5, batch=8, dim=3)
        b = initial_latents(seed=5, batch=4, dim=3)
        np.testing.assert_array_equal(a[:4], b)

    def test_distinct_chains_distinct_noise(self):
        z = initial_latents(seed=6, batch=16, dim=4)
        assert np.unique(z, axis=0).shape[0] == 16
