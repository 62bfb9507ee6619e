"""Acceptance gate: one test per criterion, each printing a PASS line with the
measured quantities (run with -s or -v to see them).

Criterion 1 frames the others: full-scale published-table reproduction needs
the real GFP/AAV measurement sets and externally trained oracle/predictor
weights, so the gate substitutes property-based checks on synthetic tasks with
an exact oracle; criterion 9 runs the real-data comparison only when assets
are supplied via SEQOPT_REAL_ASSETS.
"""

import math
import os
import time
from functools import partial

import numpy as np
import pytest

import seqopt.nn.autodiff as ad
from _gradcheck import network_gradients, numeric_gradient, rel_err
from seqopt.flow import (FlowModel, FlowTrainConfig, euler_integrate,
                         flow_matching_loss, train_flow)
from seqopt.harness import run_jobs
from seqopt.metrics import diversity, median_normalized_fitness, novelty
from seqopt.nn import Network
from seqopt.nn.autodiff import Tensor
from seqopt.predictor import PredictorConfig, PredictorModel
from seqopt.sampling import (SamplerConfig, _objective_tape, guided_sample,
                             initial_latents)
from seqopt.seqs import levenshtein
from seqopt.tasks import build_synthetic_task, task_oracle, train_models
from seqopt.vae import VaeConfig, VaeModel, vae_loss
from test_seqs import brute_levenshtein

MODULE_START = time.monotonic()
SAMPLING_SEEDS = [100, 101, 102, 103, 104]


def _report(n, detail):
    print(f"\nACCEPTANCE {n}: PASS — {detail}")


# --------------------------------------------------------------------------
# criterion 7/8 share one trained stack on the hard synthetic task
# --------------------------------------------------------------------------

@pytest.fixture(scope="module")
def hard_run():
    task = build_synthetic_task("synthetic-hard", seed=0)
    bundle = train_models(task, seed=0, conditional=True)
    oracle = task_oracle(task)
    norm = task.normalizer

    def fitness_of(seqs):
        return median_normalized_fitness(seqs, oracle, norm)

    results = {"task": task, "bundle": bundle, "oracle": oracle,
               "vae_val_accuracy": bundle.reports["vae"]["val_accuracy"],
               "train_median": float(np.median(task.train.normalized_fitness()))}
    # the 25 sampling runs share one process pool; their results are the
    # serial runs' bit for bit
    modes = ("unconditional", "manifold", "naive")
    jobs = {}
    for mode, alpha, j, top_k in (("unconditional", 0.0, 0, 512),
                                  ("manifold", 0.5, 5, 128),
                                  ("naive", 0.5, 5, 128)):
        for s in SAMPLING_SEEDS:
            cfg = SamplerConfig(steps=32, guidance_steps=j, alpha=alpha, batch=512,
                                top_k=top_k, mode=mode, seed=s)
            jobs[mode, s] = partial(guided_sample, cfg, bundle.flow, bundle.vae,
                                    bundle.predictor)
    # extrapolation at y=1 on the raw batch (no dedup / top-k), both posteriors
    for s in SAMPLING_SEEDS:
        cfg = SamplerConfig(steps=32, guidance_steps=5, alpha=0.5, batch=256,
                            top_k=256, mode="manifold", seed=s, target_y=1.0)
        jobs["extrap_manifold", s] = partial(guided_sample, cfg, bundle.flow,
                                             bundle.vae, bundle.predictor)
    for s in SAMPLING_SEEDS:
        cfg = SamplerConfig(steps=32, guidance_steps=0, alpha=0.0, batch=256,
                            top_k=256, mode="learned_posterior", seed=s, target_y=1.0)
        jobs["extrap_posterior", s] = partial(guided_sample, cfg, bundle.flow_conditional,
                                              bundle.vae, bundle.predictor)
    samples = run_jobs(jobs, parallelism=os.cpu_count() or 1)
    results["fits"] = {mode: [fitness_of(samples[mode, s].sequences)
                              for s in SAMPLING_SEEDS] for mode in modes}
    for kind in ("extrap_manifold", "extrap_posterior"):
        results[f"{kind}_y1"] = [fitness_of(samples[kind, s].raw_sequences)
                                 for s in SAMPLING_SEEDS]
    return results


def test_criterion_1_scope_note():
    _report(1, "published-table reproduction needs external data/checkpoints; "
               "criteria 2-8 are the property-based desk-scale gate, criterion 9 "
               "activates with real assets")


def test_criterion_2_gradient_suite():
    t0 = time.monotonic()
    rng = np.random.default_rng(2024)
    # every layer kind in one composite net
    desc = [{"kind": "conv1d", "in_ch": 3, "out_ch": 4, "kernel": 3},
            {"kind": "leaky_relu", "alpha": 0.1},
            {"kind": "conv1d", "in_ch": 4, "out_ch": 3, "kernel": 5},
            {"kind": "tanh"},
            {"kind": "global_avg_pool"},
            {"kind": "dense", "in": 3, "out": 6},
            {"kind": "relu"},
            {"kind": "dense", "in": 6, "out": 4},
            {"kind": "softmax"},
            {"kind": "reshape", "shape": [2, 2]},
            {"kind": "flatten"}]
    net = Network.build(desc, seed=1)
    x = rng.standard_normal((2, 3, 7)) + 0.05
    adjoint = rng.standard_normal((2, 4))
    grads, xg = network_gradients(net, x, adjoint)

    def net_loss(xv):
        return float((net.forward(xv) * adjoint).sum())

    worst = rel_err(xg, numeric_gradient(net_loss, x.copy()))
    for name in grads:
        orig = net.params.arrays[name].copy()

        def f(pv, name=name, orig=orig):
            net.params.arrays[name][...] = pv
            net.refresh()
            val = net_loss(x)
            net.params.arrays[name][...] = orig
            net.refresh()
            return val

        worst = max(worst, rel_err(grads[name], numeric_gradient(f, orig.copy())))
    assert worst < 1e-4

    # VAE loss gradient on a probe parameter
    vae = VaeModel.build(6, 5, VaeConfig(latent_dim=3, beta=0.01, hidden_channels=8),
                         seed=2)
    seqs = rng.integers(0, 5, size=(2, 6))
    noise = rng.standard_normal((2, 3))
    from seqopt.vae import _loss_tape as vae_loss_tape
    vae.encoder.refresh()
    total, _, _ = vae_loss_tape(vae, seqs, noise)
    total.backward()
    probe = "0.weight"
    analytic = vae.encoder.collect_grads()[probe]
    orig = vae.encoder.params.arrays[probe].copy()

    def f_vae(pv):
        vae.encoder.params.arrays[probe][...] = pv
        val, _, _ = vae_loss(vae, seqs, noise)
        vae.encoder.params.arrays[probe][...] = orig
        return val

    vae_err = rel_err(analytic, numeric_gradient(f_vae, orig.copy()))
    assert vae_err < 1e-4

    # flow-matching loss gradient on a probe parameter
    flow = FlowModel.build(3, seed=3, hidden=8)
    z0 = rng.standard_normal((4, 3))
    z1 = rng.standard_normal((4, 3))
    tt = rng.uniform(0, 1, 4)
    from seqopt.flow import _loss_tape as flow_loss_tape
    flow.net.refresh()
    loss = flow_loss_tape(flow, z1, z0, tt, None)
    loss.backward()
    analytic = flow.net.collect_grads()[probe]
    orig = flow.net.params.arrays[probe].copy()

    def f_flow(pv):
        flow.net.params.arrays[probe][...] = pv
        val = flow_matching_loss(flow, z1, z0, tt)
        flow.net.params.arrays[probe][...] = orig
        return val

    flow_err = rel_err(analytic, numeric_gradient(f_flow, orig.copy()))
    assert flow_err < 1e-4

    # full guidance chain (predictor o relaxed decoder o endpoint extrapolation)
    pred = PredictorModel.build(6, 5, PredictorConfig(hidden_channels=8,
                                                      hidden_dense=16), seed=4)
    z = rng.standard_normal((1, 3))
    zt = Tensor(z.copy())
    obj = _objective_tape(zt, flow, vae, pred, 0.9, 0.25, 0.125, True, 1.0,
                          "match_target", None)
    obj.backward()

    def f_chain(zv):
        return float(_objective_tape(Tensor(zv), flow, vae, pred, 0.9, 0.25, 0.125,
                                     True, 1.0, "match_target", None).data)

    chain_err = rel_err(zt.grad, numeric_gradient(f_chain, z.copy()))
    assert chain_err < 1e-3
    elapsed = time.monotonic() - t0
    assert elapsed < 60
    _report(2, f"layer suite worst rel err {worst:.2e} (<1e-4), vae {vae_err:.2e}, "
               f"flow {flow_err:.2e}, full chain {chain_err:.2e} (<1e-3), "
               f"{elapsed:.1f}s (<60s)")


def test_criterion_3_flow_matching_2d():
    t0 = time.monotonic()
    data = np.random.default_rng(42).normal(3.0, 0.5, size=(8192, 2))
    cfg = FlowTrainConfig(learning_rate=1e-3, batch_size=512, epochs=150, seed=0,
                          hidden=64)
    model, _ = train_flow(data, cfg)
    z0 = np.random.default_rng(1).standard_normal((4096, 2))
    final = euler_integrate(model, z0, steps=32)[-1]
    mean_err = np.abs(final.mean(axis=0) - 3.0).max()
    std_err = np.abs(final.std(axis=0) - 0.5).max()
    elapsed = time.monotonic() - t0
    assert mean_err < 0.2
    assert std_err < 0.15
    assert elapsed < 300
    _report(3, f"4096-sample mean off by {mean_err:.3f} (<0.2), std off by "
               f"{std_err:.3f} (<0.15), {elapsed:.0f}s (<300s)")


def test_criterion_4_euler_linear_field_oracle():
    class Decay:
        def velocity(self, z, t, y=None):
            return -np.atleast_2d(z)

    z0 = np.random.default_rng(7).standard_normal((6, 5))
    final = euler_integrate(Decay(), z0, steps=32)[-1]
    ref = z0.copy()
    for _ in range(32):
        ref = ref * (1 - 1 / 32)
    np.testing.assert_array_equal(final, ref)
    gap = np.abs(final / z0 - math.exp(-1)).max() / math.exp(-1)
    assert gap < 0.02
    _report(4, f"K=32 recurrence bit-exact; factor within {gap * 100:.2f}% of e^-1 (<2%)")


def test_criterion_5_reduction_identity():
    vae = VaeModel.build(6, 5, VaeConfig(latent_dim=3, beta=0.01, hidden_channels=8),
                         seed=10)
    flow = FlowModel.build(3, seed=11, hidden=16)
    pred = PredictorModel.build(6, 5, PredictorConfig(hidden_channels=8,
                                                      hidden_dense=16), seed=12)
    cfg = SamplerConfig(steps=32, guidance_steps=0, alpha=0.0, batch=16, top_k=8,
                        mode="manifold", seed=33)
    result = guided_sample(cfg, flow, vae, pred)
    ref = euler_integrate(flow, initial_latents(33, 16, 3), steps=32)[-1]
    assert np.array_equal(result.raw_latents, ref)
    uncond = guided_sample(SamplerConfig(steps=32, batch=16, top_k=8,
                                         mode="unconditional", seed=33),
                           flow, vae, pred)
    assert np.array_equal(uncond.raw_latents, ref)
    _report(5, "alpha=0, J=0 chains bit-identical to plain integration "
               "(manifold and unconditional modes)")


def test_criterion_6_metric_oracles():
    t0 = time.monotonic()
    rng = np.random.default_rng(66)
    for _ in range(1000):
        a = rng.integers(0, 8, size=rng.integers(0, 13))
        b = rng.integers(0, 8, size=rng.integers(0, 13))
        assert levenshtein(a, b) == brute_levenshtein(a, b)
    checked = 0
    for _ in range(200):
        n = int(rng.integers(2, 21))
        d = int(rng.integers(2, 13))
        seqs = rng.integers(0, 6, size=(n, d))
        train = rng.integers(0, 6, size=(int(rng.integers(1, 16)), d))
        div_brute = float(np.median([brute_levenshtein(seqs[i], seqs[j])
                                     for i in range(n) for j in range(i + 1, n)]))
        nov_brute = float(np.median([min(brute_levenshtein(s, t) for t in train)
                                     for s in seqs]))
        assert diversity(seqs) == div_brute
        assert novelty(seqs, train) == nov_brute
        checked += 1
    elapsed = time.monotonic() - t0
    assert checked == 200 and elapsed < 60
    _report(6, f"1000 edit-distance pairs + {checked} diversity/novelty sets match "
               f"brute force exactly, {elapsed:.0f}s (<60s)")


def test_criterion_7_synthetic_end_to_end(hard_run):
    acc = hard_run["vae_val_accuracy"]
    train_median = hard_run["train_median"]
    uncond = float(np.mean(hard_run["fits"]["unconditional"]))
    manifold = float(np.mean(hard_run["fits"]["manifold"]))
    assert acc >= 0.80, f"VAE held-out reconstruction {acc:.3f} < 0.80"
    assert manifold > uncond + 0.05, \
        f"guided {manifold:.3f} not > unconditional {uncond:.3f} + 0.05"
    assert uncond >= train_median - 0.02, \
        f"unconditional {uncond:.3f} < train median {train_median:.3f} - 0.02"
    elapsed = time.monotonic() - MODULE_START
    assert elapsed < 1800
    _report(7, f"vae held-out acc {acc:.3f} (>=0.80); guided {manifold:.3f} > "
               f"unconditional {uncond:.3f} + 0.05; unconditional >= train median "
               f"{train_median:.3f} - 0.02; {elapsed:.0f}s so far (<1800s)")


def test_criterion_8_ablation_directions(hard_run):
    man = hard_run["fits"]["manifold"]
    naive = hard_run["fits"]["naive"]
    wins_naive = sum(m >= n for m, n in zip(man, naive))
    assert wins_naive >= 4, f"manifold >= naive in only {wins_naive}/5 seeds"
    ex_man = hard_run["extrap_manifold_y1"]
    ex_pos = hard_run["extrap_posterior_y1"]
    wins_posterior = sum(m >= p for m, p in zip(ex_man, ex_pos))
    assert wins_posterior >= 4, \
        f"manifold y_gt(1) >= learned posterior in only {wins_posterior}/5 seeds"
    _report(8, f"manifold >= naive in {wins_naive}/5 seeds "
               f"({np.mean(man):.3f} vs {np.mean(naive):.3f}); manifold y_gt at y=1 "
               f">= learned posterior in {wins_posterior}/5 "
               f"({np.mean(ex_man):.3f} vs {np.mean(ex_pos):.3f})")


@pytest.mark.skipif("SEQOPT_REAL_ASSETS" not in os.environ,
                    reason="real GFP/AAV data and converted external checkpoints "
                           "not supplied (set SEQOPT_REAL_ASSETS=<dir>)")
def test_criterion_9_real_data_reference():
    """With real assets supplied, the medium-difficulty benchmark means must
    land within +-0.05 of the published references (GFP 0.87, AAV 0.58)."""
    from seqopt.cli import main
    root = os.environ["SEQOPT_REAL_ASSETS"]
    references = {"gfp": 0.87, "aav": 0.58}
    for name, reference in references.items():
        ini = os.path.join(root, f"{name}-medium.ini")
        assert os.path.exists(ini), f"expected {ini}"
        assert main(["evaluate", ini]) == 0
        import glob
        import json
        runs = sorted(glob.glob(os.path.join(root, "results", "csv", "evaluate",
                                             "*", "summary.json")))
        summary = json.loads(open(runs[-1]).read())["summary"]
        got = summary["mean"]["median_fitness"]
        assert abs(got - reference) <= 0.05
        _report(9, f"{name} medium fitness {got:.3f} within 0.05 of {reference}")


# --------------------------------------------------------------------------
# supplementary end-to-end checks on the same trained stack (not numbered
# criteria, but pinned behaviors of the sweep operations)
# --------------------------------------------------------------------------

def test_ode_step_stability_on_hard_task(hard_run):
    bundle = hard_run["bundle"]
    oracle = hard_run["oracle"]
    norm = hard_run["task"].normalizer
    jobs = {k: partial(guided_sample,
                       SamplerConfig(steps=k, guidance_steps=5, alpha=0.5, batch=512,
                                     top_k=128, mode="manifold", seed=100),
                       bundle.flow, bundle.vae, bundle.predictor)
            for k in (24, 32)}
    fits = {k: median_normalized_fitness(res.sequences, oracle, norm)
            for k, res in run_jobs(jobs, parallelism=os.cpu_count() or 1).items()}
    rel_change = abs(fits[32] - fits[24]) / abs(fits[32])
    assert rel_change < 0.10
    print(f"\nODE stability: fitness K=24 {fits[24]:.3f} vs K=32 {fits[32]:.3f} "
          f"(rel change {rel_change * 100:.1f}% < 10%)")


def test_pinned_parallel_latents_equal_serial(hard_run):
    """Manifold guidance at 512 chains on one-BLAS-thread workers (the
    caller's share and a forked worker's) leaves the latents of a serial run
    with the caller's BLAS threads unchanged, byte for byte."""
    bundle = hard_run["bundle"]
    jobs = {s: partial(guided_sample,
                       SamplerConfig(steps=4, guidance_steps=5, alpha=0.5, batch=512,
                                     top_k=128, mode="manifold", seed=s),
                       bundle.flow, bundle.vae, bundle.predictor)
            for s in SAMPLING_SEEDS[:2]}
    parallel = run_jobs(jobs, parallelism=2)
    for s, job in jobs.items():
        assert job().raw_latents.tobytes() == parallel[s].raw_latents.tobytes()


def test_learned_posterior_in_distribution(hard_run):
    bundle = hard_run["bundle"]
    oracle = hard_run["oracle"]
    task = hard_run["task"]
    y_med = hard_run["train_median"]
    cfg = SamplerConfig(steps=32, guidance_steps=0, alpha=0.0, batch=256, top_k=256,
                        mode="learned_posterior", seed=100, target_y=y_med)
    res = guided_sample(cfg, bundle.flow_conditional, bundle.vae, bundle.predictor)
    got = median_normalized_fitness(res.raw_sequences, oracle, task.normalizer)
    assert abs(got - y_med) < 0.1
    print(f"\nlearned posterior at in-distribution y={y_med:.3f} lands at {got:.3f}")


def test_vae_prior_below_guided(hard_run):
    from seqopt.vae import sample_vae_prior
    bundle = hard_run["bundle"]
    oracle = hard_run["oracle"]
    norm = hard_run["task"].normalizer
    prior_seqs = sample_vae_prior(bundle.vae, 256, seed=100)
    prior_fit = median_normalized_fitness(prior_seqs, oracle, norm)
    guided_fit = float(np.mean(hard_run["fits"]["manifold"]))
    assert prior_fit <= guided_fit
    print(f"\nvae-prior median fitness {prior_fit:.3f} <= guided {guided_fit:.3f}")
