"""Self-tests of the benchmark: span arithmetic, the percentile rule, wrapper
removal, traced/untraced agreement, exact counts, the stack cache check and
the result format. Run with `python -m pytest perfbench`."""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import run  # noqa: E402
import stack  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from seqopt.flow import FlowTrainConfig  # noqa: E402
from seqopt.predictor import PredictorConfig  # noqa: E402
from seqopt.tasks import SyntheticTaskSpec  # noqa: E402
from seqopt.vae import VaeConfig  # noqa: E402

TINY_SPEC = SyntheticTaskSpec(name="tiny", percentile=(20, 50), gap=2, length=8,
                              full_size=1500, max_train=400, edits_per_position=3,
                              min_mutations=1, max_mutations=5, n_pairs=8)
TINY_SIZES = workloads.Sizes(guide_batch=32, guide_top_k=8, guide_steps=2, guidance_steps=2,
                             eval_batch=16, eval_posterior_top_k=4, eval_steps=4,
                             vae_epochs=2, predictor_epochs=3, flow_epochs=20)
EXACT_COUNTS = ("autodiff.conv1d.gflop", "autodiff.conv1d.gbytes",
                "autodiff.grad_alloc.count", "autodiff.grad_alloc.mb",
                "autodiff.leaf_grad.useful_ratio", "layers.refresh.calls",
                "seqs.levenshtein.rows")


@pytest.fixture(scope="module")
def tiny_entry(tmp_path_factory):
    """A stack cache entry trained on the tiny task, with its manifest."""
    from seqopt import tasks
    from seqopt.flow import save_flow
    from seqopt.predictor import save_predictor
    from seqopt.vae import save_vae

    task = tasks.build_synthetic_task(stack.TASK, stack.TASK_SEED, spec=TINY_SPEC)
    bundle = tasks.train_models(
        task, seed=5,
        vae_cfg=VaeConfig(latent_dim=6, beta=0.002, epochs=10, hidden_channels=12,
                          batch_size=64),
        flow_cfg=FlowTrainConfig(epochs=30, batch_size=128, seed=5),
        pred_cfg=PredictorConfig(epochs=10, batch_size=64, hidden_channels=8,
                                 hidden_dense=16),
        conditional=True)
    entry = tmp_path_factory.mktemp("stack")
    save_vae(bundle.vae, entry)
    save_flow(bundle.flow, entry / "flow.npz")
    save_flow(bundle.flow_conditional, entry / "flow_conditional.npz")
    save_predictor(bundle.predictor, entry / "predictor.npz")
    models = stack.load_models(entry)
    (entry / "manifest.json").write_text(json.dumps(
        {"key": "tiny", "checksums": stack.checksums(models)}))
    return entry


def test_self_time_on_synthetic_span_tree():
    S = tracing.Span
    root = S("root", None, 0, 0.0, 10.0)
    a = S("a", root, 0, 1.0, 4.0)
    b = S("b", root, 0, 3.0, 6.0)        # overlaps a: covered once
    c = S("c", root, 0, 8.0, 9.0)
    leaf = S("leaf", a, 0, 2.0, 3.0)
    selfs = tracing.self_times([root, a, b, c, leaf])
    assert selfs[id(root)] == pytest.approx(10.0 - (6.0 - 1.0) - 1.0)
    assert selfs[id(a)] == pytest.approx(2.0)
    assert selfs[id(b)] == pytest.approx(3.0)
    assert selfs[id(c)] == pytest.approx(1.0)
    assert selfs[id(leaf)] == pytest.approx(1.0)


def test_percentile_rule():
    assert run.tail_percentile(19) is None
    assert run.tail_percentile(20) == 50
    assert run.tail_percentile(99) == 50
    assert run.tail_percentile(100) == 90
    assert run.tail_percentile(200) == 95
    assert run.tail_percentile(1000) == 99
    assert run.tail_percentile(10000) == 99.9
    values = list(range(1, 101))
    assert run.percentile(values, 50) == 50
    assert run.percentile(values, 90) == 90
    assert run.percentile([3.0], 50) == 3.0


def _package_state():
    import seqopt  # noqa: F401
    from seqopt.flow import FlowModel
    from seqopt.nn.autodiff import Tensor
    from seqopt.nn.layers import Network
    from seqopt.predictor import PredictorModel
    from seqopt.vae import VaeModel

    state = {}
    for name, module in sys.modules.items():
        if name == "seqopt" or name.startswith("seqopt."):
            state.update({(name, k): v for k, v in vars(module).items()})
    for cls in (Tensor, Network, FlowModel, VaeModel, PredictorModel):
        state.update({(cls.__name__, k): v for k, v in vars(cls).items()})
    return state


def test_wrappers_are_removed_after_a_traced_run(tiny_entry):
    before = _package_state()
    wl = workloads.Guide(TINY_SIZES)
    state = wl.setup(tiny_entry, TINY_SPEC)
    with tracing.Tracer() as tracer:
        assert _package_state() != before
        run.run_loop(wl, state, 3, 0.0, tracer=tracer)
    after = _package_state()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)
    assert tracer.spans


@pytest.mark.parametrize("name", ["guide", "evaluate", "train"])
def test_traced_and_untraced_runs_agree(tiny_entry, name):
    wl = workloads.WORKLOADS[name](TINY_SIZES)
    state = wl.setup(tiny_entry, TINY_SPEC)
    wl.prepare(state, tiny_entry)
    untraced = run.run_loop(wl, state, 7, 0.0)
    layers = []
    for _ in range(2):
        with tracing.Tracer() as tracer:
            traced = run.run_loop(wl, state, 7, 0.0, tracer=tracer)
        layers.append(tracer.layer_metrics(ops=range(len(traced))))
        assert not any(r.problems for r in untraced + traced)
        assert (run.quality_of(wl, state, traced, 1)
                == run.quality_of(wl, state, untraced, 1))
    quality = run.quality_of(wl, state, untraced, 1)
    assert quality["quality"] > 0
    assert set(layers[0]) == {n for n, _, _ in tracing.PER_LAYER}
    for key in EXACT_COUNTS:
        assert layers[0][key] == layers[1][key], key
    if name == "guide":
        assert layers[0]["sampling.guidance_steps.count"] == 4
        assert 0 < layers[0]["autodiff.leaf_grad.useful_ratio"] < 1
    if name == "evaluate":
        assert layers[0]["seqs.levenshtein.rows"] > 0
        assert layers[0]["autodiff.conv1d.bwd_s"] == 0
    if name == "train":
        assert layers[0]["optim.adam_step.calls"] > 0


def test_failed_check_counts_as_failed_op(tiny_entry):
    wl = workloads.Guide(TINY_SIZES)
    state = wl.setup(tiny_entry, TINY_SPEC)
    state.checksums = {**state.checksums, "flow": "0" * 64}
    record = run.run_op(wl, state, 3, 0)
    assert record.problems == ["provenance checksums differ from the loaded checkpoints"]
    assert run.quality_of(wl, state, [record], 1) is None


def test_stack_verify_rejects_corrupt_entries(tiny_entry, tmp_path):
    entry = tmp_path / "entry"
    shutil.copytree(tiny_entry, entry)
    assert stack.verify(entry, "tiny")["key"] == "tiny"
    with pytest.raises(stack.StackError):
        stack.verify(entry, "other-key")
    data = (entry / "predictor.npz").read_bytes()
    (entry / "predictor.npz").write_bytes(data[: len(data) // 2])
    with pytest.raises(stack.StackError):
        stack.verify(entry, "tiny")
    (entry / "manifest.json").unlink()
    with pytest.raises(stack.StackError):
        stack.verify(entry, "tiny")


def test_benchmark_json_matches_the_code():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]] == \
        [tuple(m) for m in run.END_TO_END]
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == \
        [tuple(m) for m in tracing.PER_LAYER]
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(workloads.WORKLOADS)


def test_fails_without_the_source_tree(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "guide",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
