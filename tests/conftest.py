import pytest

from seqopt.flow import FlowTrainConfig
from seqopt import harness
from seqopt.harness import TaskAssets
from seqopt.predictor import PredictorConfig
from seqopt.tasks import (SyntheticTaskSpec, build_synthetic_task, task_oracle,
                          train_models)
from seqopt.vae import VaeConfig

TINY_SPEC = SyntheticTaskSpec(name="tiny", percentile=(20, 50), gap=2, length=8,
                              full_size=1500, max_train=400, edits_per_position=3,
                              min_mutations=1, max_mutations=5, n_pairs=8)


@pytest.fixture(scope="session")
def tiny_stack():
    """A fully trained miniature pipeline shared by harness/CLI-level tests."""
    task = build_synthetic_task("tiny", seed=5, spec=TINY_SPEC)
    bundle = train_models(
        task, seed=5,
        vae_cfg=VaeConfig(latent_dim=6, beta=0.002, epochs=30,
                          hidden_channels=24, batch_size=64),
        flow_cfg=FlowTrainConfig(epochs=120, batch_size=128, seed=5),
        pred_cfg=PredictorConfig(epochs=40, batch_size=64, hidden_channels=12,
                                 hidden_dense=32),
        conditional=True)
    assets = TaskAssets(name=task.name, vocab=task.vocab, train=task.train,
                        normalizer=task.normalizer, oracle=task_oracle(task),
                        vae=bundle.vae, flow=bundle.flow,
                        predictor=bundle.predictor,
                        flow_conditional=bundle.flow_conditional)
    return task, bundle, assets


@pytest.fixture(autouse=True)
def close_kept_sweep_pool():
    """Close the sweep pool a test kept, so its workers end with the test
    that forked them and no later test sees them among its children."""
    yield
    if harness._kept is not None:
        harness._kept.release()
