"""Guided flow-matching sampling in a learned latent space for
discrete-sequence fitness optimization.

The pipeline: a beta-weighted VAE embeds fixed-length token sequences into a
continuous latent space; a flow-matching prior learns the latent distribution;
classifier guidance with manifold-constrained gradients steers Euler sampling
of that prior toward sequences a fitness predictor scores at a target value.
An evaluation harness (multi-seed benchmark, parameter grids, target-fitness
extrapolation, integration-step sweeps) measures everything against an exact
synthetic oracle or externally supplied models.
"""

from .data import (DataFormatError, Dataset, FitnessNormalizer, difficulty_filter,
                   load_csv, write_csv, write_range_file)
from .errors import ConfigError, TrainingDivergedError
from .flow import (FlowModel, FlowTrainConfig, euler_integrate, flow_matching_loss,
                   interpolate, load_flow, save_flow, train_flow)
from .harness import (BenchmarkSummary, TaskAssets, ablation_table,
                      extrapolation_experiment, grid_search, ode_steps_sweep,
                      run_benchmark)
from .landscape import (SyntheticLandscape, make_edit_pool, make_landscape,
                        sample_mutants, synthetic_full_dataset)
from .metrics import (MetricReport, compute_metrics, diversity,
                      median_normalized_fitness, novelty)
from .predictor import (LandscapeOracle, PredictorConfig, PredictorModel,
                        load_external_predictor, save_predictor,
                        smooth_labels_knn, train_predictor)
from .sampling import SamplerConfig, SampleResult, guidance_step, guided_sample
from .seqs import AMINO_ACIDS, Vocabulary, detokenize, tokenize
from .tasks import (SyntheticTaskSpec, TaskData, build_csv_task,
                    build_synthetic_task, task_oracle, train_models)
from .vae import (VaeConfig, VaeModel, load_vae, reconstruction_accuracy,
                  sample_vae_prior, save_vae, train_vae)

__version__ = "0.1.0"

__all__ = [
    "AMINO_ACIDS", "BenchmarkSummary", "ConfigError", "DataFormatError",
    "Dataset", "FitnessNormalizer", "FlowModel", "FlowTrainConfig",
    "LandscapeOracle", "MetricReport", "PredictorConfig", "PredictorModel",
    "SampleResult", "SamplerConfig", "SyntheticLandscape", "SyntheticTaskSpec",
    "TaskAssets", "TaskData", "TrainingDivergedError", "VaeConfig", "VaeModel",
    "Vocabulary", "ablation_table", "build_csv_task", "build_synthetic_task",
    "compute_metrics", "detokenize", "difficulty_filter", "diversity",
    "euler_integrate", "extrapolation_experiment", "flow_matching_loss",
    "grid_search", "guidance_step", "guided_sample", "interpolate", "load_csv",
    "load_external_predictor", "load_flow", "load_vae", "make_edit_pool",
    "make_landscape", "median_normalized_fitness", "novelty",
    "ode_steps_sweep", "reconstruction_accuracy", "run_benchmark",
    "sample_mutants", "sample_vae_prior", "save_flow", "save_predictor",
    "save_vae", "smooth_labels_knn", "synthetic_full_dataset", "task_oracle",
    "tokenize", "train_flow", "train_models", "train_predictor", "train_vae",
    "write_csv", "write_range_file",
]
