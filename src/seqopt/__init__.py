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

from . import data, errors, flow, harness, jobs, landscape, metrics, predictor, sampling, seqs, tasks, vae

__version__ = "0.1.0"
