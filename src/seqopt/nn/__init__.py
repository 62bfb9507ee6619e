from .autodiff import Tensor, as_tensor
from .layers import Network, NonFiniteError, ParamStore, init_params, validate_descriptor
from .optim import AdamState, adam_step, fit
from .checkpoint import (CheckpointError, load_checkpoint, params_checksum,
                         save_checkpoint)

__all__ = [
    "Tensor", "as_tensor", "Network", "NonFiniteError", "ParamStore",
    "init_params", "validate_descriptor", "AdamState",
    "adam_step", "fit", "CheckpointError", "load_checkpoint", "params_checksum",
    "save_checkpoint",
]
