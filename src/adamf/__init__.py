"""Multi-modal knowledge graph embeddings with adaptive fusion and
adversarial modality generation: data handling, a small reverse-mode
autodiff core, the scoring/fusion/generator model, alternating training,
and filtered ranking evaluation."""

from .config import RunConfig, parse_config
from .data import (FeatureTable, TripleDataset, Vocab, apply_modality_missing,
                   load_features, load_triples)
from .errors import (AdamfError, ConfigError, ContractError, DataError,
                     GradCheckError, NumericError)
from .evaluation import RankReport, evaluate, rank_query
from .model import Model, ModelConfig, init_params
from .params import ParameterStore, adam_step, finite_diff_check
from .rng import SeededRng
from .tape import Tape
from .training import (TrainConfig, loss_adv, loss_kgc, sample_negatives,
                       self_adv_weights, train)

__version__ = "0.1.0"

__all__ = [
    "AdamfError", "ConfigError", "ContractError", "DataError",
    "FeatureTable", "GradCheckError", "Model", "ModelConfig", "NumericError",
    "ParameterStore", "RankReport", "RunConfig", "SeededRng", "Tape",
    "TrainConfig", "TripleDataset", "Vocab", "adam_step",
    "apply_modality_missing", "evaluate", "finite_diff_check", "init_params",
    "load_features", "load_triples", "loss_adv", "loss_kgc", "parse_config",
    "rank_query", "sample_negatives", "self_adv_weights", "train",
]
