"""Small synthetic knowledge graph for experiments and acceptance runs.

Entities sit on a ring; relation `next` connects i -> i+1 (mod N) and
relation `skip` connects i -> i+2 (mod N), so `skip` is the composition of
`next` with itself and a model that places entities coherently on the ring
can solve held-out queries.  Each entity also carries 3-dim "visual" and
"textual" features derived from its ring angle, giving the modal paths real
signal to exploit.
"""

from __future__ import annotations

import math
import os

import numpy as np

from .data import (FeatureTable, TripleDataset, Vocab, feature_dir_paths,
                   save_features, save_triples)
from .errors import ContractError

RELATIONS = (("next", 1, 0), ("skip", 2, 5))  # (name, ring offset, split offset)


def build_toy_kg(n_entities: int = 50) -> tuple[TripleDataset, dict[str, FeatureTable]]:
    """Ring KG with deterministic 80/10/10 splits and modal features.

    Triple (i, r, i+offset) lands in valid when (i + split_offset) % 10 == 8,
    in test when == 9, and in train otherwise; the per-relation split offsets
    keep the held-out entities different across relations, and every entity
    still appears in the train split.
    """
    if n_entities < 10:
        raise ContractError("toy KG needs at least 10 entities for the splits")
    vocab = Vocab()
    for i in range(n_entities):
        vocab.add_entity(f"e{i:02d}")
    for name, _, _ in RELATIONS:
        vocab.add_relation(name)
    splits = {"train": [], "valid": [], "test": []}
    for r, (name, offset, split_offset) in enumerate(RELATIONS):
        for i in range(n_entities):
            triple = (i, r, (i + offset) % n_entities)
            slot = (i + split_offset) % 10
            split = "valid" if slot == 8 else "test" if slot == 9 else "train"
            splits[split].append(triple)
    dataset = TripleDataset.from_splits(vocab, splits["train"], splits["valid"],
                                        splits["test"])
    angles = 2.0 * math.pi * np.arange(n_entities) / n_entities
    visual = np.stack([np.cos(angles), np.sin(angles),
                       np.ones(n_entities)], axis=1)
    textual = np.stack([np.cos(2 * angles), np.sin(2 * angles),
                        angles / (2.0 * math.pi)], axis=1)
    present = np.ones(n_entities, dtype=bool)
    tables = {"v": FeatureTable("v", 3, visual, present.copy()),
              "t": FeatureTable("t", 3, textual, present.copy())}
    return dataset, tables


def write_toy_kg(directory: str, n_entities: int = 50) -> dict[str, str]:
    """Materialize the toy KG as TSV files; returns the path map."""
    os.makedirs(directory, exist_ok=True)
    dataset, tables = build_toy_kg(n_entities)
    paths = feature_dir_paths(directory)
    save_triples(dataset, paths["train"], paths["valid"], paths["test"])
    save_features(tables["v"], dataset.vocab, paths["visual"])
    save_features(tables["t"], dataset.vocab, paths["textual"])
    return paths


TOY_DEFAULTS = {
    "visual_dim": 3,
    "textual_dim": 3,
    "dim": 16,
    "noise_dim": 8,
    "gamma": 4.0,
    "beta": 1.0,
    "k_negatives": 16,
    "lr_d": 1e-3,
    "lr_g": 1e-3,
    "batch_size": 16,
    "epochs": 400,
    "validate_every": 50,
    "adv_lambda": 0.01,
    "seed": 0,
}


def toy_config_text(data_dir: str, out_dir: str, **overrides) -> str:
    """Config file body for a toy-KG run; overrides win over TOY_DEFAULTS."""
    paths = feature_dir_paths(data_dir)
    values = {
        "train": paths["train"],
        "valid": paths["valid"],
        "test": paths["test"],
        "visual_features": paths["visual"],
        "textual_features": paths["textual"],
        "out": out_dir,
    }
    values.update(TOY_DEFAULTS)
    values.update(overrides)
    lines = [f"{key} = {_fmt(value)}" for key, value in values.items()]
    return "\n".join(lines) + "\n"


def _fmt(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (tuple, list)):
        return ",".join(str(v) for v in value)
    return str(value)
