"""Shared fixtures: tiny models, datasets, and numeric helpers."""

import numpy as np
import pytest

from adamf.data import FeatureTable, TripleDataset, Vocab
from adamf.model import Model, ModelConfig, init_params
from adamf.rng import SeededRng
from adamf.training import loss_kgc, positive_parts


def make_dataset(n_entities, triples_by_split, n_relations=1):
    """Hand-built TripleDataset over anonymous entity/relation names."""
    vocab = Vocab()
    for i in range(n_entities):
        vocab.add_entity(f"e{i}")
    for r in range(n_relations):
        vocab.add_relation(f"r{r}")
    return TripleDataset.from_splits(
        vocab, *(triples_by_split.get(split, []) for split in ("train", "valid", "test")))


def synthetic_scores(model, tape, batch, n_groups, patterns, live, noise):
    """`Model.synthetic_triple_scores` against the batch's own positives,
    with the synthetic modal embeddings generated from `noise`."""
    generated = model.generate(tape, batch, noise, live)
    table = model.entity_table(tape, (batch,), live)
    return model.synthetic_triple_scores(tape, batch, n_groups, patterns, live,
                                         generated, table)


def margin_loss(model, tape, batch, negatives, live):
    """`loss_kgc` as the discriminator step builds it, with `positive_parts`
    over the batch and its negatives."""
    pos = positive_parts(model, tape, (batch, negatives), live)
    return loss_kgc(model, tape, negatives, live, pos)


def random_features(n_entities, dim, modality, rng, absent=()):
    present = np.ones(n_entities, dtype=bool)
    for i in absent:
        present[i] = False
    matrix = rng.normals(n_entities * dim).reshape(n_entities, dim)
    return FeatureTable(modality, dim, matrix, present)


def small_features(n_entities=6, seed=0, absent_v=(), absent_t=()):
    """The feature tables of `small_model` with the same arguments: 4-wide
    visual and 5-wide textual random rows."""
    rng = SeededRng(seed, stream="fixture-features")
    return {"v": random_features(n_entities, 4, "v", rng.substream("v"), absent_v),
            "t": random_features(n_entities, 5, "t", rng.substream("t"), absent_t)}


def small_model(n_entities=6, n_relations=2, d=3, seed=0, absent_v=(),
                absent_t=(), **cfg_kwargs):
    """Random double-precision model over tiny feature tables."""
    cfg_kwargs.setdefault("fusion_mode", "adaptive")
    cfg_kwargs.setdefault("precision", "double")
    cfg = ModelConfig(d=d, visual_dim=4, textual_dim=5, noise_dim=3,
                      gamma=4.0, **cfg_kwargs)
    store = init_params(cfg, n_entities, n_relations, seed=seed)
    features = small_features(n_entities, seed, absent_v, absent_t)
    return Model(cfg, store, {m: features[m] for m in cfg.projected_modalities})


def line_model(positions, gamma=4.0, n_relations=1):
    """Structural-only model with hand-set 1-complex-dim embeddings.

    Entity i sits at (positions[i], 0) in the complex plane and every
    relation is the identity rotation, so F((i, r, j)) = |pos_i - pos_j|.
    """
    cfg = ModelConfig(d=1, visual_dim=2, textual_dim=2, noise_dim=2,
                      modalities=("s",), gamma=gamma, precision="double")
    store = init_params(cfg, len(positions), n_relations, seed=0)
    coords = np.zeros((len(positions), 2))
    coords[:, 0] = positions
    store.set("entity.structural", coords)
    store.set("relation.phase", np.zeros((n_relations, 1)))
    return Model(cfg, store)


@pytest.fixture
def rng():
    return SeededRng(1234)
