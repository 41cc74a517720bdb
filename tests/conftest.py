"""Shared fixtures: tiny models, datasets, and numeric helpers."""

import numpy as np
import pytest

from adamf.data import FeatureTable, TripleDataset, Vocab
from adamf.model import Model, ModelConfig, init_params
from adamf.rng import SeededRng
from adamf.training import loss_kgc, positive_parts


def probe_sum(tape, x, r=None):
    """Scalar test probe sum(r * x) on the tape, with r a constant of x's
    shape (sum(x) without one): reduces a kernel's output to a root."""
    r = None if r is None else np.asarray(r, dtype=tape.dtype)
    value = x.value.sum() if r is None else (r * x.value).sum()

    def backward(g):
        x.add_grad(np.broadcast_to(g, x.shape).copy() if r is None else g * r)

    return tape._emit("probe_sum", value, (x,), backward)


def probe_square(tape, x):
    """Scalar test probe sum(x * x) on the tape."""
    def backward(g):
        x.add_grad(2.0 * (g * x.value))

    return tape._emit("probe_square", (x.value * x.value).sum(), (x,), backward)


def make_dataset(n_entities, triples_by_split, n_relations=1):
    """Hand-built TripleDataset over anonymous entity/relation names."""
    vocab = Vocab()
    for i in range(n_entities):
        vocab.add_entity(f"e{i}")
    for r in range(n_relations):
        vocab.add_relation(f"r{r}")
    return TripleDataset.from_splits(
        vocab, *(triples_by_split.get(split, []) for split in ("train", "valid", "test")))


def synthetic_scores(model, tape, batch, patterns, noise):
    """`Model.synthetic_triple_scores` against the batch's own positives,
    with the synthetic modal embeddings generated from `noise`."""
    generated = model.generate(tape, batch, noise)
    table = model.entity_table(tape, (batch,))
    return model.synthetic_triple_scores(tape, batch, patterns, generated, table)


def margin_loss(model, tape, batch, negatives):
    """`loss_kgc` as the discriminator step builds it, with `positive_parts`
    over the batch and its negatives."""
    return loss_kgc(model, tape, negatives, positive_parts(model, tape, (batch, negatives)))


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
