"""Synthetic graph with DB15K's counts, made from a seed.

DB15K has 12,842 entities, 279 relations and 79,222 / 9,902 / 9,904
train / valid / test triples, with 4096-wide visual and 768-wide textual
features.  The graph here keeps those counts.  Relation sizes follow a Zipf
law, as real relation frequencies do; heads and tails are uniform; feature
rows are standard Gaussian.  The values carry no signal: these workloads
measure cost, not learning.

The scale of the feature rows is an assumption, and it changes the cost: with
rows scaled to unit norm, more of the float32 adjoints that reach the
projection ``matvec`` are subnormal, and its backward runs about twice as
slowly.  ``unit_rows`` gives the second scale, so a workload can run both.
"""

from __future__ import annotations

import numpy as np

from adamf.data import FeatureTable, TripleDataset, Vocab

N_ENTITIES = 12_842
N_RELATIONS = 279
SPLIT_SIZES = {"train": 79_222, "valid": 9_902, "test": 9_904}
VISUAL_DIM = 4096
TEXTUAL_DIM = 768
ZIPF_EXPONENT = 1.0


def relation_sizes(total: int, n_relations: int, exponent: float) -> np.ndarray:
    """Zipf-skewed relation sizes summing to ``total``, each at least 1."""
    weights = 1.0 / np.arange(1, n_relations + 1) ** exponent
    sizes = np.maximum(1, np.floor(total * weights / weights.sum())).astype(np.int64)
    sizes[0] += total - sizes.sum()
    return sizes


def make_triples(rng: np.random.Generator) -> dict[str, np.ndarray]:
    """Distinct (h, r, t) rows split at random into train/valid/test."""
    total = sum(SPLIT_SIZES.values())
    rel = np.repeat(np.arange(N_RELATIONS), relation_sizes(total, N_RELATIONS,
                                                            ZIPF_EXPONENT))
    h = rng.integers(0, N_ENTITIES, total)
    t = rng.integers(0, N_ENTITIES, total)
    key = (h * N_RELATIONS + rel) * N_ENTITIES + t
    # Redraw the tails of duplicates until every triple is distinct.
    while True:
        _, first = np.unique(key, return_index=True)
        dup = np.setdiff1d(np.arange(total), first)
        if dup.size == 0:
            break
        t[dup] = rng.integers(0, N_ENTITIES, dup.size)
        key = (h * N_RELATIONS + rel) * N_ENTITIES + t
    triples = np.stack([h, rel, t], axis=1)[rng.permutation(total)]
    out, start = {}, 0
    for split, size in SPLIT_SIZES.items():
        out[split] = triples[start:start + size]
        start += size
    return out


def make_dataset(splits: dict[str, np.ndarray], test=None) -> TripleDataset:
    """TripleDataset over the full vocabulary; ``test`` replaces the test
    split while the filter index still covers every split."""
    vocab = Vocab()
    for i in range(N_ENTITIES):
        vocab.add_entity(f"e{i}")
    for r in range(N_RELATIONS):
        vocab.add_relation(f"r{r}")
    filter_tails: dict[tuple[int, int], set[int]] = {}
    filter_heads: dict[tuple[int, int], set[int]] = {}
    for arr in splits.values():
        for h, r, t in arr.tolist():
            filter_tails.setdefault((h, r), set()).add(t)
            filter_heads.setdefault((r, t), set()).add(h)
    return TripleDataset(vocab, splits["train"], splits["valid"],
                         splits["test"] if test is None else test,
                         filter_tails, filter_heads)


def make_features(rng: np.random.Generator) -> dict[str, FeatureTable]:
    """Full-coverage float64 feature tables, as ``load_features`` returns."""
    present = np.ones(N_ENTITIES, dtype=bool)
    tables = {}
    for m, dim in (("v", VISUAL_DIM), ("t", TEXTUAL_DIM)):
        matrix = rng.standard_normal((N_ENTITIES, dim))
        tables[m] = FeatureTable(m, dim, matrix, present.copy())
    return tables


def unit_rows(tables: dict[str, FeatureTable]) -> dict[str, FeatureTable]:
    """Copies of ``tables`` with every row scaled to unit Euclidean norm."""
    return {m: FeatureTable(t.modality, t.dim,
                            t.matrix / np.linalg.norm(t.matrix, axis=1,
                                                      keepdims=True),
                            t.present.copy())
            for m, t in tables.items()}
