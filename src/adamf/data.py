"""Triple and multi-modal feature loading.

File formats (UTF-8, LF, no headers; a leading byte-order mark is dropped):
  triples:   head<TAB>relation<TAB>tail
  features:  entity<TAB>c1,c2,...,cdim, at most one row per entity
No entity or relation name may be empty or start or end with whitespace.
"""

from __future__ import annotations

import logging
import os
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import ContractError, DataError
from .ioutil import atomic_open
from .rng import SeededRng

log = logging.getLogger(__name__)

SPLITS = ("train", "valid", "test")
FEATURE_NAMES = {"v": "visual", "t": "textual"}     # <name>.tsv, <name>_features, <name>_dim


@dataclass
class Vocab:
    """Dense, first-appearance-ordered entity and relation vocabularies."""

    entity_names: list[str] = field(default_factory=list)
    relation_names: list[str] = field(default_factory=list)
    entity_index: dict[str, int] = field(default_factory=dict)
    relation_index: dict[str, int] = field(default_factory=dict)

    def add_entity(self, name: str) -> int:
        idx = self.entity_index.get(name)
        if idx is None:
            idx = len(self.entity_names)
            self.entity_index[name] = idx
            self.entity_names.append(name)
        return idx

    def add_relation(self, name: str) -> int:
        idx = self.relation_index.get(name)
        if idx is None:
            idx = len(self.relation_names)
            self.relation_index[name] = idx
            self.relation_names.append(name)
        return idx

    @property
    def n_entities(self) -> int:
        return len(self.entity_names)

    @property
    def n_relations(self) -> int:
        return len(self.relation_names)


@dataclass
class TripleDataset:
    """Train/valid/test index triples plus the filtered-evaluation index.

    filter_tails[(h, r)] is the set of all tails t with (h, r, t) known true
    in any split; filter_heads[(r, t)] mirrors it for head queries.
    """

    vocab: Vocab
    train: np.ndarray
    valid: np.ndarray
    test: np.ndarray
    filter_tails: dict[tuple[int, int], set[int]]
    filter_heads: dict[tuple[int, int], set[int]]

    @classmethod
    def from_splits(cls, vocab: Vocab, train, valid, test) -> TripleDataset:
        """Dataset over three sequences of (h, r, t) index triples, with the
        filter index built from every split."""
        arrays = [np.array(rows, dtype=np.int64).reshape(-1, 3)
                  for rows in (train, valid, test)]
        filter_tails: dict[tuple[int, int], set[int]] = {}
        filter_heads: dict[tuple[int, int], set[int]] = {}
        for arr in arrays:
            for h, r, t in arr.tolist():
                filter_tails.setdefault((h, r), set()).add(t)
                filter_heads.setdefault((r, t), set()).add(h)
        return cls(vocab, *arrays, filter_tails, filter_heads)

    def split(self, name: str) -> np.ndarray:
        if name not in SPLITS:
            raise ContractError(f"unknown split {name!r}")
        return getattr(self, name)


@dataclass
class FeatureTable:
    """Raw per-entity feature vectors for one modality with a presence mask.

    The mask, not the values, is authoritative: an absent entity's row is
    zeros as `load_features` returns it, or the hidden values after
    `apply_modality_missing`, and consumers must ignore it.
    """

    modality: str
    dim: int
    matrix: np.ndarray
    present: np.ndarray


def _tsv_rows(path: str, n_fields: int, form: str, names: tuple[str, ...]):
    """(lineno, fields) of each non-empty line of a tab-separated file; a
    line without `n_fields` fields raises DataError naming `form`, as does
    an empty field, or one with leading or trailing whitespace, among the
    leading ones that `names` labels."""
    with open(path, encoding="utf-8-sig") as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.rstrip("\n")
            if not line:
                continue
            fields = line.split("\t")
            if len(fields) != n_fields:
                raise DataError(f"{path}:{lineno}: expected {form}, got {len(fields)} fields")
            for name, value in zip(names, fields):
                if not value:
                    raise DataError(f"{path}:{lineno}: empty {name} name")
                if value.strip() != value:
                    raise DataError(f"{path}:{lineno}: {name} name {value!r} has "
                                    f"leading or trailing whitespace")
            yield lineno, fields


def _parse_triple_file(path: str, split: str, vocab: Vocab) -> list[tuple[int, int, int]]:
    triples = []
    seen = set()
    duplicates = 0
    for _, fields in _tsv_rows(path, 3, "3 tab-separated fields",
                               ("head", "relation", "tail")):
        key = tuple(fields)
        if key in seen:
            duplicates += 1
            continue
        seen.add(key)
        h, r, t = key
        triples.append((vocab.add_entity(h), vocab.add_relation(r), vocab.add_entity(t)))
    if duplicates:
        log.warning("%s: dropped %d duplicate triples in %s split",
                    path, duplicates, split)
    return triples


def load_triples(train_path: str, valid_path: str | None = None,
                 test_path: str | None = None) -> TripleDataset:
    """Load the three splits, building vocab in first-appearance order.

    Valid/test may be empty files or omitted entirely; an empty train split
    is an error, as is any triple appearing in more than one split.
    """
    vocab = Vocab()
    triples = {split: _parse_triple_file(path, split, vocab) if path else []
               for split, path in zip(SPLITS, (train_path, valid_path, test_path))}
    if not triples["train"]:
        raise DataError(f"{train_path}: train split is empty")
    for a, b in (("train", "valid"), ("train", "test"), ("valid", "test")):
        overlap = set(triples[a]) & set(triples[b])
        if overlap:
            raise DataError(
                f"splits {a} and {b} are not disjoint; "
                f"{len(overlap)} shared triples, e.g. {sorted(overlap)[0]}")
    return TripleDataset.from_splits(vocab, triples["train"], triples["valid"],
                                     triples["test"])


def save_triples(dataset: TripleDataset, train_path: str, valid_path: str,
                 test_path: str):
    names = dataset.vocab.entity_names
    relations = dataset.vocab.relation_names
    for path, split in zip((train_path, valid_path, test_path), SPLITS):
        with atomic_open(path) as fh:
            for h, r, t in dataset.split(split):
                fh.write(f"{names[h]}\t{relations[r]}\t{names[t]}\n")


def load_features(path: str, vocab: Vocab, modality: str, dim: int) -> FeatureTable:
    """Load one modality's feature file against an existing vocab.

    Entities missing from the file get present=False; entities in the file
    but not in the vocab are skipped with a warning.  An entity may have one
    row only.
    """
    if dim < 1:
        raise ContractError(f"feature dim must be positive, got {dim}")
    matrix = np.zeros((vocab.n_entities, dim), dtype=np.float64)
    present = np.zeros(vocab.n_entities, dtype=bool)
    unknown = 0
    for lineno, (name, values) in _tsv_rows(path, 2, "`entity<TAB>floats`",
                                            ("entity",)):
        idx = vocab.entity_index.get(name)
        if idx is None:
            unknown += 1
            continue
        if present[idx]:
            raise DataError(f"{path}:{lineno}: second row for entity {name!r}")
        components = values.split(",")
        if len(components) != dim:
            raise DataError(
                f"{path}:{lineno}: expected {dim} components, got {len(components)}")
        try:
            row = np.array([float(c) for c in components], dtype=np.float64)
        except ValueError as exc:
            raise DataError(f"{path}:{lineno}: {exc}") from None
        if not np.all(np.isfinite(row)):
            raise DataError(f"{path}:{lineno}: non-finite feature value")
        matrix[idx] = row
        present[idx] = True
    if unknown:
        log.warning("%s: skipped %d rows for entities not in vocab", path, unknown)
    return FeatureTable(modality, dim, matrix, present)


def save_features(table: FeatureTable, vocab: Vocab, path: str):
    """Write present rows only, in vocab order."""
    with atomic_open(path) as fh:
        for idx, name in enumerate(vocab.entity_names):
            if table.present[idx]:
                row = ",".join(repr(float(v)) for v in table.matrix[idx])
                fh.write(f"{name}\t{row}\n")


def apply_modality_missing(table: FeatureTable, ratio: float, seed: int) -> FeatureTable:
    """Mask floor(ratio * n_entities) entities, chosen uniformly by the seed.

    The choice depends only on (n_entities, ratio, seed), so applying the
    same seed to both modalities drops the same entities.  The result
    shares the input's matrix and has a new `present`, so the input table
    is left unmodified and no feature row is copied.
    """
    if not 0.0 <= ratio <= 1.0:
        raise ContractError(f"missing ratio must be in [0, 1], got {ratio}")
    n = table.present.shape[0]
    n_masked = int(ratio * n)
    present = table.present.copy()
    if n_masked > 0:
        present[SeededRng(seed, stream="masks").permutation(n)[:n_masked]] = False
    return replace(table, present=present)


def feature_dir_paths(base: str) -> dict[str, str]:
    """Conventional layout used by the toy-KG writer and scripts."""
    return {name: os.path.join(base, f"{name}.tsv")
            for name in (*SPLITS, *FEATURE_NAMES.values())}
