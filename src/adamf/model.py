"""Parameterized model pieces: modal projections, adaptive fusion, complex
rotation scoring, and the modality-adversarial generator.

All builders operate on row batches: entity index arrays of shape (B,) map
to embedding nodes of shape (B, 2d).  Gradient flow is the tape's: builders
take every parameter through ``Tape.leaf``, which is differentiable for the
groups the tape was made to train and a frozen leaf otherwise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .data import FEATURE_NAMES, FeatureTable
from .errors import ContractError
from .params import ParameterStore
from .rng import SeededRng
from .tape import Node, Tape, every_row

MODALITY_ORDER = ("s", "v", "t")
PROJECTED = tuple(FEATURE_NAMES)

# Synthetic-triple patterns: which side of (h, r, t) gets generated modal
# embeddings.  Canonical order is fixed so noise draws are reproducible.
SYN_TAIL = "syn_tail"    # (h, r, t*)
SYN_HEAD = "syn_head"    # (h*, r, t)
SYN_BOTH = "syn_both"    # (h*, r, t*)
PATTERN_SIDES = {SYN_TAIL: ("t",), SYN_HEAD: ("h",), SYN_BOTH: ("h", "t")}
ALL_PATTERNS = tuple(PATTERN_SIDES)
SIDE_COLUMN = {"h": 0, "t": 2}     # a side's column in (h, r, t), in build order

DISC = frozenset({"discriminator"})
GEN = frozenset({"generator"})
FROZEN = frozenset()

INIT_CHUNK = 1 << 16    # draws per pass of init_params's uniform tables
LEAKY_SLOPE = 0.01      # negative slope of the generator's hidden LeakyReLU
FEATURE_BLOCK = 256     # feature rows per pass of Model's dtype conversion


def synthetic_sides(patterns: tuple[str, ...]) -> tuple[str, ...]:
    """Sides ("h", "t") whose synthetic entity some pattern uses, in build order."""
    return tuple(side for side in SIDE_COLUMN
                 if any(side in PATTERN_SIDES[p] for p in patterns))


def side_entities(triples: np.ndarray, sides: tuple[str, ...]) -> np.ndarray:
    """Each triple's entity on each of `sides`, stacked: row s * B + b."""
    return triples[:, [SIDE_COLUMN[side] for side in sides]].T.reshape(-1)


@dataclass
class ModelConfig:
    d: int = 200
    visual_dim: int = 4096
    textual_dim: int = 768
    noise_dim: int = 64
    fusion_mode: str = "adaptive"
    modalities: tuple[str, ...] = ("s", "v", "t")
    gamma: float = 12.0
    beta: float = 1.0
    precision: str = "single"

    def __post_init__(self):
        unknown = set(self.modalities) - set(MODALITY_ORDER)
        if unknown:
            raise ContractError(f"modalities: unknown entries {sorted(unknown)}")
        self.modalities = tuple(m for m in MODALITY_ORDER if m in self.modalities)
        if self.d < 1:
            raise ContractError("embedding dimension d (key dim) must be >= 1")
        for key in ("visual_dim", "textual_dim", "noise_dim"):
            if getattr(self, key) < 1:
                raise ContractError(f"{key} must be >= 1")
        if self.gamma <= 0:
            raise ContractError("margin gamma must be positive")
        if self.beta < 0:
            raise ContractError("negative-weight temperature beta must be >= 0")
        if not self.modalities:
            raise ContractError("modalities must name at least one modality")
        if "s" not in self.modalities and self.modalities != ("v", "t"):
            raise ContractError("modalities must contain 's' unless exactly {v,t}")
        if self.fusion_mode not in ("adaptive", "mean"):
            raise ContractError(f"unknown fusion_mode {self.fusion_mode!r}")
        if self.precision not in ("single", "double"):
            raise ContractError(f"unknown precision {self.precision!r}")

    @property
    def entity_dim(self) -> int:
        return 2 * self.d

    @property
    def dtype(self):
        return np.float64 if self.precision == "double" else np.float32

    @property
    def weighted_fusion(self) -> bool:
        """Fusion reads weights: adaptive, over two or more modalities."""
        return self.fusion_mode == "adaptive" and len(self.modalities) > 1

    @property
    def projected_modalities(self) -> tuple[str, ...]:
        return tuple(m for m in self.modalities if m in PROJECTED)

    def feature_dim(self, m: str) -> int:
        return getattr(self, f"{FEATURE_NAMES[m]}_dim")


def _param_tables(cfg: ModelConfig, n_entities: int, n_relations: int) -> dict:
    """group -> {name: (shape, uniform bound)}; a bound of 0 draws nothing."""
    two_d = cfg.entity_dim

    def xavier(fan_out, fan_in):
        return (fan_out, fan_in), math.sqrt(6.0 / (fan_in + fan_out))

    b = 6.0 / math.sqrt(two_d)
    disc = {"entity.structural": ((n_entities, two_d), b),
            "relation.phase": ((n_relations, cfg.d), math.pi)}
    gen = {}
    for m in cfg.projected_modalities:
        disc[f"proj.{m}.weight"] = xavier(two_d, cfg.feature_dim(m))
        disc[f"proj.{m}.bias"] = (two_d,), 0.0
        disc[f"fallback.{m}"] = (n_entities, two_d), b
    for m in cfg.modalities if cfg.weighted_fusion else ():
        disc[f"fusion.w.{m}"] = (two_d,), 0.0
    for m in cfg.projected_modalities:
        gen[f"gen.{m}.w1"] = xavier(two_d, two_d + cfg.noise_dim)
        gen[f"gen.{m}.b1"] = (two_d,), 0.0
        gen[f"gen.{m}.w2"] = xavier(two_d, two_d)
        gen[f"gen.{m}.b2"] = (two_d,), 0.0
    return {"discriminator": disc, "generator": gen}


def zero_params(cfg: ModelConfig, n_entities: int, n_relations: int) -> ParameterStore:
    """The model's store with every parameter zero: the layout a checkpoint
    is loaded into, and the one init_params draws into."""
    store = ParameterStore(dtype=cfg.dtype)
    for group, tables in _param_tables(cfg, n_entities, n_relations).items():
        # Unwritten zeros in the store's dtype, so each group is resident once.
        store.extend(group, {n: np.zeros(shape, cfg.dtype) for n, (shape, _) in tables.items()})
    return store


def init_params(cfg: ModelConfig, n_entities: int, n_relations: int,
                seed: int) -> ParameterStore:
    """Deterministic initialization; every tensor draws from its own
    sub-stream so adding/removing parameters never shifts the others."""
    store = zero_params(cfg, n_entities, n_relations)
    root = SeededRng(seed)
    for tables in _param_tables(cfg, n_entities, n_relations).values():
        for name, (_, bound) in tables.items():
            if bound:
                out, rng = store[name].reshape(-1), root.substream(f"init/{name}")
                for lo in range(0, out.size, INIT_CHUNK):
                    chunk = out[lo:lo + INIT_CHUNK]
                    chunk[...] = (rng.uniforms(chunk.size) * 2.0 - 1.0) * bound
    for m in cfg.modalities if cfg.weighted_fusion else ():
        store[f"fusion.w.{m}"][...] = 1.0
    return store


class EntityTable(NamedTuple):
    """One step's fused entity rows: entity ids[i] is row i of joint/alpha."""
    ids: np.ndarray    # (U,) sorted unique entity ids
    joint: Node        # (U, 2d)
    alpha: np.ndarray  # (U, M)

    def rows(self, entities: np.ndarray) -> np.ndarray:
        """Row of each entity; every one must be in the table."""
        rows = self.ids.searchsorted(entities)
        if (self.ids.take(rows, mode="clip") != entities).any():
            raise ContractError("entity outside this step's entity table")
        return rows


class Model:
    """Binds config, parameters, and feature tables; builds tape subgraphs."""

    def __init__(self, cfg: ModelConfig, store: ParameterStore,
                 features: dict[str, FeatureTable | None] | None = None):
        self.cfg = cfg
        self.store = store
        self.n_entities = store["entity.structural"].shape[0]
        self.n_relations = store["relation.phase"].shape[0]
        features = features or {}
        # Only the present feature rows, at the store's dtype; entity -> row or -1.
        self._raw: dict[str, np.ndarray] = {}
        self._rows: dict[str, np.ndarray] = {}
        for m in cfg.projected_modalities:
            table = features.get(m)
            shape = (self.n_entities, cfg.feature_dim(m))
            present = np.zeros(shape[0], dtype=bool)   # no table: no row is read
            if table is not None:
                got = (table.matrix.shape, np.shape(table.present))
                if got != (shape, shape[:1]):
                    raise ContractError(f"feature table for {m!r} has matrix and mask "
                                        f"shapes {got}, expected {(shape, shape[:1])}")
                present = np.asarray(table.present, dtype=bool)
            ids = np.flatnonzero(present)
            self._raw[m] = raw = np.empty((ids.size, shape[1]), cfg.dtype)
            for lo in range(0, ids.size, FEATURE_BLOCK):
                raw[lo:lo + FEATURE_BLOCK] = table.matrix[ids[lo:lo + FEATURE_BLOCK]]
            self._rows[m] = np.full(self.n_entities, -1, dtype=np.int64)
            self._rows[m][ids] = np.arange(ids.size)

    # ------------------------------------------------------------- embeddings

    def modal_embedding(self, tape: Tape, m: str, idx: np.ndarray) -> Node:
        """Entity embedding for one modality, shape (B, 2d).

        Projected modalities take the affine projection of the raw features
        of entities whose features are present, and the trainable fallback
        row of the others, joined in one `take`; only present rows are
        projected.  When those are all the model's present rows, in order
        (as over every entity), the projection reads `_raw[m]` in place.
        """
        idx = np.asarray(idx, dtype=np.int64)
        if m == "s":
            return tape.take([tape.leaf("entity.structural")], idx)
        if m not in self._rows:
            raise ContractError(f"modality {m!r} not active in this model")
        rows = self._rows[m].take(idx)
        present = rows >= 0
        raw, read = self._raw[m], rows[present]
        projected = tape.matvec(tape.leaf(f"proj.{m}.weight"),
                                tape.const(raw if every_row(read, len(raw))
                                           else raw.take(read, axis=0)),
                                tape.leaf(f"proj.{m}.bias"))
        if present.all():
            return projected
        # a present entity reads its projected row, in order; an absent one its fallback row
        return tape.take([projected, tape.leaf(f"fallback.{m}")],
                         np.where(present, present.cumsum() - 1, idx), ~present)

    def fuse(self, tape: Tape, parts: dict[str, Node]) -> tuple[Node, np.ndarray]:
        """Combine per-modality embeddings into (joint (B,2d), alpha (B,M)).

        Adaptive mode scores each modality by the inner product of its
        fusion vector with tanh(embedding) and softmaxes the scores; mean
        mode, or one modality, weights every modality equally (alpha = 1/M).
        Both build joint as the alpha-weighted sum of the parts (`Tape.fuse`).
        """
        order = self.cfg.modalities
        if set(parts) != set(order):
            raise ContractError(
                f"fusion expects modalities {order}, got {tuple(parts)}")
        weights = ([tape.leaf(f"fusion.w.{m}") for m in order] if self.cfg.weighted_fusion
                   else None)
        return tape.fuse([parts[m] for m in order], weights)

    def joint_and_alpha(self, tape: Tape, idx: np.ndarray) -> tuple[Node, np.ndarray]:
        """Joint embeddings (B, 2d) and fusion weights (B, M) of entities idx."""
        parts = {m: self.modal_embedding(tape, m, idx) for m in self.cfg.modalities}
        return self.fuse(tape, parts)

    def entity_table(self, tape: Tape, triples) -> EntityTable:
        """Fused rows of every entity named as a head or tail in `triples`
        (a sequence of (..., 3) arrays), each entity built once."""
        named = np.zeros(self.n_entities, dtype=bool)
        for x in triples:
            named[np.asarray(x)[..., 0::2]] = True
        ids = named.nonzero()[0]
        return EntityTable(ids, *self.joint_and_alpha(tape, ids))

    # ---------------------------------------------------------------- scoring

    def distances(self, tape: Tape, table: EntityTable, triples: np.ndarray,
                  negatives: np.ndarray | None = None) -> Node:
        """Rotation distance F(h,r,t) of (B, 3) triples over `table`, (B,); or,
        given (B, K, 3) `negatives` that each replace one side of their
        triple, F of those, (B, K), from one query row per triple and side:
        |h o r - t'| and |h' - t o conj(r)| (a rotation keeps the modulus)."""
        h, r, t = table.rows(triples[:, 0]), triples[:, 1], table.rows(triples[:, 2])
        phase = tape.leaf("relation.phase")
        if negatives is None:
            return tape.query_distance(table.joint, h, phase, r, t)
        head = negatives[..., 0] != triples[:, None, 0]
        if not ((head <= (negatives[..., 2] == triples[:, None, 2]))
                & (negatives[..., 1] == triples[:, None, 1])).all():
            raise ContractError("a negative must replace one side of its triple")
        return tape.query_distance(table.joint, np.array((h, t)), phase, r,
                                   table.rows(np.where(head, negatives[..., 0],
                                                       negatives[..., 2])), head)

    # -------------------------------------------------------------- generator

    def generator_inputs(self, triples: np.ndarray, patterns: tuple[str, ...],
                         rng: SeededRng) -> dict[str, np.ndarray]:
        """Each projected modality's generator input [e_s; z], one (S * B,
        2d + noise_dim) array in the store's dtype over the S sides that
        `patterns` generate: row s * B + b is the structural row of
        `side_entities` row s * B + b followed by its noise.

        The noise is one `rng.normals` call split into (side, modality)
        blocks, in that order; each block is padded to an even length, so
        the values equal those of one call per block.
        """
        sides, modalities = synthetic_sides(patterns), self.cfg.projected_modalities
        e_s = self.store["entity.structural"].take(side_entities(triples, sides), axis=0)
        size = len(triples) * self.cfg.noise_dim
        padded = size + size % 2
        z = rng.normals(len(sides) * len(modalities) * padded).reshape(
            len(sides), len(modalities), padded)[..., :size]
        return {m: np.concatenate([e_s, z[:, j].reshape(len(e_s), -1)], axis=1,
                                  dtype=self.store.dtype) for j, m in enumerate(modalities)}

    def generate(self, tape: Tape, inputs: dict[str, np.ndarray]) -> dict[str, Node]:
        """Synthetic modal embeddings G_m(x), modality m -> one node of x's
        rows and width 2d, from each of `generator_inputs`'s arrays x.

        G_m is affine -> LeakyReLU -> affine with a hidden width of 2d.  Its
        input is a constant: gradients reach the generator weights, never
        the structural embeddings behind them.
        """
        out = {}
        for m, x in inputs.items():
            x = tape.const(x)
            hidden = tape.leaky_relu(
                tape.matvec(tape.leaf(f"gen.{m}.w1"), x, tape.leaf(f"gen.{m}.b1")), LEAKY_SLOPE)
            out[m] = tape.matvec(tape.leaf(f"gen.{m}.w2"), hidden, tape.leaf(f"gen.{m}.b2"))
        return out

    def synthetic_triple_scores(self, tape: Tape, triples: np.ndarray,
                                patterns: tuple[str, ...], generated: dict,
                                table: EntityTable) -> Node:
        """Scores of the synthetic triples of a batch of positives.

        One synthetic head and one synthetic tail are built (when a
        requested pattern needs them) and shared across the patterns,
        mirroring the construction of the adversarial example set.  A
        synthetic entity keeps its own structural embedding and takes its
        other modalities from `generated` (`generate`'s rows); all of them
        are fused in one pass and joined, in one `take`, below each triple's
        `table` rows on the sides some pattern reads as real (no negative's),
        so one `query_distance` call scores every pattern.  Returns a flat
        (B * len(patterns),) score node, one block of B per pattern in
        `patterns` order.  `patterns` is a non-empty subset of ALL_PATTERNS
        in its order, as `TrainConfig` validates it.
        """
        sides, n = synthetic_sides(patterns), len(triples)
        parts = {m: generated[m] if m != "s" else
                 self.modal_embedding(tape, "s", side_entities(triples, sides))
                 for m in self.cfg.modalities}
        synthetic = self.fuse(tape, parts)[0]
        # Blocks of B rows: real tails, real heads, then the synthetic sides.
        # Tails first, as query_distance's backward delivers the candidates'
        # adjoints in its block loop and the queries' after it: take's in-order
        # scatter adds them into the table's adjoint in the order they arrive.
        real = tuple(side for side in reversed(SIDE_COLUMN)
                     if any(side not in PATTERN_SIDES[p] for p in patterns))
        index = np.concatenate([table.rows(side_entities(triples, real)),
                                np.arange(len(sides) * n)])
        rows = tape.take([table.joint, synthetic], index,
                         np.arange(len(index)) >= len(real) * n)   # True: a synthetic row
        blocks = [(side, False) for side in real] + [(side, True) for side in sides]
        h, t = (np.concatenate([blocks.index((side, side in PATTERN_SIDES[p])) * n + np.arange(n)
                                for p in patterns]) for side in SIDE_COLUMN)
        return tape.query_distance(rows, h, tape.leaf("relation.phase"),
                                   np.tile(triples[:, 1], len(patterns)), t)

    # ------------------------------------------------------------- evaluation

    def entity_representations(self) -> tuple[np.ndarray, np.ndarray]:
        """Joint embeddings and fusion weights of every entity, as arrays."""
        tape = Tape(self.store, FROZEN)
        joint, alpha = self.joint_and_alpha(tape, np.arange(self.n_entities))
        return joint.value, alpha

    def relation_phases(self) -> np.ndarray:
        return np.asarray(self.store["relation.phase"])
