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
from .tape import Node, Tape

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
    for m in cfg.modalities:
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
    for m in cfg.modalities:
        store[f"fusion.w.{m}"][...] = 1.0
    return store


class EntityTable(NamedTuple):
    """One step's fused entity rows: entity ids[i] is row i of joint/alpha."""
    ids: np.ndarray    # (U,) sorted unique entity ids
    joint: Node        # (U, 2d)
    alpha: Node        # (U, M)

    def rows(self, entities: np.ndarray) -> np.ndarray:
        """Row of each entity; every one must be in the table."""
        rows = np.searchsorted(self.ids, entities)
        if not np.array_equal(self.ids[np.minimum(rows, self.ids.size - 1)], entities):
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
        row of the others; only present rows are projected.
        """
        idx = np.asarray(idx, dtype=np.int64)
        if m == "s":
            return tape.gather(tape.leaf("entity.structural"), idx)
        if m not in self.cfg.projected_modalities:
            raise ContractError(f"modality {m!r} not active in this model")
        rows = self._rows[m][idx]
        present = rows >= 0
        projected = tape.matvec(tape.leaf(f"proj.{m}.weight"),
                                tape.const(self._raw[m][rows[present]]),
                                tape.leaf(f"proj.{m}.bias"))
        if present.all():
            return projected
        fallback = tape.gather(tape.leaf(f"fallback.{m}"), idx[~present])
        return tape.merge_rows(present, projected, fallback)

    def fuse(self, tape: Tape, parts: dict[str, Node]) -> tuple[Node, Node]:
        """Combine per-modality embeddings into (joint (B,2d), alpha (B,M)).

        Adaptive mode scores each modality by the inner product of its
        fusion vector with tanh(embedding) and softmaxes the scores; mean
        mode weights every available modality equally.  Both modes build
        joint as the alpha-weighted sum of the parts.
        """
        order = self.cfg.modalities
        if set(parts) != set(order):
            raise ContractError(
                f"fusion expects modalities {order}, got {tuple(parts)}")
        xs = [parts[m] for m in order]
        if self.cfg.fusion_mode == "mean":
            alpha = tape.const(np.full((xs[0].shape[0], len(xs)), 1.0 / len(xs)))
        else:
            alpha = tape.fusion_weights(xs, [tape.leaf(f"fusion.w.{m}") for m in order])
        return tape.mix(alpha, xs), alpha

    def joint_and_alpha(self, tape: Tape, idx: np.ndarray) -> tuple[Node, Node]:
        """Joint embeddings (B, 2d) and fusion weights (B, M) of entities idx."""
        parts = {m: self.modal_embedding(tape, m, idx) for m in self.cfg.modalities}
        return self.fuse(tape, parts)

    def entity_table(self, tape: Tape, triples) -> EntityTable:
        """Fused rows of every entity named as a head or tail in `triples`
        (a sequence of (..., 3) arrays), each entity built once."""
        ids = np.unique(np.concatenate([np.asarray(x)[..., 0::2].ravel() for x in triples]))
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
            return tape.query_distance(table.joint, h, phase, r, table.joint, t)
        head = negatives[..., 0] != triples[:, None, 0]
        if not ((head <= (negatives[..., 2] == triples[:, None, 2]))
                & (negatives[..., 1] == triples[:, None, 1])).all():
            raise ContractError("a negative must replace one side of its triple")
        return tape.query_distance(table.joint, np.stack((h, t)), phase, r, table.joint,
                                   table.rows(np.where(head, negatives[..., 0],
                                                       negatives[..., 2])), head)

    # -------------------------------------------------------------- generator

    def generator_output(self, tape: Tape, m: str, e_s_values: np.ndarray,
                         z: np.ndarray) -> Node:
        """Synthetic modal embedding G_m([e_s; z]) for a batch, shape (B, 2d).

        G_m is affine -> LeakyReLU -> affine with a hidden width of 2d.  The
        structural input is always a detached constant: gradients reach the
        generator weights, never the structural embeddings behind them.
        """
        x = tape.const(np.concatenate([e_s_values, z], axis=1))
        hidden = tape.leaky_relu(
            tape.matvec(tape.leaf(f"gen.{m}.w1"), x, tape.leaf(f"gen.{m}.b1")), LEAKY_SLOPE)
        return tape.matvec(tape.leaf(f"gen.{m}.w2"), hidden, tape.leaf(f"gen.{m}.b2"))

    def draw_noise(self, triples: np.ndarray, n_groups: int,
                   patterns: tuple[str, ...], rng: SeededRng) -> dict:
        """Every noise vector a synthetic build consumes, in one draw.

        Keys are (group, side, modality) in construction order.  The draw is
        one `rng.normals` call split into blocks; each block is padded to an
        even length, so the values equal those of one call per block.
        """
        keys = [(g, side, m) for g in range(n_groups) for side in synthetic_sides(patterns)
                for m in self.cfg.projected_modalities]
        rows = triples.shape[0]
        size = rows * self.cfg.noise_dim
        padded = size + size % 2
        z = rng.normals(len(keys) * padded).reshape(len(keys), padded)[:, :size]
        return {key: z[i].reshape(rows, self.cfg.noise_dim)
                for i, key in enumerate(keys)}

    def generate(self, tape: Tape, triples: np.ndarray, noise: dict) -> dict:
        """Generated modal embeddings, one node per `noise` key, in key order.

        Key (group, side, modality) runs G_m on the structural embeddings of
        the batch's heads (side "h") or tails (side "t") and that key's z.
        """
        e_s = {side: np.asarray(self.store["entity.structural"][triples[:, col]])
               for side, col in SIDE_COLUMN.items()}
        return {(g, side, m): self.generator_output(tape, m, e_s[side], z)
                for (g, side, m), z in noise.items()}

    def synthetic_triple_scores(self, tape: Tape, triples: np.ndarray,
                                n_groups: int, patterns: tuple[str, ...], generated: dict,
                                table: EntityTable) -> tuple[Node, list[tuple[int, str]]]:
        """Scores of L groups of synthetic triples for a batch of positives.

        Per group one synthetic head and one synthetic tail are built (when
        a requested pattern needs them) and shared across that group's
        patterns, mirroring the construction of the adversarial example set.
        A synthetic entity keeps its own structural embedding and takes its
        other modalities from `generated` (keys as in `draw_noise`); real
        entities are rows of `table`.  Returns a flat (B * len(meta),) score
        node plus the (group, pattern) block order.  `n_groups` >= 1 and
        `patterns` is a non-empty subset of ALL_PATTERNS in its order, as
        `TrainConfig` validates them.
        """
        phase = tape.leaf("relation.phase")
        entity_idx = {side: triples[:, col] for side, col in SIDE_COLUMN.items()}
        real = {side: (table.joint, table.rows(idx)) for side, idx in entity_idx.items()}
        blocks, meta = [], []
        for g in range(n_groups):
            star = {}
            for side in synthetic_sides(patterns):
                parts = {m: generated[(g, side, m)] if m != "s" else
                         self.modal_embedding(tape, "s", entity_idx[side])
                         for m in self.cfg.modalities}
                star[side] = (self.fuse(tape, parts)[0], np.arange(len(triples)))
            for pattern in patterns:
                h, t = (star[side] if side in PATTERN_SIDES[pattern] else real[side]
                        for side in SIDE_COLUMN)
                blocks.append(tape.query_distance(*h, phase, triples[:, 1], *t))
                meta.append((g, pattern))
        return tape.concat(blocks), meta

    # ------------------------------------------------------------- evaluation

    def entity_representations(self) -> tuple[np.ndarray, np.ndarray]:
        """Joint embeddings and fusion weights of every entity, as arrays."""
        tape = Tape(self.store, FROZEN)
        joint, alpha = self.joint_and_alpha(tape, np.arange(self.n_entities))
        return joint.value, alpha.value

    def relation_phases(self) -> np.ndarray:
        return np.asarray(self.store["relation.phase"])
