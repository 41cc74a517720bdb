"""Parameterized model pieces: modal projections, adaptive fusion, complex
rotation scoring, and the modality-adversarial generator.

All builders operate on row batches: entity index arrays of shape (B,) map
to embedding nodes of shape (B, 2d).  Gradient flow is controlled by the
``live`` group set: leaves for parameters in a live group are differentiable,
everything else enters the tape as a detached constant.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .data import FeatureTable
from .errors import ContractError
from .params import ParameterStore
from .rng import SeededRng
from .tape import Node, Tape

MODALITY_ORDER = ("s", "v", "t")
PROJECTED = ("v", "t")

# Synthetic-triple patterns: which side of (h, r, t) gets generated modal
# embeddings.  Canonical order is fixed so noise draws are reproducible.
SYN_TAIL = "syn_tail"    # (h, r, t*)
SYN_HEAD = "syn_head"    # (h*, r, t)
SYN_BOTH = "syn_both"    # (h*, r, t*)
ALL_PATTERNS = (SYN_TAIL, SYN_HEAD, SYN_BOTH)

DISC = frozenset({"discriminator"})
GEN = frozenset({"generator"})
FROZEN = frozenset()


def synthetic_sides(patterns: tuple[str, ...]) -> tuple[str, ...]:
    """Sides ("h", "t") whose synthetic entity some pattern uses, in build order."""
    return tuple(side for side, users in (("h", (SYN_HEAD, SYN_BOTH)),
                                          ("t", (SYN_TAIL, SYN_BOTH)))
                 if any(p in patterns for p in users))


@dataclass
class ModelConfig:
    d: int = 200
    visual_dim: int = 4096
    textual_dim: int = 768
    noise_dim: int = 64
    hidden_dim: int = 0            # 0 means 2*d
    fusion_mode: str = "adaptive"
    modalities: tuple[str, ...] = ("s", "v", "t")
    leaky_slope: float = 0.01
    gamma: float = 12.0
    beta: float = 1.0
    selfadv_sign: str = "negated"
    precision: str = "single"

    def __post_init__(self):
        self.modalities = tuple(m for m in MODALITY_ORDER if m in self.modalities)
        if self.d < 1:
            raise ContractError("embedding dimension d must be >= 1")
        if self.noise_dim < 1:
            raise ContractError("noise_dim must be >= 1")
        if self.gamma <= 0:
            raise ContractError("margin gamma must be positive")
        if not self.modalities:
            raise ContractError("at least one modality is required")
        if "s" not in self.modalities and self.modalities != ("v", "t"):
            raise ContractError("modalities must contain 's' unless exactly {v,t}")
        if self.fusion_mode not in ("adaptive", "mean"):
            raise ContractError(f"unknown fusion_mode {self.fusion_mode!r}")
        if self.selfadv_sign not in ("negated", "literal"):
            raise ContractError(f"unknown selfadv_sign {self.selfadv_sign!r}")
        if self.precision not in ("single", "double"):
            raise ContractError(f"unknown precision {self.precision!r}")

    @property
    def entity_dim(self) -> int:
        return 2 * self.d

    @property
    def gen_hidden(self) -> int:
        return self.hidden_dim if self.hidden_dim > 0 else 2 * self.d

    @property
    def dtype(self):
        return np.float64 if self.precision == "double" else np.float32

    @property
    def projected_modalities(self) -> tuple[str, ...]:
        return tuple(m for m in self.modalities if m in PROJECTED)

    def feature_dim(self, m: str) -> int:
        return self.visual_dim if m == "v" else self.textual_dim


def init_params(cfg: ModelConfig, n_entities: int, n_relations: int,
                seed: int) -> ParameterStore:
    """Deterministic initialization; every tensor draws from its own
    sub-stream so adding/removing parameters never shifts the others."""
    store = ParameterStore(dtype=cfg.dtype)
    root = SeededRng(seed)
    two_d = cfg.entity_dim

    def uniform(name, shape, bound):
        rng = root.substream(f"init/{name}")
        size = int(np.prod(shape))
        return (rng.uniforms(size) * 2.0 - 1.0).reshape(shape) * bound

    def xavier(name, fan_out, fan_in):
        bound = math.sqrt(6.0 / (fan_in + fan_out))
        return uniform(name, (fan_out, fan_in), bound)

    b = 6.0 / math.sqrt(two_d)
    store.add("entity.structural", uniform("entity.structural", (n_entities, two_d), b),
              "discriminator")
    store.add("relation.phase", uniform("relation.phase", (n_relations, cfg.d), math.pi),
              "discriminator")
    for m in cfg.projected_modalities:
        dim = cfg.feature_dim(m)
        store.add(f"proj.{m}.weight", xavier(f"proj.{m}.weight", two_d, dim),
                  "discriminator")
        store.add(f"proj.{m}.bias", np.zeros(two_d), "discriminator")
        store.add(f"fallback.{m}", uniform(f"fallback.{m}", (n_entities, two_d), b),
                  "discriminator")
    for m in cfg.modalities:
        store.add(f"fusion.w.{m}", np.ones(two_d), "discriminator")
    hidden = cfg.gen_hidden
    for m in cfg.projected_modalities:
        store.add(f"gen.{m}.w1", xavier(f"gen.{m}.w1", hidden, two_d + cfg.noise_dim),
                  "generator")
        store.add(f"gen.{m}.b1", np.zeros(hidden), "generator")
        store.add(f"gen.{m}.w2", xavier(f"gen.{m}.w2", two_d, hidden), "generator")
        store.add(f"gen.{m}.b2", np.zeros(two_d), "generator")
    return store


def project(tape: Tape, weight: Node, bias: Node, features: Node) -> Node:
    """Affine projection of raw modal features into the embedding space."""
    return tape.add(tape.matvec(weight, features), bias)


class Model:
    """Binds config, parameters, and feature tables; builds tape subgraphs."""

    def __init__(self, cfg: ModelConfig, store: ParameterStore,
                 features: dict[str, FeatureTable | None] | None = None):
        self.cfg = cfg
        self.store = store
        self.n_entities = store["entity.structural"].shape[0]
        self.n_relations = store["relation.phase"].shape[0]
        features = features or {}
        self._raw: dict[str, np.ndarray] = {}
        self._mask: dict[str, np.ndarray] = {}
        for m in cfg.projected_modalities:
            table = features.get(m)
            if table is None:
                raw = np.zeros((self.n_entities, cfg.feature_dim(m)))
                present = np.zeros(self.n_entities, dtype=bool)
            else:
                if table.matrix.shape != (self.n_entities, cfg.feature_dim(m)):
                    raise ContractError(
                        f"feature table for {m!r} has shape {table.matrix.shape}, "
                        f"expected {(self.n_entities, cfg.feature_dim(m))}")
                raw, present = table.matrix, table.present
            self._raw[m] = np.asarray(raw, dtype=cfg.dtype)
            self._mask[m] = present.astype(cfg.dtype).reshape(-1, 1)

    # ------------------------------------------------------------- embeddings

    def modal_embedding(self, tape: Tape, m: str, idx: np.ndarray, live) -> Node:
        """Entity embedding for one modality, shape (B, 2d).

        Projected modalities mix the affine projection of raw features with
        the trainable fallback rows, per the entity presence mask.
        """
        idx = np.asarray(idx, dtype=np.int64)
        if m == "s":
            return tape.gather(tape.leaf("entity.structural", live), idx)
        if m not in self.cfg.projected_modalities:
            raise ContractError(f"modality {m!r} not active in this model")
        mask = self._mask[m][idx]
        fallback = tape.gather(tape.leaf(f"fallback.{m}", live), idx)
        if not mask.any():
            return fallback
        projected = project(tape, tape.leaf(f"proj.{m}.weight", live),
                            tape.leaf(f"proj.{m}.bias", live),
                            tape.const(self._raw[m][idx]))
        if mask.all():
            return projected
        keep = tape.const(mask)
        drop = tape.const(1.0 - mask)
        return tape.add(tape.mul(projected, keep), tape.mul(fallback, drop))

    def fuse(self, tape: Tape, parts: dict[str, Node], live) -> tuple[Node, Node]:
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
            alpha = tape.fusion_weights(
                xs, [tape.leaf(f"fusion.w.{m}", live) for m in order])
        return tape.mix(alpha, xs), alpha

    def joint_and_alpha(self, tape: Tape, idx: np.ndarray, live) -> tuple[Node, Node]:
        """Joint embeddings (B, 2d) and fusion weights (B, M) of entities idx.

        Modal embeddings and fusion are built once per unique entity of idx
        and gathered back into idx's order, so a batch that names an entity
        many times (negatives do) projects and fuses it once.  Gradients
        are the same mathematics; only float32 summation order changes.
        """
        idx = np.asarray(idx, dtype=np.int64)
        unique, inverse = np.unique(idx, return_inverse=True)
        if unique.shape[0] == idx.shape[0]:
            return self._fused_rows(tape, idx, live)
        joint, alpha = self._fused_rows(tape, unique, live)
        return tape.gather(joint, inverse), tape.gather(alpha, inverse)

    def _fused_rows(self, tape: Tape, idx: np.ndarray, live) -> tuple[Node, Node]:
        parts = {m: self.modal_embedding(tape, m, idx, live) for m in self.cfg.modalities}
        return self.fuse(tape, parts, live)

    # ---------------------------------------------------------------- scoring

    def triple_scores(self, tape: Tape, h_joint: Node, r_idx: np.ndarray,
                      t_joint: Node, live) -> Node:
        """Rotation distance F(h,r,t) = sum_k |(h o r - t)_k|, shape (B,)."""
        phases = tape.gather(tape.leaf("relation.phase", live), r_idx)
        rotated = tape.complex_rotate(h_joint, phases)
        return tape.complex_modulus_sum(tape.sub(rotated, t_joint))

    # -------------------------------------------------------------- generator

    def generator_output(self, tape: Tape, m: str, e_s_values: np.ndarray, live,
                         z: np.ndarray) -> Node:
        """Synthetic modal embedding G_m([e_s; z]) for a batch, shape (B, 2d).

        The structural input is always a detached constant: gradients reach
        the generator weights, never the structural embeddings behind them.
        """
        x = tape.concat([tape.const(e_s_values), tape.const(z)])
        hidden = tape.leaky_relu(
            project(tape, tape.leaf(f"gen.{m}.w1", live), tape.leaf(f"gen.{m}.b1", live), x),
            self.cfg.leaky_slope)
        return project(tape, tape.leaf(f"gen.{m}.w2", live), tape.leaf(f"gen.{m}.b2", live),
                       hidden)

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

    def generate(self, tape: Tape, triples: np.ndarray, noise: dict, live) -> dict:
        """Generated modal embeddings, one node per `noise` key, in key order.

        Key (group, side, modality) runs G_m on the structural embeddings of
        the batch's heads (side "h") or tails (side "t") and that key's z.
        """
        e_s = {side: np.asarray(self.store["entity.structural"][triples[:, col]])
               for side, col in (("h", 0), ("t", 2))}
        return {(g, side, m): self.generator_output(tape, m, e_s[side], live, z)
                for (g, side, m), z in noise.items()}

    def synthetic_triple_scores(self, tape: Tape, triples: np.ndarray,
                                n_groups: int, patterns: tuple[str, ...],
                                live, generated: dict, h_joint: Node,
                                t_joint: Node) -> tuple[Node, list[tuple[int, str]]]:
        """Scores of L groups of synthetic triples for a batch of positives.

        Per group one synthetic head and one synthetic tail are built (when
        a requested pattern needs them) and shared across that group's
        patterns, mirroring the construction of the adversarial example set.
        A synthetic entity keeps its own structural embedding and takes its
        other modalities from `generated` (keys as in `draw_noise`);
        `h_joint`/`t_joint` are the positives' joint embeddings.  Returns a
        flat (B * len(meta),) score node plus the (group, pattern) block
        order.
        """
        if n_groups < 1:
            raise ContractError("synthetic group count must be >= 1")
        patterns = tuple(p for p in ALL_PATTERNS if p in patterns)
        if not patterns:
            raise ContractError("at least one adversarial pattern is required")
        r_idx = triples[:, 1]
        entity_idx = {"h": triples[:, 0], "t": triples[:, 2]}
        blocks, meta = [], []
        for g in range(n_groups):
            star = {}
            for side in synthetic_sides(patterns):
                parts = {m: generated[(g, side, m)] if m != "s" else
                         self.modal_embedding(tape, "s", entity_idx[side], live)
                         for m in self.cfg.modalities}
                star[side], _ = self.fuse(tape, parts, live)
            for pattern in patterns:
                if pattern == SYN_TAIL:
                    scores = self.triple_scores(tape, h_joint, r_idx, star["t"], live)
                elif pattern == SYN_HEAD:
                    scores = self.triple_scores(tape, star["h"], r_idx, t_joint, live)
                else:
                    scores = self.triple_scores(tape, star["h"], r_idx, star["t"], live)
                blocks.append(scores)
                meta.append((g, pattern))
        flat = blocks[0] if len(blocks) == 1 else tape.concat(blocks)
        return flat, meta

    # ------------------------------------------------------------- evaluation

    def entity_representations(self) -> tuple[np.ndarray, np.ndarray]:
        """Joint embeddings and fusion weights of every entity, as arrays."""
        tape = Tape(self.store)
        joint, alpha = self.joint_and_alpha(tape, np.arange(self.n_entities), FROZEN)
        return joint.value, alpha.value

    def relation_phases(self) -> np.ndarray:
        return np.asarray(self.store["relation.phase"])
