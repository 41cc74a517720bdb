"""Alternating discriminator/generator training with self-adversarial
negative sampling.

Each batch runs one Adam step on the scoring parameters (minimizing
L_kgc + lambda * L_adv with generator outputs held constant) and, when the
adversarial path is enabled, one Adam step on the generator (ascending
lambda * L_adv with the scoring parameters held constant).
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass

import numpy as np

from .checkpoint import save_checkpoint
from .data import TripleDataset
from .errors import ContractError, NumericError
from .model import ALL_PATTERNS, DISC, GEN, Model
from .params import adam_step
from .rng import SeededRng
from .tape import Node, Tape, softmax


@dataclass
class TrainConfig:
    k_negatives: int = 64          # negatives per positive
    adv_groups: int = 1            # synthetic groups per positive (L)
    adv_lambda: float = 0.01       # adversarial loss coefficient
    lr_d: float = 1e-4
    lr_g: float = 1e-4
    batch_size: int = 1024
    epochs: int = 1000
    mat_enabled: bool = True
    adversarial_patterns: tuple[str, ...] = ALL_PATTERNS
    negative_filtering: bool = False
    validate_every: int = 50
    seed: int = 0                  # the run seed: parameters, masks, streams

    def __post_init__(self):
        if self.k_negatives < 1:
            raise ContractError("k_negatives must be >= 1")
        if self.adv_groups < 1:
            raise ContractError("adv_groups must be >= 1")
        if self.adv_lambda < 0:
            raise ContractError("adv_lambda must be >= 0")
        if self.batch_size < 1:
            raise ContractError("batch_size must be >= 1")
        if self.epochs < 0:
            raise ContractError("epochs must be >= 0")
        if self.lr_d <= 0 or self.lr_g <= 0:
            raise ContractError("learning rates lr_d and lr_g must be positive")
        if self.validate_every < 0:
            raise ContractError("validate_every must be >= 0")
        unknown = set(self.adversarial_patterns) - set(ALL_PATTERNS)
        if unknown:
            raise ContractError(f"adversarial_patterns: unknown entries {sorted(unknown)}")
        self.adversarial_patterns = tuple(
            p for p in ALL_PATTERNS if p in self.adversarial_patterns)
        if self.mat_enabled and not self.adversarial_patterns:
            raise ContractError("adversarial_patterns must be non-empty when "
                                "mat_enabled is true")


# ----------------------------------------------------------------- negatives

def sample_negatives(triples: np.ndarray, n_entities: int, k: int,
                     rng: SeededRng,
                     dataset: TripleDataset | None = None) -> np.ndarray:
    """K single-slot corruptions per positive, shape (B, K, 3).

    Per slot: corrupt head or tail with probability 1/2, replacement uniform
    over entities.  A replacement that collides (reconstructs the positive,
    or with `dataset` given any triple of its filter index) is replaced by a
    second pick, which is accepted unconditionally.

    Draws are made in bulk: B*K coins, then B*K first picks, then B*K
    second picks, whether or not they are used, so the stream position after
    a call does not depend on collisions.
    """
    if k < 1:
        raise ContractError("need at least one negative per positive")
    n_slots = triples.shape[0] * k
    corrupt_head = (rng.uniforms(n_slots) < 0.5).reshape(-1, k)
    bounds = np.full(n_slots, n_entities)
    first = rng.randints(bounds).reshape(-1, k)
    second = rng.randints(bounds).reshape(-1, k)

    def corrupt(picks):
        out = np.repeat(triples[:, None, :], k, axis=1)
        out[:, :, 0] = np.where(corrupt_head, picks, out[:, :, 0])
        out[:, :, 2] = np.where(corrupt_head, out[:, :, 2], picks)
        return out

    negatives = corrupt(first)
    if dataset is None:
        collides = (negatives == triples[:, None, :]).all(axis=-1)
    else:
        collides = dataset.is_known(negatives.reshape(-1, 3)).reshape(-1, k)
    return np.where(collides[:, :, None], corrupt(second), negatives)


def self_adv_weights(neg_scores: np.ndarray, beta: float) -> np.ndarray:
    """Softmax weights over each row of negative scores.

    softmax(-beta * F) weights low-distance (hard) negatives higher.  Callers
    treat the result as constants — it never participates in gradients.
    """
    return softmax(-beta * np.asarray(neg_scores, dtype=np.float64))


# -------------------------------------------------------------------- losses

def positive_parts(model: Model, tape: Tape, triples: tuple) -> tuple:
    """A step's shared pieces: the entity table over every head and tail in
    `triples` (the batch first, then any negatives), the batch, and its
    sum_b log sigma(gamma - F_pos), which both losses share."""
    table = model.entity_table(tape, triples)
    f_pos = model.distances(tape, table, triples[0])
    return table, triples[0], tape.log_sigmoid_sum(f_pos, model.cfg.gamma, 1)


def loss_kgc(model: Model, tape: Tape, negatives: np.ndarray, pos: tuple,
             frozen_weights: np.ndarray | None = None) -> tuple[Node, dict]:
    """Sigmoid margin loss over positives and self-adversarially weighted
    negatives: mean_b[-log s(g - F_pos) - sum_i p_i log s(F_neg_i - g)].
    `pos` is the step's `positive_parts`, built over the negatives too."""
    table, batch, pos_sum = pos
    f_neg = model.distances(tape, table, batch, negatives)
    if frozen_weights is None:
        weights = self_adv_weights(f_neg.value, model.cfg.beta)
    else:
        weights = np.asarray(frozen_weights)
    neg_sum = tape.log_sigmoid_sum(f_neg, model.cfg.gamma, -1, weights)
    loss = tape.scale(tape.add(pos_sum, neg_sum), -1.0 / batch.shape[0])
    return loss, {"f_neg": f_neg.value, "weights": weights}


def loss_adv(model: Model, tape: Tape, batch: np.ndarray, n_groups: int,
             patterns: tuple[str, ...], generated: dict, pos: tuple) -> tuple[Node, dict]:
    """Adversarial contrast loss: mean_b[-log s(g - F_pos)
    - (1/|S|) sum_{s in S} log s(F_syn_s - g)] over synthetic triples S.

    `generated` holds the synthetic modal embeddings (`Model.generate`) and
    `pos` the step's `positive_parts`."""
    n_batch = batch.shape[0]
    table, _, pos_sum = pos
    f_syn, meta = model.synthetic_triple_scores(
        tape, batch, n_groups, patterns, generated, table)
    syn_sum = tape.log_sigmoid_sum(f_syn, model.cfg.gamma, -1)
    loss = tape.scale(tape.add(pos_sum, tape.scale(syn_sum, 1.0 / len(meta))),
                      -1.0 / n_batch)
    return loss, {"f_syn": f_syn.value.reshape(len(meta), n_batch), "meta": meta}


# --------------------------------------------------------------------- steps

def train_step_discriminator(model: Model, batch: np.ndarray,
                             negatives: np.ndarray, cfg: TrainConfig,
                             noise_rng: SeededRng) -> tuple[float, float]:
    """One Adam step on the scoring parameters; returns (L_kgc, L_adv) values.

    Generator outputs enter the tape as constants, so no gradient reaches
    the generator group nor flows through it into the structural embeddings.
    """
    tape = Tape(model.store, DISC)
    pos = positive_parts(model, tape, (batch, negatives))
    kgc, _ = loss_kgc(model, tape, negatives, pos)
    adv_value = 0.0
    total = kgc
    if cfg.mat_enabled:
        noise = model.draw_noise(batch, cfg.adv_groups, cfg.adversarial_patterns, noise_rng)
        generated = model.generate(tape, batch, noise)
        adv, _ = loss_adv(model, tape, batch, cfg.adv_groups, cfg.adversarial_patterns,
                          generated, pos)
        adv_value = float(adv.value)
        total = tape.add(kgc, tape.scale(adv, cfg.adv_lambda))
    tape.backward(total)
    adam_step(model.store, "discriminator", tape.grads["discriminator"], cfg.lr_d)
    return float(kgc.value), adv_value


def train_step_generator(model: Model, batch: np.ndarray, cfg: TrainConfig,
                         noise_rng: SeededRng) -> float:
    """One Adam ascent step of lambda * L_adv on the generator parameters,
    with fresh noise; the scoring parameters are constants here."""
    if not cfg.mat_enabled:
        raise ContractError("generator step requires mat_enabled")
    tape = Tape(model.store, GEN)
    pos = positive_parts(model, tape, (batch,))
    noise = model.draw_noise(batch, cfg.adv_groups, cfg.adversarial_patterns, noise_rng)
    generated = model.generate(tape, batch, noise)
    adv, _ = loss_adv(model, tape, batch, cfg.adv_groups, cfg.adversarial_patterns,
                      generated, pos)
    objective = tape.scale(adv, -cfg.adv_lambda)
    tape.backward(objective)
    adam_step(model.store, "generator", tape.grads["generator"], cfg.lr_g)
    return float(adv.value)


# ---------------------------------------------------------------------- loop

def train(model: Model, dataset: TripleDataset, cfg: TrainConfig, out,
          tie_break: str = "optimistic") -> list[dict]:
    """Full training loop in the run directory `out`; returns the per-epoch
    log as a list of dicts.

    Each entry carries epoch number and mean batch losses, plus validation
    MRR (ranked with `tie_break`) on validation epochs: every
    `validate_every` epochs and always on the last.  The entries stream to
    `out/train_log.jsonl`, the best-MRR parameters go to `out/best.bin` and
    the final ones to `out/checkpoint.bin`.
    """
    from .evaluation import evaluate  # deferred: evaluation builds on model only

    root = SeededRng(cfg.seed)
    neg_rng = root.substream("negatives")
    noise_rng = root.substream("noise")
    shuffle_rng = root.substream("shuffle")
    filter_set = dataset if cfg.negative_filtering else None
    n_train = dataset.train.shape[0]
    checkpoint_path = os.path.join(out, "checkpoint.bin")
    best_path = os.path.join(out, "best.bin")
    history: list[dict] = []
    best_mrr = -1.0
    with open(os.path.join(out, "train_log.jsonl"), "w", encoding="utf-8") as log_file:
        for epoch in range(1, cfg.epochs + 1):
            perm = shuffle_rng.permutation(n_train)
            kgc_sum = adv_sum = 0.0
            n_batches = 0
            for start in range(0, n_train, cfg.batch_size):
                batch = dataset.train[perm[start:start + cfg.batch_size]]
                negatives = sample_negatives(batch, model.n_entities,
                                             cfg.k_negatives, neg_rng, filter_set)
                try:
                    kgc_value, adv_value = train_step_discriminator(
                        model, batch, negatives, cfg, noise_rng)
                    if cfg.mat_enabled:
                        train_step_generator(model, batch, cfg, noise_rng)
                except NumericError as err:
                    raise NumericError(
                        f"epoch {epoch} batch {n_batches}: {err}") from err
                kgc_sum += kgc_value
                adv_sum += adv_value
                n_batches += 1
            entry = {"epoch": epoch,
                     "loss_kgc": kgc_sum / n_batches,
                     "loss_adv": adv_sum / n_batches}
            validate = (dataset.valid.shape[0] > 0 and cfg.validate_every > 0
                        and (epoch % cfg.validate_every == 0 or epoch == cfg.epochs))
            if validate:
                entry["val_mrr"] = evaluate(model, dataset, "valid",
                                            tie_break=tie_break).mrr
                if entry["val_mrr"] > best_mrr:
                    best_mrr = entry["val_mrr"]
                    save_checkpoint(model.store, best_path)
                save_checkpoint(model.store, checkpoint_path)
            history.append(entry)
            log_file.write(json.dumps(entry) + "\n")
            log_file.flush()
    if not (history and "val_mrr" in history[-1]):
        save_checkpoint(model.store, checkpoint_path)  # unless the last epoch saved it
    if best_mrr < 0:
        # no validation ever ran; fall back to the final parameters
        save_checkpoint(model.store, best_path)
    return history
