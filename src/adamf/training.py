"""Alternating discriminator/generator training with self-adversarial
negative sampling.

Each batch (`train_batch`) draws its negatives, runs one Adam step on the
scoring parameters (minimizing L_kgc + lambda * L_adv, the generator
frozen) and, with the adversarial path enabled, one Adam step on the
generator (ascending lambda * L_adv, the scoring parameters constant).
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
    adv_lambda: float = 0.01       # adversarial loss coefficient
    lr_d: float = 1e-4
    lr_g: float = 1e-4
    batch_size: int = 1024
    epochs: int = 1000
    mat_enabled: bool = True
    adversarial_patterns: tuple[str, ...] = ALL_PATTERNS
    validate_every: int = 50
    seed: int = 0                  # the run seed: parameters, masks, streams

    def __post_init__(self):
        if self.k_negatives < 1:
            raise ContractError("k_negatives must be >= 1")
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
                     rng: SeededRng) -> np.ndarray:
    """K single-slot corruptions per positive, shape (B, K, 3).

    Per slot: corrupt head or tail with probability 1/2, replacement uniform
    over entities.  A replacement that reconstructs the positive is replaced
    by a second pick, which is accepted unconditionally.

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
    heads, tails = triples[:, None, 0], triples[:, None, 2]
    # A pick collides when it equals the entity it replaces.
    picks = np.where(first == np.where(corrupt_head, heads, tails), second, first)
    out = np.repeat(triples[:, None, :], k, axis=1)
    out[:, :, 0] = np.where(corrupt_head, picks, heads)
    out[:, :, 2] = np.where(corrupt_head, tails, picks)
    return out


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


def loss_adv(model: Model, tape: Tape, patterns: tuple[str, ...], inputs: dict,
             pos: tuple) -> tuple[Node, dict]:
    """Adversarial contrast loss: mean_b[-log s(g - F_pos)
    - (1/|S|) sum_{s in S} log s(F_syn_s - g)] over the synthetic triples S,
    one per pattern.

    `inputs` are the generators' inputs (`Model.generator_inputs`), whose
    synthetic modal embeddings `Model.generate` builds on the tape, and `pos`
    is the step's `positive_parts`."""
    table, batch, pos_sum = pos
    f_syn = model.synthetic_triple_scores(tape, batch, patterns,
                                          model.generate(tape, inputs), table)
    syn_sum = tape.log_sigmoid_sum(f_syn, model.cfg.gamma, -1)
    loss = tape.scale(tape.add(pos_sum, tape.scale(syn_sum, 1.0 / len(patterns))),
                      -1.0 / batch.shape[0])
    return loss, {"f_syn": f_syn.value.reshape(len(patterns), batch.shape[0])}


# --------------------------------------------------------------------- steps

def train_step_discriminator(model: Model, batch: np.ndarray,
                             negatives: np.ndarray, cfg: TrainConfig,
                             noise_rng: SeededRng) -> tuple[float, float]:
    """One Adam step on the scoring parameters; returns (L_kgc, L_adv) values.

    The generator runs on this tape as frozen weights over constant inputs
    (`Model.generator_inputs`), so no gradient reaches the generator group
    nor flows through it into the structural embeddings.
    """
    tape = Tape(model.store, DISC)
    pos = positive_parts(model, tape, (batch, negatives))
    kgc, _ = loss_kgc(model, tape, negatives, pos)
    adv_value = 0.0
    total = kgc
    if cfg.mat_enabled:
        inputs = model.generator_inputs(batch, cfg.adversarial_patterns, noise_rng)
        adv, _ = loss_adv(model, tape, cfg.adversarial_patterns, inputs, pos)
        adv_value = float(adv.value)
        total = tape.add(kgc, tape.scale(adv, cfg.adv_lambda))
    tape.backward(total)
    adam_step(model.store, "discriminator", tape.grads["discriminator"], cfg.lr_d)
    return float(kgc.value), adv_value


def train_step_generator(model: Model, batch: np.ndarray, cfg: TrainConfig,
                         noise_rng: SeededRng) -> float:
    """One Adam ascent step of lambda * L_adv on the generator parameters,
    over fresh generator inputs (new noise); the scoring parameters are
    constants here."""
    if not cfg.mat_enabled:
        raise ContractError("generator step requires mat_enabled")
    tape = Tape(model.store, GEN)
    pos = positive_parts(model, tape, (batch,))
    inputs = model.generator_inputs(batch, cfg.adversarial_patterns, noise_rng)
    adv, _ = loss_adv(model, tape, cfg.adversarial_patterns, inputs, pos)
    objective = tape.scale(adv, -cfg.adv_lambda)
    tape.backward(objective)
    adam_step(model.store, "generator", tape.grads["generator"], cfg.lr_g)
    return float(adv.value)


# ---------------------------------------------------------------------- loop

@dataclass
class TrainState:
    """The run's draw streams: substreams of its seed named as the fields."""
    negatives: SeededRng
    noise: SeededRng
    shuffle: SeededRng

    @classmethod
    def from_seed(cls, seed: int) -> TrainState:
        return cls(*map(SeededRng(seed).substream, ("negatives", "noise", "shuffle")))


def train_batch(model: Model, batch: np.ndarray, cfg: TrainConfig,
                state: TrainState) -> tuple[float, float, float]:
    """One batch: negatives, the scorer's step and, with MAT on, the generator's
    step, each a module global that a batch clock can rebind.  Returns L_kgc,
    L_adv and the generator's L_adv; both adversarial ones are 0.0 with MAT off."""
    negatives = sample_negatives(batch, model.n_entities, cfg.k_negatives, state.negatives)
    kgc, adv = train_step_discriminator(model, batch, negatives, cfg, state.noise)
    gen = train_step_generator(model, batch, cfg, state.noise) if cfg.mat_enabled else 0.0
    return kgc, adv, gen


def _stopped(log_file, err: NumericError, epoch: int, batch: int | None) -> NumericError:
    """Log where `err` stopped training, as a last `{"epoch", "batch",
    "error"}` line (batch None: in validation), and return the error to
    raise, prefixed with the same."""
    log_file.write(json.dumps({"epoch": epoch, "batch": batch, "error": str(err)}) + "\n")
    where = "validation" if batch is None else f"batch {batch}"
    return NumericError(f"epoch {epoch} {where}: {err}")


def train(model: Model, dataset: TripleDataset, cfg: TrainConfig, out,
          tie_break: str = "optimistic") -> list[dict]:
    """Full training loop in the run directory `out`; returns the per-epoch
    log as a list of dicts.

    Each entry carries epoch number and mean batch losses, plus validation
    MRR (ranked with `tie_break`) on validation epochs: every
    `validate_every` epochs and always on the last.  The entries stream to
    `out/train_log.jsonl`, the best-MRR parameters go to `out/best.bin` and
    the final ones to `out/checkpoint.bin`.  A `NumericError` in a batch
    or a validation ends the log with one line saying where (`_stopped`).
    """
    # Imported per call, so a caller that rebinds adamf.evaluation.evaluate
    # (a tracer, a test) sees the validation calls.
    from .evaluation import evaluate

    if dataset.train.shape[0] == 0:
        raise ContractError("cannot train on an empty train split")
    state = TrainState.from_seed(cfg.seed)
    n_train = dataset.train.shape[0]
    checkpoint_path = os.path.join(out, "checkpoint.bin")
    best_path = os.path.join(out, "best.bin")
    history: list[dict] = []
    best_mrr = -1.0
    with open(os.path.join(out, "train_log.jsonl"), "w", encoding="utf-8") as log_file:
        for epoch in range(1, cfg.epochs + 1):
            perm = state.shuffle.permutation(n_train)
            kgc_sum = adv_sum = 0.0
            starts = range(0, n_train, cfg.batch_size)
            for n, start in enumerate(starts):
                batch = dataset.train[perm[start:start + cfg.batch_size]]
                try:
                    kgc, adv, _ = train_batch(model, batch, cfg, state)
                except NumericError as err:
                    raise _stopped(log_file, err, epoch, n) from err
                kgc_sum += kgc
                adv_sum += adv
            entry = {"epoch": epoch, "loss_kgc": kgc_sum / len(starts),
                     "loss_adv": adv_sum / len(starts)}
            validate = (dataset.valid.shape[0] > 0 and cfg.validate_every > 0
                        and (epoch % cfg.validate_every == 0 or epoch == cfg.epochs))
            if validate:
                try:
                    entry["val_mrr"] = evaluate(model, dataset, "valid",
                                                tie_break=tie_break).mrr
                except NumericError as err:
                    raise _stopped(log_file, err, epoch, None) from err
                if entry["val_mrr"] > best_mrr:
                    best_mrr = entry["val_mrr"]
                    save_checkpoint(model.store, best_path)
                save_checkpoint(model.store, checkpoint_path)
            history.append(entry)
            log_file.write(json.dumps(entry) + "\n")
            log_file.flush()
    if best_mrr < 0:
        # no epoch validated (a run that validates at all validates its last)
        save_checkpoint(model.store, checkpoint_path)
        save_checkpoint(model.store, best_path)
    return history
