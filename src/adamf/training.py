"""Alternating discriminator/generator training with self-adversarial
negative sampling.

Each batch runs one Adam step on the scoring parameters (minimizing
L_kgc + lambda * L_adv with generator outputs held constant) and, when the
adversarial path is enabled, one Adam step on the generator (ascending
lambda * L_adv with the scoring parameters held constant).
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .checkpoint import save_checkpoint
from .data import TripleDataset
from .errors import ContractError, NumericError
from .model import ALL_PATTERNS, DISC, GEN, Model
from .params import adam_step
from .rng import SeededRng
from .tape import Node, Tape


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
    keep_best: bool = True
    seed: int = 0

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
            raise ContractError("learning rates must be positive")
        if self.validate_every < 0:
            raise ContractError("validate_every must be >= 0")
        self.adversarial_patterns = tuple(
            p for p in ALL_PATTERNS if p in self.adversarial_patterns)
        unknown = set(self.adversarial_patterns) - set(ALL_PATTERNS)
        if unknown:
            raise ContractError(f"unknown adversarial patterns {sorted(unknown)}")
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
    or with `dataset` given any triple of its three splits) is replaced by a
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
        known = np.concatenate([dataset.train, dataset.valid, dataset.test])
        flat = negatives.reshape(-1, 3)
        dims = tuple(np.maximum(known.max(axis=0, initial=0),
                                flat.max(axis=0, initial=0)) + 1)
        collides = np.isin(np.ravel_multi_index(flat.T, dims),
                           np.ravel_multi_index(known.T, dims)).reshape(-1, k)
    return np.where(collides[:, :, None], corrupt(second), negatives)


def self_adv_weights(neg_scores: np.ndarray, beta: float,
                     sign_mode: str = "negated") -> np.ndarray:
    """Softmax weights over each row of negative scores.

    Negated mode weights low-distance (hard) negatives higher via
    softmax(-beta * F); literal mode uses softmax(+beta * F).  Callers treat
    the result as constants — it never participates in gradients.
    """
    if sign_mode not in ("negated", "literal"):
        raise ContractError(f"unknown selfadv_sign {sign_mode!r}")
    scores = np.asarray(neg_scores, dtype=np.float64)
    logits = beta * scores if sign_mode == "literal" else -beta * scores
    logits = logits - logits.max(axis=-1, keepdims=True)
    e = np.exp(logits)
    return e / e.sum(axis=-1, keepdims=True)


# -------------------------------------------------------------------- losses

def positive_parts(model: Model, tape: Tape, batch: np.ndarray, live):
    """Shared positive-triple pieces: (F_pos, log sigma(gamma - F_pos))."""
    h_joint, _ = model.joint_and_alpha(tape, batch[:, 0], live)
    t_joint, _ = model.joint_and_alpha(tape, batch[:, 2], live)
    f_pos = model.triple_scores(tape, h_joint, batch[:, 1], t_joint, live)
    pos_term = tape.log_sigmoid(tape.sub(tape.const(model.cfg.gamma), f_pos))
    return f_pos, pos_term, h_joint, t_joint


def loss_kgc(model: Model, tape: Tape, batch: np.ndarray, negatives: np.ndarray,
             live, frozen_weights: np.ndarray | None = None,
             pos_term: Node | None = None) -> tuple[Node, dict]:
    """Sigmoid margin loss over positives and self-adversarially weighted
    negatives: mean_b[-log s(g - F_pos) - sum_i p_i log s(F_neg_i - g)]."""
    n_batch, k = negatives.shape[0], negatives.shape[1]
    if pos_term is None:
        _, pos_term, _, _ = positive_parts(model, tape, batch, live)
    flat = negatives.reshape(-1, 3)
    nh_joint, _ = model.joint_and_alpha(tape, flat[:, 0], live)
    nt_joint, _ = model.joint_and_alpha(tape, flat[:, 2], live)
    f_neg = model.triple_scores(tape, nh_joint, flat[:, 1], nt_joint, live)
    if frozen_weights is None:
        weights = self_adv_weights(f_neg.value.reshape(n_batch, k),
                                   model.cfg.beta, model.cfg.selfadv_sign)
    else:
        weights = np.asarray(frozen_weights)
    neg_term = tape.log_sigmoid(tape.sub(f_neg, tape.const(model.cfg.gamma)))
    weighted = tape.mul(neg_term, tape.const(weights.reshape(-1)))
    loss = tape.scale(tape.add(tape.sum(pos_term), tape.sum(weighted)),
                      -1.0 / n_batch)
    return loss, {"f_neg": f_neg.value.reshape(n_batch, k), "weights": weights}


def loss_adv(model: Model, tape: Tape, batch: np.ndarray, n_groups: int,
             patterns: tuple[str, ...], live, generated: dict,
             pos: tuple) -> tuple[Node, dict]:
    """Adversarial contrast loss: mean_b[-log s(g - F_pos)
    - (1/|S|) sum_{s in S} log s(F_syn_s - g)] over synthetic triples S.

    `generated` holds the synthetic modal embeddings (`Model.generate`) and
    `pos` the batch's `positive_parts`."""
    n_batch = batch.shape[0]
    _, pos_term, h_joint, t_joint = pos
    f_syn, meta = model.synthetic_triple_scores(
        tape, batch, n_groups, patterns, live, generated, h_joint, t_joint)
    syn_term = tape.log_sigmoid(tape.sub(f_syn, tape.const(model.cfg.gamma)))
    loss = tape.scale(
        tape.add(tape.sum(pos_term), tape.scale(tape.sum(syn_term), 1.0 / len(meta))),
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
    tape = Tape(model.store, check_finite=True)
    pos = positive_parts(model, tape, batch, DISC)
    kgc, _ = loss_kgc(model, tape, batch, negatives, DISC, pos_term=pos[1])
    adv_value = 0.0
    total = kgc
    if cfg.mat_enabled:
        noise = model.draw_noise(batch, cfg.adv_groups, cfg.adversarial_patterns, noise_rng)
        generated = model.generate(tape, batch, noise, DISC)
        adv, _ = loss_adv(model, tape, batch, cfg.adv_groups, cfg.adversarial_patterns,
                          DISC, generated, pos)
        adv_value = float(adv.value)
        total = tape.add(kgc, tape.scale(adv, cfg.adv_lambda))
    grads = tape.backward(total)
    adam_step(model.store, grads, "discriminator", cfg.lr_d)
    return float(kgc.value), adv_value


def train_step_generator(model: Model, batch: np.ndarray, cfg: TrainConfig,
                         noise_rng: SeededRng) -> float:
    """One Adam ascent step of lambda * L_adv on the generator parameters,
    with fresh noise; the scoring parameters are constants here."""
    if not cfg.mat_enabled:
        raise ContractError("generator step requires mat_enabled")
    tape = Tape(model.store, check_finite=True)
    pos = positive_parts(model, tape, batch, GEN)
    noise = model.draw_noise(batch, cfg.adv_groups, cfg.adversarial_patterns, noise_rng)
    generated = model.generate(tape, batch, noise, GEN)
    adv, _ = loss_adv(model, tape, batch, cfg.adv_groups, cfg.adversarial_patterns,
                      GEN, generated, pos)
    objective = tape.scale(adv, -cfg.adv_lambda)
    grads = tape.backward(objective)
    adam_step(model.store, grads, "generator", cfg.lr_g)
    return float(adv.value)


# ---------------------------------------------------------------------- loop

def train(model: Model, dataset: TripleDataset, cfg: TrainConfig,
          log_path=None, checkpoint_path=None, best_path=None,
          eval_ks: tuple[int, ...] = (1, 3, 10)) -> list[dict]:
    """Full training loop; returns the per-epoch log as a list of dicts.

    Each entry carries epoch number and mean batch losses, plus validation
    MRR on validation epochs (every `validate_every` epochs and always on
    the last).  The best-MRR parameters go to `best_path`, the final ones to
    `checkpoint_path`; the JSON-lines log streams to `log_path`.
    """
    from .evaluation import evaluate  # deferred: evaluation builds on model only

    root = SeededRng(cfg.seed)
    neg_rng = root.substream("negatives")
    noise_rng = root.substream("noise")
    shuffle_rng = root.substream("shuffle")
    filter_set = dataset if cfg.negative_filtering else None
    n_train = dataset.train.shape[0]
    history: list[dict] = []
    best_mrr = -1.0
    log_file = open(log_path, "w", encoding="utf-8") if log_path else None
    try:
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
                report = evaluate(model, dataset, split="valid", ks=eval_ks)
                entry["val_mrr"] = report.mrr
                if entry["val_mrr"] > best_mrr:
                    best_mrr = entry["val_mrr"]
                    if best_path and cfg.keep_best:
                        save_checkpoint(model.store, best_path)
                if checkpoint_path:
                    save_checkpoint(model.store, checkpoint_path)
            history.append(entry)
            if log_file:
                log_file.write(json.dumps(entry) + "\n")
                log_file.flush()
    finally:
        if log_file:
            log_file.close()
    if checkpoint_path:
        save_checkpoint(model.store, checkpoint_path)
    if best_path and cfg.keep_best and best_mrr < 0:
        # no validation ever ran; fall back to the final parameters
        save_checkpoint(model.store, best_path)
    return history
