"""Command-line front end: train, eval, gradcheck.  The rank report that
train and eval write gives each relation's mean fusion weights.

Exit codes: 0 success, 2 configuration/contract problem, 3 numeric failure,
4 I/O or data problem, 5 gradient check over tolerance.  Every setting comes
from the config file; --out overrides only the output directory.  Output
files except the streamed train_log.jsonl go through temp-then-rename, so a
failed run leaves no half-written artifact, and train first deletes the
previous run's checkpoints and rank report from its directory.
"""

from __future__ import annotations

import argparse
import contextlib
import os
import sys

import numpy as np

from .config import RunConfig, echo_config, parse_config
from .checkpoint import load_checkpoint
from .data import (FEATURE_NAMES, FeatureTable, TripleDataset, apply_modality_missing,
                   load_features, load_triples)
from .errors import (ConfigError, ContractError, DataError, GradCheckError,
                     NumericError)
from .evaluation import evaluate, write_rank_report
from .ioutil import atomic_write_text
from .model import (ALL_PATTERNS, DISC, FROZEN, GEN, Model, ModelConfig,
                    init_params, zero_params)
from .params import finite_diff_check
from .rng import SeededRng
from .tape import Tape
from .training import (loss_adv, loss_kgc, positive_parts, sample_negatives,
                       train)

GRADCHECK_TOLERANCE = 1e-5
# Central differences are truncation-limited at large probe steps and
# roundoff-limited at small ones, and which regime binds varies per
# component.  Each check therefore probes at two scales; a parameter's error
# is the minimum over the scales of its worst component, so one scale must
# certify all of its components.  A wrong analytic gradient fails at both.
GRADCHECK_EPSILONS = (1e-6, 2e-5)
# The checked objectives carry a fixed conditioning scale.  The relative
# error's absolute floor then forgives pure finite-difference noise on
# components whose true derivative is near zero (where no step size can
# certify 1e-5 relative agreement), while a wrong gradient formula still
# fails scale-invariantly.
GRADCHECK_SCALE = 1e-3
KINK_MARGIN = 5e-4      # see _clear_generator_kinks


def _load_run_config(args) -> RunConfig:
    cfg = parse_config(args.config) if args.config else RunConfig()
    if args.out:
        cfg.out = os.path.abspath(args.out)
    return cfg


def _out_dir(cfg: RunConfig) -> str:
    """The run's output directory, created if it does not exist."""
    if not cfg.out:
        raise ConfigError("an output directory is required (config key `out` "
                          "or flag --out)")
    os.makedirs(cfg.out, exist_ok=True)
    return cfg.out


def _load_dataset(cfg: RunConfig) -> TripleDataset:
    if not cfg.train:
        raise ConfigError("config key `train` (triple file) is required")
    return load_triples(cfg.train, cfg.valid, cfg.test)


def _build_model(cfg: RunConfig, dataset: TripleDataset, checkpoint=None) -> Model:
    """The run's model: the feature table of each projected modality whose file
    the config names, masked with the configured missing ratio and seed, and
    parameters drawn from the seed or, when `checkpoint` names a file, loaded
    from it."""
    tables = {}
    for m in cfg.model.projected_modalities:
        path = getattr(cfg, f"{FEATURE_NAMES[m]}_features")
        if path is not None:
            table = load_features(path, dataset.vocab, m, cfg.model.feature_dim(m))
            tables[m] = apply_modality_missing(table, cfg.modality_missing_ratio,
                                               cfg.training.seed)
    counts = dataset.vocab.n_entities, dataset.vocab.n_relations
    if checkpoint is None:
        store = init_params(cfg.model, *counts, cfg.training.seed)
    else:   # the load checks that it writes every parameter
        store = zero_params(cfg.model, *counts)
        load_checkpoint(store, checkpoint)
    return Model(cfg.model, store, tables)


# ------------------------------------------------------------------ commands

def cmd_train(args) -> int:
    cfg = _load_run_config(args)
    # Validate all inputs before touching the output directory.
    echo = echo_config(cfg)
    dataset = _load_dataset(cfg)
    model = _build_model(cfg, dataset)
    out = _out_dir(cfg)
    # A rerun into the same directory must not leave the last run's results.
    for name in ("checkpoint.bin", "best.bin", "rank_report.json", "ranks.tsv"):
        with contextlib.suppress(FileNotFoundError):
            os.remove(os.path.join(out, name))
    atomic_write_text(os.path.join(out, "config.resolved.cfg"), echo)
    history = train(model, dataset, cfg.training, out, cfg.tie_break)
    if history:
        last = history[-1]
        print(f"trained {len(history)} epochs; "
              f"final loss_kgc {last['loss_kgc']:.6f} loss_adv {last['loss_adv']:.6f}")
    if dataset.test.shape[0] > 0:
        report = evaluate(model, dataset, "test", cfg.eval_ks, cfg.tie_break)
        write_rank_report(report, dataset, out)
        hits = " ".join(f"hit@{k} {v:.4f}" for k, v in sorted(report.hits.items()))
        print(f"test mrr {report.mrr:.4f} {hits} ({report.n_test} triples)")
    return 0


def cmd_eval(args) -> int:
    cfg = _load_run_config(args)
    dataset = _load_dataset(cfg)
    model = _build_model(cfg, dataset, args.checkpoint)
    report = evaluate(model, dataset, args.split, cfg.eval_ks, cfg.tie_break)
    write_rank_report(report, dataset, _out_dir(cfg))
    hits = " ".join(f"hit@{k} {v:.4f}" for k, v in sorted(report.hits.items()))
    print(f"{args.split} mrr {report.mrr:.6f} {hits} ({report.n_test} triples)")
    return 0


def cmd_gradcheck(args) -> int:
    cfg = _load_run_config(args)
    result = run_gradcheck(lam=cfg.training.adv_lambda, seed=cfg.training.seed,
                           beta=cfg.model.beta)
    failed = None
    for label, check in result:
        if check is None:
            print(f"{label}: skipped (adversarial coefficient is 0)")
            continue
        status = "ok" if check.worst < GRADCHECK_TOLERANCE else "FAIL"
        print(f"{label}: worst rel err {check.worst:.3e} "
              f"({check.worst_param}) {status}")
        if check.worst >= GRADCHECK_TOLERANCE and failed is None:
            failed = (label, check)
    if failed:
        label, check = failed
        raise GradCheckError(
            f"{label}: parameter {check.worst_param!r} rel err "
            f"{check.worst:.3e} exceeds {GRADCHECK_TOLERANCE:g}")
    return 0


def _clear_generator_kinks(model, inputs) -> None:
    """Nudge generator first-layer biases until no hidden pre-activation sits
    within KINK_MARGIN of the leaky-relu kink for the fixture's generator
    inputs (`Model.generator_inputs`).

    A finite-difference probe that crosses the kink averages two slopes and
    spuriously disagrees with the analytic one-sided derivative, so the
    fixture must keep clear of it.  The nudges are deterministic and the
    fixture stays a perfectly valid random test point.
    """
    store = model.store
    for m, x in inputs.items():
        b1 = store[f"gen.{m}.b1"]
        for _ in range(100):
            pre = x @ store[f"gen.{m}.w1"].T + b1
            offending = np.abs(pre).min(axis=0) < KINK_MARGIN
            if not offending.any():
                break
            b1 = b1 + np.where(offending, 2.6 * KINK_MARGIN, 0.0)
            store.set(f"gen.{m}.b1", b1)


def run_gradcheck(lam: float = 0.01, seed: int = 0, beta: float = 1.0):
    """Finite-difference audit of both loss gradients on a small fixture.

    Builds a 5-entity / 3-relation / d=4 world in double precision with one
    missing feature row per modality (so the fallback path is exercised),
    then checks the margin loss and both views of the adversarial loss.
    Returns [(label, GradCheckResult-or-None)].
    """
    model_cfg = ModelConfig(d=4, visual_dim=7, textual_dim=5, noise_dim=4,
                            fusion_mode="adaptive", modalities=("s", "v", "t"),
                            gamma=4.0, beta=beta, precision="double")
    n_entities, n_relations = 5, 3
    root = SeededRng(seed, stream="gradcheck")
    store = init_params(model_cfg, n_entities, n_relations, seed)

    def random_table(m, dim, absent_row):
        rng = root.substream(f"features/{m}")
        matrix = (rng.uniforms(n_entities * dim) * 2 - 1).reshape(n_entities, dim)
        present = np.ones(n_entities, dtype=bool)
        present[absent_row] = False
        return FeatureTable(m, dim, matrix, present)

    tables = {"v": random_table("v", 7, 4), "t": random_table("t", 5, 2)}
    model = Model(model_cfg, store, tables)

    triple_rng = root.substream("triples")
    batch = triple_rng.randints(np.tile([n_entities, n_relations, n_entities], 4)
                                ).reshape(4, 3)
    negatives = sample_negatives(batch, n_entities, 4, root.substream("negatives"))

    # The margin loss's self-adversarial weights, held fixed while probing.
    probe = Tape(store, FROZEN)
    pos = positive_parts(model, probe, (batch, negatives))
    weights = loss_kgc(model, probe, negatives, pos)[1]["weights"]

    # Drawn once, so probing entity.structural does not move the generator's
    # input; on a discriminator tape the generator's weights are frozen too.
    inputs = model.generator_inputs(batch, ALL_PATTERNS, root.substream("noise"))
    _clear_generator_kinks(model, inputs)

    def kgc_builder(params):
        tape = Tape(params, DISC)
        pos = positive_parts(model, tape, (batch, negatives))
        loss, _ = loss_kgc(model, tape, negatives, pos, frozen_weights=weights)
        return tape, tape.scale(loss, GRADCHECK_SCALE)

    def adv_disc_builder(params):
        tape = Tape(params, DISC)
        pos = positive_parts(model, tape, (batch,))
        adv, _ = loss_adv(model, tape, ALL_PATTERNS, inputs, pos)
        return tape, tape.scale(adv, lam * GRADCHECK_SCALE)

    def adv_gen_builder(params):
        tape = Tape(params, GEN)
        pos = positive_parts(model, tape, (batch,))
        adv, _ = loss_adv(model, tape, ALL_PATTERNS, inputs, pos)
        return tape, tape.scale(adv, -lam * GRADCHECK_SCALE)

    def check(builder, group):
        return finite_diff_check(builder, store, GRADCHECK_EPSILONS, store.names(group))

    return [("margin loss (discriminator)", check(kgc_builder, "discriminator")),
            ("adversarial loss (discriminator)", check(adv_disc_builder, "discriminator")),
            ("adversarial objective (generator)",
             None if lam == 0 else check(adv_gen_builder, "generator"))]


# --------------------------------------------------------------------- wiring

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="adamf",
        description="Multi-modal knowledge graph embedding with adaptive "
                    "fusion and adversarial modality generation.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, config_required=True):
        if config_required:
            p.add_argument("config", help="flat key = value config file")
        else:
            p.add_argument("config", nargs="?", default=None,
                           help="optional config file (defaults used otherwise)")
        p.add_argument("--out", help="output directory (overrides config)")

    p_train = sub.add_parser("train", help="train a model and evaluate it")
    common(p_train)
    p_train.set_defaults(func=cmd_train)

    p_eval = sub.add_parser("eval", help="evaluate a saved checkpoint")
    common(p_eval)
    p_eval.add_argument("checkpoint", help="checkpoint file to evaluate")
    p_eval.add_argument("--split", choices=("test", "valid", "train"),
                        default="test")
    p_eval.set_defaults(func=cmd_eval)

    p_grad = sub.add_parser("gradcheck",
                            help="finite-difference audit of the gradients")
    common(p_grad, config_required=False)
    p_grad.set_defaults(func=cmd_gradcheck)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, ContractError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except NumericError as err:
        print(f"numeric error: {err}", file=sys.stderr)
        return 3
    except (DataError, OSError) as err:
        print(f"i/o error: {err}", file=sys.stderr)
        return 4
    except GradCheckError as err:
        print(f"gradient check failed: {err}", file=sys.stderr)
        return 5


if __name__ == "__main__":
    sys.exit(main())
