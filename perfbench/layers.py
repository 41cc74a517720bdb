"""Which program functions the traced run wraps, and the per-layer metrics
read back from the tracer.

Names are wrapped where callers look them up: ``adamf.cli`` and
``adamf.training`` hold their own bindings of functions defined elsewhere,
and ``train()`` imports ``evaluate`` from ``adamf.evaluation`` when it runs.
"""

from __future__ import annotations

import os

import numpy as np

import adamf.checkpoint
import adamf.cli
import adamf.data
import adamf.evaluation
import adamf.model
import adamf.params
import adamf.rng
import adamf.tape
import adamf.training

from tracer import Tracer


def _arg(args, kwargs, position, name, default=None):
    if len(args) > position:
        return args[position]
    return kwargs.get(name, default)


def _drawn(counts, args, kwargs, result):
    counts["drawn"] += int(_arg(args, kwargs, 1, "n"))


def _negatives(counts, args, kwargs, result):
    counts["drawn"] += int(result.shape[0] * result.shape[1])


def _rows(counts, args, kwargs, result):
    counts["rows"] += int(np.asarray(_arg(args, kwargs, 2, "idx")).shape[0])


def _evaluated(counts, args, kwargs, result):
    model = _arg(args, kwargs, 0, "model")
    dataset = _arg(args, kwargs, 1, "dataset")
    triples = dataset.split(_arg(args, kwargs, 2, "split", "test"))
    relations = int(np.unique(triples[:, 1]).shape[0])
    counts["queries"] += 2 * int(triples.shape[0])
    counts["relations_max"] = max(counts["relations_max"], relations)
    # float64 rotation of every entity, kept per relation a call touches
    cache = relations * model.n_entities * model.cfg.entity_dim * 8
    counts["cache_bytes_max"] = max(counts["cache_bytes_max"], cache)


def _saved(counts, args, kwargs, result):
    counts["bytes"] += os.path.getsize(_arg(args, kwargs, 1, "path"))


def install(tracer: Tracer):
    """Wrap every traced function of the program."""
    cli, training, model = adamf.cli, adamf.training, adamf.model
    rng = adamf.rng.SeededRng
    tracer.wrap("rng.normals", [(rng, "normals")], _drawn)
    tracer.wrap("rng.uniforms", [(rng, "uniforms")], _drawn)
    tracer.wrap("rng.permutation", [(rng, "permutation")])
    tracer.wrap("training.sample_negatives",
                [(training, "sample_negatives"), (cli, "sample_negatives")], _negatives)
    tracer.wrap("training.step_disc", [(training, "train_step_discriminator")])
    tracer.wrap("training.step_gen", [(training, "train_step_generator")])
    tracer.wrap("model.init_params", [(model, "init_params"), (cli, "init_params")])
    tracer.wrap("model.joint_and_alpha", [(model.Model, "joint_and_alpha")], _rows)
    tracer.wrap("model.synthetic_triple_scores",
                [(model.Model, "synthetic_triple_scores")])
    tracer.wrap("model.entity_representations",
                [(model.Model, "entity_representations")])
    tracer.wrap("params.adam_step",
                [(adamf.params, "adam_step"), (training, "adam_step")])
    tracer.wrap("evaluation.evaluate",
                [(adamf.evaluation, "evaluate"), (cli, "evaluate")], _evaluated)
    tracer.wrap("evaluation.build_cache", [(adamf.evaluation, "build_cache")])
    tracer.wrap("evaluation.rank_query", [(adamf.evaluation, "rank_query")])
    tracer.wrap("checkpoint.save", [(adamf.checkpoint, "save_checkpoint"),
                                    (training, "save_checkpoint")], _saved)
    tracer.wrap("checkpoint.load", [(adamf.checkpoint, "load_checkpoint"),
                                    (cli, "load_checkpoint")])
    tracer.wrap("data.load_triples", [(adamf.data, "load_triples"),
                                      (cli, "load_triples")])
    tracer.wrap("data.load_features", [(adamf.data, "load_features"),
                                       (cli, "load_features")])
    return tracer.wrap_tape(adamf.tape.Tape)


def metrics(tracer: Tracer, kernels, batches: int) -> dict[str, float]:
    """Per-layer metrics of one traced pass; ``batches`` is its training
    batch count (the base of the per-step tape figures)."""
    t = tracer
    out = {
        "rng.normals_s": t.total("rng.normals"),
        "rng.normals_drawn": t.count("rng.normals", "drawn"),
        "rng.uniforms_s": t.total("rng.uniforms"),
        "rng.uniforms_drawn": t.count("rng.uniforms", "drawn"),
        "rng.permutation_s": t.total("rng.permutation"),
        "training.batches": batches,
        "training.sample_negatives_s": t.total("training.sample_negatives"),
        "training.negatives_drawn": t.count("training.sample_negatives", "drawn"),
        "training.step_disc_s": t.self_time("training.step_disc"),
        "training.step_gen_s": t.self_time("training.step_gen"),
        "model.init_params_s": t.total("model.init_params"),
        "model.joint_and_alpha_s": t.total("model.joint_and_alpha"),
        "model.joint_and_alpha_rows": t.count("model.joint_and_alpha", "rows"),
        "model.synthetic_triple_scores_s": t.total("model.synthetic_triple_scores"),
        "model.entity_representations_s": t.total("model.entity_representations"),
        "params.adam_step_s": t.total("params.adam_step"),
        "params.adam_calls": t.calls("params.adam_step"),
        "evaluation.evaluate_s": t.total("evaluation.evaluate"),
        "evaluation.build_cache_s": t.total("evaluation.build_cache"),
        "evaluation.rank_query_s": t.total("evaluation.rank_query"),
        "evaluation.queries": t.count("evaluation.evaluate", "queries"),
        "evaluation.relations_touched": t.count("evaluation.evaluate", "relations_max"),
        "evaluation.rotation_cache_bytes": t.count("evaluation.evaluate", "cache_bytes_max"),
        "checkpoint.save_s": t.total("checkpoint.save"),
        "checkpoint.save_bytes": t.count("checkpoint.save", "bytes"),
        "checkpoint.load_s": t.total("checkpoint.load"),
        "data.load_triples_s": t.total("data.load_triples"),
        "data.load_features_s": t.total("data.load_features"),
        "tape.backward_s": t.self_time("tape.backward"),
        "tape.backward_calls": t.calls("tape.backward"),
        "tape.nodes_per_step": t.count("tape.backward", "nodes_max"),
        "tape.value_bytes_per_step": t.count("tape.backward", "value_bytes_max"),
    }
    for op in kernels:
        out[f"tape.{op}.fwd_s"] = t.self_time(f"tape.{op}")
        out[f"tape.{op}.bwd_s"] = t.total(f"tape.{op}.bwd")
        out[f"tape.{op}.calls"] = t.calls(f"tape.{op}")
        out[f"tape.{op}.out_bytes"] = t.count(f"tape.{op}", "out_bytes")
    return out


# Metrics that must repeat exactly across traced runs of one seed.
EXACT = ("rng.normals_drawn", "rng.uniforms_drawn", "training.batches",
         "training.negatives_drawn", "model.joint_and_alpha_rows",
         "params.adam_calls", "evaluation.queries",
         "evaluation.relations_touched", "evaluation.rotation_cache_bytes",
         "checkpoint.save_bytes", "tape.backward_calls", "tape.nodes_per_step",
         "tape.value_bytes_per_step")


def exact_counts(values: dict[str, float]) -> dict[str, float]:
    return {k: v for k, v in values.items()
            if k in EXACT or (k.startswith("tape.") and
                              k.endswith((".calls", ".out_bytes")))}
