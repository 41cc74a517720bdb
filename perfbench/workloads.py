"""The three workloads.

Each workload function takes a ``Context`` and returns an ``Outcome``.  The
untimed preparation (inputs made from the seed) comes first; set-up is the
program's own set-up calls; the timed part is fixed work, the same on every
commit.  With ``ctx.traced`` the timed part runs twice from the same state:
once untraced, as the reference for the tracing overhead, and once under the
tracer, which also wraps the set-up.  Both passes must produce the same
outputs.
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import json
import math
import os
import sys
import time
from dataclasses import dataclass, field

import numpy as np

import adamf.checkpoint
import adamf.cli
import adamf.data
import adamf.evaluation
import adamf.model
import adamf.params
import adamf.rng
import adamf.toykg
import adamf.training

import layers
import synth
from tracer import Patches, Tracer

clock = time.perf_counter

# toy_train: the README quick start, unchanged.
TOY_MRR_FLOOR = 0.45          # acceptance-contract floor for the toy graph
TOY_SETUP_REPEATS = 40        # extra set-ups, each stopped at the first batch

# db15k_*: DB15K counts, the paper's model shape.
MODEL_SHAPE = dict(d=200, visual_dim=synth.VISUAL_DIM,
                   textual_dim=synth.TEXTUAL_DIM, noise_dim=64)
MISSING_RATIO = 0.3
TRAIN_BATCH = 128
TRAIN_K = 64
TRAIN_BATCHES = 2             # one on raw feature rows, one on unit-norm rows
EVAL_RELATIONS = 26           # 26 * N * 2d * 8 B = 1.07 GB of rotation cache
EVAL_TRIPLES_PER_RELATION = 2


@dataclass
class Context:
    seed: int
    work_dir: str
    traced: bool


@dataclass
class Outcome:
    setup_s: list[float]          # one sample per set-up
    run_s: float                  # wall time of the timed work
    step_s: list[float]           # one sample per operation
    items: int                    # positive triples trained, or queries ranked
    items_s: float                # time those items took
    attempted: int
    failures: list[str] = field(default_factory=list)
    failed_ops: int = 0
    record: dict = field(default_factory=dict)    # outputs to compare across runs
    layer: dict = field(default_factory=dict)     # per-layer metrics (traced)
    notes: dict = field(default_factory=dict)     # printed, not compared

    def fail(self, message: str, ops: int | None = None):
        self.failures.append(message)
        self.failed_ops = self.attempted if ops is None else min(
            self.attempted, self.failed_ops + ops)


def _digest(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


class _StopSetup(Exception):
    """Raised where training would start, to time set-up alone."""


def _traced_layers(tracer: Tracer, kernels, batches: int, overhead: float,
                   step_s: list[float], mrr: float) -> dict:
    out = layers.metrics(tracer, kernels, batches)
    out["test_mrr"] = mrr
    out["step_s_p50"] = _percentile(step_s, 50)
    out["step_s_p90"] = _percentile(step_s, 90)
    out["step_samples"] = len(step_s)
    out["trace.overhead"] = overhead
    out["trace.absent_targets"] = len(tracer.absent)
    return out


def _percentile(values, q) -> float:
    return float(np.percentile(np.asarray(values, dtype=np.float64), q))


# ------------------------------------------------------------------ toy_train

def toy_train(ctx: Context) -> Outcome:
    """``adamf train`` on the 50-entity ring, exactly as the README runs it."""
    data_dir = os.path.join(ctx.work_dir, "data")
    adamf.toykg.write_toy_kg(data_dir)

    def config(name: str) -> str:
        path = os.path.join(ctx.work_dir, f"{name}.cfg")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(adamf.toykg.toy_config_text(
                data_dir, os.path.join(ctx.work_dir, name), seed=ctx.seed))
        return path

    def run(name: str, clocked: bool, setup_only: bool = False) -> dict:
        """One ``adamf train`` call.  When ``clocked``, set-up ends at the
        first batch and each batch is timed from its negative sampling to the
        end of its generator step; ``setup_only`` stops at the first batch."""
        marks = {"setup_end": None, "batch_start": None, "steps": []}
        patches = Patches()
        if clocked:
            def at_batch_start(fn):
                @functools.wraps(fn)
                def wrapper(*args, **kwargs):
                    marks["batch_start"] = clock()
                    if marks["setup_end"] is None:
                        marks["setup_end"] = marks["batch_start"]
                        if setup_only:
                            raise _StopSetup
                    return fn(*args, **kwargs)
                return wrapper

            def at_batch_end(fn):
                @functools.wraps(fn)
                def wrapper(*args, **kwargs):
                    result = fn(*args, **kwargs)
                    marks["steps"].append(clock() - marks["batch_start"])
                    return result
                return wrapper

            patches.replace(adamf.training, "sample_negatives", at_batch_start)
            patches.replace(adamf.training, "train_step_generator", at_batch_end)
        cfg = config(name)
        start = clock()
        try:
            with contextlib.redirect_stdout(sys.stderr):
                code = adamf.cli.main(["train", cfg])
        except _StopSetup:
            code = 0
        finally:
            patches.undo()
        end = clock()
        marks.update(code=code, run_s=end - start,
                     out_dir=os.path.join(ctx.work_dir, name),
                     setup_s=(marks["setup_end"] - start
                              if marks["setup_end"] is not None else None))
        return marks

    # Half the extra set-ups run before the main run and half after it, so
    # their median spans the machine's speed over the whole run.
    def setups_alone(first: int, count: int) -> list:
        return [run(f"setup{i}", True, setup_only=True)["setup_s"]
                for i in range(first, first + count)]

    half = TOY_SETUP_REPEATS // 2
    setups = setups_alone(0, half)
    main = run("main", True)
    setups.append(main["setup_s"])
    setups += setups_alone(half, TOY_SETUP_REPEATS - half)
    dataset = adamf.toykg.build_toy_kg()[0]
    epochs = adamf.toykg.TOY_DEFAULTS["epochs"]
    batches = epochs * math.ceil(dataset.train.shape[0]
                                 / adamf.toykg.TOY_DEFAULTS["batch_size"])
    steps = main["steps"]
    outcome = Outcome(setup_s=[s for s in setups if s is not None],
                      run_s=main["run_s"], step_s=steps,
                      items=dataset.train.shape[0] * epochs, items_s=sum(steps),
                      attempted=batches)
    if len(steps) != batches or None in setups:
        outcome.fail(f"batch clock saw {len(steps)} of {batches} batches")
    outputs = [main]
    if ctx.traced:
        tracer = Tracer()
        kernels = layers.install(tracer)
        try:
            traced = run("traced", False)
        finally:
            tracer.uninstall()
        outputs.append(traced)
        report = _read_report(traced["out_dir"])
        outcome.layer = _traced_layers(
            tracer, kernels, batches, traced["run_s"] / main["run_s"], steps,
            report.get("mrr", 0.0) if report else 0.0)
        outcome.notes["absent"] = tracer.absent
    digests = []
    for out in outputs:
        if out["code"] != 0:
            outcome.fail(f"adamf train exited with code {out['code']}")
            continue
        report = _read_report(out["out_dir"])
        if report is None:
            outcome.fail("rank_report.json was not written")
            continue
        mrr = report["mrr"]
        outcome.notes["test_mrr"] = mrr
        if not mrr >= TOY_MRR_FLOOR:
            outcome.fail(f"test MRR {mrr} is below the floor {TOY_MRR_FLOOR}")
        digests.append({f: _digest(os.path.join(out["out_dir"], f))
                        for f in ("checkpoint.bin", "rank_report.json")})
    if digests:
        if any(d != digests[0] for d in digests):
            outcome.fail("traced and untraced runs wrote different bytes")
        outcome.record["outputs"] = digests[0]
    return outcome


def _read_report(out_dir: str):
    path = os.path.join(out_dir, "rank_report.json")
    if not os.path.exists(path):
        return None
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


# ----------------------------------------------------------- db15k inputs

def _db15k_inputs(seed: int):
    rng = np.random.default_rng(seed)
    splits = synth.make_triples(rng)
    features = synth.make_features(rng)
    return rng, splits, features


def _mask_features(features, seed):
    """The CLI's loading step: hide MISSING_RATIO of each modality's rows."""
    return {m: adamf.data.apply_modality_missing(table, MISSING_RATIO, seed)
            for m, table in features.items()}


def _model_config():
    return adamf.model.ModelConfig(**MODEL_SHAPE)


# ---------------------------------------------------------------- db15k_train

def db15k_train(ctx: Context) -> Outcome:
    """Fixed B=128 batches through negatives, discriminator and generator:
    the first batch on the raw feature rows, the second on the same rows
    scaled to unit norm (see ``synth``), both models sharing one store."""
    _, splits, features = _db15k_inputs(ctx.seed)
    unit_features = synth.unit_rows(features)
    train_cfg = adamf.training.TrainConfig(
        k_negatives=TRAIN_K, batch_size=TRAIN_BATCH, mat_enabled=True,
        seed=ctx.seed)
    model_cfg = _model_config()
    tracer = kernels = None
    if ctx.traced:
        tracer = Tracer()
        kernels = layers.install(tracer)

    start = clock()
    store = adamf.model.init_params(model_cfg, synth.N_ENTITIES,
                                    synth.N_RELATIONS, ctx.seed)
    models = [adamf.model.Model(model_cfg, store, _mask_features(f, ctx.seed))
              for f in (features, unit_features)]
    setup_s = clock() - start
    del features, unit_features

    train = splits["train"]
    perm = adamf.rng.SeededRng(ctx.seed).substream("shuffle").permutation(
        train.shape[0])
    batches = [(models[i % len(models)],
                train[perm[i * TRAIN_BATCH:(i + 1) * TRAIN_BATCH]])
               for i in range(TRAIN_BATCHES)]

    def run_batches():
        root = adamf.rng.SeededRng(ctx.seed)
        neg_rng = root.substream("negatives")
        noise_rng = root.substream("noise")
        steps, losses = [], []
        for model, batch in batches:
            t0 = clock()
            negatives = adamf.training.sample_negatives(
                batch, model.n_entities, train_cfg.k_negatives, neg_rng)
            kgc, adv = adamf.training.train_step_discriminator(
                model, batch, negatives, train_cfg, noise_rng)
            gen = adamf.training.train_step_generator(model, batch, train_cfg,
                                                      noise_rng)
            steps.append(clock() - t0)
            losses.append([float(kgc), float(adv), float(gen)])
        return steps, losses

    if tracer is None:
        steps, losses = run_batches()
        runs = [losses]
    else:
        tracer.uninstall()
        saved = _snapshot(store)
        steps, losses = run_batches()
        _restore(store, saved)
        del saved
        layers.install(tracer)
        try:
            traced_steps, traced_losses = run_batches()
        finally:
            tracer.uninstall()
        runs = [losses, traced_losses]

    outcome = Outcome(setup_s=[setup_s], run_s=sum(steps), step_s=steps,
                      items=TRAIN_BATCH * len(steps), items_s=sum(steps),
                      attempted=TRAIN_BATCHES)
    if tracer is not None:
        outcome.layer = _traced_layers(tracer, kernels, TRAIN_BATCHES,
                                       sum(traced_steps) / sum(steps), steps, 0.0)
        outcome.notes["absent"] = tracer.absent
    for i, batch_losses in enumerate(losses):
        if not all(math.isfinite(v) for v in batch_losses):
            outcome.fail(f"batch {i}: non-finite loss {batch_losses}", ops=1)
    if any(r != runs[0] for r in runs):
        outcome.fail("traced and untraced passes gave different losses")
    outcome.record["losses"] = losses
    return outcome


def _snapshot(store):
    return {name: (store[name].copy(),) + tuple(
        np.copy(a) if isinstance(a, np.ndarray) else a
        for a in store.adam_state(name)) for name in store.names()}


def _restore(store, saved):
    for name, (value, m, v, step) in saved.items():
        store.set(name, value)
        store.set_adam_state(name, m, v, step)


# ----------------------------------------------------------------- db15k_eval

def choose_queries(test: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """EVAL_TRIPLES_PER_RELATION test triples from each of EVAL_RELATIONS
    relations drawn uniformly, so the long tail of relations is touched."""
    rels, counts = np.unique(test[:, 1], return_counts=True)
    eligible = rels[counts >= EVAL_TRIPLES_PER_RELATION]
    chosen = np.sort(rng.choice(eligible, EVAL_RELATIONS, replace=False))
    rows = []
    for r in chosen:
        idx = np.flatnonzero(test[:, 1] == r)
        rows.extend(rng.choice(idx, EVAL_TRIPLES_PER_RELATION, replace=False))
    return test[np.sort(np.asarray(rows))]


def checkpoint_values(store, rng: np.random.Generator) -> dict[str, np.ndarray]:
    """Parameters to evaluate: the initial values moved by seeded noise, so
    that loading the checkpoint visibly changes the model."""
    return {name: (store[name] + 0.01 * rng.standard_normal(store[name].shape)
                   ).astype(store.dtype) for name in store.names()}


def db15k_eval(ctx: Context) -> Outcome:
    """``adamf eval``'s path on a prepared checkpoint, over a query subset."""
    rng, splits, features = _db15k_inputs(ctx.seed)
    queries = choose_queries(splits["test"], rng)
    dataset = synth.make_dataset(splits, test=queries)
    model_cfg = _model_config()
    tracer = kernels = None
    if ctx.traced:
        tracer = Tracer()
        kernels = layers.install(tracer)

    start = clock()
    tables = _mask_features(features, ctx.seed)
    store = adamf.model.init_params(model_cfg, synth.N_ENTITIES,
                                    synth.N_RELATIONS, ctx.seed)
    setup_s = clock() - start
    del features

    # Preparation, outside set-up and tracing: write the checkpoint to load.
    if tracer is not None:
        tracer.uninstall()
    expected = checkpoint_values(store, rng)
    ckpt = os.path.join(ctx.work_dir, "checkpoint.bin")
    prepared = adamf.params.ParameterStore(dtype=store.dtype)
    for name, value in expected.items():
        prepared.add(name, value, store.group_of(name))
    adamf.checkpoint.save_checkpoint(prepared, ckpt)
    del prepared
    if tracer is not None:
        layers.install(tracer)

    start = clock()
    adamf.checkpoint.load_checkpoint(store, ckpt)
    model = adamf.model.Model(model_cfg, store, tables)
    setup_s += clock() - start
    del tables

    def run_eval(clocked: bool):
        step_s = []
        patches = Patches()
        if clocked:
            def timed(fn):
                @functools.wraps(fn)
                def wrapper(*args, **kwargs):
                    t0 = clock()
                    result = fn(*args, **kwargs)
                    step_s.append(clock() - t0)
                    return result
                return wrapper
            patches.replace(adamf.evaluation, "rank_query", timed)
        t0 = clock()
        try:
            report = adamf.evaluation.evaluate(model, dataset, "test", (1, 3, 10),
                                               "optimistic")
        finally:
            patches.undo()
        return report, clock() - t0, step_s

    if tracer is None:
        report, run_s, steps = run_eval(True)
        reports = [report]
    else:
        tracer.uninstall()
        report, run_s, steps = run_eval(True)
        layers.install(tracer)
        try:
            traced_report, traced_s, _ = run_eval(False)
        finally:
            tracer.uninstall()
        reports = [report, traced_report]

    n_queries = 2 * queries.shape[0]
    outcome = Outcome(setup_s=[setup_s], run_s=run_s,
                      step_s=steps or [run_s / n_queries], items=n_queries,
                      items_s=run_s, attempted=n_queries)
    if tracer is not None:
        outcome.layer = _traced_layers(tracer, kernels, 0, traced_s / run_s,
                                       outcome.step_s, report.mrr)
        outcome.notes["absent"] = tracer.absent
    outcome.notes["test_mrr"] = report.mrr

    # Outside the timed region: the checkpoint loaded, and the ranks are
    # those of a direct float64 re-score with the benchmark's own filter.
    if not all(np.array_equal(store[n], v) for n, v in expected.items()):
        outcome.fail("loaded parameters differ from the checkpoint written")
    head, tail = rescore_ranks(model, splits, queries)
    for rep in reports:
        wrong = int((rep.head_ranks != head).sum() + (rep.tail_ranks != tail).sum())
        if wrong:
            outcome.fail(f"{wrong} ranks differ from the re-score", ops=wrong)
    ranks = np.concatenate([reports[0].head_ranks, reports[0].tail_ranks])
    outcome.record["ranks"] = hashlib.sha256(ranks.astype("<i8").tobytes()).hexdigest()
    return outcome


def rescore_ranks(model, splits, queries):
    """Filtered optimistic ranks recomputed from the joint embeddings."""
    joint, _ = model.entity_representations()
    joint = np.asarray(joint, dtype=np.float64)
    phases = np.asarray(model.relation_phases(), dtype=np.float64)
    known = np.concatenate(list(splits.values()))
    re = np.ascontiguousarray(joint[:, 0::2])
    im = np.ascontiguousarray(joint[:, 1::2])
    head = np.empty(queries.shape[0], dtype=np.int64)
    tail = np.empty(queries.shape[0], dtype=np.int64)
    for r in np.unique(queries[:, 1]).tolist():
        c, s = np.cos(phases[r]), np.sin(phases[r])
        rot_re, rot_im = re * c - im * s, re * s + im * c   # every entity o r
        for i in np.flatnonzero(queries[:, 1] == r).tolist():
            h, _, t = queries[i].tolist()
            # tail query: |h o r - e| for every entity e
            scores = _modulus_sum(rot_re[h] - re, rot_im[h] - im)
            others = known[(known[:, 0] == h) & (known[:, 1] == r), 2]
            tail[i] = _rank(scores, t, others)
            # head query: |e o r - t| for every entity e
            scores = _modulus_sum(rot_re - re[t], rot_im - im[t])
            others = known[(known[:, 1] == r) & (known[:, 2] == t), 0]
            head[i] = _rank(scores, h, others)
    return head, tail


def _modulus_sum(dre, dim):
    """sum_k sqrt(dre_k^2 + dim_k^2) per row, in place on the arguments."""
    dre *= dre
    dim *= dim
    dre += dim
    return np.sqrt(dre, out=dre).sum(axis=1)


def _rank(scores, target, known):
    valid = np.ones(scores.shape[0], dtype=bool)
    valid[known] = False
    valid[target] = False
    return 1 + int((scores[valid] < scores[target]).sum())


WORKLOADS = {"toy_train": toy_train, "db15k_train": db15k_train,
             "db15k_eval": db15k_eval}
