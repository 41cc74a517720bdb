"""Filtered link-prediction evaluation: ranks, MRR/Hit@K, and per-relation
fusion-weight summaries.

Scores are distances (lower is more plausible), so ranking sorts ascending.
The filtered protocol removes every candidate completion that forms a known
true triple in train/valid/test, except the query's own target.

Scoring is planar float64 (exact ranks): `build_cache` splits the joint
embeddings once into (N, d) `re`, `im`, plus cos/sin of the (R, d) phases, and
keeps nothing per relation.  Rotations have unit modulus, so |h o r - t| =
|h - t o conj(r)|: a tail query scores (h o r) - e, a head one e - (t o conj(r)).

`evaluate` ranks contiguous slices of the split on one thread per CPU the
process may use (numpy releases the GIL inside the blocked `_distances`).
Every query is scored by the same code whatever the slicing, so the ranks do
not depend on the thread count.
"""

from __future__ import annotations

import json
import os
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .data import TripleDataset
from .errors import ContractError, NumericError
from .ioutil import atomic_write_text
from .model import MODALITY_ORDER, Model

TIE_BREAKS = ("optimistic", "pessimistic")

# ------------------------------------------------------------ score plumbing

@dataclass
class EvalCache:
    """Frozen planar entity embeddings and relation rotations for scoring."""
    re: np.ndarray     # (N, d)
    im: np.ndarray     # (N, d)
    cos: np.ndarray    # (R, d)
    sin: np.ndarray    # (R, d)


def build_cache(model: Model) -> EvalCache:
    """Raises `NumericError` on a non-finite embedding or phase, which no
    ranking can order (NaN never compares below a target)."""
    joint, _ = model.entity_representations()
    joint = np.asarray(joint, dtype=np.float64)
    phases = np.asarray(model.relation_phases(), dtype=np.float64)
    for what, values in (("entity embeddings", joint), ("relation phases", phases)):
        if not np.isfinite(values).all():
            raise NumericError(f"non-finite {what}; cannot rank")
    return EvalCache(re=np.ascontiguousarray(joint[:, 0::2]),
                     im=np.ascontiguousarray(joint[:, 1::2]),
                     cos=np.cos(phases), sin=np.sin(phases))


def _block_rows(d: int) -> int:
    """Entity rows per `_distances` block: 512 KiB of float64 stays in cache."""
    return max(1, (1 << 19) // (8 * d))


_per_thread = threading.local()


def _blocks(rows: int, d: int) -> tuple[np.ndarray, np.ndarray]:
    """This thread's two (rows, d) block buffers, reused from query to query."""
    blocks = getattr(_per_thread, "blocks", None)
    if blocks is None or blocks[0].shape != (rows, d):
        blocks = _per_thread.blocks = (np.empty((rows, d)), np.empty((rows, d)))
    return blocks


def _distances(cache: EvalCache, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """sum_k sqrt((x_k - re_jk)^2 + (y_k - im_jk)^2) for every entity j."""
    n, d = cache.re.shape
    out = np.empty(n)
    step = _block_rows(d)
    a_block, b_block = _blocks(min(step, n), d)
    for lo in range(0, n, step):
        a, b = a_block[:n - lo], b_block[:n - lo]      # a full block but the last
        np.subtract(x, cache.re[lo:lo + step], out=a)
        np.subtract(y, cache.im[lo:lo + step], out=b)
        a *= a
        a += np.square(b, out=b)
        np.add.reduce(np.sqrt(a, out=a), axis=1, out=out[lo:lo + step])
    return out


def candidate_scores(cache: EvalCache, side: str, triple) -> np.ndarray:
    """Distance of every entity as the `side` completion of the triple."""
    h, r, t = (int(v) for v in triple)
    c, s = cache.cos[r], cache.sin[r]
    if side == "head":      # |e - t o conj(r)|
        a, b = cache.re[t], cache.im[t]
        return _distances(cache, a * c + b * s, b * c - a * s)
    if side == "tail":      # |h o r - e|
        a, b = cache.re[h], cache.im[h]
        return _distances(cache, a * c - b * s, a * s + b * c)
    raise ContractError(f"side must be 'head' or 'tail', got {side!r}")


def rank_from_scores(scores: np.ndarray, target: int, excluded,
                     tie_break: str = "optimistic") -> int:
    """Rank of the target among non-excluded candidates, ascending scores.

    Optimistic ties count only strictly better candidates; pessimistic also
    counts equal ones.
    """
    if tie_break not in TIE_BREAKS:
        raise ContractError(f"unknown tie_break {tie_break!r}")
    f = scores[target]
    better = scores < f if tie_break == "optimistic" else scores <= f
    if len(excluded):
        better[np.fromiter(excluded, dtype=np.int64)] = False
    better[target] = False
    return 1 + int(better.sum())


def rank_query(cache: EvalCache, dataset: TripleDataset, side: str, triple,
               tie_break: str = "optimistic") -> int:
    """Filtered rank of the triple's own entity as the `side` completion."""
    h, r, t = (int(v) for v in triple)
    if side == "head":
        target, known = h, dataset.filter_heads.get((r, t), ())
    else:
        target, known = t, dataset.filter_tails.get((h, r), ())
    if not 0 <= target < cache.re.shape[0]:
        raise ContractError(f"target entity {target} outside vocabulary")
    scores = candidate_scores(cache, side, triple)
    return rank_from_scores(scores, target, known, tie_break)


def _rank_workers(n_queries: int, n_entities: int, d: int) -> int:
    """One ranking thread per CPU the process may use, at most one per query;
    a single thread when every entity fits in one `_distances` block, where
    the per-query Python overhead would outweigh the parallel numpy."""
    if n_entities <= _block_rows(d):
        return 1
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:      # no affinity call on this platform
        cpus = os.cpu_count() or 1
    return min(cpus, n_queries)


# ---------------------------------------------------------------- aggregates

@dataclass
class RankReport:
    mrr: float
    hits: dict[int, float]
    n_test: int
    triples: np.ndarray
    head_ranks: np.ndarray
    tail_ranks: np.ndarray
    per_relation: list[dict]

    def to_json_dict(self) -> dict:
        return {
            "mrr": self.mrr,
            "hits": {str(k): v for k, v in sorted(self.hits.items())},
            "n_test": self.n_test,
            "per_relation": self.per_relation,
        }


def _aggregate(head_ranks: np.ndarray, tail_ranks: np.ndarray,
               ks) -> tuple[float, dict[int, float]]:
    inv = 1.0 / head_ranks + 1.0 / tail_ranks
    denom = 2.0 * head_ranks.shape[0]
    mrr = float(inv.sum() / denom)
    hits = {int(k): float(((head_ranks <= k).sum() + (tail_ranks <= k).sum()) / denom)
            for k in ks}
    return mrr, hits


def evaluate(model: Model, dataset: TripleDataset, split: str = "test",
             ks=(1, 3, 10), tie_break: str = "optimistic") -> RankReport:
    """Filtered ranking of every query in the split, both directions.

    MRR = (1/(2|T|)) * sum_i (1/r_head_i + 1/r_tail_i); Hit@K counts both
    directions the same way.  Per-relation rows aggregate the same formulas
    over each relation's triples, in descending triple-count order.
    """
    triples = dataset.split(split)
    if triples.shape[0] == 0:
        raise ContractError(f"cannot evaluate an empty {split!r} split")
    cache = build_cache(model)
    n = triples.shape[0]
    head_ranks = np.empty(n, dtype=np.int64)
    tail_ranks = np.empty(n, dtype=np.int64)

    def rank_slice(lo: int, hi: int) -> None:
        for i in range(lo, hi):
            head_ranks[i] = rank_query(cache, dataset, "head", triples[i], tie_break)
            tail_ranks[i] = rank_query(cache, dataset, "tail", triples[i], tie_break)

    workers = _rank_workers(n, *cache.re.shape)
    bounds = [n * k // workers for k in range(workers + 1)]
    with ThreadPoolExecutor(workers) as pool:
        slices = [pool.submit(rank_slice, lo, hi) for lo, hi in zip(bounds, bounds[1:])]
    for done in slices:     # in slice order: the serial loop's first error
        done.result()
    mrr, hits = _aggregate(head_ranks, tail_ranks, ks)
    per_relation = []
    for r in sorted(set(int(v) for v in triples[:, 1])):
        idx = np.flatnonzero(triples[:, 1] == r)
        r_mrr, r_hits = _aggregate(head_ranks[idx], tail_ranks[idx], ks)
        per_relation.append({
            "relation": dataset.vocab.relation_names[r],
            "count": int(idx.shape[0]),
            "mrr": r_mrr,
            "hits": {str(k): v for k, v in sorted(r_hits.items())},
        })
    per_relation.sort(key=lambda row: (-row["count"], row["relation"]))
    return RankReport(mrr=mrr, hits=hits, n_test=n, triples=triples,
                      head_ranks=head_ranks, tail_ranks=tail_ranks,
                      per_relation=per_relation)


# ------------------------------------------------------------ weight summary

def relation_weight_report(model: Model, dataset: TripleDataset,
                           split: str = "test") -> list[dict]:
    """Mean fusion weights per relation over its triples' head and tail
    entities, sorted by triple count descending.

    Only meaningful for adaptive fusion; inactive modalities report 0.
    Raises `NumericError` on non-finite fusion weights, as `build_cache` does
    on non-finite embeddings.
    """
    if model.cfg.fusion_mode != "adaptive":
        raise ContractError("modality-weight report requires adaptive fusion")
    triples = dataset.split(split)
    if triples.shape[0] == 0:
        raise ContractError(f"cannot summarize an empty {split!r} split")
    _, alpha = model.entity_representations()
    alpha = np.asarray(alpha, dtype=np.float64)
    if not np.isfinite(alpha).all():
        raise NumericError("non-finite fusion weights; cannot summarize")
    rows = []
    for r in sorted(set(int(v) for v in triples[:, 1])):
        idx = np.flatnonzero(triples[:, 1] == r)
        stacked = np.concatenate([alpha[triples[idx, 0]], alpha[triples[idx, 2]]])
        means = dict(zip(model.cfg.modalities, stacked.mean(axis=0)))
        rows.append({
            "relation": dataset.vocab.relation_names[r],
            "count": int(idx.shape[0]),
            **{f"alpha_{m}": float(means.get(m, 0.0)) for m in MODALITY_ORDER},
        })
    rows.sort(key=lambda row: (-row["count"], row["relation"]))
    return rows


# ------------------------------------------------------------------- writers

def write_rank_report_json(report: RankReport, path) -> None:
    atomic_write_text(path, json.dumps(report.to_json_dict(), indent=2) + "\n")


def write_per_query_tsv(report: RankReport, dataset: TripleDataset, path) -> None:
    """One audit line per query: the triple by name, then both ranks."""
    vocab = dataset.vocab
    lines = []
    for (h, r, t), rh, rt in zip(report.triples, report.head_ranks,
                                 report.tail_ranks):
        lines.append("\t".join((vocab.entity_names[h], vocab.relation_names[r],
                                vocab.entity_names[t], str(int(rh)), str(int(rt)))))
    atomic_write_text(path, "\n".join(lines) + "\n")


def write_weight_csv(rows: list[dict], path) -> None:
    lines = ["relation,count,alpha_s,alpha_v,alpha_t"]
    for row in rows:
        lines.append("%s,%d,%.17g,%.17g,%.17g" % (
            row["relation"], row["count"],
            row["alpha_s"], row["alpha_v"], row["alpha_t"]))
    atomic_write_text(path, "\n".join(lines) + "\n")
