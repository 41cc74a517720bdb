"""Filtered link-prediction evaluation: ranks, MRR/Hit@K, and per-relation
fusion-weight summaries.

Scores are distances (lower is more plausible), so ranking sorts ascending.
The filtered protocol removes every candidate completion that forms a known
true triple in train/valid/test, except the query's own target.

Scoring is planar float64 (exact ranks): `build_cache` splits the joint
embeddings once into (N, d) `re`, `im`, plus cos/sin of the (R, d) phases, and
keeps nothing per relation.  Rotations have unit modulus, so |h o r - t| =
|h - t o conj(r)|: a tail query scores (h o r) - e, a head one e - (t o conj(r)).
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .data import TripleDataset
from .errors import ContractError
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
    joint, _ = model.entity_representations()
    joint = np.asarray(joint, dtype=np.float64)
    phases = np.asarray(model.relation_phases(), dtype=np.float64)
    return EvalCache(re=np.ascontiguousarray(joint[:, 0::2]),
                     im=np.ascontiguousarray(joint[:, 1::2]),
                     cos=np.cos(phases), sin=np.sin(phases))


def _distances(cache: EvalCache, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """sum_k sqrt((x_k - re_jk)^2 + (y_k - im_jk)^2) for every entity j."""
    n, d = cache.re.shape
    out = np.empty(n)
    step = max(1, (1 << 19) // (8 * d))     # 512 KiB blocks stay in cache
    for lo in range(0, n, step):
        a, b = x - cache.re[lo:lo + step], y - cache.im[lo:lo + step]
        a *= a
        a += np.square(b, out=b)
        out[lo:lo + step] = np.sqrt(a, out=a).sum(axis=1)
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
    for i, triple in enumerate(triples):
        head_ranks[i] = rank_query(cache, dataset, "head", triple, tie_break)
        tail_ranks[i] = rank_query(cache, dataset, "tail", triple, tie_break)
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
    """
    if model.cfg.fusion_mode != "adaptive":
        raise ContractError("modality-weight report requires adaptive fusion")
    triples = dataset.split(split)
    if triples.shape[0] == 0:
        raise ContractError(f"cannot summarize an empty {split!r} split")
    _, alpha = model.entity_representations()
    alpha = np.asarray(alpha, dtype=np.float64)
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
