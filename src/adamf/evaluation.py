"""Filtered link-prediction evaluation: ranks and MRR/Hit@K, overall and
per relation, with each relation's mean fusion weights.

Scores are distances (lower is more plausible), so ranking sorts ascending.
The filtered protocol removes every candidate completion that forms a known
true triple in train/valid/test, except the query's own target.

Ranks are those of float64 scores: `build_cache` splits the joint embeddings
(projected from the present feature rows in place) once into planar `re`,
`im` in the store's dtype, coordinate-major (d, N), plus float64 cos/sin of
the (R, d) phases, and keeps nothing per relation.  Rotations have unit
modulus, so |h o r - t| = |h - t o conj(r)|: a tail query scores
(h o r) - e, a head one e - (t o conj(r)).
`candidate_scores` is that float64 score of every entity.  `rank_query` gets
the same rank for about half the arithmetic: it scores every entity in
float32, decides each candidate whose float32 score lies further from the
target's float64 score than a proven error bound, and re-scores only the rest
in float64 (see `_screen`).  The screen sums slabs of whole coordinate rows,
so each ufunc runs over all N entities at once; the float64 passes read
entity rows of the transposed planes, to which float32 rows widen exactly.
Each pass works in blocks of BLOCK_BYTES of its query point's dtype.

`evaluate` ranks contiguous slices of the split on one thread per CPU the
process may use (numpy releases the GIL inside the blocked passes).
Each slice returns its ranks through the executor's ordered map, which
yields them in split order and raises the error a serial loop would meet
first.  Every query is scored by the same code whatever the slicing, so
the ranks do not depend on the thread count.
"""

from __future__ import annotations

import json
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .data import TripleDataset
from .errors import ContractError, NumericError
from .ioutil import atomic_write_text
from .model import MODALITY_ORDER, Model
from .tape import block_rows, modulus_sum

TIE_BREAKS = ("optimistic", "pessimistic")

# ------------------------------------------------------------ score plumbing

@dataclass
class EvalCache:
    """Planar entity embeddings in the store's dtype, coordinate-major (row k
    of `re` and `im` holds coordinate k of every entity), and float64
    rotations, plus what the float32 screen reads: `re32`, `im32` (`re`, `im`
    themselves in a single-precision store) and each entity's float64 L1
    norm sum_k |re_ke| + |im_ke|.  `alpha` holds fusion weights, one column
    per modality."""
    re: np.ndarray     # (d, N)
    im: np.ndarray     # (d, N)
    cos: np.ndarray    # (R, d)
    sin: np.ndarray    # (R, d)
    alpha: np.ndarray  # (N, M)
    re32: np.ndarray = field(init=False)    # (d, N)
    im32: np.ndarray = field(init=False)    # (d, N)
    l1: np.ndarray = field(init=False)      # (N,)

    def __post_init__(self):
        with np.errstate(over="ignore"):    # beyond float32: inf, re-scored
            self.re32 = self.re.astype(np.float32, copy=False)
            self.im32 = self.im.astype(np.float32, copy=False)
        # summed along contiguous rows of d, in the order of an (N, d) layout
        self.l1 = (np.abs(self.re.T, dtype=np.float64, order="C").sum(axis=1)
                   + np.abs(self.im.T, dtype=np.float64, order="C").sum(axis=1))


def build_cache(model: Model) -> EvalCache:
    """The model's joint rows as (d, N) re and im planes in the store's dtype,
    both in one (2, d, N) array filled a BLOCK_BYTES block of joint rows at a
    time; only the scores are float64.  Raises `NumericError` on a non-finite
    embedding or phase, which no ranking can order (NaN never compares below
    a target), or on a non-finite fusion weight, which the report would
    carry; each is checked in its own dtype."""
    joint, alpha = model.entity_representations()
    phases = model.relation_phases()
    for what, values in (("entity embeddings", joint), ("relation phases", phases),
                         ("fusion weights", alpha)):
        if not np.isfinite(values).all():
            raise NumericError(f"non-finite {what}; cannot rank")
    phases = np.asarray(phases, dtype=np.float64)
    n, width = joint.shape
    planes = np.empty((2, width // 2, n), joint.dtype)
    step = block_rows(width, joint.itemsize)
    for lo in range(0, n, step):
        planes[..., lo:lo + step] = joint[lo:lo + step].reshape(-1, width // 2, 2).T
    return EvalCache(re=planes[0], im=planes[1],
                     cos=np.cos(phases), sin=np.sin(phases),
                     alpha=np.asarray(alpha, dtype=np.float64))


def _distances(re: np.ndarray, im: np.ndarray, x: np.ndarray,
               y: np.ndarray) -> np.ndarray:
    """sum_k sqrt((x_k - re_jk)^2 + (y_k - im_jk)^2) for every row j, in the
    dtype of the point (x, y) and in blocks of BLOCK_BYTES of it.  A row's sum
    depends on that row alone, so scoring a subset of rows, or in blocks of
    another size, gives each row the bytes it has in the full pass."""
    n, d = re.shape
    out = np.empty(n, dtype=x.dtype)
    step = block_rows(d, x.itemsize)
    a_block, b_block = np.empty((2, min(step, n), d), x.dtype)
    for lo in range(0, n, step):
        modulus_sum(x, y, re[lo:lo + step], im[lo:lo + step],
                    a_block[:n - lo], b_block[:n - lo], out[lo:lo + step])
    return out


def _slab_distances(re: np.ndarray, im: np.ndarray, x: np.ndarray,
                    y: np.ndarray) -> np.ndarray:
    """sum_k sqrt((x_k - re_kj)^2 + (y_k - im_kj)^2) for every column j of the
    (d, N) planes, in the dtype of the point (x, y).  Slabs of whole
    coordinate rows, BLOCK_BYTES of that dtype each, are summed over their
    rows and added in turn into one (N,) sum, so every ufunc runs over rows
    of N entities."""
    d, n = re.shape
    step = block_rows(n, x.itemsize)
    out, part = np.zeros((2, n), x.dtype)
    a_block, b_block = np.empty((2, min(step, d), n), x.dtype)
    for lo in range(0, d, step):
        rows = slice(lo, lo + step)
        out += modulus_sum(x[rows, None], y[rows, None], re[rows], im[rows],
                           a_block[:d - lo], b_block[:d - lo], part, axis=0)
    return out


def _query(cache: EvalCache, side: str, triple) -> tuple[np.ndarray, np.ndarray]:
    """The float64 point (x, y) every candidate of the `side` is measured from;
    the triple's entities and relation must be in the vocabulary."""
    h, r, t = (int(v) for v in triple)
    if side not in ("head", "tail"):
        raise ContractError(f"side must be 'head' or 'tail', got {side!r}")
    target, other = (h, t) if side == "head" else (t, h)
    for role, e in (("target", target), ("query", other)):
        if not 0 <= e < cache.re.shape[1]:
            raise ContractError(f"{role} entity {e} outside vocabulary")
    if not 0 <= r < cache.cos.shape[0]:
        raise ContractError(f"relation {r} outside vocabulary")
    a, b, c, s = cache.re[:, other], cache.im[:, other], cache.cos[r], cache.sin[r]
    if side == "head":      # |e - t o conj(r)|
        return a * c + b * s, b * c - a * s
    return a * c - b * s, a * s + b * c     # |h o r - e|


def candidate_scores(cache: EvalCache, side: str, triple) -> np.ndarray:
    """Float64 distance of every entity as the `side` completion of the triple."""
    return _distances(cache.re.T, cache.im.T, *_query(cache, side, triple))


_U32 = 2.0 ** -24           # float32 unit roundoff
_MAX_SCREEN_DIM = 1 << 17   # the bound below holds for d up to this


def _screen(cache: EvalCache, x: np.ndarray, y: np.ndarray,
            f: float) -> tuple[np.ndarray, np.ndarray]:
    """(better, decided) over every entity, from its float32 score s32: a
    decided entity's float64 score s64 lies strictly on the same side of the
    target's float64 score f as s32, so it is better under either tie-break
    iff s32 < f.  An entity is decided iff s32 is finite and |s32 - f| > B,

        B(e) = 2^-24 (10 (L1(q) + L1(e)) + 2.1 d s32(e)) + d 2^-73,

    with L1(q) = sum_k |x_k| + |y_k|.  B is not finite for d > 2^17, nor
    wherever s32 is not, so no such entity is decided.

    Proof that |s32 - s64| <= B/2.06.  Let u = 2^-24, v = 2^-53, eta = 2^-149
    (the least float32 subnormal), a_k = |x_k| + |re_k| + |y_k| + |im_k|, so
    L = L1(q) + L1(e) = sum_k a_k, and S = sum_k m_k, m_k = |p_k + i q_k|,
    p = x - re and q = y - im exactly.  Any overflow in the float32 pass
    makes s32 inf or NaN (its terms are non-negative), hence undecided; below
    that, rounding a real z gives z(1 + e) + a with |e| <= u, |a| <= eta/2,
    and a = 0 for add, subtract and sqrt, whose results never lose bits to
    underflow.  (This is IEEE gradual underflow; a process that flushes
    subnormals to zero is outside this proof.)
    - Casting x and re to float32 moves each by at most u|.| + eta/2, and the
      subtract adds u|x' - re'|; so the float32 p' has |p' - p| <=
      (2u + u^2)(|x| + |re|) + (1 + u) eta, and likewise q', giving
      m^ = |p' + i q'| within (2u + u^2) a_k + 2(1 + u) eta of m_k, with
      m^ <= (1 + u)^2 a_k + 2(1 + u) eta.
    - The squares and their sum give z = (m^^2 (1 + t) + a)(1 + e), |t| <= u,
      |a| <= eta (a square below 2^-126 keeps only absolute accuracy).  Since
      |sqrt z - sqrt w| <= sqrt|z - w|, sqrt z is within u m^ +
      sqrt((1 + u) eta) of m^, and rounding the root adds u sqrt z: the
      float32 modulus m'_k is within (2u + u^2) m^ + 0.70711 * 2^-74 of m^
      (sqrt eta = 2^-74.5).  So |m'_k - m_k| <= 4.0001 u a_k + 0.7072 * 2^-74.
    - Any order of summing d non-negative terms errs by at most
      g = (d - 1)u / (1 - (d - 1)u) times their exact sum T' (Higham,
      Accuracy and Stability of Numerical Algorithms, 2nd ed., §4.2).  The
      slab order of `_slab_distances` (each entity's terms summed along a
      slab's rows, then the slab sums added one after another) is one such
      order, and the exact pass's pairwise blocking another.  So
      T' <= s32 / (1 - g) and |s32 - T'| <= 1.016 (d - 1) u s32 for
      d <= 2^17.  Hence
      |s32 - S| <= 1.016 (d - 1) u s32 + 4.0001 u L + 0.7072 d 2^-74.
    - The same steps in float64 (v for u, 2^-1074 for eta, no cast) give
      |s64 - S| <= 3.0001 v L + d 2^-537 + 1.0001 (d - 1) v T64, which with
      v = 2^-29 u is below 10^-4 (u L + (d - 1) u s32 + d 2^-74).
    Together |s32 - s64| <= 1.0161 (d - 1) u s32 + 4.0002 u L +
    0.7073 d 2^-74, and B exceeds each term at least 2.06-fold.  The margin
    also covers computing B, L1 and |s32 - f| in float64 (relative error a
    few times 2^-53), so a computed |s32 - f| > B implies a real gap over
    the bound.  Entities left undecided, the target among them, are
    re-scored in float64 by the caller.
    """
    d = cache.re.shape[0]
    sum_coef = 2.1 * d if d <= _MAX_SCREEN_DIM else np.inf
    with np.errstate(over="ignore", invalid="ignore"):
        s32 = _slab_distances(cache.re32, cache.im32,
                              x.astype(np.float32), y.astype(np.float32))
        s = s32.astype(np.float64)
        l1q = np.abs(x).sum() + np.abs(y).sum()
        bound = _U32 * (10.0 * (l1q + cache.l1) + sum_coef * s) + d * 2.0 ** -73
        decided = np.abs(s - f) > bound     # False where s or B is inf or NaN
    return decided & (s < f), decided


def _beats(scores: np.ndarray, f: float, tie_break: str) -> np.ndarray:
    """Which scores rank above a target scoring f: optimistic ties count only
    strictly better candidates; pessimistic also counts equal ones."""
    if tie_break not in TIE_BREAKS:
        raise ContractError(f"unknown tie_break {tie_break!r}")
    return scores < f if tie_break == "optimistic" else scores <= f


def _filtered_rank(better: np.ndarray, target: int, excluded) -> int:
    """1 + the better candidates that are neither excluded nor the target."""
    if len(excluded):
        better[np.fromiter(excluded, dtype=np.int64)] = False
    better[target] = False
    return 1 + int(better.sum())


def rank_from_scores(scores: np.ndarray, target: int, excluded,
                     tie_break: str = "optimistic") -> int:
    """Rank of the target among non-excluded candidates, ascending scores."""
    return _filtered_rank(_beats(scores, scores[target], tie_break), target, excluded)


def rank_query(cache: EvalCache, dataset: TripleDataset, side: str, triple,
               tie_break: str = "optimistic") -> int:
    """Filtered rank of the triple's own entity as the `side` completion:
    `rank_from_scores` of `candidate_scores`, with the float64 scores
    computed only for the target and the entities `_screen` leaves open."""
    h, r, t = (int(v) for v in triple)
    if side == "head":
        target, known = h, dataset.filter_heads.get((r, t), ())
    else:
        target, known = t, dataset.filter_tails.get((h, r), ())
    x, y = _query(cache, side, triple)

    def exact(rows):    # float64 scores of the entities `rows`, as (n, d) rows
        return _distances(cache.re[:, rows].T, cache.im[:, rows].T, x, y)

    f = exact([target])[0]
    better, decided = _screen(cache, x, y, f)
    open_rows = np.flatnonzero(~decided)
    better[open_rows] = _beats(exact(open_rows), f, tie_break)
    return _filtered_rank(better, target, known)


def pool_size(tasks: int) -> int:
    """Workers for `tasks` independent tasks: one per CPU this process may
    run on, at most one per task, and at least one."""
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:      # no affinity call on this platform
        cpus = os.cpu_count() or 1
    return max(1, min(cpus, tasks))


def _rank_workers(n_queries: int, n_entities: int, d: int) -> int:
    """One ranking thread per CPU the process may use, at most one per query;
    one when every entity fits in one float64 `_distances` block of entity
    rows (`evaluate` passes the planes' (N, d) shape), where the per-query
    Python overhead outweighs the parallel numpy: a quick-start toy
    validation took 3.3 ms on one thread and 4.1-4.4 ms on two (2-core x86-64)."""
    return 1 if n_entities <= block_rows(d, 8) else pool_size(n_queries)


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
    directions the same way.  Per-relation rows, sorted by triple count
    descending, then name, aggregate the same formulas over each relation's
    triples, and give `alpha_<m>`, the mean fusion weight of modality m over
    their head and tail entities (0 for a modality the model does not use).
    """
    triples = dataset.split(split)
    if triples.shape[0] == 0:
        raise ContractError(f"cannot evaluate an empty {split!r} split")
    cache = build_cache(model)
    n = triples.shape[0]

    def rank_slice(lo: int, hi: int) -> list[tuple[int, int]]:
        return [(rank_query(cache, dataset, "head", triple, tie_break),
                 rank_query(cache, dataset, "tail", triple, tie_break))
                for triple in triples[lo:hi]]

    workers = _rank_workers(n, *cache.re.T.shape)
    bounds = [n * k // workers for k in range(workers + 1)]
    with ThreadPoolExecutor(workers) as pool:   # map keeps slice order: the serial loop's first error
        ranks = np.array([pair for ranked in pool.map(rank_slice, bounds, bounds[1:])
                          for pair in ranked], dtype=np.int64)
    head_ranks, tail_ranks = ranks.T
    mrr, hits = _aggregate(head_ranks, tail_ranks, ks)
    per_relation = []
    for r in sorted(set(int(v) for v in triples[:, 1])):
        idx = np.flatnonzero(triples[:, 1] == r)
        r_mrr, r_hits = _aggregate(head_ranks[idx], tail_ranks[idx], ks)
        ends = np.concatenate([cache.alpha[triples[idx, 0]], cache.alpha[triples[idx, 2]]])
        means = dict(zip(model.cfg.modalities, ends.mean(axis=0)))
        per_relation.append({
            "relation": dataset.vocab.relation_names[r], "count": int(idx.shape[0]),
            "mrr": r_mrr, "hits": {str(k): v for k, v in sorted(r_hits.items())},
            **{f"alpha_{m}": float(means.get(m, 0.0)) for m in MODALITY_ORDER}})
    per_relation.sort(key=lambda row: (-row["count"], row["relation"]))
    return RankReport(mrr=mrr, hits=hits, n_test=n, triples=triples,
                      head_ranks=head_ranks, tail_ranks=tail_ranks,
                      per_relation=per_relation)


# ------------------------------------------------------------------- writers

def write_rank_report(report: RankReport, dataset: TripleDataset, out) -> None:
    """`out/rank_report.json`, the aggregates, and `out/ranks.tsv`, one audit
    line per query: the triple by name, then both ranks."""
    atomic_write_text(os.path.join(out, "rank_report.json"),
                      json.dumps(report.to_json_dict(), indent=2) + "\n")
    vocab = dataset.vocab
    lines = []
    for (h, r, t), rh, rt in zip(report.triples, report.head_ranks,
                                 report.tail_ranks):
        lines.append("\t".join((vocab.entity_names[h], vocab.relation_names[r],
                                vocab.entity_names[t], str(int(rh)), str(int(rt)))))
    atomic_write_text(os.path.join(out, "ranks.tsv"), "\n".join(lines) + "\n")
