"""Filtered ranking against a brute-force oracle, plus metric arithmetic."""

import itertools
import json
import os
import time
from concurrent.futures import ThreadPoolExecutor
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import adamf.evaluation
import adamf.tape
from adamf.errors import ContractError, NumericError
from adamf.evaluation import (build_cache, candidate_scores, evaluate,
                              rank_from_scores, rank_query, write_rank_report)
from adamf.model import FROZEN
from adamf.rng import SeededRng
from adamf.tape import Tape
from adamf.training import sample_negatives

from conftest import line_model, make_dataset, small_model


# ------------------------------------------------------------ oracle ranking

def oracle_rank(model, dataset, side, triple, tie_break="optimistic"):
    """Reference filtered rank via per-candidate complex arithmetic.

    Deliberately shares nothing with the production path: complex dtype
    instead of interleaved pairs, a dict of scalar scores instead of
    vectorized candidate arrays, and explicit counting.
    """
    joint, _ = model.entity_representations()
    joint = np.asarray(joint, dtype=np.float64)
    phases = model.relation_phases()
    h, r, t = (int(v) for v in triple)
    rot = np.exp(1j * np.asarray(phases[r], dtype=np.float64))

    def as_complex(row):
        return row[0::2] + 1j * row[1::2]

    def f(hh, tt):
        diff = as_complex(joint[hh]) * rot - as_complex(joint[tt])
        return float(np.abs(diff).sum())

    n = joint.shape[0]
    if side == "head":
        target = h
        known = dataset.filter_heads.get((r, t), set())
        scores = {e: f(e, t) for e in range(n)}
    else:
        target = t
        known = dataset.filter_tails.get((h, r), set())
        scores = {e: f(h, e) for e in range(n)}
    mine = scores[target]
    rank = 1
    for e in range(n):
        if e == target or e in known:
            continue
        if scores[e] < mine or (tie_break == "pessimistic" and scores[e] == mine):
            rank += 1
    return rank


def random_fixture(seed):
    """Random dataset + model with <= 50 entities and <= 5 relations."""
    gen = np.random.default_rng(seed)
    n = int(gen.integers(3, 51))
    n_rel = int(gen.integers(1, 6))
    space = n * n_rel * n
    count = int(gen.integers(2, min(30, space) + 1))
    flat = gen.choice(space, size=count, replace=False)
    triples = np.stack(np.unravel_index(flat, (n, n_rel, n)), axis=1)
    splits = {"train": triples[:-2].tolist() or triples[:1].tolist(),
              "valid": triples[-2:-1].tolist(),
              "test": triples[-1:].tolist()}
    ds = make_dataset(n, splits, n_relations=n_rel)
    absent = tuple(int(i) for i in gen.choice(n, size=n // 5, replace=False))
    model = small_model(n_entities=n, n_relations=n_rel, d=int(gen.integers(2, 5)),
                        seed=seed, absent_v=absent)
    return ds, model


def test_rank_query_matches_oracle_on_200_fixtures():
    start = time.monotonic()
    for seed in range(200):
        ds, model = random_fixture(seed)
        cache = build_cache(model)
        queries = [("test", ds.test[0]), ("valid", ds.valid[0])]
        for _, triple in queries:
            for side in ("head", "tail"):
                for tie in ("optimistic", "pessimistic"):
                    got = rank_query(cache, ds, side, triple, tie)
                    want = oracle_rank(model, ds, side, triple, tie)
                    assert got == want, (seed, side, tie)
    assert time.monotonic() - start < 30.0


def test_evaluate_matches_oracle_end_to_end():
    ds, model = random_fixture(999)
    report = evaluate(model, ds, split="test", ks=(1, 3, 10))
    inv_sum = 0.0
    for i, triple in enumerate(ds.test):
        rh = oracle_rank(model, ds, "head", triple)
        rt = oracle_rank(model, ds, "tail", triple)
        assert report.head_ranks[i] == rh
        assert report.tail_ranks[i] == rt
        inv_sum += 1.0 / rh + 1.0 / rt
    assert abs(report.mrr - inv_sum / (2 * len(ds.test))) < 1e-12


# ------------------------------------------------------- float32 screen

# Magnitudes of the entity rows: ordinary, with float32 squares that fall to
# subnormals or to zero, and with float32 squares near or past overflow.
# A float64 store also reaches past float32's range.
SCREEN_SCALES = {"single": (1.0, 3e-3, 1e-19, 1e-21, 1e-23, 1e-30, 1e-40,
                            1e-44, 1e18, 1e19, 3e19, 1e37),
                 "double": (1.0, 1e-21, 1e-23, 1e-40, 1e-46, 1e-60, 1e19,
                            1e39, 1e150, 1e154, 1e300)}


def _near_tie_cache(gen, n, d, scale, offset, precision, side, triple):
    """An `EvalCache` whose entities crowd the target's score: copies of the
    target, copies 1 ulp off in one coordinate, and mirror images through
    the query point (equal distance in exact arithmetic, different rows).
    Every row is moved by `offset` times the scale, which the identity
    rotation (half the draws) turns into cancellation.  Rows of a single
    store are float32 values.  The rows are drawn and edited as (n, d)
    arrays and handed to the cache coordinate-major, as `build_cache` lays
    them out."""
    dtype = np.float32 if precision == "single" else np.float64
    re, im = ((gen.standard_normal((n, d)) + offset) * scale for _ in range(2))
    if precision == "single":
        with np.errstate(over="ignore"):
            re, im = (np.clip(a, -3e38, 3e38).astype(np.float32).astype(np.float64)
                      for a in (re, im))
    phases = gen.uniform(-np.pi, np.pi, (2, d)) * gen.integers(0, 2)
    target = triple[0] if side == "head" else triple[2]
    anchor = triple[2] if side == "head" else triple[0]
    others = [e for e in range(n) if e not in (target, anchor)]
    gen.shuffle(others)

    def cache():
        return adamf.evaluation.EvalCache(re=np.ascontiguousarray(re.T),
                                          im=np.ascontiguousarray(im.T),
                                          cos=np.cos(phases), sin=np.sin(phases),
                                          alpha=np.ones((n, 1)))

    x, y = adamf.evaluation._query(cache(), side, triple)
    for e in others:          # a quarter of the rows keep their random draw
        kind = int(gen.integers(0, 4))
        if kind == 0:           # a copy of the target
            re[e], im[e] = re[target], im[target]
        elif kind == 1:         # 1 ulp off the target in one coordinate
            re[e], im[e] = re[target], im[target]
            k, plane = int(gen.integers(0, d)), (re, im)[int(gen.integers(0, 2))]
            toward = np.inf if gen.integers(0, 2) else -np.inf
            plane[e, k] = np.nextafter(dtype(plane[e, k]), dtype(toward))
        elif kind == 2:         # the target mirrored through the query point
            with np.errstate(over="ignore", invalid="ignore"):
                mirror = (2 * x - re[target], 2 * y - im[target])
            if precision == "single":
                with np.errstate(over="ignore"):
                    mirror = tuple(m.astype(np.float32).astype(np.float64)
                                   for m in mirror)
            if np.isfinite(mirror).all():
                re[e], im[e] = mirror
    return cache()


@given(st.data())
@settings(max_examples=300, deadline=None)
def test_rank_query_equals_float64_ranks_on_near_ties(data):
    # rank_query decides most candidates from float32 scores; its ranks must
    # be those of the float64 scores of every entity, ties included.
    precision = data.draw(st.sampled_from(("single", "double")))
    scale = data.draw(st.sampled_from(SCREEN_SCALES[precision]))
    offset = data.draw(st.sampled_from((0.0, 1e3, 1e6)))
    n, d = data.draw(st.integers(3, 40)), data.draw(st.integers(1, 6))
    gen = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1)))
    h, t = (int(v) for v in gen.choice(n, 2, replace=False))
    triple = (h, int(gen.integers(0, 2)), t)
    known = [(int(e), triple[1], t) for e in gen.choice(n, 3)] + \
            [(h, triple[1], int(e)) for e in gen.choice(n, 3)]
    ds = make_dataset(n, {"train": known, "test": [triple]}, n_relations=2)
    for side in ("head", "tail"):
        cache = _near_tie_cache(gen, n, d, scale, offset, precision, side, triple)
        target = h if side == "head" else t
        excluded = (ds.filter_heads.get((triple[1], t), ()) if side == "head"
                    else ds.filter_tails.get((h, triple[1]), ()))
        with np.errstate(over="ignore", invalid="ignore"):
            scores = candidate_scores(cache, side, triple)
            for tie in ("optimistic", "pessimistic"):
                want = rank_from_scores(scores, target, excluded, tie)
                assert rank_query(cache, ds, side, triple, tie) == want, (side, tie)


def test_screen_decides_nothing_beyond_its_proven_width():
    # The float32 error bound is proven for d <= 2^17; wider, every entity
    # is re-scored in float64.
    gen = np.random.default_rng(5)
    n, d = 4, (1 << 17) + 1
    cache = adamf.evaluation.EvalCache(
        re=np.ascontiguousarray(gen.standard_normal((n, d)).T),
        im=np.ascontiguousarray(gen.standard_normal((n, d)).T),
        cos=np.ones((1, d)), sin=np.zeros((1, d)), alpha=np.ones((n, 1)))
    x, y = adamf.evaluation._query(cache, "tail", (0, 0, 1))
    scores = candidate_scores(cache, "tail", (0, 0, 1))
    _, decided = adamf.evaluation._screen(cache, x, y, scores[1])
    assert not decided.any()
    ds = make_dataset(n, {"test": [(0, 0, 1)]})
    assert rank_query(cache, ds, "tail", (0, 0, 1)) == rank_from_scores(scores, 1, ())


@given(st.data())
@settings(max_examples=200, deadline=None)
def test_screen_error_is_within_half_its_bound(data):
    # The inequality `_screen`'s proof ends on: |s32 - s64| <= B/2.06 for
    # every entity whose float32 score is finite, with d over at least three
    # slabs (the last one possibly partial) and float64 blocks that do not
    # divide N.
    precision = data.draw(st.sampled_from(("single", "double")))
    scale = data.draw(st.sampled_from(SCREEN_SCALES[precision]))
    offset = data.draw(st.sampled_from((0.0, 1e3, 1e6)))
    slab = data.draw(st.integers(1, 3))
    n, d = data.draw(st.integers(13, 60)), data.draw(st.integers(3 * slab, 4 * slab + 1))
    block_bytes = 4 * n * slab
    rows = block_bytes // (8 * d)
    assume(rows > 1 and n % rows)
    gen = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1)))
    h, t = (int(v) for v in gen.choice(n, 2, replace=False))
    triple = (h, int(gen.integers(0, 2)), t)
    side = data.draw(st.sampled_from(("head", "tail")))
    cache = _near_tie_cache(gen, n, d, scale, offset, precision, side, triple)
    x, y = adamf.evaluation._query(cache, side, triple)
    with mock.patch.object(adamf.tape, "BLOCK_BYTES", block_bytes), \
            np.errstate(over="ignore", invalid="ignore"):
        assert adamf.tape.block_rows(n, 4) == slab and adamf.tape.block_rows(d, 8) == rows
        s32 = adamf.evaluation._slab_distances(cache.re32, cache.im32,
                                               x.astype(np.float32), y.astype(np.float32))
        s64 = candidate_scores(cache, side, triple)
        s = s32.astype(np.float64)
        l1q = np.abs(x).sum() + np.abs(y).sum()
        bound = 2.0 ** -24 * (10 * (l1q + cache.l1) + 2.1 * d * s) + d * 2.0 ** -73
        finite = np.isfinite(s)
        assert (np.abs(s - s64)[finite] <= bound[finite] / 2.06).all()


# ----------------------------------------------------------- rank mechanics

@given(st.lists(st.integers(0, 30), min_size=2, max_size=12),
       st.data())
@settings(max_examples=150, deadline=None)
def test_rank_invariant_under_monotone_transforms(raw, data):
    scores = np.array(raw, dtype=np.float64)
    target = data.draw(st.integers(0, len(raw) - 1))
    excluded = set(data.draw(st.lists(st.integers(0, len(raw) - 1),
                                      max_size=len(raw) // 2)))
    for tie in ("optimistic", "pessimistic"):
        base = rank_from_scores(scores, target, excluded, tie)
        for transform in (lambda x: 2.0 * x + 1.0, np.exp, np.cbrt):
            mapped = rank_from_scores(transform(scores), target, excluded, tie)
            assert mapped == base


@given(st.lists(st.floats(-100, 100), min_size=2, max_size=20), st.data())
@settings(max_examples=150, deadline=None)
def test_filtering_never_worsens_rank(raw, data):
    scores = np.array(raw, dtype=np.float64)
    target = data.draw(st.integers(0, len(raw) - 1))
    excluded = set(data.draw(st.lists(st.integers(0, len(raw) - 1),
                                      max_size=len(raw))))
    filtered = rank_from_scores(scores, target, excluded)
    unfiltered = rank_from_scores(scores, target, set())
    assert 1 <= filtered <= unfiltered


def test_rank_tie_break_modes():
    scores = np.array([0.5, 0.5, 0.5, 2.0])
    assert rank_from_scores(scores, 1, set(), "optimistic") == 1
    assert rank_from_scores(scores, 1, set(), "pessimistic") == 3
    with pytest.raises(ContractError):
        rank_from_scores(scores, 1, set(), "median")


def test_rank_excluding_everything_else_gives_one():
    scores = np.array([0.0, 1.0, 2.0])
    assert rank_from_scores(scores, 2, {0, 1}) == 1


def test_candidate_scores_rejects_unknown_side():
    _, model = random_fixture(0)
    with pytest.raises(ContractError):
        candidate_scores(build_cache(model), "middle", (0, 0, 1))


def test_scores_repeat_and_relation_order_does_not_matter():
    n = 12
    model = small_model(n_entities=n, n_relations=2, seed=3)
    on_a = [(0, 0, 1), (2, 0, 5), (7, 0, 3)]
    on_b = [(1, 1, 4), (6, 1, 0), (9, 1, 11)]
    cache = build_cache(model)
    for side in ("head", "tail"):
        first = candidate_scores(cache, side, on_a[0]).tobytes()
        assert candidate_scores(cache, side, on_a[0]).tobytes() == first
        candidate_scores(cache, side, on_b[0])
        assert candidate_scores(cache, side, on_a[0]).tobytes() == first

    def ranks(test):
        ds = make_dataset(n, {"train": [(0, 0, 4), (6, 1, 2)], "test": test},
                          n_relations=2)
        report = evaluate(model, ds)
        return {tuple(q): (int(rh), int(rt)) for q, rh, rt in
                zip(report.triples.tolist(), report.head_ranks, report.tail_ranks)}

    assert ranks(on_a + on_b) == ranks(on_b + on_a)


def _rotate_every_entity_scores(model, side, triple):
    """|e o r - t| (head) or |h o r - e| (tail) with every entity rotated."""
    joint, _ = model.entity_representations()
    joint = np.asarray(joint, dtype=np.float64)
    z = joint[:, 0::2] + 1j * joint[:, 1::2]
    h, r, t = triple
    rotated = z * np.exp(1j * np.asarray(model.relation_phases()[r], dtype=np.float64))
    diff = rotated - z[t] if side == "head" else rotated[h] - z
    return np.abs(diff).sum(axis=1)


@given(st.integers(0, 2**31 - 1), st.data())
@settings(max_examples=60, deadline=None)
def test_candidate_scores_match_rotating_every_entity(seed, data):
    _, model = random_fixture(seed)
    n, n_rel = model.n_entities, model.n_relations
    triple = (data.draw(st.integers(0, n - 1)), data.draw(st.integers(0, n_rel - 1)),
              data.draw(st.integers(0, n - 1)))
    cache = build_cache(model)
    for side in ("head", "tail"):
        np.testing.assert_allclose(candidate_scores(cache, side, triple),
                                   _rotate_every_entity_scores(model, side, triple),
                                   rtol=1e-12, atol=0)


def test_candidate_scores_span_several_row_blocks():
    # 1300 entities at d = 128 score in 512 KiB blocks of 512, 512 and 276 rows.
    model = small_model(n_entities=1300, n_relations=1, d=128, seed=5)
    cache = build_cache(model)
    for side in ("head", "tail"):
        np.testing.assert_allclose(candidate_scores(cache, side, (7, 0, 1100)),
                                   _rotate_every_entity_scores(model, side, (7, 0, 1100)),
                                   rtol=1e-12, atol=0)


@given(st.integers(0, 2**31 - 1))
@settings(max_examples=40, deadline=None)
def test_training_distance_equals_eval_candidate_score(seed):
    # One formula: the training kernel's F(h, r, t) over a step's entity
    # table is eval's tail-candidate score of t, in float64.  A negative
    # that replaces the head is eval's head-candidate score of its
    # replacement against the positive, one that replaces the tail the tail
    # score.
    ds, model = random_fixture(seed)
    cache = build_cache(model)
    negatives = sample_negatives(ds.train, model.n_entities, 8,
                                 SeededRng(seed, stream="negatives"))
    tape = Tape(model.store, FROZEN)
    table = model.entity_table(tape, (ds.train, negatives))
    f = model.distances(tape, table, ds.train).value
    f_neg = model.distances(tape, table, ds.train, negatives).value
    assert f_neg.shape == negatives.shape[:2]
    for triple, value, corrupted, values in zip(ds.train, f, negatives, f_neg):
        expect = candidate_scores(cache, "tail", triple)[triple[2]]
        assert abs(value - expect) <= 1e-12
        for negative, neg_value in zip(corrupted, values):
            side, col = ("head", 0) if negative[0] != triple[0] else ("tail", 2)
            expect = candidate_scores(cache, side, triple)[negative[col]]
            assert abs(neg_value - expect) <= 1e-12


def test_eval_cache_memory_is_flat_in_relations_queried(monkeypatch):
    n, n_rel, d = 10, 5, 3
    ds = make_dataset(n, {"test": [(r, r, (r + 3) % n) for r in range(n_rel)]},
                      n_relations=n_rel)

    def nbytes(cache):      # an array the cache holds twice is counted once
        return sum(v.nbytes for v in {id(v): v for v in vars(cache).values()}.values())

    def spy(m):
        cache = build_cache(m)
        built.append((cache, nbytes(cache)))
        return cache

    monkeypatch.setattr(adamf.evaluation, "build_cache", spy)
    for precision, itemsize in (("single", 4), ("double", 8)):
        model = small_model(n_entities=n, n_relations=n_rel, d=d, seed=4,
                            precision=precision)
        built = []
        evaluate(model, ds)
        [(cache, before)] = built
        assert all(isinstance(v, np.ndarray) for v in vars(cache).values())
        # planar re/im in the store's dtype, float32 copies of them only in
        # a double store, float64 cos/sin, the per-entity L1 and the
        # float64 fusion weights of the M modalities
        m = len(model.cfg.modalities)
        planar = itemsize * 2 * d * n + (4 * 2 * d * n if itemsize == 8 else 0)
        assert before == planar + 8 * 2 * d * n_rel + 8 * n + 8 * n * m, precision
        assert nbytes(cache) == before


# --------------------------------------------------------------- hand cases

def test_metrics_exact_on_hand_positioned_entities():
    # Entities on a line at 0, 2, 3 with the identity relation.  Query
    # (e0, r0, e1) with (e0, r0, e2) known: the tail ranks 2 (entity 0
    # scores 0 < 2; entity 2 is filtered), the head ranks 3 (both others
    # sit closer to position 2).  MRR = (1/3 + 1/2) / 2 = 5/12.
    model = line_model([0.0, 2.0, 3.0])
    ds = make_dataset(3, {"train": [(0, 0, 2)], "test": [(0, 0, 1)]})
    report = evaluate(model, ds, ks=(1, 3))
    assert report.head_ranks.tolist() == [3]
    assert report.tail_ranks.tolist() == [2]
    assert abs(report.mrr - 5.0 / 12.0) < 1e-12
    assert report.hits == {1: 0.0, 3: 1.0}


def test_metrics_ranks_one_and_two_give_three_quarters():
    # Positions (0, 2, 1), query (e0, r0, e1).  Tail scores from e0 are
    # (0, 2, 1); with (e0, r0, e2) known, only e0 outranks the target ->
    # rank 2.  Head scores toward e1 are (2, 0, 1); (e1, r0, e1) and
    # (e2, r0, e1) are known, so no candidate remains -> rank 1.
    # MRR = (1/1 + 1/2) / 2 = 3/4 and Hit@1 = 1/2, both exact.
    model = line_model([0.0, 2.0, 1.0])
    ds = make_dataset(3, {"train": [(0, 0, 2), (1, 0, 1), (2, 0, 1)],
                          "test": [(0, 0, 1)]})
    report = evaluate(model, ds, ks=(1, 3))
    assert report.head_ranks.tolist() == [1]
    assert report.tail_ranks.tolist() == [2]
    assert abs(report.mrr - 0.75) < 1e-12
    assert report.hits == {1: 0.5, 3: 1.0}


def test_optimistic_vs_pessimistic_on_coincident_entities():
    model = line_model([0.0, 0.0, 5.0])
    ds = make_dataset(3, {"test": [(0, 0, 1)]})
    opt = evaluate(model, ds, ks=(1,), tie_break="optimistic")
    pes = evaluate(model, ds, ks=(1,), tie_break="pessimistic")
    assert opt.mrr == 1.0
    assert pes.mrr == 0.5


def test_evaluate_rejects_nonfinite_model():
    # NaN never compares below the target, so an unchecked NaN model would
    # rank every target first and report MRR 1.0.
    ds = make_dataset(3, {"train": [(0, 0, 2)], "test": [(0, 0, 1)]})
    model = line_model([0.0, 2.0, 3.0])
    model.store.set("entity.structural",
                    np.full_like(model.store["entity.structural"], np.nan))
    with pytest.raises(NumericError, match="entity embeddings"):
        evaluate(model, ds)
    model = line_model([0.0, 2.0, 3.0], n_relations=2)
    model.store.set("relation.phase", np.array([[0.0], [np.nan]]))
    with pytest.raises(NumericError, match="relation phases"):
        evaluate(model, ds)


# ------------------------------------------------------- parallel ranking

def _tied_block_fixture(n_model=1300, test=None):
    """Structural-only model (1300 entities by default) at d = 128, so the
    entities span three float64 `_distances` blocks of 512 rows and the
    float32 screen's 128 coordinates two slabs of 100 (109 at 1200
    entities), with entities 40-59 copies of entities 0-19 so that
    candidates tie with targets; the vocabulary has 1300 entities either
    way."""
    assert adamf.tape.block_rows(128, 8) == 512 < n_model
    assert adamf.tape.block_rows(n_model, 4) < 128
    model = small_model(n_entities=n_model, n_relations=2, d=128, seed=8,
                        modalities=("s",))
    table = model.store["entity.structural"].copy()
    table[40:60] = table[0:20]
    model.store.set("entity.structural", table)
    if test is None:
        test = [(i, i % 2, (7 * i + 3) % 20) for i in range(11)]
    train = [(0, 0, 5), (3, 1, 44), (45, 1, 6), (9, 0, 1)]
    return model, make_dataset(1300, {"train": train, "test": test}, n_relations=2)


def _serial_ranks(model, ds, tie_break):
    cache = build_cache(model)
    return ([rank_query(cache, ds, "head", q, tie_break) for q in ds.test],
            [rank_query(cache, ds, "tail", q, tie_break) for q in ds.test])


def _pool_sizes(monkeypatch):
    """The thread count of every ranking pool `evaluate` opens from here on."""
    sizes = []

    class Recording(ThreadPoolExecutor):
        def __init__(self, max_workers, *args, **kwargs):
            sizes.append(max_workers)
            super().__init__(max_workers, *args, **kwargs)

    monkeypatch.setattr(adamf.evaluation, "ThreadPoolExecutor", Recording)
    return sizes


def _affinity(monkeypatch, cpus):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)),
                        raising=False)


@pytest.mark.parametrize("cpus", [1, 3])
def test_parallel_evaluate_equals_serial_rank_query_loop(monkeypatch, cpus):
    model, ds = _tied_block_fixture()
    want = {tie: _serial_ranks(model, ds, tie) for tie in ("optimistic", "pessimistic")}
    assert want["optimistic"] != want["pessimistic"]     # the fixture has ties
    _affinity(monkeypatch, cpus)
    sizes = _pool_sizes(monkeypatch)
    for tie, (head, tail) in want.items():
        report = evaluate(model, ds, tie_break=tie)
        assert report.head_ranks.tolist() == head, tie
        assert report.tail_ranks.tolist() == tail, tie
    assert sizes == [cpus, cpus]


def test_ranking_pool_size(monkeypatch):
    # One thread when every entity fits in one block; never more threads
    # than queries.
    _affinity(monkeypatch, 4)
    sizes = _pool_sizes(monkeypatch)
    model = small_model(n_entities=30, n_relations=2, d=4, seed=2)
    evaluate(model, make_dataset(30, {"test": [(i, i % 2, 29 - i) for i in range(8)]},
                                 n_relations=2))
    model, ds = _tied_block_fixture(test=[(0, 0, 1), (2, 1, 3)])
    evaluate(model, ds)
    assert sizes == [1, 2]


def test_parallel_evaluate_raises_first_serial_error(monkeypatch):
    # Entities 1250 and 1299 are in the vocabulary but not in the model.
    # They head queries 4 and 9 of 11, which three threads rank in
    # different slices; the serial loop would stop at query 4.  No other
    # query's filter names them.
    test = [(i, 0, i + 1) for i in range(11)]
    test[4], test[9] = (1250, 0, 15), (1299, 1, 16)
    model, ds = _tied_block_fixture(n_model=1200, test=test)
    _affinity(monkeypatch, 3)
    with pytest.raises(ContractError, match="target entity 1250 outside vocabulary"):
        evaluate(model, ds)


def test_query_entity_outside_the_model_is_refused():
    # A query's other entity is checked as its target is: past the model's
    # last entity it would raise a bare IndexError, and a negative index
    # would wrap round to the last entity and be ranked against silently.
    model = small_model(n_entities=6)
    ds = make_dataset(8, {"train": [(0, 0, 1)], "test": [(0, 0, 7)]})
    with pytest.raises(ContractError, match="query entity 7 outside vocabulary"):
        evaluate(model, ds)
    cache = build_cache(model)
    with pytest.raises(ContractError, match="query entity -1 outside vocabulary"):
        rank_query(cache, ds, "head", (0, 0, -1))
    with pytest.raises(ContractError, match="query entity -1 outside vocabulary"):
        candidate_scores(cache, "tail", (-1, 0, 0))
    with pytest.raises(ContractError, match="target entity -1 outside vocabulary"):
        rank_query(cache, ds, "tail", (0, 0, -1))


def test_query_relation_outside_the_model_is_refused():
    # Relation 2 of a 2-relation model would raise a bare IndexError, and
    # relation -1 would wrap round to the last relation and be ranked
    # against silently.
    model = small_model(n_relations=2)
    ds = make_dataset(6, {"train": [(0, 0, 1)], "test": [(0, 2, 1)]}, n_relations=3)
    with pytest.raises(ContractError, match="relation 2 outside vocabulary"):
        evaluate(model, ds)
    cache = build_cache(model)
    with pytest.raises(ContractError, match="relation -1 outside vocabulary"):
        rank_query(cache, ds, "head", (0, -1, 1))
    with pytest.raises(ContractError, match="relation 2 outside vocabulary"):
        candidate_scores(cache, "tail", (0, 2, 1))


def test_evaluate_ranks_through_the_module_global_rank_query(monkeypatch):
    # Benchmarks and tracers time queries by rebinding
    # `adamf.evaluation.rank_query`: `evaluate` must look it up there, once
    # per direction of every query, from every ranking thread.
    model, ds = _tied_block_fixture()
    _affinity(monkeypatch, 3)
    real, sides = adamf.evaluation.rank_query, []

    def counted(cache, dataset, side, triple, tie_break="optimistic"):
        sides.append(side)
        return real(cache, dataset, side, triple, tie_break)

    monkeypatch.setattr(adamf.evaluation, "rank_query", counted)
    evaluate(model, ds)
    assert sorted(sides) == ["head"] * len(ds.test) + ["tail"] * len(ds.test)


def _fresh_distances(re, im, x, y):
    """`_distances` with two new arrays per block of float64's size in
    either dtype, as it was written before the block buffers were reused and
    the blocks sized to the dtype."""
    n, d = re.shape
    out = np.empty(n, dtype=re.dtype)
    step = max(1, (1 << 19) // (8 * d))
    for lo in range(0, n, step):
        a, b = x - re[lo:lo + step], y - im[lo:lo + step]
        a *= a
        a += np.square(b, out=b)
        out[lo:lo + step] = np.sqrt(a, out=a).sum(axis=1)
    return out


def test_distances_with_reused_blocks_equal_fresh_arrays():
    # In either dtype.  Each row's sum is its own, so scoring a subset of
    # rows (as the float64 re-score does) gives every row its full-pass bytes.
    gen = np.random.default_rng(11)
    for (n, d), dtype in itertools.product(
            ((1300, 128), (2000, 200), (40, 3), (70000, 1)), (np.float64, np.float32)):
        re, im = (gen.standard_normal((n, d)).astype(dtype) for _ in range(2))
        for _ in range(3):      # several queries against the same rows
            x, y = (gen.standard_normal(d).astype(dtype) for _ in range(2))
            got = adamf.evaluation._distances(re, im, x, y)
            assert got.dtype == dtype
            assert got.tobytes() == _fresh_distances(re, im, x, y).tobytes(), (n, d)
            rows = np.sort(gen.choice(n, size=min(n, 7), replace=False))
            subset = adamf.evaluation._distances(re[rows], im[rows], x, y)
            assert subset.tobytes() == got[rows].tobytes(), (n, d)


def test_evaluate_ranks_are_those_of_one_row_blocks(monkeypatch):
    # Each row's score is its own, and the screen decides only what its
    # proof covers in any summation order, so blocks of any size, here one
    # entity row in the float64 pass and one coordinate row per screen slab,
    # give every rank and tie its bytes.
    model, ds = _tied_block_fixture()
    want = {tie: evaluate(model, ds, tie_break=tie) for tie in ("optimistic", "pessimistic")}
    monkeypatch.setattr(adamf.tape, "BLOCK_BYTES", 1)
    assert adamf.tape.block_rows(128, 4) == adamf.tape.block_rows(128, 8) == 1
    for tie, report in want.items():
        got = evaluate(model, ds, tie_break=tie)
        assert got.head_ranks.tolist() == report.head_ranks.tolist(), tie
        assert got.tail_ranks.tolist() == report.tail_ranks.tolist(), tie


def _old_cache_arrays(model):
    """re, im, re32, im32 and l1 as `build_cache` made them through an
    (N, 2d) float64 copy of the joint rows."""
    joint = np.asarray(model.entity_representations()[0], dtype=np.float64)
    re, im = np.ascontiguousarray(joint[:, 0::2]), np.ascontiguousarray(joint[:, 1::2])
    with np.errstate(over="ignore"):
        re32, im32 = re.astype(np.float32), im.astype(np.float32)
    return re, im, re32, im32, np.abs(re).sum(axis=1) + np.abs(im).sum(axis=1)


@pytest.mark.parametrize("precision", ["single", "double"])
def test_cache_cast_from_the_joint_rows_keeps_the_old_bytes(precision):
    # In the store's dtype: a single-precision cache keeps the float32
    # columns, which widen exactly to the old float64 ones, and screens them
    # as they are; float64 rows round (or overflow, beyond float32) to the
    # same float32.  The planes are coordinate-major, so their transposes
    # hold the old (N, d) columns.
    model = small_model(n_entities=40, d=5, seed=3, absent_v=(2, 9), precision=precision)
    if precision == "double":
        table = model.store["entity.structural"].copy()
        table[4] = 1e39     # finite in float64, inf in the float32 copies
        model.store.set("entity.structural", table)
    cache = build_cache(model)
    old = _old_cache_arrays(model)
    for name, want in zip(("re", "im", "re32", "im32", "l1"), old):
        got = getattr(cache, name)
        assert got.flags.c_contiguous, name
        if precision == "single" and name in ("re", "im"):
            assert got.dtype == np.float32 and getattr(cache, name + "32") is got, name
            got = got.astype(np.float64)
        if name != "l1":
            assert got.shape == want.T.shape, name
            got = got.T
        assert got.dtype == want.dtype, name
        assert got.tobytes() == want.tobytes(), name
    assert np.isinf(cache.re32).any() == (precision == "double")


@pytest.mark.parametrize("precision", ["single", "double"])
@pytest.mark.parametrize("block_rows", [None, 3, 1])
def test_build_cache_fills_the_planes_with_the_joint_columns(monkeypatch, precision,
                                                             block_rows):
    # Filled a block of joint rows at a time (every row at once, three rows,
    # one row; 40 entities are 13 blocks of three and one of one), the
    # planes hold exactly the transposed re and im columns of the joint rows.
    model = small_model(n_entities=40, d=5, seed=3, absent_v=(2, 9), precision=precision)
    joint = model.entity_representations()[0]
    if block_rows is not None:
        monkeypatch.setattr(adamf.tape, "BLOCK_BYTES", block_rows * joint[0].nbytes)
        assert adamf.tape.block_rows(joint.shape[1], joint.itemsize) == block_rows
    cache = build_cache(model)
    for got, want in ((cache.re, joint[:, 0::2].T), (cache.im, joint[:, 1::2].T)):
        assert got.dtype == want.dtype and got.shape == want.shape == (5, 40)
        assert got.tobytes() == want.tobytes()


def test_single_precision_cache_holds_each_planar_array_once():
    model = small_model(n_entities=40, d=5, seed=3, precision="single")
    cache = build_cache(model)
    assert cache.re32 is cache.re and cache.im32 is cache.im
    distinct = {id(v): v for v in vars(cache).values()}
    assert len(distinct) == len(vars(cache)) - 2
    for a, b in itertools.combinations(distinct.values(), 2):
        assert not np.shares_memory(a, b)


def test_distances_of_float32_rows_from_a_float64_point_are_those_of_the_widened_rows():
    # The exact re-score reads the float32 columns: numpy widens them inside
    # the subtract, so each score has the bytes of the float64 rows' score.
    gen = np.random.default_rng(12)
    for n, d in ((1300, 128), (40, 3), (70000, 1)):
        re, im = (gen.standard_normal((n, d)).astype(np.float32) for _ in range(2))
        x, y = gen.standard_normal((2, d))
        got = adamf.evaluation._distances(re, im, x, y)
        assert got.dtype == np.float64
        want = adamf.evaluation._distances(re.astype(np.float64), im.astype(np.float64), x, y)
        assert got.tobytes() == want.tobytes(), (n, d)


def test_evaluate_rejects_empty_split():
    model = line_model([0.0, 1.0])
    ds = make_dataset(2, {"train": [(0, 0, 1)], "test": [(0, 0, 1)]})
    with pytest.raises(ContractError, match="valid"):
        evaluate(model, ds, split="valid")


def test_mrr_bounds_and_hit_monotonicity():
    for seed in (5, 17, 31):
        ds, model = random_fixture(seed)
        report = evaluate(model, ds, ks=(1, 3, 10))
        assert 0.0 < report.mrr <= 1.0
        assert 0.0 <= report.hits[1] <= report.hits[3] <= report.hits[10] <= 1.0
        assert report.mrr >= report.hits[1]


def test_random_models_hit_rate_near_chance():
    # Hit@5 for arbitrarily initialized scorers should hover around the
    # uniform-guess expectation sum_q (5 / n_candidates_q); demand the
    # 20-seed mean stays within a factor of three either way.
    n = 50
    triples = [(i, 0, (i + 7) % n) for i in range(0, n, 5)]
    ds = make_dataset(n, {"train": triples[:6], "test": triples[6:]})
    expected = []
    for h, r, t in ds.test:
        head_cands = n - 1 - len(ds.filter_heads[(r, t)] - {h})
        tail_cands = n - 1 - len(ds.filter_tails[(h, r)] - {t})
        expected += [min(1.0, 5.0 / head_cands), min(1.0, 5.0 / tail_cands)]
    chance = float(np.mean(expected))
    observed = []
    for seed in range(20):
        model = small_model(n_entities=n, n_relations=1, seed=100 + seed)
        observed.append(evaluate(model, ds, ks=(5,)).hits[5])
    mean = float(np.mean(observed))
    assert chance / 3.0 <= mean <= chance * 3.0, (mean, chance)


# ------------------------------------------------------------ weight report

def test_weight_report_rows_on_simplex():
    ds, model = random_fixture(8)
    rows = evaluate(model, ds, split="train").per_relation
    assert rows
    for row in rows:
        total = row["alpha_s"] + row["alpha_v"] + row["alpha_t"]
        assert abs(total - 1.0) < 1e-9


def test_weight_report_uniform_when_signals_identical():
    model = small_model(n_entities=4, n_relations=1)
    for name in ("entity.structural", "proj.v.weight", "proj.v.bias",
                 "proj.t.weight", "proj.t.bias", "fallback.v", "fallback.t"):
        model.store.set(name, np.zeros_like(model.store[name]))
    ds = make_dataset(4, {"test": [(0, 0, 1), (2, 0, 3)]})
    rows = evaluate(model, ds).per_relation
    assert len(rows) == 1
    for m in ("s", "v", "t"):
        assert abs(rows[0][f"alpha_{m}"] - 1.0 / 3.0) < 1e-12


def test_weight_report_single_triple_averages_its_endpoints():
    ds, model = random_fixture(12)
    ds = make_dataset(model.n_entities, {"test": [(0, 0, 1)]},
                      n_relations=model.n_relations)
    _, alpha = model.entity_representations()
    rows = evaluate(model, ds).per_relation
    want = (np.asarray(alpha[0]) + np.asarray(alpha[1])) / 2.0
    got = [rows[0][f"alpha_{m}"] for m in model.cfg.modalities]
    assert np.allclose(got, want, atol=1e-12)


def test_weight_report_sorted_by_count():
    ds, model = random_fixture(4)
    triples = [(0, 1, 1), (0, 0, 1), (1, 0, 2), (2, 0, 0)]
    ds = make_dataset(model.n_entities, {"test": triples},
                      n_relations=model.n_relations)
    rows = evaluate(model, ds).per_relation
    assert rows[0]["relation"] == "r0" and rows[0]["count"] == 3
    assert rows[1]["relation"] == "r1" and rows[1]["count"] == 1


def test_weight_report_under_mean_fusion_gives_the_weights_it_mixes_with():
    for modalities in (("s", "v", "t"), ("s", "t")):
        model = small_model(fusion_mode="mean", modalities=modalities)
        ds = make_dataset(model.n_entities, {"test": [(0, 0, 1), (2, 1, 3)]},
                          n_relations=model.n_relations)
        for row in evaluate(model, ds).per_relation:
            for m in ("s", "v", "t"):
                want = 1.0 / len(modalities) if m in modalities else 0.0
                assert row[f"alpha_{m}"] == pytest.approx(want, abs=1e-15), (modalities, m)


def test_weight_report_absent_modality_reports_zero():
    model = small_model(modalities=("s", "v"))
    ds = make_dataset(model.n_entities, {"test": [(0, 0, 1)]},
                      n_relations=model.n_relations)
    rows = evaluate(model, ds).per_relation
    assert rows[0]["alpha_t"] == 0.0
    assert abs(rows[0]["alpha_s"] + rows[0]["alpha_v"] - 1.0) < 1e-9


# ----------------------------------------------------------------- writers

def test_rank_report_json_round_trip(tmp_path):
    ds, model = random_fixture(21)
    report = evaluate(model, ds, ks=(1, 3, 10))
    write_rank_report(report, ds, tmp_path)
    loaded = json.loads((tmp_path / "rank_report.json").read_text())
    assert loaded["mrr"] == report.mrr
    assert loaded["n_test"] == report.n_test
    assert set(loaded["hits"]) == {"1", "3", "10"}
    assert loaded["per_relation"] == report.per_relation


def test_per_query_tsv_names_and_ranks(tmp_path):
    model = line_model([0.0, 2.0, 3.0])
    ds = make_dataset(3, {"train": [(0, 0, 2)], "test": [(0, 0, 1)]})
    report = evaluate(model, ds)
    write_rank_report(report, ds, tmp_path)
    lines = (tmp_path / "ranks.tsv").read_text().splitlines()
    assert lines == ["e0\tr0\te1\t3\t2"]
