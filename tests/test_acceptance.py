"""Release gate: one test per headline guarantee, at its stated tolerance.

Each test prints a single PASS line with the measured quantity, so a -v run
reads as a checklist.  Thresholds here are contractual; loosening one is a
release decision, not a test fix.
"""

import json
import time
from pathlib import Path

import numpy as np

from adamf.cli import GRADCHECK_TOLERANCE, run_gradcheck
from adamf.model import ALL_PATTERNS, GEN
from adamf.rng import SeededRng
from adamf.tape import Tape
from adamf.toykg import ABLATION_ROWS, run_toy_grid
from adamf.training import (TrainConfig, sample_negatives,
                            train_step_discriminator, train_step_generator)

from conftest import line_model, make_dataset, small_model, synthetic_scores
from test_evaluation import oracle_rank, random_fixture

from adamf.evaluation import build_cache, evaluate, rank_query

ROWS = dict(ABLATION_ROWS)


def _ok(label, detail):
    print(f"PASS {label}: {detail}")


def _log_losses(out):
    entries = [json.loads(line)
               for line in Path(out, "train_log.jsonl").read_text().splitlines()]
    return [(e["loss_kgc"], e["loss_adv"]) for e in entries]


def test_gradient_exactness():
    start = time.monotonic()
    results = run_gradcheck()
    elapsed = time.monotonic() - start
    worsts = {}
    for label, check in results:
        assert check is not None, label
        assert check.worst < GRADCHECK_TOLERANCE, (label, check.worst,
                                                   check.worst_param)
        worsts[label] = check.worst
    assert elapsed < 60.0, elapsed
    summary = ", ".join(f"{label} {worst:.2e}" for label, worst in worsts.items())
    _ok("gradient exactness", f"{summary} (< 1e-5) in {elapsed:.1f}s")


def test_fusion_invariants():
    checked = 0
    for seed in range(25):
        model = small_model(n_entities=40, n_relations=2, d=2 + seed % 4,
                            seed=seed, absent_v=(seed % 40,))
        _, alpha = model.entity_representations()
        alpha = np.asarray(alpha, dtype=np.float64)
        assert np.all(alpha > 0.0)
        assert np.all(np.abs(alpha.sum(axis=1) - 1.0) <= 1e-12)
        checked += alpha.shape[0]
    assert checked >= 1000
    # all-equal modality signals must give exactly uniform weights
    flat = small_model(n_entities=4, n_relations=1)
    for name in ("entity.structural", "proj.v.weight", "proj.v.bias",
                 "proj.t.weight", "proj.t.bias", "fallback.v", "fallback.t"):
        flat.store.set(name, np.zeros_like(flat.store[name]))
    _, alpha = flat.entity_representations()
    assert np.all(alpha == alpha[0, 0])
    _ok("fusion invariants", f"{checked} weight vectors on the simplex "
        "within 1e-12; symmetry case exactly uniform")


def test_ranking_oracle_equivalence():
    start = time.monotonic()
    queries = 0
    for seed in range(200):
        ds, model = random_fixture(seed)
        cache = build_cache(model)
        for triple in (ds.test[0], ds.valid[0]):
            for side in ("head", "tail"):
                got = rank_query(cache, ds, side, triple)
                want = oracle_rank(model, ds, side, triple)
                assert got == want, (seed, side, got, want)
                queries += 1
    elapsed = time.monotonic() - start
    assert elapsed < 30.0, elapsed
    _ok("ranking oracle equivalence",
        f"{queries} filtered ranks across 200 fixtures match enumeration "
        f"exactly in {elapsed:.1f}s")


def test_metric_formulas():
    # forced ranks (1, 2): MRR = (1/1 + 1/2) / 2 = 0.75 under the half
    # normalization over head and tail queries
    model = line_model([0.0, 2.0, 1.0])
    ds = make_dataset(3, {"train": [(0, 0, 2), (1, 0, 1), (2, 0, 1)],
                          "test": [(0, 0, 1)]})
    report = evaluate(model, ds, ks=(1, 3))
    assert (report.head_ranks.tolist(), report.tail_ranks.tolist()) == ([1], [2])
    assert abs(report.mrr - 0.75) < 1e-12
    assert abs(report.hits[1] - 0.5) < 1e-12
    assert abs(report.hits[3] - 1.0) < 1e-12
    # arbitrary fixture: aggregate fields must equal direct recomputation
    ds, model = random_fixture(77)
    report = evaluate(model, ds, ks=(1, 3, 10))
    hr, tr = report.head_ranks.astype(float), report.tail_ranks.astype(float)
    direct_mrr = (1.0 / hr + 1.0 / tr).sum() / (2 * len(hr))
    assert abs(report.mrr - direct_mrr) < 1e-12
    for k in (1, 3, 10):
        direct = ((hr <= k).sum() + (tr <= k).sum()) / (2 * len(hr))
        assert abs(report.hits[k] - direct) < 1e-12
    _ok("metric formulas", "hand-built ranks (1,2) give MRR 0.75 and random "
        "fixtures match direct recomputation within 1e-12")


def test_toy_kg_learning(tmp_path):
    start = time.monotonic()
    [run] = run_toy_grid(str(tmp_path), [("no_mat", ROWS["no_mat"])])
    elapsed = time.monotonic() - start
    mrr = run.report["mrr"]
    # Random guessing on this graph scores around 0.09; the contract floor
    # is 5x that (0.45).  Observed headroom across five seeds was >= 0.88,
    # so the gate holds a tightened 0.60.
    assert mrr >= 0.60, mrr
    assert elapsed < 300.0, elapsed
    _ok("toy-KG learning", f"test MRR {mrr:.4f} >= 0.60 "
        f"(floor 0.45) in {elapsed:.0f}s")


def test_mat_benefit_under_missing_modalities(tmp_path):
    mrr = {"full": [], "no_mat": []}
    for run in run_toy_grid(str(tmp_path), [(name, ROWS[name]) for name in mrr],
                            range(5), modality_missing_ratio=0.8):
        mrr[run.row].append(run.report["mrr"])
        losses = np.array(_log_losses(run.out))
        assert np.all(np.isfinite(losses)), (run.row, run.seed)
    mean_on, mean_off = float(np.mean(mrr["full"])), float(np.mean(mrr["no_mat"]))
    assert mean_on >= mean_off - 0.02, (mean_on, mean_off)
    _ok("adversarial-generation benefit",
        f"80% features hidden, 5 seeds: mean MRR {mean_on:.4f} with the "
        f"generator vs {mean_off:.4f} without (tolerance 0.02); "
        "all losses finite")


def test_ablation_rows_run_from_config_alone(tmp_path):
    runs = run_toy_grid(str(tmp_path), ABLATION_ROWS, epochs=10, validate_every=0)
    assert [run.row for run in runs] == [name for name, _ in ABLATION_ROWS]
    for run in runs:
        report = run.report
        assert set(report) == {"mrr", "hits", "n_test", "per_relation"}, run.row
        assert set(report["hits"]) == {"1", "3", "10"}, run.row
        assert report["n_test"] > 0 and report["per_relation"], run.row
    _ok("ablation machinery", f"{len(ABLATION_ROWS)} configuration rows "
        "ran to completion with full rank reports, no code changes")


def test_determinism(tmp_path):
    blobs = []
    for run in run_toy_grid(str(tmp_path), [("first", {}), ("second", {})], epochs=30):
        blobs.append({name: Path(run.out, name).read_bytes()
                      for name in ("checkpoint.bin", "best.bin",
                                   "rank_report.json", "ranks.tsv",
                                   "train_log.jsonl")})
    assert blobs[0] == blobs[1]
    _ok("determinism", "repeated runs agree byte for byte on checkpoints, "
        "logs, and reports")


def test_group_isolation():
    model = small_model(seed=4)
    cfg = TrainConfig(k_negatives=4, batch_size=4, seed=0)
    batch = np.array([[0, 0, 1], [2, 1, 3], [4, 0, 5]])
    neg_rng = SeededRng(0, stream="negatives")
    noise_rng = SeededRng(0, stream="noise")
    for step in range(100):
        negs = sample_negatives(batch, model.n_entities, 4, neg_rng)
        before_gen = model.store.values["generator"].copy()
        train_step_discriminator(model, batch, negs, cfg, noise_rng=noise_rng)
        assert model.store.values["generator"].tobytes() == before_gen.tobytes(), step
        before_disc = model.store.values["discriminator"].copy()
        train_step_generator(model, batch, cfg, noise_rng=noise_rng)
        assert model.store.values["discriminator"].tobytes() == before_disc.tobytes(), step
    _ok("group isolation", "100 alternating update steps left the opposite "
        "parameter group bitwise untouched")


def test_generator_pressure():
    model = small_model(seed=1)
    batch = np.array([[0, 0, 1], [2, 1, 3], [4, 0, 5]])
    cfg = TrainConfig(k_negatives=4, batch_size=4, lr_g=1e-2, seed=0)
    probe = model.draw_noise(batch, 1, ALL_PATTERNS,
                             SeededRng(123, stream="probe"))

    def mean_distance():
        tape = Tape(model.store, GEN)
        scores, _ = synthetic_scores(model, tape, batch, 1, ALL_PATTERNS, probe)
        return float(scores.value.mean())

    start = mean_distance()
    rng = SeededRng(7, stream="noise")
    for _ in range(50):
        train_step_generator(model, batch, cfg, noise_rng=rng)
    end = mean_distance()
    assert end < start, (start, end)
    _ok("generator pressure", f"mean synthetic distance fell {start:.4f} -> "
        f"{end:.4f} over 50 generator steps against a frozen scorer")
