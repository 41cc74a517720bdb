"""End-to-end command-line behaviour: artifacts, exit codes, determinism."""

import json
import os
import re
import runpy
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import adamf.evaluation
from adamf import cli
from adamf.cli import main
from adamf.checkpoint import save_checkpoint
from adamf.config import parse_config
from adamf.data import feature_dir_paths, load_triples
from adamf.errors import AdamfError, NumericError
from adamf.model import Model
from adamf.tape import Tape
from adamf.toykg import run_toy_grid, write_toy_config, write_toy_kg

N_ENTITIES = 8


def write_corpus(root):
    """Tiny two-relation ring dataset with full feature coverage."""
    root.mkdir(parents=True, exist_ok=True)
    names = [f"n{i}" for i in range(N_ENTITIES)]
    succ = [(names[i], "succ", names[(i + 1) % N_ENTITIES])
            for i in range(N_ENTITIES)]
    pair = [(names[i], "pair", names[(i + 2) % N_ENTITIES])
            for i in range(N_ENTITIES)]
    splits = {"train.tsv": succ[:6] + pair[:6],
              "valid.tsv": [succ[6], pair[6]],
              "test.tsv": [succ[7], pair[7]]}
    for fname, rows in splits.items():
        text = "".join(f"{h}\t{r}\t{t}\n" for h, r, t in rows)
        (root / fname).write_text(text)
    gen = np.random.default_rng(42)
    for fname, dim in (("visual.tsv", 3), ("textual.tsv", 2)):
        lines = []
        for name in names:
            vec = gen.normal(size=dim)
            lines.append(name + "\t" + ",".join(f"{x:.6f}" for x in vec))
        (root / fname).write_text("\n".join(lines) + "\n")


def write_config(root, out, name="run.cfg", **overrides):
    values = {
        "train": "train.tsv", "valid": "valid.tsv", "test": "test.tsv",
        "visual_features": "visual.tsv", "textual_features": "textual.tsv",
        "visual_dim": 3, "textual_dim": 2,
        "dim": 4, "noise_dim": 3, "gamma": 2.0,
        "k_negatives": 4, "batch_size": 8, "epochs": 6,
        "validate_every": 3, "lr_d": 1e-3, "lr_g": 1e-3,
        "eval_ks": "1,3", "seed": 0, "out": str(out) if out else None,
    }
    values.update(overrides)
    lines = [f"{k} = {v}" for k, v in values.items() if v is not None]
    path = root / name
    path.write_text("\n".join(lines) + "\n")
    return str(path)


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    root = tmp_path_factory.mktemp("corpus")
    write_corpus(root)
    return root


@pytest.fixture(scope="module")
def trained(corpus, tmp_path_factory):
    out = tmp_path_factory.mktemp("trained")
    cfg = write_config(corpus, out)
    assert main(["train", cfg]) == 0
    return out, cfg


# ------------------------------------------------------------------- train

def test_train_writes_all_artifacts(trained):
    out, _ = trained
    for name in ("config.resolved.cfg", "train_log.jsonl", "checkpoint.bin",
                 "best.bin", "rank_report.json", "ranks.tsv"):
        assert (out / name).exists(), name


def test_train_log_structure(trained):
    out, _ = trained
    lines = [json.loads(l) for l in (out / "train_log.jsonl").read_text().splitlines()]
    assert [l["epoch"] for l in lines] == [1, 2, 3, 4, 5, 6]
    assert all("loss_kgc" in l and "loss_adv" in l for l in lines)
    assert "val_mrr" in lines[2] and "val_mrr" in lines[5]
    assert "val_mrr" not in lines[0]


def test_resolved_config_is_reloadable(trained, corpus):
    out, _ = trained
    resolved = out / "config.resolved.cfg"
    text = resolved.read_text()
    assert "dim = 4" in text
    assert f"train = {corpus / 'train.tsv'}" in text
    rc = main(["eval", str(resolved), str(out / "checkpoint.bin"),
               "--out", str(out / "re-eval")])
    assert rc == 0


def test_rank_report_contents(trained):
    out, _ = trained
    report = json.loads((out / "rank_report.json").read_text())
    assert report["n_test"] == 2
    assert set(report["hits"]) == {"1", "3"}
    assert 0.0 < report["mrr"] <= 1.0
    assert len((out / "ranks.tsv").read_text().splitlines()) == 2
    assert len(report["per_relation"]) == 2
    for row in report["per_relation"]:
        assert abs(row["alpha_s"] + row["alpha_v"] + row["alpha_t"] - 1.0) < 1e-6


def test_train_deterministic_byte_identical(corpus, tmp_path):
    outs = []
    for sub in ("a", "b"):
        out = tmp_path / sub
        cfg = write_config(corpus, out, name=f"det-{sub}.cfg")
        assert main(["train", cfg]) == 0
        outs.append(out)
    a, b = outs
    assert (a / "checkpoint.bin").read_bytes() == (b / "checkpoint.bin").read_bytes()
    assert (a / "rank_report.json").read_text() == (b / "rank_report.json").read_text()
    assert (a / "train_log.jsonl").read_text() == (b / "train_log.jsonl").read_text()


def test_amf_seed_in_environment_is_not_read(corpus, tmp_path, monkeypatch):
    # The seed comes from the config's `seed` key alone: an exported AMF_SEED
    # changes neither the echo nor the trained parameters.
    outs = []
    for sub, env in (("plain", None), ("env", "7")):
        if env is not None:
            monkeypatch.setenv("AMF_SEED", env)
        out = tmp_path / sub
        assert main(["train", write_config(corpus, out, name=f"{sub}.cfg", epochs=1)]) == 0
        assert "seed = 0\n" in (out / "config.resolved.cfg").read_text()
        outs.append((out / "checkpoint.bin").read_bytes())
    assert outs[0] == outs[1]


def test_rerun_deletes_the_previous_runs_results(corpus, tmp_path):
    # A rerun into the same directory that fails, or that has no test split
    # to rank, must not leave the first run's checkpoints and report beside
    # its own config echo.
    results = ("checkpoint.bin", "best.bin", "rank_report.json", "ranks.tsv")
    for name, overrides, code in (("blowup", {"lr_d": 1e38}, 3),
                                  ("notest", {"test": None}, 0)):
        out = tmp_path / name
        assert main(["train", write_config(corpus, out, name=f"{name}-1.cfg")]) == 0
        assert all((out / f).exists() for f in results)
        cfg = write_config(corpus, out, name=f"{name}-2.cfg", **overrides)
        with np.errstate(all="ignore"):
            assert main(["train", cfg]) == code
        assert parse_config(out / "config.resolved.cfg") == parse_config(cfg)
        left = [f for f in results if (out / f).exists()]
        assert left == ([] if code else ["checkpoint.bin", "best.bin"])


def test_train_missing_out(corpus, capsys):
    cfg = write_config(corpus, None, name="noout.cfg")
    assert main(["train", cfg]) == 2
    assert "output directory" in capsys.readouterr().err


def test_train_missing_data_file(corpus, tmp_path):
    cfg = write_config(corpus, tmp_path / "x", name="nodata.cfg",
                       train="absent.tsv")
    assert main(["train", cfg]) == 4


def test_train_second_feature_row_for_an_entity_exits_4(corpus, tmp_path, capsys):
    rows = (corpus / "visual.tsv").read_text()
    (corpus / "visual_twice.tsv").write_text(rows + "n0\t9,9,9\n")
    cfg = write_config(corpus, tmp_path / "x", name="twice.cfg",
                       visual_features="visual_twice.tsv")
    assert main(["train", cfg]) == 4
    assert f"visual_twice.tsv:{N_ENTITIES + 1}: second row for entity 'n0'" in \
        capsys.readouterr().err


def test_train_bad_tie_break_fails_before_output(corpus, tmp_path, capsys):
    cfg = write_config(corpus, tmp_path / "x", name="tie.cfg",
                       tie_break="pesimistic")
    assert main(["train", cfg]) == 2
    assert "tie_break" in capsys.readouterr().err
    assert not (tmp_path / "x").exists()


@pytest.mark.parametrize("key, value, message", [
    ("textual_dim", -3, "textual_dim must be >= 1"),
    ("gamma", "nan", "gamma: expected a finite number, got 'nan'"),
])
def test_train_rejected_value_exits_2_before_output(corpus, tmp_path, capsys,
                                                     key, value, message):
    cfg = write_config(corpus, tmp_path / "x", name="rejected.cfg",
                       textual_features=None, **{key: value})
    assert main(["train", cfg]) == 2
    assert re.search(rf"rejected\.cfg:\d+: {message}", capsys.readouterr().err)
    assert not (tmp_path / "x").exists()


def test_train_ranks_validation_and_test_with_the_configured_tie_break(
        corpus, tmp_path, monkeypatch):
    real_evaluate = adamf.evaluation.evaluate
    seen = []

    def recording_evaluate(model, dataset, split="test", ks=(1, 3, 10),
                           tie_break="optimistic"):
        seen.append((split, tie_break))
        return real_evaluate(model, dataset, split, ks, tie_break)

    monkeypatch.setattr(adamf.evaluation, "evaluate", recording_evaluate)
    monkeypatch.setattr(cli, "evaluate", recording_evaluate)
    cfg = write_config(corpus, tmp_path / "x", name="pessimistic.cfg",
                       tie_break="pessimistic")
    assert main(["train", cfg]) == 0
    assert seen == [("valid", "pessimistic")] * 2 + [("test", "pessimistic")]


def test_unknown_config_key(corpus, tmp_path):
    path = corpus / "broken.cfg"
    path.write_text("momentum = 0.9\n")
    assert main(["train", str(path)]) == 2


def test_numeric_failure_exit_code(corpus, tmp_path, monkeypatch):
    def explode(*args, **kwargs):
        raise NumericError("synthetic blow-up")
    monkeypatch.setattr("adamf.cli.train", explode)
    cfg = write_config(corpus, tmp_path / "x", name="boom.cfg")
    assert main(["train", cfg]) == 3


@pytest.mark.parametrize("lr_d, op", [(1e30, "query_distance"), (1e38, "matvec")])
def test_numeric_failure_prints_only_its_own_line(tmp_path, capsys, lr_d, op):
    # The quick-start toy at this scorer rate overflows float32 in epoch 1,
    # batch 0.  The finite checks refuse and name the op; numpy's overflow
    # warnings, which would name a numpy call's line instead, are not shown.
    write_toy_kg(str(tmp_path / "data"))
    cfg = write_toy_config(str(tmp_path), "overflow", "out", lr_d=lr_d)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(["train", cfg]) == 3
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
    assert capsys.readouterr().err.splitlines() == [
        f"numeric error: epoch 1 batch 0: non-finite value from op {op!r}"]


# -------------------------------------------------------------------- eval

def test_eval_reproduces_final_validation_mrr(trained, tmp_path):
    out, cfg = trained
    lines = [json.loads(l) for l in (out / "train_log.jsonl").read_text().splitlines()]
    logged = lines[-1]["val_mrr"]
    eval_out = tmp_path / "eval"
    rc = main(["eval", cfg, str(out / "checkpoint.bin"),
               "--split", "valid", "--out", str(eval_out)])
    assert rc == 0
    report = json.loads((eval_out / "rank_report.json").read_text())
    assert report["mrr"] == pytest.approx(logged, abs=1e-12)


def test_eval_custom_ks(trained, corpus, tmp_path):
    out, _ = trained
    cfg = write_config(corpus, None, name="ks25.cfg", eval_ks="2,5")
    eval_out = tmp_path / "eval"
    rc = main(["eval", cfg, str(out / "checkpoint.bin"), "--out", str(eval_out)])
    assert rc == 0
    report = json.loads((eval_out / "rank_report.json").read_text())
    assert set(report["hits"]) == {"2", "5"}


def test_eval_bad_ks(trained, corpus, tmp_path):
    # eval takes its cutoffs from the config's eval_ks: non-integers and
    # cutoffs below 1 are both rejected before anything is written.
    out, _ = trained
    for ks in ("one", "0,-3"):
        cfg = write_config(corpus, None, name="badks.cfg", eval_ks=ks)
        assert main(["eval", cfg, str(out / "checkpoint.bin"),
                     "--out", str(tmp_path / "x")]) == 2
        assert not (tmp_path / "x").exists()


def test_eval_rebuilds_the_training_masks(corpus, tmp_path):
    # Half the feature rows are hidden by the run seed, so eval ranks like
    # the training run only if it masks the same rows from the same config.
    cfg = write_config(corpus, tmp_path / "train", name="masked.cfg",
                       modality_missing_ratio=0.5, seed=7)
    assert main(["train", cfg]) == 0
    assert main(["eval", cfg, str(tmp_path / "train" / "checkpoint.bin"),
                 "--out", str(tmp_path / "eval")]) == 0
    for name in ("rank_report.json", "ranks.tsv"):
        assert (tmp_path / "eval" / name).read_bytes() == \
            (tmp_path / "train" / name).read_bytes()


def test_eval_missing_out_exits_2_before_ranking(trained, corpus, tmp_path, monkeypatch,
                                                 capsys):
    # Ranking a DB15K-sized split takes minutes: a config with no output
    # directory must be refused before it, not after.
    out, _ = trained
    cfg = write_config(corpus, None, name="noout-eval.cfg")
    ranked = []
    monkeypatch.setattr(cli, "evaluate", lambda *args: ranked.append(args))
    monkeypatch.chdir(tmp_path)
    assert main(["eval", cfg, str(out / "checkpoint.bin")]) == 2
    assert "output directory" in capsys.readouterr().err
    assert ranked == []
    assert os.listdir(tmp_path) == []


def test_eval_missing_checkpoint(trained, tmp_path):
    _, cfg = trained
    assert main(["eval", cfg, str(tmp_path / "nope.bin"),
                 "--out", str(tmp_path / "x")]) == 4


def test_eval_mismatched_model_leaves_no_outputs(trained, corpus, tmp_path):
    out, _ = trained
    big = write_config(corpus, tmp_path / "big-out", name="big.cfg", dim=5)
    rc = main(["eval", big, str(out / "checkpoint.bin"),
               "--out", str(tmp_path / "big-out")])
    assert rc == 2
    assert not (tmp_path / "big-out").exists()


def test_eval_under_the_other_fusion_mode_exits_2(trained, corpus, tmp_path, capsys):
    # A checkpoint loads only under the fusion mode that wrote it: adaptive
    # fusion of two or more modalities holds fusion weights, mean fusion none.
    out, cfg = trained
    mean = write_config(corpus, tmp_path / "mean", name="mean.cfg", fusion_mode="mean")
    assert main(["train", mean]) == 0
    for config, checkpoint, error in ((mean, out, "not in model"),
                                      (cfg, tmp_path / "mean", "checkpoint missing tensors")):
        eval_out = tmp_path / "eval"
        assert main(["eval", config, str(checkpoint / "checkpoint.bin"),
                     "--out", str(eval_out)]) == 2
        assert error in capsys.readouterr().err
        assert not eval_out.exists()


def test_eval_nonfinite_checkpoint_exits_3_without_outputs(trained, tmp_path, capsys):
    _, cfg = trained
    run = parse_config(cfg)
    store = cli._build_model(run, cli._load_dataset(run)).store
    store.set("entity.structural", np.full_like(store["entity.structural"], np.nan))
    save_checkpoint(store, str(tmp_path / "nan.bin"))
    eval_out = tmp_path / "eval"
    with np.errstate(invalid="ignore"):
        rc = main(["eval", cfg, str(tmp_path / "nan.bin"), "--out", str(eval_out)])
    assert rc == 3
    assert "entity embeddings" in capsys.readouterr().err
    assert not eval_out.exists()  # no rank_report.json, not even the directory


def test_deterministic_flag_is_rejected(trained, tmp_path, capsys):
    # The flag was a no-op (runs are always deterministic) and is gone:
    # argparse refuses it with exit status 2 before any output exists.
    out, cfg = trained
    with pytest.raises(SystemExit) as exc:
        main(["eval", cfg, str(out / "checkpoint.bin"), "--out", str(tmp_path / "flag"),
              "--deterministic"])
    assert exc.value.code == 2
    assert "--deterministic" in capsys.readouterr().err
    assert not (tmp_path / "flag").exists()


def test_deterministic_config_key_is_rejected(trained, tmp_path, capsys):
    # The key was a no-op too; it is now an unknown key like any other.
    out, _ = trained
    resolved = (out / "config.resolved.cfg").read_text()
    assert "deterministic" not in resolved
    old = tmp_path / "old.cfg"
    old.write_text(resolved + "deterministic = true\n")
    ckpt = str(out / "checkpoint.bin")
    assert main(["eval", str(old), ckpt, "--out", str(tmp_path / "old")]) == 2
    assert "unknown key 'deterministic'" in capsys.readouterr().err
    assert not (tmp_path / "old").exists()


@pytest.mark.parametrize("key, value", [("keep_best", "false"), ("hidden_dim", "8"),
                                        ("leaky_slope", "0.2"),
                                        ("selfadv_sign", "literal"),
                                        ("negative_filtering", "true"),
                                        ("adv_groups", "1")])
def test_fixed_behaviours_are_unknown_keys(corpus, tmp_path, capsys, key, value):
    # best.bin is always written, the generator's hidden width is 2d, its
    # LeakyReLU slope 0.01, the negatives' weights softmax(-beta * F), a
    # negative redrawn only when it rebuilds its positive and one synthetic
    # head and tail built per positive: none of them is a setting.
    out = tmp_path / key
    cfg = write_config(corpus, out, name=f"{key}.cfg", **{key: value})
    assert main(["train", cfg]) == 2
    assert f"unknown key {key!r}" in capsys.readouterr().err
    assert not out.exists()


# ---------------------------------------------------------------- gradcheck

def test_gradcheck_passes_with_defaults(capsys):
    assert main(["gradcheck"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 3
    assert all("ok" in line for line in lines)
    assert any("margin loss" in line for line in lines)
    assert any("generator" in line for line in lines)


def test_gradcheck_skips_both_adversarial_audits_at_zero_coefficient(corpus, capsys):
    # At adv_lambda = 0 both views of the adversarial objective are
    # identically zero, so neither is audited; the margin loss still is.
    path = corpus / "lam0.cfg"
    path.write_text("adv_lambda = 0.0\n")
    assert main(["gradcheck", str(path)]) == 0
    margin, *adversarial = capsys.readouterr().out.strip().splitlines()
    assert margin.startswith("margin loss (discriminator): worst rel err ")
    assert margin.endswith(" ok")
    assert adversarial == [f"{label}: skipped (adversarial coefficient is 0)" for label in
                           ("adversarial loss (discriminator)",
                            "adversarial objective (generator)")]
    assert not any("worst" in line for line in adversarial)


def test_gradcheck_flags_corrupted_kernel(monkeypatch, capsys):
    true_kernel = Tape.fuse

    def crooked(self, parts, weights=None):
        node, alpha = true_kernel(self, parts, weights)
        inner = node.backward_fn
        if inner is None or weights is None:
            return node, alpha

        def corrupted(grad):
            inner(grad)
            first = weights[0]
            if first.live:
                first.add_grad(0.001 * grad.sum() * np.tanh(first.value))

        node.backward_fn = corrupted
        return node, alpha

    monkeypatch.setattr(Tape, "fuse", crooked)
    assert main(["gradcheck"]) == 5
    captured = capsys.readouterr()
    assert "FAIL" in captured.out
    # the error names the first failing audit
    assert "failed: margin loss (discriminator): " in captured.err
    assert "exceeds" in captured.err


def test_gradcheck_fixture_repeats_entities(monkeypatch):
    # The audit must cover the scatter-add backward of query_distance: in
    # every audited loss, each query_distance call repeats some row of one
    # of its index arrays, and some call repeats a candidate row of the
    # entity table.  The margin loss's union table must be built from inputs
    # with repeats, and its negatives must score head and tail queries.  Both
    # adversarial audits must cover take's scatter backward too: their
    # synthetic join holds some entity-table row twice.
    audited = []
    build = {"tables": [], "scores": [], "takes": []}  # the self-adversarial weight probe
    original_qd, original_table, original_take = (Tape.query_distance, Model.entity_table,
                                                  Tape.take)

    def recording_qd(self, e, q_idx, phase, r_idx, c_idx, head=None):
        build["scores"].append((e, np.asarray(q_idx), np.asarray(r_idx), np.asarray(c_idx),
                                head))
        return original_qd(self, e, q_idx, phase, r_idx, c_idx, head)

    def recording_take(self, parts, index, mask=None):
        build["takes"].append((parts, np.asarray(index), mask))
        return original_take(self, parts, index, mask)

    def recording_table(self, tape, triples):
        table = original_table(self, tape, triples)
        inputs = np.concatenate([np.asarray(x)[..., 0::2].ravel() for x in triples])
        build["tables"].append((inputs, table.joint))
        return table

    def one_build(builder, store, epsilons, names):
        nonlocal build
        build = {"tables": [], "scores": [], "takes": []}
        builder(store)
        audited.append(build)

    monkeypatch.setattr(Tape, "query_distance", recording_qd)
    monkeypatch.setattr(Model, "entity_table", recording_table)
    monkeypatch.setattr(Tape, "take", recording_take)
    # build each audited loss once instead of running the finite differences
    monkeypatch.setattr(cli, "finite_diff_check", one_build)
    cli.run_gradcheck()
    assert len(audited) == 3  # margin, adversarial (discriminator), generator

    def repeats(idx):
        return np.unique(idx).size < idx.size

    for loss in audited:
        [(inputs, joint)] = loss["tables"]  # one union table per loss
        assert loss["scores"]
        candidate_repeats = False
        for e, q_idx, r_idx, c_idx, _ in loss["scores"]:
            assert repeats(q_idx) or repeats(r_idx) or repeats(c_idx)
            candidate_repeats |= e is joint and repeats(c_idx)
        assert candidate_repeats
    margin_inputs, _ = audited[0]["tables"][0]
    assert repeats(margin_inputs)
    [head] = [head for *_, head in audited[0]["scores"] if head is not None]
    assert head.any() and not head.all()
    for loss in audited[1:]:
        [(_, joint)] = loss["tables"]
        [(index, mask)] = [(index, mask) for parts, index, mask in loss["takes"]
                           if parts[0] is joint]    # the synthetic join
        assert repeats(index[~mask])


# ------------------------------------------------ inputs refused before output

def test_bad_missing_ratio_fails_before_any_output(corpus, tmp_path, capsys):
    bad = write_config(corpus, tmp_path / "x", name="ratio.cfg",
                       modality_missing_ratio=1.5)
    assert main(["train", bad]) == 2
    assert "modality_missing_ratio" in capsys.readouterr().err
    assert not (tmp_path / "x").exists()


def test_train_bad_second_feature_table_writes_nothing(corpus, tmp_path, capsys):
    # The visual table loads; the textual one has a bad row.  The run stops
    # before the output directory is made.
    rows = (corpus / "textual.tsv").read_text()
    (corpus / "textual_bad.tsv").write_text(rows + "n0\t1,2\n")
    out = tmp_path / "bad"
    cfg = write_config(corpus, out, name="featbad.cfg",
                       textual_features="textual_bad.tsv")
    assert main(["train", cfg]) == 4
    assert f"textual_bad.tsv:{N_ENTITIES + 1}: " in capsys.readouterr().err
    assert not out.exists()


def test_train_refuses_a_path_its_echo_cannot_hold(corpus, tmp_path, capsys):
    # A config file reads `#` as the start of a comment, ends a value at a
    # line break and strips its ends, so an echo holding `out = .../h#1`
    # would re-run into `.../h`, and one holding `.../h\n1` would not parse.
    cfg = write_config(corpus, None, name="hash.cfg")
    for name in ("h#1", "h ", "h\n1", "h\r1"):
        out = tmp_path / name
        assert main(["train", cfg, "--out", str(out)]) == 2, repr(name)
        assert "out: " in capsys.readouterr().err
        assert not out.exists()


# ---------------------------------------------------- toy-graph runner and script

def _affinity(monkeypatch, cpus):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)),
                        raising=False)


def test_toy_grid_stops_at_the_first_failed_run(tmp_path, monkeypatch):
    # On one CPU the pool has one worker, so a run starts only after the one
    # before it has passed.
    _affinity(monkeypatch, 1)
    rows = [("ok", {}), ("bad", {"dim": 0}), ("after", {})]
    with pytest.raises(AdamfError, match="'bad' seed 3 exited 2"):
        run_toy_grid(str(tmp_path), rows, seeds=(3,), epochs=1)
    assert (tmp_path / "ok-s3" / "rank_report.json").exists()
    assert not (tmp_path / "after-s3.cfg").exists()


def test_toy_grid_on_a_pool_keeps_grid_order(tmp_path, monkeypatch, capsys):
    # Three workers run the first three runs at once.  The failure named is
    # the first in grid order, and the run two workers behind it never starts.
    _affinity(monkeypatch, 3)
    rows = [("ok", {}), ("bad", {"dim": 0}), ("worse", {"k_negatives": 0}),
            ("after", {}), ("last", {})]
    with pytest.raises(AdamfError, match="'bad' seed 3 exited 2"):
        run_toy_grid(str(tmp_path), rows, seeds=(3,), epochs=1)
    assert capsys.readouterr().out.startswith("--- ok-s3\n")
    assert (tmp_path / "ok-s3" / "rank_report.json").exists()
    assert not (tmp_path / "last-s3.cfg").exists()
    # A grid that passes returns its runs in (row, seed) order.
    runs = run_toy_grid(str(tmp_path), [("a", {}), ("b", {})], seeds=(1, 0), epochs=1)
    assert [(r.row, r.seed) for r in runs] == [("a", 1), ("a", 0), ("b", 1), ("b", 0)]
    out = capsys.readouterr().out
    assert [line for line in out.splitlines() if line.startswith("---")] == [
        "--- a-s1", "--- a-s0", "--- b-s1", "--- b-s0"]


def test_write_toy_kg_returns_the_dataset_it_wrote(tmp_path):
    # Reading the files back renumbers entities in order of appearance, so
    # the splits are compared by name.
    written = write_toy_kg(str(tmp_path), n_entities=20)
    paths = feature_dir_paths(str(tmp_path))
    read = load_triples(paths["train"], paths["valid"], paths["test"])

    def named(dataset, split):
        v = dataset.vocab
        return [(v.entity_names[h], v.relation_names[r], v.entity_names[t])
                for h, r, t in dataset.split(split)]

    for split in ("train", "valid", "test"):
        assert named(written, split) == named(read, split)
    assert (len(written.train), len(written.valid), len(written.test)) == (32, 4, 4)


def test_make_toy_kg_config_resolves_against_its_directory(tmp_path, monkeypatch):
    # The README quick start passes a relative --dir; every path in the
    # written config must resolve to the files the script wrote.
    script = Path(__file__).resolve().parents[1] / "scripts" / "make_toy_kg.py"
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(sys, "argv", [str(script), "--dir", "runs/toy"])
    runpy.run_path(str(script), run_name="__main__")
    cfg = parse_config("runs/toy/toy.cfg")
    toy = tmp_path / "runs" / "toy"
    for path in (cfg.train, cfg.valid, cfg.test, cfg.visual_features,
                 cfg.textual_features):
        assert Path(path).is_file() and Path(path).parent == toy / "data"
    assert Path(cfg.out) == toy / "out"
