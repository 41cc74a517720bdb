"""End-to-end command-line behaviour: artifacts, exit codes, determinism."""

import json

import numpy as np
import pytest

from adamf import cli
from adamf.cli import main
from adamf.errors import NumericError
from adamf.model import Model
from adamf.tape import Tape

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


def test_seed_env_override(corpus, tmp_path, monkeypatch):
    out = tmp_path / "seeded"
    cfg = write_config(corpus, out, name="seeded.cfg", epochs=1)
    monkeypatch.setenv("AMF_SEED", "7")
    assert main(["train", cfg]) == 0
    assert "seed = 7" in (out / "config.resolved.cfg").read_text()


def test_seed_env_invalid(corpus, tmp_path, monkeypatch):
    cfg = write_config(corpus, tmp_path / "x", name="badseed.cfg", epochs=1)
    monkeypatch.setenv("AMF_SEED", "lucky")
    assert main(["train", cfg]) == 2


def test_grid_warning_emitted(corpus, tmp_path, capsys):
    cfg = write_config(corpus, tmp_path / "k100", name="k100.cfg",
                       epochs=1, k_negatives=100)
    assert main(["train", cfg]) == 0
    err = capsys.readouterr().err
    assert "k_negatives = 100" in err
    assert "outside the reference grid" in err


def test_train_missing_out(corpus, capsys):
    cfg = write_config(corpus, None, name="noout.cfg")
    assert main(["train", cfg]) == 2
    assert "output directory" in capsys.readouterr().err


def test_train_missing_data_file(corpus, tmp_path):
    cfg = write_config(corpus, tmp_path / "x", name="nodata.cfg",
                       train="absent.tsv")
    assert main(["train", cfg]) == 4


def test_train_bad_tie_break_fails_before_output(corpus, tmp_path, capsys):
    cfg = write_config(corpus, tmp_path / "x", name="tie.cfg",
                       tie_break="pesimistic")
    assert main(["train", cfg]) == 2
    assert "tie_break" in capsys.readouterr().err
    assert not (tmp_path / "x").exists()


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


def test_eval_custom_ks(trained, tmp_path):
    out, cfg = trained
    eval_out = tmp_path / "eval"
    rc = main(["eval", cfg, str(out / "checkpoint.bin"),
               "--ks", "2,5", "--out", str(eval_out)])
    assert rc == 0
    report = json.loads((eval_out / "rank_report.json").read_text())
    assert set(report["hits"]) == {"2", "5"}


def test_eval_bad_ks(trained, tmp_path):
    # --ks goes through the eval_ks parser: non-integers and cutoffs below 1
    # are both rejected before anything is written.
    out, cfg = trained
    for ks in ("one", "0,-3"):
        assert main(["eval", cfg, str(out / "checkpoint.bin"),
                     "--ks", ks, "--out", str(tmp_path / "x")]) == 2
        assert not (tmp_path / "x").exists()


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


def test_deterministic_flag_is_a_deprecated_no_op(trained, tmp_path):
    out, cfg = trained
    args = ["eval", cfg, str(out / "checkpoint.bin"), "--out"]
    assert main(args + [str(tmp_path / "plain")]) == 0
    with pytest.warns(DeprecationWarning, match="--deterministic"):
        assert main(args + [str(tmp_path / "flag"), "--deterministic"]) == 0
    for name in ("rank_report.json", "ranks.tsv"):
        assert ((tmp_path / "flag" / name).read_bytes()
                == (tmp_path / "plain" / name).read_bytes())


def test_old_resolved_config_with_deterministic_key_loads(trained, tmp_path):
    out, _ = trained
    resolved = (out / "config.resolved.cfg").read_text()
    assert "deterministic" not in resolved
    old = tmp_path / "old.cfg"
    old.write_text(resolved + "deterministic = true\n")
    ckpt = str(out / "checkpoint.bin")
    assert main(["eval", str(out / "config.resolved.cfg"), ckpt,
                 "--out", str(tmp_path / "new")]) == 0
    with pytest.warns(DeprecationWarning, match="'deterministic'"):
        assert main(["eval", str(old), ckpt, "--out", str(tmp_path / "old")]) == 0
    for name in ("rank_report.json", "ranks.tsv"):
        assert ((tmp_path / "old" / name).read_bytes()
                == (tmp_path / "new" / name).read_bytes())


# ---------------------------------------------------------------- gradcheck

def test_gradcheck_passes_with_defaults(capsys):
    assert main(["gradcheck"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 3
    assert all("ok" in line for line in lines)
    assert any("margin loss" in line for line in lines)
    assert any("generator" in line for line in lines)


def test_gradcheck_skips_generator_at_zero_coefficient(corpus, tmp_path, capsys):
    path = corpus / "lam0.cfg"
    path.write_text("adv_lambda = 0.0\n")
    assert main(["gradcheck", str(path)]) == 0
    out = capsys.readouterr().out
    assert "skipped" in out


def test_gradcheck_flags_corrupted_kernel(monkeypatch, capsys):
    true_kernel = Tape.fusion_weights

    def crooked(self, parts, weights):
        node = true_kernel(self, parts, weights)
        inner = node.backward_fn
        if inner is None:
            return node

        def corrupted(grad):
            inner(grad)
            first = weights[0]
            if first.live:
                first.add_grad(0.001 * grad.sum() * np.tanh(first.value))

        node.backward_fn = corrupted
        return node

    monkeypatch.setattr(Tape, "fusion_weights", crooked)
    assert main(["gradcheck"]) == 5
    assert "exceeds" in capsys.readouterr().err


def test_gradcheck_fixture_repeats_entities(monkeypatch):
    # The audit must cover the unique-entity build of joint_and_alpha: every
    # entity batch its losses embed names some entity more than once.
    seen = []
    original = Model.joint_and_alpha

    def recording(self, tape, idx, live):
        seen.append(np.asarray(idx).copy())
        return original(self, tape, idx, live)

    monkeypatch.setattr(Model, "joint_and_alpha", recording)
    # build each audited loss once instead of running the finite differences
    monkeypatch.setattr(cli, "_checked_at_both_scales",
                        lambda builder, store, names: builder(store))
    cli.run_gradcheck()
    assert len(seen) == 10  # probe 2, margin 4, adversarial 2 + 2
    for idx in seen:
        assert np.unique(idx).size < idx.size, idx


# ------------------------------------------------- dump-weights and masking

def test_dump_weights_csv(trained, tmp_path):
    out, cfg = trained
    dump_out = tmp_path / "dump"
    rc = main(["dump-weights", cfg, str(out / "checkpoint.bin"),
               "--out", str(dump_out)])
    assert rc == 0
    lines = (dump_out / "weights.csv").read_text().splitlines()
    assert lines[0] == "relation,count,alpha_s,alpha_v,alpha_t"
    assert len(lines) == 3  # one row per relation in the test split
    for line in lines[1:]:
        cells = line.split(",")
        total = sum(float(c) for c in cells[2:])
        assert abs(total - 1.0) < 1e-6


def test_mask_modality_writes_reduced_tables(trained, corpus, tmp_path):
    _, cfg = trained
    mask_out = tmp_path / "masked"
    rc = main(["mask-modality", cfg, "--ratio", "0.5", "--out", str(mask_out)])
    assert rc == 0
    visual = (mask_out / "visual_masked.tsv").read_text().splitlines()
    textual = (mask_out / "textual_masked.tsv").read_text().splitlines()
    assert len(visual) == N_ENTITIES // 2
    assert len(textual) == N_ENTITIES // 2
    # masking depends only on the seed, so both modalities drop the same rows
    assert [l.split("\t")[0] for l in visual] == \
        [l.split("\t")[0] for l in textual]


def test_mask_modality_ratio_zero_keeps_everything(trained, tmp_path):
    _, cfg = trained
    mask_out = tmp_path / "masked0"
    assert main(["mask-modality", cfg, "--ratio", "0.0",
                 "--out", str(mask_out)]) == 0
    assert len((mask_out / "visual_masked.tsv").read_text().splitlines()) \
        == N_ENTITIES


def test_mask_modality_requires_feature_paths(corpus, tmp_path):
    path = corpus / "nofeat.cfg"
    path.write_text("train = train.tsv\n")
    assert main(["mask-modality", str(path),
                 "--out", str(tmp_path / "x")]) == 2
