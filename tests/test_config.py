"""Run-configuration parsing and echoing."""

import dataclasses
import os

import pytest

from adamf import config as config_module
from adamf.config import KEYS, RunConfig, echo_config, parse_config
from adamf.errors import ConfigError, ContractError
from adamf.training import TrainConfig


def write_cfg(tmp_path, text, name="run.cfg"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


def test_defaults_without_any_keys(tmp_path):
    cfg = parse_config(write_cfg(tmp_path, "# nothing but a comment\n"))
    assert cfg.model.d == 200
    assert cfg.model.gamma == 12.0
    assert cfg.model.modalities == ("s", "v", "t")
    assert cfg.training.mat_enabled is True
    assert cfg.eval_ks == (1, 3, 10)
    assert cfg.train is None


def test_basic_values_and_comments(tmp_path):
    cfg = parse_config(write_cfg(tmp_path, """
# experiment settings
dim = 16          # small embedding
gamma = 4.0
mat_enabled = false
epochs = 7
"""))
    assert cfg.model.d == 16
    assert cfg.model.gamma == 4.0
    assert cfg.training.mat_enabled is False
    assert cfg.training.epochs == 7


def test_byte_order_mark_is_not_part_of_the_first_key(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_bytes(b"\xef\xbb\xbfdim = 16\nepochs = 7\n")
    cfg = parse_config(str(path))
    assert (cfg.model.d, cfg.training.epochs) == (16, 7)


def test_unknown_key_reports_path_and_line(tmp_path):
    path = write_cfg(tmp_path, "dim = 16\nlearningrate = 3\n")
    with pytest.raises(ConfigError, match=r"run\.cfg:2.*learningrate"):
        parse_config(path)


def test_duplicate_key_reports_line(tmp_path):
    path = write_cfg(tmp_path, "dim = 16\n\ndim = 32\n")
    with pytest.raises(ConfigError, match=r":3.*duplicate.*dim"):
        parse_config(path)


def test_missing_equals_sign(tmp_path):
    path = write_cfg(tmp_path, "dim 16\n")
    with pytest.raises(ConfigError, match=":1"):
        parse_config(path)


def test_bad_int_and_float_and_bool(tmp_path):
    with pytest.raises(ConfigError, match="dim"):
        parse_config(write_cfg(tmp_path, "dim = twelve\n"))
    with pytest.raises(ConfigError, match="gamma"):
        parse_config(write_cfg(tmp_path, "gamma = big\n"))
    # a boolean is written `true` or `false` and read in no other spelling
    for text in ("maybe", "yes", "1", "True"):
        with pytest.raises(ConfigError, match=rf":1: mat_enabled: expected bool, got '{text}'"):
            parse_config(write_cfg(tmp_path, f"mat_enabled = {text}\n"))


def test_modalities_comma_and_compact_forms(tmp_path):
    assert parse_config(write_cfg(tmp_path, "modalities = s,v\n")).model.modalities \
        == ("s", "v")
    # the list is comma-separated; a run of letters is one unknown entry
    with pytest.raises(ConfigError, match=r"run\.cfg:1: modalities: unknown entries \['vs'\]"):
        parse_config(write_cfg(tmp_path, "modalities = vs\n"))
    assert parse_config(write_cfg(tmp_path, "modalities = t, s, v\n")).model.modalities \
        == ("s", "v", "t")


def test_modalities_unknown_letter(tmp_path):
    with pytest.raises(ConfigError, match="modalities"):
        parse_config(write_cfg(tmp_path, "modalities = s,x\n"))


def test_adversarial_patterns_parsing(tmp_path):
    cfg = parse_config(write_cfg(
        tmp_path, "adversarial_patterns = syn_both, syn_tail\n"))
    assert cfg.training.adversarial_patterns == ("syn_tail", "syn_both")
    with pytest.raises(ConfigError, match="adversarial_patterns"):
        parse_config(write_cfg(tmp_path, "adversarial_patterns = syn_all\n"))


def test_eval_ks_parsing(tmp_path):
    assert parse_config(write_cfg(tmp_path, "eval_ks = 1, 5\n")).eval_ks == (1, 5)
    with pytest.raises(ConfigError, match="eval_ks"):
        parse_config(write_cfg(tmp_path, "eval_ks = 1, zero\n"))
    with pytest.raises(ConfigError, match="eval_ks"):
        parse_config(write_cfg(tmp_path, "eval_ks = 0\n"))


def test_tie_break_parsing(tmp_path):
    cfg = parse_config(write_cfg(tmp_path, "tie_break = pessimistic\n"))
    assert cfg.tie_break == "pessimistic"
    with pytest.raises(ConfigError, match="tie_break"):
        parse_config(write_cfg(tmp_path, "tie_break = pesimistic\n"))


def test_relative_paths_resolve_against_config_dir(tmp_path):
    sub = tmp_path / "exp" / "a"
    sub.mkdir(parents=True)
    cfg = parse_config(write_cfg(
        sub, "train = ../data/train.tsv\nout = runs/x\n"))
    assert cfg.train == str(tmp_path / "exp" / "data" / "train.tsv")
    assert cfg.out == str(sub / "runs" / "x")


def test_absolute_paths_kept(tmp_path):
    cfg = parse_config(write_cfg(tmp_path, "train = /data/train.tsv\n"))
    assert cfg.train == "/data/train.tsv"


def test_echo_round_trip(tmp_path):
    original = parse_config(write_cfg(tmp_path, """
dim = 24
gamma = 2.5
modalities = s,t
adversarial_patterns = syn_head
eval_ks = 1,3
mat_enabled = false
train = data/train.tsv
"""))
    echoed = write_cfg(tmp_path, echo_config(original), name="echo.cfg")
    reparsed = parse_config(echoed)
    assert reparsed == original


# Every accepted key: its text in a config file, the field it sets and the
# value it must reach there, none of them the default.
ROUND_TRIP = [
    ("train", "tr.tsv", "train", "tr.tsv"),
    ("valid", "va.tsv", "valid", "va.tsv"),
    ("test", "te.tsv", "test", "te.tsv"),
    ("visual_features", "v.tsv", "visual_features", "v.tsv"),
    ("textual_features", "t.tsv", "textual_features", "t.tsv"),
    ("modality_missing_ratio", "0.25", "modality_missing_ratio", 0.25),
    ("dim", "24", "model.d", 24),
    ("visual_dim", "7", "model.visual_dim", 7),
    ("textual_dim", "5", "model.textual_dim", 5),
    ("noise_dim", "6", "model.noise_dim", 6),
    ("fusion_mode", "mean", "model.fusion_mode", "mean"),
    ("modalities", "t, s", "model.modalities", ("s", "t")),
    ("gamma", "2.5", "model.gamma", 2.5),
    ("beta", "0.5", "model.beta", 0.5),
    ("precision", "double", "model.precision", "double"),
    ("k_negatives", "9", "training.k_negatives", 9),
    ("adv_lambda", "0.1", "training.adv_lambda", 0.1),
    ("lr_d", "0.003", "training.lr_d", 0.003),
    ("lr_g", "2e-5", "training.lr_g", 2e-5),
    ("batch_size", "32", "training.batch_size", 32),
    ("epochs", "7", "training.epochs", 7),
    ("mat_enabled", "false", "training.mat_enabled", False),
    ("adversarial_patterns", "syn_both,syn_head", "training.adversarial_patterns",
     ("syn_head", "syn_both")),
    ("validate_every", "3", "training.validate_every", 3),
    ("seed", "11", "training.seed", 11),
    ("eval_ks", "5, 1", "eval_ks", (5, 1)),
    ("tie_break", "pessimistic", "tie_break", "pessimistic"),
    ("out", "runs/x", "out", "runs/x"),
]
PATH_KEYS = ("train", "valid", "test", "visual_features", "textual_features", "out")


def field_value(cfg, attr):
    for name in attr.split("."):
        cfg = getattr(cfg, name)
    return cfg


def test_round_trip_table_covers_every_key():
    assert sorted(key for key, *_ in ROUND_TRIP) == sorted(KEYS)


@pytest.mark.parametrize("key, text, attr, value", ROUND_TRIP,
                         ids=[row[0] for row in ROUND_TRIP])
def test_every_key_reaches_its_field_and_round_trips(tmp_path, key, text, attr, value):
    if key in PATH_KEYS:
        value = str(tmp_path / value)
    cfg = parse_config(write_cfg(tmp_path, f"{key} = {text}\n"))
    assert field_value(cfg, attr) == value
    assert field_value(RunConfig(), attr) != value
    echoed = echo_config(cfg)
    changed = set(echoed.splitlines()) - set(echo_config(RunConfig()).splitlines())
    assert len(changed) == 1 and changed.pop().startswith(f"{key} = ")
    assert parse_config(write_cfg(tmp_path, echoed, name="echo.cfg")) == cfg


def test_all_keys_together_round_trip(tmp_path):
    cfg = parse_config(write_cfg(tmp_path, "".join(f"{key} = {text}\n"
                                                  for key, text, _, _ in ROUND_TRIP)))
    for key, _, attr, value in ROUND_TRIP:
        want = str(tmp_path / value) if key in PATH_KEYS else value
        assert field_value(cfg, attr) == want, key
    assert parse_config(write_cfg(tmp_path, echo_config(cfg), name="echo.cfg")) == cfg


def test_bad_values_name_their_key(tmp_path):
    for text, key in (("dim = 0", "dim"), ("modalities = ", "modalities"),
                      ("lr_g = 0", "lr_g"), ("modality_missing_ratio = 1.5",
                                             "modality_missing_ratio")):
        with pytest.raises(ConfigError, match=key):
            parse_config(write_cfg(tmp_path, text + "\n"))
    # a value that does not convert also gets its file and line
    for text, key in (("dim = twelve", "dim"), ("mat_enabled = maybe", "mat_enabled"),
                      ("eval_ks = 1,x", "eval_ks"),
                      # spellings the echo never writes
                      ("dim = 1_6", "dim"), ("dim = +16", "dim"), ("dim = １６", "dim"),
                      ("dim = 016", "dim"), ("dim = -0", "dim"), ("seed = 00", "seed"),
                      ("eval_ks = 1,03", "eval_ks"),
                      ("gamma = 1_2.5", "gamma"), ("eval_ks = 1,,3,", "eval_ks"),
                      ("eval_ks = 3,3", "eval_ks"),
                      ("adversarial_patterns = syn_head,,", "adversarial_patterns")):
        with pytest.raises(ConfigError, match=rf"run\.cfg:2: {key}: expected"):
            parse_config(write_cfg(tmp_path, "# bad value\n" + text + "\n"))


@pytest.mark.parametrize("text, line, message", [
    ("gamma = 4\n# d\ndim = 0\n", 3, r"embedding dimension d \(key dim\) must be >= 1"),
    ("adversarial_patterns =\n", 1, "adversarial_patterns must be non-empty"),
    ("mat_enabled = true\n\nadversarial_patterns =\n", 3,
     "adversarial_patterns must be non-empty"),
    ("dim = 8\ntie_break = median\n", 2, "tie_break: expected one of"),
    # both fail alone: the first in file order is named, not the first checked
    ("gamma = -1\ndim = 0\n", 1, "margin gamma must be positive"),
    ("visual_dim = 0\n", 1, "visual_dim must be >= 1"),
    ("dim = 8\ntextual_dim = -3\n", 2, "textual_dim must be >= 1"),
    ("beta = -1\n", 1, "negative-weight temperature beta must be >= 0"),
    # a float key refuses a value that is not finite before any dataclass
    ("gamma = nan\n", 1, "gamma: expected a finite number, got 'nan'"),
    ("dim = 8\nlr_d = inf\n", 2, "lr_d: expected a finite number, got 'inf'"),
    ("adv_lambda = -Infinity\n", 1, "adv_lambda: expected a finite number"),
])
def test_rejected_values_name_their_line(tmp_path, text, line, message):
    with pytest.raises(ConfigError, match=rf"run\.cfg:{line}: {message}"):
        parse_config(write_cfg(tmp_path, text))


def test_failure_of_two_keys_together_names_the_file_only(tmp_path, monkeypatch):
    # No shipped check needs two keys, so add one: lr_g at most 10 * lr_d.
    # Each value passes beside the other's default; the pair fails.
    @dataclasses.dataclass
    class Bounded(TrainConfig):
        def __post_init__(self):
            super().__post_init__()
            if self.lr_g > 10 * self.lr_d:
                raise ContractError("lr_g exceeds 10 * lr_d")

    monkeypatch.setitem(config_module._SECTIONS, "training", Bounded)
    path = write_cfg(tmp_path, "lr_d = 2e-5\nlr_g = 5e-4\n")
    with pytest.raises(ConfigError) as err:
        parse_config(path)
    assert str(err.value) == f"{path}: lr_g exceeds 10 * lr_d"
    assert parse_config(write_cfg(tmp_path, "lr_g = 5e-4\n")).training.lr_g == 5e-4
    assert parse_config(write_cfg(tmp_path, "lr_d = 2e-5\n")).training.lr_d == 2e-5


def test_echo_is_stable_under_double_echo(tmp_path):
    cfg = parse_config(write_cfg(tmp_path, "dim = 8\nlr_d = 0.003\n"))
    once = echo_config(cfg)
    twice = echo_config(parse_config(write_cfg(tmp_path, once, name="e.cfg")))
    assert once == twice


def test_sub_config_construction(tmp_path):
    cfg = parse_config(write_cfg(tmp_path, """
dim = 6
visual_dim = 7
textual_dim = 8
noise_dim = 5
gamma = 3.0
k_negatives = 9
batch_size = 32
epochs = 2
"""))
    mc = cfg.model
    assert (mc.d, mc.visual_dim, mc.textual_dim, mc.noise_dim) == (6, 7, 8, 5)
    tc = cfg.training
    assert (tc.k_negatives, tc.batch_size, tc.epochs) == (9, 32, 2)
