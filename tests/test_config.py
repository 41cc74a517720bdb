"""Run-configuration parsing, echoing, and guidance warnings."""

import os

import pytest

from adamf.config import (RunConfig, echo_config, grid_warnings, parse_config)
from adamf.errors import ConfigError


def write_cfg(tmp_path, text, name="run.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def test_defaults_without_any_keys(tmp_path):
    cfg = parse_config(write_cfg(tmp_path, "# nothing but a comment\n"))
    assert cfg.dim == 200
    assert cfg.gamma == 12.0
    assert cfg.modalities == ("s", "v", "t")
    assert cfg.mat_enabled is True
    assert cfg.eval_ks == (1, 3, 10)
    assert cfg.train is None


def test_basic_values_and_comments(tmp_path):
    cfg = parse_config(write_cfg(tmp_path, """
# experiment settings
dim = 16          # small embedding
gamma = 4.0
mat_enabled = false
epochs = 7
selfadv_sign = literal
"""))
    assert cfg.dim == 16
    assert cfg.gamma == 4.0
    assert cfg.mat_enabled is False
    assert cfg.epochs == 7
    assert cfg.selfadv_sign == "literal"


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
    with pytest.raises(ConfigError, match="boolean"):
        parse_config(write_cfg(tmp_path, "mat_enabled = maybe\n"))


def test_modalities_comma_and_compact_forms(tmp_path):
    assert parse_config(write_cfg(tmp_path, "modalities = s,v\n")).modalities \
        == ("s", "v")
    assert parse_config(write_cfg(tmp_path, "modalities = vs\n")).modalities \
        == ("s", "v")
    assert parse_config(write_cfg(tmp_path, "modalities = t, s, v\n")).modalities \
        == ("s", "v", "t")


def test_modalities_unknown_letter(tmp_path):
    with pytest.raises(ConfigError, match="modalities"):
        parse_config(write_cfg(tmp_path, "modalities = s,x\n"))


def test_adversarial_patterns_parsing(tmp_path):
    cfg = parse_config(write_cfg(
        tmp_path, "adversarial_patterns = syn_both, syn_tail\n"))
    assert cfg.adversarial_patterns == ("syn_tail", "syn_both")
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
    mc = cfg.model_config()
    assert (mc.d, mc.visual_dim, mc.textual_dim, mc.noise_dim) == (6, 7, 8, 5)
    tc = cfg.train_config()
    assert (tc.k_negatives, tc.batch_size, tc.epochs) == (9, 32, 2)


def test_grid_warnings_flag_out_of_grid_values():
    cfg = RunConfig()
    assert grid_warnings(cfg) == []
    cfg.k_negatives = 100
    cfg.gamma = 4.0
    warnings = grid_warnings(cfg)
    assert len(warnings) == 1
    assert "k_negatives = 100" in warnings[0]
    assert "proceeding anyway" in warnings[0]
