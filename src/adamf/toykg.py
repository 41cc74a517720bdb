"""Small synthetic knowledge graph for experiments and acceptance runs.

Entities sit on a ring; relation `next` connects i -> i+1 (mod N) and
relation `skip` connects i -> i+2 (mod N), so `skip` is the composition of
`next` with itself and a model that places entities coherently on the ring
can solve held-out queries.  Each entity also carries 3-dim "visual" and
"textual" features derived from its ring angle, giving the modal paths real
signal to exploit.

`run_toy_grid` trains rows of config overrides x seeds on this graph through
`adamf train`, on every CPU; `ABLATION_ROWS` is the paper's ablation grid as
such rows.
"""

from __future__ import annotations

import collections
import contextlib
import io
import json
import math
import multiprocessing
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from .cli import main as adamf_main
from .config import format_value
from .data import (FEATURE_NAMES, SPLITS, FeatureTable, TripleDataset, Vocab,
                   feature_dir_paths, save_features, save_triples)
from .errors import AdamfError, ContractError
from .evaluation import pool_size
from .ioutil import atomic_write_text

RELATIONS = (("next", 1, 0), ("skip", 2, 5))  # (name, ring offset, split offset)


def build_toy_kg(n_entities: int = 50) -> tuple[TripleDataset, dict[str, FeatureTable]]:
    """Ring KG with deterministic 80/10/10 splits and modal features.

    Triple (i, r, i+offset) lands in valid when (i + split_offset) % 10 == 8,
    in test when == 9, and in train otherwise; the per-relation split offsets
    keep the held-out entities different across relations, and every entity
    still appears in the train split.
    """
    if n_entities < 10:
        raise ContractError("toy KG needs at least 10 entities for the splits")
    vocab = Vocab()
    for i in range(n_entities):
        vocab.add_entity(f"e{i:02d}")
    for name, _, _ in RELATIONS:
        vocab.add_relation(name)
    splits = {"train": [], "valid": [], "test": []}
    for r, (name, offset, split_offset) in enumerate(RELATIONS):
        for i in range(n_entities):
            triple = (i, r, (i + offset) % n_entities)
            slot = (i + split_offset) % 10
            split = "valid" if slot == 8 else "test" if slot == 9 else "train"
            splits[split].append(triple)
    dataset = TripleDataset.from_splits(vocab, splits["train"], splits["valid"],
                                        splits["test"])
    angles = 2.0 * math.pi * np.arange(n_entities) / n_entities
    visual = np.stack([np.cos(angles), np.sin(angles),
                       np.ones(n_entities)], axis=1)
    textual = np.stack([np.cos(2 * angles), np.sin(2 * angles),
                        angles / (2.0 * math.pi)], axis=1)
    present = np.ones(n_entities, dtype=bool)
    tables = {"v": FeatureTable("v", 3, visual, present.copy()),
              "t": FeatureTable("t", 3, textual, present.copy())}
    return dataset, tables


def write_toy_kg(directory: str, n_entities: int = 50) -> TripleDataset:
    """Materialize the toy KG as TSV files; returns the dataset written."""
    os.makedirs(directory, exist_ok=True)
    dataset, tables = build_toy_kg(n_entities)
    paths = feature_dir_paths(directory)
    save_triples(dataset, paths["train"], paths["valid"], paths["test"])
    for m, name in FEATURE_NAMES.items():
        save_features(tables[m], dataset.vocab, paths[name])
    return dataset


TOY_DEFAULTS = {
    "visual_dim": 3,
    "textual_dim": 3,
    "dim": 16,
    "noise_dim": 8,
    "gamma": 4.0,
    "beta": 1.0,
    "k_negatives": 16,
    "lr_d": 1e-3,
    "lr_g": 1e-3,
    "batch_size": 16,
    "epochs": 400,
    "validate_every": 50,
    "adv_lambda": 0.01,
    "seed": 0,
}


def toy_config_text(data_dir: str, out_dir: str, **overrides) -> str:
    """Config file body for a toy-KG run; overrides win over TOY_DEFAULTS."""
    paths = feature_dir_paths(data_dir)
    values = {split: paths[split] for split in SPLITS}
    values.update({f"{name}_features": paths[name] for name in FEATURE_NAMES.values()})
    values["out"] = out_dir
    values.update(TOY_DEFAULTS)
    values.update(overrides)
    lines = [f"{key} = {format_value(value)}" for key, value in values.items()]
    return "\n".join(lines) + "\n"


def write_toy_config(directory: str, name: str, out: str, **overrides) -> str:
    """Write and return `<directory>/<name>.cfg`, a run on the toy KG in
    `<directory>/data` into `<directory>/<out>`.  Its paths are relative: a
    config's relative paths resolve against its own directory."""
    path = os.path.join(directory, f"{name}.cfg")
    atomic_write_text(path, toy_config_text("data", out, **overrides))
    return path


# The ablation grid: the full model, mean instead of adaptive fusion, each
# two-modality subset, each synthetic pattern removed, and the generator off.
ABLATION_ROWS = (
    ("full", {}),
    ("mean_fusion", {"fusion_mode": "mean"}),
    ("s+v", {"modalities": "s,v"}),
    ("s+t", {"modalities": "s,t"}),
    ("v+t", {"modalities": "v,t"}),
    ("no_syn_tail", {"adversarial_patterns": "syn_head,syn_both"}),
    ("no_syn_head", {"adversarial_patterns": "syn_tail,syn_both"}),
    ("no_syn_both", {"adversarial_patterns": "syn_tail,syn_head"}),
    ("no_mat", {"mat_enabled": False}),
)


@dataclass(frozen=True)
class ToyRun:
    """One finished run of a toy grid: its row, seed, output directory and
    parsed `rank_report.json`."""
    row: str
    seed: int
    out: str
    report: dict


def _train(cfg_path: str) -> tuple[int, str, str]:
    """`adamf train cfg_path` in a grid worker: its exit code, stdout and stderr."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = adamf_main(["train", cfg_path])
    return code, out.getvalue(), err.getvalue()


def run_toy_grid(directory: str, rows, seeds=(0,), **common) -> list[ToyRun]:
    """Train every (row, seed) on the toy KG through `adamf train`; returns
    the runs in (row, seed) order.

    `rows` are (name, overrides) pairs.  The graph is written once to
    `<directory>/data`; each run gets the config `<directory>/<name>-s<seed>.cfg`
    (TOY_DEFAULTS, then `common`, then the row's overrides, then the seed)
    and the output directory `<directory>/<name>-s<seed>`.

    The runs go to `pool_size` spawned worker processes, so a calling script
    needs the `if __name__ == "__main__"` guard; one CPU gives a pool of
    one.  Run i starts once run i - workers has passed, and each run's
    output is printed after a `--- <name>-s<seed>` line, both in grid order.
    A run that exits non-zero stops the grid: no later run starts, the
    started ones finish, and the error names the first failing run's row,
    seed and exit code.
    """
    write_toy_kg(os.path.join(directory, "data"))
    grid = [(name, overrides, seed) for name, overrides in rows for seed in seeds]
    workers = pool_size(len(grid))
    runs: list[ToyRun] = []
    started = collections.deque()   # (name, seed, future), in grid order

    def finish() -> None:
        name, seed, future = started.popleft()
        code, out, err = future.result()
        print(f"--- {name}-s{seed}")
        sys.stdout.write(out)
        sys.stderr.write(err)
        if code != 0:
            raise AdamfError(f"toy run {name!r} seed {seed} exited {code}")
        path = os.path.join(directory, f"{name}-s{seed}")
        with open(os.path.join(path, "rank_report.json"), encoding="utf-8") as fh:
            runs.append(ToyRun(name, seed, path, json.load(fh)))

    with ProcessPoolExecutor(workers, mp_context=multiprocessing.get_context("spawn")) as pool:
        for name, overrides, seed in grid:
            if len(started) == workers:
                finish()
            tag = f"{name}-s{seed}"
            cfg_path = write_toy_config(directory, tag, tag,
                                        **{**common, **overrides, "seed": seed})
            started.append((name, seed, pool.submit(_train, cfg_path)))
        while started:
            finish()
    return runs
