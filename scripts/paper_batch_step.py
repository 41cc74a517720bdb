#!/usr/bin/env python3
"""Training steps at the paper's batch on the DB15K-shaped synthetic graph.

Builds the inputs of the ``db15k_train`` workload of ``perfbench/`` (the
12,842-entity graph, its 4096/768-wide features with the same share of rows
hidden, the same model shape) and runs STEPS batches of B=1024 positives
with K=64 negatives each on the raw feature rows, MAT on, through
``adamf train``'s own ``train_batch``: negatives, one discriminator step,
one generator step.  Prints one JSON line with the per-step seconds, the
losses and the peak RSS, and exits 1 on a non-finite loss.
``--mem-cap-mb`` caps the address space, so a run over budget fails with a
MemoryError.

    python3 scripts/paper_batch_step.py
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "perfbench")]

import numpy as np  # noqa: E402

import synth  # noqa: E402
import workloads  # noqa: E402
from adamf.model import Model, init_params  # noqa: E402
from adamf.training import TrainConfig, TrainState, train_batch  # noqa: E402

BATCH, K, STEPS, SEED = 1024, 64, 3, 777


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--mem-cap-mb", type=int, default=4096)
    cap = ap.parse_args().mem_cap_mb * 1024 * 1024
    resource.setrlimit(resource.RLIMIT_AS, (cap, cap))

    _, splits, features = workloads._db15k_inputs(SEED)
    features = workloads._mask_features(features, SEED)
    model_cfg = workloads._model_config()
    model = Model(model_cfg, init_params(model_cfg, synth.N_ENTITIES,
                                         synth.N_RELATIONS, SEED), features)
    del features
    train = splits["train"]
    cfg = TrainConfig(k_negatives=K, batch_size=BATCH, mat_enabled=True, seed=SEED)
    state = TrainState.from_seed(SEED)
    perm = state.shuffle.permutation(train.shape[0])

    step_s, losses = [], []
    for i in range(STEPS):
        batch = train[perm[i * BATCH:(i + 1) * BATCH]]
        start = time.perf_counter()
        losses.append(list(train_batch(model, batch, cfg, state)))
        step_s.append(time.perf_counter() - start)
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps({"batch": BATCH, "k": K, "d": model_cfg.d, "seed": SEED,
                      "step_s": step_s, "step_s_median": float(np.median(step_s)),
                      "losses": losses, "peak_rss_mb": peak}))
    return 0 if all(math.isfinite(v) for row in losses for v in row) else 1


if __name__ == "__main__":
    sys.exit(main())
