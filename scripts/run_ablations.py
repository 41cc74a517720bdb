#!/usr/bin/env python3
"""Ablation grid on the synthetic ring KG, driven purely by config changes.

Rows (`adamf.toykg.ABLATION_ROWS`): the full model, mean fusion instead of
adaptive, each two-modality subset, each adversarial corruption pattern
removed, and the generator off.  Every row trains from scratch at every seed
and emits a complete rank report; the summary table at the end collects
filtered test MRR / Hit@K per run, and `<dir>/results.json` holds the same
numbers as row -> seed -> {"mrr", "hits"}.

    python scripts/run_ablations.py --dir runs/ablations --epochs 400 --seeds 0 1 2
"""

import argparse
import json
import os

from adamf.ioutil import atomic_write_text
from adamf.toykg import ABLATION_ROWS, run_toy_grid


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--dir", default="runs/ablations")
    ap.add_argument("--epochs", type=int, default=400)
    ap.add_argument("--seeds", type=int, nargs="+", default=[0])
    args = ap.parse_args()

    runs = run_toy_grid(args.dir, ABLATION_ROWS, args.seeds, epochs=args.epochs)

    print(f"\n{'row':<14}{'seed':>6}{'MRR':>8}{'Hit@1':>8}{'Hit@3':>8}{'Hit@10':>8}")
    results = {}
    for run in runs:
        mrr, hits = run.report["mrr"], run.report["hits"]
        print(f"{run.row:<14}{run.seed:>6}{mrr:>8.4f}{hits['1']:>8.4f}"
              f"{hits['3']:>8.4f}{hits['10']:>8.4f}")
        results.setdefault(run.row, {})[str(run.seed)] = {"mrr": mrr, "hits": hits}
    atomic_write_text(os.path.join(args.dir, "results.json"),
                      json.dumps(results, indent=2) + "\n")


if __name__ == "__main__":
    main()
