#!/usr/bin/env python3
"""Ablation grid on the synthetic ring KG, driven purely by config changes.

Rows: the full model, mean fusion instead of adaptive, each two-modality
subset, and each adversarial corruption pattern removed.  Every row trains
from scratch and emits a complete rank report; the summary table at the end
collects filtered test MRR / Hit@K per row.

    python scripts/run_ablations.py --dir runs/ablations --epochs 400
"""

import argparse
import json
import os

from adamf.cli import main as adamf_main
from adamf.toykg import toy_config_text, write_toy_kg

ROWS = [
    ("full", {}),
    ("mean_fusion", {"fusion_mode": "mean"}),
    ("s+v", {"modalities": "s,v"}),
    ("s+t", {"modalities": "s,t"}),
    ("v+t", {"modalities": "v,t"}),
    ("no_syn_tail", {"adversarial_patterns": "syn_head,syn_both"}),
    ("no_syn_head", {"adversarial_patterns": "syn_tail,syn_both"}),
    ("no_syn_both", {"adversarial_patterns": "syn_tail,syn_head"}),
]


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--dir", default="runs/ablations")
    ap.add_argument("--epochs", type=int, default=400)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()

    data_dir = os.path.join(args.dir, "data")
    write_toy_kg(data_dir)

    results = []
    for name, overrides in ROWS:
        out_dir = os.path.join(args.dir, name)
        cfg_path = os.path.join(args.dir, f"{name}.cfg")
        # a config's relative paths resolve against the config's own directory
        text = toy_config_text("data", name, epochs=args.epochs,
                               seed=args.seed, **overrides)
        with open(cfg_path, "w", encoding="utf-8") as fh:
            fh.write(text)
        print(f"--- {name}")
        rc = adamf_main(["train", cfg_path])
        if rc != 0:
            raise SystemExit(rc)
        with open(os.path.join(out_dir, "rank_report.json"), encoding="utf-8") as fh:
            report = json.load(fh)
        results.append((name, report))

    print(f"\n{'row':<14}{'MRR':>8}{'Hit@1':>8}{'Hit@3':>8}{'Hit@10':>8}")
    for name, report in results:
        hits = report["hits"]
        print(f"{name:<14}{report['mrr']:>8.4f}{hits['1']:>8.4f}"
              f"{hits['3']:>8.4f}{hits['10']:>8.4f}")


if __name__ == "__main__":
    main()
