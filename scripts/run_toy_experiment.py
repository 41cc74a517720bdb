#!/usr/bin/env python3
"""End-to-end sanity experiment on the synthetic ring KG.

Trains the adaptive-fusion model without the adversarial branch using the
small reference recipe (d=16, K=16, gamma=4, beta=1, lr 1e-3, 400 epochs)
and reports filtered test metrics.  A healthy build lands well above the
random baseline (~0.09 MRR for 50 entities); see tests/test_acceptance.py
for the asserted floor.

    python scripts/run_toy_experiment.py --dir runs/toy_exp --seeds 0 1 2
"""

import argparse
import os

from adamf.cli import main as adamf_main
from adamf.toykg import toy_config_text, write_toy_kg


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--dir", default="runs/toy_exp")
    ap.add_argument("--seeds", type=int, nargs="+", default=[0])
    ap.add_argument("--epochs", type=int, default=400)
    ap.add_argument("--mat", action="store_true",
                    help="enable the adversarial generator branch")
    args = ap.parse_args()

    data_dir = os.path.join(args.dir, "data")
    write_toy_kg(data_dir)

    for seed in args.seeds:
        cfg_path = os.path.join(args.dir, f"seed{seed}.cfg")
        # a config's relative paths resolve against the config's own directory
        text = toy_config_text("data", f"seed{seed}", epochs=args.epochs,
                               seed=seed, mat_enabled=args.mat)
        with open(cfg_path, "w", encoding="utf-8") as fh:
            fh.write(text)
        print(f"--- seed {seed}")
        rc = adamf_main(["train", cfg_path])
        if rc != 0:
            raise SystemExit(rc)


if __name__ == "__main__":
    main()
