#!/usr/bin/env python3
"""Materialize the synthetic ring KG and a ready-to-run config file.

The dataset is a 50-entity cycle with two relations (successor and
two-step skip), deterministic splits, and 3-dim angle-derived features
for both the visual and textual modality.  Useful as a quick smoke
dataset for the CLI:

    python scripts/make_toy_kg.py --dir runs/toy
    adamf train runs/toy/toy.cfg
"""

import argparse
import os

from adamf.toykg import write_toy_config, write_toy_kg


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--dir", default="runs/toy", help="output directory")
    ap.add_argument("--entities", type=int, default=50)
    args = ap.parse_args()

    data_dir = os.path.join(args.dir, "data")
    dataset = write_toy_kg(data_dir, n_entities=args.entities)
    cfg_path = write_toy_config(args.dir, "toy", "out")
    print(f"wrote {data_dir}: {len(dataset.train)} train / "
          f"{len(dataset.valid)} valid / {len(dataset.test)} test triples")
    print(f"wrote {cfg_path}")


if __name__ == "__main__":
    main()
