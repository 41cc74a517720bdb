#!/usr/bin/env python3
"""Print a perfbench record file and fail unless its run was correct.

    python3 scripts/check_record.py runs/db15k_eval-0.txt

The file is what `perfbench/run.py` printed; its last line is one JSON
object, and the exit status is 0 only if that object's "correct" is true.
"""

import json
import sys


def main() -> int:
    if len(sys.argv) != 2:
        sys.exit(f"usage: {sys.argv[0]} <record file>")
    with open(sys.argv[1], encoding="utf-8") as handle:
        text = handle.read()
    sys.stdout.write(text)
    lines = text.splitlines()
    return 0 if lines and json.loads(lines[-1])["correct"] is True else 1


if __name__ == "__main__":
    sys.exit(main())
