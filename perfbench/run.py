"""Benchmark entry point.

    python3 perfbench/run.py --workload convlstm-paper --seed 1 --seconds 20 --trace 0

Runs textclf from the ``src/`` directory beside this one and prints, as
its last line, one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  ``--trace 1`` reports the per-layer metrics
of a traced run instead of the end-to-end ones.  ``--reduced`` runs the
small sizes the fast tests use.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOAD_NAMES = ("convlstm-paper", "cli-chain")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--reduced", action="store_true")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "textclf" / "__init__.py").is_file():
        print(f"error: no textclf sources in {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from perfbench.runner import machine_info, run

    print("machine " + json.dumps(machine_info(), sort_keys=True), flush=True)
    result = run(args.workload, args.seed, args.seconds, bool(args.trace), args.reduced)
    for name, metric in result["metrics"].items():
        print(f"{name} {metric['value']:.6g} {metric['unit']}")
    for walls in result.pop("stage_walls"):
        print("stage seconds " + " ".join(f"{k}={v:.2f}" for k, v in walls.items()))
    for line in result.pop("known_faults"):
        print(f"known fault: {line}")
    for line in result.pop("problems"):
        print(f"check failed: {line}")
    print(f"attempted {result['attempted']} failed {result['failed']} "
          f"correct {str(result['correct']).lower()}")
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
