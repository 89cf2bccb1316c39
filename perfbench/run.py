"""Run the benchmark of record on one workload.

    python3 perfbench/run.py --workload dense-share --seed 1 --seconds 10 --trace 0

Prints one line per figure (name, value, unit), a ``record`` line with the
environment stamp, input size and pass lengths, and, last, one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics of the traced run with
``--trace 1``.  Exits 1 when any result is wrong or late, and 2 when the
program under test cannot be imported (no ``src/`` beside this directory).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("dense-share", "deep-overlap", "durable-churn"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full")
    args = parser.parse_args(argv)

    source = ROOT / "src"
    sys.path[:0] = [str(source), str(ROOT)]
    try:
        import repro  # the program under test
    except ImportError as error:
        print(f"perfbench: cannot import the program under test from {source}: {error}", file=sys.stderr)
        return 2
    if source not in Path(repro.__file__).resolve().parents:
        print(f"perfbench: imported repro from {repro.__file__}, not from {source}", file=sys.stderr)
        return 2
    from perfbench.bench import run

    outcome = run(args.workload, args.seed, args.seconds, bool(args.trace), args.size)
    metrics = outcome.result_line()["metrics"]
    for name, entry in metrics.items():
        print(f"{outcome.workload}  {name}  {entry['value']!r} {entry['unit']}")
    print(f"{outcome.workload}  failed_frac  {outcome.failed_frac!r} frac")
    if "recover_s" in outcome.record:
        print(f"{outcome.workload}  recover_s  {outcome.record['recover_s']!r} s")
    for problem in outcome.checks.problems:
        print(f"{outcome.workload}  FAILED  {problem}")
    print("record " + json.dumps(outcome.record, sort_keys=True))
    print(json.dumps(outcome.result_line()))
    return 0 if outcome.correct else 1


if __name__ == "__main__":
    sys.exit(main())
