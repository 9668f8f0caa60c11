#!/usr/bin/env python3
"""Benchmark for the prepotential CLI.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a source checkout: it imports the program from
./src and reads the metric list from ./BENCHMARK.json. One process, one
thread. For `--seconds` seconds it cycles through the seed's fixed set of
generated scenario files, runs the workload's subcommand on each through
`prepotential.cli.main`, and checks the outputs against the reference in
reference.py. Only correct outputs count towards goodput. Times are
normalised to a reference host speed (README, "Timing").

--trace 0 prints the end-to-end metrics. --trace 1 instead runs each call
twice, untraced and as a traced rebuild (tracing.py), prints the per-layer
metrics and writes all spans to perfbench/_work/. The last line of stdout
is the JSON result; the lines before it are the metrics by name and unit,
failures by class, and run metadata.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKLOADS = ("grid-rest", "grid-moving", "loops", "verify")


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seconds < 1:
        p.error("--seconds must be at least 1")
    for need in (SRC / "prepotential" / "__init__.py", ROOT / "BENCHMARK.json"):
        if not need.is_file():
            print(f"perfbench: missing {need}", file=sys.stderr)
            return 2
    sys.path.insert(0, str(SRC))
    import harness

    return harness.run(args)


if __name__ == "__main__":
    sys.exit(main())
