"""Benchmark harness: set-up timing, the measured call loop, the traced
run, and the printed result. Imported by run.py once ./src is on the path.
"""

from __future__ import annotations

import contextlib
import gzip
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

import numpy

import generate
from calibrate import REF_S, calibration, normalised
import reference
import tracing
from prepotential import cli

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / "_work"

COMMANDS = {"grid-rest": "field-grid", "grid-moving": "field-grid",
            "loops": "loop-phase", "verify": "verify"}
BASES = {"grid-rest": "cells", "grid-moving": "cells",
         "loops": "loops", "verify": "families"}
# Scenarios per seed. Every run of a seed calls the same set, so attempted
# and failed depend on the seed alone; the set is cycled until the time is
# up, and the timing metrics combine per-scenario medians over the set.
SCENARIOS = {"grid-rest": 4, "grid-moving": 4, "loops": 8, "verify": 21}
MIN_REPEATS = 3
SETUP_REPEATS = 9
SETUP_TIMEOUT_S = 60
# Traced runs fill the per-layer metrics their own workload does not reach
# from one traced pass over a reduced scenario of another workload.
SLICES = (("grid-moving", 0.5), ("loops", 0.25), ("verify", 1.0))
# Runs in a fresh process: the timed import and load, then the calibration
# (which imports numpy, so it cannot run first without shortening the
# timed import), then both times on one line.
SETUP_CODE = """\
import sys, time
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import prepotential.cli
from prepotential.scenario import load_scenario
load_scenario(sys.argv[2])
seconds = time.perf_counter() - t0
sys.path.insert(0, sys.argv[3])
from calibrate import calibration
print(repr(seconds), repr(calibration()))
"""


def _fail(msg: str) -> None:
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def _source_digest() -> str:
    h = hashlib.sha256()
    for f in sorted((SRC / "prepotential").rglob("*")):
        if f.is_file() and "__pycache__" not in f.parts:
            h.update(str(f.relative_to(SRC)).encode())
            h.update(f.read_bytes())
    return h.hexdigest()[:16]


def _git_sha() -> str | None:
    try:
        res = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return res.stdout.strip() if res.returncode == 0 else None


def _setup_seconds(scenario_path: Path) -> list[tuple[float, float]]:
    """(seconds, calibration seconds) of fresh processes that import the CLI
    and load the scenario; the first run only fills the bytecode cache and
    is not counted."""
    out = []
    for _ in range(SETUP_REPEATS + 1):
        res = subprocess.run([sys.executable, "-c", SETUP_CODE, str(SRC),
                              str(scenario_path), str(HERE)],
                             capture_output=True, text=True, timeout=SETUP_TIMEOUT_S,
                             cwd=ROOT)
        if res.returncode != 0:
            _fail(f"set-up process failed: {res.stderr.strip()}")
        seconds, cal = res.stdout.strip().splitlines()[-1].split()
        out.append((float(seconds), float(cal)))
    return out[1:]


class Workload:
    """Generates the workload's scenario files, runs its CLI call and
    checks the outputs."""

    def __init__(self, name: str, seed: int, workdir: Path, scale: float = 1.0):
        self.name, self.seed, self.workdir, self.scale = name, seed, workdir, scale
        self.command = COMMANDS[name]

    def scenario(self, index: int):
        doc, side = generate.generate(self.name, self.seed, index, self.scale)
        path = self.workdir / f"{self.name}-{index}.json"
        path.write_text(json.dumps(doc))
        return path, doc, side

    def cli_call(self, path: Path, out: Path, side: dict) -> tuple[int, float]:
        argv = [self.command, "--scenario", str(path), "--out", str(out)]
        if "seed" in side:
            argv += ["--seed", str(side["seed"])]
        # the CLI's stderr summary is not part of the measured output
        with contextlib.redirect_stderr(io.StringIO()):
            t0 = time.perf_counter()
            code = cli.main(argv)
            wall = time.perf_counter() - t0
        return code, wall

    def check(self, doc: dict, side: dict, out: Path):
        rows = reference.read_csv(out)
        if self.command == "field-grid":
            return reference.check_grid(doc, rows)
        if self.command == "loop-phase":
            return reference.check_loops(doc, side["truth"], rows)
        return reference.check_verify(doc, rows)


def _stable_rows(out: Path) -> list[dict]:
    """The call's output rows without the timing column verify writes."""
    return [{k: v for k, v in row.items() if k != "seconds"}
            for row in reference.read_csv(out)]


def _measure(wl: Workload, seconds: float, traced: bool):
    """Cycle the seed's scenarios until `seconds` have passed and each has
    MIN_REPEATS timed calls. The first call of each scenario is checked
    against the reference; every later one must give the same rows."""
    scenarios = [wl.scenario(i) for i in range(SCENARIOS[wl.name])]
    first, calls, passes = [], [], []
    tr = tracing.Tracer() if traced else None
    # warm-up: lazy imports and first-use caches are not timed
    path, _, side = scenarios[0]
    wl.cli_call(path, wl.workdir / "warm-up.csv", side)
    start = time.perf_counter()
    cal_before = calibration()
    n = 0
    while n < MIN_REPEATS * len(scenarios) or time.perf_counter() - start < seconds:
        i = n % len(scenarios)
        path, doc, side = scenarios[i]
        out = wl.workdir / f"out-{i}.csv"
        code, wall = wl.cli_call(path, out, side)
        cal_after = calibration()
        call = {"scenario": i, "wall": wall, "cal": (cal_before + cal_after) / 2,
                "code": code}
        cal_before = cal_after
        if n < len(scenarios):
            first.append({"verdict": wl.check(doc, side, out), "rows": _stable_rows(out),
                          "size": generate.input_size(wl.name, doc)})
        else:
            call["same_rows"] = _stable_rows(out) == first[i]["rows"]
        if traced:
            rebuilt = wl.workdir / f"traced-{i}.csv"
            t0 = time.perf_counter()
            passes.append(tracing.traced_pass(tr, wl.command, path, rebuilt,
                                              side.get("seed")))
            call["traced_wall"] = time.perf_counter() - t0
            call["rebuild_matches"] = (wl.command == "verify"
                                       or rebuilt.read_bytes() == out.read_bytes())
            cal_before = calibration()
        calls.append(call)
        n += 1
    return first, calls, tr, passes


def _timing_metrics(first: list[dict], calls: list[dict]) -> dict:
    """Per scenario, the median normalised call time; wall over the set is
    their mean, goodput the set's good outputs over their sum."""
    per = [statistics.median(normalised(c["wall"], c["cal"])
                             for c in calls if c["scenario"] == i)
           for i in range(len(first))]
    raw = [statistics.median(c["wall"] for c in calls if c["scenario"] == i)
           for i in range(len(first))]
    good = sum(f["verdict"].good for f in first)
    return {"norm_goodput_per_s": good / sum(per), "norm_wall_s": statistics.mean(per),
            "raw_goodput_per_s": good / sum(raw), "raw_wall_s": statistics.mean(raw)}


def _slice_metrics(name: str, scale: float, seed: int, workdir: Path):
    """One traced pass over a reduced first scenario (for verify, over the
    first scenario of each family)."""
    wl = Workload(name, seed, workdir, scale)
    tr = tracing.Tracer()
    passes = []
    for i in range(len(generate.CHECK_NAMES) if name == "verify" else 1):
        path, _, side = wl.scenario(i)
        passes.append(tracing.traced_pass(tr, wl.command, path,
                                          workdir / f"slice-{name}.csv", side.get("seed")))
    return tracing.layer_metrics(tr, wl.command, passes), tr


def _per_layer(args, wl, tr, passes, calls, names, workdir):
    metrics = tracing.layer_metrics(tr, wl.command, passes)
    metrics["trace.overhead_s"] = statistics.mean(c["traced_wall"] - c["wall"]
                                                  for c in calls)
    sources = {k: "own" for k in metrics}
    tracers = {args.workload: tr}
    for name, scale in SLICES:
        missing = [m for m in names if m not in metrics]
        if not missing or name == args.workload:
            continue
        got, slice_tr = _slice_metrics(name, scale, args.seed, workdir)
        tracers[f"slice:{name}"] = slice_tr
        for m in missing:
            if m in got:
                metrics[m] = got[m]
                sources[m] = f"slice:{name}@{scale}"
    return metrics, sources, tracers


def run(args) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if Path(cli.__file__).resolve().parents[1] != SRC.resolve():
        _fail(f"imported prepotential from {cli.__file__}, not from {SRC}")
    units = {m["name"]: m["unit"]
             for m in spec["per_layer" if args.trace else "end_to_end"]}
    WORK.mkdir(exist_ok=True)
    workdir = WORK / f"{args.workload}-seed{args.seed}-pid{os.getpid()}"
    workdir.mkdir()
    try:
        wl = Workload(args.workload, args.seed, workdir)
        first, calls, tr, passes = _measure(wl, args.seconds, bool(args.trace))
        # after the calls, so that every run measures set-up on a busy CPU
        setup = [] if args.trace else _setup_seconds(wl.scenario(0)[0])
        if args.trace:
            metrics, sources, tracers = _per_layer(args, wl, tr, passes, calls,
                                                   list(units), workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    verdicts = [f["verdict"] for f in first]
    attempted = sum(v.attempted for v in verdicts)
    failed = sum(v.failed for v in verdicts)
    by_class = dict(sum((v.failures for v in verdicts), Counter()))
    bad_exits = [c["code"] for c in calls if c["code"] != 0]
    changed = sum(not c.get("same_rows", True) for c in calls)
    correct = not bad_exits and not changed and reference.UNATTRIBUTED not in by_class
    timing = _timing_metrics(first, calls)
    if not args.trace:
        metrics = {
            "norm_goodput_per_s": timing["norm_goodput_per_s"],
            "norm_wall_s": timing["norm_wall_s"],
            "setup_s": statistics.median(normalised(t, cal) for t, cal in setup),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
    if set(units) - set(metrics):
        _fail(f"no value for {sorted(set(units) - set(metrics))}")

    base = BASES[args.workload]
    meta = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "git_sha": _git_sha(), "source_sha256": _source_digest(),
        "python": platform.python_version(), "numpy": numpy.__version__,
        "cpu_count": os.cpu_count(), "calls": len(calls), "base": base,
        "scenarios": len(first), "input_size": first[0]["size"],
        "failed_share": {"failed": failed, "attempted": attempted, "base": base,
                         "by_class": by_class},
        "raw_goodput_per_s": timing["raw_goodput_per_s"],
        "raw_wall_s": timing["raw_wall_s"],
        "cal_ref_s": REF_S,
        "calls_scenario_wall_cal_s": [(c["scenario"], round(c["wall"], 6), round(c["cal"], 6))
                                      for c in calls],
        "setup_runs_wall_cal_s": [(round(t, 6), round(cal, 6)) for t, cal in setup],
        "exit_codes_not_0": bad_exits,
        "repeat_calls_with_other_rows": changed,
    }
    if args.trace:
        meta["rebuild_matches_cli"] = all(c["rebuild_matches"] for c in calls)
        meta["metric_sources"] = sources
        trace_path = WORK / f"trace-{args.workload}-seed{args.seed}.json.gz"
        meta["trace_file"] = str(trace_path.relative_to(ROOT))
        with gzip.open(trace_path, "wt") as fh:
            json.dump({"meta": meta, "metrics": metrics,
                       "tracers": {k: t.as_dict() for k, t in tracers.items()}}, fh)

    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds} "
          f"trace={args.trace}")
    for name, unit in units.items():
        print(f"  {name:<40} {metrics[name]:>14.6g} {unit}")
    print(f"  unnormalised: goodput {timing['raw_goodput_per_s']:.6g} 1/s, "
          f"wall {timing['raw_wall_s']:.6g} s, over {len(calls)} calls")
    print(f"  failed_share {failed}/{attempted} {base} = {failed / attempted:.4f}; "
          f"by class: {by_class or 'none'}")
    for note in [n for v in verdicts for n in v.notes][:5]:
        print(f"    {note}")
    print("meta " + json.dumps(meta))
    result = {"correct": correct, "attempted": attempted, "failed": failed,
              "metrics": {name: {"value": metrics[name], "unit": unit}
                          for name, unit in units.items()}}
    print(json.dumps(result))
    return 0
