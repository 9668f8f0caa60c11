"""Command-line front end: field-grid evaluation, verification suites,
loop-phase runs, and relation dumps, with deterministic CSV/JSON output.

Exit codes: 0 success, 1 verification failure, 2 configuration error,
3 runtime/singularity error.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import math
import os
import stat
import sys
from collections import Counter

import numpy as np

from .errors import ROW_FAILURES, PrepotentialError, ScenarioError
from .loops import _stack_reports
from .matrices import validate_relations
from .potential import prepotential_jets
from .scenario import CHECK_NAMES, Scenario, load_scenario
from .verify import DEFAULT_SEED, run_checks

__all__ = ["main"]

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_CONFIG = 2
EXIT_RUNTIME = 3

SCHEMA_VERSION = 1


def _fmt(v) -> str:
    return format(v, ".17g") if isinstance(v, float) else str(v)


def _write_table(header, rows, fmt: str, path: str | None, kind: str) -> None:
    """Serialize a table deterministically; stdout when no path given.
    `rows` is a list of rows (CSV through csv.writer, which quotes free
    text) or a float array whose last column holds integers, formatted
    at once (the field grid, whose last column is `masked`)."""
    array = isinstance(rows, np.ndarray)
    if fmt == "csv":
        if array:
            n, m = rows.shape
            body = ("%.17g," * (m - 1) + "%d\n") * n % tuple(rows.ravel().tolist())
            text = ",".join(header) + "\n" + body
        else:
            buf = io.StringIO()
            writer = csv.writer(buf, lineterminator="\n")
            writer.writerow(header)
            for row in rows:
                writer.writerow([_fmt(v) for v in row])
            text = buf.getvalue()
    else:
        if array:
            rows = [row[:-1] + [int(row[-1])] for row in rows.tolist()]
        records = [dict(zip(header, row)) for row in rows]
        for rec in records:
            for k, v in rec.items():
                if isinstance(v, float) and math.isnan(v):
                    rec[k] = None
        doc = {"schema_version": SCHEMA_VERSION, "kind": kind, "records": records}
        text = json.dumps(doc, indent=2) + "\n"
    if path is None:
        sys.stdout.write(text)
        return
    # rewritten in place, then cut to length: opening a file that has data
    # with O_TRUNC took about 90 us on ext4 mounted with discard, against
    # under 10 us for this. Devices and pipes take no truncate.
    try:
        fd = os.open(path, os.O_WRONLY | os.O_CREAT, 0o666)
        with open(fd, "w", newline="") as fh:
            fh.write(text)
            if stat.S_ISREG(os.fstat(fd).st_mode):
                fh.truncate()
    except OSError as exc:
        raise _unwritable(path, exc) from exc


def _unwritable(path: str, exc: OSError) -> ScenarioError:
    return ScenarioError(f"cannot write output {path}: {exc.strerror or exc}")


def _probe_output(path: str | None) -> None:
    """Fail before any evaluation when the output file cannot be opened
    for writing. An existing file is opened for appending, which keeps its
    contents; a missing one is created and removed again."""
    if path is None:
        return
    try:
        try:
            os.close(os.open(path, os.O_WRONLY | os.O_APPEND))
        except FileNotFoundError:
            # a new file, perhaps behind a dangling symbolic link
            target = os.path.realpath(path)
            os.close(os.open(target, os.O_WRONLY | os.O_CREAT | os.O_EXCL))
            os.remove(target)
    except OSError as exc:
        raise _unwritable(path, exc) from exc


GRID_HEADER = [
    "x0", "x1", "x2", "x3", "S_re", "S_im",
    "E1", "E2", "E3", "B1", "B2", "B3",
    "wave_residual", "laplacian_residual", "masked",
]


def _cmd_field_grid(scenario: Scenario, fmt: str, out: str | None) -> int:
    if scenario.grid is None:
        raise ScenarioError("field-grid requires a 'grid' section in the scenario")
    X = scenario.grid.array()
    # one retarded solve per charge over the whole grid carries S, the
    # field and both residuals; a cell is masked only for a geometric
    # failure, any other failure raises and exits 3
    jet, failure = prepotential_jets(scenario.charges, X)
    H = jet.hessian
    table = np.empty((len(X), len(GRID_HEADER)))
    table[:, :4] = X
    table[:, 4], table[:, 5] = jet.value.real, jet.value.imag
    table[:, 6:9], table[:, 9:12] = jet.field.real, jet.field.imag
    table[:, 12] = np.abs(H[:, 0, 0] - H[:, 1, 1] - H[:, 2, 2] - H[:, 3, 3])
    table[:, 13] = np.abs(H[:, 1, 1] + H[:, 2, 2] + H[:, 3, 3])
    table[:, 14] = failure != 0
    table[failure != 0, 4:14] = np.nan
    _write_table(GRID_HEADER, table, fmt, out, "field-grid")
    masked = Counter(ROW_FAILURES[code][0].__name__ for code in failure[failure != 0])
    reasons = ", ".join(f"{name}: {n}" for name, n in sorted(masked.items()))
    print(f"field-grid: {len(X)} cells, {sum(masked.values())} masked"
          + (f" ({reasons})" if reasons else ""), file=sys.stderr)
    return EXIT_OK


VERIFY_HEADER = ["check", "max_deviation", "tolerance", "passed", "seconds", "detail"]


def _require_closed_loops(scenario: Scenario) -> None:
    """ScenarioError naming the first open loop: a phase is measured round
    a closed loop only."""
    for i, loop in enumerate(scenario.loops):
        if not loop.closed:
            raise ScenarioError(f"loops[{i}]: the loop phase needs a closed loop")


def _cmd_verify(scenario, checks, seed, fmt, out) -> int:
    if scenario is not None and "loop-phase" in checks:
        _require_closed_loops(scenario)
    report = run_checks(checks, seed=seed, scenario=scenario)
    rows = [
        [r.name, r.max_deviation, r.tolerance, int(r.passed), r.elapsed_s, r.detail]
        for r in report.results
    ]
    _write_table(VERIFY_HEADER, rows, fmt, out, "verify")
    for r in report.results:
        status = "PASS" if r.passed else "FAIL"
        print(f"[{status}] {r.name}: max deviation {r.max_deviation:.3e} "
              f"(tolerance {r.tolerance:.1e}, {r.elapsed_s:.2f}s)", file=sys.stderr)
    return EXIT_OK if report.all_passed else EXIT_VERIFY_FAILED


LOOP_HEADER = [
    "loop", "delta_S_re", "delta_S_im", "winding", "residual",
    "samples", "status",
]


def _cmd_loop_phase(scenario: Scenario, fmt: str, out: str | None) -> int:
    if not scenario.loops:
        raise ScenarioError("loop-phase requires a non-empty 'loops' list in the scenario")
    _require_closed_loops(scenario)
    rows = []
    had_error = False
    nan = float("nan")
    # all loops and charges in one pass; a failing loop fails only its row
    for i, rep in enumerate(_stack_reports(scenario.charges, scenario.loop_stack)):
        if isinstance(rep, PrepotentialError):
            had_error = True
            rows.append([i, nan, nan, 0, nan, 0, f"ERROR: {rep}"])
            continue
        # one charge: its winding; several: the per-charge windings joined by ';'
        winding = (rep.windings[0] if len(rep.windings) == 1
                   else ";".join(str(w) for w in rep.windings))
        rows.append([
            i, rep.delta_S.real, rep.delta_S.imag, winding,
            rep.residual, rep.samples_used, rep.status,
        ])
    _write_table(LOOP_HEADER, rows, fmt, out, "loop-phase")
    if had_error:
        return EXIT_RUNTIME
    if any(row[6] == "tolerance-exceeded" for row in rows):
        return EXIT_VERIFY_FAILED
    return EXIT_OK


RELATIONS_HEADER = ["relation", "max_deviation", "tolerance", "passed"]


def _cmd_relations_dump(fmt: str, out: str | None) -> int:
    report = validate_relations()
    rows = [[c.name, c.max_deviation, c.tolerance, int(c.passed)] for c in report.checks]
    _write_table(RELATIONS_HEADER, rows, fmt, out, "relations")
    return EXIT_OK if report.all_passed else EXIT_VERIFY_FAILED


def nonnegative_int(text: str) -> int:
    """A --seed value: numpy's generators take integers of 0 or more.
    argparse names this function when int() rejects the text."""
    seed = int(text)
    if seed < 0:
        raise argparse.ArgumentTypeError(f"seed must be 0 or more, got {seed}")
    return seed


@functools.lru_cache(maxsize=None)
def _build_parser() -> argparse.ArgumentParser:
    """The CLI's parser, built once per process: parse_args keeps no state
    between calls."""
    parser = argparse.ArgumentParser(
        prog="prepotential",
        description="Field evaluation and verification for the complex "
                    "scalar potential of moving point charges.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, scenario_required: bool):
        p.add_argument("--scenario", required=scenario_required,
                       help="path to a scenario JSON file")
        p.add_argument("--out", default=None, help="output file (default stdout)")
        p.add_argument("--format", choices=("csv", "json"), default=None,
                       help="output format (default: scenario setting or csv)")

    common(sub.add_parser("field-grid", help="evaluate S and the field on a grid"),
           scenario_required=True)
    pv = sub.add_parser("verify", help="run named verification families")
    common(pv, scenario_required=False)
    pv.add_argument("--checks", default=None,
                    help=f"comma-separated subset of: {', '.join(CHECK_NAMES)}")
    pv.add_argument("--seed", type=nonnegative_int, default=DEFAULT_SEED,
                    help="seed for randomized checks, 0 or more")
    common(sub.add_parser("loop-phase", help="accumulated phase around loops"),
           scenario_required=True)
    common(sub.add_parser("relations-dump", help="dump matrix relation deviations"),
           scenario_required=False)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on bad usage, which matches the config-error code
        return EXIT_CONFIG if exc.code not in (0, None) else EXIT_OK

    try:
        scenario = None
        if getattr(args, "scenario", None):
            scenario = load_scenario(args.scenario)
        fmt = args.format or (scenario.output.format if scenario else "csv")
        out = args.out if args.out is not None else (
            scenario.output.path if scenario else None
        )
        _probe_output(out)

        if args.command == "field-grid":
            return _cmd_field_grid(scenario, fmt, out)
        if args.command == "verify":
            if args.checks:
                names = tuple(c.strip() for c in args.checks.split(",") if c.strip())
            elif scenario is not None and scenario.checks:
                names = scenario.checks
            else:
                names = CHECK_NAMES
            return _cmd_verify(scenario, names, args.seed, fmt, out)
        if args.command == "loop-phase":
            return _cmd_loop_phase(scenario, fmt, out)
        if args.command == "relations-dump":
            return _cmd_relations_dump(fmt, out)
        raise AssertionError(f"unhandled command {args.command}")
    except ScenarioError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except PrepotentialError as exc:
        print(f"runtime error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
