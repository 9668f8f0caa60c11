#!/usr/bin/env python3
"""Self-test of the benchmark's generator and reference checker.

    python3 perfbench/selftest.py

Run from the root of a source checkout (it imports ./src). Exits 0 when
every case passes. The checker must accept the bundled rest grid (every
cell good, the 11 on-axis cells masked for a geometric reason), and must
flag the two defects of ROADMAP item 4 that the program shows today: a
+1/-1 pair inside one loop reported as -2*pi*i, and an unmasked field of
the wrong size next to a sampled line's velocity jump. It must also class
a stencil field that is off near a moving charge's singular axis.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

import generate  # noqa: E402
import reference  # noqa: E402
from prepotential import bundled_scenario_path  # noqa: E402
from prepotential.cli import main as cli_main  # noqa: E402
from prepotential.loops import winding_number  # noqa: E402
from prepotential.scenario import load_scenario  # noqa: E402


def _run(argv) -> int:
    with contextlib.redirect_stderr(io.StringIO()):
        return cli_main(argv)


def _call(tmp: Path, command: str, doc: dict) -> tuple[int, list[dict]]:
    path, out = tmp / f"{command}.json", tmp / f"{command}.csv"
    path.write_text(json.dumps(doc))
    code = _run([command, "--scenario", str(path), "--out", str(out)])
    return code, reference.read_csv(out)


def case_bundled_rest_grid(tmp: Path) -> None:
    path = bundled_scenario_path("rest_charge")
    doc = json.loads(path.read_text())
    out = tmp / "rest.csv"
    assert _run(["field-grid", "--scenario", str(path), "--out", str(out)]) == 0
    rows = reference.read_csv(out)
    verdict = reference.check_grid(doc, rows)
    assert verdict.attempted == 1331 and verdict.failed == 0, verdict.notes
    masked = [r for r in rows if r["masked"] == "1"]
    assert len(masked) == 11, len(masked)
    for r in masked:
        x = np.array([float(r[k]) for k in ("x0", "x1", "x2", "x3")])
        assert reference.reference_cell(doc["charges"], x).singular == "singular axis"

    # a 1e-3 relative error on one good cell is caught and not excused
    bad = [dict(r) for r in rows]
    k = next(i for i, r in enumerate(bad) if r["masked"] == "0")
    bad[k]["E1"] = repr(float(bad[k]["E1"]) * (1 + 1e-3) + 1e-3)
    verdict = reference.check_grid(doc, bad)
    assert dict(verdict.failures) == {reference.UNATTRIBUTED: 1}, verdict.failures
    # a regular cell reported as masked counts as a numerical mask
    bad = [dict(r) for r in rows]
    bad[k]["masked"] = "1"
    verdict = reference.check_grid(doc, bad)
    assert dict(verdict.failures) == {reference.NUMERICAL_MASK: 1}, verdict.failures


def case_pair_inside_one_loop(tmp: Path) -> None:
    doc = {
        "version": 1,
        "charges": [
            {"q": 1.0, "line": {"kind": "rest", "position": [0.0, 0.0, 0.0]}},
            {"q": -1.0, "line": {"kind": "rest", "position": [0.4, 0.0, 0.0]}},
        ],
        "loops": [{"kind": "circle", "center": [0.2, 0.0, 0.5], "radius": 1.0,
                   "time": 0.0, "turns": 1, "samples": 240}],
    }
    code, rows = _call(tmp, "loop-phase", doc)
    assert code == 0 and rows[0]["status"] == "ok", (code, rows)
    assert abs(float(rows[0]["delta_S_im"]) + 2 * math.pi) < 1e-8, rows
    verdict = reference.check_loops(doc, {"windings": [[-1, -1]]}, rows)
    assert dict(verdict.failures) == {reference.FIRST_CHARGE_ONLY: 1}, verdict.notes


def case_sampled_velocity_jump(tmp: Path) -> None:
    # at rest until t = -3, then moving at 0.5 along x1
    line = {"kind": "sampled", "taus": [-10.0, -3.0, 0.0, 2.0],
            "events": [[-10, 0, 0, 0], [-3, 0, 0, 0], [0, 1.5, 0, 0], [2, 2.5, 0, 0]]}
    doc = {
        "version": 1,
        "charges": [{"q": 1.0, "line": line}],
        # first cell 5e-4 outside the jump's light cone (r = 3), second far from it
        "grid": {"time": 0.0, "origin": [0.0, 0.6 * 3.0005, 0.8 * 3.0005],
                 "axes": [[0.0, 0.6, 0.8]], "extents": [0.5], "resolution": [2]},
    }
    code, rows = _call(tmp, "field-grid", doc)
    assert code == 0 and [r["masked"] for r in rows] == ["0", "0"], rows
    e_norm = math.hypot(*(float(rows[0][f"E{j}"]) for j in (1, 2, 3)))
    coulomb = 1.0 / 3.0005**2
    assert e_norm > 10 * coulomb, e_norm
    verdict = reference.check_grid(doc, rows)
    assert verdict.attempted == 2, verdict
    assert dict(verdict.failures) == {reference.KNOT_CORNER: 1}, verdict.notes


def case_near_axis_stencil(tmp: Path) -> None:
    # charge moving at 0.9 along x1; the first cell sees its retarded point
    # (t = -1) 0.01 rad off the singular axis, the second far from it
    doc = {
        "version": 1,
        "charges": [{"q": 1.0, "line": {"kind": "uniform", "event": [0, 0, 0, 0],
                                        "velocity": [0.9, 0.0, 0.0]}}],
        "grid": {"time": 1.0, "origin": [-0.9 + 2 * math.sin(0.01), 0.0, 2 * math.cos(0.01)],
                 "axes": [[1.0, 0.0, 0.0]], "extents": [1.0], "resolution": [2]},
    }
    code, rows = _call(tmp, "field-grid", doc)
    assert code == 0 and [r["masked"] for r in rows] == ["0", "0"], rows
    verdict = reference.check_grid(doc, rows)
    assert dict(verdict.failures) == {reference.NEAR_AXIS_STENCIL: 1}, verdict.notes


def case_generator(tmp: Path) -> None:
    for wl in generate.WORKLOADS:
        a, b = generate.generate(wl, 5, 1), generate.generate(wl, 5, 1)
        assert json.dumps(a) == json.dumps(b), wl
        assert json.dumps(a) != json.dumps(generate.generate(wl, 6, 1)), wl
    # the geometric truth agrees with the program's crossing-count winding
    doc, side = generate.generate("loops", 5, 0)
    path = tmp / "loops.json"
    path.write_text(json.dumps(doc))
    scenario = load_scenario(path)
    for loop, want in zip(scenario.loops, side["truth"]["windings"]):
        got = [winding_number(loop, ch) for ch in scenario.charges]
        assert got == want, (got, want)


CASES = [case_bundled_rest_grid, case_pair_inside_one_loop,
         case_sampled_velocity_jump, case_near_axis_stencil, case_generator]


def main() -> int:
    failed = 0
    with tempfile.TemporaryDirectory(dir=Path(__file__).resolve().parent) as tmp:
        for case in CASES:
            try:
                case(Path(tmp))
            except AssertionError as exc:
                failed += 1
                print(f"FAIL {case.__name__}: {exc}")
            else:
                print(f"ok   {case.__name__}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
