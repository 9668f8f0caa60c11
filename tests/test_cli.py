"""CLI behavior: output schemas, determinism, exit codes."""

import csv
import dataclasses
import errno
import hashlib
import json
import math
import os
import re
import stat
import subprocess
import sys
import types
from decimal import Decimal, localcontext
from pathlib import Path

import numpy as np
import pytest

import prepotential
from prepotential import cli, matrices, potential, spacetime, verify
from prepotential.cli import main
from prepotential.errors import ChargeSystemError, NotNullError, StepTooLargeError
from prepotential.fields import FaradayVector, boosted_coulomb_oracle, coulomb_oracle
from prepotential.scenario import bundled_scenario_path, load_scenario
from prepotential.spacetime import FourVector

REST = str(bundled_scenario_path("rest_charge"))
UNIFORM = str(bundled_scenario_path("uniform_charge"))


@pytest.fixture(scope="module")
def grid_runs(tmp_path_factory):
    """Two independent field-grid runs of the bundled rest-charge scenario."""
    d = tmp_path_factory.mktemp("grids")
    out1, out2 = d / "a.csv", d / "b.csv"
    code1 = main(["field-grid", "--scenario", REST, "--out", str(out1)])
    code2 = main(["field-grid", "--scenario", REST, "--out", str(out2)])
    return code1, code2, out1.read_bytes(), out2.read_bytes()


class TestFieldGrid:
    def test_exit_zero(self, grid_runs):
        assert grid_runs[0] == 0 and grid_runs[1] == 0

    def test_byte_identical_reruns(self, grid_runs):
        assert grid_runs[2] == grid_runs[3]

    def test_header_and_row_count(self, grid_runs):
        lines = grid_runs[2].decode().splitlines()
        assert lines[0] == ("x0,x1,x2,x3,S_re,S_im,E1,E2,E3,B1,B2,B3,"
                            "wave_residual,laplacian_residual,masked")
        assert len(lines) == 1 + 11 * 11 * 11

    def test_masked_cells_flagged_not_dropped(self, grid_runs):
        rows = list(csv.DictReader(grid_runs[2].decode().splitlines()))
        masked = [r for r in rows if r["masked"] == "1"]
        # the grid sweeps across x1 = x2 = 0, which is the singular axis
        assert len(masked) == 11
        for r in masked:
            assert float(r["x1"]) == 0.0 and float(r["x2"]) == 0.0
            assert r["S_re"] == "nan"

    def test_floats_roundtrip_17_digits(self, grid_runs):
        rows = list(csv.DictReader(grid_runs[2].decode().splitlines()))
        r = next(r for r in rows if r["masked"] == "0")
        v = float(r["E1"])
        assert format(v, ".17g") == r["E1"]

    def test_rest_charge_dataset_magnetic_part_negligible(self, grid_runs):
        rows = list(csv.DictReader(grid_runs[2].decode().splitlines()))
        emax = bmax = 0.0
        for r in rows:
            if r["masked"] == "1":
                continue
            emax = max(emax, *(abs(float(r[k])) for k in ("E1", "E2", "E3")))
            bmax = max(bmax, *(abs(float(r[k])) for k in ("B1", "B2", "B3")))
        assert bmax < 1e-8 * emax

    def test_json_format(self, tmp_path):
        out = tmp_path / "grid.json"
        sc = {
            "version": 1,
            "charges": [{"q": 1.0, "line": {"kind": "rest", "position": [0, 0, 0]}}],
            "grid": {"time": 0.0, "origin": [0.5, 0.5, 0.5],
                     "axes": [[1, 0, 0]], "extents": [1.0], "resolution": [4]},
        }
        scen = tmp_path / "sc.json"
        scen.write_text(json.dumps(sc))
        assert main(["field-grid", "--scenario", str(scen),
                     "--format", "json", "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert doc["schema_version"] == 1
        assert doc["kind"] == "field-grid"
        assert len(doc["records"]) == 4

    def test_grid_section_required(self, tmp_path):
        scen = tmp_path / "nogrid.json"
        scen.write_text(json.dumps({
            "version": 1,
            "charges": [{"q": 1.0, "line": {"kind": "rest", "position": [0, 0, 0]}}],
        }))
        assert main(["field-grid", "--scenario", str(scen)]) == 2

    def test_uniform_motion_dataset_b_is_v_cross_e(self, tmp_path):
        out = tmp_path / "u.csv"
        assert main(["field-grid", "--scenario", UNIFORM, "--out", str(out)]) == 0
        rows = list(csv.DictReader(out.read_text().splitlines()))
        v = np.array([0.0, 0.0, 0.5])
        worst = 0.0
        for r in rows:
            if r["masked"] == "1":
                continue
            E = np.array([float(r["E1"]), float(r["E2"]), float(r["E3"])])
            B = np.array([float(r["B1"]), float(r["B2"]), float(r["B3"])])
            if np.linalg.norm(E) < 1e-3:
                continue
            worst = max(worst, np.abs(B - np.cross(v, E)).max() / np.linalg.norm(E))
        assert worst < 1e-4


def _grid_rows(tmp_path, doc, capsys=None):
    scen, out = tmp_path / "grid.json", tmp_path / "grid.csv"
    scen.write_text(json.dumps(doc))
    assert main(["field-grid", "--scenario", str(scen), "--out", str(out)]) == 0
    return list(csv.DictReader(out.read_text().splitlines()))


def _written(tmp_path, doc) -> str:
    scen = tmp_path / "scenario.json"
    scen.write_text(json.dumps(doc))
    return str(scen)


def _max_field_error(row, oracle):
    got = np.array([float(row[f"E{j}"]) + 1j * float(row[f"B{j}"]) for j in (1, 2, 3)])
    want = oracle.as_array()
    return float(np.abs(got - want).max()) / float(np.abs(want).max())


def test_grid_array_writes_as_its_rows(tmp_path):
    # the field grid's array path against the row path of the other tables,
    # on extreme, signed-zero, infinite, subnormal and NaN values
    rng = np.random.default_rng(5)
    table = rng.standard_normal((40, 15)) * 10.0 ** rng.integers(-300, 300, (40, 15))
    table[:, 14] = rng.integers(0, 2, 40)
    table[3, 4:14] = np.nan
    table[5, :4] = -0.0, np.inf, -np.inf, 5e-324
    rows = [row[:-1] + [int(row[-1])] for row in table.tolist()]
    for fmt in ("csv", "json"):
        a, b = tmp_path / f"a.{fmt}", tmp_path / f"b.{fmt}"
        cli._write_table(cli.GRID_HEADER, table, fmt, str(a), "field-grid")
        cli._write_table(cli.GRID_HEADER, rows, fmt, str(b), "field-grid")
        assert a.read_bytes() == b.read_bytes()


# A rest charge masks cell 3 (x = (2, 3e-8, 0) is on its axis); cell 1 is
# 3e-8 from a sampled line moving at v = 0.5, the near-line case of
# TestFieldGridMasking.test_near_line_cell_is_exact.
_U_HALF = np.array([2.0, 1.0, 0.0, 0.0]) / math.sqrt(3.0)
MASKED_NEAR_LINE_GRID = {
    "version": 1,
    "charges": [
        {"q": 1.0, "line": {"kind": "rest", "position": [2.0, 3e-8, 1.0]}},
        {"q": -1.0, "line": {"kind": "sampled", "taus": [-10.0, -4.0, 2.0],
                             "events": [(t * _U_HALF).tolist() for t in (-10.0, -4.0, 2.0)]}},
    ],
    "grid": {"time": 0.0, "origin": [-1.0, 3e-8, 0.0], "axes": [[1.0, 0.0, 0.0]],
             "extents": [4.0], "resolution": [5]},
}

# sha256 of the field-grid outputs, recorded when the Hessian became a sum
# of outer products of 4-vectors. That moved only the wave_residual and
# laplacian_residual columns (GOLDEN_GRID_COLUMNS_SHA256 pins the rest).
GOLDEN_GRID_SHA256 = {
    ("rest_charge", "csv"): "b79291f04686376cb145fda8c0503a5bfd15999718f6d63dc9bf04b2595b8448",
    ("rest_charge", "json"): "148a15245872a6e218c63acfcdd77e1f450cbdddac93f1ddc31b48515b95df68",
    ("uniform_charge", "csv"): "33f001b2a3983cbe0a70c963309f1d36a8dea6f4306064ca0bd79c781aaa86f0",
    ("uniform_charge", "json"): "b00c46191c7202192dcb5f9d9318f0b0586d6cfe341a5ed7f6dcc4c348d9d4ec",
    ("masked_near_line", "csv"): "68d11dccfbc3f18a1cd6c8f44f99da4572a393490d9b3578952fbfc53d9d5bb5",
    ("masked_near_line", "json"): "113cb5179ddd97aa4814c72d726664e28fd089c8d19c183d8e4c47b026c25558",
    ("mixed_charges", "csv"): "51f26d8115ff7389b470dfa54daead37c20d8c6b4b37d7be7361c7f6dd2b7111",
}

GOLDEN_GRID_SUMMARY = {
    "rest_charge": "field-grid: 1331 cells, 11 masked (SingularAxisError: 11)",
    "uniform_charge": "field-grid: 441 cells, 1 masked (SingularAxisError: 1)",
    "masked_near_line": "field-grid: 5 cells, 1 masked (SingularAxisError: 1)",
    "mixed_charges": "field-grid: 32 cells, 0 masked",
}


# sha256 of the field-grid CSV outputs without the wave_residual and
# laplacian_residual columns: the x, S, E, B and masked columns, recorded
# while the Hessian was still formed as J^T h J - (g.u) M by matmuls. The
# residuals are sums of rounded Hessian entries, so a rewrite of the
# Hessian may move them; it must not move these.
GOLDEN_GRID_COLUMNS_SHA256 = {
    "rest_charge": "de70daa811d44d21abe3d30aa98f3d1fba4f65d795c62fadac8101a78676e904",
    "uniform_charge": "fc2a5d82be6c514dabb01f035fd50cbfaaf31a0114de58f3463ec23028c45d4f",
    "masked_near_line": "b1d6850396d1295581070d0c7965e6943d6cdf246297767cf3631104eb1e2c12",
    "mixed_charges": "f5e5204bdf17e4b4991d8952e442e9cb5c2e4cc1858a9de77e54da1a47a40dd6",
    "at_rest": "4b8a0f62adcc46117ede3c77b731ff89d2586c3a0f833bc1e5e5cd380a2c5662",
}


def _sha256_without_residuals(csv_bytes: bytes) -> str:
    """sha256 of a field-grid CSV with its two residual columns dropped."""
    lines = csv_bytes.decode().splitlines()
    drop = {cli.GRID_HEADER.index("wave_residual"), cli.GRID_HEADER.index("laplacian_residual")}
    kept = [",".join(v for i, v in enumerate(line.split(",")) if i not in drop)
            for line in lines]
    return hashlib.sha256("\n".join(kept).encode()).hexdigest()


def _golden_grid(tmp_path, name: str, fmt: str) -> bytes:
    docs = {"masked_near_line": MASKED_NEAR_LINE_GRID, "mixed_charges": MIXED_GRID}
    if name in docs:
        scen = tmp_path / "grid.json"
        scen.write_text(json.dumps(docs[name]))
    else:
        scen = bundled_scenario_path(name)
    out = tmp_path / f"grid.{fmt}"
    assert main(["field-grid", "--scenario", str(scen), "--format", fmt,
                 "--out", str(out)]) == 0
    return out.read_bytes()


@pytest.mark.parametrize("name, fmt", sorted(GOLDEN_GRID_SHA256))
def test_field_grid_golden_bytes(tmp_path, capsys, name, fmt):
    out = _golden_grid(tmp_path, name, fmt)
    assert hashlib.sha256(out).hexdigest() == GOLDEN_GRID_SHA256[name, fmt]
    assert GOLDEN_GRID_SUMMARY[name] in capsys.readouterr().err


@pytest.mark.parametrize("name", sorted(name for name, fmt in GOLDEN_GRID_SHA256 if fmt == "csv"))
def test_field_grid_golden_columns(tmp_path, name):
    out = _golden_grid(tmp_path, name, "csv")
    assert _sha256_without_residuals(out) == GOLDEN_GRID_COLUMNS_SHA256[name]


def _near_axis_polygon(i: int) -> list:
    """A polygon whose first edge runs 10^-(3+i) above the axis of a rest
    charge at (0.2, 0.1), closed by 2 + i % 3 vertices below it."""
    gap = 10.0 ** -(3 + i)
    below = [[0.2 + 1.1 * math.cos(t), -0.1 - 0.8 * math.sin(t)]
             for t in np.linspace(0.3, math.pi - 0.3, 2 + i % 3)]
    verts = [[1.1 - 0.1 * i, 0.1 + gap], [-0.4 - 0.1 * i, 0.1 + gap]] + below[::-1]
    return [[0.0, x1, x2, 0.4] for x1, x2 in verts]


# A rest, a uniform and a 5-knot sampled charge; five circles, each round
# some of them, and four polygons with an edge near the rest charge's axis.
_KNOTS = [[-12.0, -3.0, 0.5, 0.0], [-8.0, -1.8, 0.6, 0.0], [-4.0, -0.4, 0.9, 0.1],
          [-1.5, 0.3, 1.6, 0.1], [1.0, 0.5, 2.5, 0.0]]
MIXED_LOOPS = {
    "version": 1,
    "charges": [
        {"q": 1.0, "line": {"kind": "rest", "position": [0.2, 0.1, 0.0]}},
        {"q": -0.7, "line": {"kind": "uniform", "event": [0.0, -1.0, 1.0, 0.0],
                             "velocity": [0.2, -0.1, 0.4]}},
        {"q": 1.3, "line": {"kind": "sampled", "taus": [k[0] for k in _KNOTS],
                            "events": _KNOTS}},
    ],
    "loops": [{"kind": "circle", "center": [x1, x2, 0.4], "radius": r, "turns": turns,
               "samples": 48}
              for x1, x2, r, turns in [(0.0, 0.0, 1.0, 1), (0.5, 0.5, 2.5, -1),
                                       (-1.0, 1.0, 0.7, 2), (3.0, -2.0, 0.5, 1),
                                       (0.4, 1.9, 0.6, -1)]]
             + [{"kind": "points", "events": _near_axis_polygon(i)} for i in range(4)],
}

# The charges of MIXED_LOOPS on 4 x 4 x 2 cells, whose retarded points lie
# on the last two segments of the sampled line.
MIXED_GRID = {
    "version": 1,
    "charges": MIXED_LOOPS["charges"],
    "grid": {"time": 0.5, "origin": [-1.5, -1.0, 0.2], "axes": [[1, 0, 0], [0, 1, 0], [0, 0, 1]],
             "extents": [3.0, 3.0, 0.6], "resolution": [4, 4, 2]},
}

# sha256 of the loop-phase CSV, recorded before the Minkowski dots of the
# retarded solve and the zeta quotient moved from rows of 4 to columns
GOLDEN_LOOPS_SHA256 = {
    "rest_charge": "3899a2882876282f752c09966f5dc7f727da269a6481d6490916fab305a42e2a",
    "mixed_loops": "478959ad4348d4a1fe79a297bea6d82f14c89c5a59bfead617bf92ea2437f387",
}


@pytest.mark.parametrize("name", sorted(GOLDEN_LOOPS_SHA256))
def test_loop_phase_golden_bytes(tmp_path, name):
    if name == "mixed_loops":
        scen = tmp_path / "loops.json"
        scen.write_text(json.dumps(MIXED_LOOPS))
    else:
        scen = bundled_scenario_path(name)
    out = tmp_path / "loops.csv"
    assert main(["loop-phase", "--scenario", str(scen), "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == GOLDEN_LOOPS_SHA256[name]



# sha256 of the relations-dump outputs, recorded while each relation family
# was still checked one (j, k) pair at a time
GOLDEN_RELATIONS_SHA256 = {
    "csv": "0e68f4d143b76339555eb5fb59df8ecff20f0d680856e071b269a30131a751fb",
    "json": "ad04661e7cd6d0e33c7edbb37907343a4c71ea1b625dee82b033fc2092950aa4",
}


@pytest.mark.parametrize("fmt", sorted(GOLDEN_RELATIONS_SHA256))
def test_relations_dump_golden_bytes(tmp_path, fmt):
    out = tmp_path / f"relations.{fmt}"
    assert main(["relations-dump", "--format", fmt, "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == GOLDEN_RELATIONS_SHA256[fmt]

# One charge at rest at the origin, given as each kind of line: a rest line
# is uniform motion with u = e0, and a sampled line is uniform motion on the
# segment that holds the retarded point.
AT_REST_LINES = {
    "rest": {"kind": "rest", "position": [0.0, 0.0, 0.0]},
    "uniform": {"kind": "uniform", "event": [0.0, 0.0, 0.0, 0.0], "velocity": [0.0, 0.0, 0.0]},
    "sampled": {"kind": "sampled", "taus": [-50.0, 50.0],
                "events": [[-50.0, 0.0, 0.0, 0.0], [50.0, 0.0, 0.0, 0.0]]},
}


@pytest.mark.parametrize("kind", sorted(AT_REST_LINES))
def test_every_line_kind_at_rest_gives_the_rest_bytes(tmp_path, kind):
    # the rest_charge scenario on 5 x 5 x 5 cells, with its loops
    doc = json.loads(Path(REST).read_text())
    doc["grid"]["resolution"] = [5, 5, 5]
    doc["charges"] = [{"q": 1.0, "line": AT_REST_LINES[kind]}]
    scen = tmp_path / "scenario.json"
    scen.write_text(json.dumps(doc))
    got = {}
    for command in ("field-grid", "loop-phase"):
        out = tmp_path / f"{command}.csv"
        assert main([command, "--scenario", str(scen), "--out", str(out)]) == 0
        got[command] = hashlib.sha256(out.read_bytes()).hexdigest()
        if command == "field-grid":
            got["columns"] = _sha256_without_residuals(out.read_bytes())
    assert got == {
        "field-grid": "49ab28e2fd804c6a4ea8fccd5b9f9b3bbdbc5e2e64d2db2f68472f01e743c165",
        "columns": GOLDEN_GRID_COLUMNS_SHA256["at_rest"],
        "loop-phase": GOLDEN_LOOPS_SHA256["rest_charge"],
    }


class TestFieldGridAccuracy:
    """Cells where the stencil Hessian gave wrong unmasked fields."""

    def test_cell_next_to_sampled_velocity_jump(self, tmp_path):
        # at rest until t = -3, then moving at 0.5 along x1; the first cell
        # is 5e-4 outside the jump's light cone (r = 3), where a stencil
        # straddles the jump
        line = {"kind": "sampled", "taus": [-10.0, -3.0, 0.0, 2.0],
                "events": [[-10, 0, 0, 0], [-3, 0, 0, 0], [0, 1.5, 0, 0], [2, 2.5, 0, 0]]}
        rows = _grid_rows(tmp_path, {
            "version": 1,
            "charges": [{"q": 1.0, "line": line}],
            "grid": {"time": 0.0, "origin": [0.0, 0.6 * 3.0005, 0.8 * 3.0005],
                     "axes": [[0.0, 0.6, 0.8]], "extents": [0.5], "resolution": [2]},
        })
        assert [r["masked"] for r in rows] == ["0", "0"]
        for r in rows:
            # both cells see the charge on its rest segment
            X = np.array([float(r["x1"]), float(r["x2"]), float(r["x3"])])
            assert _max_field_error(r, coulomb_oracle(1.0, X)) < 1e-8

    def test_cell_near_moving_charge_axis(self, tmp_path):
        # charge moving at 0.9 along x1; the first cell sees its retarded
        # point (t = -1) 0.01 rad off the singular axis
        rows = _grid_rows(tmp_path, {
            "version": 1,
            "charges": [{"q": 1.0, "line": {"kind": "uniform", "event": [0, 0, 0, 0],
                                            "velocity": [0.9, 0.0, 0.0]}}],
            "grid": {"time": 1.0,
                     "origin": [-0.9 + 2 * math.sin(0.01), 0.0, 2 * math.cos(0.01)],
                     "axes": [[1.0, 0.0, 0.0]], "extents": [1.0], "resolution": [2]},
        })
        assert [r["masked"] for r in rows] == ["0", "0"]
        for r in rows:
            x = FourVector(*(float(r[k]) for k in ("x0", "x1", "x2", "x3")))
            oracle = boosted_coulomb_oracle(1.0, [0.9, 0.0, 0.0], x)
            assert _max_field_error(r, oracle) < 1e-8


class TestFieldGridMasking:
    def test_masks_counted_by_geometric_reason(self, tmp_path, capsys):
        # cell 0 is on the rest charge's axis; cells 2 and 3 see their past
        # light cone before the sampled charge's first sample
        rows = _grid_rows(tmp_path, {
            "version": 1,
            "charges": [
                {"q": 1.0, "line": {"kind": "rest", "position": [0, 0, 0]}},
                {"q": 1.0, "line": {"kind": "sampled", "taus": [-5.0, 5.0],
                                    "events": [[-5, 0, 3, 0], [5, 0, 3, 0]]}},
            ],
            "grid": {"time": 0.0, "origin": [0.0, 0.0, 1.0], "axes": [[1.0, 0.0, 0.0]],
                     "extents": [9.0], "resolution": [4]},
        })
        assert [r["masked"] for r in rows] == ["1", "0", "1", "1"]
        err = capsys.readouterr().err
        assert ("4 cells, 3 masked (NoRetardedIntersectionError: 2, "
                "SingularAxisError: 1)") in err

    @pytest.mark.parametrize("order, tally", [
        ((0, 1), "4 cells, 2 masked (ObserverOnWorldLineError: 1, SingularAxisError: 1)"),
        ((1, 0), "4 cells, 2 masked (NoRetardedIntersectionError: 1, "
                 "ObserverOnWorldLineError: 1)"),
    ])
    def test_cell_tallied_under_first_failing_charge(self, tmp_path, capsys, order, tally):
        # cell 0 is on the rest charge's axis and sees its past light cone
        # before the sampled charge's first sample; cell 3 is on the
        # sampled charge's line only
        charges = [
            {"q": 1.0, "line": {"kind": "rest", "position": [0, 0, 0]}},
            {"q": -0.5, "line": {"kind": "sampled", "taus": [-2.5, 5.0],
                                 "events": [[-2.5, 3, 0, 1], [5, 3, 0, 1]]}},
        ]
        rows = _grid_rows(tmp_path, {
            "version": 1,
            "charges": [charges[i] for i in order],
            "grid": {"time": 0.0, "origin": [0.0, 0.0, 1.0], "axes": [[1.0, 0.0, 0.0]],
                     "extents": [3.0], "resolution": [4]},
        })
        assert [r["masked"] for r in rows] == ["1", "0", "0", "1"]
        assert tally in capsys.readouterr().err

    def test_numerical_failure_exits_three(self, tmp_path, monkeypatch):
        def failing_kernel(system, X):
            try:
                raise StepTooLargeError("step crossed too much phase")
            except StepTooLargeError as exc:
                raise ChargeSystemError(0, str(exc)) from exc

        monkeypatch.setattr(cli, "prepotential_jets", failing_kernel)
        assert main(["field-grid", "--scenario", REST,
                     "--out", str(tmp_path / "g.csv")]) == 3

    def test_overflowing_cell_exits_three(self, tmp_path, capsys):
        # both cells are finite, but their squares overflow; no RuntimeWarning
        # escapes (the suite makes one an error)
        scen, out = tmp_path / "grid.json", tmp_path / "grid.csv"
        for line in ({"kind": "rest", "position": [0, 0, 0]},
                     {"kind": "uniform", "event": [0, 0, 0, 0], "velocity": [0.3, -0.2, 0.4]}):
            scen.write_text(json.dumps({
                "version": 1,
                "charges": [{"q": 1.0, "line": line}],
                "grid": {"time": 0.0, "origin": [1e308, 0.5, 0.5], "axes": [[1.0, 0.0, 0.0]],
                         "extents": [1.0], "resolution": [2]},
            }))
            assert main(["field-grid", "--scenario", str(scen), "--out", str(out)]) == 3
            assert not out.exists()
            assert capsys.readouterr().err == ("runtime error: charge 0: S, its Hessian or "
                                               "field is not finite at (0.0, 1e+308, 0.5, 0.5)\n")

    def test_overflowing_grid_is_a_configuration_error(self, tmp_path, capsys):
        # the last two cells lie at x1 = inf; the grid is rejected at load,
        # with no RuntimeWarning (the suite makes one an error)
        scen, out = tmp_path / "grid.json", tmp_path / "grid.csv"
        scen.write_text(json.dumps({
            "version": 1,
            "charges": [{"q": 1.0, "line": {"kind": "rest", "position": [0, 0, 0]}}],
            "grid": {"time": 0.0, "origin": [1e308, 0.5, 0.5], "axes": [[1e308, 0.0, 0.0]],
                     "extents": [10.0], "resolution": [3]},
        }))
        assert main(["field-grid", "--scenario", str(scen), "--out", str(out)]) == 2
        assert not out.exists()
        assert ("configuration error: grid: every cell must be finite, but a corner "
                "cell overflows") in capsys.readouterr().err

    def test_one_solve_and_one_quotient_call_per_system(self, tmp_path, monkeypatch):
        # the three charges of MIXED_GRID are solved as one table of 3 x 32
        # rows, and the one charge of rest_charge as a table of one line of
        # 1331 rows; no charge is solved on its own
        table_rows, zeta_quotients = potential._retarded_table_rows, potential._zeta_quotients

        def counting_solve(table, X):
            out = table_rows(table, X)
            solves.append(len(out[1]))
            return out

        def counting_quotients(A):
            quotients.append(len(A))
            return zeta_quotients(A)

        def single(line, X):
            raise AssertionError("a charge of the system was solved on its own")

        monkeypatch.setattr(potential, "_retarded_table_rows", counting_solve)
        monkeypatch.setattr(potential, "_zeta_quotients", counting_quotients)
        monkeypatch.setattr(potential, "retarded_rows", single)
        for scenario, rows in ((_written(tmp_path, MIXED_GRID), 3 * 32), (REST, 1331)):
            solves, quotients = [], []
            assert main(["field-grid", "--scenario", scenario,
                         "--out", str(tmp_path / "g.csv")]) == 0
            assert solves == quotients == [rows]

    def test_failing_quotient_names_its_charge(self, tmp_path, monkeypatch, capsys):
        # only charge 1, the uniform one, has retarded vectors with a3 > 0.5
        # at these cells; a batch-level error there names charge 1
        zeta_quotients = potential._zeta_quotients

        def failing(A):
            if (A[:, 3] > 0.5).any():
                raise NotNullError("vector is not null")
            return zeta_quotients(A)

        doc = dict(MIXED_GRID, grid={"time": 0.5, "origin": [-1.5, -1.0, 0.0],
                                     "axes": [[1, 0, 0]], "extents": [3.0], "resolution": [4]})
        charges = load_scenario(_written(tmp_path, doc)).charges
        X = np.array([[0.5, -1.5 + i, -1.0, 0.0] for i in range(4)])
        for k, charge in enumerate(charges):
            A = spacetime.retarded_rows(charge.line, X)[1]
            assert (A[:, 3] > 0.5).any() == (k == 1)
        monkeypatch.setattr(potential, "_zeta_quotients", failing)
        assert main(["field-grid", "--scenario", _written(tmp_path, doc),
                     "--out", str(tmp_path / "g.csv")]) == 3
        assert "runtime error: charge 1: vector is not null" in capsys.readouterr().err

    def test_near_line_cell_is_exact(self, tmp_path, capsys):
        # cell 0 is 3e-8 from a sampled line moving at v = 0.5 and 4.6 from
        # the knot of its segment
        u = np.array([2.0, 1.0, 0.0, 0.0]) / math.sqrt(3.0)
        taus = [-10.0, -4.0, 2.0]
        rows = _grid_rows(tmp_path, {
            "version": 1,
            "charges": [
                {"q": 1.0, "line": {"kind": "rest", "position": [0, -3, 0]}},
                {"q": 1.0, "line": {"kind": "sampled", "taus": taus,
                                    "events": [(t * u).tolist() for t in taus]}},
            ],
            "grid": {"time": 0.0, "origin": [0.0, 3e-8, 0.0], "axes": [[0.0, 1.0, 0.0]],
                     "extents": [3.0], "resolution": [4]},
        })
        assert [r["masked"] for r in rows] == ["0"] * 4
        assert "4 cells, 0 masked" in capsys.readouterr().err
        for r in rows:
            x = [float(r[k]) for k in ("x1", "x2", "x3")]
            want = (_exact_uniform_field([0.0, -3.0, 0.0], [0.0] * 3, x)
                    + _exact_uniform_field([0.0] * 3, u[1:] / u[0], x))
            assert _max_field_error(r, FaradayVector.from_array(want)) <= 1e-14


def _exact_uniform_field(position, velocity, x):
    """E + iB at time 0 and place x of a unit charge at `position` at time
    0 moving with `velocity`, from the exact values of the float inputs
    to 60 digits: E = (1 - v^2) R / (|R|^2 - (R x v)^2)^(3/2) with R the
    separation from the present position, B = v x E."""
    with localcontext() as ctx:
        ctx.prec = 60
        R = [Decimal(float(p)) - Decimal(float(c)) for p, c in zip(x, position)]
        v = [Decimal(float(c)) for c in velocity]
        RxV = [R[1] * v[2] - R[2] * v[1], R[2] * v[0] - R[0] * v[2],
               R[0] * v[1] - R[1] * v[0]]
        k = (1 - sum(c * c for c in v)) / (
            sum(c * c for c in R) - sum(c * c for c in RxV)).sqrt() ** 3
        E = [k * c for c in R]
        B = [v[1] * E[2] - v[2] * E[1], v[2] * E[0] - v[0] * E[2],
             v[0] * E[1] - v[1] * E[0]]
        return np.array([float(e) + 1j * float(b) for e, b in zip(E, B)])


class TestExitCodes:
    def test_missing_scenario_file(self):
        assert main(["field-grid", "--scenario", "/nonexistent/path.json"]) == 2

    def test_invalid_json(self, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text("{ broken")
        assert main(["field-grid", "--scenario", str(p)]) == 2

    def test_empty_grid_rejected(self, tmp_path):
        p = tmp_path / "empty.json"
        p.write_text(json.dumps({
            "version": 1,
            "charges": [{"q": 1.0, "line": {"kind": "rest", "position": [0, 0, 0]}}],
            "grid": {"time": 0, "origin": [0, 0, 0], "axes": [[1, 0, 0]],
                     "extents": [1.0], "resolution": [0]},
        }))
        assert main(["field-grid", "--scenario", str(p)]) == 2

    def test_unknown_check_name(self):
        assert main(["verify", "--checks", "bogus-check"]) == 2

    def test_bad_usage(self):
        assert main(["field-grid"]) == 2  # --scenario is required

    @pytest.mark.parametrize("flag", [["--seed", "7"], ["--tolerance-scale", "2"]])
    @pytest.mark.parametrize("command", ["field-grid", "loop-phase", "relations-dump"])
    def test_verify_only_flags_rejected(self, tmp_path, command, flag):
        # only verify draws random numbers; no command scales a tolerance
        out = tmp_path / "out.csv"
        assert main([command, "--scenario", REST, *flag, "--out", str(out)]) == 2
        assert not out.exists()

    def test_verify_rejects_a_tolerance_scale(self, tmp_path, monkeypatch):
        # each family checks the tolerance pinned in its own code
        ran = []
        monkeypatch.setitem(verify._CHECK_FUNCTIONS, "wave-residual",
                            lambda rng, scenario: ran.append("wave-residual"))
        out = tmp_path / "v.csv"
        assert main(["verify", "--checks", "wave-residual", "--tolerance-scale", "2",
                     "--out", str(out)]) == 2
        assert not out.exists() and ran == []

    def test_verification_failure_exits_one(self, tmp_path, monkeypatch):
        # one relation finitely over its tolerance fails the run
        monkeypatch.setattr(verify, "validate_relations", lambda: matrices.RelationReport(
            (matrices.RelationCheck("over", 2e-12, 1e-12),)))
        out = tmp_path / "v.csv"
        assert main(["verify", "--checks", "matrix-relations", "--out", str(out)]) == 1
        (row,) = csv.DictReader(out.read_text().splitlines())
        assert (row["max_deviation"], row["passed"]) == ("2e-12", "0")

    def test_negative_seed_is_a_configuration_error(self, tmp_path, monkeypatch, capsys):
        # numpy's generators refuse a negative seed with a ValueError, which
        # ended in a traceback and exit 1, the code of a failed verification
        ran = []
        for name in list(verify._CHECK_FUNCTIONS):
            monkeypatch.setitem(verify._CHECK_FUNCTIONS, name,
                                lambda rng, scenario, name=name: ran.append(name))
        out = tmp_path / "v.csv"
        assert main(["verify", "--seed", "-1", "--out", str(out)]) == 2
        stdout, err = capsys.readouterr()
        assert stdout == "" and ran == [] and not out.exists()
        assert "seed must be 0 or more" in err and "Traceback" not in err

    def test_seed_zero_runs(self, tmp_path):
        out = tmp_path / "v.csv"
        assert main(["verify", "--checks", "claim1-covariance", "--seed", "0",
                     "--out", str(out)]) == 0
        (row,) = csv.DictReader(out.read_text().splitlines())
        assert row["passed"] == "1"

    @pytest.mark.parametrize("where, value", [
        (("loops", 0, "radius"), "abc"),
        (("loops", 0, "radius"), None),
        (("loops", 0, "radius"), math.inf),
        (("loops", 0, "radius"), 10**400),
        (("loops", 0, "turns"), "x"),
        (("loops", 0, "turns"), 1.5),
        (("loops", 0, "samples"), 8.9),
        (("loops", 0, "time"), "t"),
        (("loops",), 5),
        (("grid", "resolution"), ["a"]),
        (("grid", "resolution"), [2.5]),
        (("grid", "time"), "x"),
        (("charges", 0, "line"), {"kind": "sampled", "taus": [None, 1.0],
                                  "events": [[0, 0, 0, 0], [1, 0, 0, 0.3]]}),
        (("charges", 0, "q"), "q"),
        (("checks",), 5),
        (("output", "path"), 5),
        # "false" is a non-empty string, which bool() reads as true
        (("loops",), [{"kind": "points", "closed": "false",
                       "events": [[0, 1, 0, 0.5], [0, 0, 1, 0.5], [0, -1, 0, 0.5]]}]),
    ])
    def test_malformed_scenario_value_is_a_configuration_error(self, tmp_path, capsys,
                                                                where, value):
        # exit 1 means a failed verification; a malformed value is neither
        # that nor a traceback, and a fractional count is not truncated
        doc = {
            "version": 1,
            "charges": [{"q": 1.0, "line": {"kind": "rest", "position": [0, 0, 0]}}],
            "grid": {"time": 0.0, "origin": [0, 0, 0], "axes": [[1, 0, 0]],
                     "extents": [1.0], "resolution": [3]},
            "loops": [{"kind": "circle", "center": [0, 0, 0.5], "radius": 1.0,
                       "time": 0.0, "turns": 1, "samples": 16}],
            "checks": ["loop-phase"],
            "output": {"format": "csv"},
        }
        node = doc
        for key in where[:-1]:
            node = node[key]
        node[where[-1]] = value
        p = tmp_path / "scenario.json"
        p.write_text(json.dumps(doc))
        for command in ("field-grid", "loop-phase", "verify"):
            assert main([command, "--scenario", str(p)]) == 2
            out, err = capsys.readouterr()
            assert out == "" and "configuration error" in err

    @pytest.mark.parametrize("argv, message", [
        (["field-grid", "--scenario", "{dir}"], "cannot read scenario file"),
        (["field-grid", "--scenario", "{latin1}"], "not UTF-8 text"),
        (["field-grid", "--scenario", REST, "--out", "{missing}"], "cannot write output"),
        (["verify", "--checks", "matrix-relations", "--out", "{missing}"],
         "cannot write output"),
        (["relations-dump", "--out", "{missing}"], "cannot write output"),
        (["loop-phase", "--scenario", "{open}"], "loops[1]: the loop phase needs a closed"),
        (["verify", "--checks", "loop-phase", "--scenario", "{open}"],
         "loops[1]: the loop phase needs a closed"),
        (["loop-phase", "--scenario", "{no_loops}"], "non-empty 'loops' list"),
    ], ids=["scenario-is-a-directory", "scenario-not-utf8", "field-grid-out-dir-missing",
            "verify-out-dir-missing", "relations-dump-out-dir-missing",
            "loop-phase-open-loop", "verify-open-loop", "loop-phase-no-loops"])
    def test_unusable_file_or_loop_is_a_configuration_error(self, tmp_path, capsys,
                                                            monkeypatch, argv, message):
        # these raised IsADirectoryError, UnicodeDecodeError,
        # FileNotFoundError or ValueError: exit 1 and a traceback
        doc = {"version": 1,
               "charges": [{"q": 1.0, "line": {"kind": "rest", "position": [0, 0, 0]}}]}
        (tmp_path / "no_loops.json").write_text(json.dumps(doc))
        triangle = [[0, 1, 0, 0.5], [0, 0, 1, 0.5], [0, -1, 0, 0.5]]
        doc["loops"] = [{"kind": "points", "events": triangle},
                        {"kind": "points", "closed": False, "events": triangle}]
        (tmp_path / "open.json").write_text(json.dumps(doc))
        (tmp_path / "latin1.json").write_bytes('{"version": 1, "q": "\u00e9"}'.encode("latin-1"))
        paths = {"dir": tmp_path, "missing": tmp_path / "missing" / "out.csv",
                 **{name: tmp_path / f"{name}.json" for name in ("latin1", "open", "no_loops")}}
        ran = []
        monkeypatch.setitem(verify._CHECK_FUNCTIONS, "loop-phase",
                            lambda rng, scenario: ran.append("loop-phase"))
        assert main([arg.format(**paths) for arg in argv]) == 2
        out, err = capsys.readouterr()
        assert out == "" and ran == []
        assert err.startswith("configuration error: ") and message in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("argv", [
        ["field-grid", "--scenario", REST],
        ["verify", "--checks", "matrix-relations,wave-residual"],
        ["loop-phase", "--scenario", REST],
        ["relations-dump"],
    ], ids=["field-grid", "verify", "loop-phase", "relations-dump"])
    @pytest.mark.parametrize("target", ["missing-dir", "directory"])
    def test_unwritable_out_fails_before_any_evaluation(self, tmp_path, capsys,
                                                        monkeypatch, argv, target):
        # the path is checked before anything is evaluated, not after
        called = []
        for name in ("run_checks", "prepotential_jets", "_stack_reports",
                     "validate_relations"):
            monkeypatch.setattr(cli, name, lambda *a, _name=name, **k: called.append(_name))
        out = tmp_path / "missing" / "out.csv" if target == "missing-dir" else tmp_path
        assert main(argv + ["--out", str(out)]) == 2
        assert called == []
        stdout, err = capsys.readouterr()
        assert stdout == ""
        assert err.startswith(f"configuration error: cannot write output {out}: ")

    def test_output_probe_keeps_an_existing_file(self, tmp_path):
        # a run that stops at a configuration error after the output check
        # leaves an existing file as it was, and creates none, also behind
        # a symbolic link to a file that does not exist yet
        old, new, link = tmp_path / "old.csv", tmp_path / "new.csv", tmp_path / "link.csv"
        old.write_text("kept\n")
        link.symlink_to(new)
        for out in (old, new, link):
            assert main(["loop-phase", "--scenario", UNIFORM, "--out", str(out)]) == 2
        assert old.read_text() == "kept\n"
        assert not new.exists() and link.is_symlink()
        # and a run that succeeds writes through the link
        assert main(["relations-dump", "--out", str(link)]) == 0
        assert new.read_text().startswith("relation,")

    def test_open_loop_is_not_an_aborted_family(self):
        loop = potential.Path(np.array([[0, 1, 0, 0.5], [0, 0, 1, 0.5], [0, -1, 0, 0.5]]),
                              closed=False)
        scen = dataclasses.replace(load_scenario(REST), loops=(loop,))
        with pytest.raises(ValueError, match="closed loop"):
            verify.run_checks(["loop-phase"], scenario=scen)

    def test_loop_through_axis_exits_three(self, tmp_path):
        scen = tmp_path / "axis_loop.json"
        scen.write_text(json.dumps({
            "version": 1,
            "charges": [{"q": 1.0, "line": {"kind": "rest", "position": [0, 0, 0]}}],
            "loops": [{"kind": "points", "closed": True, "events": [
                [0.0, 1.0, 0.0, 0.5], [0.0, 0.0, 0.0, 0.5], [0.0, 0.0, 1.0, 0.5],
            ]}],
        }))
        out = tmp_path / "l.csv"
        assert main(["loop-phase", "--scenario", str(scen), "--out", str(out)]) == 3
        rows = out.read_text().splitlines()
        assert len(rows) == 2
        assert "ERROR" in rows[1]


class TestOutputFile:
    """--out rewrites its file in place and cuts it to the new length."""

    ARGV = {
        "field-grid": ["field-grid", "--scenario", REST],
        "verify": ["verify", "--checks", "matrix-relations,loop-phase"],
        "loop-phase": ["loop-phase", "--scenario", REST],
        "relations-dump": ["relations-dump"],
    }

    @pytest.fixture(autouse=True)
    def fixed_seconds(self, monkeypatch):
        # two verify runs would differ in their seconds column
        monkeypatch.setattr(verify, "time", types.SimpleNamespace(perf_counter=lambda: 0.0))

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("command", sorted(ARGV))
    def test_existing_file_ends_as_the_output(self, tmp_path, capsys, command, fmt):
        argv = self.ARGV[command] + ["--format", fmt]
        assert main(argv) == 0
        want = capsys.readouterr().out.encode()
        out = tmp_path / "out"
        for old in (want + b"stale row\n" * 500, want[:len(want) // 2], b"x"):
            out.write_bytes(old)
            assert main(argv + ["--out", str(out)]) == 0
            assert out.read_bytes() == want

    def test_device_takes_the_output(self):
        # /dev/null takes no truncate
        assert main(["relations-dump", "--out", os.devnull]) == 0

    def test_link_rewritten_through_and_cut(self, tmp_path, capsys):
        assert main(["relations-dump"]) == 0
        want = capsys.readouterr().out.encode()
        target, link = tmp_path / "target.csv", tmp_path / "link.csv"
        target.write_bytes(want + b"stale row\n" * 500)
        link.symlink_to(target)
        assert main(["relations-dump", "--out", str(link)]) == 0
        assert link.is_symlink() and target.read_bytes() == want

    def test_new_file_mode_follows_the_umask(self, tmp_path):
        out = tmp_path / "new.csv"
        umask = os.umask(0o027)
        try:
            assert main(["relations-dump", "--out", str(out)]) == 0
        finally:
            os.umask(umask)
        assert stat.S_IMODE(out.stat().st_mode) == 0o666 & ~0o027

    def test_failing_open_is_a_configuration_error(self, tmp_path, monkeypatch, capsys):
        # the probe passes; the writer's own open then fails
        out = tmp_path / "out.csv"
        out.write_text("kept\n")
        real_open = os.open

        def refuse(path, flags, *args):
            if flags == os.O_WRONLY | os.O_CREAT:
                raise PermissionError(errno.EACCES, os.strerror(errno.EACCES), path)
            return real_open(path, flags, *args)

        monkeypatch.setattr(os, "open", refuse)
        assert main(["relations-dump", "--out", str(out)]) == 2
        got = capsys.readouterr()
        assert got.out == ""
        assert got.err == (f"configuration error: cannot write output {out}: "
                           f"{os.strerror(errno.EACCES)}\n")
        assert out.read_text() == "kept\n"


class TestCheckNames:
    def test_no_family_runs_for_a_bad_list(self, monkeypatch, capsys):
        ran = []
        for name in ("claim1-covariance", "zeta-invariance"):
            monkeypatch.setitem(verify._CHECK_FUNCTIONS, name,
                                lambda rng, scenario, name=name: ran.append(name))
        with pytest.raises(verify.UnknownCheckError, match="'bogus-check'"):
            verify.run_checks(["claim1-covariance", "zeta-invariance", "bogus-check"])
        assert main(["verify", "--checks",
                     "claim1-covariance,zeta-invariance,bogus-check"]) == 2
        assert ran == []
        out, err = capsys.readouterr()
        assert out == ""
        assert "configuration error" in err and "'bogus-check'" in err

    def test_empty_selection_is_a_configuration_error(self, monkeypatch, capsys):
        # no family run is a vacuous pass
        ran = []
        for name in list(verify._CHECK_FUNCTIONS):
            monkeypatch.setitem(verify._CHECK_FUNCTIONS, name,
                                lambda rng, scenario, name=name: ran.append(name))
        with pytest.raises(verify.UnknownCheckError, match="no check family"):
            verify.run_checks([])
        assert main(["verify", "--checks", ","]) == 2
        assert ran == []
        out, err = capsys.readouterr()
        assert out == ""
        assert "configuration error" in err and "no check family" in err

    @pytest.mark.parametrize("checks, message", [
        (",", "no check family selected"),
        ("bogus-check", "unknown check name 'bogus-check'"),
    ])
    def test_configuration_message_is_unquoted(self, capsys, checks, message):
        # str() of a KeyError would print the message's repr
        assert main(["verify", "--checks", checks]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == f"configuration error: {message}\n"

    def test_names_from_a_generator(self):
        report = verify.run_checks(n for n in ["matrix-relations"])
        assert [r.name for r in report.results] == ["matrix-relations"]

    def test_key_error_inside_a_family_is_not_a_configuration_error(self, monkeypatch):
        def broken(rng, scenario):
            raise KeyError("a lookup inside the family")

        monkeypatch.setitem(verify._CHECK_FUNCTIONS, "matrix-relations", broken)
        with pytest.raises(KeyError) as info:
            main(["verify", "--checks", "matrix-relations"])
        assert not isinstance(info.value, verify.UnknownCheckError)


def _without_seconds(argv, out, err):
    """A verify call's output without its timings: the CSV `seconds`
    column and the seconds in each stderr line."""
    if argv[0] != "verify":
        return out, err
    rows = list(csv.reader(out.splitlines()))
    assert rows[0][4] == "seconds"
    return [r[:4] + r[5:] for r in rows], re.sub(r", [0-9.]+s\)", ")", err)


class TestOneParserPerProcess:
    # each call alone in a fresh process, then all in this one; the bad
    # usage call sits between two good ones
    SEQUENCE = (
        ["verify", "--checks", "matrix-relations"],
        ["verify"],
        ["field-grid", "--scenario", REST, "--format", "json"],
        ["field-grid"],
        ["field-grid", "--scenario", REST],
    )

    def test_parser_built_once(self, tmp_path):
        cli._build_parser.cache_clear()
        out = str(tmp_path / "r.csv")
        assert main(["relations-dump", "--out", out]) == 0
        assert main(["field-grid"]) == 2
        assert main(["relations-dump", "--format", "json", "--out", out]) == 0
        info = cli._build_parser.cache_info()
        assert (info.misses, info.hits) == (1, 2)

    def test_calls_match_fresh_processes(self, capsys):
        env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(prepotential.__file__)))
        alone = [
            subprocess.run([sys.executable, "-c",
                            "import sys; from prepotential.cli import main; "
                            "sys.exit(main(sys.argv[1:]))", *argv],
                           env=env, capture_output=True, text=True, timeout=120)
            for argv in self.SEQUENCE
        ]
        assert [p.returncode for p in alone] == [0, 0, 0, 2, 0]
        capsys.readouterr()
        for argv, p in zip(self.SEQUENCE, alone):
            code = main(list(argv))
            got = capsys.readouterr()
            assert code == p.returncode
            assert (_without_seconds(argv, got.out, got.err)
                    == _without_seconds(argv, p.stdout, p.stderr))


class TestVerifyCommand:
    def test_wave_residual_at_marginal_seed(self, tmp_path):
        # the plain diagonal stencil read 1.07e-5 against 1e-5 at this seed,
        # at a point 0.41 from the axis; box S now comes from the Richardson
        # Hessian, with the tolerance unchanged
        out = tmp_path / "v.csv"
        assert main(["verify", "--checks", "wave-residual", "--seed", "783907138",
                     "--out", str(out)]) == 0
        row = next(csv.DictReader(out.read_text().splitlines()))
        assert float(row["tolerance"]) == 1e-5
        assert float(row["max_deviation"]) < 1e-6

    def test_zeta_invariance_near_minus_x3(self, tmp_path):
        # |d zeta| read 1.40e-10 against an absolute 1e-10 at this seed:
        # near -x3, zeta and its rounding grow like 2/theta
        out = tmp_path / "v.csv"
        assert main(["verify", "--checks", "zeta-invariance", "--seed", "6320",
                     "--out", str(out)]) == 0
        row = next(csv.DictReader(out.read_text().splitlines()))
        assert float(row["tolerance"]) == 1e-12
        assert float(row["max_deviation"]) < 1e-13

    def test_selected_checks_pass(self, tmp_path, capsys):
        out = tmp_path / "verify.csv"
        code = main(["verify", "--checks", "matrix-relations,claim1-covariance",
                     "--out", str(out)])
        assert code == 0
        rows = list(csv.DictReader(out.read_text().splitlines()))
        assert [r["check"] for r in rows] == ["matrix-relations", "claim1-covariance"]
        assert all(r["passed"] == "1" for r in rows)

    def test_csv_quoting_of_detail_field(self, tmp_path):
        out = tmp_path / "rel.csv"
        assert main(["relations-dump", "--out", str(out)]) == 0
        rows = list(csv.reader(out.read_text().splitlines()))
        assert rows[0] == ["relation", "max_deviation", "tolerance", "passed"]
        names = [r[0] for r in rows[1:]]
        assert "commutator [sigma,sigma] = -eps sigma" in names
        assert all(r[3] == "1" for r in rows[1:])

    def test_bundled_scenario_checks_pass(self, tmp_path):
        # rest_charge bundles matrix-relations, rest-charge-field and a
        # loop-phase family driven by its own loop list
        out = tmp_path / "bundled.csv"
        assert main(["verify", "--scenario", REST, "--out", str(out)]) == 0
        rows = list(csv.DictReader(out.read_text().splitlines()))
        assert [r["check"] for r in rows] == [
            "matrix-relations", "rest-charge-field", "loop-phase",
        ]
        assert all(r["passed"] == "1" for r in rows)

    def test_scenario_checks_drive_default_selection(self, tmp_path):
        scen = tmp_path / "checks.json"
        scen.write_text(json.dumps({
            "version": 1,
            "charges": [{"q": 1.0, "line": {"kind": "rest", "position": [0, 0, 0]}}],
            "checks": ["matrix-relations"],
        }))
        out = tmp_path / "v.csv"
        assert main(["verify", "--scenario", str(scen), "--out", str(out)]) == 0
        rows = list(csv.DictReader(out.read_text().splitlines()))
        assert [r["check"] for r in rows] == ["matrix-relations"]


# repr(max_deviation) and detail of every family at DEFAULT_SEED; the five
# seeded families' values were recorded when the samplers became plain
# array draws (uniform-motion-triangle's draws kept their stream), and
# zeta-invariance's again when its deviation became relative
GOLDEN_VERIFY = [
    ("matrix-relations", "4.440892098500626e-16",
     "11 relation families; worst: Lambda equals the real fundamental boost"),
    ("zeta-invariance", "2.4778237255727495e-15",
     "|d zeta|/|zeta| over 1000 null vectors x 3 axes x 5 rapidities"),
    ("rest-charge-field", "5.733184379985914e-10",
     "E rel dev 2.546e-09 (tol 1e-06); B abs dev 5.733e-10 (tol 1e-08)"),
    ("uniform-motion-triangle", "1.4707998546195077e-07",
     "S-vs-direct 1.471e-07, S-vs-oracle 1.471e-07 (tol 1e-04); "
     "direct-vs-oracle 6.722e-15 (tol 1e-10)"),
    ("wave-residual", "6.922256383625178e-08",
     "|box S| scaled by q/R^2, rest and uniform, 40 points each"),
    ("claim1-covariance", "8.881784197001252e-15",
     "100 random field vectors x 3 boost axes"),
    ("loop-phase", "1.7763568394002505e-15",
     "windings [2, 1, -1, -2, 0]; crossing oracle vs phase rounding agree: True"),
]


# the verify CSV rows without their seconds column, every family, at three
# more seeds, recorded alongside GOLDEN_VERIFY
GOLDEN_VERIFY_CSV = {
    1: [
        ("matrix-relations", "4.4408920985006262e-16", "9.9999999999999998e-13", "1",
         "11 relation families; worst: Lambda equals the real fundamental boost"),
        ("zeta-invariance", "2.7736370214836856e-15", "9.9999999999999998e-13", "1",
         "|d zeta|/|zeta| over 1000 null vectors x 3 axes x 5 rapidities"),
        ("rest-charge-field", "1.9724809687449935e-09", "1e-08", "1",
         "E rel dev 3.820e-09 (tol 1e-06); B abs dev 1.972e-09 (tol 1e-08)"),
        ("uniform-motion-triangle", "4.2463148660275466e-08", "0.0001", "1",
         "S-vs-direct 4.246e-08, S-vs-oracle 4.246e-08 (tol 1e-04); "
         "direct-vs-oracle 1.014e-14 (tol 1e-10)"),
        ("wave-residual", "1.0230543286286919e-08", "1.0000000000000001e-05", "1",
         "|box S| scaled by q/R^2, rest and uniform, 40 points each"),
        ("claim1-covariance", "1.021405182655144e-14", "9.9999999999999998e-13", "1",
         "100 random field vectors x 3 boost axes"),
        ("loop-phase", "1.7763568394002505e-15", "1e-08", "1",
         "windings [2, 1, -1, -2, 0]; crossing oracle vs phase rounding agree: True"),
    ],
    42: [
        ("matrix-relations", "4.4408920985006262e-16", "9.9999999999999998e-13", "1",
         "11 relation families; worst: Lambda equals the real fundamental boost"),
        ("zeta-invariance", "1.7078526397257938e-15", "9.9999999999999998e-13", "1",
         "|d zeta|/|zeta| over 1000 null vectors x 3 axes x 5 rapidities"),
        ("rest-charge-field", "2.1883151948576368e-09", "1e-08", "1",
         "E rel dev 2.712e-09 (tol 1e-06); B abs dev 2.188e-09 (tol 1e-08)"),
        ("uniform-motion-triangle", "1.044020357646008e-07", "0.0001", "1",
         "S-vs-direct 1.044e-07, S-vs-oracle 1.044e-07 (tol 1e-04); "
         "direct-vs-oracle 1.024e-14 (tol 1e-10)"),
        ("wave-residual", "1.3973599050102511e-08", "1.0000000000000001e-05", "1",
         "|box S| scaled by q/R^2, rest and uniform, 40 points each"),
        ("claim1-covariance", "4.4408920985006262e-15", "9.9999999999999998e-13", "1",
         "100 random field vectors x 3 boost axes"),
        ("loop-phase", "1.7763568394002505e-15", "1e-08", "1",
         "windings [2, 1, -1, -2, 0]; crossing oracle vs phase rounding agree: True"),
    ],
    7919: [
        ("matrix-relations", "4.4408920985006262e-16", "9.9999999999999998e-13", "1",
         "11 relation families; worst: Lambda equals the real fundamental boost"),
        ("zeta-invariance", "2.2212748171608421e-15", "9.9999999999999998e-13", "1",
         "|d zeta|/|zeta| over 1000 null vectors x 3 axes x 5 rapidities"),
        ("rest-charge-field", "1.5759520378186702e-09", "1e-08", "1",
         "E rel dev 4.220e-09 (tol 1e-06); B abs dev 1.576e-09 (tol 1e-08)"),
        ("uniform-motion-triangle", "4.5144259882555964e-08", "0.0001", "1",
         "S-vs-direct 4.514e-08, S-vs-oracle 4.514e-08 (tol 1e-04); "
         "direct-vs-oracle 5.747e-15 (tol 1e-10)"),
        ("wave-residual", "7.3219646208494463e-08", "1.0000000000000001e-05", "1",
         "|box S| scaled by q/R^2, rest and uniform, 40 points each"),
        ("claim1-covariance", "4.4408920985006262e-15", "9.9999999999999998e-13", "1",
         "100 random field vectors x 3 boost axes"),
        ("loop-phase", "1.7763568394002505e-15", "1e-08", "1",
         "windings [2, 1, -1, -2, 0]; crossing oracle vs phase rounding agree: True"),
    ],
}


class TestVerifyFamilies:
    def test_golden_at_default_seed(self):
        report = verify.run_checks([name for name, _, _ in GOLDEN_VERIFY])
        got = [(r.name, repr(r.max_deviation), r.detail) for r in report.results]
        assert got == GOLDEN_VERIFY
        assert all(type(r.max_deviation) is float for r in report.results)

    @pytest.mark.parametrize("seed", sorted(GOLDEN_VERIFY_CSV))
    def test_golden_csv_at_more_seeds(self, tmp_path, seed):
        path = tmp_path / "v.csv"
        assert main(["verify", "--seed", str(seed), "--out", str(path)]) == 0
        rows, _ = _without_seconds(["verify"], path.read_text(), "")
        assert rows[0] == ["check", "max_deviation", "tolerance", "passed", "detail"]
        assert [tuple(r) for r in rows[1:]] == GOLDEN_VERIFY_CSV[seed]

    @pytest.mark.parametrize("name, most", [
        # the scale solve and one solve per Richardson level, per charge;
        # the moving families add one solve for the direct field or the
        # q/R^2 scale, for each of 3 speeds or 2 charges
        ("rest-charge-field", 3),
        ("uniform-motion-triangle", 3 * 4),
        ("wave-residual", 2 * 4),
    ])
    def test_one_solve_per_charge_and_level(self, monkeypatch, name, most):
        calls = []
        solve = spacetime.retarded_rows

        def counting(line, X):
            calls.append(len(X))
            return solve(line, X)

        monkeypatch.setattr(spacetime, "retarded_rows", counting)
        monkeypatch.setattr(potential, "retarded_rows", counting)
        (result,) = verify.run_checks([name]).results
        assert result.passed
        assert len(calls) <= most

    def test_claim1_covariance_is_one_rows_call(self, monkeypatch):
        calls = []
        rows = verify.claim1_covariance_rows

        def counting(F, axes, psis):
            calls.append(len(F))
            return rows(F, axes, psis)

        monkeypatch.setattr(verify, "claim1_covariance_rows", counting)
        (result,) = verify.run_checks(["claim1-covariance"]).results
        assert result.passed
        assert calls == [300]

    @pytest.mark.parametrize("name, kernel, call", [
        # a NaN in a later batch than the first, where a running
        # max(worst, x) from 0.0 would drop it
        ("zeta-invariance", "zetas_of", 3),
        # a NaN E next to a finite B: the family reports its NaN sub-check
        ("rest-charge-field", "faraday_from_hessian_rows", 1),
        ("uniform-motion-triangle", "_boosted_coulomb_rows", 2),
        ("wave-residual", "second_partials_rows", 2),
        ("claim1-covariance", "claim1_covariance_rows", 1),
        ("loop-phase", "_stack_reports", 1),
    ])
    def test_nan_deviation_fails_its_family(self, monkeypatch, tmp_path, name, kernel,
                                            call):
        calls = []
        original = getattr(verify, kernel)

        def poisoned(*args, **kwargs):
            out = original(*args, **kwargs)
            calls.append(kernel)
            if len(calls) != call:
                return out
            if kernel == "_stack_reports":
                return out[:-1] + [dataclasses.replace(out[-1], residual=math.nan)]
            out = out.copy()
            out.flat[-1] = math.nan
            return out

        monkeypatch.setattr(verify, kernel, poisoned)
        path = tmp_path / "v.csv"
        assert main(["verify", "--checks", name, "--out", str(path)]) == 1
        (row,) = csv.DictReader(path.read_text().splitlines())
        assert (row["max_deviation"], row["passed"]) == ("nan", "0")
        assert len(calls) >= call


    def test_nan_relation_fails(self, monkeypatch, tmp_path):
        # a NaN in rho_bar(2), which no relation meets first, where a
        # Python max from a finite value would drop it
        rho_bar = matrices.rho_bar
        monkeypatch.setattr(matrices, "rho_bar", lambda j: (
            np.full((4, 4), complex(math.nan)) if j == 2 else rho_bar(j)))
        poisoned = {"commutator [rho_bar,rho] = 0",
                    "anti-commutator {rho_bar,rho_bar} = delta/2 I",
                    "Lambda equals the real fundamental boost",
                    "Upsilon and Upsilon_bar factors commute"}
        path = tmp_path / "r.csv"
        assert main(["relations-dump", "--out", str(path)]) == 1
        rows = list(csv.DictReader(path.read_text().splitlines()))
        assert len(rows) == 11
        for row in rows:
            nan = row["relation"] in poisoned
            assert (row["max_deviation"] == "nan") == nan
            assert row["passed"] == ("0" if nan else "1")
        assert main(["verify", "--checks", "matrix-relations", "--out", str(path)]) == 1
        (row,) = csv.DictReader(path.read_text().splitlines())
        assert (row["max_deviation"], row["passed"]) == ("nan", "0")
        assert row["detail"] == "11 relation families; worst: commutator [rho_bar,rho] = 0"

    def test_wrong_sigma_fails_exactly_its_families(self, monkeypatch, tmp_path):
        # sigma = -i rho flips every eps^{jk}_l sigma^l, which is nonzero
        # only for j != k: the three families that use sigma fail, by
        # |2 eps rho| = 1, and the other eight pass
        monkeypatch.setattr(matrices, "sigma", lambda j: -1j * matrices.rho(j))
        wrong = {"commutator [sigma,sigma] = -eps sigma",
                 "commutator [rho,rho] = +eps sigma",
                 "commutator [sigma,rho] = -eps rho (validated sign)"}
        path = tmp_path / "r.csv"
        assert main(["relations-dump", "--out", str(path)]) == 1
        rows = list(csv.DictReader(path.read_text().splitlines()))
        assert len(rows) == 11
        assert {r["relation"] for r in rows if r["passed"] == "0"} == wrong
        assert {r["max_deviation"] for r in rows if r["relation"] in wrong} == {"1"}


class TestUniformLineFromU:
    @staticmethod
    def _scenario(tmp_path, line):
        doc = json.loads(Path(REST).read_text())
        doc["charges"] = [{"q": 1.0, "line": {"kind": "uniform", **line}}]
        path = tmp_path / "u.json"
        path.write_text(json.dumps(doc))
        return str(path)

    def test_u_gives_the_rows_of_its_velocity(self, tmp_path):
        # (1.25, 0, 0, 0.75) is the 4-velocity of v = (0, 0, 0.6)
        outs = []
        for i, line in enumerate([{"u": [1.25, 0, 0, 0.75]}, {"velocity": [0, 0, 0.6]}]):
            outs.append(tmp_path / f"{i}.csv")
            assert main(["loop-phase", "--scenario", self._scenario(tmp_path, line),
                         "--out", str(outs[-1])]) == 0
        assert outs[0].read_bytes() == outs[1].read_bytes()
        assert len(outs[0].read_text().splitlines()) == 4

    @pytest.mark.parametrize("line, message", [
        ({"u": [2, 0, 0, 0]}, "4-velocity must satisfy u.u = 1, got 4.0"),
        ({"u": [-1, 0, 0, 0]}, "4-velocity must be future-pointing (u0 > 0)"),
        ({}, "uniform line needs 'velocity' or 'u'"),
    ], ids=["not-unit", "past-pointing", "neither-key"])
    def test_bad_uniform_line_is_a_configuration_error(self, tmp_path, capsys, line,
                                                       message):
        assert main(["loop-phase", "--scenario", self._scenario(tmp_path, line)]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == f"configuration error: charges[0].line: {message}\n"


class TestLoopPhaseCommand:
    def test_bundled_loops_table(self, tmp_path):
        out = tmp_path / "loops.csv"
        assert main(["loop-phase", "--scenario", REST, "--out", str(out)]) == 0
        rows = list(csv.DictReader(out.read_text().splitlines()))
        assert [int(r["winding"]) for r in rows] == [-1, 0, 2]
        for r in rows:
            turns = float(r["delta_S_im"]) / (2 * math.pi)
            assert abs(turns - int(r["winding"])) < 1e-8
            assert r["status"] == "ok"

    @pytest.fixture
    def opposite_charges(self, tmp_path):
        """A +1 and a -1 charge, both inside one circle: the system answer
        is 0, the first charge alone gives -2 pi i."""
        scen = tmp_path / "pair.json"
        scen.write_text(json.dumps({
            "version": 1,
            "charges": [
                {"q": 1.0, "line": {"kind": "rest", "position": [0.2, 0.1, 0]}},
                {"q": -1.0, "line": {"kind": "uniform", "event": [0, -0.3, 0, 0],
                                     "velocity": [0, 0, 0.5]}},
            ],
            "loops": [{"kind": "circle", "center": [0, 0, 0.4], "radius": 1.0}],
        }))
        return str(scen)

    def test_opposite_charges_inside_one_loop(self, opposite_charges, tmp_path):
        out = tmp_path / "pair.csv"
        assert main(["loop-phase", "--scenario", opposite_charges, "--out", str(out)]) == 0
        (row,) = csv.DictReader(out.read_text().splitlines())
        assert abs(complex(float(row["delta_S_re"]), float(row["delta_S_im"]))) < 1e-8
        assert row["winding"] == "-1;-1"
        assert row["samples"] == "498"
        assert row["status"] == "ok"
        out_json = tmp_path / "pair.json"
        assert main(["loop-phase", "--scenario", opposite_charges, "--format", "json",
                     "--out", str(out_json)]) == 0
        assert json.loads(out_json.read_text())["records"][0]["winding"] == "-1;-1"

    def test_opposite_charges_verify_family(self, opposite_charges, tmp_path):
        out = tmp_path / "v.csv"
        assert main(["verify", "--scenario", opposite_charges, "--checks", "loop-phase",
                     "--out", str(out)]) == 0
        (row,) = csv.DictReader(out.read_text().splitlines())
        assert row["passed"] == "1"
        assert "[-1, -1]" in row["detail"]

    def test_coarse_triangle_verify_family(self, tmp_path):
        # one edge of this triangle turns a whole turn more than its ends
        # show; the crossing count over its three samples read winding 0
        # and failed the family, on the resampled edges it reads 1
        scen = tmp_path / "triangle.json"
        scen.write_text(json.dumps({
            "version": 1,
            "charges": [{"q": 1.0, "line": {"kind": "uniform", "event": [-0.5, -0.7, 0.4, -0.6],
                                            "velocity": [-0.1, -0.8, 0.3]}}],
            "loops": [{"kind": "points", "events": [
                [0.0, 0.3, 0.0, -0.4], [0.0, -0.6, -1.4, -0.4], [0.0, -1.3, 0.1, -0.4]]}],
        }))
        out = tmp_path / "v.csv"
        assert main(["verify", "--scenario", str(scen), "--checks", "loop-phase",
                     "--out", str(out)]) == 0
        (row,) = csv.DictReader(out.read_text().splitlines())
        assert row["passed"] == "1"
        assert row["detail"] == "windings [1]; crossing oracle vs phase rounding agree: True"

    def test_coarse_hexagon_winding_is_its_phase(self, tmp_path):
        # a regular hexagon of radius 0.4 round a charge moving across its
        # plane: its closing edge swings 3.1 rad and gets samples where a2
        # vanishes on it, and the phase reads one turn. That edge's chord
        # passes the origin of the projected curve on the wrong side, so
        # counting crossings between the six input samples read winding 0.
        centre = np.array([-0.3, 0.1])
        phi = 2 * math.pi * np.arange(6) / 6
        verts = centre + 0.4 * np.column_stack([np.cos(phi), np.sin(phi)])
        scen = tmp_path / "hexagon.json"
        scen.write_text(json.dumps({
            "version": 1,
            "charges": [{"q": 1.0, "line": {"kind": "uniform", "event": [0, 0, 0, 0],
                                            "velocity": [-0.2, 0.1, 0]}}],
            "loops": [{"kind": "points",
                       "events": [[0.0, x1, x2, 0.0] for x1, x2 in verts.tolist()]}],
        }))
        out = tmp_path / "hexagon.csv"
        assert main(["loop-phase", "--scenario", str(scen), "--out", str(out)]) == 0
        (row,) = csv.DictReader(out.read_text().splitlines())
        assert (row["delta_S_re"], row["delta_S_im"]) == (
            "0", "-6.2831853071795862")
        assert (row["winding"], row["samples"], row["status"]) == ("-1", "16", "ok")
        assert float(row["residual"]) < 1e-17

    @pytest.mark.parametrize("event_x0", [0.0, 1e8])
    def test_far_triangle_winding_whatever_event_names_its_line(self, tmp_path, event_x0):
        # a triangle at x0 = 1e8, 0.5 round a line through the origin: named
        # by its event at x0 = 0, r^2 = s^2 - D.D cancelled there and read
        # winding 0 on 7 samples, which the crossing oracle refused
        v = np.array([0.5, -0.6, 0.3])
        present = 1e8 * v
        phi = 0.1 + 2 * math.pi * np.arange(3) / 3
        scen = tmp_path / "far.json"
        scen.write_text(json.dumps({
            "version": 1,
            "charges": [{"q": 1.0, "line": {"kind": "uniform",
                                            "event": [event_x0, *(event_x0 * v).tolist()],
                                            "velocity": v.tolist()}}],
            "loops": [{"kind": "points", "events": [
                [1e8, present[0] + 0.5 * math.cos(p), present[1] + 0.5 * math.sin(p),
                 present[2] + 0.3] for p in phi]}],
        }))
        out = tmp_path / "far.csv"
        assert main(["loop-phase", "--scenario", str(scen), "--out", str(out)]) == 0
        (row,) = csv.DictReader(out.read_text().splitlines())
        assert (row["winding"], row["samples"], row["status"]) == ("-1", "14", "ok")
        assert abs(float(row["delta_S_im"]) + 2 * math.pi) < 1e-14
        assert main(["verify", "--scenario", str(scen), "--checks", "loop-phase",
                     "--out", str(out)]) == 0
        (row,) = csv.DictReader(out.read_text().splitlines())
        assert row["detail"] == "windings [-1]; crossing oracle vs phase rounding agree: True"

    def test_one_charge_winding_is_a_number(self, tmp_path):
        out = tmp_path / "loops.json"
        assert main(["loop-phase", "--scenario", REST, "--format", "json",
                     "--out", str(out)]) == 0
        records = json.loads(out.read_text())["records"]
        assert [r["winding"] for r in records] == [-1, 0, 2]

    @pytest.mark.parametrize("circle, message", [
        # its samples overflow to inf (numpy's overflow warning stays quiet)
        ({"center": [1e308, 0, 0], "radius": 1e308, "samples": 8},
         "path points must be finite"),
        # its samples round to one point
        ({"center": [1e10, 1e10, 0], "radius": 1e-10}, "consecutive path samples 0, 1 coincide"),
    ])
    def test_degenerate_circle_is_a_configuration_error(self, tmp_path, capsys, circle,
                                                       message):
        scen = _written(tmp_path, {
            "version": 1,
            "charges": [{"q": 1.0, "line": {"kind": "rest", "position": [0, 0, 0]}}],
            "loops": [{"kind": "circle", "center": [0, 0, 0.4], "radius": 1.0},
                      dict(circle, kind="circle")],
        })
        out = tmp_path / "l.csv"
        assert main(["loop-phase", "--scenario", scen, "--out", str(out)]) == 2
        assert not out.exists()
        assert capsys.readouterr() == ("", f"configuration error: loops[1]: {message}\n")

    @pytest.mark.parametrize("argv", [["loop-phase"], ["field-grid"],
                                      ["verify", "--checks", "loop-phase"]],
                             ids=["loop-phase", "field-grid", "verify"])
    def test_oversized_circle_is_a_configuration_error(self, tmp_path, capsys, argv):
        # 8 samples x 2^62 turns: every subcommand parses the loops, and the
        # loader refuses them from their sizes before it allocates
        scen = _written(tmp_path, {
            "version": 1,
            "charges": [{"q": 1.0, "line": {"kind": "rest", "position": [0, 0, 0]}}],
            "grid": {"origin": [1, 1, 0], "axes": [[1, 0, 0]], "extents": [1.0],
                     "resolution": [2]},
            "loops": [{"kind": "circle", "center": [0, 0, 0.4], "radius": 1.0},
                      {"kind": "circle", "samples": 8, "turns": 2 ** 62}],
        })
        out = tmp_path / "out.csv"
        assert main(argv + ["--scenario", scen, "--out", str(out)]) == 2
        assert not out.exists()
        assert capsys.readouterr() == (
            "", f"configuration error: loops[1]: 8 samples x {2 ** 62} turns do not fit in memory\n")

    def test_one_stack_per_scenario_load(self, tmp_path, monkeypatch):
        # the loops are stacked once, as the scenario loads, and the loop
        # pass gets that stack and builds none
        built, loaded, seen = [], [], []

        def stack(*args):
            built.append(real_stack(*args))
            return built[-1]

        def load(path):
            sc = real_load(path)
            loaded.append(len(built))
            return sc

        def delta_S_paths(system, paths):
            seen.append(paths)
            return real_delta(system, paths)

        real_stack, real_load = potential._PathStack, cli.load_scenario
        real_delta = prepotential.loops._delta_S_paths
        monkeypatch.setattr(potential, "_PathStack", stack)
        monkeypatch.setattr(cli, "load_scenario", load)
        monkeypatch.setattr(prepotential.loops, "_delta_S_paths", delta_S_paths)
        assert main(["loop-phase", "--scenario", REST, "--out", str(tmp_path / "l.csv")]) == 0
        assert loaded == [1] and len(built) == 1
        assert len(seen) == 1 and seen[0] is built[0]
        assert seen[0].sizes.tolist() == [240, 240, 480]

    def test_batch_error_names_its_charge(self, tmp_path, capsys):
        # behind charge 1, at |v| = 0.999, a = P + r U cancels and misses
        # null by more than NULL_TOL (ROADMAP item 12): the quotients raise
        # for the batch, and the error names the charge, as field-grid's does
        scen = _written(tmp_path, {
            "version": 1,
            "charges": [
                {"q": 1.0, "line": {"kind": "rest", "position": [2.0, 0.0, 0.0]}},
                {"q": 1.0, "line": {"kind": "uniform", "event": [0, 0, 0, 0],
                                    "velocity": [0, 0, 0.999]}},
            ],
            "loops": [{"kind": "circle", "center": [0, 0, -3.0], "radius": 1.0},
                      {"kind": "circle", "center": [0.5, 0, -1.0], "radius": 0.5}],
        })
        assert main(["loop-phase", "--scenario", scen, "--out", str(tmp_path / "l.csv")]) == 3
        assert capsys.readouterr().err.startswith(
            "runtime error: charge 1: vector is not null: |a.a| = ")

    def test_at_most_two_solves_per_charge(self, tmp_path, monkeypatch):
        # 32 loops round 3 charges: 16 circles and 16 polygons with one
        # edge 1e-6 to 1e-3 of its length from charge 0's axis. The call
        # solves the loops' points once for the whole system, and once more
        # the samples of the edges on which a2 may vanish.
        rng = np.random.default_rng(5)
        loops = []
        for i in range(16):
            loops.append({"kind": "circle", "center": [*rng.uniform(-1, 1, 2), 0.4],
                          "radius": float(rng.uniform(0.5, 2.0)), "turns": [1, 2, -1, 1][i % 4]})
            a, b = rng.uniform(0.5, 1.5, 2)
            gap = 10.0 ** -(3 + i % 4) * (a + b)
            below = [[float(r * math.cos(t)), float(r * math.sin(t)) - 0.3]
                     for t, r in zip(np.linspace(-0.2, -math.pi + 0.2, 2 + i % 3),
                                     rng.uniform(0.5, 1.5, 2 + i % 3))]
            verts = [[-a, gap], [b, gap]] + below
            loops.append({"kind": "points", "closed": True,
                          "events": [[0.0, x, y, 0.4] for x, y in verts]})
        doc = {
            "version": 1,
            "charges": [
                {"q": 1.0, "line": {"kind": "uniform", "event": [0, 0, 0, 0],
                                    "velocity": [0, 0, 0.3]}},
                {"q": -0.7, "line": {"kind": "rest", "position": [1.5, 0.5, 0]}},
                {"q": 1.3, "line": {"kind": "uniform", "event": [0, -1.0, 1.0, 0],
                                    "velocity": [0.2, -0.1, 0.4]}},
            ],
            "loops": loops,
        }
        scen = tmp_path / "loops.json"
        scen.write_text(json.dumps(doc))
        calls = []

        def counting(table, X):
            out = solve(table, X)
            calls.append(len(out[1]))
            return out

        def single(line, X):
            raise AssertionError("a charge of the system was solved on its own")

        solve = potential._retarded_table_rows
        monkeypatch.setattr(potential, "_retarded_table_rows", counting)
        monkeypatch.setattr(potential, "retarded_rows", single)
        points = sum(len(loop.points) for loop in load_scenario(str(scen)).loops)
        assert main(["loop-phase", "--scenario", str(scen),
                     "--out", str(tmp_path / "l.csv")]) == 0
        assert len(calls) == 2 and calls[0] == 3 * points and calls[1] % 3 == 0

    def test_empty_loop_list(self, tmp_path):
        # a bare header would be a vacuous success, as field-grid without
        # a grid would be
        out = tmp_path / "empty.csv"
        assert main(["loop-phase", "--scenario", UNIFORM, "--out", str(out)]) == 2
        assert not out.exists()
