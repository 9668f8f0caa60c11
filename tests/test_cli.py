"""CLI behavior: output schemas, determinism, exit codes."""

import csv
import json
import math

import numpy as np
import pytest

from prepotential import cli, potential
from prepotential.cli import main
from prepotential.errors import ChargeSystemError, StepTooLargeError
from prepotential.fields import boosted_coulomb_oracle, coulomb_oracle
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


def _max_field_error(row, oracle):
    got = np.array([float(row[f"E{j}"]) + 1j * float(row[f"B{j}"]) for j in (1, 2, 3)])
    want = oracle.as_array()
    return float(np.abs(got - want).max()) / float(np.abs(want).max())


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

    def test_null_check_row_exits_three(self, tmp_path, capsys):
        # cell 0 is 3e-8 from a sampled line moving at v = 0.5: its a keeps
        # too few digits for the solver's null check, a numerical failure
        u = np.array([2.0, 1.0, 0.0, 0.0]) / math.sqrt(3.0)
        taus = [-10.0, -4.0, 2.0]
        scen = tmp_path / "near.json"
        scen.write_text(json.dumps({
            "version": 1,
            "charges": [
                {"q": 1.0, "line": {"kind": "rest", "position": [0, -3, 0]}},
                {"q": 1.0, "line": {"kind": "sampled", "taus": taus,
                                    "events": [(t * u).tolist() for t in taus]}},
            ],
            "grid": {"time": 0.0, "origin": [0.0, 3e-8, 0.0], "axes": [[0.0, 1.0, 0.0]],
                     "extents": [3.0], "resolution": [4]},
        }))
        assert main(["field-grid", "--scenario", str(scen),
                     "--out", str(tmp_path / "g.csv")]) == 3
        assert ("charge 1: retarded solver produced an invalid null vector"
                in capsys.readouterr().err)


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

    def test_verification_failure_exits_one(self, tmp_path):
        out = tmp_path / "v.csv"
        code = main(["verify", "--checks", "matrix-relations",
                     "--tolerance-scale", "1e-20", "--out", str(out)])
        assert code == 1

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
        assert row["samples"] == "480"
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

    def test_one_charge_winding_is_a_number(self, tmp_path):
        out = tmp_path / "loops.json"
        assert main(["loop-phase", "--scenario", REST, "--format", "json",
                     "--out", str(out)]) == 0
        records = json.loads(out.read_text())["records"]
        assert [r["winding"] for r in records] == [-1, 0, 2]

    def test_one_solve_per_charge_and_level(self, tmp_path, monkeypatch):
        # 32 loops round 3 charges: 16 circles and 16 polygons with one
        # edge 1e-6 to 1e-3 of its length from charge 0's axis, which
        # refine deeply. The call solves once per charge and level.
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

        def counting(line, X):
            calls.append(len(X))
            return solve(line, X)

        solve = potential.retarded_rows
        monkeypatch.setattr(potential, "retarded_rows", counting)
        scenario = load_scenario(str(scen))
        # the deepest refinement level of any loop on any charge, alone:
        # one solve for its samples, then one per level
        deepest = 0
        for loop in scenario.loops:
            for charge in scenario.charges:
                calls.clear()
                potential.delta_S_along_path(charge, loop)
                deepest = max(deepest, len(calls) - 1)
        assert deepest >= 15
        calls.clear()
        assert main(["loop-phase", "--scenario", str(scen),
                     "--out", str(tmp_path / "l.csv")]) == 0
        assert len(calls) <= 3 * (1 + deepest)

    def test_empty_loop_list(self, tmp_path):
        out = tmp_path / "empty.csv"
        assert main(["loop-phase", "--scenario", UNIFORM, "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert len(lines) == 1  # header only
