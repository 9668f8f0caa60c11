"""Scenario schema parsing and validation diagnostics."""

import json

import pytest

from prepotential import ScenarioError, load_scenario, parse_scenario
from prepotential.scenario import bundled_scenario_path


def minimal_doc(**overrides):
    doc = {
        "version": 1,
        "charges": [{"q": 1.0, "line": {"kind": "rest", "position": [0, 0, 0]}}],
    }
    doc.update(overrides)
    return doc


class TestParsing:
    def test_minimal_document(self):
        sc = parse_scenario(minimal_doc())
        assert len(sc.charges) == 1
        assert sc.grid is None
        assert sc.output.format == "csv"

    def test_uniform_line_from_3velocity(self):
        sc = parse_scenario(minimal_doc(charges=[
            {"q": -2.0, "line": {"kind": "uniform", "event": [0, 0, 0, 0],
                                 "velocity": [0, 0, 0.5]}}
        ]))
        u = sc.charges.charges[0].line.velocity_u
        assert abs(u.x0 - 1 / (1 - 0.25) ** 0.5) < 1e-12

    def test_sampled_line(self):
        sc = parse_scenario(minimal_doc(charges=[
            {"q": 1.0, "line": {"kind": "sampled", "taus": [0, 1],
                                "events": [[0, 0, 0, 0], [1, 0, 0, 0.3]]}}
        ]))
        assert len(sc.charges.charges[0].line.events) == 2

    def test_grid_and_loops(self):
        sc = parse_scenario(minimal_doc(
            grid={"time": 0.0, "origin": [-1, -1, 0.5],
                  "axes": [[1, 0, 0], [0, 1, 0]],
                  "extents": [2.0, 2.0], "resolution": [3, 5]},
            loops=[{"kind": "circle", "center": [0, 0, 0.5], "radius": 1.0,
                    "turns": -1, "samples": 16}],
        ))
        pts = list(sc.grid.points())
        assert len(pts) == 15
        assert pts[0].x0 == 0.0
        assert len(sc.loops) == 1
        assert sc.loops[0].closed

    @pytest.mark.parametrize("closed, want", [(True, True), (False, False), (None, True)])
    def test_points_loop_closed_flag(self, closed, want):
        loop = {"kind": "points", "events": [[0, 1, 0, 0.5], [0, 0, 1, 0.5], [0, -1, 0, 0.5]]}
        if closed is not None:
            loop["closed"] = closed
        assert parse_scenario(minimal_doc(loops=[loop])).loops[0].closed is want

    @pytest.mark.parametrize("closed", ["false", "true", 0, 1, None])
    def test_points_loop_closed_must_be_a_boolean(self, closed):
        loop = {"kind": "points", "closed": closed,
                "events": [[0, 1, 0, 0.5], [0, 0, 1, 0.5], [0, -1, 0, 0.5]]}
        with pytest.raises(ScenarioError, match=r"loops\[0\]\.closed"):
            parse_scenario(minimal_doc(loops=[loop]))

    def test_circle_loop_turn_count(self):
        sc = parse_scenario(minimal_doc(
            loops=[{"kind": "circle", "radius": 1.0, "turns": 2, "samples": 12}]
        ))
        assert len(sc.loops[0].events) == 24


class TestValidation:
    def test_version_required(self):
        with pytest.raises(ScenarioError, match="version"):
            parse_scenario(minimal_doc(version=2))

    def test_charges_required(self):
        with pytest.raises(ScenarioError, match="charges"):
            parse_scenario({"version": 1, "charges": []})

    def test_zero_charge_rejected(self):
        with pytest.raises(ScenarioError, match="charges"):
            parse_scenario(minimal_doc(charges=[
                {"q": 0.0, "line": {"kind": "rest", "position": [0, 0, 0]}}
            ]))

    def test_superluminal_velocity_rejected(self):
        with pytest.raises(ScenarioError, match="velocity"):
            parse_scenario(minimal_doc(charges=[
                {"q": 1.0, "line": {"kind": "uniform", "velocity": [1.2, 0, 0]}}
            ]))

    def test_resolution_floor(self):
        with pytest.raises(ScenarioError, match="resolution"):
            parse_scenario(minimal_doc(
                grid={"time": 0, "origin": [0, 0, 0], "axes": [[1, 0, 0]],
                      "extents": [1.0], "resolution": [1]},
            ))

    def test_unknown_check_name(self):
        with pytest.raises(ScenarioError, match="unknown check"):
            parse_scenario(minimal_doc(checks=["no-such-check"]))

    def test_unknown_loop_kind(self):
        with pytest.raises(ScenarioError, match="loop kind"):
            parse_scenario(minimal_doc(loops=[{"kind": "hexagram"}]))

    def test_bad_output_format(self):
        with pytest.raises(ScenarioError, match="format"):
            parse_scenario(minimal_doc(output={"format": "xml"}))


class TestLoading:
    def test_missing_file(self, tmp_path):
        with pytest.raises(ScenarioError, match="not found"):
            load_scenario(tmp_path / "nope.json")

    def test_invalid_json_reports_line(self, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text("{ not json }")
        with pytest.raises(ScenarioError, match="line"):
            load_scenario(p)

    def test_roundtrip_file(self, tmp_path):
        p = tmp_path / "ok.json"
        p.write_text(json.dumps(minimal_doc()))
        sc = load_scenario(p)
        assert len(sc.charges) == 1

    def test_bundled_scenarios_exist(self):
        for name in ("rest_charge", "uniform_charge"):
            sc = load_scenario(bundled_scenario_path(name))
            assert sc.charges

    def test_unknown_bundled_name(self):
        with pytest.raises(ScenarioError, match="available"):
            bundled_scenario_path("does_not_exist")
