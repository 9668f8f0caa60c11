"""Scenario schema parsing and validation diagnostics."""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from prepotential import ScenarioError, load_scenario, parse_scenario, potential, scenario
from prepotential.scenario import GridSpec, _floats, bundled_scenario_path


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


def _per_number(raw, width, where):
    """scenario._rows read number by number with _floats, as every list was
    read before _rows."""
    if width is None:
        return np.array(_floats(raw, len(raw), where))
    return np.array([_floats(e, width, f"{where}[{i}]") for i, e in enumerate(raw)])


# JSON values: numbers, bools, None, strings that float() reads or does not,
# and lists and objects of them
_strings = st.one_of(
    st.sampled_from(["1_000", " 1.5 ", "infinity", "-inf", "nan", "١٢", "0x10", "1.5j",
                     "", "-0", "1e400", "1__0", "2"]),
    st.from_regex(r"\s?[-+]?[0-9_]{0,3}(\.[0-9]{0,2})?([eE][-+]?[0-9]{1,3})?\s?",
                  fullmatch=True),
    st.text(max_size=3),
)
_scalars = st.one_of(st.floats(), st.integers(-2**70, 2**70), st.booleans(), st.none(),
                     _strings)
_values = st.recursive(_scalars, lambda inner: st.lists(inner, max_size=5)
                       | st.dictionaries(st.text(max_size=2), inner, max_size=2),
                       max_leaves=12)


@st.composite
def _line_and_loop(draw):
    """A document with a sampled line and a points loop, valid before up to
    three of their entries (a number, an event or a list) are replaced by
    arbitrary JSON values."""
    n = draw(st.integers(2, 6))
    taus = [float(t) for t in range(n)]
    events = [[t, 0.1 * t, 0.0, 0.0] for t in taus]
    loop = [[0.0, float(np.cos(t)), float(np.sin(t)), 0.5] for t in range(n + 1)]
    for _ in range(draw(st.integers(0, 3))):
        target = draw(st.sampled_from([taus, events, loop]))
        i = draw(st.integers(0, len(target) - 1))
        entry = target[i]
        if isinstance(entry, list) and len(entry) == 4 and draw(st.booleans()):
            entry[draw(st.integers(0, 3))] = draw(_values)
        else:
            target[i] = draw(_values)
    if draw(st.booleans()):
        loop.append(draw(_values))
    return minimal_doc(
        charges=[{"q": 1.0, "line": {"kind": "sampled", "taus": taus, "events": events}}],
        loops=[{"kind": "points", "events": loop}])


def _parsed(doc):
    try:
        sc = parse_scenario(doc)
    except ScenarioError as exc:
        return str(exc)
    return repr(sc.charges), [loop.points.tobytes() for loop in sc.loops]


class TestListsAsArrays:
    @given(doc=_line_and_loop())
    @settings(max_examples=300, deadline=None)
    def test_same_documents_and_messages_as_number_by_number(self, doc):
        got = _parsed(doc)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(scenario, "_rows", _per_number)
            want = _parsed(doc)
        assert got == want

    @given(raw=st.lists(st.one_of(_scalars, st.lists(_scalars, min_size=4, max_size=4)),
                        min_size=1, max_size=4),
           width=st.sampled_from([None, 4]))
    @settings(max_examples=300, deadline=None)
    def test_rows_read_as_number_by_number(self, raw, width):
        def outcome(read):
            try:
                return read(raw, width, "x").tobytes()
            except ScenarioError as exc:
                return str(exc)

        assert outcome(scenario._rows) == outcome(_per_number)


_wide = st.floats(allow_nan=False, allow_infinity=False)


class TestGridCorners:
    @given(
        time=_wide,
        origin=st.tuples(_wide, _wide, _wide),
        axes=st.lists(st.tuples(_wide, _wide, _wide), min_size=1, max_size=3),
        extents=st.lists(_wide, min_size=3, max_size=3),
        resolution=st.lists(st.integers(2, 4), min_size=3, max_size=3),
    )
    @settings(max_examples=300, deadline=None)
    def test_corners_are_finite_iff_every_cell_is(self, time, origin, axes, extents,
                                                  resolution):
        d = len(axes)
        grid = GridSpec(time, origin, tuple(axes), tuple(extents[:d]), tuple(resolution[:d]))
        with np.errstate(over="ignore", invalid="ignore"):
            assert grid.finite() == np.isfinite(grid.array()).all()

    def test_overflowing_grid_rejected(self):
        with pytest.raises(ScenarioError, match="a corner cell overflows"):
            parse_scenario(minimal_doc(grid={
                "time": 0.0, "origin": [1e308, 0.5, 0.5], "axes": [[1e308, 0, 0]],
                "extents": [10.0], "resolution": [3]}))


def _reference_loop(raw: dict, closed: bool) -> np.ndarray:
    """A loop's points sampled one loop at a time, as before the loops were
    stacked: the reference for the stacked loader."""
    if raw["kind"] == "points":
        return np.array(raw["events"], dtype=float)
    center, radius, turns = raw["center"], raw["radius"], raw["turns"]
    total = raw["samples"] * abs(turns)
    sign = 1.0 if turns > 0 else -1.0
    phi = sign * 2.0 * math.pi * abs(turns) * np.arange(total) / total
    points = np.empty((total, 4))
    points[:, 0] = raw["time"]
    with np.errstate(over="ignore"):
        points[:, 1] = center[0] + radius * np.cos(phi)
        points[:, 2] = center[1] + radius * np.sin(phi)
    points[:, 3] = center[2]
    return points


def _scaled(draw, lo=-10, hi=10):
    """A number of magnitude 1e-10 to 1e10 of either sign."""
    return draw(st.sampled_from([-1.0, 1.0])) * draw(st.floats(1.0, 10.0)) * 10.0 ** draw(
        st.integers(lo, hi))


@st.composite
def _loop_docs(draw):
    loops = []
    for _ in range(draw(st.integers(1, 5))):
        if draw(st.booleans()):
            loops.append({"kind": "circle", "center": [_scaled(draw) for _ in range(3)],
                          "radius": abs(_scaled(draw)), "time": _scaled(draw),
                          "turns": draw(st.sampled_from([-3, -2, -1, 1, 2, 3])),
                          "samples": draw(st.integers(8, 600))})
        else:
            n = draw(st.integers(2, 6))
            events = [[_scaled(draw) for _ in range(4)] for _ in range(n)]
            loops.append({"kind": "points", "closed": draw(st.booleans()), "events": events})
    return loops


class TestStackedLoops:
    @given(loops=_loop_docs())
    @settings(max_examples=300, deadline=None)
    def test_points_are_the_per_loop_reference(self, loops):
        # every loop's points, bit for bit, or the first failing loop's
        # message, as a loop at a time gave them
        want = []
        for i, raw in enumerate(loops):
            closed = raw.get("closed", True)
            try:
                want.append(potential.Path(_reference_loop(raw, closed), closed=closed))
            except ValueError as exc:
                want = f"loops[{i}]: {exc}"
                break
        try:
            sc = parse_scenario(minimal_doc(loops=loops))
        except ScenarioError as exc:
            assert str(exc) == want
            return
        assert [p.points.tobytes() for p in sc.loops] == [p.points.tobytes() for p in want]
        stack = sc.loop_stack
        for got, ref in zip(sc.loops, want):
            # a read-only view into the one stacked array
            assert not got.points.flags.writeable and not got.points.flags.owndata
            assert np.shares_memory(got.points, stack.points)
            assert got.closed == ref.closed
            assert got == ref and hash(got) == hash(ref)
            assert [e.as_array().tobytes() for e in got.events] == [
                r.tobytes() for r in ref.points]
        again = potential._stack_paths(want)
        for name in ("points", "owner", "edges", "ends", "chord_sq", "sizes", "closed", "last"):
            assert getattr(stack, name).tobytes() == getattr(again, name).tobytes(), name

    @pytest.mark.parametrize("loops, message", [
        # a point error of an earlier loop comes before a field error of a later one
        ([{"kind": "circle", "center": [1e10, 1e10, 0], "radius": 1e-10},
          {"kind": "circle", "radius": -1}],
         "loops[0]: consecutive path samples 0, 1 coincide"),
        ([{"kind": "circle", "center": [1e308, 0, 0], "radius": 1e308, "samples": 8},
          {"kind": "circle", "turns": 0}],
         "loops[0]: path points must be finite"),
        # and a field error of an earlier loop before a point error of a later one
        ([{"kind": "circle", "turns": 1.5},
          {"kind": "circle", "center": [1e308, 0, 0], "radius": 1e308, "samples": 8}],
         "loops[0].turns: expected an integer, got 1.5"),
        ([{"kind": "circle", "turns": "x"},
          {"kind": "points", "events": [[0, 0, 0, 0], [0, 1, 0, math.inf], [0, 1, 1, 0]]}],
         "loops[0].turns: expected a number, got 'x'"),
        # the first of two loops that fail at their points
        ([{"kind": "circle"},
          {"kind": "points", "events": [[0, 0, 0, 0], [0, 1, 0, 0], [0, 1, 0, 0]]},
          {"kind": "circle", "center": [1e308, 0, 0], "radius": 1e308, "samples": 8}],
         "loops[1]: consecutive path samples 1, 2 coincide"),
        ([{"kind": "points", "closed": True, "events": [[0, 0, 0, 0], [0, 1, 0, 0]]}],
         "loops[0]: a closed path needs at least 3 samples"),
        # within one loop, too few samples before coinciding ones
        ([{"kind": "circle"},
          {"kind": "points", "closed": True, "events": [[0, 0, 0, 0], [0, 0, 0, 0]]}],
         "loops[1]: a closed path needs at least 3 samples"),
    ])
    def test_first_failing_loop_in_document_order(self, loops, message):
        with pytest.raises(ScenarioError) as info:
            parse_scenario(minimal_doc(loops=loops))
        assert str(info.value) == message

    def test_next_loop_may_start_where_one_ends(self):
        # samples coincide only within a loop, not across two stacked loops
        ends = [[0, 0, 0, 0], [0, 1, 0, 0], [0, 1, 1, 0]]
        sc = parse_scenario(minimal_doc(loops=[
            {"kind": "points", "events": ends}, {"kind": "points", "events": ends[::-1]}]))
        assert [len(loop.points) for loop in sc.loops] == [3, 3]

    def test_oversized_circle_is_refused_before_it_is_built(self):
        # 8 samples x 2^62 turns is 2^65 samples: refused from the sizes alone
        loops = [{"kind": "circle"}, {"kind": "circle", "samples": 8, "turns": 2 ** 62}]
        with pytest.raises(ScenarioError) as info:
            parse_scenario(minimal_doc(loops=loops))
        assert str(info.value) == f"loops[1]: 8 samples x {2 ** 62} turns do not fit in memory"
