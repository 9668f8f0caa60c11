"""Scenario configuration: a versioned JSON document describing charges,
a field-evaluation grid, loops, verification checks, and output.

Schema (version 1):

    {
      "version": 1,
      "charges": [
        {"q": 1.0, "line": {"kind": "rest", "position": [0, 0, 0]}},
        {"q": 1.0, "line": {"kind": "uniform", "event": [0, 0, 0, 0],
                             "velocity": [0, 0, 0.5]}},
        {"q": 1.0, "line": {"kind": "sampled",
                             "taus": [0, 1], "events": [[...], [...]]}}
      ],
      "grid": {"time": 0.0, "origin": [x1, x2, x3],
               "axes": [[1,0,0], [0,1,0]], "extents": [4.0, 4.0],
               "resolution": [11, 11]},
      "loops": [
        {"kind": "circle", "center": [0, 0, 0.5], "radius": 1.0,
         "time": 0.0, "turns": 1, "samples": 240},
        {"kind": "points", "closed": true, "events": [[t,x1,x2,x3], ...]}
      ],
      "checks": ["matrix-relations", ...],
      "output": {"format": "csv", "path": "out.csv"}
    }

Grid points are origin + sum_i t_i * axis_i with t_i running over
linspace(0, extent_i, resolution_i) at the fixed time slice. Circles are
sampled in the x1-x2 plane around the given center; negative turns run
clockwise.
"""

from __future__ import annotations

import json
import math
import operator
import os
from dataclasses import dataclass, field
from functools import cached_property
from importlib import resources
from pathlib import Path as FsPath

import numpy as np

from .errors import ScenarioError
from .potential import (
    Charge,
    ChargeSystem,
    Path,
    _path_failure,
    _path_stack,
    _PathStack,
    _stack_paths,
)
from .spacetime import (
    FourVector,
    RestLine,
    SampledLine,
    UniformLine,
    four_velocity_from_3velocity,
)

__all__ = [
    "GridSpec",
    "OutputSpec",
    "Scenario",
    "CHECK_NAMES",
    "parse_scenario",
    "load_scenario",
    "bundled_scenario_path",
]

SCHEMA_VERSION = 1

CHECK_NAMES = (
    "matrix-relations",
    "zeta-invariance",
    "rest-charge-field",
    "uniform-motion-triangle",
    "wave-residual",
    "claim1-covariance",
    "loop-phase",
)


@dataclass(frozen=True)
class GridSpec:
    time: float
    origin: tuple[float, float, float]
    axes: tuple[tuple[float, float, float], ...]
    extents: tuple[float, ...]
    resolution: tuple[int, ...]

    def array(self) -> np.ndarray:
        """The grid's events as an (N, 4) array in row-major axis order
        (the last axis varies fastest)."""
        ticks = np.meshgrid(*(np.linspace(0.0, ext, res)
                              for ext, res in zip(self.extents, self.resolution)),
                            indexing="ij")
        pos = np.asarray(self.origin, dtype=float)
        for t, ax in zip(ticks, self.axes):
            pos = pos + t.reshape(-1, 1) * np.asarray(ax, dtype=float)
        X = np.empty((len(pos), 4))
        X[:, 0] = self.time
        X[:, 1:] = pos
        return X

    def finite(self) -> bool:
        """Whether every cell of array() is finite, from its 2^d corner cells
        alone: each cell is affine in the ticks and rounding is monotone, so
        every coordinate of every cell lies between its values at two
        corners. The corners are summed in array()'s order in Python floats,
        which overflow to inf without a warning."""
        corners = [tuple(map(float, self.origin))]
        for ax, ext in zip(self.axes, self.extents):
            ends = [0.0 * a for a in ax], [ext * a for a in ax]
            corners = [tuple(map(operator.add, c, d)) for c in corners for d in ends]
        return all(map(math.isfinite, [v for c in corners for v in c]))

    def points(self):
        """Yield FourVector grid points in row-major axis order."""
        for row in self.array():
            yield FourVector.from_array(row)


@dataclass(frozen=True)
class OutputSpec:
    format: str = "csv"
    path: str | None = None


@dataclass(frozen=True)
class Scenario:
    charges: ChargeSystem
    grid: GridSpec | None = None
    loops: tuple[Path, ...] = ()
    checks: tuple[str, ...] = ()
    output: OutputSpec = field(default_factory=OutputSpec)

    @cached_property
    def loop_stack(self) -> _PathStack:
        """The loops stacked for the loop pass (potential._PathStack)."""
        return _stack_paths(self.loops)


def _require(cond: bool, msg: str):
    if not cond:
        raise ScenarioError(msg)


def _number(raw, where: str) -> float:
    """A finite number read from the document, or ScenarioError."""
    # the messages are formatted only on failure: a scenario holds
    # thousands of numbers, and each CLI call parses it
    try:
        val = float(raw)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ScenarioError(f"{where}: expected a number, got {raw!r}") from exc
    if not math.isfinite(val):
        raise ScenarioError(f"{where}: must be finite, got {raw!r}")
    return val


def _integer(raw, where: str) -> int:
    """An integral number read from the document, or ScenarioError: a
    fractional count is an error, not truncated."""
    val = _number(raw, where)
    if not val.is_integer():
        raise ScenarioError(f"{where}: expected an integer, got {raw!r}")
    return int(val)


def _floats(raw, n: int, where: str) -> tuple[float, ...]:
    _require(isinstance(raw, (list, tuple)) and len(raw) == n,
             f"{where}: expected {n} numbers")
    return tuple(_number(v, where) for v in raw)


def _rows(raw: list, width: int | None, where: str) -> np.ndarray:
    """A list of numbers (width None) or of width-number lists read as one
    float array. numpy reads the whole list at once, as float() would each
    number; whatever it rejects, shapes otherwise or reads as not finite is
    read again number by number, so that the error names its element."""
    shape = (len(raw),) if width is None else (len(raw), width)
    try:
        arr = np.array(raw, dtype=float)
    except (TypeError, ValueError, OverflowError):
        arr = None
    if arr is None or arr.shape != shape or not np.isfinite(arr).all():
        if width is None:
            return np.array(_floats(raw, len(raw), where))
        return np.array([_floats(e, width, f"{where}[{i}]") for i, e in enumerate(raw)])
    return arr


def _parse_line(raw: dict, where: str):
    _require(isinstance(raw, dict), f"{where}: line must be an object")
    kind = raw.get("kind")
    if kind == "rest":
        return RestLine(_floats(raw.get("position"), 3, f"{where}.position"))
    if kind == "uniform":
        ev = _floats(raw.get("event", [0, 0, 0, 0]), 4, f"{where}.event")
        if "velocity" in raw:
            v3 = _floats(raw["velocity"], 3, f"{where}.velocity")
            _require(sum(c * c for c in v3) < 1.0, f"{where}.velocity: |v| must be < 1")
            u = four_velocity_from_3velocity(v3)
        elif "u" in raw:
            uc = _floats(raw["u"], 4, f"{where}.u")
            u = FourVector(*uc)
        else:
            raise ScenarioError(f"{where}: uniform line needs 'velocity' or 'u'")
        try:
            return UniformLine(FourVector(*ev), u)
        except ValueError as exc:
            raise ScenarioError(f"{where}: {exc}") from exc
    if kind == "sampled":
        taus = raw.get("taus")
        events = raw.get("events")
        _require(isinstance(taus, list) and isinstance(events, list)
                 and len(taus) == len(events) and len(taus) >= 2,
                 f"{where}: sampled line needs matching 'taus' and 'events' lists")
        evs = tuple(FourVector(*e) for e in _rows(events, 4, f"{where}.events").tolist())
        try:
            return SampledLine(tuple(_rows(taus, None, f"{where}.taus").tolist()), evs)
        except ValueError as exc:
            raise ScenarioError(f"{where}: {exc}") from exc
    raise ScenarioError(f"{where}: unknown line kind {kind!r}")


try:  # loop samples, 4 float64 coordinates each, that physical memory holds
    _MAX_LOOP_ROWS = os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE") // 32
except (AttributeError, ValueError, OSError):  # the host does not say
    _MAX_LOOP_ROWS = np.iinfo(np.intp).max // 32


def _loop_fields(raw: dict, where: str, rows: int) -> tuple:
    """A loop's size, closedness and either its points (a points loop) or
    its circle's (time, x1, x2, x3, radius, 2 pi turns), read from the
    document; the loops before it hold `rows` samples."""
    _require(isinstance(raw, dict), f"{where}: loop must be an object")
    kind = raw.get("kind", "circle")
    if kind == "circle":
        center = _floats(raw.get("center", [0, 0, 0]), 3, f"{where}.center")
        radius = _number(raw.get("radius", 1.0), f"{where}.radius")
        _require(radius > 0, f"{where}.radius must be positive")
        time = _number(raw.get("time", 0.0), f"{where}.time")
        turns = _integer(raw.get("turns", 1), f"{where}.turns")
        _require(turns != 0, f"{where}.turns must be a nonzero integer")
        samples = _integer(raw.get("samples", 240), f"{where}.samples")
        _require(samples >= 8, f"{where}.samples must be >= 8")
        total = samples * abs(turns)
        _require(rows + total <= _MAX_LOOP_ROWS,
                 f"{where}: {samples} samples x {abs(turns)} turns do not fit in memory")
        sign = 1.0 if turns > 0 else -1.0
        return total, True, (time, *center, radius, sign * 2.0 * math.pi * abs(turns))
    if kind == "points":
        events = raw.get("events")
        _require(isinstance(events, list) and len(events) >= 2,
                 f"{where}: points loop needs an 'events' list")
        points = _rows(events, 4, f"{where}.events")
        closed = raw.get("closed", True)
        _require(isinstance(closed, bool),
                 f"{where}.closed: expected true or false, got {closed!r}")
        return len(points), closed, points
    raise ScenarioError(f"{where}: unknown loop kind {kind!r}")


def _stack_loops(loops: list, wheres) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Loops read by _loop_fields as one read-only (N, 4) array, loop after
    loop, with each loop's size and closedness. Every circle is sampled in
    one pass, k of n samples at angle (2 pi turns) k / n, and every points
    loop copied in; ScenarioError names the first loop, in order, whose
    points _path_failure refuses."""
    sizes = np.array([n for n, _, _ in loops], dtype=np.intp)
    closed = np.array([c for _, c, _ in loops], dtype=bool)
    # a points loop's rows are sampled as a circle of radius 0, then copied over
    circles = np.array([f if isinstance(f, tuple) else (0.0,) * 6 for _, _, f in loops])
    time, x1, x2, x3, radius, coef = (np.repeat(col, sizes) for col in circles.reshape(-1, 6).T)
    start = np.cumsum(sizes) - sizes
    phi = coef * (np.arange(len(coef)) - np.repeat(start, sizes)) / np.repeat(sizes, sizes)
    P = np.empty((len(phi), 4))
    P[:, 0] = time
    # a sample past the float limit comes out inf, which _path_failure refuses
    with np.errstate(over="ignore"):
        P[:, 1] = x1 + radius * np.cos(phi)
        P[:, 2] = x2 + radius * np.sin(phi)
    P[:, 3] = x3
    for (n, _, f), a in zip(loops, start.tolist()):
        if not isinstance(f, tuple):
            P[a:a + n] = f
    failure = _path_failure(P, sizes, closed)
    if failure is not None:
        raise ScenarioError(f"{wheres[failure[0]]}: {failure[1]}")
    P.setflags(write=False)
    return P, sizes, closed


def _build_loops(raws: list, wheres) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """_stack_loops of the loop documents raws, loop j named wheres[j]. A
    loop whose fields fail is named only when no loop before it fails at
    its points."""
    loops, rows = [], 0
    for raw, where in zip(raws, wheres):
        try:
            loops.append(_loop_fields(raw, where, rows))
        except ScenarioError:
            _stack_loops(loops, wheres)
            raise
        rows += loops[-1][0]
    return _stack_loops(loops, wheres)


def parse_scenario(doc: dict) -> Scenario:
    _require(isinstance(doc, dict), "scenario must be a JSON object")
    _require(doc.get("version") == SCHEMA_VERSION,
             f"scenario version must be {SCHEMA_VERSION}, got {doc.get('version')!r}")

    raw_charges = doc.get("charges")
    _require(isinstance(raw_charges, list) and raw_charges,
             "charges: need a non-empty list")
    charges = []
    for i, rc in enumerate(raw_charges):
        _require(isinstance(rc, dict), f"charges[{i}] must be an object")
        q = _number(rc.get("q"), f"charges[{i}].q")
        line = _parse_line(rc.get("line"), f"charges[{i}].line")
        try:
            charges.append(Charge(q, line))
        except ValueError as exc:
            raise ScenarioError(f"charges[{i}]: {exc}") from exc

    grid = None
    if "grid" in doc and doc["grid"] is not None:
        g = doc["grid"]
        _require(isinstance(g, dict), "grid must be an object")
        axes_raw = g.get("axes")
        _require(isinstance(axes_raw, list) and 1 <= len(axes_raw) <= 3,
                 "grid.axes: need 1 to 3 direction vectors")
        axes = tuple(_floats(a, 3, f"grid.axes[{i}]") for i, a in enumerate(axes_raw))
        for i, ax in enumerate(axes):
            _require(any(c != 0 for c in ax), f"grid.axes[{i}] must be nonzero")
        extents = _floats(g.get("extents"), len(axes), "grid.extents")
        res_raw = g.get("resolution")
        _require(isinstance(res_raw, list) and len(res_raw) == len(axes),
                 "grid.resolution: one entry per axis")
        resolution = tuple(_integer(r, "grid.resolution") for r in res_raw)
        _require(all(r >= 2 for r in resolution),
                 "grid.resolution: every swept axis needs >= 2 points")
        grid = GridSpec(
            time=_number(g.get("time", 0.0), "grid.time"),
            origin=_floats(g.get("origin", [0, 0, 0]), 3, "grid.origin"),
            axes=axes,
            extents=extents,
            resolution=resolution,
        )
        _require(grid.finite(), "grid: every cell must be finite, but a corner cell overflows")

    raw_loops = doc.get("loops", [])
    _require(isinstance(raw_loops, list), "loops: need a list")
    stack, loops = None, ()
    if raw_loops:
        P, sizes, closed = _build_loops(raw_loops, [f"loops[{i}]" for i in range(len(raw_loops))])
        stack = _path_stack(P, sizes, closed)
        loops = tuple(map(Path._of_rows, np.split(P, np.cumsum(sizes)[:-1]), closed.tolist()))

    raw_checks = doc.get("checks", [])
    _require(isinstance(raw_checks, list), "checks: need a list of family names")
    checks = tuple(raw_checks)
    for c in checks:
        _require(c in CHECK_NAMES, f"unknown check name {c!r}")

    out_raw = doc.get("output", {})
    _require(isinstance(out_raw, dict), "output must be an object")
    fmt = out_raw.get("format", "csv")
    _require(fmt in ("csv", "json"), f"output.format must be 'csv' or 'json', got {fmt!r}")
    path = out_raw.get("path")
    _require(path is None or isinstance(path, str), "output.path must be a string")
    output = OutputSpec(format=fmt, path=path)

    scenario = Scenario(
        charges=ChargeSystem(tuple(charges)),
        grid=grid,
        loops=loops,
        checks=checks,
        output=output,
    )
    if stack is not None:  # the loops' own stack, not stacked again
        vars(scenario)["loop_stack"] = stack
    return scenario


def load_scenario(path: str | FsPath) -> Scenario:
    p = FsPath(path)
    try:
        text = p.read_text(encoding="utf-8")
    except FileNotFoundError as exc:
        raise ScenarioError(f"scenario file not found: {p}") from exc
    except OSError as exc:
        raise ScenarioError(f"cannot read scenario file {p}: {exc.strerror or exc}") from exc
    except UnicodeDecodeError as exc:
        raise ScenarioError(f"{p}: not UTF-8 text at byte {exc.start}") from exc
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ScenarioError(f"{p}: invalid JSON at line {exc.lineno}: {exc.msg}") from exc
    return parse_scenario(doc)


def bundled_scenario_path(name: str) -> FsPath:
    """Filesystem path of a scenario shipped with the package."""
    base = resources.files("prepotential").joinpath("scenarios")
    candidate = base.joinpath(f"{name}.json")
    if not candidate.is_file():
        available = sorted(p.name[:-5] for p in base.iterdir() if p.name.endswith(".json"))
        raise ScenarioError(f"no bundled scenario {name!r}; available: {available}")
    return FsPath(str(candidate))
