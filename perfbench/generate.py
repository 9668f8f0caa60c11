"""Seeded scenario generator for the four benchmark workloads.

Every scenario is a plain version-1 scenario document, the only thing the
program under test sees. Loop scenarios carry a sidecar truth table (the
winding of every loop around every charge, known from the geometry) that
the reference checker uses and the program never reads.

The same (workload, seed, index, scale) always gives the same document.
"""

from __future__ import annotations

import math

import numpy as np

from reference import point_winding

WORKLOADS = ("grid-rest", "grid-moving", "loops", "verify")

# The verify families, listed here rather than taken from the program so
# that a family added later does not change the workload.
CHECK_NAMES = (
    "matrix-relations",
    "zeta-invariance",
    "rest-charge-field",
    "uniform-motion-triangle",
    "wave-residual",
    "claim1-covariance",
    "loop-phase",
)

# Grid sizes. grid-rest has the bundled rest_charge grid's spacing at 5
# cells per axis (125 cells), so that each call is short next to the
# drift of host speed that the timing normalises away;
# grid-moving is smaller because a sampled-line cell costs ~10x a rest cell.
REST_RESOLUTION = (5, 5, 5)
MOVING_RESOLUTION = (4, 4, 3)
SAMPLED_KNOTS = 24

# Loops per scenario and the fixed enclosure pattern they cycle through.
# Targets name the charges a loop must enclose; the pattern holds
# multi-charge enclosures at a fixed share (two loops in eight) so that
# the first-charge-only defect shows at the same rate for every seed.
LOOP_COUNT = 32
CIRCLE_TARGETS = ((0,), (), (0, 1), (0,))
POLYGON_TARGETS = ((0,), (), (0,), (0, 2))
CIRCLE_TURNS = (1, 2, -1, 1)
CIRCLE_SAMPLES = 240


def _rng(workload: str, seed: int, index: int) -> np.random.Generator:
    tag = WORKLOADS.index(workload)
    return np.random.default_rng([int(seed) & 0xFFFFFFFF, tag, index])


def _dyadic(rng, lo: float, hi: float, denom: int = 32) -> float:
    """Random multiple of 1/denom in [lo, hi]; grid arithmetic on these
    values is exact, so charges can sit exactly on grid columns."""
    return int(rng.integers(math.ceil(lo * denom), math.floor(hi * denom) + 1)) / denom


def _grid_doc(rng, resolution, spacing_range):
    spacing = [_dyadic(rng, *spacing_range) for _ in range(3)]
    origin = [_dyadic(rng, -3.0, 0.0) for _ in range(3)]
    return {
        "time": _dyadic(rng, -1.0, 1.0),
        "origin": origin,
        "axes": [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]],
        "extents": [s * (n - 1) for s, n in zip(spacing, resolution)],
        "resolution": list(resolution),
    }, spacing


def _column_charge(rng, grid, spacing):
    """Rest position on a grid column (so that column lies on the charge's
    singular axis), below the lowest grid layer."""
    res = grid["resolution"]
    i = int(rng.integers(res[0] // 4, res[0] - res[0] // 4))
    j = int(rng.integers(res[1] // 4, res[1] - res[1] // 4))
    o = grid["origin"]
    return [o[0] + i * spacing[0], o[1] + j * spacing[1],
            o[2] - _dyadic(rng, 0.375, 0.75)]


def _charge_q(rng) -> float:
    return float(rng.choice([-1.0, 1.0]) * rng.uniform(0.5, 2.0))


def _unit(rng) -> np.ndarray:
    v = rng.normal(size=3)
    return v / np.linalg.norm(v)


def _outside_box(rng, grid) -> np.ndarray:
    """A point 0.5 to 1.5 beyond a random face of the grid box."""
    lo = np.asarray(grid["origin"], dtype=float)
    hi = lo + np.asarray(grid["extents"], dtype=float)
    p = rng.uniform(lo, hi)
    axis = int(rng.integers(0, 3))
    if rng.random() < 0.5:
        p[axis] = lo[axis] - rng.uniform(0.5, 1.5)
    else:
        p[axis] = hi[axis] + rng.uniform(0.5, 1.5)
    return p


def grid_rest(seed: int, index: int = 0, scale: float = 1.0) -> dict:
    rng = _rng("grid-rest", seed, index)
    res = tuple(max(3, round(n * scale)) for n in REST_RESOLUTION)
    grid, spacing = _grid_doc(rng, res, (0.34375, 0.4375))
    return {
        "version": 1,
        "charges": [{"q": _charge_q(rng),
                     "line": {"kind": "rest",
                              "position": _column_charge(rng, grid, spacing)}}],
        "grid": grid,
        "output": {"format": "csv", "path": None},
    }


def _sampled_line(rng, present: np.ndarray, t_now: float) -> dict:
    """Piecewise-uniform line ending at t_now + 1 with a velocity jump at
    every interior knot (speeds 0.1 to 0.6, fresh random directions)."""
    times = np.linspace(t_now - 14.0, t_now + 1.0, SAMPLED_KNOTS)
    times[1:-1] += rng.uniform(-0.2, 0.2, size=SAMPLED_KNOTS - 2)
    vels = [rng.uniform(0.1, 0.6) * _unit(rng) for _ in range(SAMPLED_KNOTS - 1)]
    # integrate outwards from the present position at t_now
    k_now = int(np.searchsorted(times, t_now)) - 1
    pos = np.empty((SAMPLED_KNOTS, 3))
    pos[k_now] = present - vels[k_now] * (t_now - times[k_now])
    for k in range(k_now + 1, SAMPLED_KNOTS):
        pos[k] = pos[k - 1] + vels[k - 1] * (times[k] - times[k - 1])
    for k in range(k_now - 1, -1, -1):
        pos[k] = pos[k + 1] - vels[k] * (times[k + 1] - times[k])
    return {
        "kind": "sampled",
        "taus": [float(t) for t in times],
        "events": [[float(t), *map(float, p)] for t, p in zip(times, pos)],
    }


def grid_moving(seed: int, index: int = 0, scale: float = 1.0) -> dict:
    rng = _rng("grid-moving", seed, index)
    res = tuple(max(2, round(n * scale)) for n in MOVING_RESOLUTION)
    grid, spacing = _grid_doc(rng, res, (0.6875, 1.0))
    t = grid["time"]
    speed = rng.uniform(0.5, 0.9)
    velocity = speed * _unit(rng)
    present = _outside_box(rng, grid)
    return {
        "version": 1,
        "charges": [
            {"q": _charge_q(rng),
             "line": {"kind": "rest",
                      "position": _column_charge(rng, grid, spacing)}},
            {"q": _charge_q(rng),
             "line": {"kind": "uniform",
                      "event": [t, *map(float, present)],
                      "velocity": [float(c) for c in velocity]}},
            {"q": _charge_q(rng),
             "line": _sampled_line(rng, _outside_box(rng, grid), t)},
        ],
        "grid": grid,
        "output": {"format": "csv", "path": None},
    }


def _loop_charges(rng, t):
    """Charge 0 moves along x3 (its singular axis stays one vertical line,
    so polygon edges can pass at a known tiny distance from it); charge 1
    rests; charge 2 moves with a small transverse drift."""
    base = rng.uniform(-1.0, 1.0, size=2)
    theta = rng.uniform(0.0, 2 * math.pi)
    phi = theta + rng.uniform(math.pi / 3, 2 * math.pi / 3)
    sites = [base, base + 3.0 * np.array([math.cos(theta), math.sin(theta)]),
             base + 3.0 * np.array([math.cos(phi), math.sin(phi)])]
    z = rng.uniform(-1.0, 1.0, size=3)
    v0 = [0.0, 0.0, float(rng.choice([-1, 1]) * rng.uniform(0.3, 0.8))]
    drift = rng.uniform(0.0, 0.04) * np.array([math.cos(phi), math.sin(phi)])
    v2 = [float(drift[0]), float(drift[1]), float(rng.uniform(-0.5, 0.5))]
    return [
        {"q": _charge_q(rng),
         "line": {"kind": "uniform", "event": [t, *sites[0], z[0]], "velocity": v0}},
        {"q": _charge_q(rng),
         "line": {"kind": "rest", "position": [*sites[1], z[1]]}},
        {"q": _charge_q(rng),
         "line": {"kind": "uniform", "event": [t, *sites[2], z[2]], "velocity": v2}},
    ]


def _drift_radius(charge: dict, t: float, plane_z: float, reach: float) -> float:
    """Bound on how far the charge's retarded transverse position moves
    from its present one for observers within `reach` (transversely) at
    height plane_z, time t."""
    line = charge["line"]
    if line["kind"] == "rest":
        return 0.0
    v = np.asarray(line["velocity"])
    if v[0] == 0.0 and v[1] == 0.0:
        return 0.0
    present = np.asarray(line["event"][1:]) + v * (t - line["event"][0])
    d_max = math.hypot(reach, abs(plane_z - present[2]))
    return float(np.hypot(v[0], v[1])) * d_max / (1.0 - float(np.linalg.norm(v)))


def _present_site(charge: dict, t: float) -> np.ndarray:
    line = charge["line"]
    if line["kind"] == "rest":
        return np.asarray(line["position"][:2], dtype=float)
    e = np.asarray(line["event"], dtype=float)
    v = np.asarray(line["velocity"], dtype=float)
    return e[1:3] + v[:2] * (t - e[0])


def _polygon_distance(verts: np.ndarray, p: np.ndarray) -> float:
    a = verts
    ab = np.roll(verts, -1, axis=0) - a
    s = np.clip(np.einsum("ij,ij->i", p - a, ab) / np.einsum("ij,ij->i", ab, ab), 0.0, 1.0)
    return float(np.min(np.linalg.norm(p - (a + s[:, None] * ab), axis=1)))


def _classify(charges, t, z, verts, turns, skip_first: bool):
    """Winding of the planar loop (vertices `verts`, traversed `turns`
    times) around each charge's singular axis, or None when a charge's
    retarded axis can come within the safety margin of the loop."""
    windings = []
    reach = float(np.max(np.linalg.norm(verts - verts.mean(axis=0), axis=1)))
    for k, ch in enumerate(charges):
        site = _present_site(ch, t)
        w2d = point_winding(verts, site) * turns
        if not (skip_first and k == 0):
            span = reach + float(np.linalg.norm(site - verts.mean(axis=0)))
            margin = 0.1 + _drift_radius(ch, t, z, span)
            if _polygon_distance(verts, site) < margin:
                return None
        # the phase of zeta turns against the loop: a counter-clockwise
        # turn around the axis gives winding -1
        windings.append(-w2d)
    return windings


def _circle_verts(center, radius, n=CIRCLE_SAMPLES):
    phis = 2 * math.pi * np.arange(n) / n
    return np.stack([center[0] + radius * np.cos(phis),
                     center[1] + radius * np.sin(phis)], axis=1)


def _circle(rng, charges, t, target, turns):
    for _ in range(10_000):
        z = rng.uniform(-1.5, 1.5)
        if target:
            anchor = np.mean([_present_site(charges[k], t) for k in target], axis=0)
        else:
            anchor = rng.uniform(-4.0, 4.0, size=2)
        center = anchor + rng.uniform(-0.5, 0.5, size=2)
        radius = rng.uniform(0.8, 2.2) if len(target) < 2 else rng.uniform(2.2, 4.0)
        w = _classify(charges, t, z, _circle_verts(center, radius), 1, False)
        if w is None or {k for k, v in enumerate(w) if v} != set(target):
            continue
        loop = {"kind": "circle", "center": [float(center[0]), float(center[1]), z],
                "radius": float(radius), "time": t, "turns": turns,
                "samples": CIRCLE_SAMPLES}
        return loop, [v * turns for v in w]
    raise RuntimeError(f"no circle found for target {target}")


def _polygon(rng, charges, t, target):
    """Regular 4-6 gon with one edge passing a tiny distance (1e-6 to 1e-3
    of the edge length) from charge 0's singular axis, inside when charge
    0 is a target and outside otherwise. The axis sits off the edge's
    midpoint, so halving the edge does not settle its phase swing at once:
    the edge refines to depth ~log2(length / distance)."""
    s0 = _present_site(charges[0], t)
    enclose0 = 0 in target
    for _ in range(10_000):
        z = rng.uniform(-1.5, 1.5)
        n = int(rng.integers(4, 7))
        circ = rng.uniform(0.8, 1.6) if len(target) < 2 else rng.uniform(3.0, 4.5)
        edge = 2.0 * circ * math.sin(math.pi / n)
        d = edge * 10.0 ** rng.uniform(-6.0, -3.0)
        if len(target) == 2:
            away = s0 - _present_site(charges[target[1]], t)
            heading = math.atan2(away[1], away[0]) + rng.uniform(-0.3, 0.3)
        else:
            heading = rng.uniform(0.0, 2 * math.pi)
        m = np.array([math.cos(heading), math.sin(heading)])
        along = edge * rng.uniform(-0.4, 0.4) * np.array([-m[1], m[0]])
        apothem = circ * math.cos(math.pi / n)
        center = s0 - along - (apothem - d if enclose0 else apothem + d) * m
        # the edge between vertices 0 and 1 has its outward normal along m
        angles = heading + math.pi / n * (2 * np.arange(n) - 1)
        verts = center + circ * np.stack([np.cos(angles), np.sin(angles)], axis=1)
        w = _classify(charges, t, z, verts, 1, True)
        if w is None or {k for k, v in enumerate(w) if v} != set(target):
            continue
        events = [[t, float(x), float(y), z] for x, y in verts]
        return {"kind": "points", "closed": True, "events": events}, w
    raise RuntimeError(f"no polygon found for target {target}")


def loops(seed: int, index: int = 0, scale: float = 1.0) -> dict:
    """Loops scenario; the returned document has a "truth" key (windings
    per loop and charge) that is removed before the program sees it."""
    rng = _rng("loops", seed, index)
    t = _dyadic(rng, -1.0, 1.0)
    charges = _loop_charges(rng, t)
    count = max(2, round(LOOP_COUNT * scale))
    docs, truth = [], []
    for i in range(count):
        k = i // 2
        if i % 2 == 0:
            loop, w = _circle(rng, charges, t, CIRCLE_TARGETS[k % 4], CIRCLE_TURNS[k % 4])
        else:
            loop, w = _polygon(rng, charges, t, POLYGON_TARGETS[k % 4])
        docs.append(loop)
        truth.append(w)
    return {
        "version": 1,
        "charges": charges,
        "loops": docs,
        "output": {"format": "csv", "path": None},
        "truth": {"windings": truth},
    }


def verify(seed: int, index: int = 0, scale: float = 1.0) -> dict:
    """Verify scenario: one of the seven families (index mod 7), run with
    the workload seed on the command line (indices 0-6) or a seed drawn
    from it (later indices). One family per call keeps each timed call
    short. The loop-phase family uses its default loops because the
    scenario has none; the families build their own charges."""
    if index >= len(CHECK_NAMES):
        seed = int(_rng("verify", seed, index // len(CHECK_NAMES)).integers(0, 2**31))
    return {
        "version": 1,
        "charges": [{"q": 1.0, "line": {"kind": "rest", "position": [0.0, 0.0, 0.0]}}],
        "checks": [CHECK_NAMES[index % len(CHECK_NAMES)]],
        "output": {"format": "csv", "path": None},
        "seed": int(seed),
    }


GENERATORS = {
    "grid-rest": grid_rest,
    "grid-moving": grid_moving,
    "loops": loops,
    "verify": verify,
}


def generate(workload: str, seed: int, index: int = 0, scale: float = 1.0):
    """(scenario document for the program, sidecar data for the checker)."""
    doc = GENERATORS[workload](seed, index, scale)
    side = {k: doc.pop(k) for k in ("truth", "seed") if k in doc}
    return doc, side


def input_size(workload: str, doc: dict) -> dict:
    """Sizes that give each goodput its base."""
    out = {"charges": len(doc["charges"]),
           "knots": sum(len(c["line"].get("taus", ())) for c in doc["charges"])}
    if "grid" in doc:
        out["cells"] = int(np.prod(doc["grid"]["resolution"]))
    if doc.get("loops"):
        circles = [lp for lp in doc["loops"] if lp["kind"] == "circle"]
        out["loops"] = len(doc["loops"])
        out["circle_samples"] = sum(lp["samples"] * abs(lp["turns"]) for lp in circles)
        out["polygon_samples"] = sum(len(lp["events"]) for lp in doc["loops"]
                                     if lp["kind"] == "points")
    if workload == "verify":
        out["families"] = len(doc["checks"])
    return out
