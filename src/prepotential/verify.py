"""Named verification families runnable from the CLI and the test suite.

Each family measures deviations against its pinned tolerance and reports;
nothing here raises on a failed physics check. Randomized families draw
from an explicit seed for deterministic runs.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from .errors import PrepotentialError
from .fields import (
    ScalarField,
    boosted_coulomb_oracle,
    claim1_covariance_check,
    faraday_from_S,
    faraday_uniform,
    FaradayVector,
    second_partials,
)
from .loops import ab_phase_reports
from .matrices import upsilon, validate_relations
from .potential import Charge, ChargeSystem, Path, zetas_of
from .scenario import Scenario
from .spacetime import (
    FourVector,
    RestLine,
    UniformLine,
    four_velocity_from_3velocity,
    retarded_null_vectors,
)

__all__ = ["CheckResult", "RunReport", "run_checks", "DEFAULT_SEED"]

DEFAULT_SEED = 20240801


@dataclass(frozen=True)
class CheckResult:
    name: str
    max_deviation: float
    tolerance: float
    passed: bool
    detail: str
    elapsed_s: float


@dataclass(frozen=True)
class RunReport:
    results: tuple[CheckResult, ...]

    @property
    def all_passed(self) -> bool:
        return all(r.passed for r in self.results)


def _shell_points(rng, n: int, rmin=0.5, rmax=4.0, axis_guard=0.4) -> list[np.ndarray]:
    """Spatial points with rmin <= |x| <= rmax and relative distance from
    the x3-axis at least axis_guard."""
    pts: list[np.ndarray] = []
    while len(pts) < n:
        v = rng.normal(size=3)
        nv = np.linalg.norm(v)
        if nv < 1e-12:
            continue
        v /= nv
        if math.hypot(v[0], v[1]) < axis_guard:
            continue
        pts.append(rng.uniform(rmin, rmax) * v)
    return pts


def _random_null(rng) -> np.ndarray:
    k = rng.normal(size=3)
    while np.linalg.norm(k) < 1e-6 or math.hypot(k[0], k[1]) < 1e-3 * np.linalg.norm(k):
        k = rng.normal(size=3)
    k *= rng.uniform(0.2, 5.0) / np.linalg.norm(k)
    return np.array([np.linalg.norm(k), k[0], k[1], k[2]])


def check_matrix_relations(rng, tol_scale: float, scenario=None) -> CheckResult:
    report = validate_relations()
    worst = max(report.checks, key=lambda c: c.max_deviation / c.tolerance)
    detail = f"{len(report.checks)} relation families; worst: {worst.name}"
    return CheckResult(
        "matrix-relations",
        report.max_deviation,
        worst.tolerance * tol_scale,
        all(c.max_deviation < c.tolerance * tol_scale for c in report.checks),
        detail,
        0.0,
    )


def check_zeta_invariance(
    rng, tol_scale: float, scenario=None, vectors: int = 1000, rapidities: int = 5
) -> CheckResult:
    tol = 1e-10 * tol_scale
    psis = rng.uniform(-2.0, 2.0, size=rapidities)
    A = np.array([_random_null(rng) for _ in range(vectors)])
    z0 = zetas_of(A)
    worst = 0.0
    # one batch per half-boost: all 15 copies at once would hold ~6 MB more
    for j in (1, 2, 3):
        for psi in psis:
            z1 = zetas_of(A.astype(complex) @ upsilon(j, psi).T)
            worst = max(worst, float(np.abs(z1 - z0).max()))
    return CheckResult(
        "zeta-invariance",
        worst,
        tol,
        worst < tol,
        f"{vectors} null vectors x 3 axes x {rapidities} rapidities",
        0.0,
    )


def check_rest_charge_field(
    rng, tol_scale: float, scenario=None, points: int = 200
) -> CheckResult:
    q = 1.0
    charge = Charge(q, RestLine((0.0, 0.0, 0.0)))
    field = ScalarField.from_charge(charge)
    e_tol = 1e-6 * tol_scale
    b_tol = 1e-8 * tol_scale
    e_dev = b_dev = 0.0
    for p in _shell_points(rng, points):
        x = FourVector(0.0, p[0], p[1], p[2])
        f = faraday_from_S(field, x)
        expected = q * p / float(np.linalg.norm(p)) ** 3
        e_dev = max(e_dev, float(np.abs(f.electric - expected).max())
                    / float(np.abs(expected).max()))
        b_dev = max(b_dev, float(np.abs(f.magnetic).max()))
    passed = e_dev < e_tol and b_dev < b_tol
    # report the sub-check closest to (or over) its tolerance
    dev, tol = (e_dev, e_tol) if e_dev / e_tol >= b_dev / b_tol else (b_dev, b_tol)
    return CheckResult(
        "rest-charge-field",
        dev,
        tol,
        passed,
        f"E rel dev {e_dev:.3e} (tol {e_tol:.0e}); B abs dev {b_dev:.3e} (tol {b_tol:.0e})",
        0.0,
    )


def _triangle_points(rng, speed: float, n: int) -> list[FourVector]:
    pts = []
    v = np.array([0.0, 0.0, speed])
    while len(pts) < n:
        t = rng.uniform(-1.0, 1.0)
        x = rng.uniform(-3.0, 3.0, size=3)
        present = x - v * t
        r = np.linalg.norm(present)
        if not (0.5 <= r <= 4.0) or math.hypot(present[0], present[1]) < 0.4:
            continue
        pts.append(FourVector(t, x[0], x[1], x[2]))
    return pts


def check_uniform_motion_triangle(
    rng, tol_scale: float, scenario=None, points: int = 50,
    speeds=(0.1, 0.5, 0.9),
) -> CheckResult:
    q = 1.0
    stencil_tol = 1e-4 * tol_scale
    exact_tol = 1e-10 * tol_scale
    dev_su = dev_so = dev_uo = 0.0
    for speed in speeds:
        u = four_velocity_from_3velocity([0.0, 0.0, speed])
        charge = Charge(q, UniformLine(FourVector(0, 0, 0, 0), u))
        field = ScalarField.from_charge(charge)
        pts = _triangle_points(rng, speed, points)
        _, A, _ = retarded_null_vectors(charge.line, np.array([x.as_array() for x in pts]))
        for x, a in zip(pts, A):
            fs = faraday_from_S(field, x).as_array()
            fu = faraday_uniform(q, a, u).as_array()
            fo = boosted_coulomb_oracle(q, [0, 0, speed], x).as_array()
            scale = float(np.abs(fo).max())
            dev_su = max(dev_su, float(np.abs(fs - fu).max()) / scale)
            dev_so = max(dev_so, float(np.abs(fs - fo).max()) / scale)
            dev_uo = max(dev_uo, float(np.abs(fu - fo).max()) / scale)
    passed = dev_su < stencil_tol and dev_so < stencil_tol and dev_uo < exact_tol
    return CheckResult(
        "uniform-motion-triangle",
        max(dev_su, dev_so),
        stencil_tol,
        passed,
        f"S-vs-direct {dev_su:.3e}, S-vs-oracle {dev_so:.3e} (tol {stencil_tol:.0e}); "
        f"direct-vs-oracle {dev_uo:.3e} (tol {exact_tol:.0e})",
        0.0,
    )


def check_wave_residual(
    rng, tol_scale: float, scenario=None, points: int = 40
) -> CheckResult:
    tol = 1e-5 * tol_scale
    worst = 0.0
    q = 1.0
    cases = [
        ("rest", Charge(q, RestLine((0.0, 0.0, 0.0))), 0.0),
        ("uniform v=0.5",
         Charge(q, UniformLine(FourVector(0, 0, 0, 0),
                               four_velocity_from_3velocity([0, 0, 0.5]))), 0.5),
    ]
    for _, charge, speed in cases:
        field = ScalarField.from_charge(charge)
        pts = (_triangle_points(rng, speed, points) if speed
               else [FourVector(0.0, *p) for p in _shell_points(rng, points)])
        _, A, _ = retarded_null_vectors(charge.line, np.array([x.as_array() for x in pts]))
        for x, a in zip(pts, A):
            scale = abs(q) / float(np.linalg.norm(a[1:])) ** 2
            # box S from the Richardson Hessian: near the axis the plain
            # diagonal stencil of wave_residual is stuck near 1e-5 of q/R^2
            # whatever its step
            H = second_partials(field, x)
            worst = max(worst, abs(H[0, 0] - H[1, 1] - H[2, 2] - H[3, 3]) / scale)
    return CheckResult(
        "wave-residual",
        worst,
        tol,
        worst < tol,
        f"|box S| scaled by q/R^2, rest and uniform, {points} points each",
        0.0,
    )


def check_claim1_covariance(
    rng, tol_scale: float, scenario=None, vectors: int = 100
) -> CheckResult:
    tol = 1e-12 * tol_scale
    worst = 0.0
    for _ in range(vectors):
        f = FaradayVector.from_array(rng.normal(size=3) + 1j * rng.normal(size=3))
        for j in (1, 2, 3):
            psi = float(rng.uniform(-2.0, 2.0))
            worst = max(worst, claim1_covariance_check(f, j, psi).max_deviation)
    return CheckResult(
        "claim1-covariance",
        worst,
        tol,
        worst < tol,
        f"{vectors} random field vectors x 3 boost axes",
        0.0,
    )


def _default_loops() -> list[Path]:
    from .scenario import build_loop

    specs = [
        {"kind": "circle", "center": [0, 0, 0.4], "radius": 1.0, "turns": t, "samples": 240}
        for t in (-2, -1, 1, 2)
    ]
    specs.append({"kind": "circle", "center": [2.5, 0, 0.4], "radius": 0.8,
                  "turns": 1, "samples": 240})
    return [build_loop(s, "default-loops") for s in specs]


def check_loop_phase(rng, tol_scale: float, scenario: Scenario | None = None) -> CheckResult:
    if scenario is not None and scenario.loops:
        charges = scenario.charges
        loops = list(scenario.loops)
    else:
        charges = ChargeSystem((Charge(1.0, RestLine((0.0, 0.0, 0.0))),))
        loops = _default_loops()
    tol = 1e-8 * max(abs(c.q) for c in charges) * tol_scale
    worst = 0.0
    agree = True
    windings = []
    for rep in ab_phase_reports(charges, loops, tolerance=tol):
        if isinstance(rep, PrepotentialError):
            raise rep
        worst = max(worst, rep.residual)
        for charge, delta, w in zip(charges, rep.charge_deltas, rep.windings):
            agree = agree and round(delta.imag / (2.0 * math.pi * charge.q)) == w
        windings.append(rep.windings[0] if len(rep.windings) == 1 else list(rep.windings))
    return CheckResult(
        "loop-phase",
        worst,
        tol,
        worst < tol and agree,
        f"windings {windings}; crossing oracle vs phase rounding agree: {agree}",
        0.0,
    )


_CHECK_FUNCTIONS = {
    "matrix-relations": check_matrix_relations,
    "zeta-invariance": check_zeta_invariance,
    "rest-charge-field": check_rest_charge_field,
    "uniform-motion-triangle": check_uniform_motion_triangle,
    "wave-residual": check_wave_residual,
    "claim1-covariance": check_claim1_covariance,
    "loop-phase": check_loop_phase,
}


def run_checks(
    names,
    seed: int = DEFAULT_SEED,
    tolerance_scale: float = 1.0,
    scenario: Scenario | None = None,
) -> RunReport:
    """Run the named check families with a fresh deterministic generator
    per family."""
    results = []
    for name in names:
        if name not in _CHECK_FUNCTIONS:
            raise KeyError(f"unknown check name {name!r}")
        rng = np.random.default_rng(seed)
        t0 = time.perf_counter()
        try:
            res = _CHECK_FUNCTIONS[name](rng, tolerance_scale, scenario)
        except PrepotentialError as exc:
            res = CheckResult(name, math.inf, 0.0, False, f"aborted: {exc}", 0.0)
        results.append(
            CheckResult(
                res.name, res.max_deviation, res.tolerance, res.passed,
                res.detail, time.perf_counter() - t0,
            )
        )
    return RunReport(tuple(results))
