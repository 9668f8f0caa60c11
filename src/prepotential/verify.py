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
    _boosted_coulomb_rows,
    _faraday_uniform_rows,
    claim1_covariance_rows,
    faraday_from_hessian_rows,
    second_partials_rows,
)
from .loops import _crossing_counts, ab_phase_reports
from .matrices import _worst, upsilon, validate_relations
from .potential import Charge, ChargeSystem, Path, zetas_of
from .scenario import CHECK_NAMES, Scenario, build_loop
from .spacetime import (
    FourVector,
    RestLine,
    UniformLine,
    four_velocity_from_3velocity,
    retarded_null_vectors,
)

__all__ = ["CheckResult", "RunReport", "UnknownCheckError", "run_checks",
           "check_tolerance_scale", "DEFAULT_SEED"]

DEFAULT_SEED = 20240801


class UnknownCheckError(KeyError):
    """run_checks was given a name that is not a check family, or no name."""


@dataclass(frozen=True)
class CheckResult:
    name: str
    max_deviation: float
    tolerance: float
    passed: bool
    detail: str
    elapsed_s: float


# what a family returns: (max_deviation, tolerance, passed, detail)
_Outcome = tuple[float, float, bool, str]


@dataclass(frozen=True)
class RunReport:
    results: tuple[CheckResult, ...]

    @property
    def all_passed(self) -> bool:
        return all(r.passed for r in self.results)


def _row_norms(K: np.ndarray) -> np.ndarray:
    """Euclidean norm of each row of K (m, 3), bit for bit
    math.sqrt(k.dot(k)): a stacked 1x3 by 3x1 matmul runs the same dot
    kernel as ndarray.dot, where a row-wise einsum sums in another order."""
    return np.sqrt(np.matmul(K[:, None, :], K[:, :, None])[:, 0, 0])


# the sampled shell: _SHELL_RMIN <= |x| <= _SHELL_RMAX, and at least
# _AXIS_GUARD off the x3-axis (relative to |x| for _shell_points)
_SHELL_RMIN, _SHELL_RMAX, _AXIS_GUARD = 0.5, 4.0, 0.4


def _shell_points(rng, n: int) -> np.ndarray:
    """Spatial points (n, 3) on the sampled shell, at relative distance
    _AXIS_GUARD or more from the x3-axis."""
    V = np.empty((n, 3))
    norm = np.empty(n)
    radius = np.empty(n)
    normal, uniform = rng.standard_normal, rng.random
    for i, v in enumerate(V):
        while True:
            normal(out=v)
            nv = math.sqrt(v.dot(v))
            if nv >= 1e-12 and math.hypot(v[0] / nv, v[1] / nv) >= _AXIS_GUARD:
                break
        norm[i] = nv
        # the bits of rng.uniform(_SHELL_RMIN, _SHELL_RMAX)
        radius[i] = _SHELL_RMIN + (_SHELL_RMAX - _SHELL_RMIN) * uniform()
    return radius[:, None] * (V / norm[:, None])


def _random_nulls(rng, n: int) -> np.ndarray:
    """Null vectors (n, 4), a = (|k|, k): k along a normal draw at least
    1e-3 rad off the x3-axis, with |k| uniform in [0.2, 5]."""
    K = np.empty((n, 3))
    scale = np.empty(n)
    normal, uniform = rng.standard_normal, rng.random
    for i, k in enumerate(K):
        normal(out=k)
        norm = math.sqrt(k.dot(k))
        while norm < 1e-6 or math.hypot(k[0], k[1]) < 1e-3 * norm:
            normal(out=k)
            norm = math.sqrt(k.dot(k))
        scale[i] = (0.2 + (5.0 - 0.2) * uniform()) / norm
    K *= scale[:, None]
    return np.column_stack([_row_norms(K), K])


def check_matrix_relations(rng, tol_scale: float, scenario) -> _Outcome:
    report = validate_relations()
    # argmax picks the first NaN ratio, so a NaN check is named worst
    worst = report.checks[int(np.argmax([c.max_deviation / c.tolerance
                                         for c in report.checks]))]
    return (report.max_deviation, worst.tolerance * tol_scale,
            all(c.max_deviation < c.tolerance * tol_scale for c in report.checks),
            f"{len(report.checks)} relation families; worst: {worst.name}")


def check_zeta_invariance(rng, tol_scale: float, scenario) -> _Outcome:
    tol = 1e-10 * tol_scale
    psis = rng.uniform(-2.0, 2.0, size=5)
    A = _random_nulls(rng, 1000)
    z0 = zetas_of(A)
    Ac = A.astype(complex)
    # one batch per half-boost: all 15 copies at once would hold ~6 MB more
    worst = _worst([np.abs(zetas_of(Ac @ upsilon(j, psi).T) - z0).max()
                    for j in (1, 2, 3) for psi in psis])
    return worst, tol, worst < tol, "1000 null vectors x 3 axes x 5 rapidities"


def check_rest_charge_field(rng, tol_scale: float, scenario) -> _Outcome:
    q = 1.0
    charge = Charge(q, RestLine((0.0, 0.0, 0.0)))
    field = ScalarField.from_charge(charge)
    e_tol = 1e-6 * tol_scale
    b_tol = 1e-8 * tol_scale
    P = _shell_points(rng, 200)
    F = faraday_from_hessian_rows(
        second_partials_rows(field, np.column_stack([np.zeros(len(P)), P])))
    r = np.sqrt(np.einsum("ij,ij->i", P, P))
    expected = q * P / (r**3)[:, None]
    e_dev = float((np.abs(F.real - expected).max(axis=1)
                   / np.abs(expected).max(axis=1)).max())
    b_dev = float(np.abs(F.imag).max())
    passed = e_dev < e_tol and b_dev < b_tol
    # report the sub-check closest to (or over) its tolerance, or a NaN one
    if math.isnan(b_dev) or b_dev / b_tol > e_dev / e_tol:
        dev, tol = b_dev, b_tol
    else:
        dev, tol = e_dev, e_tol
    return (dev, tol, passed,
            f"E rel dev {e_dev:.3e} (tol {e_tol:.0e}); B abs dev {b_dev:.3e} (tol {b_tol:.0e})")


# rows drawn per point still wanted: about 9 rows in 10 pass the guards
_TRIANGLE_ROWS_PER_POINT = 1.5


def _triangle_accepts(t: np.ndarray, X: np.ndarray, speed: float) -> np.ndarray:
    """Which events (t, X) sit on the sampled shell, and _AXIS_GUARD off
    the axis, of the charge of _triangle_points at time t."""
    present = X.copy()
    present[:, 2] -= speed * t
    r = _row_norms(present)
    rho = np.hypot(present[:, 0], present[:, 1])
    # np.hypot may round a last bit away from math.hypot, so a row that
    # close to the guard takes math.hypot's value
    near = np.abs(rho - _AXIS_GUARD) < 1e-12
    rho[near] = [math.hypot(x, y) for x, y in present[near, :2]]
    return (_SHELL_RMIN <= r) & (r <= _SHELL_RMAX) & (rho >= _AXIS_GUARD)


def _triangle_points(rng, speed: float, n: int) -> np.ndarray:
    """Events (n, 4) on the sampled shell, and _AXIS_GUARD off the axis, of
    a charge moving at speed along x3 through the origin at t = 0.

    The points and the final state of rng are those of a rejection loop
    drawing t = rng.uniform(-1, 1), then x = rng.uniform(-3, 3, size=3),
    until n events pass: every draw is one uniform, so the rows are drawn
    ahead in blocks, rng is rewound, and only the rows used are replayed."""
    state = rng.bit_generator.state
    blocks, found = [], 0
    while found < n:
        D = rng.random((int(_TRIANGLE_ROWS_PER_POINT * (n - found)) + 8, 4))
        # the bits of rng.uniform(lo, hi): lo + (hi - lo) * random()
        t, X = -1.0 + 2.0 * D[:, 0], -3.0 + 6.0 * D[:, 1:]
        ok = _triangle_accepts(t, X, speed)
        blocks.append((t, X, ok))
        found += int(ok.sum())
    t, X, ok = (np.concatenate(parts) for parts in zip(*blocks))
    rows = np.flatnonzero(ok)[:n]
    rng.bit_generator.state = state
    rng.random((rows[-1] + 1, 4))
    return np.column_stack([t[rows], X[rows]])


def check_uniform_motion_triangle(rng, tol_scale: float, scenario) -> _Outcome:
    q = 1.0
    stencil_tol = 1e-4 * tol_scale
    exact_tol = 1e-10 * tol_scale
    su, so, uo = [], [], []
    for speed in (0.1, 0.5, 0.9):
        u = four_velocity_from_3velocity([0.0, 0.0, speed])
        charge = Charge(q, UniformLine(FourVector(0, 0, 0, 0), u))
        field = ScalarField.from_charge(charge)
        X = _triangle_points(rng, speed, 50)
        _, A, U = retarded_null_vectors(charge.line, X)
        fs = faraday_from_hessian_rows(second_partials_rows(field, X))
        fu = _faraday_uniform_rows(q, A, U)
        fo = _boosted_coulomb_rows(q, [0, 0, speed], X)
        scale = np.abs(fo).max(axis=1)
        su.append((np.abs(fs - fu).max(axis=1) / scale).max())
        so.append((np.abs(fs - fo).max(axis=1) / scale).max())
        uo.append((np.abs(fu - fo).max(axis=1) / scale).max())
    dev_su, dev_so, dev_uo = _worst(su), _worst(so), _worst(uo)
    passed = dev_su < stencil_tol and dev_so < stencil_tol and dev_uo < exact_tol
    return (_worst([dev_su, dev_so]), stencil_tol, passed,
            f"S-vs-direct {dev_su:.3e}, S-vs-oracle {dev_so:.3e} (tol {stencil_tol:.0e}); "
            f"direct-vs-oracle {dev_uo:.3e} (tol {exact_tol:.0e})")


def check_wave_residual(rng, tol_scale: float, scenario) -> _Outcome:
    tol = 1e-5 * tol_scale
    devs = []
    q = 1.0
    cases = [
        (Charge(q, RestLine((0.0, 0.0, 0.0))), 0.0),
        (Charge(q, UniformLine(FourVector(0, 0, 0, 0),
                               four_velocity_from_3velocity([0, 0, 0.5]))), 0.5),
    ]
    for charge, speed in cases:
        field = ScalarField.from_charge(charge)
        X = (_triangle_points(rng, speed, 40) if speed
             else np.column_stack([np.zeros(40), _shell_points(rng, 40)]))
        _, A, _ = retarded_null_vectors(charge.line, X)
        r = np.sqrt(np.einsum("ij,ij->i", A[:, 1:], A[:, 1:]))
        scale = abs(q) / r**2
        # box S from the Richardson Hessian: near the axis the plain
        # diagonal stencil of wave_residual is stuck near 1e-5 of q/R^2
        # whatever its step
        H = second_partials_rows(field, X)
        box = H[:, 0, 0] - H[:, 1, 1] - H[:, 2, 2] - H[:, 3, 3]
        devs.append((np.abs(box) / scale).max())
    worst = _worst(devs)
    return worst, tol, worst < tol, "|box S| scaled by q/R^2, rest and uniform, 40 points each"


def check_claim1_covariance(rng, tol_scale: float, scenario) -> _Outcome:
    tol = 1e-12 * tol_scale
    # the stream, vector after vector: six normals (E, then B), then three
    # uniforms in [-2, 2), the rapidities of the boosts along axes 1, 2, 3
    normals = np.empty((100, 6))
    uniforms = np.empty((100, 3))
    for e_b, u in zip(normals, uniforms):
        rng.standard_normal(out=e_b)
        rng.random(out=u)
    F = normals[:, :3] + 1j * normals[:, 3:]
    # the bits of rng.uniform(-2.0, 2.0): -2.0 + 4.0 * random()
    psis = -2.0 + 4.0 * uniforms
    devs = claim1_covariance_rows(np.repeat(F, 3, axis=0), np.tile((1, 2, 3), 100),
                                  psis.ravel())
    worst = _worst(devs)
    return worst, tol, worst < tol, "100 random field vectors x 3 boost axes"


def _default_loops() -> list[Path]:
    specs = [
        {"kind": "circle", "center": [0, 0, 0.4], "radius": 1.0, "turns": t, "samples": 240}
        for t in (-2, -1, 1, 2)
    ]
    specs.append({"kind": "circle", "center": [2.5, 0, 0.4], "radius": 0.8,
                  "turns": 1, "samples": 240})
    return [build_loop(s, "default-loops") for s in specs]


def check_loop_phase(rng, tol_scale: float, scenario: Scenario | None) -> _Outcome:
    if scenario is not None and scenario.loops:
        charges = scenario.charges
        loops = list(scenario.loops)
    else:
        charges = ChargeSystem((Charge(1.0, RestLine((0.0, 0.0, 0.0))),))
        loops = _default_loops()
    reports = ab_phase_reports(charges, loops)
    for rep in reports:
        if isinstance(rep, PrepotentialError):
            raise rep
    tol = reports[0].tolerance * tol_scale
    # the crossing-count oracle, one solve per charge over every loop's
    # points; they all solved cleanly for the reports
    sizes = np.array([len(loop.points) for loop in loops])
    P = np.concatenate([loop.points for loop in loops])
    oracle = np.array([_crossing_counts(retarded_null_vectors(c.line, P)[1], sizes)
                       for c in charges])
    agree = all(rep.windings == tuple(w) for rep, w in zip(reports, oracle.T.tolist()))
    windings = [rep.windings[0] if len(rep.windings) == 1 else list(rep.windings)
                for rep in reports]
    worst = _worst([rep.residual for rep in reports])
    return (worst, tol, worst < tol and agree,
            f"windings {windings}; crossing oracle vs phase rounding agree: {agree}")


# every family takes (rng, tol_scale, scenario) and returns an _Outcome;
# run_checks adds its name and its time
_CHECK_FUNCTIONS = dict(zip(CHECK_NAMES, (
    check_matrix_relations,
    check_zeta_invariance,
    check_rest_charge_field,
    check_uniform_motion_triangle,
    check_wave_residual,
    check_claim1_covariance,
    check_loop_phase,
), strict=True))


def check_tolerance_scale(scale) -> float:
    """The tolerance scale as a float; ValueError unless it is finite and
    above 0. An infinite scale would pass every family vacuously, and a
    zero, negative or NaN one would fail them all."""
    scale = float(scale)
    if not (math.isfinite(scale) and scale > 0.0):
        raise ValueError(f"tolerance scale must be finite and above 0, got {scale!r}")
    return scale


def run_checks(
    names,
    seed: int = DEFAULT_SEED,
    tolerance_scale: float = 1.0,
    scenario: Scenario | None = None,
) -> RunReport:
    """Run the named check families with a fresh deterministic generator
    per family. Raises ValueError for a tolerance scale that is not
    finite and above 0, and UnknownCheckError for a name that is not a
    family, or for no name at all, before any family runs."""
    tolerance_scale = check_tolerance_scale(tolerance_scale)
    names = tuple(names)  # iterated twice: checked, then run
    if not names:
        # an empty run would pass vacuously
        raise UnknownCheckError("no check family selected")
    for name in names:
        if name not in _CHECK_FUNCTIONS:
            raise UnknownCheckError(f"unknown check name {name!r}")
    results = []
    for name in names:
        rng = np.random.default_rng(seed)
        t0 = time.perf_counter()
        try:
            res = _CHECK_FUNCTIONS[name](rng, tolerance_scale, scenario)
        except PrepotentialError as exc:
            res = (math.inf, 0.0, False, f"aborted: {exc}")
        results.append(CheckResult(name, *res, time.perf_counter() - t0))
    return RunReport(tuple(results))
