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

from .errors import PrepotentialError, ScenarioError
from .fields import (
    ScalarField,
    _boosted_coulomb_rows,
    claim1_covariance_rows,
    faraday_from_hessian_rows,
    second_partials_rows,
)
from .loops import _crossing_counts, _stack_reports
from .matrices import _worst, upsilon, validate_relations
from .potential import Charge, ChargeSystem, _PathStack, _path_stack, _velocity_fields, zetas_of
from .scenario import CHECK_NAMES, Scenario, _build_loops
from .spacetime import (
    FourVector,
    RestLine,
    UniformLine,
    four_velocity_from_3velocity,
    retarded_null_vectors,
)

__all__ = ["CheckResult", "RunReport", "UnknownCheckError", "run_checks", "DEFAULT_SEED"]

DEFAULT_SEED = 20240801


class UnknownCheckError(ScenarioError):
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


# the sampled shell: _SHELL_RMIN <= |x| <= _SHELL_RMAX, and at least
# _AXIS_GUARD off the x3-axis (relative to |x| for _shell_points)
_SHELL_RMIN, _SHELL_RMAX, _AXIS_GUARD = 0.5, 4.0, 0.4


def _accepted_rows(draw, accepts, n: int) -> np.ndarray:
    """n rows that pass accepts, taken from blocks draw(m) of m candidate
    rows, m the number of rows still wanted."""
    blocks, found = [], 0
    while found < n:
        block = draw(n - found)
        blocks.append(block[accepts(block)])
        found += len(blocks[-1])
    return np.concatenate(blocks)


def _off_axis_points(rng, n: int, floor: float, guard: float, lo: float, hi: float) -> np.ndarray:
    """Points (n, 3) at distances uniform in [lo, hi) from the origin, along
    normal draws v with |v| >= floor that lie at least guard * |v| off the
    x3-axis."""
    def accepts(V):
        norm = np.linalg.norm(V, axis=1)
        return (norm >= floor) & (np.hypot(V[:, 0], V[:, 1]) >= guard * norm)

    V = _accepted_rows(lambda m: rng.standard_normal((m, 3)), accepts, n)
    return (rng.uniform(lo, hi, n) / np.linalg.norm(V, axis=1))[:, None] * V


def _shell_points(rng, n: int) -> np.ndarray:
    """Spatial points (n, 3) on the sampled shell, at relative distance
    _AXIS_GUARD or more from the x3-axis."""
    return _off_axis_points(rng, n, 1e-12, _AXIS_GUARD, _SHELL_RMIN, _SHELL_RMAX)


def _random_nulls(rng, n: int) -> np.ndarray:
    """Null vectors (n, 4), a = (|k|, k): k along a normal draw at least
    1e-3 rad off the x3-axis, with |k| uniform in [0.2, 5]."""
    K = _off_axis_points(rng, n, 1e-6, 1e-3, 0.2, 5.0)
    return np.column_stack([np.linalg.norm(K, axis=1), K])


def _nearest(subchecks) -> int:
    """Index of the (deviation, tolerance) sub-check nearest its tolerance
    or furthest over it, the one a family's row reports: the largest
    deviation / tolerance, or the first NaN deviation (argmax picks the
    first NaN), so that a row's verdict is its deviation < its tolerance."""
    return int(np.argmax([dev / tol for dev, tol in subchecks]))


def check_matrix_relations(rng, scenario) -> _Outcome:
    report = validate_relations()
    worst = report.checks[_nearest([(c.max_deviation, c.tolerance) for c in report.checks])]
    return (worst.max_deviation, worst.tolerance, report.all_passed,
            f"{len(report.checks)} relation families; worst: {worst.name}")


def check_zeta_invariance(rng, scenario) -> _Outcome:
    tol = 1e-12
    psis = rng.uniform(-2.0, 2.0, size=5)
    A = _random_nulls(rng, 1000)
    z0 = zetas_of(A)
    size = np.abs(z0)
    Ac = A.astype(complex)
    # relative, as zeta and its rounding grow like 2/theta near -x3; one
    # batch per half-boost: all 15 copies at once would hold ~6 MB more
    worst = _worst([(np.abs(zetas_of(Ac @ upsilon(j, psi).T) - z0) / size).max()
                    for j in (1, 2, 3) for psi in psis])
    return (worst, tol, worst < tol,
            "|d zeta|/|zeta| over 1000 null vectors x 3 axes x 5 rapidities")


def check_rest_charge_field(rng, scenario) -> _Outcome:
    q = 1.0
    charge = Charge(q, RestLine((0.0, 0.0, 0.0)))
    field = ScalarField.from_charge(charge)
    e_tol, b_tol = 1e-6, 1e-8
    P = _shell_points(rng, 200)
    X = np.column_stack([np.zeros(len(P)), P])
    F = faraday_from_hessian_rows(second_partials_rows(field, X))
    expected = _boosted_coulomb_rows(q, [0.0, 0.0, 0.0], X).real
    e_dev = float((np.abs(F.real - expected).max(axis=1)
                   / np.abs(expected).max(axis=1)).max())
    b_dev = float(np.abs(F.imag).max())
    subchecks = [(e_dev, e_tol), (b_dev, b_tol)]
    dev, tol = subchecks[_nearest(subchecks)]
    return (dev, tol, dev < tol,
            f"E rel dev {e_dev:.3e} (tol {e_tol:.0e}); B abs dev {b_dev:.3e} (tol {b_tol:.0e})")


def _triangle_accepts(E: np.ndarray, speed: float) -> np.ndarray:
    """Which events E (m, 4) sit on the sampled shell, and _AXIS_GUARD off
    the axis, of the charge of _triangle_points at their time."""
    present = E[:, 1:] - np.outer(E[:, 0], (0.0, 0.0, speed))
    r = np.linalg.norm(present, axis=1)
    rho = np.hypot(present[:, 0], present[:, 1])
    return (_SHELL_RMIN <= r) & (r <= _SHELL_RMAX) & (rho >= _AXIS_GUARD)


def _triangle_points(rng, speed: float, n: int) -> np.ndarray:
    """Events (n, 4), t uniform in [-1, 1) and x in [-3, 3)^3, on the
    sampled shell, and _AXIS_GUARD off the axis, of a charge moving at
    speed along x3 through the origin at t = 0."""
    return _accepted_rows(
        lambda m: rng.uniform((-1.0, -3.0, -3.0, -3.0), (1.0, 3.0, 3.0, 3.0), (m, 4)),
        lambda E: _triangle_accepts(E, speed), n)


def check_uniform_motion_triangle(rng, scenario) -> _Outcome:
    q = 1.0
    stencil_tol, exact_tol = 1e-4, 1e-10
    su, so, uo = [], [], []
    for speed in (0.1, 0.5, 0.9):
        u = four_velocity_from_3velocity([0.0, 0.0, speed])
        charge = Charge(q, UniformLine(FourVector(0, 0, 0, 0), u))
        field = ScalarField.from_charge(charge)
        X = _triangle_points(rng, speed, 50)
        _, A, U = retarded_null_vectors(charge.line, X)
        fs = faraday_from_hessian_rows(second_partials_rows(field, X))
        fu = _velocity_fields(q, A, U)
        fo = _boosted_coulomb_rows(q, [0, 0, speed], X)
        scale = np.abs(fo).max(axis=1)
        su.append((np.abs(fs - fu).max(axis=1) / scale).max())
        so.append((np.abs(fs - fo).max(axis=1) / scale).max())
        uo.append((np.abs(fu - fo).max(axis=1) / scale).max())
    dev_su, dev_so, dev_uo = _worst(su), _worst(so), _worst(uo)
    subchecks = [(dev_su, stencil_tol), (dev_so, stencil_tol), (dev_uo, exact_tol)]
    dev, tol = subchecks[_nearest(subchecks)]
    return (dev, tol, dev < tol,
            f"S-vs-direct {dev_su:.3e}, S-vs-oracle {dev_so:.3e} (tol {stencil_tol:.0e}); "
            f"direct-vs-oracle {dev_uo:.3e} (tol {exact_tol:.0e})")


def check_wave_residual(rng, scenario) -> _Outcome:
    tol = 1e-5
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


def check_claim1_covariance(rng, scenario) -> _Outcome:
    tol = 1e-12
    # per vector, E and B, and the rapidities of the boosts along axes 1, 2, 3
    normals = rng.standard_normal((100, 6))
    psis = rng.uniform(-2.0, 2.0, (100, 3))
    F = normals[:, :3] + 1j * normals[:, 3:]
    devs = claim1_covariance_rows(np.repeat(F, 3, axis=0), np.tile((1, 2, 3), 100),
                                  psis.ravel())
    worst = _worst(devs)
    return worst, tol, worst < tol, "100 random field vectors x 3 boost axes"


def _default_loops() -> _PathStack:
    specs = [
        {"kind": "circle", "center": [0, 0, 0.4], "radius": 1.0, "turns": t, "samples": 240}
        for t in (-2, -1, 1, 2)
    ]
    specs.append({"kind": "circle", "center": [2.5, 0, 0.4], "radius": 0.8,
                  "turns": 1, "samples": 240})
    return _path_stack(*_build_loops(specs, ["default-loops"] * len(specs)))


# chords per loop for the crossing-count oracle: 256 for each edge of a
# triangle. On a triangle whose edge hides a turn from its end samples,
# 64 chords per edge count that turn and 16 miss it.
_ORACLE_CHORDS = 768


def _resampled_loops(stack: _PathStack) -> tuple[np.ndarray, np.ndarray]:
    """The closed loops of a _PathStack cut into about _ORACLE_CHORDS
    chords each, spread over each loop's edges in proportion to their
    lengths: the (N, 4) chord starts, loop after loop, and the number of
    chords per loop."""
    start = np.take(stack.points, stack.edges, axis=0)
    chord = np.take(stack.points, stack.ends, axis=0) - start
    owner = np.take(stack.owner, stack.edges)
    length = np.linalg.norm(chord, axis=1)
    cuts = np.ceil(_ORACLE_CHORDS * length / np.bincount(owner, length)[owner]).astype(np.intp)
    edge = np.repeat(np.arange(len(start)), cuts)
    t = (np.arange(len(edge)) - np.repeat(np.cumsum(cuts) - cuts, cuts)) / cuts[edge]
    return (start[edge] + t[:, None] * chord[edge],
            np.bincount(owner[edge], minlength=len(stack.sizes)))


def check_loop_phase(rng, scenario: Scenario | None) -> _Outcome:
    """Each loop's windings, read off its phase, against the signed
    crossings of its (a1, -a2) curve on the chords of _resampled_loops: on
    the loop's own samples alone, a coarse edge can hide a turn. The count
    can still misread a loop with a vertex within about 1e-3 of a
    world-line, where the curve turns within one chord."""
    if scenario is not None and scenario.loops:
        charges, stack = scenario.charges, scenario.loop_stack
    else:
        charges = ChargeSystem((Charge(1.0, RestLine((0.0, 0.0, 0.0))),))
        stack = _default_loops()
    reports = _stack_reports(charges, stack)
    for rep in reports:
        if isinstance(rep, PrepotentialError):
            raise rep
    tol = reports[0].tolerance
    # one solve per charge over every loop's chords
    P, sizes = _resampled_loops(stack)
    oracle = np.array([_crossing_counts(retarded_null_vectors(c.line, P)[1], sizes)
                       for c in charges])
    agree = all(rep.windings == tuple(w) for rep, w in zip(reports, oracle.T.tolist()))
    windings = [rep.windings[0] if len(rep.windings) == 1 else list(rep.windings)
                for rep in reports]
    worst = _worst([rep.residual for rep in reports])
    return (worst, tol, worst < tol and agree,
            f"windings {windings}; crossing oracle vs phase rounding agree: {agree}")


# every family takes (rng, scenario) and returns an _Outcome;
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


def run_checks(names, seed: int = DEFAULT_SEED, scenario: Scenario | None = None) -> RunReport:
    """Run the named check families with a fresh deterministic generator
    per family. Raises UnknownCheckError for a name that is not a family,
    or for no name at all, before any family runs."""
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
            res = _CHECK_FUNCTIONS[name](rng, scenario)
        except PrepotentialError as exc:
            res = (math.inf, 0.0, False, f"aborted: {exc}")
        results.append(CheckResult(name, *res, time.perf_counter() - t0))
    return RunReport(tuple(results))
