"""Traced rebuild of each workload's CLI call sequence, plus isolated
timings of single layers.

The rebuilds call the same public functions, in the same order, as the
CLI subcommands they mirror (`field-grid`, `loop-phase` and `verify` in
`prepotential.cli`), with a span around each call. Spans are kept in
memory and written out once at the end. Each rebuild writes the same CSV
the CLI writes, and the caller compares the two byte for byte, so a
rebuild that no longer matches the CLI shows in the run metadata.
"""

from __future__ import annotations

import statistics
from collections import Counter, defaultdict
from time import perf_counter_ns

import numpy as np

from prepotential import cli
from prepotential.errors import PrepotentialError
from prepotential.fields import ScalarField, faraday_from_hessian, second_partials
from prepotential.loops import ab_phase_report, winding_number
from prepotential.matrices import upsilon, validate_relations
from prepotential.potential import delta_S_along_path, prepotential_system, zeta_at
from prepotential.scenario import load_scenario
from prepotential.spacetime import RestLine, SampledLine, UniformLine, retarded_null_vector
from prepotential.verify import run_checks

# Masked cells are tallied by the root cause of the exception the CLI
# catches; any other class counts as "other".
MASK_CLASSES = ("SingularAxisError", "ObserverOnWorldLineError",
                "NoRetardedIntersectionError", "StepTooLargeError")
# Isolated timings use at most this many (charge, event) pairs per kind.
MAX_PAIRS = 1500
UPSILON_CALLS = 3000
RELATION_CALLS = 20


class Tracer:
    """In-memory spans: [name id, start ns, end ns, parent index, group,
    exception class or None]. Spans of one cell or loop share `group`."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._groups = 0
        self.group = -1

    def begin_group(self) -> None:
        """Give the spans that follow a fresh cell or loop id."""
        self.group = self._groups
        self._groups += 1

    def end_group(self) -> None:
        self.group = -1

    def call(self, name, fn, *args, **kwargs):
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        idx = len(self.spans)
        rec = [nid, 0, 0, self._stack[-1] if self._stack else -1, self.group, None]
        self.spans.append(rec)
        self._stack.append(idx)
        rec[1] = perf_counter_ns()
        try:
            return fn(*args, **kwargs)
        except Exception as exc:
            rec[5] = type(exc).__name__
            raise
        finally:
            rec[2] = perf_counter_ns()
            self._stack.pop()

    def wrap(self, name, fn):
        def traced(*args, **kwargs):
            return self.call(name, fn, *args, **kwargs)
        return traced

    def _select(self, name) -> list[int]:
        nid = self._ids.get(name)
        return [i for i, s in enumerate(self.spans) if s[0] == nid]

    def durations_ns(self, name) -> list[int]:
        return [self.spans[i][2] - self.spans[i][1] for i in self._select(name)]

    def children(self, name, counted) -> tuple[list[int], list[int]]:
        """For each span called `name`: total time of its direct children,
        and how many of them are called `counted`."""
        picked = self._select(name)
        where = {i: k for k, i in enumerate(picked)}
        cid = self._ids.get(counted)
        time_ns, count = [0] * len(picked), [0] * len(picked)
        for s in self.spans:
            k = where.get(s[3])
            if k is not None:
                time_ns[k] += s[2] - s[1]
                count[k] += s[0] == cid
        return time_ns, count

    def as_dict(self) -> dict:
        return {"span_fields": ["name", "start_ns", "end_ns", "parent", "group", "error"],
                "names": self.names, "spans": self.spans}


def _root_class(exc: BaseException) -> str:
    """Innermost package exception in the cause chain."""
    while isinstance(exc.__cause__, PrepotentialError):
        exc = exc.__cause__
    return type(exc).__name__


def _median(values, scale: float) -> float:
    return statistics.median(values) * scale


def _time_each(fn, arg_lists) -> list[int]:
    """Per-call ns of fn(*args) for each args tuple; failing calls dropped."""
    out = []
    for args in arg_lists:
        t0 = perf_counter_ns()
        try:
            fn(*args)
        except PrepotentialError:
            continue
        out.append(perf_counter_ns() - t0)
    return out


def _per_1000_rows(tr: Tracer, rows: list[int]) -> float:
    return statistics.median(ns * 1e-3 / n for ns, n in
                             zip(tr.durations_ns("cli.serialize"), rows))


_KINDS = {RestLine: "rest", UniformLine: "uniform", SampledLine: "sampled"}


def isolated_pairs(charges, events) -> dict:
    """Retarded solve per line kind and zeta_at, timed per (charge, event)
    pair; the pairs are thinned evenly to at most MAX_PAIRS per kind."""
    by_kind = defaultdict(list)
    for ch in charges:
        by_kind[_KINDS[type(ch.line)]].extend((ch, e) for e in events)
    out, zeta_ns = {}, []
    for kind, pairs in by_kind.items():
        pairs = pairs[:: -(-len(pairs) // MAX_PAIRS)]
        ns = _time_each(retarded_null_vector, [(c.line, e) for c, e in pairs])
        if ns:
            out[f"spacetime.retarded.{kind}.us"] = _median(ns, 1e-3)
        zeta_ns += _time_each(zeta_at, pairs)
    if zeta_ns:
        out["potential.zeta_at.us"] = _median(zeta_ns, 1e-3)
    return out


def _trace_grid(tr: Tracer, path, out_path, seed) -> dict:
    """Rebuild of `field-grid`: per cell the S column, the stencil Hessian
    on a field whose delta and scale are timed, the contraction; then the
    CSV."""
    scenario = tr.call("scenario.load_scenario", load_scenario, path)
    base = ScalarField.from_system(scenario.charges)
    field = ScalarField(value=base.value,
                        delta=tr.wrap("potential.log_ratio", base.delta),
                        scale=tr.wrap("fields.scale", base.scale))
    rows, cells, masked = [], [], Counter()
    nan = float("nan")
    points = iter(scenario.grid.points())
    while True:
        tr.begin_group()
        try:
            point = tr.call("scenario.grid_points", next, points)
        except StopIteration:
            break
        cells.append(point)
        coords = [point.x0, point.x1, point.x2, point.x3]
        try:
            s = tr.call("potential.prepotential_system", prepotential_system,
                        scenario.charges, point).value
            H = tr.call("fields.second_partials", second_partials, field, point)
            f = tr.call("fields.faraday_from_hessian", faraday_from_hessian, H)
            wave = abs(H[0, 0] - H[1, 1] - H[2, 2] - H[3, 3])
            lap = abs(H[1, 1] + H[2, 2] + H[3, 3])
            rows.append(coords + [
                s.real, s.imag,
                float(f.electric[0]), float(f.electric[1]), float(f.electric[2]),
                float(f.magnetic[0]), float(f.magnetic[1]), float(f.magnetic[2]),
                wave, lap, 0,
            ])
        except PrepotentialError as exc:
            cls = _root_class(exc)
            masked[cls if cls in MASK_CLASSES else "other"] += 1
            rows.append(coords + [nan] * 10 + [1])
    tr.end_group()
    tr.call("cli.serialize", cli._write_table, cli.GRID_HEADER, rows, "csv",
            str(out_path), "field-grid")
    return {"charges": scenario.charges.charges, "events": cells, "rows": len(rows),
            "masked": masked}


def _grid_metrics(tr: Tracer, passes: list[dict]) -> dict:
    sp = tr.durations_ns("fields.second_partials")
    child_ns, deltas = tr.children("fields.second_partials", "potential.log_ratio")
    out = {
        "potential.prepotential_system.us":
            _median(tr.durations_ns("potential.prepotential_system"), 1e-3),
        "potential.log_ratio.us": _median(tr.durations_ns("potential.log_ratio"), 1e-3),
        "potential.log_ratio.calls_per_cell": statistics.median(deltas),
        "fields.second_partials.ms": _median(sp, 1e-6),
        "fields.second_partials.self_ms":
            _median([d - c for d, c in zip(sp, child_ns)], 1e-6),
        "fields.scale.us": _median(tr.durations_ns("fields.scale"), 1e-3),
        "fields.faraday_from_hessian.us":
            _median(tr.durations_ns("fields.faraday_from_hessian"), 1e-3),
        "scenario.grid_points.us": _median(tr.durations_ns("scenario.grid_points"), 1e-3),
        "cli.serialize.ms": _per_1000_rows(tr, [p["rows"] for p in passes]),
    }
    for cls in MASK_CLASSES + ("other",):
        out[f"fields.masked.{cls}"] = float(np.mean([p["masked"][cls] for p in passes]))
    return out


def _trace_loops(tr: Tracer, path, out_path, seed) -> dict:
    """Rebuild of `loop-phase`: one phase report per loop for the first
    charge, then the CSV."""
    scenario = tr.call("scenario.load_scenario", load_scenario, path)
    charge = scenario.charges.charges[0]
    rows, reports = [], []
    nan = float("nan")
    for i, loop in enumerate(scenario.loops):
        tr.begin_group()
        try:
            rep = tr.call("loops.ab_phase_report", ab_phase_report, charge, loop)
            reports.append(rep)
            rows.append([i, rep.delta_S.real, rep.delta_S.imag, rep.winding,
                         rep.residual, rep.samples_used, rep.status])
        except PrepotentialError as exc:
            reports.append(None)
            rows.append([i, nan, nan, 0, nan, 0, f"ERROR: {exc}"])
    tr.end_group()
    tr.call("cli.serialize", cli._write_table, cli.LOOP_HEADER, rows, "csv",
            str(out_path), "loop-phase")
    return {"charges": scenario.charges.charges, "loops": scenario.loops,
            "events": [e for lp in scenario.loops for e in lp.events],
            "reports": reports, "rows": len(rows)}


def _loop_metrics(tr: Tracer, passes: list[dict]) -> dict:
    given = [len(lp.events) for p in passes for lp, r in zip(p["loops"], p["reports"])
             if r is not None]
    used = [r.samples_used for p in passes for r in p["reports"] if r is not None]
    first = passes[0]
    charges, loops = first["charges"], first["loops"]
    delta_ns = _time_each(delta_S_along_path, [(charges[0], lp) for lp in loops])
    wind_ns = _time_each(winding_number, [(lp, ch) for lp in loops for ch in charges])
    return {
        "potential.delta_S_along_path.ms": _median(delta_ns, 1e-6),
        "potential.refined_samples": float(np.mean(np.subtract(used, given))),
        "potential.refine_useful_ratio": sum(given) / sum(used),
        "loops.winding_number.ms": _median(wind_ns, 1e-6),
        # the CLI reports on the first charge only, so one charge per loop
        "loops.ab_phase_report.ms":
            _median(tr.durations_ns("loops.ab_phase_report"), 1e-6),
        "cli.serialize.ms": _per_1000_rows(tr, [p["rows"] for p in passes]),
    }


def _trace_verify(tr: Tracer, path, out_path, seed) -> dict:
    """Rebuild of `verify`: the scenario's families one at a time (each
    family draws from a fresh generator, as in one combined call)."""
    scenario = tr.call("scenario.load_scenario", load_scenario, path)
    rows = []
    for name in scenario.checks:
        tr.begin_group()
        report = tr.call(f"verify.{name}", run_checks, [name], seed=seed,
                         scenario=scenario)
        rows += [[r.name, r.max_deviation, r.tolerance, int(r.passed), r.elapsed_s,
                  r.detail] for r in report.results]
    tr.end_group()
    tr.call("cli.serialize", cli._write_table, cli.VERIFY_HEADER, rows, "csv",
            str(out_path), "verify")
    return {"seconds": {r[0]: r[4] for r in rows}, "rows": len(rows), "seed": seed}


def _verify_metrics(tr: Tracer, passes: list[dict]) -> dict:
    # verify's own seconds column, as the CLI prints it
    names = dict.fromkeys(name for p in passes for name in p["seconds"])
    out = {f"verify.{name}.s": statistics.median(p["seconds"][name] for p in passes
                                                 if name in p["seconds"])
           for name in names}
    rng = np.random.default_rng(passes[0]["seed"])
    args = [(int(j), float(psi)) for j, psi in
            zip(rng.integers(1, 4, UPSILON_CALLS), rng.uniform(-2.0, 2.0, UPSILON_CALLS))]
    out["matrices.validate_relations.ms"] = _median(
        _time_each(validate_relations, [()] * RELATION_CALLS), 1e-6)
    out["matrices.upsilon.us"] = _median(_time_each(upsilon, args), 1e-3)
    out["cli.serialize.ms"] = _per_1000_rows(tr, [p["rows"] for p in passes])
    return out


REBUILDS = {"field-grid": (_trace_grid, _grid_metrics),
            "loop-phase": (_trace_loops, _loop_metrics),
            "verify": (_trace_verify, _verify_metrics)}


def traced_pass(tr: Tracer, command: str, path, out_path, seed) -> dict:
    return REBUILDS[command][0](tr, path, out_path, seed)


def layer_metrics(tr: Tracer, command: str, passes: list[dict]) -> dict:
    """Per-layer metrics from the spans of `passes`, plus isolated timings
    on the first pass's (charge, event) pairs."""
    out = REBUILDS[command][1](tr, passes)
    out["scenario.load_scenario.ms"] = _median(
        tr.durations_ns("scenario.load_scenario"), 1e-6)
    if "events" in passes[0]:
        out.update(isolated_pairs(passes[0]["charges"], passes[0]["events"]))
    return out
