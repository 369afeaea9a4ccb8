"""Per-layer metrics derived from the spans of a traced run.

Every count and time is per pass: the sum over the traced passes divided by
their number, so runs that fit different numbers of passes compare.
`ops` and `entries` are computed from matrix shapes (rows*cols*rank and
rows*cols), not measured; for one seed they repeat exactly.  A ratio whose
base is zero on a workload (say, cache hits on main_theorem) reads 0.
A metric that needs a target the package no longer has is left out and
listed as absent.
"""
from __future__ import annotations

from collections import defaultdict

# name -> (unit, better, targets it needs)
LAYER_METRICS = {
    "engine.rank_fp.calls": ("count", "lower", ["engine.rank_fp"]),
    "engine.rank_fp.busy_s": ("s", "lower", ["engine.rank_fp"]),
    "engine.rank_fp.busy_s.le400": ("s", "lower", ["engine.rank_fp"]),
    "engine.rank_fp.busy_s.gt400": ("s", "lower", ["engine.rank_fp"]),
    "engine.rank_fp.busy_frac": ("frac", "lower", ["engine.rank_fp"]),
    "engine.rank_fp.ops": ("count", "lower", ["engine.rank_fp"]),
    "engine.rank_fp.ops_per_s": ("1/s", "higher", ["engine.rank_fp"]),
    "engine.build_matrix.calls": ("count", "lower", ["engine.build_matrix"]),
    "engine.build_matrix.busy_s": ("s", "lower", ["engine.build_matrix"]),
    "engine.build_matrix.busy_frac": ("frac", "lower", ["engine.build_matrix"]),
    "engine.build_matrix.entries": ("count", "lower", ["engine.build_matrix"]),
    "engine.draw_scheme_points.busy_s": ("s", "lower", ["engine.draw_scheme_points"]),
    "spaces.ideal_basis.calls": ("count", "lower", ["spaces.ideal_basis"]),
    "spaces.ideal_basis.busy_s": ("s", "lower", ["spaces.ideal_basis"]),
    "schemes.make_scheme.calls": ("count", "lower", ["schemes.make_scheme"]),
    "schemes.make_scheme.busy_s": ("s", "lower", ["schemes.make_scheme"]),
    "engine.dimension.calls": ("count", "lower", ["engine.dimension"]),
    "engine.dimension.busy_s": ("s", "lower", ["engine.dimension"]),
    "engine.dimension.self_s": ("s", "lower", ["engine.dimension"]),
    "engine.dimension.attempts": ("count", "lower", ["engine.dimension"]),
    "engine.dimension.attempts_per_call": ("count", "lower", ["engine.dimension"]),
    "engine.dimension.first_attempt_certified_frac":
        ("frac", "higher", ["engine.dimension"]),
    "secant.is_defective.calls": ("count", "lower", ["secant.is_defective"]),
    "secant.is_defective.busy_s": ("s", "lower", ["secant.is_defective"]),
    "secant.is_defective.dimension_calls_per_question":
        ("count", "lower", ["secant.is_defective", "engine.dimension"]),
    "secant.secant_dim.busy_s": ("s", "lower", ["secant.secant_dim"]),
    "secant.theorem_hypotheses.busy_s": ("s", "lower", ["secant.theorem_hypotheses"]),
    "degeneration.castelnuovo_bound_check.busy_s":
        ("s", "lower", ["degeneration.castelnuovo_bound_check"]),
    "replication.run_basecases.busy_s": ("s", "lower", ["replication.run_basecases"]),
    "replication.verify_ah.busy_s": ("s", "lower", ["replication.verify_ah"]),
    "replication.verify_main_theorem.busy_s":
        ("s", "lower", ["replication.verify_main_theorem"]),
    "arith.verify_all.busy_s": ("s", "lower", ["arith.verify_all"]),
    "cli.main.calls": ("count", "lower", ["cli.main"]),
    "cli.main.hit_s_p50": ("s", "lower", ["cli.main"]),
    "cli.main.hit_s_p95": ("s", "lower", ["cli.main"]),
    "cli.main.miss_s_p50": ("s", "lower", ["cli.main"]),
    "cli.cache_bytes": ("bytes", "lower", ["cli.main"]),
    "trace_overhead_frac": ("frac", "lower", []),
}

SMALL_MATRIX_COLS = 400  # ROADMAP: no slowdown at <= 400 columns


def percentile(values, q: float) -> float:
    """Nearest-rank percentile; 0 for no values."""
    if not values:
        return 0.0
    ordered = sorted(values)
    k = max(0, min(len(ordered) - 1, round(q / 100 * len(ordered) + 0.5) - 1))
    return ordered[k]


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def derive(spans, traced_wall_s, absent, cache_bytes, overhead_frac) -> dict:
    """Metric name -> value for every metric in LAYER_METRICS not absent.

    `traced_wall_s` lists the wall time of each traced pass."""
    passes = len(traced_wall_s)
    by_id = {s.sid: s for s in spans}
    by_name = defaultdict(list)
    child_s = defaultdict(float)
    for s in spans:
        by_name[s.name].append(s)
        if s.parent is not None:
            child_s[s.parent] += s.duration

    def busy(name):
        return sum(s.duration for s in by_name[name])

    def calls(name):
        return len(by_name[name])

    def has_ancestor(s, name):
        while s.parent is not None:
            s = by_id[s.parent]
            if s.name == name:
                return True
        return False

    def cli_times(phase):
        return [s.duration for s in by_name["cli.main"]
                if s.parent is not None and by_id[s.parent].name == phase]

    rank = by_name["engine.rank_fp"]
    dims = by_name["engine.dimension"]
    wall = sum(traced_wall_s)
    totals = {
        "engine.rank_fp.calls": calls("engine.rank_fp"),
        "engine.rank_fp.busy_s": busy("engine.rank_fp"),
        "engine.rank_fp.busy_s.le400":
            sum(s.duration for s in rank if s.attrs["cols"] <= SMALL_MATRIX_COLS),
        "engine.rank_fp.busy_s.gt400":
            sum(s.duration for s in rank if s.attrs["cols"] > SMALL_MATRIX_COLS),
        "engine.rank_fp.ops":
            sum(s.attrs["rows"] * s.attrs["cols"] * s.attrs["rank"] for s in rank),
        "engine.build_matrix.calls": calls("engine.build_matrix"),
        "engine.build_matrix.busy_s": busy("engine.build_matrix"),
        "engine.build_matrix.entries":
            sum(s.attrs["rows"] * s.attrs["cols"] for s in by_name["engine.build_matrix"]),
        "engine.draw_scheme_points.busy_s": busy("engine.draw_scheme_points"),
        "spaces.ideal_basis.calls": calls("spaces.ideal_basis"),
        "spaces.ideal_basis.busy_s": busy("spaces.ideal_basis"),
        "schemes.make_scheme.calls": calls("schemes.make_scheme"),
        "schemes.make_scheme.busy_s": busy("schemes.make_scheme"),
        "engine.dimension.calls": calls("engine.dimension"),
        "engine.dimension.busy_s": busy("engine.dimension"),
        "engine.dimension.self_s": sum(s.duration - child_s[s.sid] for s in dims),
        "engine.dimension.attempts": sum(s.attrs["attempts"] for s in dims),
        "secant.is_defective.calls": calls("secant.is_defective"),
        "secant.is_defective.busy_s": busy("secant.is_defective"),
        "secant.secant_dim.busy_s": busy("secant.secant_dim"),
        "secant.theorem_hypotheses.busy_s": busy("secant.theorem_hypotheses"),
        "degeneration.castelnuovo_bound_check.busy_s":
            busy("degeneration.castelnuovo_bound_check"),
        "replication.run_basecases.busy_s": busy("replication.run_basecases"),
        "replication.verify_ah.busy_s": busy("replication.verify_ah"),
        "replication.verify_main_theorem.busy_s": busy("replication.verify_main_theorem"),
        "arith.verify_all.busy_s": busy("arith.verify_all"),
        "cli.main.calls": calls("cli.main"),
    }
    values = {name: total / passes for name, total in totals.items()}
    values.update({
        "engine.rank_fp.busy_frac": _ratio(totals["engine.rank_fp.busy_s"], wall),
        "engine.rank_fp.ops_per_s":
            _ratio(totals["engine.rank_fp.ops"], totals["engine.rank_fp.busy_s"]),
        "engine.build_matrix.busy_frac":
            _ratio(totals["engine.build_matrix.busy_s"], wall),
        "engine.dimension.attempts_per_call":
            _ratio(totals["engine.dimension.attempts"], len(dims)),
        "engine.dimension.first_attempt_certified_frac":
            _ratio(sum(s.attrs["first_attempt_certified"] for s in dims), len(dims)),
        "secant.is_defective.dimension_calls_per_question": _ratio(
            sum(has_ancestor(s, "secant.is_defective") for s in dims),
            calls("secant.is_defective"),
        ),
        "cli.main.hit_s_p50": percentile(cli_times("cli_sweep.hits"), 50),
        "cli.main.hit_s_p95": percentile(cli_times("cli_sweep.hits"), 95),
        "cli.main.miss_s_p50": percentile(cli_times("cli_sweep.misses"), 50),
        "cli.cache_bytes": cache_bytes,
        "trace_overhead_frac": overhead_frac,
    })
    return {
        name: values[name]
        for name, (_, _, needs) in LAYER_METRICS.items()
        if not any(t in absent for t in needs)
    }
