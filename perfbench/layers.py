"""Per-layer metrics of a traced run.

Span self times and call counts come from the traced half of the run and
are divided by the operations that half completed, so every time is
seconds per operation and every count is a count per operation.  Span
times are host-normalised with the traced operations' own scale (the
ratio of their normalised to raw seconds), like the end-to-end times.  Each
workload adds the counts the program already keeps and the property
shares (:meth:`~workloads.Workload.layer_values`).
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Tuple

from tracer import SPANS

#: Every per-layer metric with its unit, in report order.
UNITS: Dict[str, str] = {
    "core.engine_self_s": "s/op",
    "core.steps": "1/op",
    "core.monitor_s": "s/op",
    "core.decision_s": "s/op",
    "core.mode_switches": "1/op",
    "geometry.field_s": "s/op",
    "geometry.field_hit_ratio": "ratio",
    "geometry.exact_s": "s/op",
    "reachability.s": "s/op",
    "control.s": "s/op",
    "dynamics.s": "s/op",
    "simulation.plant_s": "s/op",
    "simulation.row_group_s": "s/op",
    "simulation.row_group_rows": "rows/call",
    "simulation.sensor_s": "s/op",
    "planning.plan_s": "s/op",
    "planning.plans": "1/op",
    "planning.validate_s": "s/op",
    "testing.strategy_s": "s/op",
    "testing.scheduler_s": "s/op",
    "testing.environment_s": "s/op",
    "testing.coverage_s": "s/op",
    "testing.executions": "1/op",
    "testing.live_executions": "1/op",
    "testing.population.compacted_frac": "ratio",
    "testing.population.snapshot_s": "s/op",
    "testing.population.delta_restores": "1/op",
    "testing.population.pickle_fallbacks": "1/op",
    "testing.replay_s": "s/op",
    "testing.cex_execs.p50": "exec",
    "swarm.codec_s": "s/op",
    "swarm.bytes": "B/op",
    "swarm.http_s": "s/op",
    "swarm.requests": "1/op",
    "swarm.ingest_s": "s/op",
    "swarm.lease_wait_s": "s/op",
    "swarm.lease_poll_s": "s/op",
    "swarm.duplicates": "1/op",
    "swarm.requeues": "1/op",
    "service.first_record_s.p50": "s",
    "service.stream_s": "s/op",
    "service.result_s": "s/op",
    "share.plant_rows_at_gate": "ratio",
    "share.flights_with_sc": "ratio",
    "share.hunt_missions": "ratio",
    "share.hunt_time": "ratio",
    "trace.overhead_frac": "ratio",
    "trace.spans": "1/op",
}


def per_layer(
    workload: Any,
    untraced: List[List[Any]],
    traced: List[List[Any]],
    tracer: Any,
    throughput: Callable[[List[List[Any]]], float],
) -> Dict[str, Tuple[float, str]]:
    traced_ops = [o for cycle in traced for o in cycle]
    every_op = [o for cycle in untraced + traced for o in cycle]
    per_op = max(1, len(traced_ops))
    host_scale = sum(o.norm_s for o in traced_ops) / sum(o.seconds for o in traced_ops)
    totals = tracer.totals()
    values: Dict[str, float] = {}
    for metric in SPANS:
        values[metric] = totals.get(metric, (0.0, 0.0))[0] * host_scale / per_op
    for metric in ("core.steps", "core.mode_switches", "swarm.bytes"):
        values[metric] = totals.get(metric, (0.0, 0.0))[1] / per_op
    values["planning.plans"] = totals.get("planning.plan_s", (0.0, 0.0))[1] / per_op
    values["swarm.requests"] = totals.get("swarm.http_s", (0.0, 0.0))[1] / per_op
    row_calls = totals.get("simulation.row_group_s", (0.0, 0.0))[1]
    values["simulation.row_group_rows"] = (
        totals["simulation.row_group_rows"][1] / row_calls if row_calls else 0.0
    )
    values["geometry.field_hit_ratio"] = tracer.field_hit_ratio()
    values["trace.spans"] = tracer.span_count() / per_op
    values["trace.overhead_frac"] = throughput(untraced) / throughput(traced) - 1.0

    untraced_ops = [o for cycle in untraced for o in cycle]
    values.update(workload.layer_values(every_op, untraced_ops))
    return {metric: (values.get(metric, 0.0), unit) for metric, unit in UNITS.items()}
