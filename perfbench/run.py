"""Run one benchmark workload and print its metrics.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload population --seed 1 --seconds 30 --trace 0

``--trace 0`` measures the end-to-end metrics with no instrumentation.
``--trace 1`` runs the closed loop for half the time untraced and for half
with span wrappers around each layer's public functions, and reports the
per-layer metrics plus the tracing overhead.  The last line of standard
output is one JSON object; the lines before it are a readable report.
Times are host-normalised (see ``host.py``); raw times are printed too.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

import host  # noqa: E402  (a sibling module, found through the line above)

#: Set-up is measured this many times per run (this process plus fresh
#: child processes) and reported as the median.
SETUP_SAMPLES = 3
#: The tail percentile reported, and the samples that must lie beyond it.
TAIL_PCT = 75
TAIL_BEYOND = 10

Metrics = Dict[str, Tuple[float, str]]


# --------------------------------------------------------------------- #
# summaries
# --------------------------------------------------------------------- #


def percentile(values: List[float], pct: int) -> float:
    """Nearest-rank percentile of ``values``."""
    ordered = sorted(values)
    rank = max(1, math.ceil(pct / 100.0 * len(ordered)))
    return ordered[rank - 1]


def timing(values: List[float]) -> Dict[str, Any]:
    """Median and tail of ``values``.  The tail is the ``TAIL_PCT`` percentile,
    lowered if needed (but not below the median) so that at least
    ``TAIL_BEYOND`` samples lie beyond it."""
    count = len(values)
    highest = math.floor(100.0 * (1.0 - TAIL_BEYOND / count)) if count else 50
    pct = max(50, min(TAIL_PCT, highest))
    return {
        "n": count,
        "p50": statistics.median(values) if values else float("nan"),
        "pct": pct,
        "tail": percentile(values, pct) if values else float("nan"),
        "beyond": count - math.ceil(pct / 100.0 * count),
    }


def throughput(cycles: List[List[Any]]) -> float:
    """Median over cycles of the work a cycle did per normalised second."""
    rates = [
        sum(o.work for o in cycle) / sum(o.norm_s for o in cycle)
        for cycle in cycles
        if all(o.ok for o in cycle)
    ]
    return statistics.median(rates) if rates else float("nan")


# --------------------------------------------------------------------- #
# set-up and the closed loop
# --------------------------------------------------------------------- #


def load_program() -> None:
    """Put the checkout's ``src`` on the path, or exit: nothing to measure."""
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program sources at {SRC}", file=sys.stderr)
        raise SystemExit(2)
    sys.path.insert(0, str(SRC))


def setup_workload(
    name: str, seed: int, calibrator: host.Calibrator
) -> Tuple[Any, float, float]:
    """Build and warm the workload; returns it with raw and normalised set-up seconds."""
    from workloads import WORKLOADS

    before = calibrator.calibration_s()
    started = time.perf_counter()
    workload = WORKLOADS[name](seed)
    workload.setup()
    # Objects that survive set-up live for the whole run; keep the cyclic
    # collector from re-walking them during every timed operation.
    gc.collect()
    gc.freeze()
    raw = time.perf_counter() - started
    return workload, raw, raw * host.scale(before, calibrator.calibration_s())


def child_setup_seconds(args: argparse.Namespace) -> float:
    """One fresh process's normalised set-up time, measured by that process."""
    completed = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
         "--seed", str(args.seed), "--setup-only"],
        capture_output=True, text=True, timeout=150, check=False,
    )
    if completed.returncode != 0:
        raise RuntimeError(f"set-up child failed:\n{completed.stderr}")
    return float(completed.stdout.strip().splitlines()[-1])


def closed_loop(
    workload: Any,
    cycles: Any,
    seconds: float,
    calibrator: host.Calibrator,
    tracer: Any = None,
) -> List[List[Any]]:
    """Run whole cycles of the mix, one operation at a time, for ``seconds``.

    Stopping only at cycle boundaries keeps the operation mix exact, so
    the throughput does not depend on where the window happened to end.
    The host is calibrated between operations, outside their timing.
    """
    from workloads import Outcome

    done = []
    calibration = calibrator.calibration_s()
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline:
        outcomes = []
        for op in next(cycles):
            if tracer is not None:
                tracer.op = op.index
            try:
                outcome = workload.run(op)
            except Exception:  # an operation that raises counts as failed
                traceback.print_exc(file=sys.stderr)
                outcome = Outcome(op, float("nan"), 0.0, ["raised"])
            after = calibrator.calibration_s()
            outcome.scale = host.scale(calibration, after)
            calibration = after
            outcomes.append(outcome)
        done.append(outcomes)
    return done


# --------------------------------------------------------------------- #
# end-to-end metrics and the readable report
# --------------------------------------------------------------------- #


def end_to_end(workload: Any, cycles: List[List[Any]], setup_s: float, rss_mb: float) -> Metrics:
    outcomes = [o for cycle in cycles for o in cycle]
    primary = timing([o.norm_s for o in outcomes if o.ok and o.op.kind == workload.primary])
    return {
        "setup_s": (setup_s, "s"),
        "work_per_s": (throughput(cycles), "work/s"),
        "op_s.p50": (primary["p50"], "s"),
        "op_s.tail": (primary["tail"], "s"),
        "peak_rss_mb": (rss_mb, "MB"),
        "ok_frac": (sum(o.ok for o in outcomes) / len(outcomes), "ratio"),
    }


def report_kinds(workload: Any, outcomes: List[Any]) -> None:
    """Print every operation kind's latency under the name users know it by."""
    done = [o for o in outcomes if o.ok]
    for kind, label in workload.latency_labels.items():
        if kind == "cex":
            pairs = [(o.extra["cex_s"] * o.scale, o.extra["cex_s"]) for o in done if "cex_s" in o.extra]
        else:
            pairs = [(o.norm_s, o.seconds) for o in done if o.op.kind == kind]
        if not pairs:
            continue
        norm = timing([p[0] for p in pairs])
        raw = timing([p[1] for p in pairs])
        print(f"  {label}.p50  = {norm['p50']:.4f} s  (raw {raw['p50']:.4f} s, n={norm['n']})")
        print(f"  {label}.tail = {norm['tail']:.4f} s  (raw {raw['tail']:.4f} s, "
              f"p{norm['pct']}, n={norm['n']}, {norm['beyond']} beyond)")


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    load_program()
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r} (one of {', '.join(WORKLOADS)})")
    calibrator = host.Calibrator()
    workload, setup_raw, setup_s = setup_workload(args.workload, args.seed, calibrator)
    if args.setup_only:
        workload.close()
        print(repr(setup_s))
        return 0

    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace}")
    print("machine " + json.dumps(host.fingerprint(), sort_keys=True))
    stream = workload.cycles()
    try:
        if args.trace:
            from tracer import Tracer

            untraced = closed_loop(workload, stream, args.seconds / 2, calibrator)
            tracer = Tracer()
            tracer.install()
            try:
                traced = closed_loop(workload, stream, args.seconds / 2, calibrator, tracer)
            finally:
                tracer.uninstall()
            cycles = untraced + traced
        else:
            cycles = closed_loop(workload, stream, args.seconds, calibrator)
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        oracle_failures = workload.check_oracle()
    finally:
        workload.close()

    outcomes = [o for cycle in cycles for o in cycle]
    failed = sum(not o.ok for o in outcomes)
    for outcome in outcomes:
        for failure in outcome.failures:
            print(f"FAILED {outcome.op}: {failure}")
    for failure in oracle_failures:
        print(f"FAILED oracle: {failure}")
    if oracle_failures and failed < len(outcomes):
        failed += 1  # the sampled operation passed its own checks but not the oracle's
    print(f"  operations: {len(outcomes)} attempted in {len(cycles)} cycles, {failed} failed; "
          f"oracle sample: {workload.oracle_kind}")
    scales = [o.scale for o in outcomes]
    print(f"  host scale (raw -> normalised): median {statistics.median(scales):.3f}, "
          f"range {min(scales):.3f}-{max(scales):.3f}")

    if args.trace:
        from layers import per_layer

        metrics = per_layer(workload, untraced, traced, tracer, throughput)
        spans = ROOT / ".perfbench" / f"spans-{args.workload}-{args.seed}.jsonl"
        tracer.write(spans)
        print(f"  {len(tracer.spans)} of {tracer.span_count()} spans written to "
              f"{spans.relative_to(ROOT)}")
    else:
        setups = [setup_s] + [child_setup_seconds(args) for _ in range(SETUP_SAMPLES - 1)]
        metrics = end_to_end(workload, cycles, statistics.median(setups), rss_mb)
        print(f"  setup samples: {', '.join(f'{s:.3f}' for s in setups)} s "
              f"(this process raw {setup_raw:.3f} s)")
        report_kinds(workload, outcomes)
        print(f"  {workload.work_label} = {metrics['work_per_s'][0]:.2f} {workload.work_unit}/s")
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(outcomes),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
