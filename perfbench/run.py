"""Wall-clock benchmark of the repro mining stack.

    python3 perfbench/run.py --workload grid --seed 0 --seconds 5 --trace 0

Builds nothing: it imports the ``repro`` package from ``src/`` of the
checkout it sits in.  ``--trace 0`` measures with no instrumentation and
prints the end-to-end metrics; ``--trace 1`` first runs one untraced
pass, then one pass with span wrappers installed around each layer's
public functions, and prints the per-layer metrics.  The last stdout
line is the JSON result; the line before it carries details (machine
calibration, per-op-kind percentiles, digests, the Cypher query table).
Traced runs also write ``.perfbench/trace-<workload>-<seed>.json``.
"""

from __future__ import annotations

import argparse
import json
import sys

from common import SRC, WORK_DIR, calibrate, median, peak_rss_mb, percentile

#: end-to-end metric -> unit; every workload reports all of them
END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "op_mean_s": "s",
    "peak_rss_mb": "MB",
}

#: the op kind whose latencies give op_mean_s
PRIMARY_OP = {"grid": "cell", "gateway": "cached", "stream": "batch"}


def _workload(name: str):
    import gateway
    import grid
    import stream

    return {"grid": grid, "gateway": gateway, "stream": stream}[name]


def end_to_end(workload: str, outcome) -> dict[str, float]:
    ops = outcome.ops[PRIMARY_OP[workload]]
    return {
        "setup_s": median(outcome.setup_s),
        "wall_s": median(outcome.pass_s),
        "op_mean_s": sum(ops) / len(ops),
        "peak_rss_mb": peak_rss_mb(),
    }


def op_summary(outcome) -> dict[str, dict[str, float]]:
    return {
        kind: {
            "n": len(values),
            "p50_s": median(values),
            "p90_s": percentile(values, 90),
            "total_s": sum(values),
        }
        for kind, values in outcome.ops.items()
    }


def _finish(outcome) -> None:
    if outcome.verify is not None:
        outcome.verify(outcome)


def measure(workload: str, seed: int, seconds: float, size: str) -> tuple[dict, dict]:
    module = _workload(workload)
    outcome = module.run(seed, seconds, size=size)
    _finish(outcome)
    metrics = {
        name: {"value": value, "unit": END_TO_END[name]}
        for name, value in end_to_end(workload, outcome).items()
    }
    detail = {"ops": op_summary(outcome), **outcome.detail}
    return _result(outcome, metrics), detail


def measure_traced(workload: str, seed: int, size: str) -> tuple[dict, dict]:
    from repro import obs

    import layers
    from tracer import Tracer, install

    module = _workload(workload)
    base = module.run(seed, 0, size=size)
    _finish(base)

    for name in layers.PRELOAD:
        __import__(name)
    tracer = Tracer()
    collector = obs.install(obs.TraceCollector())
    uninstall = install(tracer, layers.TARGETS)
    try:
        traced = module.run(seed, 0, size=size, tracer=tracer)
    finally:
        uninstall()
        obs.uninstall()
    traced.layer_extra["obs.trace_overhead_frac"] = (
        median(traced.pass_s) / median(base.pass_s) - 1
    )
    values = layers.per_layer_values(tracer, collector, traced.layer_extra)
    _finish(traced)
    queries = layers.query_table(tracer)
    metrics = {
        name: {"value": value, "unit": layers.PER_LAYER[name]}
        for name, value in values.items()
    }
    if traced.detail.get("digests") != base.detail.get("digests"):
        traced.failed = max(traced.failed, 1)
    outcome = base
    outcome.attempted += traced.attempted
    outcome.failed += traced.failed
    self_s = tracer.self_times()
    spans = {
        name: {"calls": calls, "total_s": total, "self_s": self_s[name]}
        for name, (calls, total) in sorted(tracer.totals().items())
    }
    report = {
        "workload": workload, "seed": seed, "metrics": values,
        "spans": spans, "queries": queries,
    }
    WORK_DIR.mkdir(exist_ok=True)
    (WORK_DIR / f"trace-{workload}-{seed}.json").write_text(
        json.dumps(report, indent=1)
    )
    return _result(outcome, metrics), {"ops": op_summary(base), "queries": queries}


def _result(outcome, metrics: dict) -> dict:
    return {
        "correct": outcome.failed == 0,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": metrics,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(PRIMARY_OP))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny: a seconds-long pass for self-tests")
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    calib_s = calibrate()
    if args.trace:
        result, detail = measure_traced(args.workload, args.seed, args.size)
    else:
        result, detail = measure(args.workload, args.seed, args.seconds, args.size)
    detail = {
        "workload": args.workload, "seed": args.seed, "calib_s": calib_s,
        "error_rate": result["failed"] / result["attempted"], **detail,
    }
    print(json.dumps(detail, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
