"""fhmix benchmark: one workload, one seed, one process.

    python3 bench/run.py --workload plan-mixed --seed 1 --seconds 20 --trace 0

Workloads are ``plan-mixed``, ``draw-n12`` and ``cli-n4`` (see README.md).
The run imports fhmix from ``src/`` of the checkout it sits in, sets up the
workload three times (fresh inputs each time, median reported), then runs
whole rounds of the workload's ops until ``--seconds`` have passed, and
checks every output against ``reference``.  The last line of standard output
is one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced rounds and reports the per-layer metrics: what the
traced set-up compiled, plus the median traced round.
"""

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_REPS = 3


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def set_up(wl, lib, tracer):
    """Generate inputs, compile what is compiled before timing, warm up.

    Untraced runs set up SETUP_REPS times, each from fresh inputs, and keep
    the state of the first; the traced run sets up once and traces only the
    compile step.  Returns (seconds per set-up, state).
    """
    import tracing

    times, state = [], None
    for rep in range(1 if tracer else SETUP_REPS):
        t0 = time.perf_counter()
        inp = wl.generate(rep)
        with tracing.active(tracer, lib):
            st = wl.compile(inp, lib)
        wl.warm_up(st, lib)
        times.append(time.perf_counter() - t0)
        if state is None:
            state = st
    return times, state


def run_rounds(wl, state, lib, seconds: float, tracer):
    """Whole rounds until ``seconds`` have passed.

    A traced run follows each untraced round with a traced one and keeps the
    per-layer metrics of each traced round.
    """
    import tracing

    logs, traced_logs, round_metrics = [], [], []
    start = time.perf_counter()
    while True:
        logs.append(wl.run_round(state, lib, len(logs) + len(traced_logs)))
        if tracer:
            with tracing.active(tracer, lib):
                traced_logs.append(wl.run_round(state, lib, len(logs) + len(traced_logs),
                                                tracer))
            round_metrics.append(tracing.units_metrics(tracer.take()))
        if time.perf_counter() - start >= seconds:
            return logs, traced_logs, round_metrics


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "fhmix" / "__init__.py").is_file():
        print(f"error: no fhmix sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))

    import types

    import fhmix
    from fhmix import sampler

    import tracing
    import workloads

    if Path(fhmix.__file__).resolve().parent != (ROOT / "src" / "fhmix").resolve():
        print(f"error: imported fhmix from {fhmix.__file__}", file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"expected one of {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    import_s = time.perf_counter() - T0

    wl = workloads.WORKLOADS[args.workload](ROOT, args.seed)
    lib = types.SimpleNamespace(build_plan=sampler.build_plan,
                                build_plan_from_concurrence=sampler.build_plan_from_concurrence,
                                sample_batch=sampler.sample_batch)
    tracer = tracing.Tracer() if args.trace else None

    setup_times, state = set_up(wl, lib, tracer)
    once = tracer.take() if tracer else []
    logs, traced_logs, round_metrics = run_rounds(wl, state, lib, args.seconds, tracer)
    peak_rss_mb = wl.peak_rss_mb()
    try:
        errors = wl.check(state, lib, tracer)
    except Exception as exc:  # a library error during the checks is a failed check
        errors = [f"checks raised {exc!r}"]
    if tracer:
        once += tracer.take()

    ops = [op for log in logs + traced_logs for op in log.ops]
    if tracer:
        base = tracing.units_metrics(once)
        metrics = {name: {"value": base[name] + statistics.median(m[name] for m in round_metrics),
                          "unit": unit}
                   for name, unit, _ in tracing.PER_LAYER}
        metrics["trace.overhead_s"]["value"] = (
            statistics.median(log.seconds for log in traced_logs)
            - statistics.median(log.seconds for log in logs))
    else:
        latencies = [op.seconds for log in logs for op in log.ops
                     if op.in_p50 and not op.failed]
        metrics = {
            "setup_s": {"value": import_s + statistics.median(setup_times), "unit": "s"},
            "job_s": {"value": statistics.median(log.seconds for log in logs), "unit": "s"},
            "op_s_p50": {"value": statistics.median(latencies), "unit": "s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        }

    for e in errors:
        print(f"check failed: {e}", file=sys.stderr)
    result = {"correct": not errors, "attempted": len(ops),
              "failed": sum(op.failed for op in ops),
              "metrics": metrics}
    out = ROOT / "bench" / "out"
    out.mkdir(parents=True, exist_ok=True)
    (out / f"result-{args.workload}-s{args.seed}-t{args.trace}.json").write_text(
        json.dumps(result, indent=1) + "\n", encoding="utf-8")
    print(json.dumps(result))
    return 0 if not errors else 1


if __name__ == "__main__":
    sys.exit(main())
