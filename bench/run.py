"""voxtag benchmark: one workload in one fresh, single-process, closed-loop run.

    python3 bench/run.py --workload train --seed 0 --seconds 30 --trace 0

The run pins numeric-library threads to 1, imports voxtag from this
checkout's src/, builds the workload's inputs from --seed (set-up is repeated
SETUP_REPEATS times and the median kept), then repeats passes of the workload
for --seconds, starting no pass that would end past them, and times every
item. Outputs are checked after each pass, outside the timed region.

With --trace 0 it prints the end-to-end metrics. A speed probe (speed.py)
samples the machine's speed throughout, and every time is scaled to the
reference speed of the interval it was measured in; the unscaled median pass
time is printed beside wall_s. With --trace 1 it alternates
untraced and traced passes (the first pass is untraced) and prints the
per-layer metrics from the traced ones, plus the tracing overhead. The spans
are written to .bench_out/trace-<workload>-seed<seed>.json. The last line of
standard output is one JSON object: correct, attempted, failed, metrics.
Exit status is 1, with no result printed, when the benchmark cannot run.
"""

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402

from env import WORK_ROOT, BenchError, check_pinned, import_voxtag, pin_threads, stamp  # noqa: E402

SETUP_REPEATS = 3
MIN_ITEMS = {"full": 100, "tiny": 1}
END_TO_END = {"setup_s": "s", "wall_s": "s", "item_ms_p50": "ms", "item_ms_p90": "ms",
              "peak_rss_mb": "MB"}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("train", "perturb", "evaluate"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=sorted(MIN_ITEMS), default="full",
                        help="input sizes; 'tiny' is for the smoke test only")
    return parser.parse_args(argv)


def _no_span(name):
    return contextlib.nullcontext()


def measure(workload, tracer, seconds, min_items, traced, excluded):
    """Repeat passes until the time is up.

    Returns (walls, spans, ranges, attempted, failed): per pass, (traced,
    seconds of program work), its (start, end) on the clock, and the range of
    its items in the item clock. `excluded()` is the time spent outside the
    program, taken out of each pass. In a traced run every second pass is
    traced, starting with the second, so caches a pass fills are warm for
    every traced pass.
    """
    walls, spans, ranges, attempted, failed = [], [], [], 0, 0
    deadline = time.perf_counter() + seconds
    index = 0
    with workload.item_hook():
        while True:
            trace_this = traced and index % 2 == 1
            tracer.pass_index = index if trace_this else None
            installed = tracer.installed() if trace_this else contextlib.nullcontext()
            with installed:
                first = len(tracer.clock.durations)
                x0 = excluded()
                t0 = time.perf_counter()
                out = workload.run(index, tracer.span if trace_this else _no_span)
                t1 = time.perf_counter()
                walls.append((trace_this, t1 - t0 - (excluded() - x0)))
                spans.append((t0, t1))
                ranges.append((first, len(tracer.clock.durations)))
            tracer.pass_index = None
            n, bad = workload.check(index, out)
            attempted, failed = attempted + n, failed + bad
            index += 1
            # stop before a pass that would end past the deadline
            if (time.perf_counter() + walls[-1][1] > deadline
                    and len(tracer.clock.durations) >= min_items and (not traced or index >= 2)):
                return walls, spans, ranges, attempted, failed


def end_to_end(probe, imports, setups, walls, spans, ranges, clock, workload):
    """The end-to-end metrics of an untraced run. Every time is scaled to the
    reference speed of the interval it was measured in (see speed.py).

    Returns {name: (value, description of the samples)}. The first pass is a
    warm-up and is left out when there are others. Where every pass repeats
    the same items, an item's latency is its median over the passes.
    """
    import numpy as np
    overall = probe.scale(probe.starts[0], probe.starts[-1]) if probe.starts else None

    def scale(start, end):
        return probe.scale(start, end) or overall or 1.0

    setup_s = [work * scale(t0, t1) for t0, t1, work in setups]
    passes = list(zip(walls, spans, ranges))
    passes = passes[1:] or passes
    wall_s = [w * scale(*span) for (_, w), span, _ in passes]
    raw_s = [w for (_, w), _, _ in passes]
    repeats = {}
    for index, (_, _, (a, b)) in enumerate(passes):
        for position, i in enumerate(range(a, b)):
            key = position if workload.repeats_items else (index, position)
            repeats.setdefault(key, []).append(clock.durations[i] * 1e3 * scale(*clock.intervals[i]))
    items = np.array([statistics.median(v) for v in repeats.values()])
    sampled = (f"{len(items)} {workload.item}s, each the median of its {len(passes)} passes"
               if workload.repeats_items else f"pooled over {len(items)} {workload.item}s "
               f"of {len(passes)} passes")
    pct = lambda q: float(np.percentile(items, q)) if len(items) else 0.0
    return {
        "setup_s": (imports * scale(*setups[0][:2]) + statistics.median(setup_s),
                    f"imports + median of {len(setup_s)} set-ups"),
        "wall_s": (statistics.median(wall_s),
                   f"median of {len(wall_s)} passes; unscaled {statistics.median(raw_s):.4g} s"),
        "item_ms_p50": (pct(50), sampled),
        "item_ms_p90": (pct(90), sampled),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                        "process high-water mark"),
    }


def run(args, work):
    from speed import SpeedProbe
    from tracing import PER_LAYER, ItemClock, Tracer, layer_metrics
    from workloads import WORKLOADS
    imported = time.perf_counter()

    # the traced run reports unscaled per-layer times, so it runs no probe
    probe = None if args.trace else SpeedProbe()
    clock = ItemClock(excluded=(lambda: probe.busy) if probe else (lambda: 0.0))
    tracer = Tracer(clock)
    workload = WORKLOADS[args.workload](args.seed, args.size, work, clock)
    setups = []
    with probe.running() if probe else contextlib.nullcontext():
        with tracer.installed() if args.trace else contextlib.nullcontext():
            for _ in range(SETUP_REPEATS):
                with tracer.span("bench.setup"):
                    x0 = clock.excluded()
                    t0 = time.perf_counter()
                    workload.setup()
                    t1 = time.perf_counter()
                    setups.append((t0, t1, t1 - t0 - (clock.excluded() - x0)))
        walls, spans, ranges, attempted, failed = measure(
            workload, tracer, args.seconds, MIN_ITEMS[args.size], bool(args.trace), clock.excluded)

    env = stamp(workload=args.workload, seed=args.seed, seconds=args.seconds, trace=args.trace,
                size=args.size, inputs=workload.size)
    print(f"env {json.dumps(env, sort_keys=True)}")
    if args.trace:
        layers = layer_metrics(tracer, workload.utts_per_pass, walls)
        metrics = {name: {"value": layers[name], "unit": unit} for name, unit in PER_LAYER.items()}
        passes = sum(traced for traced, _ in walls)
        for name, unit in PER_LAYER.items():
            print(f"  {name:32s} {layers[name]:14.6g} {unit:12s} ({passes} traced passes)")
        path = os.path.join(WORK_ROOT, f"trace-{args.workload}-seed{args.seed}.json")
        tracer.dump(path, env=env, walls=walls)
        print(f"spans written to {os.path.relpath(path)}")
    else:
        rows = end_to_end(probe, imported - T_START, setups, walls, spans, ranges, clock,
                          workload)
        metrics = {name: {"value": rows[name][0], "unit": unit} for name, unit in END_TO_END.items()}
        for name, unit in END_TO_END.items():
            value, samples = rows[name]
            print(f"  {name:16s} {value:14.6g} {unit:6s} ({samples})")
    for name, (value, unit) in sorted(workload.quality.items()):
        print(f"  {name:16s} {value:14.6g} {unit:6s} (quality)")
    print(f"  {'ops_failed_frac':16s} {failed / max(attempted, 1):14.6g} {'ratio':6s} "
          f"({failed} failed of {attempted} items and checks)")
    return {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}


def main(argv=None):
    args = parse_args(argv)
    work = os.path.join(WORK_ROOT, f"work-{args.workload}-{os.getpid()}")
    try:
        pin_threads()
        import_voxtag()
        check_pinned()
        os.makedirs(work, exist_ok=True)
        result = run(args, work)
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
