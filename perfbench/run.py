"""Run one benchmark workload and print its metrics as one JSON line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout: the program is imported from ``src/``
there.  The last line of standard output is
``{"correct", "attempted", "failed", "metrics"}``; the line before it is
a ``{"context": ...}`` object stating the core count, Python version,
checkpoint directory and its filesystem type, sizes, sample counts and
which percentile ``op_tail_ms`` is.  ``--trace 0`` reports the
end-to-end metrics, ``--trace 1`` the per-layer ones; ``BENCHMARK.json``
names them.  A traced run
alternates traced and untraced operations, so its ``trace.overhead_pct``
compares the two inside one run; its spans go to
``.perfbench_out/spans-<run id>.jsonl``.
"""

import os
import sys
import time

# String hashes, and with them every dict and set layout and every
# configuration content hash, depend on the interpreter's hash seed.  On
# a 2-core VM a random seed per run made query-knowledge's throughput
# spread 22% across runs of one workload seed; pinned, 5%.  So every run
# uses the same hash seed.
HASH_SEED = "0"
if __name__ == "__main__" and os.environ.get("PYTHONHASHSEED") != HASH_SEED:
    os.environ["PYTHONHASHSEED"] = HASH_SEED
    os.execv(sys.executable, [sys.executable, *sys.argv])

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import traceback  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = (
    "explore-star",
    "explore-star-sharded",
    "query-knowledge",
)
SETUP_PROBES = 5
BATCH_SECONDS = 1.0
MAX_TRACED_OPS = 2000  # bounds the span file of a query run to a few MB
TAIL_PERCENTILES = (99.9, 99.5, 99.0, 98.0, 95.0, 90.0, 75.0, 50.0)
WORK_DIR = ".perfbench_work"
SPAN_DIR = ".perfbench_out"


def tail(samples: list[float]) -> tuple[str, float]:
    """The highest percentile with at least ten samples beyond it
    (nearest rank), or the maximum when there are fewer than eleven."""
    ordered = sorted(samples)
    for percentile in TAIL_PERCENTILES:
        rank = math.ceil(percentile / 100 * len(ordered))
        if len(ordered) - rank >= 10:
            return f"p{percentile:g}", ordered[rank - 1]
    return "max", ordered[-1]


def batched_rate(ops) -> float:
    """Median throughput over consecutive batches of operations that each
    took at least ``BATCH_SECONDS`` of work time: one slow stretch moves
    it less than a total over the window would."""
    rates, work, work_s = [], 0, 0.0
    for op in ops:
        work += op.work
        work_s += op.work_s
        if work_s >= BATCH_SECONDS:
            rates.append(work / work_s)
            work, work_s = 0, 0.0
    if not rates:
        rates.append(work / work_s)
    return statistics.median(rates)


def setup_seconds(args) -> float:
    """Process start until the workload is ready, timed from outside: a
    fresh interpreter runs the imports and the workload's set-up, says
    ``ready`` and exits at once."""
    argv = [sys.executable, os.path.abspath(__file__), "--setup-probe"]
    for flag in ("workload", "seed", "seconds", "trace"):
        argv += [f"--{flag}", str(getattr(args, flag))]
    if args.tiny:
        argv.append("--tiny")
    start = time.perf_counter()
    with subprocess.Popen(
        argv, stdout=subprocess.PIPE, env={**os.environ, "PYTHONHASHSEED": HASH_SEED}
    ) as child:
        line = child.stdout.readline()
        elapsed = time.perf_counter() - start
        child.wait()
    if line.strip() != b"ready" or child.returncode != 0:
        raise RuntimeError(f"set-up probe failed with exit code {child.returncode}")
    return elapsed


def filesystem_type(path: str) -> str:
    real = os.path.realpath(path)
    best, kind = "", "unknown"
    try:
        with open("/proc/mounts") as mounts:
            for line in mounts:
                fields = line.split()
                mount_point = fields[1]
                inside = real == mount_point or real.startswith(
                    mount_point.rstrip("/") + "/"
                )
                if inside and len(mount_point) > len(best):
                    best, kind = mount_point, fields[2]
    except OSError:
        pass
    return kind


def measure(workload, seconds: float, trace: bool, setup_times: list[float]) -> dict:
    """Set up, run the closed loop for ``seconds``, check, and report.

    ``setup_times`` are the set-up probes' times; this process sets up
    once more for itself, untimed.  The first ``workload.warmup_ops``
    operations are checked but not timed."""
    from perfbench import layers, workloads
    from perfbench.trace import Instrumentation, SpanRecorder

    recorder = instrumentation = None
    if trace:
        recorder = SpanRecorder(
            f"{workload.name}-seed{workload.seed}-{os.getpid()}-{time.time_ns()}"
        )
        instrumentation = Instrumentation(recorder)
        instrumentation.install()
        workload.instrumentation = instrumentation
    problems: list[str] = []
    ops: list = []
    try:
        if recorder is not None:
            recorder.enabled = True
        with workloads.span(recorder, "setup"):
            state = workload.setup(recorder)
        one_off_problems = workload.before_loop(state, recorder)
        problems += one_off_problems
        if recorder is not None:
            recorder.enabled = False
        begun = time.perf_counter()
        traced_ops = 0
        while len(ops) <= workload.warmup_ops or time.perf_counter() - begun < seconds:
            index = len(ops)
            warmup = index < workload.warmup_ops
            traced = (
                recorder is not None
                and not warmup
                and (index - workload.warmup_ops) % 2 == 1
                and traced_ops < MAX_TRACED_OPS
            )
            traced_ops += traced
            if recorder is not None:
                recorder.enabled = traced
            root = recorder.begin("op") if traced else None
            try:
                op = workload.op(state, index, recorder if traced else None)
            except Exception as error:  # noqa: BLE001 - counted as a failure
                traceback.print_exc(file=sys.stderr)
                problems.append(f"operation {index} raised {error!r}")
                op = workloads.Op(0.0, 0, 0.0, True)
            finally:
                if root is not None:
                    recorder.end(root)
                if recorder is not None:
                    recorder.enabled = False
            op.traced = traced
            op.warmup = warmup
            problems += op.attrs.pop("problems", [])
            ops.append(op)
            if workload.collect_between_ops:
                gc.collect()
        # Before the answer check, whose own tables would count otherwise.
        peak_rss_mb = workloads.rss_mb("VmHWM")
        problems += workload.after_loop(state, ops)
    finally:
        if instrumentation is not None:
            instrumentation.uninstall()

    plain = [op for op in ops if not op.traced and not op.warmup]
    latencies = [op.latency_s for op in plain]
    tail_name, tail_value = tail(latencies)
    state_info = state if isinstance(state, dict) else {}
    if trace:
        metrics = layers.per_layer_metrics(recorder.spans, ops, state_info)
        units = layers.metric_units("per_layer")
    else:
        metrics = {
            "setup_s": statistics.median(setup_times),
            "work_per_s": batched_rate(plain),
            "op_p50_ms": 1000 * statistics.median(latencies),
            "peak_rss_mb": peak_rss_mb
            + statistics.median(op.attrs.get("worker_rss_mb", 0.0) for op in plain),
        }
        units = layers.metric_units("end_to_end")
    if set(metrics) != set(units):
        raise RuntimeError(
            f"metrics {sorted(set(metrics) ^ set(units))} are not both computed"
            " and listed in BENCHMARK.json"
        )
    failed = sum(1 for op in ops if op.failed) + bool(one_off_problems)
    context = {
        "workload": workload.name,
        "seed": workload.seed,
        "seconds": seconds,
        "trace": int(trace),
        "cores": os.cpu_count(),
        "usable_cores": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "hash_seed": os.environ.get("PYTHONHASHSEED"),
        "checkpoint_dir": workload.work_dir,
        "checkpoint_fs": filesystem_type(workload.work_dir),
        "loop": "closed",
        "clients": 1,
        "operations": len(ops),
        "warmup_operations": workload.warmup_ops,
        "timed_operations": len(plain),
        "op_tail_ms": 1000 * tail_value,
        "tail_percentile": tail_name,
        "tail_samples": len(latencies),
        "setup_probes": [round(value, 4) for value in setup_times],
        "problems": problems[:20],
        **workload.context(),
    }
    if trace:
        context["spans_file"] = _write_spans(recorder)
    return {
        "context": context,
        "result": {
            "correct": not problems and failed == 0,
            "attempted": len(ops) + workload.one_off_ops,
            "failed": failed,
            "metrics": {
                name: {"value": metrics[name], "unit": unit}
                for name, unit in units.items()
            },
        },
    }


def _write_spans(recorder) -> str:
    from perfbench.trace import write_spans

    return write_spans(recorder, os.path.join(os.getcwd(), SPAN_DIR))


def parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    # Internal: the set-up probe child, and the tiny sizes the tests use.
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--tiny", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not args.seconds > 0:
        parser.error("--seconds must be positive")
    return args


def main(argv=None) -> int:
    args = parse(argv)
    source = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(source, "repro", "__init__.py")):
        print(
            f"perfbench: no program source at {source}; run from a checkout",
            file=sys.stderr,
        )
        return 2
    for path in (source, ROOT):
        if path not in sys.path:
            sys.path.insert(0, path)
    from perfbench import workloads

    work_dir = os.path.join(
        os.getcwd(), WORK_DIR, f"{args.workload}-{args.seed}-{os.getpid()}"
    )
    workload = workloads.make(args.workload, args.seed, work_dir, tiny=args.tiny)
    os.makedirs(work_dir, exist_ok=True)
    try:
        if args.setup_probe:
            workload.setup()
            print("ready", flush=True)
        else:
            setup_times = [setup_seconds(args) for _ in range(SETUP_PROBES)]
            report = measure(workload, args.seconds, bool(args.trace), setup_times)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(work_dir))
        except OSError:
            pass
    if args.setup_probe:
        os._exit(0)  # skip freeing the set-up object by object
    print(json.dumps({"context": report["context"]}, default=str))
    print(json.dumps(report["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
