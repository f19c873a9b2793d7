"""Metric names and units, and the per-layer numbers derived from spans.

``BENCHMARK.json`` is the benchmark's output schema.  Per-layer times
and counts are means per traced operation, except ``iso.sweep_s``,
``iso.check_s.*``, ``iso.partition_table_*`` and ``iso.refinement_s``,
which total the single property sweep, and ``checkpoint.*``, which total
the run.
A layer a workload never calls reads 0.
"""

from __future__ import annotations

import json
import os
import statistics

from perfbench.trace import PROPERTY_CHECKERS, self_times

BENCHMARK_JSON = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "BENCHMARK.json"
)


def metric_units(kind: str) -> dict[str, str]:
    """Name -> unit of the ``end_to_end`` or ``per_layer`` metrics, as
    ``BENCHMARK.json`` lists them."""
    with open(BENCHMARK_JSON) as handle:
        return {entry["name"]: entry["unit"] for entry in json.load(handle)[kind]}


def _mean(values) -> float:
    values = list(values)
    return sum(values) / len(values) if values else 0.0


def _ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def per_layer_metrics(spans, ops, state: dict) -> dict:
    """Every ``per_layer`` metric of ``BENCHMARK.json`` from one traced run."""
    by_id = {span.span_id: span for span in spans}
    own = self_times(spans)
    roots: dict[int, str] = {}

    def root_name(span) -> str:
        cached = roots.get(span.span_id)
        if cached is None:
            parent = by_id.get(span.parent) if span.parent is not None else None
            cached = root_name(parent) if parent is not None else span.name
            roots[span.span_id] = cached
        return cached

    in_ops = [span for span in spans if root_name(span) == "op"]
    sweep = [span for span in spans if span.name == "sweep"]
    traced = [op for op in ops if op.traced]
    count = max(len(traced), 1)

    def total(name: str, values=None) -> float:
        return sum(
            (values or {}).get(span.span_id, span.duration)
            for span in in_ops
            if span.name == name
        )

    def calls(name: str) -> int:
        return sum(1 for span in in_ops if span.name == name)

    def attr(key: str) -> float:
        return _mean(op.attrs.get(key, 0) for op in traced)

    metrics: dict[str, float] = {}
    compiled = sum(op.attrs.get("steptable_compiled", 0) for op in traced)
    shape_hits = sum(op.attrs.get("steptable_shape_hits", 0) for op in traced)
    metrics["steptable.build_s"] = attr("steptable_build_s")
    metrics["steptable.compiled_entries"] = compiled / count
    metrics["steptable.shape_hit_ratio"] = _ratio(shape_hits, shape_hits + compiled)

    edges = sum(op.attrs.get("edges", 0) for op in traced)
    discovered = sum(op.attrs.get("configurations", 1) - 1 for op in traced)
    metrics["kernel.explore_s"] = total("universe.explore") / count
    metrics["kernel.self_s"] = total("universe.explore", own) / count
    metrics["kernel.layers"] = attr("layers")
    metrics["kernel.edges"] = edges / count
    metrics["kernel.new_per_edge"] = _ratio(discovered, edges)

    metrics["arena.retire_s"] = total("arena.retire") / count
    metrics["arena.retire_calls"] = calls("arena.retire") / count
    metrics["arena.spill_s"] = total("arena.spill") / count
    metrics["arena.spill_calls"] = calls("arena.spill") / count
    metrics["arena.raw_bytes"] = attr("arena_raw_bytes")
    metrics["arena.compressed_bytes"] = attr("arena_compressed_bytes")
    metrics["arena.bytes_per_config"] = attr("arena_bytes_per_config")

    # Checkpointing runs in query-knowledge's set-up, with the writer's
    # file operations on its own thread, so these total the whole run.
    def run_total(name: str) -> float:
        return sum(span.duration for span in spans if span.name == name)

    metrics["checkpoint.commit_s"] = run_total("checkpoint.commit")
    metrics["checkpoint.commit_calls"] = sum(
        1 for span in spans if span.name == "checkpoint.commit"
    )
    metrics["checkpoint.flush_wait_s"] = run_total("checkpoint.flush")
    metrics["checkpoint.write_s"] = run_total("fileops.write")
    metrics["checkpoint.fsync_s"] = run_total("fileops.fsync")
    metrics["checkpoint.replace_s"] = run_total("fileops.replace")
    metrics["checkpoint.bytes_written"] = sum(
        span.attrs.get("bytes", 0) for span in spans if span.name == "fileops.write"
    )
    metrics["checkpoint.resume_s"] = run_total("checkpoint.resume")
    metrics["checkpoint.file_bytes"] = state.get("checkpoint_file_bytes", 0)

    sharded_ops = [op for op in traced if op.attrs.get("worker_rss_mb")]
    metrics["sharded.explore_into_s"] = total("sharded.explore_into") / count
    metrics["sharded.coordinator_cpu_s"] = _mean(
        op.attrs["coordinator_cpu_s"] for op in sharded_ops
    )
    metrics["sharded.worker_cpu_s"] = _mean(
        op.attrs["worker_cpu_s"] for op in sharded_ops
    )
    metrics["sharded.coordinator_wait_s"] = _mean(
        op.attrs["explore_wall_s"] - op.attrs["coordinator_cpu_s"]
        for op in sharded_ops
    )
    metrics["sharded.recovery_events"] = _mean(
        op.attrs["recovery_events"] for op in sharded_ops
    )

    # The isomorphism layer's tables and refinement products are built
    # inside the property sweep; the queries only read the tables and run
    # the class-containment step.
    sweep_ids = {span.span_id for span in sweep}
    in_sweep = [span for span in spans if root_name(span) == "sweep"]
    tables = [span for span in in_sweep if span.name == "iso.partition_table"]
    table_ids = {span.span_id for span in tables}

    def sweep_total(name: str) -> float:
        return sum(span.duration for span in in_sweep if span.name == name)

    metrics["iso.partition_table_s"] = sweep_total("iso.partition_table")
    metrics["iso.partition_table_calls"] = len(tables)
    metrics["iso.partition_table_builds"] = sum(
        1
        for span in in_sweep
        if span.name == "iso.table_build" and span.parent in table_ids
    )
    metrics["iso.refinement_s"] = sweep_total("iso.refinement")
    metrics["iso.contained_classes_s"] = total("iso.contained_classes") / count
    metrics["iso.sweep_s"] = sum(span.duration for span in sweep)
    for name, checker in PROPERTY_CHECKERS.items():
        metrics[f"iso.check_s.{name}"] = sum(
            span.duration
            for span in spans
            if span.parent in sweep_ids and span.name == f"iso.check.{checker}"
        )

    extensions = [span for span in in_ops if span.name == "knowledge.extension"]
    for kind in ("atom", "knows", "ck", "boolean"):
        metrics[f"knowledge.{kind}_self_s"] = (
            sum(own[span.span_id] for span in extensions if span.attrs["kind"] == kind)
            / count
        )
    # The evaluator memoises each extension it computes, so every call
    # beyond the first for one formula is answered from the memo.
    distinct = len({span.attrs["formula"] for span in extensions})
    metrics["knowledge.extension_calls"] = len(extensions) / count
    metrics["knowledge.mask_hit_ratio"] = _ratio(
        len(extensions) - distinct, len(extensions)
    )

    explored = [op.attrs["rss_after_explore_mb"] for op in ops if op.attrs.get(
        "rss_after_explore_mb"
    )]
    metrics["rss.after_explore_mb"] = state.get(
        "rss_after_explore_mb", statistics.median(explored) if explored else 0.0
    )
    metrics["rss.after_queries_mb"] = state.get("rss_after_queries_mb", 0.0)

    # Compare only where traced and untraced operations alternate.
    last = max((i for i, op in enumerate(ops) if op.traced), default=0)
    plain = [
        op.latency_s for op in ops[: last + 2] if not op.traced and not op.warmup
    ]
    with_spans = [op.latency_s for op in traced]
    metrics["trace.overhead_pct"] = (
        100 * (statistics.median(with_spans) / statistics.median(plain) - 1)
        if plain and with_spans
        else 0.0
    )
    return metrics
