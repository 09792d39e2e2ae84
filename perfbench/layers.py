"""Which entry points the traced run wraps, and the per-layer metrics.

:data:`SPANS` names each layer's public entry points (``module:attr``);
:func:`perfbench.spans.install` wraps them in the program's process.
:data:`METRICS` defines every per-layer metric ``BENCHMARK.json`` lists,
with the end-to-end metric it should move and on which workloads the
layer does most or little of the work — the prediction a change to that
layer is judged against.  ``BENCHMARK.json`` has no field for that
mapping, so it lives here and the traced run prints it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, Optional, Sequence

from perfbench.stats import percentile, share


@dataclass(frozen=True)
class Span:
    span: str                                   # layer.operation
    target: str                                 # "module:Class.attr"
    count: Optional[Callable[[Any], float]] = None
    key: Optional[Callable[..., Optional[str]]] = None
    sample: Optional[Callable[..., Sequence[float]]] = None


def _rows(result: Any) -> float:
    return float(len(result))


def _bench_id(_server, _method, _path, _body, headers=None, _query=""):
    return (headers or {}).get("x-bench-id")


def _queue_waits(now: float, _server, items) -> Sequence[float]:
    """Seconds each sample of a micro-batch waited since admission."""
    return [now - item.submitted_at for item in items]


SPANS = (
    Span("pipeline.artifact_load", "repro.pipeline.artifact:load_pipeline"),
    Span("pipeline.predict",
         "repro.pipeline.pipeline:DetectionPipeline.predict_batch"),
    Span("engine.featurize",
         "repro.engine.engine:ExecutionEngine.featurize_sources", _rows),
    Span("embeddings.seed_table", "repro.embeddings.ir2vec:default_encoder"),
    Span("embeddings.transe",
         "repro.embeddings.transe:train_seed_embeddings"),
    Span("embeddings.encode",
         "repro.embeddings.ir2vec:IR2VecEncoder.encode_batch", _rows),
    Span("frontend.compile", "repro.frontend.compiler:compile_c"),
    Span("passes.run", "repro.passes.pipeline:run_pipeline"),
    Span("ir.verify", "repro.ir.verifier:verify_module"),
    Span("ir.print", "repro.ir.printer:print_module"),
    Span("graphs.build", "repro.graphs.programl:build_program_graph"),
    Span("nn.batch", "repro.nn.batching:batch_graphs"),
    Span("nn.forward", "repro.models.gnn_model:_GNNNetwork.__call__"),
    Span("nn.loss", "repro.nn.loss:cross_entropy"),
    Span("nn.backward", "repro.nn.tensor:Tensor.backward"),
    Span("nn.optim", "repro.nn.optim:Adam.step"),
    Span("nn.zero_grad", "repro.nn.optim:Adam.zero_grad"),
    Span("models.fit", "repro.models.gnn_model:GNNModel.fit"),
    Span("models.predict", "repro.models.gnn_model:GNNModel.predict"),
    Span("ml.predict",
         "repro.ml.decision_tree:DecisionTreeClassifier.predict"),
    Span("mpi.simulate", "repro.mpi.simulator:MPISimulator.run"),
    Span("verify.tools", "repro.fuzz.oracles:OracleBench.verdicts"),
    Span("verify.static", "repro.verify.static.analyzer:analyze_module"),
    Span("fuzz.check_source", "repro.fuzz.harness:check_source"),
    Span("repair.tasks", "repro.repair.runner:repair_tasks"),
    Span("repair.case", "repro.repair.runner:repair_source"),
    Span("repair.gate", "repro.repair.gate:run_gate"),
    Span("repair.propose", "repro.repair.operators:propose"),
    Span("serve.handle", "repro.serve.server:DetectionServer.handle",
         key=_bench_id),
    Span("serve.batch", "repro.serve.server:DetectionServer._run_batch",
         sample=_queue_waits),
)

#: The one span the untraced gnn-train run keeps: its end times are the
#: training-step clock behind that workload's latency.
STEP_SPAN = "nn.optim"


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str
    moves: str          # "e2e metric: most work → little work"


METRICS = (
    Metric("pipeline.artifact_load_s", "s", "lower",
           "setup_s: check-batch, serve-mixed -> gnn-train"),
    Metric("embeddings.seed_train_s", "s", "lower",
           "setup_s: check-batch, serve-mixed, repair-campaign -> "
           "gnn-train"),
    Metric("embeddings.seed_train_calls", "count", "lower",
           "setup_s: >1 per process is waste; gnn-train has none"),
    Metric("embeddings.encode_s", "s", "lower",
           "throughput_per_s: check-batch -> gnn-train, serve hot half"),
    Metric("embeddings.encode_rows", "count", "lower",
           "throughput_per_s: check-batch -> gnn-train"),
    Metric("frontend.compile_s", "s", "lower",
           "throughput_per_s: check-batch, repair-campaign -> gnn-train"),
    Metric("frontend.compile_calls", "count", "lower",
           "throughput_per_s: check-batch, repair-campaign -> gnn-train"),
    Metric("frontend.memo_hit_share", "share", "higher",
           "latency_p50_ms: serve-mixed -> check-batch (0 by design)"),
    Metric("passes.run_s", "s", "lower",
           "throughput_per_s: check-batch (Os), repair-campaign (O2)"),
    Metric("ir.verify_s", "s", "lower",
           "throughput_per_s: repair-campaign"),
    Metric("ir.print_s", "s", "lower",
           "throughput_per_s: repair-campaign"),
    Metric("graphs.build_s", "s", "lower", "setup_s: gnn-train"),
    Metric("nn.batch_s", "s", "lower",
           "throughput_per_s, peak_rss_mb: gnn-train -> all others"),
    Metric("nn.forward_s", "s", "lower",
           "throughput_per_s, peak_rss_mb: gnn-train -> all others"),
    Metric("nn.backward_s", "s", "lower",
           "throughput_per_s, peak_rss_mb: gnn-train -> all others"),
    Metric("nn.optim_s", "s", "lower",
           "throughput_per_s: gnn-train -> all others"),
    Metric("models.step_ms_p50", "ms", "lower",
           "throughput_per_s, latency_p50_ms: gnn-train -> all others"),
    Metric("models.predict_s", "s", "lower",
           "throughput_per_s: gnn-train -> all others"),
    Metric("ml.predict_s", "s", "lower",
           "throughput_per_s: check-batch; latency_p50_ms: serve-mixed"),
    Metric("engine.featurize_s", "s", "lower",
           "latency_p50_ms: serve-mixed; throughput_per_s: check-batch"),
    Metric("engine.rows_per_call", "count", "higher",
           "latency_p50_ms: serve-mixed; throughput_per_s: check-batch"),
    Metric("engine.store_hit_share", "share", "higher",
           "latency_p50_ms: serve-mixed; throughput_per_s: check-batch"),
    Metric("serve.queue_wait_ms_p50", "ms", "lower",
           "latency_p50_ms, latency_tail_ms: serve-mixed"),
    Metric("serve.batch_size_mean", "count", "higher",
           "latency_p50_ms, latency_tail_ms: serve-mixed"),
    Metric("serve.batch_s", "s", "lower",
           "latency_p50_ms, latency_tail_ms: serve-mixed"),
    Metric("serve.rejected", "count", "lower",
           "success_share: serve-mixed"),
    Metric("mpi.simulate_s", "s", "lower",
           "throughput_per_s: repair-campaign"),
    Metric("mpi.simulate_calls", "count", "lower",
           "throughput_per_s: repair-campaign"),
    Metric("verify.tools_s", "s", "lower",
           "throughput_per_s: repair-campaign"),
    Metric("verify.static_s", "s", "lower",
           "throughput_per_s: repair-campaign; latency_tail_ms: "
           "serve-mixed"),
    Metric("fuzz.check_source_s", "s", "lower",
           "throughput_per_s: repair-campaign"),
    Metric("fuzz.check_source_calls", "count", "lower",
           "throughput_per_s: repair-campaign"),
    Metric("repair.gate_calls_per_case", "count", "lower",
           "throughput_per_s, latency_tail_ms: repair-campaign"),
    Metric("repair.attempts_per_case", "count", "lower",
           "throughput_per_s, latency_tail_ms: repair-campaign"),
    Metric("repair.validated_share", "share", "higher",
           "throughput_per_s, latency_tail_ms: repair-campaign"),
    Metric("repair.propose_s", "s", "lower",
           "throughput_per_s, latency_tail_ms: repair-campaign"),
    Metric("loadgen.late_p99_ms", "ms", "lower",
           "check on the run: how late the generator sent"),
    Metric("trace.unattributed_share", "share", "lower",
           "check on the run: wall time no layer covers"),
    Metric("trace.overhead_share", "share", "lower",
           "check on the run: traced time over untraced, minus one, "
           "summed over the measured units"),
)

#: Which aggregate of a span each time metric reads: "self" (duration
#: minus wrapped children) or "incl" (outermost spans, children and all).
_TIMES = {
    "pipeline.artifact_load_s": ("pipeline.artifact_load", "incl"),
    "embeddings.seed_train_s": ("embeddings.seed_table", "incl"),
    "embeddings.encode_s": ("embeddings.encode", "incl"),
    "frontend.compile_s": ("frontend.compile", "self"),
    "passes.run_s": ("passes.run", "self"),
    "ir.verify_s": ("ir.verify", "self"),
    "ir.print_s": ("ir.print", "self"),
    "graphs.build_s": ("graphs.build", "self"),
    "nn.batch_s": ("nn.batch", "self"),
    "nn.forward_s": ("nn.forward", "self"),
    "nn.backward_s": ("nn.backward", "self"),
    "models.predict_s": ("models.predict", "incl"),
    "ml.predict_s": ("ml.predict", "incl"),
    "engine.featurize_s": ("engine.featurize", "self"),
    "mpi.simulate_s": ("mpi.simulate", "self"),
    "verify.tools_s": ("verify.tools", "self"),
    "verify.static_s": ("verify.static", "self"),
    "fuzz.check_source_s": ("fuzz.check_source", "self"),
    "repair.propose_s": ("repair.propose", "self"),
}
_CALLS = {
    "embeddings.seed_train_calls": "embeddings.transe",
    "frontend.compile_calls": "frontend.compile",
    "mpi.simulate_calls": "mpi.simulate",
    "fuzz.check_source_calls": "fuzz.check_source",
}


def step_intervals(ends: list) -> list:
    """Seconds between consecutive training steps (optimizer-step ends);
    the first step, which also pays batch set-up, has no predecessor."""
    return [b - a for a, b in zip(ends, ends[1:])]


def per_layer(trace: Dict[str, Any], facts: Dict[str, Any],
              ) -> Dict[str, Dict[str, Any]]:
    """Every per-layer metric from one traced run.

    ``trace`` is :meth:`Recorder.dump` of the program's process;
    ``facts`` carries what the workload measured around it (counts from
    outputs, ``/metrics`` deltas, cache stats, generator lateness, the
    trace checks).  Each value comes back with its unit; a share also
    carries its base (``of``, with ``base_unit``)."""
    layers = trace["layers"]

    def agg(span: str, field: int) -> float:
        return float(layers.get(span, (0, 0.0, 0.0))[field])

    values: Dict[str, Dict[str, Any]] = {}
    for name, (span, kind) in _TIMES.items():
        values[name] = {"value": agg(span, 1 if kind == "incl" else 2)}
    for name, span in _CALLS.items():
        values[name] = {"value": agg(span, 0)}
    values["embeddings.encode_rows"] = {
        "value": float(trace["counts"].get("embeddings.encode", 0.0))}
    values["nn.optim_s"] = {"value": agg("nn.optim", 2)
                            + agg("nn.zero_grad", 2)}
    steps = step_intervals(trace["ends"].get(STEP_SPAN, []))
    values["models.step_ms_p50"] = {
        "value": percentile(steps, 50.0) * 1000.0 if steps else 0.0}
    calls = agg("engine.featurize", 0)
    values["engine.rows_per_call"] = {
        "value": (trace["counts"].get("engine.featurize", 0.0) / calls
                  if calls else 0.0)}

    def put_share(name: str, part: float, base: float, unit: str) -> None:
        ratio, part, base = share(part, base)
        values[name] = {"value": ratio, "of": base, "base_unit": unit,
                        "part": part}

    memo = facts.get("memo", {})
    put_share("frontend.memo_hit_share", memo.get("hits", 0),
              memo.get("hits", 0) + memo.get("misses", 0), "lookups")
    store = facts.get("store", {})
    put_share("engine.store_hit_share", store.get("hits", 0),
              store.get("hits", 0) + store.get("misses", 0), "lookups")
    serve = facts.get("serve", {})
    waits = trace.get("samples", {}).get("serve.batch", [])
    values["serve.queue_wait_ms_p50"] = {
        "value": percentile(waits, 50.0) * 1000.0 if waits else 0.0}
    values["serve.batch_size_mean"] = {
        "value": (serve["batched_samples"] / serve["batches"]
                  if serve.get("batches") else 0.0)}
    values["serve.batch_s"] = {"value": serve.get("exec_seconds", 0.0)}
    values["serve.rejected"] = {"value": float(serve.get("rejected", 0))}
    repair = facts.get("repair", {})
    cases = repair.get("cases", 0)
    values["repair.gate_calls_per_case"] = {
        "value": agg("repair.gate", 0) / cases if cases else 0.0}
    values["repair.attempts_per_case"] = {
        "value": repair.get("attempts", 0) / cases if cases else 0.0}
    put_share("repair.validated_share", repair.get("validated", 0),
              repair.get("attempts", 0), "attempts")
    values["loadgen.late_p99_ms"] = {
        "value": facts.get("late_p99_ms", 0.0)}
    covered = facts["coverage"]
    put_share("trace.unattributed_share", covered["wall_s"]
              - covered["covered_s"], covered["wall_s"],
              f"s of wall; unattributed: {covered['residue']}")
    values["trace.overhead_share"] = {
        "value": facts["overhead_share"], "of": facts["untraced_busy_s"],
        "part": facts["overhead_share"] * facts["untraced_busy_s"],
        "base_unit": "s of untraced unit time"}
    return {m.name: dict(values[m.name], unit=m.unit) for m in METRICS}
