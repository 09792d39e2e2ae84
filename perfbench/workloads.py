"""The four workloads: run the program on generated inputs, check its
outputs, and turn what was measured into metrics.

Every workload returns an :class:`Outcome`.  End-to-end figures come from
untraced runs; a traced run (``trace=True``) also carries the program's
span dump and the facts the per-layer metrics need.
"""

from __future__ import annotations

import json
import os
import random
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from perfbench import hostspeed, inputs as gen
from perfbench.layers import step_intervals
from perfbench.loadgen import run_schedule
from perfbench.procs import Child
from perfbench.spans import union_length
from perfbench.stats import at_reference_speed, chunk_rates

#: Per-run limit for any one program process (the harness allows 180 s
#: per benchmark run, the first run of a checkout excepted).
CHILD_TIMEOUT = 150.0
#: Sources whose in-process reference verdict check-batch compares.
SPOT_CHECKS = 64
#: Repaired sources repair-campaign re-gates in the benchmark's process.
REGATE = 8


@dataclass
class Outcome:
    setup_s: List[float]
    units: int                     # completed after set-up
    work_s: float                  # wall time of those units
    rates: List[float]             # units/s of each part of that work
    latencies_s: List[float]
    attempted: int
    failed: int
    accuracy: float
    accuracy_base: int
    peak_rss_mb: float
    launch: float                  # wall clock at program launch
    wall_s: float                  # program launch → end of its work
    outputs: Any                   # what must repeat exactly per seed
    problems: List[str] = field(default_factory=list)
    trace: Optional[Dict[str, Any]] = None
    facts: Dict[str, Any] = field(default_factory=dict)
    late_s: List[float] = field(default_factory=list)
    #: host-speed loop times around the measured units (see hostspeed)
    speed_s: List[float] = field(default_factory=list)
    #: measured unit times, when ``latencies_s`` holds them rescaled to
    #: the reference host speed
    raw_latencies_s: Optional[List[float]] = None


def _scaled(latencies: List[float], speed: List[float]) -> Dict[str, Any]:
    """Outcome fields for unit times reported at the reference speed."""
    scaled = at_reference_speed(latencies, speed, hostspeed.REFERENCE_S)
    return {"latencies_s": scaled, "rates": chunk_rates(scaled),
            "raw_latencies_s": latencies, "speed_s": speed}


class Context:
    """Paths and prepared state for one benchmark run."""

    def __init__(self, workload: str, seed: int, seconds: int,
                 build: Dict[str, Any], run_dir: str, trace: bool = False):
        self.workload, self.seed, self.seconds = workload, seed, seconds
        #: A traced run reports per-layer metrics only, so it skips the
        #: extra set-up repeats that serve the end-to-end ``setup_s``.
        self.traced_run = trace
        self.build = build
        self.run_dir = run_dir
        self.program, self.answers = gen.GENERATORS[workload](
            seed, seconds, set(build["exclude"]))
        self.inputs_path = os.path.join(run_dir, "inputs.json")
        with open(self.inputs_path, "wb") as fh:
            fh.write(gen.canonical(self.program))
        self.inputs_digest = gen.digest([self.program, self.answers])[:16]
        self._reference = None
        self._children = 0

    def child(self, trace: bool, **kwargs) -> Child:
        self._children += 1
        tag = f"{self._children}-{'traced' if trace else 'plain'}"
        return Child(self.workload, self.inputs_path,
                     os.path.join(self.run_dir, f"out-{tag}.json"),
                     os.path.join(self.run_dir, f"program-{tag}.log"),
                     model=self.build["model"], trace=trace, **kwargs)

    def reference(self):
        if self._reference is None:
            from perfbench.build import reference_pipeline

            self._reference = reference_pipeline(self.build)
        return self._reference


def _finish_child(ctx: Context, trace: bool, **kwargs) -> Dict[str, Any]:
    child = ctx.child(trace, **kwargs)
    try:
        out = child.finish(CHILD_TIMEOUT)
    finally:
        child.kill()
    out["launch"] = child.launch
    return out


# ---------------------------------------------------------------------------
# check-batch
# ---------------------------------------------------------------------------

def check_batch(ctx: Context, trace: bool) -> Outcome:
    out = _finish_child(ctx, trace)
    verdicts, labels = out["outputs"], ctx.answers["labels"]
    problems = []
    if len(verdicts) != len(labels):
        problems.append(f"{len(verdicts)} verdicts for {len(labels)} "
                        "sources")
    sources = ctx.program["sources"]
    picks = sorted(random.Random(ctx.seed).sample(
        range(len(sources)), min(SPOT_CHECKS, len(sources))))
    expected = ctx.reference().predict_batch(
        [tuple(sources[i]) for i in picks])
    mismatched = [i for i, ref in zip(picks, expected)
                  if i >= len(verdicts) or verdicts[i] != ref.label]
    if mismatched:
        problems.append(f"{len(mismatched)} of {len(picks)} spot-checked "
                        "verdicts differ from the in-process reference")
    right = sum(v == l for v, l in zip(verdicts, labels))
    latencies = out["latencies"]
    return Outcome(
        setup_s=[out["setup_done"] - out["launch"]],
        units=len(latencies), work_s=out["work_end"] - out["setup_done"],
        attempted=len(labels),
        failed=len(labels) - len(verdicts) + len(mismatched),
        accuracy=right / len(labels), accuracy_base=len(labels),
        peak_rss_mb=out["peak_rss_mb"], launch=out["launch"],
        wall_s=out["work_end"] - out["launch"], outputs=verdicts,
        problems=problems, trace=out["trace"] if trace else None,
        facts=out.get("facts", {}), **_scaled(latencies, out["speed"]))


# ---------------------------------------------------------------------------
# gnn-train
# ---------------------------------------------------------------------------

#: Fresh processes gnn-train starts only to time its set-up (graph
#: building is cheap enough to repeat; the median is reported).
GNN_SETUP_REPEATS = 2


def gnn_train(ctx: Context, trace: bool) -> Outcome:
    setups, rss = [], []
    for _ in range(0 if ctx.traced_run else GNN_SETUP_REPEATS):
        probe = _finish_child(ctx, False, setup_only=True)
        setups.append(probe["setup_done"] - probe["launch"])
        rss.append(probe["peak_rss_mb"])
    out = _finish_child(ctx, trace)
    setups.append(out["setup_done"] - out["launch"])
    predicted, labels = out["outputs"], ctx.answers["labels"]
    problems = []
    if len(predicted) != len(labels):
        problems.append(f"{len(predicted)} predictions for {len(labels)} "
                        "held-out graphs")
    valid = {label for *_x, label in ctx.program["train"]}
    if any(p not in valid for p in predicted):
        problems.append("a prediction is not a training label")
    ends = out["trace"]["ends"].get("nn.optim", [])
    epochs = ctx.program["epochs"]
    per_epoch = len(ends) // epochs
    if per_epoch * epochs != len(ends):
        problems.append(f"{len(ends)} training steps over {epochs} epochs")
    # Epoch k ends with its last optimizer step; epoch 0 starts with the
    # fit (it also pays for batch set-up).
    marks = [out["fit_start"]] + ends[per_epoch - 1::per_epoch]
    n_train = len(ctx.program["train"])
    right = sum(p == l for p, l in zip(predicted, labels))
    return Outcome(
        setup_s=setups, units=epochs * n_train,
        work_s=out["fit_end"] - out["fit_start"],
        rates=[n_train / (b - a) for a, b in zip(marks, marks[1:])],
        latencies_s=step_intervals(ends),
        attempted=len(labels), failed=abs(len(labels) - len(predicted)),
        accuracy=right / len(labels), accuracy_base=len(labels),
        peak_rss_mb=max(rss + [out["peak_rss_mb"]]), launch=out["launch"],
        wall_s=out["work_end"] - out["launch"], outputs=predicted,
        problems=problems, trace=out["trace"] if trace else None,
        facts=out.get("facts", {}), speed_s=out["speed"])


# ---------------------------------------------------------------------------
# repair-campaign
# ---------------------------------------------------------------------------

def repair_campaign(ctx: Context, trace: bool) -> Outcome:
    out = _finish_child(ctx, trace)
    entries, mutant = out["outputs"], ctx.answers["mutant"]
    problems, bad = [], set()
    if len(entries) != len(mutant):
        problems.append(f"{len(entries)} results for {len(mutant)} cases")
    right = 0
    for i, (entry, is_mutant) in enumerate(zip(entries, mutant)):
        repaired = entry["outcome"] == "repaired"
        if repaired != (entry["patched"] and entry["after_clean"]):
            bad.add(i)           # a patch must come with a clean re-gate
        if not is_mutant and entry["patched"]:
            bad.add(i)           # controls must stay untouched
        right += (repaired if is_mutant
                  else entry["outcome"] == "already_clean")
    repaired_ix = [i for i, e in enumerate(entries)
                   if e["outcome"] == "repaired"]
    if repaired_ix:
        from perfbench.build import install_reference_encoder
        from repro.repair.gate import run_gate

        install_reference_encoder(ctx.build)
        for i in random.Random(ctx.seed).sample(
                repaired_ix, min(REGATE, len(repaired_ix))):
            task = ctx.program["tasks"][i]
            if not run_gate(task["name"], entries[i]["repaired_source"]).clean:
                bad.add(i)
    if bad:
        problems.append(f"{len(bad)} repair results fail validation")
    attempts = sum(e["attempts"] for e in entries)
    return Outcome(
        setup_s=[out["setup_done"] - out["launch"]],
        units=len(out["latencies"]),
        work_s=out["work_end"] - out["setup_done"], attempted=len(mutant),
        failed=len(bad) + abs(len(mutant) - len(entries)),
        accuracy=right / len(mutant), accuracy_base=len(mutant),
        peak_rss_mb=out["peak_rss_mb"], launch=out["launch"],
        wall_s=out["work_end"] - out["launch"],
        outputs=[[e["outcome"], e["attempts"]] for e in entries],
        problems=problems, trace=out["trace"] if trace else None,
        facts={"repair": {"cases": len(entries), "attempts": attempts,
                          "validated": len(repaired_ix)}},
        **_scaled(out["latencies"], out["speed"]))


# ---------------------------------------------------------------------------
# serve-mixed
# ---------------------------------------------------------------------------

#: Keep-alive connections the generator opens (at most ``nproc``).
CONNECTIONS = 2


def _get_json(port: int, path: str) -> Dict[str, Any]:
    import http.client

    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=30)
    try:
        conn.request("GET", path)
        return json.loads(conn.getresponse().read())
    finally:
        conn.close()


def _post_json(port: int, path: str, payload: Dict[str, Any],
               timeout: float) -> int:
    import http.client

    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=timeout)
    try:
        conn.request("POST", path, json.dumps(payload),
                     {"Content-Type": "application/json"})
        response = conn.getresponse()
        response.read()
        return response.status
    finally:
        conn.close()


def _batcher_delta(before: Dict[str, Any], after: Dict[str, Any]
                   ) -> Dict[str, Any]:
    b, a = before["batcher"], after["batcher"]
    statuses = after["requests_by_status"]
    return {"batches": a["batches"] - b["batches"],
            "batched_samples": a["batched_samples"] - b["batched_samples"],
            "exec_seconds": a["exec_seconds"] - b["exec_seconds"],
            "rejected": (a["rejected"] - b["rejected"]
                         + statuses.get("429", 0)
                         - before["requests_by_status"].get("429", 0))}


def _served_verdicts(ctx: Context, requests: List[Dict[str, Any]]
                     ) -> Dict[tuple, str]:
    """In-process verdict for every distinct served (name, source):
    ``predict_batch`` labels for checks, analyzer verdicts for analyze."""
    from repro.verify.static.analyzer import analyze_source

    checks, analyses = {}, {}
    for request in requests:
        for name, source, _label in request["sources"]:
            bucket = analyses if request["kind"] == "analyze" else checks
            bucket[(name, source)] = None
    keys = list(checks)
    labels = ctx.reference().predict_batch(keys)
    out = {("check",) + k: r.label for k, r in zip(keys, labels)}
    for name, source in analyses:
        out[("analyze", name, source)] = analyze_source(source, name, 3)[0]
    return out


def _judge(request: Dict[str, Any], result: Dict[str, Any],
           reference: Dict[tuple, str]) -> tuple:
    """(matches the reference, labels right, served verdicts) for one
    request; anything but a 200 carrying one verdict per source fails."""
    if result.get("status") != 200:
        return False, 0, None
    try:
        served = json.loads(result["body"])["results"]
    except (ValueError, KeyError):
        return False, 0, None
    if len(served) != len(request["sources"]):
        return False, 0, None
    analyze = request["kind"] == "analyze"
    verdicts = [item.get("verdict" if analyze else "label")
                for item in served]
    ok, right = True, 0
    for verdict, (name, source, label) in zip(verdicts,
                                              request["sources"]):
        kind = "analyze" if analyze else "check"
        ok &= verdict == reference[(kind, name, source)]
        right += verdict == (label.lower() if analyze else label)
    return ok, right, verdicts


def serve_mixed(ctx: Context, trace: bool) -> Outcome:
    child = ctx.child(trace)
    try:
        line = child.expect("serving", CHILD_TIMEOUT)
        port = int(line.rsplit(":", 1)[1])
        name, source = ctx.answers["probe"]
        status = _post_json(port, "/v1/check",
                            {"name": name, "source": source}, CHILD_TIMEOUT)
        setup_done = time.time()
        if status != 200:
            raise RuntimeError(f"set-up probe answered {status}")
        before = _get_json(port, "/metrics")
        requests = ctx.answers["requests"]
        speed = [hostspeed.loop_seconds()]
        results = run_schedule("127.0.0.1", port, requests,
                               min(CONNECTIONS, os.cpu_count() or 1))
        speed.append(hostspeed.loop_seconds())
        after = _get_json(port, "/metrics")
        rss = child.peak_rss_mb()
        out = child.interrupt()
    finally:
        child.kill()
    with open(os.path.join(ctx.run_dir, "responses.json"), "w") as fh:
        json.dump(results, fh)
    reference = _served_verdicts(ctx, requests)
    failed = right = slots = 0
    outputs, mismatched = [], []
    for request, result in zip(requests, results):
        ok, hits, verdicts = _judge(request, result, reference)
        failed += not ok
        if verdicts is not None and not ok:
            mismatched.append(f"{request['id']} ({request['kind']})")
        right += hits
        slots += len(request["sources"])
        outputs.append([result["status"], verdicts])
    problems = []
    if mismatched:
        problems.append(f"{len(mismatched)} served responses differ from "
                        f"the in-process reference: {mismatched[:5]}")
    first_due = min(r["due"] for r in results)
    last_done = max(r["done"] for r in results)
    facts = {"serve": _batcher_delta(before, after), **out.get("facts", {})}
    if trace:
        facts["request_coverage"] = _request_coverage(
            requests, results, out["trace"]["detached"].get("serve.handle",
                                                            {}))
    return Outcome(
        setup_s=[setup_done - child.launch],
        units=len(requests) - failed, work_s=last_done - first_due,
        rates=[(len(requests) - failed) / (last_done - first_due)],
        latencies_s=[r["done"] - r["due"] for r in results],
        attempted=len(requests), failed=failed,
        accuracy=right / slots, accuracy_base=slots, peak_rss_mb=rss,
        launch=child.launch, wall_s=last_done - child.launch,
        outputs=outputs, problems=problems,
        trace=out["trace"] if trace else None, facts=facts,
        late_s=[r["sent"] - r["due"] for r in results], speed_s=speed)


def _request_coverage(requests, results, handles) -> Dict[str, float]:
    """Per request: time from due to done, and the part that generator
    lateness plus the server's request handler cover.  The rest is HTTP
    parsing and writing, loopback and the client."""
    wall = covered = 0.0
    for request, result in zip(requests, results):
        total = result["done"] - result["due"]
        span = handles.get(request["id"])
        inside = result["sent"] - result["due"]
        if span is not None:
            inside += span[1] - span[0]
        wall += total
        covered += min(inside, total)
    return {"wall_s": wall, "covered_s": covered,
            "residue": "HTTP parsing and writing, loopback, client"}


WORKLOADS = {
    "check-batch": check_batch,
    "serve-mixed": serve_mixed,
    "gnn-train": gnn_train,
    "repair-campaign": repair_campaign,
}


def coverage(workload: str, outcome: Outcome) -> Dict[str, float]:
    """Wall time and the part of it some top-level span covers: over
    the program's life up to the end of its work, or per request for
    serve-mixed."""
    if workload == "serve-mixed":
        return outcome.facts["request_coverage"]
    start, end = outcome.launch, outcome.launch + outcome.wall_s
    inside = [(max(a, start), min(b, end)) for a, b in outcome.trace["top"]
              if min(b, end) > max(a, start)]
    return {"wall_s": outcome.wall_s, "covered_s": union_length(inside),
            "residue": "the benchmark's loop between calls"}
