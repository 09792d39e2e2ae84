"""The program's side of a benchmark run: one fresh process per run.

Usage (started by ``perfbench/run.py``, never by hand)::

    python3 perfbench/child.py WORKLOAD --inputs F --out F --launch T
        [--model DIR] [--trace 0|1] [--setup-only]

It imports the program from ``src/``, installs the span wrappers when
``--trace 1``, does the workload's fixed work on the inputs file and
writes its outputs and timestamps (wall clock, comparable with the
parent's) to ``--out``.  It then prints ``DONE`` and waits for stdin to
close, so the parent can read its peak resident set before it exits.
The serve workload instead runs the server until SIGINT.
"""

from __future__ import annotations

import time

T_MAIN = time.time()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import sys  # noqa: E402
from typing import Any, Dict, Optional  # noqa: E402

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(
    __file__))))

from perfbench import hostspeed, layers, spans, stats  # noqa: E402

#: The modules whose import is the program's start-up cost, per workload.
_IMPORTS = {
    "check-batch": ("repro.pipeline",),
    "serve-mixed": ("repro.serve", "repro.verify.static.analyzer"),
    "gnn-train": ("repro.pipeline", "repro.models.gnn_model"),
    "repair-campaign": ("repro.repair", "repro.fuzz.harness"),
}


def _memo_stats() -> Dict[str, int]:
    from repro.pipeline import compile_cache_stats

    stats = compile_cache_stats()
    return {"hits": stats.hits, "misses": stats.misses}


def _store_stats() -> Dict[str, int]:
    from repro.engine import default_engine

    store = default_engine().stats_dict().get("store") or {}
    return {"hits": sum(s.get("hits", 0) for s in store.values()),
            "misses": sum(s.get("misses", 0) for s in store.values())}


def _timed_units(items, work) -> Dict[str, Any]:
    """``work(item)`` for each item, one at a time.  The first call ends
    set-up; the rest are timed one by one.  The host-speed loop runs at
    the start of every part of them (``stats.chunk_bounds``) and after
    the last."""
    outputs, latencies, speed = [], [], []
    checkpoints = set(stats.chunk_bounds(len(items) - 1)[:-1])
    setup_done = None
    for index, item in enumerate(items):
        if index - 1 in checkpoints:
            speed.append(hostspeed.loop_seconds())
        started = time.time()
        outputs.append(work(item))
        finished = time.time()
        if setup_done is None:
            setup_done = finished
        else:
            latencies.append(finished - started)
    work_end = time.time()
    speed.append(hostspeed.loop_seconds())
    return {"setup_done": setup_done, "work_end": work_end,
            "latencies": latencies, "outputs": outputs, "speed": speed}


def run_check(program: Dict[str, Any], args) -> Dict[str, Any]:
    """Check each source on its own, as a one-shot ``repro check``."""
    from repro.pipeline import DetectionPipeline

    pipeline = DetectionPipeline.load(args.model)
    result = _timed_units(
        program["sources"],
        lambda item: pipeline.predict_batch([tuple(item)])[0].label)
    result["facts"] = {"memo": _memo_stats(), "store": _store_stats()}
    return result


def run_gnn(program: Dict[str, Any], args) -> Dict[str, Any]:
    """Build graphs (set-up), then fit for fixed epochs and predict."""
    from repro.pipeline import DetectionPipeline

    pipeline = DetectionPipeline.from_method(
        "gnn", epochs=program["epochs"], lr=3e-3)
    engine = pipeline.engine
    train = engine.featurize_sources(
        pipeline.frontend, pipeline.featurizer,
        [(name, source) for name, source, _label in program["train"]])
    test = engine.featurize_sources(
        pipeline.frontend, pipeline.featurizer,
        [tuple(item) for item in program["test"]])
    setup_done = time.time()
    if args.setup_only:
        return {"setup_done": setup_done, "work_end": setup_done}
    before = hostspeed.loop_seconds()
    fit_start = time.time()
    pipeline.classifier.fit(train, [label for *_x, label
                                    in program["train"]])
    fit_end = time.time()
    predicted = [str(label) for label in pipeline.classifier.predict(test)]
    work_end = time.time()
    return {"setup_done": setup_done, "fit_start": fit_start,
            "fit_end": fit_end, "work_end": work_end, "outputs": predicted,
            "speed": [before, hostspeed.loop_seconds()]}


def run_repair(program: Dict[str, Any], args) -> Dict[str, Any]:
    """Repair case by case through ``repair_tasks`` (serial engine)."""
    from repro.repair import RepairConfig, RepairTask, repair_tasks

    config = RepairConfig()

    def repair(task: Dict[str, Any]) -> Dict[str, Any]:
        entry = repair_tasks([RepairTask(**task)], config)[0]
        after = entry.get("after") or {}
        return {"outcome": entry["outcome"], "attempts": entry["attempts"],
                "patched": bool(entry["patch"]),
                "after_clean": bool(after.get("clean")),
                "repaired_source": entry["repaired_source"]}

    return _timed_units(program["tasks"], repair)


def run_serve(_program: Dict[str, Any], args) -> Dict[str, Any]:
    """The default server on an ephemeral port, until SIGINT."""
    from repro.serve import ServeConfig, serve

    serve(args.model, ServeConfig(port=0))
    return {"facts": {"memo": _memo_stats(), "store": _store_stats()}}


RUNNERS = {
    "check-batch": run_check,
    "serve-mixed": run_serve,
    "gnn-train": run_gnn,
    "repair-campaign": run_repair,
}


def _write(path: str, doc: Dict[str, Any]) -> None:
    tmp = path + ".tmp"
    with open(tmp, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)
    os.replace(tmp, path)


def main(argv: Optional[list] = None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("workload", choices=sorted(RUNNERS))
    parser.add_argument("--inputs", required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--launch", type=float, required=True)
    parser.add_argument("--model")
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    import importlib

    import_start = time.time()
    for module in _IMPORTS[args.workload]:
        importlib.import_module(module)
    import_end = time.time()

    recorder = spans.Recorder(clock=time.time,
                              keep_ends=(layers.STEP_SPAN,))
    if args.trace:
        # install() imports each wrapped module and rebinds the names
        # other loaded modules imported from it.
        install_start = time.time()
        missing = spans.install(recorder, layers.SPANS)
        recorder.add_interval("bench.install_spans", install_start,
                              time.time())
        recorder.add_interval("python.startup", args.launch, T_MAIN)
        recorder.add_interval("python.import", import_start, import_end)
    else:
        missing = []
        if args.workload == "gnn-train":
            # The training-step clock behind gnn-train's latency: one
            # timestamp per optimizer step, traced or not.
            spans.install(recorder, [s for s in layers.SPANS
                                     if s.span == layers.STEP_SPAN])

    read_start = time.time()
    with open(args.inputs, "r", encoding="utf-8") as fh:
        program = json.load(fh)
    if args.trace:
        recorder.add_interval("bench.read_inputs", read_start, time.time())

    result = RUNNERS[args.workload](program, args)
    trace = recorder.dump()
    trace["missing"] = missing
    result.update(t_main=T_MAIN, import_end=import_end, trace=trace)
    _write(args.out, result)
    if args.workload != "serve-mixed":
        print("DONE", flush=True)
        sys.stdin.read()
    return 0


if __name__ == "__main__":
    sys.exit(main())
