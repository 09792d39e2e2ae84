"""Per-stage profile of the cold pipeline path.

The cold path is a chain — preprocess/parse/codegen ("compile"), IR
verification ("verify"), the optimization pipeline ("passes"), program
graph construction ("graph"), IR2vec seed-table training for a seed
without a pinned table ("seed_embed"), IR2vec encoding ("embed") and model fit/predict
("classify") — and optimization work on it is only honest when every
claim is backed by a per-stage number.  The stage sites time themselves
with :meth:`repro.obs.trace.Tracer.stage`, the one stage-timing
primitive; this module owns the stage vocabulary and the
``PERF_profile.json`` document built from those spans:

* :func:`collect_profile` opens a root trace, collects every span of
  the run into the tracer's uncapped buffer (pool workers ship theirs
  home with each chunk), and folds the ``stage`` spans into
  **exclusive** (self) seconds and entry counts per stage: a span's
  elapsed time minus that of its stage children.  The per-stage totals
  of one run are therefore disjoint and sum to ≈ the instrumented wall
  clock on a serial engine; with workers they are summed CPU seconds
  across processes and may exceed wall.
* ``repro profile <dataset>`` is its CLI face.
"""

from __future__ import annotations

from time import perf_counter
from typing import Any, Dict, List, Optional, Tuple

#: Canonical stage names, in pipeline order.  Instrumentation sites may
#: only use names from this tuple so profiles stay comparable across
#: runs and versions.
STAGES = ("compile", "verify", "passes", "graph", "seed_embed", "embed",
          "classify")

SCHEMA_VERSION = 1


# ---------------------------------------------------------------------------
# The PERF_profile.json artifact
# ---------------------------------------------------------------------------

#: Envelope kind name; the schema itself lives in the unified envelope
#: registry (:mod:`repro.schema.kinds`) — imported lazily below so that
#: importing repro.perf stays dependency-light (every instrumentation
#: site imports it).
PROFILE_KIND = "repro-perf-profile"


def validate_profile(doc: Any) -> None:
    """Raise :class:`repro.schema.SchemaError` on a malformed profile
    document (envelope or flat form), and on stage names outside
    :data:`STAGES`."""
    from repro.schema import validate_kind

    validate_kind(PROFILE_KIND, doc)


def save_profile(doc: Dict[str, Any], path: str) -> None:
    """Validate and write ``doc`` in envelope form."""
    from repro.schema import save_envelope

    save_envelope(doc, path, kind=PROFILE_KIND)


def load_profile(path: str) -> Dict[str, Any]:
    import json

    from repro.schema import validate_kind

    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    return validate_kind(PROFILE_KIND, doc)


# ---------------------------------------------------------------------------
# Profile driver (the guts of `repro profile <dataset>`)
# ---------------------------------------------------------------------------

def collect_profile(dataset_name: str, samples: List[Any],
                    method: str = "ir2vec", opt_level: str = "Os",
                    engine: Optional[Any] = None,
                    classify: bool = True) -> Dict[str, Any]:
    """Run the cold pipeline over ``samples`` inside one collected trace
    and return the profile document (not yet written to disk).

    One-time per-process warmup (resolving the IR2vec seed table: a
    file load for the pinned seed, training for any other) is
    handled outside the timed window, and the default engine is a fresh
    one, so the numbers reflect steady-state cold throughput: every
    sample is compiled, optimized, and embedded from scratch.  A caller
    passing its own ``engine`` owns its cache state.  With a serial
    engine the per-stage totals are disjoint slices of the instrumented
    wall clock (``coverage`` ≈ 1); with workers they are summed CPU
    seconds across processes and may exceed wall.
    """
    from repro.engine import ExecutionEngine
    from repro.obs.trace import TRACER, new_id
    from repro.pipeline.stages import (
        CFrontend,
        CFrontendConfig,
        DecisionTreeStage,
        DecisionTreeStageConfig,
        IR2VecFeaturizer,
        ProGraMLFeaturizer,
    )

    eng = engine if engine is not None else ExecutionEngine()
    frontend = CFrontend(CFrontendConfig(opt_level=opt_level, verify=True))
    if method == "gnn":
        featurizer: Any = ProGraMLFeaturizer(opt_level=opt_level)
    else:
        featurizer = IR2VecFeaturizer(opt_level=opt_level)
        featurizer.warmup()          # per-process cost, not throughput
    labels = [getattr(s, "label", "unknown") for s in samples]

    with TRACER.collect(((new_id(), new_id()),)) as spans:
        start = perf_counter()
        features = eng.featurize_samples(frontend, featurizer, samples)
        notes = ""
        if classify and method != "gnn" and len(set(labels)) > 1:
            stage = DecisionTreeStage(DecisionTreeStageConfig(use_ga=False))
            stage.fit(features, labels)
            stage.predict(features)
        elif method == "gnn":
            notes = ("classify stage skipped: GNN training cost is not a "
                     "per-sample cold cost")
        wall = perf_counter() - start

    self_sec, stage_counts = fold_stages(spans)
    stage_sec = {k: round(v, 6) for k, v in self_sec.items()}
    total = sum(self_sec.values())
    doc: Dict[str, Any] = {
        "kind": "repro-perf-profile",
        "schema_version": SCHEMA_VERSION,
        "dataset": dataset_name,
        "samples": len(samples),
        "method": method,
        "opt_level": opt_level,
        "workers": eng.workers,
        "wall_sec": round(wall, 6),
        "samples_per_sec": round(len(samples) / wall, 2) if wall else 0.0,
        "stage_sec": stage_sec,
        "stage_counts": stage_counts,
        "stage_total_sec": round(total, 6),
        "coverage": round(total / wall, 4) if wall else 0.0,
        "engine_counters": {k: int(v) for k, v in eng.counters.items()},
    }
    if notes:
        doc["notes"] = notes
    return doc


def fold_stages(spans: List[Dict[str, Any]],
                ) -> Tuple[Dict[str, float], Dict[str, int]]:
    """Exclusive seconds and entry counts per stage from the ``stage``
    spans of one trace: each span's elapsed time minus that of its
    stage children, so nested stages never count twice."""
    stages = [s for s in spans if s["kind"] == "stage"]
    child_sec: Dict[str, float] = {}
    for span in stages:
        child_sec[span["parent_id"]] = \
            child_sec.get(span["parent_id"], 0.0) + span["elapsed_s"]
    self_sec: Dict[str, float] = {}
    counts: Dict[str, int] = {}
    for span in stages:
        name = span["name"][len("stage."):]
        self_sec[name] = self_sec.get(name, 0.0) + max(
            0.0, span["elapsed_s"] - child_sec.get(span["span_id"], 0.0))
        counts[name] = counts.get(name, 0) + 1
    return self_sec, counts
