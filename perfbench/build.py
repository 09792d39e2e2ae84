"""One-time preparation per checkout and code version.

check-batch and serve-mixed need a pre-built ir2vec + decision-tree
artifact.  The first run in a checkout trains it (tens of seconds) and
keeps it under ``perfbench/.work/<code digest>/``; later runs reuse it.
The directory is keyed by a digest of every file under ``src/`` plus the
Python and numpy versions, so a code change never meets a stale model.

The same step pickles the IR2vec encoder it trained.  The benchmark's
own correctness reference (verdicts computed in the benchmark's
process, never timed) loads it instead of retraining the seed table;
the program under test always builds its own.
"""

from __future__ import annotations

import hashlib
import json
import os
import pickle
import platform
import shutil
from typing import Any, Dict

from perfbench.inputs import source_digest
from perfbench.procs import ROOT

WORK = os.path.join(ROOT, "perfbench", ".work")

#: The artifact's training set: stratified subsamples of the default
#: suites.  Checked sources are regenerated under other suite seeds and
#: exclude these.
TRAIN_MBI, TRAIN_CORR = 360, 120


def code_digest() -> str:
    import numpy

    h = hashlib.sha256()
    src = os.path.join(ROOT, "src")
    for base, dirs, files in os.walk(src):
        dirs[:] = sorted(d for d in dirs if d != "__pycache__")
        for name in sorted(files):
            if name.endswith((".pyc", ".pyo")):
                continue
            path = os.path.join(base, name)
            h.update(os.path.relpath(path, src).encode() + b"\0")
            with open(path, "rb") as fh:
                h.update(fh.read() + b"\0")
    h.update(f"{platform.python_version()} {numpy.__version__}".encode())
    return h.hexdigest()[:16]


def _train(target: str) -> Dict[str, Any]:
    from repro.datasets import load_corrbench, load_mbi
    from repro.embeddings.ir2vec import default_encoder
    from repro.ml.genetic import GAConfig
    from repro.pipeline import DetectionPipeline

    train = load_mbi(subsample=TRAIN_MBI).merged_with(
        load_corrbench(subsample=TRAIN_CORR), name="bench-train")
    pipeline = DetectionPipeline.from_method(
        "ir2vec", ga_config=GAConfig(population_size=40, generations=3))
    pipeline.fit(train)
    pipeline.save(os.path.join(target, "model.rpd"))
    with open(os.path.join(target, "encoder.pkl"), "wb") as fh:
        pickle.dump(default_encoder(pipeline.featurizer.seed), fh)
    # Never check a source the classifier or the seed table saw.
    seen = [s.source for s in train.samples]
    seen += [s.source for s in load_mbi().samples[::9][:160]]
    return {"exclude": sorted({source_digest(s) for s in seen}),
            "encoder_seed": pipeline.featurizer.seed}


def ensure_built() -> Dict[str, Any]:
    """The build record for the current code, building it if absent."""
    key = code_digest()
    target = os.path.join(WORK, key)
    record_path = os.path.join(target, "built.json")
    if not os.path.exists(record_path):
        staging = target + ".partial"
        shutil.rmtree(staging, ignore_errors=True)
        os.makedirs(staging)
        record = _train(staging)
        record["key"] = key
        with open(os.path.join(staging, "built.json"), "w") as fh:
            json.dump(record, fh)
        shutil.rmtree(target, ignore_errors=True)
        os.replace(staging, target)
    with open(record_path) as fh:
        record = json.load(fh)
    record["dir"] = target
    record["model"] = os.path.join(target, "model.rpd")
    return record


def reference_pipeline(build: Dict[str, Any]):
    """The artifact loaded in the benchmark's process, for verdicts to
    compare the program's outputs with."""
    from repro.pipeline import DetectionPipeline

    install_reference_encoder(build)
    return DetectionPipeline.load(build["model"])


def install_reference_encoder(build: Dict[str, Any]) -> None:
    """Seed this process's encoder cache with the pickled encoder, when
    the program still keeps one (a later version may not need it)."""
    import repro.embeddings.ir2vec as ir2vec

    cache = getattr(ir2vec, "_DEFAULT_ENCODERS", None)
    if not isinstance(cache, dict):
        return
    with open(os.path.join(build["dir"], "encoder.pkl"), "rb") as fh:
        encoder = pickle.load(fh)
    cache.setdefault(build["encoder_seed"], encoder)
