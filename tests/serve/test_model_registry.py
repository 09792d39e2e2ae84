"""ModelRegistry: validated loads, atomic swaps, mtime polling."""

import hashlib
import json
import os
import time

import pytest

from repro.engine import EngineConfig, ExecutionEngine
from repro.pipeline import ArtifactError, inspect_artifact
from repro.schema import payload_digest
from repro.serve import ModelRegistry, artifact_mtime


def test_load_attaches_shared_engine(artifact_v1):
    engine = ExecutionEngine(EngineConfig(workers=0))
    registry = ModelRegistry(artifact_v1, engine=engine)
    model = registry.load()
    assert model.generation == 1
    assert model.pipeline.engine is engine
    assert model.version == inspect_artifact(artifact_v1)["version"]
    result = model.pipeline.predict_batch(
        [("x.c", "#include <mpi.h>\nint main(int argc, char** argv) "
                 "{ MPI_Init(&argc, &argv); MPI_Finalize(); return 0; }")])
    assert result[0].label in ("Correct", "Incorrect")


def test_current_before_load_raises(artifact_v1):
    registry = ModelRegistry(artifact_v1)
    with pytest.raises(RuntimeError, match="no model loaded"):
        registry.current


def test_reload_swaps_version_and_generation(artifact_v1, artifact_v2):
    registry = ModelRegistry(artifact_v1)
    first = registry.load()
    second = registry.load(artifact_v2)
    assert second.generation == 2
    assert second.version != first.version
    assert registry.current is second
    assert registry.path == artifact_v2
    # The old LoadedModel is untouched — in-flight work can finish on it.
    assert first.pipeline.fitted


def test_bad_artifact_rejected_without_touching_current(tmp_path,
                                                        artifact_v1):
    registry = ModelRegistry(artifact_v1)
    served = registry.load()
    bogus = tmp_path / "bogus.rpd"
    bogus.mkdir()
    (bogus / "manifest.json").write_text("{not json")
    with pytest.raises(ArtifactError):
        registry.load(str(bogus))
    assert registry.current is served          # still serving v1
    assert registry.reload_errors == 1
    assert registry.generation == 1


def test_unfitted_artifact_rejected(tmp_path):
    from repro.pipeline import DetectionPipeline

    path = str(tmp_path / "unfitted.rpd")
    DetectionPipeline.from_method("ir2vec").save(path)
    registry = ModelRegistry(path)
    with pytest.raises(ArtifactError, match="unfitted"):
        registry.load()


def test_poll_reloads_only_on_mtime_change(tmp_path, artifact_v1):
    import shutil

    path = str(tmp_path / "polled.rpd")
    shutil.copytree(artifact_v1, path)
    registry = ModelRegistry(path)
    registry.load()
    assert registry.poll() is False            # nothing changed
    assert registry.generation == 1
    # Touch a member file forward: directory artifacts change blob-wise.
    manifest = os.path.join(path, "manifest.json")
    future = time.time() + 10
    os.utime(manifest, (future, future))
    assert registry.poll() is True
    assert registry.generation == 2
    assert registry.poll() is False            # steady state again


def test_poll_survives_a_corrupt_rewrite(tmp_path, artifact_v1):
    import shutil

    path = str(tmp_path / "served.rpd")
    shutil.copytree(artifact_v1, path)
    registry = ModelRegistry(path)
    served = registry.load()
    # A retrain-in-progress clobbers the manifest mid-write ...
    manifest = os.path.join(path, "manifest.json")
    with open(manifest, "w") as fh:
        fh.write('{"format": "repro.detection-pipeline", "schema')
    future = time.time() + 10
    os.utime(manifest, (future, future))
    # ... the poller declines to swap and the old model keeps serving.
    assert registry.poll() is False
    assert registry.current is served
    assert registry.reload_errors == 1


def test_artifact_mtime_of_missing_path_is_zero(tmp_path):
    assert artifact_mtime(str(tmp_path / "nope")) == 0.0


def test_loader_injection_wraps_pipeline(artifact_v1):
    """The loader hook exists so tests can decorate real pipelines."""
    seen = {}

    def loader(path):
        from repro.pipeline import load_pipeline

        seen["path"] = path
        return load_pipeline(path)

    registry = ModelRegistry(artifact_v1, loader=loader)
    model = registry.load()
    assert seen["path"] == artifact_v1
    assert model.pipeline.fitted


def test_unpicklable_blob_becomes_artifact_error(tmp_path, artifact_v1):
    """A blob that hashes fine but fails to deserialize (retrain
    mid-write) must surface as ArtifactError, not a raw pickle crash —
    poll() and /v1/reload only handle the former."""
    import shutil

    path = str(tmp_path / "truncated.rpd")
    shutil.copytree(artifact_v1, path)
    registry = ModelRegistry(path)
    served = registry.load()
    blob = os.path.join(path, "classifier.bin")
    garbage = b"\x80\x05garbage-not-a-pickle"
    with open(blob, "wb") as fh:
        fh.write(garbage)
    # The manifest records the new blob's digest, so the blob passes the
    # integrity check and fails only when deserialized.
    manifest_path = os.path.join(path, "manifest.json")
    with open(manifest_path) as fh:
        envelope = json.load(fh)
    envelope["payload"]["stages"]["classifier"]["sha256"] = \
        hashlib.sha256(garbage).hexdigest()
    envelope["digest"] = payload_digest(envelope["payload"])
    with open(manifest_path, "w") as fh:
        json.dump(envelope, fh)
    with pytest.raises(ArtifactError, match="failed to load"):
        registry.load()
    assert registry.current is served
    assert registry.reload_errors == 1
    # And the poller path shrugs it off entirely.
    future = time.time() + 10
    os.utime(blob, (future, future))
    assert registry.poll() is False
    assert registry.current is served


def test_reload_lock_covers_load_while_reads_stay_lockfree(artifact_v1,
                                                           artifact_v2):
    """Lock-scope contract: ``_reload_lock`` is held across the whole
    validate+load+swap (a competing reload serializes behind it), while
    readers never touch the lock — mid-reload they instantly observe the
    consistent old model, never a torn half-swap."""
    import threading

    from repro.pipeline import load_pipeline

    entered = threading.Event()
    release = threading.Event()

    def loader(path):
        if path == artifact_v2:
            entered.set()
            assert release.wait(timeout=60)
        return load_pipeline(path)

    registry = ModelRegistry(artifact_v1, loader=loader)
    first = registry.load()

    worker = threading.Thread(target=registry.load, args=(artifact_v2,))
    worker.start()
    try:
        assert entered.wait(timeout=60)
        # The loader runs *inside* the lock's scope.
        assert registry._reload_lock.locked()
        # Lock-free readers (the /v1/model and /metrics paths) return
        # immediately and see generation-consistent state.
        seen = []

        def read():
            model = registry._current
            seen.append((model.generation, registry.generation))

        readers = [threading.Thread(target=read) for _ in range(8)]
        started = time.time()
        for t in readers:
            t.start()
        for t in readers:
            t.join(timeout=10)
        assert time.time() - started < 10, "reader blocked on reload lock"
        assert len(seen) == 8 and all(pair == (1, 1) for pair in seen)
        assert registry.current is first
    finally:
        release.set()
        worker.join(timeout=120)
    assert registry.current.generation == 2
    assert registry.generation == 2


def test_poll_detects_mtime_preserving_rollback(tmp_path, artifact_v1,
                                                artifact_v2):
    """A rollback restored with copystat'd (older) mtimes still counts
    as a change — poll compares for difference, not newness."""
    import shutil

    path = str(tmp_path / "served.rpd")
    shutil.copytree(artifact_v2, path)     # newer artifact serves first
    registry = ModelRegistry(path)
    registry.load()
    assert registry.current.info["method"] == "ir2vec-v2"
    shutil.rmtree(path)
    shutil.copytree(artifact_v1, path)     # rollback: strictly older mtimes
    assert registry.poll() is True
    assert registry.current.info["method"] == "ir2vec"
