"""Experiment scaling profiles.

``paper()`` matches the paper's settings (10 folds, full suites, GA with
population 2500 × 25 generations, GNN 10 epochs at lr 4e-4).  ``fast()``
is the CI/bench profile: stratified subsamples, 3 folds, a small GA, and
a shorter, higher-lr GNN schedule (fewer gradient steps on less data need
a larger step size).  docs/experiments.md lists what each profile runs
and which experiments use it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.ml.genetic import GAConfig


@dataclass
class ReproConfig:
    folds: int = 10
    mbi_subsample: Optional[int] = None
    corr_subsample: Optional[int] = None
    ga: GAConfig = field(default_factory=GAConfig.paper)
    gnn_epochs: int = 10
    gnn_lr: float = 4e-4
    gnn_batch_size: int = 32
    embedding_seed: int = 42
    seed: int = 0
    ir2vec_opt: str = "Os"
    gnn_opt: str = "O0"
    normalization: str = "vector"
    nprocs: int = 3                       # simulator width for dynamic tools
    # Execution-engine knobs: 0 workers = serial, None cache_dir = follow
    # the process default (REPRO_CACHE_DIR / repro.engine.configure()).
    workers: Optional[int] = None
    cache_dir: Optional[str] = None

    def engine(self):
        """The execution engine experiment drivers run corpus work on.

        A knob left ``None`` inherits the process default (CLI flags /
        ``REPRO_WORKERS`` / ``REPRO_CACHE_DIR``), so e.g. setting only
        ``cache_dir`` here still honours the env-configured worker count.
        With neither overridden this *is* the default engine.
        """
        from repro.engine import ExecutionEngine, default_engine

        base = default_engine()
        workers = base.config.workers if self.workers is None else self.workers
        cache_dir = (base.config.cache_dir if self.cache_dir is None
                     else self.cache_dir)
        if (workers, cache_dir) == (base.config.workers,
                                    base.config.cache_dir):
            return base
        # Memoized per resolved knobs (and outside dataclass fields so
        # config equality / replace() stay value-based): mutating
        # workers/cache_dir after a call rebuilds rather than returning
        # a stale engine.
        if getattr(self, "_engine_key", None) != (workers, cache_dir):
            object.__setattr__(self, "_engine", ExecutionEngine(
                workers=workers, cache_dir=cache_dir))
            object.__setattr__(self, "_engine_key", (workers, cache_dir))
        return self._engine

    @staticmethod
    def paper() -> "ReproConfig":
        return ReproConfig()

    @staticmethod
    def fast() -> "ReproConfig":
        return ReproConfig(
            folds=3,
            mbi_subsample=420,
            corr_subsample=220,
            ga=GAConfig.fast(),
            gnn_epochs=8,
            gnn_lr=2e-3,
        )

    @staticmethod
    def smoke() -> "ReproConfig":
        """Minutes-scale profile for unit tests."""
        return ReproConfig(
            folds=2,
            mbi_subsample=120,
            corr_subsample=80,
            ga=GAConfig(population_size=40, generations=3),
            gnn_epochs=3,
            gnn_lr=3e-3,
        )

    # -- dataset accessors --------------------------------------------------
    def mbi(self):
        from repro.datasets import load_mbi

        return load_mbi(subsample=self.mbi_subsample)

    def corrbench(self, debias: bool = True):
        from repro.datasets import load_corrbench

        return load_corrbench(debias=debias, subsample=self.corr_subsample)

    def mix(self):
        return self.mbi().merged_with(self.corrbench(), name="Mix")

    def hypre(self):
        from repro.datasets.hypre import hypre_dataset

        return hypre_dataset()

    def dataset(self, name: str):
        key = name.lower()
        if key == "mbi":
            return self.mbi()
        if key in ("corr", "corrbench", "mpi-corrbench"):
            return self.corrbench()
        if key == "mix":
            return self.mix()
        if key == "hypre":
            return self.hypre()
        raise ValueError(f"unknown dataset {name!r}")
