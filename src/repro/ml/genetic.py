"""GA feature selection over embedding coordinates (pyeasyga-style).

Paper configuration (Section IV-A): population 2500, 25 generations,
crossover 0.9, mutation 0.1, each individual a subset of 5 vector
coordinates; fitness = accuracy of a decision tree trained on those
coordinates.  The paper-scale settings are expensive in pure Python, so
:class:`GAConfig` exposes them as parameters with a ``fast()`` profile
for the test/bench suites (profiles listed in docs/experiments.md).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from repro.ml.decision_tree import DecisionTreeClassifier


@dataclass
class GAConfig:
    population_size: int = 2500
    generations: int = 25
    crossover_probability: float = 0.9
    mutation_probability: float = 0.1
    genes_per_individual: int = 5
    elitism: bool = True
    seed: int = 7

    @staticmethod
    def paper() -> "GAConfig":
        return GAConfig()

    @staticmethod
    def fast() -> "GAConfig":
        return GAConfig(population_size=120, generations=8)


class GeneticFeatureSelector:
    """Selects ``genes_per_individual`` feature indices maximizing fitness."""

    def __init__(self, config: Optional[GAConfig] = None,
                 fitness: Optional[Callable[[Sequence[int]], float]] = None):
        self.config = config or GAConfig()
        self._external_fitness = fitness
        self.best_genes: Optional[Tuple[int, ...]] = None
        self.best_fitness = -1.0

    # -- default fitness: holdout DT accuracy ------------------------------
    def _default_fitness(self, X: np.ndarray, y: np.ndarray,
                         rng: np.random.Generator) -> Callable[[Sequence[int]], float]:
        n = len(y)
        order = rng.permutation(n)
        cut = max(1, int(n * 0.8))
        train_idx, val_idx = order[:cut], order[cut:]
        if len(val_idx) == 0:
            val_idx = train_idx

        cache: dict = {}

        def fitness(genes: Sequence[int]) -> float:
            key = tuple(sorted(genes))
            if key in cache:
                return cache[key]
            tree = DecisionTreeClassifier()
            tree.fit(X[np.ix_(train_idx, list(key))], y[train_idx])
            acc = tree.score(X[np.ix_(val_idx, list(key))], y[val_idx])
            cache[key] = acc
            return acc

        return fitness

    # -- GA loop ---------------------------------------------------------------
    def select(self, X: np.ndarray, y: np.ndarray) -> Tuple[int, ...]:
        cfg = self.config
        rng = np.random.default_rng(cfg.seed)
        X = np.asarray(X, dtype=np.float64)
        y = np.asarray(y)
        n_features = X.shape[1]
        k = min(cfg.genes_per_individual, n_features)
        fitness = self._external_fitness or self._default_fitness(X, y, rng)

        def random_individual() -> Tuple[int, ...]:
            return tuple(sorted(rng.choice(n_features, size=k, replace=False)))

        population: List[Tuple[int, ...]] = [random_individual()
                                             for _ in range(cfg.population_size)]
        scores = np.array([fitness(ind) for ind in population])

        for _ in range(cfg.generations):
            new_pop: List[Tuple[int, ...]] = []
            if cfg.elitism:
                new_pop.append(population[int(scores.argmax())])
            while len(new_pop) < cfg.population_size:
                a = self._tournament(population, scores, rng)
                b = self._tournament(population, scores, rng)
                if rng.random() < cfg.crossover_probability:
                    child = self._crossover(a, b, rng, n_features, k)
                else:
                    child = a
                if rng.random() < cfg.mutation_probability:
                    child = self._mutate(child, rng, n_features)
                new_pop.append(child)
            population = new_pop
            scores = np.array([fitness(ind) for ind in population])

        best_idx = int(scores.argmax())
        self.best_genes = population[best_idx]
        self.best_fitness = float(scores[best_idx])
        return self.best_genes

    @staticmethod
    def _tournament(population, scores, rng, size: int = 3):
        idx = rng.integers(0, len(population), size=size)
        return population[idx[np.argmax(scores[idx])]]

    @staticmethod
    def _crossover(a, b, rng, n_features: int, k: int):
        pool = sorted(set(a) | set(b))
        if len(pool) < k:
            pool.extend(int(g) for g in rng.choice(n_features, size=k, replace=False))
            pool = sorted(set(pool))
        return tuple(sorted(rng.choice(pool, size=k, replace=False)))

    @staticmethod
    def _mutate(genes, rng, n_features: int):
        genes = list(genes)
        slot = int(rng.integers(0, len(genes)))
        candidate = int(rng.integers(0, n_features))
        while candidate in genes:
            candidate = int(rng.integers(0, n_features))
        genes[slot] = candidate
        return tuple(sorted(genes))
