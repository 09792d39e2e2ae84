"""Seeded input generation: the same (workload, seed, seconds) always
gives byte-identical inputs.

Each generator returns ``(program, answers)``.  ``program`` is all the
program's process receives; ``answers`` (dataset labels, ground-truth
kinds, the request schedule) stay with the benchmark.  The amount of
work is fixed by ``seconds`` times a nominal rate measured on a 2-core
x86 box, so a run's work never depends on how fast the code under test
is — only its duration does.
"""

from __future__ import annotations

import hashlib
import json
import random
from typing import Any, Dict, List, Sequence, Set, Tuple

#: Sources checked per second by check-batch (one source per call).
CHECK_RATE = 240.0
#: Offered load of serve-mixed, requests per second (about half of what
#: one default server sustains on this mix).
SERVE_RATE = 45.0
#: Repair cases per second, the share of them that are mutants (the fuzz
#: grammar's own bug ratio) and the slot length over which that share
#: holds exactly.
REPAIR_RATE = 20.0
MUTANT_SHARE = 0.4
REPAIR_SLOT = 10
#: Graph-epochs trained per second by gnn-train.
GNN_RATE = 160.0

#: serve-mixed request mix: (kind, requests per slot of ten, sources per
#: request).  Every ten consecutive requests hold exactly this mix, in a
#: seeded order, so seeds differ in sources and order, not in load.
REQUEST_MIX = (("check", 8, 1), ("bulk", 1, 8), ("analyze", 1, 1))
#: Sources in serve-mixed's repeating hot set, and the schedule time
#: before a hot source may repeat.  The gap keeps one source out of two
#: requests that could share a micro-batch: the IR2vec encoder indexes
#: instructions by object id, so a batch holding one compiled module
#: twice reads uninitialized rows and returns wrong verdicts.
HOT_SET = 48
HOT_REUSE_S = 1.0
#: gnn-train split sizes (graphs); sized for memory, epochs scale.
GNN_TRAIN, GNN_TEST = 160, 480


def canonical(obj: Any) -> bytes:
    """The byte form inputs are written and digested in."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":")).encode()


def digest(obj: Any) -> str:
    return hashlib.sha256(canonical(obj)).hexdigest()


def source_digest(source: str) -> str:
    return hashlib.sha256(source.encode("utf-8")).hexdigest()


def _rng(workload: str, seed: Any) -> random.Random:
    return random.Random(f"{workload}:{seed}")


def _fresh_suites(rng: random.Random, exclude: Set[str]
                  ) -> Tuple[List[Any], List[Any]]:
    """MBI and CorrBench samples regenerated under fresh suite seeds,
    minus anything the model was trained on, unique by content."""
    from repro.datasets import load_corrbench, load_mbi

    seen = set(exclude)
    suites = []
    for suite in (load_mbi(seed=rng.randrange(1, 2**31)),
                  load_corrbench(seed=rng.randrange(1, 2**31))):
        kept = []
        for sample in suite.samples:
            key = source_digest(sample.source)
            if key not in seen:
                seen.add(key)
                kept.append(sample)
        rng.shuffle(kept)
        suites.append(kept)
    return suites[0], suites[1]


def _interleave(mbi: Sequence[Any], corr: Sequence[Any], n: int,
                corr_every: int = 4) -> List[Any]:
    """``n`` samples, every ``corr_every``-th from CorrBench."""
    out: List[Any] = []
    mi = ci = 0
    while len(out) < n:
        if len(out) % corr_every == corr_every - 1 and ci < len(corr):
            out.append(corr[ci])
            ci += 1
        elif mi < len(mbi):
            out.append(mbi[mi])
            mi += 1
        elif ci < len(corr):
            out.append(corr[ci])
            ci += 1
        else:
            raise ValueError(f"only {len(out)} unique sources for {n}")
    return out


def check_batch(seed: int, seconds: int, exclude: Set[str]):
    rng = _rng("check-batch", seed)
    mbi, corr = _fresh_suites(rng, exclude)
    picked = _interleave(mbi, corr, 1 + round(seconds * CHECK_RATE))
    names = [f"c{i:05d}_{s.name}" for i, s in enumerate(picked)]
    program = {"sources": [[n, s.source] for n, s in zip(names, picked)]}
    answers = {"labels": [s.binary for s in picked]}
    return program, answers


def serve_mixed(seed: int, seconds: int, exclude: Set[str]):
    """A fixed-rate schedule of check, bulk-check and analyze requests;
    each source slot draws from the hot set or the unique pool with
    equal odds (unique when no hot source is free to repeat).  The hot
    set is the same for every seed (the popular files), so it does not
    swing accuracy from seed to seed.  A separate probe source marks the
    end of set-up."""
    hot = _interleave(*_fresh_suites(_rng("serve-mixed", "hot"), exclude),
                      HOT_SET)
    exclude = exclude | {source_digest(s.source) for s in hot}
    rng = _rng("serve-mixed", seed)
    mbi, corr = _fresh_suites(rng, exclude)
    probe, *unique = _interleave(mbi, corr, len(mbi) + len(corr))
    n_requests = round(seconds * SERVE_RATE)
    kinds: List[Tuple[str, int]] = []
    while len(kinds) < n_requests:
        slot = [(kind, width) for kind, count, width in REQUEST_MIX
                for _ in range(count)]
        rng.shuffle(slot)
        kinds += slot
    requests = []
    next_unique = 0
    last_used: Dict[int, float] = {}
    for i, (kind, width) in enumerate(kinds[:n_requests]):
        due = i / SERVE_RATE
        slots = []
        for _ in range(width):
            free = [h for h in range(len(hot))
                    if due - last_used.get(h, -HOT_REUSE_S) >= HOT_REUSE_S]
            if rng.random() < 0.5 and free:
                h = rng.choice(free)
                last_used[h] = due
                sample = hot[h]
            else:
                sample = unique[next_unique]
                next_unique += 1
            slots.append([sample.name, sample.source, sample.binary])
        requests.append({"id": str(i), "kind": kind, "due_s": due,
                         "sources": slots})
    # The server receives only the requests themselves; the answers keep
    # the schedule and labels.
    program: Dict[str, Any] = {}
    answers = {"probe": [probe.name, probe.source], "requests": requests}
    return program, answers


def stratified(rng: random.Random, pool: Sequence[Any], n: int
               ) -> List[Any]:
    """``n`` samples spread evenly over each binary label's sources
    ordered by length: one random pick per equal-width slot, so two draws
    differ in which programs they hold but hardly in size or balance."""
    groups: Dict[str, List[Any]] = {}
    for sample in pool:
        groups.setdefault(sample.binary, []).append(sample)
    picked: List[Any] = []
    for label in sorted(groups):
        group = sorted(groups[label], key=lambda s: (len(s.source), s.name))
        k = round(n * len(group) / len(pool))
        width = len(group) / k
        picked += [group[int((i + rng.random()) * width)] for i in range(k)]
    return picked


def gnn_train(seed: int, seconds: int, exclude: Set[str]):
    """The training split is one fixed stratified sample, so every seed
    trains the same model with the same work; the seed draws the
    held-out split from the rest."""
    from repro.datasets import load_mbi

    samples = list(load_mbi().samples)
    train = stratified(_rng("gnn-train", "train"), samples, GNN_TRAIN)
    chosen = {s.name for s in train}
    test = stratified(_rng("gnn-train", seed),
                      [s for s in samples if s.name not in chosen], GNN_TEST)
    epochs = max(1, round(seconds * GNN_RATE / GNN_TRAIN))
    program = {"epochs": epochs,
               "train": [[s.name, s.source, s.binary] for s in train],
               "test": [[s.name, s.source] for s in test]}
    answers = {"labels": [s.binary for s in test], "epochs": epochs}
    return program, answers


def repair_campaign(seed: int, seconds: int, exclude: Set[str]):
    """Fuzz-grammar programs — mutants carry their injected operator as
    ``hint``, generated-correct programs are the controls.

    A case costs one gate run for a control and several for a mutant, so
    the mix is fixed rather than drawn: ``MUTANT_SHARE`` of the cases are
    mutants, spread evenly over the injected operators, and every run of
    ``REPAIR_SLOT`` consecutive cases holds the same number of each."""
    from repro.repair import generated_tasks

    rng = _rng("repair-campaign", seed)
    n = round(seconds * REPAIR_RATE)
    n_mutants = round(n * MUTANT_SHARE)
    pool = generated_tasks(rng.randrange(1, 2**31), 4 * n,
                           include_correct=True)
    controls = [t for t in pool if t.hint is None][:n - n_mutants]
    by_operator: Dict[str, List[Any]] = {}
    for task in pool:
        if task.hint is not None:
            by_operator.setdefault(task.hint, []).append(task)
    mutants = []
    while len(mutants) < n_mutants:
        for operator in sorted(by_operator):
            if by_operator[operator] and len(mutants) < n_mutants:
                mutants.append(by_operator[operator].pop(0))
    rng.shuffle(mutants)
    if len(controls) + len(mutants) != n:
        raise ValueError("fuzz grammar gave too few programs")
    per_slot = round(REPAIR_SLOT * MUTANT_SHARE)
    tasks: List[Any] = []
    while controls or mutants:
        slot = mutants[:per_slot] + controls[:REPAIR_SLOT - per_slot]
        del mutants[:per_slot], controls[:REPAIR_SLOT - per_slot]
        rng.shuffle(slot)
        tasks += slot
    program = {"tasks": [{"name": t.name, "source": t.source,
                          "hint": t.hint, "origin": t.origin}
                         for t in tasks]}
    answers = {"mutant": [t.hint is not None for t in tasks]}
    return program, answers


GENERATORS = {
    "check-batch": check_batch,
    "serve-mixed": serve_mixed,
    "gnn-train": gnn_train,
    "repair-campaign": repair_campaign,
}
