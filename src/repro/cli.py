"""Command-line interface.

One executable front door over the library, mirroring how the paper's
artifact is used day to day:

=============  ==============================================================
subcommand     what it does
=============  ==============================================================
compile        mini-C file → textual IR at -O0 / -O2 / -Os
simulate       run a program on the virtual MPI runtime, print the outcome
verify         run one of the baseline tool analogues on a file
analyze        run the in-tree dataflow static analyzer on a file, its
               built-in self-test, or a fuzz corpus (``--corpus``)
generate       write an MBI / CorrBench / Mix style suite to a directory
train          train a detection pipeline on a suite, save its artifact
check          classify C files (batched) with a saved pipeline artifact
experiment     regenerate one of the paper's tables / figures
eval           evaluation matrix: run the scenario grid (``eval matrix``),
               gate an artifact against a baseline (``eval compare``)
mutate         inject MPI bugs into a correct program (mutation operators)
localize       rank the suspect functions / MPI call sites of a file with a
               saved ir2vec pipeline artifact
fuzz           differential pipeline fuzzing: ``fuzz run`` generates
               programs, cross-checks the oracles, minimizes findings
               into a replay-first corpus; ``fuzz replay`` re-checks it
repair         rule-based automated repair of a file, a fuzz corpus or
               generated mutants, validated by the differential harness
cache          inspect / clear the persistent engine cache
artifact       inspect a saved pipeline artifact (manifest only, no unpickle)
serve          run the async micro-batching HTTP detection service
fleet          run N serve replicas behind one digest-routing front door,
               all caching in one shared directory
obs            scrape telemetry (``obs dump``) from a running server
trace          fetch one trace by id and print its span tree
=============  ==============================================================

The corpus subcommands (``train``, ``check``, ``experiment``, ``eval
matrix``, ``fuzz``, ``repair``) and ``serve`` accept ``--workers N``
(parallel compile/featurize over N processes) and ``--cache-dir PATH``
(persistent content-addressed cache — warm re-runs skip compilation and
featurization entirely).  Flags are the only settings: no subcommand
reads an environment variable.

Every subcommand is a plain function taking parsed args and returning an
exit code, so the test suite drives ``main([...])`` in-process.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import List, Optional, Sequence

#: ``repro experiment`` names: ``sorted(repro.eval.experiments.EXPERIMENTS)``
#: spelled out, so building the parser (``--help``) imports no
#: evaluation code (a test keeps the two equal).
EXPERIMENT_NAMES = (
    "ablation-encoding", "ablation-gnn", "fig1", "fig2", "fig3", "fig6",
    "fig7", "fig8", "fig9", "mutation", "seeds", "table2", "table3",
    "table4", "table5", "table6",
)


def _read_source(path: str) -> str:
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def cmd_compile(args: argparse.Namespace) -> int:
    from repro.frontend import CompileError, compile_c
    from repro.ir.printer import print_module

    try:
        module = compile_c(_read_source(args.file), os.path.basename(args.file),
                           args.opt, verify=not args.no_verify)
    except CompileError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    text = print_module(module)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        print(text)
    return 0


def cmd_simulate(args: argparse.Namespace) -> int:
    from repro.frontend import CompileError, compile_c
    from repro.mpi.simulator import simulate

    try:
        module = compile_c(_read_source(args.file), os.path.basename(args.file),
                           args.opt, verify=False)
    except CompileError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    report = simulate(module, args.nprocs, seed=args.seed,
                      max_steps=args.max_steps)
    print(f"outcome: {report.outcome.name}  (steps={report.steps})")
    for event in report.events:
        print(f"  [{event.kind}] rank {event.rank} in {event.call}: "
              f"{event.detail}")
    return 0 if report.clean else 2


def cmd_verify(args: argparse.Namespace) -> int:
    from repro.datasets.loader import Sample
    from repro.verify import ITACTool, MPICheckerTool, MUSTTool, ParcoachTool

    tools = {
        "itac": lambda: ITACTool(nprocs=args.nprocs),
        "must": lambda: MUSTTool(nprocs=args.nprocs),
        "parcoach": ParcoachTool,
        "mpi-checker": MPICheckerTool,
    }
    tool = tools[args.tool]()
    sample = Sample(name=os.path.basename(args.file),
                    source=_read_source(args.file), label="?", suite="CLI")
    verdict = tool.check_sample(sample)
    print(f"{tool.name}: {verdict.verdict}")
    for kind in verdict.detected_kinds:
        print(f"  detected: {kind}")
    if verdict.detail:
        print(f"  detail: {verdict.detail}")
    return 0 if verdict.verdict == "correct" else 2


def cmd_analyze(args: argparse.Namespace) -> int:
    """``analyze``: the in-tree dataflow static analyzer as a CLI.

    Three modes: a single file (exit 0 clean, 2 findings, 1 on frontend
    rejection), ``--self-test`` (the analyzer's built-in contract cases),
    and ``--corpus DIR`` (re-analyze every minimized fuzz-corpus case;
    every known-bug seed must still be flagged with a non-empty witness,
    so a regressed checker fails CI instead of silently losing recall).
    """
    import json

    from repro.verify.static.analyzer import (
        SELF_TEST_CASES,
        analyze_source,
        self_test,
    )

    if args.self_test:
        failures = self_test(nprocs=args.nprocs)
        for failure in failures:
            print(f"FAIL {failure}", file=sys.stderr)
        if failures:
            print(f"self-test: {len(failures)} failure(s) over "
                  f"{len(SELF_TEST_CASES)} case(s)", file=sys.stderr)
            return 1
        print(f"self-test: {len(SELF_TEST_CASES)} case(s) ok")
        return 0

    if args.corpus:
        from repro.fuzz import CorpusStore

        if not os.path.isdir(args.corpus):
            print(f"error: corpus directory {args.corpus!r} does not "
                  "exist", file=sys.stderr)
            return 1
        cases = CorpusStore(args.corpus).cases()
        if not cases:
            print(f"error: corpus {args.corpus!r} holds no cases",
                  file=sys.stderr)
            return 1
        unflagged: List[str] = []
        for case in cases:
            verdict, findings = analyze_source(case.source, case.name,
                                               args.nprocs)
            witnessed = [f for f in findings if not f.witness.is_empty]
            known_bug = case.origin.startswith("known-bug:")
            flagged = verdict != "correct" and bool(witnessed)
            mark = "ok " if (flagged or not known_bug) else "FAIL"
            print(f"{mark} {case.name} [{case.origin or 'fuzz'}] -> "
                  f"{verdict}, {len(witnessed)} witnessed finding(s)")
            if known_bug and not flagged:
                unflagged.append(case.name)
        if unflagged:
            print(f"{len(unflagged)} known-bug seed(s) no longer "
                  f"flagged: {', '.join(unflagged)}", file=sys.stderr)
            return 1
        print(f"{len(cases)} corpus case(s) analyzed, all known-bug "
              "seeds still flagged")
        return 0

    if not args.file:
        print("error: a file is required unless --self-test or --corpus "
              "is given", file=sys.stderr)
        return 1
    verdict, findings = analyze_source(_read_source(args.file),
                                       os.path.basename(args.file),
                                       args.nprocs)
    if args.json:
        print(json.dumps({"name": os.path.basename(args.file),
                          "verdict": verdict,
                          "findings": [f.as_dict() for f in findings]},
                         indent=2, sort_keys=True))
    else:
        print(f"static: {verdict}")
        for f in findings:
            where = f.function and f" in {f.function}" or ""
            print(f"  [{f.check}] {f.kind}{where}: {f.message}")
            witness = f.witness.as_dict()
            for key in ("blocks", "condition", "values", "note"):
                if witness.get(key):
                    print(f"      {key}: {witness[key]}")
    if verdict == "compile_error":
        return 1
    return 2 if findings else 0


def cmd_generate(args: argparse.Namespace) -> int:
    from repro.eval.config import ReproConfig

    config = ReproConfig()
    if args.subsample:
        config.mbi_subsample = args.subsample
        config.corr_subsample = args.subsample
    dataset = config.dataset(args.suite)
    os.makedirs(args.directory, exist_ok=True)
    manifest_lines = []
    for sample in dataset:
        path = os.path.join(args.directory, sample.name)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(sample.source)
        manifest_lines.append(f"{sample.name}\t{sample.label}")
    manifest = os.path.join(args.directory, "MANIFEST.tsv")
    with open(manifest, "w", encoding="utf-8") as fh:
        fh.write("\n".join(manifest_lines) + "\n")
    print(f"wrote {len(dataset)} codes to {args.directory} "
          f"(labels in MANIFEST.tsv)")
    return 0


def cmd_train(args: argparse.Namespace) -> int:
    from repro.eval.config import ReproConfig
    from repro.eval.scenarios import stage_specs
    from repro.pipeline import METHOD_STAGES, DetectionPipeline

    config = getattr(ReproConfig, args.profile)()
    dataset = config.dataset(args.dataset)
    # Built-in stages take the profile's settings from the same lowering
    # the experiments use.  Explicit --featurizer/--classifier names
    # compose any registered stage; a stage left unnamed defaults from
    # --method.
    profile_configs = {}
    for method in METHOD_STAGES:
        feat_n, feat_c, clf_n, clf_c = stage_specs(method, config)
        profile_configs[feat_n] = feat_c
        profile_configs[clf_n] = clf_c
    feat_default, clf_default = METHOD_STAGES[args.method]
    feat_name = args.featurizer or feat_default
    clf_name = args.classifier or clf_default
    try:
        pipeline = DetectionPipeline.from_names(
            featurizer=feat_name, classifier=clf_name,
            featurizer_config=profile_configs.get(feat_name),
            classifier_config=profile_configs.get(clf_name),
            method=None if args.featurizer or args.classifier
            else args.method)
    except (KeyError, ValueError) as exc:
        print(f"error: {exc.args[0]}", file=sys.stderr)
        return 1
    pipeline.fit(dataset, labels=args.labels)
    pipeline.save(args.output)
    print(f"trained {pipeline.method} on {dataset.name} "
          f"({len(dataset)} codes), saved artifact to {args.output}")
    return 0


def cmd_check(args: argparse.Namespace) -> int:
    from repro.pipeline import ArtifactError, DetectionPipeline

    try:
        pipeline = DetectionPipeline.load(args.model)
    except ArtifactError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if not pipeline.fitted:
        print(f"error: {args.model} holds an unfitted pipeline; "
              "train it before checking files", file=sys.stderr)
        return 1
    # One batch: one engine pass, one vectorized classifier call.
    sources = [(os.path.basename(path), _read_source(path))
               for path in args.files]
    results = pipeline.predict_batch(sources)
    exit_code = 0
    for path, result in zip(args.files, results):
        print(f"{path}: {result.label}")
        if not result.is_correct:
            exit_code = 2
    return exit_code


def cmd_mutate(args: argparse.Namespace) -> int:
    from repro.datasets.loader import Sample
    from repro.datasets.mutation import MutationEngine

    sample = Sample(name=os.path.basename(args.file),
                    source=_read_source(args.file), label="Correct",
                    suite=args.suite)
    engine = MutationEngine(seed=args.seed)
    mutants = engine.mutate_sample(sample, per_sample=args.count)
    if not mutants:
        print("no applicable mutation operators", file=sys.stderr)
        return 1
    os.makedirs(args.directory, exist_ok=True)
    for m in mutants:
        path = os.path.join(args.directory, m.sample.name)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(m.sample.source)
        print(f"{m.sample.name}\t{m.operator}\t{m.sample.label}")
    return 0


def cmd_localize(args: argparse.Namespace) -> int:
    from repro.core.localize import localize_call_sites, localize_error
    from repro.models.ir2vec_model import IR2vecModel
    from repro.pipeline import ArtifactError, DetectionPipeline

    try:
        pipeline = DetectionPipeline.load(args.model)
    except ArtifactError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    model = getattr(pipeline.classifier, "model", None)
    if pipeline.method != "ir2vec" or not isinstance(model, IR2vecModel):
        print("error: localization requires an ir2vec detector",
              file=sys.stderr)
        return 1
    opt_level = pipeline.frontend.opt_level
    encoder = pipeline.featurizer.encoder()   # the artifact's seed table
    source = _read_source(args.file)
    print("function-level suspects:")
    for s in localize_error(source, model, opt_level=opt_level,
                            encoder=encoder):
        print(f"  #{s.rank} {s.name:<20} isolated={s.isolated_verdict:<10} "
              f"influence={s.influence:.3f}")
    print("call-site suspects:")
    suspects = localize_call_sites(source, model, opt_level=opt_level,
                                   encoder=encoder, top=args.top)
    for s in suspects:
        print(f"  {s}")
    if not suspects:
        print("  (no non-boilerplate MPI calls)")
    return 0


def cmd_experiment(args: argparse.Namespace) -> int:
    from repro.eval.config import ReproConfig
    from repro.eval.experiments import EXPERIMENTS

    experiment = EXPERIMENTS[args.name]
    print(experiment.render(experiment.run(getattr(ReproConfig, args.profile)())))
    return 0


def _csv(value: Optional[str]) -> Optional[List[str]]:
    if value is None:
        return None
    return [item.strip() for item in value.split(",") if item.strip()]


def cmd_eval_matrix(args: argparse.Namespace) -> int:
    """``eval matrix``: run the declarative scenario grid, write the
    schema-checked ``EVAL_matrix.json`` artifact."""
    import json

    from repro.eval.config import ReproConfig
    from repro.eval.matrix import MatrixSpec, run_matrix, save_matrix_artifact
    from repro.eval.reporting import render_generalization, render_matrix

    config = getattr(ReproConfig, args.profile)()
    spec = MatrixSpec.for_profile(args.profile)
    overrides = {}
    for field_name, flag in (("train_datasets", args.train),
                             ("test_datasets", args.test),
                             ("methods", args.methods)):
        values = _csv(flag)
        if values:
            overrides[field_name] = tuple(values)
    if args.mutation_levels:
        try:
            overrides["mutation_levels"] = tuple(
                int(v) for v in _csv(args.mutation_levels) or ())
        except ValueError:
            print(f"error: --mutation-levels must be comma-separated "
                  f"integers, got {args.mutation_levels!r}", file=sys.stderr)
            return 1
    if overrides:
        import dataclasses

        try:
            spec = dataclasses.replace(spec, **overrides)
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
    try:
        doc = run_matrix(spec, config, profile=args.profile)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    save_matrix_artifact(doc, args.output)
    status = f"wrote {len(doc['cells'])} cells to {args.output}"
    if args.json:
        # Keep stdout pure JSON so `--json | jq .` works.
        print(json.dumps(doc, indent=2, sort_keys=True))
        print(status, file=sys.stderr)
    else:
        print(render_matrix(doc))
        print(render_generalization(doc))
        print(status)
    return 0


def cmd_eval_compare(args: argparse.Namespace) -> int:
    """``eval compare``: pass/fail regression verdict between two
    matrix artifacts; non-zero exit on any gated F1 drop."""
    import json

    from repro.eval.compare import (
        CompareThresholds,
        compare_artifacts,
        parse_class_thresholds,
    )
    from repro.eval.matrix import load_matrix_artifact
    from repro.eval.reporting import render_compare
    from repro.schema import SchemaError

    try:
        per_class = parse_class_thresholds(args.class_threshold or [])
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    thresholds = CompareThresholds(max_f1_drop=args.max_f1_drop,
                                   per_class=per_class,
                                   min_support=args.min_support)
    try:
        baseline = load_matrix_artifact(args.baseline)
        candidate = load_matrix_artifact(args.candidate)
    except (OSError, json.JSONDecodeError, SchemaError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    result = compare_artifacts(baseline, candidate, thresholds)
    if args.json:
        print(json.dumps(result.as_dict(), indent=2, sort_keys=True))
    else:
        print(render_compare(result))
    return 0 if result.passed else 1


def cmd_fuzz_run(args: argparse.Namespace) -> int:
    """``fuzz run``: one differential fuzz campaign — replay the corpus,
    check the known-bug seeds, generate ``--budget`` fresh programs, and
    write the schema-checked ``FUZZ_report.json``.  Exit 1 when the
    campaign found blocking problems (hard failures, replay mismatches,
    generator-contract violations); disagreements and seed rejections
    are recorded in the report but do not fail the run."""
    import json

    from repro.fuzz import FuzzConfig, run_campaign, save_fuzz_report
    from repro.fuzz.harness import campaign_failed
    from repro.fuzz.report import render_fuzz_report
    from repro.obs import EVENTS

    try:
        config = FuzzConfig(
            seed=args.seed, budget=args.budget, nprocs=args.nprocs,
            bug_ratio=args.bug_ratio, corpus_dir=args.corpus_dir,
            include_known_bugs=not args.no_known_bugs)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    pipeline = None
    if args.model:
        from repro.pipeline import ArtifactError, DetectionPipeline

        try:
            pipeline = DetectionPipeline.load(args.model)
        except ArtifactError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        if not pipeline.fitted:
            print(f"error: {args.model} holds an unfitted pipeline",
                  file=sys.stderr)
            return 2
    if args.obs_log:
        EVENTS.configure(path=args.obs_log)
    try:
        doc = run_campaign(config, pipeline=pipeline)
    finally:
        if args.obs_log:
            EVENTS.close()
    save_fuzz_report(doc, args.output)
    if args.json:
        print(json.dumps(doc, indent=2, sort_keys=True))
        print(f"wrote {args.output}", file=sys.stderr)
    else:
        print(render_fuzz_report(doc))
        print(f"wrote {args.output}")
    return 1 if campaign_failed(doc) else 0


def cmd_fuzz_replay(args: argparse.Namespace) -> int:
    """``fuzz replay``: re-check every minimized corpus case against its
    recorded signature, without generating anything.  Exit 1 on any
    mismatch."""
    from repro.fuzz import CorpusStore, FuzzConfig, replay_corpus

    if not os.path.isdir(args.corpus_dir):
        # A replay gate that silently passes on a typo'd path verifies
        # nothing — a missing corpus is an error, not a clean run.
        print(f"error: corpus directory {args.corpus_dir!r} does not "
              "exist", file=sys.stderr)
        return 2
    try:
        config = FuzzConfig(seed=0, budget=0, nprocs=args.nprocs,
                            corpus_dir=args.corpus_dir)
        store = CorpusStore(args.corpus_dir)
        entries = replay_corpus(store, config)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if not entries:
        print(f"error: corpus {args.corpus_dir!r} holds no cases",
              file=sys.stderr)
        return 2
    mismatches = 0
    for entry in entries:
        ok = entry["ok"]
        mismatches += 0 if ok else 1
        mark = "ok " if ok else "FAIL"
        line = (f"{mark} {entry['digest'][:16]} {entry['name']} "
                f"[{entry['recorded']['status']}/"
                f"{entry['recorded']['kind']}]")
        if not ok:
            line += (f" -> observed {entry['observed']['status']}/"
                     f"{entry['observed']['kind']}")
        print(line)
    print(f"{len(entries)} corpus case(s), {mismatches} mismatch(es)")
    return 1 if mismatches else 0


def cmd_repair(args: argparse.Namespace) -> int:
    """``repair``: rule-based automated repair validated by the
    differential harness.

    Input is one file, a stored fuzz corpus (``--corpus``), and/or a
    seed-deterministic batch of grammar mutants (``--seed``/``--budget``
    — the ground-truth denominator for the repair rate).  Writes the
    schema-checked ``REPAIR_report.json``.  Exit 0 when every case ends
    clean (repaired or validated no-op); 1 when cases stay unrepaired or
    the ``--baseline`` repair-rate gate fails; 2 on usage errors.  When
    a ``--baseline`` gate applies (ground truth present), the gate is
    the sole pass criterion — unrepaired cases without mutation
    metadata are data, not failures."""
    import json

    from repro.repair import (
        RepairConfig,
        RepairTask,
        build_report,
        corpus_tasks,
        generated_tasks,
        repair_tasks,
        render_repair_report,
        save_repair_report,
    )

    try:
        config = RepairConfig(nprocs=args.nprocs,
                              max_attempts=args.max_attempts)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    tasks = []
    if args.file:
        if not os.path.isfile(args.file):
            print(f"error: no such file {args.file!r}", file=sys.stderr)
            return 2
        with open(args.file, "r", encoding="utf-8") as fh:
            tasks.append(RepairTask(name=os.path.basename(args.file),
                                    source=fh.read()))
    if args.corpus:
        if not os.path.isdir(args.corpus):
            print(f"error: corpus directory {args.corpus!r} does not "
                  "exist", file=sys.stderr)
            return 2
        tasks.extend(corpus_tasks(args.corpus))
    if args.budget:
        tasks.extend(generated_tasks(args.seed, args.budget,
                                     nprocs=args.nprocs,
                                     include_correct=args.include_correct))
    if not tasks:
        print("error: nothing to repair (give a file, --corpus, or "
              "--budget)", file=sys.stderr)
        return 2
    entries = repair_tasks(tasks, config)
    doc = build_report(entries, config, corpus_dir=args.corpus,
                       seed=args.seed if args.budget else None,
                       budget=args.budget or None)
    save_repair_report(doc, args.output)
    if args.json:
        print(json.dumps(doc, indent=2, sort_keys=True))
        print(f"wrote {args.output}", file=sys.stderr)
    else:
        print(render_repair_report(doc))
        print(f"wrote {args.output}")
    failed = doc["counts"]["unrepaired"] > 0
    if args.baseline:
        try:
            with open(args.baseline, "r", encoding="utf-8") as fh:
                floor = float(json.load(fh)["min_repair_rate"])
        except (OSError, ValueError, KeyError) as exc:
            print(f"error: unusable baseline {args.baseline!r}: {exc}",
                  file=sys.stderr)
            return 2
        rate = doc["repair_rate"]
        if rate is None:
            print("baseline gate skipped: no ground-truth mutation "
                  "metadata in this run")
        elif rate < floor:
            print(f"baseline gate FAILED: repair rate {rate:.2f} < "
                  f"{floor:.2f}")
            failed = True
        else:
            # An applicable gate *is* the pass criterion: cases without
            # mutation metadata (e.g. committed compile-reject known
            # bugs) are reported as data, not failures.
            print(f"baseline gate ok: repair rate {rate:.2f} >= "
                  f"{floor:.2f}")
            failed = False
    return 1 if failed else 0


def cmd_cache(args: argparse.Namespace) -> int:
    from repro.engine import ContentStore

    cache_dir = args.cache_dir
    if not cache_dir:
        print("error: no cache directory (pass --cache-dir)",
              file=sys.stderr)
        return 1
    store = ContentStore(cache_dir)
    if args.action == "clear":
        removed = store.clear(args.stage)
        scope = f"stage {args.stage!r}" if args.stage else "all stages"
        print(f"removed {removed} cached entries ({scope}) from {cache_dir}")
        return 0
    summary = store.summary()
    print(f"cache {cache_dir}")
    if not summary:
        print("  (empty)")
    else:
        total_entries = total_bytes = 0
        for stage, info in sorted(summary.items()):
            print(f"  {stage:<12} {info['entries']:>8} entries  "
                  f"{info['bytes'] / 1024:>10.1f} KiB")
            total_entries += info["entries"]
            total_bytes += info["bytes"]
        print(f"  {'total':<12} {total_entries:>8} entries  "
              f"{total_bytes / 1024:>10.1f} KiB")
    return 0


def cmd_artifact(args: argparse.Namespace) -> int:
    """``artifact inspect``: print the versioned-artifact manifest
    (stages, versions, digests) without unpickling any stage blob."""
    import json

    from repro.pipeline import ArtifactError, inspect_artifact

    try:
        info = inspect_artifact(args.path)
    except ArtifactError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if args.json:
        print(json.dumps(info, indent=2, sort_keys=True))
        return 0
    print(f"artifact {info['path']}")
    print(f"  format          {info['format']} "
          f"(schema v{info['schema_version']}, "
          f"repro {info['repro_version']})")
    print(f"  method          {info['method']}")
    print(f"  label mode      {info['label_mode']}")
    print(f"  fitted          {info['fitted']}")
    print(f"  version         {info['version']}")
    print("  stages:")
    for role in ("frontend", "featurizer", "classifier"):
        stage = info["stages"][role]
        line = f"    {role:<12} {stage['name']}"
        state = stage.get("state")
        if state:
            line += (f"  [{state['blob']}: {state['bytes']} bytes, "
                     f"sha256 {state['sha256'][:12]}…]")
        print(line)
        for key, value in sorted(stage["config"].items()):
            print(f"      {key} = {value!r}")
    return 0


def _given(**fields):
    """The config fields whose flags were given; a flag left unset
    (``None``) keeps the config dataclass's default."""
    return {name: value for name, value in fields.items()
            if value is not None}


def cmd_serve(args: argparse.Namespace) -> int:
    from repro.pipeline import ArtifactError
    from repro.serve import ServeConfig, serve

    try:
        config = ServeConfig(**_given(
            host=args.host, port=args.port, max_batch=args.max_batch,
            max_queue=args.max_queue,
            poll_interval_s=args.poll_interval,
            trace=False if args.no_trace else None,
            trace_ring=args.trace_ring, obs_log=args.obs_log))
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    try:
        # The registry validates the artifact (manifest-first, fitted
        # check) before the server starts accepting, so a bad artifact
        # lands here as a clean error rather than a traceback.
        serve(args.model, config)
    except ArtifactError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


def cmd_fleet(args: argparse.Namespace) -> int:
    """``fleet``: N replica subprocesses, one front door, one shared cache."""
    from repro.fleet import FleetConfig, serve_fleet
    from repro.pipeline import ArtifactError

    try:
        config = FleetConfig(**_given(
            host=args.host, port=args.port, replicas=args.replicas,
            workers=args.workers, cache_dir=args.cache_dir,
            request_timeout_s=args.request_timeout))
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    try:
        serve_fleet(args.model, config)
    except (ArtifactError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


def _obs_client(args: argparse.Namespace):
    """Resolve --host/--port against the serve defaults, then open one
    keep-alive client to the running service."""
    from repro.serve import ServeConfig
    from repro.serve.loadgen import ServeClient

    config = ServeConfig(**_given(host=args.host, port=args.port))
    return ServeClient(config.host, config.port, timeout=args.timeout)


def cmd_obs_dump(args: argparse.Namespace) -> int:
    """``obs dump``: one-shot telemetry scrape of a running server.

    JSON mode prints the /metrics document extended with the recent-trace
    index; ``--format prometheus`` prints the exposition text verbatim
    (pipeable into a Prometheus checker).
    """
    import json

    client = _obs_client(args)
    try:
        if args.format == "prometheus":
            text = client.metrics_text()
            sys.stdout.write(text if text.endswith("\n") else text + "\n")
            return 0
        doc = client.metrics()
        status, traces = client.request("GET", "/v1/traces")
        if status == 200:
            doc["traces"] = traces
        print(json.dumps(doc, indent=2, sort_keys=True))
        return 0
    except (OSError, RuntimeError) as exc:
        print(f"error: cannot scrape server: {exc}", file=sys.stderr)
        return 1
    finally:
        client.close()


def _print_span_tree(spans: List[dict]) -> None:
    known = {s["span_id"] for s in spans}
    children: dict = {}
    for s in spans:
        parent = s.get("parent_id")
        children.setdefault(parent if parent in known else None,
                            []).append(s)

    def walk(parent_id, depth: int) -> None:
        for s in sorted(children.get(parent_id, []),
                        key=lambda x: x.get("start_s", 0.0)):
            attrs = s.get("attrs") or {}
            extra = " ".join(f"{k}={v}" for k, v in sorted(attrs.items()))
            line = (f"{'  ' * depth}{s['name']:<{max(1, 30 - 2 * depth)}} "
                    f"{s.get('elapsed_s', 0.0) * 1000:>9.3f}ms  "
                    f"[{s.get('kind', '?')}] pid={s.get('process', '?')}")
            if extra:
                line += f"  {extra}"
            print(line)
            walk(s["span_id"], depth + 1)

    walk(None, 0)


def cmd_trace(args: argparse.Namespace) -> int:
    """``trace <id>``: fetch one completed trace from a running server
    and print its span tree (indentation = parenthood)."""
    import json

    client = _obs_client(args)
    try:
        status, doc = client.trace(args.trace_id)
    except OSError as exc:
        print(f"error: cannot reach server: {exc}", file=sys.stderr)
        return 1
    finally:
        client.close()
    if status == 404:
        hint = ""
        if isinstance(doc, dict) and doc.get("tracing_enabled") is False:
            hint = " (tracing is disabled on the server)"
        print(f"error: trace {args.trace_id!r} not found{hint}",
              file=sys.stderr)
        return 1
    if status != 200:
        print(f"error: server answered {status}: {doc}", file=sys.stderr)
        return 1
    if args.json:
        print(json.dumps(doc, indent=2, sort_keys=True))
        return 0
    spans = doc.get("spans", [])
    processes = {s.get("process") for s in spans}
    print(f"trace {doc['trace_id']}  {doc.get('name', '?')}  "
          f"{doc.get('duration_s', 0.0) * 1000:.3f}ms  "
          f"{len(spans)} span(s) across {len(processes)} process(es)")
    _print_span_tree(spans)
    return 0


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

_OBS_LOG_HELP = ("JSON-lines event log sink: a path, or '-' for stderr "
                 "(default: off)")


def _add_engine_flags(p: argparse.ArgumentParser) -> None:
    """--workers / --cache-dir: :func:`main` installs the process default
    engine from them for the one subcommand run."""
    p.add_argument("--workers", type=int, default=None, metavar="N",
                   help="parallel compile/featurize worker processes "
                        "(0 = serial; default: 0)")
    p.add_argument("--cache-dir", default=None, metavar="PATH",
                   help="persistent content-addressed cache directory "
                        "(default: none, memory only)")
    p.set_defaults(engine_flags=True)

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-mpi",
        description="MPI error detection via IR embeddings and GNNs "
                    "(reproduction of arXiv:2403.02518)")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("compile", help="compile mini-C to textual IR")
    p.add_argument("file")
    p.add_argument("-O", "--opt", choices=("O0", "O2", "Os"), default="O0")
    p.add_argument("-o", "--output")
    p.add_argument("--no-verify", action="store_true",
                   help="skip the IR verifier")
    p.set_defaults(func=cmd_compile)

    p = sub.add_parser("simulate", help="run a program on the virtual MPI")
    p.add_argument("file")
    p.add_argument("-n", "--nprocs", type=int, default=2)
    p.add_argument("-O", "--opt", choices=("O0", "O2", "Os"), default="O0")
    p.add_argument("--seed", type=int, default=0,
                   help="interleaving schedule seed")
    p.add_argument("--max-steps", type=int, default=400_000)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("verify", help="run a baseline tool analogue")
    p.add_argument("file")
    p.add_argument("--tool", choices=("itac", "must", "parcoach",
                                      "mpi-checker"), default="itac")
    p.add_argument("-n", "--nprocs", type=int, default=3)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("analyze",
                       help="run the in-tree dataflow static analyzer")
    p.add_argument("file", nargs="?", default=None,
                   help="mini-C file to analyze")
    p.add_argument("-n", "--nprocs", type=int, default=3,
                   help="rank count the per-rank interpretation assumes")
    p.add_argument("--json", action="store_true",
                   help="emit the verdict and findings as JSON")
    p.add_argument("--self-test", action="store_true",
                   help="run the analyzer's built-in contract cases")
    p.add_argument("--corpus", default=None, metavar="DIR",
                   help="re-analyze a minimized fuzz corpus; fail if any "
                        "known-bug seed is no longer flagged")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("generate", help="write a benchmark suite to disk")
    p.add_argument("suite", choices=("mbi", "corrbench", "mix"))
    p.add_argument("directory")
    p.add_argument("--subsample", type=int, default=None)
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("train",
                       help="train a detection pipeline, save its artifact")
    p.add_argument("-d", "--dataset", choices=("mbi", "corrbench", "mix"),
                   default="mbi")
    p.add_argument("-m", "--method", choices=("ir2vec", "gnn"),
                   default="ir2vec")
    p.add_argument("--featurizer", default=None,
                   help="registered featurizer name (overrides --method)")
    p.add_argument("--classifier", default=None,
                   help="registered classifier name (overrides --method)")
    p.add_argument("--labels", choices=("binary", "type"), default="binary")
    p.add_argument("--profile", choices=("smoke", "fast", "paper"),
                   default="smoke")
    p.add_argument("-o", "--output", required=True,
                   help="artifact path (directory, or .zip)")
    _add_engine_flags(p)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("check",
                       help="classify C files with a saved pipeline artifact")
    p.add_argument("model")
    p.add_argument("files", nargs="+")
    _add_engine_flags(p)
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("mutate", help="inject MPI bugs into a correct code")
    p.add_argument("file")
    p.add_argument("directory")
    p.add_argument("--suite", choices=("MBI", "CORR"), default="MBI",
                   help="label taxonomy for the mutants")
    p.add_argument("--count", type=int, default=4)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_mutate)

    p = sub.add_parser("localize",
                       help="rank suspect functions / MPI call sites")
    p.add_argument("model", help="pickled ir2vec detector (see 'train')")
    p.add_argument("file")
    p.add_argument("--top", type=int, default=None,
                   help="show only the N most suspect call sites")
    p.set_defaults(func=cmd_localize)

    p = sub.add_parser("experiment",
                       help="regenerate one of the paper's tables/figures")
    p.add_argument("name", choices=EXPERIMENT_NAMES)
    p.add_argument("--profile", choices=("smoke", "fast", "paper"),
                   default="smoke")
    _add_engine_flags(p)
    p.set_defaults(func=cmd_experiment)

    p = sub.add_parser("eval",
                       help="evaluation-matrix artifacts: run / compare")
    esub = p.add_subparsers(dest="eval_command", required=True)

    pm = esub.add_parser("matrix",
                         help="run the declarative scenario grid, write "
                              "EVAL_matrix.json")
    pm.add_argument("--profile", choices=("smoke", "fast", "paper"),
                    default="smoke")
    pm.add_argument("-o", "--output", default="EVAL_matrix.json")
    pm.add_argument("--train", default=None, metavar="DS,DS",
                    help="override train datasets (mbi,corrbench,mix)")
    pm.add_argument("--test", default=None, metavar="DS,DS",
                    help="override test datasets (mbi,corrbench,mix,hypre)")
    pm.add_argument("--methods", default=None, metavar="M,M",
                    help="override backends (ir2vec,ir2vec-noga,gnn,static)")
    pm.add_argument("--mutation-levels", default=None, metavar="L,L",
                    help="override mutation-augmentation levels (e.g. 0,1,2)")
    pm.add_argument("--json", action="store_true",
                    help="print the full artifact instead of tables")
    _add_engine_flags(pm)
    pm.set_defaults(func=cmd_eval_matrix)

    pc = esub.add_parser("compare",
                         help="gate a matrix artifact against a baseline "
                              "(exit 1 on regression)")
    pc.add_argument("candidate", help="candidate EVAL_matrix.json")
    pc.add_argument("--baseline", required=True,
                    help="baseline EVAL_matrix.json to gate against")
    pc.add_argument("--max-f1-drop", type=float, default=0.05,
                    metavar="DROP",
                    help="tolerated F1 drop for overall scores and any "
                         "class without an explicit threshold")
    pc.add_argument("--class-threshold", action="append", default=None,
                    metavar="CLASS=DROP",
                    help="per-error-class F1 drop tolerance (repeatable)")
    pc.add_argument("--min-support", type=int, default=2, metavar="N",
                    help="skip classes with fewer baseline test samples")
    pc.add_argument("--json", action="store_true",
                    help="emit the verdict as JSON")
    pc.set_defaults(func=cmd_eval_compare)

    p = sub.add_parser("fuzz",
                       help="differential pipeline fuzzing: run / replay")
    fsub = p.add_subparsers(dest="fuzz_command", required=True)

    pf = fsub.add_parser("run",
                         help="run a fuzz campaign, write FUZZ_report.json")
    pf.add_argument("--seed", type=int, default=0,
                    help="campaign seed (same seed ⇒ same programs)")
    pf.add_argument("--budget", type=int, default=100, metavar="N",
                    help="generated programs per campaign")
    pf.add_argument("-n", "--nprocs", type=int, default=3,
                    help="simulated ranks per program (2..8)")
    pf.add_argument("--bug-ratio", type=float, default=0.4, metavar="R",
                    help="fraction of programs given one injected bug")
    pf.add_argument("--corpus-dir", default=None, metavar="PATH",
                    help="content-addressed corpus of minimized repro "
                         "cases; replayed first, extended with new finds")
    pf.add_argument("--no-known-bugs", action="store_true",
                    help="skip the built-in known-bug seed templates")
    pf.add_argument("--model", default=None, metavar="ARTIFACT",
                    help="optional pipeline artifact used as the "
                         "(non-blocking) model oracle")
    pf.add_argument("-o", "--output", default="FUZZ_report.json")
    pf.add_argument("--json", action="store_true",
                    help="print the full report instead of the summary")
    pf.add_argument("--obs-log", default=None, metavar="PATH",
                    help=_OBS_LOG_HELP)
    _add_engine_flags(pf)
    pf.set_defaults(func=cmd_fuzz_run)

    pr = fsub.add_parser("replay",
                         help="re-check every minimized corpus case "
                              "(exit 1 on signature mismatch)")
    pr.add_argument("--corpus-dir", required=True, metavar="PATH")
    pr.add_argument("-n", "--nprocs", type=int, default=3)
    _add_engine_flags(pr)
    pr.set_defaults(func=cmd_fuzz_replay)

    p = sub.add_parser("repair",
                       help="rule-based automated repair validated by "
                            "the differential harness")
    p.add_argument("file", nargs="?", default=None,
                   help="one mini-C source to repair")
    p.add_argument("--corpus", default=None, metavar="DIR",
                   help="repair every stored fuzz-corpus case")
    p.add_argument("--seed", type=int, default=7,
                   help="grammar seed for generated mutants (default 7)")
    p.add_argument("--budget", type=int, default=0, metavar="N",
                   help="generate N grammar programs and repair the "
                        "mutated ones (ground-truth repair rate)")
    p.add_argument("--include-correct", action="store_true",
                   help="also run generated correct programs (the "
                        "no-false-repair control group)")
    p.add_argument("--nprocs", type=int, default=3)
    p.add_argument("--max-attempts", type=int, default=12, metavar="N",
                   help="candidate patches gated per case (default 12)")
    p.add_argument("-o", "--output", default="REPAIR_report.json")
    p.add_argument("--baseline", default=None, metavar="PATH",
                   help="JSON {\"min_repair_rate\": R} gate — exit 1 "
                        "when the ground-truth repair rate drops below R")
    p.add_argument("--json", action="store_true",
                   help="print the full report as JSON")
    _add_engine_flags(p)
    p.set_defaults(func=cmd_repair)

    p = sub.add_parser("cache",
                       help="inspect / clear the persistent engine cache")
    p.add_argument("action", choices=("stats", "clear"))
    p.add_argument("--cache-dir", default=None, metavar="PATH",
                   help="cache directory (required)")
    p.add_argument("--stage", default=None, choices=("compile", "features"),
                   help="restrict 'clear' to one stage")
    p.set_defaults(func=cmd_cache)

    p = sub.add_parser("artifact",
                       help="inspect a saved pipeline artifact")
    p.add_argument("action", choices=("inspect",))
    p.add_argument("path", help="artifact directory or .zip")
    p.add_argument("--json", action="store_true",
                   help="emit the manifest summary as JSON")
    p.set_defaults(func=cmd_artifact)

    p = sub.add_parser("serve",
                       help="run the micro-batching HTTP detection service")
    p.add_argument("model", help="pipeline artifact to serve")
    p.add_argument("--poll-interval", type=float, default=None, metavar="S",
                   help="reload the artifact when its mtime changes, "
                        "checked every S seconds (default: disabled)")
    p.add_argument("--host", default=None,
                   help="bind address (default: 127.0.0.1)")
    p.add_argument("--port", type=int, default=None,
                   help="bind port, 0 = ephemeral (default: 8321)")
    p.add_argument("--max-batch", type=int, default=None, metavar="N",
                   help="samples coalesced per predict_batch call "
                        "(default: 16)")
    p.add_argument("--max-queue", type=int, default=None, metavar="N",
                   help="queued samples before 429 backpressure "
                        "(default: 256)")
    p.add_argument("--no-trace", action="store_true",
                   help="disable trace spans / metric collection "
                        "(default: on)")
    p.add_argument("--trace-ring", type=int, default=None, metavar="N",
                   help="completed traces kept for GET /v1/trace/<id> "
                        "(default: 256)")
    p.add_argument("--obs-log", default=None, metavar="PATH",
                   help=_OBS_LOG_HELP)
    _add_engine_flags(p)
    p.set_defaults(func=cmd_serve)

    p = sub.add_parser("fleet",
                       help="run N serve replicas behind a digest-routing "
                            "front door over one shared cache directory")
    p.add_argument("model", help="pipeline artifact every replica serves")
    p.add_argument("--host", default=None,
                   help="front-door bind address (default: 127.0.0.1)")
    p.add_argument("--port", type=int, default=None,
                   help="front-door port, 0 = ephemeral (default: 8320)")
    p.add_argument("--replicas", type=int, default=None, metavar="N",
                   help="serve subprocesses behind the front door "
                        "(default: 2)")
    p.add_argument("--request-timeout", type=float, default=None,
                   metavar="S",
                   help="per-replica forward timeout (default: 300)")
    p.add_argument("--workers", type=int, default=None, metavar="N",
                   help="engine workers per replica (default: 0, "
                        "serial)")
    p.add_argument("--cache-dir", default=None, metavar="PATH",
                   help="cache dir every replica shares (default: a "
                        "temp dir removed when the fleet stops)")
    p.set_defaults(func=cmd_fleet)

    def _add_obs_client_flags(sp: argparse.ArgumentParser) -> None:
        sp.add_argument("--host", default=None,
                        help="server address (default: 127.0.0.1)")
        sp.add_argument("--port", type=int, default=None,
                        help="server port (default: 8321)")
        sp.add_argument("--timeout", type=float, default=10.0, metavar="S",
                        help="HTTP timeout in seconds (default: 10)")

    p = sub.add_parser("obs",
                       help="scrape telemetry from a running server")
    osub = p.add_subparsers(dest="obs_command", required=True)
    po = osub.add_parser("dump",
                         help="print /metrics (+ recent traces) of a "
                              "running server")
    po.add_argument("--format", choices=("json", "prometheus"),
                    default="json",
                    help="json: metrics + trace index; prometheus: raw "
                         "exposition text")
    _add_obs_client_flags(po)
    po.set_defaults(func=cmd_obs_dump)

    p = sub.add_parser("trace",
                       help="fetch one trace from a running server and "
                            "print its span tree")
    p.add_argument("trace_id", help="value of the X-Repro-Trace header")
    p.add_argument("--json", action="store_true",
                   help="print the raw trace document")
    _add_obs_client_flags(p)
    p.set_defaults(func=cmd_trace)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    if not getattr(args, "engine_flags", False) \
            or (args.workers is None and args.cache_dir is None):
        return args.func(args)
    # --workers/--cache-dir install the process default engine; the test
    # suite drives main([...]) in-process, so restore the previous one
    # afterwards rather than leaking one subcommand's engine into the
    # next — and close this one's worker pool deterministically (an
    # abandoned pool dies noisily in the interpreter's atexit phase).
    from repro.engine import (
        EngineConfig,
        ExecutionEngine,
        default_engine,
        set_default_engine,
    )

    previous = default_engine()
    engine = ExecutionEngine(EngineConfig(workers=args.workers or 0,
                                          cache_dir=args.cache_dir))
    set_default_engine(engine)
    try:
        return args.func(args)
    finally:
        set_default_engine(previous)
        engine.close()


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
