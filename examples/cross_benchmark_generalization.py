#!/usr/bin/env python3
"""Cross-benchmark generalization (the paper's hardest scenario).

Trains on one suite and validates on the other, in both directions and
with GA feature selection on/off — reproducing the Section V-C finding
that feature selection is what makes cross-suite transfer work (the
paper measures up to +47% accuracy from the GA in Cross).  The runs are
the cross cells of one evaluation-matrix grid.

Run:  python examples/cross_benchmark_generalization.py
"""

from repro.eval import MatrixSpec, ReproConfig, cell_report, run_matrix
from repro.eval.matrix import NO_GA_METHOD
from repro.eval.reporting import render_table


def main() -> None:
    config = ReproConfig.fast()
    mbi = config.mbi()
    corr = config.corrbench()
    print(f"MBI: {len(mbi)} codes; MPI-CorrBench: {len(corr)} codes "
          "(stratified fast-profile subsamples)\n")

    spec = MatrixSpec(train_datasets=("mbi", "corrbench"),
                      test_datasets=("mbi", "corrbench"),
                      methods=(NO_GA_METHOD, "ir2vec"), mutation_levels=(0,))
    names = {"mbi": "MBI", "corrbench": "CORR"}
    rows = []
    for cell in run_matrix(spec, config)["cells"]:
        if cell["scenario"] != "cross":
            continue
        report = cell_report(cell)
        rows.append(["ON" if cell["method"] == "ir2vec" else "OFF",
                     names[cell["train_dataset"]],
                     names[cell["test_dataset"]],
                     report.counts.tp, report.counts.tn,
                     report.counts.fp, report.counts.fn,
                     report.recall, report.precision, report.f1,
                     report.accuracy])

    print(render_table(
        ["GA", "Train", "Validate", "TP", "TN", "FP", "FN",
         "Recall", "Precision", "F1", "Accuracy"],
        rows, "IR2vec Cross-benchmark results (paper Table V protocol)"))

    ga_on = [r for r in rows if r[0] == "ON"]
    ga_off = [r for r in rows if r[0] == "OFF"]
    for on, off in zip(ga_on, ga_off):
        delta = on[-1] - off[-1]
        print(f"\nGA effect on {on[1]} -> {on[2]}: "
              f"{off[-1]:.3f} -> {on[-1]:.3f} ({delta:+.3f})")


if __name__ == "__main__":
    main()
