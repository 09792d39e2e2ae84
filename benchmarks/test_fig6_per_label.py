"""Fig. 6: IR2vec per-label (multi-class) accuracy on MBI."""

from benchmarks.conftest import run_experiment

#: Labels below this validation-sample count carry no statistical signal
#: at subsampled profiles; shape assertions skip them.
MIN_SUPPORT = 5


def test_fig6_per_label(benchmark, config, profile_name):
    acc, support = run_experiment(benchmark, "fig6", config, profile_name)
    # Paper shape: Correct / Call Ordering are among the best-predicted,
    # the rare Resource Leak among the worst.  Only compare labels whose
    # validation support is meaningful at this profile.
    reliable = {k: v for k, v in acc.items() if support.get(k, 0) >= MIN_SUPPORT}
    assert "Correct" in reliable and "Call Ordering" in reliable
    leak = reliable.get("Resource Leak")
    if leak is not None:
        assert reliable["Correct"] >= leak
        assert reliable["Call Ordering"] >= leak
    # The best and worst reliable labels must be separated: the paper's
    # point is that label prediction quality depends strongly on the type.
    assert max(reliable.values()) - min(reliable.values()) >= 0.25
