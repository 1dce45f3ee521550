"""
A small replication study
=========================

Desk-scale version of the benchmark: simulate scenario-I data at two
sizes, fit all four methods, and summarize loading-space distances,
signal RMSE and timing.  The experiment runner writes the same numbers
to CSV; here they are collected in memory for display.
"""
import tempfile

import numpy as np

from tuckerfactor import (
    EstimatorConfig,
    ExperimentConfig,
    run_experiment,
    scenario_config,
)


def main(reps=5, seed=29, out_dir=None):
    if out_dir is None:
        with tempfile.TemporaryDirectory(prefix="study_") as tmp:
            return main(reps, seed, tmp)
    print("=" * 70)
    print(f"Replication study, scenario I, {reps} replications per size")
    print("=" * 70)

    methods = ["mopca", "pmopca", "ipmopca", "itipup"]
    sizes = [(20, (20, 20, 20)), (50, (50, 50, 50))]
    for t_len, dims in sizes:
        config = ExperimentConfig(
            methods=methods,
            replications=reps,
            out_dir=f"{out_dir}/T{t_len}",
            sim=scenario_config("I", T=t_len, dims=dims, seed=seed),
            estimators={
                m: EstimatorConfig(method=m, ranks=(2, 3, 4)) for m in methods
            },
        )
        reports = run_experiment(config)
        print(f"\nsize (T, dims) = ({t_len}, {dims}) -> "
              f"{config.out_dir}/results.csv")
        print(f"{'method':<10}{'mode-1 distance':>17}{'RMSE':>10}"
              f"{'RE':>10}{'seconds':>10}")
        for m in methods:
            rs = [r for r in reports if r.method == m and r.error is None]
            d1 = np.mean([r.distances[0] for r in rs])
            rmse = np.mean([r.rmse for r in rs])
            re = np.mean([r.reconstruction for r in rs])
            sec = np.mean([r.seconds for r in rs])
            print(f"{m:<10}{d1:>17.4f}{rmse:>10.3f}{re:>10.3f}{sec:>10.3f}")

    print("\nNote: distances shrink with size for every method.  The")
    print("mopca seconds include the replication's one moment pass, which")
    print("the other three methods then reuse, so a row's seconds are its")
    print("share of the replication and the four rows sum to all the work.")
    print("\nDone.")


if __name__ == "__main__":
    main()
