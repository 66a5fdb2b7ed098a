"""Regenerate the stored references under perfbench/data.

    PYTHONPATH=src python3 perfbench/make_references.py

Writes the quadrature weight table for every n = 4Q+1 in 5..501, the
high-replicate RMSE reference for the monte_carlo workload's simulate
grid, the s3 power-law fit of the quad_table grid, and the pooled results
of the bundled study table under both profiles. It takes about ten minutes
on one core; run it only when the program's intended outputs change.
"""

from __future__ import annotations

import csv
import json
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import workloads as wl  # noqa: E402
from optmean.meta import PROFILES, load_bundled_studies, run_case_study  # noqa: E402
from optmean.order_stats import moments_quadrature  # noqa: E402
from optmean.simulation import SimulationConfig, distribution, run_rmse  # noqa: E402
from optmean.weights import (fit_power_law, optimal_weight_s1,  # noqa: E402
                             optimal_weight_s2, optimal_weights_s3)

RMSE_REFERENCE_REPS = 1_000_000
RMSE_REFERENCE_SEED = 20151


def weights_table(path):
    rows = {}
    for n in range(5, 502, 4):
        m = moments_quadrature(n)
        s3 = optimal_weights_s3(m)
        rows[n] = (optimal_weight_s1(m).w1, optimal_weight_s2(m).w1, s3.w1, s3.w2)
        moments_quadrature.cache_clear()
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(["n", "s1", "s2", "s3_w1", "s3_w2"])
        for n, vals in rows.items():
            w.writerow([n] + [repr(v) for v in vals])
    return rows


def rmse_table(path):
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(["distribution", "n", "method", "rmse", "mc_std_error", "replicates"])
        for dist in wl.SIM_REPS:
            cfg = SimulationConfig(distribution(dist), "s1", methods=wl.SIM_METHODS,
                                   n_grid=wl.parse_grid(wl.SIM_GRID),
                                   replicates=RMSE_REFERENCE_REPS,
                                   seed=RMSE_REFERENCE_SEED)
            for r in run_rmse(cfg).rows:
                w.writerow([dist, r.n, r.method, repr(r.rmse), repr(r.mc_std_error),
                            r.replicates])
            fh.flush()


def main():
    os.makedirs(wl.DATA, exist_ok=True)
    rows = weights_table(os.path.join(wl.DATA, "reference_weights.csv"))
    table = wl.parse_grid(wl.QUAD_GRID)
    fit = fit_power_law([(n, rows[n][2], rows[n][3]) for n in table], "s3")
    bundled = {}
    for profile, (mean_method, sd_method) in PROFILES.items():
        records = load_bundled_studies()
        res = run_case_study(records, mean_method, sd_method)
        bundled[profile] = {"rows": len(records), "pooled_d": res.pooled_d,
                            "q": res.q, "i_squared": res.i_squared}
    doc = {"fit_s3": {"c1": fit.c1, "c2": fit.c2, "c3": fit.c3, "c4": fit.c4,
                      "residual": fit.residual},
           "bundled": bundled,
           "rmse_reference": {"replicates": RMSE_REFERENCE_REPS,
                              "seed": RMSE_REFERENCE_SEED}}
    with open(os.path.join(wl.DATA, "reference.json"), "w") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")
    rmse_table(os.path.join(wl.DATA, "reference_rmse.csv"))


if __name__ == "__main__":
    main()
