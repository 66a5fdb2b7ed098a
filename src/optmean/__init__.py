"""Optimal sample-mean estimation from five-number-summary fragments.

The package covers the full workflow: normal order-statistic moments
(`order_stats`), MSE-optimal and approximate estimator weights (`weights`),
the mean and SD estimators themselves (`estimators`), the relative-MSE
evaluation protocol (`simulation`), and a random-effects meta-analysis
pipeline over heterogeneous study summaries (`meta`). The `optmean` CLI
exposes each stage with reproducible seeds and machine-readable output.
Names are imported from the submodules, and each submodule's ``__all__``
lists them.
"""

__version__ = "0.2.2"
