"""Bundled three-asset benchmark used by the ``verify`` subcommand.

The market below has independently recomputed frontier statistics (exact
rational arithmetic applied to the same decimal inputs).  ``verify`` replays
the whole pipeline against the frozen reference decimals and reports the
relative deltas, making any numerical regression visible immediately.
"""

from __future__ import annotations

from typing import Any

import numpy as np

from .frontier import frontier_coefficients, special_portfolios
from .market import AssetUniverse, gram_from_universe
from .multiperiod import propagate

MEAN_RETURNS = (1.162, 1.246, 1.228)

COVARIANCE = (
    (0.0146, 0.0187, 0.0145),
    (0.0187, 0.0854, 0.0104),
    (0.0145, 0.0104, 0.0289),
)

HORIZON = 4

#: Reference decimals, correct to the digits shown.
ONE_PERIOD_REFERENCE = {
    "omega_sq_y": 0.87107,
    "mu_y": 0.74242,
    "mu_y_over_omega_sq_y": 0.85231,
    "hr_sq_y": 0.63278,
    "hr_sq_x": 0.35665,
    "hr_sq_x_plus_hr_sq_y": 0.98943,
}

MULTIPERIOD_REFERENCE = {
    "multiperiod_hr_sq_x": 0.81550,
    "multiperiod_mu_y": 0.30381,
    "multiperiod_omega_sq_y": 0.57571,
    "multiperiod_mu_z": 1.64663,
    "multiperiod_sigma_sq_z": 0.075446,
    "multiperiod_sr_inv_sq_x": 0.22625,
    "frontier_omega_level": 0.57571,
    "frontier_omega_curvature": 1.22625,
    "frontier_omega_center": 0.30381,
    "frontier_sigma_level": 0.075446,
    "frontier_sigma_curvature": 0.22625,
    "frontier_sigma_center": 1.64663,
}

DEFAULT_REL_TOL = 1e-5


def benchmark_market():
    universe = AssetUniverse(
        mean_returns=np.array(MEAN_RETURNS), covariance=np.array(COVARIANCE)
    )
    return gram_from_universe(universe)


def verification_report(rel_tol: float = DEFAULT_REL_TOL) -> dict[str, Any]:
    """Recompute every benchmark statistic and diff it against the references."""
    market = benchmark_market()
    sp = special_portfolios(market)
    one_period = {
        "omega_sq_y": sp.omega_sq_y,
        "mu_y": sp.mu_y,
        "mu_y_over_omega_sq_y": sp.mu_y / sp.omega_sq_y,
        "hr_sq_y": sp.hr_sq_y,
        "hr_sq_x": sp.hr_sq_x,
        "hr_sq_x_plus_hr_sq_y": sp.hr_sq_x + sp.hr_sq_y,
    }
    stats_n = propagate(sp, HORIZON)
    coeffs = frontier_coefficients(stats_n)
    assert coeffs.mu_omega is not None and coeffs.mu_sigma is not None
    mu_z_n = coeffs.mu_sigma.center
    multi = {
        "multiperiod_hr_sq_x": stats_n.hr_sq_x,
        "multiperiod_mu_y": stats_n.mu_y,
        "multiperiod_omega_sq_y": stats_n.omega_sq_y,
        "multiperiod_mu_z": mu_z_n,
        "multiperiod_sigma_sq_z": coeffs.mu_sigma.level,
        "multiperiod_sr_inv_sq_x": coeffs.mu_sigma.curvature,
        "frontier_omega_level": coeffs.mu_omega.level,
        "frontier_omega_curvature": coeffs.mu_omega.curvature,
        "frontier_omega_center": coeffs.mu_omega.center,
        "frontier_sigma_level": coeffs.mu_sigma.level,
        "frontier_sigma_curvature": coeffs.mu_sigma.curvature,
        "frontier_sigma_center": coeffs.mu_sigma.center,
    }

    rows = []
    for computed, reference in (
        (one_period, ONE_PERIOD_REFERENCE),
        (multi, MULTIPERIOD_REFERENCE),
    ):
        for name, ref in reference.items():
            value = computed[name]
            rel_delta = abs(value - ref) / abs(ref)
            rows.append(
                {
                    "name": name,
                    "computed": value,
                    "reference": ref,
                    "rel_delta": rel_delta,
                    "pass": rel_delta < rel_tol,
                }
            )
    return {
        "dataset": "three-asset-iid-benchmark",
        "horizon": HORIZON,
        "rel_tol": rel_tol,
        "values": rows,
        "all_pass": all(row["pass"] for row in rows),
    }
