"""Synthetic datasets with a known truth, in the ingestion format.

``run_simulate`` draws a spread series, either from a two-regime
switching autoregression (``regimes``) or as piecewise-constant normal
segments (``steps``), writes a quotation table whose per-day spread
reproduces it, and writes the truth beside it: the true regime path or the
true change-points, for checking each view against.
"""

from __future__ import annotations

from pathlib import Path
from typing import TYPE_CHECKING

import numpy as np

from . import data as dio
from . import switching as msmod
from .errors import ValidationError
from .regression import LinearMean

if TYPE_CHECKING:
    from .pipeline import RunConfig


def _spread_to_weeks(spread_values, rng) -> dio.QuotationTable:
    """Quotation table whose per-day spread reproduces ``spread_values``,
    one week per value from 1821 week 1 on, 52 weeks a year.

    A common per-day level offset is added to all three gold-silver prices;
    the spread (max minus min) is invariant to it, and it gives every
    column the variance the feature standardization needs. Each week draws
    five normals in turn: the Tuesday and Friday levels, then one value for
    each exchange rate, which both days share.
    """
    s = np.asarray(spread_values, dtype=float)[:, None]
    n = s.shape[0]
    z = rng.standard_normal((n, 5))
    level = 15.0 + 0.05 * z[:, :2]  # (n, 2): Tuesday, Friday
    rates = np.array([25.0, 13.0, 1.9]) + np.array([0.05, 0.03, 0.01]) * z[:, 2:]
    values = np.empty((n, len(dio.SERIES), len(dio.DAYS)))
    values[:, 0] = level              # poa
    values[:, 1] = level + s / 2.0    # lgs
    values[:, 2] = level + s          # hoa
    values[:, 3:] = rates[:, :, None]  # lpv, hlv, phv
    i = np.arange(n)
    return dio.QuotationTable(
        years=1821 + i // 52, weeks=i % 52 + 1, values=values.reshape(n, -1)
    )


def run_simulate(config: RunConfig) -> dict:
    """Write a synthetic dataset in the ingestion format plus a ground-truth
    sidecar (true regime states or true change-point indices)."""
    outdir = Path(config.outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng(config.sim_seed + 1)  # exchange-rate noise only
    truth = {"kind": config.sim_kind, "seed": config.sim_seed}

    if config.sim_kind == "regimes":
        params = msmod.MsParams(
            transition=msmod.transition_from_pq(config.sim_p, config.sim_q),
            means=tuple(LinearMean(np.array(c)) for c in config.sim_coefs),
            sigmas=np.array(config.sim_sigmas),
        )
        y, states = msmod.simulate(
            params, T=config.sim_T, seed=config.sim_seed, burn_in=200
        )
        shift = max(0.0, 0.01 - float(y.min()))
        y = y + shift
        # a level shift c maps each intercept a0 to a0 + c(1 - sum(a_1..a_l))
        shifted = [
            [c[0] + shift * (1.0 - sum(c[1:]))] + list(c[1:])
            for c in config.sim_coefs
        ]
        truth.update(shift=shift, transition=params.transition.tolist(), coefs=shifted,
                     sigmas=list(config.sim_sigmas), true_states=states.tolist())
    elif config.sim_kind == "steps":
        tau = tuple(config.sim_tau)
        bounds = (0,) + tau + (config.sim_T,)
        if list(bounds) != sorted(set(bounds)):
            raise ValidationError(f"sim_tau {tau} not increasing within 0..{config.sim_T}")
        if len(config.sim_levels) != len(tau) + 1 or len(config.sim_stds) != len(tau) + 1:
            raise ValidationError("sim_levels and sim_stds must have one entry per segment")
        if not all(std >= 0 for std in config.sim_stds):
            raise ValidationError(f"sim_stds {list(config.sim_stds)} must all be >= 0")
        z = np.random.default_rng(config.sim_seed).standard_normal(config.sim_T)
        n = np.diff(bounds)
        y = np.maximum(
            np.repeat(config.sim_levels, n) + np.repeat(config.sim_stds, n) * z, 0.0
        )
        truth.update(true_tau=list(tau), levels=list(config.sim_levels),
                     stds=list(config.sim_stds))
    else:
        raise ValidationError(f"unknown sim_kind {config.sim_kind!r}")

    table = _spread_to_weeks(y, rng)
    dataset_path = outdir / "dataset.csv"
    dio.write_dataset(table, str(dataset_path))
    dio.write_json(truth, outdir / "dataset_truth.json")
    return {
        "rows": len(table),
        "dataset": str(dataset_path),
        "truth": str(outdir / "dataset_truth.json"),
    }
