#!/usr/bin/env python3
"""Penalty-weight sweep for the collocation fit: how the data term, the
ODE-fidelity term and the drift estimate trade off as lambda varies."""

import argparse

import numpy as np

from driftlab import (
    BasisConfig,
    NoisyObservationSet,
    ObservationModel,
    PenaltySpec,
    collocation_fit,
    map_equivalent_sigma,
)
from driftlab.models import gbm_beta_spec
from driftlab.rng import stream


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--beta", type=float, default=0.3)
    ap.add_argument("--noise", type=float, default=0.05)
    ap.add_argument("--n-obs", type=int, default=50)
    ap.add_argument("--t-end", type=float, default=2.0)
    ap.add_argument("--lambdas", type=str, default="0.01,1,100,10000")
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()

    times = np.linspace(0.0, args.t_end, args.n_obs)
    y = np.exp(args.beta * times)
    if args.noise:
        y = y + args.noise * stream(args.seed, "noise").standard_normal(args.n_obs)
    obs = NoisyObservationSet(times=times, y_values=y)
    om = ObservationModel(kind="gaussian", scale=max(args.noise, 1e-6))
    basis = BasisConfig.from_times(times)

    print(f"{'lambda':>10}  {'beta_hat':>9}  {'data term':>10}  {'penalty':>10}  "
          f"{'MAP sigma':>9}")
    for lam in (float(v) for v in args.lambdas.split(",")):
        fit, _ = collocation_fit(obs, om, gbm_beta_spec(0.5, 1.0), basis,
                                 PenaltySpec(lam=lam), max_outer=80)
        print(f"{lam:>10.4g}  {fit.theta_hat[0]:>9.5f}  "
              f"{fit.diagnostics['data_term']:>10.4g}  "
              f"{fit.diagnostics['penalty_term']:>10.4g}  "
              f"{map_equivalent_sigma(lam):>9.5f}")


if __name__ == "__main__":
    main()
