"""A desk-scale Monte Carlo comparison of sampling strategies.

Logistic data with two normal covariates; the candidate set holds the
main-effects generator plus every square-term extension.  Six strategies
are compared at three subsample sizes: random sampling, optimal sampling
under each candidate (one of which is the generator, the others are
"wrong model" runs), and the model-robust average.  Lower SMSE is
better; the run takes a minute or two.
"""

import numpy as np

from glmsub import (
    Logistic,
    ModelSpec,
    MultivariateNormalCovariates,
    ScenarioConfig,
    enumerate_quadratic_models,
    run_study,
)

config = ScenarioConfig(
    family=Logistic(),
    covariates=MultivariateNormalCovariates(mean=np.zeros(2), cov=1.5 * np.eye(2)),
    data_generating_model=ModelSpec(main_effects=(0, 1)),
    true_theta=np.array([-1.0, 0.5, 0.1]),
    model_set=enumerate_quadratic_models(2, (0, 1)),
    n_population=10_000,
    r0=100,
    r_grid=(200, 600, 1400),
    n_replicates=100,
    master_seed=2026,
)

records = run_study(config)

print(f"{'strategy':<14}{'r':>6}{'SMSE':>12}{'mean info':>14}{'failed':>8}")
for rec in records:
    print(
        f"{rec.scenario:<14}{rec.r:>6}{rec.smse:>12.5f}"
        f"{rec.mean_model_info:>14.3e}{rec.n_failed:>8}"
    )

by_scenario = {(rec.scenario, rec.r): rec.smse for rec in records}
r = config.r_grid[-1]
print(
    f"\nat r={r}: random/model-robust SMSE ratio = "
    f"{by_scenario[('random', r)] / by_scenario[('model-robust', r)]:.2f}"
)
