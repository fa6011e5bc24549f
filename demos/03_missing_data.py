"""Inference when covariate cells are missing at random.

Zero-filling missing cells and rescaling columns by the observation rate
turns missingness into a measurement-error problem with an estimable noise
covariance.  Nothing about the missingness pattern needs to be known in
advance; the observation rate is estimated from the data.
"""

import numpy as np

from eivbands import Dataset, NoiseSpec, estimate_mar, run_inference

rng = np.random.default_rng(3)
n, p, miss = 400, 80, 0.2

beta = np.zeros(p)
beta[:3] = [1.2, -0.9, 0.7]
x = rng.normal(size=(n, p))
y = x @ beta + 0.4 * rng.normal(size=n)

mask = rng.uniform(size=(n, p)) >= miss  # True = observed
Z = np.where(mask, x, 0.0)
data = Dataset(y=y, Z=Z, mask=mask)

est = estimate_mar(data)
print(f"n = {n}, p = {p}, true missing rate = {miss}")
print(f"estimated missing rate: {est.miss_prob:.3f} (truth {miss})")
print(f"estimated noise variance, first 3 columns: "
      f"{np.round(est.noise_var[:3], 3)}\n")

table = run_inference(data, NoiseSpec.mar(), targets=[0, 1, 2, 5])
oracle = run_inference(Dataset(y=y, Z=x), NoiseSpec.known(np.zeros(p)),
                       targets=[0, 1, 2, 5])

print(f"{'coord':>5} {'truth':>6} | {'with holes':>10} {'95% CI':>18} "
      f"| {'full data':>9}")
for k, j in enumerate(table.targets):
    ci = f"[{table.ci_low[k]:+.3f}, {table.ci_high[k]:+.3f}]"
    print(f"{j:>5} {beta[j]:>+6.2f} | {table.estimates[k]:>+10.3f} "
          f"{ci:>18} | {oracle.estimates[k]:>+9.3f}")

print(f"\nWith {miss:.0%} of cells deleted the intervals widen but stay")
print("centered; the full-data column shows what is lost to missingness.")
