"""Pointwise inference when covariates carry known measurement noise.

We observe z = x + w instead of x, with w ~ N(0, 0.5^2) per cell.  A plain
lasso on z is biased toward zero; subtracting the noise covariance from the
Gram matrix and debiasing through orthogonal scores recovers the signal with
honest standard errors.
"""

import numpy as np

from eivbands import Dataset, NoiseSpec, run_inference

rng = np.random.default_rng(4)
n, p, sigma_w = 300, 150, 0.5

beta = np.zeros(p)
beta[:4] = [1.5, -1.0, 0.8, 0.6]
x = rng.normal(size=(n, p))
y = x @ beta + 0.5 * rng.normal(size=n)
Z = x + sigma_w * rng.normal(size=(n, p))

targets = [0, 1, 2, 3, 10]
print(f"n = {n}, p = {p}, measurement sd = {sigma_w}")
print(f"true coefficients at the targets: {[float(beta[j]) for j in targets]}\n")

corrected = run_inference(Dataset(y=y, Z=Z),
                          NoiseSpec.known(np.full(p, sigma_w**2)), targets)
naive = run_inference(Dataset(y=y, Z=Z), NoiseSpec.known(np.zeros(p)),
                      targets)

print(f"{'coord':>5} {'truth':>6} | {'corrected':>9} {'95% CI':>18} "
      f"| {'naive':>8}")
for k, j in enumerate(corrected.targets):
    ci = f"[{corrected.ci_low[k]:+.3f}, {corrected.ci_high[k]:+.3f}]"
    print(f"{j:>5} {beta[j]:>+6.2f} | {corrected.estimates[k]:>+9.3f} "
          f"{ci:>18} | {naive.estimates[k]:>+8.3f}")

print("\nThe naive column shows the classic attenuation: every nonzero")
print("coefficient shrinks toward zero, while the corrected estimates")
print("center on the truth and their intervals cover it.")
