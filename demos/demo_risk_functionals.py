"""Walkthrough: risk and inequality functionals of the hidden error law.

Estimates CVaR / expected shortfall, mean excess, the Lorenz curve and two
quantile inequality ratios from regression data where the variable of
interest is confounded by covariates.
"""

from statistics import NormalDist

import numpy as np

import quantfunc as qf

rng = np.random.default_rng(11)
n = 2000

# Errors: centered exponential (heavy right tail relative to its left)
rate = 1.0
z = rng.exponential(1.0 / rate, n) - 1.0 / rate
x = rng.uniform(0.0, 1.0, (n, 1))
y = 0.5 + 3.0 * x[:, 0] + z
ds = qf.Dataset(y=y, x=x)

q_hat = qf.centered_process(qf.averaged_two_step_process(ds, lam=0.5))

print("CVaR (expected shortfall) of the hidden errors")
print("alpha   estimate   true value")
for alpha in (0.8, 0.9, 0.95):
    est = qf.cvar(q_hat, alpha)
    # centered exponential: CVaR_a = (1 - log(1 - a)) / rate - 1 / rate
    truth = (1.0 - np.log(1.0 - alpha)) / rate - 1.0 / rate
    print(f"{alpha:4.2f}  {est.value:9.4f}  {truth:10.4f}")

print("\nmean excess over thresholds (memoryless: constant 1/rate)")
for gamma in (0.0, 0.5, 1.0):
    print(f"gamma={gamma:3.1f}: {qf.mean_excess(q_hat, gamma).value:.4f}")

# Inequality measures want a nonnegative variable: shift into income scale
income = qf.empirical_quantile_process(q_hat.values - q_hat.values.min() + 0.1)
print("\nLorenz curve of the shifted errors")
for a in (0.2, 0.5, 0.8):
    print(f"L({a:3.1f}) = {qf.lorenz(income, a).value:.4f}")
print(f"bottom-vs-top share ratio J(0.5) = "
      f"{qf.gastwirth_j(income, 0.5).value:.4f}")
print(f"symmetric quantile ratio R(0.5)  = "
      f"{qf.staudte_r(income, 0.5).value:.4f}")

# Any linear functional of the quantile process works the same way
mean_est = qf.linear_functional(q_hat, lambda u: 1.0)
print(f"\nunit-weight linear functional (the mean): {mean_est:.4f} "
      f"(errors are centered, truth 0)")
std_normal = NormalDist()
print(f"normal-comparison CVaR at 0.9 would be "
      f"{std_normal.pdf(std_normal.inv_cdf(0.9)) / 0.1:.4f}")
