"""Order statistics of a BGE sample: direct formula and mixture form.

The direct density is the production route; the mixture expansion into
shifted-parameter BGE densities is validated against it (the published
coefficient form needed a correction, recorded in errata.json and
re-derived in reports/order_stat_reconciliation.txt).
"""

import numpy as np

from bgedist import BGE
from bgedist.order_stats import (OrderStatIndex, order_stat_mgf, order_stat_moment,
                                 order_stat_pdf_direct, order_stat_pdf_mixture)

dist = BGE(1.5, 2.5, 1.0, 1.2)
cap = 220

print(f"parent: {dist}\n")
print("--- density of the i-th of n = 3 at x = 1.0 ---")
for i in (1, 2, 3):
    idx = OrderStatIndex(i, 3)
    direct = order_stat_pdf_direct(dist, idx, 1.0)
    mixture = order_stat_pdf_mixture(dist, idx, 1.0, per_index_cap=cap)
    print(f"  i={i}: direct={direct:.10f}  mixture={mixture:.10f}  "
          f"rel diff={(abs(mixture - direct) / direct):.2e}")

print("\n--- moments are stochastically ordered in the rank ---")
n = 4
for r in (1, 2):
    means = [order_stat_moment(dist, OrderStatIndex(i, n), r) for i in range(1, n + 1)]
    print(f"  E[X_(i:{n})^{r}]: " + "  ".join(f"{m:.4f}" for m in means))

print("\n--- mgf of the minimum of 2, vs simulation ---")
idx = OrderStatIndex(1, 2)
rng = np.random.default_rng(17)
pairs = dist.sample(400_000, rng).values.reshape(-1, 2)
minima = pairs.min(axis=1)
for t in (0.0, 0.3, 0.6):
    analytic = order_stat_mgf(dist, idx, t)
    empirical = float(np.exp(t * minima).mean())
    print(f"  t={t:3.1f}: mgf={analytic:.5f}  empirical={empirical:.5f}")

print("\n--- completeness: mixing all ranks returns the parent ---")
x = 0.8
recovered = sum(order_stat_pdf_direct(dist, OrderStatIndex(i, n), x)
                for i in range(1, n + 1)) / n
print(f"  sum_i f_(i:{n})({x})/{n} = {recovered:.12f}  parent pdf = {dist.pdf(x):.12f}")
