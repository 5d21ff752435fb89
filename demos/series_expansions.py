"""Series expansions vs the incomplete-beta forms.

Shows the cdf/density expansions converging to the direct evaluations,
the mgf and the first four moments, skewness/kurtosis surfaces, and the
entropy formula.
"""

from bgedist import BGE
from bgedist.series import (cdf_series, closed_form_cdf_integer, mgf,
                            moment_set, pdf_mixture, shannon_entropy,
                            skewness_kurtosis)

d_real = BGE(1.5, 2.7, 1.0, 1.3)   # real non-integer b: infinite expansion
d_int = BGE(2.0, 3.0, 1.0, 1.5)    # integer b: finite binomial sums
d_small = BGE(2.0, 0.3, 1.0, 1.5)  # small b: a slow one-signed tail, summed as an integral

print("--- cdf: series vs incomplete-beta evaluation ---")
for d in (d_real, d_int):
    print(d)
    for x in (0.3, 1.0, 2.5):
        res = cdf_series(d, x, full_output=True)
        print(f"  x={x:4.1f}: series={res.value:.12f} ({res.terms} terms, "
              f"bound {res.error_bound:.1e})  direct={d.cdf(x):.12f}")
x = d_small.quantile(0.99)
res = cdf_series(d_small, x, full_output=True)
print(f"{d_small} at its 0.99 quantile, where the terms decay like a power:")
print(f"  x={x:4.1f}: series={res.value:.12f} ({res.terms} terms, "
      f"bound {res.error_bound:.1e})  direct={d_small.cdf(x):.12f}")

print("\n--- density mixture and integer-parameter closed forms ---")
for x in (0.5, 1.5):
    print(f"  x={x}: mixture={pdf_mixture(d_int, x):.12f}  direct={d_int.pdf(x):.12f}")
print(f"  integer-a closed form at x=1: "
      f"{closed_form_cdf_integer(BGE(3, 2.5, 1, 1), 1.0, 'integer_a'):.12f} "
      f"vs {BGE(3, 2.5, 1, 1).cdf(1.0):.12f}")

print("\n--- mgf and the first four moments ---")
for t in (-0.5, 0.0, 0.4):
    print(f"  M({t:+.1f}) = {mgf(d_int, t):.8f}")
ms = moment_set(d_int)
print(f"  mu'_1..4 = {ms.mu1:.6f}, {ms.mu2:.6f}, {ms.mu3:.6f}, {ms.mu4:.6f}")
print(f"  variance = {ms.variance:.6f}, skewness = {ms.skewness:.4f}, "
      f"kurtosis = {ms.kurtosis:.4f}")

print("\n--- skewness across the (a, b) plane at lam = alpha = 1 ---")
print("(both columns decrease with a; the b-direction flips sign at a = 1,")
print(" where the distribution is exactly exponential: see errata.json)")
bs = (0.5, 1.0, 2.0, 5.0)
print("      " + "".join(f"b={b:<8}" for b in bs))
for a in (0.5, 1.0, 2.0, 5.0):
    row = [skewness_kurtosis(BGE(a, b, 1.0, 1.0))[0] for b in bs]
    print(f"a={a:<4}" + "".join(f"{s:<10.4f}" for s in row))

print("\n--- entropy ---")
for d in (BGE.exponential(1.0), d_int, d_real):
    print(f"  H[{d}] = {shannon_entropy(d):.6f}")
