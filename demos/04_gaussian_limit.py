"""How sharp is the Gaussian-style bound for normalized coin sums?

Take n fair +-1/2 coins and normalize: T = 2 S(n) / sqrt(n).  The norm
machinery gives P(T > x) <= exp(-x^2/2), exactly the classic bound.  A
standard Gaussian, which T approaches, has the tail asymptotics
phi(x)/x ~ exp(-x^2/2) / (x sqrt(2 pi)), so the measured ratio

    r(x) = P(T > x) * x * exp(x^2/2)

should flatten toward a constant of order 1/sqrt(2 pi) ~ 0.3989 as n and
x grow.  The exact binomial tables let us watch that happen with no
sampling error at all.

exact_tail computes the two-sided tail max(P(T > x), P(T < -x)); the
fair-coin law is symmetric, so that is P(T > x).  A one-sided tail of any
other law is one line over table.support and table.masses.
"""

import math

from subgauss import exact_tail, poisson_binomial_table

print("       n      x=1.0      x=1.5      x=2.0      x=2.5")
for n in (64, 256, 1024, 4096, 16384):
    table = poisson_binomial_table([0.5] * n)
    rn = math.sqrt(n)
    row = [f"{n:8d}"]
    for x in (1.0, 1.5, 2.0, 2.5):
        tail = exact_tail(table, x * rn / 2.0)
        row.append(f"{tail * x * math.exp(x * x / 2):10.6f}")
    print(" ".join(row))

print()
print(f"1/sqrt(2 pi) = {1 / math.sqrt(2 * math.pi):10.6f}")
print()
print("the bound itself is never crossed; at n = 4096:")
table = poisson_binomial_table([0.5] * 4096)
for x in (1.0, 2.0, 3.0):
    tail = exact_tail(table, x * 32.0)
    print(f"  x = {x}: exact {tail:.6e}  <=  bound {math.exp(-x * x / 2):.6e}")
