"""Entanglement of a block in the half-filled free-fermion chain.

The ground-state correlation matrix of an infinite chain restricted to a
block of n sites is the sine-kernel Toeplitz matrix
sin(k_F (j - k)) / (pi (j - k)).  Its Renyi entropies grow like

    S_alpha(n) = (1 + alpha) / (6 alpha) * ln n + const + o(1),

which is the d = 1 instance of the logarithmically enhanced area law
(the boundary of a block is two points, the Fermi "surface" at half
filling is two points, so J = 4 and the universal 1/(24 alpha)-type
coefficient becomes (1 + alpha) / (6 alpha)).
"""

import math

import numpy as np

from fermient import LatticeSea, interval, sweep
from fermient.asymptotics import fit_scaling

K_FERMI = math.pi / 2.0
ORDERS = (0.5, 1.0, 2.0, math.inf)

sizes = np.unique(np.round(np.geomspace(100, 2000, 12)).astype(int))
# Lattice momenta: the Fermi sea's type picks the lattice route.
gamma = LatticeSea(((-K_FERMI, K_FERMI),))
omega = interval(0.0, 1.0)
# One eigensolve per block size serves all four orders.
by_order = sweep(gamma, omega, ORDERS, sizes)

print(f"block entropies at half filling, n = {sizes.min()}..{sizes.max()}")
header = f"{'n':>6}" + "".join(f"  S_{a:<5}" for a in ORDERS)
print(header)
for i, n in enumerate(sizes):
    row = f"{n:>6}"
    for alpha in ORDERS:
        row += f"  {by_order[alpha].results[i].S:7.4f}"
    print(row)

print()
print(f"{'alpha':>6} {'fitted a':>10} {'theory':>10} {'rel dev':>9}")
for alpha in ORDERS:
    fit = fit_scaling(by_order[alpha])
    theory = (1.0 + alpha) / (6.0 * alpha) if math.isfinite(alpha) \
        else 1.0 / 6.0
    dev = fit.log_coefficient / theory - 1.0
    label = "inf" if math.isinf(alpha) else alpha
    print(f"{str(label):>6} {fit.log_coefficient:10.6f} {theory:10.6f} "
          f"{dev:+9.4%}")
