"""Turn the entanglement dial from 0 to pi/2 and watch the equilibrium move.

At gamma = 0 the miracle move is weakly dominated and the two-traveler
game collapses to its classical equilibrium (total 2). In a middle band
the game turns into anti-coordination between the flip and the
superposed move -- two asymmetric strict equilibria, so no outcome gets
singled out. From gamma = pi/4 on, (M, M) is the unique equilibrium and
the total settles at 7/4. The optimal pair total never moves.
"""

import math

from pigouq import GameSpec, bimatrix, solve, sweep_gamma

STEPS = 13
samples = [i * (math.pi / 2) / (STEPS - 1) for i in range(STEPS)]
series = sweep_gamma(("P1", "P2", "M"), samples)

print(f"{'gamma':>10} {'cost(NE)':>10} {'cost(OPT)':>10} {'PoS':>8}  equilibria")
for gamma, rep in zip(series.values, series.reports):
    ne = "-" if rep.cost_ne is None else f"{float(rep.cost_ne):.4f}"
    pos = "-" if rep.pos is None else f"{float(rep.pos):.4f}"
    opt = f"{float(rep.cost_opt):.4f}"
    label = rep.equilibrium
    if label is None:
        spec = GameSpec(mode="quantum", n=2, gamma=gamma, strategies=("P1", "P2", "M"))
        strict = solve(bimatrix(spec)).strict_pure
        label = "tied: " + ", ".join(f"({p.row_label},{p.col_label})" for p in strict)
    print(f"{gamma:>10.4f} {ne:>10} {opt:>10} {pos:>8}  {label}")

print()
print(series.to_csv(), end="")
