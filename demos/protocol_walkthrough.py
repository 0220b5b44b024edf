"""The entangling protocol, one operator at a time.

Traces |00> through entangle -> local moves -> disentangle for a few
strategy pairs at maximal entanglement, printing the state after each
step and the final outcome distribution with the costs it implies for
the two-traveler game.
"""

import numpy as np

from pigouq import GAMMA_MAX, GameSpec, cost_assignment, entangler, outcome_table, resolve
from pigouq.ewl import KET_00

BASIS = ("|00>", "|01>", "|10>", "|11>")
# Each traveler's cost for each outcome of the two-traveler game.
ALICE_COSTS, BOB_COSTS = cost_assignment(GameSpec.classical_two_person())


def show_state(label, state):
    terms = []
    for amp, ket in zip(state, BASIS):
        if abs(amp) > 1e-12:
            terms.append(f"({amp.real:+.4f}{amp.imag:+.4f}i){ket}")
    print(f"  {label:<28} {' + '.join(terms)}")


def walkthrough(tag_a, tag_b, gamma=GAMMA_MAX):
    print(f"strategies ({tag_a}, {tag_b}) at gamma = {gamma:.4f}")
    j = entangler(gamma)
    moves = np.kron(resolve(tag_a), resolve(tag_b))

    state = KET_00
    show_state("initial |00>", state)
    state = j @ state
    show_state("after entangling", state)
    state = moves @ state
    show_state("after local moves", state)
    state = j.conj().T @ state
    show_state("after disentangling", state)

    dist = outcome_table([resolve(tag_a)], [resolve(tag_b)], gamma)[0, 0]
    print(f"  outcome probabilities        {np.round(dist, 6)}")
    alice = sum(p * float(c) for p, c in zip(dist, ALICE_COSTS))
    bob = sum(p * float(c) for p, c in zip(dist, BOB_COSTS))
    print(f"  two-traveler costs           Alice {alice:.4f}, Bob {bob:.4f}")
    print()


walkthrough("P1", "P1")          # nothing happens: the frames cancel
walkthrough("P1", "Q")           # a lone phase drags both onto the lower edge
walkthrough("P2", "M")           # flip vs superposition: an even split
walkthrough("M", "M")            # the miracle pair: uniform over all outcomes
walkthrough("P2", "P2", gamma=0.0)  # unentangled double flip, purely classical
