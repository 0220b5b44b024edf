"""Self-contained reproduction checks for the library's reference numbers.

Every check compares results of public APIs against frozen expected
values: the two-person cost grids, the n-traveler grids in closed form,
the protocol's outcome vectors, the mixed-equilibrium closed form, the
three k-sweep series, a batch of structural properties, and sweep
determinism. This module is the one place those numbers live:
:func:`run_all` powers the CLI ``verify`` subcommand, and the acceptance
tests run the same checks, named in :data:`CHECKS`, rather than
restating them.

One :func:`run_all` computes each reference result once, on first use,
and every check of the run reads it from there:

* the 26 reference specs, built once;
* one :func:`~pigouq.metrics.solve_over_k` pass per n = 10 population,
  classical {P1,P2}, and {P1,P2,Q} and {P1,P2,M} at pi/2, whose points
  are the n = 10 games of every check. The two n = 10, k = 1 analyses
  and the three k = 1..7 series are read off those passes through the
  builders that ``analyze`` and ``sweep_k`` read theirs through,
  :func:`~pigouq.metrics._over_k_at` and :func:`~pigouq.sweeps._k_series`,
  so each equals the public call's result;
* one ``analyze`` per two-person game a check prices, and one
  ``solve(bimatrix(spec))`` per other two-person game a check reads;
  an analyzed game is not solved again.

The determinism check makes the run's one ``sweep_k`` call, a fresh
sweep of the phase series, and compares its CSV with the run's series
byte for byte, which ties the public path to the shared one. The
protocol, symmetry and zero-entanglement checks build their own grids.
No result outlives a run: each run_all starts afresh, and a check called
alone computes what it needs itself.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from itertools import product

import numpy as np

from .equilibria import dominance_select, optimal_outcome, solve
from .ewl import GAMMA_MAX, _paired_outcomes, outcome_table
from .games import CLASSICAL_GRID, GameSpec, bimatrix, outcome_grid, pinned_bill
from .metrics import _over_k_at, analyze, classical_cost_ne, classical_pos_poa, solve_over_k
from .strategies import _unitary_stack, is_unitary, resolve
from .sweeps import _k_series, sweep_k

__all__ = ["CHECKS", "CheckResult", "run_all"]


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str = ""


def _result(name: str, passed: bool, detail: str = "") -> CheckResult:
    return CheckResult(name, bool(passed), "" if passed else detail)


F = Fraction
HALF = F(1, 2)
ONE = F(1)

#: The n = 10 reference populations, each at k = 0: :meth:`_Run.over_k` solves every k of one.
CLASSICAL_10 = GameSpec.classical_k_person(10, 0)
PHASE_10 = GameSpec.quantum_k_person(10, 0, ("P1", "P2", "Q"))
MIRACLE_10 = GameSpec.quantum_k_person(10, 0, ("P1", "P2", "M"))
#: The ks of the three k-sweep series.
SERIES_KS = range(1, 8)


class _Run:
    """The reference results of one :func:`run_all`, each computed on first use.

    A population's over-k points equal ``bimatrix(spec)`` and
    ``solve(matrix)`` at each k in every view, so they stand for the
    n = 10 games, and its k-person analyses and series are read off the
    same pass. A two-person game the run has analyzed is not solved
    again; any other is built and solved once.
    """

    def __init__(self):
        self._done = {}

    def _once(self, key, compute, *args):
        if key not in self._done:
            self._done[key] = compute(*args)
        return self._done[key]

    def over_k(self, spec) -> tuple:
        """``solve_over_k`` of k-person ``spec``'s population: its ``(points, opt)``."""
        base = spec._at(k=0)
        return self._once(("over k", base), solve_over_k, base)

    def points(self, spec) -> list:
        """The ``(spec_k, matrix, equilibria, total)`` of every k of k-person ``spec``'s population."""
        return self.over_k(spec)[0]

    def analysis(self, spec) -> tuple:
        """``analyze(spec)``: a k-person game's is read off its population's over-k pass."""
        if spec.k is not None:
            return _over_k_at(*self.over_k(spec), spec.k)
        return self._once(("analyze", spec), analyze, spec)

    def equilibria(self, spec):
        """The equilibria of reference ``spec``'s game, its matrix included."""
        if spec.k is not None:
            return self.points(spec)[spec.k][2]
        if ("analyze", spec) in self._done:
            return self._done["analyze", spec][1]
        return self._once(("solve", spec), lambda: solve(bimatrix(spec)))

    def series(self, spec):
        """:func:`_sweep` of ``spec``, read off its population's over-k pass."""
        base = spec._at(k=0)
        return self._once(("sweep", base), lambda: _k_series(base, SERIES_KS, *self.over_k(base)))

    def reference_specs(self) -> tuple:
        """The specs of :func:`_all_reference_specs`, in order."""
        return self._once("specs", lambda: tuple(_all_reference_specs()))


def _sweep(spec):
    """``sweep_k`` over :data:`SERIES_KS` of ``spec``'s population."""
    return sweep_k(spec.mode, spec.strategies, spec.n, SERIES_KS, gamma=spec.gamma)


def check_two_person_classical_grid(run: _Run | None = None) -> CheckResult:
    run = run or _Run()
    # Expected grid: sharing the lower edge costs 1 each, a lone lower-edge
    # user pays 1/2.
    expected = (((ONE, ONE), (ONE, HALF)), ((HALF, ONE), (ONE, ONE)))
    m = run.equilibria(GameSpec.classical_two_person()).matrix
    ok = m.cells == expected and m.labels == ("P1", "P2")
    return _result("two-person classical cost grid", ok, f"got {m.cells}")


def check_two_person_phase_strategy_game(run: _Run | None = None) -> CheckResult:
    run = run or _Run()
    # Maximal entanglement, strategy set (P1, P2, Q).
    spec = GameSpec.quantum_two_person(("P1", "P2", "Q"))
    expected = (
        ((ONE, ONE), (ONE, HALF), (ONE, ONE)),
        ((HALF, ONE), (ONE, ONE), (ONE, HALF)),
        ((ONE, ONE), (HALF, ONE), (ONE, ONE)),
    )
    matrix, eq, metrics = run.analysis(spec)
    problems = []
    if matrix.cells != expected:
        problems.append(f"cells {matrix.cells}")
    opt_cells, opt_total = optimal_outcome(matrix)
    opt_set = {(c.row_label, c.col_label) for c in opt_cells}
    if opt_set != {("P1", "P2"), ("P2", "P1"), ("P2", "Q"), ("Q", "P2")} or opt_total != F(3, 2):
        problems.append(f"optimal {opt_set} total {opt_total}")
    chosen = dominance_select(matrix)
    if chosen is None or (chosen.row_label, chosen.col_label) != ("Q", "Q"):
        problems.append(f"dominance {chosen}")
    if (metrics.cost_ne, metrics.cost_opt, metrics.pos, metrics.poa) != (F(2), F(3, 2), F(4, 3), F(4, 3)):
        problems.append(f"metrics {metrics}")
    return _result("two-person entangled grid, phase strategy", not problems, "; ".join(problems))


def check_two_person_miracle_strategy_game(run: _Run | None = None) -> CheckResult:
    run = run or _Run()
    spec = GameSpec.quantum_two_person(("P1", "P2", "M"))
    q34 = F(3, 4)
    expected = (
        ((ONE, ONE), (ONE, HALF), (ONE, q34)),
        ((HALF, ONE), (ONE, ONE), (ONE, q34)),
        ((q34, ONE), (q34, ONE), (F(7, 8), F(7, 8))),
    )
    matrix, eq, metrics = run.analysis(spec)
    problems = []
    if matrix.cells != expected:
        problems.append(f"cells {matrix.cells}")
    strict = [(p.row_label, p.col_label) for p in eq.strict_pure]
    if strict != [("M", "M")]:
        problems.append(f"strict {strict}")
    if (metrics.cost_ne, metrics.cost_opt, metrics.pos, metrics.poa) != (F(7, 4), F(3, 2), F(7, 6), F(7, 6)):
        problems.append(f"metrics {metrics}")
    opt_cells, opt_total = optimal_outcome(matrix)
    opt_set = {(c.row_label, c.col_label) for c in opt_cells}
    if opt_set != {("P1", "P2"), ("P2", "P1")} or opt_total != F(3, 2):
        problems.append(f"optimal {opt_set} total {opt_total}")
    return _result("two-person entangled grid, miracle strategy", not problems, "; ".join(problems))


def check_k_person_grids_closed_form(run: _Run | None = None) -> CheckResult:
    run = run or _Run()
    n = 10
    problems = []
    phase_points, miracle_points = run.points(PHASE_10), run.points(MIRACLE_10)
    for k in range(1, 8):
        lone, shared = F(k + 1, n), F(k + 2, n)
        phase = (
            ((ONE, ONE), (ONE, lone), (shared, shared)),
            ((lone, ONE), (shared, shared), (ONE, lone)),
            ((shared, shared), (lone, ONE), (ONE, ONE)),
        )
        if phase_points[k][1].cells != phase:
            problems.append(f"phase grid k={k}")
        hi, lo, both = F(n + k + 2, 2 * n), F(2 * k + 3, 2 * n), F(2 * n + 2 * k + 3, 4 * n)
        miracle = (
            ((ONE, ONE), (ONE, lone), (hi, lo)),
            ((lone, ONE), (shared, shared), (hi, lo)),
            ((lo, hi), (lo, hi), (both, both)),
        )
        if miracle_points[k][1].cells != miracle:
            problems.append(f"miracle grid k={k}")
    return _result("n-traveler entangled grids match closed forms (n=10, k=1..7)", not problems, "; ".join(problems))


def check_protocol_outcome_vectors(run: _Run | None = None) -> CheckResult:
    run = run or _Run()
    problems = []
    grid = outcome_grid(("P1", "M"), GAMMA_MAX)
    for i, moves, expected in ((0, ("P1", "P1"), (ONE, 0, 0, 0)), (1, ("M", "M"), (F(1, 4),) * 4)):
        probs = tuple(outcome_table([resolve(moves[0])], [resolve(moves[1])], GAMMA_MAX)[0, 0].tolist())
        if any(abs(p - e) > 1e-12 for p, e in zip(probs, expected)):
            problems.append(f"{moves} pair {probs}")
        exact = grid[i][i]
        if exact != expected or not all(isinstance(p, Fraction) for p in exact):
            problems.append(f"{moves} exact grid row {exact}")
    # The same pair inside the n=10, k=1 game: per-player cost 5/8,
    # total 8.35, ratio against the over-k optimum near 1.17.
    spec = GameSpec.quantum_k_person(10, 1, ("P1", "P2", "M"))
    matrix, _, metrics = run.analysis(spec)
    cell = matrix.cell(2, 2)
    if cell != (F(5, 8), F(5, 8)):
        problems.append(f"miracle-pair costs {cell}")
    total = cell[0] + cell[1] + pinned_bill(spec)
    if total != F(167, 20) or metrics.cost_ne != F(167, 20):
        problems.append(f"total {total}, cost_ne {metrics.cost_ne}")
    for ratio in (metrics.pos, metrics.poa):
        if ratio is None or abs(float(ratio) - 1.17) > 0.005:
            problems.append(f"ratio {ratio}")
    return _result("protocol outcome vectors and the n=10, k=1 miracle totals", not problems, "; ".join(problems))


def check_mixed_equilibrium_closed_form(run: _Run | None = None) -> CheckResult:
    run = run or _Run()
    problems = []
    n = 10
    _, eq, metrics = run.analysis(GameSpec.quantum_k_person(n, 1, ("P1", "P2", "Q")))
    full = [p for p in eq.mixed if len(p.support()[0]) == 3 and len(p.support()[1]) == 3]
    expected = (F(7, 29), F(7, 29), F(15, 29))
    if len(full) != 1 or full[0].alice_probs != expected or full[0].bob_probs != expected:
        problems.append(f"full-support profiles {full}")
    elif full[0].expected_cost_alice != F(37, 58) or full[0].expected_cost_bob != F(37, 58):
        problems.append(f"expected cost {full[0].expected_cost_alice}")
    if metrics.cost_ne != F(2429, 290):
        problems.append(f"total {metrics.cost_ne}")
    if metrics.cost_ne is None or abs(float(metrics.cost_ne) - 8.38) > 0.005:
        problems.append(f"total vs 8.38: {metrics.cost_ne}")
    # Closed form across k: the two path probabilities are both
    # m/(4m+1) with m = n-k-2, the phase strategy takes the rest.
    points = run.points(PHASE_10)
    for k in range(1, 8):
        m = n - k - 2
        share = F(m, 4 * m + 1)
        expected_k = (share, share, 1 - 2 * share)
        profiles_k = points[k][2].mixed
        if len(profiles_k) != 1 or (profiles_k[0].alice_probs, profiles_k[0].bob_probs) != (expected_k,) * 2:
            problems.append(f"k={k}: {profiles_k}")
    return _result("mixed equilibrium closed form across k", not problems, "; ".join(problems))


def check_classical_sweep_series(run: _Run | None = None) -> CheckResult:
    run = run or _Run()
    problems = []
    series = run.series(CLASSICAL_10)
    costs = [r.cost_ne for r in series.reports]
    expected = [F(79, 10), F(38, 5), F(15, 2), F(38, 5), F(79, 10), F(42, 5), F(91, 10)]
    if costs != expected:
        problems.append(f"series {[float(c) for c in costs]}")
    argmin = {k for k, c in zip(series.values, costs) if c == min(costs)}
    if argmin != {3}:
        problems.append(f"argmin {argmin}")
    at3 = series.reports[list(series.values).index(3)]
    if at3.pos != ONE or at3.poa != ONE:
        problems.append(f"ratios at k=3: {at3.pos}, {at3.poa}")
    return _result("classical k-sweep series (n=10)", not problems, "; ".join(problems))


def check_phase_strategy_sweep_series(run: _Run | None = None) -> CheckResult:
    run = run or _Run()
    problems = []
    series = run.series(PHASE_10)
    costs = [r.cost_ne for r in series.reports]
    printed = [8.38, 7.78, 7.38, 7.176, 7.177, 7.38, 7.78]
    for k, got, want in zip(series.values, costs, printed):
        if got is None or abs(float(got) - want) > 5e-3:
            problems.append(f"k={k}: {got} vs {want}")
    argmin = {k for k, c in zip(series.values, costs) if c == min(costs)}
    if argmin != {4}:
        problems.append(f"argmin {argmin}")
    profiles = run.points(PHASE_10)[4][2].mixed
    expected = (F(4, 17), F(4, 17), F(9, 17))
    if len(profiles) != 1 or profiles[0].alice_probs != expected:
        problems.append(f"k=4 profile {profiles}")
    return _result("entangled k-sweep series, phase strategy (n=10)", not problems, "; ".join(problems))


def check_miracle_strategy_sweep_series(run: _Run | None = None) -> CheckResult:
    run = run or _Run()
    problems = []
    series = run.series(MIRACLE_10)
    costs = [r.cost_ne for r in series.reports]
    expected = [F(167, 20), F(31, 4), F(147, 20), F(143, 20), F(143, 20), F(147, 20), F(31, 4)]
    if costs != expected:
        problems.append(f"series {costs}")
    points = run.points(MIRACLE_10)
    for k in series.values:
        strict = [(p.row_label, p.col_label) for p in points[k][2].strict_pure]
        if strict != [("M", "M")]:
            problems.append(f"k={k} strict {strict}")
    argmin = {k for k, c in zip(series.values, costs) if c == min(costs)}
    if argmin != {4, 5}:
        problems.append(f"argmin {argmin}")
    for k in (4, 5):
        rep = series.reports[list(series.values).index(k)]
        if rep.pos != ONE or rep.poa != ONE:
            problems.append(f"k={k} ratios {rep.pos}, {rep.poa}")
    return _result("entangled k-sweep series, miracle strategy (n=10)", not problems, "; ".join(problems))


#: Random draws of the unitarity and normalization check.
_RANDOM_DRAWS = 1000


def check_random_unitarity_and_normalization() -> CheckResult:
    """Check U(theta, phi) unitarity and outcome normalization, both within 1e-12, on 1000 seeded draws.

    Draw i is row i, (theta_a, theta_b, phi_a, phi_b, gamma), of one
    ``rng.random`` call scaled column by column by pi, pi, pi/2, pi/2 and
    GAMMA_MAX: the same doubles as three ``rng.uniform`` calls per draw.
    Alice's and Bob's matrices are two stacks from
    :func:`~pigouq.strategies._unitary_stack`, entry i with the bits of
    ``unitary_from_angles`` at draw i's angles, each stack checked by
    one :func:`is_unitary` call, and the protocol runs draw i's pair at
    draw i's angle in one paired run. On failure the detail names the
    first failing draw in draw order.
    """
    rng = np.random.default_rng(20250811)
    draws = rng.random((_RANDOM_DRAWS, 5))
    draws *= [math.pi, math.pi, math.pi / 2, math.pi / 2, GAMMA_MAX]
    problem = _first_draw_problem(draws)
    return _result("unitarity and outcome normalization over 1000 random draws", not problem, problem)


def _first_draw_problem(draws: np.ndarray) -> str:
    """The detail of the first of ``draws`` to fail unitarity or normalization, or ``""``."""
    theta_a, theta_b, phi_a, phi_b, gamma = draws.T
    ua, ub = _unitary_stack(theta_a, phi_a), _unitary_stack(theta_b, phi_b)
    # Only the draws before the first non-unitary one can fail first on normalization.
    good = len(draws)
    if not (is_unitary(ua, 1e-12) and is_unitary(ub, 1e-12)):
        good = next(i for i, (a, b) in enumerate(zip(ua, ub)) if not (is_unitary(a, 1e-12) and is_unitary(b, 1e-12)))
    probs = _paired_outcomes(ua[:good], ub[:good], gamma[:good])
    # Summed left to right, as sum() adds one distribution's list.
    totals = probs[:, 0] + probs[:, 1] + probs[:, 2] + probs[:, 3]
    off = np.flatnonzero(np.abs(totals - 1.0) > 1e-12)
    if off.size:
        return f"normalization {float(totals[off[0]])!r}"
    if good < len(draws):
        return f"non-unitary at ({float(theta_a[good])}, {float(phi_a[good])})"
    return ""


def check_classical_limit(run: _Run | None = None) -> CheckResult:
    run = run or _Run()
    quantum = bimatrix(GameSpec(mode="quantum", n=2, gamma=0.0, strategies=("P1", "P2")))
    classical = run.equilibria(GameSpec.classical_two_person()).matrix
    ok = quantum.cells == classical.cells
    detail = f"{quantum.cells} vs {classical.cells}"
    if ok:
        for n, k in ((10, 1), (10, 4), (10, 7), (7, 2), (5, 2)):
            q = bimatrix(GameSpec(mode="quantum", n=n, k=k, gamma=0.0, strategies=("P1", "P2")))
            c = run.points(CLASSICAL_10)[k][1] if n == 10 else bimatrix(GameSpec.classical_k_person(n, k))
            if q.cells != c.cells:
                ok, detail = False, f"n={n}, k={k}"
                break
    return _result("zero-entanglement grids equal the classical ones exactly", ok, detail)


def _all_reference_specs():
    yield GameSpec.classical_two_person()
    yield GameSpec.quantum_two_person(("P1", "P2", "Q"))
    yield GameSpec.quantum_two_person(("P1", "P2", "M"))
    for k in range(1, 8):
        yield GameSpec.classical_k_person(10, k)
        yield GameSpec.quantum_k_person(10, k, ("P1", "P2", "Q"))
        yield GameSpec.quantum_k_person(10, k, ("P1", "P2", "M"))
    yield GameSpec.quantum_two_person(("P1", "P2", "M"), gamma=0.3)
    yield GameSpec.quantum_two_person(("P1", "P2", "M"), gamma=0.6)


def check_bimatrix_symmetry(run: _Run | None = None) -> CheckResult:
    run = run or _Run()
    # Exchanging the players swaps outcomes 01 and 10, so each outcome grid must
    # be mirrored exactly: bimatrix reads Bob's costs as Alice's transposed.
    # Specs of one mode, strategy set and angle share a grid, checked once.
    problems, unmirrored = [], {}
    for spec in run.reference_specs():
        key = (spec.mode, spec.strategies, spec.gamma)
        if key not in unmirrored:
            grid = CLASSICAL_GRID if spec.mode == "classical" else outcome_grid(spec.strategies, spec.gamma)
            unmirrored[key] = _unmirrored(grid)
        problems += [f"{spec.describe()} at ({i},{j})" for i, j in unmirrored[key]]
    return _result("cost grids are exchange-symmetric", not problems, "; ".join(problems[:4]))


def _unmirrored(grid) -> list[tuple[int, int]]:
    """The pairs (i, j), in order, whose distribution is not that of (j, i) with outcomes 01 and 10 swapped."""
    cells = []
    for i, j in product(range(len(grid)), repeat=2):
        p00, p01, p10, p11 = grid[i][j]
        if grid[j][i] != (p00, p10, p01, p11):
            cells.append((i, j))
    return cells


def _profile_problems(matrix, profile) -> list[str]:
    """What keeps ``profile`` from being an equilibrium of ``matrix`` with the costs it reports.

    Exact integer arithmetic over the cells' exact values (a float cell
    counts by its binary value): each player's reported expected cost
    must equal ``p @ A @ q`` and ``p @ B @ q``, and no pure deviation may
    cost less. A linear cost's minimum over a simplex is at a vertex, so
    no mixed deviation costs less either.
    """
    a, scale = matrix.scaled_costs
    alice, bob = _integer_mix(profile.alice_probs), _integer_mix(profile.bob_probs)
    # Bob's cost of his move j against Alice's move i is a[j][i]: each player chooses a row of a.
    return _player_problems("Alice", a, scale, alice, bob, profile.expected_cost_alice) + _player_problems(
        "Bob", a, scale, bob, alice, profile.expected_cost_bob
    )


def _integer_mix(mix) -> tuple[list[int], int]:
    """``(weights, den)`` with ``weights[i] / den == mix[i]`` exactly, ``den`` the LCM of the denominators."""
    ratios = [x.as_integer_ratio() for x in mix]
    den = math.lcm(*(d for _, d in ratios))
    return [n * (den // d) for n, d in ratios], den


def _player_problems(player: str, a, scale: int, mix, other, reported) -> list[str]:
    """The problems of one player, whose cost of move i against move j is ``a[i][j] / scale``.

    ``mix`` and ``other`` are her mix and her opponent's, each as
    :func:`_integer_mix` gives it. Her cost of pure move i is then
    ``pure[i] / (scale * other_den)`` and her expected cost
    ``total / unit``. A ``Fraction`` is built only to word a problem.
    """
    (weights, den), (other_weights, other_den) = mix, other
    pure = [sum(map(operator.mul, row, other_weights)) for row in a]
    total = sum(map(operator.mul, weights, pure))
    unit = den * scale * other_den
    num, reported_den = reported.as_integer_ratio()
    problems = []
    if total * reported_den != num * unit:
        problems.append(f"{player}'s expected cost is {Fraction(total, unit)}, reported {reported}")
    if min(pure) * den < total:
        problems.append(f"{player} saves {Fraction(total - min(pure) * den, unit)} by a pure deviation")
    return problems


def check_mixed_profiles_best_responses(run: _Run | None = None) -> CheckResult:
    run = run or _Run()
    problems = []
    for spec in run.reference_specs():
        eq = run.equilibria(spec)
        for profile in eq.mixed:
            problems += [f"{spec.describe()}: {problem}" for problem in _profile_problems(eq.matrix, profile)]
    name = "every mixed profile reports its exact costs and no pure deviation is cheaper"
    return _result(name, not problems, "; ".join(problems))


def check_ratio_identity() -> CheckResult:
    problems = []
    for n in (5, 10, 20):
        opt = F(3 * n, 4)
        for k in range(0, n - 2):
            if classical_pos_poa(n, k) != classical_cost_ne(n, k) / opt:
                problems.append(f"n={n}, k={k}")
    return _result("closed-form ratio equals equilibrium total over 3n/4 exactly", not problems, "; ".join(problems))


def check_property_batch(run: _Run | None = None) -> CheckResult:
    run = run or _Run()
    # Bundles the structural properties into one verify line.
    parts = [
        check_random_unitarity_and_normalization(),
        check_classical_limit(run),
        check_bimatrix_symmetry(run),
        check_mixed_profiles_best_responses(run),
        check_ratio_identity(),
    ]
    bad = [p for p in parts if not p.passed]
    return _result(
        "property batch: normalization, classical limit, symmetry, best response, ratio identity",
        not bad,
        "; ".join(f"{p.name}: {p.detail}" for p in bad),
    )


def check_sweep_determinism(run: _Run | None = None) -> CheckResult:
    run = run or _Run()
    # The phase series against one fresh sweep of the same games.
    same = run.series(PHASE_10).to_csv() == _sweep(PHASE_10).to_csv()
    return _result("repeated sweeps produce byte-identical CSV", same)


#: The checks :func:`run_all` runs, in order: ``check_<name>`` for each name.
CHECKS = (
    "two_person_classical_grid",
    "two_person_phase_strategy_game",
    "two_person_miracle_strategy_game",
    "k_person_grids_closed_form",
    "protocol_outcome_vectors",
    "mixed_equilibrium_closed_form",
    "classical_sweep_series",
    "phase_strategy_sweep_series",
    "miracle_strategy_sweep_series",
    "property_batch",
    "sweep_determinism",
)


def run_all() -> list[CheckResult]:
    """Run every check of :data:`CHECKS`, one result each, in order, on one run's reference results."""
    run, results = _Run(), []
    for name in CHECKS:
        # Looked up when called, so a wrapped module global is the one that runs.
        check = globals()[f"check_{name}"]
        try:
            results.append(check(run))
        except Exception as exc:  # a crash is a failed check, not a crash of verify
            results.append(CheckResult(check.__name__, False, f"raised {exc!r}"))
    return results
