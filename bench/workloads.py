"""The four workloads: seeded blocks of public pigouq calls, each with its output check.

A workload is a stream of blocks. Every block holds the same mix of
request classes and sizes; the seed only draws the free inputs (angles,
pinned counts) and the order. Runs with different seeds therefore time
the same mix, and a run always ends on a whole block, so its medians
and percentiles do not shift with where the clock ran out.

Ops look pigouq's functions up on the module at call time
(``pigouq.sweep_k``, not a name bound at import), so the traced run's
wrappers see the benchmark's own calls as well.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import random
from dataclasses import dataclass
from typing import Callable

import pigouq
import pigouq.cli

import reference as ref

GAMMA_MAX = math.pi / 2


@dataclass(frozen=True)
class Op:
    """One public call: ``call`` issues it, ``check`` returns a failure reason or None."""

    kind: str
    call: Callable[[], object]
    check: Callable[[object], "str | None"]


@dataclass(frozen=True)
class Workload:
    name: str
    block: Callable[[random.Random], list]
    warmup: Callable[[random.Random], list]
    trace_blocks: int  # blocks in a traced run of BENCHMARK.json's run_seconds


# --- ksweep_exact -----------------------------------------------------------

KSWEEP_SETS = (("classical", ("P1", "P2")), ("quantum", ("P1", "P2", "Q")), ("quantum", ("P1", "P2", "M")))
# Ten sizes: the median and p90 then fall in the middle of one size's
# stratum of the quantum ops instead of on a boundary between two.
KSWEEP_N = range(8, 18)


def _ksweep_op(mode, names, n) -> Op:
    gamma = GAMMA_MAX if mode == "quantum" else None

    def call():
        series = pigouq.sweep_k(mode, names, n, gamma=gamma)
        return series, series.to_csv()

    return Op(f"sweep_k:{mode}:{''.join(names)}:n={n}", call, lambda out: _check_ksweep(mode, names, n, *out))


def _check_ksweep(mode, names, n, series, csv):
    ks = list(series.values)
    if not ks or any(not (0 <= k < n - 2) for k in ks):
        return f"k values {ks} outside 0..{n - 3}"
    totals = []
    for k, rep in zip(ks, series.reports):
        if rep.equilibrium is None:
            return f"n={n} k={k}: no selected equilibrium"
        p, q = ref.parse_label(rep.equilibrium, names)
        if mode == "classical":
            a, b = ref.exact_game(names, 0.0, n, k)
            total = sum(p[i] * q[j] * ref.classical_total(n, k, i + j) for i in range(2) for j in range(2))
        else:
            a, b = ref.p1p2m_grid(n, k) if "M" in names else ref.exact_game(names, GAMMA_MAX, n, k)
            total = ref.expected(a, p, q) + ref.expected(b, p, q) + ref.pinned_total(n, k)
        gain = ref.br_gain(a, b, p, q)
        if gain > ref.TOL:
            return f"n={n} k={k}: {rep.equilibrium} is not an equilibrium (gain {gain})"
        if rep.cost_ne != total:
            return f"n={n} k={k}: cost_ne {rep.cost_ne} != {total}"
        totals.append(total)
    best = min(totals)
    for k, rep in zip(ks, series.reports):
        if not (0 < rep.cost_opt <= best) or rep.pos != rep.cost_ne / rep.cost_opt or rep.poa < rep.pos:
            return f"n={n} k={k}: cost_opt {rep.cost_opt}, pos {rep.pos}, poa {rep.poa}"
    return _check_csv(csv, "k", ks)


def _check_csv(csv, axis, values):
    lines = csv.splitlines()
    if len(lines) != len(values) + 1 or not lines[0].startswith("axis,value,"):
        return f"csv has {len(lines)} lines for {len(values)} points"
    for line, value in zip(lines[1:], values):
        got_axis, got_value = line.split(",")[:2]
        if got_axis != axis or not ref.close(got_value, value):
            return f"csv row {line!r} does not match {axis}={value}"
    return None


def _ksweep_block(rng):
    ops = [_ksweep_op(mode, names, n) for mode, names in KSWEEP_SETS for n in KSWEEP_N]
    rng.shuffle(ops)
    return ops


def _ksweep_warmup(rng):
    return [_ksweep_op(mode, names, KSWEEP_N[0]) for mode, names in KSWEEP_SETS]


# --- gamma_float ------------------------------------------------------------

GAMMA_SETS = (("P1", "P2", "M"), ("P1", "P2", "Q"))
# Angles per op. Op time grows with the angle count, so the median lands
# in the middle of the 4-angle ops and p90 inside the 6-angle ones,
# instead of in a sparse tail.
GAMMA_ANGLES = (2, 4, 4, 6)
GAMMA_N = range(5, 31)


def _gamma_op(rng, names, k_person, angles) -> Op:
    gammas = [rng.uniform(0.0, GAMMA_MAX) for _ in range(angles)]
    n = rng.choice(GAMMA_N) if k_person else 2
    k = rng.randrange(n - 2) if k_person else None

    def call():
        series = pigouq.sweep_gamma(names, gammas, n=n, k=k)
        return series, series.to_csv()

    kind = f"sweep_gamma:{'k' if k_person else '2'}:{''.join(names)}:{angles}-angles"
    return Op(kind, call, lambda out: _check_gamma(names, n, k, gammas, *out))


def _check_gamma(names, n, k, gammas, series, csv):
    values = list(series.values)
    if len(values) != len(set(gammas)) or not all(map(ref.close, values, sorted(set(gammas)))):
        return f"angles {values} != {sorted(gammas)}"
    pinned = float(ref.pinned_total(n, k)) if k is not None else 0.0
    moves = [ref.MOVES[x] for x in names]
    for g, rep in zip(values, series.reports):
        a, b = ref.float_game(moves, g, n, k or 0)
        if not ref.close(rep.cost_opt, (a + b).min() + pinned):
            return f"gamma={g}: cost_opt {rep.cost_opt} != {(a + b).min() + pinned}"
        if rep.equilibrium is None:
            continue
        p, q = ref.parse_label(rep.equilibrium, names)
        gain = ref.br_gain(a, b, p, q)
        if gain > ref.TOL:
            return f"gamma={g}: {rep.equilibrium} is not an equilibrium (gain {gain})"
        p, q = [float(x) for x in p], [float(x) for x in q]
        total = ref.expected(a, p, q) + ref.expected(b, p, q) + pinned
        if not ref.close(rep.cost_ne, total) or not ref.close(rep.pos, float(rep.cost_ne) / float(rep.cost_opt)):
            return f"gamma={g}: cost_ne {rep.cost_ne} (want {total}), pos {rep.pos}"
    return _check_csv(csv, "gamma", values)


def _gamma_block(rng):
    ops = [
        _gamma_op(rng, names, k_person, angles)
        for names in GAMMA_SETS
        for k_person in (False, True)
        for angles in GAMMA_ANGLES
    ]
    rng.shuffle(ops)
    return ops


def _gamma_warmup(rng):
    return [_gamma_op(rng, names, k_person, 2) for names in GAMMA_SETS for k_person in (False, True)]


# --- landscape --------------------------------------------------------------

# Strategy-set sizes per block: the median lands in the middle of the
# 5-strategy ops and p90 inside the 6-strategy ones.
LANDSCAPE_SIZES = (3, 4, 5, 5, 6, 6)


def _landscape_op(rng, size) -> Op:
    angles = [(rng.uniform(0.0, math.pi), rng.uniform(0.0, GAMMA_MAX)) for _ in range(size)]
    strategies = tuple(pigouq.StrategyAngles(t, p) for t, p in angles)
    gamma = rng.uniform(0.0, GAMMA_MAX)

    def call():
        return pigouq.bimatrix(pigouq.GameSpec.quantum_two_person(strategies, gamma))

    return Op(f"bimatrix:{size}", call, lambda out: _check_landscape(angles, gamma, out))


def _check_landscape(angles, gamma, matrix):
    size = len(angles)
    if matrix.size != size:
        return f"size {matrix.size} != {size}"
    a, b = ref.float_game([ref.move(t, p) for t, p in angles], gamma)
    for i in range(size):
        for j in range(size):
            ca, cb = matrix.cost_a(i, j), matrix.cost_b(i, j)
            if not (ca > 0 and cb > 0):
                return f"cell ({i},{j}) not positive: {ca}, {cb}"
            if abs(float(ca) - float(matrix.cost_b(j, i))) > 1e-12:
                return f"cells ({i},{j})/({j},{i}) not exchange-symmetric"
            if not (ref.close(ca, a[i, j]) and ref.close(cb, b[i, j])):
                return f"cell ({i},{j}) = ({ca}, {cb}), reference ({a[i, j]}, {b[i, j]})"
    return None


def _landscape_block(rng):
    ops = [_landscape_op(rng, size) for size in LANDSCAPE_SIZES]
    rng.shuffle(ops)
    return ops


# --- cli_requests -----------------------------------------------------------

CLI_SETS = {"p1p2": ("P1", "P2"), "p1p2q": ("P1", "P2", "Q"), "p1p2m": ("P1", "P2", "M"), "scarpa": ("S1", "S2")}
CLI_N = range(4, 10)
# The k-person solves come in two classes whose times differ by about 2x:
# 20 {P1,P2,M} games at n=5 and 4 {P1,P2,Q} games at n=9. With 5 cheap
# requests and one verify, a 30-request block puts the median in the
# middle of the first class and p90 in the middle of the second.
CLI_SOLVES = (("p1p2m", 5, 20), ("p1p2q", 9, 4))


def _cli_op(argv, check) -> Op:
    def call():
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = pigouq.cli.main(argv)
        return code, out.getvalue(), err.getvalue()

    def check_exit(result):
        code, out, err = result
        if code != 0:
            return f"{' '.join(argv)}: exit {code}: {err.strip()[-200:]}"
        return check(out)

    kind = f"cli:{argv[0]}" + (f":{argv[2]}" if len(argv) > 2 else "")
    return Op(kind, call, check_exit)


def _verify_op() -> Op:
    def check(out):
        lines = out.strip().splitlines()
        if not lines[:-1] or not all(line.startswith("PASS") for line in lines[:-1]):
            return f"verify printed a line other than PASS: {out[-300:]!r}"
        if lines[-1].startswith("FAIL"):
            return f"verify: {lines[-1]}"
        return None

    return _cli_op(["verify"], check)


def _game_op(command, game, strategies="p1p2", gamma=None, n=None, k=None) -> Op:
    argv = [command, "--game", game, "--strategies", strategies, "--format", "json"]
    if gamma is not None:
        argv += ["--gamma", repr(gamma)]
    if n is not None:
        argv += ["--n", str(n), "--k", str(k)]
    return _cli_op(argv, lambda out: _check_game_json(command, game, CLI_SETS[strategies], gamma, n, k, out))


def _check_game_json(command, game, names, gamma, n, k, out):
    payload = json.loads(out)
    matrix = payload["matrix"]
    if matrix["rows"] != list(names) or matrix["cols"] != list(names):
        return f"labels {matrix['rows']} != {list(names)}"
    a = [[ref.decode(cell["a"]) for cell in row] for row in matrix["cells"]]
    b = [[ref.decode(cell["b"]) for cell in row] for row in matrix["cells"]]
    k_person = n is not None
    n, k = (n, k) if k_person else (2, 0)
    if game.startswith("classical"):
        gamma = 0.0
    elif gamma is None:
        gamma = GAMMA_MAX
    want_a, want_b = ref.float_game([ref.MOVES[x] for x in names], gamma, n, k)
    size = len(names)
    for i in range(size):
        for j in range(size):
            if not (a[i][j] > 0 and b[i][j] > 0 and ref.close(a[i][j], b[j][i])):
                return f"cell ({i},{j}) not positive and exchange-symmetric"
            if not (ref.close(a[i][j], want_a[i, j]) and ref.close(b[i][j], want_b[i, j])):
                return f"cell ({i},{j}) = ({a[i][j]}, {b[i][j]}), reference ({want_a[i, j]}, {want_b[i, j]})"
    if game == "quantumk" and names == CLI_SETS["p1p2m"] and (a, b) != ref.p1p2m_grid(n, k):
        return f"{{P1,P2,M}} grid at n={n}, k={k} differs from its closed form"
    if command == "matrix":
        return None

    selected = payload["equilibria"]["selected"]
    if selected is None:
        return f"{game} n={n} k={k}: no selected equilibrium" if k_person else None
    if "row" in selected:
        p, q = ref.unit(size, names.index(selected["row"])), ref.unit(size, names.index(selected["col"]))
    else:
        p = [ref.decode(x) for x in selected["alice_probs"]]
        q = [ref.decode(x) for x in selected["bob_probs"]]
    gain = ref.br_gain(a, b, p, q)
    if gain > ref.TOL:
        return f"selected {selected} is not an equilibrium (gain {gain})"
    metrics = {key: ref.decode(payload["metrics"][key]) for key in ("cost_ne", "cost_opt", "pos")}
    if game == "classicalk":
        total = sum(p[i] * q[j] * ref.classical_total(n, k, i + j) for i in range(2) for j in range(2))
    else:
        total = ref.expected(a, p, q) + ref.expected(b, p, q) + (ref.pinned_total(n, k) if k_person else 0)
    cost_ne, cost_opt = metrics["cost_ne"], metrics["cost_opt"]
    if not ref.close(cost_ne, total) or not ref.close(metrics["pos"], float(cost_ne) / float(cost_opt)):
        return f"metrics {metrics}, equilibrium total {total}"
    if not (0 < cost_opt <= cost_ne + ref.TOL):
        return f"cost_opt {cost_opt} exceeds cost_ne {cost_ne}"
    if not k_person and not ref.close(cost_opt, min(x + y for ra, rb in zip(a, b) for x, y in zip(ra, rb))):
        return f"per-game cost_opt {cost_opt} is not the cheapest cell"
    return None


def _cli_block(rng):
    """30 requests: 24 k-person quantum solves (``CLI_SOLVES``), 5 cheap
    requests and one verify (3.3%, above p90)."""
    ops = [_verify_op()]
    for strategies, n, count in CLI_SOLVES:
        for _ in range(count):
            ops.append(_game_op("solve", "quantumk", strategies, n=n, k=rng.randrange(n - 2)))
    n = rng.choice(CLI_N)
    ops.append(_game_op("solve", "classicalk", n=n, k=rng.randrange(n - 2)))
    for strategies in ("scarpa", rng.choice(("p1p2q", "p1p2m"))):
        ops.append(_game_op("solve", "quantum2", strategies, gamma=rng.uniform(0.0, GAMMA_MAX)))
    for strategies in ("p1p2q", "p1p2m"):
        ops.append(_game_op("matrix", "quantum2", strategies, gamma=rng.uniform(0.0, GAMMA_MAX)))
    rng.shuffle(ops)
    return ops


def _cli_warmup(rng):
    n = CLI_N[0]
    return [
        _verify_op(),
        _game_op("solve", "quantumk", "p1p2q", n=n, k=0),
        _game_op("solve", "classicalk", n=n, k=0),
        _game_op("solve", "quantum2", "scarpa", gamma=rng.uniform(0.0, GAMMA_MAX)),
        _game_op("matrix", "quantum2", "p1p2m", gamma=rng.uniform(0.0, GAMMA_MAX)),
    ]


WORKLOADS = {
    w.name: w
    for w in (
        Workload("ksweep_exact", _ksweep_block, _ksweep_warmup, trace_blocks=3),
        Workload("gamma_float", _gamma_block, _gamma_warmup, trace_blocks=10),
        Workload("landscape", _landscape_block, _landscape_block, trace_blocks=220),
        Workload("cli_requests", _cli_block, _cli_warmup, trace_blocks=2),
    )
}
