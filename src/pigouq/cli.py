"""Command-line front end.

Subcommands::

    pigouq matrix  --game classical2                 print a cost grid
    pigouq solve   --game quantum2 --strategies p1p2m --gamma max
    pigouq sweep   --game quantumk --strategies p1p2q --n 10 --k-range 1..7 --over k
    pigouq verify                                    replay the reference checks

Exit codes: 0 success (or all checks pass), 1 usage error (an ``--out``
file that cannot be written included), 2 domain error, 3 verification
failure. Payload goes to stdout (or the ``--out`` file); diagnostics go
to stderr.

A ``--format json`` payload is exactly ``json.dumps(obj, indent=2)`` plus
``"\n"``, with every non-ASCII character escaped; no flag changes this.

``main(argv)`` may be called repeatedly in one process: every call parses
with one parser, built on the first call, and reads ``sys.stdout`` and
``sys.stderr`` as they are at that call.
"""

from __future__ import annotations

import argparse
import functools
import math
import sys
from json.encoder import encode_basestring_ascii

import numpy as np

from .equilibria import optimal_outcome
from .errors import DomainError
from .ewl import GAMMA_MAX
from .games import GameSpec, bimatrix, format_value
from .metrics import analyze, describe_metrics, format_equilibrium_label
from .sweeps import SweepSeries, sweep_gamma, sweep_k
from .verification import run_all

__all__ = ["main", "run"]

#: ``--game`` value -> the mode and :attr:`GameSpec.variant` of the game it names.
GAMES = {
    "classical2": ("classical", "two_person"),
    "classicalk": ("classical", "k_person"),
    "quantum2": ("quantum", "two_person"),
    "quantumk": ("quantum", "k_person"),
}
STRATEGY_SETS = {
    "p1p2": ("P1", "P2"),
    "p1p2q": ("P1", "P2", "Q"),
    "p1p2m": ("P1", "P2", "M"),
    "scarpa": ("S1", "S2"),
}


class _Parser(argparse.ArgumentParser):
    """argparse exits 2 on usage errors; the contract here is exit 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    """A new parser for the ``pigouq`` command on every call."""
    parser = _Parser(prog="pigouq", description="Congestion games on the two-edge network, classical and entangled.")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    def add_game_flags(p):
        p.add_argument("--game", choices=GAMES, required=True)
        p.add_argument("--strategies", choices=sorted(STRATEGY_SETS), default="p1p2")
        p.add_argument("--n", type=int, default=None, help="total travelers (k-person games)")
        p.add_argument("--k", type=int, default=None, help="pinned lower-edge travelers")
        p.add_argument("--gamma", default=None, help='entanglement angle in radians, or "max" for pi/2')
        p.add_argument("--format", choices=("table", "csv", "json"), default=None)
        p.add_argument("--out", default=None, help="write the payload to this file instead of stdout")

    p_matrix = sub.add_parser("matrix", help="print the cost bimatrix")
    add_game_flags(p_matrix)

    p_solve = sub.add_parser("solve", help="print equilibria and metrics")
    add_game_flags(p_solve)

    p_sweep = sub.add_parser("sweep", help="sweep k or the entanglement angle")
    add_game_flags(p_sweep)
    p_sweep.add_argument("--over", choices=("k", "gamma"), required=True)
    p_sweep.add_argument("--k-range", default=None, help="inclusive range a..b (default 1..n-3)")
    p_sweep.add_argument("--gamma-steps", type=int, help="samples from 0 to pi/2 for --over gamma (default 9)")

    sub.add_parser("verify", help="replay the reference-number checks")
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The one parser :func:`main` reuses, built on first use rather than at import.

    Reuse is safe: each parse keeps its state in the ``Namespace`` it
    returns, and ``_Parser.error`` and ``print_usage`` look up
    ``sys.stderr`` when they are called.
    """
    return build_parser()


def _parse_gamma(text: str | None, parser) -> float | None:
    if text is None:
        return None
    if text == "max":
        return GAMMA_MAX
    try:
        return float(text)
    except ValueError:
        parser.error(f"--gamma must be a number or 'max', got {text!r}")


def _parse_k_range(text: str, parser) -> range:
    try:
        lo, hi = text.split("..")
        lo, hi = int(lo), int(hi)
    except ValueError:
        parser.error(f"--k-range must look like 1..7, got {text!r}")
    if hi < lo:
        parser.error(f"--k-range is empty: {text}")
    return range(lo, hi + 1)


def _game_inputs(args, parser) -> tuple[tuple[str, ...], float | None]:
    """Hold ``--game`` against its flag rules; return the strategy names and the angle.

    Classical games take no ``--gamma`` and only ``p1p2``; ``scarpa`` runs on
    ``quantum2`` only; two-person games take no ``--n``/``--k``; k-person
    games require ``--n``. Quantum games default to ``gamma = pi/2``.
    """
    game = args.game
    mode, variant = GAMES[game]
    gamma = _parse_gamma(args.gamma, parser)
    if mode == "classical":
        if gamma is not None:
            parser.error(f"--gamma does not apply to {game}")
        if args.strategies != "p1p2":
            parser.error(f"--strategies {args.strategies} requires a quantum game")
    elif gamma is None:
        gamma = GAMMA_MAX
    if args.strategies == "scarpa" and game != "quantum2":
        parser.error("--strategies scarpa runs on the two-player entangled game only")
    if variant == "two_person":
        if args.n not in (None, 2):
            parser.error(f"--n does not apply to {game}")
        if args.k is not None:
            parser.error(f"--k does not apply to {game}")
    elif args.n is None:
        parser.error(f"--n is required for {game}")
    return STRATEGY_SETS[args.strategies], gamma


def _build_spec(args, parser) -> GameSpec:
    """Validate the flag combination and construct the game spec."""
    mode, variant = GAMES[args.game]
    strategies, gamma = _game_inputs(args, parser)
    if variant == "k_person" and args.k is None:
        parser.error(f"--k is required for {args.game}")
    n = args.n if variant == "k_person" else 2
    return GameSpec(mode=mode, n=n, k=args.k, gamma=gamma, strategies=strategies)


def _json_float(x: float) -> str:
    if math.isfinite(x):
        return float.__repr__(x)
    return "NaN" if x != x else "Infinity" if x > 0 else "-Infinity"


#: Exact leaf type -> its JSON text, spelled as :mod:`json` spells it.
_JSON_LEAVES = {
    str: encode_basestring_ascii,
    int: int.__repr__,
    float: _json_float,
    bool: lambda value: "true" if value else "false",
    type(None): lambda value: "null",
}


def _json_text(obj) -> str:
    """``json.dumps(obj, indent=2)``, byte for byte, in one pass.

    The stdlib's indented encoder is pure Python on CPython 3.10-3.12. This
    takes the leaf types of ``_JSON_LEAVES``, ``dict`` with ``str`` keys,
    ``list`` and ``tuple``, subclasses included; anything else raises ``TypeError``.
    """
    parts = []
    _write_json(obj, "\n", parts.append)
    return "".join(parts)


def _write_json(value, newline: str, append) -> None:
    leaf = _JSON_LEAVES.get(type(value))
    if leaf is not None:
        append(leaf(value))
    elif isinstance(value, dict):
        inner = newline + "  "
        sep = "{" + inner
        for key, item in value.items():
            if not isinstance(key, str):
                raise TypeError(f"keys must be str, not {type(key).__name__}")
            append(f"{sep}{encode_basestring_ascii(key)}: ")
            _write_json(item, inner, append)
            sep = "," + inner
        append(newline + "}" if value else "{}")
    elif isinstance(value, (list, tuple)):
        inner = newline + "  "
        sep = "[" + inner
        for item in value:
            append(sep)
            _write_json(item, inner, append)
            sep = "," + inner
        append(newline + "]" if value else "[]")
    else:
        for kind, leaf in _JSON_LEAVES.items():
            if isinstance(value, kind):
                append(leaf(value))
                return
        raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def _matrix_payload(spec: GameSpec, fmt: str) -> str:
    m = bimatrix(spec)
    if fmt == "table":
        return m.to_text_table() + "\n"
    if fmt == "csv":
        lines = ["row,col,cost_row,cost_col"]
        for i, rl in enumerate(m.labels):
            for j, cl in enumerate(m.labels):
                a, b = m.cell(i, j)
                lines.append(f"{rl},{cl},{format_value(a)},{format_value(b)}")
        return "\n".join(lines) + "\n"
    return _json_text({"game": spec.describe(), "matrix": m.to_json_obj()}) + "\n"


def _solve_payload(spec: GameSpec, fmt: str) -> str:
    m, eq, metrics = analyze(spec)
    if fmt == "json":
        payload = {
            "game": spec.describe(),
            "matrix": m.to_json_obj(),
            "equilibria": eq.to_json_obj(),
            "metrics": metrics.to_json_obj(),
        }
        return _json_text(payload) + "\n"
    if fmt == "csv":
        if spec.k is not None:
            axis, value = "k", spec.k
        else:
            # The classical two-person game is the gamma = 0 limit.
            axis, value = "gamma", spec.gamma if spec.gamma is not None else 0.0
        return SweepSeries(axis, (value,), (metrics,), ()).to_csv()

    def fmt_cells(profiles):
        return ", ".join(f"({p.row_label},{p.col_label})" for p in profiles) or "none"

    lines = [f"game: {spec.describe()}", "", m.to_text_table(), ""]
    lines.append(f"strict pure equilibria: {fmt_cells(eq.strict_pure)}")
    lines.append(f"weak pure equilibria:   {fmt_cells(eq.weak_pure)}")
    mixed = ", ".join(format_equilibrium_label(p) for p in eq.mixed) or "none"
    lines.append(f"mixed equilibria:       {mixed}")
    opt_cells, opt_total = optimal_outcome(m)
    lines.append(f"optimal cells:          {fmt_cells(opt_cells)} (pair total {format_value(opt_total)})")
    sel = format_equilibrium_label(eq.selected)
    lines.append(f"selected equilibrium:   {sel or 'none'}" + (f" [{eq.selected_by}]" if eq.selected_by else ""))
    lines.append(describe_metrics(metrics))
    return "\n".join(lines) + "\n"


def _sweep_payload(args, parser, fmt: str) -> str:
    mode, variant = GAMES[args.game]
    if args.over == "k":
        if variant != "k_person":
            parser.error("--over k requires --game classicalk or quantumk")
        if args.k is not None:
            parser.error("--over k uses --k-range, not --k")
        if args.gamma_steps is not None:
            parser.error("--over k does not take --gamma-steps")
        strategies, gamma = _game_inputs(args, parser)
        k_range = None if args.k_range is None else _parse_k_range(args.k_range, parser)
        series = sweep_k(mode, strategies, args.n, k_range, gamma=gamma)
    else:
        if mode != "quantum":
            parser.error("--over gamma requires a quantum game")
        if args.k_range is not None:
            parser.error("--over gamma does not take --k-range")
        if args.gamma is not None:
            parser.error("--over gamma generates its own samples; drop --gamma")
        steps = 9 if args.gamma_steps is None else args.gamma_steps
        if steps < 2:
            parser.error("--gamma-steps must be at least 2")
        spec = _build_spec(args, parser)
        samples = [float(g) for g in np.linspace(0.0, GAMMA_MAX, steps)]
        series = sweep_gamma(spec.strategies, samples, n=spec.n, k=spec.k)

    if fmt == "json":
        return _json_text(series.to_json_obj()) + "\n"
    # table and csv render the same rows; csv is the canonical format
    return series.to_csv()


def main(argv=None) -> int:
    parser = _parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)

    if args.command == "verify":
        failures = 0
        for result in run_all():
            if result.passed:
                print(f"PASS  {result.name}")
            else:
                failures += 1
                print(f"FAIL  {result.name}: {result.detail}")
        print(f"{'all checks passed' if not failures else f'{failures} check(s) failed'}")
        return 0 if failures == 0 else 3

    fmt = args.format
    try:
        if args.command == "matrix":
            spec = _build_spec(args, parser)
            payload = _matrix_payload(spec, fmt or "table")
        elif args.command == "solve":
            spec = _build_spec(args, parser)
            payload = _solve_payload(spec, fmt or "table")
        else:  # sweep
            payload = _sweep_payload(args, parser, fmt or "csv")
    except SystemExit as exc:  # parser.error inside dispatch
        return int(exc.code or 0)
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    if args.out is None:
        sys.stdout.write(payload)
        return 0
    try:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(payload)
    except OSError as exc:
        print(f"error: cannot write --out {args.out}: {exc.strerror or exc}", file=sys.stderr)
        return 1
    return 0


def run() -> None:
    sys.exit(main())


if __name__ == "__main__":
    run()
