"""Byte-for-byte CLI outputs, pinned in ``tests/golden/``.

Exact games print ``Fraction`` values and correctly rounded floats, so
these bytes do not depend on numpy's matmul rounding. The float cells of
a named-strategy game at any angle come from ``math.sin`` and IEEE
multiplies and adds over the exact endpoint tables, never from the
protocol's matmuls, so two such gamma sweeps, one such solve and two
such matrices, one of them in all three formats, are pinned too. A
change meant to keep outputs byte-identical must leave every file here
untouched.

Regenerate (only when an output change is intended and explained)::

    PYTHONPATH=src python tests/test_golden_outputs.py
"""

import hashlib
import json
import math
from pathlib import Path

import pytest

from pigouq.cli import STRATEGY_SETS, main
from pigouq.equilibria import solve
from pigouq.games import GameSpec, bimatrix
from pigouq.metrics import analyze, solve_over_k
from pigouq.sweeps import sweep_k

GOLDEN = Path(__file__).resolve().parent / "golden"

CASES = {
    # Float cells from the S1/S2 endpoint tables, which no angle moves.
    "matrix_quantum2_scarpa_gamma0.7.json": [
        "matrix", "--game", "quantum2", "--strategies", "scarpa", "--gamma", "0.7", "--format", "json",
    ],
    # Full-precision float cells, which the digits of float.__repr__ pin.
    "matrix_quantum2_p1p2m_gamma0.7.json": [
        "matrix", "--game", "quantum2", "--strategies", "p1p2m", "--gamma", "0.7", "--format", "json",
    ],
    "matrix_p1p2m_n9_k3.json": [
        "matrix", "--game", "quantumk", "--strategies", "p1p2m", "--n", "9", "--k", "3", "--format", "json",
    ],
    "solve_classical2.json": ["solve", "--game", "classical2", "--format", "json"],
    "solve_classicalk_n10_k3.json": ["solve", "--game", "classicalk", "--n", "10", "--k", "3", "--format", "json"],
    "solve_p1p2q_n10_k4.json": [
        "solve", "--game", "quantumk", "--strategies", "p1p2q", "--n", "10", "--k", "4", "--format", "json",
    ],
    "solve_p1p2m_n9_k3.json": [
        "solve", "--game", "quantumk", "--strategies", "p1p2m", "--n", "9", "--k", "3", "--format", "json",
    ],
    "solve_quantum2_p1p2q.json": ["solve", "--game", "quantum2", "--strategies", "p1p2q", "--format", "json"],
    # A float game in which no rule selects a profile.
    "solve_quantum2_p1p2m_gamma0.3.json": [
        "solve", "--game", "quantum2", "--strategies", "p1p2m", "--gamma", "0.3", "--format", "json",
    ],
    "solve_p1p2q_n9_k3.txt": ["solve", "--game", "quantumk", "--strategies", "p1p2q", "--n", "9", "--k", "3"],
    "solve_p1p2q_n10_k4.csv": [
        "solve", "--game", "quantumk", "--strategies", "p1p2q", "--n", "10", "--k", "4", "--format", "csv",
    ],
    # The classical two-person game's one CSV row sits on the gamma axis, at 0.0.
    "solve_classical2.csv": ["solve", "--game", "classical2", "--format", "csv"],
    "verify.txt": ["verify"],
    # Large populations, beyond the digest corpus: every k's selection of one over-k pass.
    "sweep_over_k_p1p2q_n101.csv": [
        "sweep", "--game", "quantumk", "--strategies", "p1p2q", "--n", "101", "--over", "k", "--format", "csv",
    ],
    "sweep_over_k_classicalk_n101.csv": [
        "sweep", "--game", "classicalk", "--n", "101", "--over", "k", "--format", "csv",
    ],
}
for _fmt, _ext in (("csv", "csv"), ("table", "txt")):
    CASES[f"matrix_p1p2m_n9_k3.{_ext}"] = [
        "matrix", "--game", "quantumk", "--strategies", "p1p2m", "--n", "9", "--k", "3", "--format", _fmt,
    ]
    CASES[f"matrix_quantum2_p1p2m_gamma0.7.{_ext}"] = [
        "matrix", "--game", "quantum2", "--strategies", "p1p2m", "--gamma", "0.7", "--format", _fmt,
    ]
for _fmt in ("csv", "json"):
    CASES[f"sweep_over_k_classicalk_n12.{_fmt}"] = [
        "sweep", "--game", "classicalk", "--n", "12", "--over", "k", "--format", _fmt,
    ]
    for _set in ("p1p2q", "p1p2m"):
        CASES[f"sweep_over_k_{_set}_n12.{_fmt}"] = [
            "sweep", "--game", "quantumk", "--strategies", _set, "--n", "12", "--over", "k", "--format", _fmt,
        ]
    CASES[f"sweep_over_gamma_p1p2q_n10_k4.{_fmt}"] = [
        "sweep", "--game", "quantumk", "--strategies", "p1p2q", "--n", "10", "--k", "4",
        "--over", "gamma", "--gamma-steps", "101", "--format", _fmt,
    ]
    CASES[f"sweep_over_gamma_quantum2_p1p2m.{_fmt}"] = [
        "sweep", "--game", "quantum2", "--strategies", "p1p2m", "--over", "gamma", "--gamma-steps", "13", "--format", _fmt,
    ]


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_output_matches_golden(name, capsys):
    assert main(list(CASES[name])) == 0
    assert capsys.readouterr().out == (GOLDEN / name).read_text()


#: Named-set games of the digest corpus: gamma = 0 and pi/2 (exact) and three float angles.
CORPUS_ANGLES = (0.0, 0.3, math.pi / 4, 1.2, math.pi / 2)
CORPUS_DIGEST = "e99a8b8787ca574559f60eaa7e8b917db95c45f4de990d6bf63f3c9d09475603"


def corpus_records():
    """JSON-ready records of every game in the digest corpus, in a fixed order.

    Each game contributes its bimatrix, its ``solve`` views and its metrics.
    Two-person games take their metrics from :func:`analyze`; a k-person
    game from a full-range ``sweep_k``, which prices every k against the
    cheapest total over k = 0..n-3, as :func:`analyze` does, with one solve
    per k instead of one over-k pass per k.
    """
    games = [("classical", ("P1", "P2"), None, range(3, 25))]
    games += [
        ("quantum", STRATEGY_SETS[name], gamma, range(3, 18))
        for name in sorted(STRATEGY_SETS)
        for gamma in CORPUS_ANGLES
    ]
    for mode, strategies, gamma, populations in games:
        if mode == "classical":
            spec = GameSpec.classical_two_person()
        else:
            spec = GameSpec.quantum_two_person(strategies, gamma)
        matrix, eq, metrics = analyze(spec)
        yield [spec.describe(), matrix.to_json_obj(), eq.to_json_obj(), metrics.to_json_obj()]
        for n in populations:
            ks = range(0, n - 2)
            points, _ = solve_over_k(GameSpec(mode, n, 0, gamma, strategies))
            reports = sweep_k(mode, strategies, n, ks, gamma).reports
            for (spec, matrix, eq, _), metrics in zip(points, reports):
                yield [spec.describe(), matrix.to_json_obj(), eq.to_json_obj(), metrics.to_json_obj()]


def corpus_digest() -> str:
    sha = hashlib.sha256()
    for record in corpus_records():
        sha.update(json.dumps(record, sort_keys=True, separators=(",", ":")).encode())
        sha.update(b"\n")
    return sha.hexdigest()


def test_digest_corpus_is_unchanged():
    """Matrices, equilibria and metrics of about 2,700 games, pinned by one SHA-256.

    Regenerate, only with an intended and explained output change, by
    printing :func:`corpus_digest`.
    """
    assert corpus_digest() == CORPUS_DIGEST


def test_every_golden_file_is_a_case():
    """A renamed or dropped case must not leave its old output behind, unchecked."""
    assert sorted(path.name for path in GOLDEN.iterdir()) == sorted(CASES)


if __name__ == "__main__":
    import contextlib
    import io

    GOLDEN.mkdir(exist_ok=True)
    for name, argv in sorted(CASES.items()):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            assert main(list(argv)) == 0
        (GOLDEN / name).write_text(buf.getvalue())
        print(f"wrote {GOLDEN / name}")
