"""Byte-for-byte CLI outputs, pinned in ``tests/golden/``.

Exact games print ``Fraction`` values and correctly rounded floats, so
these bytes do not depend on numpy's matmul rounding. The float cells of
a named-strategy game at any angle come from ``math.sin`` and IEEE
multiplies and adds over the exact endpoint tables, never from the
protocol's matmuls, so two such gamma sweeps and one such solve are
pinned too. A change meant to keep outputs byte-identical must leave
every file here untouched.

Regenerate (only when an output change is intended and explained)::

    PYTHONPATH=src python tests/test_golden_outputs.py
"""

from pathlib import Path

import pytest

from pigouq.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden"

CASES = {
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
    "verify.txt": ["verify"],
}
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
