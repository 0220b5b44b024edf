import contextlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import pigouq.cli as cli
from pigouq.cli import main
from pigouq.sweeps import CSV_HEADER

SRC = Path(__file__).resolve().parents[1] / "src"
GOLDEN = Path(__file__).resolve().parent / "golden"


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_matrix_table(capsys):
    code, out, _ = run_cli(capsys, "matrix", "--game", "classical2", "--format", "table")
    assert code == 0
    assert "(1, 1/2)" in out and "(1/2, 1)" in out
    assert out.count("P1") >= 2


def test_matrix_json(capsys):
    code, out, _ = run_cli(capsys, "matrix", "--game", "quantum2", "--strategies", "p1p2m", "--gamma", "max", "--format", "json")
    assert code == 0
    obj = json.loads(out)
    assert obj["matrix"]["cells"][2][2] == {"a": {"num": 7, "den": 8}, "b": {"num": 7, "den": 8}}


def test_solve_json_reports_reference_metrics(capsys):
    code, out, _ = run_cli(
        capsys, "solve", "--game", "quantum2", "--strategies", "p1p2m", "--gamma", "max", "--format", "json"
    )
    assert code == 0
    obj = json.loads(out)
    assert obj["metrics"]["cost_ne"] == {"num": 7, "den": 4}
    assert obj["metrics"]["pos"] == {"num": 7, "den": 6}
    assert obj["equilibria"]["selected"] == {"row": "M", "col": "M"}


def test_solve_table_lists_equilibria(capsys):
    code, out, _ = run_cli(capsys, "solve", "--game", "classicalk", "--n", "10", "--k", "3")
    assert code == 0
    assert "selected equilibrium:   pure:(P2,P2)" in out
    assert "cost(NE) = 15/2" in out


def test_solve_defaults_gamma_to_max(capsys):
    code, out, _ = run_cli(capsys, "solve", "--game", "quantum2", "--strategies", "p1p2q", "--format", "json")
    assert code == 0
    obj = json.loads(out)
    assert obj["metrics"]["cost_ne"] == {"num": 2, "den": 1}
    assert obj["metrics"]["pos"] == {"num": 4, "den": 3}


def test_sweep_csv_matches_reference_series(capsys):
    code, out, _ = run_cli(
        capsys,
        "sweep", "--game", "quantumk", "--strategies", "p1p2q", "--n", "10",
        "--k-range", "1..7", "--over", "k", "--format", "csv",
    )
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "axis,value,cost_ne,cost_opt,pos,poa,equilibrium"
    assert len(lines) == 8
    costs = [float(line.split(",")[2]) for line in lines[1:]]
    printed = [8.38, 7.78, 7.38, 7.176, 7.177, 7.38, 7.78]
    assert all(abs(got - want) < 5e-3 for got, want in zip(costs, printed))


def test_sweep_gamma_over_quantum2(capsys):
    code, out, _ = run_cli(
        capsys, "sweep", "--game", "quantum2", "--strategies", "p1p2m", "--over", "gamma", "--gamma-steps", "3"
    )
    assert code == 0
    lines = out.strip().split("\n")
    assert len(lines) == 4
    assert lines[1].startswith("gamma,0.0,2.0")
    assert lines[3].split(",")[2] == "1.75"


def test_gamma_sweep_takes_nine_samples_by_default(capsys):
    argv = ("sweep", "--game", "quantum2", "--strategies", "p1p2q", "--over", "gamma")
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    assert len(out.splitlines()) == 1 + 9
    assert run_cli(capsys, *argv, "--gamma-steps", "9") == (0, out, "")


def test_sweep_repeated_runs_byte_identical(tmp_path, capsys):
    args = [
        "sweep", "--game", "quantumk", "--strategies", "p1p2m", "--n", "10",
        "--k-range", "1..7", "--over", "k", "--format", "csv",
    ]
    path_a = tmp_path / "a.csv"
    path_b = tmp_path / "b.csv"
    assert main(args + ["--out", str(path_a)]) == 0
    assert main(args + ["--out", str(path_b)]) == 0
    capsys.readouterr()
    assert path_a.read_bytes() == path_b.read_bytes()
    assert path_a.read_bytes().startswith(b"axis,value,")


@pytest.mark.parametrize(
    "golden, argv",
    [
        ("matrix_p1p2m_n9_k3.json", ["matrix", "--game", "quantumk", "--strategies", "p1p2m", "--n", "9", "--k", "3"]),
        ("solve_p1p2q_n10_k4.json", ["solve", "--game", "quantumk", "--strategies", "p1p2q", "--n", "10", "--k", "4"]),
        ("sweep_over_k_p1p2q_n12.json", ["sweep", "--game", "quantumk", "--strategies", "p1p2q", "--n", "12", "--over", "k"]),
    ],
)
def test_json_out_file_has_the_stdout_bytes(golden, argv, tmp_path, capsys):
    argv = argv + ["--format", "json"]
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    path = tmp_path / "payload.json"
    assert main(argv + ["--out", str(path)]) == 0
    assert capsys.readouterr().out == ""
    assert path.read_bytes() == out.encode("ascii") == (GOLDEN / golden).read_bytes()


def test_scarpa_set_runs_on_quantum2(capsys):
    code, out, _ = run_cli(capsys, "matrix", "--game", "quantum2", "--strategies", "scarpa")
    assert code == 0
    assert "S1" in out and "(1, 1/2)" in out


def test_verify_passes(capsys):
    code, out, _ = run_cli(capsys, "verify")
    assert code == 0
    assert "FAIL" not in out
    assert out.count("PASS") >= 11


def run_module(*argv):
    """``python -m pigouq.cli ...`` in a child interpreter that imports this checkout."""
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    cmd = [sys.executable, "-m", "pigouq.cli", *argv]
    return subprocess.run(cmd, capture_output=True, text=True, timeout=300, env={**os.environ, "PYTHONPATH": path})


def test_module_entry_point_runs_the_cli():
    proc = run_module("verify")
    assert proc.returncode == 0, proc.stderr
    assert sum(line.startswith("PASS  ") for line in proc.stdout.splitlines()) == 11
    proc = run_module("solve", "--game", "classical2", "--n", "5")
    assert proc.returncode == 1
    assert "--n does not apply to classical2" in proc.stderr


class TestParserReuse:
    """``main`` parses every call with one parser, built on the first call."""

    def test_main_builds_the_parser_once(self, monkeypatch, capsys):
        built = []
        real_build_parser = cli.build_parser

        def counting_build_parser():
            built.append(None)
            return real_build_parser()

        monkeypatch.setattr(cli, "build_parser", counting_build_parser)
        cli._parser.cache_clear()
        assert main(["matrix", "--game", "classical2"]) == 0
        assert main(["solve", "--game", "quantum2", "--strategies", "p1p2m", "--format", "csv"]) == 0
        assert main(["solve", "--game", "nonsense"]) == 1
        assert main(["sweep", "--game", "classicalk", "--n", "5", "--over", "k"]) == 0
        capsys.readouterr()
        assert len(built) == 1
        # The public builder still hands out a fresh parser each call.
        assert real_build_parser() is not real_build_parser()

    def test_error_and_help_leave_the_next_request_intact(self, capsys):
        assert main(["solve", "--game", "quantumk", "--n", "10"]) == 1
        assert main(["--help"]) == 0
        captured = capsys.readouterr()
        assert captured.out.startswith("usage: pigouq ")
        assert "--k is required for quantumk" in captured.err
        argv = ["solve", "--game", "quantumk", "--strategies", "p1p2q", "--n", "10", "--k", "4", "--format", "json"]
        code, out, err = run_cli(capsys, *argv)
        assert (code, err) == (0, "")
        assert out == (GOLDEN / "solve_p1p2q_n10_k4.json").read_text()


class TestUsageErrors:
    @pytest.mark.parametrize(
        "argv",
        [
            ("matrix", "--game", "classical2", "--k", "3"),
            ("matrix", "--game", "classical2", "--gamma", "max"),
            ("matrix", "--game", "classicalk"),  # missing --n/--k
            ("matrix", "--game", "classicalk", "--n", "10", "--k", "1", "--strategies", "p1p2q"),
            ("solve", "--game", "quantumk", "--n", "10"),  # missing --k
            ("solve", "--game", "quantumk", "--n", "10", "--k", "1", "--strategies", "scarpa"),
            ("sweep", "--game", "quantum2", "--over", "k", "--k-range", "1..7"),
            ("sweep", "--game", "quantumk", "--n", "10", "--over", "k", "--k", "3"),
            ("sweep", "--game", "quantumk", "--n", "10", "--over", "k", "--k-range", "7..5"),
            ("sweep", "--game", "classicalk", "--n", "10", "--over", "gamma"),
            ("sweep", "--game", "quantumk", "--n", "10", "--k-range", "1..7", "--over", "k", "--gamma", "oops"),
            ("matrix", "--game", "nonsense"),
            # each game/flag rule once per subcommand that can break it
            ("matrix", "--game", "quantumk", "--n", "10", "--k", "1", "--strategies", "scarpa"),
            ("solve", "--game", "classical2", "--gamma", "0.1"),
            ("solve", "--game", "classicalk", "--n", "10", "--k", "1", "--strategies", "p1p2m"),
            ("solve", "--game", "quantum2", "--n", "3"),
            ("solve", "--game", "quantumk", "--k", "2"),
            ("sweep", "--game", "classicalk", "--n", "10", "--over", "k", "--gamma", "0.2"),
            ("sweep", "--game", "classicalk", "--n", "10", "--over", "k", "--strategies", "p1p2q"),
            ("sweep", "--game", "quantumk", "--n", "10", "--over", "k", "--strategies", "scarpa"),
            ("sweep", "--game", "quantum2", "--over", "gamma", "--n", "4"),
            ("sweep", "--game", "quantumk", "--over", "k"),
            ("sweep", "--game", "quantumk", "--n", "10", "--over", "gamma"),  # missing --k
            ("sweep", "--game", "quantumk", "--n", "10", "--over", "k", "--gamma-steps", "5"),
            ("sweep", "--game", "quantum2", "--over", "gamma", "--gamma-steps", "1"),
        ],
    )
    def test_exit_code_1(self, capsys, argv):
        code = main(list(argv))
        captured = capsys.readouterr()
        assert code == 1
        assert ": error: " in captured.err

    @pytest.mark.parametrize(
        "argv, usage, message",
        [
            # rejected by argparse while parsing
            (
                ("matrix", "--game", "nonsense"),
                "usage: pigouq matrix ",
                "pigouq matrix: error: argument --game: invalid choice: 'nonsense'",
            ),
            # rejected by parser.error while dispatching
            (
                ("solve", "--game", "classical2", "--n", "5"),
                "usage: pigouq ",
                "pigouq: error: --n does not apply to classical2\n",
            ),
            (
                ("sweep", "--game", "classicalk", "--n", "10", "--over", "k", "--gamma-steps", "9"),
                "usage: pigouq ",
                "pigouq: error: --over k does not take --gamma-steps\n",
            ),
        ],
    )
    def test_message_reaches_the_stderr_of_each_call(self, capsys, argv, usage, message):
        # The two calls print to different streams, so a parser that kept the
        # stream of an earlier call would leave the second capture empty.
        first = io.StringIO()
        with contextlib.redirect_stderr(first):
            assert main(list(argv)) == 1
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (1, "")
        assert err == first.getvalue()
        assert err.startswith(usage)
        assert message in err


class TestDomainErrors:
    @pytest.mark.parametrize(
        "argv",
        [
            ("matrix", "--game", "quantumk", "--n", "10", "--k", "9"),
            ("matrix", "--game", "quantum2", "--gamma", "3.0"),
            ("sweep", "--game", "quantumk", "--strategies", "p1p2q", "--n", "10", "--k-range", "7..9", "--over", "k"),
            ("sweep", "--game", "quantumk", "--n", "10", "--k", "9", "--over", "gamma"),
        ],
    )
    def test_exit_code_2(self, capsys, argv):
        code = main(list(argv))
        captured = capsys.readouterr()
        assert code == 2
        assert "error:" in captured.err

    def test_k_sweep_below_three_travelers(self, capsys):
        code = main(["sweep", "--game", "classicalk", "--n", "2", "--over", "k"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err == "error: the k-person game requires n >= 3\n"

    def test_k_sweep_default_range_empty_at_three_travelers(self, capsys):
        code = main(["sweep", "--game", "classicalk", "--n", "3", "--over", "k"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert "1..n-3 is empty for n=3" in captured.err
        assert "--k-range 0..0" in captured.err
        # The range the message names works.
        assert main(["sweep", "--game", "classicalk", "--n", "3", "--over", "k", "--k-range", "0..0"]) == 0
        assert capsys.readouterr().out.splitlines()[1] == "k,0,2.3333333333333335,2.3333333333333335,1.0,1.0,pure:(P2,P2)"


class TestNoSelectedEquilibrium:
    """An n-traveler game in which no k selects an equilibrium leaves its metrics unset, as a two-person one does."""

    def test_solve_table(self, capsys):
        code, out, err = run_cli(
            capsys, "solve", "--game", "quantumk", "--strategies", "p1p2m", "--n", "3", "--k", "0", "--gamma", "0.8"
        )
        assert (code, err) == (0, "")
        assert "selected equilibrium:   none\n" in out
        assert out.endswith("cost(NE) = -, cost(OPT) = -, PoS = -, PoA = -\n")

    def test_solve_json(self, capsys):
        code, out, _ = run_cli(
            capsys, "solve", "--game", "quantumk", "--strategies", "p1p2q", "--n", "6", "--k", "2",
            "--gamma", "1.114", "--format", "json",
        )
        assert code == 0
        obj = json.loads(out)
        assert obj["equilibria"]["selected"] is None
        assert obj["metrics"] == {
            "cost_ne": None, "cost_opt": None, "pos": None, "poa": None, "k": 2, "equilibrium": None,
        }

    def test_sweep_over_k(self, capsys):
        code, out, _ = run_cli(
            capsys, "sweep", "--game", "quantumk", "--strategies", "p1p2q", "--n", "6", "--gamma", "1.114",
            "--over", "k",
        )
        assert code == 0
        assert out.splitlines()[1:] == ["k,1,,,,,", "k,2,,,,,", "k,3,,,,,"]


def test_float_game_is_symmetric_to_the_last_bit(capsys):
    # Bob's float costs are Alice's transposed, not a sum of their own, so a
    # symmetric cell reads one cost twice and the symmetric mixed equilibrium one mix
    _, out, _ = run_cli(
        capsys, "solve", "--game", "quantumk", "--strategies", "p1p2m", "--n", "3", "--k", "0", "--gamma", "0.8"
    )
    assert out.splitlines()[5].endswith("  (0.75, 0.75)")
    assert "mixed:(0,0.9416009553974223,0.05839904460257769)," in out


def test_negative_zero_gamma_prints_as_zero(capsys):
    def solve(gamma, fmt):
        return run_cli(capsys, "solve", "--game", "quantum2", "--gamma", gamma, "--format", fmt)

    table, csv = solve("-0.0", "table"), solve("-0.0", "csv")
    assert (table, csv) == (solve("0", "table"), solve("0", "csv"))
    assert table[1].startswith("game: quantum two-person n=2 gamma=0 strategies=P1,P2\n")
    assert csv[1].startswith(f"{CSV_HEADER}\ngamma,0.0,")


def test_out_redirects_payload_only(tmp_path, capsys):
    target = tmp_path / "grid.txt"
    code = main(["matrix", "--game", "classical2", "--out", str(target)])
    captured = capsys.readouterr()
    assert code == 0
    assert captured.out == ""
    assert "(1, 1/2)" in target.read_text()


@pytest.mark.parametrize("where", ["missing-dir", "directory"])
def test_unwritable_out_is_a_usage_error(tmp_path, capsys, where):
    target = tmp_path / "no" / "such" / "grid.txt" if where == "missing-dir" else tmp_path
    code = main(["matrix", "--game", "classical2", "--out", str(target)])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err.startswith(f"error: cannot write --out {target}: ")
    assert captured.err.count("\n") == 1
