import csv
import io
import json
import os
import subprocess
import sys

import pytest

import rainbow_lab
from rainbow_lab import cli, constructions, formulas, search
from rainbow_lab.certificates import read_certificate
from rainbow_lab.coloring import Coloring
from rainbow_lab.errors import InputError


def _env_with_package():
    """The environment with this package first on PYTHONPATH, for child processes."""
    env = dict(os.environ)
    src = os.path.dirname(os.path.dirname(rainbow_lab.__file__))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return env


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# the commands that take --budget-secs; OUT stands for the certificate path
_BUDGET_COMMANDS = {
    "search": "rb --n 5 --k 1 --method search",
    "formula": "rb --n 12 --k 1 --method formula",
    "both": "rb --n 12 --k 1 --method both",
    "witness": "witness --n 12 --k 1 --out OUT",
    "table": "table --n-max 1 --k 1",
}


def _budget_cases():
    for command in _BUDGET_COMMANDS:
        for budget in ("nan", "inf", "0", "-3"):
            # rb --method search keeps the ids "nan" and "inf" it had when it
            # was the only command checked
            first = command == "search" and budget in ("nan", "inf")
            yield pytest.param(command, budget, id=budget if first else f"{command}-{budget}")


class TestRb:
    def test_both_agree(self, capsys):
        code, out, _ = run(capsys, "rb", "--n", "12", "--k", "1", "--method", "both")
        assert code == cli.EXIT_OK
        assert "rb(12,1) = 5" in out
        assert "formula=search" in out

    def test_search_only(self, capsys):
        code, out, _ = run(capsys, "rb", "--n", "9", "--k", "3", "--method", "search")
        assert code == cli.EXIT_OK
        assert "rb(9,3) = 4" in out

    def test_formula_rejects_composite_k(self, capsys):
        code, _, err = run(capsys, "rb", "--n", "7", "--k", "4", "--method", "formula")
        assert code == cli.EXIT_INPUT
        assert "no closed form" in err

    def test_mismatch_exits_3(self, capsys, monkeypatch):
        from rainbow_lab.results import Method, RbResult

        monkeypatch.setattr(
            cli,
            "rb_formula",
            lambda n, k: RbResult(99, Method.GENERAL_RECURSION, detail={"p": 1}),
        )
        code, _, err = run(capsys, "rb", "--n", "6", "--k", "1", "--method", "both")
        assert code == cli.EXIT_MISMATCH
        assert "MISMATCH" in err

    def test_formula_too_low_still_exits_3(self, capsys):
        # Z_9 k=5 is in the 3-adic family where the closed form is one too
        # low; the search seeded with its 3-color construction still finds
        # the fourth color
        code, out, err = run(capsys, "rb", "--n", "9", "--k", "5", "--method", "both")
        assert code == cli.EXIT_MISMATCH
        assert out == ""
        assert err == "MISMATCH: formula says 4, search says 5\n"

    def test_search_method_runs_the_plain_oracle(self, capsys, monkeypatch):
        # --method search takes no seed, so its node count stays the plain
        # oracle's (TestPinnedCounts pins Z_21 k=3 at 1448 nodes)
        seeds = []
        oracle = cli.rb_oracle

        def recording(inst, cfg, lower_bound=None):
            seeds.append(lower_bound)
            return oracle(inst, cfg, lower_bound)

        monkeypatch.setattr(cli, "rb_oracle", recording)
        code, out, _ = run(capsys, "rb", "--n", "21", "--k", "3", "--method", "search")
        assert code == cli.EXIT_OK
        assert out.startswith("rb(21,3) = 4 [oracle: 1448 nodes, ")
        assert seeds == [None]

    def test_both_seeds_the_search_with_the_construction(self, capsys):
        code, out, err = run(capsys, "-v", "rb", "--n", "21", "--k", "3", "--method", "both")
        assert code == cli.EXIT_OK
        assert out == "rb(21,3) = 4, formula=search\n"
        lines = err.splitlines()
        bound = lines.index("INFO lower bound: 3 colors from general-lift")
        assert lines[bound + 1].startswith("INFO prunes: empty domain ")

    def test_inconclusive_exits_4(self, capsys):
        # the full Z_40 search takes about 90 ms, far past the budget
        code, out, _ = run(
            capsys,
            "rb", "--n", "40", "--k", "1", "--method", "search",
            "--budget-secs", "0.005",
        )
        assert code == cli.EXIT_INCONCLUSIVE
        assert "inconclusive" in out

    def test_verbose_logs_prune_counts(self, capsys):
        code, out, err = run(
            capsys, "-v", "rb", "--n", "21", "--k", "3", "--method", "search"
        )
        assert code == cli.EXIT_OK
        assert out.startswith("rb(21,3) = 4 [oracle: ") and out.count("\n") == 1
        assert any(
            line.startswith("INFO prunes: empty domain ") and ", count bound " in line
            for line in err.splitlines()
        )

    @pytest.mark.parametrize("command,budget", _budget_cases())
    def test_non_finite_budget_exits_2(self, capsys, tmp_path, command, budget):
        # every command that takes --budget-secs rejects a bad one before any
        # work: no output and no certificate file, even where no search runs
        path = tmp_path / "w.json"
        argv = [str(path) if a == "OUT" else a for a in _BUDGET_COMMANDS[command].split()]
        code, out, err = run(capsys, *argv, "--budget-secs", budget)
        assert code == cli.EXIT_INPUT
        assert err == f"error: time_budget must be a positive finite number, got {float(budget)}\n"
        assert out == ""
        assert not path.exists()

    def test_formula_route_never_runs_the_search(self, capsys, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("the formula route ran the search")

        monkeypatch.setattr(search, "rb_oracle", forbidden)
        monkeypatch.setattr(search, "_iter_canonical", forbidden)
        for a in sorted(formulas._TWO_POWER_RB):
            assert formulas.rb_general(2**a, 2).value == 3
        code, out, _ = run(capsys, "rb", "--n", "48", "--k", "2", "--method", "formula")
        assert code == cli.EXIT_OK
        assert "rb(48,2) = 4" in out


class TestWitnessAndVerify:
    @pytest.mark.parametrize(
        "n,k,colors", ((10, 1, 4), (25, 5, 3), (13, 3, 3))
    )
    def test_round_trip(self, capsys, tmp_path, n, k, colors):
        path = tmp_path / "w.json"
        code, out, _ = run(
            capsys, "witness", "--n", str(n), "--k", str(k), "--out", str(path)
        )
        assert code == cli.EXIT_OK
        assert f"colors={colors}" in out
        cert = read_certificate(path)
        assert cert.n == n and len(set(cert.colors)) == colors
        code, out, _ = run(capsys, "verify", str(path))
        assert code == cli.EXIT_OK
        assert "rainbow-free" in out

    def test_witness_records_construction(self, capsys, tmp_path):
        path = tmp_path / "w.json"
        run(capsys, "witness", "--n", "12", "--k", "1", "--out", str(path))
        assert read_certificate(path).meta["construction"] == "general-lift"

    def test_witness_k_zero_mod_prime_n_is_constructed(self, capsys, tmp_path):
        # k = 37 on Z_37 is the paper's k = p case: the prime-power witness
        path = tmp_path / "w.json"
        code, out, _ = run(
            capsys, "witness", "--n", "37", "--k", "37",
            "--budget-secs", "1", "--out", str(path),
        )
        assert code == cli.EXIT_OK
        assert "colors=19 [general-lift]" in out

    def test_witness_oracle_fallback(self, capsys, tmp_path):
        # k = 4 is composite: no construction applies, the oracle must step in
        path = tmp_path / "w.json"
        code, out, _ = run(capsys, "witness", "--n", "10", "--k", "4", "--out", str(path))
        assert code == cli.EXIT_OK
        assert "oracle-search" in out

    def test_witness_budget_out_before_any_coloring(self, capsys, tmp_path):
        # k = 4 is composite, so only the oracle applies; half a millisecond
        # ends its search long before it completes a coloring of Z_8000
        path = tmp_path / "w.json"
        code, out, err = run(
            capsys, "witness", "--n", "8000", "--k", "4",
            "--budget-secs", "0.0005", "--out", str(path),
        )
        assert code == cli.EXIT_INCONCLUSIVE
        assert err.startswith("error: no witness")
        assert out == ""
        assert not path.exists()

    def test_witness_inconclusive_oracle_writes_nothing(self, capsys, tmp_path):
        # k = 2 with 8 | 600 has no construction; 0.01 s lets the oracle
        # complete colorings of Z_600 but not prove one maximum
        path = tmp_path / "w.json"
        code, out, err = run(
            capsys, "witness", "--n", "600", "--k", "2",
            "--budget-secs", "0.01", "--out", str(path),
        )
        assert code == cli.EXIT_INCONCLUSIVE
        assert err.startswith("error: no witness")
        assert out == ""
        assert not path.exists()

    def test_witness_with_rainbow_triple_is_reported(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setattr(
            cli, "_construct_witness",
            lambda n, k, budget: (Coloring(5, (0, 1, 2, 2, 3)), "broken"),
        )
        path = tmp_path / "w.json"
        code, out, err = run(capsys, "witness", "--n", "5", "--k", "1", "--out", str(path))
        assert code == cli.EXIT_RAINBOW
        assert err.startswith("internal error:")
        assert "(1, 3, 4)" in err
        assert not path.exists()

    def test_witness_builder_input_error_is_not_hidden(self, capsys, tmp_path, monkeypatch):
        # a builder bug must surface, not fall back to the oracle silently
        def broken(n, p):
            raise InputError(f"base coloring is not rainbow-free for k={p}")

        def forbidden(*args, **kwargs):
            raise AssertionError("the witness route ran the oracle")

        monkeypatch.setattr(cli, "witness_general", broken)
        monkeypatch.setattr(cli, "rb_oracle", forbidden)
        path = tmp_path / "w.json"
        code, out, err = run(capsys, "witness", "--n", "10", "--k", "1", "--out", str(path))
        assert code == cli.EXIT_INPUT
        assert err == "error: base coloring is not rainbow-free for k=1\n"
        assert out == ""
        assert not path.exists()

    def test_witness_construction_error_exits_2(self, capsys, tmp_path, monkeypatch):
        # a lift that comes out rainbow is an error, not a reason to search
        def forbidden(*args, **kwargs):
            raise AssertionError("the witness route ran the oracle")

        monkeypatch.setattr(constructions, "_q_pattern", lambda q, p: list(range(q)))
        monkeypatch.setattr(cli, "rb_oracle", forbidden)
        path = tmp_path / "w.json"
        code, out, err = run(capsys, "witness", "--n", "13", "--k", "1", "--out", str(path))
        assert code == cli.EXIT_INPUT == 2
        assert err.startswith("error:") and "rainbow triple" in err
        assert out == ""
        assert not path.exists()

    def test_verify_reports_rainbow_triple(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"n": 5, "k": 1, "colors": [0, 1, 2, 2, 3]}))
        code, out, _ = run(capsys, "verify", str(path))
        assert code == cli.EXIT_RAINBOW
        assert "NOT rainbow-free" in out
        assert "(1, 3, 4)" in out

    def test_verify_truncated_json(self, capsys, tmp_path):
        path = tmp_path / "trunc.json"
        path.write_text('{"n": 5, "k": 1, "colors": [0, 1')
        code, _, err = run(capsys, "verify", str(path))
        assert code == cli.EXIT_INPUT
        assert "invalid certificate" in err

    @pytest.mark.parametrize(
        "data",
        [
            b'{"n": 1, "k": 1, "colors": [0], "meta": {"x": "\xff\xfe"}}',
            b"[" * 200000,
            b'{"n": ' + b"1" * 4301 + b', "k": 1, "colors": [0]}',
        ],
        ids=["non_utf8", "deep_nesting", "long_integer"],
    )
    def test_verify_unreadable_file_exits_2_without_traceback(self, tmp_path, data):
        # the read or json.loads raises an error other than JSONDecodeError
        path = tmp_path / "bad.json"
        path.write_bytes(data)
        proc = subprocess.run(
            [sys.executable, "-m", "rainbow_lab.cli", "verify", str(path)],
            capture_output=True,
            text=True,
            env=_env_with_package(),
            timeout=60,
        )
        assert "Traceback" not in proc.stderr, proc.stderr
        assert proc.stderr.startswith("invalid certificate: ")
        assert proc.returncode == cli.EXIT_INPUT

    def test_verify_non_canonical_prints_hint(self, capsys, tmp_path):
        path = tmp_path / "noncanon.json"
        path.write_text(json.dumps({"n": 3, "k": 1, "colors": [1, 0, 0]}))
        code, _, err = run(capsys, "verify", str(path))
        assert code == cli.EXIT_INPUT
        assert "canonical" in err
        assert "[0, 1, 1]" in err

    def test_verify_palettes(self, capsys, tmp_path):
        path = tmp_path / "w.json"
        run(capsys, "witness", "--n", "10", "--k", "1", "--out", str(path))
        code, out, _ = run(capsys, "verify", str(path), "--palettes", "5")
        assert code == cli.EXIT_OK
        assert "P_0 (mod 5)" in out

    def test_verify_palettes_must_divide(self, capsys, tmp_path):
        path = tmp_path / "w.json"
        run(capsys, "witness", "--n", "10", "--k", "1", "--out", str(path))
        code, out, err = run(capsys, "verify", str(path), "--palettes", "3")
        assert code == cli.EXIT_INPUT
        assert "does not divide" in err
        assert out == ""  # reported before the scan prints anything


class TestTable:
    def test_csv_schur(self, capsys):
        code, out, _ = run(capsys, "table", "--n-max", "10", "--k", "1")
        assert code == cli.EXIT_OK
        rows = list(csv.reader(io.StringIO(out)))
        assert rows[0] == cli.TABLE_COLUMNS
        assert len(rows) == 10  # header + n = 2..10
        for row in rows[1:]:
            assert row[2] == row[3]
            assert row[4] == "yes"

    def test_json_matches_csv_content(self, capsys):
        code, out, _ = run(
            capsys, "table", "--n-max", "6", "--k", "1", "--format", "json"
        )
        assert code == cli.EXIT_OK
        doc = json.loads(out)
        assert [row["n"] for row in doc] == [2, 3, 4, 5, 6]
        assert all(row["agree"] == "yes" for row in doc)

    def test_includes_z9_k3(self, capsys):
        code, out, _ = run(
            capsys, "table", "--n-max", "9", "--k", "3", "--format", "json"
        )
        assert code == cli.EXIT_OK
        by_n = {row["n"]: row for row in json.loads(out)}
        assert by_n[9]["rb_search"] == 4

    def test_k2_reaches_z32_and_beyond(self, capsys):
        # Z_32 takes its formula value from the built-in rb(Z_{2^5}, 2)
        code, out, _ = run(capsys, "table", "--n-max", "40", "--k", "2")
        assert code == cli.EXIT_OK
        rows = list(csv.reader(io.StringIO(out)))[1:]
        assert [int(row[0]) for row in rows] == list(range(2, 41))
        by_n = {int(row[0]): row for row in rows}
        assert by_n[32][2:5] == ["3", "3", "yes"]

    def test_composite_k_rows_are_search_only(self, capsys):
        # 4 = 1 (mod 3) and 4 = 0 (mod the prime 2) have closed forms; every
        # other row is search-only, with a blank formula
        code, out, _ = run(capsys, "table", "--n-max", "12", "--k", "4")
        assert code == cli.EXIT_OK
        rows = list(csv.reader(io.StringIO(out)))[1:]
        assert [int(row[0]) for row in rows] == list(range(2, 13))
        by_n = {int(row[0]): row for row in rows}
        assert by_n[2][2:5] == ["3", "3", "yes"]
        assert by_n[3][2:5] == ["3", "3", "yes"]
        for n in range(4, 13):
            assert by_n[n][2] == "" and by_n[n][3] != "", by_n[n]

    def test_inconclusive_rows_marked_and_exit_4(self, capsys):
        # seeded with the construction, the Z_26 row takes about 6 ms, so
        # the budget is well below that
        code, out, _ = run(
            capsys,
            "table", "--n-max", "26", "--k", "1", "--budget-secs", "0.001",
        )
        assert code == cli.EXIT_INCONCLUSIVE
        rows = list(csv.reader(io.StringIO(out)))
        inconclusive = [r for r in rows[1:] if r[4] == "inconclusive"]
        assert inconclusive
        for row in inconclusive:
            assert row[3] == ""  # never guessed

    def test_semantic_determinism(self, capsys):
        # identical values modulo the timing columns (elapsed_ms)
        def strip(out):
            return [
                [v for i, v in enumerate(row) if cli.TABLE_COLUMNS[i] != "elapsed_ms"]
                for row in list(csv.reader(io.StringIO(out)))[1:]
            ]

        _, out1, _ = run(capsys, "table", "--n-max", "8", "--k", "1")
        _, out2, _ = run(capsys, "table", "--n-max", "8", "--k", "1")
        assert strip(out1) == strip(out2)

    def test_invalid_modulus_in_fresh_interpreter_exits_2_without_traceback(self):
        # a package error raised in a fresh interpreter ends in exit 2
        proc = subprocess.run(
            [sys.executable, "-m", "rainbow_lab.cli", "rb", "--n", "0", "--k", "1"],
            capture_output=True,
            text=True,
            env=_env_with_package(),
            timeout=60,
        )
        assert "Traceback" not in proc.stderr, proc.stderr
        assert proc.stderr.startswith("error: modulus")
        assert proc.returncode == cli.EXIT_INPUT

    @pytest.mark.parametrize("unbuffered", [False, True])
    def test_closed_stdout_exits_141_without_traceback(self, unbuffered):
        # `table ... | head -1`: the reader closes the pipe after one line.
        # Closing the read end before the child writes makes every write
        # fail, whether stdout is block-buffered or unbuffered.
        env = _env_with_package()
        env.pop("PYTHONUNBUFFERED", None)
        if unbuffered:
            env["PYTHONUNBUFFERED"] = "1"
        proc = subprocess.Popen(
            [sys.executable, "-m", "rainbow_lab.cli", "table", "--n-max", "12", "--k", "3"],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            env=env,
        )
        proc.stdout.close()
        try:
            err = proc.stderr.read().decode()
            code = proc.wait(timeout=60)
        finally:
            proc.kill()
            proc.stderr.close()
        assert "Traceback" not in err and "BrokenPipeError" not in err, err
        assert code == cli.EXIT_BROKEN_PIPE == 141


class TestParser:
    def test_version(self, capsys):
        with pytest.raises(SystemExit) as exc_info:
            cli.main(["--version"])
        assert exc_info.value.code == 0
        assert "rainbow-lab" in capsys.readouterr().out

    def test_command_required(self):
        with pytest.raises(SystemExit):
            cli.main([])


class TestColdStart:
    def test_import_leaves_logging_csv_and_dataclasses_out(self):
        # every command starts a fresh interpreter and pays for each import;
        # -S keeps site from loading any of them first
        script = (
            "import json, sys\n"
            "import rainbow_lab.cli\n"
            "print(json.dumps(sorted({'logging', 'csv', 'dataclasses'} & set(sys.modules))))\n"
        )
        proc = subprocess.run(
            [sys.executable, "-S", "-c", script],
            capture_output=True, text=True, env=_env_with_package(), timeout=60,
        )
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout) == []


class TestRepeatedCalls:
    """main() called many times in one process, as an embedding program does."""

    def test_parser_built_once(self, capsys, monkeypatch, tmp_path):
        import argparse

        built = []
        init = argparse.ArgumentParser.__init__

        def counted(self, *args, **kwargs):
            built.append(kwargs.get("prog"))
            init(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)
        path = tmp_path / "w.json"
        code, _, _ = run(capsys, "witness", "--n", "10", "--k", "1", "--out", str(path))
        assert code == cli.EXIT_OK
        after_first = len(built)
        code, out, _ = run(capsys, "verify", str(path))
        assert code == cli.EXIT_OK and out.startswith("rainbow-free: n=10 k=1")
        assert len(built) == after_first

    def test_options_do_not_leak_into_the_next_call(self, capsys, tmp_path):
        path = tmp_path / "w.json"
        run(capsys, "witness", "--n", "12", "--k", "1", "--out", str(path))
        code, out, _ = run(capsys, "verify", str(path), "--palettes", "3")
        assert code == cli.EXIT_OK and "P_0 (mod 3)" in out
        code, out, _ = run(capsys, "verify", str(path))
        assert code == cli.EXIT_OK
        assert out == "rainbow-free: n=12 k=1 colors=4 (exact)\n"

        code, out, _ = run(capsys, "rb", "--n", "12", "--k", "1", "--method", "formula")
        assert code == cli.EXIT_OK and "formula=search" not in out
        code, out, _ = run(capsys, "rb", "--n", "12", "--k", "1")
        assert code == cli.EXIT_OK
        assert out == "rb(12,1) = 5, formula=search\n"

    def test_verbose_applies_to_each_call(self, capsys):
        argv = ["rb", "--n", "9", "--k", "3", "--method", "search"]
        code, _, err = run(capsys, *argv)
        assert code == cli.EXIT_OK and err == ""
        code, _, err = run(capsys, "-v", *argv)
        assert code == cli.EXIT_OK and err.startswith("INFO prunes: empty domain ")
        code, _, err = run(capsys, *argv)
        assert code == cli.EXIT_OK and err == ""

    def test_each_call_logs_to_its_own_stderr(self):
        # a fresh interpreter, so no earlier call or test harness holds a stream
        script = (
            "import contextlib, io, json\n"
            "from rainbow_lab import cli\n"
            "argv = ['rb', '--n', '9', '--k', '3', '--method', 'search']\n"
            "streams = []\n"
            "for extra in ([], ['-v'], ['-v']):\n"
            "    err = io.StringIO()\n"
            "    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):\n"
            "        assert cli.main(extra + argv) == 0\n"
            "    streams.append(err.getvalue())\n"
            "print(json.dumps(streams))\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True, text=True, env=_env_with_package(), timeout=60,
        )
        assert proc.returncode == 0, proc.stderr
        quiet, first, second = json.loads(proc.stdout)
        assert quiet == ""
        for err in (first, second):
            assert err.startswith("INFO prunes: empty domain ") and err.count("\n") == 1
