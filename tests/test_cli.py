import argparse
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import jsonschema
import pytest

from wmatch import classical, cli, edmonds, linalg, mvv, verify
from wmatch.graphs import parse_graph
from wmatch.verify import CheckResult, SuiteReport

K33 = "3\n1 1 1\n1 1 1\n1 1 1\n"
PM_FREE = "2\n0 0\n1 1\n"
DIAG2 = "2\n1 0\n0 1\n"
WEIGHTS_2 = "2\n1 2\n3 1\n"
WEIGHTS_3 = "3\n1 2 3\n4 5 6\n7 8 9\n"


@pytest.fixture
def files(tmp_path):
    paths = {}
    for name, text in [
        ("k33.graph", K33),
        ("pmfree.graph", PM_FREE),
        ("diag2.graph", DIAG2),
        ("w2.weights", WEIGHTS_2),
        ("w3.weights", WEIGHTS_3),
        ("bad.graph", "2\n1 0 1\n0 1\n"),
    ]:
        p = tmp_path / name
        p.write_text(text, encoding="utf-8")
        paths[name] = str(p)
    return paths


def run(capsys, argv):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, argv):
    code, out, err = run(capsys, argv + ["--format", "json"])
    payload = json.loads(out) if out else None
    return code, payload, err


SCHEMA = cli.report_schema()


class TestDecide:
    def test_yes_with_certificate(self, capsys, files):
        code, out, _ = run(capsys, ["decide", files["k33.graph"], "--trials", "20"])
        assert code == 0
        assert out.startswith("YES")
        assert "matching:" in out

    def test_no_on_pm_free(self, capsys, files):
        code, out, _ = run(capsys, ["decide", files["pmfree.graph"]])
        assert code == 1
        assert out.startswith("NO")

    def test_malformed_file_exit_2(self, capsys, files):
        code, _, err = run(capsys, ["decide", files["bad.graph"]])
        assert code == 2
        assert "line 2" in err

    @pytest.mark.parametrize("value, message", [
        ("abc", "expected a positive integer, got 'abc'"),
        ("0", "value must be >= 1"),
    ])
    def test_bad_trials_exit_2(self, capsys, files, value, message):
        # The message says what was expected, not the parser's helper.
        with pytest.raises(SystemExit) as exc:
            cli.main(["decide", files["k33.graph"], "--trials", value])
        err = capsys.readouterr().err
        assert exc.value.code == 2
        assert err.endswith(f"error: argument --trials: {message}\n")
        assert "_positive" not in err

    def test_missing_file_exit_2(self, capsys):
        code, _, err = run(capsys, ["decide", "/nonexistent.graph"])
        assert code == 2
        assert "error:" in err

    def test_undecodable_file_exit_2(self, capsys, files, tmp_path):
        # Not UTF-8: an input error (2), never a NO (1) or a traceback.
        p = tmp_path / "binary.graph"
        p.write_bytes(b"\xff\xfe2\n1 0\n0 1\n")
        for argv in (["decide", str(p)], ["find", str(p)],
                     ["mwpm", str(p), files["w2.weights"]]):
            code, out, err = run(capsys, argv)
            assert code == 2
            assert out == ""
            assert err.startswith(f"error: {p}") and "cannot read:" in err

    def test_non_ascii_digit_exit_2(self, capsys, tmp_path):
        # An Arabic-Indic one is no edge, and no dimension either.
        for name, text, line in (("entry.graph", "2\n\u0661 0\n0 1\n", 2),
                                 ("header.graph", "\u0662\n1 0\n0 1\n", 1)):
            p = tmp_path / name
            p.write_text(text, encoding="utf-8")
            code, out, err = run(capsys, ["decide", str(p)])
            assert code == 2
            assert out == ""
            assert err.startswith(f"error: {p}: line {line}: expected integer")

    def test_lines_end_at_newline_only(self, capsys, tmp_path):
        # U+2028 and a lone "\r" end no line, so each file below holds a
        # single row; CRLF still ends one.
        for name, data, code, err in (
            ("u2028.graph", "2\n1 0 0 1\n".encode(), 2,
             "line 3: expected 2 data rows, file ends after 1\n"),
            ("cr.graph", b"2\r1 0\r0 1\r", 2,
             "line 1: expected integer dimension, got '2\\r1 0\\r0 1'\n"),
            ("crlf.graph", b"2\r\n1 0\r\n0 1\r\n", 0, ""),
        ):
            p = tmp_path / name
            p.write_bytes(data)
            got = run(capsys, ["decide", str(p)])
            assert (got[0], got[2]) == (code, err and f"error: {p}: {err}")

    def test_json_schema(self, capsys, files):
        code, payload, _ = run_json(capsys, ["decide", files["k33.graph"]])
        assert code == 0
        jsonschema.validate(payload, SCHEMA)
        assert payload["result"] == "yes"

    def test_byte_identical_reruns(self, capsys, files):
        argv = ["decide", files["k33.graph"], "--seed", "42", "--format", "json"]
        _, out1, _ = run(capsys, argv)
        _, out2, _ = run(capsys, argv)
        assert out1 == out2


    def test_one_forward_pass_per_trial(self, capsys, tmp_path, monkeypatch):
        # A trial whose determinant residue mod P is nonzero answers
        # from the residues alone and runs no exact forward pass; a
        # trial whose residue vanishes runs exactly one (the exact zero
        # test).  A graph with no perfect matching runs no trial at all.
        trials = []  # [sample, exact forward passes in its trial]
        eliminate, sample = linalg._eliminate, cli.lovasz_sample

        def counting_eliminate(m):
            trials[-1][1] += 1
            return eliminate(m)

        def counting_sample(g, seed):
            b = sample(g, seed)
            trials.append([b, 0])
            return b

        monkeypatch.setattr(linalg, "_eliminate", counting_eliminate)
        monkeypatch.setattr(cli, "lovasz_sample", counting_sample)
        k22 = tmp_path / "k22.graph"
        k22.write_text("2\n1 1\n1 1\n", encoding="utf-8")
        pm_free = tmp_path / "pmfree.graph"
        pm_free.write_text(PM_FREE, encoding="utf-8")
        retried = 0
        for seed in range(40):
            argv = ["--trials", "5", "--seed", str(seed)]
            trials.clear()
            assert run(capsys, ["decide", str(k22)] + argv)[0] == 0
            assert [passes for _, passes in trials] == [
                int(linalg.inverse_mod(b) is None) for b, _ in trials
            ]
            # Every trial before the YES had a zero determinant.
            assert [passes for _, passes in trials] == [1] * (len(trials) - 1) + [0]
            retried += len(trials) > 1
            trials.clear()
            assert run(capsys, ["decide", str(pm_free)] + argv)[0] == 1
            assert trials == []
        # Some K2,2 samples have a zero determinant before the YES.
        assert retried >= 3


def hall_violator_graph(n, seed):
    """Text of an n x n graph at density 1/2 with its diagonal, where
    rows 0..2 see only columns 0 and 1: no perfect matching."""
    rng = random.Random(seed)
    rows = [[int(i == j or rng.random() < 0.5) for j in range(n)] for i in range(n)]
    for i in range(3):
        rows[i] = [1, 1] + [0] * (n - 2)
    return f"{n}\n" + "".join(" ".join(map(str, row)) + "\n" for row in rows)


class TestNoPerfectMatchingGate:
    """decide and find on a graph with no perfect matching answer from
    the graph's own matching verdict, with no sample, weights or
    elimination; at n = 200 one ungated elimination takes seconds."""

    @pytest.fixture
    def violator(self, tmp_path, monkeypatch):
        def forbidden(*args):
            raise AssertionError("a trial ran on a graph with no perfect matching")

        matchings = []
        kuhn = classical._kuhn

        def counting_matching(masks):
            matchings.append(masks)
            return kuhn(masks)

        for module, name in ((cli, "lovasz_sample"), (edmonds, "lovasz_sample"),
                             (mvv, "random_weights"), (linalg, "_eliminate")):
            monkeypatch.setattr(module, name, forbidden)
        monkeypatch.setattr(classical, "_kuhn", counting_matching)
        p = tmp_path / "violator.graph"
        p.write_text(hall_violator_graph(200, 200), encoding="utf-8")
        return str(p), matchings

    @pytest.mark.parametrize("command,first", [("decide", "NO"), ("find", "FAILED")])
    def test_answers_without_a_trial(self, capsys, violator, command, first):
        path, matchings = violator
        code, out, err = run(capsys, [command, path, "--trials", "20"])
        assert (code, err) == (1, "")
        assert out.splitlines() == [first, "trials: 20"]
        assert len(matchings) == 1 and len(matchings[0]) == 200

    def test_decide_draws_no_sample(self, capsys, violator):
        path, matchings = violator
        g = parse_graph(Path(path).read_text(encoding="utf-8"))
        for seed in range(20):
            code, out, err = run(capsys, ["decide", path, "--seed", str(seed)])
            assert (code, out.splitlines()[0], err) == (1, "NO", "")
        assert matchings == [g.row_masks] * 20


class TestFind:
    def test_found(self, capsys, files):
        code, payload, _ = run_json(capsys, ["find", files["k33.graph"]])
        assert code == 0
        jsonschema.validate(payload, SCHEMA)
        assert payload["result"] == "found"
        assert len(payload["matching"]) == 3
        weight = sum(
            payload["weights"][i][j] for i, j in payload["matching"]
        )
        assert weight == payload["min_weight"]

    def test_failed_on_pm_free(self, capsys, files):
        code, payload, _ = run_json(capsys, ["find", files["pmfree.graph"]])
        assert code == 1
        jsonschema.validate(payload, SCHEMA)
        assert payload["result"] == "failed"

    def test_text_output_lists_weights(self, capsys, files):
        code, out, _ = run(capsys, ["find", files["diag2.graph"]])
        assert code == 0
        assert "weights:" in out


class TestHungarian:
    def test_2x2_example(self, capsys, files):
        code, payload, _ = run_json(capsys, ["hungarian", files["w2.weights"]])
        assert code == 0
        jsonschema.validate(payload, SCHEMA)
        assert payload["matching_weight"] == 5
        assert payload["cover_cost"] == 5
        assert payload["weight_equals_cost"] is True
        assert payload["cover_valid"] is True

    def test_negative_weight_exit_2(self, capsys, tmp_path):
        p = tmp_path / "neg.weights"
        p.write_text("2\n1 -2\n3 1\n", encoding="utf-8")
        code, _, err = run(capsys, ["hungarian", str(p)])
        assert code == 2
        assert "line 2" in err

    def test_non_ascii_decimal_weights_exit_2(self, capsys, files, tmp_path):
        # int() would read this row as 1000 and 2.
        p = tmp_path / "underscore.weights"
        p.write_text("2\n1_000 +2\n3 1\n", encoding="utf-8")
        for argv in (["hungarian", str(p)], ["mwpm", files["diag2.graph"], str(p)]):
            code, out, err = run(capsys, argv)
            assert code == 2
            assert out == ""
            assert err == f"error: {p}: line 2: expected integer entry, got '1_000'\n"

    def test_undecodable_weights_exit_2(self, capsys, files, tmp_path):
        p = tmp_path / "binary.weights"
        p.write_bytes(b"2\n1 2\n3 \xe9\n")
        for argv in (["hungarian", str(p)], ["mwpm", files["k33.graph"], str(p)]):
            code, out, err = run(capsys, argv)
            assert code == 2
            assert out == ""
            assert err.startswith(f"error: {p}") and "cannot read:" in err


class TestClosedStdout:
    def test_closed_pipe_ends_quietly(self, files):
        # The read end is closed before the child starts, so its first
        # write to stdout meets a broken pipe, as under `wmatch ... | head`.
        read_end, write_end = os.pipe()
        os.close(read_end)
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "wmatch.cli", "hungarian",
                 files["w3.weights"], "--format", "json"],
                stdout=write_end,
                stderr=subprocess.PIPE,
                env=env,
                timeout=60,
            )
        finally:
            os.close(write_end)
        assert b"Traceback" not in proc.stderr
        assert proc.stderr == b""
        assert proc.returncode == cli.EXIT_BROKEN_PIPE


# What ``import wmatch.cli`` must not run: the suites, which only
# ``verify`` runs, and standard modules that only ``--seed random``
# (secrets, hmac) or ``report_schema`` (importlib.resources, pathlib,
# tempfile) use, or that only the suites use (fractions, decimal).
DEFERRED = ("wmatch.verify", "fractions", "decimal", "secrets", "hmac",
            "pathlib", "importlib.resources", "tempfile")

# Run in a fresh interpreter; prints one JSON line of what it saw.  A
# lazily imported module sits in sys.modules before its code runs, as
# an instance of a subclass of ModuleType; once run, it is a ModuleType.
STARTUP_CHILD = """
import sys, types
def ran(name):
    return type(sys.modules.get(name)) is types.ModuleType
import wmatch.cli
seen = {
    "ran": sorted(name for name in sys.argv[2:] if ran(name)),
    "registered": wmatch.verify is sys.modules["wmatch.verify"],
    "verify": wmatch.cli.main(["verify", "classical", "--max-n", "2", "--format", "json"]),
    "verify_ran": ran("wmatch.verify"),
    "decide": wmatch.cli.main(["decide", sys.argv[1], "--seed", "random", "--format", "json"]),
}
import json
print(json.dumps(seen))
"""


class TestStartup:
    def test_commands_run_only_what_they_use(self, files):
        # -S keeps site hooks (a .pth file, say) from importing any of
        # these on their own.
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = dict(os.environ, PYTHONPATH=src)
        proc = subprocess.run(
            [sys.executable, "-S", "-c", STARTUP_CHILD, files["k33.graph"], *DEFERRED],
            capture_output=True,
            encoding="utf-8",
            env=env,
            timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        seen = json.loads(proc.stdout.splitlines()[-1])
        assert seen == {
            "ran": [], "registered": True, "verify": 0, "verify_ran": True, "decide": 0,
        }


class TestMwpm:
    def test_k33(self, capsys, files):
        code, payload, _ = run_json(
            capsys, ["mwpm", files["k33.graph"], files["w3.weights"]]
        )
        assert code == 0
        jsonschema.validate(payload, SCHEMA)
        assert payload["matching_weight"] == 15

    def test_no_pm(self, capsys, files, tmp_path):
        p = tmp_path / "w.weights"
        p.write_text("2\n0 0\n0 0\n", encoding="utf-8")
        code, out, _ = run(capsys, ["mwpm", files["pmfree.graph"], str(p)])
        assert code == 1
        assert "no perfect matching" in out

    def test_dimension_mismatch_exit_2(self, capsys, files):
        code, _, err = run(capsys, ["mwpm", files["k33.graph"], files["w2.weights"]])
        assert code == 2
        assert "does not match" in err


class TestVerify:
    def test_small_suite_passes(self, capsys):
        code, payload, _ = run_json(capsys, ["verify", "iso", "--max-k", "2"])
        assert code == 0
        jsonschema.validate(payload, SCHEMA)
        assert payload["passed"] is True

    @pytest.mark.parametrize(
        "bound, code",
        [(["iso", "--max-k", "1"], 1), (["sz", "--max-s", "1"], 1), (["iso", "--max-k", "2"], 0)],
    )
    def test_check_passes_only_with_cases(self, capsys, bound, code):
        # k = 1 and s = 1 are below every case of these suites; k = 2
        # keeps one case.
        got, out, _ = run(capsys, ["verify", *bound])
        check_lines = out.splitlines()[1:-1]
        assert got == code
        assert all(line.startswith("PASS " if code == 0 else "FAIL ") for line in check_lines)
        _, payload, _ = run_json(capsys, ["verify", *bound])
        jsonschema.validate(payload, SCHEMA)
        assert payload["passed"] is (code == 0)
        for check in payload["checks"]:
            assert check["passed"] is bool(check["details"]["cases"])

    def test_budget_exceeded_exit_3(self, capsys):
        code, _, err = run(capsys, ["verify", "sz", "--budget", "100"])
        assert code == 3
        assert "budget" in err

    def test_failing_suite_exit_1(self, capsys, monkeypatch):
        def fake_run_suite(name, **kwargs):
            return SuiteReport(name, [CheckResult("forced failure", False, {})])

        monkeypatch.setattr(cli, "run_suite", fake_run_suite)
        code, out, _ = run(capsys, ["verify", "det"])
        assert code == 1
        assert "FAIL forced failure" in out

    def test_text_lines_per_check(self, capsys):
        code, out, _ = run(capsys, ["verify", "iso", "--max-k", "2"])
        assert code == 0
        assert out.splitlines()[0] == "suite: iso"
        assert any(line.startswith("PASS ") for line in out.splitlines())
        assert out.splitlines()[-1] == "result: PASS"


SUITE_CHOICES = ("det", "classical", "sz", "iso", "mvv", "all")


class TestSuiteNames:
    """The suite list that the parser reads from ``wmatch.oracle``
    without running ``wmatch.verify``: its order in verify's usage and
    error text, and a ``run_suite`` branch behind every name."""

    def test_usage_lists_suites_in_order(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["verify", "--help"])
        assert exc.value.code == 0
        usage = capsys.readouterr().out
        assert usage.count("{" + ",".join(SUITE_CHOICES) + "}") == 2

    def test_invalid_suite(self, capsys):
        # The error line as this interpreter's argparse words it for
        # the literal list.
        reference = argparse.ArgumentParser(prog="wmatch verify")
        reference.add_argument("suite", choices=SUITE_CHOICES)
        with pytest.raises(SystemExit):
            reference.parse_args(["nope"])
        expected = capsys.readouterr().err.splitlines()[-1]
        with pytest.raises(SystemExit) as exc:
            cli.main(["verify", "nope"])
        assert exc.value.code == 2
        assert capsys.readouterr().err.splitlines()[-1] == expected

    def test_every_name_runs_its_checks(self):
        bounds = dict(trials=2, max_n=2, max_s=2, max_k=2)
        reports = {name: verify.run_suite(name, **bounds) for name in SUITE_CHOICES}
        assert all(reports[name].checks for name in SUITE_CHOICES)
        assert [c.name for c in reports["all"].checks] == [
            c.name for name in SUITE_CHOICES[:-1] for c in reports[name].checks
        ]


class TestSeedHandling:
    def test_rejects_bad_seed(self, capsys, files):
        with pytest.raises(SystemExit):
            cli.main(["decide", files["k33.graph"], "--seed", "nope"])
        capsys.readouterr()

    def test_random_seed_accepted(self, capsys, files):
        code, payload, _ = run_json(
            capsys, ["decide", files["k33.graph"], "--seed", "random"]
        )
        assert code == 0
        jsonschema.validate(payload, SCHEMA)

    def test_seed_changes_weights(self, capsys, files):
        _, p1, _ = run_json(capsys, ["find", files["k33.graph"], "--seed", "1"])
        _, p2, _ = run_json(capsys, ["find", files["k33.graph"], "--seed", "2"])
        assert p1["weights"] != p2["weights"]


class TestNumericOptions:
    # int() alone reads these as 10, 7, 7 and 1; the options take the
    # ASCII decimal tokens of the file formats and nothing else.
    @pytest.mark.parametrize("token", [" 1_0 ", "+7", "\uff17", "\u0661"])
    @pytest.mark.parametrize("option", ["--trials", "--seed", "--max-n", "--budget"])
    def test_ascii_decimal_only(self, capsys, files, option, token):
        command = ["verify", "iso"] if option in ("--max-n", "--budget") else [
            "decide", files["k33.graph"]]
        with pytest.raises(SystemExit) as exc:
            cli.main(command + [option, token])
        assert exc.value.code == 2
        expected = (
            f"seed must be an unsigned 64-bit integer or 'random', got {token!r}"
            if option == "--seed"
            else f"expected a positive integer, got {token!r}"
        )
        assert capsys.readouterr().err.endswith(f"error: argument {option}: {expected}\n")

    @pytest.mark.parametrize("value", ["-1", str(1 << 64)])
    def test_seed_range(self, capsys, files, value):
        with pytest.raises(SystemExit) as exc:
            cli.main(["decide", files["k33.graph"], "--seed", value])
        assert exc.value.code == 2
        assert capsys.readouterr().err.endswith("error: argument --seed: seed must fit in 64 bits\n")

    def test_padded_decimal_accepted(self, capsys, files):
        decide = ["decide", files["k33.graph"]]
        _, p1, _ = run_json(capsys, decide + ["--seed", "007", "--trials", "05"])
        _, p2, _ = run_json(capsys, decide + ["--seed", "7", "--trials", "5"])
        assert p1 == p2 and (p1["seed"], p1["trials"]) == (7, 5)


def reference_json(value):
    return json.dumps(value, indent=2, sort_keys=True)


# A file name with a quote, a backslash, control characters, U+2028, a
# non-ASCII letter and an astral character, each escaped in JSON.
ODD_NAME = 'odd "quote" \\ \x01\x1f\x7f \u2028 \u00e9 \U0001f600.graph'


class TestJsonText:
    """The report writer is json.dumps(..., indent=2, sort_keys=True),
    byte for byte, on every payload the commands build and on the values
    that reach them from outside."""

    @pytest.fixture
    def reports(self, monkeypatch):
        """Every payload a command hands the writer, with the text
        written for it."""
        seen = []
        write = cli._json_text

        def recorded(value, *rest):
            text = write(value, *rest)
            if not rest:
                seen.append((value, text))
            return text

        monkeypatch.setattr(cli, "_json_text", recorded)
        return seen

    def assert_reports(self, capsys, reports, argv, code):
        got, out, err = run(capsys, argv + ["--format", "json"])
        assert (got, err) == (code, "")
        [(payload, text)] = reports
        assert text == reference_json(payload)
        assert out == text + "\n"
        reports.clear()

    @pytest.mark.parametrize(
        "argv, code",
        [
            (["decide", "k33.graph"], 0),
            (["decide", "pmfree.graph"], 1),
            (["find", "k33.graph"], 0),
            (["find", "pmfree.graph"], 1),
            (["hungarian", "w3.weights"], 0),
            (["mwpm", "k33.graph", "w3.weights"], 0),
            (["mwpm", "pmfree.graph", "w2.weights"], 1),
        ],
    )
    def test_command_payloads(self, capsys, files, reports, argv, code):
        argv = [files.get(a, a) for a in argv]
        self.assert_reports(capsys, reports, argv, code)

    @pytest.mark.parametrize(
        "bounds",
        [
            ["det", "--max-n", "3"],
            ["classical", "--max-n", "3"],
            ["sz", "--max-s", "2"],
            ["iso", "--max-k", "2"],
            ["mvv", "--max-n", "3", "--trials", "20"],
        ],
    )
    def test_verify_payloads(self, capsys, reports, bounds):
        self.assert_reports(capsys, reports, ["verify", *bounds], 0)

    def test_outside_values(self, capsys, tmp_path, reports):
        graph = tmp_path / ODD_NAME
        graph.write_text(K33, encoding="utf-8")
        for command in ("decide", "find"):
            argv = [command, str(graph), "--seed", str(2**64 - 1)]
            self.assert_reports(capsys, reports, argv, 0)
        weights = tmp_path / "big.weights"
        n = 8
        rng = random.Random(8)
        rows = [[rng.randint(10**15 - 9, 10**15) for _ in range(n)] for _ in range(n)]
        weights.write_text(f"{n}\n" + "".join(" ".join(map(str, r)) + "\n" for r in rows),
                           encoding="utf-8")
        self.assert_reports(capsys, reports, ["hungarian", str(weights)], 0)

    @pytest.mark.parametrize(
        "value",
        [
            {},
            [],
            (),
            None,
            True,
            False,
            0,
            -(2**64),
            1.5,
            -0.0,
            float("nan"),
            "",
            ODD_NAME,
            [[]],
            {"a": {}},
            [True, False, 1, None],
            [1, True],
            [1.0, 2],
            (1, (2, 3), [4]),
            {"cover_u": [10**15 * 32, 2**64 - 1], "min_rate": 0.45, "ok": [False]},
            {ODD_NAME: ODD_NAME, "é": [], "A": None, "a": {"b": [{"c": 1.25}]}},
            {"rates": {"3": [0.5, 1.0]}, "rows": [[0, 1], [2, 3]]},
        ],
    )
    def test_values(self, value):
        assert cli._json_text(value) == reference_json(value)

    def test_non_str_keys_take_json_dumps(self, monkeypatch):
        # Nested two levels deep, so the fallback is re-indented.
        value = {"a": [{"b": {10: "x", 9: [1, {"c": 2}], True: None}}]}
        expected = reference_json(value)
        calls = []
        dumps = json.dumps
        monkeypatch.setattr(json, "dumps", lambda *a, **k: calls.append(a) or dumps(*a, **k))
        assert cli._json_text(value) == expected
        assert calls == [({10: "x", 9: [1, {"c": 2}], True: None},)]

    @pytest.mark.parametrize("value", [{"a": object()}, [1, {2, 3}], {"a": [b"x"]}])
    def test_unsupported_types_raise_as_json_dumps(self, value):
        with pytest.raises(TypeError) as expected:
            reference_json(value)
        with pytest.raises(TypeError) as got:
            cli._json_text(value)
        assert str(got.value) == str(expected.value)
