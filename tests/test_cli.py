import json
import os
import random
import subprocess
import sys
from pathlib import Path

import jsonschema
import pytest

from wmatch import classical, cli, edmonds, linalg, mvv
from wmatch.edmonds import lovasz_decide
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
        maximum_matching = classical.maximum_matching

        def counting_matching(g):
            matchings.append(g)
            return maximum_matching(g)

        for module, name in ((cli, "lovasz_sample"), (edmonds, "lovasz_sample"),
                             (mvv, "random_weights"), (linalg, "_eliminate")):
            monkeypatch.setattr(module, name, forbidden)
        monkeypatch.setattr(classical, "maximum_matching", counting_matching)
        p = tmp_path / "violator.graph"
        p.write_text(hall_violator_graph(200, 200), encoding="utf-8")
        return str(p), matchings

    @pytest.mark.parametrize("command,first", [("decide", "NO"), ("find", "FAILED")])
    def test_answers_without_a_trial(self, capsys, violator, command, first):
        path, matchings = violator
        code, out, err = run(capsys, [command, path, "--trials", "20"])
        assert (code, err) == (1, "")
        assert out.splitlines() == [first, "trials: 20"]
        assert len(matchings) == 1 and matchings[0].n == 200

    def test_lovasz_decide_draws_no_sample(self, violator):
        path, matchings = violator
        g = parse_graph(Path(path).read_text(encoding="utf-8"))
        assert not any(lovasz_decide(g, seed) for seed in range(20))
        assert matchings == [g]


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

