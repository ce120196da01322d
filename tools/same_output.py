"""Check that the CLI answers byte for byte as it does at a base revision.

    python3 tools/same_output.py --base REV

Exports REV's ``src/`` with ``git archive`` into a temporary directory,
writes one fixed corpus of inputs, and runs every command of the corpus
through ``wmatch.cli.main`` in one child process per tree: REV's and
this checkout's working tree.  Each command's exit code and the SHA-256
of its stdout and its stderr are compared.  A command that raises an
exception in place of exiting records the exception's type name and the
SHA-256 of its message in place of the exit code, and the child goes on
with the next command.  Every command that differs is printed, then a
summary line; the exit status is 1 if any command differs and 0 if none
does.

The corpus:

* each ``verify`` suite (det, classical, sz, iso, mvv) in JSON and text,
  at the default seed and at seeds 1, 2 and 12345;
* ``verify all`` in JSON at ``--budget`` 50 and 100, at ``--max-n`` 1,
  2 and 3, at ``--max-s`` 1 and at ``--max-k`` 1 and 2;
* ``find`` on CI's density-1/2 graphs with a planted perfect matching
  (``random.Random(n)``) at n = 16, 32, 48 and 100, in JSON and text,
  and at n = 200 in JSON;
* ``decide`` on those graphs at n = 16 to 200 and on the n = 500 one,
  in JSON and text, and ``find`` and ``decide`` on CI's n = 100 and
  n = 200 Hall violators;
* ``hungarian`` on CI's n = 100 grid of weights up to 10^15, and
  ``mwpm`` under it on the n = 100 graph and the n = 100 Hall violator,
  in JSON and text;
* every ``search`` and ``solve`` job of the benchmark's seeds 1, 2 and 3
  (``perfbench/inputs.py`` of this checkout).

Standard library only; run from anywhere.
"""

from __future__ import annotations

import argparse
import io
import json
import random
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SUITES = ("det", "classical", "sz", "iso", "mvv")
VERIFY_SEEDS = (None, "1", "2", "12345")
# (option, value) of each ``verify all`` run, in JSON.
VERIFY_CAPS = (("--budget", "50"), ("--budget", "100"),
               ("--max-n", "1"), ("--max-n", "2"), ("--max-n", "3"),
               ("--max-s", "1"), ("--max-k", "1"), ("--max-k", "2"))
FIND_N = (16, 32, 48, 100)
FIND_JSON_N = 200
DECIDE_N = (16, 32, 48, 100, 200, 500)
VIOLATOR_N = (100, 200)
WEIGHTS_N = 100
BENCH_WORKLOADS = ("search", "solve")
BENCH_SEEDS = (1, 2, 3)

# Runs in the child: argv[1] is the tree's src directory, argv[2] a JSON
# file of the commands; prints the module file it imported and
# [exit code, stdout digest, stderr digest] per command as JSON, with
# "raised <type name> <message digest>" as the exit code of a command
# that raised, whose traceback goes to the child's own stderr.
CHILD = r"""
import contextlib, hashlib, io, json, sys, traceback
sys.path.insert(0, sys.argv[1])
from wmatch import cli

def sha(text):
    return hashlib.sha256(text.encode("utf-8", "surrogateescape")).hexdigest()

with open(sys.argv[2], encoding="utf-8") as f:
    commands = json.load(f)
results = []
for argv in commands:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as e:
            code = e.code
        except Exception as e:
            code = f"raised {type(e).__name__} {sha(str(e))}"
            traceback.print_exc(file=sys.__stderr__)
    results.append([code, sha(out.getvalue()), sha(err.getvalue())])
json.dump({"module": cli.__file__, "results": results}, sys.stdout)
"""


def ci_graph(n: int, violator: bool = False) -> str:
    """The graph file CI writes for n: density 1/2 with a planted
    perfect matching, or rows 0..2 confined to columns 0 and 1."""
    r = random.Random(n)
    if violator:
        rows = [[int(j < 2 if i < 3 else i == j or r.random() < 0.5) for j in range(n)]
                for i in range(n)]
    else:
        p = r.sample(range(n), n)
        rows = [[int(j == p[i] or r.random() < 0.5) for j in range(n)] for i in range(n)]
    return rows_text(rows)


def ci_weights(n: int) -> str:
    """The weight file CI writes for n: entries uniform in [0, 10^15]."""
    r = random.Random(n)
    return rows_text([[r.randint(0, 10**15) for _ in range(n)] for _ in range(n)])


def rows_text(rows: list[list[int]]) -> str:
    """The CLI's file format: n, then one line of integers per row."""
    return f"{len(rows)}\n" + "".join(" ".join(map(str, row)) + "\n" for row in rows)


def corpus(workdir: Path) -> list[list[str]]:
    """Write the corpus's inputs under workdir and return its commands;
    the CI graphs are named relative to workdir, the search jobs' by
    their full paths, the same for both trees."""
    commands = []
    for suite in SUITES:
        for seed in VERIFY_SEEDS:
            for fmt in ("json", "text"):
                argv = ["verify", suite, "--format", fmt]
                commands.append(argv + ["--seed", seed] if seed else argv)
    for option, value in VERIFY_CAPS:
        commands.append(["verify", "all", option, value, "--format", "json"])
    for n in sorted({*FIND_N, FIND_JSON_N, *DECIDE_N}):
        (workdir / f"n{n}.graph").write_text(ci_graph(n), encoding="utf-8")
    for n in VIOLATOR_N:
        (workdir / f"n{n}-violator.graph").write_text(ci_graph(n, True), encoding="utf-8")
    weights = f"n{WEIGHTS_N}.weights"
    (workdir / weights).write_text(ci_weights(WEIGHTS_N), encoding="utf-8")
    runs = [("find", f"n{n}.graph") for n in FIND_N]
    runs += [("decide", f"n{n}.graph") for n in DECIDE_N]
    runs += [(command, f"n{n}-violator.graph")
             for n in VIOLATOR_N for command in ("find", "decide")]
    runs += [("hungarian", weights)]
    runs += [("mwpm", graph, weights)
             for graph in (f"n{WEIGHTS_N}.graph", f"n{WEIGHTS_N}-violator.graph")]
    for run in runs:
        for fmt in ("json", "text"):
            commands.append([*run, "--format", fmt])
    commands.append(["find", f"n{FIND_JSON_N}.graph", "--format", "json"])
    sys.path.insert(0, str(ROOT))
    from perfbench.inputs import build_jobs

    for workload in BENCH_WORKLOADS:
        for seed in BENCH_SEEDS:
            jobs = build_jobs(workload, seed, workdir / f"{workload}-{seed}")
            commands += [list(job.argv) for job in jobs]
    return commands


def export(rev: str, dest: Path) -> str:
    """Extract rev's src/ into dest and return rev's full commit id."""
    commit = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--verify", rev + "^{commit}"],
                            check=True, capture_output=True, text=True).stdout.strip()
    archive = subprocess.run(["git", "-C", str(ROOT), "archive", "--format=tar", commit, "src"],
                             check=True, capture_output=True).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        if hasattr(tarfile, "data_filter"):
            tar.extractall(dest, filter="data")
        else:
            tar.extractall(dest)
    return commit


def run_tree(src: Path, workdir: Path) -> subprocess.Popen:
    """Start the child that runs workdir's commands.json on src."""
    return subprocess.Popen([sys.executable, "-c", CHILD, str(src), "commands.json"],
                            cwd=workdir, stdout=subprocess.PIPE, encoding="utf-8")


def collect(child: subprocess.Popen, src: Path) -> list:
    """The child's results, once it has exited 0 having imported wmatch
    from src."""
    out, _ = child.communicate()
    if child.returncode != 0:
        raise RuntimeError(f"the child for {src} exited {child.returncode}")
    report = json.loads(out)
    if not Path(report["module"]).resolve().is_relative_to(src.resolve()):
        raise RuntimeError(f"the child for {src} imported {report['module']}")
    return report["results"]


def run_both(base_src: Path, head_src: Path, workdir: Path) -> tuple[list, list]:
    """The results of workdir's commands.json on base_src and on
    head_src; both trees run at once, each in its own process."""
    with run_tree(base_src, workdir) as base_run, run_tree(head_src, workdir) as head_run:
        return collect(base_run, base_src), collect(head_run, head_src)


def compare(commands: list[list[str]], base: list, head: list) -> int:
    """Print each command whose results differ, with both exit codes (or
    exceptions) where those differ, and return how many differ."""
    parts = ("exit code", "stdout", "stderr")
    differ = 0
    for argv, old, new in zip(commands, base, head):
        if old != new:
            differ += 1
            what = ", ".join(p for p, a, b in zip(parts, old, new) if a != b)
            print(f"differs ({what}): wmatch {' '.join(argv)}")
            if old[0] != new[0]:
                print(f"  base: {old[0]}; this tree: {new[0]}")
    return differ


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", required=True, help="the revision to compare against")
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory(prefix="same-output-") as tmp:
        tmp = Path(tmp)
        base_root = tmp / "base"
        workdir = tmp / "corpus"
        workdir.mkdir()
        commit = export(args.base, base_root)
        commands = corpus(workdir)
        (workdir / "commands.json").write_text(json.dumps(commands), encoding="utf-8")
        base, head = run_both(base_root / "src", ROOT / "src", workdir)
    differ = compare(commands, base, head)
    print(f"{len(commands)} commands, {differ} differ, against {args.base} ({commit[:12]})")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
