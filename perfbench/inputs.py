"""Seeded inputs and job lists for the three benchmark workloads.

Inputs come from ``random.Random`` seeded with a string naming the
workload and the seed, never from ``wmatch.rng``: a change to the
program under test must not change what it is given.  The same
(workload, seed) always yields byte-identical files.

A job is one CLI invocation; a workload's job list is one *pass*.  The
runner cycles through the list, so every job is repeated and its
output can be compared byte for byte across passes.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

SUITES = ("det", "classical", "sz", "iso", "mvv")

FIND_N = 12
DECIDE_N = 20
SOLVE_N = 32
SEARCH_JOBS_PER_COMMAND = 40
# Two jobs per weight exponent per command, so every pass holds each
# exponent equally often and the pass time does not hinge on the draw.
EXPONENTS = tuple(range(1, 16))
SOLVE_JOBS_PER_COMMAND = 2 * len(EXPONENTS)
# Job k of a command gets a planted Hall violator when
# k % EVERY == EVERY - 1: a fixed share, not a coin flip, so the
# percentiles of the two modes never trade places between seeds.
SEARCH_NO_PM_EVERY = 4
SOLVE_NO_PM_EVERY = 10

Rows = tuple[tuple[int, ...], ...]


@dataclass(frozen=True)
class Graph:
    """0/1 edge rows plus the structure planted in them."""

    rows: Rows
    planted: Optional[tuple[int, ...]]  # left i -> right planted[i]
    violator: Optional[tuple[int, ...]]  # left set S with |N(S)| < |S|


@dataclass(frozen=True)
class Job:
    """One CLI invocation and the inputs its output is checked against."""

    command: str
    argv: tuple[str, ...]
    graph: Optional[Graph] = None
    weights: Optional[Rows] = None


def _freeze(rows) -> Rows:
    return tuple(tuple(row) for row in rows)


def _random_rows(rng: random.Random, n: int) -> list[list[int]]:
    return [[rng.getrandbits(1) for _ in range(n)] for _ in range(n)]


def planted_pm_graph(rng: random.Random, n: int) -> Graph:
    """Density-1/2 graph that contains a random permutation's edges."""
    perm = list(range(n))
    rng.shuffle(perm)
    rows = _random_rows(rng, n)
    for i, j in enumerate(perm):
        rows[i][j] = 1
    return Graph(_freeze(rows), tuple(perm), None)


def planted_violator_graph(rng: random.Random, n: int) -> Graph:
    """Density-1/2 graph whose 3 recorded left vertices only reach 2
    columns, so Hall's condition fails and no perfect matching exists."""
    rows = _random_rows(rng, n)
    lefts = sorted(rng.sample(range(n), 3))
    cols = rng.sample(range(n), 2)
    for i in lefts:
        rows[i] = [0] * n
        for j in cols:
            rows[i][j] = rng.getrandbits(1)
        rows[i][rng.choice(cols)] = 1
    return Graph(_freeze(rows), None, tuple(lefts))


def random_weight_rows(rng: random.Random, n: int, exponent: int) -> Rows:
    """n x n weights uniform in [0, 10**exponent]."""
    top = 10**exponent
    return tuple(tuple(rng.randint(0, top) for _ in range(n)) for _ in range(n))


def format_rows(rows: Rows) -> str:
    """The CLI's graph/weight file format: n, then n rows of n integers."""
    body = "\n".join(" ".join(str(x) for x in row) for row in rows)
    return f"{len(rows)}\n{body}\n"


def _write(path: Path, rows: Rows) -> str:
    path.write_text(format_rows(rows), newline="\n")
    return path.as_posix()


def _graph_for(rng: random.Random, n: int, k: int, every: int) -> Graph:
    if k % every == every - 1:
        return planted_violator_graph(rng, n)
    return planted_pm_graph(rng, n)


def verify_jobs(seed: int) -> list[Job]:
    """The five suites at default bounds, with one seed derived from the
    workload seed."""
    suite_seed = str(random.Random(f"verify:{seed}").getrandbits(64))
    return [
        Job("verify", ("verify", suite, "--format", "json", "--seed", suite_seed))
        for suite in SUITES
    ]


def search_jobs(seed: int, workdir: Path) -> list[Job]:
    """Alternating find (n=12) and decide (n=20) jobs."""
    rng = random.Random(f"search:{seed}")
    jobs = []
    for k in range(SEARCH_JOBS_PER_COMMAND):
        for command, n in (("find", FIND_N), ("decide", DECIDE_N)):
            g = _graph_for(rng, n, k, SEARCH_NO_PM_EVERY)
            path = _write(workdir / f"{command}-{k:03d}.graph", g.rows)
            job_seed = str(rng.getrandbits(64))
            argv = (command, path, "--format", "json", "--seed", job_seed)
            jobs.append(Job(command, argv, graph=g))
    return jobs


def solve_jobs(seed: int, workdir: Path) -> list[Job]:
    """Alternating hungarian and mwpm jobs at n=32, weights up to 10**e."""
    rng = random.Random(f"solve:{seed}")
    exponents = {}
    for command in ("hungarian", "mwpm"):
        order = list(EXPONENTS) * (SOLVE_JOBS_PER_COMMAND // len(EXPONENTS))
        rng.shuffle(order)
        exponents[command] = order
    jobs = []
    for k in range(SOLVE_JOBS_PER_COMMAND):
        w = random_weight_rows(rng, SOLVE_N, exponents["hungarian"][k])
        wpath = _write(workdir / f"hungarian-{k:03d}.weights", w)
        jobs.append(Job("hungarian", ("hungarian", wpath, "--format", "json"), weights=w))

        g = _graph_for(rng, SOLVE_N, k, SOLVE_NO_PM_EVERY)
        w = random_weight_rows(rng, SOLVE_N, exponents["mwpm"][k])
        gpath = _write(workdir / f"mwpm-{k:03d}.graph", g.rows)
        wpath = _write(workdir / f"mwpm-{k:03d}.weights", w)
        jobs.append(Job("mwpm", ("mwpm", gpath, wpath, "--format", "json"), graph=g, weights=w))
    return jobs


WORKLOADS = ("verify", "search", "solve")


def build_jobs(workload: str, seed: int, workdir: Path) -> list[Job]:
    """Generate (and write) the inputs of one workload's pass."""
    if workload == "verify":
        return verify_jobs(seed)
    workdir.mkdir(parents=True, exist_ok=True)
    if workload == "search":
        return search_jobs(seed, workdir)
    if workload == "solve":
        return solve_jobs(seed, workdir)
    raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
