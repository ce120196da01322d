"""Benchmark of the wmatch command line on three seeded workloads.

Usage, from the repository root::

    python3 perfbench/run.py --workload {verify,search,solve} --seed N \\
        --seconds S --trace {0,1}

The program is driven in-process through ``wmatch.cli.main(argv)``,
one job at a time, with stdout captured: a closed loop with a single
client, no threads and no subprocess per job.  ``--trace 0`` measures
the end-to-end metrics, in reference seconds that take the shared
host's drifting speed out (see hostspeed.py); ``--trace 1`` is a
separate run that wraps the program's public functions and reports
per-layer metrics.  The last
line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the full report, with the
environment and sample counts, goes to ``.perfbench/results/``.
See README.md in this directory for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import traceback
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from math import ceil
from pathlib import Path
from time import perf_counter
from typing import Callable, Optional

from checks import check_output
from hostspeed import HostSpeed
from inputs import WORKLOADS, Job, build_jobs
from layers import LAYERS, TracedRun, per_layer_metrics
from tracer import Tracer, aggregate

ROOT = Path(__file__).resolve().parents[1]
OUT = Path(".perfbench")

# End-to-end metrics reported on every workload with tracing off.
END_TO_END = {"setup_s": "s", "pass_s": "s", "peak_rss_mb": "MB"}
SETUP_REPEATS = 9
# Every job runs at least this often, so its output is compared with a repeat.
MIN_REPEATS = 2
# A run goes on until each family's p90 has this many samples beyond it.
MIN_BEYOND_P90 = 10
# Latency families that report p50/p90, by CLI command.
FAMILIES = {"find": "find", "decide": "decide", "hungarian": "solve", "mwpm": "solve"}
# The cheapest suite, at a smaller bound, stands in for the verify
# command when warming up.
VERIFY_WARMUP = Job("verify", ("verify", "classical", "--max-n", "2", "--format", "json"))


class ProgramMissing(RuntimeError):
    """The checkout holds no wmatch sources to measure."""


def load_program() -> Callable:
    """Import ``wmatch.cli`` from this checkout's ``src`` and nowhere else."""
    src = ROOT / "src"
    if not (src / "wmatch" / "cli.py").is_file():
        raise ProgramMissing(f"no wmatch sources under {src}")
    sys.path.insert(0, str(src))
    import wmatch.cli

    if Path(wmatch.cli.__file__).resolve().parent != (src / "wmatch").resolve():
        raise ProgramMissing(f"wmatch was imported from {wmatch.cli.__file__}, not {src}")
    return wmatch.cli.main


def percentile(values, q: float) -> float:
    """Nearest-rank percentile: the smallest sample with at least q% of
    the samples at or below it."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no samples")
    return ordered[max(1, ceil(q / 100 * len(ordered))) - 1]


def samples_beyond(count: int, q: float) -> int:
    """Samples strictly above the nearest-rank q-th percentile's rank."""
    return count - max(1, ceil(q / 100 * count))


def git_commit() -> Optional[str]:
    """HEAD's commit id read from .git, or None outside a git checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.is_file():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


@dataclass
class Attempt:
    index: int  # position in the job list
    start: float  # perf_counter() when the job began
    seconds: float
    rc: Optional[int]  # None when the command raised
    digest: str


def run_job(main: Callable, job: Job) -> tuple[Optional[int], str, float, float]:
    """Run one CLI invocation; returns exit code, stdout, start and seconds."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        start = perf_counter()
        try:
            rc = main(list(job.argv))
        except SystemExit as exc:
            rc = exc.code if isinstance(exc.code, int) else 2
        except Exception:
            # Keep measuring the other jobs; the traceback becomes the
            # failure reason.
            rc = None
            out.write(traceback.format_exc())
        seconds = perf_counter() - start
    return rc, out.getvalue(), start, seconds


class Outputs:
    """First output of each job; later runs must repeat it byte for byte."""

    def __init__(self, jobs: list[Job]):
        self.jobs = jobs
        self.first: dict[int, tuple[Optional[int], str, str]] = {}

    def record(self, index: int, rc: Optional[int], text: str) -> str:
        digest = hashlib.sha256(text.encode()).hexdigest()
        self.first.setdefault(index, (rc, text, digest))
        return digest

    def failures(self, attempts: list[Attempt]) -> tuple[int, list[str]]:
        """Count failed attempts, with the distinct reasons."""
        reasons = {
            i: check_output(self.jobs[i], rc, text) for i, (rc, text, _) in self.first.items()
        }
        failed, why = 0, []
        for a in attempts:
            rc, _, digest = self.first[a.index]
            reason = reasons[a.index]
            if reason is None and (a.rc, a.digest) != (rc, digest):
                reason = f"job {a.index}: output differs from its first run"
            if reason is not None:
                failed += 1
                if reason not in why:
                    why.append(reason)
        return failed, why


def closed_loop(main, jobs, outputs, done, tracer: Optional[Tracer] = None,
                between: Optional[Callable[[], None]] = None) -> list[Attempt]:
    """Run jobs in list order, cyclically, one at a time, until
    ``done(attempts, elapsed)``, checked before each job, says stop.
    ``between``, if given, runs before each job, outside its timing."""
    attempts: list[Attempt] = []
    start = perf_counter()
    while not done(attempts, perf_counter() - start):
        if between is not None:
            between()
        index = len(attempts) % len(jobs)
        if tracer is not None:
            tracer.job = len(attempts)
        rc, text, began, seconds = run_job(main, jobs[index])
        attempts.append(Attempt(index, began, seconds, rc, outputs.record(index, rc, text)))
    return attempts


def warm_up(main: Callable, jobs: list[Job]) -> None:
    """One job per command, outside any timed region."""
    seen = set()
    for job in jobs:
        if job.command not in seen:
            seen.add(job.command)
            run_job(main, VERIFY_WARMUP if job.command == "verify" else job)


def setup(workload: str, seed: int, workdir: Path) -> tuple[Callable, list[Job]]:
    """Import the program, write the inputs and warm up every command."""
    main = load_program()
    jobs = build_jobs(workload, seed, workdir)
    warm_up(main, jobs)
    return main, jobs


class SetupProbes:
    """Set-up times of SETUP_REPEATS fresh processes, in reference
    seconds, spaced out over the run so that they do not all land in
    one slow phase of the host."""

    def __init__(self, workload: str, seed: int, spacing_s: float):
        self.cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
                    "--workload", workload, "--seed", str(seed)]
        self.spacing_s = spacing_s
        self.times: list[float] = []
        self._last = float("-inf")

    def probe(self) -> None:
        proc = subprocess.run(self.cmd, cwd=ROOT, capture_output=True, text=True, timeout=120)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()}")
        self.times.append(float(proc.stdout.split()[-1]))
        self._last = perf_counter()

    def tick(self) -> None:
        """Probe now if one is due."""
        if len(self.times) < SETUP_REPEATS and perf_counter() - self._last >= self.spacing_s:
            self.probe()

    def finish(self) -> list[float]:
        while len(self.times) < SETUP_REPEATS:
            self.probe()
        return self.times


def family_counts(jobs, attempts) -> dict[str, int]:
    counts = {family: 0 for family in {FAMILIES.get(j.command) for j in jobs} if family}
    for a in attempts:
        family = FAMILIES.get(jobs[a.index].command)
        if family:
            counts[family] += 1
    return counts


def untraced_run(main, jobs, seconds: float, probes: SetupProbes) -> dict:
    outputs = Outputs(jobs)

    def done(attempts, elapsed):
        return (
            len(attempts) >= MIN_REPEATS * len(jobs)
            and elapsed >= seconds
            and all(samples_beyond(c, 90) >= MIN_BEYOND_P90
                    for c in family_counts(jobs, attempts).values())
        )

    with HostSpeed() as speed:
        attempts = closed_loop(main, jobs, outputs, done, between=probes.tick)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    setup_times = probes.finish()
    failed, reasons = outputs.failures(attempts)

    # Job times in reference seconds, which the timings below all use.
    scaled = [speed.scaled(a.start, a.start + a.seconds) for a in attempts]
    by_index = [[t for a, t in zip(attempts, scaled) if a.index == i] for i in range(len(jobs))]
    wall_by_index = [[a.seconds for a in attempts if a.index == i] for i in range(len(jobs))]
    metrics = {
        "setup_s": (statistics.median(setup_times), "s", len(setup_times)),
        "pass_s": (sum(statistics.median(t) for t in by_index), "s", len(attempts)),
        "peak_rss_mb": (peak_rss_mb, "MB", 1),
        # The same pass in wall-clock seconds, and the host speed that
        # separates the two.
        "wall_s": (sum(statistics.median(t) for t in wall_by_index), "s", len(attempts)),
        "host.kernel_ms": (1000 * statistics.median(speed.durations), "ms", len(speed.durations)),
        "failed_frac": (failed / len(attempts), "ratio", len(attempts)),
    }
    for job, times in zip(jobs, by_index):
        if job.command == "verify":
            metrics[f"verify.{job.argv[1]}_s"] = (statistics.median(times), "s", len(times))
    for family in sorted(family_counts(jobs, attempts)):
        times = [t for a, t in zip(attempts, scaled) if FAMILIES.get(jobs[a.index].command) == family]
        for q in (50, 90):
            metrics[f"{family}.p{q}_s"] = (percentile(times, q), "s", len(times))
    return {
        "attempted": len(attempts),
        "failed": failed,
        "failure_reasons": reasons,
        "passes": len(attempts) / len(jobs),
        "metrics": metrics,
        "attempts": [[a.index, a.seconds, t] for a, t in zip(attempts, scaled)],
    }


def _digest(attempts: list[Attempt]) -> str:
    """One digest over every output, in run order."""
    return hashlib.sha256("".join(a.digest for a in attempts).encode()).hexdigest()


def traced_run(main, jobs, seconds: float, spans_path: Path) -> dict:
    """Untraced whole passes for half the time, then as many traced
    passes over the same jobs; every output must match."""
    outputs = Outputs(jobs)
    plain = closed_loop(
        main, jobs, outputs,
        lambda att, elapsed: len(att) % len(jobs) == 0 and len(att) > 0 and elapsed >= seconds / 2,
    )
    passes = len(plain) // len(jobs)

    tracer = Tracer()
    present = set()
    for label, (targets, info) in LAYERS.items():
        for target in targets:
            if tracer.wrap(label, target, info):
                present.add(label)
    try:
        traced = closed_loop(main, jobs, outputs, lambda att, _: len(att) == len(plain), tracer)
    finally:
        tracer.unwrap_all()
    failed, reasons = outputs.failures(plain + traced)
    tracer.log.write(spans_path)

    run = TracedRun(
        agg=aggregate(tracer.log),
        present=present,
        passes=passes,
        job_commands={k: jobs[a.index].command for k, a in enumerate(traced)},
        job_wall_s={k: a.seconds for k, a in enumerate(traced)},
        untraced_wall_s=sum(a.seconds for a in plain),
    )
    values, absent = per_layer_metrics(run)
    return {
        "attempted": len(plain) + len(traced),
        "failed": failed,
        "failure_reasons": reasons,
        "passes": passes,
        "digests": {"untraced": _digest(plain), "traced": _digest(traced)},
        "spans": len(tracer.log),
        "absent": absent,
        "metrics": {name: (value, unit, passes) for name, (value, unit) in values.items()},
    }


def print_report(report: dict) -> None:
    env = report["environment"]
    print(" ".join(f"{k}={v}" for k, v in env.items()))
    print(f"{'metric':<48} {'value':>16} {'unit':<6} samples")
    for name, (value, unit, count) in report["metrics"].items():
        print(f"{name:<48} {value:>16.6g} {unit:<6} {count}")
    for name in report.get("absent", ()):
        print(f"{name:<48} {'absent':>16}")
    for reason in report["failure_reasons"]:
        print(f"FAILED: {reason}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    os.chdir(ROOT)
    label = f"{args.workload}-{args.seed}"
    # The measured process always takes verify's default single-worker path.
    os.environ.pop("WM_THREADS", None)
    try:
        if args.setup_probe:
            with HostSpeed() as speed:
                start = perf_counter()
                setup(args.workload, args.seed, OUT / "work" / f"{label}-probe")
                end = perf_counter()
            print(speed.scaled(start, end))
            return 0
        main_fn, jobs = setup(args.workload, args.seed, OUT / "work" / label)
    except ProgramMissing as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    if args.trace:
        report = traced_run(main_fn, jobs, args.seconds, OUT / "spans" / f"{label}.spans.gz")
    else:
        probes = SetupProbes(args.workload, args.seed, args.seconds / SETUP_REPEATS)
        report = untraced_run(main_fn, jobs, args.seconds, probes)
    report["environment"] = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "commit": git_commit(),
        "nproc": os.cpu_count(),
    }
    results = OUT / "results" / f"{label}-trace{args.trace}.json"
    results.parent.mkdir(parents=True, exist_ok=True)
    results.write_text(json.dumps(report, indent=2) + "\n")
    print_report(report)

    wanted = report["metrics"] if args.trace else {k: report["metrics"][k] for k in END_TO_END}
    print(json.dumps({
        "correct": report["failed"] == 0,
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit, _) in wanted.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
