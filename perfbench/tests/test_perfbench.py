"""Tests of the benchmark itself: its inputs, its arithmetic, its
tracer and its agreement with BENCHMARK.json.

Run from the repository root with ``python3 -m pytest perfbench/tests``.
"""

import json
import random
import signal
import sys
from pathlib import Path
from statistics import fmean
from time import perf_counter

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
import hostspeed  # noqa: E402
import inputs  # noqa: E402
import layers  # noqa: E402
import run  # noqa: E402
from tracer import SpanLog, Tracer, aggregate, union_length  # noqa: E402


def _files(directory: Path) -> dict:
    return {p.name: p.read_bytes() for p in sorted(directory.iterdir())}


@pytest.mark.parametrize("workload", ["search", "solve"])
def test_generator_is_deterministic_per_seed(tmp_path, workload):
    a = inputs.build_jobs(workload, 7, tmp_path / "a")
    b = inputs.build_jobs(workload, 7, tmp_path / "b")
    c = inputs.build_jobs(workload, 8, tmp_path / "c")
    assert _files(tmp_path / "a") == _files(tmp_path / "b")
    assert _files(tmp_path / "a") != _files(tmp_path / "c")
    assert [j.argv[-1] for j in a] == [j.argv[-1] for j in b]


def test_verify_jobs_are_the_five_suites_with_one_derived_seed():
    jobs = inputs.verify_jobs(7)
    assert [j.argv[1] for j in jobs] == list(inputs.SUITES)
    assert len({j.argv[-1] for j in jobs}) == 1
    assert jobs[0].argv[-1] == inputs.verify_jobs(7)[0].argv[-1] != inputs.verify_jobs(8)[0].argv[-1]


@pytest.mark.parametrize("workload", ["search", "solve"])
def test_planted_structures(tmp_path, workload):
    jobs = inputs.build_jobs(workload, 3, tmp_path)
    graphs = [j.graph for j in jobs if j.graph is not None]
    assert graphs
    for g in graphs:
        n = len(g.rows)
        assert (g.planted is None) != (g.violator is None)
        if g.planted is not None:
            assert sorted(g.planted) == list(range(n))
            assert all(g.rows[i][j] == 1 for i, j in enumerate(g.planted))
        else:
            assert len(g.violator) == 3
            assert checks.hall_violated(g.rows, g.violator)


def test_no_pm_shares_are_fixed(tmp_path):
    search = inputs.build_jobs("search", 5, tmp_path / "s")
    for command in ("find", "decide"):
        kinds = [j.graph.violator is not None for j in search if j.command == command]
        assert sum(kinds) * inputs.SEARCH_NO_PM_EVERY == len(kinds)
    solve = inputs.build_jobs("solve", 5, tmp_path / "v")
    mwpm = [j.graph.violator is not None for j in solve if j.command == "mwpm"]
    assert sum(mwpm) * inputs.SOLVE_NO_PM_EVERY == len(mwpm)


def test_solve_exponents_are_balanced(tmp_path):
    for job in inputs.build_jobs("solve", 5, tmp_path):
        assert len(job.weights) == inputs.SOLVE_N
        assert all(0 <= x <= 10**15 for row in job.weights for x in row)
    rng = random.Random(0)
    for e in (1, 15):
        w = inputs.random_weight_rows(rng, 4, e)
        assert max(max(row) for row in w) <= 10**e


def test_file_format_round_trips():
    rows = ((1, 0), (0, 1))
    assert inputs.format_rows(rows) == "2\n1 0\n0 1\n"


def test_percentile_nearest_rank():
    values = list(range(100, 0, -1))
    assert run.percentile(values, 50) == 50
    assert run.percentile(values, 90) == 90
    assert run.samples_beyond(100, 90) == 10
    assert run.samples_beyond(99, 90) == 9
    assert run.percentile([1, 2, 3, 4], 50) == 2
    assert run.percentile([7.5], 90) == 7.5
    assert run.percentile([3, 1, 2], 100) == 3
    with pytest.raises(ValueError):
        run.percentile([], 50)


def test_host_speed_scales_by_the_local_kernel_time():
    speed = hostspeed.HostSpeed()
    # The kernel took 2 ms around t=10 and 0.5 ms around t=20.
    speed.starts = [9.9, 10.1, 10.5, 19.9, 20.2]
    speed.durations = [0.002, 0.002, 0.002, 0.0005, 0.0005]
    ref = hostspeed.REFERENCE_S
    # Two kernel runs fell inside [10, 11]; their 4 ms are not the job's.
    assert speed.scaled(10.0, 11.0) == pytest.approx(0.996 * ref / 0.002)
    # None inside [20, 20.1], but two within the window around it.
    assert speed.scaled(20.0, 20.1) == pytest.approx(0.1 * ref / 0.0005)
    # Far from every sample, the mean of all of them stands in.
    assert speed.kernel_s(40.0, 41.0) == pytest.approx(fmean(speed.durations))
    empty = hostspeed.HostSpeed()
    assert empty.kernel_s(0.0, 1.0) is None
    with pytest.raises(RuntimeError):
        empty.scaled(0.0, 1.0)


def test_host_speed_samples_on_a_timer_and_restores_the_handler():
    before = signal.getsignal(signal.SIGALRM)
    with hostspeed.HostSpeed() as speed:
        end = perf_counter() + 10 * hostspeed.INTERVAL_S
        while perf_counter() < end:
            pass
    assert len(speed.durations) >= 3
    assert speed.starts == sorted(speed.starts)
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)


def test_union_length_merges_overlaps_and_clips():
    assert union_length([]) == 0
    assert union_length([(1, 4), (3, 6)]) == 5
    assert union_length([(1, 2), (3, 4)]) == 2
    assert union_length([(0, 10), (2, 3)]) == 10
    assert union_length([(-5, 2), (8, 20)], 0, 10) == 4


def _synthetic_log() -> SpanLog:
    """Spans in the order they open, as the tracer records them."""
    log = SpanLog()
    root = log.add("a", 0, -1, 0.0, 0.5, 10.0, 10.5)
    child = log.add("b", 0, root, 1.0, 1.0, 4.0, 4.0)
    log.add("c", 0, child, 2.0, 2.0, 3.0, 3.0)  # grandchild: only b loses it
    log.add("b", 0, root, 3.0, 3.0, 6.0, 6.0)  # overlaps the first child
    log.add("b", 0, root, 5.0, 5.0, 7.0, 7.0)  # overlaps it, reaches past it
    log.add("b", 0, root, 9.0, 9.0, 11.0, 11.0)  # clipped to the root's end
    log.add("a", 1, -1, 20.0, 20.0, 21.0, 21.0)
    return log


def test_self_time_on_synthetic_spans():
    agg = aggregate(_synthetic_log())
    a, b, c = (agg.labels[x] for x in "abc")
    assert a.calls == 2 and b.calls == 4 and c.calls == 1
    # root: 9.5 inside [0.5, 10]; children cover [1, 7] and [9, 10] once,
    # 7 in all; the second root has no children
    assert a.self_s == pytest.approx(9.5 - 7 + 1)
    assert a.inclusive_s == pytest.approx(10.5)
    assert b.self_s == pytest.approx((3 - 1) + 3 + 2 + 2)
    assert c.self_s == pytest.approx(1)
    assert a.children == {"b": 4} and b.children == {"c": 1}
    assert agg.top_level_s == {0: pytest.approx(10.5), 1: pytest.approx(1.0)}


def test_span_log_round_trips(tmp_path):
    log = _synthetic_log()
    log.write(tmp_path / "x.spans.gz")
    back = SpanLog.read(tmp_path / "x.spans.gz")
    assert back.names == log.names
    assert (back.label, back.job, back.parent, back.times) == (
        log.label, log.job, log.parent, log.times)


def test_tracer_wraps_every_binding_and_restores():
    import wmatch.cli
    from wmatch import edmonds, linalg, mvv

    original = linalg.det_berkowitz
    tracer = Tracer()
    assert tracer.wrap("linalg.det_berkowitz", "wmatch.linalg:det_berkowitz",
                       layers.LAYERS["linalg.det_berkowitz"][1])
    assert tracer.wrap("rng.randint", "wmatch.rng:SplitMix64.randint")
    try:
        for module in (linalg, edmonds, mvv, wmatch.cli):
            assert module.det_berkowitz is not original
        m = linalg.IntMatrix.from_rows([[2, 1], [1, 3]])
        tracer.job = 4
        assert edmonds.det_berkowitz(m) == 5
        from wmatch.rng import SplitMix64

        SplitMix64(1).randint(1, 6)
    finally:
        tracer.unwrap_all()
    assert linalg.det_berkowitz is original and wmatch.cli.det_berkowitz is original
    agg = aggregate(tracer.log)
    assert agg.labels["linalg.det_berkowitz"].calls == 1
    assert agg.labels["linalg.det_berkowitz"].infos == [(2, 2)]
    assert agg.labels["rng.randint"].calls >= 1
    assert list(tracer.log.job) == [4] * len(tracer.log)


def test_tracer_closes_spans_when_the_call_raises():
    from wmatch import linalg

    tracer = Tracer()
    tracer.wrap("linalg.oracle", "wmatch.linalg:det_lagrange")
    try:
        with pytest.raises(ValueError):
            linalg.det_lagrange(linalg.IntMatrix.identity(10))
        assert linalg.det_lagrange(linalg.IntMatrix.identity(2)) == 1
    finally:
        tracer.unwrap_all()
    assert list(tracer.log.parent) == [-1, -1]


def test_missing_function_gives_absent_metrics():
    import wmatch.cli  # noqa: F401  (loads every wmatch module)

    tracer = Tracer()
    assert not tracer.wrap("x", "wmatch.linalg:no_such_function")
    assert not tracer.wrap("x", "wmatch.no_such_module:f")
    assert not tracer.wrap("x", "wmatch.rng:NoSuchClass.randint")
    present = set(layers.LAYERS) - {"classical.hungarian"}
    traced = layers.TracedRun(aggregate(SpanLog()), present, 1, {}, {}, 0.0)
    values, absent = layers.per_layer_metrics(traced)
    assert set(absent) == {"classical.hungarian.calls", "classical.hungarian.self_s"}
    assert "classical.hungarian.calls" not in values
    assert values["classical.maximum_matching.per_hungarian"] == (0.0, "ratio")


class CountingInt(int):
    """int whose arithmetic results stay CountingInt, counting products."""

    products = 0

    def __mul__(self, other):
        CountingInt.products += 1
        return CountingInt(int(self) * int(other))

    __rmul__ = __mul__

    def __add__(self, other):
        return CountingInt(int(self) + int(other))

    __radd__ = __add__

    def __sub__(self, other):
        return CountingInt(int(self) - int(other))

    def __rsub__(self, other):
        return CountingInt(int(other) - int(self))

    def __neg__(self):
        return CountingInt(-int(self))


@pytest.mark.parametrize("n", [1, 2, 3, 5, 8])
def test_berkowitz_mults_match_the_code(n):
    from wmatch.linalg import IntMatrix, det_berkowitz

    rng = random.Random(n)
    rows = tuple(tuple(CountingInt(rng.randint(-9, 9)) for _ in range(n)) for _ in range(n))
    CountingInt.products = 0
    det_berkowitz(IntMatrix(rows))
    # Each step's leading 1 * 1 multiplies two int literals, which a
    # CountingInt cannot see; there is one per step, n - 1 in all.
    assert CountingInt.products + max(n - 1, 0) == layers.berkowitz_mults(n)


def test_negative_cycle_detects_a_non_minimum_matching():
    rows = ((1, 1), (1, 1))
    w = ((5, 1), (1, 5))
    assert checks.has_negative_alternating_cycle(rows, w, [0, 1])
    assert not checks.has_negative_alternating_cycle(rows, w, [1, 0])
    assert not checks.has_negative_alternating_cycle(((1, 0), (0, 1)), w, [0, 1])


def test_checks_reject_wrong_outputs():
    g = inputs.Graph(((1, 1), (1, 1)), (0, 1), None)
    w = ((5, 1), (1, 5))
    job = inputs.Job("mwpm", ("mwpm", "g", "w"), graph=g, weights=w)
    good = {"command": "mwpm", "result": "found", "matching": [[0, 1], [1, 0]], "matching_weight": 2}
    assert checks.check_output(job, 0, json.dumps(good)) is None
    worse = dict(good, matching=[[0, 0], [1, 1]], matching_weight=10)
    assert "negative alternating cycle" in checks.check_output(job, 0, json.dumps(worse))
    assert checks.check_output(job, 1, json.dumps(good)) is not None

    hjob = inputs.Job("hungarian", ("hungarian", "w"), weights=w)
    cover = {"command": "hungarian", "matching": [[0, 0], [1, 1]], "matching_weight": 10,
             "cover_u": [5, 5], "cover_v": [0, 0], "cover_cost": 10}
    assert checks.check_output(hjob, 0, json.dumps(cover)) is None
    assert "cover inequality" in checks.check_output(
        hjob, 0, json.dumps(dict(cover, cover_u=[5, 4], cover_v=[0, 0])))

    violator = inputs.Graph(((1, 0), (1, 0)), None, (0, 1))
    djob = inputs.Job("decide", ("decide", "g"), graph=violator)
    assert checks.check_output(djob, 1, json.dumps({"command": "decide", "result": "no"})) is None
    assert checks.check_output(djob, 0, json.dumps({"command": "decide", "result": "yes"}))


def test_metric_names_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    assert e2e == run.END_TO_END
    per_layer = [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]]
    assert per_layer == [(m.name, m.unit, m.better) for m in layers.METRICS]
    assert [w["name"] for w in spec["workloads"]] == list(inputs.WORKLOADS)
    assert spec["paths"] == ["perfbench"]
