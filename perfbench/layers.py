"""Which program functions the traced run wraps, and the per-layer
metrics computed from their spans.

A label groups the public functions of one layer operation; its
metrics are named ``<label>.<what>``.  Counts and times are per pass
over the workload's job list.  A label none of whose functions exists
on the program's version is *absent*: its metrics are left out rather
than reported as an error, so the same benchmark runs on commits that
delete or rename a function.  A ratio whose base count is 0 reads 0.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

from tracer import Aggregate, LabelStats

VERIFY_CHECKS = (
    "check_det_agreement",
    "check_permutation_determinants",
    "check_matching_determinant_equivalence",
    "check_hungarian_against_brute",
    "check_mwpm_against_brute",
    "check_berge_hall",
    "check_zero_witness_complete",
    "check_zero_witness_graph",
    "check_isolation",
    "check_unique_min_theorems",
    "check_weight_bounded_extraction",
    "check_mvv_success_rate",
)


def _matrix_info(args, result):
    """(n, largest entry bit length) of the matrix argument."""
    rows = getattr(args[0], "rows", args[0])
    return len(rows), max(abs(x).bit_length() for row in rows for x in row)


def _trial_info(args, result):
    return bool(getattr(result, "success", False))


def _surjection_info(args, result):
    return result.domain_size, result.target_size, result.covered_count


# label -> (targets, info recorder).  Targets are "module:function" or
# "module:Class.method"; mix64 and next_u64 are too hot to wrap.
LAYERS: dict[str, tuple[tuple[str, ...], Optional[Callable]]] = {
    "linalg.det_berkowitz": (("wmatch.linalg:det_berkowitz",), _matrix_info),
    "linalg.minor": (("wmatch.linalg:minor",), None),
    "linalg.oracle": (("wmatch.linalg:det_cofactor", "wmatch.linalg:det_lagrange"), None),
    "edmonds.extract": (("wmatch.edmonds:extract_pm_trace",), None),
    "edmonds.lovasz_sample": (("wmatch.edmonds:lovasz_sample",), None),
    "mvv.trial": (("wmatch.mvv:mvv_trial",), _trial_info),
    "mvv.power_matrix": (("wmatch.mvv:build_power_matrix",), None),
    "mvv.extract_weight_bounded": (("wmatch.mvv:extract_pm_weight_bounded",), None),
    "mvv.membership": (("wmatch.mvv:edge_in_unique_min_pm",), None),
    "classical.hungarian": (("wmatch.classical:hungarian_max_weight",), None),
    "classical.mwpm": (("wmatch.classical:mwpm",), None),
    "classical.maximum_matching": (("wmatch.classical:maximum_matching",), None),
    "classical.augmenting_path": (("wmatch.classical:find_augmenting_path",), None),
    "zeroset.witness": (
        ("wmatch.zeroset:zero_witness_complete", "wmatch.zeroset:zero_witness_graph"),
        None,
    ),
    "zeroset.zero_set": (("wmatch.zeroset:zero_set",), None),
    "isolation.predicate": (("wmatch.isolation:is_nonisolating",), None),
    "isolation.witness": (("wmatch.isolation:nonisolating_witness",), None),
    "oracle.surjection": (("wmatch.oracle:check_surjection",), _surjection_info),
    "oracle.brute": (
        ("wmatch.oracle:brute_max_weight_matching", "wmatch.oracle:brute_min_weight_pms"),
        None,
    ),
    "graphs.parse": (("wmatch.graphs:parse_graph", "wmatch.graphs:parse_weights"), None),
    "graphs.edmonds_eval": (("wmatch.graphs:edmonds_eval",), None),
    "graphs.random_weights": (("wmatch.graphs:random_weights",), None),
    "rng.randint": (("wmatch.rng:SplitMix64.randint",), None),
}
LAYERS.update(
    {f"verify.check.{name}": ((f"wmatch.verify:{name}",), None) for name in VERIFY_CHECKS}
)


def berkowitz_mults(n: int) -> int:
    """Integer multiplications ``det_berkowitz`` performs on an n x n
    matrix, counted from its loops (a computed count, not a measured
    one): for each trailing block of size s >= 2, one row-column dot
    product, s - 2 matrix-vector products with their dot products, and
    the Toeplitz convolution of the coefficient vector."""
    total = 0
    for s in range(2, n + 1):
        total += (s - 1) + (s - 2) * ((s - 1) ** 2 + (s - 1)) + (s + 1) * (s + 2) // 2 - 1
    return total


@dataclass
class TracedRun:
    """What the per-layer metrics are computed from."""

    agg: Aggregate
    present: set  # labels with at least one function wrapped
    passes: int
    job_commands: dict  # traced job id -> CLI command
    job_wall_s: dict  # traced job id -> seconds
    untraced_wall_s: float  # the same jobs, run untraced

    def stats(self, label: str) -> LabelStats:
        return self.agg.labels.get(label) or LabelStats()

    def per_pass(self, x: float) -> float:
        return x / self.passes


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _calls(label):
    return lambda r: r.per_pass(r.stats(label).calls)


def _self(label):
    return lambda r: r.per_pass(r.stats(label).self_s)


def _children_per_call(label, child):
    return lambda r: _ratio(r.stats(label).children.get(child, 0), r.stats(label).calls)


def _det_mean(index):
    def compute(r):
        infos = r.stats("linalg.det_berkowitz").infos
        return _ratio(sum(info[index] for info in infos), len(infos))

    return compute


def _det_mults(r):
    infos = r.stats("linalg.det_berkowitz").infos
    return r.per_pass(sum(berkowitz_mults(n) for n, _ in infos))


def _decide_trials_per_job(r):
    decide_jobs = [job for job, cmd in r.job_commands.items() if cmd == "decide"]
    by_job = r.stats("edmonds.lovasz_sample").by_job
    return _ratio(sum(by_job.get(job, 0) for job in decide_jobs), len(decide_jobs))


def _trial_success(r):
    infos = r.stats("mvv.trial").infos
    return _ratio(sum(infos), len(infos))


def _surjection_sum(index):
    return lambda r: r.per_pass(sum(info[index] for info in r.stats("oracle.surjection").infos))


def _covered_ratio(r):
    infos = r.stats("oracle.surjection").infos
    return _ratio(sum(i[2] for i in infos), sum(i[1] for i in infos))


def _domain_rate(r):
    st = r.stats("oracle.surjection")
    return _ratio(sum(info[0] for info in st.infos), st.inclusive_s)


def _traced_wall(r):
    return sum(r.job_wall_s.values())


def _cli_self(r):
    top = r.agg.top_level_s
    return r.per_pass(sum(wall - top.get(job, 0.0) for job, wall in r.job_wall_s.items()))


def _residual_frac(r):
    wall = _traced_wall(r)
    layer_self = sum(st.self_s for st in r.agg.labels.values())
    return _ratio(wall - layer_self - r.passes * _cli_self(r), wall)


def _overhead_frac(r):
    return _ratio(_traced_wall(r) - r.untraced_wall_s, r.untraced_wall_s)


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str
    label: Optional[str]  # absent with this label; None = always reported
    compute: Callable[[TracedRun], float]


def _m(name, unit, better, compute, label=None):
    if label is None and name.count(".") >= 2:
        label = name.rsplit(".", 1)[0]
    return Metric(name, unit, better, label, compute)


def _calls_self(label):
    return [
        _m(f"{label}.calls", "count", "lower", _calls(label)),
        _m(f"{label}.self_s", "s", "lower", _self(label)),
    ]


METRICS: list[Metric] = [
    *_calls_self("linalg.det_berkowitz"),
    _m("linalg.det_berkowitz.n_mean", "n", "lower", _det_mean(0)),
    _m("linalg.det_berkowitz.entry_bits_mean", "bits", "lower", _det_mean(1)),
    _m("linalg.det_berkowitz.mults", "count", "lower", _det_mults),
    *_calls_self("linalg.minor"),
    _m("linalg.oracle.self_s", "s", "lower", _self("linalg.oracle")),
    *_calls_self("edmonds.extract"),
    _m("edmonds.extract.dets_per_call", "ratio", "lower",
       _children_per_call("edmonds.extract", "linalg.det_berkowitz")),
    *_calls_self("edmonds.lovasz_sample"),
    _m("edmonds.decide_trials_per_job", "ratio", "lower", _decide_trials_per_job,
       label="edmonds.lovasz_sample"),
    *_calls_self("mvv.trial"),
    _m("mvv.trial.success_ratio", "ratio", "higher", _trial_success),
    _m("mvv.trial.dets_per_call", "ratio", "lower",
       _children_per_call("mvv.trial", "linalg.det_berkowitz")),
    *_calls_self("mvv.power_matrix"),
    *_calls_self("mvv.extract_weight_bounded"),
    *_calls_self("mvv.membership"),
    *_calls_self("classical.hungarian"),
    *_calls_self("classical.mwpm"),
    *_calls_self("classical.maximum_matching"),
    _m("classical.maximum_matching.per_hungarian", "ratio", "lower",
       _children_per_call("classical.hungarian", "classical.maximum_matching")),
    *_calls_self("classical.augmenting_path"),
    *_calls_self("zeroset.witness"),
    _m("zeroset.witness.dets_per_call", "ratio", "lower",
       _children_per_call("zeroset.witness", "linalg.det_berkowitz")),
    _m("zeroset.witness.extracts_per_call", "ratio", "lower",
       _children_per_call("zeroset.witness", "edmonds.extract")),
    _m("zeroset.zero_set.self_s", "s", "lower", _self("zeroset.zero_set")),
    *_calls_self("isolation.predicate"),
    _m("isolation.predicate.mwpm_per_call", "ratio", "lower",
       _children_per_call("isolation.predicate", "classical.mwpm")),
    *_calls_self("isolation.witness"),
    _m("isolation.witness.mwpm_per_call", "ratio", "lower",
       _children_per_call("isolation.witness", "classical.mwpm")),
    *_calls_self("oracle.surjection"),
    _m("oracle.surjection.domain_elems", "count", "higher", _surjection_sum(0)),
    _m("oracle.surjection.target_elems", "count", "higher", _surjection_sum(1)),
    _m("oracle.surjection.covered_ratio", "ratio", "higher", _covered_ratio),
    _m("oracle.surjection.domain_elems_per_s", "1/s", "higher", _domain_rate),
    *_calls_self("oracle.brute"),
    _m("graphs.parse.self_s", "s", "lower", _self("graphs.parse")),
    *_calls_self("graphs.edmonds_eval"),
    _m("graphs.random_weights.self_s", "s", "lower", _self("graphs.random_weights")),
    *_calls_self("rng.randint"),
    *[
        _m(f"verify.check.{name}_s", "s", "lower",
           lambda r, label=f"verify.check.{name}": r.per_pass(r.stats(label).inclusive_s),
           label=f"verify.check.{name}")
        for name in VERIFY_CHECKS
    ],
    _m("cli.self_s", "s", "lower", _cli_self),
    _m("trace.residual_frac", "ratio", "lower", _residual_frac),
    _m("trace.overhead_frac", "ratio", "lower", _overhead_frac),
]


def per_layer_metrics(run: TracedRun) -> tuple[dict, list]:
    """Metric name -> (value, unit), and the names left out as absent."""
    values, absent = {}, []
    for metric in METRICS:
        if metric.label is not None and metric.label not in run.present:
            absent.append(metric.name)
        else:
            values[metric.name] = (metric.compute(run), metric.unit)
    return values, absent
