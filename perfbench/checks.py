"""Independent checks of the CLI's outputs.

Nothing here imports wmatch: every property is re-derived from the
generated inputs with the benchmark's own arithmetic, so a defect in
the program cannot also hide itself from the check.  Each check
returns None when the output is right, or a one-line reason.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Optional

from inputs import Job, Rows

SCHEMA_PATH = Path(__file__).resolve().parents[1] / "src" / "wmatch" / "schemas" / "report.schema.json"


def _pairs(matching) -> Optional[list[tuple[int, int]]]:
    if not isinstance(matching, list):
        return None
    out = []
    for pair in matching:
        if not (isinstance(pair, list) and len(pair) == 2):
            return None
        out.append((pair[0], pair[1]))
    return out


def is_matching(pairs: list[tuple[int, int]], n: int) -> bool:
    """Distinct lefts, distinct rights, all indices in [0, n)."""
    lefts = [i for i, _ in pairs]
    rights = [j for _, j in pairs]
    in_range = all(0 <= i < n and 0 <= j < n for i, j in pairs)
    return in_range and len(set(lefts)) == len(lefts) and len(set(rights)) == len(rights)


def is_perfect_matching(pairs: list[tuple[int, int]], rows: Rows) -> bool:
    n = len(rows)
    return len(pairs) == n and is_matching(pairs, n) and all(rows[i][j] for i, j in pairs)


def hall_violated(rows: Rows, lefts) -> bool:
    """|N(S)| < |S| for the left set S."""
    neighbours = {j for i in lefts for j, edge in enumerate(rows[i]) if edge}
    return len(neighbours) < len(lefts)


def has_negative_alternating_cycle(rows: Rows, w: Rows, mate: list[int]) -> bool:
    """Bellman-Ford on left vertices: an arc i -> i' for each edge (i, j)
    with j = mate[i'] != mate[i] costs w[i][j] - w[i'][j] (i takes j,
    i' gives it up).  A negative cycle is an alternating cycle that
    lowers the weight, so a perfect matching is minimum iff none exists.
    """
    n = len(rows)
    owner = {j: i for i, j in enumerate(mate)}
    arcs = [
        (i, owner[j], w[i][j] - w[owner[j]][j])
        for i in range(n)
        for j in range(n)
        if rows[i][j] and j != mate[i]
    ]
    dist = [0] * n
    for _ in range(n):
        changed = False
        for a, b, cost in arcs:
            if dist[a] + cost < dist[b]:
                dist[b] = dist[a] + cost
                changed = True
        if not changed:
            return False
    return True


def _check_verify(job: Job, rc: int, doc: dict) -> Optional[str]:
    import jsonschema

    suite = job.argv[1]
    if rc != 0:
        return f"verify {suite}: exit code {rc}"
    try:
        jsonschema.validate(doc, json.loads(SCHEMA_PATH.read_text()))
    except jsonschema.ValidationError as exc:
        return f"verify {suite}: schema: {exc.message}"
    if doc.get("suite") != suite:
        return f"verify {suite}: report names suite {doc.get('suite')!r}"
    failing = [c["name"] for c in doc["checks"] if c["passed"] is not True]
    if failing or doc["passed"] is not True:
        return f"verify {suite}: failing checks {failing}"
    return None


def _check_find(job: Job, rc: int, doc: dict) -> Optional[str]:
    g = job.graph
    if g.violator is not None:
        if rc != 1 or doc.get("result") != "failed" or doc.get("matching") is not None:
            return f"find: planted violator answered {doc.get('result')!r} (exit {rc})"
        return None
    pairs = _pairs(doc.get("matching"))
    if rc != 0 or doc.get("result") != "found" or pairs is None:
        return f"find: graph with a planted matching answered {doc.get('result')!r} (exit {rc})"
    if not is_perfect_matching(pairs, g.rows):
        return "find: matching is not a perfect matching of the graph"
    weights = doc.get("weights")
    n = len(g.rows)
    if not (isinstance(weights, list) and len(weights) == n and all(len(r) == n for r in weights)):
        return "find: weights are not an n x n grid"
    m = sum(map(sum, g.rows))
    edge_weights = [weights[i][j] for i in range(n) for j in range(n) if g.rows[i][j]]
    if not all(isinstance(x, int) and 1 <= x <= 2 * m for x in edge_weights):
        return f"find: an edge weight lies outside [1, {2 * m}]"
    if sum(weights[i][j] for i, j in pairs) != doc.get("min_weight"):
        return "find: matching weight differs from min_weight"
    return None


def _check_decide(job: Job, rc: int, doc: dict) -> Optional[str]:
    g = job.graph
    if g.violator is not None:
        if rc != 1 or doc.get("result") != "no":
            return f"decide: planted violator answered {doc.get('result')!r} (exit {rc})"
        return None
    pairs = _pairs(doc.get("matching"))
    if rc != 0 or doc.get("result") != "yes" or pairs is None:
        return f"decide: graph with a planted matching answered {doc.get('result')!r} (exit {rc})"
    if not is_perfect_matching(pairs, g.rows):
        return "decide: matching is not a perfect matching of the graph"
    return None


def _check_hungarian(job: Job, rc: int, doc: dict) -> Optional[str]:
    w = job.weights
    n = len(w)
    pairs = _pairs(doc.get("matching"))
    u, v = doc.get("cover_u"), doc.get("cover_v")
    if rc != 0 or pairs is None or not is_matching(pairs, n):
        return f"hungarian: no valid matching (exit {rc})"
    if not (isinstance(u, list) and isinstance(v, list) and len(u) == n and len(v) == n):
        return "hungarian: cover does not have n entries per side"
    if any(w[i][j] > u[i] + v[j] for i in range(n) for j in range(n)):
        return "hungarian: cover inequality fails"
    weight = sum(w[i][j] for i, j in pairs)
    if weight != sum(u) + sum(v):
        return "hungarian: matching weight differs from cover cost"
    if doc.get("matching_weight") != weight or doc.get("cover_cost") != weight:
        return "hungarian: reported weight or cost differs from the recomputed one"
    return None


def _check_mwpm(job: Job, rc: int, doc: dict) -> Optional[str]:
    g, w = job.graph, job.weights
    if g.violator is not None:
        if rc != 1 or doc.get("result") != "none":
            return f"mwpm: planted violator answered {doc.get('result')!r} (exit {rc})"
        return None
    pairs = _pairs(doc.get("matching"))
    if rc != 0 or doc.get("result") != "found" or pairs is None:
        return f"mwpm: graph with a planted matching answered {doc.get('result')!r} (exit {rc})"
    if not is_perfect_matching(pairs, g.rows):
        return "mwpm: matching is not a perfect matching of the graph"
    if doc.get("matching_weight") != sum(w[i][j] for i, j in pairs):
        return "mwpm: reported weight differs from the recomputed one"
    mate = [j for _, j in sorted(pairs)]
    if has_negative_alternating_cycle(g.rows, w, mate):
        return "mwpm: a negative alternating cycle exists, so the matching is not minimum"
    return None


_CHECKS = {
    "verify": _check_verify,
    "find": _check_find,
    "decide": _check_decide,
    "hungarian": _check_hungarian,
    "mwpm": _check_mwpm,
}


def check_output(job: Job, rc: Optional[int], out: str) -> Optional[str]:
    """None if the job's exit code and stdout are right, else why not."""
    if rc is None:
        return f"{job.command}: raised: {out.strip().splitlines()[-1] if out.strip() else '?'}"
    try:
        doc = json.loads(out)
    except json.JSONDecodeError:
        return f"{job.command}: stdout is not JSON (exit {rc})"
    if not isinstance(doc, dict) or doc.get("command") != job.command:
        return f"{job.command}: output does not name the command"
    return _CHECKS[job.command](job, rc, doc)
