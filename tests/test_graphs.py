import random
import sys
from decimal import Decimal
from fractions import Fraction
from itertools import permutations, product

import pytest

from wmatch.graphs import (
    BipartiteGraph,
    FileFormatError,
    Matching,
    WeightAssignment,
    _decimal,
    _lines,
    _not_integer,
    _parse_header,
    edge_grid,
    edmonds_eval,
    format_graph,
    format_weights,
    is_perfect_matching,
    matching_weight,
    parse_graph,
    parse_weights,
    random_weights,
)
from wmatch.classical import maximum_matching
from wmatch.edmonds import lovasz_sample
from wmatch.isolation import enumerate_nonisolating, nonisolating_witness_map
from wmatch.linalg import IntMatrix, det_berkowitz
from wmatch.oracle import brute_max_matching_size
from wmatch.rng import SplitMix64
from wmatch.zeroset import zero_set


class TestBipartiteGraph:
    def test_requires_square(self):
        with pytest.raises(ValueError):
            BipartiteGraph.from_rows([[1, 0]])

    def test_edge_list_row_major(self):
        g = BipartiteGraph.from_rows([[0, 1], [1, 1]])
        assert g.edge_list() == ((0, 1), (1, 0), (1, 1))
        assert g.num_edges == 3
        # Built once per graph.
        assert g.edge_list() is g.edge_list()
        h = BipartiteGraph.from_rows([[0, 1], [1, 1]])
        # h has not built its list: equality, hash and repr ignore it.
        assert g == h and hash(g) == hash(h) and repr(g) == repr(h)
        assert g != BipartiteGraph.complete(2)
        assert {g: 1}[h] == 1

    def test_neighbors_cached(self):
        g = BipartiteGraph.from_rows([[0, 1, 1], [0, 0, 0], [1, 0, 1]])
        assert [g.neighbors(i) for i in range(3)] == [(1, 2), (), (0, 2)]
        assert g.neighbors(-1) == (0, 2)
        with pytest.raises(IndexError):
            g.neighbors(3)
        # Built once per graph, and not part of ==, hash or repr.
        assert g.neighbors(0) is g.neighbors(0)
        h = BipartiteGraph.from_rows([[0, 1, 1], [0, 0, 0], [1, 0, 1]])
        assert g == h and hash(g) == hash(h) and repr(g) == repr(h)

    def test_row_masks_cached(self):
        g = BipartiteGraph.from_rows([[0, 1, 1], [0, 0, 0], [1, 0, 1]])
        assert g.row_masks == (0b110, 0, 0b101)
        # Built once per graph, and not part of ==, hash or repr.
        assert g.row_masks is g.row_masks
        h = BipartiteGraph.from_rows([[0, 1, 1], [0, 0, 0], [1, 0, 1]])
        assert g == h and hash(g) == hash(h) and repr(g) == repr(h)

    def test_row_masks_and_num_edges_match_the_edges(self):
        rng = random.Random(19)
        for n in (1, 2, 7, 20, 64, 65):
            rows = [[rng.random() < 0.5 for _ in range(n)] for _ in range(n)]
            g = BipartiteGraph.from_rows(rows)
            assert g.row_masks == tuple(
                sum(1 << j for j in range(n) if rows[i][j]) for i in range(n)
            )
            assert g.num_edges == sum(map(sum, rows)) == len(g.edge_list())

    def test_without_edge(self):
        g = BipartiteGraph.complete(2).without_edge(0, 1)
        assert not g.has_edge(0, 1)
        assert g.has_edge(0, 0)


def planted_graph(rng, n, violator):
    """Density-1/2 graph with a planted perfect matching, or, with
    ``violator``, with three rows confined to two columns (so |S| = 3 >
    |N(S)| = 2 and no perfect matching exists)."""
    rows = [[rng.random() < 0.5 for _ in range(n)] for _ in range(n)]
    if violator:
        for i in rng.sample(range(n), 3):
            rows[i] = [j < 2 and rows[i][j] for j in range(n)]
    else:
        for i, j in enumerate(rng.sample(range(n), n)):
            rows[i][j] = True
    return BipartiteGraph.from_rows(rows)


class TestHasPerfectMatching:
    """The graph's own verdict, Kuhn's pass on its row masks, against
    the row sweep of brute_max_matching_size at small n and against
    maximum_matching at the sizes decide and find run."""

    def test_every_3x3_graph(self):
        verdicts = []
        for bits in range(1 << 9):
            g = BipartiteGraph.from_rows(
                [[(bits >> (3 * i + j)) & 1 for j in range(3)] for i in range(3)]
            )
            verdicts.append(g.has_perfect_matching())
            assert verdicts[-1] == (brute_max_matching_size(g) == 3)
        # The 3 x 3 0/1 matrices with a nonzero permanent: 247 of 512.
        assert sum(verdicts) == 247

    @pytest.mark.parametrize("n", range(1, 9))
    def test_seeded_graphs(self, n):
        rng = random.Random(9100 + n)
        verdicts = []
        for k in range(300):
            p = (0.1, 0.3, 0.5, 0.7, 0.9)[k % 5]
            g = BipartiteGraph.from_rows(
                [[rng.random() < p for _ in range(n)] for _ in range(n)]
            )
            verdicts.append(g.has_perfect_matching())
            assert verdicts[-1] == (brute_max_matching_size(g) == n)
        assert 30 <= sum(verdicts) <= 270

    @pytest.mark.parametrize("n", [20, 48, 200])
    @pytest.mark.parametrize("violator", [False, True])
    def test_production_sizes(self, n, violator):
        rng = random.Random(9200 + n + violator)
        for _ in range(4):
            g = planted_graph(rng, n, violator)
            assert g.has_perfect_matching() == (maximum_matching(g).size == n) != violator


# Exact-integer constructors refuse these rather than truncate or parse
# them: int() would give 1, 2, 3, 3 and 3.
NON_INTEGERS = [1.7, 2.9, "3", Fraction(3), Decimal(3)]


def pattern_id(g):
    return "-".join("".join("1" if e else "0" for e in row) for row in g.edges)


def reference_grid(g, values):
    """The per-edge loop: walk the n x n positions in row-major order
    and give each edge the next value, each non-edge 0."""
    it = iter(values)
    return tuple(
        tuple(next(it) if g.has_edge(i, j) else 0 for j in range(g.n)) for i in range(g.n)
    )


class TestEdgeGrid:
    """edge_grid, and each of its four callers, against the per-edge
    loop, on graphs with and without empty rows."""

    GRAPHS = [
        BipartiteGraph.from_rows(rows)
        for rows in (
            [[1]],
            [[0]],
            [[1, 1], [0, 0]],
            [[0, 0, 0], [1, 0, 1], [0, 1, 1]],
            [[1, 0, 1], [0, 0, 0], [1, 1, 0]],
            [[1, 1, 0], [0, 1, 1], [1, 0, 1]],
            [[1, 0, 0, 1], [0, 1, 0, 0], [1, 1, 1, 0], [0, 0, 1, 1]],
        )
    ]

    @pytest.mark.parametrize("g", GRAPHS, ids=pattern_id)
    def test_edge_grid_and_from_edge_values(self, g):
        values = list(range(7, 7 + g.num_edges))
        assert edge_grid(g, values) == reference_grid(g, values)
        assert WeightAssignment.from_edge_values(g, values).grid == reference_grid(g, values)
        w = WeightAssignment.from_edge_values(g, [True] * g.num_edges)
        assert w.grid == reference_grid(g, [1] * g.num_edges)
        assert all(type(x) is int for row in w.grid for x in row)

    @pytest.mark.parametrize("g", GRAPHS, ids=pattern_id)
    def test_from_edge_values_errors(self, g):
        # The same messages as the grid path from_edge_values took
        # before it checked the m values flat: the length check, then
        # from_grid on the laid-out grid.
        def reference(values):
            if len(values) != g.num_edges:
                raise ValueError(f"expected {g.num_edges} edge values, got {len(values)}")
            return WeightAssignment.from_grid(reference_grid(g, values))

        m = g.num_edges
        rng = random.Random(pattern_id(g))
        cases = [[1] * (m + 1)]
        if m:
            cases.append([1] * (m - 1))
            for _ in range(30):
                values = [rng.randint(-3, 3) for _ in range(m)]
                values[rng.randrange(m)] = -rng.randint(1, 5)
                cases.append(values)
        for values in cases:
            with pytest.raises(ValueError) as expected:
                reference(values)
            with pytest.raises(ValueError) as got:
                WeightAssignment.from_edge_values(g, values)
            assert str(got.value) == str(expected.value)

    @pytest.mark.parametrize("entry", NON_INTEGERS)
    def test_from_edge_values_non_integers_rejected(self, entry):
        g = BipartiteGraph.complete(1)
        with pytest.raises(TypeError):
            WeightAssignment.from_edge_values(g, [entry])

    def test_random_weights(self):
        rng = random.Random(23)
        graphs = self.GRAPHS + [
            BipartiteGraph.from_rows([[rng.random() < 0.3 for _ in range(n)] for _ in range(n)])
            for n in (5, 9, 20)
        ]
        for g in graphs:
            for k, seed in ((1, 0), (2 * g.n, 5), (10**15, 2**64 - 1)):
                stream = SplitMix64(seed)
                draws = [stream.randint(1, k) for _ in range(g.num_edges)]
                assert random_weights(g, k, seed).grid == reference_grid(g, draws)

    @pytest.mark.parametrize("g", GRAPHS, ids=pattern_id)
    def test_zero_set(self, g):
        for s in (1, 2, 3):
            expected = []
            for values in product(range(s), repeat=g.num_edges):
                grid = reference_grid(g, values)
                if det_berkowitz(IntMatrix(grid)) == 0:
                    expected.append(grid)
            assert list(zero_set(g, s)) == expected

    @pytest.mark.parametrize("g", [
        BipartiteGraph.complete(2),
        BipartiteGraph.from_rows([[1, 1, 1], [1, 1, 0], [0, 0, 1]]),
        BipartiteGraph.from_rows([[1, 1, 0], [1, 1, 1], [0, 1, 1]]),
    ], ids=pattern_id)
    def test_isolation_witness(self, g):
        # A graph with an empty row has no perfect matching, so no
        # non-isolating dummy, and the witness map refuses it.
        k, m = 3, g.num_edges
        dummy = next(enumerate_nonisolating(g, k))
        witness = nonisolating_witness_map(g, k, dummy)
        spliced = 0
        for i, (a, b) in enumerate(g.edge_list()):
            for rest in product(range(1, k + 1), repeat=m - 1):
                out = witness(i, rest)
                if out != dummy:
                    spliced += 1
                    values = [*rest[:i], out.value(a, b), *rest[i:]]
                    assert out.grid == reference_grid(g, values)
        assert spliced > 0
        with pytest.raises(ValueError):
            nonisolating_witness_map(BipartiteGraph.from_rows([[1, 1], [0, 0]]), k, dummy)


class TestMatching:
    def test_injectivity_enforced(self):
        with pytest.raises(ValueError):
            Matching.from_pairs([(0, 1), (1, 1)])
        with pytest.raises(ValueError):
            Matching.from_pairs([(0, 0), (0, 1)])

    def test_from_dict_and_lookup(self):
        m = Matching.from_dict({1: 0, 0: 2})
        assert m.pairs == ((0, 2), (1, 0))
        assert [m.get(i) for i in range(3)] == [2, 0, None]
        assert m.get(5) is None
        assert (0, 2) in m.pairs
        same = Matching.from_pairs([(1, 0), (0, 2)])
        assert m == same and hash(m) == hash(same) and repr(m) == repr(same)

    def test_stores_only_pairs(self):
        for m in (Matching.from_pairs([(1, 0), (0, 2)]), Matching.from_columns([2, 0]),
                  Matching.empty()):
            assert vars(m) == {"pairs": m.pairs}

    def test_from_columns(self):
        m = Matching.from_columns([2, 0, 1])
        same = Matching.from_pairs([(2, 1), (0, 2), (1, 0)])
        assert m.pairs == same.pairs == ((0, 2), (1, 0), (2, 1))
        assert m == same and hash(m) == hash(same) and repr(m) == repr(same)
        assert [m.get(i) for i in range(4)] == [2, 0, 1, None]
        assert Matching.from_columns(()) == Matching.empty()

    def test_from_columns_refuses_a_repeated_column(self):
        with pytest.raises(ValueError, match="^matching is not injective$"):
            Matching.from_columns([1, 0, 1])

    def test_permutation_matrix(self):
        m = Matching.from_pairs([(0, 1), (1, 0)])
        assert m.permutation_matrix(2).rows == ((0, 1), (1, 0))

    @pytest.mark.parametrize("index", NON_INTEGERS)
    def test_non_integer_indices_rejected(self, index):
        with pytest.raises(TypeError):
            Matching.from_pairs([(0, 1), (1, index)])
        with pytest.raises(TypeError):
            Matching.from_pairs([(index, 1)])
        m = Matching.from_pairs([(True, False), (False, True)])
        assert m.pairs == ((0, 1), (1, 0))
        assert all(type(x) is int for pair in m.pairs for x in pair)


class TestEdmondsEval:
    def test_complete_all_ones(self):
        b = edmonds_eval(BipartiteGraph.complete(2), [[1, 1], [1, 1]])
        assert b.rows == ((1, 1), (1, 1))

    def test_empty_graph_zeroes_everything(self):
        b = edmonds_eval(BipartiteGraph.empty(2), [[3, 4], [5, 6]])
        assert b.rows == ((0, 0), (0, 0))

    def test_single_edge(self):
        g = BipartiteGraph.from_rows([[1, 0], [0, 0]])
        b = edmonds_eval(g, [[5, 9], [9, 9]])
        assert b.rows == ((5, 0), (0, 0))

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            edmonds_eval(BipartiteGraph.complete(2), [[1, 2, 3]])

    @pytest.mark.parametrize("n", [1, 3])
    def test_int_matrix_of_another_size(self, n):
        with pytest.raises(ValueError, match="^value grid must be 2x2$"):
            edmonds_eval(BipartiteGraph.complete(2), IntMatrix.identity(n))

    def test_result_equals_from_rows(self):
        g = BipartiteGraph.from_rows([[1, 0, 1], [0, 1, 1], [1, 1, 0]])
        grid = [[5, -2, 7], [1, 0, 3], [-4, 8, 6]]
        expected = IntMatrix.from_rows(
            [[x if e else 0 for x, e in zip(row, edges)] for row, edges in zip(grid, g.edges)]
        )
        for values in (grid, IntMatrix.from_rows(grid)):
            b = edmonds_eval(g, values)
            assert b == expected and hash(b) == hash(expected)
            assert all(type(x) is int for row in b.rows for x in row)

    @pytest.mark.parametrize("entry", NON_INTEGERS)
    def test_non_integer_grid_rejected(self, entry):
        with pytest.raises(TypeError):
            edmonds_eval(BipartiteGraph.complete(2), [[1, entry], [0, 1]])

    def test_non_edge_entries_irrelevant(self):
        g = BipartiteGraph.from_rows([[1, 0], [1, 1]])
        a = edmonds_eval(g, [[2, 0], [3, 4]])
        b = edmonds_eval(g, [[2, 999], [3, 4]])
        assert a.rows == b.rows

    def test_pm_permutation_matrix_det_is_unit(self):
        g = BipartiteGraph.from_rows([[1, 1, 0], [0, 1, 1], [1, 0, 1]])
        m = Matching.from_pairs([(0, 0), (1, 1), (2, 2)])
        assert is_perfect_matching(g, m)
        assert det_berkowitz(edmonds_eval(g, m.permutation_matrix(3))) in (-1, 1)


class TestIsPerfectMatching:
    def test_perfect(self):
        g = BipartiteGraph.complete(2)
        assert is_perfect_matching(g, Matching.from_dict({0: 0, 1: 1}))

    def test_not_total(self):
        g = BipartiteGraph.complete(2)
        assert not is_perfect_matching(g, Matching.from_dict({0: 0}))

    def test_non_edge_pair(self):
        g = BipartiteGraph.from_rows([[1, 0], [0, 0]])
        assert not is_perfect_matching(g, Matching.from_dict({0: 0, 1: 1}))

    # Python's negative indexing would wrap these (edges[-1] is the last
    # row) and read them as perfect matchings of the identity graph.
    @pytest.mark.parametrize("pairs", [
        [(-1, 1), (0, 0)],
        [(0, 0), (1, -1)],
    ])
    def test_negative_index(self, pairs):
        g = BipartiteGraph.from_rows([[1, 0], [0, 1]])
        assert not is_perfect_matching(g, Matching.from_pairs(pairs))

    @pytest.mark.parametrize("pairs", [
        [(0, 0), (2, 1)],
        [(0, 2), (1, 0)],
        [(0, 0), (1, 1), (2, 2)],
    ])
    def test_index_at_least_n(self, pairs):
        g = BipartiteGraph.complete(2)
        assert not is_perfect_matching(g, Matching.from_pairs(pairs))


class TestMatchingWeight:
    def test_empty(self):
        w = WeightAssignment.from_grid([[1, 1], [1, 1]])
        assert matching_weight(Matching.empty(), w) == 0

    def test_sum(self):
        w = WeightAssignment.from_grid([[0, 2], [3, 0]])
        assert matching_weight(Matching.from_dict({0: 1, 1: 0}), w) == 5

    def test_k33_minimum_over_enumerated_pms(self):
        w = WeightAssignment.from_grid([[1, 2, 3], [4, 5, 6], [7, 8, 9]])
        best = min(
            matching_weight(Matching.from_pairs(enumerate(perm)), w)
            for perm in permutations(range(3))
        )
        assert best == 15

    def test_monotone_under_extension(self):
        w = WeightAssignment.from_grid([[1, 2], [3, 4]])
        small = Matching.from_dict({0: 0})
        bigger = Matching.from_dict({0: 0, 1: 1})
        assert matching_weight(bigger, w) > matching_weight(small, w)

    def test_negative_weight_rejected(self):
        with pytest.raises(ValueError):
            WeightAssignment.from_grid([[-1, 0], [0, 0]])

    @pytest.mark.parametrize(
        "rows,message",
        [
            ([], "weight grid must have n >= 1"),
            ([[1, 2], [3]], "weight row 1 has 1 entries, expected 2"),
            ([[1, 2, 3], [4, 5, 6], [7, 8]], "weight row 2 has 2 entries, expected 3"),
            ([[0, 1], [2, -3]], "negative weight -3 at row 1"),
            ([[5, -1, -7], [0, 0, 0], [0, 0, 0]], "negative weight -1 at row 0"),
            # Rows are checked in order, length before sign.
            ([[0, -2], [1]], "negative weight -2 at row 0"),
            ([[0, 1, 2], [1], [-1, 0, 0]], "weight row 1 has 1 entries, expected 3"),
        ],
    )
    def test_rejection_messages(self, rows, message):
        with pytest.raises(ValueError) as info:
            WeightAssignment.from_grid(rows)
        assert str(info.value) == message
        with pytest.raises(ValueError) as info:
            WeightAssignment(tuple(tuple(row) for row in rows))
        assert str(info.value) == message

    def test_entries_become_ints(self):
        w = WeightAssignment.from_grid([[True, 7], (3, False)])
        assert w.grid == ((1, 7), (3, 0))
        assert all(type(x) is int for row in w.grid for x in row)
        with pytest.raises(TypeError):
            WeightAssignment.from_grid([["x", 0], [0, 0]])

    @pytest.mark.parametrize("entry", NON_INTEGERS)
    def test_non_integer_entries_rejected(self, entry):
        # int() would truncate 1.7 to 1 and parse "3".
        with pytest.raises(TypeError):
            WeightAssignment.from_grid([[entry, 0], [0, 1]])


class TestRandomWeights:
    def test_deterministic(self):
        g = BipartiteGraph.complete(3)
        assert random_weights(g, 6, 99) == random_weights(g, 6, 99)

    def test_seed_sensitivity(self):
        g = BipartiteGraph.complete(3)
        assert random_weights(g, 6, 1) != random_weights(g, 6, 2)

    def test_k1_all_ones(self):
        g = BipartiteGraph.complete(2)
        w = random_weights(g, 1, 5)
        assert all(w.value(i, j) == 1 for i, j in g.edge_list())

    def test_k0_rejected(self):
        with pytest.raises(ValueError):
            random_weights(BipartiteGraph.complete(1), 0, 1)

    def test_non_edges_zero(self):
        g = BipartiteGraph.from_rows([[1, 0], [0, 1]])
        w = random_weights(g, 9, 3)
        assert w.value(0, 1) == 0 and w.value(1, 0) == 0

    def test_uniformity_within_5_sigma(self):
        # 10^4 draws from one stream; each of the k values should land
        # within 5 sigma of the binomial expectation.
        k, n = 8, 100
        g = BipartiteGraph.complete(n)
        w = random_weights(g, k, 2024)
        counts = [0] * (k + 1)
        for i, j in g.edge_list():
            counts[w.value(i, j)] += 1
        draws = n * n
        expected = draws / k
        sigma = (draws * (1 / k) * (1 - 1 / k)) ** 0.5
        for v in range(1, k + 1):
            assert abs(counts[v] - expected) <= 5 * sigma
        assert counts[0] == 0

    def test_k_above_two_to_the_64_rejected(self):
        with pytest.raises(ValueError, match="more than 2\\^64"):
            random_weights(BipartiteGraph.complete(1), 2**64 + 1, 3)

    @pytest.mark.parametrize("k", [3.5, 4.0, Fraction(7, 2)])
    def test_non_integer_k_rejected(self, k):
        # Such a k would pass the k >= 1 check and give float weights.
        with pytest.raises(TypeError):
            random_weights(BipartiteGraph.complete(2), k, 5)


# The one-draw-per-edge loop that the packed draw replaced, kept as its
# reference: randint on each edge in row-major edge order.
def reference_random_weights(g, k, seed):
    stream = SplitMix64(seed)
    rows = [[0] * g.n for _ in range(g.n)]
    for i, j in g.edge_list():
        rows[i][j] = stream.randint(1, k)
    return WeightAssignment.from_grid(rows)


class TestRandomWeightsAgainstReference:
    # K_n,n at n = 20, 48 and 200 and the density-1/2 graphs at n = 48 and
    # 200 have more edges than one 256-draw block, so the draws cross blocks.
    SIZES = [*range(1, 13), 20, 48, 200]

    @staticmethod
    def graphs(n):
        rng = random.Random(n)
        yield BipartiteGraph.complete(n)
        yield BipartiteGraph.from_rows(
            [[rng.random() < 0.5 for _ in range(n)] for _ in range(n)]
        )

    @pytest.mark.parametrize("n", SIZES)
    def test_same_grid(self, n):
        for g in self.graphs(n):
            for k, seed in ((2 * n, n), (2 * g.num_edges, 2**64 - n), (1, 0)):
                assert random_weights(g, k, seed) == reference_random_weights(g, k, seed)

    @pytest.mark.parametrize("n", SIZES)
    def test_lovasz_sample(self, n):
        for g in self.graphs(n):
            for seed in (1, 2**40 + n):
                grid = reference_random_weights(g, 2 * n, seed).grid
                assert lovasz_sample(g, seed).rows == grid


GRAPH_TEXT = "2\n1 0\n1 1\n"
WEIGHT_TEXT = "2\n3 0\n5 7\n"


class TestFileFormats:
    def test_graph_round_trip(self):
        g = parse_graph(GRAPH_TEXT)
        assert g.edges == ((True, False), (True, True))
        assert format_graph(g) == GRAPH_TEXT

    def test_weights_round_trip(self):
        w = parse_weights(WEIGHT_TEXT)
        assert w.grid == ((3, 0), (5, 7))
        assert format_weights(w) == WEIGHT_TEXT

    def test_bad_header(self):
        with pytest.raises(FileFormatError) as exc:
            parse_graph("x\n1\n")
        assert exc.value.line == 1

    def test_short_row(self):
        with pytest.raises(FileFormatError) as exc:
            parse_graph("2\n1 0\n1\n")
        assert exc.value.line == 3

    def test_missing_rows(self):
        with pytest.raises(FileFormatError):
            parse_graph("3\n1 1 1\n")

    def test_non_binary_edge(self):
        with pytest.raises(FileFormatError) as exc:
            parse_graph("2\n1 2\n0 0\n")
        assert exc.value.line == 2

    def test_negative_weight(self):
        with pytest.raises(FileFormatError) as exc:
            parse_weights("2\n1 1\n-1 1\n")
        assert exc.value.line == 3

    def test_trailing_garbage(self):
        with pytest.raises(FileFormatError):
            parse_graph("1\n1\nleftover\n")

    def test_trailing_blank_lines_ok(self):
        assert parse_graph("1\n1\n\n").n == 1

    # int() alone reads each of these as a number: an underscore
    # separator, an explicit plus sign, Arabic-Indic one, fullwidth one.
    NOT_ASCII_DECIMAL = ("1_000", "+2", "\u0661", "\uff11")

    @pytest.mark.parametrize("token", NOT_ASCII_DECIMAL)
    def test_weight_entry_ascii_decimal_only(self, token):
        with pytest.raises(FileFormatError) as exc:
            parse_weights(f"2\n1 1\n{token} 1\n")
        assert exc.value.line == 3
        assert exc.value.message == f"expected integer entry, got {token!r}"

    @pytest.mark.parametrize("token", NOT_ASCII_DECIMAL)
    def test_graph_entry_ascii_decimal_only(self, token):
        with pytest.raises(FileFormatError) as exc:
            parse_graph(f"2\n{token} 0\n0 1\n")
        assert exc.value.line == 2
        assert exc.value.message == f"expected integer entry, got {token!r}"

    @pytest.mark.parametrize("header", ["\u0662", "+2", "2_0", "\uff12"])
    def test_header_ascii_decimal_only(self, header):
        for parse in (parse_graph, parse_weights):
            with pytest.raises(FileFormatError) as exc:
                parse(f"{header}\n1 0\n0 1\n")
            assert exc.value.line == 1
            assert exc.value.message == f"expected integer dimension, got {header!r}"

    # Each parsed at one time as another file: str.splitlines() broke
    # lines at U+2028 and "\x0b" (so later line numbers drifted), and
    # str.split() broke rows at U+00A0 and "\x1c".
    @pytest.mark.parametrize(
        "parse, text, line, message",
        [
            (parse_graph, "2\n1 0\u20280 1\n", 3, "expected 2 data rows, file ends after 1"),
            (parse_weights, "2\n1\xa02\n3 4\n", 2, "expected 2 entries, got 1"),
            (parse_graph, "2\n1 0\x1c0 1\n0 1\n", 2, "expected 2 entries, got 3"),
            (parse_graph, "2\n1 0\x0b\n0 1\n", 2, "expected integer entry, got '0\\x0b'"),
            (parse_graph, "2\x0b\n1 0\n0 1\n", 1, "expected integer dimension, got '2\\x0b'"),
            (parse_graph, "1\n1\n\u2029\n", 3, "unexpected trailing content"),
            (parse_graph, "2\r1 0\r0 1\r", 1, "expected integer dimension, got '2\\r1 0\\r0 1'"),
        ],
        ids=["u2028", "nbsp", "x1c", "x0b", "x0b-header", "u2029-trailing", "lone-cr"],
    )
    def test_only_newline_and_blanks_separate(self, parse, text, line, message):
        with pytest.raises(FileFormatError) as exc:
            parse(text)
        assert (exc.value.line, exc.value.message) == (line, message)

    # CPython reads an int from at most sys.get_int_max_str_digits()
    # decimal digits (4,300 by default), so int() refuses these
    # well-formed tokens; the message names the length instead of
    # echoing them.
    @pytest.mark.skipif(
        not 0 < getattr(sys, "get_int_max_str_digits", lambda: 0)() < 5000,
        reason="int() reads 5,000 digits on this interpreter",
    )
    @pytest.mark.parametrize(
        "parse, text, line, message",
        [
            (parse_weights, f"2\n1 {'1' * 5000}\n3 4\n", 2,
             f"integer entry too long: 5000 digits, starting {'1' * 20!r}"),
            (parse_weights, f"1\n-{'2' * 5000}\n", 2,
             f"integer entry too long: 5000 digits, starting {'-' + '2' * 19!r}"),
            (parse_graph, f"1\n{'0' * 5000}\n", 2,
             f"integer entry too long: 5000 digits, starting {'0' * 20!r}"),
            (parse_graph, f"{'1' * 5000}\n1\n", 1,
             f"integer dimension too long: 5000 digits, starting {'1' * 20!r}"),
        ],
        ids=["weight", "negative-weight", "graph", "header"],
    )
    def test_overlong_integer_reported_by_length(self, parse, text, line, message):
        with pytest.raises(FileFormatError) as exc:
            parse(text)
        assert (exc.value.line, exc.value.message) == (line, message)

    # A malformed token is quoted whole only up to 20 characters; a
    # longer one is named by its length and first 20 characters.
    @pytest.mark.parametrize(
        "parse, text, line, message",
        [
            (parse_weights, "1\n" + "x" * 5000 + "\n", 2,
             f"expected integer entry, got a 5000-character token starting {'x' * 20!r}"),
            (parse_graph, "2\n1 0\n0 " + "1" * 30 + "y\n", 3,
             f"expected integer entry, got a 31-character token starting {'1' * 20!r}"),
            (parse_graph, "+" + "2" * 4999 + "\n1 0\n0 1\n", 1,
             f"expected integer dimension, got a 5000-character token starting "
             f"{'+' + '2' * 19!r}"),
            (parse_weights, "1\n" + "z" * 20 + "\n", 2,
             f"expected integer entry, got {'z' * 20!r}"),
        ],
        ids=["weight", "graph", "header", "twenty-quoted-whole"],
    )
    def test_overlong_malformed_token_reported_by_length(self, parse, text, line, message):
        with pytest.raises(FileFormatError) as exc:
            parse(text)
        assert (exc.value.line, exc.value.message) == (line, message)
        assert len(str(exc.value)) < 120

    def test_crlf_and_tabs_accepted(self):
        assert parse_graph("2\r\n1 0\r\n1 1\r\n") == parse_graph(GRAPH_TEXT)
        assert parse_weights("2\n3\t0\n\t5 \t 7\t\r\n\n") == parse_weights(WEIGHT_TEXT)
        assert parse_graph("\t2\r\n1 0\n1 1") == parse_graph(GRAPH_TEXT)

    def test_negative_and_zero_padded_tokens(self):
        with pytest.raises(FileFormatError) as exc:
            parse_weights("2\n1 1\n-1 1\n")
        assert exc.value.message == "weights must be nonnegative, got -1"
        assert parse_weights("2\n007 0\n-0 1\n").grid == ((7, 0), (0, 1))
        assert parse_graph(" 2 \n1 0\n0 1\n").n == 2


# The per-token parser that the row-wise one replaced, kept as its
# reference: each token goes through _decimal on its own, and each
# check reads the parsed ints one at a time.
def reference_parse_row(line, lineno, n):
    fields = [f for f in line.replace("\t", " ").split(" ") if f]
    if len(fields) != n:
        raise FileFormatError(lineno, f"expected {n} entries, got {len(fields)}")
    out = []
    for f in fields:
        try:
            out.append(_decimal(f))
        except ValueError:
            raise FileFormatError(lineno, _not_integer(f, "entry")) from None
    return out


def reference_parse_graph(text):
    lines = _lines(text)
    n = _parse_header(lines)
    rows = []
    for i in range(n):
        row = reference_parse_row(lines[1 + i], 2 + i, n)
        for x in row:
            if x not in (0, 1):
                raise FileFormatError(2 + i, f"edge entries must be 0 or 1, got {x}")
        rows.append([bool(x) for x in row])
    return BipartiteGraph.from_rows(rows)


def reference_parse_weights(text):
    lines = _lines(text)
    n = _parse_header(lines)
    rows = []
    for i in range(n):
        row = reference_parse_row(lines[1 + i], 2 + i, n)
        for x in row:
            if x < 0:
                raise FileFormatError(2 + i, f"weights must be nonnegative, got {x}")
        rows.append(row)
    return WeightAssignment.from_grid(rows)


# Tokens and blanks that take a row off the plain path, or keep it on
# the plain path but off the 0/1 string comparison.
ODD_TOKENS = ("00", "-0", "01", "+1", "1_0", "\uff11", "2", "-3", "1" * 5000)
ODD_BLANKS = ("\t", "   ", " \t ", "\xa0", "\u2028", "\x0b")


def outcome(parse, text):
    try:
        return parse(text)
    except FileFormatError as exc:
        return exc.line, exc.message


def random_file(rng, plain_tokens):
    """A 1..4-row file whose tokens and blanks are mostly plain, with
    now and then an odd token or blank, a row one entry long or short,
    or CRLF line ends."""
    n = rng.randint(1, 4)
    lines = [str(n)]
    for _ in range(n):
        count = n if rng.random() < 0.95 else rng.choice((n - 1, n + 1))
        line = ""
        for k in range(count):
            odd_blank = rng.random() < 0.03
            if k or odd_blank:
                line += rng.choice(ODD_BLANKS) if odd_blank else " "
            line += rng.choice(ODD_TOKENS) if rng.random() < 0.03 else rng.choice(plain_tokens)
        lines.append(line)
    eol = "\r\n" if rng.random() < 0.2 else "\n"
    return eol.join(lines) + eol


class TestRowWiseParserAgainstReference:
    CASES = [
        (parse_graph, reference_parse_graph, ("0", "1")),
        (parse_weights, reference_parse_weights, ("0", "1", "7", "40", "123456789")),
    ]

    @pytest.mark.parametrize("parse, reference, plain_tokens", CASES, ids=["graph", "weights"])
    def test_each_odd_token_and_blank(self, parse, reference, plain_tokens):
        for token in ODD_TOKENS + plain_tokens:
            for blank in ODD_BLANKS + (" ",):
                for eol in ("\n", "\r\n"):
                    text = eol.join(["2", f"1{blank}0", f"0{blank}{token}"]) + eol
                    assert outcome(parse, text) == outcome(reference, text), repr(text)

    @pytest.mark.parametrize("parse, reference, plain_tokens", CASES, ids=["graph", "weights"])
    def test_random_files(self, parse, reference, plain_tokens):
        rng = random.Random(2020)
        parsed = refused = 0
        for _ in range(1500):
            text = random_file(rng, plain_tokens)
            got = outcome(parse, text)
            assert got == outcome(reference, text), repr(text)
            if isinstance(got, tuple):
                refused += 1
            else:
                parsed += 1
                entries = got.edges if parse is parse_graph else got.grid
                kind = bool if parse is parse_graph else int
                assert all(type(x) is kind for row in entries for x in row)
        assert parsed > 300 and refused > 300
