import sys
from itertools import permutations

import pytest

from wmatch.graphs import (
    BipartiteGraph,
    FileFormatError,
    Matching,
    WeightAssignment,
    edmonds_eval,
    format_graph,
    format_weights,
    is_perfect_matching,
    matching_weight,
    parse_graph,
    parse_weights,
    random_weights,
)
from wmatch.linalg import det_berkowitz


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

    def test_without_edge(self):
        g = BipartiteGraph.complete(2).without_edge(0, 1)
        assert not g.has_edge(0, 1)
        assert g.has_edge(0, 0)


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
        # The lookup table takes no part in equality, hashing or repr.
        same = Matching.from_pairs([(1, 0), (0, 2)])
        assert m == same and hash(m) == hash(same) and repr(m) == repr(same)

    def test_permutation_matrix(self):
        m = Matching.from_pairs([(0, 1), (1, 0)])
        assert m.permutation_matrix(2).rows == ((0, 1), (1, 0))


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
        w = WeightAssignment.from_grid([[True, "7"], (3.0, 0)])
        assert w.grid == ((1, 7), (3, 0))
        assert all(type(x) is int for row in w.grid for x in row)
        with pytest.raises(ValueError):
            WeightAssignment.from_grid([["x", 0], [0, 0]])


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
