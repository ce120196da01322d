import pytest

from wmatch.rng import SplitMix64


class TestPublishedVectors:
    # Reference outputs of SplitMix64 as published with the generator
    # (java.util.SplittableRandom and Vigna's splitmix64.c).
    @pytest.mark.parametrize(
        "seed,outputs",
        [
            (0, [0xE220A8397B1DCDAF, 0x6E789E6AA1B965F4, 0x06C45D188009454F]),
            (1234567, [6457827717110365317, 3203168211198807973]),
        ],
    )
    def test_next_u64(self, seed, outputs):
        stream = SplitMix64(seed)
        assert [stream.next_u64() for _ in outputs] == outputs


class TestRandintsAgainstRandint:
    # Span 2^63 + 1 rejects about half of all outputs, so rejections fall
    # in the middle of every block; 2^64 takes every output as it is.
    @pytest.mark.parametrize("span", [1, 2, 40, 2**63 + 1, 2**64])
    @pytest.mark.parametrize("count", [0, 1, 255, 256, 257, 3000])
    def test_same_draws_and_state(self, span, count):
        for seed, lo in ((0, 0), (2**64 - 1, 1), (1234567, -5)):
            packed, single = SplitMix64(seed), SplitMix64(seed)
            hi = lo + span - 1
            assert packed.randints(lo, hi, count) == [
                single.randint(lo, hi) for _ in range(count)
            ]
            assert packed.next_u64() == single.next_u64()

    def test_draws_are_plain_ints_in_range(self):
        draws = SplitMix64(7).randints(1, 6, 1000)
        assert all(type(x) is int and 1 <= x <= 6 for x in draws)
        assert set(draws) == set(range(1, 7))

    def test_calls_continue_one_stream(self):
        parts, whole = SplitMix64(11), SplitMix64(11)
        got = parts.randints(0, 9, 300) + [parts.randint(0, 9)] + parts.randints(0, 9, 5)
        assert got == whole.randints(0, 9, 306)


class TestRangeErrors:
    @pytest.mark.parametrize("draw", [
        lambda s, lo, hi: s.randint(lo, hi),
        lambda s, lo, hi: s.randints(lo, hi, 3),
    ])
    def test_empty_range(self, draw):
        with pytest.raises(ValueError, match=r"empty range \[2, 1\]"):
            draw(SplitMix64(1), 2, 1)

    @pytest.mark.parametrize("draw", [
        lambda s, lo, hi: s.randint(lo, hi),
        lambda s, lo, hi: s.randints(lo, hi, 3),
    ])
    def test_span_above_two_to_the_64(self, draw):
        # Such a span leaves no output below the rejection limit (it would
        # be 0), so a draw would never end; it fails at once instead.
        with pytest.raises(ValueError, match=f"spans {2**64 + 1} values"):
            draw(SplitMix64(1), 0, 2**64)

    @pytest.mark.parametrize("draw", [
        lambda s, lo, hi: s.randint(lo, hi),
        lambda s, lo, hi: s.randints(lo, hi, 3),
    ])
    @pytest.mark.parametrize("lo, hi", [(1, 3.5), (1.0, 3), (1, "3"), ("1", 3)])
    def test_non_integer_bounds(self, draw, lo, hi):
        # A float bound would make every draw a float; it is refused.
        with pytest.raises(TypeError):
            draw(SplitMix64(1), lo, hi)

    def test_error_leaves_the_stream(self):
        stream = SplitMix64(3)
        with pytest.raises(ValueError):
            stream.randints(0, 2**64, 10)
        assert stream.next_u64() == SplitMix64(3).next_u64()
