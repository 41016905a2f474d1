import itertools
import math
import random

import pytest

from twostate import partitions
from twostate.partitions import (
    SetPartition,
    SizeLimitError,
    adjacent_pairing,
    classify_blocks,
    enumerate_nc,
    enumerate_set_partitions,
    is_noncrossing,
    join,
    refines,
    stirling2,
)
from twostate.partitions import _nc_table
from twostate.variations import _lemma_shapes

BELL = [1, 1, 2, 5, 15, 52, 203, 877, 4140, 21147, 115975]
CATALAN = [1, 1, 2, 5, 14, 42, 132, 429, 1430, 4862, 16796]


def oracle_partitions(n):
    """Independent enumerator: all ways to assign labels, canonicalized."""
    found = set()
    for labels in itertools.product(range(n), repeat=n):
        blocks = {}
        for pos, lab in enumerate(labels, start=1):
            blocks.setdefault(lab, []).append(pos)
        found.add(tuple(sorted(tuple(b) for b in blocks.values())))
    return found


def oracle_is_noncrossing(p):
    """Naive quadruple scan straight from the crossing definition."""
    owner = p.block_map()
    for x1, y1, x2, y2 in itertools.combinations(range(1, p.n + 1), 4):
        if owner[x1] == owner[x2] and owner[y1] == owner[y2] and owner[x1] != owner[y1]:
            return False
    return True


def part(*blocks):
    n = max(x for b in blocks for x in b)
    return SetPartition.from_blocks(n, blocks)


class TestEnumeration:
    @pytest.mark.parametrize("n", range(1, 7))
    def test_matches_oracle(self, n):
        ours = enumerate_set_partitions(n)
        assert len(ours) == BELL[n]
        assert {p.blocks for p in ours} == oracle_partitions(n)

    def test_n1(self):
        assert enumerate_set_partitions(1) == [SetPartition(1, ((1,),))]

    def test_counts(self):
        assert len(enumerate_set_partitions(3)) == 5
        assert len(enumerate_set_partitions(4)) == 15

    def test_rgs_order_starts_at_top(self):
        ordered = enumerate_set_partitions(3)
        assert ordered[0] == part((1, 2, 3))
        assert ordered[-1] == part((1,), (2,), (3,))

    def test_deterministic(self):
        assert enumerate_set_partitions(5) == enumerate_set_partitions(5)

    def test_cap(self):
        with pytest.raises(SizeLimitError, match="12"):
            enumerate_set_partitions(13)

    def test_cap_override(self, monkeypatch):
        monkeypatch.setattr(partitions, "ENUMERATION_CAP", 3)
        with pytest.raises(SizeLimitError, match="3"):
            enumerate_set_partitions(4)
        assert len(enumerate_set_partitions(3)) == 5


class TestNonCrossing:
    def test_canonical_crossing(self):
        assert not is_noncrossing(part((1, 3), (2, 4)))

    def test_nested_pairing(self):
        assert is_noncrossing(part((1, 4), (2, 3)))

    def test_singletons_never_cross(self):
        assert is_noncrossing(part((1, 3), (2,), (4,)))

    @pytest.mark.parametrize("n", range(1, 8))
    def test_matches_naive_scan(self, n):
        for p in enumerate_set_partitions(n):
            assert is_noncrossing(p) == oracle_is_noncrossing(p)

    @pytest.mark.parametrize("n", range(1, 9))
    def test_nc_count_is_catalan(self, n):
        ncs = enumerate_nc(n)
        assert len(ncs) == CATALAN[n]
        assert all(is_noncrossing(p) for p in ncs)

    @pytest.mark.parametrize("n", range(1, 11))
    def test_generator_matches_bell_filter(self, n):
        # same blocks, same order, same inner flags as filtering every set
        # partition through the crossing test and the classifier
        reference = []
        for p in enumerate_set_partitions(n):
            if is_noncrossing(p):
                cls = classify_blocks(p)
                reference.append((p.blocks, tuple(i in cls.inner for i in range(p.size))))
        assert list(_nc_table(n)) == reference
        assert [p.blocks for p in enumerate_nc(n)] == [blocks for blocks, _ in reference]

    @pytest.mark.parametrize("n", range(1, 7))
    def test_word_keeps_exactly_the_kernel_refinements(self, n):
        # every word over three letters: the table's entries whose blocks are
        # constant on the word, the filter the mixed-moment oracle sums over,
        # are the non-crossing partitions finer than the word's kernel, in order
        for word in itertools.product("abc", repeat=n):
            kernel = SetPartition.from_blocks(
                n, [[x for x in range(1, n + 1) if word[x - 1] == letter] for letter in set(word)])
            kept = [blocks for blocks, _ in _nc_table(n)
                    if all(word[x - 1] == word[b[0] - 1] for b in blocks for x in b)]
            assert kept == [p.blocks for p in enumerate_nc(n) if refines(p, kernel)]

    @pytest.mark.parametrize("n", range(1, 11))
    def test_pairs_singletons_route_agrees_with_filter(self, n):
        direct = {p.blocks for p in enumerate_nc(n, pairs_and_singletons=True)}
        filtered = {
            p.blocks
            for p in enumerate_nc(n)
            if all(len(b) <= 2 for b in p.blocks)
        }
        assert direct == filtered

    def test_flags_survivors_at_n4(self):
        # the lemma sum keeps ((1,4),(2,3)) and ((1,4),(2),(3)) at n = 2: keys
        # (join size, blocks, singletons, inner free pairs, inner tau pairs)
        assert _lemma_shapes(2) == (((1, 2, 0, 1, 0), 1), ((1, 3, 2, 0, 0), 1))

    def test_pairs_singletons_n2(self):
        got = enumerate_nc(2, pairs_and_singletons=True)
        assert {p.blocks for p in got} == {((1, 2),), ((1,), (2,))}

    def test_lemma_shapes_reject_n_below_one(self):
        for n in (0, -1):
            with pytest.raises(ValueError, match="n must be positive"):
                _lemma_shapes(n)


class TestClassification:
    def test_nested_pair(self):
        p = part((1, 4), (2, 3))
        cls = classify_blocks(p)
        assert cls.outer == {p.blocks.index((1, 4))}
        assert cls.inner == {p.blocks.index((2, 3))}

    def test_inner_singletons(self):
        p = part((1, 4), (2,), (3,))
        cls = classify_blocks(p)
        assert cls.outer == {0}
        assert cls.inner == {1, 2}
        assert cls.singletons == {1, 2}

    def test_side_by_side(self):
        cls = classify_blocks(part((1, 2), (3, 4)))
        assert cls.outer == {0, 1}
        assert not cls.inner

    def test_lone_singletons_are_outer(self):
        cls = classify_blocks(part((1,), (2,), (3,)))
        assert cls.outer == {0, 1, 2}

    def test_crossing_rejected(self):
        with pytest.raises(ValueError):
            classify_blocks(part((1, 3), (2, 4)))

    @pytest.mark.parametrize("n", range(1, 8))
    def test_partition_of_blocks(self, n):
        for p in enumerate_nc(n):
            cls = classify_blocks(p)
            assert cls.inner | cls.outer == set(range(p.size))
            assert not cls.inner & cls.outer
            assert cls.singletons == {i for i, b in enumerate(p.blocks) if len(b) == 1}


class TestLattice:
    def test_paper_join_example(self):
        sigma = part((1, 6), (2, 5), (3, 4))
        tau = adjacent_pairing(3)
        assert join(sigma, tau) == part((1, 2, 5, 6), (3, 4))

    def test_join_example(self):
        sigma = part((1, 4), (2, 3))
        tau = adjacent_pairing(2)
        assert join(sigma, tau) == part((1, 2, 3, 4))

    def test_mismatched_sizes(self):
        with pytest.raises(ValueError):
            join(part((1,), (2,), (3,)), part((1,), (2,), (3,), (4,)))

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_join_is_least_upper_bound_exhaustive(self, n):
        everything = enumerate_set_partitions(n)
        for p, q in itertools.product(everything, repeat=2):
            j = join(p, q)
            assert refines(p, j) and refines(q, j)
            for r in everything:
                if refines(p, r) and refines(q, r):
                    assert refines(j, r)

    @pytest.mark.parametrize("n", [5, 6, 7])
    def test_join_is_least_upper_bound_sampled(self, n):
        rng = random.Random(7 * n)
        everything = enumerate_set_partitions(n)
        for _ in range(60):
            p, q = rng.choice(everything), rng.choice(everything)
            j = join(p, q)
            assert refines(p, j) and refines(q, j)
            for r in everything:
                if refines(p, r) and refines(q, r):
                    assert refines(j, r)


class TestCounting:
    def test_stirling_example(self):
        two_block = [p for p in enumerate_set_partitions(4) if p.size == 2]
        assert stirling2(4, 2) == len(two_block) == 7

    @pytest.mark.parametrize("n", range(1, 11))
    def test_stirling_sums_to_bell(self, n):
        assert sum(stirling2(n, k) for k in range(n + 1)) == len(enumerate_set_partitions(n))

    # The lemma sum weights a partition sigma by N^|join(sigma, tau)|: the sum
    # over pi >= base of N_(|pi|) counts all label assignments constant on
    # base blocks, which is N^(number of blocks).
    @staticmethod
    def coarser_weight(base, big_n):
        return sum(math.perm(big_n, p.size) for p in enumerate_set_partitions(base.n) if refines(base, p))

    def test_coarser_weight_single_block(self):
        assert self.coarser_weight(part((1, 2)), 4) == 4

    @pytest.mark.parametrize("n_blocks,big_n", list(itertools.product(range(1, 7), [1, 2, 3, 5])))
    def test_coarser_weight_is_power(self, n_blocks, big_n):
        base = SetPartition.from_blocks(n_blocks, [(i,) for i in range(1, n_blocks + 1)])
        assert self.coarser_weight(base, big_n) == big_n**n_blocks

    def test_coarser_weight_by_enumeration(self):
        assert self.coarser_weight(part((1, 2), (3,), (4,)), 3) == 3**3

    def test_stirling_root_near_cap(self):
        total = sum(stirling2(40, k) for k in (1, 2, 3))
        root = total ** (1 / 40)
        assert abs(root - 3) <= 0.15

    @pytest.mark.parametrize("n,big_n", [(8, 2), (12, 3), (12, 4), (40, 4)])
    def test_stirling_sandwich_when_divisible(self, n, big_n):
        import math

        lower = math.factorial(n) // (math.factorial(big_n) * math.factorial(n // big_n) ** big_n)
        partial = sum(stirling2(n, k) for k in range(1, big_n + 1))
        assert lower <= stirling2(n, big_n) <= partial <= big_n**n


class TestSerialization:
    def test_validation(self):
        with pytest.raises(ValueError):
            SetPartition.from_blocks(3, [(1, 2)])
        with pytest.raises(ValueError):
            SetPartition.from_blocks(3, [(1, 2), (2, 3)])

    @pytest.mark.parametrize("call,message", [
        (lambda: SetPartition.from_blocks(2, [(1, 2), ()]), "empty block"),
        (lambda: SetPartition.from_blocks(0, [()]), "empty block"),
        (lambda: enumerate_set_partitions(0), "n must be positive"),
        (lambda: enumerate_nc(0), "n must be positive"),
        (lambda: stirling2(-1, 0), "arguments must be nonnegative"),
        (lambda: refines(part((1,), (2,)), part((1, 2, 3))), "size mismatch"),
    ], ids=["empty_block", "only_an_empty_block", "set_partitions_of_0", "nc_of_0", "stirling_negative", "refines_sizes"])
    def test_malformed_input_rejected(self, call, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            call()
