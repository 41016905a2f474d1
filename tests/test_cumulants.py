import functools
import itertools
import random
import time
import tracemalloc
from fractions import Fraction as F

import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

from twostate import cumulants, partitions
from twostate.cumulants import (
    IncrementFamilySpec,
    TwoStateElementSpec,
    brownian_cumulants,
    brownian_family,
    cumulant_dilate,
    cumulant_free_add,
    free_cumulants_from_moments,
    mixed_moment,
    moments_from_free_cumulants,
    moments_from_two_state_cumulants,
    two_state_cumulants_from_moments,
)

ZERO4 = (F(0),) * 4


def rand_rationals(rng, length):
    return tuple(F(rng.randint(-4, 4), rng.randint(1, 5)) for _ in range(length))


# sequences of up to 24 rationals with unrelated denominators, so the common
# denominator the series transforms grade by grows large
dense = st.fractions(-9, 9, max_denominator=999)
dense_sequences = st.lists(dense, max_size=24).map(tuple)
# the inverse direction first: order 16 keeps the inverse well under a second,
# where near TRANSFORM_ORDER_CAP it takes tens of seconds
dense_moments = st.lists(dense, max_size=16).map(tuple)


class TestFreeTransform:
    def test_shifted_semicircle(self):
        assert moments_from_free_cumulants((F(1), F(1), F(0), F(0)), 4) == (1, 2, 4, 9)

    def test_zero_element(self):
        assert moments_from_free_cumulants(ZERO4, 4) == (0, 0, 0, 0)

    def test_catalan_pairings(self):
        assert moments_from_free_cumulants((F(0), F(1), F(0), F(0)), 4) == (0, 1, 0, 2)

    def test_semicircle_variance_t(self):
        t = F(3, 2)
        m = moments_from_free_cumulants((F(0), t, F(0), F(0)), 4)
        assert m == (0, t, 0, 2 * t**2)
        assert free_cumulants_from_moments(m) == (0, t, 0, 0)

    def test_inverse_of_example(self):
        assert free_cumulants_from_moments((F(1), F(2), F(4), F(9))) == (1, 1, 0, 0)

    def test_roundtrip_random(self):
        rng = random.Random(2024)
        for _ in range(25):
            c = rand_rationals(rng, 6)
            m = moments_from_free_cumulants(c, 6)
            assert free_cumulants_from_moments(m) == c

    @settings(max_examples=25, deadline=None)
    @given(dense_sequences)
    def test_roundtrip_dense(self, c):
        assert free_cumulants_from_moments(moments_from_free_cumulants(c, len(c))) == c

    @settings(max_examples=25, deadline=None)
    @given(dense_moments)
    def test_roundtrip_dense_from_moments(self, m):
        assert moments_from_free_cumulants(free_cumulants_from_moments(m), len(m)) == m

    def test_insufficient_length(self):
        with pytest.raises(ValueError):
            moments_from_free_cumulants((F(1),), 3)


class TestTwoStateTransform:
    def test_process_moments(self):
        m = moments_from_two_state_cumulants((F(0), F(1)) + (F(0),) * 2, (F(1), F(1)) + (F(0),) * 2, 4)
        assert m == (0, 1, 1, 3)

    def test_collapses_when_states_agree(self):
        rng = random.Random(7)
        for _ in range(10):
            c = rand_rationals(rng, 8)
            assert moments_from_two_state_cumulants(c, c, 8) == moments_from_free_cumulants(c, 8)

    def test_zero_free_cumulants_leave_unnested_pairings(self):
        # only the side-by-side pairing survives at order 4: the nested one
        # carries an inner pair, killed by the zero free cumulants
        m = moments_from_two_state_cumulants((F(0), F(1), F(0), F(0)), ZERO4, 4)
        assert m == (0, 1, 0, 1)

    def test_inverse_of_example(self):
        got = two_state_cumulants_from_moments((F(0), F(1), F(1), F(3)), (F(1), F(1), F(0), F(0)))
        assert got == (0, 1, 0, 0)

    def test_roundtrip_random(self):
        rng = random.Random(99)
        for _ in range(25):
            outer = rand_rationals(rng, 6)
            inner = rand_rationals(rng, 6)
            m = moments_from_two_state_cumulants(outer, inner, 6)
            assert two_state_cumulants_from_moments(m, inner) == outer

    @settings(max_examples=25, deadline=None)
    @given(dense_sequences, st.data())
    def test_roundtrip_dense(self, outer, data):
        n = len(outer)
        inner = data.draw(st.lists(dense, min_size=n, max_size=n).map(tuple))
        m = moments_from_two_state_cumulants(outer, inner, n)
        assert two_state_cumulants_from_moments(m, inner) == outer

    @settings(max_examples=25, deadline=None)
    @given(dense_moments, st.data())
    def test_roundtrip_dense_from_moments(self, m, data):
        n = len(m)
        inner = data.draw(st.lists(dense, min_size=n, max_size=n).map(tuple))
        assert moments_from_two_state_cumulants(two_state_cumulants_from_moments(m, inner), inner, n) == m

    def test_phi_equals_psi_case(self):
        rng = random.Random(5)
        inner = rand_rationals(rng, 6)
        m = moments_from_free_cumulants(inner, 6)
        assert two_state_cumulants_from_moments(m, inner) == inner


class TestDilateAndAdd:
    def test_identity_scale(self):
        c = (F(1), F(2), F(3))
        assert cumulant_dilate(c, 1) == c

    def test_zero_scale(self):
        assert cumulant_dilate((F(1), F(2)), 0) == (0, 0)

    def test_scaling_powers(self):
        assert cumulant_dilate((F(1), F(1), F(1)), F(2)) == (2, 4, 8)

    def test_free_add_pads(self):
        assert cumulant_free_add((F(1),), (F(1), F(2))) == (2, 2)

    def test_free_add_pads_the_right_side(self):
        assert cumulant_free_add((F(1), F(2), F(3)), (F(1, 2),)) == (F(3, 2), 2, 3)

    def test_time_reversed_increment_psi(self):
        # Y(2) - Y(1): (t-s) X(1/t) plus -s X([1/t, 1/s)) at drift 1
        s, t = F(1), F(2)
        x_small = (F(1) / t, F(1) / t)  # free cumulants of X(1/t)
        x_gap = (F(1) * (1 / s - 1 / t), (1 / s - 1 / t))
        a = cumulant_dilate(x_small, t - s)
        b = cumulant_dilate(x_gap, -s)
        assert a == (F(1, 2), F(1, 2))
        assert b == (F(-1, 2), F(1, 2))
        assert cumulant_free_add(a, b) == (0, t - s)

    def test_time_reversed_increment_phi(self):
        s, t = F(1), F(2)
        x_small = (F(0), F(1) / t)  # two-state cumulants of X(1/t)
        x_gap = (F(0), 1 / s - 1 / t)
        total = cumulant_free_add(cumulant_dilate(x_small, t - s), cumulant_dilate(x_gap, -s))
        assert total == (0, t - s)

    @pytest.mark.parametrize("s,t", [(F(1), F(2)), (F(1, 2), F(1))])
    def test_reversed_increments_both_states(self, s, t):
        alpha = F(1)
        psi_small = (alpha / t, 1 / t)
        psi_gap = (alpha * (1 / s - 1 / t), 1 / s - 1 / t)
        psi_total = cumulant_free_add(cumulant_dilate(psi_small, t - s), cumulant_dilate(psi_gap, -s))
        assert psi_total == (0, t - s)
        phi_small = (F(0), 1 / t)
        phi_gap = (F(0), 1 / s - 1 / t)
        phi_total = cumulant_free_add(cumulant_dilate(phi_small, t - s), cumulant_dilate(phi_gap, -s))
        assert phi_total == (0, t - s)

    def test_time_reversal_gives_fixed_psi_law(self):
        # t * (cumulants of X(1/t)) is semicircular with mean alpha, variance t
        alpha, t = F(2), F(3)
        order = 6
        zeros = (F(0),) * (order - 2)
        x_small = (alpha / t, 1 / t) + zeros
        assert cumulant_dilate(x_small, t) == (alpha, t) + zeros


class TestMixedMoments:
    def setup_method(self):
        self.family = brownian_family(F(1), F(1), 2, order=8)

    def test_disjoint_pair_vanishes(self):
        assert mixed_moment(self.family, (1, 2), "phi") == 0

    def test_same_pair(self):
        assert mixed_moment(self.family, (1, 1), "phi") == F(1, 2)

    def test_single_letter_psi(self):
        assert mixed_moment(self.family, (1,), "psi") == F(1, 2)

    def test_empty_word(self):
        assert mixed_moment(self.family, (), "phi") == 1

    def test_index_out_of_range(self):
        with pytest.raises(ValueError):
            mixed_moment(self.family, (3,), "phi")

    def test_bad_state(self):
        with pytest.raises(ValueError):
            mixed_moment(self.family, (1,), "rho")

    @pytest.mark.parametrize("state", ["phi", "psi"])
    def test_word_longer_than_the_truncation_order(self, state):
        family = brownian_family(F(1), F(1), 2, order=4)
        with pytest.raises(ValueError, match="^need 5 terms per sequence, got 4$"):
            mixed_moment(family, (1, 2, 2, 1, 1), state)

    def test_mixed_moment_and_the_transforms_share_one_prologue(self, monkeypatch):
        graded, lengths = cumulants._graded, []

        def spy(n, seqs):
            lengths.append(n)
            return graded(n, seqs)

        monkeypatch.setattr(cumulants, "_graded", spy)
        per = self.family.per_increment
        assert mixed_moment(self.family, (), "phi") == 1
        assert mixed_moment(self.family, (1, 2, 2, 1), "psi") == _oracle_mixed_moment(self.family, (1, 2, 2, 1), "psi")
        moments_from_two_state_cumulants(per.r_phi_psi, per.r_psi, 3)
        free_cumulants_from_moments((F(1), F(2)))
        assert lengths == [0, 4, 3, 2]

    @pytest.mark.parametrize("state", ["phi", "psi"])
    @pytest.mark.parametrize("j", range(1, 7))
    def test_constant_word_is_univariate_moment(self, state, j):
        family = brownian_family(F(2), F(3, 2), 3, order=8)
        per = family.per_increment
        if state == "phi":
            expected = moments_from_two_state_cumulants(per.r_phi_psi, per.r_psi, j)[j - 1]
        else:
            expected = moments_from_free_cumulants(per.r_psi, j)[j - 1]
        assert mixed_moment(family, (2,) * j, state) == expected

    def test_solitary_boundary_index_vanishes(self):
        # any word whose first or last index appears exactly once dies on the
        # vanishing first two-state cumulant
        for count in (2, 3):
            family = brownian_family(F(1), F(1), count, order=8)
            for length in range(1, 5):
                for word in itertools.product(range(1, count + 1), repeat=length):
                    if word.count(word[0]) == 1 or word.count(word[-1]) == 1:
                        assert mixed_moment(family, word, "phi") == 0, word

    def test_exchangeability(self):
        family = brownian_family(F(1), F(2), 3, order=8)
        assert mixed_moment(family, (1, 2, 2, 1), "phi") == mixed_moment(family, (3, 1, 1, 3), "phi")

    @pytest.mark.parametrize("n", range(1, 7))
    def test_every_three_letter_word_matches_the_kernel_filtered_sum(self, n):
        # dense generic cumulants, nonzero at every order, so blocks of every
        # size and both kinds of block weight take part
        spec = TwoStateElementSpec(
            (F(2, 3), F(-5, 7), F(3, 11), F(-7, 13), F(1, 17), F(4, 19)),
            (F(-1, 2), F(3, 5), F(-2, 9), F(5, 23), F(-3, 29), F(6, 31)),
        )
        family = IncrementFamilySpec(3, spec, F(1))
        for word in itertools.product((1, 2, 3), repeat=n):
            for state in ("phi", "psi"):
                assert mixed_moment(family, word, state) == _oracle_mixed_moment(family, word, state), (word, state)

    def test_one_letter_word_builds_no_partition_list(self):
        # the enumeration this replaced held all 16,796 partitions of the
        # word at once, an 8.9 MB traced peak
        family = brownian_family(F(787, 2), F(7977, 1189), 3, order=10)
        per = family.per_increment
        before = partitions._nc_table.cache_info()
        tracemalloc.start()
        try:
            got = mixed_moment(family, (3,) * 10, "phi")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000
        assert partitions._nc_table.cache_info() == before
        assert got == moments_from_two_state_cumulants(per.r_phi_psi, per.r_psi, 10)[9]


class TestFamilySpec:
    def test_per_increment_scaling(self):
        family = brownian_family(F(1), F(1), 4, order=6)
        whole = family.whole_interval
        assert whole.r_phi_psi == (F(0), F(1), 0, 0, 0, 0)
        assert whole.r_psi == (F(1), F(1), 0, 0, 0, 0)
        assert family.per_increment.r_psi == (F(1, 4), F(1, 4), 0, 0, 0, 0)

    def test_from_whole_interval(self):
        whole = TwoStateElementSpec((F(0), F(1)), (F(1), F(1)))
        family = IncrementFamilySpec.from_whole_interval(whole, 2, F(1))
        assert family.per_increment.r_psi == (F(1, 2), F(1, 2))
        assert family.whole_interval == whole

    def test_mismatched_lengths_rejected(self):
        with pytest.raises(ValueError):
            TwoStateElementSpec((F(0),), (F(1), F(1)))

    def test_bad_count(self):
        with pytest.raises(ValueError):
            IncrementFamilySpec(0, TwoStateElementSpec((F(0),), (F(0),)), F(1))

    @pytest.mark.parametrize("build,message", [
        (lambda: IncrementFamilySpec(2, TwoStateElementSpec((F(0),), (F(0),)), F(0)), "total_time must be positive"),
        (lambda: IncrementFamilySpec(2, TwoStateElementSpec((F(0),), (F(0),)), F(-1)), "total_time must be positive"),
        (lambda: brownian_family(F(1), F(1), 2, order=1), "order must be at least 2"),
    ], ids=["zero_time", "negative_time", "order_one"])
    def test_family_inputs_rejected(self, build, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            build()

    def test_zero_count_rejected_before_scaling(self):
        whole = TwoStateElementSpec((F(0), F(1)), (F(1), F(1)))
        with pytest.raises(ValueError, match="count must be positive"):
            IncrementFamilySpec.from_whole_interval(whole, 0, F(1))

    @pytest.mark.parametrize("order", [2, 3, 8, cumulants.TRANSFORM_ORDER_CAP])
    def test_brownian_cumulants_match_family(self, order):
        whole = brownian_family(F(2), F(3, 2), 1, order=order, beta=F(1, 3)).whole_interval
        assert brownian_cumulants(F(2), F(3, 2), order, beta=F(1, 3)) == (whole.r_phi_psi, whole.r_psi)

    def test_brownian_cumulants_keep_the_variance_at_order_one(self):
        assert brownian_cumulants(F(1), F(2), 1) == ((F(0), F(2)), (F(2), F(2)))

    @pytest.mark.parametrize("t", [F(0), F(-1)])
    def test_brownian_cumulants_reject_non_positive_time(self, t):
        with pytest.raises(ValueError, match="total_time must be positive"):
            brownian_cumulants(F(1), t, 4)

    @pytest.mark.parametrize("build", [
        lambda order: brownian_cumulants(1, 1, order),
        lambda order: brownian_family(1, 1, 2, order=order),
    ], ids=["cumulants", "family"])
    def test_brownian_order_cap_checked_before_any_vector(self, build):
        # no consumer reads past the transforms' cap, so a longer vector is
        # refused before its zeros are built
        start = time.perf_counter()
        with pytest.raises(ValueError, match=f"^order {10**12} exceeds the transform order cap"):
            build(10**12)
        assert time.perf_counter() - start < 1


def _oracle_two_state_moments(outer, inner, n):
    return tuple(cumulants._two_state_sum(partitions._nc_table(j), outer, inner) for j in range(1, n + 1))


@functools.lru_cache(maxsize=None)
def _kernel_rows(pattern):
    # the _nc_table rows whose blocks are constant on a word with this
    # first-occurrence letter pattern, filtered once per pattern
    return tuple((blocks, inner_flags) for blocks, inner_flags in partitions._nc_table(len(pattern))
                 if all(pattern[x - 1] == pattern[block[0] - 1] for block in blocks for x in block))


def _oracle_mixed_moment(family, word, state):
    # the unpruned sum: every non-crossing partition, kept only when each
    # block is constant on the word
    spec = family.per_increment
    outer = spec.r_phi_psi if state == "phi" else spec.r_psi
    labels = {}
    pattern = tuple(labels.setdefault(letter, len(labels)) for letter in word)
    return cumulants._two_state_sum(_kernel_rows(pattern), outer, spec.r_psi)


def _oracle_free_moments(c, n):
    return _oracle_two_state_moments(c, c, n)


def _oracle_two_state_cumulants(m, inner):
    return cumulants._peel(m, lambda j, outer: cumulants._two_state_sum(partitions._nc_table(j), outer, inner))


def _oracle_free_cumulants(m):
    return cumulants._peel(m, lambda j, c: cumulants._two_state_sum(partitions._nc_table(j), c, c))


# One past the default enumeration cap. The oracle is compared on the first
# ORACLE_ORDER values: its sums at order 12 would add about 8 s to the suite,
# and the property tests below cover orders 1-9 on dense data.
ORDER, ORACLE_ORDER = 13, 10
OUTER, INNER = brownian_cumulants(F(1, 2), F(2, 3), ORDER, beta=F(3))


def _pad(moments):
    # arbitrary moments beyond the oracle's order, up to ORDER
    return moments + (F(1),) * (ORDER - len(moments))


# a word one letter past the order cap, on a family with as many terms
PAST_CAP = cumulants.TRANSFORM_ORDER_CAP + 1
PAST_CAP_FAMILY = IncrementFamilySpec(1, TwoStateElementSpec((F(1),) * PAST_CAP, (F(1),) * PAST_CAP), F(1))


class TestEnumerationCap:
    # mixed_moment enumerates nothing, so no enumeration cap bounds it: _graded
    # bounds its word length by the family's order, then by the order cap
    CALLS = {
        "mixed_moment": [
            (lambda: mixed_moment(PAST_CAP_FAMILY, (1,) * PAST_CAP, "phi"),
             f"^order {PAST_CAP} exceeds the transform order cap {PAST_CAP - 1}$"),
            (lambda: mixed_moment(brownian_family(F(1), F(1), 2, order=4), (1, 2, 2, 1, 2), "psi"),
             "^need 5 terms per sequence, got 4$"),
        ],
    }

    @pytest.mark.parametrize("name", sorted(CALLS))
    def test_checked_before_any_table_is_built(self, name, monkeypatch):
        built = []
        monkeypatch.setattr(cumulants, "_word_sum", lambda word, outer, inner: built.append(len(word)) or 0)
        monkeypatch.setattr(partitions, "ENUMERATION_CAP", 3)
        for call, message in self.CALLS[name]:
            with pytest.raises(ValueError, match=message):
                call()
        assert built == []
        # the spy is on the path: a word past the enumeration cap reaches it
        mixed_moment(brownian_family(F(1), F(1), 2, order=4), (1, 2, 2, 1), "phi")
        assert built == [4]

    # name: (inputs and the oracle's first ORACLE_ORDER values, the transform).
    # The inverses' oracle is _peel, which returns the cumulants themselves on
    # moments the partition sums produced from them.
    TRANSFORMS = {
        "moments_from_free_cumulants": (
            lambda: ((INNER, ORDER), _oracle_free_moments(INNER, ORACLE_ORDER)),
            moments_from_free_cumulants,
        ),
        "free_cumulants_from_moments": (
            lambda: ((_pad(_oracle_free_moments(INNER, ORACLE_ORDER)),), INNER[:ORACLE_ORDER]),
            free_cumulants_from_moments,
        ),
        "moments_from_two_state_cumulants": (
            lambda: ((OUTER, INNER, ORDER), _oracle_two_state_moments(OUTER, INNER, ORACLE_ORDER)),
            moments_from_two_state_cumulants,
        ),
        "two_state_cumulants_from_moments": (
            lambda: ((_pad(_oracle_two_state_moments(OUTER, INNER, ORACLE_ORDER)), INNER), OUTER[:ORACLE_ORDER]),
            two_state_cumulants_from_moments,
        ),
    }

    @pytest.mark.parametrize("name", sorted(TRANSFORMS))
    def test_transforms_have_no_enumeration_cap(self, name, monkeypatch):
        prepare, transform = self.TRANSFORMS[name]
        args, expected = prepare()
        monkeypatch.setattr(partitions, "_noncrossing", lambda n: pytest.fail("a transform enumerated partitions"))
        monkeypatch.setattr(partitions, "ENUMERATION_CAP", 3)
        got = transform(*args)
        assert len(got) == ORDER
        assert got[:ORACLE_ORDER] == expected

    @pytest.mark.parametrize("name", sorted(TRANSFORMS))
    def test_order_cap_checked_before_any_work(self, name, monkeypatch):
        monkeypatch.setattr(cumulants, "_free_series", lambda *args: pytest.fail("series built past the cap"))
        n = cumulants.TRANSFORM_ORDER_CAP + 1
        ones = (F(1),) * n
        args = {
            "moments_from_free_cumulants": (ones, n),
            "free_cumulants_from_moments": (ones,),
            "moments_from_two_state_cumulants": (ones, ones, n),
            "two_state_cumulants_from_moments": (ones, ones),
        }
        with pytest.raises(ValueError, match=f"^order {n} exceeds the transform order cap {n - 1}$"):
            self.TRANSFORMS[name][1](*args[name])


@st.composite
def nonzero_rationals(draw):
    # the nonzero rationals in [-5, 5] with denominator <= 99, drawn directly:
    # st.fractions builds strategies per draw, and a nonzero filter is where
    # the shrinker drives its examples (a failing run took 260 s that way)
    den = draw(st.integers(1, 99))
    num = draw(st.integers(1, 5 * den))
    return F(-num if draw(st.booleans()) else num, den)


@st.composite
def nonzero_sequences(draw, count, min_size=1, max_size=9):
    n = draw(st.integers(min_size, max_size))
    return tuple(tuple(draw(nonzero_rationals()) for _ in range(n)) for _ in range(count))


class TestSeriesMatchesPartitionOracle:
    """The series transforms against the partition sums, on dense rational data."""

    @settings(max_examples=25, deadline=None)
    @given(nonzero_sequences(1))
    def test_free_moments(self, data):
        (c,) = data
        assert moments_from_free_cumulants(c, len(c)) == _oracle_free_moments(c, len(c))

    @settings(max_examples=25, deadline=None)
    @given(nonzero_sequences(1))
    def test_free_cumulants(self, data):
        (m,) = data
        assert free_cumulants_from_moments(m) == _oracle_free_cumulants(m)

    @settings(max_examples=25, deadline=None)
    @given(nonzero_sequences(2))
    def test_two_state_moments(self, data):
        outer, inner = data
        assert moments_from_two_state_cumulants(outer, inner, len(outer)) == _oracle_two_state_moments(outer, inner, len(outer))

    @settings(max_examples=25, deadline=None)
    @given(nonzero_sequences(2))
    def test_two_state_cumulants(self, data):
        m, inner = data
        assert two_state_cumulants_from_moments(m, inner) == _oracle_two_state_cumulants(m, inner)

    # No explain phase: it only annotates a failure report, and on a mutant
    # of _word_sum it made the time to failure 191 s instead of 22 s (most of
    # it drawing examples). Search and shrink are unchanged.
    @settings(max_examples=40, deadline=None, phases=[phase for phase in Phase if phase is not Phase.explain])
    @given(data=nonzero_sequences(2, min_size=10, max_size=10), count=st.integers(1, 4), state=st.sampled_from(["phi", "psi"]),
           letters=st.lists(st.integers(0, 3), max_size=10))
    def test_kernel_pruned_mixed_moment(self, data, count, state, letters):
        # dense cumulants cover beta != 1 and families that are not Brownian
        family = IncrementFamilySpec(count, TwoStateElementSpec(*data), F(1))
        word = tuple(x % count + 1 for x in letters)
        assert mixed_moment(family, word, state) == _oracle_mixed_moment(family, word, state)
