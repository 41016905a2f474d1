import itertools
import random
from fractions import Fraction as F

import pytest

from twostate import cumulants
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
from twostate.partitions import SizeLimitError

ZERO4 = (F(0),) * 4


def rand_rationals(rng, length):
    return tuple(F(rng.randint(-4, 4), rng.randint(1, 5)) for _ in range(length))


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

    def test_zero_count_rejected_before_scaling(self):
        whole = TwoStateElementSpec((F(0), F(1)), (F(1), F(1)))
        with pytest.raises(ValueError, match="count must be positive"):
            IncrementFamilySpec.from_whole_interval(whole, 0, F(1))

    @pytest.mark.parametrize("order", [2, 3, 8])
    def test_brownian_cumulants_match_family(self, order):
        whole = brownian_family(F(2), F(3, 2), 1, order=order, beta=F(1, 3)).whole_interval
        assert brownian_cumulants(F(2), F(3, 2), order, beta=F(1, 3)) == (whole.r_phi_psi, whole.r_psi)

    def test_brownian_cumulants_keep_the_variance_at_order_one(self):
        assert brownian_cumulants(F(1), F(2), 1) == ((F(0), F(2)), (F(2), F(2)))

    @pytest.mark.parametrize("t", [F(0), F(-1)])
    def test_brownian_cumulants_reject_non_positive_time(self, t):
        with pytest.raises(ValueError, match="total_time must be positive"):
            brownian_cumulants(F(1), t, 4)


class TestEnumerationCap:
    CALLS = {
        "moments_from_free_cumulants": lambda: moments_from_free_cumulants(ZERO4, 4),
        "free_cumulants_from_moments": lambda: free_cumulants_from_moments(ZERO4),
        "moments_from_two_state_cumulants": lambda: moments_from_two_state_cumulants(ZERO4, ZERO4, 4),
        "two_state_cumulants_from_moments": lambda: two_state_cumulants_from_moments(ZERO4, ZERO4),
        "mixed_moment": lambda: mixed_moment(brownian_family(F(1), F(1), 2, order=4), (1, 2, 2, 1), "phi"),
    }

    @pytest.mark.parametrize("name", sorted(CALLS))
    def test_checked_before_any_table_is_built(self, name, monkeypatch):
        built = []
        monkeypatch.setattr(cumulants, "_nc_table", lambda n: built.append(n) or ())
        monkeypatch.setenv("FREEPROB_MAX_N", "3")
        with pytest.raises(SizeLimitError, match="^n=4 exceeds the enumeration cap 3$"):
            self.CALLS[name]()
        assert built == []
