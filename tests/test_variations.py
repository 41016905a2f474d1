from fractions import Fraction as F

import pytest

from twostate.cumulants import TwoStateElementSpec, IncrementFamilySpec, brownian_family
from twostate.fock import FockVector, IntervalGrid, OperatorExpr, state_psi_t
from twostate.variations import (
    centered_power_moment,
    centered_qv_moment,
    norm_2n_table,
    psi_variation,
    sandwich_variation,
    variation_second_moment,
)


def fock_power_moment(alpha, t, count, k, power, center):
    """Independent oracle: phi[(sum_i X_i^k - center)^power] via the operator model."""
    grid = IntervalGrid(t, count)
    acc = OperatorExpr.identity(grid).scaled(-F(center))
    for i in range(1, count + 1):
        acc = acc + OperatorExpr.increment(grid, i) ** k
    total = acc**power
    return total.apply(FockVector.vacuum(grid), alpha).vacuum_coefficient()


class TestSecondMoment:
    def test_first_power_is_exact_at_every_count(self):
        for count in (1, 2, 4, 8):
            report = variation_second_moment(brownian_family(F(1), F(1), count), 1)
            assert report.value == report.predicted_limit == 1
            assert report.gap == 0

    def test_quadratic_value(self):
        # T^2 + beta T^2/N + alpha^2 T^3/N^2 at alpha=1, beta=1, T=1, N=2
        report = variation_second_moment(brownian_family(F(1), F(1), 2), 2)
        assert report.value == F(7, 4)
        assert report.predicted_limit == 1
        assert report.value == fock_power_moment(F(1), F(1), 2, 2, 2, 0)

    def test_cubic_decreases_to_zero_limit(self):
        values = []
        for count in (1, 2, 4, 8):
            report = variation_second_moment(brownian_family(F(1), F(1), count), 3)
            assert report.predicted_limit == 0
            values.append(report.value)
        assert all(a > b for a, b in zip(values, values[1:]))

    def test_cubic_cross_term_value(self):
        # phi[X_1^3 X_2^3] = alpha^2 T^4 / N^4 feeds the k=3 variation
        report = variation_second_moment(brownian_family(F(1), F(1), 2), 3)
        assert report.value == fock_power_moment(F(1), F(1), 2, 3, 2, 0)

    def test_order_guard(self):
        with pytest.raises(ValueError):
            variation_second_moment(brownian_family(F(1), F(1), 2, order=4), 3)

    @pytest.mark.parametrize("fn", [variation_second_moment, psi_variation, lambda f, k: centered_power_moment(f, k, 2)])
    @pytest.mark.parametrize("k", [0, -1])
    def test_non_positive_power_rejected(self, fn, k):
        with pytest.raises(ValueError, match="k must be positive"):
            fn(brownian_family(F(1), F(1), 2), k)


class TestPsiVariation:
    def test_first_power_exact(self):
        for count in (1, 2, 16):
            report = psi_variation(brownian_family(F(1), F(1), count), 1)
            assert report.value == report.predicted_limit == 1

    def test_cubic_value(self):
        report = psi_variation(brownian_family(F(1), F(1), 2), 3)
        assert report.value == F(7, 4)
        assert report.predicted_limit == 0

    def test_quadratic_gap(self):
        # value = beta T + alpha^2 T^2 / N
        for count in (2, 5):
            report = psi_variation(brownian_family(F(2), F(3), count), 2)
            assert report.predicted_limit == 3
            assert report.gap == F(4 * 9, count)

    def test_gap_times_count_bounded(self):
        for k in (3, 4):
            scaled = [
                psi_variation(brownian_family(F(1), F(1), count), k).gap * count
                for count in (2, 4, 8, 16)
            ]
            assert all(a > b for a, b in zip(scaled, scaled[1:]))
            assert all(0 < x <= F(21, 4) for x in scaled)

    def test_nonzero_third_cumulant_is_detected(self):
        # a family whose secondary law has a cubic cumulant keeps a nonzero
        # limit: the variation criterion separating true Brownian motions
        whole = TwoStateElementSpec(
            (F(0), F(1), F(0), F(0), F(0), F(0)),
            (F(0), F(1), F(2), F(0), F(0), F(0)),
        )
        family = IncrementFamilySpec.from_whole_interval(whole, 4, F(1))
        report = psi_variation(family, 3)
        assert report.predicted_limit == 2
        assert report.value != 0


GRID6 = [
    (F(1), F(1), F(1)),
    (F(1), F(2), F(1)),
    (F(0), F(1), F(2)),
    (F(2), F(1, 2), F(1, 2)),
    (F(1, 2), F(3, 2), F(2)),
    (F(-1), F(1), F(1)),
]


class TestCenteredQuadraticVariation:
    def test_first_power_vanishes(self):
        for count in (1, 3):
            family = brownian_family(F(2), F(5, 2), count)
            assert centered_qv_moment(family, 1, "bruteforce") == 0
            assert centered_qv_moment(family, 1, "lemma_sum") == 0

    def test_reference_value_beta_one(self):
        # beta T^2/N + alpha^2 T^3/N^2 = 3/4 at alpha=1, beta=1, T=1, N=2
        family = brownian_family(F(1), F(1), 2)
        assert centered_qv_moment(family, 2, "bruteforce") == F(3, 4)

    def test_reference_value_beta_two(self):
        family = brownian_family(F(1), F(1), 2, beta=2)
        assert centered_qv_moment(family, 2, "bruteforce") == F(5, 4)

    @pytest.mark.parametrize("alpha,beta,t", GRID6)
    def test_closed_form_n2(self, alpha, beta, t):
        for count in (1, 2, 3, 4):
            family = brownian_family(alpha, t, count, beta=beta)
            expected = beta * t**2 / count + alpha**2 * t**3 / count**2
            assert centered_qv_moment(family, 2, "bruteforce") == expected
            assert centered_qv_moment(family, 2, "lemma_sum") == expected

    @pytest.mark.parametrize("alpha,beta,t", GRID6)
    def test_methods_agree(self, alpha, beta, t):
        for count in (1, 2, 3, 4):
            family = brownian_family(alpha, t, count, beta=beta)
            for n in (1, 2, 3, 4):
                assert centered_qv_moment(family, n, "bruteforce") == centered_qv_moment(
                    family, n, "lemma_sum"
                ), (alpha, beta, t, count, n)

    def test_against_fock_oracle(self):
        for count in (1, 2, 3):
            family = brownian_family(F(1), F(1), count)
            for n in (2, 3):
                assert centered_qv_moment(family, n, "bruteforce") == fock_power_moment(
                    F(1), F(1), count, 2, n, F(1)
                )

    def test_lemma_reaches_higher_powers(self):
        family = brownian_family(F(1), F(1), 2)
        value = centered_qv_moment(family, 5, "lemma_sum")
        assert value > 0

    def test_rate_for_brownian_family(self):
        # beta = 1: value = T^2/N + alpha^2 T^3/N^2, so (value - T^2/N) N^2
        # is the constant alpha^2 T^3
        alpha, t = F(1), F(1)
        for count in (1, 2, 4, 8):
            family = brownian_family(alpha, t, count)
            value = centered_qv_moment(family, 2, "bruteforce")
            assert (value - t**2 / count) * count**2 == alpha**2 * t**3

    def test_non_brownian_family_rejected_by_lemma(self):
        whole = TwoStateElementSpec((F(0), F(1), F(1), F(0)), (F(1), F(1), F(0), F(0)))
        family = IncrementFamilySpec.from_whole_interval(whole, 2, F(1))
        with pytest.raises(ValueError, match="Brownian"):
            centered_qv_moment(family, 2, "lemma_sum")
        whole2 = TwoStateElementSpec((F(0), F(1), F(0), F(0)), (F(1), F(1), F(1), F(0)))
        family2 = IncrementFamilySpec.from_whole_interval(whole2, 2, F(1))
        with pytest.raises(ValueError, match="Brownian"):
            centered_qv_moment(family2, 2, "lemma_sum")

    def test_bruteforce_cap(self):
        family = brownian_family(F(1), F(1), 2, order=12)
        with pytest.raises(ValueError, match="bruteforce"):
            centered_qv_moment(family, 5, "bruteforce")

    def test_unknown_method(self):
        with pytest.raises(ValueError):
            centered_qv_moment(brownian_family(F(1), F(1), 2), 2, "guess")


class TestSandwich:
    def make_sandwiched(self, grid, quarter_cells, alpha):
        expr = OperatorExpr.interval(grid, 1, quarter_cells)
        return expr - OperatorExpr.identity(grid).scaled(state_psi_t(expr, alpha))

    def test_refinement_decreases(self):
        alpha = F(1)
        values = {}
        for count in (4, 8):
            grid = IntervalGrid(F(1), count)
            sandwiched = self.make_sandwiched(grid, count // 4, alpha)
            report = sandwich_variation(grid, alpha, sandwiched, count // 2 + 1)
            values[count] = report.value
        assert values[8] < values[4]
        assert values[8] > 0

    def test_identity_reduces_to_window_quadratic_variation(self):
        alpha = F(1)
        grid = IntervalGrid(F(1), 4)
        one = OperatorExpr.identity(grid)
        report = sandwich_variation(grid, alpha, one, 3)
        # window [1/2, 1) as its own two-cell system: centered quadratic
        # variation of a half-length Brownian family
        window = brownian_family(alpha, F(1, 2), 2)
        assert report.value == centered_qv_moment(window, 2, "bruteforce")

    def test_linearity_in_sandwiched_operator(self):
        alpha = F(1)
        grid = IntervalGrid(F(1), 4)
        a = OperatorExpr.increment(grid, 1)
        b = OperatorExpr.increment(grid, 1) ** 2

        def window_sum(expr):
            acc = OperatorExpr(grid, {})
            for i in (3, 4):
                acc = acc + OperatorExpr.increment(grid, i) * expr * OperatorExpr.increment(grid, i)
            return acc

        combined = window_sum(a + b.scaled(F(2, 3)))
        split = window_sum(a) + window_sum(b).scaled(F(2, 3))
        assert combined.terms == split.terms

    def test_support_validation(self):
        grid = IntervalGrid(F(1), 4)
        with pytest.raises(ValueError):
            sandwich_variation(grid, F(1), OperatorExpr.increment(grid, 3), 3)


class TestNormTable:
    def test_rows_nondecreasing_quadratic(self):
        family = brownian_family(F(1), F(1), 4, beta=2)
        # exact monotonicity: v_n^(n+1) <= v_(n+1)^n for the 2n-th moments
        powers = [centered_power_moment(family, 2, 2 * n) for n in (1, 2, 3)]
        for n, (a, b) in enumerate(zip(powers, powers[1:]), start=1):
            assert a ** (n + 1) <= b**n
        table = norm_2n_table(family, 2, 3)
        assert all(x <= y + 1e-12 for x, y in zip(table, table[1:]))

    def test_rows_nondecreasing_linear(self):
        family = brownian_family(F(1), F(1), 3)
        table = norm_2n_table(family, 1, 3)
        assert all(x <= y + 1e-12 for x, y in zip(table, table[1:]))

    def test_first_row_is_sqrt_of_quadratic_variation(self):
        family = brownian_family(F(1), F(1), 4)
        table = norm_2n_table(family, 2, 1)
        qv = centered_qv_moment(family, 2, "bruteforce")
        assert table[0] == pytest.approx(float(qv) ** 0.5, rel=1e-12)

    def test_cap(self):
        family = brownian_family(F(1), F(1), 2, order=16)
        with pytest.raises(ValueError):
            centered_power_moment(family, 3, 4)

    def test_cubic_power_sums_against_fock(self):
        family = brownian_family(F(1), F(1), 2)
        assert centered_power_moment(family, 3, 2) == fock_power_moment(F(1), F(1), 2, 3, 2, 0)

    @pytest.mark.parametrize("count", range(1, 7))
    def test_lower_bound_above_one(self, count):
        # beta = 2: single-partition lower bound from the Stirling count
        from twostate.partitions import stirling2

        for power in (2, 4):
            family = brownian_family(F(1), F(1), count, beta=2)
            value = centered_qv_moment(family, power, "lemma_sum")
            bound = F(sum(stirling2(power - 1, j) for j in range(1, count + 1)), count**power)
            assert value >= bound

    @pytest.mark.parametrize("count", range(1, 7))
    def test_upper_bound_beta_one(self, count):
        for power in (2, 3):
            family = brownian_family(F(1), F(1), count)
            value = centered_qv_moment(family, power, "bruteforce")
            bound = 4.0 ** (2 * power) * count ** (-power / 2) * count**count
            assert float(value) <= bound
