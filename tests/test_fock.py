import itertools
import math
import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from twostate.cumulants import brownian_family, mixed_moment
from twostate.fock import (
    FockVector,
    IntervalGrid,
    OperatorExpr,
    apply_increment,
    c_t_expr,
    centered_expr,
    cond_exp_obstruction,
    elementary_tensor,
    freeness_check,
    kernel_norm_squared,
    kernel_residual,
    kernel_shift_vacuum_pairing,
    kernel_vector,
    martingale_check,
    martingale_expr,
    phi_moment_table,
    product_lemma_vector,
    psi_moment_table,
    state_phi,
    state_psi_t,
)
from twostate.spectral import JacobiParams, jacobi_to_moments


def grid12():
    return IntervalGrid(F(1), 2)


def word_expr(grid, word):
    expr = OperatorExpr.identity(grid)
    for i in word:
        expr = expr * OperatorExpr.increment(grid, i)
    return expr


def random_vector(grid, rng, max_len=3):
    coef = {}
    for _ in range(6):
        length = rng.randint(0, max_len)
        word = tuple(rng.randint(1, grid.cells) for _ in range(length))
        coef[word] = F(rng.randint(-3, 3), rng.randint(1, 4))
    return FockVector(grid, coef)


class TestIncrementAction:
    def test_vacuum_creates_only(self):
        grid = grid12()
        v = apply_increment(grid, 1, F(1), FockVector.vacuum(grid))
        assert v.coef == {(1,): 1}

    def test_disjoint_letter(self):
        grid = grid12()
        chi2 = FockVector(grid, {(2,): F(1)})
        v = apply_increment(grid, 1, F(1), chi2)
        assert v.coef == {(1, 2): 1, (2,): F(1, 2)}

    def test_matching_letter(self):
        grid = grid12()
        chi1 = FockVector(grid, {(1,): F(1)})
        v = apply_increment(grid, 1, F(1), chi1)
        assert v.coef == {(1, 1): 1, (1,): F(1, 2), (): F(1, 2)}

    def test_index_range(self):
        grid = grid12()
        with pytest.raises(ValueError):
            apply_increment(grid, 3, F(1), FockVector.vacuum(grid))

    def test_self_adjoint(self):
        grid = IntervalGrid(F(3, 2), 3)
        rng = random.Random(31)
        for _ in range(10):
            v, w = random_vector(grid, rng), random_vector(grid, rng)
            for i in (1, 2, 3):
                left = apply_increment(grid, i, F(2, 3), v).inner(w)
                right = v.inner(apply_increment(grid, i, F(2, 3), w))
                assert left == right


class TestOperatorExpr:
    @pytest.mark.parametrize("word", [(3,), (1, 3), (0, 2, 1)])
    def test_apply_rejects_out_of_range_cells(self, word):
        grid = grid12()
        with pytest.raises(ValueError, match="out of range"):
            OperatorExpr(grid, {word: F(1)}).apply(FockVector.vacuum(grid), F(1))

    def test_identity(self):
        grid = grid12()
        rng = random.Random(1)
        v = random_vector(grid, rng)
        assert OperatorExpr.identity(grid).apply(v, F(1)) == v

    def test_product_on_vacuum(self):
        grid = grid12()
        expr = OperatorExpr.increment(grid, 1) * OperatorExpr.increment(grid, 2)
        v = expr.apply(FockVector.vacuum(grid), F(1))
        assert v.coef == {(1, 2): 1, (2,): F(1, 2)}

    def test_c_t_on_vacuum(self):
        grid = grid12()
        v = c_t_expr(grid, F(1)).apply(FockVector.vacuum(grid), F(1))
        assert v.coef == {(): 1, (1,): 1, (2,): 1}

    def test_grid_mismatch(self):
        with pytest.raises(ValueError):
            OperatorExpr.identity(grid12()).apply(FockVector.vacuum(IntervalGrid(F(1), 3)), F(1))

    def test_adjoint_reverses(self):
        grid = grid12()
        expr = word_expr(grid, (1, 2)) + OperatorExpr.identity(grid).scaled(F(1, 3))
        assert expr.adjoint().terms == {(2, 1): 1, (): F(1, 3)}

    def test_adjoint_pairing(self):
        grid = IntervalGrid(F(1), 3)
        rng = random.Random(5)
        expr = word_expr(grid, (1, 3)) + word_expr(grid, (2,)).scaled(F(2))
        for _ in range(5):
            v, w = random_vector(grid, rng), random_vector(grid, rng)
            assert expr.apply(v, F(1)).inner(w) == v.inner(expr.adjoint().apply(w, F(1)))

    def test_power_matches_repeated_multiplication(self):
        grid = grid12()
        x = OperatorExpr.interval(grid, 1, 2)
        assert (x**3).terms == (x * x * x).terms

    def test_general_apply_matches_fast_path(self):
        # route the same sum-of-increments through the one-pass branch and a
        # forced word-by-word fold
        grid = IntervalGrid(F(1), 3)
        rng = random.Random(17)
        x = OperatorExpr.whole_interval(grid)
        squared = x * x  # two-letter words: slow path
        for _ in range(5):
            v = random_vector(grid, rng)
            assert squared.apply(v, F(1)) == x.apply(x.apply(v, F(1)), F(1))


class TestStates:
    def test_phi_variance(self):
        grid = grid12()
        x1 = OperatorExpr.increment(grid, 1)
        assert state_phi(x1 * x1, F(1)) == F(1, 2)

    def test_psi_mean(self):
        grid = grid12()
        assert state_psi_t(OperatorExpr.increment(grid, 1), F(1)) == F(1, 2)

    def test_psi_of_identity(self):
        grid = grid12()
        assert state_psi_t(OperatorExpr.identity(grid), F(1)) == 1

    def test_psi_positive_on_squares(self):
        rng = random.Random(23)
        grid = IntervalGrid(F(1), 3)  # alpha^2 T = 1 boundary keeps psi a state
        for _ in range(12):
            expr = OperatorExpr(grid, {})
            for _ in range(4):
                word = tuple(rng.randint(1, 3) for _ in range(rng.randint(0, 3)))
                expr = expr + OperatorExpr(grid, {word: F(rng.randint(-2, 2), rng.randint(1, 3))})
            assert state_psi_t(expr.adjoint() * expr, F(1)) >= 0

    def test_moment_tables_match_direct_power(self):
        grid = IntervalGrid(F(1, 2), 3)
        x = OperatorExpr.whole_interval(grid)
        alpha = F(2)
        phi = phi_moment_table(grid, alpha, 5)
        psi = psi_moment_table(grid, alpha, 5)
        for n in range(1, 6):
            assert phi[n - 1] == state_phi(x**n, alpha)
            assert psi[n - 1] == state_psi_t(x**n, alpha)

    @pytest.mark.parametrize("alpha,t", [(F(0), F(1)), (F(1), F(1)), (F(2), F(1, 2))])
    def test_refinement_invariance(self, alpha, t):
        tables = [phi_moment_table(IntervalGrid(t, n), alpha, 8) for n in (1, 2, 4, 8)]
        assert all(tab == tables[0] for tab in tables)
        psi_tables = [psi_moment_table(IntervalGrid(t, n), alpha, 8) for n in (1, 2, 4)]
        assert all(tab == psi_tables[0] for tab in psi_tables)

    def test_refinement_invariance_of_subinterval_polynomials(self):
        # X over [0, 1/2) as one cell of a 2-grid or two cells of a 4-grid
        alpha = F(1)
        coarse = IntervalGrid(F(1), 2)
        fine = IntervalGrid(F(1), 4)
        for power in (1, 2, 3, 4):
            a = state_phi(OperatorExpr.interval(coarse, 1, 1) ** power, alpha)
            b = state_phi(OperatorExpr.interval(fine, 1, 2) ** power, alpha)
            assert a == b

    @pytest.mark.parametrize("count", [1, 2, 3])
    def test_mixed_moments_agree_with_cumulant_engine(self, count):
        alpha, t = F(1), F(1)
        grid = IntervalGrid(t, count)
        family = brownian_family(alpha, t, count, order=8)
        for length in range(1, 5):
            for word in itertools.product(range(1, count + 1), repeat=length):
                expr = word_expr(grid, word)
                assert mixed_moment(family, word, "phi") == state_phi(expr, alpha), word
                assert mixed_moment(family, word, "psi") == state_psi_t(expr, alpha), word

    def test_word_length_five_exhaustive(self):
        alpha, t = F(2), F(1, 2)
        grid = IntervalGrid(t, 3)
        family = brownian_family(alpha, t, 3, order=8)
        for word in itertools.product((1, 2, 3), repeat=5):
            assert mixed_moment(family, word, "phi") == state_phi(word_expr(grid, word), alpha)
            assert mixed_moment(family, word, "psi") == state_psi_t(word_expr(grid, word), alpha)


class TestProductLemma:
    def test_two_intervals_degree_one(self):
        grid = grid12()
        groups = [((1, 1), 1), ((2, 2), 1)]
        assert product_lemma_vector(grid, F(1), groups).coef == {(1, 2): 1}

    def test_single_interval_degree_two(self):
        grid = IntervalGrid(F(1), 1)
        v = product_lemma_vector(grid, F(1), [((1, 1), 2)])
        assert v.coef == {(1, 1): 1}

    def test_degenerate_degree_zero(self):
        grid = IntervalGrid(F(1), 1)
        assert product_lemma_vector(grid, F(1), [((1, 1), 0)]).coef == {(): 1}

    def test_overlap_rejected(self):
        grid = IntervalGrid(F(1), 4)
        with pytest.raises(ValueError):
            product_lemma_vector(grid, F(1), [((1, 2), 1), ((2, 3), 1)])

    def test_mixed_zero_degree_rejected(self):
        # P_1 Q_0 would hit the bare vacuum, where the centered factor picks
        # up a drift term the tensor identity does not allow
        grid = IntervalGrid(F(1), 2)
        with pytest.raises(ValueError, match="all positive or all zero"):
            product_lemma_vector(grid, F(1), [((1, 1), 1), ((2, 2), 0)])

    def test_nonconsecutive_may_repeat(self):
        grid = IntervalGrid(F(1), 4)
        groups = [((1, 1), 1), ((2, 2), 1), ((1, 1), 1)]
        v = product_lemma_vector(grid, F(1), groups)
        assert v == elementary_tensor(grid, groups)

    @pytest.mark.parametrize("cells", [2, 3, 4])
    def test_exhaustive_small_groups(self, cells):
        alpha = F(1)
        grid = IntervalGrid(F(1), cells)
        intervals = [
            (lo, hi) for lo in range(1, cells + 1) for hi in range(lo, cells + 1)
        ]
        for n_groups in (1, 2, 3):
            for combo in itertools.product(intervals, repeat=n_groups):
                if any(
                    not (a[1] < b[0] or b[1] < a[0]) for a, b in zip(combo, combo[1:])
                ):
                    continue
                for degrees in itertools.product((1, 2), repeat=n_groups):
                    groups = list(zip(combo, degrees))
                    got = product_lemma_vector(grid, alpha, groups)
                    want = elementary_tensor(grid, groups)
                    assert got == want, groups
                    assert all(c == 1 for c in want.coef.values())

    def test_phi_of_product_vanishes(self):
        grid = IntervalGrid(F(1), 4)
        groups = [((1, 2), 2), ((3, 4), 1)]
        assert product_lemma_vector(grid, F(2), groups).vacuum_coefficient() == 0


class TestFreeness:
    def centered(self, grid, alpha, cell, degree):
        raw = OperatorExpr.increment(grid, cell) ** degree
        return raw - OperatorExpr.identity(grid).scaled(state_psi_t(raw, alpha))

    def test_spec_pair(self):
        grid = grid12()
        alpha = F(1)
        f1 = OperatorExpr.increment(grid, 1) - OperatorExpr.identity(grid).scaled(F(1, 2))
        f2 = OperatorExpr.increment(grid, 2) - OperatorExpr.identity(grid).scaled(F(1, 2))
        report = freeness_check(grid, alpha, [f1, f2])
        assert report.psi_of_product == 0
        assert report.phi_of_product == F(1, 4)
        assert report.phi_factors == (F(-1, 2), F(-1, 2))
        assert report.ok

    def test_single_factor(self):
        grid = grid12()
        f1 = self.centered(grid, F(1), 1, 2)
        assert freeness_check(grid, F(1), [f1]).ok

    def test_three_factor_alternation(self):
        grid = grid12()
        alpha = F(1)
        factors = [
            self.centered(grid, alpha, 1, 1),
            self.centered(grid, alpha, 2, 2),
            self.centered(grid, alpha, 1, 1),
        ]
        report = freeness_check(grid, alpha, factors)
        assert report.ok

    def test_uncentered_rejected(self):
        grid = grid12()
        with pytest.raises(ValueError, match="centered"):
            freeness_check(grid, F(1), [OperatorExpr.increment(grid, 1)])

    def test_consecutive_same_increment_rejected(self):
        grid = grid12()
        f = self.centered(grid, F(1), 1, 1)
        with pytest.raises(ValueError, match="consecutive"):
            freeness_check(grid, F(1), [f, f])

    def test_multi_increment_factor_rejected(self):
        grid = grid12()
        mixed = OperatorExpr.increment(grid, 1) + OperatorExpr.increment(grid, 2)
        centered = mixed - OperatorExpr.identity(grid).scaled(state_psi_t(mixed, F(1)))
        with pytest.raises(ValueError, match="single"):
            freeness_check(grid, F(1), [centered])

    @pytest.mark.parametrize("count", [2, 3])
    def test_exhaustive_alternating_words(self, count):
        alpha, t = F(1), F(1)
        grid = IntervalGrid(t, count)
        cache = {}

        def factor(cell, degree):
            if (cell, degree) not in cache:
                cache[(cell, degree)] = self.centered(grid, alpha, cell, degree)
            return cache[(cell, degree)]

        def walk(seq):
            if seq:
                report = freeness_check(grid, alpha, [factor(c, d) for c, d in seq])
                assert report.ok, seq
            if len(seq) == 4:
                return
            for cell in range(1, count + 1):
                if seq and seq[-1][0] == cell:
                    continue
                for degree in (1, 2):
                    walk(seq + [(cell, degree)])

        walk([])


class TestMartingale:
    def test_spec_example(self):
        grid = grid12()
        past = OperatorExpr.increment(grid, 1) ** 2
        assert martingale_check(grid, F(1), 2, 1, 2, past) == (F(1, 4), F(1, 4))

    def test_trivial_past_positive_degree(self):
        grid = grid12()
        one = OperatorExpr.identity(grid)
        for n in (1, 2, 3):
            assert martingale_check(grid, F(1), n, 1, 2, one) == (0, 0)

    def test_degree_zero(self):
        grid = grid12()
        one = OperatorExpr.identity(grid)
        assert martingale_check(grid, F(1), 0, 1, 2, one) == (1, 1)

    def test_future_support_rejected(self):
        grid = IntervalGrid(F(1), 3)
        with pytest.raises(ValueError):
            martingale_check(grid, F(1), 1, 1, 3, OperatorExpr.increment(grid, 2))

    def test_martingale_expr_is_orthogonal_polynomial(self):
        # q_n applied to the vacuum is the pure tensor, so phi[q_n] = 0
        grid = IntervalGrid(F(1), 4)
        for n in (1, 2, 3, 4):
            expr = martingale_expr(grid, 3, n, F(2))
            v = expr.apply(FockVector.vacuum(grid), F(2))
            assert v == elementary_tensor(grid, [((1, 3), n)])

    @pytest.mark.parametrize("alpha", [F(0), F(1), F(1, 2)])
    def test_grid_of_pairs(self, alpha):
        grid = IntervalGrid(F(1), 4)
        x_t = OperatorExpr.interval(grid, 1, 1)
        pasts = [OperatorExpr.identity(grid), x_t, x_t * x_t]
        for t_cells, s_cells in [(1, 2), (1, 4), (2, 3)]:
            for n in range(0, 6):
                for past in pasts:
                    lhs, rhs = martingale_check(grid, alpha, n, t_cells, s_cells, past)
                    assert lhs == rhs


class TestConditionalExpectation:
    def test_identity_past(self):
        grid = IntervalGrid(F(1), 4)
        lhs, rhs = cond_exp_obstruction(grid, F(1), 2, 4, OperatorExpr.identity(grid))
        assert lhs == rhs == F(1, 2)

    @pytest.mark.parametrize("alpha", [F(0), F(1), F(2)])
    def test_powers_of_past(self, alpha):
        grid = IntervalGrid(F(1), 4)
        x_t = OperatorExpr.interval(grid, 1, 2)
        for past in [OperatorExpr.identity(grid), x_t, x_t * x_t]:
            lhs, rhs = cond_exp_obstruction(grid, alpha, 2, 4, past)
            assert lhs == rhs

    def test_obstruction_is_nonzero(self):
        # the target differs from X(t)^2 by alpha (s - t) X(t), whose pairing
        # against B = X(t) is alpha (s - t) t != 0
        grid = IntervalGrid(F(1), 4)
        alpha, t_cells, s_cells = F(1), 2, 4
        x_t = OperatorExpr.interval(grid, 1, t_cells)
        t = grid.cell_length * t_cells
        s = grid.cell_length * s_cells
        correction = state_phi(x_t * x_t, alpha) * alpha * (s - t)
        assert correction != 0
        lhs, _ = cond_exp_obstruction(grid, alpha, t_cells, s_cells, x_t)
        plain = state_phi(x_t.adjoint() * x_t * x_t, alpha)
        assert lhs == plain + correction
        assert lhs != plain


class TestKernel:
    def test_partial_norms_approach_geometric_sum(self):
        # alpha = 1, t = 4: the squared norms converge to 4/3
        values = [kernel_norm_squared(F(1), F(4), d) for d in (4, 8, 16)]
        target = F(4, 3)
        assert values[0] < values[1] < values[2] < target
        assert target - values[2] < F(1, 10**8)

    def test_residual_halves(self):
        residuals = [kernel_residual(F(1), F(4), d) for d in range(6, 13)]
        for a, b in zip(residuals, residuals[1:]):
            assert 0.45 <= b / a <= 0.55
        assert residuals[4] < 1e-2  # depth 10

    def test_small_time_residual_does_not_decay(self):
        # below the critical time the candidate stays far from the kernel:
        # the residual tends to sqrt(3)/2 from above instead of to zero
        residuals = [kernel_residual(F(1), F(1, 2), d) for d in range(6, 13)]
        assert all(r > 0.86 for r in residuals)
        assert all(0.99 < b / a <= 1.0 for a, b in zip(residuals, residuals[1:]))
        limit = (3 / 4) ** 0.5
        assert residuals[-1] == pytest.approx(limit, abs=1e-3)

    def test_kernel_vector_is_geometric(self):
        grid = IntervalGrid(F(4), 1)
        eta = kernel_vector(grid, F(1), 3)
        assert eta.coef == {(): 1, (1,): F(-1, 4), (1, 1): F(1, 16), (1, 1, 1): F(-1, 64)}

    def test_needs_single_cell(self):
        with pytest.raises(ValueError):
            kernel_vector(IntervalGrid(F(4), 2), F(1), 3)

    @pytest.mark.parametrize("depth", [1, 3, 6])
    def test_shifted_kernel_orthogonal_to_vacuum(self, depth):
        assert kernel_shift_vacuum_pairing(F(1), F(4), 1, 2, depth) == 0
        assert kernel_shift_vacuum_pairing(F(1), F(4), 2, 4, depth) == 0


class TestSerialization:
    def test_vector_json_roundtrip(self):
        grid = grid12()
        v = FockVector(grid, {(): F(1), (1, 2): F(-3, 4)})
        data = v.to_json()
        assert data == [
            {"word": [], "coef": "1"},
            {"word": [1, 2], "coef": "-3/4"},
        ]
        assert FockVector.from_json(grid, data) == v


class TestRightToLeftMatchesExpandedProduct:
    """The checks apply their factors to a vector right to left.

    Each value must equal the state of the expanded OperatorExpr product built
    by __mul__. Both sides are the Fock route, so this pins the evaluation
    order inside that route; it is not an oracle between routes.
    """

    grid = IntervalGrid(F(9967, 9931), 3)
    alpha = F(-9973, 9998)

    def past(self):
        # a non-palindromic word, so a wrong adjoint or order shows
        x1, x2 = OperatorExpr.increment(self.grid, 1), OperatorExpr.increment(self.grid, 2)
        return x1 * x2 * x2 - x1.scaled(F(4999, 9973)) + F(-9871, 9901)

    @pytest.mark.parametrize("degree", [0, 1, 2, 3, 4])
    def test_martingale_check(self, degree):
        b_star = self.past().adjoint()
        expected = tuple(
            state_phi(b_star * martingale_expr(self.grid, cells, degree, self.alpha), self.alpha) for cells in (3, 2)
        )
        assert martingale_check(self.grid, self.alpha, degree, 2, 3, self.past()) == expected

    def test_cond_exp_obstruction(self):
        b_star = self.past().adjoint()
        x_s, x_t = OperatorExpr.interval(self.grid, 1, 3), OperatorExpr.interval(self.grid, 1, 2)
        shift = self.alpha * self.grid.cell_length
        expected = (
            state_phi(b_star * x_s * x_t, self.alpha),
            state_phi(b_star * (x_t * x_t + x_t.scaled(shift)), self.alpha),
        )
        assert cond_exp_obstruction(self.grid, self.alpha, 2, 3, self.past()) == expected

    def test_freeness_check(self):
        factors = []
        for cell, degree in [(1, 1), (2, 2), (3, 1), (1, 2)]:
            raw = OperatorExpr.increment(self.grid, cell) ** degree + OperatorExpr.increment(self.grid, cell).scaled(F(9901, 97))
            factors.append(raw - state_psi_t(raw, self.alpha))
        product = factors[0] * factors[1] * factors[2] * factors[3]
        report = freeness_check(self.grid, self.alpha, factors)
        assert report.psi_of_product == state_psi_t(product, self.alpha)
        assert report.phi_of_product == state_phi(product, self.alpha)
        assert report.phi_of_product != 0

    @pytest.mark.parametrize(
        "groups",
        [[((2, 3), 2), ((1, 1), 1)], [((2, 2), 1), ((3, 3), 2), ((1, 2), 2)], [((1, 3), 3)]],
    )
    def test_product_lemma_vector(self, groups):
        expr = OperatorExpr.identity(self.grid)
        for (lo, hi), degree in groups[:-1]:
            expr = expr * centered_expr(self.grid, lo, hi, degree, self.alpha)
        (_, hi), degree = groups[-1]
        expr = expr * martingale_expr(self.grid, hi, degree, self.alpha)
        expected = expr.apply(FockVector.vacuum(self.grid), self.alpha)
        assert product_lemma_vector(self.grid, self.alpha, groups) == expected


alphas = st.fractions(-5, 5, max_denominator=9999)
times = st.fractions(F(1, 9999), 5, max_denominator=9999)


class TestProperties:
    @settings(max_examples=20, deadline=None)
    @given(alpha=alphas, t=times, cells=st.integers(1, 4), degree=st.integers(1, 8))
    def test_moment_tables_match_jacobi_closed_forms(self, alpha, t, cells, degree):
        # Fock route against the spectral route: nu has beta_k = alpha T and
        # gamma_k = T; mu differs only in beta_0 = 0
        depth = degree // 2 + 1
        nu = JacobiParams((alpha * t,) * depth, (t,) * depth)
        mu = JacobiParams((F(0),) + (alpha * t,) * (depth - 1), (t,) * depth)
        grid = IntervalGrid(t, cells)
        assert phi_moment_table(grid, alpha, degree) == jacobi_to_moments(mu, degree)
        assert psi_moment_table(grid, alpha, degree) == jacobi_to_moments(nu, degree)

    @settings(max_examples=20, deadline=None)
    @given(alpha=alphas, t=times, seed=st.integers(0, 2**32))
    def test_apply_reads_out_reduced_fractions(self, alpha, t, seed):
        grid = IntervalGrid(t, 3)
        rng = random.Random(seed)

        def rational():
            return F(rng.randint(-9999, 9999), rng.randint(1, 9999))

        v = FockVector(grid, {tuple(rng.randint(1, 3) for _ in range(rng.randint(0, 3))): rational() for _ in range(5)})
        expr = OperatorExpr(grid, {tuple(rng.randint(1, 3) for _ in range(rng.randint(0, 3))): rational() for _ in range(4)})
        for out in (expr.apply(v, alpha), apply_increment(grid, rng.randint(1, 3), alpha, v)):
            for c in out.coef.values():
                assert type(c) is F and c != 0
                assert c.denominator > 0 and math.gcd(c.numerator, c.denominator) == 1
