from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from twostate import generator
from twostate.generator import (
    generating_function_check,
    generator_apply,
    l_apply,
    mu_moment_polys,
    nu_moment_polys,
    p_polynomials,
    q_polynomials,
    time_derivative_residual,
)
from twostate.poly import BivariatePolynomial, difference_quotient
from twostate.spectral import JacobiParams, exact_moment, free_poisson_law, orthogonal_polynomials, semicircle_law

X = BivariatePolynomial.x()
T = BivariatePolynomial.t()
ONE = BivariatePolynomial.one()

ALPHAS = [F(0), F(1), F(2), F(1, 2)]


class TestPolynomialArithmetic:
    def test_mul_and_pow(self):
        p = X + T
        assert p * p == p**2 == BivariatePolynomial({(2, 0): 1, (1, 1): 2, (0, 2): 1})

    def test_derivatives(self):
        p = BivariatePolynomial({(2, 1): F(3)})
        assert p.d_dx() == BivariatePolynomial({(1, 1): 6})
        assert p.d_dt() == BivariatePolynomial({(2, 0): 3})

    def test_substitute_t(self):
        p = X * T + T**2
        assert p.substitute_t(F(2)) == BivariatePolynomial({(1, 0): 2, (0, 0): 4})

    def test_substitute_x(self):
        p = X**2
        assert p.substitute_x(X - ONE) == X**2 - 2 * X + ONE

    def test_evaluate(self):
        p = X**2 - T
        assert p.evaluate(F(3), F(2)) == 7

    def test_zero_pruning(self):
        assert (X - X).is_zero()
        assert not (X + T).is_zero()


class TestDifferenceQuotient:
    def test_square(self):
        assert difference_quotient(X**2) == {(1, 0, 0): 1, (0, 1, 0): 1}

    def test_process_quadratic(self):
        # q_2 at alpha=1: x^2 - t x - t  ->  x + y - t
        q2 = q_polynomials(2, F(1))[2]
        assert difference_quotient(q2) == {(1, 0, 0): 1, (0, 1, 0): 1, (0, 0, 1): -1}

    def test_constant(self):
        assert difference_quotient(BivariatePolynomial.constant(5)) == {}

    def test_cubic(self):
        assert difference_quotient(X**3) == {(2, 0, 0): 1, (1, 1, 0): 1, (0, 2, 0): 1}


class TestFamilies:
    def test_q2(self):
        q2 = q_polynomials(2, F(1))[2]
        assert q2 == BivariatePolynomial({(2, 0): 1, (1, 1): -1, (0, 1): -1})

    def test_p2_is_shifted_chebyshev(self):
        for alpha in ALPHAS:
            p2 = p_polynomials(2, alpha)[2]
            shift = BivariatePolynomial({(0, 1): alpha})
            assert p2 == (X - shift) * (X - shift) - T

    def test_q_equals_p_plus_drift(self):
        for alpha in ALPHAS:
            q = q_polynomials(10, alpha)
            p = p_polynomials(10, alpha)
            drift = BivariatePolynomial({(0, 1): alpha})
            for n in range(1, 11):
                assert q[n] == p[n] + drift * p[n - 1]

    def test_degree_cap(self):
        # degrees are 0..16; a negative one must not pass as the family [1]
        for family in (q_polynomials, p_polynomials):
            for n in (17, -1):
                with pytest.raises(ValueError):
                    family(n, F(1))

    def test_matches_spectral_at_fixed_time(self):
        for alpha, t0 in [(F(1), F(1)), (F(2), F(1, 2)), (F(1, 2), F(3))]:
            depth = 9
            jac = JacobiParams((F(0),) + (alpha * t0,) * depth, (t0,) * depth)
            fixed = orthogonal_polynomials(jac, 8)
            q = q_polynomials(8, alpha)
            for n in range(9):
                assert q[n].substitute_t(t0) == fixed[n]


class TestMomentPolys:
    def test_nu_first_moments(self):
        nu = nu_moment_polys(2, F(1))
        assert nu[0] == T
        assert nu[1] == T**2 + T

    def test_mu_first_moments(self):
        mu = mu_moment_polys(4, F(1))
        assert mu[0].is_zero()
        assert mu[1] == T
        assert mu[2] == T**2
        assert mu[3] == 2 * T**2 + T**3

    @settings(max_examples=30, deadline=None)
    @given(
        alpha=st.fractions(-5, 5, max_denominator=12),
        t0=st.fractions(F(1, 12), 5, max_denominator=12),
        k=st.integers(1, 12),
    )
    def test_match_cumulant_route(self, alpha, t0, k):
        # at t = t0 the polynomial moments are those of the closed-form laws
        nu = nu_moment_polys(k, alpha)[k - 1].substitute_t(t0)
        mu = mu_moment_polys(k, alpha)[k - 1].substitute_t(t0)
        assert nu == BivariatePolynomial.constant(exact_moment(semicircle_law(alpha, t0), k))
        assert mu == BivariatePolynomial.constant(exact_moment(free_poisson_law(alpha, t0), k))

    def test_mu_centered_q_integrals_vanish(self):
        # the martingale polynomials integrate to zero against the primary law
        for alpha in ALPHAS:
            mu = mu_moment_polys(13, alpha)
            q = q_polynomials(12, alpha)
            for n in range(1, 13):
                total = BivariatePolynomial.zero()
                for (dx, dt), c in q[n].coeffs.items():
                    term = BivariatePolynomial({(0, dt): c})
                    if dx > 0:
                        term = term * mu[dx - 1]
                    total = total + term
                assert total.is_zero(), (alpha, n)


class TestLOperator:
    def test_nu_lowers_q2(self):
        for alpha in ALPHAS:
            q = q_polynomials(2, alpha)
            nu = nu_moment_polys(2, alpha)
            assert l_apply(q[2], nu) == q[1]

    def test_mu_sends_q2_to_p1(self):
        for alpha in ALPHAS:
            q = q_polynomials(2, alpha)
            p = p_polynomials(1, alpha)
            mu = mu_moment_polys(2, alpha)
            assert l_apply(q[2], mu) == p[1]

    def test_constant_dies(self):
        assert l_apply(BivariatePolynomial.constant(7), []).is_zero()

    def test_moment_guard(self):
        with pytest.raises(ValueError):
            l_apply(X**3, [T])

    def test_ladders_to_degree_12(self):
        for alpha in ALPHAS:
            q = q_polynomials(12, alpha)
            p = p_polynomials(11, alpha)
            nu = nu_moment_polys(12, alpha)
            mu = mu_moment_polys(12, alpha)
            for n in range(1, 13):
                assert l_apply(q[n], nu) == q[n - 1], (alpha, n)
                assert l_apply(q[n], mu) == p[n - 1], (alpha, n)


class TestGenerator:
    def test_quadratic_case(self):
        for alpha in ALPHAS:
            q2 = q_polynomials(2, alpha)[2]
            applied = generator_apply(q2, alpha)
            assert applied == BivariatePolynomial({(1, 0): alpha, (0, 0): 1})
            assert q2.d_dt() == -1 * applied

    def test_constants_die(self):
        assert generator_apply(ONE, F(1)).is_zero()

    def test_linear_case(self):
        for alpha in ALPHAS:
            assert generator_apply(X, alpha).is_zero()
            assert q_polynomials(1, alpha)[1].d_dt().is_zero()

    def test_main_identity_to_degree_12(self):
        for alpha in ALPHAS:
            for n in range(13):
                assert time_derivative_residual(n, alpha).is_zero(), (alpha, n)

    @pytest.mark.parametrize("n", [17, -1, -3])
    def test_degree_cap(self, n):
        # a negative degree must not read as a zero residual or an IndexError
        with pytest.raises(ValueError):
            time_derivative_residual(n, F(1))

    @pytest.mark.parametrize("alpha", [F(0), F(1), F(-3, 2), F(9973, 9998)])
    def test_ladder_matches_single_degree_route(self, alpha):
        residuals = generator._ladder(16, alpha)[-1]
        assert len(residuals) == 17
        for k in range(17):
            assert residuals[k] == time_derivative_residual(k, alpha), (alpha, k)

    @pytest.mark.parametrize("n_max", [-1, 17])
    def test_ladder_degree_cap(self, n_max):
        with pytest.raises(ValueError):
            generator._ladder(n_max, F(1))

    def test_alpha_zero_degeneration(self):
        # drift-free case: q = p and the generator is d/dx L_nu
        q = q_polynomials(8, F(0))
        p = p_polynomials(8, F(0))
        nu = nu_moment_polys(8, F(0))
        assert q == p
        for n in range(1, 9):
            assert p[n].d_dt() == -1 * l_apply(p[n], nu).d_dx()


class TestGeneratingFunction:
    def test_all_identities(self):
        for alpha in ALPHAS:
            report = generating_function_check(8, alpha)
            assert report.ok, (alpha, report)

    def test_first_coefficient_is_x(self):
        # the z^1 coefficient of the expansion must be q_1 = x
        report = generating_function_check(1, F(3, 2))
        assert report.h_coefficients_are_q

    def test_z2_time_derivative(self):
        # -dH/dt at z^2 equals alpha x + 1, the generator image of q_2
        for alpha in ALPHAS:
            q2 = q_polynomials(2, alpha)[2]
            assert -1 * q2.d_dt() == BivariatePolynomial({(1, 0): alpha, (0, 0): 1})

    def test_order_cap(self):
        # orders are 0..12; a negative one must not report ok
        for order in (13, -1):
            with pytest.raises(ValueError):
                generating_function_check(order, F(1))
