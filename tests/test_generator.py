import math
import os
import subprocess
import sys
from fractions import Fraction as F
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import twostate
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
from twostate.poly import BivariatePolynomial
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
        assert (X + T == 1) is False
        assert (X - 1) + 1 == X
        assert repr(X**2 * T - F(1, 2)) == "-1/2 + 1*x^2*t"
        assert repr(X - X) == "0"


def _canonical(p: BivariatePolynomial) -> BivariatePolynomial:
    # the stored form: int numerators over one positive denominator, lowest terms, no zeros
    assert type(p.den) is int and p.den > 0
    assert all(type(n) is int and n for n in p.ints.values())
    assert math.gcd(p.den, *p.ints.values()) == 1
    for c in p.coeffs.values():
        assert type(c) is F and c.denominator > 0 and math.gcd(c.numerator, c.denominator) == 1
    return p


# A plain dict -> Fraction reference for every operation of the int form.
def _ref_add(a, b, sign=1):
    out = dict(a)
    for k, c in b.items():
        out[k] = out.get(k, 0) + sign * c
    return {k: c for k, c in out.items() if c}


def _ref_mul(a, b):
    out = {}
    for (ax, at), ac in a.items():
        for (bx, bt), bc in b.items():
            out[(ax + bx, at + bt)] = out.get((ax + bx, at + bt), 0) + ac * bc
    return {k: c for k, c in out.items() if c}


def _ref_pow(a, e):
    out = {(0, 0): F(1)}
    for _ in range(e):
        out = _ref_mul(out, a)
    return out


def _ref_substitute_t(a, v):
    out = {}
    for (dx, dt), c in a.items():
        out[(dx, 0)] = out.get((dx, 0), 0) + c * v**dt
    return {k: c for k, c in out.items() if c}


def _ref_substitute_x(a, r):
    out = {}
    for (dx, dt), c in a.items():
        out = _ref_add(out, _ref_mul(_ref_pow(r, dx), {(0, dt): c}))
    return out


SMALL = st.fractions(-7, 7, max_denominator=30)
# numerators and denominators of about 20 digits
BIG = st.builds(F, st.integers(-(10**21), 10**21), st.integers(10**19, 10**21))
COEFS = st.one_of(SMALL, BIG, st.integers(-5, 5).map(F))
POLYS = st.dictionaries(st.tuples(st.integers(0, 4), st.integers(0, 4)), COEFS, max_size=6)
BIG_EXAMPLE = {(1, 0): F(12345678901234567891, 98765432109876543210), (0, 2): F(-7, 98765432109876543211)}


class TestIntForm:
    @settings(max_examples=60, deadline=None)
    @example(a=BIG_EXAMPLE, b={(1, 0): F(-12345678901234567891, 98765432109876543210), (2, 1): F(1, 3)}, s=F(98765432109876543210, 7))
    @given(a=POLYS, b=POLYS, s=COEFS)
    def test_ring_operations_match_fraction_reference(self, a, b, s):
        p, q = _canonical(BivariatePolynomial(a)), _canonical(BivariatePolynomial(b))
        ref_a = {k: c for k, c in a.items() if c}
        ref_b = {k: c for k, c in b.items() if c}
        assert p.coeffs == ref_a
        assert _canonical(p + q).coeffs == _ref_add(ref_a, ref_b)
        assert _canonical(p - q).coeffs == _ref_add(ref_a, ref_b, -1)
        assert _canonical(p * q).coeffs == _ref_mul(ref_a, ref_b)
        assert _canonical(p * s).coeffs == _canonical(s * p).coeffs == _ref_mul(ref_a, {(0, 0): s} if s else {})
        assert _canonical(p + s).coeffs == _ref_add(ref_a, {(0, 0): s})
        assert _canonical(s - p).coeffs == _ref_add({(0, 0): s} if s else {}, ref_a, -1)
        assert _canonical(-p).coeffs == _ref_add({}, ref_a, -1)
        assert _canonical(p**2).coeffs == _ref_pow(ref_a, 2)

    @settings(max_examples=60, deadline=None)
    @example(a=BIG_EXAMPLE, r={(1, 0): F(1), (0, 1): F(-12345678901234567891, 98765432109876543210)},
             v=F(98765432109876543211, 12345678901234567891))
    @given(a=POLYS, r=st.dictionaries(st.tuples(st.integers(0, 2), st.integers(0, 2)), COEFS, max_size=3), v=COEFS)
    def test_calculus_and_substitution_match_fraction_reference(self, a, r, v):
        p = BivariatePolynomial(a)
        ref_a = {k: c for k, c in a.items() if c}
        ref_r = {k: c for k, c in r.items() if c}
        assert _canonical(p.d_dx()).coeffs == _ref_add({}, {(dx - 1, dt): c * dx for (dx, dt), c in ref_a.items() if dx})
        assert _canonical(p.d_dt()).coeffs == _ref_add({}, {(dx, dt - 1): c * dt for (dx, dt), c in ref_a.items() if dt})
        assert _canonical(p.substitute_t(v)).coeffs == _ref_substitute_t(ref_a, v)
        assert _canonical(p.substitute_x(BivariatePolynomial(r))).coeffs == _ref_substitute_x(ref_a, ref_r)
        assert p.evaluate(v, 2) == sum((c * v**dx * 2**dt for (dx, dt), c in ref_a.items()), F(0))
        for dx, coefficient in enumerate(_canonical(c) for c in p.x_coefficients()):
            assert coefficient.coeffs == {(0, dt): c for (x2, dt), c in ref_a.items() if x2 == dx}
        # L[p] = sum over monomials c x^dx t^dt of sum_{i<dx} c x^i t^dt m_(dx-1-i), with m_0 = 1
        moments = [{(0, 0): F(1)}] + [_ref_pow(ref_r, j) for j in (1, 2, 3)]
        ref_l = {}
        for (dx, dt), c in ref_a.items():
            for i in range(dx):
                ref_l = _ref_add(ref_l, _ref_mul({(i, dt): c}, moments[dx - 1 - i]))
        assert _canonical(l_apply(p, [BivariatePolynomial(m) for m in moments[1:]])).coeffs == ref_l

    @settings(max_examples=60, deadline=None)
    @example(a=BIG_EXAMPLE, b={(0, 0): F(1, 98765432109876543210)}, c=BIG_EXAMPLE, s=F(-98765432109876543210, 3))
    @given(a=POLYS, b=POLYS, c=POLYS, s=COEFS.filter(bool))
    def test_equal_values_from_different_paths_are_equal_and_hash_equal(self, a, b, c, s):
        p, q, r = BivariatePolynomial(a), BivariatePolynomial(b), BivariatePolynomial(c)
        pairs = [
            ((p + q) * r, p * r + q * r),
            ((p * s) * (1 / s), p),
            (p - p, BivariatePolynomial.zero()),
            ((p + q) - q, p),
            ((p * q).d_dx(), p.d_dx() * q + p * q.d_dx()),
            (BivariatePolynomial((p * s).coeffs) * (1 / s), BivariatePolynomial(a)),
        ]
        for left, right in pairs:
            assert _canonical(left) == _canonical(right)
            assert hash(left) == hash(right)
            assert (left.ints, left.den) == (right.ints, right.den)

    def test_constructor_converts_and_rejects_negative_degrees(self):
        p = BivariatePolynomial({(1, 0): 2, (0, 1): 0.5, (0, 0): "3/4", (2, 2): 0})
        assert p.coeffs == {(1, 0): F(2), (0, 1): F(1, 2), (0, 0): F(3, 4)}
        assert (p.ints, p.den) == ({(1, 0): 8, (0, 1): 2, (0, 0): 3}, 4)
        assert (BivariatePolynomial.zero().ints, BivariatePolynomial.zero().den) == ({}, 1)
        for key in [(-1, 0), (0, -1)]:
            with pytest.raises(ValueError):
                BivariatePolynomial({key: 1})

    @pytest.mark.parametrize("base", [BivariatePolynomial.one(), BivariatePolynomial({(1, 1): F(2, 3)})])
    def test_negative_exponent_rejected(self, base):
        with pytest.raises(ValueError, match="^negative exponent$"):
            base ** -1


class TestDifferenceQuotient:
    """(f(x) - f(y)) / (x - y) inside `l_apply`, with y^j read off explicit moment polynomials."""

    def test_square(self):
        # x^2 -> x + y
        assert l_apply(X**2, [T]) == X + T

    def test_process_quadratic(self):
        # q_2 at alpha=1: x^2 - t x - t  ->  x + y - t
        q2 = q_polynomials(2, F(1))[2]
        assert l_apply(q2, [T**2]) == X + T**2 - T

    def test_constant(self):
        assert l_apply(BivariatePolynomial.constant(5), []) == BivariatePolynomial.zero()

    def test_cubic(self):
        # x^3 -> x^2 + x y + y^2
        assert l_apply(X**3, [T, T**2 + T]) == X**2 + X * T + T**2 + T


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

    @pytest.mark.parametrize("alpha", [F(1, 2), F(-3, 7), F(12345678901234567891, 98765432109876543210)])
    def test_wrong_families_leave_a_nonzero_residual(self, alpha):
        # the residual oracle must reject near misses at every degree, not pass vacuously
        q = q_polynomials(16, alpha)
        off = q_polynomials(16, alpha + F(1, 3))
        for n in range(2, 17):
            wrong_alpha = off[n].d_dt() + generator_apply(off[n], alpha)
            assert not wrong_alpha.is_zero(), (alpha, n)
            # A_t is linear over polynomials in t, so the residual of q_n + t q_(n-2) is q_(n-2)
            shifted = q[n] + T * q[n - 2]
            wrong_term = shifted.d_dt() + generator_apply(shifted, alpha)
            assert not wrong_term.is_zero() and wrong_term == q[n - 2], (alpha, n)

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


# Reference builders for the integer tables: every family rebuilt with
# BivariatePolynomial arithmetic at one alpha.
def _recursion_family(n_max, alpha, first):
    # x f_k = f_{k+1} + alpha t f_k + t f_{k-1}, monic, seeded by f_1 = first.
    shift = BivariatePolynomial({(0, 1): F(alpha)})
    polys = [ONE]
    if n_max >= 1:
        polys.append(first)
    for k in range(1, n_max):
        polys.append((X - shift) * polys[k] - T * polys[k - 1])
    return polys


def _jacobi_moment_polys(n_max, alpha, beta_0):
    # Moment polynomials in t of the Jacobi data beta = (beta_0 t, alpha t,
    # alpha t, ...) and gamma = (t, t, ...), by the weighted-path recursion.
    first = BivariatePolynomial({(0, 1): F(beta_0)})
    drift = BivariatePolynomial({(0, 1): F(alpha)})
    height = n_max // 2 + 1
    state = [ONE] + [BivariatePolynomial.zero() for _ in range(height + 1)]
    moments = []
    for _ in range(n_max):
        new = [BivariatePolynomial.zero() for _ in range(height + 2)]
        for level in range(height + 1):
            v = state[level]
            if v.is_zero():
                continue
            new[level + 1] = new[level + 1] + v
            new[level] = new[level] + v * (drift if level else first)
            if level > 0:
                new[level - 1] = new[level - 1] + v * T
        state = new
        moments.append(state[0])
    return moments


BIG_ALPHA = F(12345678901234567891, 98765432109876543210)


class TestTables:
    """q, p, nu and mu specialized from the alpha-free integer tables."""

    @settings(max_examples=40, deadline=None)
    @example(alpha=F(0), n=16)
    @example(alpha=F(-3, 7), n=16)
    @example(alpha=BIG_ALPHA, n=16)
    @example(alpha=-BIG_ALPHA, n=13)
    @given(alpha=st.one_of(SMALL, BIG, st.integers(-5, 5).map(F)), n=st.integers(0, 16))
    def test_families_match_reference(self, alpha, n):
        shift = BivariatePolynomial({(0, 1): alpha})
        families = [
            (q_polynomials(n, alpha), _recursion_family(n, alpha, X)),
            (p_polynomials(n, alpha), _recursion_family(n, alpha, X - shift)),
            (nu_moment_polys(n, alpha), _jacobi_moment_polys(n, alpha, alpha)),
            (mu_moment_polys(n, alpha), _jacobi_moment_polys(n, alpha, 0)),
        ]
        for got, want in families:
            assert [(_canonical(g).ints, g.den) for g in got] == [(w.ints, w.den) for w in want]

    def test_moments_at_unit_drift_and_time_are_motzkin_and_riordan(self):
        # at alpha = t = 1 nu counts Motzkin paths; mu, with no level step at
        # height 0, counts Riordan paths
        motzkin = [1, 2, 4, 9, 21, 51, 127, 323, 835, 2188]
        riordan = [0, 1, 1, 3, 6, 15, 36, 91, 232, 603]
        assert [m.evaluate(0, 1) for m in nu_moment_polys(10, 1)] == motzkin
        assert [m.evaluate(0, 1) for m in mu_moment_polys(10, 1)] == riordan

    @pytest.mark.parametrize("family", [nu_moment_polys, mu_moment_polys])
    @pytest.mark.parametrize("n", [17, 40, -1])
    def test_moment_degree_cap(self, family, n):
        # a capped table must not silently return fewer moments; the check runs before any work
        generator._tables.cache_clear()
        with pytest.raises(ValueError, match=r"n_max must be in 0\.\.16"):
            family(n, F(1, 2))
        assert generator._tables.cache_info().misses == 0

    @pytest.mark.parametrize("degree", [17, 20])
    def test_apply_degree_cap(self, degree):
        # A_t of a polynomial past the cap needs moments past the tables
        with pytest.raises(ValueError, match=r"n_max must be in 0\.\.16"):
            generator_apply(X**degree + T, F(1, 2))
        assert generator_apply(X**16 + T, F(1, 2)).x_degree() == 15

    def test_tables_are_built_once_for_every_alpha(self, monkeypatch):
        builds = []
        for name in ("_recursion_table", "_motzkin_table"):
            real = getattr(generator, name)
            monkeypatch.setattr(generator, name, lambda *args, real=real, name=name: builds.append(name) or real(*args))
        generator._tables.cache_clear()
        try:
            calls = 0
            for alpha in [F(1), F(9973, 9998), F(-3, 7), F(0), BIG_ALPHA]:
                assert time_derivative_residual(16, alpha).is_zero()
                assert generating_function_check(8, alpha).ok
                calls += 2
            info = generator._tables.cache_info()
        finally:
            generator._tables.cache_clear()
        assert info.misses == 1 and info.hits >= calls - 1
        assert sorted(builds) == ["_motzkin_table", "_motzkin_table", "_recursion_table", "_recursion_table"]

    def test_import_builds_no_table(self):
        # the tables are built on the first call, never at import
        src = str(Path(twostate.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        code = "import twostate.cli; from twostate import generator; print(generator._tables.cache_info().misses)"
        out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60)
        assert (out.returncode, out.stdout) == (0, "0\n")
