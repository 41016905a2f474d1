import itertools
import random
import warnings
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from twostate import spectral
from twostate.cumulants import (
    moments_from_free_cumulants,
    moments_from_two_state_cumulants,
)
from twostate.poly import BivariatePolynomial
from twostate.rational import parse_rational
from twostate.spectral import (
    AtomLocationError,
    JacobiParams,
    Measure,
    NotAMeasureError,
    atom_location,
    atom_mass,
    ct_law,
    density_eval,
    exact_moment,
    free_poisson_law,
    jacobi_shift,
    jacobi_to_moments,
    moments_to_jacobi,
    orthogonal_polynomials,
    quadrature_moment,
    semicircle_law,
    shift_moments_by_series,
    support,
)

PI = 3.141592653589793


def bm_moments(alpha, t, order, state):
    zeros = (F(0),) * max(0, order - 2)
    outer = (F(0), F(t)) + zeros
    inner = (F(alpha) * F(t), F(t)) + zeros
    if state == "phi":
        return moments_from_two_state_cumulants(outer, inner, order)
    return moments_from_free_cumulants(inner, order)


class TestStripping:
    def test_shifted_semicircle_prefix(self):
        jac = moments_to_jacobi((F(1), F(2), F(4), F(9)))
        assert jac.betas == (1, 1)
        assert jac.gammas[:1] == (1,)
        assert not jac.terminated

    def test_process_law(self):
        jac = moments_to_jacobi((F(0), F(1), F(1), F(3)))
        assert jac.betas == (0, 1)
        assert jac.gammas == (1, 1)

    def test_degenerate_point_mass(self):
        jac = moments_to_jacobi((F(0), F(0), F(0)))
        assert jac.betas == (0,)
        assert jac.gammas == (0,)
        assert jac.terminated

    def test_not_a_measure(self):
        with pytest.raises(NotAMeasureError) as info:
            moments_to_jacobi((F(0), F(1), F(0), F(0)))
        assert info.value.index == 2

    def test_point_mass_at_c(self):
        c = F(3, 2)
        jac = moments_to_jacobi(tuple(c**n for n in range(1, 5)))
        assert jac.betas[0] == c
        assert jac.terminated

    def test_roundtrip_from_random_params(self):
        rng = random.Random(11)
        for _ in range(20):
            betas = tuple(F(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(4))
            gammas = tuple(F(rng.randint(1, 9), rng.randint(1, 3)) for _ in range(4))
            jac = JacobiParams(betas, gammas)
            m = jacobi_to_moments(jac, 8)
            back = moments_to_jacobi(m)
            assert back.betas == betas
            assert back.gammas == gammas

    def test_roundtrip_moments(self):
        m = bm_moments(1, F(1, 2), 8, "phi")
        assert jacobi_to_moments(moments_to_jacobi(m), 8) == m


def _hankel_determinant(moments, k):
    # det (m_(i+j)) for i, j = 0..k with m_0 = 1, by exact elimination
    full = (F(1), *moments)
    rows = [[full[i + j] for j in range(k + 1)] for i in range(k + 1)]
    det = F(1)
    for col in range(k + 1):
        pivot = next((r for r in range(col, k + 1) if rows[r][col]), None)
        if pivot is None:
            return F(0)
        if pivot != col:
            rows[col], rows[pivot] = rows[pivot], rows[col]
            det = -det
        det *= rows[col][col]
        for r in range(col + 1, k + 1):
            factor = rows[r][col] / rows[col][col]
            for c in range(col, k + 1):
                rows[r][c] -= factor * rows[col][c]
    return det


small = st.fractions(-4, 4, max_denominator=9)
gamma_or_zero = st.one_of(st.just(F(0)), st.fractions(F(1, 9), 4, max_denominator=9))


class TestJacobiProperties:
    @settings(max_examples=150, deadline=None)
    @given(n=st.integers(0, 12), data=st.data())
    def test_roundtrip_from_params(self, n, data):
        depth = n // 2 + 1
        betas = tuple(data.draw(st.lists(small, min_size=depth, max_size=depth)))
        gammas = tuple(data.draw(st.lists(gamma_or_zero, min_size=depth, max_size=depth)))
        jac = moments_to_jacobi(jacobi_to_moments(JacobiParams(betas, gammas), n))
        zero = next((k for k in range(1, n // 2 + 1) if gammas[k - 1] == 0), None)
        if zero is None:
            assert (jac.betas, jac.gammas, jac.terminated) == (betas[:(n + 1) // 2], gammas[:n // 2], False)
        else:
            assert (jac.betas, jac.gammas, jac.terminated) == (betas[:zero], gammas[:zero], True)

    @settings(max_examples=150, deadline=None)
    @given(st.lists(small, max_size=12).map(tuple))
    def test_moment_lists(self, m):
        # gamma_k = D_k D_(k-2) / D_(k-1)^2 for the Hankel determinants D_k
        # (D_(-1) = D_0 = 1), so the first k with D_k <= 0 decides the outcome:
        # a negative D_k rejects at index k, a zero one terminates there.
        first = next((k for k in range(1, len(m) // 2 + 1) if _hankel_determinant(m, k) <= 0), None)
        if first is not None and _hankel_determinant(m, first) < 0:
            with pytest.raises(NotAMeasureError) as info:
                moments_to_jacobi(m)
            assert info.value.index == first
            return
        jac = moments_to_jacobi(m)
        assert jac.terminated == (first is not None)
        length = len(m) if first is None else 2 * first
        assert jacobi_to_moments(jac, length) == m[:length]


class TestJacobiMoments:
    def test_process_moments(self):
        jac = JacobiParams((F(0), F(1), F(1)), (F(1), F(1)))
        assert jacobi_to_moments(jac, 4) == (0, 1, 1, 3)

    def test_point_mass_powers(self):
        jac = JacobiParams((F(3),), (F(0),), terminated=True)
        assert jacobi_to_moments(jac, 5) == (3, 9, 27, 81, 243)

    def test_depth_guard(self, monkeypatch):
        # the accessors hold the one depth check, and it runs before the walk
        shallow, no_gamma_2 = JacobiParams((F(0),), (F(1),)), JacobiParams((F(0), F(1)), (F(1),))
        monkeypatch.setattr(spectral, "Fraction", lambda *args: pytest.fail("the walk started"))
        with pytest.raises(ValueError, match=r"^beta_1 not available \(depth 1\)$"):
            jacobi_to_moments(shallow, 4)
        with pytest.raises(ValueError, match=r"^gamma_2 not available \(depth 1\)$"):
            jacobi_to_moments(no_gamma_2, 4)

    @pytest.mark.parametrize("alpha,t", [(F(0), F(1)), (F(1), F(1)), (F(2), F(1, 2))])
    def test_matches_cumulant_engine(self, alpha, t):
        depth = 4
        mu_jac = JacobiParams((F(0),) + (alpha * t,) * depth, (t,) * depth)
        nu_jac = JacobiParams((alpha * t,) * depth, (t,) * depth)
        assert jacobi_to_moments(mu_jac, 8) == bm_moments(alpha, t, 8, "phi")
        assert jacobi_to_moments(nu_jac, 8) == bm_moments(alpha, t, 8, "psi")


class TestShift:
    def test_structure(self):
        jac = JacobiParams((F(1), F(1)), (F(1),))
        out = jacobi_shift(jac, F(2))
        assert out.betas == (0, 1, 1)
        assert out.gammas == (2, 1)

    def test_nu_to_mu(self):
        alpha, t = F(1), F(1, 2)
        nu = moments_to_jacobi(bm_moments(alpha, t, 8, "psi"))
        mu = moments_to_jacobi(bm_moments(alpha, t, 8, "phi"))
        shifted = jacobi_shift(nu, t)
        assert shifted.betas[: len(mu.betas)] == mu.betas
        assert shifted.gammas[: len(mu.gammas)] == mu.gammas

    def test_shift_of_point_mass_is_two_point(self):
        delta = moments_to_jacobi((F(0), F(0), F(0)))
        out = jacobi_shift(delta, F(2))
        assert out.betas == (0, 0)
        assert out.gammas == (2, 0)
        assert jacobi_to_moments(jacobi_shift(delta, F(1)), 4) == (0, 1, 0, 1)

    def test_nonpositive_shift(self):
        with pytest.raises(ValueError):
            jacobi_shift(JacobiParams((F(0),), ()), 0)

    @pytest.mark.parametrize("t", [F(1), F(1, 2), F(3)])
    def test_structural_equals_series(self, t):
        rng = random.Random(int(t * 6))
        for _ in range(10):
            betas = tuple(F(rng.randint(-2, 2)) for _ in range(4))
            gammas = tuple(F(rng.randint(1, 4)) for _ in range(4))
            jac = JacobiParams(betas, gammas)
            m = jacobi_to_moments(jac, 8)
            structural = jacobi_to_moments(jacobi_shift(jac, t), 8)
            assert structural == shift_moments_by_series(m, t, 8)


class TestOrthogonalPolynomials:
    def test_first_step(self):
        jac = JacobiParams((F(5), F(0)), (F(2),))
        polys = orthogonal_polynomials(jac, 1)
        assert polys[1] == BivariatePolynomial.x() - BivariatePolynomial.constant(5)

    def test_process_quadratic(self):
        # beta = (0, 1), gamma = (1,): x^2 - x - 1
        jac = JacobiParams((F(0), F(1)), (F(1),))
        polys = orthogonal_polynomials(jac, 2)
        expected = BivariatePolynomial({(2, 0): F(1), (1, 0): F(-1), (0, 0): F(-1)})
        assert polys[2] == expected

    def test_centered_family_quadratic(self):
        # semicircle with mean alpha t: p_2 = (x - alpha t)^2 - t at alpha=1, t=1/2
        t = F(1, 2)
        jac = JacobiParams((t, t, t), (t, t))
        polys = orthogonal_polynomials(jac, 2)
        x = BivariatePolynomial.x()
        shift = BivariatePolynomial.constant(t)
        assert polys[2] == (x - shift) * (x - shift) - BivariatePolynomial.constant(t)

    def test_depth_guard(self, monkeypatch):
        # the accessors hold the one depth check, and it runs before any polynomial is built
        monkeypatch.setattr(spectral, "BivariatePolynomial", None)
        with pytest.raises(ValueError, match=r"^beta_1 not available \(depth 1\)$"):
            orthogonal_polynomials(JacobiParams((F(0),), ()), 2)
        with pytest.raises(ValueError, match=r"^gamma_1 not available \(depth 0\)$"):
            orthogonal_polynomials(JacobiParams((F(0), F(1)), ()), 2)

    @pytest.mark.parametrize("alpha,t", [(F(1), F(1)), (F(2), F(1, 2)), (F(1, 2), F(3))])
    def test_shift_composition(self, alpha, t):
        # the drifted family is the centered one composed with x -> x - alpha t
        depth = 9
        drifted = orthogonal_polynomials(JacobiParams((alpha * t,) * depth, (t,) * depth), 8)
        centered = orthogonal_polynomials(JacobiParams((F(0),) * depth, (t,) * depth), 8)
        replacement = BivariatePolynomial.x() - BivariatePolynomial.constant(alpha * t)
        for n in range(9):
            assert drifted[n] == centered[n].substitute_x(replacement)

    @pytest.mark.parametrize("alpha,t", [(F(1), F(1)), (F(1), F(2)), (F(2), F(1, 4))])
    def test_q_equals_p_plus_drift_p(self, alpha, t):
        depth = 10
        q = orthogonal_polynomials(JacobiParams((F(0),) + (alpha * t,) * depth, (t,) * depth), 9)
        p = orthogonal_polynomials(JacobiParams((alpha * t,) * depth, (t,) * depth), 8)
        drift = BivariatePolynomial.constant(alpha * t)
        for n in range(1, 9):
            assert q[n] == p[n] + drift * p[n - 1]
        for n in range(0, 9):
            lhs = (BivariatePolynomial.one() + BivariatePolynomial({(1, 0): F(alpha)})) * p[n]
            assert lhs == BivariatePolynomial.constant(alpha) * q[n + 1] + q[n]


class TestMeasures:
    def test_semicircle_density_at_center_plus(self):
        # alpha=1, t=1: density at x=1 is 1/pi
        nu = semicircle_law(F(1), F(1))
        assert density_eval(nu, 1.0) == pytest.approx(1 / PI, abs=1e-12)

    def test_atom_mass_and_location(self):
        mu = free_poisson_law(F(1), F(4))
        assert atom_mass(mu) == F(3, 4)
        assert atom_location(mu) == -1

    def test_no_atom_small_time(self):
        mu = free_poisson_law(F(1), F(1, 2))
        assert atom_mass(mu) == 0
        assert atom_location(mu) is None

    def test_ct_support_and_atom(self):
        law = ct_law(F(1), F(1))
        assert support(law) == (0.0, 4.0)
        assert atom_mass(law) == 0
        law4 = ct_law(F(1), F(4))
        assert atom_mass(law4) == F(3, 4)
        assert atom_location(law4) == 0

    def test_support_narrower_than_float_resolution_raises(self):
        # each law's float support collapses to one point; density_eval
        # reaches the same check for all three kinds
        tiny = F(1, 10**400)
        for law in (ct_law(F(1, 10**17), F(1)), ct_law(tiny, F(1)), free_poisson_law(F(1), tiny), semicircle_law(F(1), tiny)):
            with pytest.raises(ValueError, match="narrower than float resolution"):
                support(law)
            with pytest.raises(ValueError, match="narrower than float resolution"):
                density_eval(law, 1.0)
        # subnormal but nonzero width, and a C law with negative alpha, low to high
        assert support(semicircle_law(F(1), F(1, 10**320)))[1] > 0
        assert support(ct_law(F(-1), F(1))) == (0.0, 4.0)

    def test_alpha_zero_collapses(self):
        assert free_poisson_law(F(0), F(1)) == semicircle_law(F(0), F(1))

    def test_ct_requires_drift(self):
        with pytest.raises(ValueError):
            ct_law(F(0), F(1))

    @pytest.mark.parametrize("make,message", [
        (lambda: semicircle_law(F(1), F(0)), "time parameter must be positive"),
        (lambda: free_poisson_law(F(1), F(-1)), "time parameter must be positive"),
        (lambda: ct_law(F(1), F(0)), "time parameter must be positive"),
        (lambda: Measure("gamma", F(1), F(1)), "unknown measure kind 'gamma'"),
    ], ids=["semicircle_zero_time", "free_poisson_negative_time", "ct_zero_time", "unknown_kind"])
    def test_malformed_measure_rejected(self, make, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            make()

    def test_atom_hit_flagged(self):
        mu = free_poisson_law(F(1), F(4))
        with pytest.raises(AtomLocationError) as info:
            density_eval(mu, F(-1))
        assert info.value.location == -1
        assert info.value.mass == F(3, 4)
        with pytest.raises(AtomLocationError):
            density_eval(mu, -1.0)

    def test_outside_support_is_zero(self):
        nu = semicircle_law(F(1), F(1))
        assert density_eval(nu, 100.0) == 0.0
        mu = free_poisson_law(F(1), F(1, 2))
        # -1/alpha lies outside the support when the atom mass is zero
        assert density_eval(mu, F(-1)) == 0.0
        assert density_eval(ct_law(F(1, 2), F(1)), 5.0) == 0.0

    def test_exact_moments_match_engine(self):
        alpha, t = F(1), F(1)
        assert [exact_moment(semicircle_law(alpha, t), n) for n in (1, 2, 3)] == [1, 2, 4]
        assert [exact_moment(free_poisson_law(alpha, t), n) for n in (1, 2, 3, 4)] == [0, 1, 1, 3]

    def test_ct_moment_is_binomial_transform(self):
        alpha, t = F(2), F(1, 2)
        mu = [exact_moment(free_poisson_law(alpha, t), n) for n in range(1, 4)]
        law = ct_law(alpha, t)
        assert exact_moment(law, 1) == 1 + alpha * mu[0]
        assert exact_moment(law, 2) == 1 + 2 * alpha * mu[0] + alpha**2 * mu[1]


GRID = [(F(1), F(1)), (F(1), F(4)), (F(1), F(1, 2)), (F(2), F(1, 4)), (F(0), F(1)), (F(1), F(2))]


class TestQuadrature:
    @pytest.mark.parametrize("alpha,t", GRID)
    @pytest.mark.parametrize("kind", ["nu", "mu", "ct"])
    def test_moments_match_exact(self, alpha, t, kind):
        if kind == "ct" and alpha == 0:
            pytest.skip("ct law needs drift")
        make = {"nu": semicircle_law, "mu": free_poisson_law, "ct": ct_law}[kind]
        measure = make(alpha, t)
        for n in range(0, 9):
            assert quadrature_moment(measure, n) == pytest.approx(float(exact_moment(measure, n)), abs=1e-8)

    def test_normalization_with_atom(self):
        assert quadrature_moment(free_poisson_law(F(1), F(4)), 0) == pytest.approx(1.0, abs=1e-8)

    def test_semicircle_second_moment(self):
        assert quadrature_moment(semicircle_law(F(1), F(1)), 2) == pytest.approx(2.0, abs=1e-8)

    def test_mu_fourth_moment(self):
        assert quadrature_moment(free_poisson_law(F(1), F(1)), 4) == pytest.approx(3.0, abs=1e-8)

    def test_degree_cap(self):
        with pytest.raises(ValueError):
            quadrature_moment(semicircle_law(F(0), F(1)), 13)

    @pytest.mark.parametrize("make,n", [(semicircle_law, 4), (free_poisson_law, 0), (ct_law, 0), (ct_law, 4)])
    def test_overflow_raises(self, make, n):
        # past float range the quadrature refuses, without a numpy warning,
        # instead of returning inf or a sum that overflowed on the way
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=r"alpha=1e\+160, t=1\b"):
                quadrature_moment(make(F(10) ** 160, F(1)), n)

    def test_underflow_is_silent(self):
        # x^4 underflows to 0 at every node; the exact moment 2 t^2 is 2e-400
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert quadrature_moment(semicircle_law(F(0), F(1, 10**200)), 4) == 0.0

    @pytest.mark.parametrize("make", [semicircle_law, free_poisson_law, ct_law])
    @pytest.mark.parametrize("moment", [quadrature_moment, exact_moment])
    def test_negative_index_rejected(self, make, moment):
        with pytest.raises(ValueError, match="-1"):
            moment(make(F(1), F(1)), -1)

    @pytest.mark.parametrize("alpha,t", [(F(1), F(1, 2)), (F(1), F(2)), (F(2), F(1, 4))])
    def test_change_of_measure_identity(self, alpha, t):
        # integrating x^n against the secondary law equals integrating
        # x^n (1 + alpha x) against the primary law, atom included
        nu = semicircle_law(alpha, t)
        mu = free_poisson_law(alpha, t)
        for n in range(0, 9):
            lhs = quadrature_moment(nu, n)
            rhs = quadrature_moment(mu, n) + float(alpha) * quadrature_moment(mu, n + 1)
            assert lhs == pytest.approx(rhs, abs=1e-8)

    @pytest.mark.parametrize("alpha,t", [(F(1), F(1, 2)), (F(1), F(2)), (F(2), F(1, 4))])
    def test_change_of_measure_identity_exact(self, alpha, t):
        nu = semicircle_law(alpha, t)
        mu = free_poisson_law(alpha, t)
        for n in range(1, 9):
            assert exact_moment(nu, n) == exact_moment(mu, n) + alpha * exact_moment(mu, n + 1)

    @pytest.mark.parametrize("alpha,t", [(F(1), F(1)), (F(1), F(4)), (F(2), F(1, 4))])
    def test_orthogonality(self, alpha, t):
        # integral of p_i p_j against the primary law vanishes for i != j
        depth = 11
        mu = free_poisson_law(alpha, t)
        polys = orthogonal_polynomials(
            JacobiParams((F(0),) + (alpha * t,) * depth, (t,) * depth), 5
        )
        for i, j in itertools.combinations(range(6), 2):
            product = polys[i] * polys[j]
            total = sum(
                float(c) * quadrature_moment(mu, dx)
                for (dx, _), c in product.coeffs.items()
            )
            assert total == pytest.approx(0.0, abs=1e-8)

    @pytest.mark.parametrize("alpha,t", GRID)
    @pytest.mark.parametrize("kind", ["nu", "mu", "ct"])
    def test_mass_one(self, alpha, t, kind):
        if kind == "ct" and alpha == 0:
            pytest.skip("ct law needs drift")
        make = {"nu": semicircle_law, "mu": free_poisson_law, "ct": ct_law}[kind]
        assert quadrature_moment(make(alpha, t), 0) == pytest.approx(1.0, abs=1e-8)


class TestSerialization:
    def test_json_roundtrip(self):
        jac = JacobiParams((F(0), F(1, 2)), (F(3, 4),), terminated=False)
        data = jac.to_json()
        assert data == {"beta": ["0", "1/2"], "gamma": ["3/4"], "terminated": False}
        # the strings take the p/q form of the CLI flags, which parse_rational reads
        parsed = [tuple(map(parse_rational, data[key])) for key in ("beta", "gamma")]
        assert JacobiParams(*parsed, terminated=data["terminated"]) == jac
