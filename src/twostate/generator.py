"""Polynomial verification of the process generator identity.

Everything is exact in the polynomial ring over (x, t); the drift alpha enters
as a rational constant per call. The martingale polynomials q_n and the
centered family p_n come from their three-term recursions, the operator L
integrates the difference quotient against closed-form moment polynomials, and
the headline identity is d/dt q_n + A_t q_n = 0 with
A_t = alpha (d/dx - L_mu) + d/dx L_nu. A_t takes the two L images as inputs, so
one ladder builds q, nu, mu and each L image once for every degree it checks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .poly import BivariatePolynomial

POLY_DEGREE_CAP = 16
SERIES_ORDER_CAP = 12


def _recursion_family(n_max: int, alpha, first) -> list[BivariatePolynomial]:
    # x f_k = f_{k+1} + alpha t f_k + t f_{k-1}, monic, seeded by f_1 = first.
    if not 0 <= n_max <= POLY_DEGREE_CAP:
        raise ValueError(f"n_max must be in 0..{POLY_DEGREE_CAP}, got {n_max}")
    x = BivariatePolynomial.x()
    shift = BivariatePolynomial({(0, 1): Fraction(alpha)})
    t = BivariatePolynomial.t()
    polys = [BivariatePolynomial.one()]
    if n_max >= 1:
        polys.append(first)
    for k in range(1, n_max):
        polys.append((x - shift) * polys[k] - t * polys[k - 1])
    return polys


def q_polynomials(n_max: int, alpha) -> list[BivariatePolynomial]:
    """Martingale polynomials q_0..q_n: monic, q_1 = x (no drift at level zero)."""
    return _recursion_family(n_max, alpha, BivariatePolynomial.x())


def p_polynomials(n_max: int, alpha) -> list[BivariatePolynomial]:
    """Centered family p_0..p_n: monic, p_1 = x - alpha t."""
    first = BivariatePolynomial.x() - BivariatePolynomial({(0, 1): Fraction(alpha)})
    return _recursion_family(n_max, alpha, first)


def _jacobi_moment_polys(n_max: int, alpha, beta_0) -> list[BivariatePolynomial]:
    # Moment polynomials in t of the Jacobi data beta = (beta_0 t, alpha t,
    # alpha t, ...) and gamma = (t, t, ...), by the same weighted-path
    # recursion as the rational version.
    first = BivariatePolynomial({(0, 1): Fraction(beta_0)})
    drift = BivariatePolynomial({(0, 1): Fraction(alpha)})
    t = BivariatePolynomial.t()
    height = n_max // 2 + 1
    state = [BivariatePolynomial.one()] + [BivariatePolynomial.zero() for _ in range(height + 1)]
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
                new[level - 1] = new[level - 1] + v * t
        state = new
        moments.append(state[0])
    return moments


def nu_moment_polys(n_max: int, alpha) -> list[BivariatePolynomial]:
    """Moments of the secondary-state law at time t, as polynomials in t."""
    return _jacobi_moment_polys(n_max, alpha, alpha)


def mu_moment_polys(n_max: int, alpha) -> list[BivariatePolynomial]:
    """Moments of the primary-state law at time t, as polynomials in t."""
    return _jacobi_moment_polys(n_max, alpha, 0)


def l_apply(f: BivariatePolynomial, measure_moments) -> BivariatePolynomial:
    """L[f](x) = integral of (f(x) - f(y)) / (x - y) over y.

    measure_moments[j-1] is the j-th moment as a polynomial in t; the zeroth
    moment is one and implicit.
    """
    needed = f.x_degree() - 1
    if needed > len(measure_moments):
        raise ValueError(f"need {needed} moments, got {len(measure_moments)}")
    # moments 0..needed as numerators over the lcm of their denominators
    used = measure_moments[: max(needed, 0)]
    den = math.lcm(*(m.den for m in used))
    scaled = [{(0, 0): den}] + [{k: n * (den // m.den) for k, n in m.ints.items()} for m in used]
    out: dict[tuple[int, int], int] = {}
    # x^k -> sum_{i+j=k-1} x^i y^j per monomial (see `difference_quotient`), y^j -> moment j
    for (dx, dt), c in f.ints.items():
        for i in range(dx):
            for (mx, mt), m in scaled[dx - 1 - i].items():
                key = (i + mx, dt + mt)
                out[key] = out.get(key, 0) + c * m
    return BivariatePolynomial._from_ints(out, f.den * den)


def _generator(f: BivariatePolynomial, a: Fraction, l_nu, l_mu) -> BivariatePolynomial:
    # A_t f from the two L images l_nu = L_nu f and l_mu = L_mu f.
    return (f.d_dx() - l_mu) * a + l_nu.d_dx()


def generator_apply(f: BivariatePolynomial, alpha) -> BivariatePolynomial:
    """A_t f = alpha (d/dx f - L_mu f) + d/dx (L_nu f)."""
    degree = max(f.x_degree(), 1)
    nu = nu_moment_polys(degree, alpha)
    mu = mu_moment_polys(degree, alpha)
    return _generator(f, Fraction(alpha), l_apply(f, nu), l_apply(f, mu))


def time_derivative_residual(n: int, alpha) -> BivariatePolynomial:
    """d/dt q_n + A_t q_n; identically zero is the generator identity."""
    q = q_polynomials(n, alpha)[n]
    return q.d_dt() + generator_apply(q, alpha)


def _ladder(n_max: int, a: Fraction):
    # q_0..q_n, their images L_nu q_k and L_mu q_k, and the residuals
    # d/dt q_k + A_t q_k, from one build of q, nu and mu.
    q = q_polynomials(n_max, a)
    nu = nu_moment_polys(max(n_max, 1), a)
    mu = mu_moment_polys(max(n_max, 1), a)
    l_nu = [l_apply(qk, nu) for qk in q]
    l_mu = [l_apply(qk, mu) for qk in q]
    return q, l_nu, l_mu, [qk.d_dt() + _generator(qk, a, ln, lm) for qk, ln, lm in zip(q, l_nu, l_mu)]


@dataclass(frozen=True)
class GeneratingFunctionReport:
    """Coefficient-wise checks of the two generating-function identities."""

    order: int
    h_coefficients_are_q: bool
    inverse_coefficients_are_p: bool
    nu_ladder: bool
    mu_ladder: bool
    time_derivative_identity: bool

    @property
    def ok(self) -> bool:
        return (
            self.h_coefficients_are_q
            and self.inverse_coefficients_are_p
            and self.nu_ladder
            and self.mu_ladder
            and self.time_derivative_identity
        )


def generating_function_check(order: int, alpha) -> GeneratingFunctionReport:
    """Expand H = (1 + t alpha z) / (1 - x z + t (alpha z + z^2)) and verify.

    The z-coefficients of H are the martingale polynomials, those of the bare
    inverse are the centered family, L_nu lowers q by one, L_mu sends q to the
    centered family, and the alpha-weighted combination reproduces -dH/dt.
    """
    if not 0 <= order <= SERIES_ORDER_CAP:
        raise ValueError(f"order must be in 0..{SERIES_ORDER_CAP}, got {order}")
    a = Fraction(alpha)
    t = BivariatePolynomial.t()
    # denominator 1 + (t alpha - x) z + t z^2, inverted as a z-series
    c1 = t * a - BivariatePolynomial.x()
    inverse = [BivariatePolynomial.one()]
    for k in range(1, order + 1):
        term = c1 * inverse[k - 1]
        if k >= 2:
            term = term + t * inverse[k - 2]
        inverse.append(-1 * term)
    h_coeffs = [inverse[0]] + [inverse[k] + t * a * inverse[k - 1] for k in range(1, order + 1)]

    q, l_nu, l_mu, residuals = _ladder(order, a)
    p = p_polynomials(order, a)

    h_ok = all(h_coeffs[k] == q[k] for k in range(order + 1))
    p_ok = all(inverse[k] == p[k] for k in range(order + 1))
    nu_ok = all(l_nu[k] == q[k - 1] for k in range(1, order + 1))
    mu_ok = all(l_mu[k] == p[k - 1] for k in range(1, order + 1))
    return GeneratingFunctionReport(order, h_ok, p_ok, nu_ok, mu_ok, all(r.is_zero() for r in residuals))
