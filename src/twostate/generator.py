"""Polynomial verification of the process generator identity.

Everything is exact in the polynomial ring over (x, t). The martingale
polynomials q_n, the centered family p_n and the moment polynomials of nu and
mu have integer coefficients on x^i t^j alpha^k that do not depend on alpha:
q and p by their monic three-term recursion, nu and mu by counting Motzkin
paths by their level steps. These tables are built once per process, up to
POLY_DEGREE_CAP, and each call specializes them at its rational alpha in one
integer pass. The operator L integrates the difference quotient against the
moment polynomials, and the headline identity is d/dt q_n + A_t q_n = 0 with
A_t = alpha (d/dx - L_mu) + d/dx L_nu. A_t takes the two L images as inputs, so
one ladder builds q, nu, mu and each L image once for every degree it checks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .poly import BivariatePolynomial

POLY_DEGREE_CAP = 16
SERIES_ORDER_CAP = 12


def _recursion_table(first: dict) -> list[dict]:
    # x f_n = f_{n+1} + alpha t f_n + t f_{n-1}, monic, seeded by f_1 = first
    polys = [{(0, 0, 0): 1}, first]
    for n in range(1, POLY_DEGREE_CAP):
        new: dict[tuple[int, int, int], int] = {}
        for (i, j, k), c in polys[n].items():
            new[(i + 1, j, k)] = new.get((i + 1, j, k), 0) + c
            new[(i, j + 1, k + 1)] = new.get((i, j + 1, k + 1), 0) - c
        for (i, j, k), c in polys[n - 1].items():
            new[(i, j + 1, k)] = new.get((i, j + 1, k), 0) - c
        polys.append({key: c for key, c in new.items() if c})
    return polys


def _motzkin_table(level_at_zero: bool) -> list[dict]:
    # Moments 1..cap of the Jacobi data beta = (b_0 t, alpha t, alpha t, ...),
    # gamma = (t, t, ...): paths step up with weight 1, level with alpha t and
    # down with t, so m_n = sum_l M(n, l) alpha^l t^((n + l) / 2) over the
    # paths back at height 0 with l level steps. b_0 = alpha for nu; mu has
    # b_0 = 0, so no level step at height 0. No path of length <= cap that
    # returns to 0 climbs above cap / 2.
    height = POLY_DEGREE_CAP // 2
    state: list[dict[int, int]] = [{0: 1}] + [{} for _ in range(height)]
    moments = []
    for n in range(1, POLY_DEGREE_CAP + 1):
        new: list[dict[int, int]] = [{} for _ in range(height + 1)]
        for h, counts in enumerate(state):
            for level, c in counts.items():
                if h < height:
                    new[h + 1][level] = new[h + 1].get(level, 0) + c
                if h or level_at_zero:
                    new[h][level + 1] = new[h].get(level + 1, 0) + c
                if h:
                    new[h - 1][level] = new[h - 1].get(level, 0) + c
        state = new
        moments.append({(0, (n + level) // 2, level): c for level, c in state[0].items()})
    return moments


@lru_cache(maxsize=None)
def _tables() -> tuple:
    # q_0..q_cap, p_0..p_cap, and the moments m_1..m_cap of nu and of mu; each
    # polynomial as (top, ((i, j, k, c), ...)), c the int coefficient of
    # x^i t^j alpha^k and top the largest k
    x = {(1, 0, 0): 1}
    families = [_recursion_table(x), _recursion_table({**x, (0, 1, 1): -1})]
    families += [_motzkin_table(True), _motzkin_table(False)]
    return tuple(
        tuple((max((k for _, _, k in p), default=0), tuple(key + (c,) for key, c in p.items())) for p in family)
        for family in families
    )


def _specialized(table, alpha) -> list[BivariatePolynomial]:
    # sum_k c alpha^k at alpha = a / b, as sum_k c a^k b^(top - k) over b^top
    a = Fraction(alpha)
    out = []
    weights: dict[int, list[int]] = {}
    for top, terms in table:
        if top not in weights:
            weights[top] = [a.numerator**k * a.denominator ** (top - k) for k in range(top + 1)]
        weight = weights[top]
        ints: dict[tuple[int, int], int] = {}
        for i, j, k, c in terms:
            ints[(i, j)] = ints.get((i, j), 0) + c * weight[k]
        out.append(BivariatePolynomial._from_ints(ints, a.denominator**top))
    return out


def _check_degree(n_max: int) -> None:
    if not 0 <= n_max <= POLY_DEGREE_CAP:
        raise ValueError(f"n_max must be in 0..{POLY_DEGREE_CAP}, got {n_max}")


def q_polynomials(n_max: int, alpha) -> list[BivariatePolynomial]:
    """Martingale polynomials q_0..q_n: monic, q_1 = x (no drift at level zero)."""
    _check_degree(n_max)
    return _specialized(_tables()[0][: n_max + 1], alpha)


def p_polynomials(n_max: int, alpha) -> list[BivariatePolynomial]:
    """Centered family p_0..p_n: monic, p_1 = x - alpha t."""
    _check_degree(n_max)
    return _specialized(_tables()[1][: n_max + 1], alpha)


def nu_moment_polys(n_max: int, alpha) -> list[BivariatePolynomial]:
    """Moments 1..n of the secondary-state law at time t, as polynomials in t."""
    _check_degree(n_max)
    return _specialized(_tables()[2][:n_max], alpha)


def mu_moment_polys(n_max: int, alpha) -> list[BivariatePolynomial]:
    """Moments 1..n of the primary-state law at time t, as polynomials in t."""
    _check_degree(n_max)
    return _specialized(_tables()[3][:n_max], alpha)


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
    # (f(x) - f(y)) / (x - y) per monomial: x^k -> sum_{i+j=k-1} x^i y^j, then y^j -> moment j
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
    _check_degree(n)
    q = _specialized(_tables()[0][n : n + 1], alpha)[0]
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
