"""Polynomial verification of the process generator identity.

Everything is exact in the polynomial ring over (x, t). The martingale
polynomials q_n, the centered family p_n and the moment polynomials of nu and
mu have integer coefficients on x^i t^j alpha^k that do not depend on alpha:
q and p by their monic three-term recursion, nu and mu by counting Motzkin
paths by their level steps. These tables are built once per process, up to
POLY_DEGREE_CAP. The operator L integrates the difference quotient against the
moment polynomials, and the headline identity is d/dt q_n + A_t q_n = 0 with
A_t = alpha (d/dx - L_mu) + d/dx L_nu.

The route runs on integer numerators, reduced once per result rather than once
per operation. A call specializes the tables at alpha = a/b in one integer
pass, each polynomial as numerators over a power of b, and scales the moments
of nu and mu once to one common power of b. Each L image, each A_t f and each
residual d/dt q + A_t q is then one integer pass over (ints, den) pairs, the
H-series is expanded on numerators, and every equality is a cross-multiplied
comparison. A `BivariatePolynomial`, reduced by one gcd, is built only where a
public function returns one, so `generating_function_check` builds none; it
builds q, nu, mu and each L image once for every degree it checks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .poly import BivariatePolynomial

POLY_DEGREE_CAP = 16


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
    # polynomial as (top, (((i, j), k, c), ...)), c the int coefficient of
    # x^i t^j alpha^k and top the largest k. Every table is homogeneous, with
    # i + 2j - k the degree, so each (i, j) carries one power of alpha.
    x = {(1, 0, 0): 1}
    families = [_recursion_table(x), _recursion_table({**x, (0, 1, 1): -1})]
    families += [_motzkin_table(True), _motzkin_table(False)]
    return tuple(
        tuple(
            (max((k for _, _, k in p), default=0), tuple(((i, j), k, c) for (i, j, k), c in p.items()))
            for p in family
        )
        for family in families
    )


def _specialized_ints(table, a: Fraction) -> list[tuple[dict, int]]:
    # c alpha^k at alpha = a / b as c a^k b^(top - k) over b^top, one term per
    # (i, j) since the tables are homogeneous; each polynomial an (ints, den)
    # pair with no zero numerator, not reduced
    num, b = a.numerator, a.denominator
    out = []
    rows: dict[int, tuple[list[int], int]] = {}
    for top, terms in table:
        if top not in rows:
            rows[top] = [num**k * b ** (top - k) for k in range(top + 1)], b**top
        weight, den = rows[top]
        out.append(({key: c * weight[k] for key, k, c in terms if weight[k]}, den))
    return out


def _check_degree(n_max: int) -> None:
    if not 0 <= n_max <= POLY_DEGREE_CAP:
        raise ValueError(f"n_max must be in 0..{POLY_DEGREE_CAP}, got {n_max}")


def _family(index: int, n_max: int, alpha) -> list[BivariatePolynomial]:
    # q_0..q_n or p_0..p_n (index 0, 1), or moments 1..n of nu or mu (2, 3),
    # checked, specialized and reduced
    _check_degree(n_max)
    table = _tables()[index][: n_max + (index < 2)]
    return [BivariatePolynomial._from_ints(ints, den) for ints, den in _specialized_ints(table, Fraction(alpha))]


def q_polynomials(n_max: int, alpha) -> list[BivariatePolynomial]:
    """Martingale polynomials q_0..q_n: monic, q_1 = x (no drift at level zero)."""
    return _family(0, n_max, alpha)


def p_polynomials(n_max: int, alpha) -> list[BivariatePolynomial]:
    """Centered family p_0..p_n: monic, p_1 = x - alpha t."""
    return _family(1, n_max, alpha)


def nu_moment_polys(n_max: int, alpha) -> list[BivariatePolynomial]:
    """Moments 1..n of the secondary-state law at time t, as polynomials in t."""
    return _family(2, n_max, alpha)


def mu_moment_polys(n_max: int, alpha) -> list[BivariatePolynomial]:
    """Moments 1..n of the primary-state law at time t, as polynomials in t."""
    return _family(3, n_max, alpha)


def _over(den: int, moments) -> list[list]:
    # moments 0..n as (key, numerator) items over den, a multiple of each (ints, den) pair's denominator
    return [[((0, 0), den)]] + [[(k, n * (den // d)) for k, n in ints.items()] for ints, d in moments]


def _l(f: dict, moments: list[list]) -> dict:
    # numerators of L[f] over f's denominator times the moments' one:
    # (f(x) - f(y)) / (x - y) per monomial, x^k -> sum_{i+j=k-1} x^i y^j, then y^j -> moment j
    out: dict[tuple[int, int], int] = {}
    get = out.get
    for (dx, dt), c in f.items():
        for i in range(dx):
            for (mx, mt), m in moments[dx - 1 - i]:
                key = (i + mx, dt + mt)
                out[key] = get(key, 0) + c * m
    return {key: n for key, n in out.items() if n}


def l_apply(f: BivariatePolynomial, measure_moments) -> BivariatePolynomial:
    """L[f](x) = integral of (f(x) - f(y)) / (x - y) over y.

    measure_moments[j-1] is the j-th moment as a polynomial in t; the zeroth
    moment is one and implicit.
    """
    needed = f.x_degree() - 1
    if needed > len(measure_moments):
        raise ValueError(f"need {needed} moments, got {len(measure_moments)}")
    used = [(m.ints, m.den) for m in measure_moments[: max(needed, 0)]]
    den = math.lcm(*(d for _, d in used))
    return BivariatePolynomial._from_ints(_l(f.ints, _over(den, used)), f.den * den)


def _measures(a: Fraction, count: int) -> tuple[list[list], list[list], int]:
    # moments 0..count of nu and of mu at alpha = a, over one common power of its denominator
    nu = _specialized_ints(_tables()[2][:count], a)
    mu = _specialized_ints(_tables()[3][:count], a)
    den = math.lcm(*(d for _, d in nu + mu))
    return _over(den, nu), _over(den, mu), den


def _image(f: dict, den: int, a: Fraction, measures, with_d_dt: bool):
    # L_nu f and L_mu f over den * mden, and A_t f = alpha (d/dx f - L_mu f) +
    # d/dx L_nu f, plus d/dt f if asked, in one pass over b * den * mden, where
    # alpha = a / b and the moments are over mden; each an (ints, den) pair
    nu, mu, mden = measures
    l_nu, l_mu = _l(f, nu), _l(f, mu)
    num, b = a.numerator, a.denominator
    am, bm = num * mden, b * mden
    out: dict[tuple[int, int], int] = {}
    for (dx, dt), n in f.items():
        if dx:
            out[(dx - 1, dt)] = out.get((dx - 1, dt), 0) + am * dx * n
        if dt and with_d_dt:
            out[(dx, dt - 1)] = out.get((dx, dt - 1), 0) + bm * dt * n
    for key, n in l_mu.items():
        out[key] = out.get(key, 0) - num * n
    for (dx, dt), n in l_nu.items():
        if dx:
            out[(dx - 1, dt)] = out.get((dx - 1, dt), 0) + b * dx * n
    lden = den * mden
    return (l_nu, lden), (l_mu, lden), ({key: n for key, n in out.items() if n}, b * lden)


def _equal(p: tuple[dict, int], q: tuple[dict, int]) -> bool:
    # p == q for (ints, den) pairs with no zero numerator, cross-multiplied
    (pi, pd), (qi, qd) = p, q
    g = math.gcd(pd, qd)
    ps, qs = qd // g, pd // g
    return pi.keys() == qi.keys() and all(n * ps == qi[key] * qs for key, n in pi.items())


def generator_apply(f: BivariatePolynomial, alpha) -> BivariatePolynomial:
    """A_t f = alpha (d/dx f - L_mu f) + d/dx (L_nu f)."""
    degree = max(f.x_degree(), 1)
    _check_degree(degree)
    a = Fraction(alpha)
    return BivariatePolynomial._from_ints(*_image(f.ints, f.den, a, _measures(a, degree), False)[2])


def time_derivative_residual(n: int, alpha) -> BivariatePolynomial:
    """d/dt q_n + A_t q_n; identically zero is the generator identity."""
    _check_degree(n)
    a = Fraction(alpha)
    q, den = _specialized_ints(_tables()[0][n : n + 1], a)[0]
    return BivariatePolynomial._from_ints(*_image(q, den, a, _measures(a, max(n, 1)), True)[2])


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
    if not 0 <= order <= POLY_DEGREE_CAP:
        raise ValueError(f"order must be in 0..{POLY_DEGREE_CAP}, got {order}")
    a = Fraction(alpha)
    q, p = (_specialized_ints(table[: order + 1], a) for table in _tables()[:2])
    measures = _measures(a, max(order, 1))
    l_nu, l_mu, residuals = zip(*(_image(ints, den, a, measures, True) for ints, den in q))
    num, b = a.numerator, a.denominator
    # denominator 1 + (t alpha - x) z + t z^2, inverted as a z-series on the
    # numerators I_k = b^k inverse_k = -((a t - b x) I_(k-1) + b^2 t I_(k-2)).
    # b^k times H's z^k coefficient, inverse_k + alpha t inverse_(k-1), is
    # I_k + a t I_(k-1) = b x I_(k-1) - b^2 t I_(k-2), so it is built first.
    inverse, h_coeffs = [{(0, 0): 1}], [{(0, 0): 1}]
    for k in range(1, order + 1):
        last, before = inverse[k - 1], inverse[k - 2] if k >= 2 else {}
        h = {(i + 1, j): b * n for (i, j), n in last.items()}
        for (i, j), n in before.items():
            h[(i, j + 1)] = h.get((i, j + 1), 0) - b * b * n
        term = dict(h)
        for (i, j), n in last.items():
            term[(i, j + 1)] = term.get((i, j + 1), 0) - num * n
        h_coeffs.append({key: n for key, n in h.items() if n})
        inverse.append({key: n for key, n in term.items() if n})

    h_ok = all(_equal((h_coeffs[k], b**k), q[k]) for k in range(order + 1))
    p_ok = all(_equal((inverse[k], b**k), p[k]) for k in range(order + 1))
    nu_ok = all(_equal(l_nu[k], q[k - 1]) for k in range(1, order + 1))
    mu_ok = all(_equal(l_mu[k], p[k - 1]) for k in range(1, order + 1))
    return GeneratingFunctionReport(order, h_ok, p_ok, nu_ok, mu_ok, all(not ints for ints, _ in residuals))
