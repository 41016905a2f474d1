"""Jacobi-parameter calculus, explicit spectral densities, and quadrature.

Moment sequences and Jacobi parameters are exact rationals; densities and
quadrature are the only floating-point surface in the package. A moment
sequence m_1..m_n converts to ceil(n/2) beta and floor(n/2) gamma coefficients
by Chebyshev's algorithm, and back by a Motzkin-path transfer recursion.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .cumulants import (
    as_rationals,
    brownian_cumulants,
    moments_from_free_cumulants,
    moments_from_two_state_cumulants,
)
from .poly import BivariatePolynomial

Rationals = tuple[Fraction, ...]

QUADRATURE_NODES = 2048


class NotAMeasureError(ValueError):
    """Chebyshev's algorithm produced a negative gamma: no positive measure fits."""

    def __init__(self, index: int):
        super().__init__(f"gamma_{index} is negative: the moments are not those of a measure")
        self.index = index


class AtomLocationError(ValueError):
    """Density evaluation hit the atom location exactly."""

    def __init__(self, location: Fraction, mass: Fraction):
        super().__init__(f"atom of mass {mass} at x = {location}; no density value there")
        self.location = location
        self.mass = mass


@dataclass(frozen=True)
class JacobiParams:
    """Recursion coefficients (beta_0, beta_1, ...; gamma_1, gamma_2, ...).

    terminated marks a gamma equal to zero: the continued fraction stops there
    and deeper coefficients read as zero. Otherwise beta() and gamma() refuse a
    coefficient past the depth: the one depth check, which the callers run first.
    """

    betas: Rationals
    gammas: Rationals
    terminated: bool = False

    def __post_init__(self):
        object.__setattr__(self, "betas", as_rationals(self.betas))
        object.__setattr__(self, "gammas", as_rationals(self.gammas))

    def beta(self, k: int) -> Fraction:
        if k < len(self.betas):
            return self.betas[k]
        if self.terminated:
            return Fraction(0)
        raise ValueError(f"beta_{k} not available (depth {len(self.betas)})")

    def gamma(self, k: int) -> Fraction:
        if 1 <= k <= len(self.gammas):
            return self.gammas[k - 1]
        if self.terminated:
            return Fraction(0)
        raise ValueError(f"gamma_{k} not available (depth {len(self.gammas)})")

    def to_json(self) -> dict:
        return {
            "beta": [str(b) for b in self.betas],
            "gamma": [str(g) for g in self.gammas],
            "terminated": self.terminated,
        }


def moments_to_jacobi(moments) -> JacobiParams:
    """Continued-fraction coefficients of the distribution with these moments.

    Chebyshev's algorithm: row k holds sigma_k(l) = L(P_k x^l), the moment
    functional L applied to the monic orthogonal polynomial P_k times x^l.
    The three-term recursion for P_(k+1) gives each row from the two before
    it, and beta_k and gamma_(k+1) are ratios of entries near the diagonal.
    Stops early at gamma = 0; negative gamma is rejected.
    """
    m = as_rationals(moments)
    n = len(m)
    # sigma_(k-1) and sigma_k indexed by l; row k is read at l = k..n-k.
    # beta_k needs m_(2k+1) and gamma_(k+1) needs m_(2k+2).
    before, row = [Fraction(0)] * (n + 1), [Fraction(1), *m]
    betas: list[Fraction] = []
    gammas: list[Fraction] = []
    gamma = Fraction(0)  # gamma_k, with gamma_0 = 0 since sigma_(-1) = 0
    for k in range((n + 1) // 2):
        beta = row[k + 1] / row[k] - (before[k] / before[k - 1] if k else 0)
        betas.append(beta)
        if 2 * k + 2 > n:
            break
        following = [Fraction(0)] * (n + 1)
        for l in range(k + 1, n - k):
            following[l] = row[l + 1] - beta * row[l] - gamma * before[l]
        gamma = following[k + 1] / row[k]
        if gamma < 0:
            raise NotAMeasureError(k + 1)
        gammas.append(gamma)
        if gamma == 0:
            return JacobiParams(tuple(betas), tuple(gammas), terminated=True)
        before, row = row, following
    return JacobiParams(tuple(betas), tuple(gammas))


def jacobi_to_moments(params: JacobiParams, n: int) -> Rationals:
    """Moments m_1..m_n from Jacobi parameters via weighted Motzkin paths."""
    if n > 0:  # read the deepest coefficients first, so short params fail before any work
        params.beta((n - 1) // 2)
    if n > 1:
        params.gamma(n // 2)
    height = n // 2 + 1
    state = [Fraction(0)] * (height + 2)
    state[0] = Fraction(1)
    moments = []
    for step in range(1, n + 1):
        # prune levels that cannot return to zero within the remaining steps,
        # so only the coefficients the precondition promises are ever touched
        remaining = n - step
        new = [Fraction(0)] * (height + 2)
        for level in range(height + 1):
            v = state[level]
            if not v:
                continue
            if level + 1 <= remaining:
                new[level + 1] += v
            if level <= remaining:
                new[level] += v * params.beta(level)
            if level > 0:
                new[level - 1] += v * params.gamma(level)
        state = new
        moments.append(state[0])
    return tuple(moments)


def jacobi_shift(params: JacobiParams, t) -> JacobiParams:
    """Prepend one level (beta 0, gamma t): the inverse of coefficient stripping."""
    t = Fraction(t)
    if t <= 0:
        raise ValueError("shift parameter must be positive")
    return JacobiParams(
        (Fraction(0),) + params.betas,
        (t,) + params.gammas,
        params.terminated,
    )


def shift_moments_by_series(moments, t, n: int) -> Rationals:
    """Moments of the shifted measure via M_out(w) = 1 / (1 - t w^2 M_in(w)).

    Series-side characterization of jacobi_shift, G -> 1/(z - t G); the two
    must agree and that agreement is a test.
    """
    t = Fraction(t)
    m = as_rationals(moments)
    series = [Fraction(1), *m] + [Fraction(0)] * max(0, n - len(m) - 1)
    # M_out = 1 + t w^2 M_in M_out, so out_k = t sum_(j<=k-2) m_j out_(k-2-j)
    out = [Fraction(1), Fraction(0)]
    for k in range(2, n + 1):
        out.append(t * sum((series[j] * out[k - 2 - j] for j in range(k - 1)), Fraction(0)))
    return tuple(out[1 : n + 1])


def orthogonal_polynomials(params: JacobiParams, n: int) -> list[BivariatePolynomial]:
    """Monic orthogonal polynomials P_0..P_n from the three-term recursion."""
    if n > 0:  # read the deepest coefficients first, so short params fail before any work
        params.beta(n - 1)
    if n > 1:
        params.gamma(n - 1)
    polys = [BivariatePolynomial.one()]
    if n >= 1:
        polys.append(BivariatePolynomial.x() - BivariatePolynomial.constant(params.beta(0)))
    for k in range(1, n):
        nxt = (
            (BivariatePolynomial.x() - BivariatePolynomial.constant(params.beta(k))) * polys[k]
            - BivariatePolynomial.constant(params.gamma(k)) * polys[k - 1]
        )
        polys.append(nxt)
    return polys


SEMICIRCLE = "semicircle"
FREE_POISSON = "free-poisson"
CT_LAW = "ct-law"


@dataclass(frozen=True)
class Measure:
    """One of the three closed-form laws of the process, with exact parameters."""

    kind: str
    alpha: Fraction
    time: Fraction

    def __post_init__(self):
        object.__setattr__(self, "alpha", Fraction(self.alpha))
        object.__setattr__(self, "time", Fraction(self.time))
        if self.time <= 0:
            raise ValueError("time parameter must be positive")
        if self.kind not in (SEMICIRCLE, FREE_POISSON, CT_LAW):
            raise ValueError(f"unknown measure kind {self.kind!r}")
        if self.kind != SEMICIRCLE and self.alpha == 0:  # free_poisson_law gives the semicircle there
            raise ValueError(f"the {'C' if self.kind == CT_LAW else 'free Poisson'} law needs a nonzero drift")


def semicircle_law(alpha, t) -> Measure:
    """Secondary-state law of the process at time t: semicircle, mean alpha*t."""
    return Measure(SEMICIRCLE, alpha, t)


def free_poisson_law(alpha, t) -> Measure:
    """Primary-state law of the process at time t; equals the semicircle at alpha = 0."""
    if Fraction(alpha) == 0:
        return Measure(SEMICIRCLE, 0, t)
    return Measure(FREE_POISSON, alpha, t)


def ct_law(alpha, total_time) -> Measure:
    """Primary-state law of 1 + alpha * X(T)."""
    return Measure(CT_LAW, alpha, total_time)


def atom_mass(measure: Measure) -> Fraction:
    if measure.kind == SEMICIRCLE:
        return Fraction(0)
    deficit = 1 - 1 / (measure.alpha**2 * measure.time)
    return max(deficit, Fraction(0))


def atom_location(measure: Measure) -> Fraction | None:
    if atom_mass(measure) == 0:
        return None
    if measure.kind == FREE_POISSON:
        return -1 / measure.alpha
    return Fraction(0)


def support(measure: Measure) -> tuple[float, float]:
    alpha, t = float(measure.alpha), float(measure.time)
    if measure.kind == CT_LAW:
        a = abs(alpha) * math.sqrt(t)  # (1 -+ a)^2 low to high for either sign of alpha
        lo, hi = (1 - a) ** 2, (1 + a) ** 2
    else:
        lo, hi = alpha * t - 2 * math.sqrt(t), alpha * t + 2 * math.sqrt(t)
    if lo == hi:
        raise ValueError(f"the law is narrower than float resolution: its support collapses to the point {lo!r}")
    return lo, hi


def density_eval(measure: Measure, x) -> float:
    """Pointwise density; raises AtomLocationError on an exact atom hit."""
    loc = atom_location(measure)
    xf = float(x)
    if loc is not None:
        hit = x == loc if not isinstance(x, float) else xf == float(loc)
        if hit:
            raise AtomLocationError(loc, atom_mass(measure))
    lo, hi = support(measure)
    alpha, t = float(measure.alpha), float(measure.time)
    if measure.kind == CT_LAW:
        radicand = (hi - xf) * (xf - lo)
        if radicand <= 0:
            return 0.0
        return math.sqrt(radicand) / (2 * math.pi * alpha * alpha * t * xf)
    radicand = 4 * t - (xf - alpha * t) ** 2
    if radicand <= 0:
        return 0.0
    value = math.sqrt(radicand) / (2 * math.pi * t)
    if measure.kind == FREE_POISSON:
        value /= 1 + alpha * xf
    return value


def exact_moment(measure: Measure, n: int) -> Fraction:
    """The n-th moment as an exact rational, straight from the cumulant engine."""
    if n < 0:
        raise ValueError(f"moment index must be nonnegative, got {n}")
    if n == 0:
        return Fraction(1)
    alpha = measure.alpha
    two_state, free = brownian_cumulants(alpha, measure.time, n)
    if measure.kind == SEMICIRCLE:
        return moments_from_free_cumulants(free, n)[n - 1]
    base = moments_from_two_state_cumulants(two_state, free, n)
    if measure.kind == FREE_POISSON:
        return base[n - 1]
    # moments of 1 + alpha X(T) by binomial expansion
    total = Fraction(1)
    for j in range(1, n + 1):
        total += math.comb(n, j) * alpha**j * base[j - 1]
    return total


def quadrature_moment(measure: Measure, n: int) -> float:
    """Integral of x^n against the measure, atom included.

    The substitution x = center + 2 sqrt(t) cos(theta) absorbs the square-root
    edge factor, leaving a smooth periodic integrand for the midpoint rule on
    QUADRATURE_NODES nodes. numpy is imported on the first call. Raises
    ValueError, naming alpha and t, on float overflow or an invalid operation,
    and for the free Poisson and C laws when 0 < |alpha^2 t - 1| < 1/100.
    """
    if not 0 <= n <= 12:
        raise ValueError(f"quadrature_moment supports 0 <= n <= 12, got {n}")
    import numpy as np

    # numpy scalars, so that the errstate below also guards the scalar products
    alpha, t = np.float64(measure.alpha), np.float64(measure.time)
    # Near alpha^2 t = 1 the pole of 1/(1 + alpha x) lies within about 1/nodes
    # of the support edge, and the midpoint rule misses mass there. At alpha = 1
    # the worst |quadrature - exact| over n <= 12 was 1.3e-4 at a distance of
    # 1/2000, 1.8e-7 at 1/200, 1.1e-8 at 0.0065 and at most 1.5e-9 from 1/100
    # on; at distance 0 the integrand is smooth.
    if measure.kind != SEMICIRCLE and 0 < abs(measure.alpha**2 * measure.time - 1) < Fraction(1, 100):
        raise ValueError(f"the quadrature misses mass at the pole of 1/(1 + alpha x) at alpha={alpha:g}, t={t:g}: "
                         "alpha^2 t is within 1/100 of 1")
    nodes = QUADRATURE_NODES
    try:
        with np.errstate(over="raise", invalid="raise", divide="raise", under="ignore"):
            theta = (np.arange(nodes) + 0.5) * (math.pi / nodes)
            sin2 = np.sin(theta) ** 2
            x = alpha * t + 2 * math.sqrt(t) * np.cos(theta)
            # the C law is the free Poisson law pushed forward by x -> 1 + alpha x
            values = (1 + alpha * x if measure.kind == CT_LAW else x) ** n
            if measure.kind != SEMICIRCLE:
                values = values / (1 + alpha * x)
            acc = 2.0 / nodes * float(np.dot(values, sin2))
    except FloatingPointError as exc:
        raise ValueError(f"the quadrature leaves float range at alpha={alpha:g}, t={t:g}: {exc}") from None
    mass = atom_mass(measure)
    if mass:
        loc = atom_location(measure)
        acc += float(mass) * float(loc) ** n
    return acc
