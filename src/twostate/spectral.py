"""Jacobi-parameter calculus, explicit spectral densities, and quadrature.

Moment sequences and Jacobi parameters are exact rationals; densities and
quadrature are the only floating-point surface in the package. A moment
sequence m_1..m_n converts to ceil(n/2) beta and floor(n/2) gamma coefficients
by stripping one continued-fraction level at a time, and back by a
Motzkin-path transfer recursion.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .cumulants import (
    as_rationals,
    brownian_cumulants,
    moments_from_free_cumulants,
    moments_from_two_state_cumulants,
)
from .poly import BivariatePolynomial
from .rational import format_rationals, parse_rationals

Rationals = tuple[Fraction, ...]


class NotAMeasureError(ValueError):
    """A stripping step produced a negative gamma: no positive measure fits."""

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
    and deeper coefficients are immaterial (treated as zero).
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
            "beta": format_rationals(self.betas),
            "gamma": format_rationals(self.gammas),
            "terminated": self.terminated,
        }

    @staticmethod
    def from_json(data: dict) -> "JacobiParams":
        return JacobiParams(
            parse_rationals(data["beta"]),
            parse_rationals(data["gamma"]),
            bool(data.get("terminated", False)),
        )


def _series_inverse(series: list[Fraction], order: int) -> list[Fraction]:
    # Reciprocal of a power series with constant term 1, to the given order.
    assert series[0] == 1
    inv = [Fraction(1)] + [Fraction(0)] * order
    for k in range(1, order + 1):
        acc = Fraction(0)
        for j in range(1, min(k, len(series) - 1) + 1):
            acc += series[j] * inv[k - j]
        inv[k] = -acc
    return inv


def moments_to_jacobi(moments) -> JacobiParams:
    """Continued-fraction coefficients of the distribution with these moments.

    Each stripping level reads beta from the linear and gamma from the
    quadratic coefficient of the reciprocal series, then recurses on the
    stripped series. Stops early at gamma = 0; negative gamma is rejected.
    """
    m = as_rationals(moments)
    series = [Fraction(1), *m]
    betas: list[Fraction] = []
    gammas: list[Fraction] = []
    order = len(m)
    while order >= 1:
        inv = _series_inverse(series, order - 1)
        shifted = series[1:]
        quotient = [
            sum((shifted[j] * inv[k - j] for j in range(k + 1)), Fraction(0))
            for k in range(order)
        ]
        betas.append(quotient[0])
        if order < 2:
            break
        gamma = quotient[1]
        if gamma < 0:
            raise NotAMeasureError(len(gammas) + 1)
        gammas.append(gamma)
        if gamma == 0:
            return JacobiParams(tuple(betas), tuple(gammas), terminated=True)
        series = [Fraction(1)] + [quotient[k + 1] / gamma for k in range(1, order - 1)]
        order -= 2
    return JacobiParams(tuple(betas), tuple(gammas))


def jacobi_to_moments(params: JacobiParams, n: int) -> Rationals:
    """Moments m_1..m_n from Jacobi parameters via weighted Motzkin paths."""
    if not params.terminated:
        if len(params.betas) < (n + 1) // 2 or len(params.gammas) < n // 2:
            raise ValueError(f"insufficient depth for {n} moments")
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
    denom = [Fraction(1), Fraction(0)] + [-t * series[k] for k in range(n - 1)]
    out = _series_inverse(denom, n)
    return tuple(out[1 : n + 1])


def orthogonal_polynomials(params: JacobiParams, n: int) -> list[BivariatePolynomial]:
    """Monic orthogonal polynomials P_0..P_n from the three-term recursion."""
    if not params.terminated:
        if len(params.betas) < n or (n > 1 and len(params.gammas) < n - 1):
            raise ValueError(f"insufficient depth for degree {n}")
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
        if self.kind == CT_LAW and self.alpha == 0:
            raise ValueError("the C law needs a nonzero drift")


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
        a = alpha * math.sqrt(t)
        return ((1 - a) ** 2, (1 + a) ** 2)
    half = 2 * math.sqrt(t)
    return (alpha * t - half, alpha * t + half)


def density_eval(measure: Measure, x) -> float:
    """Pointwise density; raises AtomLocationError on an exact atom hit."""
    loc = atom_location(measure)
    xf = float(x)
    if loc is not None:
        hit = x == loc if not isinstance(x, float) else xf == float(loc)
        if hit:
            raise AtomLocationError(loc, atom_mass(measure))
    alpha, t = float(measure.alpha), float(measure.time)
    if measure.kind == CT_LAW:
        lo, hi = support(measure)
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


def quadrature_moment(measure: Measure, n: int, nodes: int = 2048) -> float:
    """Integral of x^n against the measure, atom included.

    The substitution x = center + 2 sqrt(t) cos(theta) absorbs the square-root
    edge factor, leaving a smooth periodic integrand for the midpoint rule.
    """
    if n > 12:
        raise ValueError("quadrature_moment supports n <= 12")
    alpha, t = float(measure.alpha), float(measure.time)
    theta = (np.arange(nodes) + 0.5) * (math.pi / nodes)
    sin2 = np.sin(theta) ** 2
    if measure.kind == CT_LAW:
        a = alpha * math.sqrt(t)
        y = 1 + a * a + 2 * a * np.cos(theta)
        values = y ** (n - 1) if n >= 1 else 1.0 / y
        acc = 2.0 / nodes * float(np.dot(values, sin2))
    else:
        x = alpha * t + 2 * math.sqrt(t) * np.cos(theta)
        values = x**n if n >= 1 else np.ones_like(x)
        if measure.kind == FREE_POISSON:
            values = values / (1 + alpha * x)
        acc = 2.0 / nodes * float(np.dot(values, sin2))
    mass = atom_mass(measure)
    if mass:
        loc = atom_location(measure)
        acc += float(mass) * float(loc) ** n
    return acc
