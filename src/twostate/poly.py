"""Exact bivariate polynomials in (x, t) with rational coefficients.

A polynomial is held as int numerators over one common denominator, the idiom
of `fock.FockVector`, so arithmetic never builds a `Fraction` per coefficient:
a sum scales both sides to the lcm of their denominators, a product multiplies
numerators and denominators, and each result is reduced by one gcd. The stored
form is canonical, which keeps equality and hashing structural.
"""

from __future__ import annotations

import math
from fractions import Fraction


class BivariatePolynomial:
    """Sparse polynomial sum of (ints[(i, j)] / den) * x^i * t^j.

    Canonical form: den > 0, gcd(den, *ints.values()) == 1 and no zero
    numerator, so the zero polynomial is ({}, 1). `coeffs` reads the
    coefficients out as reduced Fractions.
    """

    __slots__ = ("ints", "den")

    def __init__(self, coeffs: dict[tuple[int, int], Fraction] | None = None):
        coeffs = {k: Fraction(c) for k, c in (coeffs or {}).items()}
        if any(dx < 0 or dt < 0 for dx, dt in coeffs):
            raise ValueError("degrees must be nonnegative")
        # over the lcm of reduced denominators the numerators share no factor with it
        self.den = math.lcm(*(c.denominator for c in coeffs.values()))
        self.ints = {k: c.numerator * (self.den // c.denominator) for k, c in coeffs.items() if c}

    @staticmethod
    def _from_ints(ints: dict[tuple[int, int], int], den: int) -> "BivariatePolynomial":
        # internal: the polynomial ints / den for den > 0, in canonical form
        g = math.gcd(den, *ints.values())
        p = BivariatePolynomial.__new__(BivariatePolynomial)
        p.ints, p.den = {k: n // g for k, n in ints.items() if n}, den // g
        return p

    @property
    def coeffs(self) -> dict[tuple[int, int], Fraction]:
        return {k: Fraction(n, self.den) for k, n in self.ints.items()}

    @staticmethod
    def zero() -> "BivariatePolynomial":
        return BivariatePolynomial()

    @staticmethod
    def constant(value) -> "BivariatePolynomial":
        return BivariatePolynomial({(0, 0): Fraction(value)})

    @staticmethod
    def one() -> "BivariatePolynomial":
        return BivariatePolynomial.constant(1)

    @staticmethod
    def x() -> "BivariatePolynomial":
        return BivariatePolynomial({(1, 0): Fraction(1)})

    @staticmethod
    def t() -> "BivariatePolynomial":
        return BivariatePolynomial({(0, 1): Fraction(1)})

    def is_zero(self) -> bool:
        return not self.ints

    def x_degree(self) -> int:
        return max((dx for dx, _ in self.ints), default=0)

    def __eq__(self, other) -> bool:
        if isinstance(other, BivariatePolynomial):
            return self.den == other.den and self.ints == other.ints
        return NotImplemented

    def __hash__(self):
        return hash((self.den, frozenset(self.ints.items())))

    def __add__(self, other) -> "BivariatePolynomial":
        if not isinstance(other, BivariatePolynomial):
            other = BivariatePolynomial.constant(other)
        den = math.lcm(self.den, other.den)
        a, b = den // self.den, den // other.den
        out = {k: n * a for k, n in self.ints.items()}
        for k, n in other.ints.items():
            out[k] = out.get(k, 0) + n * b
        return BivariatePolynomial._from_ints(out, den)

    __radd__ = __add__

    def __neg__(self) -> "BivariatePolynomial":
        return BivariatePolynomial._from_ints({k: -n for k, n in self.ints.items()}, self.den)

    def __sub__(self, other) -> "BivariatePolynomial":
        if not isinstance(other, BivariatePolynomial):
            other = BivariatePolynomial.constant(other)
        return self + (-other)

    def __rsub__(self, other) -> "BivariatePolynomial":
        return BivariatePolynomial.constant(other) - self

    def __mul__(self, other) -> "BivariatePolynomial":
        if not isinstance(other, BivariatePolynomial):
            scalar = Fraction(other)
            return BivariatePolynomial._from_ints(
                {k: n * scalar.numerator for k, n in self.ints.items()}, self.den * scalar.denominator
            )
        out: dict[tuple[int, int], int] = {}
        for (ax, at), an in self.ints.items():
            for (bx, bt), bn in other.ints.items():
                key = (ax + bx, at + bt)
                out[key] = out.get(key, 0) + an * bn
        return BivariatePolynomial._from_ints(out, self.den * other.den)

    __rmul__ = __mul__

    def __pow__(self, exponent: int) -> "BivariatePolynomial":
        if exponent < 0:
            raise ValueError("negative exponent")
        result = BivariatePolynomial.one()
        for _ in range(exponent):
            result = result * self
        return result

    def d_dx(self) -> "BivariatePolynomial":
        return BivariatePolynomial._from_ints(
            {(dx - 1, dt): n * dx for (dx, dt), n in self.ints.items() if dx > 0}, self.den
        )

    def d_dt(self) -> "BivariatePolynomial":
        return BivariatePolynomial._from_ints(
            {(dx, dt - 1): n * dt for (dx, dt), n in self.ints.items() if dt > 0}, self.den
        )

    def substitute_t(self, value) -> "BivariatePolynomial":
        """Evaluate the t variable at a rational, leaving a polynomial in x."""
        tv = Fraction(value)
        # every t^j = p^j / q^j brought over q^top
        p, q = tv.numerator, tv.denominator
        top = max((dt for _, dt in self.ints), default=0)
        out: dict[tuple[int, int], int] = {}
        for (dx, dt), n in self.ints.items():
            key = (dx, 0)
            out[key] = out.get(key, 0) + n * p**dt * q ** (top - dt)
        return BivariatePolynomial._from_ints(out, self.den * q**top)

    def substitute_x(self, replacement: "BivariatePolynomial") -> "BivariatePolynomial":
        """Replace x by another polynomial, e.g. x -> x - alpha*t."""
        powers = [BivariatePolynomial.one()]
        for _ in range(self.x_degree()):
            powers.append(powers[-1] * replacement)
        result = BivariatePolynomial.zero()
        for (dx, dt), n in self.ints.items():
            result = result + powers[dx] * BivariatePolynomial._from_ints({(0, dt): n}, self.den)
        return result

    def evaluate(self, x_value, t_value) -> Fraction:
        xv, tv = Fraction(x_value), Fraction(t_value)
        return sum((n * xv**dx * tv**dt for (dx, dt), n in self.ints.items()), Fraction(0)) / self.den

    def x_coefficients(self) -> list["BivariatePolynomial"]:
        """Coefficients of x^0, x^1, ... as polynomials in t."""
        out: list[dict[tuple[int, int], int]] = [{} for _ in range(self.x_degree() + 1)]
        for (dx, dt), n in self.ints.items():
            out[dx][(0, dt)] = n
        return [BivariatePolynomial._from_ints(ints, self.den) for ints in out]

    def __repr__(self) -> str:
        if not self.ints:
            return "0"
        parts = []
        for (dx, dt), c in sorted(self.coeffs.items()):
            term = str(c)
            if dx:
                term += f"*x^{dx}" if dx > 1 else "*x"
            if dt:
                term += f"*t^{dt}" if dt > 1 else "*t"
            parts.append(term)
        return " + ".join(parts)
