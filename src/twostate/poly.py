"""Exact bivariate polynomials in (x, t) with rational coefficients."""

from __future__ import annotations

from fractions import Fraction


class BivariatePolynomial:
    """Sparse polynomial sum of c * x^i * t^j; zero coefficients are dropped."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: dict[tuple[int, int], Fraction] | None = None):
        clean: dict[tuple[int, int], Fraction] = {}
        for (dx, dt), c in (coeffs or {}).items():
            if dx < 0 or dt < 0:
                raise ValueError("degrees must be nonnegative")
            c = Fraction(c)
            if c:
                clean[(dx, dt)] = c
        self.coeffs = clean

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
    def x(power: int = 1) -> "BivariatePolynomial":
        return BivariatePolynomial({(power, 0): Fraction(1)})

    @staticmethod
    def t(power: int = 1) -> "BivariatePolynomial":
        return BivariatePolynomial({(0, power): Fraction(1)})

    def is_zero(self) -> bool:
        return not self.coeffs

    def x_degree(self) -> int:
        return max((dx for dx, _ in self.coeffs), default=0)

    def __eq__(self, other) -> bool:
        if isinstance(other, BivariatePolynomial):
            return self.coeffs == other.coeffs
        return NotImplemented

    def __hash__(self):
        return hash(frozenset(self.coeffs.items()))

    def __add__(self, other) -> "BivariatePolynomial":
        if not isinstance(other, BivariatePolynomial):
            other = BivariatePolynomial.constant(other)
        out = dict(self.coeffs)
        for key, c in other.coeffs.items():
            out[key] = out.get(key, 0) + c
        return BivariatePolynomial(out)

    __radd__ = __add__

    def __neg__(self) -> "BivariatePolynomial":
        return BivariatePolynomial({k: -c for k, c in self.coeffs.items()})

    def __sub__(self, other) -> "BivariatePolynomial":
        if not isinstance(other, BivariatePolynomial):
            other = BivariatePolynomial.constant(other)
        return self + (-other)

    def __rsub__(self, other) -> "BivariatePolynomial":
        return BivariatePolynomial.constant(other) - self

    def __mul__(self, other) -> "BivariatePolynomial":
        if not isinstance(other, BivariatePolynomial):
            scalar = Fraction(other)
            return BivariatePolynomial({k: c * scalar for k, c in self.coeffs.items()})
        out: dict[tuple[int, int], Fraction] = {}
        for (ax, at), ac in self.coeffs.items():
            for (bx, bt), bc in other.coeffs.items():
                key = (ax + bx, at + bt)
                out[key] = out.get(key, 0) + ac * bc
        return BivariatePolynomial(out)

    __rmul__ = __mul__

    def __pow__(self, exponent: int) -> "BivariatePolynomial":
        if exponent < 0:
            raise ValueError("negative exponent")
        result = BivariatePolynomial.one()
        for _ in range(exponent):
            result = result * self
        return result

    def d_dx(self) -> "BivariatePolynomial":
        return BivariatePolynomial(
            {(dx - 1, dt): c * dx for (dx, dt), c in self.coeffs.items() if dx > 0}
        )

    def d_dt(self) -> "BivariatePolynomial":
        return BivariatePolynomial(
            {(dx, dt - 1): c * dt for (dx, dt), c in self.coeffs.items() if dt > 0}
        )

    def substitute_t(self, value) -> "BivariatePolynomial":
        """Evaluate the t variable at a rational, leaving a polynomial in x."""
        tv = Fraction(value)
        out: dict[tuple[int, int], Fraction] = {}
        for (dx, dt), c in self.coeffs.items():
            key = (dx, 0)
            out[key] = out.get(key, 0) + c * tv**dt
        return BivariatePolynomial(out)

    def substitute_x(self, replacement: "BivariatePolynomial") -> "BivariatePolynomial":
        """Replace x by another polynomial, e.g. x -> x - alpha*t."""
        powers = [BivariatePolynomial.one()]
        for _ in range(self.x_degree()):
            powers.append(powers[-1] * replacement)
        result = BivariatePolynomial.zero()
        for (dx, dt), c in self.coeffs.items():
            result = result + powers[dx] * BivariatePolynomial({(0, dt): c})
        return result

    def evaluate(self, x_value, t_value) -> Fraction:
        xv, tv = Fraction(x_value), Fraction(t_value)
        return sum((c * xv**dx * tv**dt for (dx, dt), c in self.coeffs.items()), Fraction(0))

    def x_coefficients(self) -> list["BivariatePolynomial"]:
        """Coefficients of x^0, x^1, ... as polynomials in t."""
        out = [BivariatePolynomial.zero() for _ in range(self.x_degree() + 1)]
        for (dx, dt), c in self.coeffs.items():
            out[dx] = out[dx] + BivariatePolynomial({(0, dt): c})
        return out

    def __repr__(self) -> str:
        if not self.coeffs:
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


def difference_quotient(f: BivariatePolynomial) -> dict[tuple[int, int, int], Fraction]:
    """(f(x,t) - f(y,t)) / (x - y) expanded exactly.

    Returns a sparse map (x-degree, y-degree, t-degree) -> coefficient, using
    x^k -> sum_{i+j=k-1} x^i y^j applied per monomial.
    """
    out: dict[tuple[int, int, int], Fraction] = {}
    for (dx, dt), c in f.coeffs.items():
        for i in range(dx):
            key = (i, dx - 1 - i, dt)
            out[key] = out.get(key, 0) + c
    return {k: v for k, v in out.items() if v}
