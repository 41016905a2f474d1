"""Exact sparse simulation of the full-Fock-space model of the process.

The interval [0, T) is cut into N cells. Vectors are finite rational
combinations of words over cell indices (the empty word is the vacuum), and
the increment over cell i acts by creation, an alpha * cell-length multiple of
the identity, and annihilation against the first letter. The single deliberate
asymmetry: on the vacuum the operator only creates. No truncation happens
anywhere, so every state evaluation below is exact.

The action runs on Python int numerators over one common denominator per
vector; a Fraction is formed only where a vector or a vacuum coefficient is
read out. The product and martingale checks never expand an operator product:
they apply its factors to the vector from right to left.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from fractions import Fraction

from .rational import format_rational, parse_rational

Word = tuple[int, ...]


@dataclass(frozen=True)
class IntervalGrid:
    """[0, T) split into `cells` equal subintervals, indexed 1..cells."""

    total_time: Fraction
    cells: int

    def __post_init__(self):
        object.__setattr__(self, "total_time", Fraction(self.total_time))
        if self.total_time <= 0:
            raise ValueError("total_time must be positive")
        if self.cells < 1:
            raise ValueError("cells must be positive")

    @property
    def cell_length(self) -> Fraction:
        return self.total_time / self.cells


class FockVector:
    """Finite map from cell words to rational coefficients over a fixed grid."""

    __slots__ = ("grid", "coef")

    def __init__(self, grid: IntervalGrid, coef: dict[Word, Fraction] | None = None):
        self.grid = grid
        self.coef = {w: Fraction(c) for w, c in (coef or {}).items() if c}

    @staticmethod
    def _from_ints(grid: IntervalGrid, ints: dict[Word, int], den: int) -> "FockVector":
        # internal: the vector ints / den, read out as reduced Fractions
        v = FockVector.__new__(FockVector)
        v.grid = grid
        v.coef = {w: Fraction(n, den) for w, n in ints.items() if n}
        return v

    @staticmethod
    def vacuum(grid: IntervalGrid) -> "FockVector":
        return FockVector(grid, {(): Fraction(1)})

    def vacuum_coefficient(self) -> Fraction:
        return self.coef.get((), Fraction(0))

    def inner(self, other: "FockVector") -> Fraction:
        """<v, w> = sum over common words of coef*coef*(cell length)^length."""
        if self.grid != other.grid:
            raise ValueError("grid mismatch")
        ell = self.grid.cell_length
        small, large = (self.coef, other.coef) if len(self.coef) <= len(other.coef) else (other.coef, self.coef)
        total = Fraction(0)
        for w, c in small.items():
            d = large.get(w)
            if d:
                total += c * d * ell ** len(w)
        return total

    def norm_squared(self) -> Fraction:
        return self.inner(self)

    def __add__(self, other: "FockVector") -> "FockVector":
        if self.grid != other.grid:
            raise ValueError("grid mismatch")
        out = dict(self.coef)
        for w, c in other.coef.items():
            out[w] = out.get(w, Fraction(0)) + c
        return FockVector(self.grid, out)

    def __sub__(self, other: "FockVector") -> "FockVector":
        return self + other.scaled(-1)

    def scaled(self, factor) -> "FockVector":
        f = Fraction(factor)
        return FockVector(self.grid, {w: c * f for w, c in self.coef.items()})

    def __eq__(self, other) -> bool:
        if isinstance(other, FockVector):
            return self.grid == other.grid and self.coef == other.coef
        return NotImplemented

    def to_json(self) -> list[dict]:
        return [
            {"word": list(w), "coef": format_rational(c)}
            for w, c in sorted(self.coef.items(), key=lambda item: (len(item[0]), item[0]))
        ]

    @staticmethod
    def from_json(grid: IntervalGrid, data) -> "FockVector":
        return FockVector(grid, {tuple(item["word"]): parse_rational(item["coef"]) for item in data})


def _to_ints(coef: dict[Word, Fraction]) -> tuple[dict[Word, int], int]:
    # integer numerators over one common denominator
    den = math.lcm(*(c.denominator for c in coef.values()))
    return {w: c.numerator * (den // c.denominator) for w, c in coef.items()}, den


def _act(grid: IntervalGrid, weights: dict[int, Fraction], alpha, ints: dict[Word, int], den: int, budget: int | None = None) -> tuple[dict[Word, int], int]:
    # Apply sum_i weights[i] * X(I_i) once to the vector ints / den: creation
    # of each i, the alpha * length drift, and annihilation of a leading i; on
    # the vacuum only creation fires. Coefficients stay Python ints: every
    # multiplier is scaled by the lcm of their denominators, so the result is
    # (ints, den * scale). Words longer than budget are never formed. The
    # result may hold zero coefficients.
    ell = grid.cell_length
    drift = Fraction(alpha) * ell * sum(weights.values())
    scale = math.lcm(drift.denominator, *(f.denominator for w in weights.values() for f in (w, w * ell)))
    create = [(i, int(w * scale)) for i, w in weights.items()]
    annihilate = {i: int(w * ell * scale) for i, w in weights.items()}
    drift = int(drift * scale)
    limit = math.inf if budget is None else budget
    # creation never forms the same word twice, so it fills the dict first
    out = {(i,) + w: k * c for w, c in ints.items() if len(w) < limit for i, k in create}
    for w, c in ints.items():
        length = len(w)
        if length:
            if drift and length <= limit:
                out[w] = out.get(w, 0) + drift * c
            k = annihilate.get(w[0])
            if k and length <= limit + 1:
                out[w[1:]] = out.get(w[1:], 0) + k * c
    return out, den * scale


def _accumulate(acc: dict[Word, int], acc_den: int, factor: Fraction, ints: dict[Word, int], den: int) -> int:
    # acc / acc_den += factor * ints / den in place; returns the new denominator
    new_den = math.lcm(acc_den, den * factor.denominator)
    if new_den != acc_den:
        for w in acc:
            acc[w] *= new_den // acc_den
    up = factor.numerator * (new_den // (den * factor.denominator))
    for w, n in ints.items():
        acc[w] = acc.get(w, 0) + up * n
    return new_den


def apply_increment(grid: IntervalGrid, i: int, alpha, v: FockVector) -> FockVector:
    """Apply the increment over cell i: creation + alpha*length + annihilation.

    On the vacuum only the creation term fires; that branch is what pushes the
    first Jacobi beta of the primary law to zero.
    """
    if not 1 <= i <= grid.cells:
        raise ValueError(f"cell index {i} out of range 1..{grid.cells}")
    if v.grid != grid:
        raise ValueError("grid mismatch")
    return FockVector._from_ints(grid, *_act(grid, {i: 1}, alpha, *_to_ints(v.coef)))


class OperatorExpr:
    """Formal polynomial in the cell increments: map from generator words to rationals.

    A word (g1, g2, ..., gk) denotes the product X(I_g1) X(I_g2) ... X(I_gk),
    applied to vectors right to left.
    """

    __slots__ = ("grid", "terms")

    def __init__(self, grid: IntervalGrid, terms: dict[Word, Fraction] | None = None):
        self.grid = grid
        self.terms = {w: Fraction(c) for w, c in (terms or {}).items() if c}

    @staticmethod
    def identity(grid: IntervalGrid) -> "OperatorExpr":
        return OperatorExpr(grid, {(): Fraction(1)})

    @staticmethod
    def increment(grid: IntervalGrid, i: int) -> "OperatorExpr":
        if not 1 <= i <= grid.cells:
            raise ValueError(f"cell index {i} out of range 1..{grid.cells}")
        return OperatorExpr(grid, {(i,): Fraction(1)})

    @staticmethod
    def interval(grid: IntervalGrid, first_cell: int, last_cell: int) -> "OperatorExpr":
        """X over the contiguous cells first_cell..last_cell (inclusive)."""
        if not 1 <= first_cell <= last_cell <= grid.cells:
            raise ValueError("bad cell range")
        return OperatorExpr(grid, {(i,): Fraction(1) for i in range(first_cell, last_cell + 1)})

    @staticmethod
    def whole_interval(grid: IntervalGrid) -> "OperatorExpr":
        return OperatorExpr.interval(grid, 1, grid.cells)

    def support_cells(self) -> frozenset[int]:
        return frozenset(i for w in self.terms for i in w)

    def __add__(self, other) -> "OperatorExpr":
        other = self._coerce(other)
        if self.grid != other.grid:
            raise ValueError("grid mismatch")
        out = dict(self.terms)
        for w, c in other.terms.items():
            out[w] = out.get(w, Fraction(0)) + c
        return OperatorExpr(self.grid, out)

    __radd__ = __add__

    def __sub__(self, other) -> "OperatorExpr":
        return self + self._coerce(other).scaled(-1)

    def __rsub__(self, other) -> "OperatorExpr":
        return self._coerce(other) + self.scaled(-1)

    def __mul__(self, other) -> "OperatorExpr":
        if not isinstance(other, OperatorExpr):
            return self.scaled(other)
        if self.grid != other.grid:
            raise ValueError("grid mismatch")
        out: dict[Word, Fraction] = {}
        for wa, ca in self.terms.items():
            for wb, cb in other.terms.items():
                key = wa + wb
                out[key] = out.get(key, Fraction(0)) + ca * cb
        return OperatorExpr(self.grid, out)

    def __rmul__(self, other) -> "OperatorExpr":
        return self.scaled(other)

    def __pow__(self, exponent: int) -> "OperatorExpr":
        if exponent < 0:
            raise ValueError("negative exponent")
        result = OperatorExpr.identity(self.grid)
        for _ in range(exponent):
            result = result * self
        return result

    def scaled(self, factor) -> "OperatorExpr":
        f = Fraction(factor)
        return OperatorExpr(self.grid, {w: c * f for w, c in self.terms.items()})

    def adjoint(self) -> "OperatorExpr":
        """Reverse every word; the generators are self-adjoint and coefficients real."""
        out: dict[Word, Fraction] = {}
        for w, c in self.terms.items():
            key = w[::-1]
            out[key] = out.get(key, Fraction(0)) + c
        return OperatorExpr(self.grid, out)

    def _coerce(self, other) -> "OperatorExpr":
        if isinstance(other, OperatorExpr):
            return other
        return OperatorExpr.identity(self.grid).scaled(other)

    def apply(self, v: FockVector, alpha) -> FockVector:
        """Linear extension over terms; each generator word acts right to left.

        All length-one words (a weighted sum of increments, the hot path for
        moment tables) are handled in a single pass over the vector. The terms
        are summed in integers over a common denominator.
        """
        if v.grid != self.grid:
            raise ValueError("grid mismatch")
        bad = [i for i in self.support_cells() if not 1 <= i <= self.grid.cells]
        if bad:
            raise ValueError(f"cell index {min(bad)} out of range 1..{self.grid.cells}")
        ints, den = _to_ints(v.coef)
        singles = {w[0]: c for w, c in self.terms.items() if len(w) == 1}
        out, out_den = _act(self.grid, singles, alpha, ints, den)
        for w, c in self.terms.items():
            if len(w) == 1:
                continue
            current = ints, den
            for letter in reversed(w):
                current = _act(self.grid, {letter: 1}, alpha, *current)
            out_den = _accumulate(out, out_den, c, *current)
        return FockVector._from_ints(self.grid, out, out_den)


def c_t_expr(grid: IntervalGrid, alpha) -> OperatorExpr:
    """1 + alpha * X(T), the operator coupling the two states."""
    return OperatorExpr.identity(grid) + OperatorExpr.whole_interval(grid).scaled(alpha)


def state_phi(expr: OperatorExpr, alpha) -> Fraction:
    """Vacuum expectation of the operator."""
    return expr.apply(FockVector.vacuum(expr.grid), alpha).vacuum_coefficient()


def state_psi_t(expr: OperatorExpr, alpha) -> Fraction:
    """Secondary state: vacuum expectation of expr followed by 1 + alpha X(T)."""
    seeded = c_t_expr(expr.grid, alpha).apply(FockVector.vacuum(expr.grid), alpha)
    return expr.apply(seeded, alpha).vacuum_coefficient()


def _iterated_whole_interval_moments(grid: IntervalGrid, alpha, degree: int, seed: FockVector) -> tuple[Fraction, ...]:
    # Vacuum coefficients of X(T)^n seed for n = 1..degree. Words longer than
    # degree - step can never annihilate back to the vacuum in time and are
    # never formed, which keeps the live vector small at any grid size.
    whole = {i: 1 for i in range(1, grid.cells + 1)}
    ints, den = _to_ints(seed.coef)
    out = []
    for step in range(1, degree + 1):
        ints, den = _act(grid, whole, alpha, ints, den, degree - step)
        out.append(Fraction(ints.get((), 0), den))
    return tuple(out)


def phi_moment_table(grid: IntervalGrid, alpha, degree: int) -> tuple[Fraction, ...]:
    """phi[X(T)^n] for n = 1..degree, exact."""
    return _iterated_whole_interval_moments(grid, alpha, degree, FockVector.vacuum(grid))


def psi_moment_table(grid: IntervalGrid, alpha, degree: int) -> tuple[Fraction, ...]:
    """psi_T[X(T)^n] for n = 1..degree, exact."""
    seed = c_t_expr(grid, alpha).apply(FockVector.vacuum(grid), alpha)
    return _iterated_whole_interval_moments(grid, alpha, degree, seed)


def _orthogonal(grid: IntervalGrid, first_cell: int, last_cell: int, degree: int, alpha, family: str, start, times_x):
    # Monic polynomial of the interval generator X applied to start (the
    # identity OperatorExpr or a FockVector); times_x(x, value) multiplies
    # value by X. "p" has beta_0 = alpha*len, "q" has beta_0 = 0; both recurse
    # with beta = alpha*len, gamma = len.
    length = grid.cell_length * (last_cell - first_cell + 1)
    a = Fraction(alpha)
    x = OperatorExpr.interval(grid, first_cell, last_cell)
    prev = start
    if degree == 0:
        return prev
    cur = times_x(x, prev) - prev.scaled(a * length if family == "p" else 0)
    for _ in range(degree - 1):
        nxt = times_x(x, cur) - cur.scaled(a * length) - prev.scaled(length)
        prev, cur = cur, nxt
    return cur


def martingale_expr(grid: IntervalGrid, cells: int, degree: int, alpha) -> OperatorExpr:
    """Q_degree(X(t), t) for t = cells * cell_length."""
    return _orthogonal(grid, 1, cells, degree, alpha, "q", OperatorExpr.identity(grid), operator.mul)


def centered_expr(grid: IntervalGrid, first_cell: int, last_cell: int, degree: int, alpha) -> OperatorExpr:
    """P_degree(X(I), |I|) over a contiguous interval."""
    return _orthogonal(grid, first_cell, last_cell, degree, alpha, "p", OperatorExpr.identity(grid), operator.mul)


def _vacuum_state(factors, alpha, v: FockVector) -> Fraction:
    # vacuum coefficient of f_1 ... f_m v, the factors applied right to left
    # so that their product is never expanded
    for f in reversed(factors):
        v = f.apply(v, alpha)
    return v.vacuum_coefficient()


def product_lemma_vector(grid: IntervalGrid, alpha, groups) -> FockVector:
    """Apply P_{k1}(X(I1),|I1|) ... Q_{kn}(X(In),|In|) to the vacuum.

    groups is a sequence of ((first_cell, last_cell), degree); consecutive
    intervals must be disjoint, and degrees must all be positive (or all be
    zero, the degenerate identity case): a zero-degree factor next to
    positive ones would expose the vacuum to a centered factor, which is
    outside the product identity's hypothesis. The result should be the
    elementary tensor with one letter slot per degree unit, see
    elementary_tensor.
    """
    groups = list(groups)
    if not groups:
        raise ValueError("need at least one interval group")
    degrees = [degree for _, degree in groups]
    if any(d < 0 for d in degrees):
        raise ValueError("degrees must be nonnegative")
    if any(d == 0 for d in degrees) and any(d > 0 for d in degrees):
        raise ValueError("degrees must be all positive or all zero")
    for ((lo1, hi1), _), ((lo2, hi2), _) in zip(groups, groups[1:]):
        if not (hi1 < lo2 or hi2 < lo1):
            raise ValueError("consecutive intervals overlap")
    v = FockVector.vacuum(grid)
    for k, ((lo, hi), degree) in reversed(list(enumerate(groups))):
        family = "q" if k == len(groups) - 1 else "p"
        v = _orthogonal(grid, lo, hi, degree, alpha, family, v, lambda x, u: x.apply(u, alpha))
    return v


def elementary_tensor(grid: IntervalGrid, groups) -> FockVector:
    """chi_{I1}^{k1} tensor ... tensor chi_{In}^{kn} expanded in cell words."""
    words: list[Word] = [()]
    for (lo, hi), degree in groups:
        cells = range(lo, hi + 1)
        for _ in range(degree):
            words = [w + (c,) for w in words for c in cells]
    return FockVector(grid, {w: Fraction(1) for w in words})


@dataclass(frozen=True)
class FreenessReport:
    """Both sides of the two-state freeness factorization for one product."""

    psi_of_product: Fraction
    phi_of_product: Fraction
    phi_factors: tuple[Fraction, ...]

    @property
    def psi_vanishes(self) -> bool:
        return self.psi_of_product == 0

    @property
    def phi_factorizes(self) -> bool:
        product = Fraction(1)
        for value in self.phi_factors:
            product *= value
        return self.phi_of_product == product

    @property
    def ok(self) -> bool:
        return self.psi_vanishes and self.phi_factorizes


def freeness_check(grid: IntervalGrid, alpha, factors) -> FreenessReport:
    """Verify the definition of two-state free independence on one product.

    Each factor must be a polynomial in a single increment, consecutive
    factors in different increments, every factor centered for the secondary
    state. Centering is checked, never applied silently.
    """
    factors = list(factors)
    supports = []
    for k, f in enumerate(factors):
        cells = f.support_cells()
        if len(cells) != 1:
            raise ValueError(f"factor {k} is not a polynomial in a single increment")
        supports.append(next(iter(cells)))
        centered = state_psi_t(f, alpha)
        if centered != 0:
            raise ValueError(f"factor {k} is not psi-centered (psi value {centered})")
    for a, b in zip(supports, supports[1:]):
        if a == b:
            raise ValueError("consecutive factors use the same increment")
    vacuum = FockVector.vacuum(grid)
    return FreenessReport(
        psi_of_product=_vacuum_state(factors + [c_t_expr(grid, alpha)], alpha, vacuum),
        phi_of_product=_vacuum_state(factors, alpha, vacuum),
        phi_factors=tuple(state_phi(f, alpha) for f in factors),
    )


def _check_past_support(expr: OperatorExpr, cells: int) -> None:
    if any(i > cells for i in expr.support_cells()):
        raise ValueError(f"operator touches increments at or beyond cell {cells}")


def martingale_check(grid: IntervalGrid, alpha, degree: int, t_cells: int, s_cells: int, past: OperatorExpr) -> tuple[Fraction, Fraction]:
    """(phi[B* Q_n(X(s), s)], phi[B* Q_n(X(t), t)]) for B supported before t."""
    if not 1 <= t_cells < s_cells <= grid.cells:
        raise ValueError("need grid times t < s inside the grid")
    _check_past_support(past, t_cells)
    b_star = past.adjoint()
    vacuum = FockVector.vacuum(grid)
    q_s, q_t = (_orthogonal(grid, 1, cells, degree, alpha, "q", vacuum, lambda x, u: x.apply(u, alpha))
                for cells in (s_cells, t_cells))
    return (b_star.apply(q_s, alpha).vacuum_coefficient(), b_star.apply(q_t, alpha).vacuum_coefficient())


def cond_exp_obstruction(grid: IntervalGrid, alpha, t_cells: int, s_cells: int, past: OperatorExpr) -> tuple[Fraction, Fraction]:
    """Both sides of phi[B* X(s) X(t)] = phi[B* (X(t)^2 + alpha (s-t) X(t))].

    Equality for every past B pins the conditional expectation of X(s) X(t) to
    X(t)^2 + alpha (s-t) X(t), which for nonzero alpha differs from
    E[X(s)] X(t) = X(t)^2: the obstruction to a phi-preserving conditional
    expectation.
    """
    if not 1 <= t_cells < s_cells <= grid.cells:
        raise ValueError("need grid times t < s inside the grid")
    _check_past_support(past, t_cells)
    b_star = past.adjoint()
    x_s = OperatorExpr.interval(grid, 1, s_cells)
    x_t = OperatorExpr.interval(grid, 1, t_cells)
    shift = Fraction(alpha) * grid.cell_length * (s_cells - t_cells)
    # X(t)^2 + alpha (s-t) X(t) = (X(t) + alpha (s-t)) X(t)
    x_t_vacuum = x_t.apply(FockVector.vacuum(grid), alpha)
    return (_vacuum_state([b_star, x_s], alpha, x_t_vacuum), _vacuum_state([b_star, x_t + shift], alpha, x_t_vacuum))


def kernel_vector(grid: IntervalGrid, alpha, depth: int) -> FockVector:
    """Truncated geometric kernel candidate sum_{n<=D} (-1/(alpha t))^n chi^{(x) n}."""
    if grid.cells != 1:
        raise ValueError("the kernel vector lives on a single-cell grid")
    a, t = Fraction(alpha), grid.total_time
    if a == 0:
        raise ValueError("alpha must be nonzero")
    ratio = -1 / (a * t)
    coef: dict[Word, Fraction] = {}
    value = Fraction(1)
    for n in range(depth + 1):
        coef[(1,) * n] = value
        value *= ratio
    return FockVector(grid, coef)


def kernel_residual(alpha, t, depth: int) -> float:
    """|| (1 + alpha X(t)) eta_D || / || eta_D || for the depth-D kernel sum."""
    grid = IntervalGrid(Fraction(t), 1)
    eta = kernel_vector(grid, alpha, depth)
    image = c_t_expr(grid, alpha).apply(eta, alpha)
    ratio_sq = image.norm_squared() / eta.norm_squared()
    return float(ratio_sq) ** 0.5


def kernel_norm_squared(alpha, t, depth: int) -> Fraction:
    grid = IntervalGrid(Fraction(t), 1)
    return kernel_vector(grid, alpha, depth).norm_squared()


def kernel_shift_vacuum_pairing(alpha, t, s_cells: int, cells: int, depth: int) -> Fraction:
    """<vacuum, (X(s) + s/(alpha t)) eta_D> on a refined grid; zero exactly.

    eta_D is re-expanded over the refined grid so that X(s), an earlier chunk
    of the interval, can act on it.
    """
    if not 1 <= s_cells < cells:
        raise ValueError("need 1 <= s_cells < cells")
    grid = IntervalGrid(Fraction(t), cells)
    a = Fraction(alpha)
    ratio = -1 / (a * Fraction(t))
    coef: dict[Word, Fraction] = {}
    value = Fraction(1)
    words: list[Word] = [()]
    for n in range(depth + 1):
        for w in words:
            coef[w] = coef.get(w, Fraction(0)) + value
        value *= ratio
        words = [w + (c,) for w in words for c in range(1, cells + 1)]
    eta = FockVector(grid, coef)
    s = Fraction(t) * s_cells / cells
    shifted = OperatorExpr.interval(grid, 1, s_cells) + OperatorExpr.identity(grid).scaled(s / (a * Fraction(t)))
    return shifted.apply(eta, alpha).vacuum_coefficient()
