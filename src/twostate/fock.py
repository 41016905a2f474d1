"""Exact sparse simulation of the full-Fock-space model of the process.

The interval [0, T) is cut into N cells. Vectors are finite rational
combinations of words over cell indices (the empty word is the vacuum), and
the increment over cell i acts by creation, an alpha * cell-length multiple of
the identity, and annihilation against the first letter. The single deliberate
asymmetry: on the vacuum the operator only creates. No truncation happens
anywhere, so every state evaluation below is exact.

Vectors and operator expressions share one format, int numerators over one
common denominator, and the action and the expression arithmetic run on it.
Fractions appear only at the edges: the public constructors and the read-outs
(`FockVector.coef` and `OperatorExpr.terms` are reduced); the constructors
also refuse a letter that is not a cell, so words are checked once, at entry.
alpha and the cell length enter the action as numerator/denominator pairs,
and nothing is kept between passes. The product checks never expand an
operator product: they apply its factors right to left, and the freeness
check reads every psi value off one seeded vector, (1 + alpha X(T)) Omega.
The martingale and conditional-expectation checks read phi[B* Y] as
<B Omega, Y Omega>, so no adjoint of the past B is applied. An expression is
applied factored on the leading letters of its words; letters with equal
tails share one pass over the tail's image, so X(I)^p costs p passes.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

Word = tuple[int, ...]
KERNEL_DEPTH_CAP = 600  # a kernel-residual table rebuilds eta_d for every d, so it is cubic in depth
# Most grid cells the Fock commands accept, checked before any work. Whole
# processes at default flags, alpha = 1/2 and T = 1, on a 2-CPU VM:
# martingale-check takes 0.5-0.7 s (18 MB) at N = 8, and freeness-check
# 1.5-2.7 s (17 MB). The moment tables run on one cell whatever N is.
CELL_CAP = 8
# Highest fock-moments --degree. The one-cell table gains a word per step and
# its numerators grow with every step: whole processes with 4-digit rationals
# took 0.44 / 1.0 / 2.2 s at degree 200 / 300 / 400, and at 600 the output
# passes Python's 4,300-digit int-to-str limit.
TABLE_DEGREE_CAP = 200
# Highest martingale-check --n-max, for every N: at N = 8, --n-max 4 takes
# 0.8 s and 5 takes 3.4-3.7 s (28 MB); at N = 3, 8 takes 0.5-0.6 s and 10
# takes 3.5 s (45 MB).
MARTINGALE_DEGREE_CAP = 4
# Most products freeness-check walks: 3,376 at N = 8, --max-len 3 (1.5-2.7 s
# whole process; the 47,280 of --max-len 4 took 38 s in one process with the
# cap lifted); at N = 2, 2,044 at --max-len 9 (2.8-4.4 s).
FREENESS_PRODUCT_CAP = 3376


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

    @cached_property
    def cell_length(self) -> Fraction:
        return self.total_time / self.cells


class _Sparse:
    """Finite map from words to rationals: nonzero int numerators `ints` over one positive `den`."""

    __slots__ = ("grid", "ints", "den")

    def __init__(self, grid: IntervalGrid, coef: dict[Word, Fraction] | None = None):
        coef = {w: Fraction(c) for w, c in (coef or {}).items() if c}
        bad = [i for w in coef for i in w if not 1 <= i <= grid.cells]
        if bad:
            raise ValueError(f"cell index {min(bad)} out of range 1..{grid.cells}")
        self.grid = grid
        self.den = math.lcm(*(c.denominator for c in coef.values()))
        self.ints = {w: c.numerator * (self.den // c.denominator) for w, c in coef.items()}

    @classmethod
    def _from_ints(cls, grid: IntervalGrid, ints: dict[Word, int], den: int):
        # internal: ints / den, zero numerators dropped
        v = cls.__new__(cls)
        v.grid = grid
        v.ints = {w: n for w, n in ints.items() if n}
        v.den = den
        return v

    def _fractions(self) -> dict[Word, Fraction]:
        return {w: Fraction(n, self.den) for w, n in self.ints.items()}

    def __add__(self, other):
        if self.grid != other.grid:
            raise ValueError("grid mismatch")
        out = dict(self.ints)
        return self._from_ints(self.grid, out, _accumulate(out, self.den, 1, other.ints, other.den))

    def scaled(self, factor):
        f = Fraction(factor)
        return self._from_ints(self.grid, {w: n * f.numerator for w, n in self.ints.items()}, self.den * f.denominator)


class FockVector(_Sparse):
    """Finite map from cell words to rationals, read out reduced by `coef`."""

    __slots__ = ()
    # bench/tracer.py wraps the methods found in each class's own body
    __add__, scaled = _Sparse.__add__, _Sparse.scaled
    coef = property(_Sparse._fractions)

    @staticmethod
    def vacuum(grid: IntervalGrid) -> "FockVector":
        return FockVector._from_ints(grid, {(): 1}, 1)

    def vacuum_coefficient(self) -> Fraction:
        return Fraction(self.ints.get((), 0), self.den)

    def inner(self, other: "FockVector") -> Fraction:
        """<v, w> = sum over common words of coef*coef*(cell length)^length."""
        if self.grid != other.grid:
            raise ValueError("grid mismatch")
        small, large = (self.ints, other.ints) if len(self.ints) <= len(other.ints) else (other.ints, self.ints)
        # every ell^len = p^len / q^len brought over q^top
        p, q = self.grid.cell_length.numerator, self.grid.cell_length.denominator
        top = max(map(len, small), default=0)
        total = sum(n * large[w] * p ** len(w) * q ** (top - len(w)) for w, n in small.items() if w in large)
        return Fraction(total, q**top * self.den * other.den)

    def norm_squared(self) -> Fraction:
        return self.inner(self)

    def __sub__(self, other: "FockVector") -> "FockVector":
        return self + other.scaled(-1)

    def __eq__(self, other) -> bool:
        if isinstance(other, FockVector):
            return (self.grid == other.grid and self.ints.keys() == other.ints.keys()
                    and all(n * other.den == other.ints[w] * self.den for w, n in self.ints.items()))
        return NotImplemented


def _act(ell: Fraction, alpha: Fraction, letters: set[int], ints: dict[Word, int], den: int) -> tuple[dict[Word, int], int]:
    # Apply sum_{i in letters} X(I_i) once to the vector ints / den, each cell
    # of length ell = p/q: creation of each i, the drift alpha * ell * |letters|
    # = num / (b q), and annihilation of a leading i; on the vacuum only
    # creation fires. Coefficients stay Python ints: the multipliers are
    # scaled by the lcm of their reduced denominators, so the result is
    # (ints, den * scale). Nothing is kept between passes. The result may hold
    # zero coefficients.
    p, q = ell.numerator, ell.denominator
    num, bq = alpha.numerator * p * len(letters), alpha.denominator * q
    g = math.gcd(num, bq)
    scale = math.lcm(bq // g, q)
    down, drift = p * scale // q, num // g * (scale // (bq // g))
    # creation never forms the same word twice, so it fills the dict first
    out = {(i,) + w: scale * c for w, c in ints.items() for i in letters}
    for w, c in ints.items():
        if w:
            if drift:
                out[w] = out.get(w, 0) + drift * c
            if w[0] in letters:
                out[w[1:]] = out.get(w[1:], 0) + down * c
    return out, den * scale


def _accumulate(acc: dict[Word, int], acc_den: int, factor: int, ints: dict[Word, int], den: int) -> int:
    # acc / acc_den += factor * ints / den in place; returns the new denominator
    new_den = math.lcm(acc_den, den)
    if new_den != acc_den:
        for w in acc:
            acc[w] *= new_den // acc_den
    up = factor * (new_den // den)
    for w, n in ints.items():
        acc[w] = acc.get(w, 0) + up * n
    return new_den


def apply_increment(grid: IntervalGrid, i: int, alpha, v: FockVector) -> FockVector:
    """Apply the increment over cell i: creation + alpha*length + annihilation.

    On the vacuum only the creation term fires; that branch is what pushes the
    first Jacobi beta of the primary law to zero.
    """
    return OperatorExpr.increment(grid, i).apply(v, alpha)


class OperatorExpr(_Sparse):
    """Formal polynomial in the cell increments: map from generator words to rationals.

    A word (g1, g2, ..., gk) denotes the product X(I_g1) X(I_g2) ... X(I_gk),
    applied to vectors right to left. Stored as FockVector is, read out
    reduced by `terms`.
    """

    __slots__ = ()
    scaled = _Sparse.scaled
    terms = property(_Sparse._fractions)

    @staticmethod
    def identity(grid: IntervalGrid) -> "OperatorExpr":
        return OperatorExpr._from_ints(grid, {(): 1}, 1)

    @staticmethod
    def increment(grid: IntervalGrid, i: int) -> "OperatorExpr":
        return OperatorExpr(grid, {(i,): 1})

    @staticmethod
    def interval(grid: IntervalGrid, first_cell: int, last_cell: int) -> "OperatorExpr":
        """X over the contiguous cells first_cell..last_cell (inclusive)."""
        if not 1 <= first_cell <= last_cell <= grid.cells:
            raise ValueError("bad cell range")
        return OperatorExpr._from_ints(grid, {(i,): 1 for i in range(first_cell, last_cell + 1)}, 1)

    @staticmethod
    def whole_interval(grid: IntervalGrid) -> "OperatorExpr":
        return OperatorExpr.interval(grid, 1, grid.cells)

    def support_cells(self) -> frozenset[int]:
        return frozenset(i for w in self.ints for i in w)

    def __add__(self, other) -> "OperatorExpr":
        return _Sparse.__add__(self, self._coerce(other))

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
        out: dict[Word, int] = {}
        for wa, na in self.ints.items():
            for wb, nb in other.ints.items():
                out[wa + wb] = out.get(wa + wb, 0) + na * nb
        return OperatorExpr._from_ints(self.grid, out, self.den * other.den)

    def __rmul__(self, other) -> "OperatorExpr":
        return self.scaled(other)

    def __pow__(self, exponent: int) -> "OperatorExpr":
        if exponent < 0:
            raise ValueError("negative exponent")
        result = OperatorExpr.identity(self.grid)
        for _ in range(exponent):
            result = result * self
        return result

    def adjoint(self) -> "OperatorExpr":
        """Reverse every word; the generators are self-adjoint and coefficients real."""
        return OperatorExpr._from_ints(self.grid, {w[::-1]: n for w, n in self.ints.items()}, self.den)

    def _coerce(self, other) -> "OperatorExpr":
        if isinstance(other, OperatorExpr):
            return other
        return OperatorExpr.identity(self.grid).scaled(other)

    def apply(self, v: FockVector, alpha) -> FockVector:
        """E v, with E factored on the leading letters of its words.

        E = c_() + sum_i X_i E_i, so E v = c_() v + sum_i X_i (E_i v), and
        each tail E_i is applied by the same rule. Letters with equal tails
        share one `_act` pass over the tail's image: a sum of increments is
        one pass and X(I)^p is p passes. The terms are summed in integers
        and divided by the expression's denominator once, at the end.
        """
        if v.grid != self.grid:
            raise ValueError("grid mismatch")
        ints, den = _image(self.grid.cell_length, Fraction(alpha), v, self.ints.items())
        return FockVector._from_ints(self.grid, ints, den * self.den)


def _image(ell: Fraction, alpha: Fraction, v: FockVector, terms) -> tuple[dict[Word, int], int]:
    # E v as (ints, den) for the expression E with these (word, int
    # coefficient) pairs; letters whose tails are equal share one _act pass
    const = 0
    tails: dict[int, dict[Word, int]] = {}
    for w, c in terms:
        if w:
            tails.setdefault(w[0], {})[w[1:]] = c
        else:
            const = c
    groups: dict[frozenset, set[int]] = {}
    for i, tail in tails.items():
        groups.setdefault(frozenset(tail.items()), set()).add(i)
    if not groups and const == 1:
        return v.ints, v.den  # the identity: read only from here on
    out, den = {}, 1
    for tail, letters in groups.items():
        acted, acted_den = _act(ell, alpha, letters, *_image(ell, alpha, v, tail))
        if out:
            den = _accumulate(out, den, 1, acted, acted_den)
        else:
            out, den = acted, acted_den
    if const:
        den = _accumulate(out, den, const, v.ints, v.den)
    return out, den


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


def table_digits(alpha, total_time, degree: int) -> int:
    """Most decimal digits of a numerator or denominator in the phi and psi tables.

    phi_n sums at most 3^n Motzkin paths, each alpha^j T^m with j <= n - 2 and
    m <= n, so psi_n = phi_n + alpha phi_(n+1) sums at most 2 * 3^(n+1) terms
    with j <= n and m <= n + 1. Over the common denominator b^n d^(n+1), where
    alpha = a/b and T = c/d, each term's numerator is at most
    H(alpha)^n H(T)^(n+1), with H(p/q) = max(|p|, q).
    """
    def log_height(x: Fraction) -> float:
        return math.log10(max(abs(x.numerator), x.denominator))

    a, t = Fraction(alpha), Fraction(total_time)
    return 1 + math.floor(math.log10(2) + (degree + 1) * (math.log10(3) + log_height(t)) + degree * log_height(a))


def phi_moment_table(grid: IntervalGrid, alpha, degree: int) -> tuple[Fraction, ...]:
    """phi[X(T)^n] for n = 1..degree, exact.

    X(T) creates and annihilates chi_[0,T) and adds alpha T, so the words it
    spans from the vacuum, and so every moment, are the same on each
    refinement of [0, T): the table is computed on one cell, whatever grid.
    """
    a = Fraction(alpha)
    ints, den = {(): 1}, 1
    out = []
    for _ in range(degree):
        ints, den = _act(grid.total_time, a, {1}, ints, den)
        out.append(Fraction(ints.get((), 0), den))
    return tuple(out)


def psi_moment_table(grid: IntervalGrid, alpha, degree: int) -> tuple[Fraction, ...]:
    """psi_T[X(T)^n] = phi[X(T)^n] + alpha phi[X(T)^(n+1)] for n = 1..degree, exact:
    psi_T(A) = phi(A (1 + alpha X(T))) applied by linearity."""
    a = Fraction(alpha)
    phi = phi_moment_table(grid, alpha, degree + 1)
    return tuple(phi_n + a * phi_next for phi_n, phi_next in zip(phi, phi[1:]))


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
        if not 1 <= lo <= hi <= grid.cells:
            raise ValueError("bad cell range")
        words = [w + x for w in words for x in itertools.product(range(lo, hi + 1), repeat=max(degree, 0))]
    return FockVector._from_ints(grid, dict.fromkeys(words, 1), 1)


@dataclass(frozen=True)
class FreenessReport:
    """Both sides of the two-state freeness factorization for one product."""

    psi_of_product: Fraction
    phi_of_product: Fraction
    phi_factors: tuple[Fraction, ...]

    @property
    def ok(self) -> bool:
        return self.psi_of_product == 0 and self.phi_of_product == math.prod(self.phi_factors)


def freeness_check(grid: IntervalGrid, alpha, factors) -> FreenessReport:
    """Verify the definition of two-state free independence on one product.

    Each factor must be a polynomial in a single increment, consecutive
    factors in different increments, every factor centered for the secondary
    state. Centering is checked, never applied silently. Every psi value is
    read off one seeded vector, (1 + alpha X(T)) Omega."""
    factors = list(factors)
    seed = c_t_expr(grid, alpha).apply(FockVector.vacuum(grid), alpha)
    supports = []
    for k, f in enumerate(factors):
        cells = f.support_cells()
        if len(cells) != 1:
            raise ValueError(f"factor {k} is not a polynomial in a single increment")
        supports.append(next(iter(cells)))
        centered = f.apply(seed, alpha).vacuum_coefficient()
        if centered != 0:
            raise ValueError(f"factor {k} is not psi-centered (psi value {centered})")
    for a, b in zip(supports, supports[1:]):
        if a == b:
            raise ValueError("consecutive factors use the same increment")
    return FreenessReport(
        psi_of_product=_vacuum_state(factors, alpha, seed),
        phi_of_product=_vacuum_state(factors, alpha, FockVector.vacuum(grid)),
        phi_factors=tuple(state_phi(f, alpha) for f in factors),
    )


def _past_vacuum(grid: IntervalGrid, alpha, t_cells: int, s_cells: int, past: OperatorExpr) -> FockVector:
    # B Omega for a past B: grid times t < s, and B supported before t. Then
    # phi[B* Y] = <Omega, B* Y Omega> = <B Omega, Y Omega>, so no B* is built.
    if not 1 <= t_cells < s_cells <= grid.cells:
        raise ValueError("need grid times t < s inside the grid")
    if any(i > t_cells for i in past.support_cells()):
        raise ValueError(f"operator touches increments at or beyond cell {t_cells}")
    return past.apply(FockVector.vacuum(grid), alpha)


def martingale_check(grid: IntervalGrid, alpha, degree: int, t_cells: int, s_cells: int, past: OperatorExpr) -> tuple[Fraction, Fraction]:
    """(phi[B* Q_n(X(s), s)], phi[B* Q_n(X(t), t)]) for B supported before t."""
    b_vacuum = _past_vacuum(grid, alpha, t_cells, s_cells, past)
    vacuum = FockVector.vacuum(grid)
    q_s, q_t = (_orthogonal(grid, 1, cells, degree, alpha, "q", vacuum, lambda x, u: x.apply(u, alpha))
                for cells in (s_cells, t_cells))
    return (b_vacuum.inner(q_s), b_vacuum.inner(q_t))


def cond_exp_obstruction(grid: IntervalGrid, alpha, t_cells: int, s_cells: int, past: OperatorExpr) -> tuple[Fraction, Fraction]:
    """Both sides of phi[B* X(s) X(t)] = phi[B* (X(t)^2 + alpha (s-t) X(t))].

    Equality for every past B pins the conditional expectation of X(s) X(t) to
    X(t)^2 + alpha (s-t) X(t), which for nonzero alpha differs from
    E[X(s)] X(t) = X(t)^2: the obstruction to a phi-preserving conditional
    expectation.
    """
    b_vacuum = _past_vacuum(grid, alpha, t_cells, s_cells, past)
    x_s = OperatorExpr.interval(grid, 1, s_cells)
    x_t = OperatorExpr.interval(grid, 1, t_cells)
    shift = Fraction(alpha) * grid.cell_length * (s_cells - t_cells)
    # X(t)^2 + alpha (s-t) X(t) = (X(t) + alpha (s-t)) X(t)
    x_t_vacuum = x_t.apply(FockVector.vacuum(grid), alpha)
    return (b_vacuum.inner(x_s.apply(x_t_vacuum, alpha)), b_vacuum.inner((x_t + shift).apply(x_t_vacuum, alpha)))


def _eta(grid: IntervalGrid, alpha, depth: int) -> FockVector:
    # eta_D = sum_{n<=D} r^n chi^{(x)n} with r = -1/(alpha T) = u/d: a word of
    # length n gets u^n d^(D-n), all over d^D
    a = Fraction(alpha)
    if a == 0:
        raise ValueError("alpha must be nonzero")
    ratio = -1 / (a * grid.total_time)
    u, d = ratio.numerator, ratio.denominator
    ints = {}
    for n in range(depth + 1):
        ints.update(dict.fromkeys(elementary_tensor(grid, [((1, grid.cells), n)]).ints, u**n * d ** (depth - n)))
    return FockVector._from_ints(grid, ints, d**depth)


def kernel_vector(grid: IntervalGrid, alpha, depth: int) -> FockVector:
    """Truncated geometric kernel candidate sum_{n<=D} (-1/(alpha t))^n chi^{(x) n}."""
    if grid.cells != 1:
        raise ValueError("the kernel vector lives on a single-cell grid")
    return _eta(grid, alpha, depth)


def kernel_residual(alpha, t, depth: int) -> float:
    """|| (1 + alpha X(t)) eta_D || / || eta_D || for the depth-D kernel sum;
    past float range it returns 0.0."""
    grid = IntervalGrid(Fraction(t), 1)
    eta = kernel_vector(grid, alpha, depth)
    image = c_t_expr(grid, alpha).apply(eta, alpha)
    ratio_sq = image.norm_squared() / eta.norm_squared()
    return float(ratio_sq) ** 0.5


def kernel_shift_vacuum_pairing(alpha, t, s_cells: int, cells: int, depth: int) -> Fraction:
    """<vacuum, (X(s) + s/(alpha t)) eta_D> on a refined grid; zero exactly.

    eta_D is re-expanded over the refined grid so that X(s), an earlier chunk
    of the interval, can act on it.
    """
    if not 1 <= s_cells < cells:
        raise ValueError("need 1 <= s_cells < cells")
    grid = IntervalGrid(Fraction(t), cells)
    eta = _eta(grid, alpha, depth)
    s = Fraction(t) * s_cells / cells
    shifted = OperatorExpr.interval(grid, 1, s_cells) + OperatorExpr.identity(grid).scaled(s / (Fraction(alpha) * Fraction(t)))
    return shifted.apply(eta, alpha).vacuum_coefficient()
