"""Moment/cumulant transforms and the mixed-moment engine for increment families.

Two kinds of cumulants appear. Free cumulants reconstruct moments of the
secondary state as a sum over non-crossing partitions with one factor per
block. The two-state cumulants reconstruct moments of the primary state by the
same sum, except that outer blocks carry the two-state cumulant and inner
blocks the free one. Everything is exact rational arithmetic.

The module holds two engines for these sums, and neither lists a partition.
The transforms solve their generating-series form order by order,
M_psi = 1 + sum_k r_k z^k M_psi^k and
M_phi = 1 + sum_k R_k z^k M_psi^(k-1) M_phi, split by the block that holds 1.
mixed_moment and suffix_moments split the sum over a word's non-crossing
partitions by the block that holds the first position. Both enter through
one prologue, `_graded`: length and order-cap checks, then the integer lift.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from operator import mul

Rationals = tuple[Fraction, ...]


def as_rationals(values) -> Rationals:
    return tuple(Fraction(v) for v in values)


# Highest order the series transforms accept and longest word mixed_moment
# takes, checked before any work: the power table of M_psi holds about
# order^2 / 2 coefficients. brownian_cumulants checks it too, so no consumer
# is handed a longer vector. At the cap (2-CPU VM), on cumulants with
# denominators up to 99, the forward transforms take 0.06-0.3 s, the inverses
# on their moments (700- to 1,500-bit denominators, graded by a 70- to 115-bit
# scale) 0.07-0.15 s, and mixed_moment on a one-letter word 1.6-2.2 s (15-23 ms
# on Brownian cumulants).
TRANSFORM_ORDER_CAP = 64


def _check_order(n: int) -> None:
    if n > TRANSFORM_ORDER_CAP:
        raise ValueError(f"order {n} exceeds the transform order cap {TRANSFORM_ORDER_CAP}")


def _graded(n: int, seqs) -> tuple[int, list[list[int]]]:
    # Check length n and the cap, then lift x_k to scale^k x_k as int lists,
    # order 0 first. The sums are homogeneous in this grading (a partition of
    # {1..k} carries scale^k), so they run on ints. The scale is built order
    # by order: with q the lcm of the order-k denominators, it takes on
    # q / gcd(q, scale^k), the part of q that scale^k misses. Then q divides
    # scale^k, and later steps only multiply the scale. A prime p with
    # v_p(scale) = s before step k leaves it with
    # s + max(0, v_p(q) - k s) <= max(s, v_p(q)), so the scale divides the lcm
    # of all the denominators. Moment denominators grow like a power of the
    # order, so on moments the scale can be n times shorter than that lcm.
    shortest = min(map(len, seqs))
    if shortest < n:
        raise ValueError(f"need {n} terms per sequence, got {shortest}")
    _check_order(n)
    seqs = [seq[:max(n, 0)] for seq in seqs]
    scale = 1
    for k, terms in enumerate(zip(*seqs), start=1):
        q = math.lcm(*(c.denominator for c in terms))
        scale *= q // math.gcd(q, scale**k)
    return scale, [[0] + [c.numerator * (scale**k // c.denominator) for k, c in enumerate(seq, 1)] for seq in seqs]


def _lifted(solve, n: int | None, *sequences) -> Rationals:
    # every transform: graded to length n (None: the first sequence's), solved on ints
    seqs = [as_rationals(seq) for seq in sequences]
    scale, graded = _graded(len(seqs[0]) if n is None else n, seqs)
    return tuple(Fraction(x, scale**k) for k, x in enumerate(solve(*graded)[1:], start=1))


def _free_series(known: list[int], invert: bool) -> tuple[list[int], list[int], list[list[int]]]:
    # Solve M = 1 + sum_k r_k z^k M^k order by order: given the cumulants
    # r_1..r_n, or with invert the moments m_1..m_n, graded and order 0 first,
    # return (m, r, powers) with m[0] = 1 and powers[k] the coefficients of
    # M^k, of degree up to n - k. At order j the one-block term is r_j; every
    # other partition is in rest = sum_{k<j} r_k [z^(j-k)] M^k, so
    # m_j = r_j + rest and r_j = m_j - rest.
    m, r = [1], [0]
    powers = [[1], m]
    for j, x in enumerate(known[1:], start=1):
        for k in range(2, j):
            powers[k].append(sum(map(mul, powers[k - 1], m[j - k::-1])))
        powers.append([1])
        rest = sum(r[k] * powers[k][j - k] for k in range(1, j))
        m.append(x if invert else x + rest)
        r.append(x - rest if invert else x)
    return m, r, powers


def _two_state_series(known: list[int], inner: list[int], invert: bool) -> tuple[list[int], list[int]]:
    # Solve M_phi = 1 + sum_k R_k z^k M_psi^(k-1) M_phi order by order, M_psi
    # from the free cumulants inner. M_phi is the reciprocal of 1 - G,
    # G = sum_k R_k z^k M_psi^(k-1), so phi_j = sum_{i<=j} g_i phi_(j-i).
    # Given R_1..R_n, or with invert phi_1..phi_n, return (phi, R). As in
    # _free_series, R_j enters phi_j once, through g_j.
    powers = _free_series(inner, invert=False)[2]
    phi, big_r, g = [1], [0], [0]
    for j, x in enumerate(known[1:], start=1):
        g_rest = sum(big_r[k] * powers[k - 1][j - k] for k in range(2, j))
        rest = g_rest + sum(map(mul, g[1:j], phi[j - 1:0:-1]))
        phi.append(x if invert else x + rest)
        big_r.append(x - rest if invert else x)
        g.append(big_r[j] + g_rest)
    return phi, big_r


def moments_from_free_cumulants(cumulants, n: int) -> Rationals:
    """Moments m_1..m_n of the distribution with the given free cumulants."""
    return _lifted(lambda r: _free_series(r, invert=False)[0], n, cumulants)


def free_cumulants_from_moments(moments) -> Rationals:
    """Invert the free moment formula one order at a time."""
    return _lifted(lambda m: _free_series(m, invert=True)[1], None, moments)


def moments_from_two_state_cumulants(r_phi_psi, r_psi, n: int) -> Rationals:
    """Primary-state moments: outer blocks carry r_phi_psi, inner blocks r_psi."""
    return _lifted(lambda outer, inner: _two_state_series(outer, inner, invert=False)[0], n, r_phi_psi, r_psi)


def two_state_cumulants_from_moments(m_phi, r_psi) -> Rationals:
    """Recover r_phi_psi from primary moments and the free cumulants."""
    return _lifted(lambda m, inner: _two_state_series(m, inner, invert=True)[1], None, m_phi, r_psi)


def cumulant_dilate(cumulants, scale) -> Rationals:
    """Cumulants of s*X: the k-th entry picks up s^k by multilinearity."""
    s = Fraction(scale)
    return tuple(c * s**k for k, c in enumerate(as_rationals(cumulants), start=1))


def cumulant_free_add(a, b) -> Rationals:
    """Cumulants of a sum of (two-state) freely independent elements."""
    left, right = as_rationals(a), as_rationals(b)
    if len(left) < len(right):
        left = left + (Fraction(0),) * (len(right) - len(left))
    if len(right) < len(left):
        right = right + (Fraction(0),) * (len(left) - len(right))
    return tuple(x + y for x, y in zip(left, right))


@dataclass(frozen=True)
class TwoStateElementSpec:
    """Cumulant data of one element: two-state and free sequences, same length."""

    r_phi_psi: Rationals
    r_psi: Rationals

    def __post_init__(self):
        object.__setattr__(self, "r_phi_psi", as_rationals(self.r_phi_psi))
        object.__setattr__(self, "r_psi", as_rationals(self.r_psi))
        if len(self.r_phi_psi) != len(self.r_psi):
            raise ValueError("the two cumulant sequences must have equal length")

    @property
    def order(self) -> int:
        return len(self.r_psi)

    def scaled(self, factor) -> "TwoStateElementSpec":
        f = Fraction(factor)
        return TwoStateElementSpec(
            tuple(c * f for c in self.r_phi_psi),
            tuple(c * f for c in self.r_psi),
        )


@dataclass(frozen=True)
class IncrementFamilySpec:
    """N stationary increments over [0, T) with prescribed per-increment cumulants.

    Mixed cumulants across distinct increments vanish (two-state free
    independence); per-increment cumulants are the whole-interval ones over N.
    """

    count: int
    per_increment: TwoStateElementSpec
    total_time: Fraction

    def __post_init__(self):
        object.__setattr__(self, "total_time", Fraction(self.total_time))
        if self.count < 1:
            raise ValueError("count must be positive")
        if self.total_time <= 0:
            raise ValueError("total_time must be positive")

    @staticmethod
    def from_whole_interval(whole: TwoStateElementSpec, count: int, total_time) -> "IncrementFamilySpec":
        if count < 1:
            raise ValueError("count must be positive")
        return IncrementFamilySpec(count, whole.scaled(Fraction(1, count)), total_time)

    @property
    def whole_interval(self) -> TwoStateElementSpec:
        return self.per_increment.scaled(self.count)

    @property
    def order(self) -> int:
        return self.per_increment.order


def brownian_cumulants(alpha, total_time, order: int, beta=1) -> tuple[Rationals, Rationals]:
    """Whole-interval (two-state, free) cumulants of the process over [0, T).

    The two-state sequence is (0, T, 0, ...) and the free one
    (alpha T, beta T, 0, ...), both of length max(order, 2). An order past
    TRANSFORM_ORDER_CAP is refused before any vector is built.
    """
    a, t, b = Fraction(alpha), Fraction(total_time), Fraction(beta)
    if t <= 0:
        raise ValueError("total_time must be positive")
    _check_order(order)
    zeros = (Fraction(0),) * max(0, order - 2)
    return (Fraction(0), t) + zeros, (a * t, b * t) + zeros


def table_digits(alpha, total_time, order: int, beta=1) -> int:
    """Most decimal digits of a numerator or denominator in the moment tables
    of `brownian_cumulants`, phi and psi at orders 1..order.

    Both tables have cumulants only at orders 1 and 2, psi the free
    (alpha T, beta T) and phi also the two-state (0, T), so moment n sums over
    the non-crossing partitions of n points into singletons and pairs: fewer
    than 3^n terms alpha^s beta^p T^m with s, m <= n and p <= n // 2. Over the
    common denominator b^n d^n f^(n // 2), where alpha = a/b, T = c/d and
    beta = e/f, each term's numerator is at most
    H(alpha)^n H(T)^n H(beta)^(n // 2), with H(p/q) = max(|p|, q).
    """
    def log_height(x: Fraction) -> float:
        return math.log10(max(abs(x.numerator), x.denominator))

    a, t, b = Fraction(alpha), Fraction(total_time), Fraction(beta)
    return 1 + math.floor(order * (math.log10(3) + log_height(a) + log_height(t)) + order // 2 * log_height(b))


def brownian_family(alpha, total_time, count: int, order: int = 8, beta=1) -> IncrementFamilySpec:
    """Increment family of the two-state Brownian motion with drift alpha.

    beta scales the secondary-state variance; beta = 1 is the process proper,
    other values give algebraic relatives used by the variation bounds.
    """
    if order < 2:
        raise ValueError("order must be at least 2")
    whole = TwoStateElementSpec(*brownian_cumulants(alpha, total_time, order, beta))
    return IncrementFamilySpec.from_whole_interval(whole, count, total_time)


def _word_sum(word, outer: list[int], inner: list[int]) -> list[int]:
    # The block V that holds the first position takes only positions with
    # its letter; the positions in V's gaps form inner blocks, those after its
    # last element stay at its level. nested[a][b] sums positions a..b-1 as
    # inner blocks, top[a] positions a..n-1 at the top level, and for the
    # first position i, ends[v][k] sums the gap products over the blocks
    # i = v_1 < ... < v_k = v. The cumulants are graded integers, order 0
    # first, and a block stops growing past the highest nonzero order.
    n = len(word)
    height = max((k for k in range(1, n + 1) if outer[k] or inner[k]), default=1)
    nested = [[1] * (n + 1) for _ in range(n + 1)]
    top = [1] * (n + 1)
    for i in range(n - 1, -1, -1):
        ends = {i: [0, 1] + [0] * (height - 1)}
        for v in range(i + 1, n):
            if word[v] == word[i]:
                ends[v] = [0, 0] + [sum(sizes[k - 1] * nested[u + 1][v] for u, sizes in ends.items())
                                    for k in range(2, height + 1)]
        closed = [(v, sum(map(mul, sizes, inner)), sum(map(mul, sizes, outer))) for v, sizes in ends.items()]
        for j in range(i + 1, n + 1):
            nested[i][j] = sum(as_inner * nested[v + 1][j] for v, as_inner, _ in closed if v < j)
        top[i] = sum(as_outer * top[v + 1] for v, _, as_outer in closed)
    return top


def _word_top(family: IncrementFamilySpec, word, state: str) -> tuple[int, list[int]]:
    # both word entries: state and index checks, the graded lift, then _word_sum's top row and its scale
    if state not in ("phi", "psi"):
        raise ValueError("state must be 'phi' or 'psi'")
    w = tuple(word)
    for idx in w:
        if not 1 <= idx <= family.count:
            raise ValueError(f"increment index {idx} out of range 1..{family.count}")
    spec = family.per_increment
    scale, graded = _graded(len(w), (spec.r_phi_psi if state == "phi" else spec.r_psi, spec.r_psi))
    return scale, _word_sum(w, *graded)


def mixed_moment(family: IncrementFamilySpec, word, state: str) -> Fraction:
    """Joint moment of a word of increments under "phi" or "psi".

    The sum over the word's non-crossing partitions, split by the block that
    holds the first position, in time polynomial in the word length. Only
    blocks constant on the word count, since mixed cumulants across distinct
    increments vanish by two-state free independence. A word longer than the
    family's order or TRANSFORM_ORDER_CAP is refused before any work.
    """
    scale, top = _word_top(family, word, state)
    return Fraction(top[0], scale ** (len(top) - 1))


def suffix_moments(family: IncrementFamilySpec, word, state: str) -> Rationals:
    """mixed_moment of each nonempty suffix word[i:], i = 0, 1, ..., from one run of its recursion."""
    scale, top = _word_top(family, word, state)
    return tuple(Fraction(x, scale**k) for k, x in zip(range(len(top) - 1, 0, -1), top))
