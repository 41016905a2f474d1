"""Moment/cumulant transforms and the mixed-moment engine for increment families.

Two kinds of cumulants appear. Free cumulants reconstruct moments of the
secondary state as a sum over non-crossing partitions with one factor per
block. The two-state cumulants reconstruct moments of the primary state by the
same sum, except that outer blocks carry the two-state cumulant and inner
blocks the free one. Everything is exact rational arithmetic.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .partitions import _check_cap, _nc_table

Rationals = tuple[Fraction, ...]


def as_rationals(values) -> Rationals:
    return tuple(Fraction(v) for v in values)


def _free_sum(j: int, c) -> Fraction:
    # Sum over non-crossing partitions of {1..j} of the product of c[|block|-1].
    total = Fraction(0)
    for blocks, _ in _nc_table(j):
        term = Fraction(1)
        for block in blocks:
            term *= c[len(block) - 1]
            if term == 0:
                break
        total += term
    return total


def _two_state_sum(j: int, outer, inner) -> Fraction:
    # As _free_sum, but outer blocks carry outer[|block|-1], inner blocks inner[...].
    total = Fraction(0)
    for blocks, inner_flags in _nc_table(j):
        term = Fraction(1)
        for block, is_inner in zip(blocks, inner_flags):
            term *= inner[len(block) - 1] if is_inner else outer[len(block) - 1]
            if term == 0:
                break
        total += term
    return total


def _peel(moments, forward) -> Rationals:
    # Invert a moment formula one order at a time. Only the one-block
    # partition has a block of size j, so with a zero placeholder for the
    # unknown j-th cumulant the forward sum is the sum over all the others.
    c: list[Fraction] = []
    for j, m in enumerate(moments, start=1):
        c.append(Fraction(0))
        c[-1] = m - forward(j, c)
    return tuple(c)


def moments_from_free_cumulants(cumulants, n: int) -> Rationals:
    """Moments m_1..m_n of the distribution with the given free cumulants."""
    c = as_rationals(cumulants)
    if len(c) < n:
        raise ValueError(f"need {n} cumulants, got {len(c)}")
    _check_cap(n, None)
    return tuple(_free_sum(j, c) for j in range(1, n + 1))


def free_cumulants_from_moments(moments) -> Rationals:
    """Invert the free moment formula by peeling the one-block partition."""
    m = as_rationals(moments)
    _check_cap(len(m), None)
    return _peel(m, _free_sum)


def moments_from_two_state_cumulants(r_phi_psi, r_psi, n: int) -> Rationals:
    """Primary-state moments: outer blocks carry r_phi_psi, inner blocks r_psi."""
    outer_c = as_rationals(r_phi_psi)
    inner_c = as_rationals(r_psi)
    if len(outer_c) < n or len(inner_c) < n:
        raise ValueError(f"need {n} cumulants of each kind")
    _check_cap(n, None)
    return tuple(_two_state_sum(j, outer_c, inner_c) for j in range(1, n + 1))


def two_state_cumulants_from_moments(m_phi, r_psi) -> Rationals:
    """Recover r_phi_psi from primary moments and the free cumulants."""
    m = as_rationals(m_phi)
    inner_c = as_rationals(r_psi)
    if len(inner_c) < len(m):
        raise ValueError("free cumulant sequence shorter than the moments")
    _check_cap(len(m), None)
    return _peel(m, lambda j, outer_c: _two_state_sum(j, outer_c, inner_c))


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
    (alpha T, beta T, 0, ...), both of length max(order, 2).
    """
    a, t, b = Fraction(alpha), Fraction(total_time), Fraction(beta)
    if t <= 0:
        raise ValueError("total_time must be positive")
    zeros = (Fraction(0),) * max(0, order - 2)
    return (Fraction(0), t) + zeros, (a * t, b * t) + zeros


def brownian_family(alpha, total_time, count: int, order: int = 8, beta=1) -> IncrementFamilySpec:
    """Increment family of the two-state Brownian motion with drift alpha.

    beta scales the secondary-state variance; beta = 1 is the process proper,
    other values give algebraic relatives used by the variation bounds.
    """
    if order < 2:
        raise ValueError("order must be at least 2")
    whole = TwoStateElementSpec(*brownian_cumulants(alpha, total_time, order, beta))
    return IncrementFamilySpec.from_whole_interval(whole, count, total_time)


def mixed_moment(family: IncrementFamilySpec, word, state: str) -> Fraction:
    """Joint moment of a word of increments under "phi" or "psi".

    A block contributes only when the word is constant on it; mixed cumulants
    across distinct increments vanish by two-state free independence.
    """
    if state not in ("phi", "psi"):
        raise ValueError("state must be 'phi' or 'psi'")
    w = tuple(word)
    if not w:
        return Fraction(1)
    for idx in w:
        if not 1 <= idx <= family.count:
            raise ValueError(f"increment index {idx} out of range 1..{family.count}")
    spec = family.per_increment
    if len(w) > spec.order:
        raise ValueError("word longer than the truncation order")
    _check_cap(len(w), None)
    use_outer = state == "phi"
    total = Fraction(0)
    for blocks, inner_flags in _nc_table(len(w)):
        term = Fraction(1)
        for block, inner in zip(blocks, inner_flags):
            first = w[block[0] - 1]
            if any(w[x - 1] != first for x in block[1:]):
                term = Fraction(0)
                break
            if use_outer and not inner:
                term *= spec.r_phi_psi[len(block) - 1]
            else:
                term *= spec.r_psi[len(block) - 1]
            if term == 0:
                break
        total += term
    return total
