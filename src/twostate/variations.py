"""Exact finite-N evaluation of the variation functionals of the process.

Every value here is a rational computed either from the mixed-moment engine
(the brute-force route) or from the constrained pair/singleton partition sum
(the closed combinatorial route); the two must agree and that agreement is the
module's primary oracle test, with the Fock model as a third route.

The partition sum never materialises a partition. The summand depends on a
partition only through five statistics (its join size with the adjacent
pairing, its block, singleton, inner free pair and inner adjacent pair
counts), so a memoized transfer over positions 1..2n counts how many kept
partitions share each statistic; the sum then runs over those few shapes
(76 at n = 6, 210 at n = 8, 2,676 at n = 16).

One correction relative to the usual statement of the partition sum: an inner
pair of sigma that is not one of the adjacent pairs always carries the full
secondary-variance weight beta, not beta - 1. Dropping that factor only
matters for beta != 1 and is confirmed against the brute-force expansion and
the Fock model.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .cumulants import IncrementFamilySpec, mixed_moment, moments_from_free_cumulants
from .fock import FockVector, IntervalGrid, OperatorExpr, state_psi_t
from .partitions import enumerate_set_partitions

BRUTEFORCE_WORD_CAP = 8
LEMMA_POWER_CAP = 16


@dataclass(frozen=True)
class VariationReport:
    """One row of a variation table: exact value against the predicted limit."""

    grid_count: int
    power: int
    value: Fraction
    predicted_limit: Fraction

    @property
    def gap(self) -> Fraction:
        return self.value - self.predicted_limit


def _check_power(k: int) -> None:
    if k < 1:
        raise ValueError(f"k must be positive, got {k}")


def variation_second_moment(family: IncrementFamilySpec, k: int) -> VariationReport:
    """phi[(sum_i X_i^k)^2] with its large-N limit R_k^2 + R_2k."""
    _check_power(k)
    if family.order < 2 * k:
        raise ValueError("family truncation order too small for 2k")
    whole = family.whole_interval.r_phi_psi
    predicted = whole[k - 1] ** 2 + whole[2 * k - 1]
    return VariationReport(family.count, k, _power_sum_moment(family, k, 2), predicted)


def psi_variation(family: IncrementFamilySpec, k: int) -> VariationReport:
    """psi[sum_i X_i^k] with its limit, the k-th whole-interval free cumulant."""
    _check_power(k)
    if family.order < k:
        raise ValueError("family truncation order too small for k")
    per_moment = moments_from_free_cumulants(family.per_increment.r_psi, k)[k - 1]
    value = family.count * per_moment
    predicted = family.whole_interval.r_psi[k - 1]
    return VariationReport(family.count, k, value, predicted)


def _brownian_shape(family: IncrementFamilySpec) -> tuple[Fraction, Fraction]:
    """(alpha, beta) for a family with quadratic two-state and low free cumulants."""
    per = family.per_increment
    step = family.total_time / family.count
    expected_outer = (Fraction(0), step) + (Fraction(0),) * (per.order - 2)
    if per.r_phi_psi != expected_outer:
        raise ValueError("family is not Brownian-shaped: two-state cumulants must be (0, T/N, 0, ...)")
    if any(c != 0 for c in per.r_psi[2:]):
        raise ValueError("family is not Brownian-shaped: free cumulants must vanish beyond order 2")
    alpha = per.r_psi[0] / step
    beta = per.r_psi[1] / step
    return alpha, beta


def _power_sum_moment(family: IncrementFamilySpec, k: int, m: int) -> Fraction:
    # phi[(sum_i X_i^k)^m]: group index tuples by their coincidence pattern, a
    # set partition of the m factor slots, weighted N_(number of blocks) by
    # exchangeability of the increments.
    if m == 0:
        return Fraction(1)
    total = Fraction(0)
    for pattern in enumerate_set_partitions(m):
        weight = math.perm(family.count, pattern.size)
        if weight == 0:
            continue
        labels = pattern.block_map()
        word = []
        for slot in range(1, m + 1):
            word.extend([labels[slot] + 1] * k)
        total += weight * mixed_moment(family, tuple(word), "phi")
    return total


def _qv_bruteforce(family: IncrementFamilySpec, n: int) -> Fraction:
    # Binomial expansion of (sum X_i^2 - T)^n.
    t = family.total_time
    total = Fraction(0)
    for j in range(n + 1):
        total += math.comb(n, j) * (-t) ** (n - j) * _power_sum_moment(family, 2, j)
    return total


_BASE = 2 * LEMMA_POWER_CAP + 1  # increments pack as base-_BASE digits: no count exceeds 2n
_ONE_MERGE, _ONE_SINGLE, _ONE_FREE, _ONE_TAU = (_BASE**i for i in range(4))


@lru_cache(maxsize=None)
def _rest(left: int, stack: tuple[int, ...], cur: int, just_opened: bool) -> dict[int, int]:
    # Packed (merges, singletons, inner free, inner tau pairs) still to come
    # with `left` positions to go, for every n. Each position is a singleton,
    # opens a pair or closes the innermost open one; no outer singleton or
    # outer tau pair is generated. The future depends only on the join
    # components (tau pairs merged along sigma's pairs) of the open pairs' tau
    # pairs (stack) and of this position's tau pair (cur; -1 at an even left,
    # where it is new), and on whether the top pair opened one position back.
    # Components are relabelled by first appearance, so equal futures share.
    if left == 0:
        return {0: 1}
    odd = left % 2 == 1  # as 2n is even: this position's 0-based index is odd
    room = left - len(stack)  # positions not needed to close the stack
    moves = []  # (stack after, component of the tau pair after, opened, increment)
    if stack:  # a block with no pair open around it is outer
        top, below = stack[-1], stack[:-1]
        is_tau = just_opened and odd
        if below or not is_tau:  # an outer free pair carries no weight
            step = (top != cur) * _ONE_MERGE + (_ONE_TAU if is_tau else _ONE_FREE if below else 0)
            moves.append((tuple(top if c == cur else c for c in below), top, False, step))
        if room >= 1:
            moves.append((stack, cur, False, _ONE_SINGLE))
    if room >= 2:
        moves.append((stack + (cur,), cur, True, 0))
    out: dict[int, int] = {}
    for after, pair, opened, step in moves:
        # the next position shares this one's tau pair exactly when left is even
        names = {c: i for i, c in enumerate(dict.fromkeys(after if odd else after + (pair,)))}
        tail = _rest(left - 1, tuple(names[c] for c in after), -1 if odd else names[pair], opened)
        for key, count in tail.items():
            out[key + step] = out.get(key + step, 0) + count
    return out


@lru_cache(maxsize=None)
def _lemma_shapes(n: int) -> tuple[tuple[tuple[int, int, int, int, int], int], ...]:
    """Shape keys (join size, blocks, singletons, inner free pairs, inner tau
    pairs) of the partitions the lemma sum keeps at power n, with counts.

    Those partitions are the non-crossing pair/singleton partitions sigma of
    {1..2n} with no outer singleton and no outer pair of tau, the adjacent
    pairing {(1,2),...,(2n-1,2n)}; join size is |join(sigma, tau)|. They are
    counted, never built, by the memoized transfer `_rest` over positions 1..2n.
    """
    _check_centered_power(2, n)  # the packing base holds counts up to 2 LEMMA_POWER_CAP
    shapes = []
    for key, count in _rest(2 * n, (), -1, False).items():
        merges, singles, free, tau = (key // _BASE**i % _BASE for i in range(4))
        blocks = singles + (2 * n - singles) // 2
        shapes.append(((n - merges, blocks, singles, free, tau), count))
    return tuple(sorted(shapes))


def _qv_lemma_sum(family: IncrementFamilySpec, n: int) -> Fraction:
    # Sum over the kept partitions sigma of
    #   W(join(sigma, tau)) step^|sigma| alpha^singletons
    #   beta^(inner free pairs) (beta - 1)^(inner tau pairs),
    # grouped by shape key, where W(p) = sum over pi >= p of N_(|pi|) is the
    # coarser weight; for an m-block p it is N^m.
    alpha, beta = _brownian_shape(family)
    big_n = family.count
    step = family.total_time / big_n
    total = Fraction(0)
    for (joined, blocks, singles, free, tau), count in _lemma_shapes(n):
        total += count * big_n**joined * step**blocks * alpha**singles * beta**free * (beta - 1) ** tau
    return total


def centered_qv_moment(family: IncrementFamilySpec, n: int, method: str = "bruteforce") -> Fraction:
    """phi[(sum_i X_i^2 - T)^n], by expansion or by the partition formula.

    "bruteforce" expands the power binomially into mixed moments (2n <= 8).
    "lemma_sum" sums over the non-crossing pair/singleton partitions of
    {1..2n} with no outer singleton and no outer adjacent pair, which a
    memoized left-to-right transfer counts by shape (join size with the
    adjacent pairing, blocks, singletons, inner free and inner adjacent pairs)
    without building them; each shape is weighted once (n <= 16,
    Brownian-shaped families only). Both methods need n >= 1.
    """
    if method == "bruteforce":
        if 2 * n > BRUTEFORCE_WORD_CAP:
            raise ValueError(f"bruteforce supports n <= {BRUTEFORCE_WORD_CAP // 2}")
        _check_centered_power(2, n)
        if family.order < 2 * n:
            raise ValueError("family truncation order too small")
        return _qv_bruteforce(family, n)
    if method == "lemma_sum":
        return centered_power_moment(family, 2, n)
    raise ValueError("method must be 'bruteforce' or 'lemma_sum'")


def sandwich_variation(grid: IntervalGrid, alpha, sandwiched: OperatorExpr, window_start_cell: int) -> VariationReport:
    """phi[| sum_{window} X_i A X_i - psi(A) (T - S) |^2], exact.

    A must be supported strictly before the window; refinement drives the
    value to zero, which is what determines the secondary state from the
    primary one.
    """
    if not 1 < window_start_cell <= grid.cells:
        raise ValueError("window must start after the first cell and inside the grid")
    if any(i >= window_start_cell for i in sandwiched.support_cells()):
        raise ValueError("sandwiched operator must live strictly before the window")
    psi_a = state_psi_t(sandwiched, alpha)
    window_length = grid.cell_length * (grid.cells - window_start_cell + 1)
    acc = OperatorExpr.identity(grid).scaled(-psi_a * window_length)
    for i in range(window_start_cell, grid.cells + 1):
        x_i = OperatorExpr.increment(grid, i)
        acc = acc + x_i * sandwiched * x_i
    image = acc.apply(FockVector.vacuum(grid), alpha)
    value = image.norm_squared()
    return VariationReport(grid.cells, 2, value, Fraction(0))


def _check_centered_power(k: int, m: int) -> None:
    _check_power(k)
    if m < 1:
        raise ValueError("n must be positive")
    if k == 2 and m > LEMMA_POWER_CAP:
        raise ValueError(f"lemma_sum supports n <= {LEMMA_POWER_CAP}")
    if k != 2 and k * m > BRUTEFORCE_WORD_CAP:
        raise ValueError(f"word length {k * m} exceeds the engine cap {BRUTEFORCE_WORD_CAP}")


def centered_power_moment(family: IncrementFamilySpec, k: int, m: int) -> Fraction:
    """phi[(sum_i X_i^k - c)^m] with c = T for k = 2 and c = 0 otherwise.

    k = 2 is the lemma sum at every m, for Brownian-shaped families only (brute
    force is its oracle, `centered_qv_moment`); other k expand mixed moments."""
    _check_centered_power(k, m)
    if k == 2:
        return _qv_lemma_sum(family, m)
    return _power_sum_moment(family, k, m)


def norm_2n_table(family: IncrementFamilySpec, k: int, n_max: int) -> list[float]:
    """||sum_i X_i^k - c||_{2n} = phi[(...)^{2n}]^{1/2n} for n = 1..n_max.

    Rows are `centered_power_moment`s. An even moment can be negative when
    beta != 1 (beta = -1, say), where no Fock model makes phi a positive
    state; such a row has no real root and raises ValueError.
    """
    _check_centered_power(k, 2 * n_max)  # the last row is the largest: fail before the first
    out = []
    for n in range(1, n_max + 1):
        power = centered_power_moment(family, k, 2 * n)
        if power < 0:
            raise ValueError(f"phi[(...)^{2 * n}] = {power} is negative at n={n}: no {2 * n}-norm")
        out.append(float(power) ** (1 / (2 * n)))
    return out
