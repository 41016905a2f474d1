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
(76 at n = 6, 210 at n = 8, 2,676 at n = 16), each weighted in integers over
one common denominator, and is reduced to a Fraction once.

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

from .cumulants import TRANSFORM_ORDER_CAP, IncrementFamilySpec, mixed_moment, moments_from_free_cumulants
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
    # coarser weight; for an m-block p it is N^m. With step = p/q, alpha = a/b
    # and beta = c/d, blocks and singletons are at most 2n and inner pairs at
    # most n, so every shape's term is an int over q^2n b^2n d^n, reduced once.
    alpha, beta = _brownian_shape(family)
    big_n = family.count
    step = family.total_time / big_n

    def powers(top: int, num: int, den: int = 1) -> list[int]:
        # num^i den^(top - i) for i = 0..top
        return [num**i * den ** (top - i) for i in range(top + 1)]

    joins = powers(n, big_n)
    steps = powers(2 * n, step.numerator, step.denominator)
    alphas = powers(2 * n, alpha.numerator, alpha.denominator)
    c, d = beta.numerator, beta.denominator
    betas, shifted, pads = powers(n, c), powers(n, c - d), powers(n, d)
    total = sum(
        count * joins[joined] * steps[blocks] * alphas[singles] * betas[free] * shifted[tau] * pads[n - free - tau]
        for (joined, blocks, singles, free, tau), count in _lemma_shapes(n)
    )
    return Fraction(total, step.denominator ** (2 * n) * alpha.denominator ** (2 * n) * d**n)


def centered_qv_moment(family: IncrementFamilySpec, n: int, method: str = "bruteforce") -> Fraction:
    """phi[(sum_i X_i^2 - T)^n], by expansion or by the partition formula.

    "bruteforce" expands the power binomially into mixed moments (2n <= 8).
    "lemma_sum" sums over the non-crossing pair/singleton partitions of
    {1..2n} with no outer singleton and no outer adjacent pair, which a
    memoized left-to-right transfer counts by shape (join size with the
    adjacent pairing, blocks, singletons, inner free and inner adjacent pairs)
    without building them; each shape is weighted once, in integers, and the
    sum is reduced once (n <= 16, Brownian-shaped families only). Both
    methods need n >= 1.
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


def table_digits(alpha, total_time, count: int, power: int, centered: bool, beta=1) -> int:
    """Most decimal digits of a numerator or denominator in a variation-table
    row at N = count: value, limit and gap of phi[(sum_i X_i^k)^2] at k = power,
    or of phi[(sum_i X_i^2 - T)^n] at n = power when centered.

    With m = power, both values sum over non-crossing partitions of 2m points
    into singletons and pairs whose first block is an outer pair, fewer than
    3^(2m) of them. One with 2j singletons, j < m, has m + j blocks and m - j
    pairs, one of them outer, so it contributes
    N^e (T/N)^(m + j) alpha^(2j) times at most m - j - 1 factors beta or
    beta - 1. The k column has N^e = N or N(N - 1) and adds the limit T or
    T^2; the centered sum has e the join size, between j and m. Write
    alpha = a/b, T = c/d and beta = u/f. A term is then at most
    N^(e - m - j) |T|^(m + j) |alpha|^(2j) B^(m - j - 1),
    B = max(1, |beta|, |beta - 1|), and its denominator divides
    D = d^(2m - 1) N^x (b^2 f/g)^(m - 1), g = gcd(b, f), with x = 2m - 2 for
    the k column and m when centered. So a printed denominator is at most D and
    a numerator at most D times the sum of the terms, whose logarithm is
    linear in j: largest at j = 0 or j = m - 1. Inputs no table accepts
    (N < 1, T <= 0, power < 1, 2k past TRANSFORM_ORDER_CAP, n past
    LEMMA_POWER_CAP) get 0, for the family and power checks to refuse with
    their own messages.
    """
    a, t, u = Fraction(alpha), Fraction(total_time), Fraction(beta)
    m = power
    if count < 1 or t <= 0 or m < 1 or m > (LEMMA_POWER_CAP if centered else TRANSFORM_ORDER_CAP // 2):
        return 0

    def log_abs(x: Fraction) -> float:
        return math.log10(abs(x.numerator)) - math.log10(x.denominator) if x else -math.inf

    log_n, log_t, log_b = math.log10(count), log_abs(t), max(0.0, log_abs(u), log_abs(u - 1))
    ends = [m * log_t + (m - 1) * log_b]  # j = 0
    if m > 1 and a:  # j = m - 1
        ends.append((2 * m - 1) * log_t + (2 * m - 2) * log_abs(a) - (m - 1) * log_n)
    log_terms = math.log10(2) + 2 * m * math.log10(3) + ((0 if centered else 2 - m) * log_n) + max(ends)
    b, f = a.denominator, u.denominator
    log_den = (2 * m - 1) * math.log10(t.denominator) + (m if centered else 2 * m - 2) * log_n
    log_den += (m - 1) * math.log10(b * b * (f // math.gcd(b, f)))
    return 1 + math.floor(log_den + max(0.0, log_terms) + 1e-9)  # slack for the rounding of the logarithms


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
    state; such a row has no real root and raises ValueError. A row past the
    float range raises OverflowError.
    """
    _check_centered_power(k, 2 * n_max)  # the last row is the largest: fail before the first
    out = []
    for n in range(1, n_max + 1):
        power = centered_power_moment(family, k, 2 * n)
        if power < 0:
            raise ValueError(f"phi[(...)^{2 * n}] = {power} is negative at n={n}: no {2 * n}-norm")
        try:
            out.append(float(power) ** (1 / (2 * n)))
        except OverflowError:
            raise OverflowError(f"phi[(...)^{2 * n}] is past the float range at n={n}: no {2 * n}-norm") from None
    return out
