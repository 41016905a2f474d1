"""Exact finite-N evaluation of the variation functionals of the process.

Every value here is a rational computed either from the mixed-moment engine
(the brute-force route) or from the constrained pair/singleton partition sum
(the closed combinatorial route); the two must agree and that agreement is the
module's primary oracle test.

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

from .cumulants import IncrementFamilySpec, mixed_moment, moments_from_free_cumulants
from .fock import FockVector, IntervalGrid, OperatorExpr, state_psi_t
from .partitions import (
    _classify_unchecked,
    adjacent_pairing,
    coarser_weight,
    enumerate_nc,
    enumerate_set_partitions,
    falling_factorial,
    join,
)

BRUTEFORCE_WORD_CAP = 8
LEMMA_POWER_CAP = 8


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
    n = family.count
    same = mixed_moment(family, (1,) * (2 * k), "phi")
    value = n * same
    if n >= 2:
        cross = mixed_moment(family, (1,) * k + (2,) * k, "phi")
        value += n * (n - 1) * cross
    whole = family.whole_interval.r_phi_psi
    predicted = whole[k - 1] ** 2 + whole[2 * k - 1]
    return VariationReport(n, k, value, predicted)


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
        weight = falling_factorial(family.count, pattern.size)
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


def _qv_lemma_sum(family: IncrementFamilySpec, n: int) -> Fraction:
    alpha, beta = _brownian_shape(family)
    big_n, t = family.count, family.total_time
    step = t / big_n
    tau = adjacent_pairing(n)
    tau_blocks = set(tau.blocks)
    total = Fraction(0)
    for sigma in enumerate_nc(
        2 * n,
        pairs_and_singletons=True,
        no_outer_singletons=True,
        outer_disjoint_from_tau=True,
    ):
        cls = _classify_unchecked(sigma)
        singles = len(cls.singletons)
        inner_tau = 0
        inner_free = 0
        for idx in cls.inner:
            block = sigma.blocks[idx]
            if len(block) == 2:
                if block in tau_blocks:
                    inner_tau += 1
                else:
                    inner_free += 1
        term = Fraction(coarser_weight(join(sigma, tau), big_n))
        term *= step**sigma.size
        term *= alpha**singles
        term *= beta**inner_free
        term *= (beta - 1) ** inner_tau
        total += term
    return total


def centered_qv_moment(family: IncrementFamilySpec, n: int, method: str = "bruteforce") -> Fraction:
    """phi[(sum_i X_i^2 - T)^n], by expansion or by the partition formula."""
    if method == "bruteforce":
        if 2 * n > BRUTEFORCE_WORD_CAP:
            raise ValueError(f"bruteforce supports n <= {BRUTEFORCE_WORD_CAP // 2}")
        if family.order < 2 * n:
            raise ValueError("family truncation order too small")
        return _qv_bruteforce(family, n)
    if method == "lemma_sum":
        if n > LEMMA_POWER_CAP:
            raise ValueError(f"lemma_sum supports n <= {LEMMA_POWER_CAP}")
        return _qv_lemma_sum(family, n)
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


def centered_power_moment(family: IncrementFamilySpec, k: int, m: int) -> Fraction:
    """phi[(sum_i X_i^k - c)^m] with c = T for k = 2 and c = 0 otherwise."""
    _check_power(k)
    if k == 2:
        return centered_qv_moment(family, m, method="lemma_sum" if 2 * m > BRUTEFORCE_WORD_CAP else "bruteforce")
    if k * m > BRUTEFORCE_WORD_CAP:
        raise ValueError(f"word length {k * m} exceeds the engine cap {BRUTEFORCE_WORD_CAP}")
    return _power_sum_moment(family, k, m)


def norm_2n_table(family: IncrementFamilySpec, k: int, n_max: int) -> list[float]:
    """||sum_i X_i^k - c||_{2n} = phi[(...)^{2n}]^{1/2n} for n = 1..n_max."""
    out = []
    for n in range(1, n_max + 1):
        power = centered_power_moment(family, k, 2 * n)
        out.append(float(power) ** (1 / (2 * n)))
    return out
