"""In-process execution of exact-series and fock-model requests.

`prepare(request)` does the untimed part of a request (inputs that are
themselves library outputs, such as a moment sequence to invert) and returns a
zero-argument callable: the timed call a researcher would make. Building
grids, families and operators happens inside that callable, because a user of
the library pays for it too.
"""

from __future__ import annotations

from fractions import Fraction

from twostate import cumulants, fock, generator, spectral, variations

WARM_ORDER = 10


def warm_up(workload: str) -> None:
    """Fill the caches a warm library session would already have."""
    if workload == "exact-series":
        # one top-order transform enumerates and classifies every
        # non-crossing partition up to WARM_ORDER into the shared cache
        cumulants.moments_from_free_cumulants((Fraction(1),) * WARM_ORDER, WARM_ORDER)
    else:
        fock.phi_moment_table(fock.IntervalGrid(Fraction(1), 2), Fraction(1), 4)


def closed_form_jacobi(law: str, alpha, t, beta, n: int) -> spectral.JacobiParams:
    """Jacobi parameters of the secondary (nu) or primary (mu) law at time t.

    nu is the semicircle with mean alpha t and variance beta t; mu has
    beta_0 = 0 and gamma_1 = t, then continues with nu's coefficients.
    """
    depth_b, depth_g = (n + 1) // 2 + 1, n // 2 + 1
    if law == "nu":
        return spectral.JacobiParams((alpha * t,) * depth_b, (beta * t,) * depth_g)
    return spectral.JacobiParams((Fraction(0),) + (alpha * t,) * (depth_b - 1), (t,) + (beta * t,) * (depth_g - 1))


def brownian_cumulants(alpha, t, beta, n: int):
    zeros = (Fraction(0),) * (n - 2)
    return (Fraction(0), t) + zeros, (alpha * t, beta * t) + zeros


# looked up by name at call time, so that a traced run sees the wrapped functions
LAWS = {"nu": "semicircle_law", "mu": "free_poisson_law", "ct": "ct_law"}


def _centered_monomial(grid, alpha, cell: int, degree: int) -> fock.OperatorExpr:
    raw = fock.OperatorExpr.increment(grid, cell) ** degree
    return raw - fock.OperatorExpr.identity(grid).scaled(fock.state_psi_t(raw, alpha))


def _word_expr(grid, factors) -> fock.OperatorExpr:
    expr = fock.OperatorExpr.identity(grid)
    for cell, power in factors:
        expr = expr * fock.OperatorExpr.increment(grid, cell) ** power
    return expr


def prepare(req: dict):
    kind, n = req["kind"], req["size"]
    a, t, b = req["alpha"], req["T"], req["beta"]
    if kind in ("free_moments", "two_state_moments", "two_state_cumulants"):
        outer, inner = brownian_cumulants(a, t, b, n)

    if kind == "free_moments":
        return lambda: cumulants.moments_from_free_cumulants(inner, n)
    if kind == "two_state_moments":
        return lambda: cumulants.moments_from_two_state_cumulants(outer, inner, n)
    if kind == "free_cumulants":
        moments = spectral.jacobi_to_moments(closed_form_jacobi("nu", a, t, b, n), n)
        return lambda: cumulants.free_cumulants_from_moments(moments)
    if kind == "two_state_cumulants":
        moments = spectral.jacobi_to_moments(closed_form_jacobi("mu", a, t, b, n), n)
        return lambda: cumulants.two_state_cumulants_from_moments(moments, inner)
    if kind == "mixed_moment":
        return lambda: cumulants.mixed_moment(
            cumulants.brownian_family(a, t, req["N"], order=n), req["word"], req["state"]
        )
    if kind == "jacobi":
        params = closed_form_jacobi(req["law"], a, t, b, n)

        def run():
            moments = spectral.jacobi_to_moments(params, n)
            recovered = spectral.moments_to_jacobi(moments)
            return moments, recovered, spectral.jacobi_shift(recovered, t)

        return run
    if kind == "exact_quadrature":
        def run():
            measure = getattr(spectral, LAWS[req["law"]])(a, t)
            return spectral.exact_moment(measure, n), spectral.quadrature_moment(measure, n)

        return run
    if kind == "generating_function":
        return lambda: generator.generating_function_check(n, a)
    if kind == "generator_residual":
        return lambda: generator.time_derivative_residual(n, a)
    if kind in ("qv_lemma_fock", "qv_lemma_bruteforce"):
        return lambda: variations.centered_qv_moment(
            cumulants.brownian_family(a, t, req["N"], order=2 * n, beta=b), n, "lemma_sum"
        )

    if kind in ("phi_table", "psi_table"):
        big_n, degree = n
        table = fock.phi_moment_table if kind == "phi_table" else fock.psi_moment_table
        return lambda: table(fock.IntervalGrid(t, big_n), a, degree)
    if kind == "freeness":
        big_n, _ = n

        def run():
            grid = fock.IntervalGrid(t, big_n)
            factors = [_centered_monomial(grid, a, cell, degree) for cell, degree in req["factors"]]
            return fock.freeness_check(grid, a, factors)

        return run
    if kind == "martingale":
        big_n, degree, t_cells, power = n

        def run():
            grid = fock.IntervalGrid(t, big_n)
            past = fock.OperatorExpr.interval(grid, 1, t_cells) ** power
            return fock.martingale_check(grid, a, degree, t_cells, big_n, past)

        return run
    if kind == "product_lemma":
        return lambda: fock.product_lemma_vector(fock.IntervalGrid(t, n[-1][0][1]), a, n)
    if kind == "cond_exp":
        big_n, t_cells, power = n

        def run():
            grid = fock.IntervalGrid(t, big_n)
            past = fock.OperatorExpr.interval(grid, 1, t_cells) ** power
            return fock.cond_exp_obstruction(grid, a, t_cells, big_n, past)

        return run
    if kind == "sandwich":
        def run():
            grid = fock.IntervalGrid(t, n)
            return variations.sandwich_variation(grid, a, _word_expr(grid, req["sandwiched"]), req["window"])

        return run
    if kind == "kernel_residual":
        return lambda: fock.kernel_residual(a, t, n)
    raise ValueError(f"unknown request kind {kind!r}")
