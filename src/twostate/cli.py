"""Batch command-line front end: tables and verification suites.

Every subcommand is non-interactive and deterministic: the same flags produce
byte-identical output. Exact rationals are printed as p/q; floating-point
columns carry the _f64 suffix. Exit codes: 0 success, 1 an exact identity or
tolerance failed, 2 usage error.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

from . import fock, generator, spectral, variations
from .cumulants import (
    brownian_cumulants,
    brownian_family,
    free_cumulants_from_moments,
    mixed_moment,
    moments_from_free_cumulants,
    moments_from_two_state_cumulants,
    two_state_cumulants_from_moments,
)
from .partitions import enumerate_nc, enumerate_set_partitions
from .rational import format_rational, parse_rational

MEASURE_NAMES = {"nu": spectral.semicircle_law, "mu": spectral.free_poisson_law, "ct": spectral.ct_law}


def _emit(lines, path: str | None) -> None:
    text = "\n".join(lines) + "\n"
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w") as handle:
            handle.write(text)


def _check_count(name: str, value: int, minimum: int = 1) -> None:
    # Every count flag: a value below its minimum would succeed on nothing.
    if value < minimum:
        raise ValueError(f"{name} must be at least {minimum}, got {value}")


def cmd_moments(args) -> int:
    _check_count("order", args.order)
    outer, inner = brownian_cumulants(args.alpha, args.T, args.order, args.beta)
    phi = moments_from_two_state_cumulants(outer, inner, args.order)
    psi = moments_from_free_cumulants(inner, args.order)
    lines = ["n,phi_moment,psi_moment"]
    for n in range(1, args.order + 1):
        lines.append(f"{n},{format_rational(phi[n-1])},{format_rational(psi[n-1])}")
    _emit(lines, args.output)
    return 0


def cmd_jacobi(args) -> int:
    _check_count("order", args.order)
    outer, inner = brownian_cumulants(args.alpha, args.t, args.order)
    nu_moments = moments_from_free_cumulants(inner, args.order)
    mu_moments = moments_from_two_state_cumulants(outer, inner, args.order)
    nu_jacobi = spectral.moments_to_jacobi(nu_moments)
    mu_jacobi = spectral.moments_to_jacobi(mu_moments)
    shifted = spectral.jacobi_shift(nu_jacobi, args.t)
    payload = {
        "nu": nu_jacobi.to_json(),
        "mu": mu_jacobi.to_json(),
        "shift_of_nu": shifted.to_json(),
        "shift_matches_mu": spectral.jacobi_to_moments(shifted, args.order - 1)
        == spectral.jacobi_to_moments(mu_jacobi, args.order - 1),
    }
    _emit([json.dumps(payload, sort_keys=True)], args.output)
    return 0 if payload["shift_matches_mu"] else 1


def cmd_density(args) -> int:
    _check_count("samples", args.samples)
    measure = MEASURE_NAMES[args.measure](args.alpha, args.t)
    lo, hi = spectral.support(measure)
    lines = ["x,density_f64"]
    for k in range(args.samples):
        x = lo + (hi - lo) * (k + 0.5) / args.samples
        lines.append(f"{x:.12g},{spectral.density_eval(measure, x):.12g}")
    mass = spectral.atom_mass(measure)
    location = spectral.atom_location(measure)
    atom = {
        "location": None if location is None else format_rational(location),
        "mass": format_rational(mass),
    }
    lines.append(json.dumps(atom, sort_keys=True))
    _emit(lines, args.output)
    return 0


def cmd_fock_moments(args) -> int:
    _check_count("degree", args.degree)
    grid = fock.IntervalGrid(args.T, args.N)
    phi = fock.phi_moment_table(grid, args.alpha, args.degree)
    psi = fock.psi_moment_table(grid, args.alpha, args.degree)
    lines = ["n,phi_moment,psi_moment"]
    for n in range(1, args.degree + 1):
        lines.append(f"{n},{format_rational(phi[n-1])},{format_rational(psi[n-1])}")
    _emit(lines, args.output)
    return 0


def _centered_monomial(grid, alpha, cell: int, degree: int) -> fock.OperatorExpr:
    raw = fock.OperatorExpr.increment(grid, cell) ** degree
    shift = fock.state_psi_t(raw, alpha)
    return raw - fock.OperatorExpr.identity(grid).scaled(shift)


def cmd_freeness_check(args) -> int:
    _check_count("max-len", args.max_len)
    grid = fock.IntervalGrid(args.T, args.N)
    failures = 0
    checked = 0
    lines = []

    def walk(prefix: list[tuple[int, int]]) -> None:
        nonlocal failures, checked
        if prefix:
            factors = [_centered_monomial(grid, args.alpha, c, d) for c, d in prefix]
            report = fock.freeness_check(grid, args.alpha, factors)
            checked += 1
            if not report.ok:
                failures += 1
                lines.append(json.dumps({"word": prefix, "ok": False}, sort_keys=True))
        if len(prefix) == args.max_len:
            return
        for cell in range(1, grid.cells + 1):
            if prefix and prefix[-1][0] == cell:
                continue
            for degree in (1, 2):
                walk(prefix + [(cell, degree)])

    walk([])
    lines.append(json.dumps({"checked": checked, "failures": failures}, sort_keys=True))
    _emit(lines, args.output)
    return 0 if failures == 0 else 1


def cmd_martingale_check(args) -> int:
    _check_count("n-max", args.n_max, 0)
    _check_count("N", args.N, 2)
    grid = fock.IntervalGrid(args.T, args.N)
    failures = 0
    checked = 0
    lines = []
    for t_cells in range(1, grid.cells):
        for s_cells in range(t_cells + 1, grid.cells + 1):
            past_ops = [
                fock.OperatorExpr.identity(grid),
                fock.OperatorExpr.interval(grid, 1, t_cells),
                fock.OperatorExpr.interval(grid, 1, t_cells) ** 2,
            ]
            for n in range(0, args.n_max + 1):
                for past in past_ops:
                    lhs, rhs = fock.martingale_check(grid, args.alpha, n, t_cells, s_cells, past)
                    checked += 1
                    if lhs != rhs:
                        failures += 1
                        lines.append(
                            json.dumps(
                                {"n": n, "t_cells": t_cells, "s_cells": s_cells, "ok": False},
                                sort_keys=True,
                            )
                        )
    lines.append(json.dumps({"checked": checked, "failures": failures}, sort_keys=True))
    _emit(lines, args.output)
    return 0 if failures == 0 else 1


def cmd_variation_table(args) -> int:
    k = 2 if args.k is None else args.k
    lines = ["N,value,value_f64,predicted,gap"]
    for big_n in args.N_list:
        family = brownian_family(args.alpha, args.T, big_n, order=max(8, 2 * k), beta=args.beta)
        if args.centered_power is None:
            report = variations.variation_second_moment(family, k)
            value, predicted = report.value, report.predicted_limit
        else:
            value = variations.centered_qv_moment(family, args.centered_power, method="lemma_sum")
            predicted = Fraction(0)
        gap = value - predicted
        lines.append(
            f"{big_n},{format_rational(value)},{float(value):.12g},"
            f"{format_rational(predicted)},{format_rational(gap)}"
        )
    _emit(lines, args.output)
    return 0


def cmd_norm_table(args) -> int:
    _check_count("n-max", args.n_max)
    family = brownian_family(args.alpha, args.T, args.N, order=max(8, 2 * args.n_max * args.k), beta=args.beta)
    table = variations.norm_2n_table(family, args.k, args.n_max)
    lines = ["n,norm_2n_f64"]
    for n, value in enumerate(table, start=1):
        lines.append(f"{n},{value:.12g}")
    _emit(lines, args.output)
    return 0


def cmd_generator_check(args) -> int:
    _check_count("n-max", args.n_max, 0)
    lines = []
    all_zero = True
    for n in range(args.n_max + 1):
        residual = generator.time_derivative_residual(n, args.alpha)
        ok = residual.is_zero()
        all_zero &= ok
        lines.append(json.dumps({"n": n, "residual_is_zero": ok}, sort_keys=True))
    _emit(lines, args.output)
    return 0 if all_zero else 1


def cmd_kernel_residual(args) -> int:
    _check_count("depth", args.depth)
    lines = ["depth,residual_f64"]
    for depth in range(1, args.depth + 1):
        lines.append(f"{depth},{fock.kernel_residual(args.alpha, args.t, depth):.12g}")
    _emit(lines, args.output)
    return 0


def _selfcheck_items(alpha: Fraction, t: Fraction, big_n: int, order: int):
    outer, inner = brownian_cumulants(alpha, t, order)

    def partitions_counts():
        bells = [1, 2, 5, 15, 52]
        catalans = [1, 2, 5, 14, 42]
        for n, (b, c) in enumerate(zip(bells, catalans), start=1):
            assert len(enumerate_set_partitions(n)) == b
            assert len(enumerate_nc(n)) == c

    def transform_roundtrips():
        moments = moments_from_free_cumulants(inner, order)
        assert free_cumulants_from_moments(moments) == inner
        phi_m = moments_from_two_state_cumulants(outer, inner, order)
        assert two_state_cumulants_from_moments(phi_m, inner) == outer

    def cross_representation():
        grid = fock.IntervalGrid(t, big_n)
        phi_m = moments_from_two_state_cumulants(outer, inner, order)
        psi_m = moments_from_free_cumulants(inner, order)
        assert fock.phi_moment_table(grid, alpha, order) == phi_m
        assert fock.psi_moment_table(grid, alpha, order) == psi_m
        jac = spectral.moments_to_jacobi(phi_m)
        assert spectral.jacobi_to_moments(jac, len(phi_m)) == phi_m

    def mixed_vs_fock():
        grid = fock.IntervalGrid(t, big_n)
        family = brownian_family(alpha, t, big_n, order=order)
        words = [(1,), (1, 1), (1, 2), (1, 1, 2), (1, 2, 1), (1, 2, 2, 1)]
        for word in words:
            if any(i > big_n for i in word):
                continue
            expr = fock.OperatorExpr.identity(grid)
            for i in word:
                expr = expr * fock.OperatorExpr.increment(grid, i)
            assert mixed_moment(family, word, "phi") == fock.state_phi(expr, alpha)
            assert mixed_moment(family, word, "psi") == fock.state_psi_t(expr, alpha)

    def jacobi_shift_routes():
        nu_moments = moments_from_free_cumulants(inner, order)
        shifted = spectral.jacobi_shift(spectral.moments_to_jacobi(nu_moments), t)
        depth = order - 1
        assert spectral.jacobi_to_moments(shifted, depth) == spectral.shift_moments_by_series(
            nu_moments, t, depth
        )

    def lemma_op_c():
        mu_m = moments_from_two_state_cumulants(outer, inner, order)
        nu_m = moments_from_free_cumulants(inner, order)
        for n in range(1, order):
            assert nu_m[n - 1] == mu_m[n - 1] + alpha * mu_m[n]

    def quadrature_normalization():
        for make in (spectral.semicircle_law, spectral.free_poisson_law):
            measure = make(alpha, t)
            assert abs(spectral.quadrature_moment(measure, 0) - 1.0) < 1e-8

    def qv_methods_agree():
        family = brownian_family(alpha, t, big_n, order=max(order, 6))
        for n in (1, 2, 3):
            assert variations.centered_qv_moment(family, n, "bruteforce") == variations.centered_qv_moment(
                family, n, "lemma_sum"
            )

    def freeness_sample():
        grid = fock.IntervalGrid(t, max(big_n, 2))
        factors = [_centered_monomial(grid, alpha, 1, 1), _centered_monomial(grid, alpha, 2, 1)]
        assert fock.freeness_check(grid, alpha, factors).ok

    def martingale_sample():
        grid = fock.IntervalGrid(t, max(big_n, 2))
        past = fock.OperatorExpr.interval(grid, 1, 1) ** 2
        lhs, rhs = fock.martingale_check(grid, alpha, 2, 1, grid.cells, past)
        assert lhs == rhs

    def generator_residuals():
        for n in range(min(order, 8) + 1):
            assert generator.time_derivative_residual(n, alpha).is_zero()

    def product_lemma_sample():
        grid = fock.IntervalGrid(t, max(big_n, 2))
        groups = [((1, 1), 1), ((2, grid.cells), 1)]
        got = fock.product_lemma_vector(grid, alpha, groups)
        assert got == fock.elementary_tensor(grid, groups)

    return [
        ("partition-counts", partitions_counts),
        ("transform-roundtrips", transform_roundtrips),
        ("cross-representation-moments", cross_representation),
        ("mixed-moments-vs-fock", mixed_vs_fock),
        ("jacobi-shift-two-routes", jacobi_shift_routes),
        ("orthogonality-moment-identity", lemma_op_c),
        ("quadrature-normalization", quadrature_normalization),
        ("qv-methods-agree", qv_methods_agree),
        ("freeness-sample", freeness_sample),
        ("martingale-sample", martingale_sample),
        ("generator-residuals", generator_residuals),
        ("product-lemma-sample", product_lemma_sample),
    ]


def cmd_selfcheck(args) -> int:
    _check_count("order", args.order, 4)
    items = _selfcheck_items(args.alpha, args.T, args.N, args.order)
    lines = []
    passed = 0
    for name, fn in items:
        try:
            fn()
        except AssertionError:
            lines.append(f"FAIL {name}")
        else:
            lines.append(f"ok {name}")
            passed += 1
    lines.append(f"passed {passed}/{len(items)}")
    _emit(lines, args.output)
    return 0 if passed == len(items) else 1


def _add_common(parser, *, alpha=True, total_time=False, small_time=False, beta=False):
    if alpha:
        parser.add_argument("--alpha", type=parse_rational, required=True, help="drift parameter, p/q")
    if total_time:
        parser.add_argument("--T", type=parse_rational, required=True, help="time horizon, p/q")
    if small_time:
        parser.add_argument("--t", type=parse_rational, required=True, help="time parameter, p/q")
    if beta:
        parser.add_argument("--beta", type=parse_rational, default=Fraction(1), help="secondary variance scale")
    parser.add_argument("--output", default=None, help="output path (default stdout)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="twostate", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("moments", help="moment tables from the cumulant transforms")
    _add_common(p, total_time=True, beta=True)
    p.add_argument("--order", type=int, default=8)
    p.set_defaults(fn=cmd_moments)

    p = sub.add_parser("jacobi", help="Jacobi parameters of both laws and the shift")
    _add_common(p, small_time=True)
    p.add_argument("--order", type=int, default=8)
    p.set_defaults(fn=cmd_jacobi)

    p = sub.add_parser("density", help="sampled density plus the atom report")
    _add_common(p, small_time=True)
    p.add_argument("--measure", choices=sorted(MEASURE_NAMES), required=True)
    p.add_argument("--samples", type=int, default=100)
    p.set_defaults(fn=cmd_density)

    p = sub.add_parser("fock-moments", help="exact state moments from the operator model")
    _add_common(p, total_time=True)
    p.add_argument("--N", type=int, required=True)
    p.add_argument("--degree", type=int, default=8)
    p.set_defaults(fn=cmd_fock_moments)

    p = sub.add_parser("freeness-check", help="two-state freeness of increments, exhaustively")
    _add_common(p, total_time=True)
    p.add_argument("--N", type=int, required=True)
    p.add_argument("--max-len", type=int, default=3, dest="max_len")
    p.set_defaults(fn=cmd_freeness_check)

    p = sub.add_parser("martingale-check", help="polynomial martingale property on the grid")
    _add_common(p, total_time=True)
    p.add_argument("--N", type=int, required=True)
    p.add_argument("--n-max", type=int, default=4, dest="n_max")
    p.set_defaults(fn=cmd_martingale_check)

    p = sub.add_parser("variation-table", help="variation values against predicted limits")
    _add_common(p, total_time=True, beta=True)
    power = p.add_mutually_exclusive_group()
    power.add_argument("--k", type=int, default=None, help="variation power (default 2)")
    power.add_argument("--n", type=int, default=None, dest="centered_power", help="centered power; switches to the centered k = 2 table")
    p.add_argument("--N-list", type=lambda s: [int(x) for x in s.split(",")], required=True, dest="N_list")
    p.set_defaults(fn=cmd_variation_table)

    p = sub.add_parser("norm-table", help="2n-norms of centered variation sums")
    _add_common(p, total_time=True, beta=True)
    p.add_argument("--k", type=int, default=2)
    p.add_argument("--n-max", type=int, default=3, dest="n_max")
    p.add_argument("--N", type=int, required=True)
    p.set_defaults(fn=cmd_norm_table)

    p = sub.add_parser("generator-check", help="d/dt q_n + A_t q_n = 0 per degree")
    _add_common(p)
    p.add_argument("--n-max", type=int, default=12, dest="n_max")
    p.set_defaults(fn=cmd_generator_check)

    p = sub.add_parser("kernel-residual", help="finite-depth kernel residuals")
    _add_common(p, small_time=True)
    p.add_argument("--depth", type=int, default=12)
    p.set_defaults(fn=cmd_kernel_residual)

    p = sub.add_parser("selfcheck", help="run the cross-module oracle suite")
    _add_common(p, total_time=True)
    p.add_argument("--N", type=int, default=4)
    p.add_argument("--order", type=int, default=6)
    p.set_defaults(fn=cmd_selfcheck)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code = args.fn(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return code


if __name__ == "__main__":
    sys.exit(main())
