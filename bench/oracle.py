"""Per-request oracles: each result is checked along a different route.

Run after the timed phase. Moment tables and cumulant transforms are checked
against the Jacobi closed forms through `spectral.jacobi_to_moments`, and
Jacobi round trips against the one-cell Fock model; lemma
sums at beta = 1 against the Fock model, applying sum X_i^2 - T factor by
factor to the vacuum; lemma sums at other beta against the brute-force
expansion; products against `elementary_tensor`; sandwich variations against
the mixed-moment expansion of phi[B* B]; kernel residuals against the
three-term action on the single-cell Fock space written out here. Checks that
return both sides of an identity (freeness, martingale, obstruction) are
checked side against side, and the generator residual must be the zero
polynomial.

One result is checked against the library's own verdict: the report of
`generator.generating_function_check` holds only booleans, so no second route
can reach its values. It stays in the mix because it is the one call that
exercises the generating-function identities; a change that short-circuits
those comparisons would not show here.

Each check returns None when the result is correct and a one-line reason
otherwise.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction

from twostate import cumulants, fock, spectral, variations

from library import LAWS, brownian_cumulants, closed_form_jacobi


def jacobi_moments(law: str, alpha, t, beta, n: int):
    return spectral.jacobi_to_moments(closed_form_jacobi(law, alpha, t, beta, n), n)


def ct_moment(alpha, t, n: int) -> Fraction:
    """E[(1 + alpha X)^n] under mu, expanded binomially over mu's moments."""
    mu = jacobi_moments("mu", alpha, t, 1, n)
    return 1 + sum(math.comb(n, j) * alpha**j * mu[j - 1] for j in range(1, n + 1))


def qv_moment_fock(alpha, t, big_n: int, power: int) -> Fraction:
    """phi[(sum_i X_i^2 - T)^power] by repeated action on the vacuum.

    Each factor shortens a word by at most two letters, so words longer than
    twice the factors still to apply cannot reach the vacuum and are dropped.
    """
    grid = fock.IntervalGrid(t, big_n)
    step = fock.OperatorExpr.identity(grid).scaled(-t)
    for i in range(1, big_n + 1):
        x_i = fock.OperatorExpr.increment(grid, i)
        step = step + x_i * x_i
    v = fock.FockVector.vacuum(grid)
    for remaining in reversed(range(power)):
        v = step.apply(v, alpha)
        v = fock.FockVector(grid, {w: c for w, c in v.coef.items() if len(w) <= 2 * remaining})
    return v.vacuum_coefficient()


def second_moment_fock(alpha, t, big_n: int) -> Fraction:
    """phi[(sum_i X_i^2)^2] = ||(sum_i X_i^2) vacuum||^2 in the Fock model."""
    grid = fock.IntervalGrid(t, big_n)
    s = fock.OperatorExpr(grid, {(i, i): Fraction(1) for i in range(1, big_n + 1)})
    return s.apply(fock.FockVector.vacuum(grid), alpha).norm_squared()


def kernel_residual_direct(alpha, t, depth: int) -> float:
    """|| (1 + alpha X(t)) eta_D || / || eta_D || from the three-term action.

    On the one-cell Fock space X chi^n = chi^(n+1) + alpha t chi^n + t chi^(n-1)
    for n >= 1 and X vacuum = chi.
    """
    r = -1 / (alpha * t)
    eta = [r**n for n in range(depth + 1)]
    image = [Fraction(0)] * (depth + 2)
    for n, c in enumerate(eta):
        image[n] += c
        image[n + 1] += alpha * c
        if n >= 1:
            image[n] += alpha * alpha * t * c
            image[n - 1] += alpha * t * c
    norm = lambda coef: sum(c * c * t**n for n, c in enumerate(coef))
    return float(norm(image) / norm(eta)) ** 0.5


def sandwich_mixed(alpha, t, big_n: int, factors, window: int) -> Fraction:
    """phi[B* B] for B = sum_{i >= window} X_i A X_i - psi(A)(T - S), expanded."""
    family = cumulants.brownian_family(alpha, t, big_n, order=8)
    word = tuple(cell for cell, power in factors for _ in range(power))
    star = word[::-1]
    c = cumulants.mixed_moment(family, word, "psi") * t * (big_n - window + 1) / big_n
    phi = lambda w: cumulants.mixed_moment(family, w, "phi")
    cells = range(window, big_n + 1)
    total = c * c
    for i in cells:
        total -= c * (phi((i,) + star + (i,)) + phi((i,) + word + (i,)))
        for j in cells:
            total += phi((i,) + star + (i, j) + word + (j,))
    return total


def _quadrature_close(law: str, alpha, t, n: int, value: float, exact: Fraction) -> bool:
    measure = getattr(spectral, LAWS[law])(alpha, t)
    lo, hi = spectral.support(measure)
    scale = max(1.0, abs(lo), abs(hi), abs(float(spectral.atom_location(measure) or 0))) ** n
    return abs(value - float(exact)) <= 1e-9 * scale


def check(req: dict, result) -> str | None:
    kind, n = req["kind"], req["size"]
    a, t, b = req["alpha"], req["T"], req["beta"]
    if kind == "free_moments":
        ok = result == jacobi_moments("nu", a, t, b, n)
    elif kind == "two_state_moments":
        ok = result == jacobi_moments("mu", a, t, b, n)
    elif kind == "free_cumulants":
        ok = result == brownian_cumulants(a, t, b, n)[1]
    elif kind == "two_state_cumulants":
        ok = result == brownian_cumulants(a, t, b, n)[0]
    elif kind == "mixed_moment":
        grid = fock.IntervalGrid(t, req["N"])
        expr = fock.OperatorExpr(grid, {req["word"]: Fraction(1)})
        state = fock.state_phi if req["state"] == "phi" else fock.state_psi_t
        ok = result == state(expr, a)
    elif kind == "jacobi":
        moments, recovered, shifted = result
        law = req["law"]
        grid = fock.IntervalGrid(t, 1)
        table = fock.psi_moment_table if law == "nu" else fock.phi_moment_table
        closed = closed_form_jacobi(law, a, t, b, n)
        ok = (
            b == 1
            and moments == table(grid, a, n)
            and recovered.betas == closed.betas[: len(recovered.betas)]
            and recovered.gammas == closed.gammas[: len(recovered.gammas)]
            and len(recovered.betas) == (n + 1) // 2
            and len(recovered.gammas) == n // 2
            and spectral.jacobi_to_moments(shifted, n) == spectral.shift_moments_by_series(moments, t, n)
        )
    elif kind == "exact_quadrature":
        exact, quad = result
        law = req["law"]
        expected = ct_moment(a, t, n) if law == "ct" else jacobi_moments(law, a, t, 1, n)[n - 1]
        ok = exact == expected and _quadrature_close(law, a, t, n, quad, exact)
    elif kind == "generating_function":
        # the library's own verdict; see the module docstring
        ok = result.order == n and result.ok
    elif kind == "generator_residual":
        ok = result.is_zero()
    elif kind == "qv_lemma_fock":
        ok = b == 1 and result == qv_moment_fock(a, t, req["N"], n)
    elif kind == "qv_lemma_bruteforce":
        family = cumulants.brownian_family(a, t, req["N"], order=2 * n, beta=b)
        ok = result == variations.centered_qv_moment(family, n, "bruteforce")
    elif kind in ("phi_table", "psi_table"):
        _, degree = n
        ok = result == jacobi_moments("mu" if kind == "phi_table" else "nu", a, t, 1, degree)
    elif kind == "freeness":
        product = Fraction(1)
        for value in result.phi_factors:
            product *= value
        ok = result.psi_of_product == 0 and result.phi_of_product == product
    elif kind in ("martingale", "cond_exp"):
        lhs, rhs = result
        ok = lhs == rhs
    elif kind == "product_lemma":
        ok = result == fock.elementary_tensor(fock.IntervalGrid(t, n[-1][0][1]), n)
    elif kind == "sandwich":
        ok = result.value == sandwich_mixed(a, t, n, req["sandwiched"], req["window"])
    elif kind == "kernel_residual":
        ok = math.isclose(result, kernel_residual_direct(a, t, n), rel_tol=1e-12)
    else:
        return f"unknown request kind {kind!r}"
    return None if ok else f"{kind} size={n}: result disagrees with the oracle route"


# ------------------------------------------------------------------- CLI output

def _rows(out: str, header: str) -> list[list[str]]:
    lines = out.splitlines()
    if not lines or lines[0] != header:
        raise ValueError(f"header is not {header!r}")
    return [line.split(",") for line in lines[1:]]


def _moment_rows(out: str, phi, psi) -> bool:
    rows = _rows(out, "n,phi_moment,psi_moment")
    expected = [[str(k), str(p), str(q)] for k, (p, q) in enumerate(zip(phi, psi), start=1)]
    return rows == expected


def _density_ok(req: dict, out: str) -> bool:
    # Riemann sum of the sampled density plus the atom must reproduce the
    # total mass 1 and the exact mean.
    lines = out.splitlines()
    atom = json.loads(lines[-1])
    rows = _rows("\n".join(lines[:-1]), "x,density_f64")
    if len(rows) != req["samples"]:
        return False
    xs = [float(x) for x, _ in rows]
    ys = [float(y) for _, y in rows]
    width = (xs[-1] - xs[0]) / (len(xs) - 1)
    mass = float(Fraction(atom["mass"]))
    loc = 0.0 if atom["location"] is None else float(Fraction(atom["location"]))
    a, t = req["alpha"], req["T"]
    mean = {"nu": float(a * t), "mu": 0.0, "ct": 1.0}[req["measure"]]
    total = abs(width) * sum(ys) + mass
    first = abs(width) * sum(x * y for x, y in zip(xs, ys)) + mass * loc
    scale = max(1.0, abs(xs[0]), abs(xs[-1]))
    return abs(total - 1) < 1e-2 and abs(first - mean) < 1e-2 * scale


def _check_cli_output(req: dict, out: str) -> bool:
    name = req["name"]
    a, t, b = req["alpha"], req["T"], req["beta"]
    if name in ("moments-low", "moments-high"):
        order = int(req["argv"][-1])
        return _moment_rows(out, jacobi_moments("mu", a, t, b, order), jacobi_moments("nu", a, t, b, order))
    if name == "jacobi":
        payload = json.loads(out)
        order = int(req["argv"][-1])
        depth_b, depth_g = (order + 1) // 2, order // 2
        fmt = lambda params: {
            "beta": [str(x) for x in params.betas[:depth_b]],
            "gamma": [str(x) for x in params.gammas[:depth_g]],
            "terminated": False,
        }
        nu = closed_form_jacobi("nu", a, t, 1, order)
        mu = closed_form_jacobi("mu", a, t, 1, order)
        shift = {"beta": ["0"] + fmt(nu)["beta"], "gamma": [str(t)] + fmt(nu)["gamma"], "terminated": False}
        return payload == {"nu": fmt(nu), "mu": fmt(mu), "shift_of_nu": shift, "shift_matches_mu": True}
    if name == "density":
        return _density_ok(req, out)
    if name == "fock-moments":
        degree = req["degree"]
        return _moment_rows(out, jacobi_moments("mu", a, t, 1, degree), jacobi_moments("nu", a, t, 1, degree))
    if name == "variation-table":
        rows = _rows(out, "N,value,value_f64,predicted,gap")
        expected = []
        for big_n in req["N_list"]:
            value = second_moment_fock(a, t, big_n)
            expected.append([str(big_n), str(value), f"{float(value):.12g}", str(t * t), str(value - t * t)])
        return rows == expected
    if name == "variation-centered":
        rows = _rows(out, "N,value,value_f64,predicted,gap")
        expected = []
        for big_n in req["N_list"]:
            family = cumulants.brownian_family(a, t, big_n, order=8, beta=b)
            value = variations.centered_qv_moment(family, req["n"], "bruteforce")
            expected.append([str(big_n), str(value), f"{float(value):.12g}", "0", str(value)])
        return rows == expected
    if name == "norm-table":
        rows = _rows(out, "n,norm_2n_f64")
        n_max = int(req["argv"][req["argv"].index("--n-max") + 1])
        expected = [
            [str(k), f"{float(qv_moment_fock(a, t, req['N'], 2 * k)) ** (1 / (2 * k)):.12g}"]
            for k in range(1, n_max + 1)
        ]
        return rows == expected
    if name == "kernel-residual":
        rows = _rows(out, "depth,residual_f64")
        return rows == [[str(d), f"{kernel_residual_direct(a, t, d):.12g}"] for d in range(1, req["depth"] + 1)]
    raise ValueError(f"unknown CLI request {name!r}")


def check_cli(req: dict, returncode: int, out: str, err: str) -> str | None:
    """A malformed request must exit 2 with an error line and no traceback."""
    label = f"{req['name']} ({' '.join(req['argv'])})"
    if "Traceback" in err:
        return f"{label}: traceback, exit {returncode}"
    if req["malformed"]:
        if returncode != 2 or not any("error:" in line for line in err.splitlines()):
            return f"{label}: exit {returncode} without an error line, expected exit 2"
        return None
    if returncode != 0:
        return f"{label}: exit {returncode}"
    try:
        ok = _check_cli_output(req, out)
    except (ValueError, KeyError, IndexError, ZeroDivisionError) as exc:
        return f"{label}: unreadable output ({exc})"
    return None if ok else f"{label}: output disagrees with the oracle route"
