import contextlib
import dataclasses
import io
import json
import os
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import twostate
from twostate import cli, fock, generator, partitions
from twostate.cli import DENSITY_SAMPLE_CAP, main
from twostate.cumulants import TRANSFORM_ORDER_CAP


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out


def run_fresh(*args):
    # a fresh interpreter with the package under test first on its path: what
    # it writes to stderr, warnings included, is what a shell user sees
    src = str(Path(twostate.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    return subprocess.run([sys.executable, *args], env=env, capture_output=True, text=True, timeout=60)


class TestMoments:
    def test_table(self, capsys):
        code, out = run(capsys, "moments", "--alpha", "1", "--T", "1", "--order", "4")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "n,phi_moment,psi_moment"
        assert lines[1] == "1,0,1"
        assert lines[4] == "4,3,9"

    def test_order_past_the_enumeration_cap(self, capsys, monkeypatch):
        # the transforms run by series, so ENUMERATION_CAP does not bound them
        monkeypatch.setattr(partitions, "ENUMERATION_CAP", 3)
        code, out = run(capsys, "moments", "--alpha", "1", "--T", "1", "--order", "13")
        assert code == 0
        lines = out.strip().splitlines()
        assert len(lines) == 14
        assert lines[1] == "1,0,1"
        assert lines[4] == "4,3,9"

    def test_rational_parameters(self, capsys):
        code, out = run(capsys, "moments", "--alpha", "1/2", "--T", "2/3", "--order", "2")
        assert code == 0
        assert out.splitlines()[2] == "2,2/3,7/9"

    def test_digit_bound_refuses_before_any_work(self, capsys, monkeypatch):
        # 60- and 61-digit --alpha and --T at order 64 would print past 4,300 digits
        height = "1" * 60 + "/" + "7" * 61
        for name in ("moments_from_two_state_cumulants", "moments_from_free_cumulants"):
            monkeypatch.setattr(cli, name, lambda *args: pytest.fail("a transform ran"))
        start = time.perf_counter()
        code = main(["moments", "--alpha", height, "--T", height, "--order", "64"])
        assert time.perf_counter() - start < 0.5
        captured = capsys.readouterr()
        assert (code, captured.out) == (2, "")
        assert captured.err.splitlines() == [
            "error: --order 64 at this --alpha, --T and --beta can print 7717-digit numbers, "
            "past the 4300-digit limit of integer output"
        ]

    def test_digit_bound_counts_beta(self, capsys):
        # 20-digit --alpha and --T print at order 64; a 300-digit --beta pushes the bound past the limit
        height = "12345678901234567890/98765432109876543211"
        code, out = run(capsys, "moments", "--alpha", height, "--T", height, "--order", "64")
        assert (code, len(out.splitlines())) == (0, 65)
        code = main(["moments", "--alpha", height, "--T", height, "--beta", "1" * 300, "--order", "64"])
        assert code == 2
        assert "--order 64 at this --alpha, --T and --beta" in capsys.readouterr().err


class TestJacobi:
    def test_shift_consistency_reported(self, capsys):
        code, out = run(capsys, "jacobi", "--alpha", "1", "--t", "1", "--order", "6")
        assert code == 0
        payload = json.loads(out)
        assert payload["nu"]["beta"] == ["1", "1", "1"]
        assert payload["mu"]["beta"] == ["0", "1", "1"]
        assert payload["shift_matches_mu"] is True


class TestDensity:
    def test_atom_line(self, capsys):
        code, out = run(capsys, "density", "--measure", "mu", "--alpha", "1", "--t", "4", "--samples", "5")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "x,density_f64"
        assert len(lines) == 7
        atom = json.loads(lines[-1])
        assert atom == {"location": "-1", "mass": "3/4"}

    def test_semicircle_has_no_atom(self, capsys):
        code, out = run(capsys, "density", "--measure", "nu", "--alpha", "1", "--t", "1", "--samples", "3")
        assert code == 0
        atom = json.loads(out.strip().splitlines()[-1])
        assert atom == {"location": None, "mass": "0"}

    def test_ct_measure(self, capsys):
        code, out = run(capsys, "density", "--measure", "ct", "--alpha", "1", "--t", "1", "--samples", "3")
        assert code == 0

    def test_negative_alpha_ct_samples_ascend(self, capsys):
        code, out = run(capsys, "density", "--measure", "ct", "--alpha=-2", "--t", "1", "--samples", "3")
        assert code == 0
        xs = [float(line.split(",")[0]) for line in out.splitlines()[1:-1]]
        assert len(xs) == 3 and xs == sorted(xs)

    def test_subnormal_time_keeps_its_samples(self, capsys):
        # float(t) is subnormal but nonzero, so the support keeps a width
        code, out = run(capsys, "density", "--measure", "nu", "--alpha", "1", "--t", "1e-320", "--samples", "2")
        assert code == 0
        assert out.splitlines() == [
            "x,density_f64",
            "-9.99994433576e-161,2.75669603576e+159",
            "9.99994433576e-161,2.75669603576e+159",
            '{"location": null, "mass": "0"}',
        ]


class TestFockMoments:
    def test_matches_moment_command(self, capsys):
        code_a, out_a = run(capsys, "fock-moments", "--alpha", "2", "--T", "1/2", "--N", "3", "--degree", "6")
        code_b, out_b = run(capsys, "moments", "--alpha", "2", "--T", "1/2", "--order", "6")
        assert code_a == code_b == 0
        assert out_a == out_b


class TestChecks:
    def test_freeness(self, capsys):
        code, out = run(capsys, "freeness-check", "--alpha", "1", "--T", "1", "--N", "2", "--max-len", "2")
        assert code == 0
        summary = json.loads(out.strip().splitlines()[-1])
        assert summary["failures"] == 0
        assert summary["checked"] > 0

    def test_martingale(self, capsys):
        code, out = run(capsys, "martingale-check", "--alpha", "1", "--T", "1", "--N", "3", "--n-max", "3")
        assert code == 0
        summary = json.loads(out.strip().splitlines()[-1])
        assert summary["failures"] == 0

    def test_freeness_failure_exits_1(self, capsys, monkeypatch):
        # the first product, X_1 centered, is reported with a nonzero psi value
        real, calls = fock.freeness_check, []

        def fails_once(grid, alpha, factors):
            report = real(grid, alpha, factors)
            calls.append(factors)
            return dataclasses.replace(report, psi_of_product=Fraction(1)) if len(calls) == 1 else report

        monkeypatch.setattr(fock, "freeness_check", fails_once)
        code, out = run(capsys, "freeness-check", "--alpha", "1", "--T", "1", "--N", "2", "--max-len", "2")
        assert code == 1
        assert out.splitlines() == ['{"ok": false, "word": [[1, 1]]}', json.dumps({"checked": len(calls), "failures": 1})]
        assert len(calls) == 12

    def test_freeness_fails_on_a_wrong_model(self, capsys, monkeypatch):
        # the action with the sign of alpha flipped: the centering constants
        # come from the same wrong model, yet 120 of the 126 products fail
        act = fock._act
        monkeypatch.setattr(fock, "_act", lambda ell, alpha, *rest: act(ell, -alpha, *rest))
        code, out = run(capsys, "freeness-check", "--alpha", "1/2", "--T", "1", "--N", "3", "--max-len", "3")
        assert code == 1
        assert json.loads(out.splitlines()[-1]) == {"checked": 126, "failures": 120}

    def test_martingale_failure_exits_1(self, capsys, monkeypatch):
        # the first case, n = 0 at t = 1, s = 2 with the identity past, is off by one
        real, calls = fock.martingale_check, []

        def fails_once(*args):
            lhs, rhs = real(*args)
            calls.append(args)
            return (lhs, rhs + 1) if len(calls) == 1 else (lhs, rhs)

        monkeypatch.setattr(fock, "martingale_check", fails_once)
        code, out = run(capsys, "martingale-check", "--alpha", "1", "--T", "1", "--N", "3", "--n-max", "1")
        assert code == 1
        assert out.splitlines() == ['{"n": 0, "ok": false, "s_cells": 2, "t_cells": 1}',
                                    json.dumps({"checked": len(calls), "failures": 1})]
        assert len(calls) == 3 * 2 * 3

    def test_generator(self, capsys):
        code, out = run(capsys, "generator-check", "--alpha", "1/2", "--n-max", "6")
        assert code == 0
        rows = [json.loads(line) for line in out.strip().splitlines()]
        assert all(row["residual_is_zero"] for row in rows)
        assert [row["n"] for row in rows] == list(range(7))

    def test_generator_big_rational_alpha(self, capsys):
        # 20-digit numerator and denominator carried through the ladder to degree 16
        code, out = run(capsys, "generator-check", "--alpha", "12345678901234567891/98765432109876543210", "--n-max", "16")
        assert code == 0
        rows = [json.loads(line) for line in out.strip().splitlines()]
        assert [row["n"] for row in rows] == list(range(17))
        assert all(row["residual_is_zero"] for row in rows)

    def test_kernel(self, capsys):
        code, out = run(capsys, "kernel-residual", "--alpha", "1", "--t", "4", "--depth", "10")
        assert code == 0
        rows = out.strip().splitlines()[1:]
        last = float(rows[-1].split(",")[1])
        assert last < 1e-2

    def test_selfcheck(self, capsys):
        code, out = run(capsys, "selfcheck", "--alpha", "1", "--T", "1", "--N", "4", "--order", "6")
        assert code == 0
        assert out.strip().splitlines()[-1] == "passed 12/12"
        # one cell: mixed-moments-vs-fock skips the words with a letter 2
        code, out = run(capsys, "selfcheck", "--alpha", "1", "--T", "1", "--N", "1", "--order", "6")
        assert code == 0
        assert out.strip().splitlines()[-1] == "passed 12/12"

    def test_selfcheck_at_the_transform_order_cap(self, capsys):
        # selfcheck --order is bounded only by the transform order cap
        code, out = run(capsys, "selfcheck", "--alpha", "1/2", "--T", "1", "--N", "8", "--order", str(TRANSFORM_ORDER_CAP))
        assert code == 0
        assert out.splitlines()[-1] == "passed 12/12"

    def test_selfcheck_catches_a_wrong_inverse(self, capsys, monkeypatch):
        # one corrupted entry of the two-state inverse must read FAIL
        # transform-roundtrips, with every other item still ok
        real = cli.two_state_cumulants_from_moments

        def corrupted(m_phi, r_psi):
            out = list(real(m_phi, r_psi))
            out[-1] += 1
            return tuple(out)

        monkeypatch.setattr(cli, "two_state_cumulants_from_moments", corrupted)
        code, out = run(capsys, "selfcheck", "--alpha", "1/2", "--T", "1", "--order", "40")
        assert code == 1
        assert [row for row in out.splitlines() if not row.startswith("ok ")] == ["FAIL transform-roundtrips",
                                                                               "passed 11/12"]

    def test_selfcheck_reads_every_residual_to_the_order(self, capsys, monkeypatch):
        # a wrong q_12 in the generator tables must read FAIL
        # generator-residuals at --order 12, with every other item still ok
        q, *rest = generator._tables()
        top, ((key, k, c), *terms) = q[12]
        corrupted = (q[:12] + ((top, ((key, k, c + 1), *terms)),) + q[13:], *rest)
        monkeypatch.setattr(generator, "_tables", lambda: corrupted)
        code, out = run(capsys, "selfcheck", "--alpha", "1/2", "--T", "1", "--order", "12")
        assert code == 1
        assert [row for row in out.splitlines() if not row.startswith("ok ")] == ["FAIL generator-residuals",
                                                                               "passed 11/12"]

    def test_selfcheck_quadrature_overflow_exits_2(self):
        # the quadrature item overflows a float at this alpha: one error line
        # naming the item, alpha and t, and no numpy warning before it; the
        # other items still report
        argv = ["selfcheck", "--alpha", "1e160", "--T", "1", "--N", "2", "--order", "4"]
        result = run_fresh("-m", "twostate.cli", *argv)
        assert result.returncode == 2
        (line,) = result.stderr.splitlines()
        assert line.startswith("error: quadrature-normalization: ") and "alpha=1e+160, t=1" in line
        report = result.stdout.splitlines()
        assert report[6] == "ERROR " + line.removeprefix("error: ")
        assert report[-1] == "passed 11/12"
        assert sum(row.startswith("ok ") for row in report) == 11

    @pytest.mark.parametrize("params", [["--alpha", "9973/9998", "--T", "9967/9931", "--N", "4"],
                                        ["--alpha", "1", "--T", "1001/1000"]])
    def test_selfcheck_refuses_the_quadrature_near_the_pole(self, capsys, params):
        # 0 < |alpha^2 T - 1| < 1/100: the quadrature cannot run, which is
        # exit 2, not a failed identity
        code = main(["selfcheck", *params])
        captured = capsys.readouterr()
        assert code == 2
        (line,) = captured.err.splitlines()
        assert line.startswith("error: quadrature-normalization: the quadrature misses mass at the pole")
        report = captured.out.splitlines()
        assert report[6] == "ERROR " + line.removeprefix("error: ")
        assert not any(row.startswith("FAIL") for row in report)
        assert report[-1] == "passed 11/12"

    def test_selfcheck_keeps_its_report_when_an_item_raises(self, capsys):
        code = main(["selfcheck", "--alpha", "1" + "0" * 400, "--T", "1"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.err.splitlines() == ["error: quadrature-normalization: integer division result too large for a float"]
        report = captured.out.splitlines()
        assert len(report) == 13 and report[-1] == "passed 11/12"
        assert report[6] == "ERROR quadrature-normalization: integer division result too large for a float"
        assert [row.split()[1] for row in report[:12] if row.startswith("ok ")] == [
            "partition-counts", "transform-roundtrips", "cross-representation-moments", "mixed-moments-vs-fock",
            "jacobi-shift-two-routes", "orthogonality-moment-identity", "qv-methods-agree", "freeness-sample",
            "martingale-sample", "generator-residuals", "product-lemma-sample",
        ]

    def test_selfcheck_fails_under_python_O(self):
        # python -O strips assert statements: a wrong lemma sum must still read FAIL
        script = (
            "import sys\n"
            "from twostate import cli, variations\n"
            "if not sys.flags.optimize: sys.exit(3)\n"
            "real = variations._qv_lemma_sum\n"
            "variations._qv_lemma_sum = lambda family, n: real(family, n) + 1\n"
            "sys.exit(cli.main(['selfcheck', '--alpha', '1/2', '--T', '1', '--N', '4']))\n"
        )
        result = run_fresh("-O", "-c", script)
        assert result.returncode == 1, result.stderr
        report = result.stdout.splitlines()
        assert [row for row in report if not row.startswith("ok ")] == ["FAIL qv-methods-agree", "passed 11/12"]

    def test_selfcheck_failure_outranks_an_item_that_raises(self, capsys, monkeypatch):
        def fails():
            assert False

        def raises():
            raise OverflowError("too large")

        items = [("fails", fails), ("raises", raises), ("passes", lambda: None)]
        monkeypatch.setattr(cli, "_selfcheck_items", lambda *args: items)
        code = main(["selfcheck", "--alpha", "1", "--T", "1"])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out.splitlines() == ["FAIL fails", "ERROR raises: too large", "ok passes", "passed 1/3"]
        assert captured.err.splitlines() == ["error: raises: too large"]


class TestVariationTable:
    def test_gap_column(self, capsys):
        code, out = run(
            capsys, "variation-table", "--alpha", "1", "--beta", "1", "--T", "1",
            "--k", "2", "--N-list", "1,2,4,8",
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "N,value,value_f64,predicted,gap"
        gaps = [line.split(",")[-1] for line in lines[1:]]
        # T^2/N + alpha^2 T^3/N^2 exactly
        assert gaps == ["2", "3/4", "5/16", "9/64"]

    def test_centered_table(self, capsys):
        code, out = run(
            capsys, "variation-table", "--alpha", "1", "--beta", "2", "--T", "1",
            "--n", "2", "--N-list", "2,4",
        )
        assert code == 0
        rows = out.strip().splitlines()[1:]
        assert rows[0].split(",")[1] == "5/4"

    # 60-digit flags: the first two reduce with denominators coprime to the third's
    ALPHA = "508407740755353032575834893130694935563376699389215517290997/712968983734748722586037329171604799241722823978990959586185"
    T = "2086513487273733063022548872164169459625685221759575555746163/8469975373839321648721423453577971413280563096646894812792824"
    BETA = "314159265358979323846264338327950288419716939937510582097494/271828182845904523536028747135266249775724709369995957496697"

    @pytest.mark.parametrize("beta,power,counts,digits", [
        ("1", ["--k", "32"], "8", 7606), (BETA, ["--n", "16"], "8", 4598), ("1", ["--k", "18"], "8,100000", 4338),
    ], ids=["k32", "n16_beta", "k18_second_count"])
    def test_digit_bound_refuses_before_any_work(self, capsys, monkeypatch, beta, power, counts, digits):
        # each refused row would print past 4,300 digits: before the bound, the
        # k = 32 row worked 2.7 s before Python refused to print it
        monkeypatch.setattr(cli, "brownian_family", lambda *args, **kwargs: pytest.fail("a family was built"))
        start = time.perf_counter()
        code = main(["variation-table", "--alpha", self.ALPHA, "--beta", beta, "--T", self.T, *power, "--N-list", counts])
        assert time.perf_counter() - start < 0.5
        captured = capsys.readouterr()
        assert (code, captured.out) == (2, "")
        assert captured.err.splitlines() == [
            f"error: {' '.join(power)} at N = {counts.split(',')[-1]} of --N-list and this --alpha, --T and --beta "
            f"can print {digits}-digit numbers, past the 4300-digit limit of integer output"
        ]

    @pytest.mark.parametrize("beta,power,digits", [
        ("1", ["--k", "18"], 4199), (ALPHA, ["--n", "16"], 3705), (BETA, ["--n", "15"], 4289),
    ], ids=["k18", "n16_beta_alpha", "n15_beta"])
    def test_rows_under_the_limit_still_print(self, capsys, beta, power, digits):
        code, out = run(capsys, "variation-table", "--alpha", self.ALPHA, "--beta", beta, "--T", self.T, *power,
                        "--N-list", "8")
        assert code == 0
        _, value, _, predicted, gap = out.splitlines()[1].split(",")
        numbers = [n for x in (value, predicted, gap) for n in x.lstrip("-").split("/")]
        assert max(map(len, numbers)) <= digits

    def test_norm_table(self, capsys):
        code, out = run(
            capsys, "norm-table", "--alpha", "1", "--beta", "2", "--T", "1",
            "--k", "2", "--n-max", "2", "--N", "4",
        )
        assert code == 0
        values = [float(line.split(",")[1]) for line in out.strip().splitlines()[1:]]
        assert values == sorted(values)


class TestPlumbing:
    def test_unknown_command_exits_2(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["no-such-command"])
        assert info.value.code == 2

    def test_bad_rational_exits_2(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["moments", "--alpha", "x/y", "--T", "1"])
        assert info.value.code == 2

    @pytest.mark.parametrize(
        "argv",
        [
            ["moments", "--alpha", "3/0", "--T", "1", "--order", "4"],
            ["fock-moments", "--alpha", "1", "--T", "5/0", "--N", "2"],
            ["moments", "--alpha", "1", "--T", "1", "--beta", "7/0", "--order", "4"],
            ["variation-table", "--alpha", "1", "--beta", "1", "--T", "1", "--k", "2", "--N-list", "0"],
            ["moments", "--alpha", "1", "--T", "1", "--order", "0"],
            ["jacobi", "--alpha", "1", "--t", "1", "--order", "0"],
            ["fock-moments", "--alpha", "1", "--T", "1", "--N", "2", "--degree", "0"],
            ["kernel-residual", "--alpha", "1", "--t", "1", "--depth", "0"],
            ["density", "--measure", "mu", "--alpha", "1", "--t", "1", "--samples", "0"],
            ["generator-check", "--alpha", "1", "--n-max", "-1"],
            ["martingale-check", "--alpha", "1", "--T", "1", "--N", "2", "--n-max", "-1"],
            ["martingale-check", "--alpha", "1", "--T", "1", "--N", "1"],
            ["freeness-check", "--alpha", "1", "--T", "1", "--N", "2", "--max-len", "0"],
            ["norm-table", "--alpha", "1", "--T", "1", "--N", "2", "--n-max", "0"],
            ["variation-table", "--alpha", "1", "--beta", "1", "--T", "1", "--k", "0", "--N-list", "2"],
            ["norm-table", "--alpha", "1", "--T", "1", "--N", "2", "--k", "0"],
            ["moments", "--alpha", "1", "--T", "0", "--order", "4"],
            ["moments", "--alpha", "1", "--T", "-1", "--order", "4"],
            ["variation-table", "--alpha", "1", "--T", "1", "--k", "0", "--n", "2", "--N-list", "2"],
            ["variation-table", "--alpha", "1", "--T", "1", "--k", "5", "--n", "2", "--N-list", "2"],
            ["selfcheck", "--alpha", "1", "--T", "1", "--order", "3"],
            ["selfcheck", "--alpha", "1", "--T", "1", "--order", "1"],
            ["selfcheck", "--alpha", "1", "--T", "1", "--order", str(TRANSFORM_ORDER_CAP + 1)],
            ["moments", "--alpha", "1", "--T", "1", "--order", str(TRANSFORM_ORDER_CAP + 1)],
            ["jacobi", "--alpha", "1", "--t", "1", "--order", str(TRANSFORM_ORDER_CAP + 1)],
            ["norm-table", "--alpha", "1", "--beta", "1", "--T", "1", "--k", "2", "--n-max", "9", "--N", "2"],
            ["norm-table", "--alpha", "1", "--beta", "-1", "--T", "1", "--N", "2", "--n-max", "2"],
            ["density", "--measure", "nu", "--alpha", "1", "--t", "1e400", "--samples", "2"],
            ["variation-table", "--alpha", "1", "--beta", "1", "--T", "1e400", "--k", "1", "--N-list", "1"],
            ["norm-table", "--alpha", "1", "--beta", "1", "--T", "1e400", "--k", "1", "--n-max", "1", "--N", "2"],
            ["fock-moments", "--alpha", "12345678901234567890/98765432109876543211",
             "--T", "12345678901234567890/98765432109876543211", "--N", "1", "--degree", "200"],
            ["selfcheck", "--alpha", "1", "--T", "1", "--N", "0", "--order", "12"],
            ["density", "--measure", "ct", "--alpha", "1e-17", "--t", "1", "--samples", "3"],
            ["density", "--measure", "ct", "--alpha", "1e-400", "--t", "1", "--samples", "3"],
            ["density", "--measure", "nu", "--alpha", "1", "--t", "1e-400", "--samples", "2"],
            ["kernel-residual", "--alpha", "1", "--t", "1", "--depth", "601"],
            ["generator-check", "--alpha", "1/3", "--n-max", "17"],
            ["fock-moments", "--alpha", "1", "--T", "1", "--N", str(fock.CELL_CAP + 1)],
            ["freeness-check", "--alpha", "1", "--T", "1", "--N", str(fock.CELL_CAP + 1)],
            ["martingale-check", "--alpha", "1", "--T", "1", "--N", str(fock.CELL_CAP + 1)],
            ["norm-table", "--alpha", "1", "--T", "1", "--N", "2", "--n-max", "1000000"],
            ["variation-table", "--alpha", "1", "--T", "1", "--k", "1000000", "--N-list", "2"],
            ["norm-table", "--alpha", "1", "--T", "1", "--N", "2", "--n-max", "1000000000000"],
            ["variation-table", "--alpha", "1", "--T", "1", "--k", "1000000000000", "--N-list", "2"],
            ["selfcheck", "--alpha", "1", "--T", "1", "--N", str(fock.CELL_CAP + 1)],
            ["martingale-check", "--alpha", "1", "--T", "1", "--N", "3", "--n-max", str(fock.MARTINGALE_DEGREE_CAP + 1)],
            ["freeness-check", "--alpha", "1", "--T", "1", "--N", "8", "--max-len", "4"],
            ["fock-moments", "--alpha", "1", "--T", "1", "--N", "8", "--degree", str(fock.TABLE_DEGREE_CAP + 1)],
            ["density", "--measure", "nu", "--alpha", "1", "--t", "1", "--samples", str(DENSITY_SAMPLE_CAP + 1)],
            # --k and --n exclude each other even when --k is given its usual value
            ["variation-table", "--alpha", "1", "--T", "1", "--k", "2", "--n", "2", "--N-list", "2"],
            # the exact residual is never 0, so a 0.0 is a float underflow
            ["kernel-residual", "--alpha", "1e300", "--t", "1e300", "--depth", "3"],
            # refused before Fraction builds the power of ten
            ["moments", "--alpha", "1e1000000", "--T", "1", "--order", "8"],
            ["moments", "--alpha", "1e100000000", "--T", "1", "--order", "8"],
        ],
    )
    def test_malformed_input_exits_2(self, capsys, argv):
        # every size cap is checked before any work starts
        start = time.perf_counter()
        try:
            code = main(argv)
        except SystemExit as info:
            code = info.code
        assert time.perf_counter() - start < 1
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert any("error:" in line for line in captured.err.splitlines())
        assert "Traceback" not in captured.err

    @pytest.mark.parametrize(
        "argv,message",
        [
            (["generator-check", "--alpha", "1/3", "--n-max", "17"], "error: n-max must be at most 16, got 17"),
            (["fock-moments", "--alpha", "1", "--T", "1", "--N", "8", "--degree", "201"], "error: degree must be at most 200, got 201"),
            (["density", "--measure", "nu", "--alpha", "1", "--t", "1", "--samples", "10001"], "error: samples must be at most 10000, got 10001"),
            (["fock-moments", "--alpha", "12345678901234567890/98765432109876543211",
              "--T", "12345678901234567890/98765432109876543211", "--N", "1", "--degree", "200"],
             "error: --degree 200 at this --alpha and --T can print 8094-digit numbers, past the 4300-digit limit of integer output"),
            # --k 33 needs 66-letter words: the family's order passes the transform order cap
            (["variation-table", "--alpha", "1/2", "--T", "1", "--k", "33", "--N-list", "1,4,8"],
             f"error: order 66 exceeds the transform order cap {TRANSFORM_ORDER_CAP}"),
            # far past the caps the rows would also pass the digit limit: the cap is reported
            (["variation-table", "--alpha", "1/2", "--T", "1", "--k", "5000", "--N-list", "2"],
             f"error: order 10000 exceeds the transform order cap {TRANSFORM_ORDER_CAP}"),
            (["variation-table", "--alpha", "1/2", "--T", "1", "--n", "5000", "--N-list", "2"],
             "error: lemma_sum supports n <= 16"),
            # selfcheck --order is bounded by the transform order cap alone
            (["selfcheck", "--alpha", "1/2", "--T", "1", "--order", str(TRANSFORM_ORDER_CAP + 1)],
             f"error: order {TRANSFORM_ORDER_CAP + 1} exceeds the transform order cap {TRANSFORM_ORDER_CAP}"),
            # the exact rows pass the digit bound, but their float column has no value
            (["variation-table", "--alpha", "1000000", "--T", "100000000", "--k", "16", "--N-list", "1"],
             "error: --k 16 at N = 1 of --N-list and this --alpha, --T and --beta: "
             "the value is past the float range of value_f64"),
            (["norm-table", "--alpha", "1000000", "--T", "100000000", "--k", "2", "--n-max", "8", "--N", "1"],
             "error: --k 2 at N = 1, --n-max 8 and this --alpha, --T and --beta: "
             "phi[(...)^12] is past the float range at n=6: no 12-norm"),
            # every entry of --N-list is checked before any row
            (["variation-table", "--alpha", "1", "--T", "1", "--N-list", "0"], "error: N-list must be at least 1, got 0"),
            (["variation-table", "--alpha", "1", "--T", "1", "--N-list", "2,0"], "error: N-list must be at least 1, got 0"),
            (["variation-table", "--alpha", "1", "--T", "1", "--n", "2", "--N-list", "3,-1"],
             "error: N-list must be at least 1, got -1"),
            (["norm-table", "--alpha", "1", "--T", "1", "--N", "0"], "error: N must be at least 1, got 0"),
        ],
    )
    def test_count_caps_name_the_flag(self, capsys, argv, message):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [message]

    @pytest.mark.parametrize(
        "argv",
        [
            ["density", "--measure", "mu", "--alpha", "1", "--t", "4", "--samples", "100"],
            ["density", "--measure", "ct", "--alpha", "1/2", "--t", "1", "--samples", "150"],
            ["fock-moments", "--alpha", "1/2", "--T", "1", "--N", "8", "--degree", str(fock.TABLE_DEGREE_CAP)],
            # 9- and 20-digit rationals pass the output-size check at these degrees
            ["fock-moments", "--alpha", "987654321/123456789", "--T", "999999999/999999998", "--N", "2",
             "--degree", str(fock.TABLE_DEGREE_CAP)],
            ["fock-moments", "--alpha", "12345678901234567890/98765432109876543211",
             "--T", "12345678901234567890/98765432109876543211", "--N", "1", "--degree", "100"],
            # 14-letter mixed moments, past partitions.ENUMERATION_CAP, which bounds only enumerations
            ["variation-table", "--alpha", "1/2", "--T", "1", "--k", "7", "--N-list", "1"],
        ],
    )
    def test_counts_at_or_below_the_caps_run(self, capsys, argv):
        code, out = run(capsys, *argv)
        assert code == 0
        # a header, one row per sample, degree or N (a one-N list), and density's atom line
        assert len(out.splitlines()) == int(argv[-1]) + 1 + (argv[0] == "density")

    @pytest.mark.parametrize("cap,message", [(3, "error: n=4 exceeds the enumeration cap 3")])
    def test_cap_errors_exit_2(self, capsys, monkeypatch, cap, message):
        # norm-table at k != 2 expands (sum_i X_i^k)^(2n) over the set
        # partitions of its 2n factors; mixed moments, the transforms and
        # selfcheck enumerate nothing
        monkeypatch.setattr(partitions, "ENUMERATION_CAP", cap)
        code = main(["norm-table", "--alpha", "1", "--T", "1", "--N", "2", "--k", "1", "--n-max", "2"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.err.splitlines() == [message]

    def test_byte_identical_reruns(self, capsys):
        args = ["selfcheck", "--alpha", "1", "--T", "1", "--N", "2", "--order", "5"]
        _, first = run(capsys, *args)
        _, second = run(capsys, *args)
        assert first == second

    def test_numpy_loads_only_with_the_quadrature(self):
        # numpy serves only quadrature_moment, so importing the package and
        # its CLI must leave it unloaded; the first quadrature loads it
        script = (
            "import sys\n"
            "import twostate, twostate.cli\n"
            "assert 'numpy' not in sys.modules\n"
            "from fractions import Fraction\n"
            "from twostate.spectral import quadrature_moment, semicircle_law\n"
            "value = quadrature_moment(semicircle_law(Fraction(1), Fraction(1)), 2)\n"
            "assert 'numpy' in sys.modules\n"
            "print(repr(value))\n"
        )
        result = run_fresh("-c", script)
        assert result.returncode == 0, result.stderr
        assert float(result.stdout) == pytest.approx(2.0, abs=1e-8)

    def test_output_file(self, capsys, tmp_path):
        target = tmp_path / "out.csv"
        code, out = run(capsys, "moments", "--alpha", "1", "--T", "1", "--order", "2", "--output", str(target))
        assert code == 0
        assert out == ""
        assert target.read_text().startswith("n,phi_moment,psi_moment")


# Token pools of the grammar fuzz. Counts stop at 3: freeness-check at
# --N 4 --max-len 4 alone takes seconds.
RATIONALS = ("0", "1", "-1", "1/2", "-3/7", "1/0", "x", "", "1e-400", "1e400")
COUNTS = ("-1", "0", "1", "2", "3", "x", "1.5")
TOKENS = {"--measure": ("nu", "mu", "ct", "zz"), "--N-list": ("1", "1,2", "0", "", "a")}
GRAMMAR = {
    "moments": ("--alpha", "--T", "--beta", "--order"),
    "jacobi": ("--alpha", "--t", "--order"),
    "density": ("--alpha", "--t", "--measure", "--samples"),
    "fock-moments": ("--alpha", "--T", "--N", "--degree"),
    "freeness-check": ("--alpha", "--T", "--N", "--max-len"),
    "martingale-check": ("--alpha", "--T", "--N", "--n-max"),
    "variation-table": ("--alpha", "--T", "--beta", "--k", "--n", "--N-list"),
    "norm-table": ("--alpha", "--T", "--beta", "--k", "--n-max", "--N"),
    "generator-check": ("--alpha", "--n-max"),
    "kernel-residual": ("--alpha", "--t", "--depth"),
    "selfcheck": ("--alpha", "--T", "--N", "--order"),
}
# the commands that report a failed identity with exit 1
VERIFYING = {"jacobi", "freeness-check", "martingale-check", "generator-check", "selfcheck"}


@st.composite
def argvs(draw):
    command = draw(st.sampled_from(sorted(GRAMMAR)))
    argv = [command]
    for flag in GRAMMAR[command]:
        pool = TOKENS.get(flag, RATIONALS if flag in ("--alpha", "--T", "--t", "--beta") else COUNTS)
        token = draw(st.sampled_from((None,) + pool))
        if token is not None:
            argv += [flag, token]
    return argv


class TestGrammarFuzz:
    @settings(max_examples=400, deadline=None)
    @given(argv=argvs())
    def test_every_argv_exits_cleanly(self, argv):
        # 0 answers, 1 is a failed identity of a verifying command, 2 is bad
        # input (from the command or from argparse); nothing else escapes
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as info:
                assert info.code == 2
                code = 2
        assert code in ((0, 1, 2) if argv[0] in VERIFYING else (0, 2))
        assert "Traceback" not in err.getvalue()
