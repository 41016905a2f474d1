import contextlib
import io
import json
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from twostate import partitions
from twostate.cli import main
from twostate.cumulants import TRANSFORM_ORDER_CAP


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out


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

    def test_generator(self, capsys):
        code, out = run(capsys, "generator-check", "--alpha", "1/2", "--n-max", "6")
        assert code == 0
        rows = [json.loads(line) for line in out.strip().splitlines()]
        assert all(row["residual_is_zero"] for row in rows)
        assert [row["n"] for row in rows] == list(range(7))

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
            ["selfcheck", "--alpha", "1", "--T", "1", "--order", "13"],
            ["moments", "--alpha", "1", "--T", "1", "--order", str(TRANSFORM_ORDER_CAP + 1)],
            ["jacobi", "--alpha", "1", "--t", "1", "--order", str(TRANSFORM_ORDER_CAP + 1)],
            ["norm-table", "--alpha", "1", "--beta", "1", "--T", "1", "--k", "2", "--n-max", "5", "--N", "2"],
            ["norm-table", "--alpha", "1", "--beta", "-1", "--T", "1", "--N", "2", "--n-max", "2"],
            ["density", "--measure", "nu", "--alpha", "1", "--t", "1e400", "--samples", "2"],
            ["variation-table", "--alpha", "1", "--beta", "1", "--T", "1e400", "--k", "1", "--N-list", "1"],
            ["norm-table", "--alpha", "1", "--beta", "1", "--T", "1e400", "--k", "1", "--n-max", "1", "--N", "2"],
            ["selfcheck", "--alpha", "1e400", "--T", "1", "--N", "2", "--order", "4"],
            ["selfcheck", "--alpha", "1", "--T", "1", "--N", "0", "--order", "12"],
            ["density", "--measure", "ct", "--alpha", "1e-17", "--t", "1", "--samples", "3"],
            ["density", "--measure", "ct", "--alpha", "1e-400", "--t", "1", "--samples", "3"],
            ["density", "--measure", "nu", "--alpha", "1", "--t", "1e-400", "--samples", "2"],
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

    @pytest.mark.parametrize("cap,message", [(3, "error: n=4 exceeds the enumeration cap 3")])
    def test_cap_errors_exit_2(self, capsys, monkeypatch, cap, message):
        # the k = 2 table needs the mixed moment of a word of length 4, which
        # enumerates partitions; the moment transforms no longer do
        monkeypatch.setattr(partitions, "ENUMERATION_CAP", cap)
        code = main(["variation-table", "--alpha", "1", "--beta", "1", "--T", "1", "--k", "2", "--N-list", "2"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.err.splitlines() == [message]

    def test_byte_identical_reruns(self, capsys):
        args = ["selfcheck", "--alpha", "1", "--T", "1", "--N", "2", "--order", "5"]
        _, first = run(capsys, *args)
        _, second = run(capsys, *args)
        assert first == second

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
