import json

import pytest

from twostate.cli import main


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
        ],
    )
    def test_malformed_input_exits_2(self, capsys, argv):
        try:
            code = main(argv)
        except SystemExit as info:
            code = info.code
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert any("error:" in line for line in captured.err.splitlines())
        assert "Traceback" not in captured.err

    @pytest.mark.parametrize(
        "raw,message",
        [("abc", "error: FREEPROB_MAX_N must be a positive integer, got 'abc'"),
         ("3", "error: n=4 exceeds the enumeration cap 3")],
    )
    def test_cap_errors_exit_2(self, capsys, monkeypatch, raw, message):
        monkeypatch.setenv("FREEPROB_MAX_N", raw)
        code = main(["moments", "--alpha", "1", "--T", "1", "--order", "4"])
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
