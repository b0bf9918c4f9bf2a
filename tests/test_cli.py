import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import charpos
from charpos import check, cli, ntcore, verify
from test_ntcore import Built, stub_builders


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestVerifyCommand:
    def test_text_output_holds(self, capsys):
        code, out, err = run_cli(capsys, "verify", "--q-max", "2000")
        assert code == 0
        assert "positivity holds" in out
        assert "min W = 1 at q = 11" in out
        assert "scan finished" in err

    def test_json_output_is_stable(self, capsys):
        code1, out1, _ = run_cli(capsys, "verify", "--q-max", "2000",
                                 "--format", "json")
        code2, out2, _ = run_cli(capsys, "verify", "--q-max", "2000",
                                 "--format", "json")
        assert code1 == code2 == 0
        assert out1 == out2
        payload = json.loads(out1)
        assert payload["holds"] is True
        assert payload["version"] == "v1"

    def test_empty_range_is_fine(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--q-max", "4")
        assert code == 0
        assert "vacuously" in out

    def test_inverted_explicit_range_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["verify", "--q-min", "10", "--q-max", "5"])
        assert exc.value.code == 2

    def test_checkpoint_roundtrip(self, capsys, tmp_path):
        path = tmp_path / "ck.jsonl"
        code, out1, _ = run_cli(capsys, "verify", "--q-max", "2000",
                                "--checkpoint", str(path), "--format", "json")
        assert code == 0 and path.exists()
        code, out2, _ = run_cli(capsys, "verify", "--q-max", "2000",
                                "--checkpoint", str(path), "--format", "json")
        assert code == 0
        assert out1 == out2


class TestCertifyCommand:
    def test_stdout_certificate_verifies(self, capsys):
        code, out, err = run_cli(capsys, "certify", "--eps", "7/163",
                                 "--q", "163", "--xmax", "1/4")
        assert code == 0
        cert = json.loads(out)
        ok, why = verify.verify_certificate(cert)
        assert ok, why

    def test_stdout_is_pinned(self, capsys):
        code, out, _ = run_cli(capsys, "certify", "--eps", "7/163", "--q", "163")
        w = [8, 10, 13, 15, 16, 18, 21, 25, 28, 30, 31, 33, 36, 40, 45, 49, 52,
             56, 59, 61, 62, 64, 67, 71, 76, 82, 89, 95, 100, 104, 107, 111,
             114, 116, 117]
        assert code == 0
        assert out == (
            '{"a0":7,"agreement_N":40,"h":1,"margins":['
            + ",".join(f'{{"W":{v},"a":{a}}}' for a, v in enumerate(w, start=7))
            + '],"q":163,"verdict":"nonnegative","version":"v1",'
              '"xmax_den":4,"xmax_num":1}\n')

    def test_file_output(self, capsys, tmp_path):
        path = tmp_path / "cert.json"
        code, out, err = run_cli(capsys, "certify", "--eps", "7/163",
                                 "--q", "163", "--out", str(path))
        assert code == 0
        assert out == ""
        cert = json.loads(path.read_text())
        assert verify.verify_certificate(cert)[0]

    def test_truncation_noted_on_stderr(self, capsys):
        code, out, err = run_cli(capsys, "certify", "--eps", "7/163",
                                 "--q", "163", "--xmax", "1/2")
        assert code == 0
        assert "truncated" in err
        cert = json.loads(out)
        assert cert["xmax_num"] == 78 and cert["xmax_den"] == 163

    def test_decimal_eps_rejected(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["certify", "--eps", "0.04", "--q", "163"])
        assert exc.value.code == 2

    def test_insufficient_bound_fails_with_hint(self, capsys):
        code, out, err = run_cli(capsys, "certify", "--eps", "1/1000",
                                 "--q", "163")
        assert code == 1
        assert "6/163" in err

    def test_auto_mode(self, capsys):
        code, out, _ = run_cli(capsys, "certify", "--eps", "7/163", "--auto")
        assert code == 0
        assert json.loads(out)["q"] == 163

    def test_unwritable_output_is_io_error(self, capsys, tmp_path):
        target = tmp_path / "missing" / "cert.json"
        code, out, err = run_cli(capsys, "certify", "--eps", "7/163",
                                 "--q", "163", "--out", str(target))
        assert code == 3


class TestCheckCertCommand:
    def test_one_checker_everywhere(self):
        # check-cert, the package API and merge_certificates all run the
        # checker module's function
        assert (cli.verify_certificate is charpos.verify_certificate
                is verify.verify_certificate is check.verify_certificate)

    def test_valid_roundtrip(self, capsys, tmp_path):
        path = tmp_path / "cert.json"
        run_cli(capsys, "certify", "--eps", "7/163", "--q", "163",
                "--out", str(path))
        code, out, _ = run_cli(capsys, "check-cert", str(path))
        assert code == 0
        assert out.strip() == "ok"

    def test_tampered_rejected(self, capsys, tmp_path):
        path = tmp_path / "cert.json"
        run_cli(capsys, "certify", "--eps", "7/163", "--q", "163",
                "--out", str(path))
        cert = json.loads(path.read_text())
        cert["h"] += 1
        path.write_text(json.dumps(cert))
        code, out, _ = run_cli(capsys, "check-cert", str(path))
        assert code == 1
        assert out.startswith("invalid:")

    def test_missing_file(self, capsys, tmp_path):
        code, _, err = run_cli(capsys, "check-cert", str(tmp_path / "no.json"))
        assert code == 3

    def test_unparseable_file(self, capsys, tmp_path):
        path = tmp_path / "junk.json"
        path.write_text("{")
        code, out, _ = run_cli(capsys, "check-cert", str(path))
        assert code == 1
        assert out.startswith("invalid:")


class TestPlotCommand:
    def test_f_grid(self, capsys):
        code, out, _ = run_cli(capsys, "plot", "f", "--terms", "1000",
                               "--xmax", "1", "--step", "0.001")
        lines = out.splitlines()
        assert code == 0
        assert lines[0] == "x,value,error_bound"
        assert len(lines) == 1002
        assert lines[1] == "0,0,0.001"
        assert lines[2].startswith("1/1000,")
        assert all(line.endswith(",0.001") for line in lines[1:])

    def test_fq_single_point(self, capsys):
        code, out, _ = run_cli(capsys, "plot", "fq", "--q", "163",
                               "--xmax", "0")
        assert code == 0
        assert out.splitlines() == ["x,value,error_bound", "0,0,0"]

    def test_diff_is_bounded(self, capsys):
        code, out, _ = run_cli(capsys, "plot", "diff", "--q", "163",
                               "--terms", "1000", "--step", "1/100")
        lines = out.splitlines()[1:]
        assert code == 0
        bound = 2 / 40 + 1 / 1000
        for line in lines:
            _, value, err = line.split(",")
            assert abs(float(value)) <= bound
            assert float(err) == pytest.approx(bound)

    @pytest.mark.parametrize("argv,err", [
        (["fq"], "error: plot fq needs --q\n"),
        (["diff"], "error: plot diff needs --q\n"),
        (["f", "--terms", "0"], "error: plot f needs --terms >= 1\n"),
    ])
    def test_missing_input_is_one_error_line(self, capsys, argv, err):
        assert run_cli(capsys, "plot", *argv) == (2, "", err)

    def test_bad_step_rejected(self, capsys):
        code, _, err = run_cli(capsys, "plot", "f", "--step", "0")
        assert code == 2

    @pytest.mark.parametrize("argv", [
        ["f", "--step=0"], ["f", "--step=-1/10"], ["f", "--xmax=-1"],
        ["fq", "--q", "163", "--step=0"], ["fq", "--q", "163", "--xmax=-1"],
        ["fq", "--q", "8"], ["diff", "--q", "9"], ["f", "--terms=0"],
        ["diff", "--q", "163", "--terms=0"],
        ["diff", "--q", "163", "--terms=-3"],
    ])
    def test_bad_input_prints_no_header(self, capsys, argv):
        code, out, err = run_cli(capsys, "plot", *argv)
        assert (code, out) == (2, "")
        assert err.startswith("error: ")

    def test_denominator_past_int64(self, capsys):
        x = "1/12157665459056928801"  # 3**40 > 2**63
        code, out, _ = run_cli(capsys, "plot", "f", "--xmax", x, "--step", x)
        lines = out.splitlines()
        assert code == 0 and len(lines) == 3
        assert lines[1] == "0,0,0.001" and lines[2].startswith(x + ",")


class TestMiscCommands:
    def test_class_number(self, capsys):
        code, out, _ = run_cli(capsys, "class-number", "2647")
        assert code == 0
        assert out.strip() == "15"

    def test_agreement(self, capsys):
        code, out, _ = run_cli(capsys, "agreement", "--q", "163")
        assert code == 0
        assert out.strip() == "40 41"

    def test_tq_first_column(self, capsys):
        code, out, _ = run_cli(capsys, "tq", "--count", "10")
        assert code == 0
        first = [int(line.split()[0]) for line in out.splitlines()]
        assert first == [1, 5, 10, 14, 29, 42, 57, 80, 111, 91]

    def test_tq_count_zero_and_negative(self, capsys):
        assert run_cli(capsys, "tq", "--count", "0") == (0, "", "")
        assert run_cli(capsys, "tq", "--count", "-1") == (
            2, "", "error: tq needs --count >= 0\n")

    def test_tq_count_past_first_range_has_no_repeats(self, capsys):
        code, out, _ = run_cli(capsys, "tq", "--count", "50")
        assert code == 0
        qs = [int(line.split()[1]) for line in out.splitlines()]
        assert len(qs) == 50
        assert qs == sorted(set(qs))
        assert all(q % 8 == 7 for q in qs)

    def test_imitator(self, capsys):
        code, out, _ = run_cli(capsys, "imitator", "--agreement", "40")
        assert code == 0
        assert out.strip() == "163"

    def test_imitator_answers_under_a_huge_ceiling(self, capsys):
        code, out, _ = run_cli(capsys, "imitator", "--agreement", "40",
                               "--ceiling", str(10**18))
        assert (code, out.strip()) == (0, "163")

    def test_imitator_budget(self, capsys):
        code, _, err = run_cli(capsys, "imitator", "--agreement", "40",
                               "--ceiling", "100")
        assert code == 1

    def test_testpq(self, capsys):
        code, out, _ = run_cli(capsys, "testpq", "--a", "1", "--p", "719",
                               "--q", "2971")
        assert code == 0
        fields = out.split()
        assert fields[0] == "130724"

    def test_testpq_stdout_is_pinned(self, capsys):
        code, out, _ = run_cli(capsys, "testpq", "--a", "1", "--p", "1163",
                               "--q", "3511")
        assert code == 0
        assert out == "561760 2293830675680 0.0114576249717\n"

    def test_fq_eval(self, capsys):
        code, out, _ = run_cli(capsys, "fq-eval", "--q", "163",
                               "--x", "7/163")
        assert code == 0
        assert out.startswith("8/163 0.075")

    @pytest.mark.parametrize("argv", [
        ["fq-eval", "--q", "163", "--x", "1/0"],
        ["fq-margin", "--q", "163", "--x=-1/0"],
        ["certify", "--eps", "1/0", "--q", "163"],
        ["certify", "--eps", "7/163", "--q", "163", "--xmax", "1/0"],
        ["plot", "f", "--step", "1/0"],
    ])
    def test_zero_denominator_is_usage_error(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "usage:" in err and "Traceback" not in err

    def test_fq_margin(self, capsys):
        code, out, _ = run_cli(capsys, "fq-margin", "--q", "19",
                               "--x", "25/76")
        assert code == 0
        assert out.strip() == "19/25 q-divisible"

    def test_fq_zeros(self, capsys):
        code, out, _ = run_cli(capsys, "fq-zeros", "--q", "23")
        lines = out.splitlines()
        assert code == 0
        assert lines[0] == "min 0 at 11"
        assert "zero 11/23" in lines
        assert "flat 11/23 1/2" in lines

    def test_fq_zeros_stdout_is_pinned(self, capsys):
        code, out, _ = run_cli(capsys, "fq-zeros", "--q", "2647")
        assert code == 0
        assert out == ("min -171 at 1185\nzero 10285/23823\nzero 1320/2647\n"
                       "zero 1323/2647\nflat 1323/2647 1/2\n")

    FQ_ZEROS = {
        255255: ("min -18091 at 125561\nzero 139374/286195\nzero 382832/765765\n"
                 "zero 127627/255255\nflat 127627/255255 1/2\n"),
        999919: ("min -27657 at 494153\nzero 29090817/58995221\n"
                 "zero 3470454/6999433\nzero 499904/999919\nzero 1499762/2999757\n"
                 "zero 499959/999919\nflat 499959/999919 1/2\n"),
        999983: "min 0 at 499991\nzero 499991/999983\nflat 499991/999983 1/2\n",
    }

    @pytest.mark.parametrize("q", sorted(FQ_ZEROS))
    def test_fq_zeros_stdout_from_block_bounds(self, capsys, q):
        # half ranges of many blocks, so only the runs of blocks whose bound
        # reaches max(0, least start) are read; the text is that of the
        # walk over the whole half range
        code, out, _ = run_cli(capsys, "fq-zeros", "--q", str(q))
        assert (code, out) == (0, self.FQ_ZEROS[q])

    def test_identity(self, capsys):
        code, out, _ = run_cli(capsys, "identity", "--q", "35")
        assert code == 0 and out.strip() == "ok"
        code, out, _ = run_cli(capsys, "identity", "--q", "163", "--a", "40")
        assert code == 0 and out.strip() == "ok"

    @pytest.mark.parametrize("argv", [["--q", "2147483647", "--a", "0"],
                                      ["--q", "2147483647"],
                                      ["--q", "163", "--a", "0"]])
    def test_identity_rejects_before_building_tables(self, capsys,
                                                     monkeypatch, argv):
        built = stub_builders(monkeypatch)
        code, out, err = run_cli(capsys, "identity", *argv)
        assert (code, out) == (2, "")
        assert err.startswith("error: ")
        assert built == []

    def test_identity_past_a_billion_reaches_the_table(self, capsys,
                                                       monkeypatch):
        built = stub_builders(monkeypatch)
        with pytest.raises(Built):
            run_cli(capsys, "identity", "--q", "1000000007")
        assert built == [("_qr_period", 1000000007)]

    def test_identity_stdout_is_pinned(self, capsys):
        code, out, _ = run_cli(capsys, "identity", "--q", "127")
        assert code == 0
        assert out == "ok\n"

    def test_invalid_modulus_is_usage_error(self, capsys):
        code, _, err = run_cli(capsys, "class-number", "12")
        assert code == 2


class _NoBigArrays:
    """numpy as ntcore sees it, with any array of more than 2**27 entries
    failing at once instead of being allocated."""

    def __getattr__(self, name):
        real = getattr(np, name)
        if name not in ("empty", "full", "ones", "zeros", "resize"):
            return real

        def alloc(*args, **kwargs):
            shape = args[-1] if name == "resize" else args[0]
            if int(np.prod(shape, dtype=object)) > 1 << 27:
                raise AssertionError(f"np.{name} of shape {shape}")
            return real(*args, **kwargs)
        return alloc


class TestTableGate:
    Q = "1000000000000000003"

    @pytest.mark.parametrize("argv", [
        ["class-number", "100001400002299"],
        ["class-number", Q],
        ["fq-eval", "--q", Q, "--x", "1/3"],
        ["fq-margin", "--q", Q, "--x", "1/3"],
        ["certify", "--q", Q, "--eps", "1/10", "--xmax", "1/4"],
        ["fq-zeros", "--q", Q],
        ["plot", "f", "--terms", str(ntcore._TABLE_MAX)],
        ["plot", "diff", "--q", "163", "--terms", str(ntcore._TABLE_MAX)],
    ])
    def test_oversized_table_is_usage_error(self, capsys, monkeypatch, argv):
        monkeypatch.setattr(ntcore, "np", _NoBigArrays())
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and err.count("\n") == 1
        assert str(ntcore._TABLE_MAX) in err

    def test_plot_stops_at_its_first_table(self, capsys, monkeypatch):
        # the class number's table is asked for before the CSV header
        monkeypatch.setattr(ntcore, "np", _NoBigArrays())
        for curve in ("fq", "diff"):
            code, out, err = run_cli(capsys, "plot", curve, "--q", self.Q,
                                     "--terms", "10")
            assert (code, out) == (2, ""), curve
            assert err.startswith("error: ") and err.count("\n") == 1
            assert str(ntcore._TABLE_MAX) in err

    @pytest.mark.parametrize("q_min", [Q, "5"])
    def test_verify_refuses_before_sieving(self, capsys, monkeypatch, q_min):
        # past the gate, and a range that straddles it
        def refuse(*args, **kwargs):
            raise AssertionError("sieved")

        monkeypatch.setattr(ntcore, "np", _NoBigArrays())
        monkeypatch.setattr(verify, "primes_in_range", refuse)
        code, out, err = run_cli(capsys, "verify", "--q-min", q_min,
                                 "--q-max", str(int(self.Q) + 100))
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and err.count("\n") == 1
        assert str(ntcore._TABLE_MAX) in err

    def test_class_number_past_the_sieve_limit_fails_fast(self):
        # 2**31 - 1 passes the gate (a half range of 2**30 entries), but its
        # period does not and a sieve over 2**30 entries is refused
        src = str(Path(cli.__file__).parents[1])
        proc = subprocess.run([sys.executable, "-m", "charpos.cli",
                               "class-number", "2147483647"],
                              capture_output=True, text=True, timeout=5,
                              env={**os.environ, "PYTHONPATH": src})
        assert (proc.returncode, proc.stdout) == (2, "")
        assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1
        assert str(ntcore._SIEVE_MAX) in proc.stderr

    def test_agreement_needs_no_table(self, capsys, monkeypatch):
        monkeypatch.setattr(ntcore, "np", _NoBigArrays())
        code, out, _ = run_cli(capsys, "agreement", "--q", self.Q)
        assert (code, out) == (0, "12 13\n")


class TestEntryPoint:
    def test_console_script_runs(self):
        # the child imports the charpos this suite imported, whatever
        # PYTHONPATH the suite was started with
        path = [str(Path(cli.__file__).parents[1]), os.environ.get("PYTHONPATH")]
        proc = subprocess.run([sys.executable, "-m", "charpos.cli",
                               "class-number", "163"],
                              capture_output=True, text=True,
                              env={**os.environ,
                                   "PYTHONPATH": os.pathsep.join(filter(None, path))})
        assert proc.returncode == 0
        assert proc.stdout.strip() == "1"

    def test_out_of_memory_is_one_error_line(self, capsys, monkeypatch):
        def exhausted(*args):
            raise MemoryError("Unable to allocate 3.73 GiB")

        monkeypatch.setattr(cli, "fq_min_and_zeros", exhausted)
        code, out, err = run_cli(capsys, "fq-zeros", "--q", "1000000007")
        assert (code, out) == (2, "")
        assert err == "error: out of memory for fq-zeros --q 1000000007\n"
