"""Command-line interface: output formats, determinism, exit codes."""

import json
import math
import shutil
import subprocess

import pytest

from hbcool.bias import ErrorRates, debias_step
from hbcool.circuits import circuit_from_text
from hbcool.cli import main
from hbcool.noise import enumerate_noisy_output_bias


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def run_json(capsys, *argv):
    code, out = run_cli(capsys, *argv)
    assert code == 0, out
    return json.loads(out)


class TestUpdate:
    def test_three_bc(self, capsys):
        rec = run_json(capsys, "update", "--rule", "three-bc", "--bias", "0.5")
        assert rec["result"] == 0.6875

    def test_two_bc_reports_accept_prob(self, capsys):
        rec = run_json(capsys, "update", "--rule", "two-bc", "--bias", "0.5")
        assert rec["result"] == 0.8
        assert rec["accept_prob"] == 0.625

    def test_three_bc_unequal(self, capsys):
        rec = run_json(capsys, "update", "--rule", "three-bc-unequal",
                       "--biases", "0.2,0.4,0.6")
        assert rec["result"] == pytest.approx(0.576, abs=1e-12)

    def test_steady_state_noisy(self, capsys):
        rec = run_json(capsys, "update", "--rule", "steady-state",
                       "--biases", "0.5,0.5", "--s", "0.2", "--d", "0.1")
        assert rec["result"] == pytest.approx(0.7142857142857143, abs=1e-12)

    def test_debias_requires_rates(self, capsys):
        code, out = run_cli(capsys, "update", "--rule", "debias", "--bias", "0.9")
        assert code == 1
        assert "error" in json.loads(out)

    def test_debias_requires_bias(self, capsys):
        code, out = run_cli(capsys, "update", "--rule", "debias", "--eps", "0.01")
        assert code == 1
        assert "--bias" in json.loads(out)["error"]

    @pytest.mark.parametrize("rule", ["sym-after", "sym-during"])
    def test_symmetric_rules_reject_unequal_rates(self, capsys, rule):
        code, out = run_cli(capsys, "update", "--rule", rule, "--bias", "0.5",
                            "--eps0", "0.01", "--eps1", "0.02")
        assert code == 1
        assert "symmetric" in json.loads(out)["error"]

    def test_asym_during_second_order(self, capsys):
        rec = run_json(capsys, "update", "--rule", "asym-during", "--bias", "0.5",
                       "--s", "0.02", "--d", "0.01", "--order", "second")
        assert rec["order"] == "second"

    def test_domain_error_exit_code(self, capsys):
        code, out = run_cli(capsys, "update", "--rule", "three-bc", "--bias", "1.5")
        assert code == 1
        assert "error" in json.loads(out)

    def test_parse_error_exit_code(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["update", "--rule", "no-such-rule", "--bias", "0.5"])
        assert exc.value.code == 2


class TestLimits:
    def test_sym_during_record(self, capsys):
        rec = run_json(capsys, "limits", "--model", "sym-during", "--eps", "0.01")
        assert rec["b_lim"] == pytest.approx(0.9307982906793045, abs=1e-9)
        assert rec["b_lim_second_order"] == pytest.approx(0.9318, abs=1e-12)
        assert rec["threshold"] == pytest.approx(0.048592, abs=1e-6)

    def test_rates_as_eps0_eps1(self, capsys):
        rec = run_json(capsys, "limits", "--model", "asym-after",
                       "--eps0", "0.005", "--eps1", "0.015")
        assert rec["threshold"] is None
        assert rec["s"] == pytest.approx(0.02)

    def test_csv_output(self, capsys):
        code, out = run_cli(capsys, "limits", "--model", "sym-after", "--eps", "0.01",
                            "--format", "csv")
        assert code == 0
        header, row = out.strip().splitlines()
        assert header.split(",")[0] == "model"
        assert row.split(",")[0] == "sym-after"

    def test_mixed_rate_flags_rejected(self, capsys):
        code, out = run_cli(capsys, "limits", "--model", "sym-after",
                            "--eps", "0.01", "--s", "0.02")
        assert code == 1


class TestThresholds:
    def test_text_rows(self, capsys):
        code, out = run_cli(capsys, "thresholds", "--format", "text")
        assert code == 0
        lines = out.strip().splitlines()
        assert "sym-after 1/6" in lines
        assert "sym-during 0.048592" in lines
        assert "asym-after N/A" in lines
        assert "asym-during N/A" in lines

    def test_json_rows(self, capsys):
        rows = run_json(capsys, "thresholds")
        assert [r["model"] for r in rows] == [
            "sym-after", "sym-during", "asym-after", "asym-during"]
        assert rows[2]["threshold"] is None

    def test_csv(self, capsys):
        code, out = run_cli(capsys, "thresholds", "--format", "csv")
        assert code == 0
        assert out.splitlines()[0] == "model,threshold,threshold_text"
        assert "asym-after,N/A,N/A" in out


class TestTable:
    def test_reproduces_four_rows(self, capsys):
        rows = run_json(capsys, "table", "--eps", "0.01", "--s", "0.02", "--bi", "0.5")
        by_model = {r["model"]: r for r in rows}
        assert len(rows) == 4
        assert by_model["sym-after"]["threshold_text"] == "1/6"
        assert by_model["sym-after"]["b_lim_second_order"] == pytest.approx(0.9794)
        assert by_model["sym-during"]["b_lim_second_order"] == pytest.approx(0.9318)
        assert by_model["asym-after"]["b_lim_second_order"] == pytest.approx(0.98985)
        assert by_model["asym-during"]["b_lim_second_order"] == pytest.approx(0.9673)

    def test_text_format(self, capsys):
        code, out = run_cli(capsys, "table", "--format", "text")
        lines = out.strip().splitlines()
        assert len(lines) == 4
        assert lines[0].startswith("sym-after 1/6 ")


class TestEfficiency:
    def test_fibonacci_register_size(self, capsys):
        rec = run_json(capsys, "efficiency", "--algorithm", "fibonacci",
                       "--bi", "1e-5", "--target", "0.1")
        assert abs(rec["stats"]["n"] - 20) <= 2

    def test_simple_approx(self, capsys):
        rec = run_json(capsys, "efficiency", "--algorithm", "simple",
                       "--bi", "1e-5", "--target", "0.1", "--mode", "approx")
        assert rec["stats"]["bits"] == pytest.approx(6.9e10, rel=0.05)

    def test_heatbath(self, capsys):
        rec = run_json(capsys, "efficiency", "--algorithm", "heatbath",
                       "--bi", "1e-5", "--target", "0.9999")
        assert abs(rec["stats"]["bits_2k"] - 57) <= 2

    def test_noisy_run(self, capsys):
        rec = run_json(capsys, "efficiency", "--algorithm", "simple",
                       "--bi", "1e-5", "--target", "1.0",
                       "--noise-model", "sym-after", "--eps", "0.01")
        assert rec["final_bias"] == pytest.approx(0.9793792286287205, abs=1e-6)

    def test_noisy_run_near_threshold_prints_every_ledger_digit(self, capsys):
        # about 9,200 levels: 3^k has more digits than int/str conversion allows by
        # default, so the JSON is read back with the ints kept as text
        code, out = run_cli(capsys, "efficiency", "--algorithm", "simple",
                            "--bi", "1e-5", "--target", "0.9",
                            "--noise-model", "sym-after", "--eps", "0.166")
        assert code == 0, out[:200]
        ledger = json.loads(out, parse_int=str)["ledger"]
        k = int(ledger["recursion_depth"])
        bits = ledger["bits_consumed"]
        assert len(bits) == math.floor(k * math.log10(3)) + 1 > 4300
        assert int(bits[-40:]) == pow(3, k, 10**40)

    def test_trace_is_jsonl(self, capsys):
        code, out = run_cli(capsys, "efficiency", "--algorithm", "fibonacci",
                            "--bi", "0.2", "--target", "0.9", "--trace")
        assert code == 0
        lines = out.strip().splitlines()
        assert len(lines) >= 2
        for line in lines:
            rec = json.loads(line)
            assert set(rec) == {"step", "op", "positions", "biases_after", "ledger"}

    def test_bound_fuzz(self, capsys):
        rec = run_json(capsys, "efficiency", "--algorithm", "bound-fuzz",
                       "--trials", "200", "--seed", "0")
        assert rec["violations"] == 0
        assert rec["trials"] == 200

    @pytest.mark.parametrize("trials", ["0", "-5"])
    def test_bound_fuzz_needs_a_trial(self, capsys, trials):
        code, out = run_cli(capsys, "efficiency", "--algorithm", "bound-fuzz",
                            "--trials", trials)
        assert code == 1
        assert "trial" in json.loads(out)["error"]

    def test_missing_target_rejected(self, capsys):
        code, out = run_cli(capsys, "efficiency", "--algorithm", "simple",
                            "--bi", "1e-5")
        assert code == 1


class TestSimulate:
    def test_builtin_state_run(self, capsys):
        rec = run_json(capsys, "simulate", "--builtin", "majority-toffoli",
                       "--state", "011")
        assert rec["state_out"][0] == "1"  # majority of 0,1,1

    def test_builtin_bias_run(self, capsys):
        rec = run_json(capsys, "simulate", "--builtin", "majority-toffoli",
                       "--bias", "0.3")
        assert rec["output_bias"] == pytest.approx(0.4365, abs=1e-12)

    def test_noisy_enumeration(self, capsys):
        rec = run_json(capsys, "simulate", "--builtin", "majority-toffoli",
                       "--bias", "0.5", "--eps", "0.01")
        assert rec["output_bias"] == pytest.approx(0.6365050903959999, abs=1e-12)

    def test_noisy_run_beyond_enumeration_cap(self, capsys, tmp_path):
        # 13 bits and 12 sites on bit 0: 2^25 tuples, past the enumerator's cap
        text = "NOT 12\n" + "NOISE 0 0\n" * 12
        path = tmp_path / "wide.txt"
        path.write_text(text)
        rec = run_json(capsys, "simulate", "--circuit", str(path), "--bias", "0.6",
                       "--eps0", "0.01", "--eps1", "0.03")
        rates = ErrorRates(0.01, 0.03)
        b = 0.6
        for _ in range(12):
            b = debias_step(b, rates)
        assert rec["width"] == 13
        assert rec["output_bias"] == pytest.approx(b, abs=1e-12)
        with pytest.raises(ValueError, match="2\\^24"):
            enumerate_noisy_output_bias(circuit_from_text(text), 0.6, rates)

    def test_circuit_file_with_postselect(self, capsys, tmp_path):
        path = tmp_path / "twobc.txt"
        path.write_text("CNOT 1 0:1\n")
        rec = run_json(capsys, "simulate", "--circuit", str(path),
                       "--biases", "0.5,0.5", "--postselect", "1=0")
        assert rec["accept_prob"] == pytest.approx(0.625, abs=1e-12)
        assert rec["output_bias"] == pytest.approx(0.8, abs=1e-12)

    def test_builtin_and_file_mutually_exclusive(self, capsys):
        code, _ = run_cli(capsys, "simulate", "--builtin", "majority-toffoli",
                          "--circuit", "x.txt", "--state", "011")
        assert code == 1

    def test_missing_circuit_file(self, capsys, tmp_path):
        code, out = run_cli(capsys, "simulate", "--circuit",
                            str(tmp_path / "nope.txt"), "--state", "011")
        assert code == 1
        assert "error" in json.loads(out)

    def test_rates_without_noise_sites_rejected(self, capsys):
        code, out = run_cli(capsys, "simulate", "--builtin", "majority-cswap",
                            "--bias", "0.5", "--eps", "0.01")
        assert code == 1
        assert "noise sites" in json.loads(out)["error"]


class TestTape:
    def test_shift(self, capsys):
        rec = run_json(capsys, "tape", "--m", "3", "--bits", "100000000",
                       "--action", "shift", "--fixed", "B")
        assert rec["bits_out"] == "000000100"  # A bit moved one triple ccw
        assert rec["pulses"] == 4

    def test_cool_and_replay_round_trip(self, capsys, tmp_path):
        program = tmp_path / "pulses.txt"
        rec = run_json(capsys, "tape", "--m", "3", "--bits", "000110000",
                       "--action", "cool", "--positions", "3,4,5",
                       "--dump", str(program))
        assert rec["bits_out"][3] == "1"  # majority of (0,1,1)
        replay = run_json(capsys, "tape", "--m", "3", "--bits", "000110000",
                          "--action", "replay", "--program", str(program))
        assert replay["bits_out"] == rec["bits_out"]

    def test_permute(self, capsys):
        perm = ",".join(str((i + 3) % 9) for i in range(9))
        rec = run_json(capsys, "tape", "--m", "3", "--bits", "110000000",
                       "--action", "permute", "--perm", perm)
        assert rec["bits_out"] == "000110000"

    def test_cool_reports_pulse_breakdown(self, capsys):
        rec = run_json(capsys, "tape", "--m", "5", "--head", "2", "--bits", "1" * 15,
                       "--action", "cool", "--positions", "0,13,4")
        phases, kinds = rec["pulses_by_phase"], rec["pulses_by_kind"]
        assert phases["head"] == 3
        assert phases["routing"] == phases["unrouting"] > 0
        assert sum(phases.values()) == sum(kinds.values()) == rec["pulses"]
        assert set(kinds) == {"SWAP_AB", "SWAP_BC", "SWAP_AC", "HEAD"}

    def test_cool_needs_three_positions(self, capsys):
        code, out = run_cli(capsys, "tape", "--m", "3", "--bits", "000110000",
                            "--action", "cool", "--positions", "1,2")
        assert code == 1
        assert "exactly three" in json.loads(out)["error"]

    def test_bit_count_mismatch(self, capsys):
        code, _ = run_cli(capsys, "tape", "--m", "3", "--bits", "01",
                          "--action", "shift", "--fixed", "A")
        assert code == 1


class TestDeterminism:
    @pytest.mark.parametrize("argv", [
        ("limits", "--model", "sym-during", "--eps", "0.01"),
        ("thresholds", "--format", "csv"),
        ("table",),
        ("efficiency", "--algorithm", "bound-fuzz", "--trials", "100", "--seed", "5"),
        ("simulate", "--builtin", "majority-toffoli", "--bias", "0.5", "--eps", "0.01"),
    ])
    def test_byte_identical_reruns(self, capsys, argv):
        _, first = run_cli(capsys, *argv)
        _, second = run_cli(capsys, *argv)
        assert first == second

    def test_json_floats_have_full_precision(self, capsys):
        _, out = run_cli(capsys, "limits", "--model", "sym-after", "--eps", "0.01")
        assert "0.16666666666666666" in out  # 17 significant digits serialized
        assert "0.9793792286283" in out


class TestConsoleScript:
    def test_installed_entry_point(self):
        exe = shutil.which("hbcool")
        if exe is None:
            pytest.skip("console script not on PATH (package not installed)")
        proc = subprocess.run([exe, "update", "--rule", "three-bc", "--bias", "0.5"],
                              capture_output=True, text=True)
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["result"] == 0.6875
