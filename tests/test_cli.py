"""Command-line interface: output formats, determinism, exit codes."""

import importlib
import inspect
import json
import math
import os
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import hbcool
from hbcool import cooling, distribution
from hbcool.bias import ErrorRates, debias_step, fibonacci
from hbcool.circuits import circuit_from_text, majority_circuit_toffoli
from hbcool.cli import build_parser, main
from hbcool.cooling import run_with_noise
from hbcool.distribution import product_distribution
from hbcool.noise import enumerate_noisy_output_bias


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def run_json(capsys, *argv):
    code, out = run_cli(capsys, *argv)
    assert code == 0, out
    return json.loads(out)


# `hbcool update` arguments with flags the rule would ignore, and the error record
IGNORED_UPDATE_FLAGS = [
    (("--rule", "three-bc", "--bias", "0.5", "--order", "second", "--eps", "0.01"),
     "--order, --eps do not apply to rule three-bc"),
    (("--rule", "sym-during", "--bias", "0.5", "--eps", "0.01", "--order", "exact"),
     "--order does not apply to rule sym-during"),
    (("--rule", "asym-after", "--bias", "0.5", "--s", "0.02", "--order", "second"),
     "--order does not apply to rule asym-after"),
    (("--rule", "two-bc", "--bias", "0.5", "--s", "0.02", "--d", "0.01"),
     "--s, --d do not apply to rule two-bc"),
    (("--rule", "three-bc-unequal", "--biases", "0.2,0.4,0.6", "--eps0", "0.01",
      "--eps1", "0.02"), "--eps0, --eps1 do not apply to rule three-bc-unequal"),
    (("--rule", "three-bc", "--bias", "0.5", "--biases", "0.1,0.2"),
     "--biases does not apply to rule three-bc"),
    (("--rule", "debias", "--bias", "0.5", "--eps", "0.01", "--biases", "0.1"),
     "--biases does not apply to rule debias"),
    (("--rule", "three-bc-unequal", "--biases", "0.2,0.4,0.6", "--bias", "0.9"),
     "--bias does not apply to rule three-bc-unequal"),
    (("--rule", "steady-state", "--biases", "0.2,0.4", "--bias", "0.9"),
     "--bias does not apply to rule steady-state"),
]


class TestUpdate:
    @pytest.mark.parametrize("rule, bounds", [("sym-after", "-1.0, 1.0"),
                                              ("sym-during", "-1, 1")])
    def test_out_of_range_bias_error_bytes(self, capsys, rule, bounds):
        code, out = run_cli(capsys, "update", "--rule", rule, "--bias", "1.5", "--eps", "0.01")
        assert code == 1
        assert out == f'{{"error": "bias must be in [{bounds}], got 1.5"}}\n'

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

    @pytest.mark.parametrize("rule, biases", [
        ("steady-state", "0.5,,0.5"), ("steady-state", "0.5,0.5,"),
        ("three-bc-unequal", " ,0.2,0.4,0.6"),
    ])
    def test_empty_bias_field_rejected(self, capsys, rule, biases):
        code, out = run_cli(capsys, "update", "--rule", rule, "--biases", biases)
        assert code == 1
        assert json.loads(out) == {"error": f"--biases has an empty field: {biases!r}"}

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

    def test_second_order_outside_the_interval_is_a_warning_field(self, capsys):
        argv = ("update", "--rule", "asym-during", "--bias", "0.5", "--s", "0.9", "--d", "0")
        rec = run_json(capsys, *argv, "--order", "second")
        assert rec["result"] == 1.413125
        assert rec["warnings"] == ["second-order result 1.413125 is outside [-1, 1]: "
                                   "the small-rate expansion does not apply at these rates"]
        _, text = run_cli(capsys, *argv, "--order", "second", "--format", "text")
        assert text.splitlines() == ["asym-during -> 1.413125", f"warning: {rec['warnings'][0]}"]
        assert "warnings" not in run_json(capsys, *argv)
        assert "warnings" not in run_json(capsys, *argv[:-4], "--s", "0.02", "--d", "0.01",
                                          "--order", "second")

    def test_asym_during_order_defaults_to_exact(self, capsys):
        argv = ("update", "--rule", "asym-during", "--bias", "0.5", "--s", "0.02", "--d", "0.01")
        rec = run_json(capsys, *argv)
        assert rec["order"] == "exact"
        assert rec == run_json(capsys, *argv, "--order", "exact")

    @pytest.mark.parametrize("argv, error", IGNORED_UPDATE_FLAGS,
                             ids=[f"{argv[1]}{error.split(' do')[0]}".replace(", ", "")
                                  for argv, error in IGNORED_UPDATE_FLAGS])
    def test_ignored_flags_are_rejected(self, capsys, argv, error):
        code, out = run_cli(capsys, "update", *argv)
        assert code == 1
        assert json.loads(out) == {"error": error}

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

    def test_expansion_out_of_range_is_a_warning_field(self, capsys):
        argv = ("limits", "--model", "sym-during", "--eps", "0.1")
        rec = run_json(capsys, *argv)
        assert rec["b_lim"] == 0 and rec["b_lim_second_order"] == pytest.approx(-0.42)
        (warning,) = rec["warnings"]
        assert "does not apply" in warning
        _, text = run_cli(capsys, *argv, "--format", "text")
        assert text.splitlines()[1] == f"warning: {warning}"
        _, csv_out = run_cli(capsys, *argv, "--format", "csv")
        header, row = csv_out.splitlines()
        assert header.endswith(",warnings") and row.endswith(f',"{warning}"')

    def test_records_in_range_carry_no_warnings(self, capsys):
        assert "warnings" not in run_json(capsys, "limits", "--model", "sym-during",
                                          "--eps", "0.01")

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
        assert by_model["asym-during"]["b_lim_second_order"] == pytest.approx(0.96705)

    def test_rates_without_a_channel_are_an_error(self, capsys):
        # d = s * b_i = 0.45 puts eps1 at 0.675; limits rejects the same rates
        code, out = run_cli(capsys, "table", "--eps", "0.01", "--s", "0.9", "--bi", "0.5")
        assert code == 1
        assert out == '{"error": "eps1 must be in [0, 1/2), got 0.675"}\n'
        assert run_cli(capsys, "limits", "--model", "asym-after", "--s", "0.9",
                       "--d", "0.45") == (1, out)

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

    def test_noisy_run_rejects_approx_mode(self, capsys):
        code, out = run_cli(capsys, "efficiency", "--algorithm", "simple",
                            "--bi", "1e-5", "--target", "0.9", "--mode", "approx",
                            "--noise-model", "sym-after", "--eps", "0.01")
        assert code == 1
        assert "--mode approx" in json.loads(out)["error"]

    def test_noisy_run_takes_tol(self, capsys):
        argv = ("efficiency", "--algorithm", "simple", "--bi", "0.01",
                "--target", "0.999", "--noise-model", "sym-after", "--eps", "0.01")
        loose = run_json(capsys, *argv, "--tol", "1e-3")
        want = run_with_noise("simple-recursive", 0.01, 0.999, ErrorRates.symmetric(0.01),
                              model="sym-after", tol=1e-3)
        assert loose["stats"]["steps"] == want.stats["steps"]
        assert loose["final_bias"] == want.final_bias
        assert loose["stats"]["steps"] < run_json(capsys, *argv)["stats"]["steps"]

    @pytest.mark.parametrize("tol", ["0", "-1", "nan", "inf"])
    @pytest.mark.parametrize("noise", [(), ("--noise-model", "sym-after", "--eps", "0.01")],
                             ids=["noiseless", "noisy"])
    def test_fibonacci_rejects_nonpositive_tol(self, capsys, tol, noise):
        code, out = run_cli(capsys, "efficiency", "--algorithm", "fibonacci", "--bi", "0.1",
                            "--target", "0.5", "--tol", tol, *noise)
        assert code == 1
        assert "tol must be positive" in json.loads(out)["error"]

    def test_fibonacci_below_rounding_tol_returns(self):
        # the pair step's float iterates can cycle between adjacent floats, so a
        # settle ends once its moves stop shrinking
        proc = run_fresh(_CLI_MAIN, "efficiency", "--algorithm", "fibonacci", "--bi", "0.1",
                         "--target", "0.999", "--tol", "1e-16", timeout=60)
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout)["final_bias"] >= 0.999

    def test_noisy_fibonacci_below_rounding_tol_spends_few_steps(self, capsys):
        rec = run_json(capsys, "efficiency", "--algorithm", "fibonacci", "--bi", "0.1",
                       "--target", "0.999", "--tol", "1e-17",
                       "--noise-model", "asym-after", "--s", "0", "--d", "0")
        assert rec["ledger"]["three_bc_ops"] < 1000
        assert rec["stats"]["reached_target"]

    @pytest.mark.parametrize("algorithm, flags", [
        ("fibonacci", ("--tol", "0.3")), ("fibonacci", ("--trace",)), ("simple", ("--trace",)),
    ], ids=["fibonacci-tol", "fibonacci-trace", "simple-trace"])
    def test_approx_mode_rejects_exact_run_flags(self, capsys, algorithm, flags):
        code, out = run_cli(capsys, "efficiency", "--algorithm", algorithm, "--bi", "0.01",
                            "--target", "0.9", "--mode", "approx", *flags)
        assert code == 1
        assert json.loads(out) == {"error": f"{flags[0]} does not apply to --mode approx"}

    def test_symmetric_and_zero_drift_runs_agree_at_tiny_bias(self, capsys):
        # one channel, two labels: the during circuit at eps = 0.01 and at (s, d) = (0.02, 0)
        argv = ("efficiency", "--algorithm", "simple", "--bi", "1e-13", "--target", "0.9")
        sym = run_json(capsys, *argv, "--noise-model", "sym-during", "--eps", "0.01")
        asym = run_json(capsys, *argv, "--noise-model", "asym-during", "--s", "0.02", "--d", "0")
        assert sym["final_bias"] == asym["final_bias"]
        assert sym["stats"]["steps"] == asym["stats"]["steps"]

    def test_heatbath_rejects_approx_mode(self, capsys):
        code, out = run_cli(capsys, "efficiency", "--algorithm", "heatbath",
                            "--bi", "1e-5", "--target", "0.9999", "--mode", "approx")
        assert code == 1
        assert "--mode approx" in json.loads(out)["error"]

    @pytest.mark.parametrize("algorithm", ["simple", "heatbath"])
    @pytest.mark.parametrize("tol", ["1e-12", "-1", "nan"])
    def test_noiseless_schedules_reject_tol(self, capsys, algorithm, tol):
        code, out = run_cli(capsys, "efficiency", "--algorithm", algorithm, "--bi", "0.1",
                            "--target", "0.5", "--tol", tol)
        assert code == 1
        assert json.loads(out) == {
            "error": f"--tol does not apply to the noiseless {algorithm} schedule"}

    @pytest.mark.parametrize("extra", [("--bi", "0.1"), ("--tol", "1e-6"),
                                       ("--noise-model", "sym-after", "--eps", "0.01"),
                                       ("--mode", "approx"), ("--mode", "exact"),
                                       ("--trace",)])
    def test_bound_fuzz_rejects_schedule_flags(self, capsys, extra):
        code, out = run_cli(capsys, "efficiency", "--algorithm", "bound-fuzz",
                            "--trials", "10", *extra)
        assert code == 1
        assert "not apply to bound-fuzz" in json.loads(out)["error"]

    @pytest.mark.parametrize("flag", ["--trials", "--max-bits", "--max-ops", "--seed"])
    @pytest.mark.parametrize("algorithm", ["simple", "heatbath", "fibonacci"])
    def test_schedules_reject_fuzz_flags(self, capsys, algorithm, flag):
        code, out = run_cli(capsys, "efficiency", "--algorithm", algorithm, "--bi", "0.1",
                            "--target", "0.5", flag, "3")
        assert code == 1
        assert json.loads(out) == {"error": f"{flag} does not apply to the {algorithm} schedule"}

    @pytest.mark.parametrize("rates", [("--eps", "0.01"), ("--s", "0.02", "--d", "0.01")])
    def test_noiseless_schedules_reject_rates(self, capsys, rates):
        code, out = run_cli(capsys, "efficiency", "--algorithm", "fibonacci", "--bi", "0.1",
                            "--target", "0.5", *rates)
        assert code == 1
        assert "not apply without --noise-model" in json.loads(out)["error"]

    def test_trace_is_jsonl(self, capsys):
        code, out = run_cli(capsys, "efficiency", "--algorithm", "fibonacci",
                            "--bi", "0.2", "--target", "0.9", "--trace")
        assert code == 0
        lines = out.strip().splitlines()
        assert len(lines) >= 2
        for line in lines:
            rec = json.loads(line)
            assert set(rec) == {"step", "op", "positions", "biases_after", "ledger"}

    @pytest.mark.parametrize("algorithm", ["simple", "fibonacci"])
    def test_trace_without_steps_prints_nothing(self, capsys, algorithm):
        # b_i = 0.99 is above the sym-after limit at eps = 0.01 (about 0.979), so no
        # level is climbed and no bit joins: the trace has no entries and no lines
        assert run_cli(capsys, "efficiency", "--algorithm", algorithm, "--bi", "0.99",
                       "--target", "1.0", "--noise-model", "sym-after", "--eps", "0.01",
                       "--trace") == (0, "")

    @pytest.mark.parametrize("fmt", ["csv", "text"])
    @pytest.mark.parametrize("algorithm", ["simple", "heatbath", "fibonacci"])
    def test_trace_rejects_other_formats(self, capsys, algorithm, fmt):
        code, out = run_cli(capsys, "efficiency", "--algorithm", algorithm, "--bi", "0.3",
                            "--target", "0.5", "--trace", "--format", fmt)
        assert code == 1
        assert json.loads(out) == {"error": f"--format {fmt} does not apply to --trace"}

    @pytest.mark.parametrize("noise", [(), ("--noise-model", "sym-after", "--eps", "0.01")],
                             ids=["noiseless", "noisy"])
    def test_trace_takes_format_json(self, capsys, noise):
        argv = ("efficiency", "--algorithm", "simple", "--bi", "0.3", "--target", "0.5",
                "--trace", *noise)
        code, out = run_cli(capsys, *argv)
        assert code == 0 and out.count("\n") >= 2
        assert run_cli(capsys, *argv, "--format", "json") == (0, out)

    def test_bound_fuzz(self, capsys):
        rec = run_json(capsys, "efficiency", "--algorithm", "bound-fuzz",
                       "--trials", "200", "--seed", "0")
        assert rec["violations"] == 0
        assert rec["trials"] == 200

    def test_bound_fuzz_on_registers_past_float_fibonacci_numbers(self, capsys):
        rec = run_json(capsys, "efficiency", "--algorithm", "bound-fuzz",
                       "--trials", "20", "--max-bits", "2000")
        assert rec["violations"] == 0 and rec["trials"] == 20

    @pytest.mark.parametrize("algorithm, bi, limit", [
        ("simple", "1e-114", "3**k starting bits"),
    ], ids=["simple"])
    def test_approx_mode_past_the_float_maximum(self, capsys, algorithm, bi, limit):
        code, out = run_cli(capsys, "efficiency", "--algorithm", algorithm, "--mode", "approx",
                            "--bi", bi, "--target", "0.9")
        assert code == 1
        error = json.loads(out)["error"]
        assert limit in error and "float maximum" in error

    def test_fibonacci_approx_with_f_past_the_float_maximum(self, capsys):
        # b_i * F(n) passes 0.9 only once F(n) is past the float maximum
        rec = run_json(capsys, "efficiency", "--algorithm", "fibonacci", "--mode", "approx",
                       "--bi", "3e-309", "--target", "0.9")
        n = 1
        while Fraction(3e-309) * fibonacci(n) < Fraction(0.9):
            n += 1
        assert fibonacci(n) > sys.float_info.max
        assert rec["stats"]["n"] == rec["ledger"]["bits_consumed"] == n
        exact = float(Fraction(3e-309) * fibonacci(n))
        assert abs(rec["final_bias"] - exact) <= math.ulp(exact)

    def test_approx_bias_above_1_is_flagged(self, capsys):
        argv = ("efficiency", "--algorithm", "fibonacci", "--mode", "approx",
                "--bi", "0.4", "--target", "0.9")
        rec = run_json(capsys, *argv)
        assert rec["final_bias"] == 1.2000000000000002
        assert rec["stats"]["warnings"] == [
            "final_bias 1.2000000000000002 is above 1: "
            "the linear regime's b_i * F(n) is not a bias here"]
        code, out = run_cli(capsys, *argv, "--format", "text")
        assert code == 0
        assert [line for line in out.splitlines() if line.startswith("warning: ")] == [
            "warning: " + rec["stats"]["warnings"][0]]
        rec = run_json(capsys, *argv[:-3], "1e-5", "--target", "0.1")
        assert rec["final_bias"] <= 1.0 and "warnings" not in rec["stats"]

    def test_heatbath_at_a_subnormal_initial_bias(self, capsys):
        rec = run_json(capsys, "efficiency", "--algorithm", "heatbath", "--bi", "1e-320",
                       "--target", "0.5")
        assert rec["stats"]["k"] == pytest.approx(1815.53, abs=0.005)

    def test_simple_approx_at_a_subnormal_initial_bias(self, capsys):
        code, out = run_cli(capsys, "efficiency", "--algorithm", "simple", "--bi", "5e-324",
                            "--target", "0.5", "--mode", "approx")
        assert code == 1
        assert "3**k starting bits pass the float maximum" in json.loads(out)["error"]

    @pytest.mark.parametrize("name, argv, forwarded", [
        ("random_hb_trace_check", ("--algorithm", "bound-fuzz", "--trials", "5", "--max-ops", "3"),
         {"trials": 5, "max_ops": 3}),
        ("fibonacci_algorithm", ("--algorithm", "fibonacci", "--bi", "0.1", "--target", "0.5"),
         {"mode": "exact"}),
        ("fibonacci_algorithm", ("--algorithm", "fibonacci", "--bi", "0.1", "--target", "0.5",
                                 "--tol", "1e-9"), {"mode": "exact", "tol": 1e-9}),
    ], ids=["bound-fuzz", "fibonacci", "fibonacci-tol"])
    def test_forwards_only_the_flags_given(self, capsys, monkeypatch, name, argv, forwarded):
        calls, real = [], getattr(cooling, name)
        monkeypatch.setattr(cooling, name, lambda *a, **kw: calls.append(kw) or real(*a, **kw))
        run_json(capsys, "efficiency", *argv)
        assert calls == [forwarded]

    def test_help_states_the_library_defaults(self):
        (commands,) = [a for a in build_parser()._actions if a.dest == "command"]
        helps = {a.dest: a.help for a in commands.choices["efficiency"]._actions}
        defaults = inspect.signature(cooling.random_hb_trace_check).parameters
        for name in ("trials", "max_bits", "max_ops", "seed"):
            assert helps[name].endswith(f"(default {defaults[name].default})")
        for schedule in (cooling.fibonacci_algorithm, cooling.run_with_noise):
            tol = inspect.signature(schedule).parameters["tol"].default
            assert helps["tol"].endswith(f"(default {tol})")

    @pytest.mark.parametrize("trials", ["0", "-5"])
    def test_bound_fuzz_needs_a_trial(self, capsys, trials):
        code, out = run_cli(capsys, "efficiency", "--algorithm", "bound-fuzz",
                            "--trials", trials)
        assert code == 1
        assert "trial" in json.loads(out)["error"]

    @pytest.mark.parametrize("flag, value, error", [
        ("--max-bits", "2", "max_bits must be at least 3, got 2"),
        ("--max-ops", "0", "max_ops must be at least 1, got 0"),
    ], ids=["max-bits", "max-ops"])
    def test_bound_fuzz_rejects_empty_ranges(self, capsys, flag, value, error):
        code, out = run_cli(capsys, "efficiency", "--algorithm", "bound-fuzz",
                            "--trials", "10", flag, value)
        assert code == 1
        assert json.loads(out) == {"error": error}

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

    def test_noisy_run_with_postselect(self, capsys):
        rec = run_json(capsys, "simulate", "--builtin", "majority-toffoli",
                       "--biases", "0.5,0.3,0.2", "--eps", "0.01", "--postselect", "1=0")
        plain = run_json(capsys, "simulate", "--builtin", "majority-toffoli",
                         "--biases", "0.5,0.3,0.2", "--eps", "0.01")
        dist = majority_circuit_toffoli().run_with_channels(
            product_distribution([0.5, 0.3, 0.2]), ErrorRates.symmetric(0.01))
        kept, prob = dist.condition_on(1, 0)
        assert list(rec) == ["width", "biases", "output_bit", "eps0", "eps1",
                             "postselect", "accept_prob", "output_bias"]
        assert rec["accept_prob"] == pytest.approx(prob, abs=1e-15)
        assert rec["output_bias"] == pytest.approx(kept.marginal_bias(0), abs=1e-15)
        assert rec["output_bias"] != plain["output_bias"]

    @pytest.mark.parametrize("post", ["1=2", "1=-1"])
    def test_postselect_value_must_be_a_bit(self, capsys, post):
        code, out = run_cli(capsys, "simulate", "--builtin", "majority-toffoli",
                            "--bias", "0.3", "--postselect", post)
        assert code == 1
        assert "bit value must be 0 or 1" in json.loads(out)["error"]

    @pytest.mark.parametrize("post", ["1", "a=0", "0=1=1"])
    def test_malformed_postselect_named(self, capsys, post):
        code, out = run_cli(capsys, "simulate", "--builtin", "majority-toffoli",
                            "--bias", "0.5", "--postselect", post)
        assert code == 1
        assert json.loads(out) == {"error": f"postselect must be BIT=VALUE, got {post!r}"}

    def test_circuit_parse_error_names_its_line(self, capsys, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("# two gates\nCNOT 1 0:1\nNOISE 1\n")
        code, out = run_cli(capsys, "simulate", "--circuit", str(path), "--bias", "0.5")
        assert code == 1
        assert json.loads(out) == {"error": "line 3: NOISE expects `pos bit`, got 'NOISE 1'"}

    @pytest.mark.parametrize("text, error", [
        ("CNOT 1 0:1\nNOISE 7 0\n", "line 2: noise position 7 out of range"),
        ("NOT 0\nNOT 25\n", "line 2: index 25 out of range 0..19"),
    ])
    def test_whole_circuit_error_names_its_line(self, capsys, tmp_path, text, error):
        path = tmp_path / "bad.txt"
        path.write_text(text)
        code, out = run_cli(capsys, "simulate", "--circuit", str(path), "--bias", "0.5")
        assert code == 1
        assert json.loads(out) == {"error": error}

    @pytest.mark.parametrize("extra", [
        ("--bias", "0.3"), ("--biases", "0.1,0.2,0.3"), ("--postselect", "1=0"),
        ("--eps", "0.1"), ("--eps0", "0.1", "--eps1", "0.2"), ("--s", "0.1", "--d", "0"),
        ("--output-bit", "1")])
    def test_state_run_rejects_distribution_flags(self, capsys, extra):
        code, out = run_cli(capsys, "simulate", "--builtin", "majority-toffoli",
                            "--state", "011", *extra)
        assert code == 1
        error = json.loads(out)["error"]
        assert error.startswith(extra[0]) and error.endswith("not apply to a --state run")

    @pytest.mark.parametrize("biases, error", [
        ("0.1,,0.2,0.3", "--biases has an empty field: '0.1,,0.2,0.3'"),
        ("0.1,0.2,0.3,", "--biases has an empty field: '0.1,0.2,0.3,'"),
        ("0.1,0.2", "--biases must list exactly 3 values"),
    ], ids=["empty-field", "trailing-comma", "too-few"])
    def test_malformed_bias_list_rejected(self, capsys, biases, error):
        code, out = run_cli(capsys, "simulate", "--builtin", "majority-toffoli",
                            "--biases", biases)
        assert code == 1
        assert json.loads(out) == {"error": error}

    def test_bias_and_biases_are_exclusive(self, capsys):
        code, out = run_cli(capsys, "simulate", "--builtin", "majority-toffoli",
                            "--bias", "0.3", "--biases", "0.1,0.2,0.3")
        assert code == 1
        assert json.loads(out) == {"error": "give --bias or --biases, not both"}

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

    @pytest.mark.parametrize("pos, bits_in, bits_out", [
        (0, "100000000", "010000000"), (4, "000010000", "000001000"),
        (8, "000000001", "100000000")])
    def test_swap(self, capsys, pos, bits_in, bits_out):
        rec = run_json(capsys, "tape", "--m", "3", "--head", "1", "--bits", bits_in,
                       "--action", "swap", "--pos", str(pos))
        assert rec["bits_out"] == bits_out
        assert 0 < rec["pulses"] <= 3 * (4 * 3 + 1)

    @pytest.mark.parametrize("pos", ["-1", "9"])
    def test_swap_position_out_of_range(self, capsys, pos):
        code, out = run_cli(capsys, "tape", "--m", "3", "--bits", "000110000",
                            "--action", "swap", "--pos", pos)
        assert code == 1
        assert "out of range" in json.loads(out)["error"]

    def test_permute_rejects_non_bijection(self, capsys):
        code, out = run_cli(capsys, "tape", "--m", "3", "--bits", "000110000",
                            "--action", "permute", "--perm", "0,0,1,2,3,4,5,6,7")
        assert code == 1
        assert "bijection" in json.loads(out)["error"]

    def test_cool_and_replay_round_trip(self, capsys, tmp_path):
        program = tmp_path / "pulses.txt"
        rec = run_json(capsys, "tape", "--m", "3", "--bits", "000110000",
                       "--action", "cool", "--positions", "3,4,5",
                       "--dump", str(program))
        assert rec["bits_out"][3] == "1"  # majority of (0,1,1)
        replay = run_json(capsys, "tape", "--m", "3", "--bits", "000110000",
                          "--action", "replay", "--program", str(program))
        assert replay["bits_out"] == rec["bits_out"]

    def test_replay_parse_error_names_its_line(self, capsys, tmp_path):
        program = tmp_path / "pulses.txt"
        program.write_text("SWAP_AB\nHEAD CNOT 3 0:1\n")
        code, out = run_cli(capsys, "tape", "--m", "3", "--bits", "000110000",
                            "--action", "replay", "--program", str(program))
        assert code == 1
        assert json.loads(out) == {"error": "line 2: head gates act on local cells 0..2 only"}

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

    @pytest.mark.parametrize("m, bits, error", [
        ("-1", "", "need an odd number of triples, got m=-1"),
        ("2", "000000", "need an odd number of triples, got m=2"),
        ("3", "0000", "need 9 bits, got 4"),
    ], ids=["negative-m", "even-m", "wrong-bit-count"])
    def test_loop_checks_m_before_the_bit_count(self, capsys, m, bits, error):
        code, out = run_cli(capsys, "tape", "--m", m, "--bits", bits,
                            "--action", "shift", "--fixed", "A")
        assert code == 1
        assert json.loads(out) == {"error": error}

    def test_cool_needs_three_positions(self, capsys):
        code, out = run_cli(capsys, "tape", "--m", "3", "--bits", "000110000",
                            "--action", "cool", "--positions", "1,2")
        assert code == 1
        assert "exactly three" in json.loads(out)["error"]

    @pytest.mark.parametrize("action, own, foreign", [
        ("shift", ("--fixed", "B"), ("--pos", "4")),
        ("shift", ("--fixed", "B"), ("--perm", "x")),
        ("swap", ("--pos", "1"), ("--fixed", "A")),
        ("permute", ("--perm", "1,0,2,3,4,5,6,7,8"), ("--positions", "0,1,2")),
        ("cool", ("--positions", "3,4,5"), ("--program", "p.txt")),
        ("replay", ("--program", "p.txt"), ("--perm", "0,1,2,3,4,5,6,7,8")),
    ])
    def test_flags_of_other_actions_rejected(self, capsys, action, own, foreign):
        code, out = run_cli(capsys, "tape", "--m", "3", "--bits", "000110000",
                            "--action", action, *own, *foreign)
        assert code == 1
        assert json.loads(out) == {
            "error": f"{foreign[0]} does not apply to --action {action}"}

    def test_bit_count_mismatch(self, capsys):
        code, _ = run_cli(capsys, "tape", "--m", "3", "--bits", "01",
                          "--action", "shift", "--fixed", "A")
        assert code == 1


class TestDeterminism:
    @pytest.mark.parametrize("argv", [
        ("limits", "--model", "sym-during", "--eps", "0.01"),
        ("limits", "--model", "asym-during", "--s", "0.02", "--d", "0.01"),
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


# Runs `cli.main` in a fresh interpreter; reports on stderr whether numpy was loaded.
_NUMPY_PROBE = ("import sys; from hbcool.cli import main; code = main(sys.argv[1:]); "
                "sys.stderr.write(str('numpy' in sys.modules)); sys.exit(code)")
_SRC = str(Path(hbcool.__file__).resolve().parents[1])
GOLDEN = Path(__file__).parent / "golden"


_CLI_MAIN = "import sys; from hbcool.cli import main; sys.exit(main(sys.argv[1:]))"


def run_fresh(code: str, *argv: str, timeout: float = 120) -> subprocess.CompletedProcess:
    path = os.pathsep.join(filter(None, [_SRC, os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-c", code, *argv], capture_output=True,
                          text=True, env=dict(os.environ, PYTHONPATH=path), timeout=timeout)


class TestImportBoundary:
    """Scalar commands never load numpy; only a register does."""

    @pytest.mark.parametrize("argv", [
        ("update", "--rule", "sym-during", "--bias", "0.5", "--eps", "0.01"),
        ("update", "--rule", "asym-during", "--bias", "0.5", "--s", "0.02", "--d", "0.01"),
        ("thresholds",),
        ("table", "--eps", "0.01", "--s", "0.02", "--bi", "0.5"),
        ("limits", "--model", "sym-during", "--eps", "0.01"),
        ("limits", "--model", "asym-during", "--s", "0.02", "--d", "0.01"),
        ("efficiency", "--algorithm", "fibonacci", "--bi", "0.01", "--target", "0.9"),
        ("efficiency", "--algorithm", "heatbath", "--bi", "0.01", "--target", "0.9"),
        ("tape", "--m", "3", "--bits", "000110000", "--action", "cool",
         "--positions", "3,4,5"),
    ], ids=lambda argv: "-".join(arg for arg in argv[:3] if arg != "--algorithm"))
    def test_scalar_command_runs_without_numpy(self, capsys, argv):
        proc = run_fresh(_NUMPY_PROBE, *argv)
        assert proc.returncode == 0, proc.stderr
        assert proc.stderr == "False"
        assert proc.stdout == run_cli(capsys, *argv)[1]

    def test_asym_during_limit_and_schedule_load_no_numpy(self):
        # importing the CLI derives nothing; the first asym-during model derives the
        # during circuit's update once, in pure Python
        proc = run_fresh(
            "import sys; import hbcool.cli; from hbcool import cooling, limits; "
            "from hbcool.bias import ErrorRates; "
            "derived = limits._derivation.cache_info().currsize; "
            "rates = ErrorRates.from_sd(0.02, 0.01); "
            "limits.limit_report('asym-during', rates); "
            "cooling.run_with_noise('simple-recursive', 1e-3, 1.0, rates, model='asym-during'); "
            "print(derived, limits._derivation.cache_info().currsize, "
            "'numpy' in sys.modules)")
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "0 1 False\n"

    @pytest.mark.parametrize("argv, derived", [
        (("thresholds",), 0),
        (("update", "--rule", "sym-during", "--bias", "0.5", "--eps", "0.01"), 1),
        (("update", "--rule", "asym-after", "--bias", "0.5", "--s", "0.02", "--d", "0.01"), 1),
        (("update", "--rule", "asym-during", "--bias", "0.5", "--s", "0.02", "--d", "0.01",
          "--order", "second"), 1),
        (("limits", "--model", "asym-during", "--s", "0.02", "--d", "0.01"), 1),
        (("table", "--eps", "0.01", "--s", "0.02", "--bi", "0.5"), 2),
    ], ids=["thresholds", "update-sym-during", "update-asym-after", "update-second-order",
            "limits", "table"])
    def test_exact_commands_derive_no_rationals(self, argv, derived):
        # each command derives the circuits it reads, once each, in integers and
        # exact floats only
        proc = run_fresh(
            "import sys; from hbcool import limits; from hbcool.cli import main; "
            f"assert main({list(argv)!r}) == 0; "
            "print(limits._derivation.cache_info().currsize, "
            "'fractions' in sys.modules, file=sys.stderr)")
        assert proc.returncode == 0, proc.stderr
        assert proc.stderr == f"{derived} False\n"

    def test_simulate_output_unchanged(self):
        proc = run_fresh(_NUMPY_PROBE, "simulate", "--builtin", "majority-toffoli",
                         "--bias", "0.3")
        assert proc.returncode == 0, proc.stderr
        assert proc.stderr == "False"
        assert proc.stdout == (
            '{"width": 3, "biases": [0.29999999999999999, 0.29999999999999999, '
            '0.29999999999999999], "output_bit": 0, "output_bias": 0.43650000000000011, '
            '"marginals": [0.43650000000000011, 0.09000000000000008, '
            '0.09000000000000008]}\n')

    @pytest.mark.parametrize("golden, argv", [
        ("simulate_builtin", ("--builtin", "majority-toffoli", "--bias", "0.5", "--eps", "0.01")),
        ("simulate_circuit", ("--circuit", "CIRCUIT", "--biases", "0.5,0.5", "--postselect", "1=0")),
    ], ids=["builtin", "circuit"])
    def test_narrow_simulate_loads_no_numpy(self, tmp_path, golden, argv):
        circuit = tmp_path / "my_circuit.txt"
        circuit.write_text("CNOT 1 0:1\n")  # the README's 2-bit circuit
        argv = [str(circuit) if arg == "CIRCUIT" else arg for arg in argv]
        proc = run_fresh(_NUMPY_PROBE, "simulate", *argv)
        assert proc.returncode == 0, proc.stderr
        assert proc.stderr == "False"
        assert proc.stdout == (GOLDEN / f"{golden}.out").read_text()

    def test_wide_simulate_takes_the_numpy_register(self, capsys, tmp_path):
        circuit = tmp_path / "wide.txt"
        circuit.write_text("CNOT 1 0:1\nTOFFOLI 0 2:1 3:0\nNOISE 1 0\nNOISE 2 3\n")
        argv = ("simulate", "--circuit", str(circuit), "--biases", "0.5,0.2,-0.3,0.9",
                "--eps0", "0.01", "--eps1", "0.03", "--postselect", "3=0")
        proc = run_fresh(_NUMPY_PROBE, *argv)
        assert proc.returncode == 0, proc.stderr
        assert proc.stderr == "True"
        assert proc.stdout == run_cli(capsys, *argv)[1]

    def test_register_names_load_on_first_access(self):
        proc = run_fresh("import sys, hbcool; before = 'numpy' in sys.modules; "
                         "hbcool.JointDistribution; print(before, 'numpy' in sys.modules)")
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "False True\n"

    def test_import_loads_no_submodule(self):
        proc = run_fresh("import sys, hbcool; "
                         "print([name for name in sys.modules if name.startswith('hbcool.')])")
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "[]\n"

    @pytest.mark.parametrize("argv, loaded", [
        (("thresholds",), ""),
        (("limits", "--model", "sym-during", "--eps", "0.01"), ""),
        (("update", "--rule", "sym-during", "--bias", "0.5", "--eps", "0.01"), ""),
        (("table", "--eps", "0.01", "--s", "0.02", "--bi", "0.5"), ""),
        (("tape", "--m", "3", "--bits", "000110000", "--action", "cool", "--positions", "3,4,5"),
         "hbcool.tape"),
    ], ids=["thresholds", "limits", "update", "table", "tape"])
    def test_commands_load_only_their_modules(self, argv, loaded):
        proc = run_fresh(
            "import sys; from hbcool.cli import main; code = main(sys.argv[1:]); "
            "sys.stderr.write(' '.join(name for name in ('hbcool.cooling', 'hbcool.tape') "
            "if name in sys.modules)); sys.exit(code)", *argv)
        assert proc.returncode == 0, proc.stderr
        assert proc.stderr == loaded

    def test_package_names_unchanged(self):
        # each public name is its module's object; module names are the submodules
        for name in hbcool.__all__:
            home = name if name in hbcool._EXPORTS else hbcool._MODULE_OF[name]
            module = importlib.import_module(f"hbcool.{home}")
            assert getattr(hbcool, name) is (module if home == name else getattr(module, name))
        assert set(hbcool.__all__) <= set(dir(hbcool))
        namespace: dict = {}
        exec("from hbcool import *", namespace)
        assert set(namespace) - {"__builtins__"} == set(hbcool.__all__)
        assert namespace["JointDistribution"] is distribution.JointDistribution
        with pytest.raises(AttributeError):
            hbcool.no_such_name
