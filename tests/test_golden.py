"""Golden outputs: every README shell command prints the bytes stored here,
and the README's Python examples pass as a doctest.

Each command runs in-process through `hbcool.cli.main` with the working
directory set to a fresh temporary directory, so file arguments are the
README's literal relative paths. The expected stdout of case NAME is the
file `tests/golden/NAME.out`.
"""

import doctest
from pathlib import Path

import pytest

from hbcool.cli import main

GOLDEN = Path(__file__).parent / "golden"
README = Path(__file__).parent.parent / "README.md"

# A 2-bit compression circuit for the README's `simulate --circuit` line,
# which passes two biases.
CIRCUIT = "CNOT 1 0:1\n"

CASES = {
    "update_three_bc": "update --rule three-bc --bias 0.5",
    "update_asym_during_second":
        "update --rule asym-during --bias 0.5 --s 0.02 --d 0.01 --order second",
    "thresholds_text": "thresholds --format text",
    "limits_sym_during": "limits --model sym-during --eps 0.01 --format json",
    "table_csv": "table --eps 0.01 --s 0.02 --bi 0.5 --format csv",
    "efficiency_fibonacci": "efficiency --algorithm fibonacci --bi 1e-5 --target 0.1",
    "efficiency_heatbath": "efficiency --algorithm heatbath --bi 1e-5 --target 0.9999",
    "efficiency_simple_noisy": ("efficiency --algorithm simple --bi 1e-5 --target 1.0 "
                                "--noise-model sym-after --eps 0.01"),
    "efficiency_fibonacci_trace":
        "efficiency --algorithm fibonacci --bi 1e-5 --target 0.1 --trace",
    "efficiency_heatbath_trace":
        "efficiency --algorithm heatbath --bi 1e-5 --target 0.9999 --trace",
    "efficiency_simple_noisy_trace": ("efficiency --algorithm simple --bi 1e-5 "
                                      "--target 1.0 --noise-model sym-after --eps 0.01 "
                                      "--trace"),
    "efficiency_bound_fuzz": "efficiency --algorithm bound-fuzz --trials 10000 --seed 0",
    "simulate_builtin": "simulate --builtin majority-toffoli --bias 0.5 --eps 0.01",
    "simulate_circuit": "simulate --circuit my_circuit.txt --biases 0.5,0.5 --postselect 1=0",
    "tape_cool_dump": ("tape --m 3 --bits 000110000 --action cool --positions 3,4,5 "
                       "--dump pulses.txt"),
    "tape_replay": "tape --m 3 --bits 000110000 --action replay --program pulses.txt",
}

# Cases that read a file another case writes.
PREREQUISITES = {"tape_replay": "tape_cool_dump"}


def _run(capsys, name: str) -> str:
    assert main(CASES[name].split()) == 0
    return capsys.readouterr().out


@pytest.mark.parametrize("name", sorted(CASES))
def test_readme_command_output(name, capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "my_circuit.txt").write_text(CIRCUIT)
    if name in PREREQUISITES:
        _run(capsys, PREREQUISITES[name])
    assert _run(capsys, name) == (GOLDEN / f"{name}.out").read_text()


def test_readme_python_examples():
    failed, attempted = doctest.testfile(str(README), module_relative=False)
    assert attempted > 0
    assert failed == 0
