"""Heat-bath algorithmic cooling: bias algebra, exact circuit simulation,
error thresholds and limits, cooling schedules, and an ABC-chain tape
emulator with a command-line front end (`hbcool`).

Importing the package loads none of its modules: each public name, and
each module named in `__all__`, loads on first access from the table
below. So `import hbcool` imports no numpy, and the numpy-backed register
names (`JointDistribution`, `product_distribution`) load it only when
read."""

from importlib import import_module as _import_module

__version__ = "0.1.0"

# module -> the public names the package takes from it
_EXPORTS = {
    "bias": ("ErrorRates", "debias_step", "fibonacci", "prob_from_bias",
             "steady_state_bias", "steady_state_bias_noisy", "three_bc_bias",
             "three_bc_bias_unequal", "two_bc_accept_bias", "two_bc_accept_prob"),
    "circuits": ("Circuit", "Gate", "apply_gate", "circuit_from_text", "circuit_to_text",
                 "majority_circuit_cswap", "majority_circuit_toffoli", "two_bc_circuit",
                 "two_bc_sort_circuit"),
    "cooling": ("CoolingResult", "CostLedger", "RegisterBiases", "fibonacci_algorithm",
                "fibonacci_bound_check", "heatbath_recursive", "random_hb_trace_check",
                "run_with_noise", "simple_recursive", "three_bc_hb", "trace_to_jsonl"),
    "distribution": ("JointDistribution", "product_distribution"),
    "jsonio": (),
    "limits": ("ASYM_AFTER", "ASYM_DURING", "SYM_AFTER", "SYM_DURING", "BiasUpdateModel",
               "LimitReport", "attracting_limit", "bisect_root", "blim_asym_after",
               "blim_sym_after", "blim_sym_during", "limit_report", "make_model",
               "newbias_asym_after", "newbias_asym_during", "newbias_sym_after",
               "newbias_sym_during", "summary_table"),
    "noise": ("enumerate_noisy_output_bias",),
    "tape": ("ChainLoop", "PrimitiveOp", "compile_cooling_step", "execute", "permutation_ops",
             "pulse_program_from_text", "pulse_program_to_text"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted([*_EXPORTS, *_MODULE_OF])


def __getattr__(name: str):
    if name in _EXPORTS:  # importing a submodule binds it here
        return _import_module(f".{name}", __name__)
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(_import_module(f".{_MODULE_OF[name]}", __name__), name)
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
