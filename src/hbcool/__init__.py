"""Heat-bath algorithmic cooling: bias algebra, exact circuit simulation,
error thresholds and limits, cooling schedules, and an ABC-chain tape
emulator with a command-line front end (`hbcool`).

Importing the package does not import numpy: the numpy-backed register
names (`JointDistribution`, `product_distribution` and the `distribution`
module) load on first access."""

from importlib import import_module as _import_module

from .bias import (
    ErrorRates,
    debias_step,
    fibonacci,
    prob_from_bias,
    steady_state_bias,
    steady_state_bias_noisy,
    three_bc_bias,
    three_bc_bias_unequal,
    two_bc_accept_bias,
    two_bc_accept_prob,
)
from .circuits import (
    Circuit,
    Gate,
    apply_gate,
    circuit_from_text,
    circuit_to_text,
    majority_circuit_cswap,
    majority_circuit_toffoli,
    two_bc_circuit,
    two_bc_sort_circuit,
)
from .cooling import (
    CoolingResult,
    CostLedger,
    RegisterBiases,
    fibonacci_algorithm,
    fibonacci_bound_check,
    heatbath_recursive,
    random_hb_trace_check,
    run_with_noise,
    simple_recursive,
    three_bc_hb,
    trace_to_jsonl,
)
from .limits import (
    ASYM_AFTER,
    ASYM_DURING,
    SYM_AFTER,
    SYM_DURING,
    BiasUpdateModel,
    LimitReport,
    attracting_limit,
    bisect_root,
    blim_asym_after,
    blim_sym_after,
    blim_sym_during,
    limit_report,
    make_model,
    newbias_asym_after,
    newbias_asym_during,
    newbias_sym_after,
    newbias_sym_during,
    summary_table,
    threshold_sym_after,
    threshold_sym_during,
)
from .noise import enumerate_noisy_output_bias
from .tape import (
    ChainLoop,
    PrimitiveOp,
    compile_cooling_step,
    execute,
    permutation_ops,
    pulse_program_from_text,
    pulse_program_to_text,
)

__version__ = "0.1.0"

_REGISTER_NAMES = ("JointDistribution", "product_distribution")

__all__ = sorted([name for name in globals() if not name.startswith("_")]
                 + ["distribution", *_REGISTER_NAMES])


def __getattr__(name: str):
    if name != "distribution" and name not in _REGISTER_NAMES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    distribution = _import_module(".distribution", __name__)
    return distribution if name == "distribution" else getattr(distribution, name)


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
