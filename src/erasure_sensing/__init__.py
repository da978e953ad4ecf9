"""Quantum-sensor precision under erasure, depolarizing, and dephasing noise.

The package computes Fisher-information bounds for a single Ramsey sensor,
estimates phases from measurement counts and from two-ensemble ellipse fits,
and runs an end-to-end Monte Carlo of a differential clock comparison with
Allan-deviation analysis and interrogation-time optimization.

The top level re-exports the names of the headline workflows; everything
else is imported from its submodule (`states`, `fisher`, `estimation`,
`clock`, `cli`).
"""

from .states import ChannelKind, NoiseChannel
from .fisher import (
    bloch_density,
    channel_outcome_model,
    classical_fisher_numeric,
    fisher_dephasing,
    fisher_depolarizing,
    fisher_erasure,
    qfi_depolarized,
    qfi_pure_generator,
)
from .estimation import (
    CountRecord,
    ellipse_fit,
    ellipse_phase_jackknife,
    mle_phase,
)
from .clock import (
    ComparisonConfig,
    allan_deviation,
    crb_floor,
    erasure_conversion_gain,
    erasure_conversion_gain_curve,
    fit_loglog_exponent,
    instability_vs_error_rate,
    optimize_interrogation,
    run_comparison,
    valid_pairs,
)

__version__ = "0.1.0"
