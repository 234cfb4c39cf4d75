"""Targeted-ransomware negotiation game: analysis, simulation, optimization.

A two-player model of ransom negotiation between an attacker, who invests
in decryptor reliability and in estimating the target's data value before
choosing an aggression level and a demand, and a defender, who answers with
the counteroffer that maximizes their expected utility.  The package
provides the closed-form game mathematics, the expected-profit evaluation
by independent closed-form and quadrature routes, a deterministic
agent-based Monte Carlo engine, and a strategy optimizer, all exposed
through the ``ransomgame`` command-line tool.
"""

__version__ = "0.1.0"

from .errors import ConfigError, DomainError, NumericalError
from .game import (AttackerStrategy, DerivedParameters, FixedValue, GameEnvironment,
                   NegotiationOutcome, OutcomeKind, PopulationMean,
                   aggression_probability, attacker_profit_piecewise,
                   defender_utility, demand_factor, estimate_scale, gross_profit,
                   optimal_counteroffer, optimal_play_profit, reliability)
from .optimize import (AxisSpec, StrategyOptimum, SurfaceResult, SweepGrid,
                       maximize_profit, nelder_mead, profit_surface)
from .profit import (ProfitEstimate, ProfitMethod, expected_profit,
                     gross_multiplier_closed_form, gross_multiplier_quadrature)
from .simulate import (SimulationConfig, SimulationReport, SimulationTrace,
                       run_batch, run_single, write_trace_csv)
from .stochastics import (LognormalEstimator, SeedSpec, lognormal_cdf, lognormal_pdf,
                          sample_estimate, sample_estimates, std_normal_cdf,
                          std_normal_ppf)

__all__ = [
    "__version__",
    "ConfigError", "DomainError", "NumericalError",
    "AttackerStrategy", "DerivedParameters", "FixedValue", "GameEnvironment",
    "NegotiationOutcome", "OutcomeKind", "PopulationMean",
    "aggression_probability", "attacker_profit_piecewise", "defender_utility",
    "demand_factor", "estimate_scale", "gross_profit", "optimal_counteroffer",
    "optimal_play_profit", "reliability",
    "AxisSpec", "StrategyOptimum", "SurfaceResult", "SweepGrid",
    "maximize_profit", "nelder_mead", "profit_surface",
    "ProfitEstimate", "ProfitMethod", "expected_profit",
    "gross_multiplier_closed_form", "gross_multiplier_quadrature",
    "SimulationConfig", "SimulationReport", "SimulationTrace",
    "run_batch", "run_single", "write_trace_csv",
    "LognormalEstimator", "SeedSpec", "lognormal_cdf", "lognormal_pdf",
    "sample_estimate", "sample_estimates", "std_normal_cdf", "std_normal_ppf",
]
