"""Targeted-ransomware negotiation game: analysis, simulation, optimization.

A two-player model of ransom negotiation between an attacker, who invests
in decryptor reliability and in estimating the target's data value before
choosing an aggression level and a demand, and a defender, who answers with
the counteroffer that maximizes their expected utility.  The package
provides the closed-form game mathematics, the expected-profit evaluation
by independent closed-form and quadrature routes, a deterministic
agent-based Monte Carlo engine, and a strategy optimizer, all exposed
through the ``ransomgame`` command-line tool.

A public name's submodule is imported on first access to the name, so
``import ransomgame`` loads none of them.
"""

from importlib import import_module

__version__ = "0.1.0"

__all__ = [
    "__version__",
    "ConfigError", "DomainError", "NumericalError",
    "AttackerStrategy", "FixedValue", "GameEnvironment", "NegotiationOutcome",
    "OutcomeKind", "PopulationMean",
    "aggression_probability", "attacker_profit_piecewise", "defender_utility",
    "demand_factor", "estimate_scale", "optimal_counteroffer",
    "optimal_play_profit", "reliability",
    "AxisSpec", "StrategyOptimum", "SurfaceResult", "SweepGrid",
    "maximize_profit", "profit_surface",
    "ProfitEstimate", "ProfitMethod", "expected_profit",
    "gross_multiplier_closed_form", "gross_multiplier_quadrature",
    "SimulationConfig", "SimulationReport", "SimulationTrace",
    "run_batch", "run_single", "write_trace_csv",
    "SeedSpec", "lognormal_pdf",
]

# The submodule that defines each public name (PEP 562 lazy attributes).
_SUBMODULE = {name: module for module, names in (
    ("errors", ("ConfigError", "DomainError", "NumericalError")),
    ("game", ("AttackerStrategy", "FixedValue", "GameEnvironment", "NegotiationOutcome",
              "OutcomeKind", "PopulationMean", "aggression_probability",
              "attacker_profit_piecewise", "defender_utility", "demand_factor",
              "estimate_scale", "optimal_counteroffer", "optimal_play_profit",
              "reliability")),
    ("optimize", ("AxisSpec", "StrategyOptimum", "SurfaceResult", "SweepGrid",
                  "maximize_profit", "profit_surface")),
    ("profit", ("ProfitEstimate", "ProfitMethod", "expected_profit",
                "gross_multiplier_closed_form", "gross_multiplier_quadrature")),
    ("simulate", ("SimulationConfig", "SimulationReport", "SimulationTrace",
                  "run_batch", "run_single", "write_trace_csv")),
    ("stochastics", ("SeedSpec", "lognormal_pdf")),
) for name in names}


def __getattr__(name):
    module = _SUBMODULE.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *_SUBMODULE})
