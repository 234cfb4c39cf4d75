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


def _bind_lazily(namespace: dict, names: dict):
    """A module's PEP 562 ``__getattr__`` for ``names``, each name -> its submodule.

    The first use of a name imports its submodule and binds every name taken
    from it in ``namespace`` with ``setdefault``, so a wrapper that a
    profiler set earlier with ``setattr`` stays.  Call sites call it too, so
    what runs is whatever is bound.
    """
    def bound(name):
        if name not in names:
            raise AttributeError(f"module {namespace['__name__']!r} has no attribute {name!r}")
        if name not in namespace:
            module = import_module(f"{__name__}.{names[name]}")
            for other, source in names.items():
                if source == names[name]:
                    namespace.setdefault(other, getattr(module, other))
        return namespace[name]
    return bound


__getattr__ = _bind_lazily(globals(), _SUBMODULE)


def __dir__():
    return sorted({*globals(), *_SUBMODULE})
