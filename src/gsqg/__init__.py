"""gSQG point vortices: dynamics, self-similar triples, stability, sweeps.

`import gsqg` loads none of its modules, nor NumPy: a public name imports its
module on first use (PEP 562), so a command pays only for the modules it runs."""

__version__ = "0.1.0"

# each module and the public names it exports; the module is one as well
_EXPORTS = {
    "kernel": ("ALPHA_GUARD", "ConservedQuantities", "DomainError", "SingularityError",
               "VortexState", "conserved", "coupling_constant", "rhs"),
    "integrator": ("IntegratorConfig", "Status", "Trajectory", "collapse_time_fit",
                   "integrate", "integrate_batch"),
    "selfsimilar": ("Classification", "SelfSimilarMotion", "TripleConfig", "center",
                    "classify", "motion_from_config", "reference_time", "selfsimilar_rate",
                    "zeta", "RATE_TOL", "SS_TOL"),
    "stability": ("EIG_TOL", "HypothesisReport", "hypothesis_a_check", "propagator_norm"),
    "search": ("SweepRecord", "SweepResult", "cardano_discriminant", "cardano_y",
               "oriented_config", "sweep", "sweep_csv", "x_interval", "y_from_x"),
    "burstsim": ("BurstDiagnostics", "BurstScenario", "collapse_scenario",
                 "convergence_study", "make_burst_initial", "run_burst"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in (module, *names)}

__all__ = sorted(_HOME)


def __getattr__(name):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import importlib
    module = importlib.import_module(f"{__name__}.{_HOME[name]}")
    globals()[name] = value = module if name in _EXPORTS else getattr(module, name)
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
