"""noisycache: no-regret online caching under sampled request estimates.

The library simulates batch-by-batch cache management where the policy
must commit a decision before seeing the batch and may only observe a
sampled, rescaled estimate of the request counts afterwards. It ships
the perturbed-leader family (exact, fixed-subsample, and bernoulli
observation), classical baselines (LRU, follow-the-leader, the static
hindsight optimum), the metrics to compare them, and an experiment
engine plus CLI wrapping the whole protocol.

`InvalidInputError` and `__version__` are bound on import. Every other
public name is imported from its submodule on first access (PEP 562),
so `import noisycache`, like `noisycache generate`, loads no simulator
code until a name from it is used.
"""

import importlib

from .core import InvalidInputError

__version__ = "0.1.0"

# The public names resolved on first access, by the submodule that defines them.
_LAZY = {
    "traces": (
        "Trace", "SlottedTrace", "ZipfConfig", "RoundRobinConfig",
        "TraceFileConfig", "TraceParseError", "generate_zipf",
        "generate_round_robin", "read_trace_file", "write_trace_file",
        "batch_trace",
    ),
    "estimators": ("EstimatorKind", "EstimatorSpec", "BoundParams", "bound_params"),
    "policies": (
        "follow_the_leader", "least_recently_used",
        "static_optimum", "step_perturbed_leaders", "LeaderRuns", "SeedPlan",
    ),
    "metrics": ("average_miss_ratio", "compute_eta", "regret_bound", "decile_band"),
    "engine": (
        "PolicySpec", "ExperimentConfig", "ExperimentReport",
        "PolicyReport", "run_experiment", "run_sweep",
    ),
}
_SOURCE = {name: module for module, names in _LAZY.items() for name in names}

__all__ = ["InvalidInputError", *_SOURCE, "__version__"]


def __getattr__(name):
    # An AttributeError here also lets `from noisycache import cli` fall
    # back to importing the submodule.
    if name not in _SOURCE:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_SOURCE[name]}", __name__), name)
    globals()[name] = value  # later lookups skip this function
    return value


def __dir__():
    return sorted({*globals(), *__all__})
