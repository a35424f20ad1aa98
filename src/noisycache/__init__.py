"""noisycache: no-regret online caching under sampled request estimates.

The library simulates batch-by-batch cache management where the policy
must commit a decision before seeing the batch and may only observe a
sampled, rescaled estimate of the request counts afterwards. It ships
the perturbed-leader family (exact, fixed-subsample, and bernoulli
observation), classical baselines (LRU, follow-the-leader, the static
hindsight optimum), the metrics to compare them, and an experiment
engine plus CLI wrapping the whole protocol.
"""

from .core import InvalidInputError
from .engine import (
    ExperimentConfig,
    ExperimentReport,
    PolicyReport,
    PolicySpec,
    SeedPlan,
    run_experiment,
    run_sweep,
)
from .estimators import BoundParams, EstimatorKind, EstimatorSpec, bound_params
from .metrics import average_miss_ratio, decile_band, regret_bound
from .policies import (
    LeaderRuns,
    compute_eta,
    follow_the_leader,
    least_recently_used,
    static_optimum,
    step_perturbed_leaders,
)
from .traces import (
    RoundRobinConfig,
    SlottedTrace,
    Trace,
    TraceFileConfig,
    TraceParseError,
    ZipfConfig,
    batch_trace,
    generate_round_robin,
    generate_zipf,
    read_trace_file,
    write_trace_file,
)

__version__ = "0.1.0"

__all__ = [
    "InvalidInputError",
    "Trace",
    "SlottedTrace",
    "ZipfConfig",
    "RoundRobinConfig",
    "TraceFileConfig",
    "TraceParseError",
    "generate_zipf",
    "generate_round_robin",
    "read_trace_file",
    "write_trace_file",
    "batch_trace",
    "EstimatorKind",
    "EstimatorSpec",
    "BoundParams",
    "bound_params",
    "compute_eta",
    "follow_the_leader",
    "least_recently_used",
    "static_optimum",
    "step_perturbed_leaders",
    "LeaderRuns",
    "average_miss_ratio",
    "regret_bound",
    "decile_band",
    "PolicySpec",
    "SeedPlan",
    "ExperimentConfig",
    "ExperimentReport",
    "PolicyReport",
    "run_experiment",
    "run_sweep",
    "__version__",
]
