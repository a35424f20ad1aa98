"""Run one noisycache CLI command with timers wrapped around its layers.

Usage: python3 perfbench/traced_cli.py STATS.json CLI-ARGS...

Before calling `noisycache.cli.main(CLI-ARGS)` this replaces each function
in TARGETS, in every loaded noisycache module that refers to it, with a
wrapper that counts calls and times them. Nothing under src/ changes. Each
record keeps, per tag, the call count, the inclusive time, the self time
(inclusive time minus the time of wrapped calls made inside it) and the
number of slots the call covered. A target that no longer exists is listed
as absent instead of failing the run. The records go to STATS.json and the
process exits with the CLI's exit code.
"""

import importlib
import json
import sys
import time


def _spec_kind(args, kwargs):
    spec = args[0] if args else kwargs.get("spec")
    kind = getattr(spec, "kind", None)
    return str(getattr(kind, "value", kind))


def _slot_count(result):
    horizon = getattr(result, "horizon", None)
    if horizon is not None:
        return int(horizon)
    costs = getattr(result, "costs", None)
    if costs is not None:
        return len(costs)
    return len(result) if hasattr(result, "__len__") else 0


# (module, qualified name, tags calls by, counts slots from the result)
TARGETS = (
    ("traces", "generate_zipf", None, False),
    ("traces", "read_trace_file", None, False),
    ("traces", "batch_trace", None, True),
    ("core", "_check_vector", None, False),
    ("core", "oracle_minimize", None, False),
    ("core", "cost", None, False),
    ("core", "accumulate", None, False),
    ("core", "total_counts", None, False),
    ("estimators", "estimate", _spec_kind, False),
    ("policies", "PerturbedLeader.decide", None, False),
    ("policies", "PerturbedLeader.observe", None, False),
    ("policies", "FollowTheLeader.decide", None, False),
    ("policies", "FollowTheLeader.observe", None, False),
    ("policies", "LeastRecentlyUsed.process_slot", None, False),
    ("policies", "replay_static", None, False),
    ("metrics", "average_miss_ratio", None, False),
    ("metrics", "decile_band", None, False),
    ("engine", "run_policy", _spec_kind, True),
    ("cli", "load_config", None, False),
    ("cli", "_render_series", None, False),
    ("cli", "_render_summary", None, False),
    ("cli", "_render_sweep", None, False),
    ("cli", "_render_echo", None, False),
    ("cli", "_commit_files", None, False),
    ("cli", "cmd_generate", None, False),
)


class Tracer:
    """Call records keyed by 'module.qualname', then by tag."""

    def __init__(self):
        self.records = {}
        self.absent = []
        self._child_time = []

    def _wrap(self, key, fn, tag_of, counts_slots):
        per_tag = self.records.setdefault(key, {})
        stack = self._child_time
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            stack.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                inner = stack.pop()
                if stack:
                    stack[-1] += elapsed
            tag = tag_of(args, kwargs) if tag_of else ""
            rec = per_tag.setdefault(tag, [0, 0.0, 0.0, 0])
            rec[0] += 1
            rec[1] += elapsed
            rec[2] += elapsed - inner
            if counts_slots:
                rec[3] += _slot_count(result)
            return result

        wrapper.__name__ = getattr(fn, "__name__", key)
        wrapper.__doc__ = getattr(fn, "__doc__", None)
        return wrapper

    def install(self, module_name, qualname, tag_of, counts_slots):
        key = f"{module_name}.{qualname}"
        try:
            module = importlib.import_module(f"noisycache.{module_name}")
        except ImportError:
            self.absent.append(key)
            return
        owner_name, _, attr = qualname.rpartition(".")
        owner = getattr(module, owner_name, None) if owner_name else module
        original = getattr(owner, attr, None) if owner is not None else None
        if not callable(original):
            self.absent.append(key)
            return
        wrapper = self._wrap(key, original, tag_of, counts_slots)
        if owner_name:
            setattr(owner, attr, wrapper)
            return
        # `from .core import cost` binds the name in other modules too
        for name, loaded in list(sys.modules.items()):
            if name == "noisycache" or name.startswith("noisycache."):
                for ref, value in list(vars(loaded).items()):
                    if value is original:
                        setattr(loaded, ref, wrapper)


def main(argv) -> int:
    stats_path, cli_args = argv[0], argv[1:]
    # load every module first, so each one's imported names get patched
    from noisycache import cli

    tracer = Tracer()
    for target in TARGETS:
        tracer.install(*target)
    code = cli.main(cli_args)
    with open(stats_path, "w", encoding="utf-8") as fh:
        json.dump({"records": tracer.records, "absent": tracer.absent}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
