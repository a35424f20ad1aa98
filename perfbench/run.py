#!/usr/bin/env python3
"""Benchmark of the noisycache CLI (host time, not simulated time).

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload desk-run --seed 1 --seconds 36 --trace 0
    python3 perfbench/run.py --smoke

Each workload drives `noisycache generate` and then `noisycache run` or
`noisycache sweep` on inputs made from --seed, one fresh process at a time,
with the package imported from this checkout's src/. --trace 0 prints the
end-to-end metrics; --trace 1 prints the per-layer metrics from runs of
perfbench/traced_cli.py plus the tracing overhead. End-to-end times are
rescaled by a reference job timed before each repeat (see REF_NOMINAL_S).
Every output is checked; any failed check makes the run exit 1. The last
line of stdout is one JSON object: {"correct", "attempted", "failed",
"metrics"}. A fuller record, with every repeat's times, the output hashes
and the environment, goes to .perfbench_out/. --smoke runs every workload
briefly in both modes and checks that each metric BENCHMARK.json names is
emitted. See perfbench/README.md.
"""

import argparse
import functools
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
BUDGET_S = 170.0  # a run must end within 180 s, whatever --seconds says
MIN_REPS = 2  # byte-identity needs at least two repeats


@dataclass(frozen=True)
class Workload:
    name: str
    command: str  # "run" or "sweep"
    n_files: int
    requests: int
    cache_size: int
    batch_size: int
    runs: int
    policies: tuple[tuple[str, str, float | None], ...]  # (name, kind, rate)
    from_file: bool  # the command reads the generated trace file
    sweep_rates: tuple[float, ...] = ()
    sweep_cache_sizes: tuple[int, ...] = ()

    @property
    def horizon(self) -> int:
        return self.requests // self.batch_size


WORKLOADS = {
    w.name: w
    for w in (
        # zipf_desk.ini's shape with T=1000: at N=1k per-call overhead
        # (input checks, batch objects, accumulate copies, LRU's event loop)
        # outweighs the array work.
        Workload(
            "desk-run", "run", n_files=1000, requests=200_000, cache_size=100,
            batch_size=200, runs=10,
            policies=(
                ("opt", "opt", None), ("lru", "lru", None), ("ftl", "ftl", None),
                ("fpl", "fpl", None), ("var", "nfpl-var", 0.5),
                ("fix", "nfpl-fix", 0.5),
            ),
            from_file=False,
        ),
        # N=10k sweep: array work (noise draw, oracle, estimators) dominates;
        # no lru/ftl/opt and no series.csv. Two cache sizes move the oracle's
        # boundary; rate 1.0 makes fix and var exact twins.
        Workload(
            "large-sweep", "sweep", n_files=10_000, requests=200_000,
            cache_size=200, batch_size=200, runs=1, policies=(),
            from_file=False,
            sweep_rates=(0.01, 0.1, 0.5, 1.0), sweep_cache_sizes=(10, 200),
        ),
        # 1M-line trace file written by generate and read back by run: the
        # only workload where trace I/O does most of the work.
        Workload(
            "trace-file", "run", n_files=10_000, requests=1_000_000,
            cache_size=100, batch_size=2000, runs=1,
            policies=(("opt", "opt", None), ("ftl", "ftl", None),
                      ("fpl", "fpl", None)),
            from_file=True,
        ),
    )
}

END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB", "write_s": "s"}
# Neighbours on a shared host slow every process, for seconds to minutes at
# a time. So each repeat first times reference_job.py, a fixed job of the
# benchmark's own, and a time is reported as the median over repeats of
# time / reference time * REF_NOMINAL_S: seconds at the host speed where
# the reference job takes REF_NOMINAL_S. Memory is not rescaled. The raw
# times are printed and kept in the record.
REF_NOMINAL_S = 0.25
RESCALED = ("wall_s", "setup_s", "write_s")
POLICY_KINDS = ("lru", "ftl", "fpl", "nfpl-fix", "nfpl-var", "opt")
ESTIMATOR_TAGS = ("exact", "fixed", "bernoulli")


# ------------------------------------------------------------ processes

class Child:
    """Runs one child process at a time and reaps it, killing it on overrun."""

    def __init__(self, work: Path, deadline: float):
        self.work = work
        self.deadline = deadline
        self.env = {k: v for k, v in os.environ.items() if k != "NOISYCACHE_WORKERS"}
        self.env["PYTHONPATH"] = str(SRC)
        self._proc = None

    def run(self, argv, log_name):
        """Return (exit code, wall seconds, peak RSS in MB, monotonic start, log)."""
        timeout = self.deadline - time.monotonic()
        if timeout <= 0:
            raise TimeoutError("benchmark time budget exhausted")
        log = self.work / log_name
        with open(log, "wb") as fh:
            started = time.monotonic()
            t0 = time.perf_counter()
            self._proc = subprocess.Popen(
                [sys.executable, *argv], cwd=ROOT, env=self.env,
                stdin=subprocess.DEVNULL, stdout=fh, stderr=subprocess.STDOUT,
            )
        killer = threading.Timer(timeout, self._proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(self._proc.pid, 0)
            wall = time.perf_counter() - t0
        finally:
            killer.cancel()
        self._proc.returncode = code = os.waitstatus_to_exitcode(status)
        self._proc = None
        return code, wall, usage.ru_maxrss / 1024.0, started, log.read_text(errors="replace")

    def stop(self):
        if self._proc is not None and self._proc.returncode is None:
            self._proc.kill()
            self._proc.wait()


# -------------------------------------------------------------- inputs

def derive_seeds(workload: str, seed: int) -> tuple[int, int]:
    """(trace seed, base_seed), fixed by the workload name and --seed."""
    key = [seed] + list(workload.encode())
    trace_seed, base_seed = np.random.SeedSequence(key).generate_state(2)
    return int(trace_seed), int(base_seed)


def config_text(w: Workload, trace_seed: int, base_seed: int, trace_path: Path) -> str:
    lines = [
        "[experiment]",
        f"cache_size = {w.cache_size}",
        f"batch_size = {w.batch_size}",
        f"runs = {w.runs}",
        f"base_seed = {base_seed}",
        "[trace]",
    ]
    if w.from_file:
        lines += ["kind = file", f"path = {trace_path}", "remap = true"]
    else:
        lines += ["kind = zipf", f"files = {w.n_files}", "alpha = 1.0",
                  f"requests = {w.requests}", f"seed = {trace_seed}"]
    for name, kind, rate in w.policies:
        lines += [f"[policy:{name}]", f"kind = {kind}"]
        if rate is not None:
            lines.append(f"rate = {rate}")
    if w.command == "sweep":
        lines += [
            "[sweep]",
            "rates = " + ", ".join(str(r) for r in w.sweep_rates),
            "variants = fix, var",
            "cache_sizes = " + ", ".join(str(c) for c in w.sweep_cache_sizes),
        ]
    return "\n".join(lines) + "\n"


# -------------------------------------------------------------- checks

def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def static_optimum(trace_path: Path, w: Workload) -> int:
    """Misses of the best static cache: requests outside the top-C counts."""
    events = np.loadtxt(trace_path, dtype=np.int64, ndmin=1)
    used = events[: w.horizon * w.batch_size]
    counts = np.sort(np.bincount(used))[::-1]
    return int(used.size - counts[: w.cache_size].sum())


def read_csv(path: Path) -> list[dict]:
    lines = path.read_text().splitlines()
    header = lines[0].split(",")
    return [dict(zip(header, line.split(","))) for line in lines[1:]]


def check_outputs(w: Workload, out: Path, optimum: int | None) -> list[str]:
    """Problems found in one command's outputs; empty when they are right."""
    problems = []
    if w.command == "run":
        summary = read_csv(out / "summary.csv")
        names = [row["policy"] for row in summary]
        if names != [p[0] for p in w.policies]:
            problems.append(f"summary.csv policies {names}")
        for row in summary:
            if int(row["opt_cost"]) != optimum:
                problems.append(
                    f"{row['policy']}: opt_cost {row['opt_cost']} != bincount optimum {optimum}")
            if row["bound"] and float(row["regret"]) > float(row["bound"]):
                problems.append(
                    f"{row['policy']}: regret {row['regret']} > bound {row['bound']}")
        series_rows = len((out / "series.csv").read_text().splitlines()) - 1
        if series_rows != w.horizon * len(w.policies):
            problems.append(f"series.csv has {series_rows} rows")
    else:
        cells = read_csv(out / "sweep.csv")
        if len(cells) != 2 * len(w.sweep_rates) * len(w.sweep_cache_sizes):
            problems.append(f"sweep.csv has {len(cells)} cells")
        for cell in cells:
            if not 0.0 <= float(cell["final_d1"]) <= float(cell["final_d9"]) <= 1.0:
                problems.append(f"sweep cell out of order: {cell}")
        for size in w.sweep_cache_sizes:
            twins = [
                {k: v for k, v in c.items() if k != "variant"}
                for c in cells
                if c["cache_size"] == str(size) and float(c["rate"]) == 1.0
            ]
            if len(twins) != 2 or twins[0] != twins[1]:
                problems.append(f"rate-1.0 fix and var cells differ at C={size}: {twins}")
    return problems


# --------------------------------------------------------- per-layer

def merge_stats(parts: list[dict]) -> dict:
    """Sum the call records of several traced processes."""
    merged = {}
    for part in parts:
        for key, per_tag in part["records"].items():
            into = merged.setdefault(key, {})
            for tag, rec in per_tag.items():
                have = into.setdefault(tag, [0, 0.0, 0.0, 0])
                for i, value in enumerate(rec):
                    have[i] += value
    return merged


def layer_metrics(records: dict) -> dict[str, tuple[float, str]]:
    """Per-layer metrics from merged call records (0 where never called)."""

    def total(key, tag=None, *, field):
        per_tag = records.get(key, {})
        if tag is not None:
            return per_tag.get(tag, [0, 0.0, 0.0, 0])[field]
        return sum(rec[field] for rec in per_tag.values())

    def ratio(num, den, scale=1.0):
        return num * scale / den if den else 0.0

    # the fields of a traced_cli.py record, in order
    calls, incl, own, slots = (functools.partial(total, field=i) for i in range(4))
    policy_slots = slots("engine.run_policy")

    m = {
        "traces.batch_trace.us_per_slot": (
            ratio(incl("traces.batch_trace"), slots("traces.batch_trace"), 1e6), "us/slot"),
        "traces.generate_zipf.s": (incl("traces.generate_zipf"), "s"),
        "traces.read_trace_file.s": (incl("traces.read_trace_file"), "s"),
        "cli.cmd_generate.s": (incl("cli.cmd_generate"), "s"),
    }
    for name in ("oracle_minimize", "cost", "accumulate"):
        key = f"core.{name}"
        m[f"{key}.calls"] = (calls(key), "count")
        m[f"{key}.self_us"] = (ratio(own(key), calls(key), 1e6), "us")
    m["core.total_counts.s"] = (incl("core.total_counts"), "s")
    m["core.check_vector.calls_per_slot"] = (
        ratio(calls("core._check_vector"), policy_slots), "1/slot")
    m["estimators.estimate.calls"] = (calls("estimators.estimate"), "count")
    for tag in ESTIMATOR_TAGS:
        m[f"estimators.estimate.self_us.{tag}"] = (
            ratio(own("estimators.estimate", tag), calls("estimators.estimate", tag), 1e6), "us")
    for method in ("decide", "observe"):
        key = f"policies.PerturbedLeader.{method}"
        m[f"{key}.self_us"] = (ratio(own(key), calls(key), 1e6), "us")
    ftl = incl("policies.FollowTheLeader.decide") + incl("policies.FollowTheLeader.observe")
    m["policies.FollowTheLeader.step_us"] = (
        ratio(ftl, calls("policies.FollowTheLeader.decide"), 1e6), "us")
    lru = "policies.LeastRecentlyUsed.process_slot"
    m[f"{lru}.us"] = (ratio(incl(lru), calls(lru), 1e6), "us")
    m["policies.replay_static.s"] = (incl("policies.replay_static"), "s")
    m["metrics.aggregate.s"] = (
        incl("metrics.average_miss_ratio") + incl("metrics.decile_band"), "s")
    m["cli.load_config.s"] = (incl("cli.load_config"), "s")
    m["cli.render.s"] = (
        sum(incl(f"cli._render_{part}") for part in ("series", "summary", "sweep", "echo")),
        "s")
    m["cli.commit.s"] = (incl("cli._commit_files"), "s")
    for kind in POLICY_KINDS:
        m[f"engine.run_policy.calls.{kind}"] = (calls("engine.run_policy", kind), "count")
        m[f"engine.run_policy.self_us_per_slot.{kind}"] = (
            ratio(own("engine.run_policy", kind), slots("engine.run_policy", kind), 1e6),
            "us/slot")
    m["engine.policy_slots"] = (policy_slots, "count")
    return m


# ---------------------------------------------------------------- runs

def summarize(values: list[float]) -> dict:
    return {
        "median": statistics.median(values),
        "min": min(values),
        "max": max(values),
        "n": len(values),
    }


class Bench:
    def __init__(self, w: Workload, seed: int, seconds: int, trace: bool):
        self.w = w
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.start = time.monotonic()
        self.work = OUT / f"work-{w.name}-{os.getpid()}"
        self.child = Child(self.work, self.start + BUDGET_S)
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.hashes = {}
        self.repeats = []  # one dict of raw measurements per complete repeat
        self.traced_wall = []
        self.traced_stats = []
        self.absent = set()

    # one CLI invocation, counted and checked
    def invoke(self, argv, label, traced=False):
        self.attempted += 1
        if traced:
            stats = self.work / f"{label}.stats.json"
            argv = [str(HERE / "traced_cli.py"), str(stats), *argv]
        else:
            argv = ["-m", "noisycache.cli", *argv]
        code, wall, rss, _, log = self.child.run(argv, f"{label}.log")
        if code != 0:
            self.fail(f"{label} exited {code}: {log.strip()[-400:]}")
            return None
        result = {"wall": wall, "rss": rss}
        if traced:
            result["stats"] = json.loads(stats.read_text())
        return result

    def fail(self, message):
        self.failed += 1
        self.problems.append(message)

    def same_bytes(self, paths: list[Path], label: str) -> bool:
        ok = True
        for path in paths:
            digest = sha256(path)
            first = self.hashes.setdefault(path.name, digest)
            if digest != first:
                ok = False
                self.problems.append(f"{label}: {path.name} bytes differ from the first repeat")
        return ok

    def prepare(self):
        w = self.w
        shutil.rmtree(self.work, ignore_errors=True)
        self.work.mkdir(parents=True)
        self.trace_seed, self.base_seed = derive_seeds(w.name, self.seed)
        self.trace_path = self.work / "trace.txt"
        self.config_path = self.work / "workload.ini"
        self.config_path.write_text(
            config_text(w, self.trace_seed, self.base_seed, self.trace_path))
        self.out_dir = self.work / "out"
        self.generate_argv = [
            "generate", "zipf", "--files", str(w.n_files), "--alpha", "1.0",
            "--requests", str(w.requests), "--seed", str(self.trace_seed),
            "-o", str(self.trace_path),
        ]
        self.command_argv = [w.command, "-c", str(self.config_path), "-o", str(self.out_dir)]
        # untimed: writes the trace the checks and the file workload read,
        # and compiles the package's bytecode once for the whole run
        if self.invoke(self.generate_argv, "warmup-generate") is None:
            return False
        self.same_bytes([self.trace_path], "warmup-generate")
        self.optimum = static_optimum(self.trace_path, w)
        return True

    def reference(self):
        code, wall, _, _, log = self.child.run([str(HERE / "reference_job.py")], "ref.log")
        if code != 0:
            self.fail(f"reference job exited {code}: {log.strip()[-400:]}")
            return None
        return wall

    def measure_setup(self):
        self.attempted += 1
        code, _, _, started, log = self.child.run(
            [str(HERE / "setup_probe.py"), str(self.config_path)], "setup.log")
        if code != 0:
            self.fail(f"setup probe exited {code}: {log.strip()[-400:]}")
            return None
        report = json.loads(log.strip().splitlines()[-1])
        if report["horizon"] != self.w.horizon:
            self.fail(f"setup probe built {report['horizon']} slots, "
                      f"expected {self.w.horizon}")
        elif not Path(report["module"]).resolve().is_relative_to(SRC):
            self.fail(f"setup probe imported {report['module']}, not this checkout")
        else:
            return report["ready"] - started
        return None

    def iteration(self, traced):
        tag = "traced" if traced else "plain"
        row = {}
        if not self.trace:
            row["ref_s"] = self.reference()
            row["setup_s"] = self.measure_setup()
        gen = self.invoke(self.generate_argv, f"{tag}-generate", traced)
        if gen is not None and not self.same_bytes([self.trace_path], f"{tag}-generate"):
            self.failed += 1
            gen = None
        cmd = self.invoke(self.command_argv, f"{tag}-{self.w.command}", traced)
        if cmd is not None:
            csvs = sorted(self.out_dir.glob("*.csv"))
            problems = check_outputs(self.w, self.out_dir, self.optimum)
            self.problems += problems
            if not self.same_bytes(csvs, f"{tag}-{self.w.command}") or problems:
                self.failed += 1
                cmd = None
        if gen is None or cmd is None or None in row.values():
            return
        if traced:
            self.traced_wall.append(cmd["wall"])
            self.traced_stats.append(merge_stats([gen["stats"], cmd["stats"]]))
            self.absent.update(gen["stats"]["absent"] + cmd["stats"]["absent"])
        else:
            row.update(write_s=gen["wall"], wall_s=cmd["wall"], peak_rss_mb=cmd["rss"])
            self.repeats.append(row)

    def measure(self):
        window_start = time.monotonic()
        order = (False, True) if self.trace else (False,)
        durations = []
        while not self.failed:
            now = time.monotonic()
            if len(durations) >= MIN_REPS and (
                    now - window_start + statistics.median(durations) > self.seconds):
                break
            if durations and now - self.start + max(durations) > BUDGET_S:
                break
            for traced in order:
                self.iteration(traced)
            durations.append(time.monotonic() - now)

    def metrics(self):
        if not self.trace:
            out = {}
            for name, unit in END_TO_END.items():
                if name in RESCALED:
                    value = REF_NOMINAL_S * statistics.median(
                        r[name] / r["ref_s"] for r in self.repeats)
                else:
                    value = statistics.median(r[name] for r in self.repeats)
                out[name] = {"value": value, "unit": unit}
            return out
        per_run = [layer_metrics(stats) for stats in self.traced_stats]
        out = {}
        for name, (_, unit) in per_run[0].items():
            values = [m[name][0] for m in per_run]
            # counts repeat exactly; keep them whole numbers
            value = values[0] if len(set(values)) == 1 else statistics.median(values)
            out[name] = {"value": value, "unit": unit}
        overhead = (statistics.median(self.traced_wall)
                    - statistics.median(r["wall_s"] for r in self.repeats))
        out["trace.overhead_s"] = {"value": overhead, "unit": "s"}
        return out

    def environment(self):
        src_lines = sum(len(p.read_text().splitlines()) for p in SRC.rglob("*.py"))
        return {
            "nproc": os.cpu_count(),
            "python": sys.version.split()[0],
            "numpy": np.__version__,
            "seed": self.seed,
            "trace_seed": self.trace_seed,
            "base_seed": self.base_seed,
            "src_lines": src_lines,
            "workload": self.w.__dict__,
        }

    def execute(self):
        try:
            if self.prepare():
                self.measure()
        except TimeoutError as exc:
            self.fail(str(exc))
        finally:
            self.child.stop()
        complete = bool(self.repeats) and (bool(self.traced_stats) or not self.trace)
        if not complete and not self.failed:
            self.fail("no complete repeat was measured")
        metrics = self.metrics() if complete else {}
        result = {
            "correct": self.failed == 0 and complete,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": metrics,
        }
        record = {
            **result,
            "error_rate": self.failed / max(self.attempted, 1),
            "problems": self.problems,
            "summary": {k: summarize([r[k] for r in self.repeats])
                        for k in (self.repeats[0] if self.repeats else ())},
            "repeats": self.repeats,
            "traced_wall_s": self.traced_wall,
            "absent": sorted(self.absent),
            "sha256": self.hashes,
            "environment": self.environment(),
        }
        OUT.mkdir(exist_ok=True)
        record_path = OUT / f"{self.w.name}-seed{self.seed}-trace{int(self.trace)}.json"
        record_path.write_text(json.dumps(record, indent=2, default=str) + "\n")
        shutil.rmtree(self.work, ignore_errors=True)
        self.report(record, record_path)
        return result

    def report(self, record, record_path):
        env = record["environment"]
        print(f"workload {self.w.name}  seed {self.seed}  trace {int(self.trace)}  "
              f"nproc {env['nproc']}  python {env['python']}  numpy {env['numpy']}  "
              f"src lines {env['src_lines']}")
        for name, stats in record["summary"].items():
            print(f"  raw {name:<12} median {stats['median']:.4f} {END_TO_END.get(name, 's')}  "
                  f"min {stats['min']:.4f}  max {stats['max']:.4f}  n={stats['n']}")
        for name, metric in record["metrics"].items():
            print(f"  {name:<48} {metric['value']:.6g} {metric['unit']}")
        if self.absent:
            print("  absent (reported as 0): " + ", ".join(sorted(self.absent)))
        print(f"  error_rate {record['error_rate']:.4f} "
              f"({self.failed} failed of {self.attempted} invocations)")
        for name, digest in sorted(self.hashes.items()):
            print(f"  sha256 {name} {digest}")
        for problem in self.problems:
            print(f"  CHECK FAILED: {problem}")
        print(f"  record: {record_path.relative_to(ROOT)}")


# --------------------------------------------------------------- smoke

def smoke() -> int:
    """Run each workload briefly in both modes; check every named metric."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    status = 0
    for workload in spec["workloads"]:
        for trace in (0, 1):
            argv = [*spec["command"][1:], "--workload", workload["name"], "--seed", "1",
                    "--seconds", "1", "--trace", str(trace)]
            proc = subprocess.run([sys.executable, *argv], cwd=ROOT,
                                  capture_output=True, text=True, timeout=200)
            last = proc.stdout.strip().splitlines()[-1] if proc.stdout.strip() else "{}"
            result = json.loads(last)
            got = {k: v["unit"] for k, v in result.get("metrics", {}).items()}
            ok = proc.returncode == 0 and result.get("correct") and got == wanted[trace]
            print(f"smoke {workload['name']} trace {trace}: {'ok' if ok else 'FAILED'}")
            if not ok:
                status = 1
                print(proc.stdout[-2000:] + proc.stderr[-2000:], file=sys.stderr)
                missing = sorted(set(wanted[trace]) - set(got))
                extra = sorted(set(got) - set(wanted[trace]))
                print(f"  missing {missing}  unexpected {extra}", file=sys.stderr)
    return status


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=36)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="check that every metric in BENCHMARK.json is emitted")
    args = parser.parse_args()
    if not (SRC / "noisycache" / "cli.py").is_file():
        print(f"error: no noisycache sources under {SRC}", file=sys.stderr)
        return 2
    if args.smoke:
        return smoke()
    if args.workload is None:
        parser.error("--workload is required")
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    result = Bench(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace)).execute()
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
