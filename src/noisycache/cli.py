"""Command-line interface: trace generation, experiment runs, rate sweeps.

Exit codes: 0 on success, 2 for usage/config/input errors, 1 for
unexpected runtime failures. Every usage error names its source: a flag,
or a config section and key. Output files are rendered fully in memory
and committed atomically (temp file + rename), so a failed invocation
never leaves partial CSVs behind.
"""

import argparse
import configparser
import contextlib
import csv
import io
import os
import sys

from .core import CacheSizeError, InvalidInputError
from .engine import (
    POLICY_KINDS,
    ExperimentConfig,
    PolicySpec,
    check_sweep_rates,
    check_sweep_variants,
    run_experiment,
    run_sweep,
)
from .traces import (
    RoundRobinConfig,
    TraceFileConfig,
    TraceParseError,
    ZipfConfig,
    generate_round_robin,
    generate_zipf,
    write_trace_file,
)

EXIT_OK = 0
EXIT_RUNTIME = 1
EXIT_USAGE = 2

DEFAULT_RATES = (0.01, 0.1, 0.5, 1.0)
DEFAULT_VARIANTS = ("fix", "var")


class ConfigError(Exception):
    """A config file problem; the message names the section and key."""


# ---------------------------------------------------------------- config

_EXPERIMENT_KEYS = {"cache_size", "batch_size", "runs", "base_seed"}
_TRACE_KEYS = {
    "zipf": {"kind", "files", "alpha", "requests", "seed"},
    "round-robin": {"kind", "files", "requests"},
    "file": {"kind", "path", "remap", "files"},
}
_POLICY_KEYS = {"kind", "rate", "subsample", "eta"}
_SWEEP_KEYS = {"rates", "variants", "cache_sizes"}

_BOOLEANS = {
    "true": True, "yes": True, "on": True, "1": True,
    "false": False, "no": False, "off": False, "0": False,
}


def _typed(section, section_name, key, conv, default=None, required=False):
    raw = section.get(key)
    if raw is None:
        if required:
            raise ConfigError(f"[{section_name}] missing required key '{key}'")
        return default
    try:
        return conv(raw)
    except (ValueError, KeyError):
        raise ConfigError(
            f"[{section_name}] cannot parse {key} = {raw!r}"
        ) from None


def _to_bool(raw: str) -> bool:
    return _BOOLEANS[raw.strip().lower()]


def _split_list(raw: str, conv):
    items = [part.strip() for part in raw.split(",") if part.strip()]
    if not items:
        raise ValueError("empty list")
    return tuple(conv(part) for part in items)


def _reject_unknown(section, section_name, allowed):
    unknown = set(section.keys()) - allowed
    if unknown:
        raise ConfigError(
            f"[{section_name}] unsupported key(s): {', '.join(sorted(unknown))}"
        )


def _named(source, build, *args, **kwargs):
    """build(*args, **kwargs), with an input error reported as from source."""
    try:
        return build(*args, **kwargs)
    except InvalidInputError as exc:
        raise ConfigError(f"{source}{exc}") from None


def _parse_trace_section(section):
    kind = _typed(section, "trace", "kind", str, required=True).strip().lower()
    if kind not in _TRACE_KEYS:
        raise ConfigError(
            f"[trace] unknown kind {kind!r}, expected zipf, round-robin, or file"
        )
    _reject_unknown(section, "trace", _TRACE_KEYS[kind])
    if kind == "zipf":
        return ZipfConfig(
            n_files=_typed(section, "trace", "files", int, required=True),
            alpha=_typed(section, "trace", "alpha", float, required=True),
            total_requests=_typed(section, "trace", "requests", int, required=True),
            seed=_typed(section, "trace", "seed", int),
        )
    if kind == "round-robin":
        return RoundRobinConfig(
            n_files=_typed(section, "trace", "files", int, required=True),
            total_requests=_typed(section, "trace", "requests", int, required=True),
        )
    return TraceFileConfig(
        path=_typed(section, "trace", "path", str, required=True),
        remap=_typed(section, "trace", "remap", _to_bool, default=True),
        n_files=_typed(section, "trace", "files", int),
    )


def _parse_policy_section(section, section_name, policy_name):
    _reject_unknown(section, section_name, _POLICY_KEYS)
    kind = _typed(section, section_name, "kind", str, required=True).strip().lower()
    return _named(
        f"[{section_name}] ",
        PolicySpec,
        name=policy_name,
        kind=kind,
        rate=_typed(section, section_name, "rate", float),
        subsample=_typed(section, section_name, "subsample", int),
        eta_override=_typed(section, section_name, "eta", float),
    )


def load_config(path: str):
    """Parse an INI experiment config; returns (ExperimentConfig, sweep dict).

    The sweep dict carries the optional [sweep] section's rates,
    variants, and cache_sizes (None when the section omits them).
    """
    parser = configparser.ConfigParser(inline_comment_prefixes=("#",))
    if not parser.read(path):
        raise ConfigError(f"cannot read config file {path!r}")
    known = {"experiment", "trace", "sweep"}
    for name in parser.sections():
        if name not in known and not name.startswith("policy:"):
            raise ConfigError(f"unknown section [{name}]")
    if "experiment" not in parser:
        raise ConfigError("missing [experiment] section")
    if "trace" not in parser:
        raise ConfigError("missing [trace] section")

    exp = parser["experiment"]
    _reject_unknown(exp, "experiment", _EXPERIMENT_KEYS)
    trace = _named("[trace] ", _parse_trace_section, parser["trace"])

    policies = []
    for name in parser.sections():
        if name.startswith("policy:"):
            policy_name = name[len("policy:"):].strip()
            policies.append(
                _parse_policy_section(parser[name], name, policy_name)
            )

    sweep = {"rates": None, "variants": None, "cache_sizes": None}
    if "sweep" in parser:
        section = parser["sweep"]
        _reject_unknown(section, "sweep", _SWEEP_KEYS)
        sweep["rates"] = _typed(
            section, "sweep", "rates", lambda raw: _split_list(raw, float)
        )
        sweep["variants"] = _typed(
            section, "sweep", "variants", lambda raw: _split_list(raw, str)
        )
        sweep["cache_sizes"] = _typed(
            section, "sweep", "cache_sizes", lambda raw: _split_list(raw, int)
        )

    config = _named(
        "[experiment] ",
        ExperimentConfig,
        trace=trace,
        cache_size=_typed(exp, "experiment", "cache_size", int, required=True),
        batch_size=_typed(exp, "experiment", "batch_size", int, required=True),
        policies=tuple(policies),
        runs=_typed(exp, "experiment", "runs", int, default=1),
        base_seed=_typed(exp, "experiment", "base_seed", int, default=0),
    )
    return config, sweep


# ----------------------------------------------------------------- output

def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _render_csv(header, rows) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


def _render_series(report) -> str:
    rows = [
        (t, pol.spec.name, *map(repr, band))
        for pol in report.policies
        for t, band in enumerate(
            zip(pol.mean.tolist(), pol.d1.tolist(), pol.d9.tolist()), 1
        )
    ]
    return _render_csv(("t", "policy", "mean", "d1", "d9"), rows)


def _render_summary(report) -> str:
    rows = [
        (pol.spec.name, _fmt(pol.final_mean), _fmt(pol.final_d1), _fmt(pol.final_d9),
         _fmt(pol.cum_cost), _fmt(report.opt_cost), _fmt(pol.regret.regret),
         _fmt(pol.regret.bound))
        for pol in report.policies
    ]
    header = (
        "policy", "final_mean", "final_d1", "final_d9",
        "cum_cost", "opt_cost", "regret", "bound",
    )
    return _render_csv(header, rows)


def _render_sweep(sweep_report) -> str:
    rows = [
        (cell.variant, _fmt(cell.rate), cell.cache_size, _fmt(cell.final_mean),
         _fmt(cell.final_d1), _fmt(cell.final_d9))
        for cell in sweep_report.cells
    ]
    header = ("variant", "rate", "cache_size", "final_mean", "final_d1", "final_d9")
    return _render_csv(header, rows)


def _trace_echo(source) -> dict:
    if isinstance(source, ZipfConfig):
        return {
            "kind": "zipf",
            "files": str(source.n_files),
            "alpha": _fmt(float(source.alpha)),
            "requests": str(source.total_requests),
            "seed": str(source.seed),
        }
    if isinstance(source, RoundRobinConfig):
        return {
            "kind": "round-robin",
            "files": str(source.n_files),
            "requests": str(source.total_requests),
        }
    if isinstance(source, TraceFileConfig):
        echo = {
            "kind": "file",
            "path": os.path.abspath(source.path),
            "remap": "true" if source.remap else "false",
        }
        if source.n_files is not None:
            echo["files"] = str(source.n_files)
        return echo
    raise InvalidInputError(f"cannot echo trace source {type(source).__name__}")


def _render_echo(config, trace_source, policy_etas=None, sweep=None) -> str:
    """Fully resolved config: rerunning it reproduces the same outputs."""
    out = configparser.ConfigParser()
    out["experiment"] = {
        "cache_size": str(config.cache_size),
        "batch_size": str(config.batch_size),
        "runs": str(config.runs),
        "base_seed": str(config.base_seed),
    }
    out["trace"] = _trace_echo(trace_source)
    for spec in config.policies:
        section = {"kind": spec.kind}
        if spec.rate is not None:
            section["rate"] = _fmt(float(spec.rate))
        if spec.subsample is not None:
            section["subsample"] = str(spec.subsample)
        if policy_etas and spec.name in policy_etas:
            section["eta"] = _fmt(policy_etas[spec.name])
        out[f"policy:{spec.name}"] = section
    if sweep is not None:
        out["sweep"] = {
            "rates": ", ".join(_fmt(float(r)) for r in sweep["rates"]),
            "variants": ", ".join(sweep["variants"]),
            "cache_sizes": ", ".join(str(c) for c in sweep["cache_sizes"]),
        }
    buf = io.StringIO()
    out.write(buf)
    return buf.getvalue()


def _check_output(path: str, directory: bool) -> None:
    """Reject an --output path before any work, as _output_to would after it.

    run and sweep write a directory and generate a file. An existing
    output must be of that kind, and the nearest existing part above a
    missing one must be a directory.
    """
    if not path:
        raise ConfigError("--output '' cannot be used: the path is empty")
    if not directory and path.endswith(os.sep):
        raise ConfigError(f"--output {path} cannot be used: it names a directory")
    target = where = os.path.abspath(path)
    while not os.path.exists(where):
        where = os.path.dirname(where)
    if os.path.isdir(where) != (directory or where != target):
        kind = "a directory" if os.path.isdir(where) else "not a directory"
        raise ConfigError(f"--output {path} cannot be used: {where} is {kind}")


@contextlib.contextmanager
def _output_to(path: str):
    """Report an --output path that is the wrong kind of file as a usage error.

    Other OS errors, a full disk say, stay runtime failures.
    """
    try:
        yield
    except (FileExistsError, IsADirectoryError, NotADirectoryError) as exc:
        where = exc.filename2 or exc.filename
        raise ConfigError(
            f"--output {path} cannot be used: {exc.strerror}: {where}"
        ) from None


def _commit_files(out_dir: str, files: dict) -> None:
    """Write every file atomically; leave nothing behind on failure."""
    temps = []
    with _output_to(out_dir):
        os.makedirs(out_dir, exist_ok=True)
        try:
            for name, text in files.items():
                tmp = os.path.join(out_dir, f".{name}.tmp")
                with open(tmp, "w", encoding="utf-8", newline="") as fh:
                    fh.write(text)
                temps.append((tmp, os.path.join(out_dir, name)))
            for tmp, final in temps:
                os.replace(tmp, final)
        except BaseException:
            for tmp, _ in temps:
                if os.path.exists(tmp):
                    os.remove(tmp)
            raise


# --------------------------------------------------------------- commands

def cmd_generate(args) -> int:
    _check_output(args.output, directory=False)
    try:
        if args.kind == "zipf":
            trace = generate_zipf(ZipfConfig(
                n_files=args.files,
                alpha=1.0 if args.alpha is None else args.alpha,
                total_requests=args.requests,
                seed=0 if args.seed is None else args.seed,
            ))
        else:
            if args.alpha is not None or args.seed is not None:
                raise ConfigError("--alpha and --seed do not apply to round-robin")
            trace = generate_round_robin(
                RoundRobinConfig(n_files=args.files, total_requests=args.requests)
            )
    except InvalidInputError as exc:  # the configs' messages start with the field
        field = str(exc).split()[0]
        flag = {"n_files": "files", "total_requests": "requests"}.get(field, field)
        raise ConfigError(f"--{flag}: {exc}") from None
    with _output_to(args.output):
        os.makedirs(os.path.dirname(os.path.abspath(args.output)), exist_ok=True)
        write_trace_file(args.output, trace)
    print(f"wrote {args.output}: {trace.events.size} events over {trace.n_files} files")
    return EXIT_OK


def cmd_run(args) -> int:
    _check_output(args.output, directory=True)
    config, _ = load_config(args.config)
    if not config.policies:
        raise ConfigError("run requires at least one [policy:NAME] section")
    # cache_size and batch_size are the values that only the built trace checks
    report = _named("[experiment] ", run_experiment, config)
    etas = {
        pol.spec.name: pol.eta for pol in report.policies if pol.eta is not None
    }
    files = {
        "series.csv": _render_series(report),
        "summary.csv": _render_summary(report),
        "config_echo.ini": _render_echo(config, report.trace_source, etas),
    }
    _commit_files(args.output, files)
    print(f"wrote {', '.join(files)} to {args.output}")
    return EXIT_OK


def cmd_sweep(args) -> int:
    _check_output(args.output, directory=True)
    config, sweep = load_config(args.config)
    rates, rates_from = sweep["rates"] or DEFAULT_RATES, "[sweep] rates: "
    variants = sweep["variants"] or DEFAULT_VARIANTS
    variants_from = "[sweep] variants: "
    cache_sizes = sweep["cache_sizes"]
    sizes_from = "[sweep] cache_sizes: " if cache_sizes else "[experiment] "
    if args.rates is not None:
        rates, rates_from = _cli_list(args.rates, float, "--rates"), "--rates: "
    if args.variants is not None:
        variants = _cli_list(args.variants, str, "--variants")
        variants_from = "--variants: "
    if args.cache_sizes is not None:
        cache_sizes = _cli_list(args.cache_sizes, int, "--cache-sizes")
        sizes_from = "--cache-sizes: "
    _named(rates_from, check_sweep_rates, rates)
    _named(variants_from, check_sweep_variants, variants)
    try:
        sweep_report = run_sweep(config, rates=rates, variants=variants,
                                 cache_sizes=cache_sizes)
    except CacheSizeError as exc:
        raise ConfigError(f"{sizes_from}{exc}") from None
    except InvalidInputError as exc:  # batch_size, which only the built trace checks
        raise ConfigError(f"[experiment] {exc}") from None
    resolved = {
        "rates": rates,
        "variants": variants,
        "cache_sizes": cache_sizes if cache_sizes else (config.cache_size,),
    }
    files = {
        "sweep.csv": _render_sweep(sweep_report),
        "config_echo.ini": _render_echo(config, sweep_report.trace_source,
                                        sweep=resolved),
    }
    _commit_files(args.output, files)
    print(f"wrote {', '.join(files)} to {args.output}")
    return EXIT_OK


def _cli_list(raw, conv, flag):
    try:
        return _split_list(raw, conv)
    except ValueError:
        raise ConfigError(f"cannot parse {flag} value {raw!r}") from None


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="noisycache",
        description="Trace-driven cache simulation with sampled request estimates.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="write a synthetic trace file")
    gen.add_argument("kind", choices=("zipf", "round-robin"))
    gen.add_argument("--files", type=int, required=True, help="catalog size")
    gen.add_argument("--requests", type=int, required=True, help="event count")
    gen.add_argument("--alpha", type=float, default=None,
                     help="zipf exponent (default 1.0)")
    gen.add_argument("--seed", type=int, default=None,
                     help="zipf sampling seed (default 0)")
    gen.add_argument("-o", "--output", required=True, help="trace file path")
    gen.set_defaults(func=cmd_generate)

    run = sub.add_parser("run", help="run the configured policies on one trace")
    run.add_argument("-c", "--config", required=True, help="INI experiment config")
    run.add_argument("-o", "--output", required=True, help="output directory")
    run.set_defaults(func=cmd_run)

    swp = sub.add_parser("sweep", help="sweep sampling rates for both estimators")
    swp.add_argument("-c", "--config", required=True, help="INI experiment config")
    swp.add_argument("-o", "--output", required=True, help="output directory")
    swp.add_argument("--rates", default=None,
                     help="comma-separated rates in (0, 1]")
    swp.add_argument("--variants", default=None,
                     help="comma-separated subset of: fix, var")
    swp.add_argument("--cache-sizes", dest="cache_sizes", default=None,
                     help="comma-separated cache sizes")
    swp.set_defaults(func=cmd_sweep)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else EXIT_OK
    try:
        return args.func(args)
    except (ConfigError, InvalidInputError, TraceParseError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except Exception as exc:
        print(f"runtime failure: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
