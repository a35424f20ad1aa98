"""Command-line interface: trace generation, experiment runs, rate sweeps.

Exit codes: 0 on success, 2 for usage/config/input errors, 1 for
unexpected runtime failures. Every usage error names its source: a flag,
or a config section and key. Output files are rendered fully in memory
and committed atomically (temp file + rename), so a failed invocation
never leaves partial CSVs behind. Run as a program, the process ends with
os._exit once main() has returned and stdout and stderr are flushed,
without the interpreter's teardown; a stdout that cannot take the last
flush exits 1. main(argv) itself returns the exit code, for library and
test use.

The engine, and through it the policies, estimators and metrics, is
imported inside the functions that use it, so `generate` loads only
the trace code.
"""

import argparse
import configparser
import contextlib
import csv
from dataclasses import replace
import io
import os
import sys

from .core import CacheSizeError, InvalidInputError
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


class ConfigError(Exception):
    """A config file problem; the message names the section and key."""


# ---------------------------------------------------------------- config

def _float(value) -> str:
    return repr(float(value))


def _bool(raw: str) -> bool:
    return configparser.ConfigParser.BOOLEAN_STATES[raw.lower()]


def _list(conv):
    """Parser of a comma-separated list of conv values; an empty list is an error."""
    def parse(raw):
        items = [part.strip() for part in raw.split(",") if part.strip()]
        if not items:
            raise ValueError("empty list")
        return tuple(conv(part) for part in items)
    return parse


def _joined(render):
    return lambda values: ", ".join(map(render, values))


# One row per config key: (key, field it fills, parse, render, required).
# A section's rows are parsed and echoed in their order here.
_EXPERIMENT = (
    ("cache_size", "cache_sizes", lambda raw: (int(raw),), _joined(str), True),
    ("batch_size", "batch_size", int, str, True),
    ("runs", "runs", int, str, False),
    ("base_seed", "base_seed", int, str, False),
)
_KIND = ("kind", "kind", str.lower, str, True)
_FILES = ("files", "n_files", int, str, True)
_REQUESTS = ("requests", "total_requests", int, str, True)
_ZIPF = (_FILES, ("alpha", "alpha", float, _float, True), _REQUESTS,
         ("seed", "seed", int, str, False))
_TRACES = {  # [trace] kind: the config it builds and the rows of its other keys
    "zipf": (ZipfConfig, _ZIPF),
    "round-robin": (RoundRobinConfig, (_FILES, _REQUESTS)),
    "file": (TraceFileConfig, (
        ("path", "path", str, os.path.abspath, True),
        ("remap", "remap", _bool, lambda remap: str(remap).lower(), False),
        (*_FILES[:-1], False),  # only remap = false needs files
    )),
}
_POLICY = (
    _KIND,
    ("rate", "rate", float, _float, False),
    ("eta", "eta_override", float, _float, False),
)
_SWEEP = (
    ("rates", "rates", _list(float), _joined(_float), False),
    ("variants", "variants", _list(str), _joined(str), False),
    ("cache_sizes", "cache_sizes", _list(int), _joined(str), False),
)


def _field(section, name, row):
    """The value of row's key in section, or None when it is absent."""
    key, _, parse, _, required = row
    raw = section.get(key)
    if raw is None:
        if required:
            raise ConfigError(f"[{name}] missing required key '{key}'")
        return None
    try:
        return parse(raw)
    except (ValueError, KeyError):
        raise ConfigError(f"[{name}] cannot parse {key} = {raw!r}") from None


def _read(section, name, rows) -> dict:
    """{field: value} of the keys section gives, after rejecting keys no row has."""
    unknown = set(section) - {row[0] for row in rows}
    if unknown:
        raise ConfigError(f"[{name}] unsupported key(s): {', '.join(sorted(unknown))}")
    fields = {row[1]: _field(section, name, row) for row in rows}
    return {field: value for field, value in fields.items() if value is not None}


def _echo(fields, rows) -> dict:
    """The config keys of rows rendered from fields, skipping None values."""
    return {key: render(fields[field])
            for key, field, _, render, _ in rows if fields[field] is not None}


def _named(source, build, *args, **kwargs):
    """build(*args, **kwargs), with an input error reported as from source."""
    try:
        return build(*args, **kwargs)
    except InvalidInputError as exc:
        raise ConfigError(f"{source}{exc}") from None


def _keyed(exc, rows) -> str:
    """exc's message, led by the key of the field it starts with, if rows have it."""
    field = str(exc).split()[0]
    key = next((row[0] for row in rows if row[1] == field), None)
    return str(exc) if key is None else f"{key}: {exc}"


def _read_trace(section):
    kind = _field(section, "trace", _KIND)
    if kind not in _TRACES:
        raise ConfigError(
            f"[trace] unknown kind {kind!r}, expected zipf, round-robin, or file"
        )
    build, rows = _TRACES[kind]
    fields = _read(section, "trace", (_KIND, *rows))
    del fields["kind"]  # it picked build and rows
    try:
        return build(**fields)
    except InvalidInputError as exc:
        raise ConfigError(f"[trace] {_keyed(exc, rows)}") from None


def load_config(path: str):
    """Parse an INI experiment config; returns (ExperimentConfig, sweep dict).

    The sweep dict carries the optional [sweep] section's rates,
    variants, and cache_sizes (None when the section omits them).
    The file is read as UTF-8, and values are literal: there is no
    %-interpolation.
    """
    from .engine import ExperimentConfig, PolicySpec

    parser = configparser.ConfigParser(inline_comment_prefixes=("#",), interpolation=None)
    try:
        with open(path, "rb") as fh:
            data = fh.read()
    except OSError:
        raise ConfigError(f"cannot read config file {path!r}") from None
    try:
        text = data.decode("utf-8")  # whatever the locale's encoding
    except UnicodeDecodeError as exc:
        line = data.count(b"\n", 0, exc.start) + 1
        raise ConfigError(
            f"config file {path!r}, line {line}: "
            f"byte 0x{data[exc.start]:02x} is not valid UTF-8"
        ) from None
    try:
        # newline=None reads \r\n and \r line ends as open() would
        parser.read_file(io.StringIO(text, newline=None), source=os.fspath(path))
    except configparser.Error as exc:  # its text names the file and the line
        raise ConfigError(str(exc)) from None
    if parser.defaults():  # its keys would leak into every section
        keys = ", ".join(sorted(parser.defaults()))
        raise ConfigError(f"unsupported section [DEFAULT] with key(s): {keys}")
    known = {"experiment", "trace", "sweep"}
    for name in parser.sections():
        if name not in known and not name.startswith("policy:"):
            raise ConfigError(f"unknown section [{name}]")
    if "experiment" not in parser:
        raise ConfigError("missing [experiment] section")
    if "trace" not in parser:
        raise ConfigError("missing [trace] section")

    experiment = _read(parser["experiment"], "experiment", _EXPERIMENT)
    trace = _read_trace(parser["trace"])
    sections = [name for name in parser.sections() if name.startswith("policy:")]
    policies = tuple(
        _named(f"[{name}] ", PolicySpec, name=name[len("policy:"):].strip(),
               **_read(parser[name], name, _POLICY))
        for name in sections
    )
    sweep = {field: None for _, field, *_ in _SWEEP}
    if "sweep" in parser:
        sweep.update(_read(parser["sweep"], "sweep", _SWEEP))
    config = _named("[experiment] ", ExperimentConfig, trace=trace, **experiment)
    # [policy:a] and [policy: a] name one policy: a repeat is theirs to report
    names = [spec.name for spec in policies]
    where = ", ".join(f"[{section}]" for section, name in zip(sections, names)
                      if names.count(name) > 1)
    config = _named(f"{where or '[experiment]'} ", replace, config, policies=policies)
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
    # a generator: the csv writer takes one row at a time, so the T x P
    # rows are never all held at once
    rows = (
        (t, pol.spec.name, *map(repr, band))
        for pol in report.policies
        for t, band in enumerate(
            zip(pol.mean.tolist(), pol.d1.tolist(), pol.d9.tolist()), 1
        )
    )
    return _render_csv(("t", "policy", "mean", "d1", "d9"), rows)


def _render_summary(report) -> str:
    rows = [
        (pol.spec.name, _fmt(pol.final_mean), _fmt(pol.final_d1), _fmt(pol.final_d9),
         _fmt(pol.cum_cost), _fmt(report.opt_cost), _fmt(pol.regret),
         _fmt(pol.bound))
        for pol in report.policies
    ]
    header = (
        "policy", "final_mean", "final_d1", "final_d9",
        "cum_cost", "opt_cost", "regret", "bound",
    )
    return _render_csv(header, rows)


def _render_sweep(reports) -> str:
    rows = [
        (pol.spec.kind.removeprefix("nfpl-"), _fmt(pol.spec.rate), report.cache_size,
         _fmt(pol.final_mean), _fmt(pol.final_d1), _fmt(pol.final_d9))
        for report in reports
        for pol in report.policies
    ]
    header = ("variant", "rate", "cache_size", "final_mean", "final_d1", "final_d9")
    return _render_csv(header, rows)


def _render_echo(config, trace_source, policy_etas=None, sweep=None) -> str:
    """Fully resolved config: rerunning it reproduces the same outputs.

    A policy echoes the eta that policy_etas gives it, else its configured eta.
    """
    out = configparser.ConfigParser(interpolation=None)
    out["experiment"] = _echo(vars(config), _EXPERIMENT)
    kind, rows = next((kind, rows) for kind, (build, rows) in _TRACES.items()
                      if isinstance(trace_source, build))
    out["trace"] = _echo({**vars(trace_source), "kind": kind}, (_KIND, *rows))
    etas = policy_etas or {}
    for spec in config.policies:
        out[f"policy:{spec.name}"] = _echo(
            {**vars(spec), "eta_override": etas.get(spec.name, spec.eta_override)},
            _POLICY,
        )
    if sweep is not None:
        out["sweep"] = _echo(sweep, _SWEEP)
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
        raise ConfigError(f"--{_keyed(exc, _ZIPF)}") from None
    with _output_to(args.output):
        os.makedirs(os.path.dirname(os.path.abspath(args.output)), exist_ok=True)
        write_trace_file(args.output, trace)
    print(f"wrote {args.output}: {trace.events.size} events over {trace.n_files} files")
    return EXIT_OK


def cmd_run(args) -> int:
    from .engine import PolicyError, run_experiment

    _check_output(args.output, directory=True)
    config, _ = load_config(args.config)
    if not config.policies:
        raise ConfigError("run requires at least one [policy:NAME] section")
    try:
        (report,) = run_experiment(config)
    except PolicyError as exc:  # the policy's rate or eta, set in its section
        raise ConfigError(f"[policy:{exc.policy}] {exc}") from None
    except InvalidInputError as exc:  # cache_size and batch_size: the trace checks them
        raise ConfigError(f"[experiment] {exc}") from None
    etas = {pol.spec.name: pol.eta for pol in report.policies if pol.eta is not None}
    files = {
        "series.csv": _render_series(report),
        "summary.csv": _render_summary(report),
        "config_echo.ini": _render_echo(config, report.trace_source, etas),
    }
    _commit_files(args.output, files)
    print(f"wrote {', '.join(files)} to {args.output}")
    return EXIT_OK


def cmd_sweep(args) -> int:
    from .engine import (
        SWEEP_VARIANTS, PolicyError, check_sweep_rates, check_sweep_variants, run_sweep,
    )

    _check_output(args.output, directory=True)
    config, sweep = load_config(args.config)
    source = {}  # field: the prefix that names where its value came from
    for key, field, parse, _, _ in _SWEEP:
        source[field] = f"[sweep] {key}: "
        raw = getattr(args, field)
        if raw is not None:
            flag = "--" + key.replace("_", "-")
            try:
                sweep[field] = parse(raw)
            except ValueError:
                raise ConfigError(f"cannot parse {flag} value {raw!r}") from None
            source[field] = f"{flag}: "
    sweep["rates"] = sweep["rates"] or DEFAULT_RATES
    sweep["variants"] = sweep["variants"] or SWEEP_VARIANTS
    if not sweep["cache_sizes"]:
        sweep["cache_sizes"] = config.cache_sizes
        source["cache_sizes"] = "[experiment] "
    _named(source["rates"], check_sweep_rates, sweep["rates"])
    _named(source["variants"], check_sweep_variants, sweep["variants"])
    try:
        sized = replace(config, cache_sizes=sweep["cache_sizes"])
        reports = run_sweep(sized, sweep["rates"], sweep["variants"])
    except CacheSizeError as exc:
        raise ConfigError(f"{source['cache_sizes']}{exc}") from None
    except PolicyError as exc:  # a cell's rate: every cell's eta is pinned
        raise ConfigError(f"{source['rates']}{exc}") from None
    except InvalidInputError as exc:  # batch_size, which only the built trace checks
        raise ConfigError(f"[experiment] {exc}") from None
    files = {
        "sweep.csv": _render_sweep(reports),
        "config_echo.ini": _render_echo(config, reports[0].trace_source, sweep=sweep),
    }
    _commit_files(args.output, files)
    print(f"wrote {', '.join(files)} to {args.output}")
    return EXIT_OK


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
        return _runtime_failure(exc)


def _runtime_failure(exc) -> int:
    print(f"runtime failure: {type(exc).__name__}: {exc}", file=sys.stderr)
    return EXIT_RUNTIME


def _main_and_exit():
    """main() on sys.argv, then os._exit once stdout and stderr are flushed.

    main() returns only after every output is committed, so the teardown
    this skips (about 30 ms) would only free what the OS reclaims anyway.
    An exception escaping main() ends the process the normal way.
    """
    code = main()
    try:
        if sys.stdout is not None:  # None when the process started with fd 1 closed
            sys.stdout.flush()
    except OSError as exc:
        code = _runtime_failure(exc)
    with contextlib.suppress(OSError):
        if sys.stderr is not None:
            sys.stderr.flush()
    os._exit(code)


if __name__ == "__main__":
    _main_and_exit()
