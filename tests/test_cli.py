"""End-to-end tests for the command-line interface."""

import codecs
import configparser
import csv
import errno
import hashlib
import math
import os
import pathlib
import re
import resource
import signal
import subprocess
import sys
import textwrap

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from helpers import assert_reaped, record_forks

import noisycache
from noisycache import cli, engine, policies, read_trace_file
from noisycache.engine import POLICY_KINDS, ExperimentConfig, PolicySpec
from noisycache.traces import RoundRobinConfig, TraceFileConfig, ZipfConfig


def invoke(argv):
    return cli.main([str(a) for a in argv])


def package_env():
    """The environment of a fresh Python process that imports this noisycache."""
    package_root = os.path.dirname(os.path.dirname(noisycache.__file__))
    path = os.pathsep.join(filter(None, [package_root, os.environ.get("PYTHONPATH")]))
    return dict(os.environ, PYTHONPATH=path)


def write_config(tmp_path, body, name="exp.ini"):
    path = tmp_path / name
    path.write_text(textwrap.dedent(body), encoding="utf-8")
    return path


RUN_CONFIG = """\
    [experiment]
    cache_size = 8
    batch_size = 20
    runs = 3
    base_seed = 99

    [trace]
    kind = zipf
    files = 40
    alpha = 1.0
    requests = 2000
    seed = 21

    [policy:opt]
    kind = opt

    [policy:ftl]
    kind = ftl

    [policy:var]
    kind = nfpl-var
    rate = 0.5
"""

SWEEP_CONFIG = """\
    [experiment]
    cache_size = 8
    batch_size = 20
    runs = 2
    base_seed = 99

    [trace]
    kind = zipf
    files = 40
    alpha = 1.0
    requests = 2000
    seed = 21
"""


def read_rows(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


class TestGenerate:
    def test_round_robin_content(self, tmp_path, capsys):
        out = tmp_path / "rr.txt"
        assert invoke(["generate", "round-robin", "--files", 5,
                       "--requests", 12, "-o", out]) == 0
        lines = out.read_text().splitlines()
        assert lines == [str(i % 5 + 1) for i in range(12)]
        assert "12 events" in capsys.readouterr().out

    def test_zipf_is_seed_deterministic(self, tmp_path):
        a, b, c = (tmp_path / n for n in ("a.txt", "b.txt", "c.txt"))
        for out, seed in ((a, 3), (b, 3), (c, 4)):
            assert invoke(["generate", "zipf", "--files", 10, "--requests", 200,
                           "--seed", seed, "-o", out]) == 0
        assert a.read_bytes() == b.read_bytes()
        assert a.read_bytes() != c.read_bytes()
        trace = read_trace_file(str(a))
        assert trace.events.size == 200

    def test_creates_nested_output_directories(self, tmp_path):
        out = tmp_path / "deep" / "er" / "rr.txt"
        assert invoke(["generate", "round-robin", "--files", 3,
                       "--requests", 6, "-o", out]) == 0
        assert out.exists()

    def test_missing_required_flag_is_usage_error(self, tmp_path, capsys):
        code = invoke(["generate", "zipf", "--requests", 10,
                       "-o", tmp_path / "t.txt"])
        capsys.readouterr()
        assert code == 2

    def test_round_robin_rejects_zipf_flags(self, tmp_path, capsys):
        code = invoke(["generate", "round-robin", "--files", 3, "--requests", 6,
                       "--alpha", 1.0, "-o", tmp_path / "t.txt"])
        assert code == 2
        assert "round-robin" in capsys.readouterr().err

    @pytest.mark.parametrize("kind,flag,value,where", [
        ("zipf", "--files", 0, "--files: n_files must be >= 1"),
        ("zipf", "--requests", 0, "--requests: total_requests must be >= 1"),
        ("zipf", "--seed", -3, "--seed: seed must be >= 0, got -3"),
        ("zipf", "--alpha", "nan", "--alpha: alpha must be finite and >= 0, got nan"),
        ("round-robin", "--files", 0, "--files: n_files must be >= 1"),
        ("round-robin", "--requests", 0, "--requests: total_requests must be >= 1"),
        # an int64 array holds at most sys.maxsize // 8 events
        ("zipf", "--requests", 10**20, "--requests: total_requests must be <= "
         f"{sys.maxsize // 8}, got {10**20}"),
        ("round-robin", "--requests", sys.maxsize, "--requests: total_requests must be "
         f"<= {sys.maxsize // 8}, got {sys.maxsize}"),
    ], ids=["zipf-files", "zipf-requests", "zipf-seed", "zipf-alpha",
            "round-robin-files", "round-robin-requests", "zipf-requests-beyond-numpy",
            "round-robin-requests-beyond-numpy"])
    def test_bad_values_name_their_flag(self, tmp_path, capsys, kind, flag, value,
                                        where):
        argv = {"--files": 5, "--requests": 10, flag: value}
        out = tmp_path / "t.txt"
        code = invoke(["generate", kind, *(x for kv in argv.items() for x in kv),
                       "-o", out])
        assert code == 2
        assert where in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("kind", ["zipf", "round-robin"])
    def test_the_most_requests_fail_for_want_of_memory(self, tmp_path, capsys, kind):
        # sys.maxsize // 8 events pass the check, but 8 EiB cannot be allocated
        out = tmp_path / "t.txt"
        code = invoke(["generate", kind, "--files", 5, "--requests", sys.maxsize // 8,
                       "-o", out])
        assert code == 1
        assert "runtime failure: MemoryError" in capsys.readouterr().err
        assert not out.exists()


GENERATE = ["generate", "round-robin", "--files", "3", "--requests", "6"]


def _no_work(*args, **kwargs):
    raise AssertionError("the work started before --output was checked")


@pytest.mark.parametrize("argv,path", [
    (["run", "-c", "{config}"], "{file}"),
    (["sweep", "-c", "{config}", "--rates", "0.5"], "{file}"),
    (["run", "-c", "{config}"], "{file}/sub"),
    (GENERATE, "{dir}"),
    (GENERATE, "{file}/x.txt"),
    (["run", "-c", "{config}"], ""),
    (["sweep", "-c", "{config}", "--rates", "0.5"], ""),
    (GENERATE, ""),
    (GENERATE, "{dir}/new/"),
], ids=["run-into-file", "sweep-into-file", "run-under-file", "generate-onto-dir",
        "generate-under-file", "run-empty", "sweep-empty", "generate-empty",
        "generate-slash"])
def test_an_unusable_output_path_is_usage_error(tmp_path, capsys, monkeypatch, argv,
                                                path):
    # the path is checked before any trace is built
    monkeypatch.setattr(cli, "generate_round_robin", _no_work)
    for work in ("run_experiment", "run_sweep"):
        monkeypatch.setattr(engine, work, _no_work)
    names = {
        "config": write_config(tmp_path, RUN_CONFIG),
        "file": tmp_path / "taken",
        "dir": tmp_path / "adir",
    }
    names["file"].write_text("keep\n")
    names["dir"].mkdir()
    before = sorted(p.name for p in tmp_path.rglob("*"))
    output = path.format(**names)
    assert invoke([a.format(**names) for a in argv] + ["-o", output]) == 2
    err = capsys.readouterr().err
    assert f"--output {output or repr('')} cannot be used: " in err
    assert "runtime failure" not in err
    assert sorted(p.name for p in tmp_path.rglob("*")) == before  # no temp file left
    assert names["file"].read_text() == "keep\n"


@pytest.mark.parametrize("argv,owner,work,taken", [
    (["run", "-c", "{config}"], engine, "run_experiment", "file"),
    (GENERATE, cli, "generate_round_robin", "dir"),
], ids=["run", "generate"])
def test_an_output_path_taken_during_the_work_is_usage_error(
    tmp_path, capsys, monkeypatch, argv, owner, work, taken
):
    # the commit still maps a path that turns bad after the early check
    config, out = write_config(tmp_path, RUN_CONFIG), tmp_path / "o"
    real = getattr(owner, work)

    def racing(*args):
        if taken == "file":
            out.write_text("keep\n")
        else:
            out.mkdir()
        return real(*args)

    monkeypatch.setattr(owner, work, racing)
    assert invoke([a.format(config=config) for a in argv] + ["-o", out]) == 2
    assert f"--output {out} cannot be used: " in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["exp.ini", "o"]


SIMULATOR = {"noisycache.engine", "noisycache.policies", "noisycache.estimators",
             "noisycache.metrics"}


def test_generate_and_a_bare_import_load_no_simulator_code(tmp_path):
    generate = subprocess.run(
        [sys.executable, "-X", "importtime", "-m", "noisycache.cli", "generate", "zipf",
         "--files", "50", "--requests", "200", "-o", str(tmp_path / "t.txt")],
        capture_output=True, text=True, timeout=60, env=package_env(),
    )
    assert generate.returncode == 0, generate.stderr
    # each "import time: self | cumulative | name" line is one first import
    imported = {line.rpartition("|")[2].strip() for line in generate.stderr.splitlines()
                if line.startswith("import time:")}
    assert "noisycache.traces" in imported
    assert not imported & SIMULATOR
    bare = subprocess.run(
        [sys.executable, "-c", "import sys, noisycache; print(*sys.modules)"],
        capture_output=True, text=True, timeout=60, env=package_env(),
    )
    assert bare.returncode == 0, bare.stderr
    assert "noisycache.core" in bare.stdout.split()
    assert not set(bare.stdout.split()) & SIMULATOR


def launch(argv, script=False, unbuffered=False, **kwargs):
    """Run the CLI in a fresh process: `python -m noisycache.cli ARGV`, or,
    with script, the call the installed `noisycache` script makes.

    stdout is block-buffered on a pipe unless unbuffered is set, which is
    where a missing final flush shows.
    """
    env = package_env()
    env.pop("PYTHONUNBUFFERED", None)
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    head = ["-m", "noisycache.cli"]
    if script:
        pyproject = pathlib.Path(__file__).parents[1] / "pyproject.toml"
        entry = re.search(r'^noisycache = "(.+):(.+)"$', pyproject.read_text(), re.M)
        module, function = entry.groups()
        head = ["-c", f"import sys; from {module} import {function}; sys.exit({function}())"]
    kwargs.setdefault("stdout", subprocess.PIPE)
    return subprocess.run([sys.executable, *head, *map(str, argv)], env=env,
                          stderr=subprocess.PIPE, text=True, timeout=60, **kwargs)


@pytest.mark.parametrize("script", [False, True], ids=["module", "script"])
def test_a_process_prints_its_last_line_before_it_ends(tmp_path, script):
    out = tmp_path / "t.txt"
    done = launch([*GENERATE, "-o", out], script=script)
    assert (done.returncode, done.stderr) == (0, "")
    assert done.stdout == f"wrote {out}: 6 events over 3 files\n"
    assert out.read_text() == "1\n2\n3\n1\n2\n3\n"


def test_a_process_usage_error_exits_2(tmp_path):
    out = tmp_path / "t.txt"
    done = launch([*GENERATE, "-o", out, "--seed", 1])
    assert done.returncode == 2
    assert done.stderr == "error: --alpha and --seed do not apply to round-robin\n"
    assert not out.exists()


@pytest.mark.parametrize("command, unbuffered", [
    ("generate", False), ("generate", True), ("help", False), ("help", True),
], ids=["buffered", "unbuffered", "help-buffered", "help-unbuffered"])
def test_a_closed_stdout_is_one_runtime_failure(tmp_path, command, unbuffered):
    # argparse's own print swallows the error of its write: unbuffered,
    # --help would exit 0 and say nothing
    out = tmp_path / "t.txt"
    read, write = os.pipe()
    os.close(read)
    argv = ["--help"] if command == "help" else [*GENERATE, "-o", out]
    try:
        done = launch(argv, unbuffered=unbuffered, stdout=write)
    finally:
        os.close(write)
    assert done.returncode == 1
    assert re.fullmatch(r"runtime failure: BrokenPipeError: [^\n]*\n", done.stderr)
    if command == "generate":
        assert out.read_text() == "1\n2\n3\n1\n2\n3\n"  # committed before the print


def test_a_write_that_fails_partway_leaves_no_temp(tmp_path):
    # a file may grow to 4 kB only: series.csv, the first file written,
    # fails partway, and SIGXFSZ is ignored, so its write reports EFBIG
    def small_files():
        resource.setrlimit(resource.RLIMIT_FSIZE, (4096, 4096))
        signal.signal(signal.SIGXFSZ, signal.SIG_IGN)

    config, out = write_config(tmp_path, RUN_CONFIG), tmp_path / "out"
    done = launch(["run", "-c", config, "-o", out], preexec_fn=small_files)
    assert done.returncode == 1
    assert re.fullmatch(r"runtime failure: OSError: \[Errno 27\] [^\n]*\n", done.stderr)
    assert os.listdir(out) == []


def test_a_commit_replaces_no_file_but_its_targets(tmp_path):
    # each temp is this process's own, created exclusively
    config, out = write_config(tmp_path, RUN_CONFIG), tmp_path / "out"
    out.mkdir()
    others = [tmp_path / "t.txt.tmp", out / ".summary.csv.tmp"]
    for other in others:
        other.write_bytes(b"keep\n")
    assert invoke([*GENERATE, "-o", tmp_path / "t.txt"]) == 0
    assert invoke(["run", "-c", config, "-o", out]) == 0
    for other in others:
        assert other.read_bytes() == b"keep\n"
    assert sorted(os.listdir(tmp_path)) == ["exp.ini", "out", "t.txt", "t.txt.tmp"]
    assert sorted(os.listdir(out)) == [
        ".summary.csv.tmp", "config_echo.ini", "series.csv", "summary.csv"]


def test_a_temp_of_this_process_already_there_is_usage_error(tmp_path, capsys):
    config, out = write_config(tmp_path, RUN_CONFIG), tmp_path / "out"
    out.mkdir()
    taken = out / f".summary.csv.{os.getpid()}.tmp"
    taken.write_bytes(b"keep\n")
    assert invoke(["run", "-c", config, "-o", out]) == 2
    err = capsys.readouterr().err
    assert err == f"error: --output {out} cannot be used: File exists: {taken}\n"
    assert taken.read_bytes() == b"keep\n"
    assert os.listdir(out) == [taken.name]


def test_a_process_run_writes_the_bytes_of_an_in_process_run(tmp_path, run_dir):
    config = write_config(tmp_path, RUN_CONFIG)
    out = tmp_path / "out"
    done = launch(["run", "-c", config, "-o", out])
    assert done.returncode == 0, done.stderr
    for name in ("series.csv", "summary.csv", "config_echo.ini"):
        assert (out / name).read_bytes() == (run_dir / name).read_bytes()


def test_main_returns_its_code_and_leaves_the_process_running(tmp_path, monkeypatch,
                                                             capsys):
    def hard_exit(code):
        raise AssertionError(f"os._exit({code}) called")

    monkeypatch.setattr(os, "_exit", hard_exit)
    code = invoke([*GENERATE, "-o", tmp_path / "t.txt"])
    assert type(code) is int and code == 0
    assert capsys.readouterr().out.startswith("wrote ")


def test_a_full_disk_stays_a_runtime_failure(tmp_path, capsys, monkeypatch):
    def full(*args):
        raise OSError(errno.ENOSPC, "No space left on device")

    monkeypatch.setattr(cli, "write_trace_file", full)
    code = invoke(["generate", "round-robin", "--files", 3, "--requests", 6,
                   "-o", tmp_path / "t.txt"])
    assert code == 1
    assert "runtime failure: OSError" in capsys.readouterr().err


@pytest.mark.parametrize("code, kind", [(errno.ENOMEM, "MemoryError"),
                                         (errno.EINVAL, "OSError")],
                         ids=["no-memory", "other-error"])
def test_an_unmappable_result_names_runs_and_its_size(tmp_path, capsys, monkeypatch,
                                                      code, kind):
    # the cap lets runs up to R x (T = 100 costs + N = 40 totals) 8-byte cells
    # through; past it, only the host's memory can refuse the mapping
    runs = sys.maxsize // (8 * 140)

    def refuse(*args):
        raise OSError(code, os.strerror(code))

    monkeypatch.setattr(policies.mmap, "mmap", refuse)
    config = write_config(tmp_path, RUN_CONFIG.replace("runs = 3", f"runs = {runs}"))
    assert cli.main(["run", "-c", str(config), "-o", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith(f"runtime failure: {kind}: ")
    if kind == "MemoryError":
        assert err[0].endswith(f": runs = {runs} needs a result of {8 * 140 * runs} "
                               "bytes, more than this host can map")


@pytest.fixture(scope="module")
def run_dir(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("run")
    config = write_config(tmp, RUN_CONFIG)
    out = tmp / "out"
    assert cli.main(["run", "-c", str(config), "-o", str(out)]) == 0
    return out


class TestRun:
    def test_writes_all_outputs(self, run_dir):
        for name in ("series.csv", "summary.csv", "config_echo.ini"):
            assert (run_dir / name).exists()

    def test_series_has_one_row_per_policy_and_slot(self, run_dir):
        rows = read_rows(run_dir / "series.csv")
        assert len(rows) == 3 * 100
        assert {r["policy"] for r in rows} == {"opt", "ftl", "var"}
        assert [int(r["t"]) for r in rows if r["policy"] == "opt"] == list(
            range(1, 101)
        )

    def test_summary_opt_row_is_exact(self, run_dir):
        rows = {r["policy"]: r for r in read_rows(run_dir / "summary.csv")}
        opt = rows["opt"]
        assert opt["regret"] == "0.0"
        assert float(opt["final_mean"]) == float(opt["cum_cost"]) / 2000.0
        assert float(opt["cum_cost"]) == float(opt["opt_cost"])
        assert float(rows["var"]["regret"]) <= float(rows["var"]["bound"])

    def test_files_use_unix_newlines(self, run_dir):
        raw = (run_dir / "series.csv").read_bytes()
        assert b"\r" not in raw
        assert raw.endswith(b"\n")

    def test_rerun_is_byte_identical(self, run_dir, tmp_path):
        config = write_config(tmp_path, RUN_CONFIG)
        out = tmp_path / "again"
        assert cli.main(["run", "-c", str(config), "-o", str(out)]) == 0
        for name in ("series.csv", "summary.csv", "config_echo.ini"):
            assert (out / name).read_bytes() == (run_dir / name).read_bytes()

    def test_config_echo_closes_the_loop(self, run_dir, tmp_path):
        # rerunning from the resolved echo reproduces every output
        out = tmp_path / "echoed"
        code = cli.main(
            ["run", "-c", str(run_dir / "config_echo.ini"), "-o", str(out)]
        )
        assert code == 0
        for name in ("series.csv", "summary.csv", "config_echo.ini"):
            assert (out / name).read_bytes() == (run_dir / name).read_bytes()

    def test_echo_pins_each_eta_bit_for_bit(self, tmp_path):
        # eta = sqrt(cost_bound * l1_bound * T / D) with N=40, C=7 (D=14),
        # B=30 and T=66; literals as the formula's float operations give them
        config = write_config(tmp_path, """\
            [experiment]
            cache_size = 7
            batch_size = 30
            base_seed = 99

            [trace]
            kind = zipf
            files = 40
            alpha = 1.0
            requests = 2000
            seed = 21

            [policy:fpl]
            kind = fpl

            [policy:fix]
            kind = nfpl-fix
            rate = 0.3

            [policy:var]
            kind = nfpl-var
            rate = 0.3
            """)
        out = tmp_path / "out"
        assert cli.main(["run", "-c", str(config), "-o", str(out)]) == 0
        echo = configparser.ConfigParser()
        echo.read(out / "config_echo.ini")
        etas = {name: echo[f"policy:{name}"]["eta"] for name in ("fpl", "fix", "var")}
        assert etas == {
            "fpl": "65.13721780101713",
            "fix": "65.13721780101713",
            "var": "217.12405933672378",
        }

    def test_echo_names_no_tiebreak(self, run_dir):
        echo = configparser.ConfigParser()
        echo.read(run_dir / "config_echo.ini")
        for name in ("policy:opt", "policy:ftl", "policy:var"):
            assert "tiebreak" not in echo[name]

    def test_file_trace_config(self, tmp_path):
        trace_path = tmp_path / "rr.txt"
        assert invoke(["generate", "round-robin", "--files", 30,
                       "--requests", 600, "-o", trace_path]) == 0
        config = write_config(
            tmp_path,
            f"""\
            [experiment]
            cache_size = 5
            batch_size = 30

            [trace]
            kind = file
            path = {trace_path}

            [policy:ftl]
            kind = ftl
            """,
        )
        out = tmp_path / "out"
        assert cli.main(["run", "-c", str(config), "-o", str(out)]) == 0
        rows = read_rows(out / "summary.csv")
        assert rows[0]["policy"] == "ftl"

    def test_file_trace_echo_text(self, tmp_path, monkeypatch):
        # the echo names the trace by its absolute path
        monkeypatch.chdir(tmp_path)
        (tmp_path / "t.txt").write_text("".join(f"{i % 12 + 1}\n" for i in range(48)))
        body = """\
            [experiment]
            cache_size = 3
            batch_size = 4

            [trace]
            kind = file
            path = t.txt
            remap = false
            files = 12

            [policy:ftl]
            kind = ftl
            """
        write_config(tmp_path, body)
        assert cli.main(["run", "-c", "exp.ini", "-o", "out"]) == 0
        expected = textwrap.dedent(f"""\
            [experiment]
            cache_size = 3
            batch_size = 4
            runs = 1
            base_seed = 0

            [trace]
            kind = file
            path = {os.path.abspath("t.txt")}
            remap = false
            files = 12

            [policy:ftl]
            kind = ftl

            """)
        assert (tmp_path / "out" / "config_echo.ini").read_text() == expected

    def test_a_percent_in_the_trace_path_is_literal(self, tmp_path):
        # config values are not interpolated, on reading or in the echo
        trace_path = tmp_path / "tr%41%%.txt"
        trace_path.write_text("".join(f"{i % 30 + 1}\n" for i in range(600)))
        config = write_config(
            tmp_path,
            "[experiment]\ncache_size = 5\nbatch_size = 30\n"
            f"[trace]\nkind = file\npath = {trace_path}\n"
            "[policy:ftl]\nkind = ftl\n[policy:fpl]\nkind = fpl\n",
        )
        out, again = tmp_path / "out", tmp_path / "again"
        assert cli.main(["run", "-c", str(config), "-o", str(out)]) == 0
        echo = out / "config_echo.ini"
        assert f"path = {trace_path}\n" in echo.read_text()
        assert cli.main(["run", "-c", str(echo), "-o", str(again)]) == 0
        for name in ("series.csv", "summary.csv", "config_echo.ini"):
            assert (again / name).read_bytes() == (out / name).read_bytes()

    @pytest.mark.skipif(not os.path.exists("/dev/stdin"), reason="no /dev/stdin")
    def test_trace_file_on_a_pipe_is_read_once(self, tmp_path):
        # a pipe cannot be read twice: a header line must not send the
        # reader back to the start of the file
        config = write_config(tmp_path, """\
            [experiment]
            cache_size = 1
            batch_size = 1

            [trace]
            kind = file
            path = /dev/stdin

            [policy:opt]
            kind = opt
            """)
        out = tmp_path / "out"
        done = subprocess.run(
            [sys.executable, "-m", "noisycache.cli",
             "run", "-c", str(config), "-o", str(out)],
            input="# header\n3\n1\n2\n", capture_output=True, text=True,
            timeout=60, env=package_env(),
        )
        assert done.returncode == 0, done.stderr
        assert [r["t"] for r in read_rows(out / "series.csv")] == ["1", "2", "3"]

    @pytest.mark.parametrize("extra,key", [
        ("remap = true\nfiles = 3", "n_files"),
        ("alpha = 1.0", "alpha"),
        ("seed = 4", "seed"),
        ("requests = 10", "requests"),
    ])
    def test_file_trace_rejects_keys_of_other_kinds(self, tmp_path, capsys, extra, key):
        trace_path = tmp_path / "t.txt"
        trace_path.write_text("1\n2\n3\n4\n5\n")
        config = write_config(
            tmp_path,
            "[experiment]\ncache_size = 2\nbatch_size = 1\n"
            f"[trace]\nkind = file\npath = {trace_path}\n{extra}\n"
            "[policy:ftl]\nkind = ftl\n",
        )
        out = tmp_path / "o"
        assert cli.main(["run", "-c", str(config), "-o", str(out)]) == 2
        err = capsys.readouterr().err
        assert "[trace]" in err and key in err
        assert not out.exists()

    @pytest.mark.parametrize("trace", [
        "kind = zipf\nalpha = 1.0\nrequests = 10",
        "kind = round-robin\nrequests = 10",
        "kind = file\npath = t.txt\nremap = false",
    ], ids=["zipf", "round-robin", "file"])
    def test_a_catalog_beyond_int32_is_refused_before_a_trace_is_built(
        self, tmp_path, capsys, monkeypatch, trace
    ):
        # a slotted trace holds file indices as int32; an N-length array
        # at N = 2**31 would take 16 GB, so nothing may be built first
        def build(*args):
            raise AssertionError("a trace was built")

        for name in ("generate_zipf", "generate_round_robin", "read_trace_file"):
            monkeypatch.setattr(engine, name, build)
        config = write_config(
            tmp_path,
            "[experiment]\ncache_size = 1\nbatch_size = 1\n"
            f"[trace]\n{trace}\nfiles = 2147483648\n[policy:opt]\nkind = opt\n",
        )
        out = tmp_path / "o"
        assert cli.main(["run", "-c", str(config), "-o", str(out)]) == 2
        where = "[trace] files: n_files must be <= 2147483647, got 2147483648"
        assert where in capsys.readouterr().err
        assert not out.exists()
        monkeypatch.setattr(cli, "generate_zipf", build)
        code = invoke(["generate", "zipf", "--files", 2**31, "--requests", 10,
                       "-o", tmp_path / "t.txt"])
        assert code == 2
        assert "--files: n_files must be <= 2147483647" in capsys.readouterr().err

    @pytest.mark.parametrize("content,where", [
        (b"1\n2\n\xff\n", "t.txt:3: not valid UTF-8"),
        (b"1\n99999999999999999999\n", "t.txt:2: file id 99999999999999999999"),
        (None, "t.txt: cannot read trace file"),
    ], ids=["non-utf8", "int64-overflow", "directory"])
    def test_bad_trace_file_is_usage_error(self, tmp_path, capsys, content, where):
        trace_path = tmp_path / "t.txt"
        if content is None:
            trace_path.mkdir()
        else:
            trace_path.write_bytes(content)
        config = write_config(
            tmp_path,
            "[experiment]\ncache_size = 1\nbatch_size = 1\n"
            f"[trace]\nkind = file\npath = {trace_path}\n"
            "[policy:ftl]\nkind = ftl\n",
        )
        out = tmp_path / "o"
        assert cli.main(["run", "-c", str(config), "-o", str(out)]) == 2
        assert where in capsys.readouterr().err
        assert not out.exists()

    def test_missing_config_file(self, tmp_path, capsys):
        code = cli.main(
            ["run", "-c", str(tmp_path / "ghost.ini"), "-o", str(tmp_path / "o")]
        )
        assert code == 2
        assert "ghost.ini" in capsys.readouterr().err

    def test_unknown_config_key(self, tmp_path, capsys):
        config = write_config(
            tmp_path, RUN_CONFIG + "\n[policy:bad]\nkind = fpl\nwarp = 9\n"
        )
        assert cli.main(["run", "-c", str(config), "-o", str(tmp_path / "o")]) == 2
        assert "warp" in capsys.readouterr().err

    SWEEP_SIZES = "[sweep]\n    cache_sizes = 10, 50\n    [policy:opt]"

    @pytest.mark.parametrize("argv,old,new,where", [
        (["run"], "[policy:var]",
         "[policy:wild]\nkind = fpl\neta = nan\n[policy:var]", "[policy:wild]"),
        (["run"], "[policy:var]",
         "[policy:wild]\nkind = fpl\neta = inf\n[policy:var]", "[policy:wild]"),
        (["run"], "alpha = 1.0", "alpha = nan", "[trace]"),
        (["run"], "alpha = 1.0", "alpha = inf", "[trace]"),
        (["run"], "seed = 21", "seed = -1", "[trace]"),
        (["run"], "requests = 2000", f"requests = {10**20}",
         f"[trace] requests: total_requests must be <= {sys.maxsize // 8}, "
         f"got {10**20}"),
        (["run"], "base_seed = 99", "base_seed = -1", "[experiment]"),
        # R x (T = 100 costs + N = 40 totals) 8-byte cells per leader, of which
        # run has one and sweep 7 distinct cells, would pass the largest mapping
        (["run"], "runs = 3", f"runs = {2**63}", "[experiment] runs must be <= "
         f"{sys.maxsize // (8 * 140)} at this trace, cache sizes and policies, "
         f"got {2**63}"),
        (["run"], "runs = 3", f"runs = {2**60}", "[experiment] runs must be <= "
         f"{sys.maxsize // (8 * 140)} at this trace, cache sizes and policies, "
         f"got {2**60}"),
        (["sweep"], "runs = 3", f"runs = {2**63}", "[experiment] runs must be <= "
         f"{sys.maxsize // (8 * 7 * 140)} at this trace, cache sizes and policies, "
         f"got {2**63}"),
        (["sweep"], "runs = 3", f"runs = {2**60}", "[experiment] runs must be <= "
         f"{sys.maxsize // (8 * 7 * 140)} at this trace, cache sizes and policies, "
         f"got {2**60}"),
        (["run"], "kind = opt", "kind = opt\n    tiebreak = most-recent",
         "[policy:opt]"),
        (["run"], "rate = 0.5", "rate = 0.5\n    tiebreak = lowest-index",
         "[policy:var]"),
        (["run"], "kind = ftl", "kind = ftl\n    tiebreak = most-recent",
         "[policy:ftl] unsupported key(s): tiebreak"),
        (["run"], "[policy:var]",
         "[policy:fix]\nkind = nfpl-fix\nrate = 0.5\nsubsample = 5\n[policy:var]",
         "[policy:fix] unsupported key(s): subsample"),
        (["run"], "seed = 21", "seed = 21\n    path = t.txt",
         "[trace] unsupported key(s): path"),
        (["run"], "seed = 21", "seed = 21\n    remap = false",
         "[trace] unsupported key(s): remap"),
        (["run"], "cache_size = 8", "cache_size = 43",
         "[experiment] cache_size must be in [1, 40], got 43"),
        (["sweep"], "cache_size = 8", "cache_size = 43",
         "[experiment] cache_size must be in [1, 40], got 43"),
        (["sweep", "--cache-sizes", "10,50"], "", "",
         "--cache-sizes: cache_size must be in [1, 40], got 50"),
        (["sweep", "--cache-sizes", "0,5"], "", "",
         "--cache-sizes: cache_size must be in [1, 40], got 0"),
        (["sweep"], "[policy:opt]", SWEEP_SIZES,
         "[sweep] cache_sizes: cache_size must be in [1, 40], got 50"),
        (["run"], "cache_size = 8", "cache_size = 40",
         "[experiment] cache_size 40 holds all 40 files, so policy 'var' has no "
         "perturbation scale; set its eta"),
        (["sweep"], "cache_size = 8", "cache_size = 40",
         "[experiment] cache_size 40 holds all 40 files, so the sweep has no "
         "perturbation scale to pin"),
        (["sweep", "--cache-sizes", "5,40"], "", "",
         "--cache-sizes: cache_size 40 holds all 40 files"),
        (["sweep"], "[policy:opt]", SWEEP_SIZES.replace("10, 50", "5, 40"),
         "[sweep] cache_sizes: cache_size 40 holds all 40 files"),
        (["run"], "batch_size = 20", "batch_size = 5000",
         "[experiment] batch_size must be in [1, 2000], the trace's length, got 5000"),
        (["sweep"], "batch_size = 20", "batch_size = 5000",
         "[experiment] batch_size must be in [1, 2000], the trace's length, got 5000"),
        (["run"], "rate = 0.5", "rate = 1e-300",
         "[policy:var] policy 'var' (nfpl-var, rate 1e-300) has no finite "
         "perturbation scale; raise its rate or set its eta"),
        (["run"], "rate = 0.5", "rate = 1e-300\n    eta = 5",
         "[policy:var] policy 'var' (nfpl-var, rate 1e-300) has no finite "
         "regret bound; raise its rate"),
        (["sweep", "--rates", "1e-300"], "", "",
         "--rates: policy 'nfpl-var-1e-300' (nfpl-var, rate 1e-300) has no "
         "finite regret bound; raise its rate"),
        (["sweep"], "[policy:opt]", "[sweep]\n    rates = 0.5, 1e-300\n    [policy:opt]",
         "[sweep] rates: policy 'nfpl-var-1e-300' (nfpl-var, rate 1e-300) has no "
         "finite regret bound; raise its rate"),
        (["run"], "[policy:var]",
         "[policy:tiny]\nkind = fpl\neta = 1e-310\n[policy:var]",
         "[policy:tiny] policy 'tiny' (fpl) has no finite regret bound; "
         "raise its eta"),
        (["run"], "[policy:var]",
         "[policy:huge]\nkind = fpl\neta = 1e308\n[policy:var]",
         "[policy:huge] policy 'huge' (fpl) has no finite regret bound; "
         "lower its eta"),
        (["run"], "cache_size = 8", "warp = 8",
         "[experiment] unsupported key(s): warp"),
        (["run"], "base_seed = 99\n\n    [trace]\n    kind = zipf",
         "warp = 1\n\n    [trace]\n    kind = bogus",
         "[experiment] unsupported key(s): warp"),
        (["run"], "kind = zipf\n    files = 40", "warp = 1",
         "[trace] missing required key 'kind'"),
        (["run"], "files = 40", "warp = 1", "[trace] unsupported key(s): warp"),
        (["run"], "alpha = 1.0", "alpha = x", "[trace] cannot parse alpha = 'x'"),
        (["run"], "kind = nfpl-var\n    rate = 0.5", "warp = 1",
         "[policy:var] unsupported key(s): warp"),
        (["run"], "kind = nfpl-var\n    rate = 0.5", "rate = x",
         "[policy:var] missing required key 'kind'"),
        (["run"], "kind = zipf", "kind = bogus",
         "[trace] unknown kind 'bogus', expected zipf, round-robin, or file"),
        (["run"], "batch_size = 20", "batch_size = 0",
         "[experiment] batch_size must be >= 1"),
        (["sweep"], "runs = 3", "runs = 0", "[experiment] runs must be >= 1"),
    ], ids=["eta-nan", "eta-inf", "alpha-nan", "alpha-inf", "seed",
            "requests-beyond-numpy", "base-seed", "runs-beyond-int64",
            "runs-result-beyond-mapping", "sweep-runs-beyond-int64",
            "sweep-runs-result-beyond-mapping",
            "tiebreak-opt", "tiebreak-var", "tiebreak-ftl", "fix-subsample",
            "zipf-path", "zipf-remap",
            "cache-above-files", "sweep-cache-above-files",
            "sweep-flag-cache-above-files", "sweep-flag-cache-below-one",
            "sweep-section-cache-above-files", "cache-holds-all-files",
            "sweep-cache-holds-all-files", "sweep-flag-cache-holds-all-files",
            "sweep-section-cache-holds-all-files", "batch-above-trace",
            "sweep-batch-above-trace", "var-rate-overflows-eta",
            "var-rate-overflows-bound", "sweep-var-rate-overflows-bound",
            "sweep-section-rate-overflows-bound", "tiny-eta-overflows-bound",
            "huge-eta-overflows-bound",
            "unknown-before-missing", "experiment-before-trace",
            "trace-kind-before-unknown", "trace-unknown-before-missing",
            "trace-unparsable", "policy-unknown-before-missing",
            "policy-kind-before-unparsable", "trace-unknown-kind", "batch-below-one",
            "sweep-runs-below-one"])
    def test_rejects_bad_values(self, tmp_path, capsys, argv, old, new, where):
        config = write_config(tmp_path, RUN_CONFIG.replace(old, new))
        out = tmp_path / "o"
        command, *flags = argv
        assert cli.main([command, "-c", str(config), "-o", str(out), *flags]) == 2
        assert where in capsys.readouterr().err
        assert not out.exists()

    def test_a_rate_whose_bound_product_overflows_runs(self, tmp_path):
        # (B / rate)^2 * D * T overflows at rate 2e-152, but the tuned eta
        # and the bound at it, eta * D + (B / rate)^2 * T / eta, are finite
        config = write_config(tmp_path, RUN_CONFIG.replace("rate = 0.5", "rate = 2e-152"))
        out = tmp_path / "o"
        assert cli.main(["run", "-c", str(config), "-o", str(out)]) == 0
        var = {r["policy"]: r for r in read_rows(out / "summary.csv")}["var"]
        assert math.isfinite(float(var["bound"]))
        assert float(var["regret"]) <= float(var["bound"])

    def test_each_leaders_bound_is_the_one_at_its_eta(self, tmp_path):
        # a 2, 1, 2, 1, ... trace at C = B = 1: eta = 0 is ftl under the
        # lowest-index tiebreak and misses every request, so no bound
        # exists for it; eta = 1 has eta * D + R * A * T / eta = 2 + 40000
        trace_path = tmp_path / "t.txt"
        trace_path.write_text("2\n1\n" * 20000)
        config = write_config(tmp_path, f"""\
            [experiment]
            cache_size = 1
            batch_size = 1

            [trace]
            kind = file
            path = {trace_path}
            remap = false
            files = 2

            [policy:zero]
            kind = fpl
            eta = 0

            [policy:one]
            kind = fpl
            eta = 1
            """)
        out = tmp_path / "o"
        assert cli.main(["run", "-c", str(config), "-o", str(out)]) == 0
        rows = {r["policy"]: r for r in read_rows(out / "summary.csv")}
        assert (rows["zero"]["regret"], rows["zero"]["bound"]) == ("20000.0", "")
        assert rows["one"]["bound"] == "40002.0"
        assert float(rows["one"]["regret"]) <= 40002.0

    @pytest.mark.parametrize("argv,where", [
        (["run"], "[experiment] cache_size must be in [1, 40], got 43"),
        (["sweep"], "[experiment] cache_size must be in [1, 40], got 43"),
        (["sweep", "--cache-sizes", "40,41"],
         "--cache-sizes: cache_size must be in [1, 40], got 41"),
    ], ids=["run", "sweep", "sweep-flag"])
    def test_cache_size_above_a_read_trace_names_its_source(
        self, tmp_path, capsys, argv, where
    ):
        trace_path = tmp_path / "t.txt"
        trace_path.write_text("".join(f"{i % 40 + 1}\n" for i in range(400)))
        config = write_config(
            tmp_path,
            "[experiment]\ncache_size = 43\nbatch_size = 10\n"
            f"[trace]\nkind = file\npath = {trace_path}\n[policy:ftl]\nkind = ftl\n",
        )
        out = tmp_path / "o"
        command, *flags = argv
        assert cli.main([command, "-c", str(config), "-o", str(out), *flags]) == 2
        assert where in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["run", "sweep"])
    def test_cache_size_below_one_before_a_trace_is_read(self, tmp_path, capsys, command):
        # N is unknown until the file is read, so only the lower bound applies
        config = write_config(
            tmp_path,
            "[experiment]\ncache_size = 0\nbatch_size = 10\n"
            "[trace]\nkind = file\npath = t.txt\n[policy:ftl]\nkind = ftl\n",
        )
        out = tmp_path / "o"
        assert cli.main([command, "-c", str(config), "-o", str(out)]) == 2
        err = capsys.readouterr().err
        assert err == "error: [experiment] cache_size must be >= 1, got 0\n"
        assert not out.exists()

    def test_a_repeated_policy_name_names_its_sections(self, tmp_path, capsys):
        # two sections whose names strip to one policy name
        config = write_config(tmp_path, RUN_CONFIG.replace(
            "[policy:ftl]", "[policy: opt]\n    kind = lru\n\n    [policy:ftl]"
        ))
        out = tmp_path / "o"
        assert cli.main(["run", "-c", str(config), "-o", str(out)]) == 2
        err = capsys.readouterr().err
        assert err == "error: [policy:opt], [policy: opt] duplicate policy names: 'opt'\n"
        assert not out.exists()

    @pytest.mark.parametrize("command", ["run", "sweep"])
    def test_experiment_cache_size_is_one_size(self, tmp_path, capsys, command):
        # a list of sizes belongs to [sweep] cache_sizes or --cache-sizes
        config = write_config(
            tmp_path, RUN_CONFIG.replace("cache_size = 8", "cache_size = 4, 10")
        )
        out = tmp_path / "o"
        assert cli.main([command, "-c", str(config), "-o", str(out)]) == 2
        assert "[experiment] cannot parse cache_size = '4, 10'" in capsys.readouterr().err
        assert not out.exists()

    def test_run_without_policies(self, tmp_path, capsys):
        config = write_config(tmp_path, SWEEP_CONFIG)
        assert cli.main(["run", "-c", str(config), "-o", str(tmp_path / "o")]) == 2
        assert "policy" in capsys.readouterr().err


class TestSweep:
    def test_default_grid(self, tmp_path):
        config = write_config(tmp_path, SWEEP_CONFIG)
        out = tmp_path / "out"
        assert cli.main(["sweep", "-c", str(config), "-o", str(out)]) == 0
        rows = read_rows(out / "sweep.csv")
        assert len(rows) == 8  # 2 variants x 4 default rates
        assert {r["variant"] for r in rows} == {"fix", "var"}
        echo = (out / "config_echo.ini").read_text()
        assert "rates = 0.01, 0.1, 0.5, 1.0" in echo

    def test_explicit_rates_and_cache_sizes(self, tmp_path):
        config = write_config(tmp_path, SWEEP_CONFIG)
        out = tmp_path / "out"
        code = cli.main(
            ["sweep", "-c", str(config), "-o", str(out),
             "--rates", "0.5,1.0", "--cache-sizes", "4,8"]
        )
        assert code == 0
        rows = read_rows(out / "sweep.csv")
        assert len(rows) == 8  # 2 variants x 2 rates x 2 sizes
        assert {r["cache_size"] for r in rows} == {"4", "8"}

    def test_variants_degenerate_together_at_full_rate(self, tmp_path):
        config = write_config(tmp_path, SWEEP_CONFIG)
        out = tmp_path / "out"
        assert cli.main(
            ["sweep", "-c", str(config), "-o", str(out), "--rates", "1.0"]
        ) == 0
        rows = read_rows(out / "sweep.csv")
        fix = next(r for r in rows if r["variant"] == "fix")
        var = next(r for r in rows if r["variant"] == "var")
        assert fix["final_mean"] == var["final_mean"]
        assert fix["final_d1"] == var["final_d1"]
        assert fix["final_d9"] == var["final_d9"]

    @pytest.mark.parametrize("args,section,where", [
        pytest.param(("--rates", "2.0"), "",
                     "--rates: sampling rates must be in (0, 1], got 2.0",
                     id="--rates-2.0"),
        pytest.param(("--rates", "0.0"), "",
                     "--rates: sampling rates must be in (0, 1], got 0.0",
                     id="--rates-0.0"),
        pytest.param(("--rates", ",,"), "", "cannot parse --rates value ',,'",
                     id="--rates-,,"),
        pytest.param(("--variants", "fix,magic"), "",
                     "--variants: unknown variant 'magic'", id="--variants-fix,magic"),
        pytest.param(("--cache-sizes", "0"), "",
                     "--cache-sizes: cache_size must be in [1, 40], got 0",
                     id="--cache-sizes-0"),
        pytest.param(("--rates", "0.5,0.5"), "", "--rates: duplicate rates",
                     id="--rates-0.5,0.5"),
        pytest.param(("--cache-sizes", "5,5"), "",
                     "--cache-sizes: duplicate cache sizes", id="--cache-sizes-5,5"),
        pytest.param(("--variants", "var,var"), "", "--variants: duplicate variants",
                     id="--variants-var,var"),
        pytest.param((), "rates = 0.5, 2",
                     "[sweep] rates: sampling rates must be in (0, 1], got 2.0",
                     id="section-rates"),
        pytest.param((), "rates = 0.5, 0.5", "[sweep] rates: duplicate rates",
                     id="section-duplicate-rates"),
        pytest.param((), "variants = fix, magic",
                     "[sweep] variants: unknown variant 'magic'",
                     id="section-variants"),
        pytest.param((), "variants = var, var", "[sweep] variants: duplicate variants",
                     id="section-duplicate-variants"),
        pytest.param((), "cache_sizes = 5, 5",
                     "[sweep] cache_sizes: duplicate cache sizes",
                     id="section-duplicate-cache-sizes"),
    ])
    def test_rejects_bad_sweep_arguments(self, tmp_path, capsys, args, section, where):
        body = SWEEP_CONFIG + (f"\n    [sweep]\n    {section}\n" if section else "")
        config = write_config(tmp_path, body)
        out = tmp_path / "o"
        code = cli.main(["sweep", "-c", str(config), "-o", str(out), *args])
        assert code == 2
        assert where in capsys.readouterr().err
        assert not out.exists()

    def test_echo_keeps_each_policys_eta(self, tmp_path):
        # a sweep ignores the policies, but its echo still configures them:
        # rerun through sweep and run, it gives the original config's bytes
        body = SWEEP_CONFIG + "\n    [policy:fpl]\n    kind = fpl\n    eta = 5.0\n"
        config = write_config(tmp_path, body)
        echo = tmp_path / "sweep-exp" / "config_echo.ini"
        for command in ("sweep", "run"):
            for source in (config, echo):
                out = tmp_path / f"{command}-{source.stem}"
                assert invoke([command, "-c", source, "-o", out]) == 0
            for original in (tmp_path / f"{command}-exp").iterdir():
                assert (out / original.name).read_bytes() == original.read_bytes()

    def test_flags_override_the_sweep_section(self, tmp_path):
        body = SWEEP_CONFIG + "\n    [sweep]\n    rates = 2\n    variants = magic\n"
        config = write_config(tmp_path, body)
        out = tmp_path / "o"
        code = cli.main(["sweep", "-c", str(config), "-o", str(out),
                         "--rates", "1.0", "--variants", "fix"])
        assert code == 0
        assert len(read_rows(out / "sweep.csv")) == 1


def test_no_arguments_is_usage_error(capsys):
    assert cli.main([]) == 2
    capsys.readouterr()


def test_a_config_is_read_as_utf8(tmp_path, capsys):
    body = textwrap.dedent(RUN_CONFIG).replace("[trace]", "# café\n[trace]")
    config = write_config(tmp_path, body)
    assert cli.load_config(str(config))[0].runs == 3
    config.write_bytes(body.replace("é", "\xff").encode("latin-1"))
    out = tmp_path / "o"
    assert cli.main(["run", "-c", str(config), "-o", str(out)]) == 2
    err = capsys.readouterr().err
    assert f"error: config file {str(config)!r}, line 7: byte 0xff is not valid UTF-8" in err
    assert not out.exists()


def test_a_leading_byte_order_mark_is_skipped(tmp_path, run_dir):
    config = tmp_path / "bom.ini"
    config.write_bytes(codecs.BOM_UTF8 + textwrap.dedent(RUN_CONFIG).encode())
    out = tmp_path / "o"
    assert cli.main(["run", "-c", str(config), "-o", str(out)]) == 0
    for name in ("series.csv", "summary.csv", "config_echo.ini"):
        assert (out / name).read_bytes() == (run_dir / name).read_bytes()


@pytest.mark.parametrize("body,line", [
    (b"\xff[experiment]\n", 1),
    (b"[experiment]\n\xffruns = 3\n", 2),
], ids=["after-the-mark", "after-a-newline"])
def test_a_bad_byte_after_a_byte_order_mark_names_its_line(tmp_path, capsys, body, line):
    config = tmp_path / "bom.ini"
    config.write_bytes(codecs.BOM_UTF8 + body)
    assert cli.main(["run", "-c", str(config), "-o", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert f"config file {str(config)!r}, line {line}: byte 0xff is not valid UTF-8" in err


@pytest.mark.parametrize("old,new,where", [
    ("runs = 3\n", "runs = 3\nruns = 4\n",
     r"exp\.ini.*\[line +5\]: option 'runs' in section 'experiment' already exists"),
    ("kind = opt\n", "kind = opt\n\n[policy:var]\nkind = fpl\n",
     r"exp\.ini.*\[line +\d+\]: section 'policy:var' already exists"),
    ("runs = 3\n", "runs = 3\nwarp\n",
     r"parsing errors: .*exp\.ini'\n\t\[line +5\]: 'warp"),
    ("[experiment]\n", "runs = 3\n[experiment]\n",
     r"no section headers\.\nfile: .*exp\.ini', line: 1"),
    ("rate = 0.5", "rate = %(x)s", re.escape("[policy:var] cannot parse rate = '%(x)s'")),
    ("[experiment]\n", "[DEFAULT]\nruns = 2\n[experiment]\n",
     re.escape("unsupported section [DEFAULT] with key(s): runs")),
    ("[policy:opt]\n", "[opt]\n", re.escape("unknown section [opt]")),
    ("[experiment]\n", "[policy:experiment]\n", re.escape("missing [experiment] section")),
    ("[trace]\n", "[policy:trace]\n", re.escape("missing [trace] section")),
], ids=["duplicate-key", "duplicate-section", "no-equals", "no-section-header",
        "interpolation", "default-section", "unknown-section", "no-experiment",
        "no-trace"])
def test_a_malformed_config_is_usage_error(tmp_path, capsys, old, new, where):
    body = textwrap.dedent(RUN_CONFIG)
    config = write_config(tmp_path, body.replace(old, new, 1))
    out = tmp_path / "o"
    assert cli.main(["run", "-c", str(config), "-o", str(out)]) == 2
    err = capsys.readouterr().err
    assert re.search(where, err, re.S), err
    assert not out.exists()


POLICY_NAMES = st.text("abcxyz019_-", min_size=1, max_size=6)
RATES = st.floats(0, 1, exclude_min=True)
ETAS = st.floats(0, 1e12, exclude_min=True)


@st.composite
def policy_specs(draw):
    kind = draw(st.sampled_from(POLICY_KINDS))
    params = {}
    if kind in ("nfpl-fix", "nfpl-var"):
        params["rate"] = draw(RATES)
    if kind in ("fpl", "nfpl-fix", "nfpl-var"):
        params["eta_override"] = draw(st.none() | ETAS)
    return PolicySpec(name=draw(POLICY_NAMES), kind=kind, **params)


@st.composite
def experiments(draw):
    n = draw(st.integers(1, 10**6))
    path = st.text("abcXYZ019_-.%", max_size=12).map(lambda s: f"/data/t{s}")
    trace = draw(st.one_of(
        st.builds(ZipfConfig, st.just(n), st.floats(0, 5), st.integers(1, 10**9),
                  st.none() | st.integers(0, 2**63)),
        st.builds(RoundRobinConfig, st.just(n), st.integers(1, 10**9)),
        st.builds(TraceFileConfig, path, st.just(True)),
        st.builds(TraceFileConfig, path, st.just(False), st.just(n)),
    ))
    batch_size = draw(st.integers(1, 10**4))
    policies = draw(st.lists(policy_specs(), max_size=6,
                             unique_by=lambda spec: spec.name))
    return ExperimentConfig(
        trace=trace, cache_sizes=(draw(st.integers(1, n)),), batch_size=batch_size,
        policies=tuple(policies), runs=draw(st.integers(1, 1000)),
        base_seed=draw(st.integers(0, 2**63)),
    )


SWEEPS = st.none() | st.fixed_dictionaries({
    "rates": st.none() | st.lists(RATES, min_size=1, max_size=4).map(tuple),
    "variants": st.none() | st.lists(st.sampled_from(["fix", "var"]), min_size=1,
                                     max_size=3).map(tuple),
    "cache_sizes": st.none() | st.lists(st.integers(1, 10**6), min_size=1,
                                        max_size=3).map(tuple),
})


def assert_echo_reloads(path, config, sweep):
    """The echo of (config, sweep), read back, is (config, sweep) again."""
    etas = {p.name: p.eta_override for p in config.policies
            if p.eta_override is not None}
    path.write_text(cli._render_echo(config, config.trace, etas, sweep))
    no_sweep = {"rates": None, "variants": None, "cache_sizes": None}
    assert cli.load_config(str(path)) == (config, sweep or no_sweep)


@settings(deadline=None, max_examples=200,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(experiments(), SWEEPS)
def test_echo_of_any_config_reads_back_equal(tmp_path, config, sweep):
    assert_echo_reloads(tmp_path / "echo.ini", config, sweep)


CONFIGS_DIR = pathlib.Path(__file__).resolve().parent.parent / "configs"


@pytest.mark.parametrize("preset", sorted(p.name for p in CONFIGS_DIR.glob("*.ini")))
def test_echo_of_a_shipped_config_reads_back_equal(tmp_path, preset):
    config, sweep = cli.load_config(str(CONFIGS_DIR / preset))
    assert_echo_reloads(tmp_path / "echo.ini", config, sweep)


def rendered(real, whole):
    """Every renderer's text for one report whose floats are real(x) and ints whole(x)."""
    band = np.array([real(0.1), real(1 / 3)], dtype=object)  # .tolist() keeps them
    var = PolicySpec("var", "nfpl-var", rate=real(0.5), eta_override=real(2.5))
    opt = PolicySpec("opt", "opt")
    pols = [
        engine.PolicyReport(var, real(2.5), band, band, band, real(12.0), real(9.0),
                            real(40.5), None, None),
        engine.PolicyReport(opt, None, band, band, band, real(3.0), real(0.0),
                            None, None, None),
    ]
    trace = ZipfConfig(whole(40), real(1.0), whole(2000), whole(21))
    report = engine.ExperimentReport(whole(8), whole(2), trace, None, whole(3), pols)
    config = ExperimentConfig(trace=trace, cache_sizes=(whole(8),), batch_size=whole(20),
                              policies=(var, opt), runs=whole(3), base_seed=whole(99))
    sweep = {"rates": (real(0.01), real(0.5)), "variants": ("var",),
             "cache_sizes": (whole(8), whole(10))}
    return (cli._render_series(report), cli._render_summary(report),
            cli._render_sweep([report]),
            cli._render_echo(config, trace, {"var": real(2.5)}, sweep))


def test_numpy_scalars_render_as_their_python_values():
    series, summary, sweep, echo = rendered(float, int)
    assert series.splitlines()[1:3] == ["1,var,0.1,0.1,0.1",
                                        "2,var,0.3333333333333333,0.3333333333333333,"
                                        "0.3333333333333333"]
    assert summary.splitlines()[1:] == [
        "var,0.3333333333333333,0.3333333333333333,0.3333333333333333,12.0,3,9.0,40.5",
        "opt,0.3333333333333333,0.3333333333333333,0.3333333333333333,3.0,3,0.0,",
    ]
    assert sweep.splitlines()[1] == ("var,0.5,8,0.3333333333333333,0.3333333333333333,"
                                     "0.3333333333333333")
    assert "alpha = 1.0\n" in echo and "rates = 0.01, 0.5\n" in echo
    assert rendered(np.float64, np.int64) == (series, summary, sweep, echo)


GOLDEN_CONFIGS = {
    # all six policy kinds, with sampled fix and var rows
    "run-six-kinds": ("run", """\
        [experiment]
        cache_size = 6
        batch_size = 20
        runs = 3
        base_seed = 5

        [trace]
        kind = zipf
        files = 40
        alpha = 0.9
        requests = 2000
        seed = 17

        [policy:opt]
        kind = opt

        [policy:lru]
        kind = lru

        [policy:ftl]
        kind = ftl

        [policy:fpl]
        kind = fpl

        [policy:fix]
        kind = nfpl-fix
        rate = 0.3

        [policy:var]
        kind = nfpl-var
        rate = 0.3
        """),
    # one request per slot: ftl is LFU, and its recency rule decides often
    "run-ftl-opt-b1": ("run", """\
        [experiment]
        cache_size = 5
        batch_size = 1
        base_seed = 5

        [trace]
        kind = zipf
        files = 30
        alpha = 0.8
        requests = 600
        seed = 3

        [policy:opt]
        kind = opt

        [policy:ftl]
        kind = ftl
        """),
    # a round-robin trace, a fixed subsample of 5 of 25 and an eta override
    "run-round-robin-overrides": ("run", """\
        [experiment]
        cache_size = 10
        batch_size = 25
        runs = 2
        base_seed = 8

        [trace]
        kind = round-robin
        files = 50
        requests = 1500

        [policy:opt]
        kind = opt

        [policy:fpl]
        kind = fpl
        eta = 12.5

        [policy:fix]
        kind = nfpl-fix
        rate = 0.2
        """),
    "sweep-two-sizes": ("sweep", """\
        [experiment]
        cache_size = 6
        batch_size = 20
        runs = 2
        base_seed = 5

        [trace]
        kind = zipf
        files = 40
        alpha = 0.9
        requests = 2000
        seed = 17

        [sweep]
        rates = 0.1, 1.0
        variants = fix, var
        cache_sizes = 4, 10
        """),
}

# sha256 of every output file, recorded with NumPy 2.4.6 (Python 3.11).
# A NumPy release that changes a generator's stream or a float
# reduction's order changes these bytes without any change here.
GOLDEN_SHA256 = {
    "run-six-kinds": {
        "config_echo.ini": "079a39d59a1ff0384519ead29a25d7c383181e2f9f61760fdaedd2f13a30414d",
        "series.csv": "3e2023d6c4c10f5ccd66738e2cec04d1c89a5855919f97c94f304ca5715bf859",
        "summary.csv": "5ba07cf0af8a04b4724f4aa8f8f58df8411bfe86d763984af9229f1a6fe64af2",
    },
    "run-ftl-opt-b1": {
        "config_echo.ini": "5e9b3f3442c3dcc6ea84a386127ba40e691af13ea7b41422c27039dd2bfb428e",
        "series.csv": "6d0a0bfa5c916a5d7e77ebf5f2a2ff1d8e37329cfc79f2abba2e456e69c6dbf0",
        "summary.csv": "eaf26427ebdb9736f73100336d40bb5e212ab9923f4cfd91cd56c0dd26331248",
    },
    "run-round-robin-overrides": {
        "config_echo.ini": "982e3ee319289338aedc078d1c86f055dce7333af6f204248ee5236eba83a175",
        "series.csv": "9439feb0f831b9f57d8c666a19df6539d8293fab516eedd011a4e6ee14b5e91f",
        "summary.csv": "f551f62ca82e19198707dcfb086faafcc531c4fb6777fb4a673f2eed721b9fb3",
    },
    "sweep-two-sizes": {
        "config_echo.ini": "db679cdb65af65e7c9bcbb8466288921d59b274d24be6c97b6710623373c541f",
        "sweep.csv": "5a02b83c4fec38311bb5055594d2f752f16fb6937eff656fcce99d84af186003",
    },
}


@pytest.mark.parametrize("case", sorted(GOLDEN_CONFIGS))
def test_output_bytes_match_their_pins(tmp_path, case):
    command, body = GOLDEN_CONFIGS[case]
    config = write_config(tmp_path, body)
    out = tmp_path / "out"
    assert cli.main([command, "-c", str(config), "-o", str(out)]) == 0
    got = {
        path.name: hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(out.iterdir())
    }
    assert got == GOLDEN_SHA256[case]


@pytest.mark.parametrize("cpus", [1, 2, 3])
@pytest.mark.parametrize("case", sorted(GOLDEN_CONFIGS))
def test_output_bytes_do_not_depend_on_the_cpu_count(tmp_path, monkeypatch, case, cpus):
    monkeypatch.setattr(policies, "_usable_cpus", lambda: cpus)
    test_output_bytes_match_their_pins(tmp_path, case)


def test_a_failed_stepper_process_is_a_runtime_failure(tmp_path, capsys, monkeypatch):
    parent, real_top_c = os.getpid(), policies.top_c

    def top_c(*args, **kwargs):
        if os.getpid() != parent:
            raise MemoryError("no room in the child")
        return real_top_c(*args, **kwargs)

    monkeypatch.setattr(policies, "_usable_cpus", lambda: 2)
    monkeypatch.setattr(policies, "top_c", top_c)
    forked = record_forks(monkeypatch)
    config = write_config(tmp_path, RUN_CONFIG)
    out = tmp_path / "o"
    assert cli.main(["run", "-c", str(config), "-o", str(out)]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("runtime failure: RuntimeError: ")
    assert err[0].endswith("MemoryError: no room in the child")
    assert not out.exists()
    assert len(forked) == 1
    assert_reaped(forked)  # no process is left


# sha256 of `generate`'s trace.txt, recorded like GOLDEN_SHA256. The
# second zipf and the round-robin trace hold ids of one and two groups of
# four digits.
GENERATE_SHA256 = {
    "zipf --files 1000 --alpha 0.9 --requests 5000 --seed 11":
        "cc644388e89dfcdd88d68236896f85510c414c0c626d50d9451f90fcbbd3a7f1",
    "zipf --files 50000 --alpha 0.7 --requests 20000 --seed 12":
        "6c43d8918c4e7da87922d57ece6ed217b78580c5d9f9578236aac54b035ba342",
    "round-robin --files 12345 --requests 30000":
        "3c1f39bc2f47513c248d3402e175889266aa8c7f81474787cb11827405672f56",
}


@pytest.mark.parametrize("args", sorted(GENERATE_SHA256))
def test_generate_bytes_match_their_pins(tmp_path, capsys, args):
    out = tmp_path / "trace.txt"
    assert cli.main(["generate", *args.split(), "-o", str(out)]) == 0
    capsys.readouterr()
    assert hashlib.sha256(out.read_bytes()).hexdigest() == GENERATE_SHA256[args]
