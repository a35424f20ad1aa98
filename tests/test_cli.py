"""End-to-end tests for the command-line interface."""

import configparser
import csv
import textwrap

import pytest

from noisycache import cli, read_trace_file


def invoke(argv):
    return cli.main([str(a) for a in argv])


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

    @pytest.mark.parametrize("old,new,where", [
        ("[policy:var]", "[policy:wild]\nkind = fpl\neta = nan\n[policy:var]",
         "[policy:wild]"),
        ("[policy:var]", "[policy:wild]\nkind = fpl\neta = inf\n[policy:var]",
         "[policy:wild]"),
        ("alpha = 1.0", "alpha = nan", "[trace]"),
        ("alpha = 1.0", "alpha = inf", "[trace]"),
        ("seed = 21", "seed = -1", "[trace]"),
        ("base_seed = 99", "base_seed = -1", "[experiment]"),
        ("kind = opt", "kind = opt\n    tiebreak = most-recent", "[policy:opt]"),
        ("rate = 0.5", "rate = 0.5\n    tiebreak = lowest-index", "[policy:var]"),
        ("kind = ftl", "kind = ftl\n    tiebreak = most-recent",
         "[policy:ftl] unsupported key(s): tiebreak"),
        ("[policy:var]", "[policy:fix]\nkind = nfpl-fix\nrate = 0.5\nsubsample = 5\n"
         "[policy:var]", "[policy:fix]"),
        ("seed = 21", "seed = 21\n    path = t.txt", "[trace] unsupported key(s): path"),
        ("seed = 21", "seed = 21\n    remap = false", "[trace] unsupported key(s): remap"),
    ], ids=["eta-nan", "eta-inf", "alpha-nan", "alpha-inf", "seed", "base-seed",
            "tiebreak-opt", "tiebreak-var", "tiebreak-ftl", "fix-rate-and-subsample",
            "zipf-path", "zipf-remap"])
    def test_rejects_bad_values(self, tmp_path, capsys, old, new, where):
        config = write_config(tmp_path, RUN_CONFIG.replace(old, new))
        out = tmp_path / "o"
        assert cli.main(["run", "-c", str(config), "-o", str(out)]) == 2
        assert where in capsys.readouterr().err
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

    @pytest.mark.parametrize("flag,value", [
        ("--rates", "2.0"),
        ("--rates", "0.0"),
        ("--rates", ",,"),
        ("--variants", "fix,magic"),
        ("--cache-sizes", "0"),
        ("--rates", "0.5,0.5"),
        ("--cache-sizes", "5,5"),
    ])
    def test_rejects_bad_sweep_arguments(self, tmp_path, capsys, flag, value):
        config = write_config(tmp_path, SWEEP_CONFIG)
        code = cli.main(
            ["sweep", "-c", str(config), "-o", str(tmp_path / "o"), flag, value]
        )
        capsys.readouterr()
        assert code == 2


def test_no_arguments_is_usage_error(capsys):
    assert cli.main([]) == 2
    capsys.readouterr()
