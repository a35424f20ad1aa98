"""Unit tests for trace generation, file I/O, and batching."""

import os
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from noisycache import (
    InvalidInputError,
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
from noisycache import traces
from noisycache.traces import _dense_remap, _inverse_cdf

from helpers import (
    reference_dense_remap,
    reference_read_trace,
    reference_slots,
    reference_trace_bytes,
    reference_zipf_events,
)

BOM = b"\xef\xbb\xbf"  # the UTF-8 byte-order mark Windows tools write


class TestZipf:
    def test_single_file_catalog(self):
        trace = generate_zipf(ZipfConfig(1, 1.0, 50, seed=0))
        assert trace.events.tolist() == [1] * 50

    def test_deterministic_per_seed(self):
        a = generate_zipf(ZipfConfig(20, 1.0, 1000, seed=9))
        b = generate_zipf(ZipfConfig(20, 1.0, 1000, seed=9))
        c = generate_zipf(ZipfConfig(20, 1.0, 1000, seed=10))
        assert np.array_equal(a.events, b.events)
        assert not np.array_equal(a.events, c.events)

    def test_two_file_frequency(self):
        # P(file 1) = (1/1) / (1/1 + 1/2) = 2/3 at alpha = 1
        total = 100_000
        trace = generate_zipf(ZipfConfig(2, 1.0, total, seed=4))
        share = float(np.mean(trace.events == 1))
        sigma = np.sqrt((2 / 3) * (1 / 3) / total)
        assert abs(share - 2 / 3) <= 3 * sigma

    def test_alpha_zero_is_uniform(self):
        total = 90_000
        trace = generate_zipf(ZipfConfig(3, 0.0, total, seed=8))
        counts = np.bincount(trace.events, minlength=4)[1:]
        sigma = np.sqrt((1 / 3) * (2 / 3) * total)
        assert np.all(np.abs(counts - total / 3) <= 4 * sigma)

    def test_events_in_range(self):
        trace = generate_zipf(ZipfConfig(50, 2.0, 10_000, seed=1))
        assert trace.events.min() >= 1
        assert trace.events.max() <= 50

    def test_unresolved_seed_rejected(self):
        with pytest.raises(InvalidInputError):
            generate_zipf(ZipfConfig(3, 1.0, 10))

    def test_config_validation(self):
        with pytest.raises(InvalidInputError):
            ZipfConfig(0, 1.0, 10, seed=0)
        with pytest.raises(InvalidInputError):
            ZipfConfig(3, -0.5, 10, seed=0)
        with pytest.raises(InvalidInputError):
            ZipfConfig(3, 1.0, 0, seed=0)

    @settings(deadline=None, max_examples=100)
    @given(
        st.one_of(st.integers(1, 3000), st.sampled_from([1, 2, 3, 64, 65, 1024, 1025])),
        st.one_of(st.floats(0, 3), st.sampled_from([0.0, 1.0, 60.0, 400.0])),
        st.integers(1, 3000),
        st.integers(0, 2**32),
    )
    def test_matches_one_searchsorted_over_the_cdf(self, n, alpha, requests, seed):
        trace = generate_zipf(ZipfConfig(n, alpha, requests, seed=seed))
        expected = reference_zipf_events(n, alpha, requests, seed)
        assert trace.events.tolist() == expected.tolist()

    @pytest.mark.parametrize("block", [1, 7, traces._BLOCK])
    def test_blocks_of_draws_are_one_draw(self, monkeypatch, block):
        # each block draws the next uniforms of the seed's one stream
        monkeypatch.setattr(traces, "_BLOCK", block)
        trace = generate_zipf(ZipfConfig(50, 1.0, 2 * block + 5, seed=3))
        expected = reference_zipf_events(50, 1.0, 2 * block + 5, 3)
        assert trace.events.tolist() == expected.tolist()


def _inverse_cdf_of(cdf, u):
    """_inverse_cdf over the draws u, handed out in order."""
    draws = iter(u)
    return _inverse_cdf(cdf, lambda k: np.fromiter(draws, np.float64, k), u.size)


def _edges_and_values(cdf):
    # every bucket edge j / 2**k of any guide table up to 8 * len(cdf)
    # buckets, and each cdf value below 1.0 with its neighbours
    m = 1 << (8 * cdf.size).bit_length()
    u = np.concatenate([
        np.arange(m) / m, cdf, np.nextafter(cdf, 0.0), np.nextafter(cdf, 1.0),
    ])
    return u[u < 1.0]


class TestInverseCdf:
    @settings(deadline=None, max_examples=300)
    @given(
        st.lists(
            st.one_of(
                st.floats(0, 1),
                st.integers(0, 64).map(lambda j: j / 64),  # on bucket edges
                st.just(0.0),
            ),
            min_size=1, max_size=80,
        ),
        # scales the cdf, so that its last entry may fall short of 1.0 or
        # pass it by rounding
        st.sampled_from([1.0, 0.75, np.nextafter(1.0, 0.0), np.nextafter(1.0, 2.0)]),
        st.lists(st.floats(0, 1, exclude_max=True), max_size=50),
    )
    def test_matches_searchsorted(self, values, scale, draws):
        cdf = np.sort(values) * scale
        u = np.concatenate([np.asarray(draws, dtype=float), _edges_and_values(cdf)])
        assert _inverse_cdf_of(cdf, u).tolist() == np.searchsorted(cdf, u).tolist()

    # N = 1, 2**k and 2**k + 1 over Zipf cdfs; alpha = 60 and 400 underflow
    # to flat steps, and more draws than one block cross block edges
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 1024, 1025])
    @pytest.mark.parametrize("alpha", [0.0, 1.0, 60.0, 400.0])
    def test_zipf_cdfs_on_edges_values_and_blocks(self, n, alpha):
        weights = np.arange(1, n + 1, dtype=np.float64) ** -alpha
        cdf = np.cumsum(weights / weights.sum())
        u = np.concatenate([
            _edges_and_values(cdf),
            np.random.default_rng(n).random(2 * traces._BLOCK + 7),
        ])
        assert np.array_equal(_inverse_cdf_of(cdf, u), np.searchsorted(cdf, u))


class TestRoundRobin:
    def test_cycles_in_order(self):
        trace = generate_round_robin(RoundRobinConfig(3, 5))
        assert trace.events.tolist() == [1, 2, 3, 1, 2]

    def test_blocks_fill_the_cycle_across_their_edges(self):
        total = 2 * traces._BLOCK + 5
        trace = generate_round_robin(RoundRobinConfig(7, total))
        assert np.array_equal(trace.events, np.arange(total) % 7 + 1)

    def test_whole_cycles_are_balanced(self):
        trace = generate_round_robin(RoundRobinConfig(100, 100 * 7))
        counts = np.bincount(trace.events, minlength=101)[1:]
        assert np.all(counts == 7)


class TestTraceValidation:
    def test_rejects_out_of_range_events(self):
        with pytest.raises(InvalidInputError):
            Trace(events=np.array([1, 4]), n_files=3)
        with pytest.raises(InvalidInputError):
            Trace(events=np.array([0, 1]), n_files=3)
        with pytest.raises(InvalidInputError):
            Trace(events=np.array([], dtype=np.int64), n_files=3)
        with pytest.raises(InvalidInputError, match="^n_files must be >= 1, got 0$"):
            Trace(events=np.array([1]), n_files=0)


class TestTraceFiles:
    def test_remap_by_first_appearance(self, tmp_path):
        path = tmp_path / "t.txt"
        path.write_text("7\n7\n3\n")
        trace = read_trace_file(str(path))
        assert trace.events.tolist() == [1, 1, 2]
        assert trace.n_files == 2

    def test_no_remap_keeps_ids(self, tmp_path):
        path = tmp_path / "t.txt"
        path.write_text("1\n2\n1\n")
        trace = read_trace_file(str(path), remap=False, n_files=2)
        assert trace.events.tolist() == [1, 2, 1]
        assert trace.n_files == 2

    def test_comments_blanks_and_timestamps(self, tmp_path):
        path = tmp_path / "t.txt"
        path.write_text("# header\n5, 1000\n\n5,1001\n2\n")
        trace = read_trace_file(str(path))
        assert trace.events.tolist() == [1, 1, 2]

    def test_zero_id_is_a_parse_error(self, tmp_path):
        path = tmp_path / "t.txt"
        path.write_text("1\n0\n")
        with pytest.raises(TraceParseError, match=":2"):
            read_trace_file(str(path))

    def test_negative_and_garbage_ids(self, tmp_path):
        path = tmp_path / "t.txt"
        path.write_text("3\n-2\n")
        with pytest.raises(TraceParseError, match=":2"):
            read_trace_file(str(path))
        path.write_text("3\nabc\n")
        with pytest.raises(TraceParseError, match=":2"):
            read_trace_file(str(path))

    # the first body goes through NumPy's parser, the second through the
    # line loop
    @pytest.mark.parametrize(
        "body", [b"7\n3\n7\n", b"# note\r\n7\r\n3\n7"], ids=["numpy", "lines"]
    )
    def test_leading_byte_order_mark_is_skipped(self, tmp_path, body):
        path = tmp_path / "t.txt"
        path.write_bytes(body)
        plain = read_trace_file(str(path))
        path.write_bytes(BOM + body)
        trace = read_trace_file(str(path))
        assert trace.events.tolist() == plain.events.tolist() == [1, 2, 1]
        assert trace.n_files == plain.n_files == 2

    @pytest.mark.skipif(not os.path.exists("/dev/stdin"), reason="no /dev/stdin")
    def test_leading_byte_order_mark_is_skipped_on_stdin(self, tmp_path):
        path = tmp_path / "t.txt"
        path.write_bytes(b"7\n3\n7\n")
        plain = read_trace_file(str(path))
        # put a pipe holding the marked file on this process's stdin
        read_end, write_end = os.pipe()
        os.write(write_end, BOM + path.read_bytes())
        os.close(write_end)
        saved = os.dup(0)
        os.dup2(read_end, 0)
        try:
            trace = read_trace_file("/dev/stdin")
        finally:
            os.dup2(saved, 0)
            os.close(saved)
            os.close(read_end)
        assert trace.events.tolist() == plain.events.tolist()
        assert trace.n_files == plain.n_files

    # only the first mark is skipped: one later in the file, or a second
    # one at the start, is a bad id on its line
    @pytest.mark.parametrize("body,lineno,field", [
        (b"7\n" + BOM + b"3\n", 2, "\ufeff3"),
        (BOM + b"# note\n" + BOM + b"3\n", 2, "\ufeff3"),
        (BOM + BOM + b"7\n", 1, "\ufeff7"),
    ], ids=["second-line", "after-a-header", "doubled"])
    def test_byte_order_mark_after_the_start_is_an_error(
        self, tmp_path, body, lineno, field
    ):
        path = tmp_path / "t.txt"
        path.write_bytes(body)
        message = f"{path}:{lineno}: expected an integer file id, got {field!r}"
        with pytest.raises(TraceParseError, match=f"^{re.escape(message)}$"):
            read_trace_file(str(path))

    def test_empty_file(self, tmp_path):
        path = tmp_path / "t.txt"
        path.write_text("# nothing\n")
        with pytest.raises(TraceParseError):
            read_trace_file(str(path))

    def test_no_remap_requires_catalog_size(self, tmp_path):
        path = tmp_path / "t.txt"
        path.write_text("1\n")
        with pytest.raises(InvalidInputError):
            read_trace_file(str(path), remap=False)

    def test_remap_rejects_a_declared_catalog_size(self, tmp_path):
        path = tmp_path / "t.txt"
        path.write_text("1\n2\n3\n4\n5\n")
        with pytest.raises(InvalidInputError, match="n_files"):
            read_trace_file(str(path), remap=True, n_files=3)

    def test_no_remap_rejects_oversized_ids(self, tmp_path):
        path = tmp_path / "t.txt"
        path.write_text("1\n# note\n9\n")
        with pytest.raises(TraceParseError, match=r"t\.txt:3: id 9 exceeds"):
            read_trace_file(str(path), remap=False, n_files=5)

    def test_remap_and_declared_catalog_size_exclude_each_other(self, tmp_path):
        with pytest.raises(InvalidInputError, match="n_files"):
            TraceFileConfig(str(tmp_path / "t.txt"), remap=True, n_files=5)
        with pytest.raises(InvalidInputError, match="n_files"):
            TraceFileConfig(str(tmp_path / "t.txt"), remap=False)

    def test_failed_write_leaves_nothing_behind(self, tmp_path, monkeypatch):
        path = tmp_path / "t.txt"
        path.write_text("7\n")
        trace = Trace(events=np.array([1, 2]), n_files=2)

        def fail(src, dst):
            raise OSError("simulated rename failure")

        monkeypatch.setattr(os, "replace", fail)
        with pytest.raises(OSError, match="simulated"):
            write_trace_file(str(path), trace)
        monkeypatch.undo()
        assert path.read_text() == "7\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["t.txt"]
        write_trace_file(str(path), trace)
        assert path.read_text() == "1\n2\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["t.txt"]

    def test_write_replaces_no_file_but_its_target(self, tmp_path):
        # the temp is hidden, this process's own and created exclusively
        (tmp_path / "t.txt.tmp").write_bytes(b"keep\n")
        write_trace_file(str(tmp_path / "t.txt"), Trace(np.array([1, 2]), n_files=2))
        assert (tmp_path / "t.txt.tmp").read_bytes() == b"keep\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["t.txt", "t.txt.tmp"]

    @pytest.mark.parametrize("umask", [0o022, 0o077], ids=["022", "077"])
    def test_written_file_has_the_mode_of_a_plain_open(self, tmp_path, umask):
        old = os.umask(umask)
        try:
            with open(tmp_path / "plain.txt", "w"):
                pass
            write_trace_file(str(tmp_path / "t.txt"), Trace(np.array([1]), n_files=1))
        finally:
            os.umask(old)
        modes = {os.stat(tmp_path / name).st_mode for name in ("plain.txt", "t.txt")}
        assert modes == {0o100666 & ~umask}

    @pytest.mark.parametrize("body", [
        pytest.param("# header\n\n  # note\r\n \t\n3\n1\n2\n", id="header"),
        pytest.param("\ufeff# header\r3\n1\n2", id="byte-order-mark"),
        pytest.param("# header\n3\n# late\n1\n##\r\n2\n# end", id="late"),
    ])
    def test_header_lines_stay_on_the_fast_path(self, tmp_path, monkeypatch, body):
        path = tmp_path / "t.txt"
        path.write_bytes(body.encode("utf-8"))

        def refuse(*args):
            raise AssertionError("read by the line loop")

        monkeypatch.setattr(traces, "_parse_lines", refuse)
        trace = read_trace_file(str(path))
        assert trace.events.tolist() == [1, 2, 3]

    @pytest.mark.parametrize("body", [
        pytest.param("3\n1\n2\n \n", id="last"),
        pytest.param("3\n \t\r\n1\n\xa0\n2", id="middle"),
        pytest.param("# header\n3\n  \n# late\n1\n\n2\n", id="with-comments"),
    ])
    def test_whitespace_only_lines_stay_on_the_fast_path(
        self, tmp_path, monkeypatch, body
    ):
        path = tmp_path / "t.txt"
        path.write_bytes(body.encode("utf-8"))
        expected = _outcome(reference_read_trace, str(path), True, None)

        def refuse(*args):
            raise AssertionError("read by the line loop")

        monkeypatch.setattr(traces, "_parse_lines", refuse)
        assert _outcome(_read_package, str(path), True, None) == expected
        assert expected == ([1, 2, 3], 3)

    @pytest.mark.parametrize("body", [
        pytest.param("3\n5,# c\n# late\n", id="second-field-comment"),
        pytest.param("3\n# late\n5 # c\n", id="comment-after-an-id"),
        pytest.param("3\n# late\n  # indented\n1\n", id="indented"),
        pytest.param("3\r# late\r1 #\r", id="carriage-returns"),
        pytest.param("3\n10\n20\n# c\n2\n", id="after-a-line-end"),
        pytest.param("\ufeff3\n10\n20\n# c\n2\n", id="after-a-byte-order-mark"),
        pytest.param("3\n10\n202# c\n2\n", id="after-an-id"),
    ])
    def test_late_comments_keep_the_line_grammar(self, tmp_path, body):
        # NumPy reads the lines the grammar keeps with no comment mark, so
        # a '#' that does not open its line stays an error: "5 # c" is not 5
        path = str(tmp_path / "t.txt")
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(body)
        expected = _outcome(reference_read_trace, path, True, None)
        assert _outcome(_read_package, path, True, None) == expected

    def test_a_late_comment_costs_little_memory(self, tmp_path):
        # a late '#' sends the file to NumPy's second input, the lines
        # _read_line keeps, which peaks near the plain file's first input
        plain, late = tmp_path / "plain.txt", tmp_path / "late.txt"
        plain.write_bytes(b"7\n" * 500_000)
        late.write_bytes(b"7\n" * 500_000 + b"# end\n")
        events, plain_peak = _traced_peak(traces._parse_fast, str(plain))
        again, late_peak = _traced_peak(traces._parse_fast, str(late))
        assert np.array_equal(again, events)
        assert late_peak <= plain_peak + 0.1 * events.nbytes

    def test_write_read_roundtrip(self, tmp_path):
        path = tmp_path / "t.txt"
        trace = generate_zipf(ZipfConfig(9, 1.0, 200, seed=2))
        write_trace_file(str(path), trace)
        back = read_trace_file(str(path), remap=False, n_files=9)
        assert np.array_equal(back.events, trace.events)


# Lines the grammar accepts, skips or rejects, including the ones NumPy's
# C parser refuses and the line loop must then read.
TRACE_TOKENS = [
    "", "   ", "\t", "  # note", "# header", "5 # c", "1,ts", "5,", ",5",
    " 7 ", "+7", "1_000", "7.0", "0", "-3", "99999999999999999999",
    "1", "3", "12", "007", "9,1000",
]
TRACE_LINES = st.one_of(
    st.sampled_from(TRACE_TOKENS),
    st.text(alphabet="0123456789 ,#+-_.\t\xa0\u0663x", max_size=5),
)
# Lines a header may open a file with, each with its line ending.
HEADER_LINES = ["# header\n", "\n", "  \t\r\n", "  # note\r", "#\n"]


def _outcome(read, *args):
    try:
        events, catalog = read(*args)
    except TraceParseError as exc:
        return "error", str(exc)
    return events.tolist(), catalog


def _traced_peak(fn, *args):
    """fn(*args) and the peak bytes it allocated beyond what was live before."""
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        result = fn(*args)
        return result, tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


def _read_package(path, remap, n_files):
    trace = read_trace_file(path, remap=remap, n_files=n_files)
    return trace.events, trace.n_files


class TestTraceFileDifferential:
    @settings(
        deadline=None, max_examples=300,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(
        st.lists(
            st.tuples(TRACE_LINES, st.sampled_from(["\n", "\r\n"])), max_size=10
        ),
        st.booleans(),
        st.one_of(st.none(), st.integers(1, 15)),
        st.builds(
            lambda bom, lines: bom + lines,
            st.sampled_from([[], ["\ufeff"]]),
            st.lists(st.sampled_from(HEADER_LINES), max_size=3),
        ),
    )
    # the C parser's comments= must stay off
    @example([("5 # c", "\n")], True, None, [])
    @example([("1", "\n"), ("9", "\n")], True, 5, [])  # an oversized id names its line
    @example([("1", "\r\n"), ("99999999999999999999", "\r\n")], True, None, [])
    # a header is read past, and a bad line after it is still named
    @example([("4", "\n"), ("x", "\n")], True, None, ["# id\n", "\n"])
    @example([("4", "\n"), ("# c", "\n"), ("2", "\n")], True, None, ["#\r"])
    @example([("", "\n")], True, None, ["# only a header\n"])
    # a leading byte-order mark is skipped on both paths
    @example([("3", "\n"), ("1", "\n")], True, None, ["\ufeff"])
    @example([("3", "\n"), ("x", "\n")], True, None, ["\ufeff", "# id\n"])
    def test_reader_matches_line_by_line_reference(
        self, tmp_path, lines, last_eol, n_files, header
    ):
        path = str(tmp_path / "t.txt")
        body = "".join(header) + "".join(text + eol for text, eol in lines)
        if lines and not last_eol:
            body = body[: -len(lines[-1][1])]
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(body)
        remap = n_files is None
        expected = _outcome(reference_read_trace, path, remap, n_files)
        assert _outcome(_read_package, path, remap, n_files) == expected

    @settings(deadline=None, max_examples=200)
    @given(
        st.lists(
            st.one_of(st.integers(1, 6), st.integers(1, 2**63 - 1)),
            min_size=1, max_size=40,
        )
    )
    def test_dense_remap_matches_first_index_ranking(self, ids):
        events, catalog = _dense_remap(np.asarray(ids, dtype=np.int64))
        expected, expected_catalog = reference_dense_remap(ids)
        assert events.tolist() == expected.tolist()
        assert catalog == expected_catalog

    # ids up to the event count fill a table indexed by id; larger ids are
    # packed by np.unique first, and only then
    @pytest.mark.parametrize("ids,packs", [
        pytest.param([3, 1, 3], False, id="max-is-length"),
        pytest.param([4, 1, 4], True, id="max-is-length-plus-one"),
        pytest.param([2, 2, 2], False, id="all-equal"),
        pytest.param([1], False, id="one-event"),
        pytest.param([2**63 - 1, 5, 2**63 - 1], True, id="int64-max"),
        pytest.param([5, 2, 6, 2, 5, 1], False, id="repeats"),
    ])
    def test_dense_remap_cases(self, monkeypatch, ids, packs):
        expected, expected_catalog = reference_dense_remap(ids)
        calls = []
        unique = np.unique

        def spy(*args, **kwargs):
            calls.append(args)
            return unique(*args, **kwargs)

        monkeypatch.setattr(np, "unique", spy)
        events, catalog = _dense_remap(np.asarray(ids, dtype=np.int64))
        assert events.tolist() == expected.tolist()
        assert catalog == expected_catalog
        assert len(calls) == packs

    @pytest.mark.parametrize("top", [1000, 2**62], ids=["table", "packed"])
    def test_dense_remap_across_blocks(self, top):
        # ids recur in every block, so each block's scatter must leave the
        # earliest block's positions in place
        rng = np.random.default_rng(5)
        ids = rng.integers(1, top, 2 * traces._BLOCK + 5, endpoint=True)
        expected, expected_catalog = reference_dense_remap(ids)
        events, catalog = _dense_remap(ids.copy())
        assert np.array_equal(events, expected)
        assert catalog == expected_catalog

    def test_dense_remap_peak_memory_is_a_fraction_of_the_events(self):
        # ids below the event count need no sort: the table is as long as
        # the largest id, the positions are scattered a block at a time,
        # and the ranks are written over the events
        events = np.random.default_rng(3).integers(1, 1001, 200_000)
        _, peak = _traced_peak(_dense_remap, events)
        assert peak <= events.nbytes // 4

    def test_dense_remap_ranks_all_distinct_ids_within_the_table(self):
        # with every id distinct the table and its argsort are each as long
        # as the events; the ranks overwrite the table a block at a time
        events = np.random.default_rng(4).permutation(200_000) + 1
        expected, expected_catalog = reference_dense_remap(events)
        (ids, catalog), peak = _traced_peak(_dense_remap, events)
        assert peak <= 2.2 * events.nbytes
        assert np.array_equal(ids, expected)
        assert catalog == expected_catalog == events.size

    @pytest.mark.parametrize("values", [1000, 20_000, 200_000])
    def test_dense_remap_packs_large_ids_within_twice_the_events(self, values):
        # ids above the event count are packed in place by a search among
        # the sorted distinct ids, with no inverse array beside the events
        rng = np.random.default_rng(values)
        pool = rng.choice(2**40, values, replace=False) + 1
        events = rng.choice(pool, 200_000)
        expected, expected_catalog = _dense_remap(
            np.unique(events, return_inverse=True)[1].reshape(-1)
        )
        (ids, catalog), peak = _traced_peak(_dense_remap, events)
        assert peak <= 2 * events.nbytes
        assert np.array_equal(ids, expected)
        assert catalog == expected_catalog

    @settings(
        deadline=None, max_examples=200,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(
        st.lists(
            st.one_of(
                st.integers(1, 2**63 - 1),
                # each side of a change in digit count
                st.integers(1, 18).flatmap(
                    lambda k: st.sampled_from([10**k - 1, 10**k, 10**k + 1])
                ),
                st.integers(1, 10**5),
            ),
            min_size=1, max_size=60,
        )
    )
    def test_writer_bytes_match_joined_lines(self, tmp_path, ids):
        path = tmp_path / "t.txt"
        write_trace_file(str(path), Trace(events=np.asarray(ids), n_files=max(ids)))
        assert path.read_bytes() == reference_trace_bytes(ids)

    @pytest.mark.parametrize("top", [9, 10, 9999, 10**4, 10**8 - 1, 10**8, 2**63 - 1])
    def test_writer_digit_boundaries_across_blocks(self, tmp_path, top):
        # every 10**k - 1 and 10**k up to top, scattered over more than two
        # blocks of random ids whose largest is top
        bounds = [v for k in range(1, 19) for v in (10**k - 1, 10**k) if v <= top]
        rng = np.random.default_rng(top % 1000)
        ids = rng.integers(1, top, 2 * traces._BLOCK + 5, endpoint=True)
        ids[rng.choice(ids.size, len(bounds) + 2, replace=False)] = [1, top, *bounds]
        path = tmp_path / "t.txt"
        write_trace_file(str(path), Trace(events=ids, n_files=top))
        assert path.read_bytes() == reference_trace_bytes(ids.tolist())


class TestBatchTrace:
    def test_example(self):
        trace = Trace(events=np.array([1, 2, 1, 3]), n_files=3)
        slotted = batch_trace(trace, 2)
        assert slotted.horizon == 2
        # slot 0 requests files 0 and 1 once each, slot 1 files 0 and 2
        assert slotted.ids.tolist() == [0, 1, 0, 2]
        assert slotted.counts.tolist() == [1, 1, 1, 1]
        assert slotted.offsets.tolist() == [0, 2, 4]

    def test_partial_final_batch_discarded(self):
        trace = Trace(events=np.array([1, 1, 2, 2, 1, 2, 1]), n_files=2)
        slotted = batch_trace(trace, 2)
        assert slotted.horizon == 3
        assert slotted.counts.sum() == 6

    @pytest.mark.parametrize("block,batch_size,length", [
        pytest.param(8, 1, 21, id="partial-last-block"),
        pytest.param(8, 3, 20, id="two-slots-a-block-and-a-partial-batch"),
        pytest.param(8, 3, 23, id="one-slot-in-the-last-block"),
        pytest.param(8, 9, 40, id="slots-longer-than-a-block"),
        pytest.param(traces._BLOCK, 7, 2 * traces._BLOCK + 30, id="real-block"),
    ])
    def test_block_edges_match_per_window_unique(
        self, monkeypatch, block, batch_size, length
    ):
        monkeypatch.setattr(traces, "_BLOCK", block)
        events = np.random.default_rng(length).integers(1, 6, length, endpoint=True)
        slotted = batch_trace(Trace(events=events, n_files=6), batch_size)
        ids, counts, offsets, totals = reference_slots(events, 6, batch_size)
        assert np.array_equal(slotted.ids, ids)
        assert np.array_equal(slotted.counts, counts)
        assert np.array_equal(slotted.offsets, offsets)
        assert np.array_equal(slotted.totals(), totals)
        assert np.array_equal(slotted.events, events[: slotted.events.size] - 1)
        dtypes = [a.dtype for a in (slotted.events, slotted.ids, slotted.counts)]
        assert dtypes == [np.int32] * 3
        assert slotted.offsets.dtype == slotted.totals().dtype == np.int64

    def test_batch_trace_copies_at_half_width(self):
        # a 0-based int32 copy of the events, and int32 CSR arrays at most
        # as long: 1.5x the int64 events with the block temporaries, and no
        # full-length int64 temporary
        trace = Trace(events=np.random.default_rng(7).integers(1, 1001, 500_000),
                      n_files=1000)
        before = trace.events.copy()
        slotted, peak = _traced_peak(batch_trace, trace, 200)
        assert peak <= 1.75 * trace.events.nbytes
        assert np.array_equal(trace.events, before)
        assert np.array_equal(slotted.events, before - 1)

    def test_batch_in_place_narrows_within_the_events_buffer(self):
        # the int64 events, then their int32 front, which the slotted trace
        # views once the buffer is cut to it, with the CSR arrays
        events = np.random.default_rng(7).integers(1, 1001, 500_000)

        def build_and_slot(events):
            # the trace's buffer is allocated while traced, and the caller
            # keeps no reference to it
            return traces._batch_in_place(Trace(events.copy(), 1000), 200)

        slotted, peak = _traced_peak(build_and_slot, events)
        assert peak <= 1.75 * events.nbytes
        assert slotted.events.dtype == np.int32
        assert slotted.events.base.nbytes == events.nbytes // 2
        copied = batch_trace(Trace(events, 1000), 200)
        for name in ("events", "ids", "counts", "offsets"):
            assert np.array_equal(getattr(slotted, name), getattr(copied, name))
        assert np.array_equal(slotted.totals(), copied.totals())

    def test_slotted_arrays_are_read_only_and_the_callers_stay_writable(self):
        events = np.array([0, 1, 0, 2], dtype=np.int32)
        slotted = SlottedTrace(events, n_files=3, batch_size=2)
        for name in ("events", "ids", "counts", "offsets"):
            with pytest.raises(ValueError, match="read-only"):
                getattr(slotted, name)[0] = 0
        assert np.shares_memory(slotted.events, events)  # int32 is not copied
        events[0] = 1
        assert events.flags.writeable

    @pytest.mark.parametrize("n_files,batch_size,message", [
        (2**31, 1, "n_files must be <= 2147483647, got 2147483648"),
        (2, 2**31, "batch_size must be <= 2147483647, got 2147483648"),
        (2, 0, "batch_size must be >= 1, got 0"),
    ], ids=["catalog", "batch", "empty-batch"])
    def test_slotted_trace_refuses_sizes_beyond_int32(self, n_files, batch_size, message):
        with pytest.raises(InvalidInputError, match=f"^{re.escape(message)}$"):
            SlottedTrace(np.zeros(2, dtype=np.int32), n_files, batch_size)

    def test_wide_values_are_checked_before_they_are_narrowed(self):
        # 2**32 + 1 would wrap to 1, a valid int32 index
        with pytest.raises(InvalidInputError, match=r"\[0, n_files\)"):
            SlottedTrace(np.array([0, 2**32 + 1]), 3, 1)
        trace = Trace(events=np.array([1, 2]), n_files=3)
        trace.events[1] = 2**32 + 2  # a trace's array stays writable
        with pytest.raises(InvalidInputError, match=r"\[1, n_files\]"):
            batch_trace(trace, 1)
        with pytest.raises(InvalidInputError, match=r"n_files must be <= 2147483647"):
            batch_trace(Trace(events=np.array([1, 2]), n_files=2**31), 1)

    def test_too_short_trace(self):
        trace = Trace(events=np.array([1, 2]), n_files=2)
        with pytest.raises(InvalidInputError):
            batch_trace(trace, 3)

    def test_conservation_against_event_counts(self):
        trace = generate_zipf(ZipfConfig(30, 1.0, 4321, seed=6))
        slotted = batch_trace(trace, 100)
        assert slotted.horizon == 43
        used = trace.events[: 43 * 100]
        expected = np.bincount(used - 1, minlength=30)
        assert np.array_equal(slotted.totals(), expected)

    @settings(deadline=None, max_examples=40)
    @given(
        st.lists(st.integers(1, 6), min_size=1, max_size=60),
        st.integers(1, 10),
    )
    def test_every_batch_sums_to_batch_size(self, events, batch_size):
        trace = Trace(events=np.asarray(events), n_files=6)
        if len(events) < batch_size:
            with pytest.raises(InvalidInputError):
                batch_trace(trace, batch_size)
            return
        slotted = batch_trace(trace, batch_size)
        assert slotted.horizon == len(events) // batch_size
        per_slot = np.add.reduceat(slotted.counts, slotted.offsets[:-1])
        assert per_slot.tolist() == [batch_size] * slotted.horizon

    @settings(deadline=None, max_examples=150)
    @given(
        st.integers(1, 12).flatmap(
            lambda n: st.tuples(
                st.just(n),
                st.lists(st.integers(1, n), min_size=1, max_size=80),
                st.integers(1, 9),
            )
        )
    )
    @example((3, [3, 1, 3, 2], 1))  # one request per slot
    @example((4, [4, 2, 2, 4, 1], 2))  # a partial final batch
    def test_matches_per_window_unique(self, problem):
        n, events, batch_size = problem
        if len(events) < batch_size:
            return
        slotted = batch_trace(Trace(events=np.asarray(events), n_files=n), batch_size)
        ids, counts, offsets, totals = reference_slots(events, n, batch_size)
        assert np.array_equal(slotted.ids, ids)
        assert np.array_equal(slotted.counts, counts)
        assert np.array_equal(slotted.offsets, offsets)
        assert np.array_equal(slotted.totals(), totals)
