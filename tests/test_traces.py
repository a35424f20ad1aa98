"""Unit tests for trace generation, file I/O, and batching."""

import os

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from noisycache import (
    InvalidInputError,
    RoundRobinConfig,
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

from helpers import reference_dense_remap, reference_read_trace, reference_slots


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


class TestRoundRobin:
    def test_cycles_in_order(self):
        trace = generate_round_robin(RoundRobinConfig(3, 5))
        assert trace.events.tolist() == [1, 2, 3, 1, 2]

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


def _outcome(read, *args):
    try:
        events, catalog = read(*args)
    except TraceParseError as exc:
        return "error", str(exc)
    return events.tolist(), catalog


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
    )
    @example([("5 # c", "\n")], True, None)  # the C parser's comments= must stay off
    @example([("1", "\n"), ("9", "\n")], True, 5)  # an oversized id names its line
    @example([("1", "\r\n"), ("99999999999999999999", "\r\n")], True, None)
    def test_reader_matches_line_by_line_reference(self, tmp_path, lines, last_eol, n_files):
        path = str(tmp_path / "t.txt")
        body = "".join(text + eol for text, eol in lines)
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
        from noisycache.traces import _dense_remap

        events, catalog = _dense_remap(np.asarray(ids, dtype=np.int64))
        expected, expected_catalog = reference_dense_remap(ids)
        assert events.tolist() == expected.tolist()
        assert catalog == expected_catalog

    @settings(
        deadline=None, max_examples=100,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(
        st.lists(st.integers(1, 2**63 - 1), min_size=1, max_size=40),
    )
    def test_writer_bytes_match_joined_lines(self, tmp_path, ids):
        path = tmp_path / "t.txt"
        write_trace_file(str(path), Trace(events=np.asarray(ids), n_files=max(ids)))
        assert path.read_bytes() == ("\n".join(map(str, ids)) + "\n").encode()


class TestBatchTrace:
    def test_example(self):
        trace = Trace(events=np.array([1, 2, 1, 3]), n_files=3)
        batches = batch_trace(trace, 2)
        assert len(batches) == 2
        assert batches[0].dense().tolist() == [1, 1, 0]
        assert batches[1].dense().tolist() == [1, 0, 1]

    def test_partial_final_batch_discarded(self):
        trace = Trace(events=np.array([1, 1, 2, 2, 1, 2, 1]), n_files=2)
        batches = batch_trace(trace, 2)
        assert len(batches) == 3
        assert sum(b.total for b in batches) == 6

    def test_too_short_trace(self):
        trace = Trace(events=np.array([1, 2]), n_files=2)
        with pytest.raises(InvalidInputError):
            batch_trace(trace, 3)

    def test_conservation_against_event_counts(self):
        trace = generate_zipf(ZipfConfig(30, 1.0, 4321, seed=6))
        batches = batch_trace(trace, 100)
        assert len(batches) == 43
        used = trace.events[: 43 * 100]
        expected = np.bincount(used - 1, minlength=30)
        assert np.array_equal(batches.totals(), expected)

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
        batches = batch_trace(trace, batch_size)
        assert len(batches) == len(events) // batch_size
        assert all(b.total == batch_size for b in batches)

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
        for t, batch in enumerate(slotted):
            lo, hi = offsets[t], offsets[t + 1]
            assert np.array_equal(batch.ids, ids[lo:hi])
            assert np.array_equal(batch.counts, counts[lo:hi])
