"""Differential tests of the chunked trace reader and the columnar writer.

``_reference_chunks`` and ``_reference_write`` are literal copies of the
per-line reader and the per-request ``json.dumps`` writer the chunked
code replaced.  The reader must yield the same chunks (``repr`` equal, so
an int arrival stays an int) and then raise the same
:class:`~repro.errors.ServingError` message, or none; the writer must
write the same bytes, header included, or raise the same message.  Both
run at their own block size and at tiny ones (``BLOCK_SIZES``), so a
chunk spans several blocks and an error may sit in any of them.
"""

from __future__ import annotations

import json
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cli import main
from repro.errors import ServingError
from repro.serving import trace
from repro.serving.trace import (
    _HEADER_WIDTH,
    TRACE_FORMAT,
    TRACE_VERSION,
    RequestTrace,
    _pad_header,
    read_header,
    record_process,
    write_trace,
)
from repro.serving.traffic import (
    SEED_STRIDE,
    PoissonArrivals,
    Request,
    WorkloadMix,
)


def _reference_chunks(path, chunk_size):
    """The per-line reader: ``RequestTrace.iter_chunks`` before chunking."""
    trace = RequestTrace(path)
    info = trace.info
    known = set(info.workloads)
    loads = json.loads
    isfinite = math.isfinite
    count = 0
    prev_arrival = -float("inf")
    prev_id = -1
    arrivals: list[float] = []
    names: list[str] = []
    ids: list[int] = []
    with trace.path.open("r", encoding="ascii") as handle:
        handle.read(_HEADER_WIDTH)
        for line in handle:
            if not line.strip():
                continue
            try:
                row = loads(line)
            except (json.JSONDecodeError, ValueError):
                row = None
            if (
                type(row) is not list
                or len(row) != 3
                or type(row[0]) is not int
                or type(row[1]) is not str
                or (type(row[2]) is not float and type(row[2]) is not int)
            ):
                raise ServingError(
                    f"trace '{trace.path}' has a malformed line near "
                    f"request {count}: expected [int id, str workload, "
                    "number arrival_s]"
                )
            request_id, workload, arrival_s = row
            if workload not in known:
                raise ServingError(
                    f"trace '{trace.path}' line names workload "
                    f"'{workload}' missing from its header"
                )
            if not isfinite(arrival_s):
                raise ServingError(
                    f"trace '{trace.path}' has a non-finite arrival at "
                    f"request {request_id}"
                )
            if arrival_s < 0:
                raise ServingError(
                    f"trace '{trace.path}' has a negative arrival at "
                    f"request {request_id}"
                )
            if (
                arrival_s < prev_arrival
                or (arrival_s == prev_arrival and request_id <= prev_id)
                or request_id <= prev_id
            ):
                raise ServingError(
                    f"trace '{trace.path}' is not sorted by "
                    "(arrival_s, request_id) with strictly increasing "
                    f"ids near request {request_id}"
                )
            prev_arrival = arrival_s
            prev_id = request_id
            arrivals.append(arrival_s)
            names.append(workload)
            ids.append(request_id)
            count += 1
            if len(arrivals) >= chunk_size:
                yield arrivals, names, ids
                arrivals, names, ids = [], [], []
    if arrivals:
        yield arrivals, names, ids
    if count != info.num_requests:
        raise ServingError(
            f"trace '{trace.path}' is truncated: header promises "
            f"{info.num_requests} requests, found {count}"
        )


def _reference_write(path, requests, source=None):
    """The per-request writer: ``write_trace`` before columns."""
    header = {
        "format": TRACE_FORMAT,
        "version": TRACE_VERSION,
        "num_requests": 0,
        "duration_s": 0.0,
        "workloads": [],
        "source": dict(source or {}),
    }
    count = 0
    last_arrival = 0.0
    prev_key = (-float("inf"), -1)
    workloads: set[str] = set()
    with open(path, "wb") as handle:
        handle.write(_pad_header(header))
        for request in requests:
            key = (request.arrival_s, request.request_id)
            if key <= prev_key or request.request_id <= prev_key[1]:
                raise ServingError(
                    "trace recording requires requests sorted by "
                    "(arrival_s, request_id) with strictly increasing ids; "
                    f"violated near request {request.request_id}"
                )
            prev_key = key
            workloads.add(request.workload)
            handle.write(
                json.dumps(
                    [request.request_id, request.workload, request.arrival_s]
                ).encode("ascii")
            )
            handle.write(b"\n")
            count += 1
            last_arrival = request.arrival_s
        if not count:
            raise ServingError("refusing to record an empty request trace")
        header.update(
            num_requests=count,
            duration_s=last_arrival,
            workloads=sorted(workloads),
        )
        handle.seek(0)
        handle.write(_pad_header(header))
    return read_header(path)


def _outcome(chunks):
    """The chunks yielded before any error (as ``repr``), and the error."""
    seen = []
    try:
        for chunk in chunks:
            seen.append(repr(chunk))
    except Exception as error:  # the reference's own type, whatever it is
        return seen, (type(error).__name__, str(error))
    return seen, None


#: block sizes the chunked reader and writer run at
BLOCK_SIZES = (trace._BLOCK_LINES, 1, 3)


def _assert_same_reading(path, chunk_sizes=(1, 2, 64)):
    for chunk_size in chunk_sizes:
        expected = _outcome(_reference_chunks(path, chunk_size))
        for block_lines in BLOCK_SIZES:
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(trace, "_BLOCK_LINES", block_lines)
                actual = _outcome(RequestTrace(path).iter_chunks(chunk_size))
            assert actual == expected, (chunk_size, block_lines)


def _trace(tmp_path, body_lines, workloads=("lvrf", "nvsa"), num_requests=None):
    """A trace file whose body is ``body_lines`` verbatim, with a header
    promising ``num_requests`` (default: the non-blank line count)."""
    if num_requests is None:
        num_requests = sum(1 for line in body_lines if line.strip())
    header = _pad_header({
        "format": TRACE_FORMAT,
        "version": TRACE_VERSION,
        "num_requests": num_requests,
        "duration_s": 1.0,
        "workloads": sorted(workloads),
        "source": {},
    })
    path = tmp_path / "trace.jsonl"
    path.write_bytes(header + "".join(body_lines).encode("ascii"))
    return path


def _rows(count=6):
    """Valid body lines: alternating workloads, 0.25 s apart."""
    return [
        json.dumps([index, ("lvrf", "nvsa")[index % 2], 0.25 * index]) + "\n"
        for index in range(count)
    ]


#: the mistyped lines of ``test_trace.py::TestFormat``
MISTYPED = (
    "5",
    '{"a": 0, "nvsa": 1, "c": 2}',
    '[0, "nvsa", "0.1"]',
    '[null, "nvsa", 0.1]',
    '[0, ["nvsa"], 0.1]',
    '[0, "nvsa", true]',
    '[0.5, "nvsa", 0.1]',
    '[true, "nvsa", 0.1]',
)


class TestChunkReader:
    def test_valid_trace(self, tmp_path):
        _assert_same_reading(_trace(tmp_path, _rows(130)), (1, 2, 7, 64, 200))

    @pytest.mark.parametrize("position", range(6))
    @pytest.mark.parametrize("line", MISTYPED)
    def test_mistyped_line(self, tmp_path, line, position):
        lines = _rows()
        lines[position] = line + "\n"
        _assert_same_reading(_trace(tmp_path, lines))

    @pytest.mark.parametrize("position", range(6))
    @pytest.mark.parametrize("token", ("NaN", "Infinity", "-Infinity", "1e400"))
    def test_non_finite_arrival(self, tmp_path, token, position):
        lines = _rows()
        lines[position] = f'[{position}, "nvsa", {token}]\n'
        _assert_same_reading(_trace(tmp_path, lines))

    @pytest.mark.parametrize("position", (0, 1, 3, 6))
    @pytest.mark.parametrize("blank", ("\n", "   \n", "\t\n"))
    def test_blank_lines_are_skipped(self, tmp_path, blank, position):
        lines = _rows()
        lines[position:position] = [blank, blank]
        _assert_same_reading(_trace(tmp_path, lines))

    def test_integer_arrivals_stay_ints(self, tmp_path):
        lines = [
            f'[{index}, "nvsa", {arrival}]\n'
            for index, arrival in enumerate((0, 0.5, 1, 1, 2.5, 3))
        ]
        path = _trace(tmp_path, lines)
        _assert_same_reading(path)
        arrivals = list(RequestTrace(path).iter_chunks())[0][0]
        assert [type(value) for value in arrivals] == [
            int, float, int, int, float, int
        ]

    def test_integer_arrivals_beyond_float_precision(self, tmp_path):
        # 2**53 + 1 follows the float 2**53 in exact order, but not the
        # other way round; a float64 comparison sees a tie both ways.
        big = 2**53
        ordered = [f'[0, "nvsa", {float(big)}]\n', f'[1, "nvsa", {big + 1}]\n']
        _assert_same_reading(_trace(tmp_path, ordered))
        swapped = [f'[0, "nvsa", {big + 1}]\n', f'[1, "nvsa", {float(big)}]\n']
        _assert_same_reading(_trace(tmp_path, swapped))

    @pytest.mark.parametrize("position", (0, 1, 5))
    def test_integer_arrival_beyond_float_range(self, tmp_path, position):
        # The per-line reference lets math.isfinite's OverflowError escape;
        # the reader reports the row instead, after the same chunks.
        lines = _rows()
        lines[position] = f'[{position}, "nvsa", {10**400}]\n'
        path = _trace(tmp_path, lines)
        for chunk_size in (1, 2, 64):
            seen, error = _outcome(_reference_chunks(path, chunk_size))
            assert error[0] == "OverflowError"
            for block_lines in BLOCK_SIZES:
                with pytest.MonkeyPatch.context() as patch:
                    patch.setattr(trace, "_BLOCK_LINES", block_lines)
                    actual = _outcome(RequestTrace(path).iter_chunks(chunk_size))
                assert actual == (seen, (
                    "ServingError",
                    f"trace '{path}' has an arrival beyond float range at "
                    f"request {position}",
                ))

    @pytest.mark.parametrize("first_id", (2**63 - 2, 2**63, 2**64 + 5))
    def test_ids_beyond_int64(self, tmp_path, first_id):
        lines = [
            f'[{first_id + index}, "nvsa", {0.25 * index}]\n'
            for index in range(5)
        ]
        _assert_same_reading(_trace(tmp_path, lines))

    @pytest.mark.parametrize("line", (
        '[true, "nvsa", 0.5]', '[2, "nvsa", false]', '[2, true, 0.5]',
    ))
    def test_bools_are_no_numbers(self, tmp_path, line):
        lines = _rows()
        lines[2] = line + "\n"
        _assert_same_reading(_trace(tmp_path, lines))

    def test_equal_arrival_ties(self, tmp_path):
        tied = [f'[{index}, "nvsa", 0.5]\n' for index in range(5)]
        _assert_same_reading(_trace(tmp_path, tied))
        tied[3] = '[1, "nvsa", 0.5]\n'
        _assert_same_reading(_trace(tmp_path, tied))

    @pytest.mark.parametrize("position", range(1, 6))
    def test_order_breaks_within_and_across_chunks(self, tmp_path, position):
        lines = _rows()
        lines[position - 1], lines[position] = lines[position], lines[position - 1]
        _assert_same_reading(_trace(tmp_path, lines))

    def test_negative_arrival_and_unknown_workload(self, tmp_path):
        lines = _rows()
        lines[3] = '[3, "nvsa", -0.5]\n'
        _assert_same_reading(_trace(tmp_path, lines))
        lines[3] = '[3, "prae", 0.75]\n'
        _assert_same_reading(_trace(tmp_path, lines))
        lines[3] = '[3, "nvsa", -0.0]\n'
        lines[:3] = []
        _assert_same_reading(_trace(tmp_path, lines))

    def test_truncated_and_overlong(self, tmp_path):
        _assert_same_reading(_trace(tmp_path, _rows(), num_requests=9))
        _assert_same_reading(_trace(tmp_path, _rows(), num_requests=4))

    def test_two_rows_on_one_line_plus_a_split_row(self, tmp_path):
        # Three lines, three rows: a row count alone cannot tell this chunk
        # from a valid one.
        lines = [
            '[0, "nvsa", 0.0], [1, "nvsa", 0.25]\n',
            '[2, "nvsa",\n',
            '0.5]\n',
        ]
        path = _trace(tmp_path, lines, num_requests=3)
        _assert_same_reading(path)
        with pytest.raises(ServingError, match="malformed line near request 0"):
            list(RequestTrace(path).iter_chunks())

    def test_rows_misaligned_across_lines(self, tmp_path):
        # Two and four values: six values of the right types in order.
        lines = ['[0, "nvsa"]\n', '[0.25, 1, "nvsa", 0.5]\n']
        path = _trace(tmp_path, lines)
        _assert_same_reading(path)
        with pytest.raises(ServingError, match="malformed line"):
            list(RequestTrace(path).iter_chunks())

    def test_whitespace_and_layout_variants(self, tmp_path):
        lines = [
            '[0,"nvsa",0.0]\n',
            ' [1, "nvsa", 0.25]\n',
            '[2, "nvsa", 0.5] \n',
            '[ 3 , "nvsa" , 0.75 ]\r\n',
            '[4, "nvsa", 1.0]',  # no final newline
        ]
        _assert_same_reading(_trace(tmp_path, lines))

    def test_recorded_trace(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        record_process(
            path, PoissonArrivals(800.0, WorkloadMix.uniform()), 1.0, seed=5
        )
        _assert_same_reading(path, (1, 37, 64, 4096))


#: line edits the property draws from; each maps (lines, rng draws) -> lines
_TOKENS = (
    "0", "1", "-1", "2", "0.5", "1e400", "NaN", "Infinity", "true", "null",
    '"nvsa"', '"lvrf"', '"prae"', "[", "]", ",", " ", "{}", "[]",
)


@st.composite
def _edited_lines(draw):
    lines = _rows(draw(st.integers(min_value=0, max_value=9)))
    for _ in range(draw(st.integers(min_value=1, max_value=4))):
        kind = draw(st.sampled_from((
            "replace", "insert", "delete", "swap", "split", "join", "blank",
            "duplicate", "renumber",
        )))
        if not lines and kind != "insert":
            kind = "insert"
        index = draw(st.integers(min_value=0, max_value=max(len(lines) - 1, 0)))
        if kind in ("replace", "insert"):
            tokens = draw(st.lists(st.sampled_from(_TOKENS), max_size=9))
            line = "".join(tokens) + "\n"
            if kind == "replace":
                lines[index] = line
            else:
                lines.insert(index, line)
        elif kind == "delete":
            del lines[index]
        elif kind == "swap" and len(lines) > 1:
            other = draw(st.integers(min_value=0, max_value=len(lines) - 1))
            lines[index], lines[other] = lines[other], lines[index]
        elif kind == "split":
            line = lines[index]
            cut = draw(st.integers(min_value=0, max_value=len(line)))
            lines[index:index + 1] = [line[:cut] + "\n", line[cut:]]
        elif kind == "join" and len(lines) > 1 and index + 1 < len(lines):
            separator = draw(st.sampled_from((", ", ",", "", " ")))
            lines[index:index + 2] = [
                lines[index].rstrip("\n") + separator + lines[index + 1]
            ]
        elif kind == "blank":
            lines.insert(index, draw(st.sampled_from(("\n", "  \n"))))
        elif kind == "duplicate":
            lines.insert(index, lines[index])
        elif kind == "renumber":
            value = draw(st.sampled_from((0, 2**63, -3, 1.5, 10**20)))
            lines[index] = json.dumps([value, "nvsa", 0.25 * index]) + "\n"
    lines = [line if line.endswith("\n") else line + "\n" for line in lines]
    slack = draw(st.sampled_from((0, 0, 0, 1, -1)))
    return lines, slack


class TestChunkReaderProperty:
    @settings(max_examples=300, deadline=None)
    @given(edit=_edited_lines())
    def test_random_line_edits_read_like_the_per_line_loop(
        self, tmp_path_factory, edit
    ):
        lines, slack = edit
        count = sum(1 for line in lines if line.strip()) + slack
        if count < 1:
            return  # a header without totals: read_header rejects it first
        tmp_path = tmp_path_factory.mktemp("edit")
        _assert_same_reading(
            _trace(tmp_path, lines, num_requests=count), (1, 2, 3, 64)
        )


def _written(path, writer, requests, source):
    """``(file bytes, None)``, or ``(None, error message)``."""
    try:
        writer(path, requests, source)
    except ServingError as error:
        return None, str(error)
    return path.read_bytes(), None


def _write_both(tmp_path, make_requests, source=None):
    """What the reference writer writes, and ``write_trace`` at each block
    size; each is given a fresh ``make_requests()``."""
    expected = _written(
        tmp_path / "reference.jsonl", _reference_write, make_requests(), source
    )
    for block_lines in BLOCK_SIZES:
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(trace, "_BLOCK_LINES", block_lines)
            actual = _written(
                tmp_path / "actual.jsonl", write_trace, make_requests(), source
            )
        assert actual == expected, block_lines
    return expected


class TestColumnarWriter:
    def test_request_stream(self, tmp_path):
        stream = PoissonArrivals(900.0, WorkloadMix.uniform()).generate(
            2.0, seed=11
        )
        body, _ = _write_both(tmp_path, lambda: stream, {"origin": "unit-test"})
        assert body is not None

    def test_request_list_with_int_arrivals(self, tmp_path):
        requests = [
            Request(0, "nvsa", 0),
            Request(1, "lvrf", 2),
            Request(2, "nvsa", 2.5),
            Request(7, "nvsa", 3),
        ]
        body, _ = _write_both(tmp_path, lambda: requests)
        assert b'[1, "lvrf", 2]\n' in body

    @pytest.mark.parametrize("block_lines", BLOCK_SIZES)
    def test_windowed_record_process(self, tmp_path, monkeypatch, block_lines):
        monkeypatch.setattr(trace, "_BLOCK_LINES", block_lines)
        process = PoissonArrivals(700.0, WorkloadMix.uniform())
        duration_s, seed, window_s = 2.0, 3, 0.3
        record_process(
            tmp_path / "actual.jsonl", process, duration_s, seed=seed,
            window_s=window_s,
        )

        def windows():
            # The per-request stream the recorder used to write.
            offset, start_id, window = 0.0, 0, 0
            while offset < duration_s:
                span = min(window_s, duration_s - offset)
                generated = process.generate(
                    span, seed=seed * SEED_STRIDE + window, start_s=offset,
                    start_id=start_id,
                )
                yield from generated
                start_id += len(generated)
                offset += span
                window += 1

        _reference_write(
            tmp_path / "reference.jsonl", windows(),
            source={
                "process": "PoissonArrivals", "duration_s": duration_s,
                "seed": seed, "window_s": window_s,
            },
        )
        assert (tmp_path / "actual.jsonl").read_bytes() == (
            tmp_path / "reference.jsonl"
        ).read_bytes()

    @pytest.mark.parametrize("requests", (
        [Request(0, "nvsa", 1.0), Request(1, "nvsa", 0.5)],
        [Request(5, "nvsa", 0.1), Request(5, "nvsa", 0.2)],
        [Request(0, "nvsa", 0.1), Request(2, "nvsa", 0.1), Request(1, "nvsa", 0.1)],
        [Request(-1, "nvsa", 0.1)],
        [Request(0, "nvsa", 0.1), Request(1, "nvsa", 0.2), Request(0, "nvsa", 0.3)],
    ))
    def test_out_of_order_rejection(self, tmp_path, requests):
        _, error = _write_both(tmp_path, lambda: requests)
        assert "violated near request" in error

    @pytest.mark.parametrize("make_requests", (
        list,
        lambda: iter(()),
        lambda: PoissonArrivals(1.0, WorkloadMix.uniform()).generate(
            1e-9, seed=0
        ),
    ), ids=("list", "iterator", "stream"))
    def test_empty_rejection(self, tmp_path, make_requests):
        assert _write_both(tmp_path, make_requests) == (
            None, "refusing to record an empty request trace"
        )


class TestReplayRejections:
    """Rows the reader accepts or rejects replay alike, sharded or not."""

    @pytest.mark.parametrize("shards", ("1", "2"))
    def test_integer_arrival_beyond_float_range_exits_2(
        self, tmp_path, capsys, shards
    ):
        lines = _rows(19) + [f'[19, "nvsa", {10**400}]\n']
        path = _trace(tmp_path, lines)
        code = main([
            "serve", "--trace", str(path), "--chips", "4",
            "--router", "round_robin", "--shards", shards,
        ])
        assert code == 2
        assert capsys.readouterr().err.splitlines() == [
            f"error: trace '{path}' has an arrival beyond float range at "
            "request 19"
        ]

    def test_ids_beyond_int64_replay_unsharded_and_refuse_to_shard(
        self, tmp_path, capsys
    ):
        lines = [
            f'[{2**63 + index}, "nvsa", {0.25 * index}]\n'
            for index in range(20)
        ]
        path = _trace(tmp_path, lines)
        argv = [
            "serve", "--trace", str(path), "--chips", "4",
            "--router", "round_robin",
        ]
        assert main(argv) == 0
        capsys.readouterr()
        assert main([*argv, "--shards", "2"]) == 2
        assert capsys.readouterr().err.splitlines() == [
            f"error: request id {2**63} is outside the int64 range a sharded "
            "run needs; run with one shard"
        ]
