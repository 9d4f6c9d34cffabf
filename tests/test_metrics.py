import io
import math
import re

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rtosim.metrics import (
    DIVERGENCE_FACTOR,
    EVENT_KINDS,
    FC_EPSILON,
    FC_MIN_RETRANS_RATE,
    FC_WINDOW,
    TRACE_HEADER,
    VERDICT_BOUNDED,
    VERDICT_DIVERGED,
    VERDICT_FALSE_CONVERGED,
    SummaryReport,
    read_trace,
    summarize,
    write_summary,
    write_trace,
)
from rtosim.config import build_scenario
from rtosim.scenarios import run_scenario
from rtosim.sim import TICKS_PER_SECOND, format_ticks


def row(time_ticks, event, packet_id=1, copy=1, e=1.0, v=0.0,
        interval=4.0, retry=0):
    return (time_ticks, event, packet_id, copy, e, v, interval, retry)


def delivery_rows(packet_id, at, e=1.0, retransmitted=False):
    """send [+retransmit] +ack +estimate_update block for one packet."""
    out = [row(at, "send", packet_id)]
    if retransmitted:
        out.append(row(at + 100, "retransmit", packet_id, copy=2, e=e))
    out.append(row(at + 200, "ack", packet_id, e=e))
    out.append(row(at + 200, "estimate_update", packet_id, copy=0, e=e))
    return out


# -- serialization ----------------------------------------------------------

def test_trace_header_and_row_formatting():
    buffer = io.StringIO()
    write_trace([row(1_500_000, "send", 3, 1, 1.0, 0.25, 4.0, 2)], buffer)
    lines = buffer.getvalue().splitlines()
    assert lines[0] == ("time,event,packet_id,copy,estimate_e,estimate_v,"
                        "timeout_interval,retry_count")
    assert lines[1] == "1.500000,send,3,1,1.000000,0.250000,4.000000,2"


def test_trace_file_round_trip(tmp_path):
    rows = [row(0, "send"), row(1_000_000, "ack", e=1.25),
            row(1_000_000, "estimate_update", copy=0, e=1.125)]
    path = tmp_path / "trace.csv"
    write_trace(rows, path)
    assert read_trace(path) == rows


def test_read_trace_rejects_foreign_headers():
    with pytest.raises(ValueError, match="header"):
        read_trace(io.StringIO("time,event\n"))


def test_read_trace_rejects_short_rows():
    text = TRACE_HEADER + "\n0.000000,send,1,1\n"
    with pytest.raises(ValueError, match="8 fields"):
        read_trace(io.StringIO(text))


def test_read_trace_rejects_unknown_events():
    text = TRACE_HEADER + "\n0.000000,warp,1,1,1.000000,0.000000,4.000000,0\n"
    with pytest.raises(ValueError, match="warp"):
        read_trace(io.StringIO(text))


def test_read_trace_rejects_a_seventh_decimal():
    # no tick count writes as 0.0000019 s; it used to read as 1 tick
    text = TRACE_HEADER + "\n0.0000019,send,1,1,1.000000,0.000000,4.000000,0\n"
    with pytest.raises(ValueError, match=r"^line 2: bad time '0.0000019'"):
        read_trace(io.StringIO(text))


@pytest.mark.parametrize("time", ["\u0663.000000", "1.\u0663", "\u00b2.000000",
                                  "1.00000\u0663"])
def test_read_trace_rejects_a_non_ascii_digit_in_the_time(time):
    # int() reads U+0663 (ARABIC-INDIC DIGIT THREE) as 3; write_trace never
    # writes it, and the superscript two used to fail with a bare int() error
    text = TRACE_HEADER + f"\n{time},send,1,1,1.000000,0.000000,4.000000,0\n"
    with pytest.raises(ValueError, match=r"^line 2: bad time"):
        read_trace(io.StringIO(text))


@pytest.mark.parametrize("time", ["1", "1.", "1.5", "01.000000",
                                  "-0.000000", "-01.000000", "-1.5"])
def test_read_trace_accepts_only_the_time_form_format_ticks_writes(time):
    # format_ticks always writes six decimals, no leading zero and no -0;
    # these used to read as 1 s, 1 s, 1.5 s, 1 s, 0, -1 s and -1.5 s
    good = "0.000000,send,1,1,1.000000,0.000000,4.000000,0\n"
    text = TRACE_HEADER + "\n" + good + \
        f"{time},send,1,1,1.000000,0.000000,4.000000,0\n"
    with pytest.raises(ValueError,
                       match="^line 3: bad time " + re.escape(repr(time))):
        read_trace(io.StringIO(text))


@pytest.mark.parametrize("time", ["0.000000", "10.000001", "1.500000",
                                  "-1.000000", "-0.000001"])
def test_read_trace_reads_each_time_form_format_ticks_writes(time):
    line = f"{time},send,1,1,1.000000,0.000000,4.000000,0\n"
    ((time_ticks, *_),) = read_trace(io.StringIO(TRACE_HEADER + "\n" + line))
    assert format_ticks(time_ticks) == time


def test_read_trace_names_the_line_of_a_bad_number():
    good = "0.000000,send,1,1,1.000000,0.000000,4.000000,0\n"
    text = TRACE_HEADER + "\n" + good + good.replace("4.000000", "x")
    with pytest.raises(ValueError, match=r"^line 3: could not convert"):
        read_trace(io.StringIO(text))


_GOOD_FIELDS = ["1.000000", "send", "1", "1", "1.000000", "0.000000",
                "4.000000", "3"]


@pytest.mark.parametrize("column, text", [
    (2, "1_0"), (2, "\u0663"), (3, " +2"), (3, "+2"),
    (7, "3 "), (7, "\u0663"), (4, "1e3"), (4, "1.0"), (4, "1.0000000"),
    (4, "\u0663.000000"), (5, "-nan"), (6, "Infinity"), (6, " inf"),
])
def test_read_trace_accepts_only_the_forms_write_trace_writes(column, text):
    # int() and float() take underscores, signs, spaces, exponents, other
    # spellings of inf and nan, and non-ASCII digits; write_trace writes
    # none of them
    fields = list(_GOOD_FIELDS)
    fields[column] = text
    line = ",".join(fields)
    with pytest.raises(ValueError, match=r"^line 2: "):
        read_trace(io.StringIO(TRACE_HEADER + "\n" + line + "\n"))


@pytest.mark.parametrize("bad, message", [
    ("1.000000,send,1,1,1.000000,0.000000,4.000000\n",
     "expected 8 fields, got 7"),
    ("1.000000,warp,1,1,1.000000,0.000000,4.000000,3\n",
     "unknown event kind 'warp'"),
    ("1.000000,send,1,1,1.000000,0.000000,x,3\n",
     "could not convert string to float: 'x'"),
], ids=["seven fields", "unknown kind", "bad number"])
def test_read_trace_names_the_line_after_three_good_rows(bad, message):
    # the header is line 1, so the row after three good ones is line 5
    good = ",".join(_GOOD_FIELDS) + "\n"
    text = TRACE_HEADER + "\n" + good * 3 + bad
    with pytest.raises(ValueError, match="^line 5: " + re.escape(message)):
        read_trace(io.StringIO(text))


@pytest.mark.parametrize("ending", ["\r\n", "\r"], ids=["crlf", "cr"])
def test_a_path_and_a_file_object_refuse_a_foreign_line_ending_alike(
        tmp_path, ending):
    # write_trace ends each line with "\n" alone, and a path is opened
    # with no newline translation, so it reads as a StringIO does
    row_text = ",".join(_GOOD_FIELDS)
    path = tmp_path / "trace.csv"
    for text, message in (
            (TRACE_HEADER + ending + row_text + ending, "header"),
            (TRACE_HEADER + "\n" + row_text + ending, "^line 2: ")):
        path.write_bytes(text.encode("ascii"))
        for source in (path, io.StringIO(text)):
            with pytest.raises(ValueError, match=message):
                read_trace(source)


_INT_COLUMNS, _FLOAT_COLUMNS = (2, 3, 7), (4, 5, 6)
_LEADING_ZEROS = [
    (column, text) for column in _INT_COLUMNS
    for text in ("007", "00", "-0", "-07")] + [
    (column, text) for column in _FLOAT_COLUMNS
    for text in ("01.500000", "00.000000", "-00.000000", "-01.500000")]


@pytest.mark.parametrize("column, text", _LEADING_ZEROS,
                         ids=[f"{text}-{column}"
                              for column, text in _LEADING_ZEROS])
def test_read_trace_rejects_a_leading_zero_and_minus_zero(column, text):
    # write_trace writes none of them; they used to read as 7, 0, 0, -7,
    # 1.5, 0.0, -0.0 and -1.5
    good = ",".join(_GOOD_FIELDS) + "\n"
    fields = list(_GOOD_FIELDS)
    fields[column] = text
    bad = ",".join(fields) + "\n"
    # the last column's text keeps the line's newline
    message = ("invalid literal for int\\(\\) with base 10: "
               if column in _INT_COLUMNS
               else "could not convert string to float: ")
    with pytest.raises(ValueError,
                       match="^line 3: " + message + "'" + re.escape(text)):
        read_trace(io.StringIO(TRACE_HEADER + "\n" + good + bad))


def test_read_trace_rejects_the_forms_int_and_float_used_to_accept():
    text = TRACE_HEADER + "\n1.000000,send,1_0, +2,1e3,0.000000,Infinity,3\n"
    with pytest.raises(ValueError, match=r"^line 2: "):
        read_trace(io.StringIO(text))


def test_read_trace_shares_kinds_and_repeated_values():
    # the interval column flips as in a window-1 run: a SEND row is
    # recorded before its timer starts
    rows = [row(0, "send", 1000, interval=0.0),
            row(1, "ack", 1000, e=2.5, interval=4.5),
            row(1, "estimate_update", 1000, copy=0, e=2.5, interval=4.5),
            row(1, "send", 1001, e=2.5, interval=0.0),
            row(2, "ack", 1001, e=2.5, interval=4.5)]
    buffer = io.StringIO()
    write_trace(rows, buffer)
    buffer.seek(0)
    read = read_trace(buffer)
    assert read == rows
    assert all(any(event is kind for kind in EVENT_KINDS)
               for _, event, *_ in read)
    # ids above 256 are not interned by the interpreter
    assert read[0][2] is read[1][2] is read[2][2]  # packet_id
    assert read[1][4] is read[2][4] is read[3][4]  # estimate_e
    # timeout_interval: the two texts it flips between are two objects
    assert read[0][6] is read[3][6]
    assert read[1][6] is read[2][6] is read[4][6]
    assert len({id(interval) for *_, interval, _ in read}) == 2


def reference_trace(rows):
    """write_trace's bytes, built field by field."""
    return "".join(
        ",".join((format_ticks(time_ticks), event, str(packet_id), str(copy),
                  f"{e:.6f}", f"{v:.6f}", f"{interval:.6f}", str(retry)))
        + "\n"
        for time_ticks, event, packet_id, copy, e, v, interval, retry in rows)


_counts = st.integers(min_value=-2 ** 63, max_value=2 ** 63)
_estimates = st.one_of(
    st.sampled_from([0.0, -0.0, math.inf, -math.inf, math.nan, 1e300, 0.5]),
    st.floats())
trace_rows = st.tuples(
    st.integers(min_value=-10 ** 15, max_value=10 ** 15),
    st.sampled_from(sorted(EVENT_KINDS)), _counts, _counts, _estimates,
    _estimates, _estimates, _counts)


@given(st.lists(trace_rows, max_size=20))
def test_trace_codec_matches_the_per_field_formatter(rows):
    buffer = io.StringIO()
    write_trace(rows, buffer)
    text = buffer.getvalue()
    assert text == TRACE_HEADER + "\n" + reference_trace(rows)
    rewritten = io.StringIO()
    write_trace(read_trace(io.StringIO(text)), rewritten)
    assert rewritten.getvalue() == text


def test_write_summary_key_value_layout():
    report = SummaryReport(
        packets_offered=2, packets_delivered=2, total_copies_sent=3,
        duplicates_received=1, timeout_count=1, drop_count_per_node=[0, 1],
        elapsed_ticks=2_500_000, throughput=0.8, final_e=1.5, max_e=2.0,
        verdict="Bounded", class_label="I")
    buffer = io.StringIO()
    write_summary(report, buffer)
    assert buffer.getvalue() == (
        "packets_offered=2\npackets_delivered=2\ntotal_copies_sent=3\n"
        "duplicates_received=1\ntimeout_count=1\ndrop_count_per_node=0,1\n"
        "elapsed=2.500000\nthroughput=0.800000\nfinal_e=1.500000\n"
        "max_e=2.000000\nverdict=Bounded\nclass=I\n")
    assert report.elapsed_seconds == 2.5


def per_row_trace(rows):
    """write_trace's bytes by its earlier formula: one `%` format of every
    column of every row, with no text carried over from the row before."""
    lines = [TRACE_HEADER + "\n"]
    for time_ticks, event, packet_id, copy, e, v, interval, retry in rows:
        whole, frac = divmod(abs(time_ticks), TICKS_PER_SECOND)
        lines.append(("-" if time_ticks < 0 else "")
                     + "%d.%06d,%s,%d,%d,%.6f,%.6f,%.6f,%d\n"
                     % (whole, frac, event, packet_id, copy, e, v, interval,
                        retry))
    return "".join(lines)


#: floats that read back as themselves; nan loses its sign, as "%.6f"
#: writes every nan as "nan"
_EXACT_FLOATS = st.one_of(
    st.sampled_from([0.0, -0.0, math.nan, math.inf, -math.inf]),
    st.integers(-2 ** 52, 2 ** 52).map(lambda k: k / 64))
_REPEATS = st.sampled_from(["same", "two back", "equal", "negated",
                            "fresh"])
#: (column, fresh values) of each column that repeating_rows repeats
_REPEATED_COLUMNS = ((0, st.integers(-10 ** 13, 10 ** 13)), (2, _counts),
                     (4, _EXACT_FLOATS), (5, _EXACT_FLOATS),
                     (6, _EXACT_FLOATS), (7, _counts))


@st.composite
def repeating_rows(draw):
    """Rows whose time, packet id, float and retry columns each hold the
    previous row's object, the object of the row two back (as the
    interval column flips between two objects), an equal value in a
    distinct object, the previous value negated (so -0.0 follows 0.0, and
    -inf inf), or a fresh value."""
    rows = []
    for _ in range(draw(st.integers(0, 30))):
        columns = {}
        for index, fresh in _REPEATED_COLUMNS:
            how = draw(_REPEATS) if rows else "fresh"
            if how == "two back" and len(rows) < 2:
                how = "same"
            previous = rows[-1][index] if rows else None
            if how == "same":
                columns[index] = previous
            elif how == "two back":
                columns[index] = rows[-2][index]
            elif how == "equal":  # a distinct object, as read_trace makes
                columns[index] = type(previous)(repr(previous))
            elif how == "negated":
                columns[index] = -previous
            else:
                columns[index] = draw(fresh)
        rows.append((
            columns[0], draw(st.sampled_from(sorted(EVENT_KINDS))),
            columns[2], draw(_counts), columns[4], columns[5], columns[6],
            columns[7]))
    return rows


def window_1_rows(idle, armed, later_idle=None):
    """SEND, ACK, ESTIMATE_UPDATE, SEND and ACK rows as a window-1 run
    records them: a SEND row is recorded before its timer starts, so the
    interval column holds idle, armed, armed, later_idle (idle by
    default) and armed, the same two or three objects throughout."""
    later_idle = idle if later_idle is None else later_idle
    first, second = 10 ** 6, 10 ** 6 + 1  # ids past the small-int cache
    e, v = 1.5, 0.25
    return [(0, "send", first, 1, e, v, idle, 0),
            (5, "ack", first, 1, e, v, armed, 0),
            (5, "estimate_update", first, 0, e, v, armed, 0),
            (5, "send", second, 1, e, v, later_idle, 0),
            (9, "ack", second, 1, e, v, armed, 0)]


@settings(max_examples=200)
@example(window_1_rows(0.0, 4.25))
@example(window_1_rows(0.0, 4.25, -0.0))
@example(window_1_rows(0.0, math.nan))
@given(repeating_rows())
def test_trace_codec_is_the_per_row_formula_over_repeated_objects(rows):
    buffer = io.StringIO()
    write_trace(rows, buffer)
    assert buffer.getvalue() == per_row_trace(rows)
    buffer.seek(0)
    # repr tells -0.0 from 0.0 and matches nan to nan
    assert [repr(row) for row in read_trace(buffer)] == \
        list(map(repr, rows))


# -- verdict ----------------------------------------------------------------

def test_divergence_on_the_geometric_trajectory():
    # fig3's estimate first passes 100x the true delay at step five
    four, five = (run_scenario(build_scenario(
        {"scenario": "fig3", "packets": str(packets)})).summary
        for packets in (4, 5))
    assert (four.max_e, four.verdict) == (51.75, "Bounded")
    assert (five.max_e, five.verdict) == (129.875, "Diverged")


def test_divergence_ignores_bounded_trajectories():
    rows = [r for pid in range(1, 51) for r in delivery_rows(pid, pid * 1000)]
    assert summarize(rows, true_rtt=1.0).verdict == "Bounded"
    # only an estimate strictly past 100x the true delay diverges
    rows[-1] = (*rows[-1][:4], 100.0, *rows[-1][5:])
    assert summarize(rows, true_rtt=1.0).max_e == 100.0
    assert summarize(rows, true_rtt=1.0).verdict == "Bounded"
    rows[-1] = (*rows[-1][:4], 100.000001, *rows[-1][5:])
    assert summarize(rows, true_rtt=1.0).verdict == "Diverged"


def test_false_convergence_wants_low_tail_and_duplicates():
    def verdict(tail, retransmitted=20):
        """One delivery per estimate; the first `retransmitted` packets
        are sent twice."""
        rows = [r for pid, e in enumerate(tail, start=1)
                for r in delivery_rows(pid, pid * 1000, e=e,
                                       retransmitted=pid <= retransmitted)]
        return summarize(rows, true_rtt=15.0).verdict

    assert verdict([5.0] * 20) == "FalseConverged"
    # at least 10 acks
    assert verdict([5.0] * 10) == "FalseConverged"
    assert verdict([5.0] * 9) == "Bounded"
    # every one of the trailing 10 estimates below 0.8 x 15 = 12
    assert verdict([15.0] * 20) == "Bounded"
    assert verdict([5.0] * 19 + [12.0]) == "Bounded"
    assert verdict([5.0] * 10 + [11.999999] * 10) == "FalseConverged"
    assert verdict([15.0] * 10 + [5.0] * 10) == "FalseConverged"
    assert verdict([5.0] * 10 + [15.0] + [5.0] * 9) == "Bounded"
    # at least one retransmission per two delivered packets
    assert verdict([5.0] * 20, retransmitted=10) == "FalseConverged"
    assert verdict([5.0] * 20, retransmitted=9) == "Bounded"


def test_a_nan_estimate_takes_no_part_in_the_peak():
    def reread(estimates):
        """A written and re-read send, ack, update trace with these
        estimates."""
        buffer = io.StringIO()
        write_trace([row(0, "send", e=estimates[0]),
                     row(1_000_000, "ack", e=estimates[1]),
                     row(1_000_000, "estimate_update", copy=0,
                         e=estimates[2])], buffer)
        return summarize(read_trace(io.StringIO(buffer.getvalue())), 1.0)

    # a NaN first row hides no later peak
    for first in (math.nan, 1.0):
        report = reread([first, math.nan, 500.0])
        assert (report.max_e, report.verdict) == (500.0, "Diverged")
    assert reread([1.0, math.nan, 2.0]).max_e == 2.0
    assert math.isnan(reread([math.nan] * 3).max_e)


@pytest.mark.parametrize("true_rtt", [math.nan, math.inf, -math.inf, 0.0,
                                      -1.0])
def test_summarize_rejects_a_non_finite_or_non_positive_true_rtt(true_rtt):
    rows = run_scenario(build_scenario({"scenario": "fig3"})).rows
    with pytest.raises(ValueError, match=re.escape(f"got {true_rtt}")):
        summarize(rows, true_rtt)


# -- summarize --------------------------------------------------------------

def test_summarize_counts_a_tiny_run():
    rows = delivery_rows(1, 0, retransmitted=True) + delivery_rows(2, 1000)
    report = summarize(rows, true_rtt=1.0)
    assert report.packets_offered == 2
    assert report.packets_delivered == 2
    assert report.total_copies_sent == 3
    # both copies of packet 1 landed: one duplicate
    assert report.duplicates_received == 1
    assert report.verdict == "Bounded"
    assert report.throughput == pytest.approx(2 / report.elapsed_seconds)


def test_summarize_drop_cancels_duplicate():
    rows = [row(0, "send", 1),
            row(50, "drop", 1, copy=1, retry=0),  # retry column: node index
            row(400, "timeout", 0, copy=0),
            row(400, "retransmit", 1, copy=2),
            *delivery_rows(1, 600)[1:]]
    report = summarize(rows, true_rtt=1.0)
    assert report.duplicates_received == 0
    assert report.drop_count_per_node == [1]
    assert report.timeout_count == 1


def test_summarize_verdict_precedence_diverged_wins():
    rows = []
    at = 0
    # an early excursion past 100x the true delay...
    rows += delivery_rows(1, at, e=500.0, retransmitted=True)
    # ...followed by a long falsely-convergent-looking tail
    for pid in range(2, 15):
        at += 1000
        rows += delivery_rows(pid, at, e=0.5, retransmitted=True)
    report = summarize(rows, true_rtt=1.0)
    assert report.verdict == "Diverged"


def test_summarize_rejects_malformed_traces():
    with pytest.raises(ValueError):
        summarize([], 1.0)
    with pytest.raises(ValueError):
        summarize([row(100, "send"), row(0, "ack")], 1.0)
    with pytest.raises(ValueError):
        summarize([row(0, "retransmit", copy=1)], 1.0)
    trace = [row(0, "send", 1), row(10, "ack", 1),
             row(10, "estimate_update", 1, copy=0), row(20, "send", 2),
             row(30, "timeout", 2), row(30, "retransmit", 2, copy=2)]
    # an unknown kind is refused wherever it stands: first, while the
    # updates after an ack are read, after a send, and last
    for at in (0, 2, 4, len(trace)):
        bad = trace[:at] + [row(trace[max(at - 1, 0)][0], "bogus")] + trace[at:]
        with pytest.raises(ValueError, match="unknown event kind 'bogus'"):
            summarize(bad, 1.0)
    # out of time order as well: the kind is named first
    with pytest.raises(ValueError, match="unknown event kind 'bogus'"):
        summarize(trace + [row(5, "bogus")], 1.0)
    with pytest.raises(ValueError, match="time order"):
        summarize(trace + [row(5, "disconnect")], 1.0)
    # a disconnect row is a known kind that counts nothing
    assert summarize(trace + [row(30, "disconnect", 2)], 1.0) == \
        summarize(trace, 1.0)


def test_summarize_rejects_out_of_order_update_rows():
    rows = [row(0, "send", 1),
            row(200, "ack", 1),
            row(100, "estimate_update", 1, copy=0),  # earlier than its ack
            row(300, "send", 2)]
    with pytest.raises(ValueError, match="time order"):
        summarize(rows, 1.0)


def test_summarize_records_each_ambiguous_ack_once():
    rows = [
        row(0, "send", 1, e=1.0),
        row(10, "send", 2, e=1.0),
        row(100, "retransmit", 1, copy=2, e=1.0),
        # covers retransmitted packet 1 and fresh packet 2: one entry
        row(200, "ack", 2, copy=1, e=1.0000004),
        row(200, "estimate_update", 2, copy=0, e=1.5),
        row(200, "estimate_update", 2, copy=0, e=1.75),
        # duplicate ack: covers nothing new
        row(300, "ack", 2, copy=2, e=1.75),
        row(300, "estimate_update", 2, copy=0, e=2.0),
        # covers only a packet sent once
        row(400, "send", 3, e=2.0),
        row(500, "ack", 3, e=2.0),
        row(500, "estimate_update", 3, copy=0, e=2.25),
    ]
    report = summarize(rows, 1.0)
    # estimates are read rounded to 6 places; the after-value is the
    # last update that follows the ack
    assert report.ambiguous_acks == [(1.0, 1.75)]
    assert report.class_label == "I"
    assert report.as_lines()[-1] == "class=I"


def reference_counts(rows, true_rtt):
    """summarize's duplicates, ambiguous acks and verdict by per-packet
    formulas: each sent packet's copies less its drops less one, floored
    at zero, a range scan over every newly covered packet of each ack, and
    the false-convergence test over a list of every ack's estimate after
    it."""
    copies_sent, drops_by_packet = {}, {}
    cumulative = retransmits = 0
    ack_estimates, ambiguous = [], []
    reading_updates = False
    for _, event, packet_id, _, estimate_e, _, _, _ in rows:
        if event == "estimate_update":
            if reading_updates:
                ack_estimates[-1] = estimate_e
            continue
        reading_updates = False
        if event == "send":
            copies_sent[packet_id] = 1
        elif event == "ack":
            reading_updates = True
            ack_estimates.append(estimate_e)
            if packet_id > cumulative:
                for pid in range(cumulative + 1, packet_id + 1):
                    if copies_sent.get(pid, 0) >= 2:
                        ambiguous.append((estimate_e, len(ack_estimates) - 1))
                        break
                cumulative = packet_id
        elif event == "retransmit":
            retransmits += 1
            copies_sent[packet_id] = copies_sent.get(packet_id, 0) + 1
        elif event == "drop":
            drops_by_packet[packet_id] = drops_by_packet.get(packet_id, 0) + 1
    duplicates = sum(max(0, count - drops_by_packet.get(pid, 0) - 1)
                     for pid, count in copies_sent.items())
    if round(max(row[4] for row in rows), 6) > DIVERGENCE_FACTOR * true_rtt:
        verdict = VERDICT_DIVERGED
    elif (cumulative > 0 and len(ack_estimates) >= FC_WINDOW
          and retransmits / cumulative >= FC_MIN_RETRANS_RATE
          and all(round(e, 6) < true_rtt * (1.0 - FC_EPSILON)
                  for e in ack_estimates[-FC_WINDOW:])):
        verdict = VERDICT_FALSE_CONVERGED
    else:
        verdict = VERDICT_BOUNDED
    return duplicates, [(round(before, 6), round(ack_estimates[index], 6))
                        for before, index in ambiguous], verdict


#: every kind, with acks and retransmits drawn more often, so that traces
#: of FC_WINDOW acks or more, with as many retransmits, are common
COUNTED_EVENTS = sorted(EVENT_KINDS) + ["ack"] * 4 + ["retransmit"] * 2


@st.composite
def counted_rows(draw):
    """Rows in time order over a few packet ids, any event at any point:
    sends that reset a packet's count, retransmits and drops of packets
    never sent, more drops than copies, acks that cover many packets at
    once or none (duplicates)."""
    rows = []
    time_ticks = 0
    for _ in range(draw(st.integers(1, 40))):
        time_ticks += draw(st.integers(0, 2))
        event = draw(st.sampled_from(COUNTED_EVENTS))
        copy = draw(st.integers(2, 4) if event == "retransmit"
                    else st.integers(0, 3))
        rows.append((time_ticks, event, draw(st.integers(0, 12)), copy,
                     draw(st.integers(0, 2 ** 20)) / 64, 0.0, 4.0,
                     draw(st.integers(0, 2))))
    return rows


#: true delays against counted_rows' estimates (0 to 16,384): one that
#: most traces diverge from, one that none diverge from and whose
#: false-convergence bound about one estimate in eight exceeds, so which
#: estimate follows each ack decides the verdict, and one that every
#: estimate sits below
TRUE_RTTS = (1.0, 18000.0, 2.0 ** 20)


def _rows(*events):
    """(event, packet_id) pairs as rows one tick apart, each with its own
    estimate, retransmits as copy 2."""
    return [(at, event, packet_id, 2 if event == "retransmit" else 1,
             1.0 + at, 0.0, 4.0, 0)
            for at, (event, packet_id) in enumerate(events)]


def _delivered_twice(packets):
    """send, retransmit and ack of each of packets 1..packets in turn."""
    return [(event, packet_id) for packet_id in range(1, packets + 1)
            for event in ("send", "retransmit", "ack")]


@settings(max_examples=300)
@example(_rows(("send", 1), ("retransmit", 1), ("send", 1), ("ack", 1)), 1.0)
@example(_rows(("retransmit", 3), ("retransmit", 3), ("drop", 5),
               ("ack", 4), ("estimate_update", 4)), 1.0)
@example(_rows(("send", 1), ("retransmit", 1), ("drop", 1), ("drop", 1),
               ("drop", 1), ("ack", 1)), 1.0)
@example(_rows(("send", 1), ("send", 2), ("retransmit", 2), ("send", 3),
               ("ack", 3), ("estimate_update", 3), ("estimate_update", 3)),
         1.0)
@example(_rows(("send", 1), ("retransmit", 1), ("ack", 1), ("ack", 1),
               ("estimate_update", 1), ("ack", 0)), 1.0)
@example(_rows(("send", 1), ("send", 2), ("send", 3), ("retransmit", 3),
               ("ack", 3), ("estimate_update", 3)), 1.0)
# sends below the first id sent, one retransmitted and dropped, one
# retransmitted and then sent again, which resets its count
@example(_rows(("send", 3), ("send", 1), ("retransmit", 1), ("drop", 1),
               ("retransmit", 1), ("send", 2), ("retransmit", 2),
               ("send", 2), ("ack", 2), ("ack", 3), ("estimate_update", 3)),
         1.0)
# retransmits of never-sent ids, one just past the ids sent in order, which
# a later send takes in, and one far past them
@example(_rows(("send", 1), ("retransmit", 2), ("retransmit", 2),
               ("retransmit", 40), ("retransmit", 40), ("drop", 40),
               ("ack", 1), ("ack", 2), ("estimate_update", 2), ("send", 2),
               ("retransmit", 2), ("send", 3), ("ack", 40)), 1.0)
# negative ids, sent in order up to 1; acks cover only positive ids
@example(_rows(("send", -2), ("send", -1), ("retransmit", -2), ("drop", -2),
               ("send", 0), ("send", 1), ("retransmit", 1), ("ack", -1),
               ("ack", 1), ("retransmit", -5), ("drop", -5)), 1.0)
# FC_WINDOW - 1 acks low enough to be false convergence, then FC_WINDOW
@example(_rows(*_delivered_twice(FC_WINDOW - 1)), 2.0 ** 20)
@example(_rows(*_delivered_twice(FC_WINDOW)), 2.0 ** 20)
# updates after a timeout at the tail follow no ack: the estimate after
# the last ack (31.0) is below 0.8 of the true delay (32.0), theirs are not
@example(_rows(*_delivered_twice(FC_WINDOW), ("estimate_update", FC_WINDOW),
               ("timeout", FC_WINDOW), ("estimate_update", FC_WINDOW),
               ("estimate_update", FC_WINDOW)), 40.0)
# the update after the last ack lifts the estimate after it (31.0) above
# 0.8 of the true delay (30.8), though the ACK row's own (30.0) is below
@example(_rows(*_delivered_twice(FC_WINDOW), ("estimate_update", FC_WINDOW)),
         38.5)
@given(counted_rows(), st.sampled_from(TRUE_RTTS))
def test_summarize_counts_match_the_per_packet_reference(rows, true_rtt):
    report = summarize(rows, true_rtt)
    assert (report.duplicates_received, report.ambiguous_acks,
            report.verdict) == reference_counts(rows, true_rtt)


def test_summarize_matches_file_recomputation():
    result = run_scenario(build_scenario({"scenario": "fig3", "packets": "6"}))
    buffer = io.StringIO()
    write_trace(result.rows, buffer)
    buffer.seek(0)
    assert summarize(read_trace(buffer), 1.0) == result.summary
