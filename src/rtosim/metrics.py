"""Trace capture and run summaries; summarize() decides each run's verdict.

Everything downstream of a run is computed from the flat event trace, so a
trace file written today can be re-summarized offline tomorrow.  Two
conventions keep the fixed 8-column layout sufficient:

  * ACK rows carry the estimate as it stood BEFORE the acknowledgment was
    applied; the updates it causes follow as ESTIMATE_UPDATE rows.
  * DROP rows reuse the retry_count column for the index of the node that
    dropped the copy (the layout has no dedicated location field, and a
    drop has no meaningful retry count).

Float columns are written with 6 decimal places and times as exact
tick-resolution decimals.  summarize() rounds to 6 places every estimate it
reports or judges (the before and after values of each ambiguous ack, the
trailing false-convergence window, final_e and max_e), so a written trace
re-read from disk summarizes identically to the in-memory rows; the rows
themselves are never copied.

Beside the rows, summarize() holds one copy count per packet (a list slot
for each id sent in order, a dict entry for any other id), a count per
dropped packet and the rounded estimate pair of each ambiguous ack.  It
reads the trailing false-convergence window backwards from the last row,
so it holds nothing for the other acks.  write_trace holds one chunk of
_WRITE_CHUNK_ROWS formatted lines at a time.

Every row the program builds, recorded or read back, is an exact tuple in
TRACE_HEADER's column order (Row); TraceRecorder builds each recorded row
in one call, reading the sender's state columns itself.  The cyclic
collector untracks an exact tuple of ints, floats and strings once it
survives a collection, and never untracks a tuple subclass, so a run's
rows stay off every later collection's walk; and only an exact tuple's
unpacking is specialized by the interpreter (PEP 659).  summarize and
write_trace take any 8-tuple in that order.

The trace codec formats and parses each value once, not once per row.
write_trace formats a time, packet id, float or retry count only when it
is not the previous row's object, and read_trace parses a time, packet id
or float only when its text is not the previous row's, so the rows it
returns share those objects.  The timeout_interval column of a window-1
run flips between two values (a SEND row is recorded before its timer
starts, with 0.0; the ACK and ESTIMATE_UPDATE rows after it carry the
armed interval), so both directions also keep the interval before the
current one: the writer by object, with its text, the reader by text,
with its float.  Copy numbers and retry counts take few values, and the
reader parses each of their texts once per trace.  A trace's lines end in
"\n" alone.
"""
from __future__ import annotations

import math
import re
from itertools import islice
from typing import Iterable, Optional, Sequence

from .record import Record
from .sim import (TICKS_PER_SECOND, format_ticks, parse_ticks,
                  ticks_to_seconds)

TRACE_HEADER = "time,event,packet_id,copy,estimate_e,estimate_v,timeout_interval,retry_count"

SEND = "send"
RETRANSMIT = "retransmit"
ACK = "ack"
TIMEOUT = "timeout"
DROP = "drop"
ESTIMATE_UPDATE = "estimate_update"
DISCONNECT = "disconnect"

EVENT_KINDS = frozenset({SEND, RETRANSMIT, ACK, TIMEOUT, DROP,
                         ESTIMATE_UPDATE, DISCONNECT})

VERDICT_BOUNDED = "Bounded"
VERDICT_DIVERGED = "Diverged"
VERDICT_FALSE_CONVERGED = "FalseConverged"


#: one trace row, in TRACE_HEADER's column order
Row = tuple[int, str, int, int, float, float, float, int]


class TraceRecorder:
    """Collects rows during a run, each an exact tuple in TRACE_HEADER's
    column order, built in one tuple display by `record` or `record_drop`.

    Besides the time, event, packet id and copy it is given, a row holds
    the sender's state: its estimate, and the interval and retry count of
    the timer covering that packet (0.0 and 0 when none is armed), read
    through the sender's read interface (see transport.Connection).  The
    covering timer is the packet's own in per-packet mode; in single mode
    the one timer is always owned by the oldest unacknowledged packet,
    packets_acked + 1, so it is looked up by that key.  So any component
    (e.g. a dropping network node) can emit a row with those columns.
    """

    def __init__(self) -> None:
        self.rows: list[Row] = []

    def follow(self, sender) -> None:
        """Fill the state columns of every later row from `sender`."""
        self.sender = sender
        self.timers = sender.timers
        self.per_packet = sender.per_packet

    def record(self, time_ticks: int, event: str, packet_id: int,
               copy: int) -> None:
        sender = self.sender
        if self.per_packet:
            retry = self.timers.get(packet_id)
        else:
            retry = self.timers.get(sender.packets_acked + 1)
        mean, variance = sender.estimate
        if retry is None:
            self.rows.append((time_ticks, event, packet_id, copy, mean,
                              variance, 0.0, 0))
        else:
            self.rows.append((time_ticks, event, packet_id, copy, mean,
                              variance, retry.last_interval,
                              retry.retry_count))

    def record_drop(self, time_ticks: int, packet_id: int, copy: int,
                    location: int) -> None:
        # as record, but a DROP row's retry_count column holds the
        # dropping node's index
        sender = self.sender
        if self.per_packet:
            retry = self.timers.get(packet_id)
        else:
            retry = self.timers.get(sender.packets_acked + 1)
        mean, variance = sender.estimate
        interval = 0.0 if retry is None else retry.last_interval
        self.rows.append((time_ticks, DROP, packet_id, copy, mean, variance,
                          interval, location))


#: rows joined into one string per write.  A chunk's formatted lines and
#: their join are most of what the write holds beside the rows, so the
#: chunk's size sets the write phase's peak memory: writing a 20,000-packet
#: window-1 trace at loss 0.1 to a file peaks at 248 KiB of traced
#: allocation with 1,024 rows and at 936 KiB with 4,096 (3.11.7), in the
#: same time.
_WRITE_CHUNK_ROWS = 1024


def write_trace(rows: Iterable[Row], destination) -> None:
    """Write rows as CSV.  `destination` is a path or a text file object."""
    if hasattr(destination, "write"):
        _write_trace_file(rows, destination)
    else:
        with open(destination, "w", encoding="ascii", newline="\n") as fh:
            _write_trace_file(rows, fh)


def _write_trace_file(rows: Iterable[Row], fh) -> None:
    write = fh.write
    write(TRACE_HEADER + "\n")
    # Consecutive rows often hold the same time, id, float and retry
    # objects, so each is formatted only when it is not the previous row's
    # object.  An object always formats to the same text, which keeps -0.0
    # beside 0.0, nan, and equal values in distinct objects exact.  The
    # interval column flips between two objects (see the module
    # docstring), so it also keeps the object before the current one, with
    # its text, and swaps the two on a flip.
    time_ticks = packet_id = e = v = interval = other_interval = retry = \
        object()
    interval_text = other_text = None
    rows = iter(rows)
    lines: list[str] = []
    # a list of the next _WRITE_CHUNK_ROWS rows, or fewer, until none is left
    for chunk in iter(lambda: list(islice(rows, _WRITE_CHUNK_ROWS)), []):
        for (new_time, event, new_id, copy, new_e, new_v, new_interval,
             new_retry) in chunk:
            if new_time is not time_ticks:
                time_ticks = new_time
                if time_ticks >= 0:
                    time_text = "%d.%06d" % divmod(time_ticks,
                                                   TICKS_PER_SECOND)
                else:  # no run writes a negative time; as format_ticks
                    time_text = "-%d.%06d" % divmod(-time_ticks,
                                                    TICKS_PER_SECOND)
            if new_id is not packet_id:
                packet_id = new_id
                id_text = f"{packet_id}"
            if new_e is not e:
                e = new_e
                e_text = "%.6f" % e
            if new_v is not v:
                v = new_v
                v_text = "%.6f" % v
            if new_interval is not interval:
                if new_interval is other_interval:
                    interval, other_interval = other_interval, interval
                    interval_text, other_text = other_text, interval_text
                else:
                    other_interval, other_text = interval, interval_text
                    interval = new_interval
                    interval_text = "%.6f" % interval
            if new_retry is not retry:
                retry = new_retry
                retry_text = f"{retry}\n"
            # one f-string per line: each float text has the "%.6f" form,
            # the time that of format_ticks, and the int columns are exact
            # ints
            lines.append(f"{time_text},{event},{id_text},{copy},{e_text},"
                         f"{v_text},{interval_text},{retry_text}")
        write("".join(lines))
        lines.clear()


def read_trace(source) -> list[Row]:
    """Inverse of write_trace.  `source` is a path or a text file object.

    Raises ValueError, naming the line, for a foreign header, a row without
    exactly 8 fields, an unknown event kind, a time with more than 6
    decimal places, or a field in a form write_trace does not write.
    A path is read as ASCII; a non-ASCII byte in it raises
    UnicodeDecodeError, a ValueError that names no line.

    Lines end in "\n" alone, as write_trace writes them.  A path is
    opened with no newline translation, so it reads as an io.StringIO of
    the same text does: a CRLF or CR line ending is refused from either
    (in the header as a bad header, in a row by its line's number).

    Each row is an exact tuple in TRACE_HEADER's column order, as the
    recorder builds it, so the collector untracks it and unpacking it is
    specialized.  Its event is the module's kind constant, and the rows
    share their repeated values: a time, packet id or float whose text
    repeats the previous row's is that row's object, a timeout_interval
    whose text repeats either of the column's last two texts is that
    text's object, and each copy number and retry count text is one
    object across the trace.
    """
    if hasattr(source, "read"):
        return _read_trace_file(source)
    with open(source, "r", encoding="ascii", newline="\n") as fh:
        return _read_trace_file(fh)


#: each event kind's text mapped to the kind constant
_KINDS = {kind: kind for kind in EVENT_KINDS}
#: write_trace's integer form, with no leading zero and no -0; the last
#: column keeps the line's newline
_INT_FORM = re.compile(r"(?:0|-?[1-9][0-9]*)\n?").fullmatch
#: write_trace's float form: "%.6f" of a finite float (no leading zero;
#: -0.0 is written -0.000000), nan or an infinity
_FLOAT_FORM = re.compile(
    r"-?(?:0|[1-9][0-9]*)\.[0-9]{6}|nan|-?inf").fullmatch


def _bad_int(text: str):
    raise ValueError(f"invalid literal for int() with base 10: {text!r}")


def _bad_float(text: str):
    raise ValueError(f"could not convert string to float: {text!r}")


def _read_trace_file(fh) -> list[Row]:
    header = fh.readline().rstrip("\n")
    if header != TRACE_HEADER:
        raise ValueError(f"bad trace header: {header!r}")
    rows: list[Row] = []
    append = rows.append
    kinds = _KINDS
    int_form, float_form = _INT_FORM, _FLOAT_FORM
    bad_int, bad_float = _bad_int, _bad_float
    # Consecutive rows often repeat the time, the packet id and the float
    # columns, so each is checked and parsed only when its text differs
    # from the previous row's; a memo keyed on the text keeps -0.0 and 0.0
    # apart.  The interval column flips between two texts (see the module
    # docstring), so it keeps the previous two texts and their floats.
    # Copy numbers and retry counts change on most rows but take few
    # values, so each text of theirs is checked and parsed once.  Each line
    # before a failing one appended one row, so the failing line is number
    # len(rows) + 2, the header being line 1.
    counts: dict[str, int] = {}
    time_text = id_text = e_text = v_text = interval_text = other_text = None
    time_ticks = packet_id = e = v = interval = other = None
    for line in fh:
        try:
            (new_time, event, new_id, new_copy, new_e, new_v, new_interval,
             new_retry) = line.split(",")
        except ValueError:
            raise ValueError(f"line {len(rows) + 2}: expected 8 fields, "
                             f"got {len(line.split(','))}") from None
        kind = kinds.get(event)
        if kind is None:
            raise ValueError(f"line {len(rows) + 2}: unknown event kind "
                             f"{event!r}")
        try:
            if new_time != time_text:
                time_ticks = parse_ticks(new_time)
                time_text = new_time
            if new_id != id_text:
                packet_id = (int(new_id) if int_form(new_id)
                             else bad_int(new_id))
                id_text = new_id
            copy = counts.get(new_copy)
            if copy is None:
                copy = counts[new_copy] = (
                    int(new_copy) if int_form(new_copy) else bad_int(new_copy))
            if new_e != e_text:
                e = float(new_e) if float_form(new_e) else bad_float(new_e)
                e_text = new_e
            if new_v != v_text:
                v = float(new_v) if float_form(new_v) else bad_float(new_v)
                v_text = new_v
            if new_interval != interval_text:
                if new_interval == other_text:
                    interval, other = other, interval
                    interval_text, other_text = other_text, interval_text
                else:
                    other, other_text = interval, interval_text
                    interval = (float(new_interval)
                                if float_form(new_interval)
                                else bad_float(new_interval))
                    interval_text = new_interval
            # the retry text keeps the line's newline
            retry = counts.get(new_retry)
            if retry is None:
                retry = counts[new_retry] = (
                    int(new_retry) if int_form(new_retry)
                    else bad_int(new_retry))
        except ValueError as exc:
            raise ValueError(f"line {len(rows) + 2}: {exc}") from None
        append((time_ticks, kind, packet_id, copy, e, v, interval, retry))
    return rows


#: summarize's verdict thresholds
DIVERGENCE_FACTOR = 100.0
FC_WINDOW = 10
FC_EPSILON = 0.2
FC_MIN_RETRANS_RATE = 0.5


class SummaryReport(Record):
    packets_offered: int
    packets_delivered: int
    total_copies_sent: int
    duplicates_received: int
    timeout_count: int
    drop_count_per_node: list[int]
    elapsed_ticks: int
    throughput: float
    final_e: float
    max_e: float
    verdict: str
    class_label: Optional[str] = None
    #: (estimate before, estimate after) for each ack that newly covers a
    #: packet sent more than once; not part of the written summary
    ambiguous_acks: Sequence[tuple[float, float]] = ()

    @property
    def elapsed_seconds(self) -> float:
        return ticks_to_seconds(self.elapsed_ticks)

    def as_lines(self) -> list[str]:
        lines = [
            f"packets_offered={self.packets_offered}",
            f"packets_delivered={self.packets_delivered}",
            f"total_copies_sent={self.total_copies_sent}",
            f"duplicates_received={self.duplicates_received}",
            f"timeout_count={self.timeout_count}",
            "drop_count_per_node="
            + ",".join(str(n) for n in self.drop_count_per_node),
            f"elapsed={format_ticks(self.elapsed_ticks)}",
            f"throughput={self.throughput:.6f}",
            f"final_e={self.final_e:.6f}",
            f"max_e={self.max_e:.6f}",
            f"verdict={self.verdict}",
        ]
        if self.class_label is not None:
            lines.append(f"class={self.class_label}")
        return lines


def write_summary(report: SummaryReport, destination) -> None:
    text = "\n".join(report.as_lines()) + "\n"
    if hasattr(destination, "write"):
        destination.write(text)
    else:
        with open(destination, "w", encoding="ascii", newline="\n") as fh:
            fh.write(text)


def _trailing_estimates_below(rows: Sequence[Row], below: float) -> bool:
    """Whether at least FC_WINDOW acks arrived and the estimate after each
    of the last FC_WINDOW, rounded to 6 places, is below `below`.

    The rows are read backwards from the last one.  The estimate after an
    ack is that of the last ESTIMATE_UPDATE row in the run of them that
    directly follows it, or the ACK row's own when none does.
    """
    found = 0
    after = None  # the estimate after the run of updates behind this row
    for _, event, _, _, estimate_e, _, _, _ in reversed(rows):
        if event == ESTIMATE_UPDATE:
            if after is None:
                after = estimate_e
            continue
        if event == ACK:
            if not round(estimate_e if after is None else after, 6) < below:
                return False
            found += 1
            if found == FC_WINDOW:
                return True
        after = None
    return False


def summarize(rows: Sequence[Row], true_rtt: float) -> SummaryReport:
    """Reduce a complete trace to a SummaryReport.

    Copies still in flight when a run was cut short are indistinguishable
    from delivered ones in the trace; they are counted as if they arrived,
    which only affects the duplicate count of truncated runs.

    max_e is the peak estimate.  NaN estimates take no part in it, so it
    is NaN only when every estimate is.

    The verdict is Diverged if max_e > DIVERGENCE_FACTOR * true_rtt, else
    FalseConverged if at least FC_WINDOW acks arrived, the trailing
    FC_WINDOW post-ack estimates all sit below true_rtt * (1 - FC_EPSILON)
    and retransmissions per delivered packet reach FC_MIN_RETRANS_RATE (a
    low estimate matters for its duplicates), else Bounded.  The trailing
    estimates are read backwards from the last row, and only when the
    other tests pass.

    Beside the rows it holds one copy count per packet: in a list indexed
    by packet_id - first, where first is the first id sent, over the run
    of ids that SEND rows number in order from it, and in a dict for any
    id outside that run, so every row order gives the same result.  It
    also holds a count per dropped packet and the ambiguous acks'
    estimate pairs, and nothing per ack besides.

    The drift class comes from the ambiguous acks: 'I' if the mean estimate
    change across them exceeds 1% of true_rtt, 'III' if it is below -1%,
    'II' otherwise, and None when there were none.
    """
    if not (math.isfinite(true_rtt) and true_rtt > 0):
        raise ValueError(f"true_rtt must be finite and > 0, got {true_rtt}")
    if not rows:
        raise ValueError("empty trace")

    # rows are read by their TRACE_HEADER column index: 0 time, 1 event,
    # 2 packet_id, 4 estimate_e
    previous_time = rows[0][0]
    # start from the first estimate_e that is not NaN: `>` is false against
    # NaN both ways, so no NaN replaces or blocks the peak
    max_e = next((row[4] for row in rows if row[4] == row[4]), math.nan)
    # A packet's copy count is `counts[packet_id - first]` while its id
    # lies in the run [first, end) that SEND rows number in order from the
    # first id sent, and `spilled[packet_id]` otherwise.  The run grows
    # only by a SEND of `end`, which resets that packet's count, so an
    # entry that `spilled` took before its id joined the run is never read.
    first = end = next((row[2] for row in rows if row[1] == SEND), 0)
    counts: list[int] = []
    spilled: dict[int, int] = {}
    drops_by_packet: dict[int, int] = {}
    drop_locations: dict[int, int] = {}
    offered = 0
    retransmit_count = 0
    timeout_count = 0
    cumulative = 0
    #: (estimate before, estimate after) of each ambiguous ack, rounded:
    #: the after-value is the ACK row's own, replaced by each
    #: ESTIMATE_UPDATE row that directly follows it
    ambiguous: list[tuple[float, float]] = []
    reading_updates = False  # the last ACK was ambiguous; only updates since
    # the last ambiguous ack's index in ambiguous: a non-negative index,
    # as only that store specializes
    last = 0
    before = 0.0  # and its estimate before, rounded

    # one dispatch per row, the most common kinds first, an unknown kind last
    for time_ticks, event, packet_id, copy, estimate_e, _, _, retry in rows:
        if time_ticks < previous_time:
            if event not in EVENT_KINDS:  # the kind is named first
                raise ValueError(f"unknown event kind {event!r}")
            raise ValueError("trace rows are not in time order")
        previous_time = time_ticks
        if estimate_e > max_e:
            max_e = estimate_e
        if event == ACK:
            reading_updates = False
            if packet_id > cumulative:
                if packet_id == cumulative + 1:  # one packet: read its count
                    count = (counts[packet_id - first]
                             if first <= packet_id < end
                             else spilled.get(packet_id, 0))
                else:  # stop at the first packet sent more than once
                    for pid in range(cumulative + 1, packet_id + 1):
                        count = (counts[pid - first] if first <= pid < end
                                 else spilled.get(pid, 0))
                        if count >= 2:
                            break
                if count >= 2:
                    reading_updates = True
                    last = len(ambiguous)
                    before = round(estimate_e, 6)
                    ambiguous.append((before, before))
                cumulative = packet_id
            continue
        if event == ESTIMATE_UPDATE:
            if reading_updates:
                ambiguous[last] = (before, round(estimate_e, 6))
            continue
        reading_updates = False
        if event == SEND:
            offered += 1
            if packet_id == end:  # the run's next id
                counts.append(1)
                end += 1
            elif first <= packet_id < end:
                counts[packet_id - first] = 1
            else:
                spilled[packet_id] = 1
        elif event == RETRANSMIT:
            if copy < 2:
                raise ValueError("retransmit row with copy_number < 2")
            retransmit_count += 1
            if first <= packet_id < end:
                counts[packet_id - first] += 1
            else:
                spilled[packet_id] = spilled.get(packet_id, 0) + 1
        elif event == TIMEOUT:
            timeout_count += 1
        elif event == DROP:
            drops_by_packet[packet_id] = drops_by_packet.get(packet_id, 0) + 1
            drop_locations[retry] = drop_locations.get(retry, 0) + 1
        elif event != DISCONNECT:
            raise ValueError(f"unknown event kind {event!r}")

    delivered = cumulative
    total_copies = offered + retransmit_count
    # every copy past a packet's first, less the dropped ones: a packet's
    # drops take away at most its count - 1, and none if it was never sent
    duplicates = sum(counts) - len(counts) + sum(
        count - 1 for pid, count in spilled.items()
        if not first <= pid < end)
    for pid, drops in drops_by_packet.items():
        count = (counts[pid - first] if first <= pid < end
                 else spilled.get(pid, 1))
        duplicates -= min(count - 1, drops)
    elapsed_ticks = rows[-1][0]
    elapsed_s = ticks_to_seconds(elapsed_ticks)
    throughput = delivered / elapsed_s if elapsed_s > 0 else 0.0

    node_count = max(drop_locations) + 1 if drop_locations else 0
    drop_count_per_node = [drop_locations.get(node, 0)
                           for node in range(node_count)]

    final_e = round(rows[-1][4], 6)
    # rounding is monotone, so the rounded max is the max of rounded values
    max_e = round(max_e, 6)

    if max_e > DIVERGENCE_FACTOR * true_rtt:
        verdict = VERDICT_DIVERGED
    elif (delivered > 0
          and retransmit_count / delivered >= FC_MIN_RETRANS_RATE
          and _trailing_estimates_below(rows,
                                        true_rtt * (1.0 - FC_EPSILON))):
        verdict = VERDICT_FALSE_CONVERGED
    else:
        verdict = VERDICT_BOUNDED

    class_label = None
    if ambiguous:
        class_epsilon = 0.01 * true_rtt
        mean_delta = (sum(after - before for before, after in ambiguous)
                      / len(ambiguous))
        if mean_delta > class_epsilon:
            class_label = "I"
        elif mean_delta < -class_epsilon:
            class_label = "III"
        else:
            class_label = "II"

    return SummaryReport(
        packets_offered=offered,
        packets_delivered=delivered,
        total_copies_sent=total_copies,
        duplicates_received=duplicates,
        timeout_count=timeout_count,
        drop_count_per_node=drop_count_per_node,
        elapsed_ticks=elapsed_ticks,
        throughput=throughput,
        final_e=final_e,
        max_e=max_e,
        verdict=verdict,
        class_label=class_label,
        ambiguous_acks=ambiguous,
    )
