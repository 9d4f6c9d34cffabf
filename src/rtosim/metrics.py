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
"""
from __future__ import annotations

import math
import re
from typing import Callable, Iterable, NamedTuple, Optional, Sequence

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


class TraceRow(NamedTuple):
    time_ticks: int
    event: str
    packet_id: int
    copy: int
    estimate_e: float
    estimate_v: float
    timeout_interval: float
    retry_count: int


_tuple_new = tuple.__new__


class TraceRecorder:
    """Collects rows during a run.

    `state_probe` is installed by the sending endpoint.  Given a row's
    packet id it returns the current (estimate_e, estimate_v,
    timeout_interval, retry_count) tuple, the last two from the timer that
    covers that packet, so any component (e.g. a dropping network node) can
    emit a row with the sender's state columns filled in.
    """

    def __init__(self) -> None:
        self.rows: list[TraceRow] = []
        self.state_probe: Callable[[int], tuple[float, float, float, int]] = \
            lambda packet_id: (0.0, 0.0, 0.0, 0)

    def record(self, time_ticks: int, event: str, packet_id: int,
               copy: int) -> None:
        # tuple.__new__ skips the NamedTuple constructor's Python frame
        self.rows.append(_tuple_new(TraceRow, (time_ticks, event, packet_id,
                                               copy)
                                    + self.state_probe(packet_id)))

    def record_drop(self, time_ticks: int, packet_id: int, copy: int,
                    location: int) -> None:
        e, v, interval, _ = self.state_probe(packet_id)
        self.rows.append(_tuple_new(TraceRow, (time_ticks, DROP, packet_id,
                                               copy, e, v, interval,
                                               location)))


#: one trace row from the texts of its time and float columns; each float
#: text has the "%.6f" form, the time that of format_ticks
_ROW_FORMAT = "%s,%s,%d,%d,%s,%s,%s,%d\n"
#: rows joined into one string per write
_WRITE_CHUNK_ROWS = 4096


def write_trace(rows: Iterable[TraceRow], destination) -> None:
    """Write rows as CSV.  `destination` is a path or a text file object."""
    if hasattr(destination, "write"):
        _write_trace_file(rows, destination)
    else:
        with open(destination, "w", encoding="ascii", newline="\n") as fh:
            _write_trace_file(rows, fh)


def _write_trace_file(rows: Iterable[TraceRow], fh) -> None:
    fh.write(TRACE_HEADER + "\n")
    row_format = _ROW_FORMAT
    lines: list[str] = []
    append = lines.append
    # Consecutive rows often hold the same time and float objects, so each
    # is formatted only when it is not the previous row's object.  An
    # object always formats to the same text, which keeps -0.0 beside 0.0,
    # nan, and equal values in distinct objects exact.
    time_ticks = e = v = interval = object()
    for (new_time, event, packet_id, copy, new_e, new_v, new_interval,
         retry) in rows:
        if new_time is not time_ticks:
            time_ticks = new_time
            if time_ticks >= 0:
                time_text = "%d.%06d" % divmod(time_ticks, TICKS_PER_SECOND)
            else:  # no run writes a negative time; match format_ticks' "-"
                time_text = "-%d.%06d" % divmod(-time_ticks, TICKS_PER_SECOND)
        if new_e is not e:
            e = new_e
            e_text = "%.6f" % e
        if new_v is not v:
            v = new_v
            v_text = "%.6f" % v
        if new_interval is not interval:
            interval = new_interval
            interval_text = "%.6f" % interval
        append(row_format % (time_text, event, packet_id, copy, e_text,
                             v_text, interval_text, retry))
        if len(lines) >= _WRITE_CHUNK_ROWS:
            fh.write("".join(lines))
            lines.clear()
    fh.write("".join(lines))


def read_trace(source) -> list[TraceRow]:
    """Inverse of write_trace.  `source` is a path or a text file object.

    Raises ValueError, naming the line, for a foreign header, a row without
    exactly 8 fields, an unknown event kind, a time with more than 6
    decimal places, or a field in a form write_trace does not write.
    A path is read as ASCII; a non-ASCII byte in it raises
    UnicodeDecodeError, a ValueError that names no line.

    Each row's event is the module's kind constant, and a value whose text
    repeats from the previous row is the previous row's object, so the rows
    share their repeated values.
    """
    if hasattr(source, "read"):
        return _read_trace_file(source)
    with open(source, "r", encoding="ascii") as fh:
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


def _read_trace_file(fh) -> list[TraceRow]:
    header = fh.readline().rstrip("\n")
    if header != TRACE_HEADER:
        raise ValueError(f"bad trace header: {header!r}")
    rows: list[TraceRow] = []
    append = rows.append
    kinds = _KINDS
    int_form, float_form = _INT_FORM, _FLOAT_FORM
    bad_int, bad_float = _bad_int, _bad_float
    # Consecutive rows often repeat the time, the packet id and the float
    # columns, so each is checked and parsed only when its text differs
    # from the previous row's; a memo keyed on the text keeps -0.0 and 0.0
    # apart.  Copy numbers and retry counts change on most rows but take
    # few values, so each text of theirs is checked and parsed once.
    counts: dict[str, int] = {}
    time_text = id_text = e_text = v_text = interval_text = None
    time_ticks = packet_id = e = v = interval = None
    for lineno, line in enumerate(fh, start=2):
        try:
            (new_time, event, new_id, new_copy, new_e, new_v, new_interval,
             new_retry) = line.split(",")
        except ValueError:
            raise ValueError(f"line {lineno}: expected 8 fields, "
                             f"got {len(line.split(','))}") from None
        kind = kinds.get(event)
        if kind is None:
            raise ValueError(f"line {lineno}: unknown event kind {event!r}")
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
                interval = (float(new_interval) if float_form(new_interval)
                            else bad_float(new_interval))
                interval_text = new_interval
            # the retry text keeps the line's newline
            retry = counts.get(new_retry)
            if retry is None:
                retry = counts[new_retry] = (
                    int(new_retry) if int_form(new_retry)
                    else bad_int(new_retry))
        except ValueError as exc:
            raise ValueError(f"line {lineno}: {exc}") from None
        append(_tuple_new(TraceRow, (time_ticks, kind, packet_id, copy, e, v,
                                     interval, retry)))
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


def summarize(rows: Sequence[TraceRow], true_rtt: float) -> SummaryReport:
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
    low estimate matters for its duplicates), else Bounded.

    The drift class comes from the ambiguous acks: 'I' if the mean estimate
    change across them exceeds 1% of true_rtt, 'III' if it is below -1%,
    'II' otherwise, and None when there were none.
    """
    if not (math.isfinite(true_rtt) and true_rtt > 0):
        raise ValueError(f"true_rtt must be finite and > 0, got {true_rtt}")
    if not rows:
        raise ValueError("empty trace")

    copies_sent: dict[int, int] = {}
    drops_by_packet: dict[int, int] = {}
    drop_locations: dict[int, int] = {}
    offered = 0
    retransmit_count = 0
    timeout_count = 0
    cumulative = 0
    #: the estimate after each ack: the ACK row's own, replaced by each
    #: ESTIMATE_UPDATE row that directly follows it
    ack_estimates: list[float] = []
    #: (estimate before, index in ack_estimates) per ambiguous ack
    ambiguous: list[tuple[float, int]] = []
    reading_updates = False  # the rows since the last ACK are all updates
    previous_time = rows[0].time_ticks
    # start from the first estimate that is not NaN: `>` is false against
    # NaN both ways, so no NaN replaces or blocks the peak
    max_e = next((row.estimate_e for row in rows
                  if row.estimate_e == row.estimate_e), math.nan)

    for time_ticks, event, packet_id, copy, estimate_e, _, _, retry in rows:
        if event not in EVENT_KINDS:
            raise ValueError(f"unknown event kind {event!r}")
        if time_ticks < previous_time:
            raise ValueError("trace rows are not in time order")
        previous_time = time_ticks
        if estimate_e > max_e:
            max_e = estimate_e
        if event == ESTIMATE_UPDATE:
            if reading_updates:
                ack_estimates[-1] = estimate_e
            continue
        reading_updates = False
        if event == SEND:
            offered += 1
            copies_sent[packet_id] = 1
        elif event == ACK:
            reading_updates = True
            ack_estimates.append(estimate_e)
            if packet_id > cumulative:
                for pid in range(cumulative + 1, packet_id + 1):
                    if copies_sent.get(pid, 0) >= 2:
                        ambiguous.append((estimate_e, len(ack_estimates) - 1))
                        break
                cumulative = packet_id
        elif event == RETRANSMIT:
            if copy < 2:
                raise ValueError("retransmit row with copy_number < 2")
            retransmit_count += 1
            copies_sent[packet_id] = copies_sent.get(packet_id, 0) + 1
        elif event == DROP:
            drops_by_packet[packet_id] = drops_by_packet.get(packet_id, 0) + 1
            drop_locations[retry] = drop_locations.get(retry, 0) + 1
        elif event == TIMEOUT:
            timeout_count += 1

    ambiguous_acks = [(round(before, 6), round(ack_estimates[index], 6))
                      for before, index in ambiguous]
    delivered = cumulative
    total_copies = offered + retransmit_count
    duplicates = sum(max(0, count - drops_by_packet.get(pid, 0) - 1)
                     for pid, count in copies_sent.items())
    elapsed_ticks = rows[-1].time_ticks
    elapsed_s = ticks_to_seconds(elapsed_ticks)
    throughput = delivered / elapsed_s if elapsed_s > 0 else 0.0

    node_count = max(drop_locations) + 1 if drop_locations else 0
    drop_count_per_node = [drop_locations.get(node, 0)
                           for node in range(node_count)]

    final_e = round(rows[-1].estimate_e, 6)
    # rounding is monotone, so the rounded max is the max of rounded values
    max_e = round(max_e, 6)

    if max_e > DIVERGENCE_FACTOR * true_rtt:
        verdict = VERDICT_DIVERGED
    elif (delivered > 0 and len(ack_estimates) >= FC_WINDOW
          and retransmit_count / delivered >= FC_MIN_RETRANS_RATE
          and all(round(e, 6) < true_rtt * (1.0 - FC_EPSILON)
                  for e in ack_estimates[-FC_WINDOW:])):
        verdict = VERDICT_FALSE_CONVERGED
    else:
        verdict = VERDICT_BOUNDED

    class_label = None
    if ambiguous_acks:
        class_epsilon = 0.01 * true_rtt
        mean_delta = (sum(after - before for before, after in ambiguous_acks)
                      / len(ambiguous_acks))
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
        ambiguous_acks=ambiguous_acks,
    )
