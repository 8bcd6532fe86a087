"""Spans around gdfkit's public functions, recorded from outside the package.

The tracer swaps module attributes (and a few methods) for wrappers that
record one span per call: name, start, end, parent span and operation id, plus
the work the call did (bytes, channels, records, events). gdfkit's own modules
look their collaborators up by module-global name at call time, so wrapping
``gdfkit.fileio.decode_records`` is enough to see the record codec inside
``read_file`` without touching ``src/``. :meth:`Tracer.uninstall` puts every
original back. Spans stay in memory until the run ends.
"""

from __future__ import annotations

import json
import os
import time
from collections import defaultdict

import numpy as np

# Span tuple fields: name id, start ns, end ns, parent index, op id, and the
# work counts (bytes, channels, records, events) or None.
NAME, START, END, PARENT, OP, WORK = range(6)


def _nbytes(x) -> int:
    if isinstance(x, (bytes, bytearray, memoryview)):
        return len(x)
    return os.stat(x).st_size


def _continuous(layout) -> int:
    return sum(1 for c in layout.channels if not c.is_sparse)


def _samples_bytes(block) -> int:
    return sum(s.nbytes for s in block.samples if s is not None)


def _cli_name(args, kwargs) -> str:
    argv = args[0]
    if argv[0] == "convert":
        return "cli.import" if argv[1].endswith(".csv") else "cli.export"
    return "cli." + argv[0]


def targets(gdfkit):
    """(owner, attribute, span name, work counter) for every traced call.

    A counter maps (args, kwargs, result) to (bytes, channels, records,
    events); the span name of ``cli.main`` depends on its arguments.
    """
    fileio, records, events = gdfkit.fileio, gdfkit.records, gdfkit.events
    header, tlv, core, cli = gdfkit.header, gdfkit.tlv, gdfkit.core, gdfkit.cli
    return [
        # header, tlv, records and events functions as fileio looks them up
        (fileio, "parse_fixed_header", "header.parse_fixed_header",
         lambda a, k, r: (len(a[0]), 0, 0, 0)),
        (fileio, "write_fixed_header", "header.write_fixed_header",
         lambda a, k, r: (len(r), 0, 0, 0)),
        (fileio, "parse_channel_headers", "header.parse_channel_headers",
         lambda a, k, r: (len(a[0]), a[1], 0, 0)),
        (fileio, "write_channel_headers", "header.write_channel_headers",
         lambda a, k, r: (len(r), len(a[0]), 0, 0)),
        (tlv, "parse_tlv", "tlv.parse_tlv",
         lambda a, k, r: (len(a[0]), 0, 0, 0)),
        (tlv, "write_tlv_region", "tlv.write_tlv_region",
         lambda a, k, r: (len(r), 0, 0, 0)),
        (fileio, "decode_records", "records.decode_records",
         lambda a, k, r: (len(a[0]), _continuous(a[1]), a[2], 0)),
        (fileio, "encode_records", "records.encode_records",
         lambda a, k, r: (len(r), _continuous(a[1]), a[0].n_records, 0)),
        (records, "overflow_scan", "records.overflow_scan",
         lambda a, k, r: (_samples_bytes(a[0]), len(a[1]), a[0].n_records, 0)),
        (fileio, "parse_event_table", "events.parse_event_table",
         lambda a, k, r: (len(a[0]), 0, 0, r.n_events)),
        (fileio, "write_event_table", "events.write_event_table",
         lambda a, k, r: (len(r), 0, 0, a[0].n_events)),
        # events functions; convert_mode finds pair_mode1_events here too
        (events, "pair_mode1_events", "events.pair_mode1_events",
         lambda a, k, r: (0, 0, 0, a[0].n_events)),
        (events, "convert_mode", "events.convert_mode",
         lambda a, k, r: (0, 0, 0, a[0].n_events)),
        (events, "extract_sparse_samples", "events.extract_sparse_samples",
         lambda a, k, r: (0, len(a[1]), 0, a[0].n_events)),
        # fileio as the benchmark calls it, and to_bytes as write_file finds it
        (fileio, "read_file", "fileio.read_file",
         lambda a, k, r: (_nbytes(a[0]), r[0].ns, r[0].signals.n_records,
                          r[0].events.n_events if r[0].events else 0)),
        (fileio, "to_bytes", "fileio.to_bytes",
         lambda a, k, r: (len(r), a[0].ns, a[0].signals.n_records, 0)),
        (fileio, "validate", "fileio.validate",
         lambda a, k, r: (0, a[0].ns, 0, a[0].events.n_events if a[0].events else 0)),
        (fileio.StreamWriter, "__init__", "fileio.StreamWriter",
         lambda a, k, r: (0, len(a[3]), 0, 0)),
        (fileio.StreamWriter, "append_record", "fileio.append_record",
         lambda a, k, r: (0, len(a[1]), 1, 0)),
        (fileio.StreamWriter, "finalize", "fileio.finalize",
         lambda a, k, r: (r, 0, a[0].records_written,
                          a[1].n_events if len(a) > 1 and a[1] is not None else 0)),
        # the CLI reaches fileio through its own imported names
        (cli, "read_file", "fileio.read_file",
         lambda a, k, r: (_nbytes(a[0]), r[0].ns, r[0].signals.n_records,
                          r[0].events.n_events if r[0].events else 0)),
        (cli, "write_file", "fileio.write_file",
         lambda a, k, r: (r, a[0].ns, a[0].signals.n_records, 0)),
        (core.Calibration, "scale_array", "core.scale_array",
         lambda a, k, r: (np.asarray(a[1]).nbytes, 1, 0, 0)),
        (cli, "main", _cli_name, None),
    ]


class Tracer:
    """Records spans while installed; see the module docstring."""

    def __init__(self, gdfkit):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.spans: list[list] = []
        self.failures: dict[str, int] = defaultdict(int)
        self.op_id = 0
        self._stack: list[int] = []
        self._patches = [(owner, attr, getattr(owner, attr),
                          self._wrap(getattr(owner, attr), name, count))
                         for owner, attr, name, count in targets(gdfkit)]

    def _name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def _wrap(self, fn, name, count):
        clock = time.perf_counter_ns
        spans, stack = self.spans, self._stack
        fixed_id = None if callable(name) else self._name_id(name)

        def traced(*args, **kwargs):
            nid = fixed_id if fixed_id is not None else self._name_id(name(args, kwargs))
            span = [nid, 0, 0, stack[-1] if stack else -1, self.op_id, None]
            stack.append(len(spans))
            spans.append(span)
            span[START] = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span[END] = clock()
                stack.pop()
                self.failures[self.names[nid]] += 1
                raise
            span[END] = clock()
            stack.pop()
            if count is not None:
                span[WORK] = count(args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        for owner, attr, _, wrapper in self._patches:
            setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original, _ in self._patches:
            setattr(owner, attr, original)

    def begin(self, name: str) -> None:
        """Open a root span for one benchmark operation."""
        self.op_id += 1
        self._stack.append(len(self.spans))
        self.spans.append([self._name_id(name), 0, 0, -1, self.op_id, None])
        self.spans[-1][START] = time.perf_counter_ns()

    def end(self) -> None:
        self.spans[self._stack.pop()][END] = time.perf_counter_ns()

    def span_cost_ns(self, calls: int = 20000) -> float:
        """Added cost of one span, from wrapping a no-op function."""
        def noop():
            return None
        wrapped = self._wrap(noop, "trace.calibration", None)
        clock = time.perf_counter_ns
        best = float("inf")
        for _ in range(3):
            start = clock()
            for _ in range(calls):
                noop()
            plain = clock() - start
            start = clock()
            for _ in range(calls):
                wrapped()
            best = min(best, (clock() - start - plain) / calls)
        del self.spans[-3 * calls:]
        return max(best, 0.0)

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "start_ns", "end_ns", "parent", "op", "work"],
                       "work_fields": ["bytes", "channels", "records", "events"],
                       "names": self.names, "spans": self.spans,
                       "failures": dict(self.failures)}, fh)


class Layers:
    """Per-name totals of a trace: calls, inclusive and self time, work."""

    def __init__(self, tracer: Tracer):
        spans = tracer.spans
        n = len(spans)
        name = np.fromiter((s[NAME] for s in spans), np.int64, n)
        dur = np.fromiter((s[END] - s[START] for s in spans), np.float64, n)
        parent = np.fromiter((s[PARENT] for s in spans), np.int64, n)
        child = np.zeros(n)
        has_parent = parent >= 0
        np.add.at(child, parent[has_parent], dur[has_parent])
        own = dur - child
        work = np.array([s[WORK] or (0, 0, 0, 0) for s in spans],
                        dtype=np.float64).reshape(n, 4)
        self.names = list(tracer.names)
        k = len(self.names)
        self.calls = np.bincount(name, minlength=k)
        self.total_ns = np.bincount(name, dur, minlength=k)
        self.self_ns = np.bincount(name, own, minlength=k)
        self.work = np.stack([np.bincount(name, work[:, j], minlength=k)
                              for j in range(4)], axis=1)
        self._spans = (name, dur, parent, work[:, 0],
                       np.fromiter((s[OP] for s in spans), np.int64, n))
        self.root_ns = float(dur[~has_parent].sum())
        self.n_spans = n
        self.failures = dict(tracer.failures)

    def _id(self, name: str) -> int:
        if name not in self.names:
            raise KeyError(f"no span named {name!r} in the trace")
        return self.names.index(name)

    def calls_of(self, name: str) -> int:
        return int(self.calls[self._id(name)])

    def time_ns(self, name: str, own: bool = False) -> float:
        i = self._id(name)
        return float(self.self_ns[i] if own else self.total_ns[i])

    def work_of(self, name: str, field: str) -> float:
        return float(self.work[self._id(name), ("bytes", "channels", "records",
                                                 "events").index(field)])

    def by_item(self, name: str, op_items: dict[int, str]) -> dict[str, tuple[float, float]]:
        """(bytes, ns) of one span name per input item, via the op ids."""
        names, dur, _, nbytes, ops = self._spans
        out: dict[str, list[float]] = defaultdict(lambda: [0.0, 0.0])
        for i in np.flatnonzero(names == self._id(name)):
            acc = out[op_items[int(ops[i])]]
            acc[0] += nbytes[i]
            acc[1] += dur[i]
        return {k: (v[0], v[1]) for k, v in out.items()}

    def module_self_ns(self) -> dict[str, float]:
        out: dict[str, float] = defaultdict(float)
        for i, name in enumerate(self.names):
            out[name.split(".", 1)[0]] += float(self.self_ns[i])
        return dict(out)
