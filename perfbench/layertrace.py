"""Per-layer tracing by rebinding cusplab's public functions.

``Tracer.install()`` replaces each function in ``WRAPPED`` on its module
(or class) with a timing wrapper; nothing under src/ changes.  Module-level
functions look globals up in the module dict, so calls made inside a
module are caught as well as calls from outside.

Each wrapped call is a span: name, start, end, parent span and thread.
Spans are kept in memory, per thread, and written out by ``write_spans``
when the run ends.  Counts and self times are accumulated as the spans
close, so they stay exact when the span buffer is full.

Self time is a span's duration minus the part of it that child spans
cover.  Children in the same thread nest and are subtracted as they close.
``verify-thm14`` fans its words out over worker threads; a span opened in
a worker thread with nothing open in that thread is adopted by the
innermost span open in the client (main) thread, and the union of the
adopted intervals is subtracted from the parent when it closes.  So
``cli.run`` does not count the time it waits on its workers.  Worker
threads interleave under the interpreter lock, so with two workers the
self times of worker-thread spans add up to as much as twice the wall
time they overlap.
"""

import threading
import time
from collections import Counter

from cusplab import arcs, bounds, bundle, cli, farey, geometry, surface

# (layer, owner, attribute) in the order the metrics are listed
WRAPPED = [
    ("cli", cli, "run"),
    ("bounds", bounds, "verify_fibered"),
    ("bounds", bounds, "verify_lifting"),
    ("bundle", bundle, "layered_triangulation"),
    ("bundle", bundle, "gluing_system"),
    ("bundle", bundle, "solve_shapes"),
    ("bundle", bundle.GluingSystem, "residual"),
    ("bundle", bundle, "maximal_cusp"),
    ("bundle", bundle, "total_volume"),
    ("farey", farey, "translation_distance"),
    ("farey", farey, "stable_upper"),
    ("farey", farey, "distance"),
    ("arcs", arcs, "parse_arc"),
    ("arcs", arcs, "slope_arc"),
    ("arcs", arcs, "distance"),
    ("arcs", arcs, "lift_arc"),
    ("surface", surface, "build_cover"),
    ("geometry", geometry, "tangent_lengths"),
    ("geometry", geometry, "horoball_distance"),
    ("geometry", geometry, "cone_cusp_area"),
]


def span_name(layer, owner, attr):
    if isinstance(owner, type):
        return "%s.%s.%s" % (layer, owner.__name__, attr)
    return "%s.%s" % (layer, attr)


NAMES = [span_name(*w) for w in WRAPPED]

SPAN_CAP = 200000    # spans kept for writing; counts never stop


def _union_length(intervals, lo, hi):
    total = 0.0
    end = lo
    for a, b in sorted(intervals):
        a, b = max(a, end), min(b, hi)
        if b > a:
            total += b - a
            end = b
    return total


class _ThreadLog:
    """One thread's open frames, totals and spans."""

    def __init__(self, tid):
        self.tid = tid
        self.stack = []
        self.calls = [0] * len(NAMES)
        self.self_s = [0.0] * len(NAMES)
        self.errors = [Counter() for _ in NAMES]
        self.spans = []
        self.next_id = 0


class Tracer:
    def __init__(self):
        self._local = threading.local()
        self._logs = []
        self._lock = threading.Lock()
        self._saved = []
        self._main = threading.main_thread()
        self._main_log = None
        self.dropped = 0

    def _log(self):
        log = getattr(self._local, "log", None)
        if log is None:
            log = _ThreadLog(threading.get_ident())
            self._local.log = log
            with self._lock:
                self._logs.append(log)
                if threading.current_thread() is self._main:
                    self._main_log = log
        return log

    def _wrap(self, index, fn):
        perf = time.perf_counter

        def traced(*args, **kwargs):
            log = self._log()
            stack = log.stack
            parent = stack[-1] if stack else None
            adopted_by = None
            if parent is None and log is not self._main_log:
                main = self._main_log
                if main is not None and main.stack:
                    adopted_by = main.stack[-1]
            span_id = log.next_id
            log.next_id += 1
            # frame: start, time of same-thread children, adopted intervals
            frame = [perf(), 0.0, [], span_id]
            stack.append(frame)
            try:
                return fn(*args, **kwargs)
            except Exception as exc:
                log.errors[index][type(exc).__name__] += 1
                raise
            finally:
                end = perf()
                stack.pop()
                start = frame[0]
                own = end - start - frame[1]
                if frame[2]:
                    own -= _union_length(frame[2], start, end)
                log.calls[index] += 1
                log.self_s[index] += own
                if parent is not None:
                    parent[1] += end - start
                    parent_ref = (log.tid, parent[3])
                elif adopted_by is not None:
                    adopted_by[2].append((start, end))
                    parent_ref = (self._main_log.tid, adopted_by[3])
                else:
                    parent_ref = None
                if len(log.spans) < SPAN_CAP:
                    log.spans.append((span_id, parent_ref, index, start, end))
                else:
                    self.dropped += 1

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", "traced")
        return traced

    def install(self):
        self._log()     # register the client thread first
        for index, (_, owner, attr) in enumerate(WRAPPED):
            fn = getattr(owner, attr)
            self._saved.append((owner, attr, fn))
            setattr(owner, attr, self._wrap(index, fn))

    def uninstall(self):
        for owner, attr, fn in reversed(self._saved):
            setattr(owner, attr, fn)
        self._saved = []

    def totals(self):
        """Per-name calls, self seconds and errors by exception class."""
        calls = [0] * len(NAMES)
        self_s = [0.0] * len(NAMES)
        errs = [Counter() for _ in NAMES]
        for log in self._logs:
            for i in range(len(NAMES)):
                calls[i] += log.calls[i]
                self_s[i] += log.self_s[i]
                errs[i].update(log.errors[i])
        return {NAMES[i]: {"calls": calls[i], "self_s": self_s[i],
                           "errors": dict(errs[i])}
                for i in range(len(NAMES))}

    def write_spans(self, path, t0):
        """CSV of every kept span, times in seconds from t0."""
        with open(path, "w") as fh:
            fh.write("# spans kept %d, dropped %d\n"
                     % (sum(len(l.spans) for l in self._logs), self.dropped))
            fh.write("thread,span,parent_thread,parent_span,name,start,end\n")
            for log in self._logs:
                for span_id, parent, index, start, end in log.spans:
                    pt, ps = parent if parent else ("", "")
                    fh.write("%d,%d,%s,%s,%s,%.9f,%.9f\n"
                             % (log.tid, span_id, pt, ps, NAMES[index],
                                start - t0, end - t0))
