"""In-memory span tracing from outside the program.

A ``Tracer`` replaces public callables at the names their callers look up
(``module.attr`` or ``Class.attr``) with thin wrappers that record one span
per call: name, start, end and parent span.  Counters derived from the
argument sizes (rows, elements, computed bytes) are recorded at the same
boundary.  The wrappers call straight through and return the wrapped
function's own result, so a traced run computes bit-identical values.

Spans are kept in flat arrays for the life of the tracer and written out
once, at the end of the run.  Self time is a span's duration minus the time
its child spans cover.
"""

import array
import functools
import time
from collections import defaultdict

import numpy as np

_NO_PARENT = -1


class Tracer:
    def __init__(self):
        self.names = []
        self._name_ids = {}
        self.name_id = array.array("i")
        self.parent = array.array("q")
        self.start = array.array("d")
        self.end = array.array("d")
        self.self_s = array.array("d")
        self.counts = defaultdict(lambda: defaultdict(int))
        self._stack = []  # [span index, seconds covered by children]
        self._patches = []
        self.missing = set()  # trace points the program no longer defines

    # -- recording ---------------------------------------------------------

    def _intern(self, name):
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def wrap(self, name, fn, counter=None):
        """A transparent replacement for ``fn`` that records a span per call.

        ``counter(args, kwargs)`` returns a dict of counts to add under
        ``name`` (for example rows or elements derived from array sizes).
        """
        nid = self._intern(name)
        clock = time.perf_counter
        stack = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(self.start)
            self.name_id.append(nid)
            self.parent.append(stack[-1][0] if stack else _NO_PARENT)
            self.start.append(0.0)
            self.end.append(0.0)
            self.self_s.append(0.0)
            if counter is not None:
                bucket = self.counts[name]
                for key, val in counter(args, kwargs).items():
                    bucket[key] += val
            frame = [idx, 0.0]
            stack.append(frame)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                self.start[idx] = t0
                self.end[idx] = t1
                self.self_s[idx] = (t1 - t0) - frame[1]
                if stack:
                    stack[-1][1] += t1 - t0

        return traced

    def patch(self, owner, attr, name, counter=None):
        """Replace ``owner.attr`` by a traced wrapper until ``restore``.

        A missing attribute is recorded in ``missing``; its layer reads 0.
        """
        original = owner.__dict__.get(attr)
        if original is None:
            self.missing.add(f"{owner.__name__}.{attr}")
            return
        self._patches.append((owner, attr, original))
        setattr(owner, attr, self.wrap(name, original, counter))

    def restore(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- reading -----------------------------------------------------------

    def arrays(self):
        return {
            "name_id": np.frombuffer(self.name_id, dtype=np.int32).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int64).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
            "self_s": np.frombuffer(self.self_s, dtype=np.float64).copy(),
        }

    def totals(self):
        """Per span name: calls, inclusive seconds and self seconds."""
        a = self.arrays()
        n = len(self.names)
        calls = np.bincount(a["name_id"], minlength=n)
        incl = np.bincount(a["name_id"], weights=a["end"] - a["start"], minlength=n)
        self_s = np.bincount(a["name_id"], weights=a["self_s"], minlength=n)
        return {
            name: {"calls": int(calls[i]), "s": float(incl[i]), "self_s": float(self_s[i])}
            for i, name in enumerate(self.names)
        }

    def save(self, path):
        a = self.arrays()
        np.savez_compressed(path, names=np.array(self.names), **a)

