"""Tracing of the package's public functions from outside the package.

The tracer replaces each traced function at every place it is bound:
the module that defines it and every module that imported it by name
(``generators.divides_witness`` and ``modring.divides_witness`` alike),
and class attributes such as ``Poly.__mul__`` or ``Codeword.__add__``.
Nothing in the package changes; ``uninstall`` puts the originals back.

Each call pushes a frame on a per-thread stack.  On return the frame's
duration goes to its function's busy time and to its parent frame's
child time; duration minus child time is the frame's self time, which
is credited to its layer (the module).  Calls of layer-boundary
functions are also kept as spans (id, parent id, query id, name, start,
end) in memory and written out at the end.  Hot per-word functions
(Codeword construction and addition, Poly multiply, mixed weight, inner
product) are only counted and timed, never kept as spans.

Generators are timed per ``next`` call, so a scan's busy time excludes
the consumer's work between words.  Thread pools started by ``cli`` and
``duality`` get a frame per task in the worker thread, credited to the
submitting layer, and the submitting thread's wait for the results is
kept out of every layer's self time.  With two workers each worker's
time includes waiting for the interpreter lock.
"""

from __future__ import annotations

import functools
import json
import threading
import time
from collections import Counter, defaultdict
from concurrent.futures import ThreadPoolExecutor

LAYERS = ("cli", "generators", "modring", "codespace", "spanning", "metrics", "duality", "closure")

# (module, attribute path, keep spans)
TARGETS = [
    ("cli", "dispatch", True),
    ("cli", "load_code_spec", True),
    ("generators", "validate_generators", True),
    ("generators", "derive_cofactors", True),
    ("modring", "divides_witness", True),
    ("modring", "solve_linear_mod2k", True),
    ("modring", "poly_divmod_unit_lead", True),
    ("modring", "Poly.__mul__", False),
    ("codespace", "Codeword.__post_init__", False),
    ("codespace", "Codeword.__add__", False),
    ("codespace", "iter_space_range", True),
    ("spanning", "build_spanning_set", True),
    ("spanning", "iter_codeword_range", True),
    ("spanning", "membership_test", True),
    ("metrics", "mixed_weight", False),
    ("duality", "brute_force_dual", True),
    ("duality", "inner_product", False),
    ("closure", "module_closure", True),
]
GENERATORS = {"codespace.iter_space_range", "spanning.iter_codeword_range"}
POOL_SITES = ("cli", "duality")


class Tracer:
    def __init__(self, package):
        self.package = package
        self.modules = {name: getattr(package, name) for name in LAYERS}
        self.local = threading.local()
        self.lock = threading.Lock()
        self.calls = Counter()
        self.busy = defaultdict(float)
        self.self_time = defaultdict(float)
        self.counts = Counter()
        self.spans = []
        self.next_span = 0
        self.query = None
        self.distinct = set()
        self.patches = []

    # ------------------------------------------------------------ frames
    def _stack(self):
        st = getattr(self.local, "stack", None)
        if st is None:
            st = self.local.stack = []
        return st

    def _parent_id(self, st):
        if st:
            return st[-1][2]
        return getattr(self.local, "root", None)

    def _clock(self):
        return getattr(self.local, "clock", time.perf_counter)

    def _enter(self, name, keep):
        st = self._stack()
        span_id = None
        if keep:
            with self.lock:
                span_id = self.next_span
                self.next_span += 1
        wall = time.perf_counter() if keep else None
        frame = [name, 0.0, span_id, self._parent_id(st), self._clock()(), wall]
        st.append(frame)
        return frame

    def _exit(self, frame, layer):
        end = self._clock()()
        st = self._stack()
        st.pop()
        name, child, span_id, parent, start, wall = frame
        dur = end - start
        if st:
            st[-1][1] += dur
        with self.lock:
            self.calls[name] += 1
            self.busy[name] += dur
            self.self_time[layer] += dur - child
            if span_id is not None:
                self.spans.append((span_id, parent, self.query, name, wall, time.perf_counter()))

    # ------------------------------------------------------------ wrappers
    def _wrap_call(self, name, layer, keep, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = self._enter(name, keep)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._exit(frame, layer)
            self._observe(name, result)
            return result
        return traced

    def _wrap_generator(self, name, layer, fn):
        """Time each ``next``; keep one span from the first to the last item."""
        distinct = name == "spanning.iter_codeword_range"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            it = fn(*args, **kwargs)
            parent = self._parent_id(self._stack())
            first = last = None
            clock = time.perf_counter
            items = 0
            try:
                while True:
                    frame = self._enter(name, False)
                    if first is None:
                        first = clock()
                    try:
                        item = next(it)
                    except StopIteration:
                        return
                    finally:
                        self._exit(frame, layer)
                        last = clock()
                    items += 1
                    if distinct:
                        with self.lock:
                            self.distinct.add(item.components)
                    yield item
            finally:
                with self.lock:
                    self.counts[name + ".items"] += items
                    if first is not None:
                        self.spans.append((self.next_span, parent, self.query, name, first, last))
                        self.next_span += 1
        return traced

    def _observe(self, name, result):
        c = self.counts
        with self.lock:
            if name == "modring.divides_witness":
                c[name + ".found"] += result is not None
            elif name == "modring.solve_linear_mod2k":
                c[name + ".solved"] += result is not None
            elif name == "spanning.membership_test":
                c[name + ".members"] += result is not None
            elif name == "spanning.build_spanning_set":
                flats = [row.flat() for _, row in result.rows]
                c[name + ".rows"] += len(flats)
                c[name + ".useful"] += len({f for f in flats if any(f)})
            elif name == "closure.module_closure":
                c[name + ".elements"] += len(result)
            elif name == "duality.brute_force_dual":
                c[name + ".kept"] += result.dual_count

    def _pool_class(self, layer):
        tracer = self

        class TracedPool(ThreadPoolExecutor):
            def map(self, fn, *iterables, **kwargs):
                parent = tracer._parent_id(tracer._stack())

                def task(*args):
                    tracer.local.root = parent
                    tracer.local.clock = time.thread_time
                    frame = tracer._enter(f"{layer}.worker", True)
                    try:
                        return fn(*args)
                    finally:
                        tracer._exit(frame, layer)

                results = super().map(task, *iterables, **kwargs)
                return tracer._wrap_generator(f"{layer}.pool_wait", "wait", lambda: results)()

        return TracedPool

    # ------------------------------------------------------------ install
    def install(self):
        for mod_name, path, keep in TARGETS:
            name = f"{mod_name}.{path}"
            home = self.modules[mod_name]
            if "." in path:
                cls_name, attr = path.split(".")
                cls = getattr(home, cls_name)
                original = cls.__dict__[attr]
                self._patch(cls, attr, self._wrap_call(name, mod_name, keep, original))
                continue
            original = getattr(home, path)
            if name in GENERATORS:
                wrapped = self._wrap_generator(name, mod_name, original)
            else:
                wrapped = self._wrap_call(name, mod_name, keep, original)
            for module in self.modules.values():
                if module.__dict__.get(path) is original:
                    self._patch(module, path, wrapped)
            if getattr(self.package, path, None) is original:
                self._patch(self.package, path, wrapped)
        for mod_name in POOL_SITES:
            self._patch(self.modules[mod_name], "ThreadPoolExecutor", self._pool_class(mod_name))

    def _patch(self, owner, attr, value):
        self.patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def uninstall(self):
        for owner, attr, original in reversed(self.patches):
            setattr(owner, attr, original)
        self.patches.clear()

    # ------------------------------------------------------------ queries
    def begin_query(self, query_id):
        self.query = query_id
        self.local.root = None

    def end_query(self):
        with self.lock:
            self.counts["spanning.distinct_words"] += len(self.distinct)
            self.distinct.clear()
        self.query = None

    def summary(self):
        return {
            "calls": dict(self.calls),
            "busy": dict(self.busy),
            "self": dict(self.self_time),
            "counts": dict(self.counts),
            "spans": len(self.spans),
        }

    def write_spans(self, path):
        with open(path, "w") as fh:
            for span_id, parent, query, name, start, end in self.spans:
                fh.write(json.dumps({"id": span_id, "parent": parent, "query": query,
                                     "name": name, "start": start, "end": end}) + "\n")
