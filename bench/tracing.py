"""Spans and counts recorded around cctab's public entry points, from outside.

`Tracer.install` replaces the layer entry points on their modules and classes
with timing wrappers and the hot functions with counting wrappers;
`Tracer.uninstall` puts the originals back.  Nothing under src/ knows about
it.  Spans are kept in memory as (name, start, end, parent, query id) and a
layer's self time is its spans' duration minus the time their child spans
cover.
"""

from __future__ import annotations

import gzip
import importlib
import inspect
import time
from collections import Counter, defaultdict

# (module, attribute path, span name).  Each span name is "<layer>.<entry point>".
SPANNED = [
    ("cctab.syntax", "parse_program", "syntax.parse_program"),
    ("cctab.syntax", "parse_query", "syntax.parse_query"),
    ("cctab.bridges", "build_call_graph", "bridges.build_call_graph"),
    ("cctab.bridges", "find_bridges", "bridges.find_bridges"),
    ("cctab.translate", "translate", "translate.translate"),
    ("cctab.tabling", "compile_index", "engine.compile_index"),
    ("cctab.tabling", "Engine.__init__", "tabling.Engine.__init__"),
    ("cctab.tabling", "Engine.solve", "tabling.Engine.solve"),
    ("cctab.engine", "Machine.run", "engine.Machine.run"),
    ("cctab.tabling", "Engine.on_slg", "tabling.on_slg"),
    ("cctab.tabling", "Engine.on_slgcall", "tabling.on_slgcall"),
    ("cctab.tabling", "Engine.on_answer", "tabling.on_answer"),
    ("cctab.engine", "StoredIterCP.try_next", "engine.StoredIterCP.try_next"),
    ("cctab.oracle", "bottom_up_eval", "oracle.bottom_up_eval"),
    ("cctab.oracle", "compare_answer_sets", "oracle.compare_answer_sets"),
]

# Hot functions are counted, not spanned: a span each would cost more than
# the work it measured.  Every module that holds its own reference is patched.
COUNTED = [
    (("cctab.engine", "unify"), ("cctab.tabling", "unify")),
    (("cctab.engine", "instantiate"), ("cctab.tabling", "instantiate")),
    (("cctab.engine", "BindingStore.resolve"),),
]


def owner_of(module: str, path: str):
    obj = importlib.import_module(module)
    *outer, attr = path.split(".")
    for name in outer:
        obj = getattr(obj, name)
    return obj, attr


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.open: list = []  # indices of the spans now running, innermost last
        self.qid = -1  # query id recorded with each span; -1 outside queries
        self.calls: Counter = Counter()  # hot function -> calls
        self.successes: Counter = Counter()  # hot function -> calls that returned true
        self._saved: list = []

    # -- wrappers -----------------------------------------------------------

    def _open(self, name):
        idx = len(self.spans)
        self.spans.append((name, time.perf_counter(), None, self.open[-1] if self.open else -1,
                           self.qid))
        self.open.append(idx)
        return idx

    def _close(self, idx):
        end = time.perf_counter()
        self.open.pop()
        name, start, _, parent, qid = self.spans[idx]
        self.spans[idx] = (name, start, end, parent, qid)

    def _spanned(self, name, fn, is_generator):
        tracer = self

        if is_generator:
            # One span per resumption, so the consumer's time between answers
            # is not charged to the generator.
            def wrapper(*args, **kwargs):
                gen = fn(*args, **kwargs)
                try:
                    while True:
                        idx = tracer._open(name)
                        try:
                            item = next(gen)
                        except StopIteration:
                            return
                        finally:
                            tracer._close(idx)
                        yield item
                finally:
                    gen.close()
        else:
            def wrapper(*args, **kwargs):
                idx = tracer._open(name)
                try:
                    return fn(*args, **kwargs)
                finally:
                    tracer._close(idx)

        wrapper.__wrapped__ = fn
        return wrapper

    def _counted(self, name, fn):
        calls = self.calls
        successes = self.successes

        def wrapper(*args):
            calls[name] += 1
            result = fn(*args)
            if result is True:
                successes[name] += 1
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    # -- installation -------------------------------------------------------

    def _patch(self, module, path, make):
        owner, attr = owner_of(module, path)
        original = getattr(owner, attr)
        self._saved.append((owner, attr, original))
        setattr(owner, attr, make(original))

    def install(self):
        """Wrap every entry point.  Callers must look the entry points up on their
        modules at call time (cctab.syntax.parse_program, not a local alias)."""
        if self._saved:
            raise RuntimeError("tracer already installed")
        for module, path, name in SPANNED:
            self._patch(module, path, lambda fn, name=name: self._spanned(
                name, fn, inspect.isgeneratorfunction(fn)))
        for places in COUNTED:
            name = places[0][1].rsplit(".", 1)[-1]
            for module, path in places:
                self._patch(module, path, lambda fn, name=name: self._counted(name, fn))

    def uninstall(self):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def reset(self):
        if self.open:
            raise RuntimeError("reset while spans are open")
        self.spans = []
        self.qid = -1
        self.calls.clear()
        self.successes.clear()

    # -- analysis -----------------------------------------------------------

    def self_times(self) -> tuple:
        """({span name: summed self time in s}, {span name: span count})."""
        covered = [0.0] * len(self.spans)
        for _name, start, end, parent, _qid in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        out: dict = defaultdict(float)
        count: Counter = Counter()
        for i, (name, start, end, _parent, _qid) in enumerate(self.spans):
            out[name] += (end - start) - covered[i]
            count[name] += 1
        return dict(out), dict(count)

    def write(self, path):
        """Write the spans as gzipped tab-separated lines, times relative to the first span."""
        origin = self.spans[0][1] if self.spans else 0.0
        with gzip.open(path, "wt", encoding="utf-8") as f:
            f.write("id\tname\tstart_s\tend_s\tparent\tquery\n")
            for i, (name, start, end, parent, qid) in enumerate(self.spans):
                f.write(f"{i}\t{name}\t{start - origin:.9f}\t{end - origin:.9f}\t{parent}\t{qid}\n")
