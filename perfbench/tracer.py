"""Span tracer that wraps a package's public functions from outside it.

Every public function of the traced modules is replaced by a wrapper at
each module attribute that holds it, because callers look functions up by
the attribute of the module that imported them (``cli.coeffs`` is the same
object as ``normalform.coeffs``).  Spans stay in memory as
``(span_id, parent_id, name, start, end, thread_id)`` tuples; the parent is
the innermost open span of the same thread.  ``restore`` puts every
original object back.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import inspect
import itertools
import sys
import threading
import time
from collections import defaultdict

NO_PARENT = -1


class Tracer:
    def __init__(self):
        self.spans = []
        self._ids = itertools.count()
        self._local = threading.local()
        self._patched = []   # (owner, attribute, original), in patch order

    # -- recording ---------------------------------------------------------

    def _stack(self):
        try:
            return self._local.stack
        except AttributeError:
            self._local.stack = []
            return self._local.stack

    def wrap(self, fn, name):
        """Return a wrapper of fn that records one span named name per call."""
        spans, ids, stack_of = self.spans, self._ids, self._stack
        clock, ident = time.perf_counter, threading.get_ident

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = stack_of()
            sid = next(ids)
            parent = stack[-1] if stack else NO_PARENT
            stack.append(sid)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans.append((sid, parent, name, start, end, ident()))

        return traced

    # -- patching ----------------------------------------------------------

    def _replace_everywhere(self, modules, original, wrapper):
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._patched.append((mod, attr, original))
                    setattr(mod, attr, wrapper)

    def instrument(self, package, targets):
        """Wrap the functions named by targets, relative to package.

        A target is a submodule (``"pdesim"``: every public function it
        defines), one function (``"cli.dispatch"``) or a class
        (``"pdesim.Simulator"``: its construction, traced under the class
        name, and its public methods, as ``pdesim.Simulator.step``).
        Submodules are imported if need be.  References to a wrapped
        function are replaced in the package and every loaded submodule.
        """
        prefix = package.__name__ + "."
        resolved = []
        for target in targets:
            short, _, attr = target.partition(".")
            resolved.append((target, importlib.import_module(prefix + short), attr))
        modules = [package] + [m for n, m in sorted(sys.modules.items())
                               if n.startswith(prefix) and m is not None]
        for target, mod, attr in resolved:
            if not attr:
                for name, fn in sorted(vars(mod).items()):
                    if (not name.startswith("_") and inspect.isfunction(fn)
                            and fn.__module__ == mod.__name__):
                        self._replace_everywhere(modules, fn,
                                                 self.wrap(fn, f"{target}.{name}"))
            elif inspect.isclass(getattr(mod, attr)):
                self._wrap_class(getattr(mod, attr), target)
            else:
                fn = getattr(mod, attr)
                self._replace_everywhere(modules, fn, self.wrap(fn, target))

    def _wrap_class(self, cls, target):
        for attr, fn in sorted(vars(cls).items()):
            if attr == "__init__":
                name = target
            elif attr.startswith("_") or not inspect.isfunction(fn):
                continue
            else:
                name = f"{target}.{attr}"
            self._patched.append((cls, attr, fn))
            setattr(cls, attr, self.wrap(fn, name))

    def restore(self):
        """Put back every attribute replaced by instrument, newest first."""
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)


# -- analysis --------------------------------------------------------------

def _covered(interval, children):
    """Length of the part of interval covered by the union of children."""
    lo, hi = interval
    total, reach = 0.0, lo
    for start, end in sorted(children):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


def self_times(spans):
    """Map span id -> its duration minus the time its child spans cover."""
    children = defaultdict(list)
    for sid, parent, _name, start, end, _tid in spans:
        if parent != NO_PARENT:
            children[parent].append((start, end))
    return {sid: (end - start) - _covered((start, end), children.get(sid, ()))
            for sid, _parent, _name, start, end, _tid in spans}


def aggregate(spans):
    """Per span name: calls, inclusive busy seconds and self seconds.

    busy_s skips spans nested inside a span of the same name, so recursion
    is not counted twice.
    """
    by_id = {s[0]: s for s in spans}
    selfs = self_times(spans)
    out = defaultdict(lambda: {"calls": 0, "busy_s": 0.0, "self_s": 0.0})
    for sid, parent, name, start, end, _tid in spans:
        row = out[name]
        row["calls"] += 1
        row["self_s"] += selfs[sid]
        nested, p = False, parent
        while p != NO_PARENT and p in by_id:
            if by_id[p][2] == name:
                nested = True
                break
            p = by_id[p][1]
        if not nested:
            row["busy_s"] += end - start
    return dict(out)


def top_level_cover(spans, start, end):
    """Seconds of [start, end] covered by spans that have no parent."""
    roots = [(s[3], s[4]) for s in spans if s[1] == NO_PARENT]
    return _covered((start, end), roots)


def write_spans(path, spans):
    """Write spans as gzipped CSV: id, parent, name, start, end, thread."""
    with gzip.open(path, "wt", compresslevel=1) as fh:
        fh.write("id,parent,name,start_s,end_s,thread\n")
        for sid, parent, name, start, end, tid in spans:
            fh.write(f"{sid},{parent},{name},{start!r},{end!r},{tid}\n")
