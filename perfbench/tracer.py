"""Per-function timing of the adw library, installed from outside it.

The tracer replaces every public function of every ``adw.*`` module, and the
public methods of the classes those modules define, with a timing wrapper.
Modules bind kernels by ``from .linalg import matmul``, so a function is
rebound under every name it has in every ``adw`` module, not only in the module
that defines it.  ``restore()`` puts every original back.

Every wrapped call adds to a per-function aggregate (calls, inclusive time,
self time).  Calls of the functions for which ``is_span(key)`` holds are also
kept as spans (id, parent id, request id, name, start, end), as are the root spans
that ``root()`` opens around each request.  A span's self time is its
duration minus the time of the wrapped calls made directly inside it, so the
self times of all calls under a root sum to the root's duration.
"""

from __future__ import annotations

import inspect
import time
from functools import cached_property

perf = time.perf_counter

# GFElement arithmetic: the scalar operations of the prime-field path.
GF_ARITHMETIC = ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
                 "__truediv__", "__rtruediv__", "__neg__")


def short_module(name):
    return name[len("adw."):] if name.startswith("adw.") else name


class Tracer:
    def __init__(self, is_span=lambda key: False, scope_keys=frozenset()):
        self.stats = {}          # key -> [calls, inclusive seconds, self seconds]
        self.spans = []          # (id, parent, request, name, start, end)
        self.is_span = is_span
        # ``scope_depth`` counts the open calls of ``scope_keys``, so a caller
        # can tell work done inside them from work done elsewhere.
        self.scope_keys = frozenset(scope_keys)
        self.scope_depth = 0
        self._child = [0.0]      # child-time accumulator per open call
        self._active = {}        # key -> open calls, so recursion counts once
        self._open_spans = []
        self._request = None
        self._patches = []
        self._root = self.wrap("request", lambda fn: fn())

    # -- wrappers ----------------------------------------------------------

    def wrap(self, key, fn):
        stats = self.stats.setdefault(key, [0, 0.0, 0.0])
        child = self._child
        active = self._active
        spans = self.spans if key == "request" or self.is_span(key) else None
        scoped = key in self.scope_keys
        tracer = self

        def traced(*args, **kwargs):
            child.append(0.0)
            depth = active.get(key, 0)
            active[key] = depth + 1
            if spans is not None:
                sid = len(spans)
                spans.append(None)
                parent = tracer._open_spans[-1] if tracer._open_spans else None
                tracer._open_spans.append(sid)
            if scoped:
                tracer.scope_depth += 1
            t0 = perf()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = perf()
                dt = t1 - t0
                inner = child.pop()
                child[-1] += dt
                active[key] = depth
                stats[0] += 1
                if not depth:
                    stats[1] += dt
                stats[2] += dt - inner
                if scoped:
                    tracer.scope_depth -= 1
                if spans is not None:
                    tracer._open_spans.pop()
                    spans[sid] = (sid, parent, tracer._request, key, t0, t1)

        traced.__wrapped__ = fn
        return traced

    def root(self, request_id, fn):
        """Run one request as a root span; returns (result, seconds)."""
        self._request = request_id
        t0 = perf()
        try:
            result = self._root(fn)
        finally:
            dt = perf() - t0
            self._request = None
        return result, dt

    # -- installation --------------------------------------------------------

    def patch(self, owner, name, value):
        """Replace an attribute until ``restore()``."""
        self._patches.append((owner, name, owner.__dict__[name] if isinstance(owner, type)
                              else getattr(owner, name)))
        setattr(owner, name, value)

    def install(self, modules):
        """Wrap the public functions and methods of the given adw modules."""
        modules = [m for m in modules if m.__name__ == "adw" or m.__name__.startswith("adw.")]
        # canonical key of each library function: module of definition + name
        keys = {}
        for mod in modules:
            for name, obj in vars(mod).items():
                if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                        and not name.startswith("_")):
                    qual = obj.__qualname__
                    if "<locals>" in qual:
                        qual = name
                    keys.setdefault(obj, "%s.%s" % (short_module(mod.__name__), qual))
        wrappers = {fn: self.wrap(key, fn) for fn, key in keys.items()}
        for mod in modules:
            for name, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    self.patch(mod, name, wrappers[obj])
        for mod in modules:
            for cls in list(vars(mod).values()):
                if inspect.isclass(cls) and cls.__module__ == mod.__name__:
                    self._install_class(cls, short_module(mod.__name__))

    def _install_class(self, cls, modname):
        for name, attr in list(cls.__dict__.items()):
            key = "%s.%s.%s" % (modname, cls.__qualname__, name)
            public = not name.startswith("_") or name in GF_ARITHMETIC
            if not public:
                continue
            if inspect.isfunction(attr):
                self.patch(cls, name, self.wrap(key, attr))
            elif isinstance(attr, staticmethod):
                self.patch(cls, name, staticmethod(self.wrap(key, attr.__func__)))
            elif isinstance(attr, cached_property):
                prop = cached_property(self.wrap(key, attr.func))
                prop.__set_name__(cls, name)
                self.patch(cls, name, prop)

    def restore(self):
        while self._patches:
            owner, name, value = self._patches.pop()
            setattr(owner, name, value)

    # -- readout -------------------------------------------------------------

    def total(self, keys, field):
        idx = {"calls": 0, "incl_s": 1, "self_s": 2}[field]
        return sum(self.stats[k][idx] for k in keys if k in self.stats)
