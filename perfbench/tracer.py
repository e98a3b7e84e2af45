"""Outside-in tracing of vppsim's layers.

`Tracer.install` replaces every public function and method of the traced
modules, and the scipy factorization entry points the QP solver may call,
with a thin wrapper that records a span: name, layer, start, end and the
span that caused it.  Every module binding of a traced function is
replaced, so a name imported into several modules (`dual_update` lives in
`coordinator` and `chain`, `digest` in `chain` and `simnet`) is counted
whichever module the caller reaches it through.  Nothing inside the
program changes; `uninstall` puts every original back.

Per name the tracer keeps calls, inclusive time and layer-exclusive time
(the span minus the time spent below it in other layers).  Spans are kept
in memory only where a call crosses a layer boundary, which bounds their
number by the interaction between layers rather than by inner loops.
Probes attached to a few names turn arguments and results into counts
(ADMM iterations, block transactions, digest bytes, log size).
"""

from __future__ import annotations

import functools
import importlib
import inspect
import os
import sys
import time
from collections import defaultdict

LAYERS = ("qp", "agent", "model", "coordinator", "chain", "simnet",
          "experiment", "scenario_io")

# scipy entry points a QP core may factor with, and the module that
# exports each; `lu_factor` is the polish step's KKT factorization.
FACTOR_ENTRY_POINTS = (("scipy.linalg", "cho_factor"),
                       ("scipy.sparse.linalg", "splu"),
                       ("scipy.sparse.linalg", "factorized"),
                       ("scipy.linalg", "lu_factor"))


class Frame:
    __slots__ = ("name", "layer", "start", "foreign", "span", "token")

    def __init__(self, name, layer, start, span, token):
        self.name = name
        self.layer = layer
        self.start = start
        self.foreign = 0.0
        self.span = span
        self.token = token


class Tracer:
    def __init__(self):
        self.calls = defaultdict(int)
        self.total = defaultdict(float)
        self.exclusive = defaultdict(float)
        self.layer_self = defaultdict(float)
        self.spans = []          # (id, parent id, name, start, end)
        self.counts = defaultdict(float)
        self.samples = defaultdict(list)
        self.stack: list[Frame] = []
        self.probes = {}         # name -> (before, after)
        self._restore = []       # (namespace, attribute, original)
        self._next_span = 1

    # -- wrapping ---------------------------------------------------------

    def wrap(self, fn, name, layer):
        tracer = self

        def traced(*args, **kwargs):
            stack = tracer.stack
            parent = stack[-1] if stack else None
            probe = tracer.probes.get(name)
            token = probe[0](args, kwargs) if probe and probe[0] else None
            if parent is None or parent.layer != layer:
                span = tracer._next_span
                tracer._next_span += 1
            else:
                span = parent.span
            frame = Frame(name, layer, time.perf_counter(), span, token)
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                tracer._close(frame, parent, end)
            if probe and probe[1]:
                probe[1](frame.token, args, kwargs, result, end - frame.start)
            return result

        return functools.wraps(fn)(traced)

    def _close(self, frame, parent, end):
        dur = end - frame.start
        excl = dur - frame.foreign
        self.calls[frame.name] += 1
        self.total[frame.name] += dur
        self.exclusive[frame.name] += excl
        boundary = parent is None or parent.layer != frame.layer
        if boundary:
            self.layer_self[frame.layer] += excl
            self.spans.append((frame.span, parent.span if parent else 0,
                               frame.name, frame.start, end))
        if parent is not None:
            parent.foreign += dur if boundary else frame.foreign

    def _replace(self, namespace, attr, new):
        self._restore.append((namespace, attr, namespace.__dict__[attr]
                              if isinstance(namespace, type)
                              else getattr(namespace, attr)))
        setattr(namespace, attr, new)

    def install(self, package="vppsim", layers=LAYERS):
        """Wrap the public functions and methods of the package's layers."""
        modules = {layer: importlib.import_module(f"{package}.{layer}")
                   for layer in layers}
        functions = {}           # original function -> wrapper
        for layer, mod in modules.items():
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_"):
                    continue
                if inspect.isfunction(obj) and obj.__module__ == mod.__name__:
                    functions[obj] = self.wrap(obj, attr, layer)
                elif inspect.isclass(obj) and obj.__module__ == mod.__name__:
                    self._wrap_class(obj, mod, layer)
        for modname, attr in FACTOR_ENTRY_POINTS:
            mod = importlib.import_module(modname)
            original = getattr(mod, attr)
            functions[original] = self.wrap_attr(mod, attr, attr, "qp")
        # every binding of a wrapped function in any loaded package module
        bound = [m for n, m in sys.modules.items()
                 if n == package or n.startswith(package + ".")]
        for mod in bound:
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in functions:
                    self._replace(mod, attr, functions[obj])
        for mod in bound:
            for attr, obj in vars(mod).items():
                if inspect.isfunction(obj) and obj in functions:
                    raise RuntimeError(f"{mod.__name__}.{attr} left unwrapped")

    def wrap_attr(self, namespace, attr, name, layer):
        """Trace one function or method reached as namespace.attr."""
        fn = getattr(namespace, attr)
        wrapped = self.wrap(fn, name, layer)
        self._replace(namespace, attr, wrapped)
        return wrapped

    def _wrap_class(self, cls, mod, layer):
        source = os.path.abspath(mod.__file__)
        for attr, obj in list(vars(cls).items()):
            if attr.startswith("_") and attr != "__init__":
                continue
            kind = None
            fn = obj
            if isinstance(obj, (staticmethod, classmethod)):
                kind = type(obj)
                fn = obj.__func__
            if not inspect.isfunction(fn):
                continue
            # dataclass-generated methods are compiled from strings
            if os.path.abspath(fn.__code__.co_filename) != source:
                continue
            name = f"{cls.__name__}.{attr}"
            wrapped = self.wrap(fn, name, layer)
            self._replace(cls, attr, kind(wrapped) if kind else wrapped)

    def uninstall(self):
        for namespace, attr, original in reversed(self._restore):
            setattr(namespace, attr, original)
        self._restore = []

    # -- queries ----------------------------------------------------------

    def caller(self) -> str | None:
        """Name of the innermost open span, seen from inside a probe."""
        return self.stack[-1].name if self.stack else None

    def write_spans(self, path):
        with open(path, "w") as fh:
            fh.write("# id\tparent\tname\tstart_s\tend_s\n")
            t0 = min((s[3] for s in self.spans), default=0.0)
            for sid, parent, name, start, end in self.spans:
                fh.write(f"{sid}\t{parent}\t{name}\t{start - t0:.6f}\t"
                         f"{end - t0:.6f}\n")
