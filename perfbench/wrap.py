"""Layer tracing for taulab, installed from outside the package.

``install()`` rebinds every public function of each taulab module, and every
method of the classes in ``CLASSES``, to a wrapper that times the call.  The
rebinding is done in every taulab module that holds the name, so call sites
that did ``from .x import y`` are caught as well.  Nothing under ``src/`` is
changed; the wrappers live only in the process that called ``install()``.

Each wrapper keeps an aggregate per callable (calls, self time, calls that
made further traced calls) and a per-call span ``(callable, start, duration,
depth)`` for the first ``SPAN_LIMIT`` calls of that callable; past the limit
only the aggregate grows.  Self time is a span's duration minus the time
covered by the traced calls it made.  ``fractions.Fraction`` arithmetic is
counted, not timed: its time stays in the self time of the caller.
"""

import fractions
import functools
import importlib
import sys
import time
import types

LAYERS = ("series", "partitions", "symfunc", "diffops", "hurwitz",
          "hierarchy", "pic", "hodge", "cli")
CLASSES = {"series": ("Series",), "partitions": ("Partition",),
           "diffops": ("TOp", "ZOp"), "hodge": ("ModuliPDESolver",)}
# identity and container protocol methods run inside dict, set and loop
# machinery; timing them would measure the interpreter, not the layer
SKIP_METHODS = frozenset(("__repr__", "__hash__", "__eq__", "__lt__", "__iter__",
                          "__len__", "__getitem__", "__setattr__"))
FRACTION_OPS = ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__",
                "__rmul__", "__truediv__", "__rtruediv__", "__floordiv__",
                "__rfloordiv__", "__mod__", "__rmod__", "__pow__", "__rpow__",
                "__neg__", "__pos__", "__abs__")
SPAN_LIMIT = 200
# callables whose distinct argument keys are counted (work a memo could skip)
DISTINCT_KEYS = {
    "symfunc.character": lambda mu, nu: (mu.parts, nu.parts),
    "hurwitz.hurwitz_frobenius[onepart]": lambda q: q.key(),
    "pic.bracket": lambda indices: tuple(sorted(indices)),
}
# result sizes: constructors whose instance term count is tracked per layer
SIZED = {"series.Series.__init__": "series", "diffops.TOp.__init__": "diffops"}


class Tracer:
    """In-memory spans and aggregates for one process."""

    def __init__(self):
        self.names = []
        self.stats = []
        self.keys = {}
        self.spans = []
        self.stack = [0.0]
        self.terms_max = {layer: 0 for layer in SIZED.values()}
        self.fraction_ops = [0]

    def wrap(self, name, fn):
        fid = len(self.names)
        self.names.append(name)
        stat = [0, 0.0, 0]  # calls, self seconds, calls with traced children
        self.stats.append(stat)
        stack, spans, clock = self.stack, self.spans, time.perf_counter
        key = DISTINCT_KEYS.get(name)
        seen = self.keys.setdefault(name, set()) if key else None
        sized = SIZED.get(name)
        terms_max = self.terms_max

        def traced(*args, **kwargs):
            if seen is not None:
                seen.add(key(*args, **kwargs))
            depth = len(stack)
            stack.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = clock() - start
                inner = stack.pop()
                stack[-1] += dur
                stat[0] += 1
                stat[1] += dur - inner
                if inner:
                    stat[2] += 1
                if stat[0] <= SPAN_LIMIT:
                    spans.append((fid, start, dur, depth))
            if sized is not None:
                n = len(args[0].terms)
                if n > terms_max[sized]:
                    terms_max[sized] = n
            return result

        return functools.update_wrapper(traced, fn)

    def count_fraction_ops(self):
        counter = self.fraction_ops
        for op in FRACTION_OPS:
            orig = getattr(fractions.Fraction, op)

            def counted(*args, _orig=orig):
                counter[0] += 1
                return _orig(*args)

            setattr(fractions.Fraction, op, counted)

    def report(self):
        """JSON-able aggregates and spans of this process."""
        return {
            "stats": {n: s for n, s in zip(self.names, self.stats) if s[0]},
            "distinct": {n: len(v) for n, v in self.keys.items()},
            "terms_max": dict(self.terms_max),
            "fraction_ops": self.fraction_ops[0],
            "root_s": self.stack[0],
            "names": self.names,
            "spans": self.spans,
        }


def _wrap_method(tracer, name, attr):
    if isinstance(attr, staticmethod):
        return staticmethod(tracer.wrap(name, attr.__func__))
    if isinstance(attr, classmethod):
        return classmethod(tracer.wrap(name, attr.__func__))
    if isinstance(attr, property):
        return property(tracer.wrap(name, attr.fget), attr.fset, attr.fdel,
                        attr.__doc__)
    if isinstance(attr, types.FunctionType):
        return tracer.wrap(name, attr)
    return None


def _split_frobenius(tracer, fn):
    """hurwitz_frobenius serves both families; give each its own name."""
    onepart = tracer.wrap("hurwitz.hurwitz_frobenius[onepart]", fn)
    simple = tracer.wrap("hurwitz.hurwitz_frobenius[simple]", fn)

    def hurwitz_frobenius(q):
        return (onepart if q.kind == "onepart" else simple)(q)

    return functools.update_wrapper(hurwitz_frobenius, fn)


def install():
    """Wrap the taulab layers in this process and return the Tracer."""
    import taulab  # noqa: F401
    tracer = Tracer()
    # a layer module not yet imported (the cli) is imported inside its layer
    modules = {layer: tracer.wrap(layer + ".<import>", importlib.import_module)(
        "taulab." + layer) for layer in LAYERS}
    replaced = {}
    for layer, mod in modules.items():
        for name, obj in list(vars(mod).items()):
            if (isinstance(obj, types.FunctionType) and obj.__module__ == mod.__name__
                    and not name.startswith("_")):
                if (layer, name) == ("hurwitz", "hurwitz_frobenius"):
                    replaced[id(obj)] = (obj, _split_frobenius(tracer, obj))
                else:
                    replaced[id(obj)] = (obj, tracer.wrap(layer + "." + name, obj))
        for cname in CLASSES.get(layer, ()):
            cls = getattr(mod, cname)
            for name, attr in list(vars(cls).items()):
                if name in SKIP_METHODS:
                    continue
                new = _wrap_method(tracer, "%s.%s.%s" % (layer, cname, name), attr)
                if new is not None:
                    setattr(cls, name, new)
    for mod in [sys.modules["taulab"]] + list(modules.values()):
        for name, obj in list(vars(mod).items()):
            hit = replaced.get(id(obj))
            if hit is not None and hit[0] is obj:
                setattr(mod, name, hit[1])
    tracer.count_fraction_ops()
    return tracer
