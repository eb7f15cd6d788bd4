"""Run-time spans and counters around the program's public functions.

Nothing here edits the program's source: ``Tracer.install_spans`` and
``install_counters`` replace each target function, at run time, in
every place it is bound. A
function that another module took in with ``from ... import`` is bound
there too, so each module that holds the original gets the wrapper; a
method is replaced in its class, under every attribute name that holds
it (``Poly.__radd__`` is ``Poly.__add__``). ``uninstall`` puts every
original back. Every wrapper carries ``WRAPPER_MARK`` so that an
untraced run can prove it installed none.

A span is (name, start, end, parent span, item id, work), where work is
a count taken at the boundary, such as the matchings a call returned.
"""

import importlib
import json
from time import perf_counter

from metrics import PER_LAYER

PACKAGE = "snakegraphs"
MODULES = ("algebra", "snakecore", "surface", "mpath", "skein", "selftest",
           "cli")
WRAPPER_MARK = "__bench_wrapper__"


def _len_result(args, result):
    return len(result)


def _len_first_arg(args, result):
    return len(args[0])


def _triangles(args, result):
    return len(args[0].triangles)


# (module, attribute path, work taken at the boundary or None). The span
# name is "<module>.<attribute path>".
SPAN_TARGETS = (
    ("cli", "main", None),
    ("surface", "triangulation_from_dict", None),
    ("surface", "Triangulation.__init__", _triangles),
    ("surface", "arc_layout", None),
    ("surface", "loop_layout", None),
    ("surface", "expand", None),
    ("surface", "expand_by_matrices", None),
    ("snakecore", "SnakeGraph.__init__", None),
    ("snakecore", "BandGraph.__init__", None),
    ("snakecore", "SnakeGraph.perfect_matchings", _len_result),
    ("snakecore", "BandGraph.good_matchings", None),
    ("snakecore", "SnakeGraph.minimal_matching", None),
    ("snakecore", "SnakeGraph.height_mono", None),
    ("snakecore", "SnakeGraph.enumerator_by_matchings", None),
    ("snakecore", "BandGraph.enumerator_by_matchings", None),
    ("snakecore", "SnakeGraph.enumerator_by_matrices", None),
    ("snakecore", "BandGraph.enumerator_by_matrices", None),
    ("mpath", "path_for_curve", None),
    ("mpath", "path_matrix", _len_first_arg),
    ("mpath", "chi", None),
    ("algebra", "Mat2.__mul__", None),
    ("algebra", "Poly.substitute", None),
    ("algebra", "format_poly", _len_result),
    ("skein", "verify_skein", None),
    ("skein", "check_matrix_identities", None),
)

# The algebra's hottest constructors and operators, counted in a pass of
# their own: a span per call would swamp the span times above.
# terms_out sums the terms of every polynomial built.
COUNT_TARGETS = (
    ("algebra", "Mono.__init__", "mono_new"),
    ("algebra", "Poly.__mul__", "poly_mul"),
    ("algebra", "Poly.__add__", "poly_add"),
    ("algebra", "Poly.__init__", "terms_out"),
)


def package_modules():
    return [importlib.import_module("%s.%s" % (PACKAGE, m)) for m in MODULES]


def _resolve(module, path):
    owner = importlib.import_module("%s.%s" % (PACKAGE, module))
    parts = path.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part)
    return owner, vars(owner)[parts[-1]]


def _bindings(owner, original):
    """Every (namespace owner, name) that holds ``original``."""
    if isinstance(owner, type):
        return [(owner, k) for k, v in vars(owner).items() if v is original]
    return [(mod, k) for mod in package_modules()
            for k, v in vars(mod).items() if v is original]


def installed_wrappers():
    """Names in the package's modules and classes bound to a wrapper."""
    found = []
    for mod in package_modules():
        for name, value in vars(mod).items():
            if getattr(value, WRAPPER_MARK, False):
                found.append("%s.%s" % (mod.__name__, name))
            if isinstance(value, type) and value.__module__ == mod.__name__:
                for attr, member in vars(value).items():
                    if getattr(member, WRAPPER_MARK, False):
                        found.append("%s.%s.%s"
                                     % (mod.__name__, name, attr))
    return found


class Tracer:
    """Spans for one pass at a time, kept in memory."""

    def __init__(self):
        self.item = -1
        self.spans = []
        self._stack = []
        self.counts = {}
        self._saved = []

    def _replace(self, owner, original, wrapper):
        wrapper.__wrapped__ = original
        setattr(wrapper, WRAPPER_MARK, True)
        for holder, name in _bindings(owner, original):
            self._saved.append((holder, name, original))
            setattr(holder, name, wrapper)

    def install_spans(self):
        for module, path, work in SPAN_TARGETS:
            owner, original = _resolve(module, path)
            self._replace(owner, original,
                          self._span_wrapper("%s.%s" % (module, path),
                                             original, work))

    def install_counters(self):
        for module, path, counter in COUNT_TARGETS:
            owner, original = _resolve(module, path)
            self.counts[counter] = 0
            if counter == "terms_out":
                wrapper = self._terms_counter(original)
            else:
                wrapper = self._counter(counter, original)
            self._replace(owner, original, wrapper)

    def uninstall(self):
        for holder, name, original in reversed(self._saved):
            setattr(holder, name, original)
        self._saved = []

    def _span_wrapper(self, name, fn, work):
        tracer = self
        stack = self._stack

        def wrapper(*args, **kwargs):
            spans = tracer.spans
            sid = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(sid)
            amount = 0
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
                if work is not None:
                    amount = work(args, result)
                return result
            finally:
                spans[sid] = (name, start, perf_counter(), parent,
                              tracer.item, amount)
                stack.pop()

        return wrapper

    def _counter(self, counter, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[counter] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _terms_counter(self, fn):
        counts = self.counts

        def wrapper(self_, *args, **kwargs):
            fn(self_, *args, **kwargs)
            # Poly has no public term count, and terms() would sort.
            counts["terms_out"] += len(self_._terms)

        return wrapper

    def take_spans(self):
        spans, self.spans = self.spans, []
        return spans


def _outermost(spans, names):
    """Spans named in ``names`` with no ancestor named in ``names``."""
    out = []
    for span in spans:
        if span[0] not in names:
            continue
        parent = span[3]
        while parent >= 0 and spans[parent][0] not in names:
            parent = spans[parent][3]
        if parent < 0:
            out.append(span)
    return out


def _child_times(spans):
    child_time = [0.0] * len(spans)
    for name, start, end, parent, item, work in spans:
        if parent >= 0:
            child_time[parent] += end - start
    return child_time


def per_layer(spans, counts):
    """Every PER_LAYER metric of one traced pass. ``counts`` supplies the
    metrics of kind "count"; a missing count reads 0."""
    child_time = _child_times(spans)
    values = {}
    ratios = []
    for metric, (unit, kind, on, moves) in PER_LAYER.items():
        how, *args = kind
        names = set(args)
        if how == "time":
            values[metric] = sum(s[2] - s[1] for s in _outermost(spans, names))
        elif how == "self":
            values[metric] = sum(s[2] - s[1] - child_time[i]
                                 for i, s in enumerate(spans)
                                 if s[0] in names)
        elif how == "calls":
            values[metric] = sum(1 for s in spans if s[0] in names)
        elif how == "work":
            values[metric] = sum(s[5] for s in spans if s[0] in names)
        elif how == "count":
            values[metric] = counts.get(args[0], 0)
        else:
            ratios.append((metric, args))
    for metric, (num, den) in ratios:
        values[metric] = values[num] / values[den] if values[den] else 0.0
    return values


def write_spans(path, passes):
    """Write the spans of each traced pass as JSON, one pass per line,
    with times in microseconds from the pass's first span."""
    with open(path, "w", encoding="utf-8") as fh:
        for spans in passes:
            origin = min((s[1] for s in spans), default=0.0)
            rows = [[s[0], round((s[1] - origin) * 1e6, 1),
                     round((s[2] - origin) * 1e6, 1), s[3], s[4], s[5]]
                    for s in spans]
            json.dump({"fields": ["name", "start_us", "end_us", "parent",
                                  "item", "work"], "spans": rows}, fh,
                      separators=(",", ":"))
            fh.write("\n")
