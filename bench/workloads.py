"""The three workloads, the correctness gate, and their checks.

Each workload generates its inputs from the seed when it is built and
then runs identical passes over them. A pass returns one Item per timed
unit of work: a graph (wide-snakes), a command line call (long-arcs) or
the whole suite (selftest). Checks cheap enough to run inside a pass
run there; the rest run in ``final_check`` after timing ends.

The program is reached through module attributes at call time (for
example ``cli.main``, not a name imported from cli), so the wrappers a
traced run installs see every call.
"""

import io
import json
import os
import random
from collections import namedtuple
from time import perf_counter

from snakegraphs import algebra, cli, mpath, selftest, snakecore, surface

from metrics import SELFTEST_SECTIONS

Item = namedtuple("Item", "latency ok terms")


class Pass:
    """What one pass did: its items, failures, command line output bytes,
    selftest section times and printed text."""

    def __init__(self):
        self.items = []
        self.failures = []
        self.output_bytes = 0
        self.sections = {}
        self.text = None


# -- correctness gate --------------------------------------------------------

# The same fixture to verb mapping as the command line golden tests.
GOLDENS = (
    ("annulus", ["expand"]),
    ("selffolded_disk", ["expand", "--keep-boundary"]),
    ("punctured_torus", ["expand"]),
    ("hexagon", ["expand"]),
    ("skein_octagon", ["skein-check"]),
)


def run_cli(argv):
    """One in-process command line call: (exit code, stdout text)."""
    out = io.StringIO()
    try:
        code = cli.main(argv, out=out)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 2
    return code, out.getvalue()


def golden_gate(fixtures):
    """Byte-compare every fixture's output with its golden file; return
    the mismatches."""
    bad = []
    for name, verb in GOLDENS:
        code, text = run_cli(verb + [os.path.join(fixtures, name + ".json")])
        with open(os.path.join(fixtures, name + ".golden"), "rb") as fh:
            golden = fh.read()
        if code != 0 or text.encode("utf-8") != golden:
            bad.append("%s (%s): exit %d, output differs from golden"
                       % (name, " ".join(verb), code))
    return bad


# -- selftest ----------------------------------------------------------------

SELFTEST_TRIALS = {"identities": 100, "snakes": 500, "bands": 200,
                   "corners": 100, "surfaces": 200, "adjustments": 100,
                   "skein": 20}


class _SectionClock:
    """A stream for run_selftest that timestamps each line as it is
    written. The suite writes one line as each section ends."""

    def __init__(self, tracer):
        self.tracer = tracer
        self.lines = []

    def write(self, text):
        self.lines.append((perf_counter(), text))
        self.tracer.item += 1


class Selftest:
    """run_selftest(seed) at the default trial counts: every module,
    mpath and skein included. The item is the whole run, which is what a
    verifier waits for; its nine sections are timed for the per-layer
    metrics."""

    name = "selftest"

    def __init__(self, seed, workdir):
        self.seed = seed
        self.trials = None

    def run_pass(self, tracer):
        result = Pass()
        clock = _SectionClock(tracer)
        tracer.item = -1
        start = perf_counter()
        ok = selftest.run_selftest(seed=self.seed, stream=clock)
        latency = perf_counter() - start
        text = "".join(line for _, line in clock.lines)
        result.text = text
        body = clock.lines[1:-1]
        previous = clock.lines[0][0]
        trials = {}
        for (stamp, line), section in zip(body, SELFTEST_SECTIONS):
            fields = line.split()
            good = (fields[0] == section and fields[-1] == "ok")
            for field in fields[1:-1]:
                if field.startswith("trials="):
                    trials[section] = int(field[len("trials="):])
            result.sections[section] = stamp - previous
            if not good:
                result.failures.append(line.strip())
            previous = stamp
        if len(body) != len(SELFTEST_SECTIONS):
            result.failures.append("expected %d sections, got %d lines"
                                   % (len(SELFTEST_SECTIONS), len(body)))
        if not ok or not text.endswith("result: PASS\n"):
            result.failures.append("selftest did not report PASS")
        if trials != SELFTEST_TRIALS:
            result.failures.append("trial counts %r, expected %r"
                                   % (trials, SELFTEST_TRIALS))
        result.items.append(Item(latency, not result.failures, 0))
        self.trials = trials
        return result

    def final_check(self):
        return []

    def record(self):
        return {"selftest_seed": self.seed, "trials": self.trials}


# -- wide-snakes -------------------------------------------------------------

# Each pass holds the same profile of graphs: (kind, tiles, matchings),
# two snakes per band, at the quartiles (snakes) and the median (bands)
# of the matching counts over all shape words of that many tiles. The
# seed picks which words realise each entry, so every seed does the same
# amount of work on different graphs.
WIDE_PROFILE = (
    ("snake", 10, 59), ("snake", 10, 97), ("band", 10, 59),
    ("snake", 11, 86), ("snake", 11, 145), ("band", 11, 88),
    ("snake", 12, 126), ("snake", 12, 219), ("band", 12, 127),
    ("snake", 13, 181), ("snake", 13, 331), ("band", 13, 188),
    ("snake", 14, 267), ("snake", 14, 500), ("band", 14, 285),
    ("snake", 15, 393), ("snake", 15, 757), ("band", 15, 420),
)
WIDE_TOLERANCE = 0.03
# The worst case at 16 tiles: the period-4 word has Fibonacci(18)
# matchings, the most any 16-tile snake has.
TAIL_WORD = tuple(("NEEN" * 4)[:15])
TAIL_MATCHINGS = 2584


def _mat_mul(p, q):
    return (p[0] * q[0] + p[1] * q[2], p[0] * q[1] + p[1] * q[3],
            p[2] * q[0] + p[3] * q[2], p[2] * q[1] + p[3] * q[3])


def matching_count(kind, word):
    """Perfect matchings of a snake, or good matchings of a band, on a
    shape word: the transfer product with every variable set to 1."""
    m = (1, 0, 0, 1)
    for j, letter in enumerate(word):
        straight = letter == "N" if j == 0 else letter == word[j - 1]
        m = _mat_mul((1, 0, 1, 1) if straight else (1, 1, 0, 1), m)
    if kind == "band":
        m = _mat_mul((1, 1, 0, 1), m)
        return m[0] + m[3]
    return _mat_mul(_mat_mul((1, 1, -1, 0), m), (0, 1, -1, 1))[1]


def _labels(d):
    return ([("x", "i%d" % (j + 1)) for j in range(d)],
            [("x", "g%d" % (j + 1)) for j in range(d - 1)])


def build_graph(kind, word):
    diagonals, glues = _labels(len(word) + 1)
    if kind == "band":
        return snakecore.BandGraph(diagonals, list(word), glues, ("b", "c"))
    return snakecore.SnakeGraph(diagonals, list(word), glues,
                                ("b", "a"), ("b", "b"), ("b", "w"),
                                ("b", "z"))


def _count_terms(text):
    return 0 if text == "0" else 1 + text.count(" + ") + text.count(" - ")


class WideSnakes:
    """Generic snakes and bands of 10-15 tiles plus the 16-tile worst
    case. Many terms from short monomials: matching enumeration,
    height_mono and Poly addition do most of the work."""

    name = "wide-snakes"

    def __init__(self, seed, workdir):
        rng = random.Random(seed)
        self.graphs = []
        for kind, d, target in WIDE_PROFILE:
            slack = max(1, int(target * WIDE_TOLERANCE))
            while True:
                word = tuple(rng.choice("NE") for _ in range(d - 1))
                count = matching_count(kind, word)
                if abs(count - target) <= slack:
                    break
            self.graphs.append((kind, word, count))
        self.graphs.append(("snake", TAIL_WORD, TAIL_MATCHINGS))

    def run_pass(self, tracer):
        result = Pass()
        for i, (kind, word, count) in enumerate(self.graphs):
            tracer.item = i
            start = perf_counter()
            g = build_graph(kind, word)
            by_matchings = g.enumerator_by_matchings()
            by_matrices = g.enumerator_by_matrices()
            same = by_matchings == by_matrices
            text = algebra.format_poly(by_matchings)
            latency = perf_counter() - start
            # Generic labels give every matching its own monomial.
            terms = _count_terms(text)
            ok = same and terms == count
            result.items.append(Item(latency, ok, terms))
            if not ok:
                result.failures.append(
                    "%s %s: routes agree %s, %d terms for %d matchings"
                    % (kind, "".join(word), same, terms, count))
        return result

    def final_check(self):
        return []

    def record(self):
        return {"graphs": [[k, "".join(w), c] for k, w, c in self.graphs]}


# -- long-arcs ---------------------------------------------------------------

# Fixed sizes, so that every seed does the same work: the seed picks
# where each chord lies and which way it runs.
POLYGON = 300
CHORD_CROSSINGS = (30, 55, 80)
RING = 12


def _side(i, j):
    return "%d-%d" % (min(i, j), max(i, j))


def fan_polygon_doc(n, chords):
    """The n-gon fanned from vertex 0, vertices clockwise, with the given
    chords (a, b) as named arcs."""
    curves = []
    for a, b in chords:
        lo, hi = min(a, b), max(a, b)
        crossings = [_side(0, k) for k in range(lo + 1, hi)]
        if a > b:
            crossings.reverse()
        curves.append({
            "name": "chord-%d-%d" % (a, b), "kind": "arc",
            "crossings": crossings,
            "start_triangle": a - 1 if b > a else a - 2,
            "end_triangle": b - 2 if b > a else b - 1,
        })
    return {
        "arcs": [_side(0, k) for k in range(2, n - 1)],
        "boundary": [_side(k, k + 1) for k in range(n - 1)]
        + [_side(0, n - 1)],
        "punctures": [],
        "triangles": [[_side(0, k), _side(k, k + 1), _side(0, k + 1)]
                      for k in range(1, n - 1)],
        "curves": curves,
    }


def ring_doc(k):
    """The annulus with k marked points per boundary circle, 2k arcs in a
    zigzag, and its core loop."""
    m = 2 * k
    arcs = [str(j + 1) for j in range(m)]
    outer = ["o%d" % (j + 1) for j in range(k)]
    inner = ["i%d" % (j + 1) for j in range(k)]
    triangles = []
    for j in range(m):
        a, b = arcs[j], arcs[(j + 1) % m]
        triangles.append([a, outer[j], b] if j < k else [a, b, inner[j - k]])
    return {
        "arcs": arcs, "boundary": outer + inner, "punctures": [],
        "triangles": triangles,
        "curves": [{"name": "core", "kind": "loop", "crossings": arcs,
                    "basepoint_triangle": m - 1}],
    }


class LongArcs:
    """The command line run once per curve and verb on generated JSON: a
    fan-triangulated 300-gon with long chords and a ring's core loop.
    Few terms from very wide monomials: JSON load, validation,
    substitution and formatting do most of the work."""

    name = "long-arcs"

    def __init__(self, seed, workdir):
        rng = random.Random(seed)
        chords = []
        for d in CHORD_CROSSINGS:
            a = rng.randint(1, POLYGON - 2 - d)
            b = a + d + 1
            chords.append((b, a) if rng.random() < 0.5 else (a, b))
        self.polygon = os.path.join(workdir, "polygon.json")
        self.ring = os.path.join(workdir, "ring.json")
        with open(self.polygon, "w", encoding="utf-8") as fh:
            json.dump(fan_polygon_doc(POLYGON, chords), fh, indent=1)
        with open(self.ring, "w", encoding="utf-8") as fh:
            json.dump(ring_doc(RING), fh, indent=1)
        self.curves = [(self.polygon, "chord-%d-%d" % c) for c in chords]
        self.curves.append((self.ring, "core"))
        self.calls = [(verb, path, name) for path, name in self.curves
                      for verb in ("expand", "verify")]
        self.expanded = {}

    def run_pass(self, tracer):
        result = Pass()
        for i, (verb, path, name) in enumerate(self.calls):
            tracer.item = i
            start = perf_counter()
            code, text = run_cli([verb, "--curve", name, path])
            latency = perf_counter() - start
            result.output_bytes += len(text.encode("utf-8"))
            terms = 0
            if verb == "verify":
                ok = code == 0 and text == "curve %s: methods agree\n" % name
            else:
                first = self.expanded.setdefault(name, text)
                ok = code == 0 and text == first
                lines = text.split("\n")
                terms = _count_terms(lines[1][3:]) if len(lines) > 1 else 0
            result.items.append(Item(latency, ok, terms))
            if not ok:
                result.failures.append("%s %s: exit %d, output %r"
                                       % (verb, name, code, text[:200]))
        return result

    def final_check(self):
        """Compare each expansion's X line with the third route, the
        M-path product of mpath.chi."""
        bad = []
        for path, name in self.curves:
            with open(path, encoding="utf-8") as fh:
                tri, curves = surface.triangulation_from_dict(json.load(fh))
            curve = next(c for c in curves if c.name == name)
            want = "X: %s" % algebra.format_poly(
                mpath.chi(tri, mpath.path_for_curve(tri, curve)))
            lines = self.expanded.get(name, "").split("\n")
            if len(lines) < 2 or lines[1] != want:
                bad.append("expand %s: X differs from the M-path route"
                           % name)
        return bad

    def record(self):
        return {"polygon": POLYGON, "ring": RING,
                "curves": [name for _, name in self.curves]}


WORKLOADS = {cls.name: cls for cls in (Selftest, WideSnakes, LongArcs)}
