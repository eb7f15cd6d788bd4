"""Seeded generators and the deterministic property suite.

Everything here is reproducible from a seed: abstract snake and band
graphs with generic labels, triangulated polygons and annuli with random
curves, and fully decomposed smoothing instances on polygon fans. The
suite runner prints one line per section and is byte-stable for a fixed
seed, which the command line tool relies on.
"""

from __future__ import annotations

import os
import random
import sys

from .algebra import Mono, SnakeGraphsError, parse_poly
from .mpath import (
    CW,
    MPath,
    chi,
    chi_hat,
    insert_backtrack,
    path_for_curve,
    prepend_shear,
    reroute_shear,
    shear,
    swap_twist_pivot,
    twist,
)
from .skein import (
    ARC_ARC,
    SELF_INTERSECTION,
    WITH_LOOP,
    SkeinInstance,
    check_matrix_identities,
    kink_circuit,
    ptolemy_check,
    verify_skein,
)
from .snakecore import EAST, NORTH, SHEAR, TWIST, BandGraph, SnakeGraph
from .surface import (
    Curve,
    Triangulation,
    arc_layout,
    expand,
    expand_by_matrices,
    graph_for,
)


# -- abstract graphs with generic labels -----------------------------------


def generic_snake(shapes):
    """A snake graph over distinct symbolic labels, one tile per entry of
    ``shapes`` plus one."""
    d = len(shapes) + 1
    return SnakeGraph(
        diagonals=[("x", "i%d" % (j + 1)) for j in range(d)],
        shapes=list(shapes),
        glue_labels=[("x", "g%d" % (j + 1)) for j in range(d - 1)],
        corner_a=("b", "a"), corner_b=("b", "b"),
        corner_w=("b", "w"), corner_z=("b", "z"),
    )


def generic_band(shapes, cut="c"):
    d = len(shapes) + 1
    return BandGraph(
        diagonals=[("x", "i%d" % (j + 1)) for j in range(d)],
        shapes=list(shapes),
        glue_labels=[("x", "g%d" % (j + 1)) for j in range(d - 1)],
        cut_label=("b", cut),
    )


def random_snake(rng, max_tiles=10):
    d = rng.randint(1, max_tiles)
    return generic_snake([rng.choice([NORTH, EAST]) for _ in range(d - 1)])


def random_band(rng, max_tiles=10):
    d = rng.randint(2, max_tiles)
    return generic_band([rng.choice([NORTH, EAST]) for _ in range(d - 1)])


# -- triangulated polygons -------------------------------------------------


def _pside(i, j):
    i, j = min(i, j), max(i, j)
    return "%d-%d" % (i, j)


def fan_triangulation(n):
    """The n-gon triangulated by the diagonals from vertex 0; vertices
    are numbered clockwise."""
    arcs = [_pside(0, k) for k in range(2, n - 1)]
    boundary = [_pside(k, k + 1) for k in range(n - 1)] + [_pside(0, n - 1)]
    triangles = [(_pside(0, k), _pside(k, k + 1), _pside(0, k + 1))
                 for k in range(1, n - 1)]
    return Triangulation(arcs, boundary, [], triangles)


def fan_chord(n, a, b):
    """The chord of the fan-triangulated n-gon from vertex a to b."""
    lo, hi = min(a, b), max(a, b)
    if hi - lo < 2 or (lo, hi) == (0, n - 1):
        raise ValueError("chord (%d,%d) does not cross the fan" % (a, b))
    crossings = [_pside(0, k) for k in range(lo + 1, hi)]
    if a > b:
        crossings.reverse()
    start = a - 1 if b > a else a - 2
    end = b - 2 if b > a else b - 1
    return Curve("arc", crossings, start_triangle=start, end_triangle=end)


def random_polygon(rng, n):
    """A uniform-ish random triangulation of the n-gon, built by
    recursive splitting; vertices are numbered clockwise."""
    triangles = []

    def split(chain):
        if len(chain) == 2:
            return
        k = rng.randint(1, len(chain) - 2)
        u, v, w = chain[0], chain[k], chain[-1]
        triangles.append((_pside(u, v), _pside(v, w), _pside(u, w)))
        split(chain[:k + 1])
        split(chain[k:])

    split(list(range(n)))
    boundary = set(_pside(k, (k + 1) % n) for k in range(n))
    seen = set(s for t in triangles for s in t)
    arcs = sorted(seen - boundary)
    return Triangulation(arcs, sorted(boundary), [], triangles)


def random_polygon_arc(rng, tri, max_tiles=8):
    """An arc obtained from a random walk in the dual tree of a polygon
    triangulation: the unique dual path between two random triangles."""
    neighbors = {}
    # the arcs in order of first appearance, each in two triangles
    for s in dict.fromkeys(s for t in tri.triangles for s in t
                           if not tri.is_boundary(s)):
        i, j = tri.triangles_containing(s)
        neighbors.setdefault(i, []).append((s, j))
        neighbors.setdefault(j, []).append((s, i))
    candidates = sorted(neighbors)
    if not candidates:
        return None
    start = rng.choice(candidates)
    crossings = []
    here, came_from = start, None
    for _ in range(rng.randint(1, max_tiles)):
        options = [(s, j) for s, j in neighbors.get(here, [])
                   if j != came_from]
        if not options:
            break
        s, j = options[rng.randrange(len(options))]
        crossings.append(s)
        came_from, here = here, j
    if not crossings:
        return None
    return Curve("arc", crossings, start_triangle=start, end_triangle=here)


# -- triangulated annuli ---------------------------------------------------


def ring_triangulation(k):
    """An annulus with k marked points on each boundary circle: 2k arcs
    in a cyclic zigzag, k triangles fanned from each boundary."""
    if k < 2:
        raise ValueError("ring needs at least two marked points per side")
    arcs = [str(j + 1) for j in range(2 * k)]
    outer = ["o%d" % (j + 1) for j in range(k)]
    inner = ["i%d" % (j + 1) for j in range(k)]
    triangles = []
    for j in range(2 * k):
        a, b = arcs[j], arcs[(j + 1) % (2 * k)]
        if j < k:
            triangles.append((a, outer[j], b))
        else:
            triangles.append((a, b, inner[j - k]))
    return Triangulation(arcs, outer + inner, [], triangles)


def random_ring_arc(rng, k, max_tiles=8):
    """A winding arc on the ring: a non-backtracking walk in the dual
    cycle, possibly wrapping around more than once."""
    m = 2 * k
    d = rng.randint(1, max_tiles)
    direction = rng.choice([1, -1])
    first = rng.randrange(m)
    crossings = [str((first + t * direction) % m + 1) for t in range(d)]
    start = (first - 1) % m if direction == 1 else first
    end = (first + (d - 1) * direction) % m
    if direction == -1:
        end = (end - 1) % m
    return Curve("arc", crossings, start_triangle=start, end_triangle=end)


def ring_core_loop(rng, k):
    m = 2 * k
    first = rng.randrange(m)
    crossings = [str((first + t) % m + 1) for t in range(m)]
    return Curve("loop", crossings,
                 basepoint_triangle=(first - 1) % m)


def random_surface_curves(rng, count, max_tiles=8):
    """(triangulation, curve) pairs over random polygons and rings."""
    out = []
    while len(out) < count:
        if rng.random() < 0.6:
            tri = random_polygon(rng, rng.randint(4, 9))
            curve = random_polygon_arc(rng, tri, max_tiles)
        else:
            k = rng.randint(2, max_tiles // 2)
            tri = ring_triangulation(k)
            if rng.random() < 0.3:
                curve = ring_core_loop(rng, k)
            else:
                curve = random_ring_arc(rng, k, max_tiles)
        if curve is not None:
            out.append((tri, curve))
    return out


# -- smoothing instances on polygon fans -----------------------------------


def _fan_vertex_edges(n, m):
    """Sides incident to vertex m of the fan, in clockwise slot order."""
    out = [_pside(m, m + 1) if m + 1 < n else _pside(0, n - 1)]
    if 2 <= m <= n - 2:
        out.append(_pside(0, m))
    out.append(_pside(m - 1, m))
    return out


def corner_walk(tri, n, m, from_side, to_side):
    """Steps circling vertex m of the fan from one side to another,
    crossing any fan diagonal in between."""
    edges = _fan_vertex_edges(n, m)
    i0, i1 = edges.index(from_side), edges.index(to_side)
    v = tri.variable
    steps = []
    lo, hi = min(i0, i1), max(i0, i1)
    seq = edges[lo:hi + 1]
    if i0 > i1:
        seq = list(reversed(seq))
    for t in range(len(seq) - 1):
        e, f = seq[t], seq[t + 1]
        home = next(i for i in tri.triangles_containing(e)
                    if f in tri.triangles[i])
        steps.append(shear(v(e), v(f), v(tri.third_side(home, e, f)), CW))
        if t + 1 < len(seq) - 1:
            steps.append(twist(v(f), CW))
    return steps


def fan_lamination_count(i, j, k):
    """Crossings of the chord (i,j) with the elementary lamination that
    runs beside the fan diagonal (0,k)."""
    lo, hi = min(i, j), max(i, j)
    return 1 if lo <= k < hi else 0


def fan_skein_instance(n, p, q, r, s):
    """A crossing-chords instance on the fan-triangulated n-gon.

    The chords (p,r) and (q,s) cross; smoothing yields the pairs
    (p,s),(q,r) and (p,q),(r,s). Requires p < q < r < s with gaps of at
    least two so that every curve is a genuine chord.
    """
    if not (0 < p and p + 2 <= q and q + 2 <= r and r + 2 <= s
            and s <= n - 1):
        raise ValueError("vertices %r do not give six chords"
                         % ((p, q, r, s),))
    tri = fan_triangulation(n)
    curves = {
        "gamma1": fan_chord(n, r, p),
        "gamma2": fan_chord(n, q, s),
        "alpha1": fan_chord(n, p, s),
        "alpha2": fan_chord(n, r, q),
        "beta1": fan_chord(n, q, p),
        "beta2": fan_chord(n, r, s),
    }
    a2 = arc_layout(tri, curves["alpha2"])
    b1 = arc_layout(tri, curves["beta1"])
    a1 = arc_layout(tri, curves["alpha1"])
    sigma1 = corner_walk(tri, n, q, a2.corner_z[1], b1.corner_a[1])
    sigma2 = corner_walk(tri, n, p, b1.corner_z[1], a1.corner_a[1])
    spans = {"gamma1": (p, r), "gamma2": (q, s), "alpha1": (p, s),
             "alpha2": (q, r), "beta1": (p, q), "beta2": (r, s)}
    counts = {role: {_pside(0, k): fan_lamination_count(i, j, k)
                     for k in range(2, n - 1)}
              for role, (i, j) in spans.items()}
    inst = SkeinInstance(ARC_ARC, curves, sigma1=sigma1, sigma2=sigma2,
                         lamination_counts=counts)
    return tri, inst


def fan_skein_catalog(count):
    """The first ``count`` crossing-chord instances, smallest polygons
    first, in a fixed order."""
    out = []
    n = 8
    while len(out) < count:
        for p in range(1, n - 6):
            for q in range(p + 2, n - 4):
                for r in range(q + 2, n - 2):
                    for t in range(r + 2, n):
                        out.append((n, p, q, r, t))
                        if len(out) >= count:
                            return out
        n += 1
    return out


def ring_loop_instance(rotation_slot=0):
    """Bridging arc times core loop on the two-point ring; smoothing
    gives the once-wound arc and the opposite bridge."""
    tri = ring_triangulation(2)
    curves = {
        "gamma1": Curve("arc", ["1"], start_triangle=3, end_triangle=0),
        "gamma2": Curve("loop", ["1", "2", "3", "4"],
                        basepoint_triangle=3),
        "alpha": Curve("arc", ["1", "2", "3", "4", "1"],
                       start_triangle=3, end_triangle=0),
        "beta": Curve("arc", ["3"], start_triangle=1, end_triangle=2),
    }
    k = rotation_slot % 5
    inst = SkeinInstance(WITH_LOOP, curves, split_index=k,
                         loop_rotation=(k + 10) % 12)
    return tri, inst


def kink_instance(split_index=0):
    """A bridging arc with one contractible kink on the two-point ring;
    smoothing the kink gives a contractible loop term and the plain
    arc."""
    tri = ring_triangulation(2)
    plain = Curve("arc", ["1"], start_triangle=3, end_triangle=0)
    curves = {
        "gamma": Curve("arc", ["1"], start_triangle=3, end_triangle=0,
                       kinks=1),
        "alpha1": Curve("contractible_loop"),
        "alpha2": plain,
        "beta": plain,
    }
    circuit = kink_circuit(("x", "4"), ("x", "1"), ("b", "i2"))
    inst = SkeinInstance(SELF_INTERSECTION, curves,
                         split_index=split_index, insert_steps=circuit)
    return tri, inst


# -- golden fixtures -------------------------------------------------------


def golden_ring():
    """The two-point ring with its frozen loop expansion numerator."""
    tri = ring_triangulation(2)
    loop = Curve("loop", ["1", "2", "3", "4"], basepoint_triangle=3)
    return tri, loop


# -- suite runner ----------------------------------------------------------


_DEFAULT_TRIALS = {
    "identities": 100,
    "snakes": 500,
    "bands": 200,
    "corners": 100,
    "surfaces": 200,
    "adjustments": 100,
    "skein": 20,
}


def trial_counts(override=None):
    """The per-section trial counts, capped by ``override`` (or by the
    SNAKE_SELFTEST_TRIALS environment variable) when given."""
    if override is None:
        raw = os.environ.get("SNAKE_SELFTEST_TRIALS")
        try:
            override = int(raw) if raw else None
        except ValueError:
            raise SnakeGraphsError(
                "SNAKE_SELFTEST_TRIALS must be an integer, not %r"
                % (raw,)) from None
    counts = dict(_DEFAULT_TRIALS)
    if override is not None:
        if override < 1:
            raise SnakeGraphsError(
                "trial override must be positive, not %r" % (override,))
        counts = {k: min(v, override) for k, v in counts.items()}
    return counts


class _Suite:
    def __init__(self, stream):
        self.stream = stream or sys.stdout
        self.failed = False

    def section(self, name, detail, fn):
        try:
            fn()
        except Exception as exc:
            self.failed = True
            self.stream.write("%-14s %s FAIL: %s: %s\n"
                              % (name, detail, type(exc).__name__, exc))
        else:
            self.stream.write("%-14s %s ok\n" % (name, detail))


def _check(cond, message):
    if not cond:
        raise AssertionError(message)


def _golden_loop_section():
    tri, loop = golden_ring()
    got_match = expand(tri, loop).laurent
    got_matrix = expand_by_matrices(tri, loop).laurent
    expected = parse_poly(
        "x:1^2*x:2*x:4 + x:1^2*y:3 + x:1*x:3*y:2*y:3 + x:1*x:3*y:3*y:4"
        " + x:3^2*y:2*y:3*y:4 + x:2*x:3^2*x:4*y:1*y:2*y:3*y:4"
    ).div_mono(Mono({("x", l): 2 for l in "1234"}))
    _check(got_match == expected, "matching route differs from golden")
    _check(got_matrix == expected, "matrix route differs from golden")
    _check(len(graph_for(tri, loop).good_matchings()) == 6,
           "good matching count is not 6")


def _snake_section(rng, count, max_tiles=10):
    for _ in range(count):
        g = random_snake(rng, max_tiles)
        _check(g.enumerator_by_matchings() == g.enumerator_by_matrices(),
               "snake enumerator mismatch on %r" % (g.shapes,))


def _band_section(rng, count, max_tiles=10):
    for _ in range(count):
        g = random_band(rng, max_tiles)
        _check(g.enumerator_by_matchings() == g.enumerator_by_matrices(),
               "band enumerator mismatch on %r" % (g.base.shapes,))


def _corner_section(rng, count, max_tiles=8):
    for _ in range(count):
        g = random_snake(rng, max_tiles)
        m = g.transfer_matrix()
        _check(g.corner_partition_sums() == (m.a, m.b, m.c, m.d),
               "corner partition mismatch on %r" % (g.shapes,))


def _surface_section(rng, count, max_tiles=8):
    for tri, curve in random_surface_curves(rng, count, max_tiles):
        got = chi(tri, path_for_curve(tri, curve))
        el = expand(tri, curve)
        _check(got == el.laurent, "matrix route differs from matching route")
        _check(el.f_poly.coefficient_signs() == {1},
               "expansion has a non-positive coefficient")
        unit = Mono.unit()
        _check(any(m == unit and c == 1 for m, c in el.f_poly.terms()),
               "coefficient polynomial lacks constant term one")


def _adjustment_section(rng, count, max_tiles=8):
    done = 0
    while done < count:
        tri = random_polygon(rng, rng.randint(4, 9))
        curve = random_polygon_arc(rng, tri, max_tiles)
        if curve is None:
            continue
        path = path_for_curve(tri, curve)
        base = chi_hat(path)
        shears = [i for i, s in enumerate(path.steps) if s.kind == SHEAR]
        twists = [i for i, s in enumerate(path.steps) if s.kind == TWIST]
        i = rng.choice(shears)
        _check(chi_hat(MPath(reroute_shear(path.steps, i))) == base,
               "reroute changed the reading")
        j = rng.choice(twists)
        padded = insert_backtrack(path.steps, j + 1, path.steps[j].tau)
        _check(chi_hat(MPath(padded)) == base,
               "backtrack changed the reading")
        _check(chi_hat(MPath(swap_twist_pivot(padded, j))) == base,
               "twist-pivot swap changed the reading")
        _check(chi_hat(MPath(prepend_shear(
            path.steps, ("x", "u"), ("x", "v"), ("x", "w")))) == base,
            "prepended shear changed the reading")
        done += 1


def _skein_section(count):
    trials = fan_skein_catalog(count)
    for args in trials:
        tri, inst = fan_skein_instance(*args)
        report = verify_skein(tri, inst)
        _check(report.lamination_agrees is True,
               "lamination coefficients disagree on %r" % (args,))
        _check(report.positive, "non-positive signs on %r" % (args,))
    tri, inst = ring_loop_instance()
    _check(verify_skein(tri, inst).positive,
           "loop smoothing needed a negative sign")
    tri, inst = kink_instance()
    _check(verify_skein(tri, inst).positive,
           "kink smoothing needed a negative sign")


def _ptolemy_section():
    tri = fan_triangulation(4)
    out = ptolemy_check(tri, "0-2", fan_chord(4, 1, 3))
    _check(len(out) == 2, "expected two side products")


def run_selftest(seed=0, trials=None, stream=None):
    """Run every section; print one line each; return True iff all pass."""
    counts = trial_counts(trials)
    out = stream or sys.stdout
    out.write("snakegraphs selftest seed=%d\n" % seed)
    suite = _Suite(out)
    suite.section("golden-loop", "", _golden_loop_section)
    rng = random.Random(seed)
    suite.section("identities", "trials=%d" % counts["identities"],
                  lambda: check_matrix_identities(counts["identities"],
                                                  seed=seed))
    suite.section("snakes", "trials=%d" % counts["snakes"],
                  lambda: _snake_section(rng, counts["snakes"]))
    suite.section("bands", "trials=%d" % counts["bands"],
                  lambda: _band_section(rng, counts["bands"]))
    suite.section("corners", "trials=%d" % counts["corners"],
                  lambda: _corner_section(rng, counts["corners"]))
    suite.section("surfaces", "trials=%d" % counts["surfaces"],
                  lambda: _surface_section(rng, counts["surfaces"]))
    suite.section("adjustments", "trials=%d" % counts["adjustments"],
                  lambda: _adjustment_section(rng, counts["adjustments"]))
    suite.section("exchange", "", _ptolemy_section)
    suite.section("skein", "trials=%d" % counts["skein"],
                  lambda: _skein_section(counts["skein"]))
    out.write("result: %s\n" % ("FAIL" if suite.failed else "PASS"))
    return not suite.failed
