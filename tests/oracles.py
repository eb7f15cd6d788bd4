"""Reference implementations that only the tests call.

Each is written as a function of a graph, polynomial, monomial,
expansion or path, and shares no step with the production code it
checks: the exhaustive matchers search edge subsets directly rather than
walking the tiles' fence, so they stand as independent oracles for
``SnakeGraph.perfect_matchings`` and ``BandGraph.good_matchings``; the
canonical order and text are read from each monomial's sorted items
rather than from dense sort rows.
"""

from functools import cmp_to_key

from snakegraphs.algebra import KINDS, Mono, _add_power2
from snakegraphs.snakecore import _monomial
from snakegraphs.skein import SkeinError
from snakegraphs.surface import ValidationError


# -- exhaustive matchers -----------------------------------------------------


def exhaustive_matchings(vertices, ends):
    """Every perfect matching of the graph on ``vertices`` whose edge ids
    map to their two ends in ``ends``.

    An include/exclude recursion over the edges in the order given,
    abandoned once an uncovered vertex has no edge left.
    """
    ids = list(ends)
    last = {v: i for i, e in enumerate(ids) for v in ends[e]}
    found = []

    def rec(i, covered, chosen):
        if len(covered) == len(vertices):
            found.append(frozenset(chosen))
        elif all(v in covered or last[v] >= i for v in vertices):
            rec(i + 1, covered, chosen)
            if not ends[ids[i]] & covered:
                rec(i + 1, covered | ends[ids[i]], chosen + [ids[i]])

    rec(0, frozenset(), [])
    return found


def matchings_by_exhaustion(g):
    """The perfect matchings of the snake graph ``g``, ordered by sorted
    edge sets rather than in matching order."""
    ends = {key: frozenset(key) for key in sorted(g.edge_labels)}
    return sorted(exhaustive_matchings(g.vertices, ends), key=sorted)


def good_matchings_by_exhaustion(band):
    """The good matchings of the band graph ``band``, filtered directly.

    Works on the actual band graph: the vertices at the far end of the
    last tile are merged with their cut partners at the origin, and the
    two cut copies are identified into one edge. A matching is kept when
    it uses the cut edge or when its edges at the two cut vertices lie on
    a common side of the cut. Returns sorted (edge set, weight) pairs;
    heights are checked through the matrix route instead.
    """
    base = band.base
    px, py = base.positions[-1]
    x = (px + 1, py + 1)
    y = (px + 1, py) if base.d % 2 == 1 else (px, py + 1)
    vmap = {x: (0, 0), y: (1, 0)}
    cuts = (base.edge_key_a, base.edge_key_z)
    ends, labels, last_side = {}, {}, set()
    for key in sorted(base.edge_labels):
        eid = "cut" if key in cuts else key
        ends[eid] = frozenset(vmap.get(v, v) for v in key)
        labels[eid] = base.edge_labels[key]
        if x in key or y in key:
            last_side.add(eid)
    vertices = sorted(set().union(*ends.values()))

    def side(m, v):
        return next(e for e in m if v in ends[e]) in last_side

    good = [m for m in exhaustive_matchings(vertices, ends)
            if "cut" in m or side(m, (0, 0)) == side(m, (1, 0))]
    out = [(m, _monomial(labels[eid] for eid in m)) for m in good]
    return sorted(out, key=lambda it: sorted(map(str, it[0])))


# -- monomials and expansions ------------------------------------------------


def power2(m, exp2):
    """The monomial ``m`` raised to the power exp2/2, which must be an
    exact Laurent monomial."""
    return Mono._trusted(_add_power2({}, m, exp2))


def tropical_eval_per_variable(p, variables=None):
    """``Poly.tropical_eval`` by its definition: for each variable, the
    least exponent over all terms, a term without it counting as 0."""
    if variables is None:
        variables = p.variables()
    out = {}
    for v in variables:
        lo = min(m.exponent2(v) for m, _ in p.coefficients())
        if lo:
            out[v] = lo
    return Mono(out)


def shift_is_trivial(element):
    """Whether a ClusterElement's tropical shift is absent or the unit."""
    return element.tropical_shift is None or element.tropical_shift.is_unit()


# -- canonical order and text ------------------------------------------------


def variable_key(v):
    """Variables sort by kind, in KINDS order, then by label."""
    return (KINDS.index(v[0]), v[1])


def sorted_items(m):
    """A monomial's (variable, doubled exponent) items in variable order."""
    return sorted(m.exponents(), key=lambda item: variable_key(item[0]))


def graded_cmp(a, b):
    """Graded lexicographic comparison of two monomials, read from their
    sorted items; the greater monomial sorts first."""
    da, db = a.degree2(), b.degree2()
    if da != db:
        return -1 if da > db else 1
    ia, ib = sorted_items(a), sorted_items(b)
    i = j = 0
    while i < len(ia) or j < len(ib):
        va = variable_key(ia[i][0]) if i < len(ia) else None
        vb = variable_key(ib[j][0]) if j < len(ib) else None
        if vb is None or (va is not None and va < vb):
            ea, eb = ia[i][1], 0
            i += 1
        elif va is None or vb < va:
            ea, eb = 0, ib[j][1]
            j += 1
        else:
            ea, eb = ia[i][1], ib[j][1]
            i += 1
            j += 1
        if ea != eb:
            return -1 if ea > eb else 1
    return 0


def terms_by_items(p):
    """The (monomial, coefficient) terms of ``p`` in canonical order."""
    return sorted(p.coefficients(),
                  key=cmp_to_key(lambda s, t: graded_cmp(s[0], t[0])))


def format_by_items(p):
    """The canonical text of ``p``, each term rendered from its sorted
    items."""
    chunks = []
    for m, c in terms_by_items(p):
        factors = []
        for v, e in sorted_items(m):
            body = "%s:%s" % v
            if e % 2:
                body += "^(%d/2)" % e
            elif e != 2:
                body += "^%d" % (e // 2)
            factors.append(body)
        body = "*".join(factors)
        if not body:
            body = str(abs(c))
        elif abs(c) != 1:
            body = "%d*%s" % (abs(c), body)
        sign = ("-" if c < 0 else "") if not chunks else \
            (" - " if c < 0 else " + ")
        chunks.append(sign + body)
    return "".join(chunks) or "0"


# -- lamination intersections ------------------------------------------------


class PuncturedSurface(ValidationError):
    """An operation restricted to unpunctured surfaces."""


def crossing_count(curve, label):
    return list(curve.crossings).count(label)


def signed_intersection(loosened, curve, label):
    return crossing_count(curve, label) + loosened.signed_excess(label)


def lamination_intersection_unpunctured(tri, loosened, curve, label):
    """Crossing count with the elementary lamination running beside the
    labelled arc, read off a loosened path anchored at the clockwise-most
    boundary points. Only meaningful on unpunctured surfaces."""
    if tri.punctures:
        raise PuncturedSurface(
            "lamination intersections need an unpunctured surface")
    value = signed_intersection(loosened, curve, label)
    if value < 0:
        raise SkeinError(
            "anchored path has negative intersection count with %r"
            % (label,))
    return value
