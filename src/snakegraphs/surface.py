"""Triangulated surfaces, curves on them, and Laurent expansions.

A triangulation is described combinatorially: triangles are triples of
side labels listed in clockwise order, sides are arcs or boundary
segments, and self-folded triangles are declared explicitly as (noose,
radius, puncture) records. Curves are described by their ordered
crossing sequences plus the triangles where they start and end.
"""

from __future__ import annotations

from .algebra import Mono, Poly, SnakeGraphsError
from .snakecore import (
    CCW,
    CW,
    EAST,
    NORTH,
    BandGraph,
    DegenerateBand,
    SnakeGraph,
)


class ValidationError(SnakeGraphsError):
    """Base class for malformed surface or curve data."""


class ArcInThreeTriangles(ValidationError):
    pass


class OrientationInconsistent(ValidationError):
    pass


class MalformedSelfFolded(ValidationError):
    pass


class NonAdjacentCrossings(ValidationError):
    """Consecutive crossings do not share a triangle in the stated order."""


class UnsupportedSelfFoldedSelfIntersection(ValidationError):
    """Curve configurations inside a self-folded triangle that the
    crossing-sequence encoding cannot express."""


class PuncturedSurface(ValidationError):
    """An operation restricted to unpunctured surfaces."""


class Triangulation:
    """An ideal triangulation given by clockwise side triples.

    ``arcs`` may contain plain labels or records with endpoint data; the
    optional endpoints (marked point labels) are only needed for
    operations that count incidences at a puncture.
    """

    def __init__(self, arcs, boundary, punctures, triangles,
                 self_folded=(), arc_ends=None):
        self.arcs = list(arcs)
        self.boundary = list(boundary)
        self.punctures = list(punctures)
        self.triangles = [tuple(t) for t in triangles]
        self.self_folded = [dict(sf) for sf in self_folded]
        self.arc_ends = dict(arc_ends or {})
        self._validate()

    # -- validation --------------------------------------------------------

    def _validate(self):
        arcset, bset = set(self.arcs), set(self.boundary)
        if arcset & bset:
            raise ValidationError("labels used as both arc and boundary")
        if len(arcset) != len(self.arcs) or len(bset) != len(self.boundary):
            raise ValidationError("duplicate arc or boundary labels")
        for sf in self.self_folded:
            if set(sf) != {"noose", "radius", "puncture"}:
                raise MalformedSelfFolded(
                    "self-folded record needs noose/radius/puncture")
        radii = {sf["radius"] for sf in self.self_folded}
        counts = {}
        for idx, tri in enumerate(self.triangles):
            if len(tri) != 3:
                raise ValidationError("triangle %d is not a triple" % idx)
            for s in tri:
                if s not in arcset and s not in bset:
                    raise ValidationError(
                        "triangle %d uses unknown side %r" % (idx, s))
                counts[s] = counts.get(s, 0) + 1
            dupes = {s for s in tri if tri.count(s) == 2}
            if dupes:
                only = dupes.pop()
                if dupes or only not in radii:
                    raise MalformedSelfFolded(
                        "triangle %d repeats side %r without a matching "
                        "self-folded declaration" % (idx, only))
        for a in self.arcs:
            if counts.get(a, 0) > 2:
                raise ArcInThreeTriangles(
                    "arc %r occurs %d times" % (a, counts[a]))
        for b in self.boundary:
            if counts.get(b, 0) > 1:
                raise ValidationError(
                    "boundary segment %r occurs %d times" % (b, counts[b]))
        for sf in self.self_folded:
            noose, radius, p = sf["noose"], sf["radius"], sf["puncture"]
            if noose not in arcset or radius not in arcset:
                raise MalformedSelfFolded("self-folded sides must be arcs")
            if p not in self.punctures:
                raise MalformedSelfFolded("unknown puncture %r" % (p,))
            pattern = sorted([radius, radius, noose])
            if not any(sorted(tri) == pattern for tri in self.triangles):
                raise MalformedSelfFolded(
                    "no (radius, radius, noose) triangle for %r" % (sf,))
        self._check_orientation()
        for a, ends in self.arc_ends.items():
            if a not in arcset:
                raise ValidationError("endpoint data for unknown arc %r" % a)
            if len(tuple(ends)) != 2:
                raise ValidationError("arc %r needs exactly two ends" % a)

    def _check_orientation(self):
        """Two ordinary triangles glued along two arcs must see the shared
        pair in opposite cyclic orders, otherwise the gluing reverses
        orientation."""
        tris = [tri for i, tri in enumerate(self.triangles)
                if self.self_folded_record(i) is None]
        for i in range(len(tris)):
            for j in range(i + 1, len(tris)):
                shared = set(tris[i]) & set(tris[j]) & set(self.arcs)
                if len(shared) != 2:
                    continue
                s1, s2 = sorted(shared)
                if (self._succ(tris[i], s1) == s2) == \
                        (self._succ(tris[j], s1) == s2):
                    raise OrientationInconsistent(
                        "triangles %r and %r glue along %r with matching "
                        "cyclic orders" % (tris[i], tris[j], sorted(shared)))

    # -- basic queries -----------------------------------------------------

    def is_boundary(self, label):
        return label in set(self.boundary)

    def variable(self, label):
        return ("b" if self.is_boundary(label) else "x", label)

    def self_folded_record(self, idx):
        """The (noose, radius, puncture) record of triangle ``idx``, or
        None for an ordinary triangle."""
        if not self.self_folded:
            return None
        sides = sorted(self.triangles[idx])
        for sf in self.self_folded:
            if sides == sorted([sf["radius"], sf["radius"], sf["noose"]]):
                return sf
        return None

    def triangles_containing(self, label):
        return [i for i, tri in enumerate(self.triangles) if label in tri]

    @staticmethod
    def _succ(tri, side):
        return tri[(tri.index(side) + 1) % 3]

    @staticmethod
    def _pred(tri, side):
        return tri[(tri.index(side) - 1) % 3]

    def cw_successor(self, idx, side):
        return self._succ(self.triangles[idx], side)

    def cw_predecessor(self, idx, side):
        return self._pred(self.triangles[idx], side)

    def third_side(self, idx, s1, s2):
        sides = list(self.triangles[idx])
        sides.remove(s1)
        sides.remove(s2)
        return sides[0]

    def flip_over(self, idx, arc):
        """The triangle on the other side of an arc.

        Crossing the radius of a self-folded triangle leads back into the
        same triangle.
        """
        if self.triangles[idx].count(arc) == 2:
            return idx
        homes = self.triangles_containing(arc)
        if idx not in homes:
            raise NonAdjacentCrossings(
                "arc %r is not a side of triangle %d" % (arc, idx))
        others = [h for h in homes if h != idx]
        if not others:
            raise NonAdjacentCrossings(
                "arc %r has no triangle on its far side" % (arc,))
        return others[0]

    def notched_label(self, radius, puncture):
        return "%s(%s)" % (radius, puncture)

    def endpoint_count(self, arc, puncture):
        """How many ends of the arc sit at the puncture (0, 1 or 2)."""
        if arc not in self.arc_ends:
            raise ValidationError(
                "arc %r carries no endpoint data" % (arc,))
        return sum(1 for e in self.arc_ends[arc] if e == puncture)

    # -- exchange matrix ---------------------------------------------------

    def b_matrix(self):
        """Signed adjacency matrix over the arcs, in listed order.

        Ordinary triangles contribute +1 to the (i, j) entry when arc j
        follows arc i clockwise; a radius inherits every adjacency of its
        noose.
        """
        n = len(self.arcs)
        index = {a: i for i, a in enumerate(self.arcs)}
        b = [[0] * n for _ in range(n)]
        for idx, tri in enumerate(self.triangles):
            if self.self_folded_record(idx) is not None:
                continue
            for s in tri:
                t = self._succ(tri, s)
                if s in index and t in index:
                    b[index[s]][index[t]] += 1
                    b[index[t]][index[s]] -= 1
        for sf in self.self_folded:
            r, l = index[sf["radius"]], index[sf["noose"]]
            for j in range(n):
                b[r][j] = b[l][j]
                b[j][r] = b[j][l]
        return b


class Curve:
    """A curve on the surface, described combinatorially.

    Kinds: "arc" (between marked points), "loop" (closed), and the
    declared special cases "contractible_monogon_arc",
    "contractible_loop" and "puncture_loop". ``kinks`` counts declared
    contractible kinks and only contributes a sign.
    """

    KINDS = ("arc", "loop", "contractible_monogon_arc",
             "contractible_loop", "puncture_loop")

    def __init__(self, kind, crossings=(), start_triangle=None,
                 end_triangle=None, basepoint_triangle=None, kinks=0,
                 puncture=None, name=None):
        if kind not in self.KINDS:
            raise ValidationError("unknown curve kind %r" % (kind,))
        for field, value in (("start_triangle", start_triangle),
                             ("end_triangle", end_triangle),
                             ("basepoint_triangle", basepoint_triangle)):
            if value is not None and type(value) is not int:
                raise ValidationError(
                    "%s must be a triangle index, not %r" % (field, value))
        if type(kinks) is not int:
            raise ValidationError(
                "kinks must be an integer, not %r" % (kinks,))
        self.kind = kind
        self.crossings = list(crossings)
        self.start_triangle = start_triangle
        self.end_triangle = end_triangle
        self.basepoint_triangle = basepoint_triangle
        self.kinks = kinks
        self.puncture = puncture
        self.name = name

    def sign(self):
        return -1 if self.kinks % 2 else 1


class Layout:
    """The combinatorial unfolding of a curve: the triangle chain, turn
    directions, shape word, glue labels and corner labels."""

    def __init__(self, chain, turns, shapes, glues, diagonals,
                 corner_a=None, corner_b=None, corner_w=None, corner_z=None,
                 cut=None, closed=False):
        self.chain = chain
        self.turns = turns
        self.shapes = shapes
        self.glues = glues
        self.diagonals = diagonals
        self.corner_a = corner_a
        self.corner_b = corner_b
        self.corner_w = corner_w
        self.corner_z = corner_z
        self.cut = cut
        self.closed = closed


def _check_crossing_repeats(tri, crossings):
    radii = {sf["radius"] for sf in tri.self_folded}
    nooses = {sf["noose"] for sf in tri.self_folded}
    for i in range(len(crossings) - 1):
        if crossings[i] == crossings[i + 1]:
            if crossings[i] in radii | nooses:
                raise UnsupportedSelfFoldedSelfIntersection(
                    "curve crosses %r twice in a row inside a self-folded "
                    "triangle; this configuration is not supported"
                    % (crossings[i],))
            raise NonAdjacentCrossings(
                "curve crosses %r twice in a row" % (crossings[i],))
    for c in crossings:
        if c not in tri.arcs:
            raise NonAdjacentCrossings(
                "crossed label %r is not an arc" % (c,))


def _turns_to_shapes(turns):
    shapes = []
    for j, turn in enumerate(turns):
        if j == 0:
            shapes.append(NORTH if turn == CCW else EAST)
        elif turn == CCW:
            shapes.append(shapes[-1])
        else:
            shapes.append(EAST if shapes[-1] == NORTH else NORTH)
    return shapes


def _turn_and_glue(tri, idx, prev_cross, next_cross):
    """Turn direction and glue label inside one chain triangle."""
    sf = tri.self_folded_record(idx)
    if sf is not None:
        allowed = {sf["radius"], sf["noose"]}
        if prev_cross not in allowed or next_cross not in allowed:
            raise NonAdjacentCrossings(
                "crossings %r, %r do not fit self-folded triangle %d"
                % (prev_cross, next_cross, idx))
        return CW, sf["radius"]
    if tri.cw_predecessor(idx, prev_cross) == next_cross:
        return CCW, tri.third_side(idx, prev_cross, next_cross)
    if tri.cw_successor(idx, prev_cross) == next_cross:
        return CW, tri.third_side(idx, prev_cross, next_cross)
    raise NonAdjacentCrossings(
        "crossings %r, %r are not adjacent in triangle %d"
        % (prev_cross, next_cross, idx))


def _first_corners(tri, idx, first_cross):
    sf = tri.self_folded_record(idx)
    if sf is not None:
        if first_cross == sf["noose"]:
            return sf["radius"], sf["radius"]
        if first_cross == sf["radius"]:
            return sf["radius"], sf["noose"]
        raise NonAdjacentCrossings(
            "crossing %r does not fit self-folded triangle %d"
            % (first_cross, idx))
    return (tri.cw_successor(idx, first_cross),
            tri.cw_predecessor(idx, first_cross))


def _last_corners(tri, idx, last_cross):
    sf = tri.self_folded_record(idx)
    if sf is not None:
        if last_cross == sf["noose"]:
            return sf["radius"], sf["radius"]
        if last_cross == sf["radius"]:
            return sf["noose"], sf["radius"]
        raise NonAdjacentCrossings(
            "crossing %r does not fit self-folded triangle %d"
            % (last_cross, idx))
    return (tri.cw_successor(idx, last_cross),
            tri.cw_predecessor(idx, last_cross))


def _triangle_sides(tri, idx):
    if not 0 <= idx < len(tri.triangles):
        raise ValidationError("there is no triangle %d" % (idx,))
    return tri.triangles[idx]


def _unfold(tri, start, crossings):
    """Walk the triangle chain from ``start`` across ``crossings``.

    Returns the chain of triangle indices and, for each triangle between
    two crossings, its turn direction and glue label.
    """
    chain, turns, glues = [start], [], []
    sides = _triangle_sides(tri, start)
    for j, c in enumerate(crossings):
        idx = chain[-1]
        if c not in sides:
            raise NonAdjacentCrossings(
                "crossing %r is not a side of triangle %d" % (c, idx))
        if j:
            turn, glue = _turn_and_glue(tri, idx, crossings[j - 1], c)
            turns.append(turn)
            glues.append(glue)
        chain.append(tri.flip_over(idx, c))
        sides = tri.triangles[chain[-1]]
    return chain, turns, glues


def arc_layout(tri, curve):
    """Unfold an arc's crossing sequence into a Layout."""
    crossings = curve.crossings
    if not crossings:
        raise NonAdjacentCrossings("arc layout needs at least one crossing")
    _check_crossing_repeats(tri, crossings)
    if curve.start_triangle is None or curve.end_triangle is None:
        raise ValidationError("arcs need start and end triangles")
    chain, turns, glues = _unfold(tri, curve.start_triangle, crossings)
    if chain[-1] != curve.end_triangle:
        raise NonAdjacentCrossings(
            "crossing sequence ends in triangle %d, not %d"
            % (chain[-1], curve.end_triangle))
    a, b = _first_corners(tri, chain[0], crossings[0])
    w, z = _last_corners(tri, chain[-1], crossings[-1])
    return Layout(chain, turns, _turns_to_shapes(turns), glues,
                  list(crossings), corner_a=a, corner_b=b,
                  corner_w=w, corner_z=z)


def loop_layout(tri, curve):
    """Unfold a loop's crossing sequence into a Layout.

    The basepoint triangle must contain the last and first crossings;
    if they appear there in counterclockwise order the sequence is
    reversed so that the closing step always runs clockwise.
    """
    crossings = list(curve.crossings)
    if len(crossings) < 2:
        raise DegenerateBand(
            "loops need at least two crossings; declare shorter loops "
            "contractible or around a puncture instead")
    if curve.basepoint_triangle is None:
        raise ValidationError("loops need a basepoint triangle")
    base = curve.basepoint_triangle
    sides = _triangle_sides(tri, base)
    if crossings[0] not in sides or crossings[-1] not in sides:
        raise NonAdjacentCrossings(
            "basepoint triangle %d does not contain the closing pair"
            % (base,))
    folded = tri.self_folded_record(base)
    if folded is None:
        if tri.cw_successor(base, crossings[-1]) == crossings[0]:
            pass
        elif tri.cw_successor(base, crossings[0]) == crossings[-1]:
            crossings.reverse()
        else:
            raise NonAdjacentCrossings(
                "closing crossings %r, %r are not adjacent in triangle %d"
                % (crossings[-1], crossings[0], base))
    _check_crossing_repeats(tri, crossings)
    if crossings[0] == crossings[-1]:
        raise NonAdjacentCrossings(
            "loop closes across a repeated crossing")
    chain, turns, glues = _unfold(tri, base, crossings)
    if chain[-1] != base:
        raise NonAdjacentCrossings(
            "loop does not close up: chain ends in triangle %d" % chain[-1])
    if folded is None:
        cut = tri.third_side(base, crossings[-1], crossings[0])
    else:
        cut = folded["radius"]
    return Layout(chain, turns, _turns_to_shapes(turns), glues,
                  list(crossings), cut=cut, closed=True)


def build_snake_graph(tri, curve):
    lay = arc_layout(tri, curve)
    v = tri.variable
    return SnakeGraph(
        [v(c) for c in lay.diagonals], lay.shapes,
        [v(g) for g in lay.glues],
        corner_a=v(lay.corner_a), corner_b=v(lay.corner_b),
        corner_w=v(lay.corner_w), corner_z=v(lay.corner_z))


def build_band_graph(tri, curve):
    lay = loop_layout(tri, curve)
    v = tri.variable
    return BandGraph(
        [v(c) for c in lay.diagonals], lay.shapes,
        [v(g) for g in lay.glues], cut_label=v(lay.cut))


def graph_for(tri, curve):
    """The snake graph of an arc or the band graph of a loop; other
    kinds have neither."""
    if curve.kind == "arc":
        return build_snake_graph(tri, curve)
    if curve.kind == "loop":
        return build_band_graph(tri, curve)
    raise ValidationError(
        "curve %r of kind %r has no snake or band graph"
        % (curve.name or "?", curve.kind))


# -- expansion -------------------------------------------------------------


def phi_substitution(tri):
    """Map per-tile coefficient variables to tagged-arc coefficients.

    Ordinary arcs keep their label; the radius of a self-folded triangle
    maps to the ratio of its plain and notched variables, the noose to
    the notched variable alone.
    """
    out = {}
    special = {}
    for sf in tri.self_folded:
        notched = tri.notched_label(sf["radius"], sf["puncture"])
        special[sf["radius"]] = Mono(
            {("y", sf["radius"]): 2, ("y", notched): -2})
        special[sf["noose"]] = Mono({("y", notched): 2})
    for a in tri.arcs:
        out[("Y", a)] = special.get(a, Mono({("y", a): 2}))
    return out


def noose_substitution(tri):
    """Rewrite each noose variable as radius times notched radius."""
    out = {}
    for sf in tri.self_folded:
        notched = tri.notched_label(sf["radius"], sf["puncture"])
        out[("x", sf["noose"])] = Mono(
            {("x", sf["radius"]): 2, ("x", notched): 2})
    return out


def boundary_substitution(tri):
    return {("b", b): 1 for b in tri.boundary}


class ClusterElement:
    """Result of expanding a curve: the Laurent expansion, its
    coefficient-only specialization, the tropical shift of the latter
    and the shift-normalized expansion."""

    def __init__(self, laurent, f_poly, tropical_shift, normalized):
        self.laurent = laurent
        self.f_poly = f_poly
        self.tropical_shift = tropical_shift
        self.normalized = normalized

    @property
    def shift_is_trivial(self):
        return self.tropical_shift is None or self.tropical_shift.is_unit()


def specialize(tri, raw, keep_boundary=False):
    """Push a raw expansion through the tagged-arc coefficient map, the
    noose rewriting and, unless ``keep_boundary`` is set, the boundary
    substitution."""
    x = raw.substitute(phi_substitution(tri))
    x = x.substitute(noose_substitution(tri))
    if not keep_boundary:
        x = x.substitute(boundary_substitution(tri))
    return x


def _finish(tri, raw, keep_boundary):
    x = specialize(tri, raw, keep_boundary)
    kill = {v: 1 for v in x.variables() if v[0] in ("x", "b")}
    f = x.substitute(kill)
    if f.is_zero():
        return ClusterElement(x, f, None, x)
    shift = f.tropical_eval([v for v in f.variables() if v[0] == "y"])
    normalized = x * Poly.from_mono(shift.inverse())
    return ClusterElement(x, f, shift, normalized)


def expand(tri, curve, keep_boundary=False, rel=1):
    """Expand a curve into its Laurent polynomial by the matching rule."""
    if curve.kind == "contractible_monogon_arc":
        return ClusterElement(Poly.zero(), Poly.zero(), None, Poly.zero())
    if curve.kind == "contractible_loop":
        c = Poly.const(-2)
        return ClusterElement(c, c, Mono.unit(), c)
    if curve.kind == "puncture_loop":
        if curve.puncture is None:
            raise ValidationError("puncture loops need a puncture label")
        p = curve.puncture
        if p not in tri.punctures:
            raise ValidationError("unknown puncture %r" % (p,))
        folded = [sf for sf in tri.self_folded if sf["puncture"] == p]
        if folded:
            sf = folded[0]
            notched = tri.notched_label(sf["radius"], sf["puncture"])
            term = Mono({("y", sf["radius"]): 2, ("y", notched): -2})
        else:
            term = Mono({("y", a): 2 * tri.endpoint_count(a, p)
                         for a in tri.arcs})
        return _finish(tri, Poly.one() + Poly.from_mono(term), keep_boundary)
    g = graph_for(tri, curve)
    raw = g.enumerator_by_matchings(rel).div_mono(g.crossing_mono())
    if curve.sign() < 0:
        raw = -raw
    return _finish(tri, raw, keep_boundary)


def expand_by_matrices(tri, curve, keep_boundary=False):
    """Expansion through the transfer-matrix product; used to cross-check
    the matching route. Only defined for plain arcs and loops."""
    g = graph_for(tri, curve)
    raw = g.enumerator_by_matrices().div_mono(g.crossing_mono())
    if curve.sign() < 0:
        raw = -raw
    return _finish(tri, raw, keep_boundary)


# -- JSON interchange ------------------------------------------------------


_SURFACE_KEYS = {"arcs", "boundary", "punctures", "triangles",
                 "self_folded", "curves"}
_CURVE_KEYS = {"name", "kind", "crossings", "start_triangle",
               "end_triangle", "basepoint_triangle", "kinks", "puncture"}
_JSON_TYPE_NAMES = {list: "list", dict: "object", str: "string"}


def _reject_unknown(d, allowed, what):
    extra = set(d) - allowed
    if extra:
        raise ValidationError(
            "unknown %s keys: %s" % (what, ", ".join(sorted(extra))))


def _typed(d, key, kind, default):
    """``d[key]``, or ``default`` when the key is absent; a value that is
    not of the JSON type ``kind`` is refused."""
    value = d.get(key, default)
    if not isinstance(value, kind):
        raise ValidationError("%r must be a %s, not %r"
                              % (key, _JSON_TYPE_NAMES[kind], value))
    return value


def _labels(d, key, default):
    """``_typed(d, key, list, default)``, refusing an entry that is not a
    string label."""
    labels = _typed(d, key, list, default)
    for label in labels:
        if not isinstance(label, str):
            raise ValidationError("%r must hold string labels, not %r"
                                  % (key, label))
    return labels


def triangulation_from_dict(doc):
    """Build a triangulation (and named curves) from a JSON document."""
    if not isinstance(doc, dict):
        raise ValidationError("surface document must be an object")
    _reject_unknown(doc, _SURFACE_KEYS, "surface")
    arcs, ends = [], {}
    for entry in _typed(doc, "arcs", list, []):
        if isinstance(entry, str):
            arcs.append(entry)
        elif isinstance(entry, dict):
            _reject_unknown(entry, {"name", "ends"}, "arc")
            name = _typed(entry, "name", str, None)
            arcs.append(name)
            if "ends" in entry:
                ends[name] = tuple(_labels(entry, "ends", None))
        else:
            raise ValidationError("bad arc entry %r" % (entry,))
    triangles = []
    for entry in _typed(doc, "triangles", list, []):
        if not isinstance(entry, dict):
            entry = {"sides": entry}
        _reject_unknown(entry, {"sides"}, "triangle")
        triangles.append(tuple(_labels(entry, "sides", None)))
    self_folded = _typed(doc, "self_folded", list, [])
    for entry in self_folded:
        if not isinstance(entry, dict):
            raise MalformedSelfFolded(
                "self-folded record %r is not an object" % (entry,))
        for key in entry:
            _typed(entry, key, str, None)
    tri = Triangulation(
        arcs=arcs,
        boundary=_labels(doc, "boundary", []),
        punctures=_labels(doc, "punctures", []),
        triangles=triangles,
        self_folded=self_folded,
        arc_ends=ends,
    )
    return tri, [curve_from_dict(entry)
                 for entry in _typed(doc, "curves", list, [])]


def curve_from_dict(entry):
    """Build a curve from its JSON object."""
    if not isinstance(entry, dict):
        raise ValidationError("bad curve entry %r" % (entry,))
    _reject_unknown(entry, _CURVE_KEYS, "curve")
    return Curve(
        kind=entry.get("kind", "arc"),
        crossings=_typed(entry, "crossings", list, []),
        start_triangle=entry.get("start_triangle"),
        end_triangle=entry.get("end_triangle"),
        basepoint_triangle=entry.get("basepoint_triangle"),
        kinks=entry.get("kinks", 0),
        puncture=entry.get("puncture"),
        name=entry.get("name"),
    )
