"""Surface-level tests.

The expansion strings for the fixtures were computed by hand (direct
matching enumeration on the unfolded tile rows) and frozen before the
module was written.
"""

import json
import random
from importlib import resources

import pytest
from hypothesis import given, settings, strategies as st

from snakegraphs.algebra import Mono, Poly, parse_poly
from snakegraphs.snakecore import (
    BandGraph,
    DegenerateBand,
    EAST,
    NORTH,
    SnakeGraph,
)
from snakegraphs.surface import (
    ArcInThreeTriangles,
    Curve,
    MalformedSelfFolded,
    NonAdjacentCrossings,
    OrientationInconsistent,
    Triangulation,
    UnsupportedSelfFoldedSelfIntersection,
    ValidationError,
    arc_layout,
    coefficient_map,
    expand,
    expand_by_matrices,
    graph_for,
    loop_layout,
    signed_reading,
    specialize,
    triangulation_from_dict,
)
from snakegraphs.selftest import random_surface_curves

from oracles import shift_is_trivial


def annulus():
    return Triangulation(
        arcs=["1", "2", "3", "4"],
        boundary=["b1", "b2", "b3", "b4"],
        punctures=[],
        triangles=[("1", "b1", "2"), ("2", "b4", "3"),
                   ("3", "4", "b3"), ("4", "1", "b2")],
    )


def folded_disk():
    return Triangulation(
        arcs=["l", "r"],
        boundary=["a", "b"],
        punctures=["p"],
        triangles=[("a", "b", "l"), ("r", "r", "l")],
        self_folded=[{"noose": "l", "radius": "r", "puncture": "p"}],
    )


def torus():
    return Triangulation(
        arcs=["1", "2", "3"],
        boundary=[],
        punctures=["p"],
        triangles=[("1", "2", "3"), ("1", "2", "3")],
        arc_ends={"1": ("p", "p"), "2": ("p", "p"), "3": ("p", "p")},
    )


def quadrilateral():
    return Triangulation(
        arcs=["d"],
        boundary=["b01", "b12", "b23", "b30"],
        punctures=[],
        triangles=[("b01", "b12", "d"), ("d", "b23", "b30")],
    )


class TestValidation:
    def test_fixtures_validate(self):
        annulus()
        folded_disk()
        torus()
        quadrilateral()

    def test_arc_in_three_triangles(self):
        with pytest.raises(ArcInThreeTriangles):
            Triangulation(
                arcs=["1"], boundary=["x", "y", "z", "u", "v", "w"],
                punctures=[],
                triangles=[("1", "x", "y"), ("1", "z", "u"), ("1", "v", "w")])

    def test_orientation_inconsistent(self):
        with pytest.raises(OrientationInconsistent):
            Triangulation(
                arcs=["1", "2"], boundary=["x", "y"], punctures=[],
                triangles=[("1", "2", "x"), ("1", "2", "y")])

    def test_repeated_side_needs_declaration(self):
        with pytest.raises(MalformedSelfFolded):
            Triangulation(
                arcs=["l", "r"], boundary=["a", "b"], punctures=["p"],
                triangles=[("a", "b", "l"), ("r", "r", "l")])

    def test_self_folded_needs_matching_triangle(self):
        with pytest.raises(MalformedSelfFolded):
            Triangulation(
                arcs=["l", "r"], boundary=["a", "b", "c", "e"],
                punctures=["p"],
                triangles=[("a", "b", "l"), ("r", "c", "e")],
                self_folded=[{"noose": "l", "radius": "r", "puncture": "p"}])

    def test_unknown_side(self):
        with pytest.raises(ValidationError):
            Triangulation(arcs=["1"], boundary=["x"], punctures=[],
                          triangles=[("1", "x", "mystery")])


def fan_sides(n):
    """Arcs, boundary and clockwise triangles of the n-gon fanned from
    vertex 0; triangle k - 1 has the corners 0, k and k + 1."""
    def side(i, j):
        return "%d-%d" % (min(i, j), max(i, j))
    return ([side(0, k) for k in range(2, n - 1)],
            [side(k, k + 1) for k in range(n - 1)] + [side(0, n - 1)],
            [(side(0, k), side(k, k + 1), side(0, k + 1))
             for k in range(1, n - 1)])


def fan(n):
    arcs, boundary, triangles = fan_sides(n)
    return Triangulation(arcs, boundary, [], triangles)


def reference_orientation_error(arcs, triangles, self_folded):
    """The all-pairs orientation check: the message for the first pair
    of ordinary triangles glued along two arcs in matching cyclic
    orders, or None."""
    folded = [sorted([sf["radius"], sf["radius"], sf["noose"]])
              for sf in self_folded]
    tris = [tuple(t) for t in triangles if sorted(t) not in folded]
    for i in range(len(tris)):
        for j in range(i + 1, len(tris)):
            shared = set(tris[i]) & set(tris[j]) & set(arcs)
            if len(shared) != 2:
                continue
            s1, s2 = sorted(shared)
            if (tris[i][(tris[i].index(s1) + 1) % 3] == s2) == \
                    (tris[j][(tris[j].index(s1) + 1) % 3] == s2):
                return ("triangles %r and %r glue along %r with matching "
                        "cyclic orders" % (tris[i], tris[j], sorted(shared)))
    return None


def reference_flip_over(triangles, idx, arc):
    if triangles[idx].count(arc) == 2:
        return idx
    homes = [i for i, t in enumerate(triangles) if arc in t]
    if idx not in homes:
        raise NonAdjacentCrossings(
            "arc %r is not a side of triangle %d" % (arc, idx))
    others = [h for h in homes if h != idx]
    if not others:
        raise NonAdjacentCrossings(
            "arc %r has no triangle on its far side" % (arc,))
    return others[0]


def outcome(fn, *args):
    try:
        return fn(*args)
    except NonAdjacentCrossings as exc:
        return str(exc)


@st.composite
def glued_fans(draw):
    """A fan n-gon with extra pairs of triangles glued along two arcs,
    each pair in opposite or (a bad gluing) matching cyclic orders, an
    optional self-folded triangle with one or two records, the triangles
    shuffled and one triangle's cyclic order optionally reversed."""
    arcs, boundary, triangles = fan_sides(draw(st.integers(3, 40)))
    punctures, self_folded = [], []
    for k in range(draw(st.integers(0, 3))):
        u, v, p, q = "u%d" % k, "v%d" % k, "p%d" % k, "q%d" % k
        arcs += [u, v]
        boundary += [p, q]
        triangles += [(u, v, p),
                      (u, v, q) if draw(st.booleans()) else (v, u, q)]
    if draw(st.booleans()):
        arcs += ["l", "r"]
        boundary += ["fa", "fb"]
        punctures.append("o")
        triangles += [("fa", "fb", "l"), ("r", "r", "l")]
        self_folded.append({"noose": "l", "radius": "r", "puncture": "o"})
        if draw(st.booleans()):
            # a second record for the same triangle, which is refused: a
            # self-folded triangle encloses one puncture, and its radius
            # would get a second notched label
            punctures.append("o2")
            self_folded.append(
                {"noose": "l", "radius": "r", "puncture": "o2"})
    triangles = draw(st.permutations(triangles))
    if draw(st.booleans()):
        k = draw(st.integers(0, len(triangles) - 1))
        triangles[k] = triangles[k][::-1]
    return arcs, boundary, punctures, triangles, self_folded


class TestIndexedQueries:
    @settings(max_examples=60, deadline=None)
    @given(glued_fans())
    def test_index_matches_plain_scans(self, surface):
        arcs, boundary, punctures, triangles, self_folded = surface
        if len(self_folded) == 2:
            with pytest.raises(MalformedSelfFolded, match="reuses an arc"):
                Triangulation(arcs, boundary, punctures, triangles,
                              self_folded=self_folded)
            return
        want = reference_orientation_error(arcs, triangles, self_folded)
        try:
            t = Triangulation(arcs, boundary, punctures, triangles,
                              self_folded=self_folded)
        except OrientationInconsistent as exc:
            assert str(exc) == want
            return
        assert want is None
        for idx, sides in enumerate(triangles):
            assert t.self_folded_record(idx) == next(
                (sf for sf in self_folded if sorted(sides)
                 == sorted([sf["radius"], sf["radius"], sf["noose"]])),
                None)
        for label in arcs + boundary + ["nowhere"]:
            assert t.triangles_containing(label) == [
                i for i, sides in enumerate(triangles) if label in sides]
            assert t.is_boundary(label) == (label in boundary)
            for idx in range(len(triangles)):
                assert outcome(t.flip_over, idx, label) == outcome(
                    reference_flip_over, triangles, idx, label)

    def test_orientation_check_compares_linearly_many_pairs(
            self, monkeypatch):
        compared = []
        glued_pairs = Triangulation._glued_pairs

        def counted(tri):
            pairs = glued_pairs(tri)
            compared.append(len(pairs))
            return pairs

        monkeypatch.setattr(Triangulation, "_glued_pairs", counted)
        fan(200)
        fan(400)
        assert compared[1] <= 2 * compared[0] + 4

    def test_large_fan(self):
        t = fan(1600)
        assert t.triangles_containing("0-2") == [0, 1]
        assert t.triangles_containing("0-1599") == [1597]
        assert t.flip_over(0, "0-2") == 1
        assert t.flip_over(800, "0-802") == 801
        assert t.flip_over(801, "0-802") == 800
        assert t.is_boundary("0-1599") and not t.is_boundary("0-1598")
        with pytest.raises(NonAdjacentCrossings):
            t.flip_over(1597, "0-1599")
        with pytest.raises(NonAdjacentCrossings):
            t.flip_over(5, "0-2")


class TestBMatrix:
    def test_annulus_cycle(self):
        assert annulus().b_matrix() == [
            [0, -1, 0, -1],
            [1, 0, -1, 0],
            [0, 1, 0, 1],
            [1, 0, -1, 0],
        ]

    def test_torus_doubled(self):
        assert torus().b_matrix() == [
            [0, 2, -2],
            [-2, 0, 2],
            [2, -2, 0],
        ]

    def test_folded_disk_vanishes(self):
        assert folded_disk().b_matrix() == [[0, 0], [0, 0]]

    def test_quadrilateral(self):
        assert quadrilateral().b_matrix() == [[0]]


class TestLayout:
    """A layout is the curve's graph, its labels mapped to variables."""

    def test_annulus_core_loop(self):
        t = annulus()
        g = loop_layout(t, Curve(
            "loop", crossings=["1", "2", "3", "4"], basepoint_triangle=3))
        assert g.base.shapes == (NORTH, NORTH, EAST)
        assert g.base.glue_labels == tuple(
            map(t.variable, ["b1", "b4", "b3"]))
        assert g.cut_label == t.variable("b2")

    def test_reversed_loop_is_reoriented(self):
        t = annulus()
        g = loop_layout(t, Curve(
            "loop", crossings=["4", "3", "2", "1"], basepoint_triangle=3))
        assert g.base.diagonals == tuple(
            map(t.variable, ["1", "2", "3", "4"]))

    def test_arc_through_folded_triangle(self):
        t = folded_disk()
        g = arc_layout(t, Curve("arc", crossings=["l", "r"],
                                start_triangle=0, end_triangle=1))
        v = t.variable
        assert g.shapes == (EAST,)
        assert g.glue_labels == (v("r"),)
        assert (g.corner_a, g.corner_b) == (v("a"), v("b"))
        assert (g.corner_w, g.corner_z) == (v("l"), v("r"))

    def test_bad_sequence(self):
        with pytest.raises(NonAdjacentCrossings):
            arc_layout(annulus(), Curve("arc", crossings=["1", "3"],
                                        start_triangle=3, end_triangle=1))

    def test_repeated_radius_unsupported(self):
        with pytest.raises(UnsupportedSelfFoldedSelfIntersection):
            arc_layout(folded_disk(), Curve(
                "arc", crossings=["r", "r"], start_triangle=1,
                end_triangle=1))

    def test_short_loop_degenerates(self):
        with pytest.raises(DegenerateBand):
            loop_layout(annulus(), Curve("loop", crossings=["1"],
                                         basepoint_triangle=3))


def expect(text):
    return parse_poly(text)


class TestExpand:
    def test_annulus_core_loop(self):
        t = annulus()
        curve = Curve("loop", crossings=["1", "2", "3", "4"],
                      basepoint_triangle=3)
        got = expand(t, curve)
        num = expect(
            "x:1^2*x:2*x:4 + x:2*x:3^2*x:4*y:1*y:2*y:3*y:4"
            " + x:1*x:3*y:2*y:3 + x:1*x:3*y:3*y:4"
            " + x:3^2*y:2*y:3*y:4 + x:1^2*y:3")
        cross = Mono({("x", "1"): 2, ("x", "2"): 2,
                      ("x", "3"): 2, ("x", "4"): 2})
        assert got.laurent == num.div_mono(cross)
        assert expand_by_matrices(t, curve).laurent == got.laurent
        assert shift_is_trivial(got)
        assert got.normalized == got.laurent

    def test_annulus_bridging_arc(self):
        t = annulus()
        curve = Curve("arc", crossings=["1"], start_triangle=3,
                      end_triangle=0)
        got = expand(t, curve)
        num = expect("1 + x:2*x:4*y:1")
        assert got.laurent == num.div_mono(Mono.of("x", "1"))
        assert got.f_poly == expect("1 + y:1")

    def test_folded_disk_arcs(self):
        t = folded_disk()
        g1 = expand(t, Curve("arc", crossings=["l", "r"],
                             start_triangle=0, end_triangle=1),
                    keep_boundary=True)
        assert g1.laurent == expect("b:a + b:b*y:r(p) + b:b*y:r")
        g2 = expand(t, Curve("arc", crossings=["r", "l"],
                             start_triangle=1, end_triangle=0),
                    keep_boundary=True)
        assert g2.laurent == (
            expect("b:a*y:r(p) + b:a*y:r + b:b*y:r*y:r(p)")
            .div_mono(Mono.of("y", "r(p)")))
        assert g2.tropical_shift == Mono({("y", "r(p)"): -2})
        assert g2.normalized == expect(
            "b:a*y:r(p) + b:a*y:r + b:b*y:r*y:r(p)")

    def test_torus_arc(self):
        got = expand(torus(), Curve("arc", crossings=["1"],
                                    start_triangle=0, end_triangle=1))
        num = expect("x:2^2 + x:3^2*y:1")
        assert got.laurent == num.div_mono(Mono.of("x", "1"))

    def test_quadrilateral_diagonal(self):
        got = expand(quadrilateral(),
                     Curve("arc", crossings=["d"], start_triangle=0,
                           end_triangle=1),
                     keep_boundary=True)
        num = expect("b:b01*b:b23 + b:b12*b:b30*y:d")
        assert got.laurent == num.div_mono(Mono.of("x", "d"))

    def test_special_kinds(self):
        t = annulus()
        assert expand(t, Curve("contractible_monogon_arc")).laurent \
            == Poly.zero()
        assert expand(t, Curve("contractible_loop")).laurent \
            == Poly.const(-2)

    @pytest.mark.parametrize("keep_boundary", [False, True])
    def test_special_kinds_have_fixed_fields(self, keep_boundary):
        t = annulus()
        zero = expand(t, Curve("contractible_monogon_arc"),
                      keep_boundary=keep_boundary)
        assert (zero.laurent, zero.f_poly, zero.tropical_shift,
                zero.normalized) == (Poly.zero(), Poly.zero(), None,
                                     Poly.zero())
        two = expand(t, Curve("contractible_loop"),
                     keep_boundary=keep_boundary)
        assert (two.laurent, two.f_poly, two.tropical_shift,
                two.normalized) == (Poly.const(-2), Poly.const(-2),
                                    Mono.unit(), Poly.const(-2))

    def test_puncture_loops(self):
        got = expand(torus(), Curve("puncture_loop", puncture="p"))
        assert got.laurent == expect("1 + y:1^2*y:2^2*y:3^2")
        folded = expand(folded_disk(),
                        Curve("puncture_loop", puncture="p"))
        assert folded.laurent == (
            expect("y:r(p) + y:r").div_mono(Mono.of("y", "r(p)")))

    def test_kink_sign(self):
        t = annulus()
        plain = expand(t, Curve("arc", crossings=["1"], start_triangle=3,
                                end_triangle=0))
        kinked = expand(t, Curve("arc", crossings=["1"], start_triangle=3,
                                 end_triangle=0, kinks=1))
        assert kinked.laurent == -plain.laurent


def three_passes(tri, raw, keep_boundary):
    """The specialization as three substitutions in turn: the tagged-arc
    coefficients, the noose rewriting and the boundary variables to 1."""
    phi, noose = {("Y", a): Mono({("y", a): 2}) for a in tri.arcs}, {}
    for sf in tri.self_folded:
        r, notched = sf["radius"], "%s(%s)" % (sf["radius"], sf["puncture"])
        phi[("Y", r)] = Mono({("y", r): 2, ("y", notched): -2})
        phi[("Y", sf["noose"])] = Mono({("y", notched): 2})
        noose[("x", sf["noose"])] = Mono({("x", r): 2, ("x", notched): 2})
    out = raw.substitute(phi).substitute(noose)
    if not keep_boundary:
        out = out.substitute({("b", b): 1 for b in tri.boundary})
    return out


def fixture_curves():
    """(triangulation, curve) for every curve with a graph in the bundled
    fixtures."""
    out = []
    for name in ("annulus", "selffolded_disk", "punctured_torus", "hexagon",
                 "skein_octagon"):
        doc = json.loads((resources.files("snakegraphs") / "fixtures"
                          / (name + ".json")).read_text(encoding="utf-8"))
        tri, curves = triangulation_from_dict(doc.get("surface", doc))
        out.extend(pytest.param(tri, c, id="%s:%s" % (name, c.name))
                   for c in curves if c.has_graph())
    return out


def assert_one_pass_is_three(tri, curve):
    """Both routes' raw readings specialize in one pass as in three, and
    both expansions are that result."""
    g = graph_for(tri, curve)
    raws = [signed_reading(curve, lambda: read().div_mono(g.crossing_mono()))
            for read in (g.enumerator_by_matchings,
                         g.enumerator_by_matrices)]
    for keep in (False, True):
        want = three_passes(tri, raws[0], keep)
        for raw in raws:
            assert specialize(tri, raw, keep) == three_passes(tri, raw, keep)
        assert expand(tri, curve, keep).laurent == want
        assert expand_by_matrices(tri, curve, keep).laurent == want


class TestCoefficientMap:
    def test_folded_disk_map(self):
        t = folded_disk()
        kept = {("Y", "l"): Mono({("y", "r(p)"): 2}),
                ("Y", "r"): Mono({("y", "r"): 2, ("y", "r(p)"): -2}),
                ("x", "l"): Mono({("x", "r"): 2, ("x", "r(p)"): 2})}
        assert coefficient_map(t) == kept
        assert coefficient_map(t, keep_boundary=False) == {
            **kept, ("b", "a"): 1, ("b", "b"): 1}

    @pytest.mark.parametrize("tri,curve", fixture_curves())
    def test_fixture_curves(self, tri, curve):
        assert_one_pass_is_three(tri, curve)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2 ** 32))
    def test_random_polygon_and_ring_curves(self, seed):
        for tri, curve in random_surface_curves(random.Random(seed), 3):
            assert_one_pass_is_three(tri, curve)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2 ** 32))
    def test_laurent_is_the_reading_specialized(self, seed):
        for tri, curve in random_surface_curves(random.Random(seed), 3):
            for route in (expand, expand_by_matrices):
                for keep in (False, True):
                    el = route(tri, curve, keep)
                    assert el.laurent == specialize(
                        tri, el.reading.div_mono(el.crossing), keep)

    @pytest.mark.parametrize("keep_boundary", [False, True])
    @pytest.mark.parametrize("route", [expand, expand_by_matrices])
    @pytest.mark.parametrize("tri,curve", [
        (annulus(), Curve("arc", crossings=["1"], start_triangle=3,
                          end_triangle=0)),
        (folded_disk(), Curve("arc", crossings=["r", "l"],
                              start_triangle=1, end_triangle=0)),
    ])
    def test_two_substitutions_per_expansion(self, monkeypatch, tri, curve,
                                             route, keep_boundary):
        # none for the route, one specialization once the expansion is
        # read, and one more for the F-polynomial; the three parts of the
        # specialization used to take a pass each, and the shift and
        # normalized expansion take none
        calls = []
        original = Poly.substitute

        def counting(p, mapping):
            calls.append(mapping)
            return original(p, mapping)

        monkeypatch.setattr(Poly, "substitute", counting)
        el = route(tri, curve, keep_boundary=keep_boundary)
        assert len(calls) == 0
        el.laurent
        assert len(calls) == 1
        el.f_poly
        assert len(calls) == 2
        el.tropical_shift
        el.normalized
        el.f_poly
        assert len(calls) == 2


class TestGraphBuilders:
    def test_band_graph_labels(self):
        g = graph_for(annulus(), Curve(
            "loop", crossings=["1", "2", "3", "4"], basepoint_triangle=3))
        assert g.cut_label == ("b", "b2")
        assert g.base.diagonals == (("x", "1"), ("x", "2"),
                                    ("x", "3"), ("x", "4"))

    def test_graph_for_dispatches_on_kind(self):
        t = annulus()
        arc = graph_for(t, Curve("arc", crossings=["1"], start_triangle=3,
                                 end_triangle=0))
        band = graph_for(t, Curve("loop", crossings=["1", "2", "3", "4"],
                                  basepoint_triangle=3))
        assert isinstance(arc, SnakeGraph)
        assert isinstance(band, BandGraph)
        assert band.crossing_mono() == band.base.crossing_mono()
        for kind in ("contractible_loop", "contractible_monogon_arc",
                     "puncture_loop"):
            with pytest.raises(ValidationError):
                graph_for(t, Curve(kind))


class TestJson:
    DOC = {
        "arcs": ["1", "2", "3", "4"],
        "boundary": ["b1", "b2", "b3", "b4"],
        "punctures": [],
        "triangles": [{"sides": ["1", "b1", "2"]},
                      {"sides": ["2", "b4", "3"]},
                      {"sides": ["3", "4", "b3"]},
                      {"sides": ["4", "1", "b2"]}],
        "curves": [{"name": "core", "kind": "loop",
                    "crossings": ["1", "2", "3", "4"],
                    "basepoint_triangle": 3}],
    }

    def test_round_trip(self):
        tri, curves = triangulation_from_dict(self.DOC)
        assert tri.b_matrix() == annulus().b_matrix()
        assert len(curves) == 1 and curves[0].name == "core"
        assert expand(tri, curves[0]).laurent \
            == expand(annulus(), curves[0]).laurent

    def test_unknown_keys_rejected(self):
        doc = dict(self.DOC)
        doc["extra"] = 1
        with pytest.raises(ValidationError):
            triangulation_from_dict(doc)
        doc = dict(self.DOC)
        doc["curves"] = [{"kind": "loop", "crossings": [], "speed": 9}]
        with pytest.raises(ValidationError):
            triangulation_from_dict(doc)

    @pytest.mark.parametrize("where", [
        lambda d, bad: d["arcs"].__setitem__(0, bad),
        lambda d, bad: d["arcs"].__setitem__(0, {"name": bad}),
        lambda d, bad: d["boundary"].__setitem__(0, bad),
        lambda d, bad: d.update(punctures=[bad]),
        lambda d, bad: d["triangles"][0]["sides"].__setitem__(0, bad),
        lambda d, bad: d["curves"][0]["crossings"].__setitem__(0, bad)])
    @pytest.mark.parametrize("bad", ["", " ", "a*b", "a^2", "a + b"])
    def test_labels_the_text_cannot_read_back_are_refused(self, where, bad):
        doc = json.loads(json.dumps(self.DOC))
        where(doc, bad)
        with pytest.raises(ValidationError) as exc:
            triangulation_from_dict(doc)
        assert "\n" not in str(exc.value)

    def test_arc_records_with_ends(self):
        doc = {
            "arcs": [{"name": "1", "ends": ["p", "p"]},
                     {"name": "2", "ends": ["p", "p"]},
                     {"name": "3", "ends": ["p", "p"]}],
            "boundary": [],
            "punctures": ["p"],
            "triangles": [{"sides": ["1", "2", "3"]},
                          {"sides": ["1", "2", "3"]}],
        }
        tri, _ = triangulation_from_dict(doc)
        assert tri.endpoint_count("1", "p") == 2
