"""Snake and band graph tests.

The one- and two-tile expansions below were worked out by hand on grid
paper (enumerating the matchings directly) and frozen before the module
was written. Larger cases are cross-checked between the three
independent routes: matching sum, exhaustive matcher, matrix product.
"""

import gc
import inspect
import itertools
import random
import sys
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from snakegraphs.algebra import (
    AlgebraError,
    Mono,
    Poly,
    format_poly,
    parse_poly,
)
from snakegraphs import snakecore
from snakegraphs.snakecore import (
    CW,
    EAST,
    NORTH,
    BandGraph,
    DegenerateBand,
    LengthMismatch,
    SnakeError,
    SnakeGraph,
    _curly,
    _matching_sum,
    pivot,
    shear,
    twist,
)
from snakegraphs.selftest import fan_chord, fan_triangulation
from snakegraphs.surface import graph_for

from oracles import (
    good_matchings_by_exhaustion,
    matchings_by_exhaustion,
    monomial_of,
)


def xv(lbl):
    return ("x", lbl)


def bv(lbl):
    return ("b", lbl)


def simple_snake(d, shapes):
    return SnakeGraph(
        diagonals=[xv("i%d" % (j + 1)) for j in range(d)],
        shapes=shapes,
        glue_labels=[xv("g%d" % (j + 1)) for j in range(d - 1)],
        corner_a=bv("a"), corner_b=bv("b"),
        corner_w=bv("w"), corner_z=bv("z"),
    )


def random_snake(rng, d=None, max_d=8):
    d = d or rng.randint(1, max_d)
    shapes = [rng.choice([NORTH, EAST]) for _ in range(d - 1)]
    return simple_snake(d, shapes), d


class TestConstruction:
    def test_length_checks(self):
        with pytest.raises(LengthMismatch):
            SnakeGraph([xv("i1")], [NORTH], [], bv("a"), bv("b"),
                       bv("w"), bv("z"))
        with pytest.raises(LengthMismatch):
            SnakeGraph([xv("i1"), xv("i2")], [NORTH], [], bv("a"), bv("b"),
                       bv("w"), bv("z"))

    def test_single_tile_edges(self):
        g = simple_snake(1, [])
        labels = sorted(v for v in g.edge_labels.values())
        assert labels == [bv("a"), bv("b"), bv("w"), bv("z")]
        assert g.edge_labels[g.edge_key_a] == bv("a")
        assert g.edge_labels[g.edge_key_w] == bv("w")


BAD = ("q", "1")  # a label of no known kind


def snake_args(d=3):
    return dict(diagonals=[xv("i%d" % j) for j in range(d)],
                shapes=[NORTH] * (d - 1),
                glue_labels=[xv("g%d" % j) for j in range(d - 1)],
                corner_a=bv("a"), corner_b=bv("b"),
                corner_w=bv("w"), corner_z=bv("z"))


class TestLabelsCheckedWhereTheyEnter:
    """A label of unknown kind is refused when the graph or step is
    built, not deep inside an enumeration."""

    @pytest.mark.parametrize("role,index", [
        ("diagonals", 0), ("diagonals", 2), ("glue_labels", 1),
        ("corner_a", None), ("corner_b", None), ("corner_w", None),
        ("corner_z", None)])
    def test_snake_refuses_bad_kind(self, role, index):
        args = snake_args()
        if index is None:
            args[role] = BAD
        else:
            args[role][index] = BAD
        with pytest.raises(AlgebraError):
            SnakeGraph(**args)

    @pytest.mark.parametrize("role", ["diagonals", "glue_labels", "cut"])
    def test_band_refuses_bad_kind(self, role):
        args = snake_args()
        diagonals, glues = args["diagonals"], args["glue_labels"]
        cut = bv("c")
        if role == "cut":
            cut = BAD
        else:
            args[role][-1] = BAD
        with pytest.raises(AlgebraError):
            BandGraph(diagonals, args["shapes"], glues, cut)

    @pytest.mark.parametrize("kind", ["Y", "y"])
    def test_graphs_refuse_coefficient_kinds(self, kind):
        # a weight holds edge labels and a height per-tile "Y" variables;
        # the matching sum joins the two as disjoint
        args = snake_args()
        args["glue_labels"][0] = (kind, "i1")
        with pytest.raises(SnakeError):
            SnakeGraph(**args)
        with pytest.raises(SnakeError):
            BandGraph(args["diagonals"], args["shapes"],
                      args["glue_labels"], bv("c"))

    @pytest.mark.parametrize("make", [
        lambda: shear(BAD, xv("t"), xv("s"), CW),
        lambda: shear(xv("t"), BAD, xv("s"), CW),
        lambda: shear(xv("t"), xv("u"), BAD, CW),
        lambda: twist(BAD, CW),
        lambda: pivot(BAD, 1),
        lambda: pivot("x1", -1)])
    def test_steps_refuse_bad_kind(self, make):
        with pytest.raises(AlgebraError):
            make()


def neen_snake(d=14):
    """The snake with the most matchings at each size: 987 at d = 14."""
    return SnakeGraph([xv("i%d" % j) for j in range(d)],
                      ("NEEN" * 5)[:d - 1],
                      [xv("g%d" % j) for j in range(d - 1)],
                      bv("a"), bv("b"), bv("w"), bv("z"))


class TestWorkCounts:
    """Work done per enumeration, counted rather than timed."""

    @staticmethod
    def _count(monkeypatch, owner, name, calls):
        original = getattr(owner, name)

        def counting(*args, **kwargs):
            calls.append(name)
            return original(*args, **kwargs)

        monkeypatch.setattr(owner, name, counting)

    def test_one_height_per_matching_one_minimal(self, monkeypatch):
        # one weight and one height built per matching, on the snake with
        # the most matchings per tile and on a long chord with the fewest
        calls = []
        for name in ("weight_mono", "height_mono", "minimal_matching"):
            self._count(monkeypatch, SnakeGraph, name, calls)
        chord = graph_for(fan_triangulation(300), fan_chord(300, 1, 299))
        for g, count in ((neen_snake(), 987), (chord, 298)):
            calls.clear()
            rows = g.weighted_matchings()
            assert len(rows) == count
            assert calls.count("weight_mono") == count
            assert calls.count("height_mono") == count
            assert calls.count("minimal_matching") == 1

    def test_leaf_sum_builds_one_monomial_per_matching(self, monkeypatch):
        # the snake sum adds one monomial per leaf of the walk, with no
        # matching rows, no order and no packed kernel
        calls = []
        self._count(monkeypatch, Mono, "_hashed", calls)
        for name in ("weight_mono", "height_mono", "perfect_matchings"):
            self._count(monkeypatch, SnakeGraph, name, calls)
        for name in ("_packed_fold", "_Packing"):
            self._count(monkeypatch, snakecore, name, calls)
        chord = graph_for(fan_triangulation(300), fan_chord(300, 1, 299))
        assert chord.d == 297
        for g, count in ((neen_snake(), 987), (chord, 298)):
            calls.clear()
            p = g.enumerator_by_matchings()
            assert calls == ["_hashed"] * count
            assert sum(c for _, c in p.coefficients()) == count

    def test_walk_flips_only_the_tiles_that_change(self):
        # consecutive matchings differ by the flipped tiles only; a walk
        # that undid and redid its tails would flip about d^2 / 2 tiles
        # on a chord
        tri = fan_triangulation(300)
        for ends in ((1, 299), (299, 1)):
            g = graph_for(tri, fan_chord(300, *ends))
            flips = [len(f) for f, _ in g._leaves()]
            assert (g.d, len(flips), sum(flips)) == (297, 298, 297)
        # a branch deep in the walk may reset a long tail (13 tiles at
        # most here), but over the whole walk that averages out
        flips = [len(f) for f, _ in neen_snake()._leaves()]
        assert (len(flips), flips[0]) == (987, 0)
        assert sum(flips) <= 2 * len(flips)

    def test_validated_monomials_grow_with_tiles(self, monkeypatch):
        g = neen_snake()
        calls = []
        self._count(monkeypatch, Mono, "__init__", calls)
        assert g.enumerator_by_matchings() == g.enumerator_by_matrices()
        assert len(calls) <= 4 * g.d

    @pytest.mark.parametrize("make", [
        lambda: simple_snake(1, []), neen_snake,
        lambda: BandGraph([xv("i%d" % j) for j in range(5)], "NEEN",
                          [xv("g%d" % j) for j in range(4)], bv("c"))])
    def test_matrix_route_checks_no_label_again(self, monkeypatch, make):
        g = make()
        rebuild = {1: lambda s: shear(s.tau, s.tau_prime, s.sigma, s.mode),
                    2: lambda s: twist(s.tau, s.mode),
                    3: lambda s: pivot(s.tau, s.mode)}
        for s in g.steps():
            assert rebuild[s.kind](s) == s
        calls = []
        self._count(monkeypatch, Mono, "__init__", calls)
        g.enumerator_by_matrices()
        assert calls == []

    def test_enumerations_leave_no_reference_cycles(self):
        # a self-referencing closure would keep every matching and height
        # alive until the cycle collector runs, raising peak memory
        g = neen_snake()
        gc.collect()
        gc.disable()
        try:
            g.enumerator_by_matchings()
            g.enumerator_by_matrices()
            g.corner_partition_sums()
            assert gc.collect() == 0
        finally:
            gc.enable()

    def test_nothing_is_kept_on_the_graph(self):
        g = neen_snake()
        before = dict(vars(g))
        g.enumerator_by_matchings()
        g.enumerator_by_matrices()
        g.corner_partition_sums()
        assert vars(g) == before


class TestFrozenExpansions:
    def poly(self, s):
        return parse_poly(s)

    def test_one_tile(self):
        g = simple_snake(1, [])
        expected = self.poly("b:a*b:w + b:b*b:z*Y:i1")
        assert g.enumerator_by_matchings() == expected
        assert g.enumerator_by_matrices() == expected

    def test_two_tiles_north(self):
        g = simple_snake(2, [NORTH])
        expected = self.poly(
            "x:i1*b:a*b:w + x:g1*Y:i2*b:a*b:z + x:i2*Y:i1*Y:i2*b:b*b:z")
        assert g.enumerator_by_matchings() == expected
        assert g.enumerator_by_matrices() == expected

    def test_two_tiles_east(self):
        g = simple_snake(2, [EAST])
        expected = self.poly(
            "x:i2*b:a*b:w + x:g1*Y:i1*b:b*b:w + x:i1*Y:i1*Y:i2*b:b*b:z")
        assert g.enumerator_by_matchings() == expected
        assert g.enumerator_by_matrices() == expected

    def test_matching_counts_are_fibonacci_for_straight_snakes(self):
        # the shape word EENNEENN... keeps the grid heading constant, so
        # the tiles form a straight ladder with fib(d+2) matchings
        fib = [1, 1, 2, 3, 5, 8, 13, 21]
        for d in range(1, 6):
            word = [EAST if j % 4 in (0, 1) else NORTH for j in range(d - 1)]
            g = simple_snake(d, word)
            assert len(set(g.positions[j][1] for j in range(d))) == 1
            assert len(g.perfect_matchings()) == fib[d + 1]

    @staticmethod
    def heading_rule_positions(shapes):
        """Reference layout: the heading starts east and flips at step j
        exactly when shape letter j repeats the letter two places back,
        the word padded by two norths."""
        padded = (NORTH, NORTH) + tuple(shapes)
        pos, heading = [(0, 0)], EAST
        for j in range(len(shapes)):
            if padded[j + 2] == padded[j]:
                heading = NORTH if heading == EAST else EAST
            px, py = pos[-1]
            pos.append((px, py + 1) if heading == NORTH else (px + 1, py))
        return pos

    def test_positions_follow_the_heading_rule(self):
        for d in range(1, 11):
            for shapes in itertools.product((NORTH, EAST), repeat=d - 1):
                assert simple_snake(d, shapes).positions == \
                    self.heading_rule_positions(shapes)


class TestMatchings:
    def test_minimal_is_all_boundary_and_contains_a(self):
        rng = random.Random(7)
        for _ in range(25):
            g, _ = random_snake(rng)
            mmin = g.minimal_matching()
            assert g.edge_key_a in mmin
            assert not (set(mmin) & set(g.glue_keys))
            first, _, height = g.weighted_matchings()[0]
            assert first == mmin and height.is_unit()

    def test_minimal_is_the_matching_its_definition_names(self):
        # P- is the one perfect matching that holds corner a and no glue
        # edge, and it holds w but not z; a leaf of the walk, which
        # toggles enclosed tiles away from it, holds a exactly when tile
        # 0 is not enclosed and w exactly when the last tile is not
        for d in range(1, 9):
            for shapes in itertools.product((NORTH, EAST), repeat=d - 1):
                g = simple_snake(d, shapes)
                everything = matchings_by_exhaustion(g)
                mmin = g.minimal_matching()
                assert [m for m in everything if g.edge_key_a in m
                        and not m & set(g.glue_keys)] == [mmin]
                assert g.edge_key_w in mmin and g.edge_key_z not in mmin
                current = set(mmin)
                for flips, inside in g._leaves():
                    for j in flips:
                        current.symmetric_difference_update(g._sides[j])
                    assert frozenset(current) in everything
                    assert (g.edge_key_a in current) == (not inside[0])
                    assert (g.edge_key_w in current) == (not inside[-1])

    def test_rel_flip(self):
        rng = random.Random(8)
        for _ in range(15):
            g, _ = random_snake(rng)
            lo = g.minimal_matching()
            hi, _, height = g.weighted_matchings()[-1]
            assert lo != hi
            assert not (set(hi) & set(g.glue_keys))
            # the other all-boundary matching encloses every tile
            full = Mono.unit()
            for v in g.diagonals:
                full = full.mul(Mono({("Y", v[1]): 2}))
            assert height == full

    def test_enumerator_order_emits_minimal_first(self):
        rng = random.Random(9)
        for _ in range(10):
            g, _ = random_snake(rng)
            ms = g.perfect_matchings()
            assert ms[0] == g.minimal_matching()

    def test_matches_exhaustive_oracle(self):
        rng = random.Random(10)
        for _ in range(30):
            g, _ = random_snake(rng, max_d=7)
            assert (sorted(g.perfect_matchings(), key=sorted)
                    == matchings_by_exhaustion(g))

    def test_exhaustive_oracle_large_branch(self):
        # graphs past the subset-filter cutover exercise the pruned
        # recursion branch of the oracle
        rng = random.Random(11)
        for _ in range(6):
            g, _ = random_snake(rng, d=rng.randint(7, 9))
            assert (sorted(g.perfect_matchings(), key=sorted)
                    == matchings_by_exhaustion(g))


def ray_cast_height(g, matching, minimal):
    """Oracle for SnakeGraph.height_mono: a tile is enclosed when an
    even-odd ray cast east from its center meets an odd number of
    vertical edges of the symmetric difference."""
    diff = set(matching) ^ set(minimal)
    verticals = [key for key in diff if key[0][0] == key[1][0]]
    enclosed = []
    for vid, (px, py) in zip(g.diagonals, g.positions):
        hits = sum(1 for (v1, v2) in verticals
                   if v1[0] > px and min(v1[1], v2[1]) == py)
        if hits % 2:
            enclosed.append(_curly(vid))
    return monomial_of(enclosed)


def assert_heights_match_ray_cast(g):
    minimal = g.minimal_matching()
    for m, _, height in g.weighted_matchings():
        assert height == ray_cast_height(g, m, minimal)


class TestHeight:
    def test_every_word_up_to_nine_tiles(self):
        for d in range(1, 10):
            for shapes in itertools.product((NORTH, EAST), repeat=d - 1):
                assert_heights_match_ray_cast(simple_snake(d, shapes))

    @settings(max_examples=25, deadline=None)
    @given(st.lists(st.sampled_from((NORTH, EAST)), min_size=9,
                    max_size=13))
    def test_random_words_of_ten_to_fourteen_tiles(self, shapes):
        assert_heights_match_ray_cast(simple_snake(len(shapes) + 1, shapes))


class TestFenceWalk:
    """The walk over the tiles' fence against the exhaustive matcher and
    the ray-cast height, which share no step with it."""

    def test_edge_sets_match_the_oracle_up_to_nine_tiles(self):
        for d in range(1, 10):
            for shapes in itertools.product((NORTH, EAST), repeat=d - 1):
                g = simple_snake(d, shapes)
                assert (sorted(g.perfect_matchings(), key=sorted)
                        == matchings_by_exhaustion(g))

    @settings(max_examples=15, deadline=None)
    @given(st.data())
    def test_repeated_labels_ten_to_thirteen_tiles(self, data):
        d = data.draw(st.integers(10, 13))
        shapes = data.draw(st.lists(st.sampled_from((NORTH, EAST)),
                                    min_size=d - 1, max_size=d - 1))
        label = st.sampled_from(("0", "1", "2"))
        g = SnakeGraph(
            [xv("i" + data.draw(label)) for _ in range(d)], shapes,
            [xv("g" + data.draw(label)) for _ in range(d - 1)],
            bv("a"), bv(data.draw(st.sampled_from("ab"))), bv("w"),
            bv(data.draw(st.sampled_from("awz"))))
        rows = g.weighted_matchings()
        assert (sorted((m for m, _, _ in rows), key=sorted)
                == matchings_by_exhaustion(g))
        minimal = g.minimal_matching()
        for m, _, height in rows:
            assert height == ray_cast_height(g, m, minimal)

    @settings(max_examples=40, deadline=None)
    @given(st.data())
    def test_carried_rows_are_the_rebuilt_ones_in_order(self, data):
        # the walk's weight against one counted from the edges by a plain
        # Counter and the validating constructor, and the order against
        # the key it replaced
        d = data.draw(st.integers(1, 11))
        shapes = data.draw(st.lists(st.sampled_from((NORTH, EAST)),
                                    min_size=d - 1, max_size=d - 1))
        label = st.sampled_from(("0", "1", "10", "2"))
        g = SnakeGraph(
            [xv("i" + data.draw(label)) for _ in range(d)], shapes,
            [data.draw(st.sampled_from((xv, bv)))("i" + data.draw(label))
             for _ in range(d - 1)],
            bv("a"), bv(data.draw(st.sampled_from("ab"))), bv("w"),
            bv(data.draw(st.sampled_from("awz"))))
        rows = g.weighted_matchings()
        for m, w, h in rows:
            counted = Counter(g.edge_labels[e] for e in m)
            expected = Mono({v: 2 * n for v, n in counted.items()})
            assert w == expected
            assert hash(w) == hash(expected)
        assert rows == sorted(rows, key=lambda r: (r[2].degree2(),
                                                   r[2].items(),
                                                   sorted(r[0])))
        assert [m for m, _, _ in rows] == g.perfect_matchings()

    def test_walk_keeps_its_own_stack(self):
        # a curve may cross more arcs than the interpreter's recursion
        # limit allows frames; the walk must not need one frame per tile
        g = simple_snake(200, [NORTH] * 199)
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(len(inspect.stack()) + 50)
        try:
            rows = g.weighted_matchings()
        finally:
            sys.setrecursionlimit(limit)
        assert len(rows) == 201

    def test_flips_are_the_tiles_whose_enclosure_changed(self):
        # the first leaf is the minimal matching, and each later leaf's
        # flips are exactly the tiles it encloses differently
        for d in range(1, 10):
            for shapes in itertools.product((NORTH, EAST), repeat=d - 1):
                before = [False] * d
                for flips, inside in simple_snake(d, shapes)._leaves():
                    assert flips == [j for j in range(d)
                                     if inside[j] != before[j]]
                    before = list(inside)

    def test_equal_heights_are_ordered_by_edges(self):
        # repeated diagonal labels let two matchings share a height; the
        # sorted edge sets then decide, as they always have
        g = SnakeGraph([xv("i0"), xv("i1"), xv("i0")], [NORTH, EAST],
                       [xv("g0"), xv("g1")],
                       bv("a"), bv("b"), bv("w"), bv("z"))
        rows = [(format_poly(Poly.from_mono(w)),
                 format_poly(Poly.from_mono(h)))
                for _, w, h in g.weighted_matchings()]
        assert rows == [
            ("x:i0^2*b:a*b:w", "1"),
            ("x:g0*x:g1*b:a*b:w", "Y:i1"),
            ("x:g1*x:i1*b:b*b:w", "Y:i0*Y:i1"),
            ("x:g0*x:i1*b:a*b:z", "Y:i0*Y:i1"),
            ("x:i1^2*b:b*b:z", "Y:i0^2*Y:i1"),
        ]


def assert_leaf_sum_is_the_row_sum(g):
    got, want = g.enumerator_by_matchings(), _matching_sum(
        g.weighted_matchings())
    assert got == want
    for m, _ in got.coefficients():
        assert hash(m) == hash(Mono(dict(m.exponents())))


class TestLeafSum:
    """The snake sum built at the walk's leaves against the sum of the
    ordered (matching, weight, height) rows."""

    def test_every_word_up_to_ten_tiles(self):
        for d in range(1, 11):
            for shapes in itertools.product((NORTH, EAST), repeat=d - 1):
                assert_leaf_sum_is_the_row_sum(simple_snake(d, shapes))

    @settings(max_examples=30, deadline=None)
    @given(st.data())
    def test_repeated_labels_up_to_fourteen_tiles(self, data):
        d = data.draw(st.integers(1, 14))
        shapes = data.draw(st.lists(st.sampled_from((NORTH, EAST)),
                                    min_size=d - 1, max_size=d - 1))
        label = st.sampled_from(("0", "1", "2"))
        corner = st.sampled_from("abwz")
        assert_leaf_sum_is_the_row_sum(SnakeGraph(
            [xv("i" + data.draw(label)) for _ in range(d)], shapes,
            [data.draw(st.sampled_from((xv, bv)))("i" + data.draw(label))
             for _ in range(d - 1)],
            *(bv(data.draw(corner)) for _ in range(4))))

    @pytest.mark.parametrize("corners", ["abwz", "aawz", "abww", "abwa",
                                         "abbz", "aaaa"])
    def test_coinciding_corners(self, corners):
        # the snake whose heights tie, with corner labels that coincide
        g = SnakeGraph([xv("i0"), xv("i1"), xv("i0")], [NORTH, EAST],
                       [xv("g0"), xv("g1")], *map(bv, corners))
        assert_leaf_sum_is_the_row_sum(g)
        assert g.enumerator_by_matchings() == g.enumerator_by_matrices()

    @pytest.mark.parametrize("ends", [(1, 299), (299, 1)])
    def test_chord_in_both_directions(self, ends):
        assert_leaf_sum_is_the_row_sum(
            graph_for(fan_triangulation(300), fan_chord(300, *ends)))

    @pytest.mark.parametrize("diagonal,glue,corners", [
        ("0000", "000", "abwz"), ("0101", "010", "abab"),
        ("0000", "111", "abwz"), ("01201", "2020", "aawz")])
    def test_carried_exponents_fall_to_zero_and_back(self, diagonal, glue,
                                                     corners):
        # labels shared between tiles, so some exponent of the carried
        # monomial falls to 0 partway through the walk and rises again;
        # the leaf monomials, rebuilt from each leaf's enclosed tiles,
        # show that it does
        g = SnakeGraph([xv("i" + c) for c in diagonal], "NEEN"[:len(glue)],
                       [xv("i" + c) for c in glue], *map(bv, corners))
        assert_leaf_sum_is_the_row_sum(g)
        minimal, seen = g.minimal_matching(), {}
        for _, inside in g._leaves():
            m = set(minimal)
            for j in itertools.compress(range(g.d), inside):
                m.symmetric_difference_update(g._sides[j])
            counted = Counter(g.edge_labels[e] for e in m)
            counted.update(itertools.compress(g._curlies, inside))
            for v in set(counted) | set(seen):
                seen.setdefault(v, []).append(counted[v])
        assert any(run[i] and not run[i + 1] and any(run[i + 2:])
                   for run in seen.values() for i in range(len(run) - 2))


class TestMatrixRoute:
    def test_routes_agree_randomly(self):
        rng = random.Random(12)
        for _ in range(40):
            g, _ = random_snake(rng)
            assert g.enumerator_by_matchings() == g.enumerator_by_matrices()

    def test_corner_partition_matches_transfer_entries(self):
        rng = random.Random(13)
        for _ in range(30):
            g, _ = random_snake(rng)
            tl, tr, bl, br = g.corner_partition_sums()
            m = g.transfer_matrix()
            assert (tl, tr, bl, br) == (m.a, m.b, m.c, m.d)

    @pytest.mark.parametrize("shapes,corner,same_as", [
        ([], "w", "a"),
        ([NORTH, EAST], "z", "b"),
    ])
    def test_corner_partition_with_coinciding_corners(self, shapes, corner,
                                                      same_as):
        # one corner label standing for two corner edges must divide twice
        d = len(shapes) + 1
        corners = {k: bv(k) for k in "abwz"}
        corners[corner] = corners[same_as]
        g = SnakeGraph(
            [xv("i%d" % (j + 1)) for j in range(d)], shapes,
            [xv("g%d" % (j + 1)) for j in range(d - 1)],
            **{"corner_" + k: v for k, v in corners.items()})
        m = g.transfer_matrix()
        assert g.corner_partition_sums() == (m.a, m.b, m.c, m.d)


class TestWeightedMatchings:
    def test_rows_follow_perfect_matchings(self):
        rng = random.Random(16)
        for _ in range(20):
            g, _ = random_snake(rng)
            minimal = g.minimal_matching()
            assert g.weighted_matchings() == [
                (m, g.weight_mono(m), ray_cast_height(g, m, minimal))
                for m in g.perfect_matchings()]

    def test_matching_sum_is_the_enumerator(self):
        rng = random.Random(17)
        for _ in range(20):
            g, _ = random_snake(rng)
            rows = g.weighted_matchings()
            expected = Poly.zero()
            for _, w, h in rows:
                expected = expected + Poly.from_mono(w.mul(h))
            assert _matching_sum(rows) == expected
            assert g.enumerator_by_matchings() == expected


ANNULUS_DIAGONALS = [xv("1"), xv("2"), xv("3"), xv("4")]
ANNULUS_SHAPES = [NORTH, NORTH, EAST]
ANNULUS_GLUES = [bv("b1"), bv("b4"), bv("b3")]
ANNULUS_CUT = bv("b2")


def annulus_band():
    return BandGraph(ANNULUS_DIAGONALS, ANNULUS_SHAPES, ANNULUS_GLUES,
                     ANNULUS_CUT)


class TestBand:
    def test_rejects_single_tile(self):
        with pytest.raises(DegenerateBand):
            BandGraph([xv("1")], [], [], bv("c"))

    def test_annulus_golden_numerator(self):
        # six-term expansion of the annulus core loop, boundary set to 1;
        # worked out by hand from the four-factor matrix product
        g = annulus_band()
        num = g.enumerator_by_matrices()
        subs = {bv("b%d" % k): 1 for k in range(1, 5)}
        golden = parse_poly(
            "x:1^2*x:2*x:4 + x:2*x:3^2*x:4*Y:1*Y:2*Y:3*Y:4"
            " + x:1*x:3*Y:2*Y:3 + x:1*x:3*Y:3*Y:4"
            " + x:3^2*Y:2*Y:3*Y:4 + x:1^2*Y:3")
        assert num.substitute(subs) == golden

    def test_annulus_good_matchings_and_heights(self):
        g = annulus_band()
        good = g.good_matchings()
        assert len(good) == 6
        heights = sorted(format_poly(Poly.from_mono(h)) for _, _, h in good)
        assert heights == sorted([
            "1", "Y:3", "Y:2*Y:3", "Y:3*Y:4", "Y:2*Y:3*Y:4",
            "Y:1*Y:2*Y:3*Y:4"])

    def test_band_routes_agree(self):
        rng = random.Random(14)
        for _ in range(30):
            d = rng.randint(2, 8)
            shapes = [rng.choice([NORTH, EAST]) for _ in range(d - 1)]
            g = BandGraph(
                [xv("i%d" % (j + 1)) for j in range(d)], shapes,
                [xv("g%d" % (j + 1)) for j in range(d - 1)], bv("c"))
            assert g.enumerator_by_matchings() == g.enumerator_by_matrices()

    def test_band_oracle_agrees(self):
        rng = random.Random(15)
        for _ in range(20):
            d = rng.randint(2, 7)
            shapes = [rng.choice([NORTH, EAST]) for _ in range(d - 1)]
            g = BandGraph(
                [xv("i%d" % (j + 1)) for j in range(d)], shapes,
                [xv("g%d" % (j + 1)) for j in range(d - 1)], bv("c"))
            oracle = good_matchings_by_exhaustion(g)
            descended = g.good_matchings()
            assert len(oracle) == len(descended)
            weights_a = sorted(w.items() for _, w in oracle)
            weights_b = sorted(w.items() for _, w, _ in descended)
            assert weights_a == weights_b

    def test_band_oracle_edge_sets_every_word(self):
        # weights cannot tell which cut copy a good matching dropped; the
        # edge sets, with the kept copy renamed as the oracle names it, can
        for d in range(2, 8):
            for shapes in itertools.product((NORTH, EAST), repeat=d - 1):
                g = BandGraph(
                    [xv("i%d" % (j + 1)) for j in range(d)], shapes,
                    [xv("g%d" % (j + 1)) for j in range(d - 1)], bv("c"))
                cuts = (g.base.edge_key_a, g.base.edge_key_z)
                descended = sorted(
                    sorted(map(str, ("cut" if k in cuts else k for k in m)))
                    for m, _, _ in g.good_matchings())
                oracle = [sorted(map(str, m))
                          for m, _ in good_matchings_by_exhaustion(g)]
                assert descended == oracle

    def test_oracles_do_not_use_the_production_search(self, monkeypatch):
        rng = random.Random(18)
        snakes = [random_snake(rng, max_d=7)[0] for _ in range(10)]
        bands = [BandGraph(
            [xv("i%d" % (j + 1)) for j in range(d)],
            [rng.choice([NORTH, EAST]) for _ in range(d - 1)],
            [xv("g%d" % (j + 1)) for j in range(d - 1)], bv("c"))
            for d in (2, 3, 5, 7)]
        before = ([matchings_by_exhaustion(g) for g in snakes],
                  [good_matchings_by_exhaustion(g) for g in bands])

        def refuse(self, *args):
            raise AssertionError("the oracle called the production search")

        monkeypatch.setattr(SnakeGraph, "perfect_matchings", refuse)
        monkeypatch.setattr(SnakeGraph, "minimal_matching", refuse)
        after = ([matchings_by_exhaustion(g) for g in snakes],
                 [good_matchings_by_exhaustion(g) for g in bands])
        assert after == before
        assert all(before[0]) and all(before[1])

    def test_matching_route_does_not_use_the_packed_kernel(
            self, monkeypatch):
        # the two routes cross-check each other only while they share no
        # product code
        rng = random.Random(19)
        graphs = [random_snake(rng, max_d=9)[0] for _ in range(10)] + [
            BandGraph([xv("i%d" % (j + 1)) for j in range(d)],
                      [rng.choice([NORTH, EAST]) for _ in range(d - 1)],
                      [xv("g%d" % (j + 1)) for j in range(d - 1)], bv("c"))
            for d in (2, 3, 5, 8)]
        before = [g.enumerator_by_matchings() for g in graphs]
        assert before == [g.enumerator_by_matrices() for g in graphs]

        def refuse(*args, **kwargs):
            raise AssertionError("the matching route used the packed kernel")

        monkeypatch.setattr(snakecore, "_packed_fold", refuse)
        with pytest.raises(AssertionError):
            graphs[0].enumerator_by_matrices()
        assert [g.enumerator_by_matchings() for g in graphs] == before
        assert [g.corner_partition_sums() for g in graphs[:10]]


class TestDot:
    def test_snake_dot_contains_all_edges(self):
        g = simple_snake(2, [NORTH])
        dot = g.to_dot()
        assert dot.startswith("graph snake {")
        assert dot.count("--") == len(g.edge_labels) + 2  # + diagonals
        assert 'label="b:a"' in dot

    def test_band_dot_marks_cut(self):
        g = annulus_band()
        assert "color=red" in g.to_dot()
