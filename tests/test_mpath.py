"""Matrix path tests.

The step sequences are checked against the matching expansions from the
surface layer on every fixture, then each local adjustment is applied at
every admissible position and the absolute readings are compared.
"""

from array import array

import pytest
from hypothesis import example, given, settings, strategies as st

from snakegraphs.algebra import Mat2, Mono, Poly, _hash_of, parse_poly
from snakegraphs.mpath import (
    CCW,
    CW,
    MixedSigns,
    MPath,
    StepFormatError,
    abs_poly,
    chi,
    chi_bar,
    chi_hat,
    format_steps,
    insert_backtrack,
    invert_steps,
    parse_steps,
    path_for_curve,
    path_matrix,
    pivot,
    prepend_shear,
    reroute_shear,
    rotate_loop,
    shear,
    swap_twist_pivot,
    twist,
)
from snakegraphs.selftest import (
    fan_chord,
    fan_triangulation,
    ring_triangulation,
)
from snakegraphs.snakecore import (
    _DIGITS,
    ProductTooWide,
    _Packing,
    path_reading,
    step_matrix,
)
from snakegraphs.surface import (
    Curve,
    Triangulation,
    ValidationError,
    expand,
    graph_for,
)

from test_surface import annulus, folded_disk, quadrilateral, torus


def pentagon():
    return Triangulation(
        arcs=["02", "03"],
        boundary=["b01", "b12", "b23", "b34", "b40"],
        punctures=[],
        triangles=[("b01", "b12", "02"), ("02", "b23", "03"),
                   ("03", "b34", "b40")],
    )


CASES = [
    (annulus, Curve("arc", crossings=["1"], start_triangle=3,
                    end_triangle=0)),
    (quadrilateral, Curve("arc", crossings=["d"], start_triangle=0,
                          end_triangle=1)),
    (pentagon, Curve("arc", crossings=["02", "03"], start_triangle=0,
                     end_triangle=2)),
    (torus, Curve("arc", crossings=["1"], start_triangle=0,
                  end_triangle=1)),
    (folded_disk, Curve("arc", crossings=["l", "r"], start_triangle=0,
                        end_triangle=1)),
    (folded_disk, Curve("arc", crossings=["r", "l"], start_triangle=1,
                        end_triangle=0)),
    (annulus, Curve("loop", crossings=["1", "2", "3", "4"],
                    basepoint_triangle=3)),
]


class TestAgainstExpansion:
    @pytest.mark.parametrize("make,curve", CASES)
    def test_chi_matches_matching_expansion(self, make, curve):
        tri = make()
        path = path_for_curve(tri, curve)
        for keep in (False, True):
            assert chi(tri, path, keep_boundary=keep) \
                == expand(tri, curve, keep_boundary=keep).laurent

    def test_special_kinds_have_no_path(self):
        with pytest.raises(ValidationError):
            path_for_curve(annulus(), Curve("contractible_loop"))


class TestReadings:
    def test_reduced_and_unreduced_differ_by_half_twists(self):
        tri = quadrilateral()
        path = path_for_curve(
            tri, Curve("arc", crossings=["d"], start_triangle=0,
                       end_triangle=1))
        hat = chi_hat(path)
        bar = chi_bar(path)
        # one tile: the reduced reading pulls out a half power of the
        # tile coefficient
        assert bar == hat * Poly.of_var("Y", "d", exp2=-1)

    def test_abs_poly(self):
        assert abs_poly(parse_poly("-x:a - 2")) == parse_poly("x:a + 2")
        assert abs_poly(Poly.zero()) == Poly.zero()
        with pytest.raises(MixedSigns):
            abs_poly(parse_poly("x:a - x:b"))

    def test_inversion(self):
        tri = annulus()
        path = path_for_curve(tri, Curve(
            "loop", crossings=["1", "2", "3", "4"], basepoint_triangle=3))
        m = path_matrix(path.steps, reduced=True)
        minv = path_matrix(invert_steps(path.steps), reduced=True)
        assert m * minv == Mat2.identity()


def flat_fold(steps, reduced):
    """Reference product: step_matrix(s_n) * ... * step_matrix(s_1),
    one step at a time."""
    m = Mat2.identity()
    for s in steps:
        m = step_matrix(s, reduced) * m
    return m


labels = st.sampled_from([("x", "a"), ("x", "b"), ("b", "c")])
directions = st.sampled_from([CW, CCW])


# A scale shares variables with the steps and brings its own, with
# exponents of either sign.
scales = st.dictionaries(
    st.dictionaries(st.sampled_from([("x", "a"), ("b", "c"), ("Y", "a"),
                                     ("y", "d")]),
                    st.integers(-5, 5), max_size=3).map(Mono),
    st.integers(-3, 3), min_size=1, max_size=3).map(Poly)


@st.composite
def step_sequences(draw, labels=labels):
    """0-12 steps: up to four before the first twist, then an optional
    twist and up to seven steps of any kind."""
    twists = st.builds(twist, labels, directions)
    non_twists = st.one_of(
        st.builds(shear, labels, labels, labels, directions),
        st.builds(lambda v, mode: shear(v, v, v, mode), labels, directions),
        st.builds(pivot, labels, st.sampled_from([1, -1])))
    lead = draw(st.lists(non_twists, max_size=4))
    first = draw(st.lists(twists, max_size=1))
    rest = draw(st.lists(st.one_of(twists, non_twists), max_size=7))
    return lead + first + rest


def assert_hash_is_exact(m):
    """The monomial's stored hash is the one its exponents define; it
    fits in 63 bits, so hash() returns it unreduced, as it does for the
    validating constructor's."""
    assert m._hash == _hash_of(m._exps)
    assert hash(m) == _hash_of(m._exps)
    assert hash(m) == hash(Mono(m._exps))


def signed_hash_labels():
    """Two variables whose hash() is negative and one whose hash() is
    positive, found by scanning, since string hashes follow the seed."""
    found = {True: [], False: []}
    for j in range(1000):
        v = ("x", "h%d" % j)
        found[hash(v) < 0].append(v)
    return found[True][:2] + found[False][:1] + [("b", "c")]


class TestPathMatrix:
    @settings(max_examples=150, deadline=None)
    @given(step_sequences(), st.booleans())
    def test_grouped_product_is_the_flat_fold(self, steps, reduced):
        assert path_matrix(steps, reduced) == flat_fold(steps, reduced)

    @settings(max_examples=150, deadline=None)
    @given(step_sequences(), st.booleans(), st.one_of(st.none(), scales))
    # terms of the accumulator meet on one monomial of the trace
    @example([pivot(("x", "a"), -1),
              shear(("x", "b"), ("x", "b"), ("b", "c"), CCW),
              twist(("x", "b"), CW), pivot(("x", "a"), 1),
              shear(("x", "b"), ("x", "a"), ("x", "a"), CW),
              twist(("b", "c"), CCW), twist(("b", "c"), CW),
              shear(("x", "a"), ("x", "b"), ("x", "a"), CW)], False, None)
    def test_each_reading_is_its_entry_of_the_flat_fold(self, steps,
                                                        reduced, scale):
        flat = flat_fold(steps, reduced)
        times = (lambda p: p) if scale is None else (lambda p: scale * p)
        assert path_reading(steps, False, reduced, scale) == times(flat.b)
        assert (path_reading(steps, True, reduced, scale)
                == times(flat.trace()))

    @settings(max_examples=150, deadline=None)
    @given(step_sequences())
    def test_inverted_steps_invert_the_reduced_product(self, steps):
        assert (path_matrix(invert_steps(steps), True)
                * path_matrix(steps, True)) == Mat2.identity()

    @settings(max_examples=150, deadline=None)
    @given(step_sequences())
    def test_text_form_reads_back(self, steps):
        assert parse_steps(format_steps(steps)) == steps


class TestPackedDigits:
    """Packed keys hold each exponent in a signed digit; a product whose
    exponents would overflow it gets wider digits, never wrong terms."""

    def test_typecodes_read_their_width(self):
        for bits, code in _DIGITS:
            assert array(code).itemsize * 8 == bits
            assert array(code, [-(1 << (bits - 1))])[0] < 0

    @pytest.mark.parametrize("n,reduced", [
        (16383, False), (16384, False), (32767, True), (32768, True)])
    def test_long_twist_runs_read_exactly(self, n, reduced):
        # an unreduced clockwise twist is diag(1, Y), reduced
        # diag(Y^(-1/2), Y^(1/2)): n of them reach doubled exponents 2n,
        # or -n and n, and the second of each pair overflows 16 bits
        y = ("Y", "a")
        steps = [twist(("x", "a"), CW)] * n
        lo, hi = (-n, n) if reduced else (0, 2 * n)
        top, bottom = Poly.from_mono(Mono({y: lo})), Poly.from_mono(
            Mono({y: hi}))
        assert path_matrix(steps, reduced) == Mat2(top, 0, 0, bottom)
        assert path_reading(steps, True, reduced) == top + bottom

    @pytest.mark.parametrize("e", [(1 << 15) - 1, 1 << 15, 1 << 31,
                                   -(1 << 40), (1 << 63) - 1])
    def test_keys_read_back_at_every_width(self, e):
        p = Poly({Mono({("x", "a"): e, ("b", "c"): -1}): 2,
                  Mono({("x", "a"): 1}): -1, Mono(): 5})
        packing = _Packing([p])
        assert packing.unpack(dict(packing.pack(p))) == p

    @pytest.mark.parametrize("e", [(1 << 15) - 1, -((1 << 15) - 1),
                                   1 << 15])
    def test_hash_digit_reads_back_at_the_digit_edges(self, e):
        # 2^15 - 1 is the widest exponent a 16-bit digit holds, and 2^15
        # the narrowest that widens it; the hash rides above the digits
        v, w, u = signed_hash_labels()[:3]
        p = Poly({Mono({v: e, w: -e}): 2, Mono({w: e, u: 1}): -1,
                  Mono({u: -e}): 3, Mono(): 5})
        packing = _Packing([p])
        back = packing.unpack(dict(packing.pack(p)))
        assert back == p
        for m, _ in back.coefficients():
            assert_hash_is_exact(m)

    def test_exponents_past_64_bits_are_refused(self):
        with pytest.raises(ProductTooWide):
            _Packing([Poly.of_var("x", "a", 1 << 63)])


class TestHashDigit:
    """Every monomial the kernel decodes takes its hash from the bits of
    its key above the exponent digits; that hash must be the one its
    exponents define."""

    @settings(max_examples=150, deadline=None)
    @given(step_sequences(st.sampled_from(signed_hash_labels())),
           st.booleans(), st.one_of(st.none(), scales))
    def test_decoded_hashes_are_exact(self, steps, reduced, scale):
        m = path_matrix(steps, reduced)
        polys = [m.a, m.b, m.c, m.d] + [
            path_reading(steps, closed, reduced, scale)
            for closed in (False, True)]
        for p in polys:
            for mono, _ in p.coefficients():
                assert_hash_is_exact(mono)

    def test_labels_cover_both_signs(self):
        signs = [hash(v) < 0 for v in signed_hash_labels()[:3]]
        assert signs == [True, True, False]


class TestWorkCounts:
    @pytest.mark.parametrize("tri,curve", [
        (fan_triangulation(40), fan_chord(40, 3, 34)),
        (ring_triangulation(3), Curve(
            "loop", crossings=[str(j) for j in range(1, 7)],
            basepoint_triangle=5)),
    ])
    def test_m_path_reading_multiplies_no_more_than_the_graph_route(
            self, monkeypatch, tri, curve):
        # both readings multiply the same steps; the graph route also
        # multiplies by the crossing monomial. Every monomial either
        # reading builds, a product or a decoded term, goes through
        # Mono._hashed; a loop's M-path reading makes no Mono.mul at all
        calls = []
        hashed = Mono._hashed.__func__

        def counting(cls, d, h):
            calls.append(1)
            return hashed(cls, d, h)

        monkeypatch.setattr(Mono, "_hashed", classmethod(counting))
        chi_hat(path_for_curve(tri, curve))
        by_path = len(calls)
        del calls[:]
        graph_for(tri, curve).enumerator_by_matrices()
        assert 0 < by_path <= len(calls)


def arc_paths():
    out = []
    for make, curve in CASES:
        if curve.kind == "arc":
            out.append(path_for_curve(make(), curve))
    return out


class TestAdjustments:
    def test_reroute_fixes_readings(self):
        for path in arc_paths():
            base_hat, base_bar = chi_hat(path), chi_bar(path)
            for i, s in enumerate(path.steps):
                if s.kind != 1:
                    continue
                alt = MPath(reroute_shear(path.steps, i), path.closed)
                assert chi_hat(alt) == base_hat
                assert chi_bar(alt) == base_bar

    def test_backtrack_and_swap_fix_readings(self):
        for path in arc_paths():
            base_hat, base_bar = chi_hat(path), chi_bar(path)
            for i, s in enumerate(path.steps):
                if s.kind != 2:
                    continue
                padded = insert_backtrack(path.steps, i + 1, s.tau)
                swapped = swap_twist_pivot(padded, i)
                for steps in (padded, swapped):
                    alt = MPath(steps, path.closed)
                    assert chi_hat(alt) == base_hat
                    assert chi_bar(alt) == base_bar

    def test_prepend_fixes_open_reading(self):
        for path in arc_paths():
            alt = MPath(prepend_shear(path.steps, ("x", "u"), ("x", "v"),
                                      ("x", "w")), closed=False)
            assert chi_hat(alt) == chi_hat(path)

    def test_rotation_fixes_trace(self):
        tri = annulus()
        path = path_for_curve(tri, Curve(
            "loop", crossings=["1", "2", "3", "4"], basepoint_triangle=3))
        for k in range(1, len(path.steps)):
            alt = MPath(rotate_loop(path.steps, k), closed=True)
            assert chi_hat(alt) == chi_hat(path)
            assert chi_bar(alt) == chi_bar(path)

    def test_swap_rejects_other_pairs(self):
        steps = [twist(("x", "a"), CW), twist(("x", "a"), CCW)]
        with pytest.raises(Exception):
            swap_twist_pivot(steps, 0)


class TestTextForm:
    def test_round_trip(self):
        tri = folded_disk()
        path = path_for_curve(tri, Curve(
            "arc", crossings=["l", "r"], start_triangle=0, end_triangle=1))
        text = format_steps(path.steps)
        assert parse_steps(text) == path.steps
        assert text.splitlines()[0] == "3 + b:a"

    def test_parse_rejects_garbage(self):
        for bad in ["4 cw x:a", "1 cw x:a x:b", "2 up x:a", "3 ? x:a",
                    "1 cw x:a x:b q:c"]:
            with pytest.raises(StepFormatError):
                parse_steps(bad)

    def test_constructor_checks(self):
        with pytest.raises(StepFormatError):
            shear(("x", "a"), ("x", "b"), ("x", "c"), "up")
        with pytest.raises(StepFormatError):
            twist(("x", "a"), "down")
        with pytest.raises(StepFormatError):
            pivot(("x", "a"), 0)

    @pytest.mark.parametrize("make", [
        lambda mode: shear(("x", "a"), ("x", "b"), ("x", "c"), mode),
        lambda mode: twist(("x", "a"), mode),
        lambda mode: pivot(("x", "a"), mode)])
    def test_modes_are_signs(self, make):
        # a bool equals 1 or 0 but is no sign, nor is the old text word
        for mode in (True, False, "cw", 1.0):
            with pytest.raises(StepFormatError):
                make(mode)
        assert make(CW).mode == 1 and make(CCW).mode == -1
