"""Smoothing identity tests.

The polygon instances were found by generating the six chords of a
crossing pair on fan-triangulated polygons and letting the verifier
match each declared composite against its curve; the expected
coefficients below were frozen from the first verified runs.
"""

import pytest

from snakegraphs.algebra import Mono, Poly
from snakegraphs import skein
from snakegraphs.mpath import (
    CCW,
    CW,
    chi_bar,
    path_for_curve,
    path_matrix,
    pivot,
    twist,
)
from snakegraphs.selftest import (
    fan_chord,
    fan_skein_catalog,
    fan_skein_instance,
    fan_triangulation,
    kink_instance,
    ring_loop_instance,
    ring_triangulation,
)
from snakegraphs.skein import (
    ARC_ARC,
    SELF_INTERSECTION,
    WITH_LOOP,
    IsotopyMismatch,
    LoosenedMPath,
    NotComposable,
    SelfFoldedUnsupported,
    SkeinError,
    SkeinInstance,
    check_matrix_identities,
    instance_from_dict,
    kink_circuit,
    monomial_quotient,
    ptolemy_check,
    verify_skein,
)
from snakegraphs.surface import Curve

from oracles import (
    PuncturedSurface,
    crossing_count,
    lamination_intersection_unpunctured,
    signed_intersection,
)
from test_surface import folded_disk


class TestMatrixIdentities:
    def test_trials_pass(self):
        assert check_matrix_identities(25, seed=3) == 25

    def test_needs_a_trial(self):
        with pytest.raises(SkeinError):
            check_matrix_identities(0)


def bridge_path():
    tri = ring_triangulation(2)
    return tri, path_for_curve(
        tri, Curve("arc", ["1"], start_triangle=3, end_triangle=0))


class TestLoosenedPaths:
    def test_rejects_pivots_in_walks(self):
        _, core = bridge_path()
        with pytest.raises(NotComposable):
            LoosenedMPath([pivot(("x", "1"), 1)], core, [])

    def test_signed_excess(self):
        _, core = bridge_path()
        t = ("x", "2")
        loose = LoosenedMPath(
            [twist(t, CCW)], core, [twist(t, CW), twist(t, CCW)])
        assert loose.signed_excess("2") == 1 + 1 - 1
        assert loose.signed_excess("3") == 0
        assert LoosenedMPath([], core, []).signed_excess("2") == 0

    def test_closed_core_has_no_excess(self):
        tri = ring_triangulation(2)
        core = path_for_curve(tri, Curve(
            "loop", ["1", "2", "3", "4"], basepoint_triangle=3))
        loose = LoosenedMPath([twist(("x", "2"), CCW)], core, [])
        assert loose.signed_excess("2") == 0

    def test_signed_intersection_adds_crossings(self):
        tri, core = bridge_path()
        loose = LoosenedMPath([twist(("x", "1"), CCW)], core, [])
        curve = Curve("arc", ["1"], start_triangle=3, end_triangle=0)
        assert crossing_count(curve, "1") == 1
        assert signed_intersection(loose, curve, "1") == 2
        assert lamination_intersection_unpunctured(
            tri, loose, curve, "1") == 2

    def test_lamination_variant_needs_unpunctured(self):
        tri = folded_disk()
        _, core = bridge_path()
        with pytest.raises(PuncturedSurface):
            lamination_intersection_unpunctured(
                tri, LoosenedMPath([], core, []),
                Curve("arc", ["1"], 3, 0), "1")


class TestQuotients:
    def test_monomial_quotient(self):
        a = Poly.of_var("x", "u") + Poly.of_var("x", "v")
        m = Mono({("x", "w"): 2})
        assert monomial_quotient(a * Poly.from_mono(m), a) == m
        assert monomial_quotient(a, Poly.of_var("x", "u")) is None
        assert monomial_quotient(a + Poly.one(), a) is None

    def test_kink_circuit_is_minus_identity(self):
        steps = kink_circuit(("x", "u"), ("x", "v"), ("x", "w"))
        m = path_matrix(steps, reduced=True)
        assert m.a == Poly.const(-1) and m.d == Poly.const(-1)
        assert m.b.is_zero() and m.c.is_zero()


class TestArcArc:
    def test_octagon_instance(self):
        tri, inst = fan_skein_instance(8, 1, 3, 5, 7)
        report = verify_skein(tri, inst)
        assert report.signs == (1, 1)
        assert report.lamination_agrees is True
        assert report.coeffs[0] == Mono.unit()
        assert report.coeffs[1] == Mono(
            {("y", "0-3"): 2, ("y", "0-4"): 2})
        text = report.as_text()
        assert "signs positive: yes" in text
        assert "lamination agreement: yes" in text

    def test_catalog_instances(self):
        for args in fan_skein_catalog(6):
            tri, inst = fan_skein_instance(*args)
            report = verify_skein(tri, inst)
            assert report.positive
            assert report.lamination_agrees is True

    def test_walk_counts_cross_checked(self):
        tri, inst = fan_skein_instance(8, 1, 3, 5, 7)
        inst.sigma1 = inst.sigma1 + [twist(("x", "0-2"), CW)]
        with pytest.raises(IsotopyMismatch):
            verify_skein(tri, inst)

    def test_wrong_curve_is_rejected(self):
        tri, inst = fan_skein_instance(8, 1, 3, 5, 7)
        inst.curves["alpha1"] = fan_chord(8, 2, 6)
        with pytest.raises(IsotopyMismatch):
            verify_skein(tri, inst)

    def test_self_folded_is_rejected(self):
        tri = folded_disk()
        inst = SkeinInstance(ARC_ARC, {})
        with pytest.raises(SelfFoldedUnsupported):
            verify_skein(tri, inst)

    def test_missing_role(self):
        tri = fan_triangulation(8)
        with pytest.raises(SkeinError):
            verify_skein(tri, SkeinInstance(ARC_ARC, {}))

    def test_bad_lamination_counts_flagged(self):
        tri, inst = fan_skein_instance(8, 1, 3, 5, 7)
        inst.lamination_counts["gamma1"]["0-3"] += 2
        report = verify_skein(tri, inst)
        assert report.lamination_agrees is False


class TestWithLoop:
    def test_ring_instance(self):
        tri, inst = ring_loop_instance()
        report = verify_skein(tri, inst)
        assert report.signs == (1, 1)
        assert report.coeffs[0] == Mono.unit()
        assert report.coeffs[1] == Mono({("y", "1"): 2})

    def test_every_seam_slot(self):
        for slot in range(1, 5):
            tri, inst = ring_loop_instance(slot)
            assert verify_skein(tri, inst).positive

    def test_swapped_resolutions_fail(self):
        tri, inst = ring_loop_instance()
        inst.curves["alpha"], inst.curves["beta"] = (
            inst.curves["beta"], inst.curves["alpha"])
        with pytest.raises(IsotopyMismatch):
            verify_skein(tri, inst)

    def test_second_curve_must_be_a_loop(self):
        tri, inst = ring_loop_instance()
        inst.curves["gamma2"] = inst.curves["beta"]
        with pytest.raises(SkeinError):
            verify_skein(tri, inst)


class TestSelfIntersection:
    def test_kink_instance(self):
        for split in (0, 2, 5):
            tri, inst = kink_instance(split)
            report = verify_skein(tri, inst)
            assert report.signs == (1, 1)
            assert report.coeffs == [Mono.unit(), Mono.unit()]

    def test_needs_circuit_steps(self):
        tri, inst = kink_instance()
        inst.insert_steps = []
        with pytest.raises(SkeinError):
            verify_skein(tri, inst)


def _reduced(tri, curve):
    """A curve's reduced reading, computed here without the verifier."""
    if curve.kind == "contractible_loop":
        return Poly.const(-2)
    val = chi_bar(path_for_curve(tri, curve))
    return -val if curve.sign() < 0 else val


class TestSharedCheck:
    """One instance of each variant."""

    MAKERS = [lambda: fan_skein_instance(8, 1, 3, 5, 7), ring_loop_instance,
              kink_instance]
    IDS = ["arc-arc", "with-loop", "self-intersection"]

    @pytest.mark.parametrize("make,most", list(zip(MAKERS, [6, 4, 3])),
                             ids=IDS)
    def test_each_path_is_built_once(self, monkeypatch, make, most):
        tri, inst = make()
        built = []
        real = skein.path_for_curve

        def counting(tri, curve):
            built.append(curve)
            return real(tri, curve)

        monkeypatch.setattr(skein, "path_for_curve", counting)
        verify_skein(tri, inst)
        assert len(built) <= most
        assert len(set(map(id, built))) == len(built)

    @pytest.mark.parametrize("make,roles", list(zip(MAKERS, [
        [("alpha1", "alpha2"), ("beta1", "beta2")],
        [("alpha",), ("beta",)],
        [("alpha1", "alpha2"), ("beta",)],
    ])), ids=IDS)
    def test_products_are_reduced_readings(self, make, roles):
        tri, inst = make()
        report = verify_skein(tri, inst)
        assert len(report.products) == len(roles)
        for product, term_roles in zip(report.products, roles):
            want = Poly.one()
            for role in term_roles:
                want = want * _reduced(tri, inst.curves[role])
            assert product == want


class TestPtolemy:
    def test_square_diagonals(self):
        tri = fan_triangulation(4)
        out = ptolemy_check(tri, "0-2", fan_chord(4, 1, 3))
        coeffs = [c for c, _ in out]
        assert Mono.unit() in coeffs
        assert Mono({("y", "0-2"): 2}) in coeffs

    def test_unknown_arc(self):
        tri = fan_triangulation(4)
        with pytest.raises(SkeinError):
            ptolemy_check(tri, "1-3", fan_chord(4, 1, 3))


class TestInterchange:
    def test_instance_round_trip(self):
        tri, inst = fan_skein_instance(8, 1, 3, 5, 7)
        from snakegraphs.mpath import format_steps
        doc = {
            "variant": ARC_ARC,
            "curves": {role: {"kind": c.kind,
                              "crossings": list(c.crossings),
                              "start_triangle": c.start_triangle,
                              "end_triangle": c.end_triangle}
                       for role, c in inst.curves.items()},
            "sigma1": format_steps(inst.sigma1),
            "sigma2": format_steps(inst.sigma2),
            "lamination_counts": inst.lamination_counts,
        }
        rebuilt = instance_from_dict(doc)
        report = verify_skein(tri, rebuilt)
        assert report.positive and report.lamination_agrees is True

    def test_named_curves_and_unknown_keys(self):
        from snakegraphs.surface import ValidationError
        named = [Curve("arc", ["0-2"], 0, 1, name="diag")]
        inst = instance_from_dict(
            {"variant": WITH_LOOP, "curves": {"gamma1": "diag"}},
            named_curves=named)
        assert inst.curve("gamma1").name == "diag"
        with pytest.raises(ValidationError):
            instance_from_dict({"variant": ARC_ARC, "mystery": 1})
        with pytest.raises(ValidationError):
            instance_from_dict({"variant": ARC_ARC,
                                "curves": {"gamma1": "nope"}})

    @pytest.mark.parametrize("doc,message", [
        ({"variant": "BOGUS", "mystery": 1}, "unknown variant 'BOGUS'"),
        ({"curves": {}}, "unknown variant None"),
    ], ids=["unknown", "missing"])
    def test_variant_is_checked_before_any_key(self, doc, message):
        from snakegraphs.surface import ValidationError
        with pytest.raises(ValidationError) as err:
            instance_from_dict(doc)
        assert str(err.value) == message

    @pytest.mark.parametrize("doc", [
        {"variant": ARC_ARC, "split_index": 1},
        {"variant": WITH_LOOP, "sigma1": ""},
        {"variant": WITH_LOOP, "insert": ""},
        {"variant": SELF_INTERSECTION, "loop_rotation": 0},
        {"variant": SELF_INTERSECTION, "sigma2": ""},
        {"variant": ARC_ARC, "curves": {"alpha": "diag"}},
        {"variant": WITH_LOOP, "curves": {"alpha1": "diag"}},
        {"variant": SELF_INTERSECTION, "lamination_counts": {"gamma1": {}}},
    ])
    def test_variant_refuses_what_it_never_reads(self, doc):
        from snakegraphs.surface import ValidationError
        named = [Curve("arc", ["0-2"], 0, 1, name="diag")]
        with pytest.raises(ValidationError) as err:
            instance_from_dict(doc, named_curves=named)
        assert doc["variant"] in str(err.value)

    def test_variant_accepts_its_own_keys(self):
        named = [Curve("arc", ["0-2"], 0, 1, name="diag")]
        inst = instance_from_dict(
            {"variant": SELF_INTERSECTION, "split_index": 1,
             "insert": "2 cw x:0-2", "curves": {"gamma": "diag"},
             "lamination_counts": {"beta": {"0-2": 1}}},
            named_curves=named)
        assert inst.split_index == 1 and len(inst.insert_steps) == 1
        inst = instance_from_dict(
            {"variant": WITH_LOOP, "split_index": 1, "loop_rotation": 2,
             "curves": {"alpha": "diag"}}, named_curves=named)
        assert (inst.split_index, inst.loop_rotation) == (1, 2)

    def test_inline_curve_keeps_its_puncture(self):
        inst = instance_from_dict(
            {"variant": WITH_LOOP,
             "curves": {"alpha": {"kind": "puncture_loop",
                                  "puncture": "p"}}})
        assert inst.curve("alpha").puncture == "p"
