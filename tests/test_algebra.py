"""Laurent arithmetic tests.

The expected strings and monomial values in this file were frozen by hand
before the implementation existed, so they act as an independent check on
the canonical form rather than a snapshot of it.
"""

import functools

import pytest
from hypothesis import given, settings, strategies as st

from snakegraphs.algebra import (
    KINDS,
    Mat2,
    Mono,
    NotUnimodular,
    Poly,
    PolyParseError,
    SubstituteNonMonomial,
    ZeroPolynomial,
    format_mono,
    format_poly,
    parse_poly,
    var,
)

VARS = [("x", "t1"), ("x", "t2"), ("y", "t1"), ("Y", "t2"), ("b", "b1")]


def mono_strategy():
    return st.dictionaries(
        st.sampled_from(VARS), st.integers(-4, 4), max_size=3
    ).map(Mono)


def poly_strategy():
    return st.dictionaries(
        mono_strategy(), st.integers(-5, 5), max_size=4
    ).map(Poly)


polys = poly_strategy()

# Every kind, labels whose string order differs from their numeric order,
# and negative and odd (half-integer) doubled exponents.
WIDE_VARS = [(k, lbl) for k in KINDS for lbl in ("1", "10", "2", "a", "0-2")]
wide_dicts = st.dictionaries(st.sampled_from(WIDE_VARS), st.integers(-5, 5),
                             max_size=6)
wide_monos = wide_dicts.map(Mono)
wide_polys = st.dictionaries(wide_monos, st.integers(-3, 3),
                             max_size=8).map(Poly)


def _reference_var_key(v):
    return (KINDS.index(v[0]), v[1])


def _reference_cmp(a, b):
    """Graded lexicographic comparison; the greater monomial sorts first."""
    da, db = a.degree2(), b.degree2()
    if da != db:
        return -1 if da > db else 1
    ia, ib = a.items(), b.items()
    i = j = 0
    while i < len(ia) or j < len(ib):
        va = _reference_var_key(ia[i][0]) if i < len(ia) else None
        vb = _reference_var_key(ib[j][0]) if j < len(ib) else None
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


def _reference_substitute(p, mapping):
    """Substitution factor by factor, with exponents summed in a plain dict
    and every monomial built by the validating constructor."""
    out = {}
    for m, c in p.terms():
        d = {}
        for v, e in m.items():
            for w, f in (mapping[v].items() if v in mapping else ((v, 2),)):
                if (e * f) % 2:
                    raise SubstituteNonMonomial("not a Laurent monomial")
                d[w] = d.get(w, 0) + e * f // 2
        key = Mono(d)
        out[key] = out.get(key, 0) + c
    return Poly(out)


class TestRingAxioms:
    @settings(max_examples=200)
    @given(polys, polys, polys)
    def test_add_associative_commutative(self, p, q, r):
        assert (p + q) + r == p + (q + r)
        assert p + q == q + p

    @settings(max_examples=200)
    @given(polys, polys, polys)
    def test_mul_associative_commutative(self, p, q, r):
        assert (p * q) * r == p * (q * r)
        assert p * q == q * p

    @settings(max_examples=200)
    @given(polys, polys, polys)
    def test_distributive(self, p, q, r):
        assert p * (q + r) == p * q + p * r

    @given(polys)
    def test_identities(self, p):
        assert p + Poly.zero() == p
        assert p * Poly.one() == p
        assert p - p == Poly.zero()
        assert p * Poly.zero() == Poly.zero()


class TestCanonicalText:
    def test_simple_rendering(self):
        p = Poly.of_var("x", "t1") + Poly.of_var("y", "t1")
        assert format_poly(p) == "x:t1 + y:t1"

    def test_kind_order_in_ties(self):
        # same degree: x before y before Y before b
        p = (Poly.of_var("b", "b1") + Poly.of_var("Y", "t2")
             + Poly.of_var("x", "t1") + Poly.of_var("y", "t1"))
        assert format_poly(p) == "x:t1 + y:t1 + Y:t2 + b:b1"

    def test_graded_order(self):
        x = Poly.of_var("x", "t1")
        p = x * x + x + Poly.const(7)
        assert format_poly(p) == "x:t1^2 + x:t1 + 7"

    def test_negative_and_coefficients(self):
        x = Poly.of_var("x", "t1")
        y = Poly.of_var("y", "t1")
        p = Poly.const(-3) * x + y * 2
        assert format_poly(p) == "-3*x:t1 + 2*y:t1"
        assert format_poly(-p) == "3*x:t1 - 2*y:t1"

    def test_half_and_negative_powers(self):
        m = Mono({var("x", "t1"): 1, var("Y", "t2"): -3, var("x", "t2"): -2})
        assert format_mono(m) == "x:t1^(1/2)*x:t2^-1*Y:t2^(-3/2)"

    def test_zero(self):
        assert format_poly(Poly.zero()) == "0"
        assert parse_poly("0") == Poly.zero()

    def test_labels_with_dashes(self):
        p = Poly.of_var("x", "0-2") - Poly.of_var("x", "1-3")
        assert format_poly(p) == "x:0-2 - x:1-3"
        assert parse_poly(format_poly(p)) == p

    @settings(max_examples=300)
    @given(polys)
    def test_round_trip(self, p):
        assert parse_poly(format_poly(p)) == p

    def test_parse_rejects_garbage(self):
        for bad in ["", "x", "x:t1^", "q:t1", "x:t1^^2", "x:"]:
            with pytest.raises(PolyParseError):
                parse_poly(bad)


class TestSubstitute:
    def test_monomial_value(self):
        p = Poly.of_var("x", "t1") + Poly.one()
        v = Mono({var("x", "a"): 2, var("x", "b"): 2})
        q = p.substitute({var("x", "t1"): v})
        assert q == Poly.from_mono(v) + Poly.one()

    def test_value_one_kills_variable(self):
        p = Poly.of_var("b", "b1") * Poly.of_var("x", "t1")
        q = p.substitute({var("b", "b1"): 1})
        assert q == Poly.of_var("x", "t1")

    def test_half_power_of_square(self):
        p = Poly.of_var("Y", "t1", exp2=1)
        q = p.substitute({var("Y", "t1"): Mono.of("y", "u")})
        assert q == Poly.of_var("y", "u", exp2=1)

    def test_rejects_sum(self):
        p = Poly.of_var("x", "t1")
        with pytest.raises(SubstituteNonMonomial):
            p.substitute({var("x", "t1"): Poly.one() + Poly.of_var("x", "a")})

    def test_rejects_fractional_result(self):
        p = Poly.of_var("x", "t1", exp2=1)
        with pytest.raises(SubstituteNonMonomial):
            p.substitute({var("x", "t1"): Mono.of("x", "a", exp2=1)})

    def test_merging_after_substitution(self):
        x1, x2 = Poly.of_var("x", "t1"), Poly.of_var("x", "t2")
        p = x1 + x2
        q = p.substitute({var("x", "t2"): Mono.of("x", "t1")})
        assert q == Poly.const(2) * x1


class TestTropical:
    def test_min_exponents(self):
        y1, y2 = var("y", "t1"), var("y", "t2")
        p = (Poly.one() + Poly.from_mono(Mono({y1: 2, y2: -2}))
             + Poly.from_mono(Mono({y2: 4})))
        t = p.tropical_eval([y1, y2])
        assert t == Mono({y2: -2})

    def test_constant_term_gives_unit(self):
        p = Poly.one() + Poly.of_var("y", "t1")
        assert p.tropical_eval() == Mono.unit()

    def test_zero_raises(self):
        with pytest.raises(ZeroPolynomial):
            Poly.zero().tropical_eval()

    def test_restricted_variables(self):
        p = Poly.of_var("x", "t1") * Poly.of_var("y", "t1")
        t = p.tropical_eval([var("y", "t1")])
        assert t == Mono.of("y", "t1")


class TestMat2:
    def x(self, lbl):
        return Poly.of_var("x", lbl)

    def test_mul_and_identity(self):
        m = Mat2(self.x("a"), self.x("b"), self.x("c"), self.x("d"))
        assert Mat2.identity() * m == m
        assert m * Mat2.identity() == m

    def test_det_trace_ur(self):
        m = Mat2(self.x("a"), self.x("b"), self.x("c"), self.x("d"))
        assert m.det() == self.x("a") * self.x("d") - self.x("b") * self.x("c")
        assert m.trace() == self.x("a") + self.x("d")
        assert m.upper_right() == self.x("b")

    def test_inverse_unimodular(self):
        # a lower triangular unipotent and a rotation-like factor both have
        # determinant 1 in the Laurent ring
        s = Poly.of_var("x", "s").div_mono(
            Mono({var("x", "t"): 2, var("x", "u"): 2}))
        low = Mat2(1, 0, s, 1)
        rot = Mat2(0, self.x("t"),
                   Poly.zero() - Poly.of_var("x", "t", exp2=-2), 0)
        for m in (low, rot, low * rot, rot * low * rot):
            inv = m.inverse_unimodular()
            assert m * inv == Mat2.identity()
            assert inv * m == Mat2.identity()

    def test_inverse_rejects_other_determinants(self):
        with pytest.raises(NotUnimodular):
            Mat2(self.x("a"), 0, 0, self.x("a")).inverse_unimodular()
        with pytest.raises(NotUnimodular):
            Mat2(0, 1, 1, 0).inverse_unimodular()  # det -1


class TestTrustedConstruction:
    """Monomials built from other monomials skip validation; each such path
    must give exactly what the validating constructor gives."""

    @staticmethod
    def _same(m, d):
        ref = Mono(d)
        assert m == ref
        assert m.items() == ref.items()
        assert hash(m) == hash(ref)
        assert list(m.items()) == sorted(
            [(v, e) for v, e in d.items() if e],
            key=lambda it: _reference_var_key(it[0]))

    @settings(max_examples=300)
    @given(wide_dicts, wide_dicts)
    def test_mul_is_the_summed_dict(self, da, db):
        summed = dict(da)
        for v, e in db.items():
            summed[v] = summed.get(v, 0) + e
        self._same(Mono(da).mul(Mono(db)), summed)

    @given(wide_monos)
    def test_mul_cancels_to_the_unit(self, m):
        self._same(m.mul(m.inverse()), {})
        assert m.mul(m.inverse()).is_unit()

    @given(wide_dicts, st.integers(-3, 3))
    def test_inverse_and_even_powers(self, d, k):
        m = Mono(d)
        self._same(m.inverse(), {v: -e for v, e in d.items()})
        self._same(m.power2(2 * k), {v: e * k for v, e in d.items()})

    @settings(max_examples=300)
    @given(wide_polys)
    def test_terms_follow_the_reference_order(self, p):
        monos = [m for m, _ in p.terms()]
        assert monos == sorted(monos,
                               key=functools.cmp_to_key(_reference_cmp))
        assert len(monos) == len(set(monos))

    @settings(max_examples=300)
    @given(wide_polys, st.dictionaries(st.sampled_from(WIDE_VARS),
                                       st.one_of(wide_monos, st.just(1)),
                                       max_size=5))
    def test_substitute_is_the_per_factor_product(self, p, mapping):
        ref_map = {v: Mono() if val == 1 else val
                   for v, val in mapping.items()}
        try:
            expected = _reference_substitute(p, ref_map)
        except SubstituteNonMonomial:
            with pytest.raises(SubstituteNonMonomial):
                p.substitute(mapping)
            return
        assert p.substitute(mapping) == expected

    def test_substitute_builds_one_monomial_per_term(self, monkeypatch):
        # One term in 400 variables: a product per factor would build
        # hundreds of monomials, one pass builds the result term alone.
        n = 400
        term = Mono({("x", "v%d" % i): 2 for i in range(n)})
        p = Poly.from_mono(term, 3)
        mapping = {}
        for i in range(0, n, 4):
            mapping[("x", "v%d" % i)] = Mono.of("y", "u%d" % i)
            mapping[("x", "v%d" % (i + 1))] = 1
            mapping[("x", "v%d" % (i + 2))] = Poly.of_var("b", "w%d" % i, -2)
        created = []
        validating, trusted = Mono.__init__, Mono._trusted.__func__

        def counting_init(self, *args):
            created.append("validated")
            validating(self, *args)

        def counting_trusted(cls, d):
            created.append("trusted")
            return trusted(cls, d)

        monkeypatch.setattr(Mono, "__init__", counting_init)
        monkeypatch.setattr(Mono, "_trusted", classmethod(counting_trusted))
        q = p.substitute(mapping)
        monkeypatch.undo()
        assert len(created) <= 2
        (m, c), = q.terms()
        assert c == 3
        assert len(m.items()) == n - n // 4
