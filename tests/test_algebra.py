"""Laurent arithmetic tests.

The expected strings and monomial values in this file were frozen by hand
before the implementation existed, so they act as an independent check on
the canonical form rather than a snapshot of it.
"""

import functools

import pytest
from hypothesis import example, given, settings, strategies as st

from snakegraphs.algebra import (
    KINDS,
    AlgebraError,
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

from oracles import (
    format_by_items,
    graded_cmp,
    power2,
    terms_by_items,
    tropical_eval_per_variable,
    variable_key,
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


class TestStrictConstructors:
    """The validating constructors refuse what would fail or print wrong
    later: a variable pairs a known kind with a label the canonical text
    reads back, and every exponent and coefficient is an int."""

    @pytest.mark.parametrize("v", [
        "x1",                  # not a pair; used to fail in format_mono
        ("x", "a", "b"),       # a triple; used to fail in format_mono
        ("x", 1),              # int label; failed when sorted beside "1"
        ("x",),
        ["x", "a"],
        (1, "a"),
        ("q", "a"),
    ])
    def test_mono_refuses_bad_variables(self, v):
        with pytest.raises(AlgebraError):
            Mono([(v, 2)])

    @pytest.mark.parametrize("label", [
        "", " ", "a*b", "a^2", "a + b", "a\tb", " a", "a\n", "a\u2028b"])
    def test_mono_refuses_labels_the_text_cannot_read_back(self, label):
        with pytest.raises(AlgebraError):
            Mono([(("x", label), 2)])

    @pytest.mark.parametrize("label", ["a:b", "0-2", "r(p)", "-1", "a+b"])
    def test_accepted_labels_read_back(self, label):
        p = Poly.of_var("x", label) * Poly.of_var("b", label, exp2=-3) - 2
        assert parse_poly(format_poly(p)) == p

    @pytest.mark.parametrize("e", [1.5, 2.0, True, "2", None])
    def test_mono_refuses_non_int_exponents(self, e):
        # 1.5 used to print as x:a^(1/2)
        with pytest.raises(AlgebraError):
            Mono({("x", "a"): e})

    @pytest.mark.parametrize("c", [1.5, 1.0, True, "1", None])
    def test_poly_refuses_non_int_coefficients(self, c):
        # 1.5 used to give a polynomial equal to 1
        with pytest.raises(AlgebraError):
            Poly({Mono(): c})

    def test_accepts_int_zero_and_negative(self):
        m = Mono({("x", "a"): 0, ("b", "c"): -3})
        assert m == Mono({("b", "c"): -3})
        p = Poly({Mono(): 0, m: -2})
        assert p == Poly.const(-2) * Poly.from_mono(m)


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

    def test_parse_does_linear_work(self, monkeypatch):
        # The numerator of the 18-tile snake with the most matchings has
        # 6765 terms. Parsing it adds no polynomials and checks one
        # monomial per term; summing term by term was quadratic.
        from snakegraphs.snakecore import SnakeGraph
        g = SnakeGraph([("x", "i%d" % j) for j in range(18)],
                       ("NEEN" * 5)[:17],
                       [("x", "g%d" % j) for j in range(17)],
                       ("b", "a"), ("b", "b"), ("b", "w"), ("b", "z"))
        num = g.enumerator_by_matrices()
        text = format_poly(num)
        calls = []

        def counted(name, original):
            def counting(*args):
                calls.append(name)
                return original(*args)
            return counting

        for owner, name in ((Poly, "__add__"), (Mono, "__init__"),
                            (Mono, "mul")):
            monkeypatch.setattr(owner, name,
                                counted(name, getattr(owner, name)))
        assert parse_poly(text) == num
        assert calls == ["__init__"] * 6765

    @settings(max_examples=300)
    @given(wide_polys, st.integers(-3, 3))
    def test_text_and_order_are_the_item_sort_oracle(self, p, c):
        # a constant term c, and |c| > 1 or a negative leading term when
        # the draw gives one
        q = p + Poly.const(c)
        for r in (p, q, -q):
            assert r.terms() == terms_by_items(r)
            assert format_poly(r) == format_by_items(r)

    def test_item_sort_oracle_at_the_edges(self):
        y, x, b = var("y", "1"), var("x", "10"), var("b", "0-2")
        p = Poly({Mono({x: -3, y: 1}): -2, Mono({b: 4}): 3, Mono(): -5,
                  Mono({y: 2, x: -2}): 1})
        text = "3*b:0-2^2 - 5 + x:10^-1*y:1 - 2*x:10^(-3/2)*y:1^(1/2)"
        assert format_poly(p) == format_by_items(p) == text
        assert format_poly(-p) == format_by_items(-p)
        assert p.terms() == terms_by_items(p)
        assert format_poly(Poly.const(-4)) == format_by_items(
            Poly.const(-4)) == "-4"

    @settings(max_examples=300)
    @given(wide_monos)
    @example(Mono())
    @example(Mono({("x", "10"): -3, ("y", "1"): 1, ("Y", "a"): 2,
                   ("b", "0-2"): -4}))
    def test_mono_text_is_the_item_sort_oracle(self, m):
        assert format_mono(m) == format_by_items(Poly.from_mono(m))

    def test_parse_sums_repeated_terms(self):
        assert parse_poly("x:t1*x:t1 + 2*x:t1^2 - y:t1 + y:t1") \
            == Poly.from_mono(Mono.of("x", "t1", 4), 3)

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

    @settings(max_examples=200)
    @given(wide_polys.filter(lambda p: not p.is_zero()), st.integers(1, 4),
           st.lists(st.sampled_from(WIDE_VARS), max_size=6))
    def test_one_pass_is_the_per_variable_minimum(self, p, k, chosen):
        every, some, none = var("y", "every"), var("y", "some"), \
            var("y", "none")
        # ``every`` is in every term with a positive minimum, ``some``
        # only in the added term, with a positive exponent, and ``none``
        # in no term
        q = (p * Poly.from_mono(Mono({every: k}))
             + Poly.from_mono(Mono({every: k + 2, some: 3})))
        for vs in (None, [every, some, none] + chosen):
            assert q.tropical_eval(vs) == tropical_eval_per_variable(q, vs)
        assert q.tropical_eval([every, some, none]) == Mono({every: k})


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
            key=lambda it: variable_key(it[0]))

    @settings(max_examples=300)
    @given(wide_dicts, wide_dicts)
    def test_mul_is_the_summed_dict(self, da, db):
        summed = dict(da)
        for v, e in db.items():
            summed[v] = summed.get(v, 0) + e
        self._same(Mono(da).mul(Mono(db)), summed)

    @settings(max_examples=300)
    @given(wide_dicts, wide_dicts, st.randoms())
    def test_hash_is_the_sum_over_items_by_every_route(self, da, db, rnd):
        # exponent * hash(variable) summed over the items, mod 2**63
        summed = dict(da)
        for v, e in db.items():
            summed[v] = summed.get(v, 0) + e
        items = [(v, e) for v, e in summed.items() if e]
        want = sum(e * hash(v) for v, e in items) % 2 ** 63
        rnd.shuffle(items)
        shuffled = dict(items)
        with_zeros = {**summed, ("b", "unused"): 0}
        built = [
            Mono(summed),
            Mono(shuffled),
            Mono(da).mul(Mono(db)),
            Mono(db).mul(Mono(da)),
            Mono({v: -e for v, e in summed.items()}).inverse(),
            Mono._trusted(with_zeros),
        ]
        (parsed, _), = parse_poly(format_mono(built[0])).terms()
        built.append(parsed)
        for m in built:
            assert m == built[0]
            assert m.__hash__() == want
            assert hash(m) == hash(built[0])
        tagged = {("Y", v[1]): e for v, e in summed.items()}
        untagged = {v: e for v, e in summed.items() if v[0] != "Y"}
        joined = Mono(untagged)._mul_disjoint(Mono(tagged))
        assert joined == Mono(untagged).mul(Mono(tagged))
        assert hash(joined) == hash(Mono(untagged).mul(Mono(tagged)))

    def test_hash_separates_degree_moved_between_variables(self):
        # a hash summed from per-item tuple hashes gave these 7 values
        monos = [Mono({("x", "a"): a, ("x", "b"): 20 - a})
                 for a in range(-50, 50)]
        assert len({hash(m) for m in monos}) == len(monos)

    @given(wide_monos)
    def test_mul_cancels_to_the_unit(self, m):
        self._same(m.mul(m.inverse()), {})
        assert m.mul(m.inverse()).is_unit()

    @given(wide_dicts, st.integers(-3, 3))
    def test_inverse_and_even_powers(self, d, k):
        m = Mono(d)
        self._same(m.inverse(), {v: -e for v, e in d.items()})
        self._same(power2(m, 2 * k), {v: e * k for v, e in d.items()})

    @settings(max_examples=300)
    @given(wide_polys)
    def test_terms_follow_the_reference_order(self, p):
        monos = [m for m, _ in p.terms()]
        assert monos == sorted(monos,
                               key=functools.cmp_to_key(graded_cmp))
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

    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.sampled_from("NE"), max_size=11), st.booleans())
    def test_snakecore_terms_are_the_validated_ones(self, shapes, reduced):
        # snakecore builds weights, heights, matching sums and step
        # matrices from labels checked once, at construction
        from snakegraphs.snakecore import BandGraph, SnakeGraph, step_matrix
        d = len(shapes) + 1
        diagonals = [("x", str(j % 5)) for j in range(d)]
        glues = [("b", "g%d" % (j % 3)) for j in range(d - 1)]
        g = SnakeGraph(diagonals, shapes, glues, ("b", "a"), ("x", "1"),
                       ("b", "w"), ("b", "a"))
        graphs = [g]
        if d >= 2:
            graphs.append(BandGraph(diagonals, shapes, glues, ("b", "c")))
        for _, w, h in g.weighted_matchings():
            for m in (w, h):
                ref = Mono(dict(m.items()))
                assert m == ref
                assert hash(m) == hash(ref)
        for graph in graphs:
            p = graph.enumerator_by_matchings()
            assert p == _validated(p)
            assert hash(p) == hash(_validated(p))
            for step in graph.steps():
                mat = step_matrix(step, reduced)
                for p in (mat.a, mat.b, mat.c, mat.d):
                    assert p == _validated(p)
                    assert hash(p) == hash(_validated(p))


def _validated(p):
    """``p`` rebuilt term by term through the validating constructors."""
    return Poly({Mono(dict(m.items())): c for m, c in p.terms()})


class TestOrderAtTheEdge:
    """Monomials and polynomials keep their terms in dicts; the variable
    order is computed only when something reads items(), terms() or the
    text form."""

    @given(wide_dicts, st.randoms())
    def test_insertion_order_does_not_matter(self, d, rnd):
        items = list(d.items())
        rnd.shuffle(items)
        m, permuted = Mono(d), Mono(dict(items))
        assert m == permuted
        assert hash(m) == hash(permuted)
        assert m.items() == permuted.items()

    @given(wide_dicts, wide_dicts)
    def test_cancelled_exponents_are_not_stored(self, da, db):
        a = Mono(da)
        partial = a.mul(Mono(db))
        assert all(partial._exps.values())
        assert all(e for _, e in partial.items())
        unit = a.mul(a.inverse())
        assert unit._exps == {}
        assert unit == Mono.unit()
        assert hash(unit) == hash(Mono.unit())

    @given(wide_polys)
    def test_difference_with_itself_is_zero(self, p):
        z = p - p
        assert z == Poly.zero()
        assert hash(z) == hash(Poly.zero())
        assert z.terms() == []

    @given(st.lists(wide_polys, min_size=8, max_size=8))
    def test_mat2_product_is_the_entrywise_formula(self, entries):
        a, b, c, d, e, f, g, h = entries
        prod = Mat2(a, b, c, d) * Mat2(e, f, g, h)
        expected = (a * e + b * g, a * f + b * h, c * e + d * g,
                    c * f + d * h)
        for got, want in zip((prod.a, prod.b, prod.c, prod.d), expected):
            assert got == want
            assert got == _validated(got)
            assert hash(got) == hash(_validated(got))
            assert 0 not in [coeff for _, coeff in got.terms()]

    def test_neither_route_sorts_a_product(self, monkeypatch):
        # The 14-tile snake with the most matchings (987). Only the
        # matching order reads a monomial's items: one sort per height.
        # Every product used to sort its variables.
        from snakegraphs import algebra
        from snakegraphs.snakecore import SnakeGraph
        g = SnakeGraph([("x", "i%d" % j) for j in range(14)],
                       ("NEEN" * 4)[:13],
                       [("x", "g%d" % j) for j in range(13)],
                       ("b", "a"), ("b", "b"), ("b", "w"), ("b", "z"))
        sorts = []

        def counting_sorted(iterable, **kwargs):
            sorts.append(1)
            return sorted(iterable, **kwargs)

        monkeypatch.setattr(algebra, "sorted", counting_sorted,
                            raising=False)
        by_matrices = g.enumerator_by_matrices()
        assert sorts == []
        by_matchings = g.enumerator_by_matchings()
        assert by_matchings == by_matrices
        assert len(sorts) <= 987
