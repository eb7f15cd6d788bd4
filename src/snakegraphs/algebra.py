"""Exact Laurent polynomial arithmetic and 2x2 matrices over it.

Variables are (kind, label) pairs. Four kinds are used throughout the
package:

    "x"  cluster variables attached to arcs,
    "y"  coefficient variables attached to tagged arcs,
    "Y"  per-tile coefficient variables attached to ideal arcs,
    "b"  boundary segment variables.

Exponents are stored doubled, as integers, so that half-integer powers
coming from reduced matrix products remain exact. A stored exponent of 2
prints as power 1, a stored exponent of 1 prints as ^(1/2), and so on.
"""

from __future__ import annotations

import re
from bisect import bisect_left
from itertools import compress
from operator import itemgetter

KINDS = ("x", "y", "Y", "b")
_KIND_ORDER = {k: i for i, k in enumerate(KINDS)}


class SnakeGraphsError(ValueError):
    """Base class of every error the package raises on bad input or a
    failed check."""


class AlgebraError(SnakeGraphsError):
    pass


class SubstituteNonMonomial(AlgebraError):
    """Raised when a substitution value is neither 1 nor a pure monomial."""


class ZeroPolynomial(AlgebraError):
    """Raised when an operation needs a nonzero polynomial."""


class NotUnimodular(AlgebraError):
    """Raised when inverting a matrix whose determinant is not 1."""


class PolyParseError(AlgebraError):
    """Raised on malformed canonical polynomial text."""


def var(kind, label):
    """Build a variable id, checking the kind."""
    if kind not in _KIND_ORDER:
        raise AlgebraError("unknown variable kind %r" % (kind,))
    return (kind, str(label))


def _as_dict(items):
    try:
        return dict(items)
    except (TypeError, ValueError) as exc:
        raise AlgebraError("not a map or a sequence of pairs: %s"
                           % exc) from None


# The variable order sorts by kind, in KINDS order, then by label. KINDS
# is the code-point order of its letters ("Y" < "b" < "x" < "y") rotated
# to start at "x", so a plain sort of the variables, rotated at the first
# variable of kind "x", is in variable order. No Python key function runs
# per variable.
_BEFORE_FIRST_X = ("x",)


def _in_variable_order(variables):
    """Sort variables into variable order."""
    out = sorted(variables)
    i = bisect_left(out, _BEFORE_FIRST_X)
    return out[i:] + out[:i]


def _add_power2(d, m, exp2):
    """Add the doubled exponents of m^(exp2/2) into ``d`` and return it.
    Requires the power to be an exact Laurent monomial."""
    for v, e in m._exps.items():
        num = e * exp2
        if num % 2:
            raise SubstituteNonMonomial(
                "power %s/2 of %s is not an exact Laurent monomial"
                % (exp2, format_mono(m)))
        d[v] = d.get(v, 0) + num // 2
    return d


# A monomial's hash is the sum of exponent * hash(variable) over its
# items, masked to 63 bits so that hash() returns it unreduced: it does
# not depend on the order of the items, and it is linear in the
# exponents, so the hash of a product is the sum of its factors' hashes. The sum of hash((variable, exponent)) would not
# do: the tuple hash is nearly linear in the exponent, with one slope for
# every variable, so monomials that move degree from one variable to
# another collide (x^a * y^(20 - a) for a in range(-50, 50) take fewer
# than ten values).
_HASH_MASK = (1 << 63) - 1


def _hash_of(d):
    h = 0
    for v, e in d.items():
        h += e * hash(v)
    return h & _HASH_MASK


class Mono:
    """A Laurent monomial: a finite map from variables to doubled exponents.

    Instances are immutable and hashable. Zero exponents are never stored.
    The exponents live in a dict in no particular order; ``items`` sorts
    them into variable order on each call, and the text form is read from
    a sort row (``format_mono``).
    """

    __slots__ = ("_exps", "_hash")

    def __init__(self, items=()):
        d = {}
        for v, e in _as_dict(items).items():
            if not (isinstance(v, tuple) and len(v) == 2 and v[0] in KINDS
                    and is_label(v[1])):
                raise AlgebraError("a variable is a (kind, label) pair of a "
                                   "kind in %s; %s, not %r"
                                   % (KINDS, LABEL_RULE, v))
            if type(e) is not int:  # a bool or a float is refused
                raise AlgebraError("an exponent must be an int, not %r"
                                   % (e,))
            if e:
                d[v] = e
        self._exps = d
        self._hash = _hash_of(d)

    @classmethod
    def _trusted(cls, d):
        """Build from a dict whose variables and integer exponents came
        out of other monomials, so nothing is checked again. Zero
        exponents are dropped; the monomial keeps ``d``."""
        if 0 in d.values():
            d = {v: e for v, e in d.items() if e}
        return cls._nonzero(d)

    @classmethod
    def _nonzero(cls, d):
        """``_trusted`` for a dict known to hold no zero exponent."""
        return cls._hashed(d, _hash_of(d))

    @classmethod
    def _hashed(cls, d, h):
        """``_nonzero`` for a dict whose hash is already known, as ``h``
        up to the mask: a sum or difference of other monomials' hashes."""
        m = cls.__new__(cls)
        m._exps = d
        m._hash = h & _HASH_MASK
        return m

    @classmethod
    def unit(cls):
        return cls._nonzero({})

    @classmethod
    def of(cls, kind, label, exp2=2):
        return cls({var(kind, label): exp2})

    def items(self):
        """The (variable, doubled exponent) pairs in variable order."""
        d = self._exps
        return tuple((v, d[v]) for v in _in_variable_order(d))

    def exponents(self):
        """The (variable, doubled exponent) pairs in no particular order."""
        return self._exps.items()

    def exponent2(self, v):
        return self._exps.get(v, 0)

    def variables(self):
        return tuple(_in_variable_order(self._exps))

    def degree2(self):
        return sum(self._exps.values())

    def is_unit(self):
        return not self._exps

    def mul(self, other):
        a, b = self._exps, other._exps
        if not b:
            return self
        if not a:
            return other
        if len(a) < len(b):
            a, b = b, a
        d = a.copy()
        for v, e in b.items():
            e += d.get(v, 0)
            if e:
                d[v] = e
            else:
                del d[v]
        return Mono._hashed(d, self._hash + other._hash)

    def _mul_disjoint(self, other):
        """``mul`` for a monomial in none of this one's variables: the
        union of the two dicts."""
        return Mono._hashed({**self._exps, **other._exps},
                            self._hash + other._hash)

    def inverse(self):
        return Mono._hashed({v: -e for v, e in self._exps.items()},
                            -self._hash)

    def __eq__(self, other):
        return isinstance(other, Mono) and self._exps == other._exps

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return "Mono(%s)" % format_mono(self)


class Poly:
    """A Laurent polynomial: monomials with nonzero integer coefficients.

    The representation is canonical: equal polynomials compare equal and
    render to identical text.
    """

    __slots__ = ("_terms",)

    def __init__(self, terms=()):
        d = {}
        for m, c in _as_dict(terms).items():
            if not isinstance(m, Mono):
                raise AlgebraError("polynomial keys must be Mono instances")
            if type(c) is not int:
                raise AlgebraError("a coefficient must be an int, not %r"
                                   % (c,))
            if c:
                d[m] = c
        self._terms = d

    @classmethod
    def _trusted(cls, d):
        """Build from a dict of Mono keys and integer coefficients that
        came out of other polynomials; only zero coefficients are dropped.
        The polynomial keeps ``d``."""
        if 0 in d.values():
            d = {m: c for m, c in d.items() if c}
        p = cls.__new__(cls)
        p._terms = d
        return p

    @classmethod
    def zero(cls):
        return cls()

    @classmethod
    def const(cls, c):
        return cls({Mono.unit(): c})

    @classmethod
    def one(cls):
        return cls.const(1)

    @classmethod
    def from_mono(cls, m, coeff=1):
        return cls({m: coeff})

    @classmethod
    def of_var(cls, kind, label, exp2=2):
        return cls.from_mono(Mono.of(kind, label, exp2))

    def coefficients(self):
        """The (monomial, coefficient) pairs in no particular order."""
        return self._terms.items()

    def terms(self):
        """Terms in canonical (graded lexicographic) order: higher total
        degree first, ties broken by the exponents read in variable
        order, a higher exponent first."""
        return [(m, c) for _, m, c in self._sort_rows()[1]]

    def _sort_rows(self):
        """The variables in variable order, and a (row, monomial,
        coefficient) triple per term in canonical order. A term's row is
        its dense sort key [-degree, -e_1, ..., -e_n], e_i its doubled
        exponent in variable i, so the rows sort in canonical order; they
        define it, for ``terms`` and ``format_poly`` alike."""
        variables = self.variables()
        rows = _dense_rows(variables, self._terms.items())
        rows.sort(key=itemgetter(0))
        return variables, rows

    def variables(self):
        vs = set()
        for m in self._terms:
            vs.update(m._exps)
        return _in_variable_order(vs)

    def is_zero(self):
        return not self._terms

    def as_mono(self):
        """The single monomial of a one-term polynomial with coefficient 1."""
        if len(self._terms) != 1:
            raise SubstituteNonMonomial(
                "expected a monomial, got %s" % format_poly(self))
        (m, c), = self._terms.items()
        if c != 1:
            raise SubstituteNonMonomial(
                "expected coefficient 1, got %s" % format_poly(self))
        return m

    def __add__(self, other):
        other = _coerce(other)
        d = dict(self._terms)
        for m, c in other._terms.items():
            d[m] = d.get(m, 0) + c
        return Poly._trusted(d)

    __radd__ = __add__

    def __neg__(self):
        return Poly._trusted({m: -c for m, c in self._terms.items()})

    def __sub__(self, other):
        return self + (-_coerce(other))

    def __rsub__(self, other):
        return _coerce(other) + (-self)

    def __mul__(self, other):
        if isinstance(other, Mono):
            other = Poly.from_mono(other)
        return Poly._trusted(_add_product({}, self, _coerce(other)))

    __rmul__ = __mul__

    def div_mono(self, m):
        """Divide by a monomial (always exact for Laurent polynomials)."""
        return self * m.inverse()

    def __eq__(self, other):
        if isinstance(other, int):
            other = Poly.const(other)
        return isinstance(other, Poly) and self._terms == other._terms

    def __hash__(self):
        return hash(frozenset(self._terms.items()))

    def __repr__(self):
        return "Poly(%s)" % format_poly(self)

    def coefficient_signs(self):
        """The set of signs (+1/-1) occurring among the coefficients."""
        return {1 if c > 0 else -1 for c in self._terms.values()}

    def substitute(self, mapping):
        """Replace variables by monomial values.

        Each value must be 1 or a pure monomial (a one-term polynomial with
        coefficient 1, or a Mono). Anything else raises
        SubstituteNonMonomial. Substituting a non-square monomial into a
        half-integer power raises as well, since the result would leave the
        Laurent ring.
        """
        vals = {}
        unit = Mono.unit()
        for v, val in mapping.items():
            if isinstance(val, Mono):
                vals[v] = val
            elif isinstance(val, Poly):
                vals[v] = val.as_mono()
            elif val == 1:
                vals[v] = unit
            else:
                raise SubstituteNonMonomial(
                    "substitution value for %s must be 1 or a monomial"
                    % format_var(v))
        out = {}
        for m, c in self._terms.items():
            d = {}
            for v, e in m._exps.items():
                if v in vals:
                    _add_power2(d, vals[v], e)
                else:
                    d[v] = d.get(v, 0) + e
            acc = Mono._trusted(d)
            out[acc] = out.get(acc, 0) + c
        return Poly._trusted(out)

    def tropical_eval(self, variables=None):
        """Evaluate in the tropical semifield on the given variables.

        The result is the monomial whose exponent in each variable is the
        minimum exponent over all terms (a term not containing the variable
        counts as exponent 0). Variables outside the given set are ignored.
        Raises ZeroPolynomial on the zero polynomial.
        """
        if self.is_zero():
            raise ZeroPolynomial("tropical evaluation of the zero polynomial")
        # each term's sort row holds its negated exponents, 0 where it
        # lacks a variable; so a variable's least exponent is minus the
        # greatest entry of its column (column 0 is the degree)
        every = self.variables()
        columns = zip(*map(itemgetter(0),
                           _dense_rows(every, self._terms.items())))
        next(columns)
        least = {v: -max(column) for v, column in zip(every, columns)}
        if variables is None:
            variables = every
        return Mono({v: least[v] for v in variables if least.get(v)})


def _add_product(d, p, q):
    """Add the terms of p * q into the dict ``d`` and return it."""
    for m1, c1 in p._terms.items():
        for m2, c2 in q._terms.items():
            m = m1.mul(m2)
            d[m] = d.get(m, 0) + c1 * c2
    return d


def _coerce(p):
    if isinstance(p, Poly):
        return p
    if isinstance(p, int):
        return Poly.const(p)
    raise AlgebraError("cannot coerce %r to a polynomial" % (p,))


# ---------------------------------------------------------------------------
# canonical text form


# The grammar of the canonical text, for every reader below. A variable
# is "kind:label". A factor is an integer, or a variable with an optional
# power "^n" or "^(n/2)", with optional whitespace around it. A term is
# factors joined by "*", after an optional "-"; terms are joined by " + "
# or " - ", which no label holds.
_LABEL = re.compile(r"[^\s*^]+")
LABEL_RULE = "a label is a nonempty string free of whitespace, '*' and '^'"
_VARIABLE = re.compile("(%s):(%s)" % ("|".join(KINDS), _LABEL.pattern))
_FACTOR = re.compile(r"\s*(?:(-?\d+)|%s(?:\^(?:(-?\d+)|\((-?\d+)/2\)))?)\s*"
                     % _VARIABLE.pattern)
_TERM_SEPARATOR = re.compile(r" ([+-]) \s*(-?)")


def is_label(label):
    """Whether ``label`` can name a variable: the canonical text prints it
    bare, between "kind:" and a "*", "^" or " + ", and strips whitespace
    around factors, so only such a label reads back."""
    return isinstance(label, str) and _LABEL.fullmatch(label) is not None


def format_var(v):
    return "%s:%s" % v


def parse_var(text):
    """Inverse of format_var: ``kind:label`` back to a variable id."""
    m = _VARIABLE.fullmatch(text)
    if m is None:
        raise PolyParseError("bad variable %r" % (text,))
    return m.groups()


def _format_factor(v, e):
    body = format_var(v)
    if e == 2:
        return body
    if e % 2 == 0:
        return "%s^%d" % (body, e // 2)
    return "%s^(%d/2)" % (body, e)


def _dense_rows(variables, terms):
    """A (row, monomial, coefficient) triple per (monomial, coefficient)
    pair, in the order given. The row is the dense sort key [-degree,
    -e_1, ..., -e_n], e_i the doubled exponent in variable i of
    ``variables``, which hold every variable of the terms."""
    index = {v: i for i, v in enumerate(variables, 1)}
    width = len(index) + 1
    rows = []
    for m, c in terms:
        row = [0] * width
        for v, e in m._exps.items():
            row[0] -= e
            row[index[v]] = -e
        rows.append((row, m, c))
    return rows


def format_mono(m):
    """Render in canonical text form: the text of the one-term polynomial
    ``m``, read from its sort row, so the unit prints as "1"."""
    return format_monos((m,))[0]


def format_monos(monos):
    """The text ``format_mono`` gives each of the given monomials, read
    from their rows over one variable order, with one factor cache."""
    variables = set()
    for m in monos:
        variables.update(m._exps)
    variables = _in_variable_order(variables)
    factor = _Factors().__getitem__
    return [_format_rows(variables, [term], factor)
            for term in _dense_rows(variables, ((m, 1) for m in monos))]


class _Factors(dict):
    """(variable, negated doubled exponent), as a sort row holds them ->
    the factor's text, rendered on first use."""

    def __missing__(self, item):
        v, e = item
        text = self[item] = _format_factor(v, -e)
        return text


def format_poly(p):
    """Render in canonical text form.

    Terms appear in graded lexicographic order, joined by " + " or " - ";
    a leading negative term gets a bare "-" prefix. Each term is read
    from its sort row (``Poly._sort_rows``): its nonzero entries, in
    variable order, are its factors. Each distinct factor is rendered
    once per call.
    """
    return _format_rows(*p._sort_rows())


def _format_rows(variables, rows, factor=None):
    """The canonical text of the terms ``Poly._sort_rows`` returns; also
    ``format_monos``'s, one term at a time with a shared ``factor``
    lookup, so one printer serves polynomials and monomials."""
    if not rows:
        return "0"
    if factor is None:
        factor = _Factors().__getitem__
    chunks = []
    for i, (row, _, c) in enumerate(rows):
        mag, exps = abs(c), row[1:]
        body = "*".join(map(factor, compress(zip(variables, exps), exps)))
        if not body:
            body = str(mag)
        elif mag != 1:
            body = "%d*%s" % (mag, body)
        if i == 0:
            chunks.append(("-" if c < 0 else "") + body)
        else:
            chunks.append((" - " if c < 0 else " + ") + body)
    return "".join(chunks)


def _int(digits):
    """int(digits), or a PolyParseError past the interpreter's limit."""
    try:
        return int(digits)
    except ValueError:
        raise PolyParseError("integer too long: %.20s..." % digits) from None


def parse_poly(text):
    """Parse canonical text form back into a polynomial.

    Inverse of format_poly on canonical output; also tolerant of extra
    whitespace around terms and factors. Each term's exponents are summed
    in one dict and checked by one ``Mono(...)``, and the terms in one
    dict. Any text outside the grammar raises PolyParseError.
    """
    # a separator before the text gives the first term its sign too
    pieces = _TERM_SEPARATOR.split(" + " + text)
    out = {}
    for sign, minus, term in zip(pieces[1::3], pieces[2::3], pieces[3::3]):
        coeff, exps = (-1) ** (sign + minus).count("-"), {}
        for factor in term.split("*"):
            m = _FACTOR.fullmatch(factor)
            if m is None:
                raise PolyParseError("bad factor %r" % (factor,))
            n, kind, label, power, half = m.groups()
            if n:
                coeff *= _int(n)
            else:
                e = 2 * _int(power) if power else _int(half) if half else 2
                exps[kind, label] = exps.get((kind, label), 0) + e
        mono = Mono(exps)
        out[mono] = out.get(mono, 0) + coeff
    return Poly._trusted(out)


# ---------------------------------------------------------------------------
# 2x2 matrices


def _product_sum(p1, q1, p2, q2):
    """p1 * q1 + p2 * q2, summed in one dict."""
    return Poly._trusted(_add_product(_add_product({}, p1, q1), p2, q2))


class Mat2:
    """A 2x2 matrix with Laurent polynomial entries."""

    __slots__ = ("a", "b", "c", "d")

    def __init__(self, a, b, c, d):
        self.a = _coerce(a)
        self.b = _coerce(b)
        self.c = _coerce(c)
        self.d = _coerce(d)

    @classmethod
    def _trusted(cls, a, b, c, d):
        """Build from four polynomials, coercing nothing."""
        m = cls.__new__(cls)
        m.a, m.b, m.c, m.d = a, b, c, d
        return m

    @classmethod
    def identity(cls):
        return cls(1, 0, 0, 1)

    def __mul__(self, other):
        return Mat2._trusted(
            _product_sum(self.a, other.a, self.b, other.c),
            _product_sum(self.a, other.b, self.b, other.d),
            _product_sum(self.c, other.a, self.d, other.c),
            _product_sum(self.c, other.b, self.d, other.d),
        )

    def __eq__(self, other):
        return (isinstance(other, Mat2) and self.a == other.a
                and self.b == other.b and self.c == other.c
                and self.d == other.d)

    def __neg__(self):
        return Mat2(-self.a, -self.b, -self.c, -self.d)

    def __repr__(self):
        return "Mat2([[%s, %s], [%s, %s]])" % (
            format_poly(self.a), format_poly(self.b),
            format_poly(self.c), format_poly(self.d))

    def det(self):
        return self.a * self.d - self.b * self.c

    def trace(self):
        return self.a + self.d

    def upper_right(self):
        return self.b

    def inverse_unimodular(self):
        """Invert, requiring determinant exactly 1."""
        if self.det() != Poly.one():
            raise NotUnimodular(
                "matrix determinant is %s, not 1" % format_poly(self.det()))
        return Mat2(self.d, -self.b, -self.c, self.a)
