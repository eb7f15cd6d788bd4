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


def _var_key(v):
    return (_KIND_ORDER[v[0]], v[1])


def _item_key(item):
    # One call per item: _var_key(item[0]) behind a lambda would be two.
    return (_KIND_ORDER[item[0][0]], item[0][1])


def _sorted_items(d):
    """The nonzero (variable, exponent) pairs of ``d`` in variable order."""
    return tuple(sorted([it for it in d.items() if it[1]], key=_item_key))


def _add_power2(d, m, exp2):
    """Add the doubled exponents of m^(exp2/2) into ``d`` and return it.
    Requires the power to be an exact Laurent monomial."""
    for v, e in m._items:
        num = e * exp2
        if num % 2:
            raise SubstituteNonMonomial(
                "power %s/2 of %s is not an exact Laurent monomial"
                % (exp2, format_mono(m)))
        d[v] = d.get(v, 0) + num // 2
    return d


class Mono:
    """A Laurent monomial: a finite map from variables to doubled exponents.

    Instances are immutable and hashable. Zero exponents are never stored.
    """

    __slots__ = ("_items", "_hash")

    def __init__(self, items=()):
        d = {}
        for v, e in dict(items).items():
            if v[0] not in _KIND_ORDER:
                raise AlgebraError("unknown variable kind %r" % (v[0],))
            d[v] = int(e)
        self._items = _sorted_items(d)
        self._hash = hash(self._items)

    @classmethod
    def _trusted(cls, d):
        """Build from a dict whose variables and integer exponents came
        out of other monomials, so nothing is checked again."""
        m = cls.__new__(cls)
        m._items = _sorted_items(d)
        m._hash = hash(m._items)
        return m

    @classmethod
    def unit(cls):
        return cls()

    @classmethod
    def of(cls, kind, label, exp2=2):
        return cls({var(kind, label): exp2})

    def items(self):
        return self._items

    def exponent2(self, v):
        for w, e in self._items:
            if w == v:
                return e
        return 0

    def variables(self):
        return tuple(v for v, _ in self._items)

    def degree2(self):
        return sum(e for _, e in self._items)

    def is_unit(self):
        return not self._items

    def mul(self, other):
        if not other._items:
            return self
        if not self._items:
            return other
        d = dict(self._items)
        for v, e in other._items:
            d[v] = d.get(v, 0) + e
        return Mono._trusted(d)

    def inverse(self):
        return Mono._trusted({v: -e for v, e in self._items})

    def power2(self, exp2):
        """Raise to the power exp2/2. Requires the result to be integral."""
        return Mono._trusted(_add_power2({}, self, exp2))

    def __eq__(self, other):
        return isinstance(other, Mono) and self._items == other._items

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return "Mono(%s)" % format_mono(self)


class Poly:
    """A Laurent polynomial: monomials with nonzero integer coefficients.

    The representation is canonical: equal polynomials compare equal and
    render to identical text.
    """

    __slots__ = ("_terms", "_hash")

    def __init__(self, terms=()):
        d = {}
        for m, c in dict(terms).items():
            if not isinstance(m, Mono):
                raise AlgebraError("polynomial keys must be Mono instances")
            c = int(c)
            if c:
                d[m] = c
        self._terms = d
        self._hash = None

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

    def terms(self):
        """Terms in canonical (graded lexicographic) order: higher total
        degree first, ties broken by the exponents read in variable
        order, a higher exponent first."""
        index = {v: i for i, v in enumerate(self.variables(), 1)}
        width = len(index) + 1

        def key(m):
            vec = [0] * width
            for v, e in m._items:
                vec[0] -= e
                vec[index[v]] = -e
            return vec

        return [(m, self._terms[m]) for m in sorted(self._terms, key=key)]

    def coefficient(self, m):
        return self._terms.get(m, 0)

    def variables(self):
        vs = set()
        for m in self._terms:
            vs.update(m.variables())
        return sorted(vs, key=_var_key)

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
        return Poly(d)

    __radd__ = __add__

    def __neg__(self):
        return Poly({m: -c for m, c in self._terms.items()})

    def __sub__(self, other):
        return self + (-_coerce(other))

    def __rsub__(self, other):
        return _coerce(other) + (-self)

    def __mul__(self, other):
        if isinstance(other, Mono):
            other = Poly.from_mono(other)
        other = _coerce(other)
        d = {}
        for m1, c1 in self._terms.items():
            for m2, c2 in other._terms.items():
                m = m1.mul(m2)
                d[m] = d.get(m, 0) + c1 * c2
        return Poly(d)

    __rmul__ = __mul__

    def div_mono(self, m):
        """Divide by a monomial (always exact for Laurent polynomials)."""
        return self * m.inverse()

    def __eq__(self, other):
        if isinstance(other, int):
            other = Poly.const(other)
        return isinstance(other, Poly) and self._terms == other._terms

    def __hash__(self):
        if self._hash is None:
            self._hash = hash(frozenset(self._terms.items()))
        return self._hash

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
            for v, e in m._items:
                if v in vals:
                    _add_power2(d, vals[v], e)
                else:
                    d[v] = d.get(v, 0) + e
            acc = Mono._trusted(d)
            out[acc] = out.get(acc, 0) + c
        return Poly(out)

    def tropical_eval(self, variables=None):
        """Evaluate in the tropical semifield on the given variables.

        The result is the monomial whose exponent in each variable is the
        minimum exponent over all terms (a term not containing the variable
        counts as exponent 0). Variables outside the given set are ignored.
        Raises ZeroPolynomial on the zero polynomial.
        """
        if self.is_zero():
            raise ZeroPolynomial("tropical evaluation of the zero polynomial")
        if variables is None:
            variables = self.variables()
        variables = [v for v in variables]
        out = {}
        for v in variables:
            lo = min(m.exponent2(v) for m in self._terms)
            if lo:
                out[v] = lo
        return Mono(out)


def _coerce(p):
    if isinstance(p, Poly):
        return p
    if isinstance(p, int):
        return Poly.const(p)
    raise AlgebraError("cannot coerce %r to a polynomial" % (p,))


# ---------------------------------------------------------------------------
# canonical text form


def format_var(v):
    return "%s:%s" % v


def parse_var(text):
    """Inverse of format_var: ``kind:label`` back to a variable id."""
    kind, sep, label = text.partition(":")
    if not sep or kind not in _KIND_ORDER or not label:
        raise PolyParseError("bad variable %r" % (text,))
    return (kind, label)


def _format_factor(v, e):
    body = format_var(v)
    if e == 2:
        return body
    if e % 2 == 0:
        return "%s^%d" % (body, e // 2)
    return "%s^(%d/2)" % (body, e)


def format_mono(m):
    if m.is_unit():
        return "1"
    return "*".join(_format_factor(v, e) for v, e in m.items())


def format_poly(p):
    """Render in canonical text form.

    Terms appear in graded lexicographic order, joined by " + " or " - ";
    a leading negative term gets a bare "-" prefix.
    """
    terms = p.terms()
    if not terms:
        return "0"
    chunks = []
    for i, (m, c) in enumerate(terms):
        mag = abs(c)
        if m.is_unit():
            body = str(mag)
        elif mag == 1:
            body = format_mono(m)
        else:
            body = "%d*%s" % (mag, format_mono(m))
        if i == 0:
            chunks.append(("-" if c < 0 else "") + body)
        else:
            chunks.append((" - " if c < 0 else " + ") + body)
    return "".join(chunks)


_POWER_RE = re.compile(r"^(-?\d+)$|^\((-?\d+)/2\)$")


def _parse_factor(text):
    text = text.strip()
    if not text:
        raise PolyParseError("empty factor")
    if re.fullmatch(r"-?\d+", text):
        return int(text), Mono.unit()
    if "^" in text:
        base, _, pw = text.partition("^")
        m = _POWER_RE.match(pw.strip())
        if not m:
            raise PolyParseError("bad exponent %r" % pw)
        exp2 = int(m.group(1)) * 2 if m.group(1) is not None else int(m.group(2))
    else:
        base, exp2 = text, 2
    return 1, Mono({parse_var(base): exp2})


def parse_poly(text):
    """Parse canonical text form back into a polynomial.

    Inverse of format_poly on canonical output; also tolerant of extra
    surrounding whitespace.
    """
    text = text.strip()
    if not text:
        raise PolyParseError("empty polynomial text")
    if text == "0":
        return Poly.zero()
    # Split into signed terms. Separators are " + " and " - "; a label may
    # itself contain "-" but never a space-padded one.
    pieces = re.split(r" ([+-]) ", text)
    signs = [1]
    terms = [pieces[0]]
    for i in range(1, len(pieces), 2):
        signs.append(1 if pieces[i] == "+" else -1)
        terms.append(pieces[i + 1])
    out = Poly.zero()
    for sign, term in zip(signs, terms):
        term = term.strip()
        if term.startswith("-"):
            sign = -sign
            term = term[1:]
        coeff = sign
        mono = Mono.unit()
        for factor in term.split("*"):
            c, m = _parse_factor(factor)
            coeff *= c
            mono = mono.mul(m)
        out = out + Poly.from_mono(mono, coeff)
    return out


# ---------------------------------------------------------------------------
# 2x2 matrices


class Mat2:
    """A 2x2 matrix with Laurent polynomial entries."""

    __slots__ = ("a", "b", "c", "d")

    def __init__(self, a, b, c, d):
        self.a = _coerce(a)
        self.b = _coerce(b)
        self.c = _coerce(c)
        self.d = _coerce(d)

    @classmethod
    def identity(cls):
        return cls(1, 0, 0, 1)

    def __mul__(self, other):
        return Mat2(
            self.a * other.a + self.b * other.c,
            self.a * other.b + self.b * other.d,
            self.c * other.a + self.d * other.c,
            self.c * other.b + self.d * other.d,
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
