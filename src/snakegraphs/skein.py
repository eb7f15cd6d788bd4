"""Smoothing identities between curve expansions.

Two curves that cross can be resolved at the crossing in two ways; the
product of their expansions equals a signed sum of the two resolved
products, each scaled by a coefficient monomial. This module verifies
such identities. The decomposition of the paths at the crossing is
supplied by the caller and checked, not synthesized: each composite
step sequence must reproduce the declared curve's reduced reading up to
a coefficient monomial, and that monomial is exactly the coefficient
the identity needs.
"""

from __future__ import annotations

import random

from .algebra import (
    Mat2,
    Mono,
    Poly,
    SnakeGraphsError,
    format_mono,
    format_poly,
    format_var,
)
from .mpath import (
    CCW,
    CW,
    PIVOT,
    TWIST,
    MixedSigns,
    MPath,
    abs_poly,
    chi,
    chi_bar,
    invert_steps,
    parse_steps,
    path_for_curve,
    path_matrix,
    pivot,
    rotate_loop,
    shear,
)
from .surface import (
    ValidationError,
    _reject_unknown,
    _typed,
    coefficient_map,
    curve_from_dict,
    expand,
    signed_reading,
)


class SkeinError(SnakeGraphsError):
    pass


class IdentityFailed(SkeinError):
    pass


class NotComposable(SkeinError):
    pass


class IsotopyMismatch(SkeinError):
    """A composite step sequence does not reproduce the declared curve."""


class SelfFoldedUnsupported(SkeinError):
    pass


class NotAMonomialCoefficient(SkeinError):
    """A coefficient exponent came out half-integral."""


ARC_ARC = "ARC_ARC"
WITH_LOOP = "WITH_LOOP"
SELF_INTERSECTION = "SELF_INTERSECTION"


# -- 2x2 identities --------------------------------------------------------


def _random_poly(rng, vars_, max_terms=3):
    p = Poly.zero()
    for _ in range(rng.randint(1, max_terms)):
        m = Mono({v: 2 * rng.randint(-1, 1) for v in vars_})
        p = p + Poly.from_mono(m, rng.randint(-3, 3))
    return p


def _random_mat(rng, vars_):
    return Mat2(*(_random_poly(rng, vars_) for _ in range(4)))


def _random_unimodular(rng, vars_):
    steps = []
    for _ in range(rng.randint(1, 4)):
        v = rng.choice(vars_)
        w = rng.choice(vars_)
        if rng.random() < 0.5:
            s = shear(v, w, rng.choice(vars_), rng.choice([CW, CCW]))
        else:
            s = pivot(v, rng.choice([1, -1]))
        steps.append(s)
    return path_matrix(steps)


def check_matrix_identities(trials, seed=0):
    """Check the three trace and upper-right-entry identities on random
    matrices, with the unimodular factor built from shear and pivot
    steps. Returns the number of trials run; raises IdentityFailed with
    the counterexample otherwise."""
    if trials < 1:
        raise SkeinError("need at least one trial")
    rng = random.Random(seed)
    vars_ = [("x", "u"), ("x", "v"), ("x", "w")]
    ur = Mat2.upper_right
    tr = Mat2.trace
    for t in range(trials):
        m1 = _random_unimodular(rng, vars_)
        m2 = _random_mat(rng, vars_)
        m3 = _random_mat(rng, vars_)
        m1i = m1.inverse_unimodular()
        checks = [
            ("upper-right splitting",
             ur(m2 * m1) * ur(m1 * m3),
             ur(m1) * ur(m2 * m1 * m3) + ur(m2) * ur(m3)),
            ("trace against upper-right",
             ur(m3 * m2) * tr(m1),
             ur(m3 * m1 * m2) + ur(m3 * m1i * m2)),
            ("trace splitting",
             tr(m2) * tr(m1),
             tr(m1 * m2) + tr(m1i * m2)),
        ]
        for name, lhs, rhs in checks:
            if lhs != rhs:
                raise IdentityFailed(
                    "%s failed on trial %d: %r != %r" % (name, t, lhs, rhs))
    return trials


# -- loosened paths --------------------------------------------------------


class LoosenedMPath:
    """A core path with circling prefix and suffix walks.

    The prefix and suffix may only contain shear and twist steps; each
    twist records one crossing of an arc during the walk around the
    marked point.
    """

    def __init__(self, sigma1, core, sigma2):
        for s in list(sigma1) + list(sigma2):
            if s.kind == PIVOT:
                raise NotComposable(
                    "prefix and suffix walks cannot contain pivots")
        self.sigma1 = list(sigma1)
        self.core = core
        self.sigma2 = list(sigma2)

    def steps(self):
        return self.sigma1 + list(self.core.steps) + self.sigma2

    def signed_excess(self, label):
        """Crossings of the labelled arc during the walks, counted with
        sign: counterclockwise prefix and clockwise suffix travel count
        positively. Zero by convention when the core is closed."""
        if self.core.closed:
            return 0

        def travel(walk):  # clockwise crossings minus counterclockwise
            return sum(s.mode for s in walk
                       if s.kind == TWIST and s.tau[1] == label)

        return travel(self.sigma2) - travel(self.sigma1)


# -- verification ----------------------------------------------------------


def monomial_quotient(num, den):
    """The monomial m with num == den * m, or None."""
    nt, dt = num.terms(), den.terms()
    if not nt or not dt or len(nt) != len(dt):
        return None
    if nt[0][1] != dt[0][1]:
        return None
    m = nt[0][0].mul(dt[0][0].inverse())
    if den * Poly.from_mono(m) == num:
        return m
    return None


def _match_composite(steps, curve, role, target):
    """The coefficient monomial relating a composite reading to the
    declared curve's reduced reading ``target()``."""
    closed = curve.kind in ("loop", "contractible_loop")
    try:
        got = chi_bar(MPath(steps, closed))
    except MixedSigns:
        raise IsotopyMismatch(
            "composite for %s has a mixed-sign reading" % role)
    mono = monomial_quotient(got, abs_poly(target()))
    if mono is None:
        raise IsotopyMismatch(
            "composite for %s does not match its declared curve" % role)
    if closed and not mono.is_unit():
        raise IsotopyMismatch(
            "closed composite for %s picked up a coefficient shift" % role)
    bad = [v for v in mono.variables() if v[0] != "Y"]
    if bad:
        raise IsotopyMismatch(
            "composite for %s differs by non-coefficient factors %r"
            % (role, bad))
    return mono


def _crossing_mono(curves_plus, curves_minus):
    """Half power of y per crossing difference between two curve sets."""
    exps = {}
    for sgn, curves in ((1, curves_plus), (-1, curves_minus)):
        for c in curves:
            for label in c.crossings:
                exps[label] = exps.get(label, 0) + sgn
    out = {}
    for label, e in exps.items():
        if e:
            out[("Y", label)] = e
    return Mono(out)


def _integral(mono):
    """``mono``, refused when an exponent is half-integral."""
    for v, e in mono.items():
        if e % 2:
            raise NotAMonomialCoefficient(
                "coefficient exponent of %s is half-integral"
                % format_var(v))
    return mono


def _lower_coeffs(tri, mono):
    """Rename a coefficient monomial into the tagged-arc variables and
    insist on integer exponents."""
    return _integral(
        Poly.from_mono(mono).substitute(coefficient_map(tri)).as_mono())


def _resolve_signs(lhs, term_a, term_b):
    for s1 in (1, -1):
        for s2 in (1, -1):
            if lhs == term_a * s1 + term_b * s2:
                return s1, s2
    raise IdentityFailed("no sign choice satisfies the identity")


class SkeinInstance:
    """Inputs for one smoothing verification.

    ``curves`` maps role names to Curve objects. Role sets by variant:
    ARC_ARC uses gamma1, gamma2, alpha1, alpha2, beta1, beta2 with
    prefix/suffix walks for beta1; WITH_LOOP uses gamma1, gamma2 (the
    loop), alpha, beta with a split index into gamma1's steps and a
    rotation of the loop's steps; SELF_INTERSECTION uses gamma, alpha1,
    alpha2, beta with a split index and the inserted circuit steps.
    """

    def __init__(self, variant, curves, sigma1=(), sigma2=(),
                 split_index=0, loop_rotation=0, insert_steps=(),
                 lamination_counts=None):
        if variant not in (ARC_ARC, WITH_LOOP, SELF_INTERSECTION):
            raise SkeinError("unknown variant %r" % (variant,))
        self.variant = variant
        self.curves = dict(curves)
        self.sigma1 = list(sigma1)
        self.sigma2 = list(sigma2)
        self.split_index = split_index
        self.loop_rotation = loop_rotation
        self.insert_steps = list(insert_steps)
        self.lamination_counts = lamination_counts

    def curve(self, role):
        try:
            return self.curves[role]
        except KeyError:
            raise SkeinError("instance is missing the %r curve" % (role,))


class SkeinReport:
    def __init__(self, variant, lhs, signs, coeffs, products,
                 lamination_agrees=None):
        self.variant = variant
        self.lhs = lhs
        self.signs = signs
        self.coeffs = coeffs
        self.products = products
        self.lamination_agrees = lamination_agrees

    @property
    def positive(self):
        return all(s == 1 for s in self.signs)

    def as_text(self):
        lines = ["variant: %s" % self.variant,
                 "lhs: %s" % format_poly(self.lhs)]
        for i, (s, c, p) in enumerate(
                zip(self.signs, self.coeffs, self.products)):
            lines.append("term %d: sign %+d coeff %s product %s"
                         % (i + 1, s, format_mono(c), format_poly(p)))
        lines.append("signs positive: %s" % ("yes" if self.positive
                                             else "no"))
        if self.lamination_agrees is not None:
            lines.append("lamination agreement: %s"
                         % ("yes" if self.lamination_agrees else "no"))
        return "\n".join(lines)


def verify_skein(tri, inst):
    """Check one smoothing identity. The variant's builder supplies the
    two coefficient monomials; the check of the reduced and unreduced
    identities and of the lamination counts is shared. Each curve's
    standard path and readings are computed at most once per call."""
    if tri.self_folded:
        raise SelfFoldedUnsupported(
            "smoothing verification needs a triangulation without "
            "self-folded triangles")
    build, lhs_roles, terms_roles = _VARIANTS[inst.variant]
    curves = {r: inst.curve(r) for r in lhs_roles + sum(terms_roles, ())}
    memo = {}

    def once(what, role, make):
        key = (what, curves[role])
        if key not in memo:
            memo[key] = make()
        return memo[key]

    def path(role):
        return once("path", role, lambda: path_for_curve(tri, curves[role]))

    def bar(role):
        return once("bar", role, lambda: signed_reading(
            curves[role], lambda: chi_bar(path(role))))

    def hat(role):
        return once("hat", role, lambda: signed_reading(
            curves[role], lambda: chi(tri, path(role), keep_boundary=True)))

    def match(steps, role):
        return _match_composite(steps, curves[role], role, lambda: bar(role))

    def product(roles, read):
        out = Poly.one()
        for role in roles:
            out = out * read(role)
        return out

    monos = build(tri, inst, path, match)
    lhs = product(lhs_roles, bar)
    products = tuple(product(roles, bar) for roles in terms_roles)
    signs = _resolve_signs(lhs, *(p * Poly.from_mono(m)
                                  for p, m in zip(products, monos)))
    # The unreduced coefficient gains half a power of y per crossing-count
    # difference and must come out integral.
    lhs_curves = [curves[r] for r in lhs_roles]
    hat_lhs = product(lhs_roles, hat)
    rhs = Poly.zero()
    coeffs = []
    for sign, roles, mono in zip(signs, terms_roles, monos):
        extra = _crossing_mono(lhs_curves, [curves[r] for r in roles])
        coeffs.append(_lower_coeffs(tri, mono.mul(extra)))
        rhs = rhs + Poly.from_mono(coeffs[-1], sign) * product(roles, hat)
    if hat_lhs != rhs:
        raise IdentityFailed("unreduced form of the identity failed")
    agree = _check_lamination(inst.lamination_counts, lhs_roles,
                              terms_roles, coeffs)
    return SkeinReport(inst.variant, lhs, signs, coeffs, products, agree)


def _check_lamination(counts, lhs_roles, terms_roles, coeffs):
    """Compare coefficient exponents against supplied lamination
    crossing counts, when the instance carries them."""
    if counts is None:
        return None
    for coeff, roles in zip(coeffs, terms_roles):
        labels = set(l for r in lhs_roles + roles for l in counts.get(r, {}))
        for label in labels:
            c = sum(counts.get(r, {}).get(label, 0) for r in lhs_roles)
            a = sum(counts.get(r, {}).get(label, 0) for r in roles)
            if coeff.exponent2(("y", label)) != c - a:
                return False
        for v, e in coeff.items():
            if v[0] == "y" and v[1] not in labels and e:
                return False
    return True


def _split(steps, k):
    if not 0 <= k <= len(steps):
        raise SkeinError("split index out of range")
    return steps[:k], steps[k:]


def _arc_arc(tri, inst, path, match):
    """Crossing arcs; beta1 is loosened by the instance's walks, whose
    twist counts must agree with beta1's coefficient."""
    pa1, pa2 = path("alpha1").steps, path("alpha2").steps
    loose_b1 = LoosenedMPath(inst.sigma1, path("beta1"), inst.sigma2)
    lb1 = loose_b1.steps()
    mono_g1 = match(pa2 + lb1, "gamma1")
    mono_g2 = match(lb1 + pa1, "gamma2")
    mono_b2 = match(pa2 + lb1 + pa1, "beta2")
    mono_b1 = match(lb1, "beta1")
    for label in tri.arcs:
        if mono_b1.exponent2(("Y", label)) \
                != -loose_b1.signed_excess(label):
            raise IsotopyMismatch(
                "walk crossings of %r disagree with the matrix reading"
                % (label,))
    shift = mono_g1.mul(mono_g2).inverse()
    return shift, shift.mul(mono_b1).mul(mono_b2)


def _with_loop(tri, inst, path, match):
    """An arc or loop gamma1 meeting the loop gamma2, which is spliced
    in at the split index, or after gamma1's steps when that is a loop
    too."""
    if inst.curves["gamma2"].kind != "loop":
        raise SkeinError("the second curve must be a loop")
    steps1 = path("gamma1").steps
    steps2 = rotate_loop(path("gamma2").steps, inst.loop_rotation)
    if inst.curves["gamma1"].kind == "loop":
        head, tail = steps1, []
    else:
        head, tail = _split(steps1, inst.split_index)
    return (match(head + steps2 + tail, "alpha"),
            match(head + invert_steps(steps2) + tail, "beta"))


def _self_intersection(tri, inst, path, match):
    """A curve crossing itself: the inserted circuit, spliced in at the
    split index, must read as gamma; alone, as alpha1."""
    steps = path("gamma").steps
    head, tail = _split(steps, inst.split_index)
    insert = list(inst.insert_steps)
    if not insert:
        raise SkeinError("self-intersection instances need circuit steps")
    match(head + insert + tail, "gamma")
    return (match(insert, "alpha1").mul(match(steps, "alpha2")),
            match(head + invert_steps(insert) + tail, "beta"))


# Each variant's builder, the roles of its two crossing curves (one for a
# self-crossing), and the roles of each resolution's curves.
_VARIANTS = {
    ARC_ARC: (_arc_arc, ("gamma1", "gamma2"),
              (("alpha1", "alpha2"), ("beta1", "beta2"))),
    WITH_LOOP: (_with_loop, ("gamma1", "gamma2"), (("alpha",), ("beta",))),
    SELF_INTERSECTION: (_self_intersection, ("gamma",),
                        (("alpha1", "alpha2"), ("beta",))),
}


def kink_circuit(tau, tau_prime, sigma):
    """A six step clockwise circuit around one triangle; its matrix is
    minus the identity, so splicing it into a path models a contractible
    kink."""
    return [
        shear(tau, tau_prime, sigma, CCW),
        pivot(tau, -1),
        shear(tau, sigma, tau_prime, CCW),
        pivot(sigma, -1),
        shear(sigma, tau_prime, tau, CCW),
        pivot(tau_prime, -1),
    ]


# -- the quadrilateral exchange check --------------------------------------


def ptolemy_check(tri, eta_label, theta_curve):
    """On a quadrilateral, the product of the two diagonals equals a sum
    of the two opposite-side products, each with a coefficient monomial.
    Returns the two (coefficient, side product) pairs."""
    if eta_label not in tri.arcs:
        raise SkeinError("%r is not an arc of the triangulation"
                         % (eta_label,))
    x_eta = Poly.of_var("x", eta_label)
    x_theta = expand(tri, theta_curve, keep_boundary=True).laurent
    product = x_eta * x_theta
    groups = {}
    for m, c in product.terms():
        sides = Mono({v: e for v, e in m.items() if v[0] in ("x", "b")})
        ys = Mono({v: e for v, e in m.items() if v[0] == "y"})
        groups.setdefault(sides, []).append((ys, c))
    if len(groups) != 2:
        raise IdentityFailed(
            "diagonal product has %d side groups, expected 2"
            % len(groups))
    out = []
    for sides, ys in sorted(groups.items(),
                            key=lambda kv: sorted(kv[0].items())):
        if len(ys) != 1 or ys[0][1] != 1:
            raise NotAMonomialCoefficient(
                "side product has a non-monomial coefficient")
        out.append((_integral(ys[0][0]), sides))
    check = Poly.zero()
    for coeff, sides in out:
        check = check + Poly.from_mono(coeff.mul(sides))
    if check != product:
        raise IdentityFailed("side-product reassembly failed")
    return out


# -- JSON interchange ------------------------------------------------------


# The keys an instance document of each variant may carry besides
# "variant", "curves" and "lamination_counts": the ones its builder reads.
_VARIANT_KEYS = {
    ARC_ARC: {"sigma1", "sigma2"},
    WITH_LOOP: {"split_index", "loop_rotation"},
    SELF_INTERSECTION: {"split_index", "insert"},
}
_COMMON_KEYS = {"variant", "curves", "lamination_counts"}


def instance_from_dict(doc, named_curves=()):
    """Build a SkeinInstance from a JSON object. Curves may be given
    inline (as curve objects) or by name, resolved against
    ``named_curves``."""
    if not isinstance(doc, dict):
        raise ValidationError("instance document must be an object")
    variant = doc.get("variant")
    if not isinstance(variant, str) or variant not in _VARIANTS:
        raise ValidationError("unknown variant %r" % (variant,))
    # The variant names the keys and roles it reads; anything else would
    # be silently ignored.
    _reject_unknown(doc, _COMMON_KEYS | _VARIANT_KEYS[variant],
                    "%s instance" % variant)
    _, lhs_roles, terms_roles = _VARIANTS[variant]
    roles = set(lhs_roles).union(*terms_roles)
    by_name = {c.name: c for c in named_curves if c.name}
    curves = {}
    role_curves = _typed(doc, "curves", dict, {})
    _reject_unknown(role_curves, roles, "%s 'curves' role" % variant)
    for role, val in role_curves.items():
        if isinstance(val, str):
            if val not in by_name:
                raise ValidationError("unknown curve name %r" % (val,))
            curves[role] = by_name[val]
        elif isinstance(val, dict):
            curves[role] = curve_from_dict(val)
        else:
            raise ValidationError("bad curve reference %r" % (val,))
    for key in ("split_index", "loop_rotation"):
        if type(doc.get(key, 0)) is not int:
            raise ValidationError("%r must be an integer, not %r"
                                  % (key, doc[key]))
    if doc.get("lamination_counts") is not None:
        role_counts = _typed(doc, "lamination_counts", dict, None)
        _reject_unknown(role_counts, roles,
                        "%s 'lamination_counts' role" % variant)
        for role, counts in role_counts.items():
            if not isinstance(counts, dict) or not all(
                    type(n) is int for n in counts.values()):
                raise ValidationError(
                    "lamination counts of %r must map labels to integers, "
                    "not %r" % (role, counts))
    return SkeinInstance(
        variant=variant,
        curves=curves,
        sigma1=parse_steps(_typed(doc, "sigma1", str, "")),
        sigma2=parse_steps(_typed(doc, "sigma2", str, "")),
        split_index=doc.get("split_index", 0),
        loop_rotation=doc.get("loop_rotation", 0),
        insert_steps=parse_steps(_typed(doc, "insert", str, "")),
        lamination_counts=doc.get("lamination_counts"),
    )
