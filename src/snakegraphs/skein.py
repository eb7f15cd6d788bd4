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
    twist,
)
from .surface import (
    Curve,
    PuncturedSurface,
    ValidationError,
    _reject_unknown,
    _typed,
    curve_from_dict,
    expand,
    phi_substitution,
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
    m = Mat2.identity()
    for _ in range(rng.randint(1, 4)):
        v = rng.choice(vars_)
        w = rng.choice(vars_)
        if rng.random() < 0.5:
            s = shear(v, w, rng.choice(vars_), rng.choice([CW, CCW]))
        else:
            s = pivot(v, rng.choice([1, -1]))
        m = path_matrix([s]) * m
    return m


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
            if s.kind == 3:
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
        total = 0
        for s in self.sigma1:
            if s.kind == 2 and s.tau[1] == label:
                total += 1 if s.mode == CCW else -1
        for s in self.sigma2:
            if s.kind == 2 and s.tau[1] == label:
                total += -1 if s.mode == CCW else 1
        return total


def crossing_count(curve, label):
    return list(curve.crossings).count(label)


def signed_intersection(loosened, curve, label):
    return crossing_count(curve, label) + loosened.signed_excess(label)


def lamination_intersection_unpunctured(tri, loosened, curve, label):
    """Crossing count with the elementary lamination running beside the
    labelled arc, read off a loosened path anchored at the clockwise-most
    boundary points. Only meaningful on unpunctured surfaces."""
    if tri.punctures:
        raise PuncturedSurface(
            "lamination intersections need an unpunctured surface")
    value = signed_intersection(loosened, curve, label)
    if value < 0:
        raise SkeinError(
            "anchored path has negative intersection count with %r"
            % (label,))
    return value


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


def _curve_reading(tri, curve, read):
    """``read`` applied to the curve's standard path, signed by its
    kinks; the contractible kinds have fixed values instead."""
    if curve.kind == "contractible_monogon_arc":
        return Poly.zero()
    if curve.kind == "contractible_loop":
        return Poly.const(-2)
    val = read(path_for_curve(tri, curve))
    return -val if curve.sign() < 0 else val


def _chi_bar_curve(tri, curve):
    return _curve_reading(tri, curve, chi_bar)


def _chi_curve(tri, curve):
    return _curve_reading(
        tri, curve, lambda path: chi(tri, path, keep_boundary=True))


def _match_composite(tri, steps, curve, role):
    """The coefficient monomial relating a composite reading to the
    declared curve's reduced reading."""
    closed = curve.kind in ("loop", "contractible_loop")
    try:
        got = chi_bar(MPath(steps, closed))
    except MixedSigns:
        raise IsotopyMismatch(
            "composite for %s has a mixed-sign reading" % role)
    target = _chi_bar_curve(tri, curve)
    mono = monomial_quotient(got, abs_poly(target))
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


def _crossing_mono(tri, curves_plus, curves_minus):
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


def _lower_coeffs(tri, mono):
    """Rename a coefficient monomial into the tagged-arc variables and
    insist on integer exponents."""
    p = Poly.from_mono(mono).substitute(phi_substitution(tri))
    m = p.as_mono()
    for v, e in m.items():
        if e % 2:
            raise NotAMonomialCoefficient(
                "coefficient exponent of %s is half-integral"
                % format_var(v))
    return m


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
    if tri.self_folded:
        raise SelfFoldedUnsupported(
            "smoothing verification needs a triangulation without "
            "self-folded triangles")
    if inst.variant == ARC_ARC:
        return _verify_arc_arc(tri, inst)
    if inst.variant == WITH_LOOP:
        return _verify_with_loop(tri, inst)
    return _verify_self_intersection(tri, inst)


def _hat_identity(tri, lhs_curves, terms):
    """Cross-check the identity on the unreduced expansions.

    ``terms`` holds (sign, curves, bar coefficient) triples; the
    unreduced coefficient gains half a power of y per crossing-count
    difference and must come out integral.
    """
    lhs = Poly.one()
    for c in lhs_curves:
        lhs = lhs * _chi_curve(tri, c)
    rhs = Poly.zero()
    coeffs = []
    for sign, curves, bar_mono in terms:
        extra = _crossing_mono(tri, lhs_curves, curves)
        coeff = _lower_coeffs(tri, bar_mono.mul(extra))
        coeffs.append(coeff)
        prod = Poly.from_mono(coeff, sign)
        for c in curves:
            prod = prod * _chi_curve(tri, c)
        rhs = rhs + prod
    if lhs != rhs:
        raise IdentityFailed("unreduced form of the identity failed")
    return coeffs


def _check_lamination(inst, coeffs, term_curves):
    """Compare coefficient exponents against supplied lamination
    crossing counts, when the instance carries them."""
    counts = inst.lamination_counts
    if counts is None:
        return None
    lhs_roles, terms_roles = term_curves
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


def _verify_arc_arc(tri, inst):
    g1, g2 = inst.curve("gamma1"), inst.curve("gamma2")
    a1, a2 = inst.curve("alpha1"), inst.curve("alpha2")
    b1, b2 = inst.curve("beta1"), inst.curve("beta2")
    pa1 = path_for_curve(tri, a1).steps
    pa2 = path_for_curve(tri, a2).steps
    loose_b1 = LoosenedMPath(inst.sigma1, path_for_curve(tri, b1),
                             inst.sigma2)
    lb1 = loose_b1.steps()

    mono_g1 = _match_composite(tri, pa2 + lb1, g1, "gamma1")
    mono_g2 = _match_composite(tri, lb1 + pa1, g2, "gamma2")
    mono_b2 = _match_composite(tri, pa2 + lb1 + pa1, b2, "beta2")
    mono_b1 = _match_composite(tri, lb1, b1, "beta1")
    for label in tri.arcs:
        if mono_b1.exponent2(("Y", label)) \
                != -loose_b1.signed_excess(label):
            raise IsotopyMismatch(
                "walk crossings of %r disagree with the matrix reading"
                % (label,))

    shift = mono_g1.mul(mono_g2).inverse()
    coeff_a = shift
    coeff_b = shift.mul(mono_b1).mul(mono_b2)
    lhs = _chi_bar_curve(tri, g1) * _chi_bar_curve(tri, g2)
    prod_a = _chi_bar_curve(tri, a1) * _chi_bar_curve(tri, a2)
    prod_b = _chi_bar_curve(tri, b1) * _chi_bar_curve(tri, b2)
    s1, s2 = _resolve_signs(
        lhs, prod_a * Poly.from_mono(coeff_a),
        prod_b * Poly.from_mono(coeff_b))
    hat_coeffs = _hat_identity(
        tri, [g1, g2],
        [(s1, [a1, a2], coeff_a), (s2, [b1, b2], coeff_b)])
    agree = _check_lamination(
        inst, hat_coeffs,
        (["gamma1", "gamma2"], [["alpha1", "alpha2"], ["beta1", "beta2"]]))
    return SkeinReport(ARC_ARC, lhs, (s1, s2), hat_coeffs,
                       (prod_a, prod_b), agree)


def _verify_with_loop(tri, inst):
    g1, g2 = inst.curve("gamma1"), inst.curve("gamma2")
    a, b = inst.curve("alpha"), inst.curve("beta")
    if g2.kind != "loop":
        raise SkeinError("the second curve must be a loop")
    steps1 = path_for_curve(tri, g1).steps
    steps2 = rotate_loop(path_for_curve(tri, g2).steps, inst.loop_rotation)
    if g1.kind == "loop":
        head, tail = steps1, []
    else:
        k = inst.split_index
        if not 0 <= k <= len(steps1):
            raise SkeinError("split index out of range")
        head, tail = steps1[:k], steps1[k:]
    mono_a = _match_composite(tri, head + steps2 + tail, a, "alpha")
    mono_b = _match_composite(tri, head + invert_steps(steps2) + tail,
                              b, "beta")
    lhs = _chi_bar_curve(tri, g1) * _chi_bar_curve(tri, g2)
    term_a = _chi_bar_curve(tri, a) * Poly.from_mono(mono_a)
    term_b = _chi_bar_curve(tri, b) * Poly.from_mono(mono_b)
    s1, s2 = _resolve_signs(lhs, term_a, term_b)
    hat_coeffs = _hat_identity(
        tri, [g1, g2], [(s1, [a], mono_a), (s2, [b], mono_b)])
    agree = _check_lamination(
        inst, hat_coeffs, (["gamma1", "gamma2"], [["alpha"], ["beta"]]))
    return SkeinReport(WITH_LOOP, lhs, (s1, s2), hat_coeffs,
                       (_chi_bar_curve(tri, a), _chi_bar_curve(tri, b)),
                       agree)


def _verify_self_intersection(tri, inst):
    g = inst.curve("gamma")
    a1, a2 = inst.curve("alpha1"), inst.curve("alpha2")
    b = inst.curve("beta")
    base = Curve(g.kind, g.crossings, g.start_triangle, g.end_triangle,
                 g.basepoint_triangle, kinks=0)
    steps = path_for_curve(tri, base).steps
    k = inst.split_index
    if not 0 <= k <= len(steps):
        raise SkeinError("split index out of range")
    insert = list(inst.insert_steps)
    if not insert:
        raise SkeinError("self-intersection instances need circuit steps")
    _match_composite(tri, steps[:k] + insert + steps[k:], g, "gamma")
    mono_a1 = _match_composite(tri, insert, a1, "alpha1")
    mono_a2 = _match_composite(tri, steps, a2, "alpha2")
    mono_b = _match_composite(
        tri, steps[:k] + invert_steps(insert) + steps[k:], b, "beta")
    lhs = _chi_bar_curve(tri, g)
    term_a = (_chi_bar_curve(tri, a1) * _chi_bar_curve(tri, a2)
              * Poly.from_mono(mono_a1.mul(mono_a2)))
    term_b = _chi_bar_curve(tri, b) * Poly.from_mono(mono_b)
    s1, s2 = _resolve_signs(lhs, term_a, term_b)
    hat_coeffs = _hat_identity(
        tri, [g],
        [(s1, [a1, a2], mono_a1.mul(mono_a2)), (s2, [b], mono_b)])
    agree = _check_lamination(
        inst, hat_coeffs, (["gamma"], [["alpha1", "alpha2"], ["beta"]]))
    return SkeinReport(SELF_INTERSECTION, lhs, (s1, s2), hat_coeffs,
                       (term_a, term_b), agree)


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
        coeff = ys[0][0]
        for v, e in coeff.items():
            if e % 2:
                raise NotAMonomialCoefficient(
                    "coefficient exponent of %s is half-integral"
                    % format_var(v))
        out.append((coeff, sides))
    check = Poly.zero()
    for coeff, sides in out:
        check = check + Poly.from_mono(coeff.mul(sides))
    if check != product:
        raise IdentityFailed("side-product reassembly failed")
    return out


# -- JSON interchange ------------------------------------------------------


_INSTANCE_KEYS = {"variant", "curves", "sigma1", "sigma2", "split_index",
                  "loop_rotation", "insert", "lamination_counts"}


def instance_from_dict(doc, named_curves=()):
    """Build a SkeinInstance from a JSON object. Curves may be given
    inline (as curve objects) or by name, resolved against
    ``named_curves``."""
    if not isinstance(doc, dict):
        raise ValidationError("instance document must be an object")
    _reject_unknown(doc, _INSTANCE_KEYS, "instance")
    by_name = {c.name: c for c in named_curves if c.name}
    curves = {}
    for role, val in _typed(doc, "curves", dict, {}).items():
        if isinstance(val, str):
            if val not in by_name:
                raise ValidationError("unknown curve name %r" % (val,))
            curves[role] = by_name[val]
        elif isinstance(val, dict):
            curves[role] = curve_from_dict(val)
        else:
            raise ValidationError("bad curve reference %r" % (val,))
    if doc.get("lamination_counts") is not None:
        for role, counts in _typed(doc, "lamination_counts", dict,
                                   None).items():
            if not isinstance(counts, dict) or not all(
                    type(n) is int for n in counts.values()):
                raise ValidationError(
                    "lamination counts of %r must map labels to integers, "
                    "not %r" % (role, counts))
    return SkeinInstance(
        variant=doc.get("variant"),
        curves=curves,
        sigma1=parse_steps(_typed(doc, "sigma1", str, "")),
        sigma2=parse_steps(_typed(doc, "sigma2", str, "")),
        split_index=doc.get("split_index", 0),
        loop_rotation=doc.get("loop_rotation", 0),
        insert_steps=parse_steps(_typed(doc, "insert", str, "")),
        lamination_counts=doc.get("lamination_counts"),
    )
