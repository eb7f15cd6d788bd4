"""Matrix paths: step sequences whose 2x2 products expand curves.

Each step carries one of three elementary matrices over the Laurent
ring: a shear, a twist or a pivot (defined in snakecore, next to the
snake and band graphs whose standard step sequences they make up). The
product of a curve's standard step sequence recovers the curve's
expansion: through the upper right entry for arcs, through the trace for
loops.

Steps are listed in traversal order; the product multiplies later steps
on the left.
"""

from __future__ import annotations

from .algebra import format_var, parse_var
from .snakecore import (
    CCW,
    CW,
    PIVOT,
    SHEAR,
    TWIST,
    MPathError,
    StepFormatError,
    path_matrix,
    path_reading,
    pivot,
    shear,
    twist,
)
from .surface import graph_for, specialize


class MixedSigns(MPathError):
    """A matrix entry whose coefficients do not share a sign."""


def invert_steps(steps):
    """Reverse the sequence and invert each step by negating its mode.

    Exact for shears and pivots; for twists the direction flip inverts
    the reduced matrix (the unreduced matrices differ by a monomial
    factor, which the absolute-value readings absorb).
    """
    return [s._replace(mode=-s.mode) for s in reversed(steps)]


def abs_poly(p):
    """The polynomial up to a global sign; all coefficients must agree."""
    signs = p.coefficient_signs()
    if signs == {1, -1}:
        raise MixedSigns("entry has coefficients of both signs")
    return -p if signs == {-1} else p


class MPath:
    """A step sequence together with its reading convention."""

    def __init__(self, steps, closed=False):
        self.steps = list(steps)
        self.closed = closed

    def value(self, reduced=False):
        return abs_poly(path_reading(self.steps, self.closed, reduced))


# -- standard sequences ----------------------------------------------------


def path_for_curve(tri, curve):
    """The standard step sequence of an arc or a loop, read off its snake
    or band graph."""
    return MPath(graph_for(tri, curve).steps(), closed=curve.kind == "loop")


# -- specializations -------------------------------------------------------


def chi_hat(path):
    return path.value(reduced=False)


def chi_bar(path):
    return path.value(reduced=True)


def chi(tri, path, keep_boundary=False):
    """The curve expansion: the unreduced reading pushed through the
    tagged-arc coefficient map and the noose rewriting."""
    return specialize(tri, chi_hat(path), keep_boundary)


# -- local adjustments -----------------------------------------------------


def reroute_shear(steps, index):
    """Replace the shear at ``index`` by the five-step detour around the
    other side of its triangle. The product picks up a global sign, so
    absolute readings are unchanged."""
    s = steps[index]
    if s.kind != SHEAR:
        raise MPathError("step %d is not a shear" % index)
    m = -s.mode  # the detour turns the other way
    block = [
        pivot(s.tau, m),
        shear(s.tau, s.sigma, s.tau_prime, m),
        pivot(s.sigma, m),
        shear(s.sigma, s.tau_prime, s.tau, m),
        pivot(s.tau_prime, m),
    ]
    return steps[:index] + block + steps[index + 1:]


def insert_backtrack(steps, index, tau):
    """Insert a pivot immediately undone by its inverse."""
    return steps[:index] + [pivot(tau, 1), pivot(tau, -1)] + steps[index:]


def swap_twist_pivot(steps, index):
    """Exchange an adjacent twist and pivot, reversing the twist; the
    product is unchanged because antidiagonal factors conjugate the two
    diagonal forms into each other."""
    a, b = steps[index], steps[index + 1]
    if a.kind == TWIST and b.kind == PIVOT:
        pair = [b, a._replace(mode=-a.mode)]
    elif a.kind == PIVOT and b.kind == TWIST:
        pair = [b._replace(mode=-b.mode), a]
    else:
        raise MPathError("steps %d, %d are not a twist and pivot pair"
                         % (index, index + 1))
    return steps[:index] + pair + steps[index + 2:]


def prepend_shear(steps, tau, tau_prime, sigma, direction=CW):
    """Start an open path with an extra shear; the upper right entry of
    the product never sees it."""
    return [shear(tau, tau_prime, sigma, direction)] + steps


def rotate_loop(steps, k):
    """Cyclically rotate a closed path's steps; the trace is unchanged."""
    k %= len(steps)
    return steps[k:] + steps[:k]


# -- text form -------------------------------------------------------------


# A step is written as its kind's digit, the word for its mode and its
# labels. Each kind's constructor, words by mode and number of labels:
_TEXT_FORMS = {
    SHEAR: (shear, {CW: "cw", CCW: "ccw"}, 3),
    TWIST: (twist, {CW: "cw", CCW: "ccw"}, 1),
    PIVOT: (pivot, {1: "+", -1: "-"}, 1),
}
_BY_DIGIT = {str(kind): (make, {w: m for m, w in words.items()}, n)
             for kind, (make, words, n) in _TEXT_FORMS.items()}


def format_steps(steps):
    lines = []
    for s in steps:
        _, words, n = _TEXT_FORMS[s.kind]
        labels = (s.tau, s.tau_prime, s.sigma)[:n]
        lines.append(" ".join([str(s.kind), words[s.mode]]
                              + [format_var(v) for v in labels]))
    return "\n".join(lines)


def parse_steps(text):
    steps = []
    for raw in text.splitlines():
        line = raw.strip()
        parts = line.split()
        if not parts:
            continue
        form = _BY_DIGIT.get(parts[0])
        if form is None or len(parts) != form[2] + 2:
            raise StepFormatError("bad step line %r" % (line,))
        make, modes, _ = form
        try:
            labels = [parse_var(p) for p in parts[2:]]
            # an unknown word reaches the constructor, which names it
            steps.append(make(*labels, modes.get(parts[1], parts[1])))
        except StepFormatError:
            raise
        except ValueError as exc:
            raise StepFormatError("bad step line %r" % (line,)) from exc
    return steps
