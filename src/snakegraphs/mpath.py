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
    MPathError,
    StepFormatError,
    path_matrix,
    pivot,
    shear,
    twist,
)
from .surface import graph_for, specialize


class MixedSigns(MPathError):
    """A matrix entry whose coefficients do not share a sign."""


def invert_steps(steps):
    """Reverse the sequence and invert each step.

    Exact for shears and pivots; for twists the direction flip inverts
    the reduced matrix (the unreduced matrices differ by a monomial
    factor, which the absolute-value readings absorb).
    """
    flipped = []
    for s in reversed(steps):
        if s.kind == 1:
            flipped.append(shear(s.tau, s.tau_prime, s.sigma,
                                 CW if s.mode == CCW else CCW))
        elif s.kind == 2:
            flipped.append(twist(s.tau, CW if s.mode == CCW else CCW))
        else:
            flipped.append(pivot(s.tau, -s.mode))
    return flipped


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
        m = path_matrix(self.steps, reduced)
        return abs_poly(m.trace() if self.closed else m.upper_right())


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
    if s.kind != 1:
        raise MPathError("step %d is not a shear" % index)
    if s.mode == CW:
        sg, d = -1, CCW
    else:
        sg, d = 1, CW
    block = [
        pivot(s.tau, sg),
        shear(s.tau, s.sigma, s.tau_prime, d),
        pivot(s.sigma, sg),
        shear(s.sigma, s.tau_prime, s.tau, d),
        pivot(s.tau_prime, sg),
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
    if a.kind == 2 and b.kind == 3:
        pair = [b, twist(a.tau, CW if a.mode == CCW else CCW)]
    elif a.kind == 3 and b.kind == 2:
        pair = [twist(b.tau, CW if b.mode == CCW else CCW), a]
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


def format_steps(steps):
    lines = []
    for s in steps:
        if s.kind == 1:
            lines.append("1 %s %s %s %s" % (
                s.mode, format_var(s.tau), format_var(s.tau_prime),
                format_var(s.sigma)))
        elif s.kind == 2:
            lines.append("2 %s %s" % (s.mode, format_var(s.tau)))
        else:
            lines.append("3 %s %s" % ("+" if s.mode == 1 else "-",
                                      format_var(s.tau)))
    return "\n".join(lines)


def parse_steps(text):
    steps = []
    for raw in text.splitlines():
        line = raw.strip()
        if not line:
            continue
        parts = line.split()
        try:
            if parts[0] == "1" and len(parts) == 5:
                steps.append(shear(parse_var(parts[2]),
                                   parse_var(parts[3]),
                                   parse_var(parts[4]), parts[1]))
            elif parts[0] == "2" and len(parts) == 3:
                steps.append(twist(parse_var(parts[2]), parts[1]))
            elif parts[0] == "3" and len(parts) == 3:
                if parts[1] not in ("+", "-"):
                    raise StepFormatError("bad pivot sign %r" % (parts[1],))
                steps.append(pivot(parse_var(parts[2]),
                                   1 if parts[1] == "+" else -1))
            else:
                raise StepFormatError("bad step line %r" % (line,))
        except StepFormatError:
            raise
        except (IndexError, ValueError) as exc:
            raise StepFormatError("bad step line %r" % (line,)) from exc
    return steps
