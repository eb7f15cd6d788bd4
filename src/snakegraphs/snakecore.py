"""Abstract snake and band graphs, their matchings, and transfer matrices.

A snake graph is a row of unit square tiles glued north or east. Every
edge carries a variable label. The two computation routes implemented
here, summing over perfect matchings and multiplying 2x2 transfer
matrices, must agree exactly.

The transfer matrices are products of elementary steps: shears, twists
and pivots. Each graph builds its standard step sequence from its own
labels; the transfer matrix of a snake is the product of its tile
transitions, and the product of the whole sequence reads off the
expansion.

Grid conventions (frozen, everything else depends on them):

  * turn j, from tile j into tile j+1, is counterclockwise exactly
    when shape letter j repeats the letter before it (NORTH before the
    first), and clockwise otherwise;
  * tile 0 sits at the origin, and tile j+1 is one step north of tile j
    when turn j is counterclockwise and j even, or clockwise and j odd,
    and one step east otherwise;
  * the south edge of tile 0 is corner ``a`` and the west edge corner
    ``b``;
  * a north glue step puts the glue label on the shared horizontal edge,
    the next diagonal label on the east edge of the lower tile, and the
    previous diagonal label on the west edge of the upper tile; an east
    glue step is the mirror image;
  * on the last tile, corner ``w`` is the north edge and ``z`` the east
    edge when the number of tiles is odd, and the other way around when
    it is even.
"""

from __future__ import annotations

from array import array
from itertools import compress, groupby
from operator import itemgetter
from sys import byteorder
from typing import NamedTuple

from .algebra import Mat2, Mono, Poly, SnakeGraphsError, format_var

NORTH = "N"
EAST = "E"
# Every orientation is a sign: a step's mode, and a curve's turn.
CW = 1
CCW = -1
# The step kinds, numbered as in the text form.
SHEAR = 1
TWIST = 2
PIVOT = 3


class SnakeError(SnakeGraphsError):
    pass


class LengthMismatch(SnakeError):
    """Label or shape sequences of inconsistent lengths."""


class DegenerateBand(SnakeError):
    """Band graphs need at least two tiles."""


class MPathError(SnakeGraphsError):
    pass


class StepFormatError(MPathError):
    pass


class ProductTooWide(MPathError):
    """A step product whose exponents no packed digit can hold."""


def _curly(vid):
    """The per-tile coefficient variable attached to a diagonal label."""
    return ("Y", vid[1])


def _check_labels(*labels):
    """Pass labels through the validating Mono once, where they enter;
    everything built from them later is trusted."""
    Mono([(v, 2) for v in labels])


def _monomial(vids):
    """The product of the given variables, which were checked where they
    entered; a repeated variable is raised to its multiplicity, so no
    exponent is zero. The hash is summed in the same loop."""
    d, h = {}, 0
    for v in vids:
        d[v] = d.get(v, 0) + 2
        h += hash(v)
    return Mono._hashed(d, 2 * h)


def _matching_sum(rows):
    """The sum of weight times height over (matching, weight, height)
    rows. A weight holds edge labels, of kind "x" or "b", and a height
    only kind "Y", so each term is the union of the two."""
    d = {}
    for _, w, h in rows:
        m = w._mul_disjoint(h)
        d[m] = d.get(m, 0) + 1
    return Poly._trusted(d)


def _term(exps, coeff=1):
    """The one-term polynomial coeff times the monomial with doubled
    exponents ``exps``, built from checked labels without a second
    check."""
    return Poly._trusted({Mono._trusted(exps): coeff})


# -- elementary steps --------------------------------------------------------


class Step(NamedTuple):
    """One elementary step: a SHEAR with tau, tau_prime and sigma set, or
    a TWIST or PIVOT with only tau set. The mode is a sign: CW or CCW
    for a shear or twist, and the sign of a pivot's matrix; inverting a
    step negates it."""

    kind: int
    tau: tuple
    tau_prime: tuple
    sigma: tuple
    mode: int


def _step(kind, mode, *labels):
    """The one check of a step: its mode is +1 or -1 (True, though equal
    to 1, is refused) and its labels read back."""
    if type(mode) is not int or mode not in (CW, CCW):
        raise StepFormatError("bad %s %r" % (
            ("shear direction", "twist direction", "pivot sign")[kind - 1],
            mode))
    _check_labels(*labels)
    return Step(kind, *(labels + (None, None))[:3], mode)


def shear(tau, tau_prime, sigma, direction):
    return _step(SHEAR, direction, tau, tau_prime, sigma)


def twist(tau, direction):
    return _step(TWIST, direction, tau)


def pivot(tau, sign):
    return _step(PIVOT, sign, tau)


def step_matrix(step, reduced=False):
    """The 2x2 matrix of one step.

    A shear is unit lower triangular, a twist is diagonal in the per-tile
    coefficient variable, and a pivot is antidiagonal; each is signed or
    ordered by the step's mode. With ``reduced`` set, twists split their
    coefficient variable into two half powers so that negating the mode
    inverts the matrix; unreduced, both halves carry one more half
    power. The step's labels were checked when it was built, so no entry
    is checked again.
    """
    zero, m = Poly._trusted({}), step.mode
    if step.kind == SHEAR:
        e = {step.sigma: 2}
        for v in (step.tau, step.tau_prime):  # labels may coincide
            e[v] = e.get(v, 0) - 2
        one = _term({})
        return Mat2._trusted(one, zero, _term(e, m), one)
    if step.kind == TWIST:
        y, half = _curly(step.tau), 0 if reduced else 1
        return Mat2._trusted(_term({y: half - m}), zero, zero,
                             _term({y: half + m}))
    if step.kind == PIVOT:
        return Mat2._trusted(zero, _term({step.tau: 2}, m),
                             _term({step.tau: -2}, -m), zero)
    raise StepFormatError("unknown step kind %r" % (step.kind,))


# Packed digit widths in bits, each with the signed array typecode that
# reads it.
_DIGITS = ((16, "h"), (32, "i"), (64, "q"))


class _Packing:
    """The monomials of one product as packed ints.

    The variables of the factors and of the steps are numbered, and a
    variable's unit key is (1 << (bits * i)) + (hash(v) << top), where
    ``top`` is the width of the numbered digits. A monomial's key is the
    sum of its doubled exponents e_i times the units, so its low ``top``
    bits hold the e_i as signed digits and the bits above hold its hash,
    which is linear in the exponents too (``algebra._hash_of``). A
    product of monomials is then a sum of keys as long as no digit
    overflows, so ``bits`` is chosen wider than the sum over the factors
    of their largest exponent: the largest in the start polynomials
    ``polys``, then 2 for each twist or pivot in ``steps`` and 4 for each
    shear, whose labels may coincide.
    """

    def __init__(self, polys, steps=()):
        index, bound = {}, 0
        for p in polys:
            for m, _ in p.coefficients():
                for v, e in m.exponents():
                    index.setdefault(v, len(index))
                    if e > bound or -e > bound:
                        bound = abs(e)
        for s in steps:
            if s.kind == SHEAR:
                labels, most = (s.sigma, s.tau, s.tau_prime), 4
            else:
                labels = (_curly(s.tau) if s.kind == TWIST else s.tau,)
                most = 2
            for v in labels:
                index.setdefault(v, len(index))
            bound += most
        for bits, code in _DIGITS:
            if bound < 1 << (bits - 1):
                break
        else:
            raise ProductTooWide("exponents up to %d overflow a packed "
                                 "digit" % bound)
        top = bits * len(index)
        self.unit = {v: (1 << (bits * i)) + (hash(v) << top)
                     for v, i in index.items()}
        self.code, self.size, self.top = code, bits // 8 * len(index), top
        # 1 << (bits - 1) in every digit: a geometric series
        self.bias = ((1 << top) - 1) // ((1 << bits) - 1) << (bits - 1)
        # in native order, to_bytes puts digit 0 last on a big-endian host
        self.names = list(index)[::1 if byteorder == "little" else -1]

    def pack(self, p):
        """The (key, coefficient) pairs of a polynomial."""
        unit = self.unit
        return [(sum(e * unit[v] for v, e in m.exponents()), c)
                for m, c in p.coefficients()]

    def unpack(self, entry):
        """The polynomial of a dict from key to nonzero coefficient.

        Adding the bias makes every digit e_i + 2^(bits - 1), which lies
        in [0, 2^bits), and leaves the hash above bit ``top``. Flipping
        the top bit of each digit back then leaves e_i in two's
        complement, so the digits read as signed ints, and the nonzero
        ones select their variables.
        """
        code, size, bias, names = self.code, self.size, self.bias, self.names
        top, low = self.top, (1 << self.top) - 1
        out = {}
        for key, c in entry.items():
            key += bias
            digits = array(code, ((key ^ bias) & low).to_bytes(size,
                                                                byteorder))
            out[Mono._hashed(dict(compress(zip(names, digits), digits)),
                             key >> top)] = c
        return Poly._trusted(out)


def _packed_fold(steps, reduced, columns, scale=None):
    """The given columns, each 0 or 1, of the product of a step sequence
    on packed keys: a (top, bottom) pair of entries per column, and the
    function that reads an entry back as a polynomial. An entry is an
    [entry dict, offset, sign] list that stands for the dict from key +
    offset to sign * coefficient.

    The steps before the first twist are multiplied out as Mat2, times
    the polynomial ``scale`` when one is given, because that start has
    the fewest terms; a sequence that opens with a twist starts from the
    identity. Every later step is one monomial per entry: a twist moves
    both offsets, a pivot swaps the entries, moves their offsets and
    signs them, and a shear adds its top entry into its bottom one in
    place. No entry dict is shared, so none is copied.
    """
    steps = list(steps)
    first = next((i for i, s in enumerate(steps) if s.kind == TWIST),
                 len(steps))
    head = None
    for s in steps[:first]:
        m = step_matrix(s, reduced)
        head = m if head is None else m * head
    if head is None:
        head = Mat2.identity()
    start = [((head.a, head.c), (head.b, head.d))[i] for i in columns]
    if scale is not None:
        start = [(scale * top, scale * bottom) for top, bottom in start]
    rest = steps[first:]
    packing = _Packing([p for col in start for p in col], rest)
    pack, unit, half = packing.pack, packing.unit, 0 if reduced else 1
    cols = [[dict(pack(top)), 0, 1, dict(pack(bottom)), 0, 1]
            for top, bottom in start]
    for s in rest:
        m = s.mode
        if s.kind == TWIST:
            y = unit[_curly(s.tau)]
            up, down = (half - m) * y, (half + m) * y
            for col in cols:
                col[1] += up
                col[4] += down
        elif s.kind == PIVOT:
            t = 2 * unit[s.tau]
            for col in cols:
                top, toff, tsign, bottom, boff, bsign = col
                col[:] = bottom, boff + t, m * bsign, top, toff - t, -m * tsign
        else:
            x = 2 * (unit[s.sigma] - unit[s.tau] - unit[s.tau_prime])
            for top, toff, tsign, bottom, boff, bsign in cols:
                shift, f = toff + x - boff, m * tsign * bsign
                get = bottom.get
                for k, c in top.items():
                    k += shift
                    c = get(k, 0) + f * c
                    if c:
                        bottom[k] = c
                    else:
                        del bottom[k]

    def read(entry):
        d, offset, sign = entry
        return packing.unpack({k + offset: sign * c for k, c in d.items()})

    return read, [(col[:3], col[3:]) for col in cols]


def path_matrix(steps, reduced=False):
    """Product of a step sequence; later steps multiply on the left.

    The steps after the first twist act on packed keys, one monomial per
    entry (``_packed_fold``).
    """
    read, ((a, c), (b, d)) = _packed_fold(steps, reduced, (0, 1))
    return Mat2._trusted(*map(read, (a, b, c, d)))


def path_reading(steps, closed, reduced=False, scale=None):
    """The trace of ``path_matrix(steps, reduced)`` when ``closed``, else
    its upper-right entry, times the polynomial ``scale`` when given.

    Only the entries read are turned back into polynomials, and an open
    reading carries only the second column of the product.
    """
    if closed:
        read, ((a, _), (_, d)) = _packed_fold(steps, reduced, (0, 1), scale)
        return read(a) + read(d)
    read, ((b, _),) = _packed_fold(steps, reduced, (1,), scale)
    return read(b)


def shape_word(turns):
    """The shape word of a curve that turns by the given signs: the
    inverse of the turn rule, so letter j repeats the letter before it
    (NORTH before the first) exactly at a counterclockwise turn."""
    word, up = [], True
    for turn in turns:
        up ^= turn == CW
        word.append(NORTH if up else EAST)
    return word


class SnakeGraph:
    """A labelled snake graph on ``d`` tiles.

    ``diagonals`` has length d, ``shapes`` and ``glue_labels`` length
    d - 1. All labels are variable ids (kind, label) with kind "x" or
    "b".
    """

    def __init__(self, diagonals, shapes, glue_labels,
                 corner_a, corner_b, corner_w, corner_z):
        self.diagonals = tuple(diagonals)
        self.shapes = tuple(shapes)
        self.glue_labels = tuple(glue_labels)
        self.corner_a = corner_a
        self.corner_b = corner_b
        self.corner_w = corner_w
        self.corner_z = corner_z
        d = len(self.diagonals)
        if d < 1:
            raise LengthMismatch("a snake graph needs at least one tile")
        if len(self.shapes) != d - 1:
            raise LengthMismatch(
                "expected %d shapes, got %d" % (d - 1, len(self.shapes)))
        if len(self.glue_labels) != d - 1:
            raise LengthMismatch(
                "expected %d glue labels, got %d"
                % (d - 1, len(self.glue_labels)))
        for s in self.shapes:
            if s not in (NORTH, EAST):
                raise SnakeError("bad shape %r" % (s,))
        labels = (*self.diagonals, *self.glue_labels,
                  corner_a, corner_b, corner_w, corner_z)
        _check_labels(*labels)
        for v in labels:
            if v[0] not in ("x", "b"):
                raise SnakeError("a graph's labels are of kind x or b, "
                                 "not %s" % format_var(v))
        self._build()

    @property
    def d(self):
        return len(self.diagonals)

    def _build(self):
        d = self.d
        word = (NORTH,) + self.shapes
        # the turn rule: whether turn j is counterclockwise
        self._ccw = [word[j + 1] == word[j] for j in range(d - 1)]
        self._curlies = tuple(map(_curly, self.diagonals))
        # whether tile j + 1 lies north of tile j, rather than east
        north = [ccw == (j % 2 == 0) for j, ccw in enumerate(self._ccw)]
        pos = [(0, 0)]
        for up in north:
            px, py = pos[-1]
            pos.append((px, py + 1) if up else (px + 1, py))
        self.positions = pos
        # each tile's south, west, north and east sides, as sorted
        # vertex pairs
        self._sides = []
        for px, py in pos:
            sw, nw = (px, py), (px, py + 1)
            se, ne = (px + 1, py), (px + 1, py + 1)
            self._sides.append(((sw, se), (sw, nw), (nw, ne), (se, ne)))
        S, W, N, E = range(4)
        first, last = self._sides[0], self._sides[-1]
        labels = {first[S]: self.corner_a, first[W]: self.corner_b}
        glue_keys = []
        for j in range(d - 1):
            lo, hi = self._sides[j], self._sides[j + 1]
            # a north step glues on the north side, an east step mirrors it
            glue, side, back = (N, E, W) if north[j] else (E, N, S)
            labels[lo[glue]] = self.glue_labels[j]
            labels[lo[side]] = self.diagonals[j + 1]
            labels[hi[back]] = self.diagonals[j]
            glue_keys.append(lo[glue])
        w, z = (N, E) if d % 2 == 1 else (E, N)
        labels[last[w]] = self.corner_w
        labels[last[z]] = self.corner_z
        self.edge_labels = labels
        self.glue_keys = tuple(glue_keys)
        self.edge_key_a = first[S]
        self.edge_key_w = last[w]
        self.edge_key_z = last[z]
        self.vertices = sorted({v for key in labels for v in key})

    # -- matchings ---------------------------------------------------------

    def _leaves(self):
        """The walk's (flipped tiles, enclosure) once per perfect matching:
        the tiles whose enclosure changed since the previous matching
        (none at the first, the minimal one), and a live list of whether
        each tile is enclosed, changed in place when the walk moves on.

        A matching is the minimal one with the four sides of each tile it
        encloses toggled. The enclosed sets are the 0/1 words on the tiles
        that avoid (1, 0) where the turn into the next tile is
        counterclockwise and (0, 1) where it is clockwise: the order
        ideals of a fence on the tiles. The walk is depth-first over the
        tiles, with a stack rather than recursion. Between two leaves it
        sets each tile from the branch point on exactly once and undoes
        nothing when it backs up, so a tile is flipped only where the two
        matchings differ.
        """
        d, ccw = self.d, self._ccw
        inside, flips = [False] * d, []
        todo = [(0, True), (0, False)]  # (tile, enclosed) still to visit
        while todo:
            j, enclosed = todo.pop()
            if inside[j] != enclosed:
                inside[j] = enclosed
                flips.append(j)
            if j + 1 == d:
                yield flips, inside
                flips = []
            else:  # tile j + 1, skipping the pair this turn forbids
                if enclosed or ccw[j]:
                    todo.append((j + 1, True))
                if not (enclosed and ccw[j]):
                    todo.append((j + 1, False))

    def perfect_matchings(self, _rows=None):
        """All perfect matchings: the minimal one first, then by height
        degree, height and, between equal heights, sorted edges.

        Each leaf of ``_leaves`` toggles the sides of its flipped tiles in
        one edge set and builds its matching, weight and height once, and
        stores (weight, height) under the matching in ``_rows`` when a
        dict is given.
        """
        rows = {} if _rows is None else _rows
        sides, tiles = self._sides, range(self.d)
        current = set(self.minimal_matching())
        for flips, inside in self._leaves():
            for j in flips:
                current.symmetric_difference_update(sides[j])
            # a tuple, so that the frozenset gets a table of its own size
            m = frozenset(tuple(current))
            rows[m] = (self.weight_mono(m),
                       self.height_mono(compress(tiles, inside)))

        # Heights hold only kind "Y", so the ranks of their variables,
        # paired with exponents, sort as their items do.
        rank = {v: i for i, v in enumerate(sorted(set(self._curlies)))}

        def order(height):
            return height.degree2(), sorted([(rank[v], e)
                                             for v, e in height.exponents()])

        keyed = sorted([(order(h), m) for m, (_, h) in rows.items()],
                       key=itemgetter(0))
        out = []
        for _, run in groupby(keyed, itemgetter(0)):
            run = [m for _, m in run]
            out += sorted(run, key=sorted) if len(run) > 1 else run
        return out

    def minimal_matching(self):
        """The all-boundary matching that contains the corner ``a`` edge:
        the south and north sides of the even tiles and the west and
        east sides of the odd tiles, less the glue edges."""
        glue = set(self.glue_keys)
        return frozenset(side for j, tile in enumerate(self._sides)
                         for side in tile[j % 2::2] if side not in glue)

    def weight_mono(self, matching):
        return _monomial(map(self.edge_labels.__getitem__, matching))

    def height_mono(self, enclosed):
        """The height of the matching that encloses the given tiles,
        relative to the minimal one: the product of their diagonals'
        coefficient variables."""
        return _monomial(map(self._curlies.__getitem__, enclosed))

    def weighted_matchings(self):
        """(matching, weight, height) for every perfect matching, in the
        order of ``perfect_matchings``; the one source of matching
        terms. Each weight and height is the one the walk built."""
        rows = {}
        return [(m, *rows[m]) for m in self.perfect_matchings(rows)]

    def crossing_mono(self):
        return _monomial(self.diagonals)

    def corner_partition_sums(self):
        """Split the matching sum by which corner edges a matching uses.

        Every perfect matching contains exactly one of the two first-tile
        corner edges (a or b) and exactly one of the last-tile corner
        edges (w or z). The four partial sums, each divided by its own
        normalizing monomial, reproduce the four entries of the transfer
        matrix: returns (top_left, top_right, bottom_left, bottom_right)
        for the classes using (a,w), (b,w), (a,z), (b,z) respectively.
        """
        rows = {"aw": [], "bw": [], "az": [], "bz": []}
        for row in self.weighted_matchings():
            m = row[0]
            key = ("a" if self.edge_key_a in m else "b") + \
                  ("w" if self.edge_key_w in m else "z")
            rows[key].append(row)
        dg = self.diagonals
        a, b, w, z = self.corner_a, self.corner_b, self.corner_w, self.corner_z
        ylast = _curly(dg[-1])
        dens = {"aw": dg[:-1] + (a, w), "bw": dg[1:-1] + (b, w),
                "az": dg + (a, z, ylast), "bz": dg[1:] + (b, z, ylast)}
        return tuple(_matching_sum(rows[key]).div_mono(_monomial(dens[key]))
                     for key in ("aw", "bw", "az", "bz"))

    # -- matrix route ------------------------------------------------------

    def _transitions(self):
        """The steps of the tile transitions: a counterclockwise turn
        takes a twist and a shear, and a clockwise turn a twist, shear,
        pivot and shear. Like the rest of ``steps``, these carry labels
        that were checked when the graph was built."""
        out = []
        for j, ccw in enumerate(self._ccw):
            t0, t1 = self.diagonals[j], self.diagonals[j + 1]
            g = self.glue_labels[j]
            out.append(Step(TWIST, t0, None, None, CW))
            if ccw:
                out.append(Step(SHEAR, t0, t1, g, CW))
            else:
                out += [Step(SHEAR, g, t0, t1, CW),
                        Step(PIVOT, g, None, None, 1),
                        Step(SHEAR, g, t1, t0, CW)]
        return out

    def steps(self):
        """The standard step sequence of the arc: the start steps, the
        tile transitions and the end steps."""
        a, b = self.corner_a, self.corner_b
        w, z = self.corner_w, self.corner_z
        first, last = self.diagonals[0], self.diagonals[-1]
        return ([Step(PIVOT, a, None, None, 1),
                 Step(SHEAR, a, first, b, CW)]
                + self._transitions()
                + [Step(TWIST, last, None, None, CW),
                   Step(SHEAR, last, z, w, CW),
                   Step(PIVOT, z, None, None, 1)])

    def transfer_matrix(self):
        """The product of the tile transitions."""
        return path_matrix(self._transitions())

    def enumerator_by_matrices(self):
        """Crossing monomial times the upper-right entry of the product
        of the standard step sequence."""
        return path_reading(self.steps(), False,
                            scale=Poly.from_mono(self.crossing_mono()))

    def enumerator_by_matchings(self):
        """The sum over perfect matchings of weight times height, in no
        order. One monomial is carried across the walk from the minimal
        matching, as an exponent dict, its hash and which edges and
        enclosed tiles it holds: each flipped tile of ``_leaves`` toggles
        its four sides and itself, the holder of its curly, and each leaf
        adds a copy of the monomial to the sum. Edges and tiles are
        numbered, so a toggle hashes no edge key."""
        labels = self.edge_labels
        ids = {e: i for i, e in enumerate(labels)}
        toggles = [[(ids[e], labels[e], hash(labels[e])) for e in tile]
                   + [(len(ids) + j, y, hash(y))]
                   for j, (tile, y) in enumerate(zip(self._sides,
                                                     self._curlies))]
        held, exps, h = [False] * (len(ids) + self.d), {}, 0
        for e in self.minimal_matching():
            held[ids[e]] = True
            v = labels[e]
            exps[v] = exps.get(v, 0) + 2
            h += hash(v)
        d = {}
        for flips, _ in self._leaves():
            for j in flips:
                for i, v, hv in toggles[j]:
                    if held[i]:
                        held[i] = False
                        n = exps[v] - 2
                        if n:
                            exps[v] = n
                        else:
                            del exps[v]
                        h -= hv
                    else:
                        held[i] = True
                        exps[v] = exps.get(v, 0) + 2
                        h += hv
            m = Mono._hashed(exps.copy(), 2 * h)
            d[m] = d.get(m, 0) + 1
        return Poly._trusted(d)

    # -- output ------------------------------------------------------------

    def to_dot(self):
        lines = ["graph snake {", "  node [shape=point];"]
        for v in self.vertices:
            lines.append('  "%d,%d";' % v)
        for key in sorted(self.edge_labels):
            (x1, y1), (x2, y2) = key
            lines.append('  "%d,%d" -- "%d,%d" [label="%s"];'
                         % (x1, y1, x2, y2,
                            format_var(self.edge_labels[key])))
        for j in range(self.d):
            px, py = self.positions[j]
            lines.append('  "%d,%d" -- "%d,%d" [style=dashed, label="%s"];'
                         % (px, py + 1, px + 1, py,
                            format_var(self.diagonals[j])))
        lines.append("}")
        return "\n".join(lines) + "\n"


class BandGraph:
    """A band graph: a snake graph with its two cut edges identified.

    Constructed from the diagonal labels, shape word, glue labels and the
    single cut label. The underlying snake carries the band labelling:
    corner b holds the last diagonal, corner w the first diagonal, and
    corners a and z both hold the cut label.
    """

    def __init__(self, diagonals, shapes, glue_labels, cut_label):
        if len(tuple(diagonals)) < 2:
            raise DegenerateBand(
                "band graphs need at least two tiles; expand the curve "
                "description or declare the loop contractible")
        self.cut_label = cut_label
        self.base = SnakeGraph(
            diagonals, shapes, glue_labels,
            corner_a=cut_label,
            corner_b=tuple(diagonals)[-1],
            corner_w=tuple(diagonals)[0],
            corner_z=cut_label,
        )

    @property
    def d(self):
        return self.base.d

    def good_matchings(self):
        """Good matchings descended from the base snake's matchings.

        Returns a list of (edge set, weight, height) triples; edge sets
        use the base snake's edge keys with one cut copy removed: the
        copy at corner a when the matching uses it, else the copy at z.
        A matching that uses w but not a never descends.
        """
        base = self.base
        a, w, z = base.edge_key_a, base.edge_key_w, base.edge_key_z
        cut = Mono._trusted({self.cut_label: -2})
        out = []
        for m, weight, h in base.weighted_matchings():
            if a in m:
                out.append((m - {a}, weight.mul(cut), h))
            elif w not in m:
                out.append((m - {z}, weight.mul(cut), h))
        return out

    def crossing_mono(self):
        return self.base.crossing_mono()

    def enumerator_by_matchings(self):
        return _matching_sum(self.good_matchings())

    def steps(self):
        """The standard step sequence of the loop: the tile transitions
        and the closing steps. A loop has no start steps."""
        base = self.base
        first, last = base.diagonals[0], base.diagonals[-1]
        cut = self.cut_label
        return base._transitions() + [
            Step(TWIST, last, None, None, CW),
            Step(SHEAR, cut, last, first, CW),
            Step(PIVOT, cut, None, None, 1),
            Step(SHEAR, cut, first, last, CW)]

    def enumerator_by_matrices(self):
        """Crossing monomial times the trace of the product of the
        standard step sequence."""
        return path_reading(self.steps(), True,
                            scale=Poly.from_mono(self.crossing_mono()))

    def to_dot(self):
        base = self.base
        lines = base.to_dot().rstrip("}\n").split("\n")
        lines.append('  // cut edge: the copies below are identified')
        for key in (base.edge_key_a, base.edge_key_z):
            (x1, y1), (x2, y2) = key
            lines.append('  "%d,%d" -- "%d,%d" [style=bold, color=red];'
                         % (x1, y1, x2, y2))
        lines.append("}")
        return "\n".join(lines) + "\n"
