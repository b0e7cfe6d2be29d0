"""Weyl group elements, parabolic coset representatives and weak-order Hasse diagrams.

An element is its canonical word, the lexicographically least reduced
word, so elements compare and hash by word.  The word falls out of a
greedy descent on the element's image of rho = sum of all fundamental
weights, because

    i is a left descent of w  <=>  the i-th omega-coordinate of w(rho) < 0.

Coset representatives W^Theta are enumerated by breadth-first search on
the W-orbit of lambda_Theta = sum of omega_i over i not in Theta, whose
stabilizer is exactly W_Theta.  The same sign test drives it: at a
representative w with p = w(lambda_Theta), p_i > 0 makes s_i w the next
longer representative and p_i = 0 means s_i fixes p, so each BFS step
follows only the ascents.  The table stores only what the BFS produces:
the lambda-points with their positions, the BFS tree (parent and label)
and the length layers.  Words, their JSON text, WeylElements and the word
index are views derived from the tree on first use: a representative's
word is its BFS parent's with one letter in front, and its text is its
parent's text with that letter put in.  The Hasse diagram and the motive
cut are read off the lambda-points, and the Poincare dual w0 w w_Theta is
the representative at w0(p).

The lambda-points are packed ints, one 8-bit field per coordinate as for
the polynomial monomials: coordinate j plus 128 sits in bits [8j, 8j + 8).
s_i is linear, so s_i p = p - p_i * col_i with col_i the packed i-th Cartan
column, exact while every field stays in range.  Every coordinate on the
orbit is at most max <lambda_Theta, beta^vee> over the positive coroots in
absolute value (61 at most within rootdata.MAX_POSITIVE_ROOTS), and the
table checks that bound against 128 before its BFS.  The BFS, the Hasse
edges, the descents of the motive cut and the Bott-Samelson subword walk
take this step inlined, one label at a time; the dual table calls
`CosetTable._step`.  The packing stays inside this module.

The Poincare polynomial g(X) of G/P_Theta counts the representatives by
length.  Solomon's formula gives it as a ratio of products of t^d - 1
over the Weyl degrees, so a table knows its size g(1) before its BFS and
checks its layer counts against g after it.
"""

from __future__ import annotations

import json
from bisect import bisect_right
from functools import cache, cached_property

from . import univar
from .errors import InternalComputationError, ResourceLimitError, UsageError
from .rootdata import Record, RootSystem, root_subsystem, weyl_degrees

#: |W^Theta| above which a table is refused before its BFS.  Measured with
#: tracemalloc on CPython 3.11 (E7, Theta = {1}: 1,451,520 cosets), the table
#: keeps about 170 bytes per coset (200 at the peak of its BFS), so a table at
#: the cap takes about 1.7 GB (2 GB while it is built).  `word_text` adds about
#: 150 bytes per coset, and a whole `cosets` run peaked at 0.96 GB RSS there,
#: about 660 bytes per coset, or some 6.6 GB at the cap.
DEFAULT_COSET_CAP = 10_000_000

#: a packed lambda-point stores coordinate j as p_j + _BIAS in bits [8j, 8j + 8)
_BITS = 8
_BIAS = 1 << (_BITS - 1)
_MASK = (1 << _BITS) - 1


def apply_word(rs: RootSystem, word, v):
    """Apply s_{word[0]} ... s_{word[-1]} to a weight vector (1-based letters)."""
    for i in reversed(word):
        v = rs.reflect_weight(i - 1, v)
    return v


def _canonical_from_image(rs: RootSystem, v):
    """Greedy lex-least reduced word of the element w with w(rho) = v."""
    rho = rs.rho
    word = []
    v = tuple(v)
    while v != rho:
        for i in range(rs.rank):
            if v[i] < 0:
                word.append(i + 1)
                v = rs.reflect_weight(i, v)
                break
        else:
            raise AssertionError("vector is not in the rho-orbit")
    return tuple(word)


def checked_word(rs: RootSystem, word) -> tuple:
    """word as a tuple of letters, each an int (not a bool) in 1..rank; UsageError otherwise."""
    word = tuple(word)
    for i in word:
        if not isinstance(i, int) or isinstance(i, bool):
            raise UsageError(f"letter {i!r} must be an integer")
        if not 1 <= i <= rs.rank:
            raise UsageError(f"letter {i} out of range 1..{rs.rank}")
    return word


class WeylElement(Record):
    """A Weyl group element as its canonical (lex-least reduced) word, unique per element."""

    __slots__ = ("rs", "word")

    def __init__(self, rs: RootSystem, word: tuple):
        object.__setattr__(self, "rs", rs)
        object.__setattr__(self, "word", word)

    @staticmethod
    def from_word(rs: RootSystem, word) -> "WeylElement":
        word = checked_word(rs, word)
        return WeylElement(rs, _canonical_from_image(rs, apply_word(rs, word, rs.rho)))

    @staticmethod
    def identity(rs: RootSystem) -> "WeylElement":
        return WeylElement(rs, ())

    @property
    def length(self) -> int:
        return len(self.word)

    def act(self, v):
        """Image of a weight vector under this element."""
        return apply_word(self.rs, self.word, v)

    def __mul__(self, other: "WeylElement") -> "WeylElement":
        if self.rs is not other.rs:
            raise UsageError("elements live in different root systems")
        v = apply_word(self.rs, self.word + other.word, self.rs.rho)
        return WeylElement(self.rs, _canonical_from_image(self.rs, v))

    def __repr__(self):
        return f"w{list(self.word)}"


def longest_element(rs: RootSystem, theta) -> WeylElement:
    """Longest element of W_Theta by greedy ascent; theta = all vertices gives w0.

    Never enumerates the group: at w, any i in Theta with w(rho)_i > 0
    satisfies l(s_i w) = l(w) + 1, and the unique maximum has none left.
    """
    theta = sorted(set(theta))
    for i in theta:
        if not 1 <= i <= rs.rank:
            raise UsageError(f"vertex {i} out of range 1..{rs.rank}")
    v = rs.rho
    while True:
        for i in theta:
            if v[i - 1] > 0:
                v = rs.reflect_weight(i - 1, v)
                break
        else:
            return WeylElement(rs, _canonical_from_image(rs, v))


def poincare_polynomial(rs: RootSystem, theta) -> tuple:
    """g(X) for X = G/P_Theta: prod (t^d - 1) over the degrees of W divided by the
    same product over W_Theta (with t - 1 for each vertex outside Theta).

    The division is exact; a nonzero remainder raises InternalComputationError.
    """
    theta = tuple(sorted(set(theta)))
    num = univar.ONE
    for d in weyl_degrees(rs.type):
        num = univar.mul(num, univar.t_power_minus_one(d))
    den = univar.ONE
    sub_degrees = weyl_degrees(root_subsystem(rs, theta))
    for d in sub_degrees:
        den = univar.mul(den, univar.t_power_minus_one(d))
    for _ in range(rs.rank - len(sub_degrees)):
        den = univar.mul(den, univar.t_power_minus_one(1))
    return univar.divide_exact(num, den, "Poincaré")


def orbit_bound(rs: RootSystem, theta) -> int:
    """max over positive coroots beta^vee of <lambda_Theta, beta^vee>.

    Every coordinate <w lambda_Theta, alpha_j^vee> = <lambda_Theta, w^-1 alpha_j^vee>
    of the orbit is at most this in absolute value.
    """
    theta = set(theta)
    outside = [j for j in range(rs.rank) if (j + 1) not in theta]
    return max((sum(pr.coroot[j] for j in outside) for pr in rs.positive_roots), default=0)


class CosetTable:
    """Minimal-length representatives of W/W_Theta, stored as the arrays of their BFS.

    The table keeps what its breadth-first search produces and nothing else
    per representative:
    - `_points` maps each packed lambda_Theta-image to its rep's position,
      in table order (`_lam` is lambda_Theta itself, packed);
    - `parent` and `parent_label` record the BFS tree (rep = s_label * parent);
    - `_layers` bounds the BFS layers: each is one length, so the reps of
      length l (codim dim - l) are the positions `of_length(l)`.
    Reps are ordered by (length, canonical word).  `len`, `max_length`,
    `length` and `codim` read the parent and layer arrays.  The table is
    refused before its BFS when g(1) = |W^Theta| exceeds the cap, and the
    layer sizes are checked against the coefficients of g after it.

    Everything else is a view built on first use, in one pass over the
    parent links: `words` (a rep's canonical word is (label,) + its
    parent's), `word_text` (each word's JSON-array text, made from its
    parent's text), `reps` (the WeylElements, for code that multiplies
    them) and `index` (word -> position).  Renderers print `word_text`, so
    printing a table builds no tuple or element per rep.

    A packed point holds coordinate j plus 128 in bits [8j, 8j + 8), and
    `_step` reflects it; the BFS, `hasse_diagram`, `first_descents` and
    `subword_positions` take the same step inlined, with each label's shift
    and Cartan column hoisted.  Before the BFS the table checks that
    `orbit_bound` is below 128, so every coordinate of the orbit fits its
    field and the packed reflection is exact; a larger bound raises
    InternalComputationError (no accepted type has one).

    The lex-least word of a new point q is (i,) + word(s_i q) for the least
    i with q_i < 0, the greedy rule `_canonical_from_image` applies to rho.
    Scanning labels increasingly and, per label, the previous layer in table
    order meets each new point first through that least label, in (label,
    parent position) order, which is word order: layers come out sorted
    without comparing words.
    """

    def __init__(self, rs: RootSystem, theta, cap: int = DEFAULT_COSET_CAP):
        theta = tuple(sorted(set(theta)))
        for i in theta:
            if not 1 <= i <= rs.rank:
                raise UsageError(f"vertex {i} out of range 1..{rs.rank}")
        self.rs = rs
        self.theta = theta
        g = poincare_polynomial(rs, theta)
        size = sum(g)  # |W^Theta| = g(1), known before any BFS
        if size > cap:
            raise ResourceLimitError(
                f"|W^Theta| = {size} exceeds cap {cap} for type {rs.type.name()}, theta={list(theta)}"
            )
        bound = orbit_bound(rs, theta)
        if bound >= _BIAS:
            raise InternalComputationError(
                f"lambda-orbit coordinates up to {bound} do not fit a {_BITS}-bit field"
            )
        self._cols = tuple(
            sum(a << (_BITS * j) for j, a in enumerate(rs.alpha_omega(i))) for i in range(rs.rank)
        )
        lam = sum((_BIAS + (0 if (j + 1) in theta else 1)) << (_BITS * j) for j in range(rs.rank))

        points = {lam: 0}     # packed lambda-image -> position, in table order
        order = [lam]
        parent = [-1]
        parent_label = [0]
        layers = [0]          # layer l is order[layers[l]:layers[l + 1]]
        start = 0
        while start < len(order):
            end = len(order)
            layers.append(end)
            layer = order[start:end]
            for label, col in enumerate(self._cols, 1):
                shift = _BITS * (label - 1)
                for k, p in enumerate(layer, start):
                    f = (p >> shift) & _MASK
                    if f > _BIAS:  # p_i > 0: an ascent
                        q = p - (f - _BIAS) * col
                        if q not in points:
                            points[q] = len(order)
                            order.append(q)
                            parent.append(k)
                            parent_label.append(label)
            if len(order) > cap:
                raise ResourceLimitError(
                    f"|W^Theta| exceeds cap {cap} for type {rs.type.name()}, theta={list(theta)}"
                )
            start = end

        self.parent = tuple(parent)
        self.parent_label = tuple(parent_label)
        self._layers = tuple(layers)
        if self.graded_counts() != g:
            raise InternalComputationError(
                f"coset layers {list(self.graded_counts())} disagree with the Poincare "
                f"polynomial {list(g)} for type {rs.type.name()}, theta={list(theta)}"
            )
        self._points = points
        self._lam = lam
        self.w0 = longest_element(rs, range(1, rs.rank + 1))
        self.w_theta = longest_element(rs, theta)

    def _step(self, p: int, i: int):
        """(p_i, s_i p) for a packed lambda-point p and a 0-based vertex i.

        p_i > 0 makes s_i p the point of the next longer representative s_i w.
        """
        pi = ((p >> (_BITS * i)) & _MASK) - _BIAS
        return pi, p - pi * self._cols[i]

    def __len__(self):
        return len(self.parent)

    @property
    def max_length(self) -> int:
        """dim G/P_Theta: the length of the longest representative."""
        return len(self._layers) - 2

    def length(self, k: int) -> int:
        """Length of the rep at position k: the layer that holds k."""
        return bisect_right(self._layers, k) - 1

    def codim(self, k: int) -> int:
        """Codimension of the basis class [X_w] for rep index k."""
        return self.max_length - self.length(k)

    def of_length(self, l: int) -> range:
        """Positions of the reps of length l; empty outside 0..max_length."""
        if not 0 <= l <= self.max_length:
            return range(0)
        return range(self._layers[l], self._layers[l + 1])

    def of_codim(self, d: int) -> range:
        """Positions of the basis classes of codimension d; empty outside 0..max_length."""
        return self.of_length(self.max_length - d)

    @cached_property
    def words(self) -> tuple:
        """Canonical word of every position, built on first use: (label,) + the parent's word."""
        words = [()]
        for p, label in zip(self.parent[1:], self.parent_label[1:]):
            words.append((label,) + words[p])
        return tuple(words)

    @cached_property
    def word_text(self) -> tuple:
        """JSON-array text of every canonical word, "[2, 1]" for (2, 1), built on first use.

        A rep's text is its parent's with the label put in front, so no
        word tuple is built and no list is serialized.
        """
        heads = [f"[{label}, " for label in range(self.rs.rank + 1)]
        text = ["[]"]
        for p, label in zip(self.parent[1:], self.parent_label[1:]):
            text.append(heads[label] + text[p][1:] if p else f"[{label}]")
        return tuple(text)

    @cached_property
    def reps(self) -> tuple:
        """The representatives as WeylElements, built on first use."""
        rs = self.rs
        return tuple(WeylElement(rs, w) for w in self.words)

    @cached_property
    def index(self):
        """Canonical word -> position, built on first lookup."""
        return {w: k for k, w in enumerate(self.words)}

    def first_descents(self, labels) -> list:
        """For each position k, the position of s_i w_k for the first i in labels
        (1-based, in the order given) with p_i < 0, or -1 where there is none.

        A left descent i of w_k in W^Theta makes s_i w_k an earlier rep, one
        Hasse edge labelled i below w_k.
        """
        points = self._points
        steps = [(_BITS * (i - 1), self._cols[i - 1]) for i in labels]
        out = []
        for p in points:
            m = -1
            for shift, col in steps:
                f = (p >> shift) & _MASK
                if f < _BIAS:
                    m = points[p - (f - _BIAS) * col]
                    break
            out.append(m)
        return out

    def subword_positions(self, word, top: int) -> dict:
        """mask -> position, for the subwords of a reduced word that are reduced words of
        representatives, over the masks (bit j set: letter j left out) of at most top bits.

        The subword is walked right to left, prepending letters to u, with
        p = u(lambda_Theta) the packed point.  Every right factor of a reduced
        word of a minimal representative is again one, so the walk only takes
        letter j when p_j > 0, the ascents of W^Theta (p_j < 0 makes the subword
        non-reduced, p_j = 0 leaves W^Theta); each subtree that breaks this is
        cut.  Masks sharing their high positions share the walk up to there.
        A walk that ends outside the table raises InternalComputationError.
        """
        points = self._points
        steps = [(_BITS * (i - 1), self._cols[i - 1]) for i in word]
        out = {}
        stack = [(len(word) - 1, self._lam, 0, top)]
        while stack:
            pos, p, mask, spare = stack.pop()
            if pos < 0:
                k = points.get(p)
                if k is None:
                    raise InternalComputationError("subword image is not a coset representative")
                out[mask] = k
                continue
            if spare:
                stack.append((pos - 1, p, mask | (1 << pos), spare - 1))
            shift, col = steps[pos]
            f = (p >> shift) & _MASK
            if f > _BIAS:
                stack.append((pos - 1, p - (f - _BIAS) * col, mask, spare))
        return out

    @cached_property
    def _dual(self):
        """Dual index of every position, built on first use.

        w_theta fixes lambda_Theta, so w0 w_k w_theta maps it to w0(p_k) for
        p_k = w_k(lambda_Theta): the dual is the rep at w0(p_k).  With e the
        opposition involution, w0(omega_j) = -omega_e(j) and w0 s_i = s_e(i) w0,
        so the identity's dual point is lambda_Theta with its coordinates
        permuted by e and negated, and w0(p_k) = s_e(label) w0(p_parent) is
        one step from the parent's.
        """
        rank = self.rs.rank
        opp = [self.w0.act(tuple(int(i == j) for i in range(rank))).index(-1) for j in range(rank)]
        points = self._points
        step = self._step
        lam = [step(self._lam, j)[0] for j in range(rank)]
        d0 = sum((_BIAS - lam[opp[j]]) << (_BITS * j) for j in range(rank))
        dual_points = [d0]
        for k in range(1, len(points)):
            dual_points.append(step(dual_points[self.parent[k]], opp[self.parent_label[k] - 1])[1])
        dual = [points.get(d) for d in dual_points]
        if None in dual:
            raise InternalComputationError("w0 maps a coset point outside the orbit")
        return tuple(dual)

    def dual_index(self, k: int) -> int:
        """Index of w0 * w_k * w_theta, the Poincaré-dual basis element."""
        return self._dual[k]

    def graded_counts(self):
        """Number of representatives of each length 0..max_length."""
        return tuple(b - a for a, b in zip(self._layers, self._layers[1:]))


def coset_reps(rs: RootSystem, theta) -> CosetTable:
    """Enumerate W^Theta (cached per root system and set of theta vertices)."""
    return _coset_table(rs, tuple(sorted(set(theta))))


@cache
def _coset_table(rs: RootSystem, theta: tuple) -> CosetTable:
    return CosetTable(rs, theta)


class HasseDiagram(Record):
    """Labelled weak-order diagram on W^Theta: w -> s_i w when both are
    representatives and the length goes up (necessarily by exactly 1)."""

    __slots__ = (
        "theta",
        "vertices",              # rep indices, in table order
        "edges",                 # (from_index, to_index, label)
        "table",
    )

    def __init__(self, theta: tuple, vertices: tuple, edges: tuple, table: CosetTable):
        object.__setattr__(self, "theta", theta)
        object.__setattr__(self, "vertices", vertices)
        object.__setattr__(self, "edges", edges)
        object.__setattr__(self, "table", table)


def hasse_diagram(ct: CosetTable) -> HasseDiagram:
    """Edges k -> pos(s_i p) for every lambda-image p of the table with p_i > 0."""
    points = ct._points
    steps = [(_BITS * i, col, i + 1) for i, col in enumerate(ct._cols)]
    edges = []
    for k, p in enumerate(points):
        for shift, col, label in steps:
            f = (p >> shift) & _MASK
            if f > _BIAS:
                m = points.get(p - (f - _BIAS) * col)
                if m is None:
                    raise InternalComputationError("an ascent leaves the coset table")
                edges.append((k, m, label))
    edges.sort()
    return HasseDiagram(theta=ct.theta, vertices=tuple(range(len(ct))), edges=tuple(edges), table=ct)


def hasse_to_dot(h: HasseDiagram) -> str:
    ct = h.table
    text = ct.word_text
    lines = ["digraph hasse {"]
    for k in h.vertices:
        lines.append(f'  n{k} [label="{text[k]} ({ct.length(k)})"];')
    for a, b, i in h.edges:
        lines.append(f'  n{a} -> n{b} [label="{i}"];')
    lines.append("}")
    return "\n".join(lines)


def hasse_to_json(h: HasseDiagram) -> str:
    """The diagram as the JSON object {edges, theta, type, vertices}, keys sorted."""
    ct = h.table
    text = ct.word_text
    vertices = ", ".join(f'{{"length": {ct.length(k)}, "word": {text[k]}}}' for k in h.vertices)
    edges = ", ".join(f'{{"from": {a}, "label": {i}, "to": {b}}}' for a, b, i in h.edges)
    return (
        f'{{"edges": [{edges}], "theta": {json.dumps(list(h.theta))}, '
        f'"type": {json.dumps(ct.rs.type.name())}, "vertices": [{vertices}]}}'
    )
