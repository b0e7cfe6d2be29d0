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
follows only the ascents, and a new point is kept only from its canonical
parent, the one its least descent leads to, so no point is probed against
those already seen.  The table stores only what the BFS produces: the
lambda-points in table order, the BFS tree (parent and label) and the
length layers.  The point index, words, their JSON text, WeylElements and
the word index are views derived on first use: a representative's word is
its BFS parent's with one letter in front, and its text is its parent's
text with that letter put in.  The Hasse diagram is the table itself: its
edges w -> s_i w are the ascents p_i > 0 of the lambda-points, which
`hasse_edges` yields one length layer of sources at a time, and the motive
cut is read off the descents.  The Poincare dual w0 w w_Theta is the
representative at w0(p).  The renderers yield their text in pieces, one
per length layer (one per summand for the motive), so printing a table
holds neither its whole output nor a list of its edges.

The lambda-points are packed weights (`pack_weight`), one 8-bit field per
coordinate as for the polynomial monomials: coordinate j plus 128 sits in
bits [8j, 8j + 8).
s_i is linear, so s_i p = p - p_i * col_i with col_i the packed i-th Cartan
column (`packed_steps`), exact while every field stays in range.  Every coordinate on the
orbit is at most max <lambda_Theta, beta^vee> over the positive coroots in
absolute value (61 at most within rootdata.MAX_POSITIVE_ROOTS), and the
table checks that bound against 128 before its BFS.  The BFS, the Hasse
edges, the descents of the motive cut, the Bott-Samelson subword walk and
the fixed-point restriction walk (`subword_sums`) and the Bruhat-order
test `bruhat_above` take this step inlined, one label at a time; the dual
table calls `CosetTable._step`, and `upper_set` reflects packed points by
every positive root the same way.  Every walk takes its (shift, column)
steps from `packed_steps`; the Bott-Samelson rings walk them too, for their
reducedness check and normal classes.

The Poincare polynomial g(X) of G/P_Theta counts the representatives by
length.  Solomon's formula gives it as a ratio of products of t^d - 1
over the Weyl degrees, so a table knows its size g(1) before its BFS and
checks its layer counts against g after it.
"""

from __future__ import annotations

import json
from bisect import bisect_right
from functools import cache, cached_property
from itertools import chain, repeat
from operator import mul

from . import univar
from .errors import InternalComputationError, ResourceLimitError, UsageError
from .rootdata import Record, RootSystem, checked_vertices, root_subsystem, weyl_degrees

#: |W^Theta| above which a table is refused before its BFS.  Measured with
#: tracemalloc on CPython 3.11 (E7, Theta = {1}: 1,451,520 cosets), the table
#: keeps about 88 bytes per coset (113 at the peak of its BFS), so a table at
#: the cap takes about 0.9 GB (1.1 GB while it is built).  The point index,
#: built on the first lookup (Hasse edges, the motive cut, duals, subwords),
#: adds about 86 bytes per coset and `word_text` about 150.  The printers
#: hold two length layers of text, or one source layer of Hasse edges, at a
#: time and no copy of their output: there a whole `cosets` run peaked at
#: 214 MB RSS (about 150 bytes per coset, some 1.5 GB at the cap) and a
#: whole `hasse --format json` run, 5.0M edges and 395 MB of output, at
#: 362 MB (about 250 bytes per coset, some 2.5 GB at the cap).
DEFAULT_COSET_CAP = 10_000_000

#: a packed weight stores omega-coordinate j as p_j + _BIAS in bits [8j, 8j + 8)
_BITS = 8
_BIAS = 1 << (_BITS - 1)
_MASK = (1 << _BITS) - 1


def pack_weight(v, bias: int = _BIAS) -> int:
    """The omega-coordinates v packed, each plus `bias` (bias 0 packs a column to subtract)."""
    return sum((bias + a) << (_BITS * j) for j, a in enumerate(v))


@cache
def packed_steps(rs: RootSystem) -> tuple:
    """(shift, col) for each 0-based vertex i of rs, col the packed i-th Cartan column.

    A packed weight p has p_i = (p >> shift & _MASK) - _BIAS and s_i p =
    p - p_i * col, exact while every coordinate met lies in -128..127: on a
    root (coordinates in -3..3), on the rho-images along a reduced word (at
    most the largest coroot height, 61 within rootdata.MAX_POSITIVE_ROOTS)
    and on a lambda_Theta-orbit, which `CosetTable` checks before its BFS.
    """
    return tuple((_BITS * i, pack_weight(rs.alpha_omega(i), 0)) for i in range(rs.rank))


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
            raise InternalComputationError("vector is not in the rho-orbit")
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
    theta = checked_vertices(rs.rank, theta)
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
    - `_order` lists the packed lambda_Theta-images in table order (`_lam`
      is lambda_Theta itself, packed);
    - `parent` and `parent_label` record the BFS tree (rep = s_label * parent);
    - `_layers` bounds the BFS layers: each is one length, so the reps of
      length l (codim dim - l) are the positions `of_length(l)`.
    Reps are ordered by (length, canonical word).  `len`, `max_length`,
    `length` and `codim` read the parent and layer arrays.  The table is
    refused before its BFS when g(1) = |W^Theta| exceeds the cap, and the
    layer sizes are checked against the coefficients of g after it.

    Everything else is a view built on first use: `_points` (packed point
    -> position, for the lookups of Hasse edges, descents, duals and
    subwords; one position per point, which with the layer check certifies
    that the table is the whole orbit) and, in one pass over the parent
    links, `words` (a rep's canonical word is (label,) + its parent's),
    `word_text` (each word's JSON-array text, made from its parent's text),
    `reps` (the WeylElements, for code that multiplies them) and `index`
    (word -> position).
    `text_layers` yields the same texts one length layer at a time, each
    from the layer below, so printing a table in layer order builds no
    tuple or element per rep and holds two layers of text at a time.

    A packed point holds coordinate j plus 128 in bits [8j, 8j + 8), and
    `_step` reflects it; the BFS, `hasse_edges`, `first_descents`,
    `subword_positions`, `subword_sums` and `bruhat_above` take the same step
    inlined, with each label's shift and Cartan column hoisted, and
    `upper_set` reflects by every positive root alike.  Before the BFS the table
    checks that `orbit_bound` is below 128, so every coordinate of the orbit
    fits its field and the packed reflection is exact; a larger bound raises
    InternalComputationError (no accepted type has one).

    The lex-least word of a new point q is (i,) + word(s_i q) for the least
    i with q_i < 0, the greedy rule `_canonical_from_image` applies to rho:
    its canonical parent is s_i q.  A step q = s_i p (p_i > 0) is kept
    exactly when i is that least descent, i.e. q_j >= 0 for every j < i,
    which packed is one mask test: every field below i keeps its top bit.
    So each point is reached once, and scanning labels increasingly and, per
    label, the previous layer in table order yields the new points in
    (label, parent position) order, which is word order: layers come out
    sorted without comparing words or probing a set of seen points.  The
    layer-count check against g also certifies this rule.
    """

    def __init__(self, rs: RootSystem, theta, cap: int = DEFAULT_COSET_CAP):
        theta = checked_vertices(rs.rank, theta)
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
        self._steps = packed_steps(rs)
        lam = pack_weight([0 if (j + 1) in theta else 1 for j in range(rs.rank)])

        # q = s_i p is kept only from its canonical parent: when i is q's least
        # descent, i.e. every field below i keeps its top bit (q_j >= 0 for j < i)
        steps = [
            (shift, col, sum(_BIAS << (_BITS * j) for j in range(i)))
            for i, (shift, col) in enumerate(self._steps)
        ]
        order = [lam]         # packed lambda-images, in table order
        parent = [-1]
        parent_label = [0]
        layers = [0]          # layer l is order[layers[l]:layers[l + 1]]
        start = 0
        while start < len(order):
            end = len(order)
            layers.append(end)
            layer = order[start:end]
            for label, (shift, col, below) in enumerate(steps, 1):
                for k, p in enumerate(layer, start):
                    f = (p >> shift) & _MASK
                    if f > _BIAS:  # p_i > 0: an ascent
                        q = p - (f - _BIAS) * col
                        if q & below == below:
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
        self._order = tuple(order)
        self._lam = lam
        self.w0 = longest_element(rs, range(1, rs.rank + 1))
        self.w_theta = longest_element(rs, theta)

    def _step(self, p: int, i: int):
        """(p_i, s_i p) for a packed lambda-point p and a 0-based vertex i.

        p_i > 0 makes s_i p the point of the next longer representative s_i w.
        """
        shift, col = self._steps[i]
        pi = ((p >> shift) & _MASK) - _BIAS
        return pi, p - pi * col

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

    def text_layers(self):
        """Yield, for each length 0..max_length, the list of the JSON-array texts of
        that layer's canonical words ("[2, 1]" for (2, 1)), in table order.

        A rep's text is its parent's, one layer below, with the label put in
        front, so no word tuple is built, no list is serialized and only two
        layers of text are held at a time.
        """
        heads = [f"[{label}, " for label in range(self.rs.rank + 1)]
        parent, labels = self.parent, self.parent_label
        texts = ["[]"]
        yield texts
        if self.max_length:
            texts = [f"[{labels[k]}]" for k in self.of_length(1)]
            yield texts
        for l in range(2, self.max_length + 1):
            base = self._layers[l - 1]  # the parents' layer starts here
            texts = [heads[labels[k]] + texts[parent[k] - base][1:] for k in self.of_length(l)]
            yield texts

    @cached_property
    def word_text(self) -> tuple:
        """Every canonical word's JSON-array text, `text_layers` as one tuple, built on use."""
        return tuple(chain.from_iterable(self.text_layers()))

    @cached_property
    def reps(self) -> tuple:
        """The representatives as WeylElements, built on first use."""
        rs = self.rs
        return tuple(WeylElement(rs, w) for w in self.words)

    @cached_property
    def _points(self) -> dict:
        """Packed lambda-point -> position, in table order, built on first lookup.

        The table has g(1) = |W lambda_Theta| points (its layers are g's), so
        one position per point certifies that it is the whole orbit and holds
        every s_i p; a repeated point raises InternalComputationError."""
        points = {p: k for k, p in enumerate(self._order)}
        if len(points) != len(self):
            raise InternalComputationError("a lambda-point repeats in the coset table")
        return points

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
        steps = [self._steps[i - 1] for i in labels]
        out = []
        for p in self._order:
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
        steps = [self._steps[i - 1] for i in word]
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

    def subword_sums(self, word, factors, lengths=None) -> dict:
        """position k -> the sum, over the subwords of a reduced word that are reduced
        words of the representative at k, of the product of factors[j] over the letters
        j taken; with `lengths` (a collection of lengths), only the k of those lengths.

        The walk of `subword_positions` with one integer per point in place of
        the masks: going right to left, every state keeps its value (letter j
        left out), and each state with p_j > 0 also adds its value times
        factors[j] into the state at s_j p (letter j taken).  Subwords that
        reach the same point are merged, so a pass holds at most one state per
        representative below the word.  With `lengths`, a state of length m
        with r letters still to walk ends at a length in m..m + r, and it is
        dropped when none of those is wanted.  A walk that ends outside the
        table raises InternalComputationError.
        """
        points = self._points
        states = {self._lam: 1}
        get = states.get
        if lengths is not None:
            wanted = sorted(set(lengths))
            # reach[m]: the least wanted length >= m (past the word when there is none)
            reach = [next((n for n in wanted if n >= m), len(word) + 1)
                     for m in range(len(word) + 1)]
            size = {self._lam: 0}  # letters taken, the length of the state's rep
        left = len(word)
        for i, r in zip(reversed(word), reversed(factors)):
            shift, col = self._steps[i - 1]
            left -= 1
            for p, v in list(states.items()):  # the values before this letter
                f = (p >> shift) & _MASK
                if f > _BIAS:
                    q = p - (f - _BIAS) * col
                    states[q] = get(q, 0) + v * r
                    if lengths is not None:
                        size[q] = size[p] + 1
            if lengths is not None:
                for p in [p for p in states if reach[size[p]] > size[p] + left]:
                    del states[p]
        out = {}
        for p, v in states.items():
            k = points.get(p)
            if k is None:
                raise InternalComputationError("subword image is not a coset representative")
            if lengths is None or reach[size[p]] == size[p]:
                out[k] = v
        return out

    @cached_property
    def _reflections(self):
        """(coroot, packed omega-coordinates) of every positive root beta, so that
        s_beta p = p - <p, beta^vee> beta on packed points."""
        return tuple((pr.coroot, pack_weight(pr.omega, 0)) for pr in self.rs.positive_roots)

    def upper_set(self, starts, top: int):
        """Yield once each position x with l(x) <= top that lies above the rep at some
        position in starts in the Bruhat order.

        For a positive root beta with <p, beta^vee> > 0 at the point p of u,
        the rep of s_beta u lies above u; every x above u is reached from u
        through such steps, one cover (one length) at a time, so a search that
        never leaves length <= top finds them all.
        """
        points, order, rank = self._points, self._order, self.rs.rank
        reflections = self._reflections
        seen = {k for k in starts if self.length(k) <= top}
        todo = list(seen)
        while todo:
            k = todo.pop()
            yield k
            p = order[k]
            coords = [((p >> (_BITS * j)) & _MASK) - _BIAS for j in range(rank)]
            for coroot, col in reflections:
                m = sum(map(mul, coroot, coords))
                if m > 0:
                    q = points.get(p - m * col)
                    if q is None:
                        raise InternalComputationError("a reflection leaves the coset table")
                    if q not in seen and self.length(q) <= top:
                        seen.add(q)
                        todo.append(q)

    def bruhat_above(self, x: int, positions) -> bool:
        """Whether the rep at position x lies above the rep at some position in positions
        in the Bruhat order.

        The lifting property along the canonical word b_1 ... b_l of x: s = s_b_1
        is a left descent of x, and u <= x exactly when min(u, s u) <= s x, where
        s u < u exactly when u's point has p_b_1 < 0.  So each letter reflects
        the points that have it as a descent, and x lies above one of them when
        lambda_Theta (the identity) is reached.
        """
        pts = {self._order[u] for u in positions}
        for b in self.words[x]:
            shift, col = self._steps[b - 1]
            pts = {p - (f - _BIAS) * col if (f := (p >> shift) & _MASK) < _BIAS else p
                   for p in pts}
        return self._lam in pts

    @cached_property
    def _dual(self):
        """Dual index of every position, built on first use.

        w_theta fixes lambda_Theta, so w0 w_k w_theta maps it to w0(p_k) for
        p_k = w_k(lambda_Theta): the dual is the rep at w0(p_k).  With e the
        opposition involution, w0(omega_j) = -omega_e(j) and w0 s_i = s_e(i) w0,
        so the identity's dual point is lambda_Theta with its coordinates
        permuted by e and negated, and w0(p_k) = s_e(label) w0(p_parent) is
        one step from the parent's.  One image gives e: w0 maps
        sum (j + 1) omega_j to -sum (j + 1) omega_e(j), whose coordinate i is
        -(e(i) + 1), e being an involution.
        """
        rank = self.rs.rank
        opp = [-c - 1 for c in self.w0.act(tuple(range(1, rank + 1)))]
        points = self._points
        step = self._step
        lam = [step(self._lam, j)[0] for j in range(rank)]
        d0 = pack_weight([-lam[opp[j]] for j in range(rank)])
        dual_points = [d0]
        for k in range(1, len(self)):
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
    return _coset_table(rs, checked_vertices(rs.rank, theta))


@cache
def _coset_table(rs: RootSystem, theta: tuple) -> CosetTable:
    return CosetTable(rs, theta)


def hasse_edges(ct: CosetTable):
    """Yield the weak-order Hasse edges w -> s_i w of W^Theta in sorted runs, one per
    length l = 0..max_length of their sources: the edges (k, pos(s_i p_k), i) over the
    positions k of `of_length(l)` and every i with p_i > 0, so the runs chained are
    sorted.  The length goes up by exactly 1 along each edge."""
    points, order = ct._points, ct._order
    steps = [(shift, col, i + 1) for i, (shift, col) in enumerate(ct._steps)]
    for l in range(ct.max_length + 1):
        run = []
        for k in ct.of_length(l):
            p = order[k]
            for shift, col, label in steps:
                f = (p >> shift) & _MASK
                if f > _BIAS:
                    m = points.get(p - (f - _BIAS) * col)
                    if m is None:
                        raise InternalComputationError("an ascent leaves the coset table")
                    run.append((k, m, label))
        run.sort()
        yield run


def join_pieces(parts, sep=", "):
    """Yield the nonempty strings of parts with sep between them: sep.join of them, in pieces."""
    first = True
    for part in parts:
        if part:
            yield part if first else sep + part
            first = False


def _word_objects(ct: CosetTable, fields):
    """Yield, per length layer l, the JSON objects {fields(l) "word": ...} of its reps, joined
    by ", ".  The layer's word texts are joined around the repeated head in one call."""
    for l, texts in enumerate(ct.text_layers()):
        head = f'{{{fields(l)}"word": '
        sep = "}, " + head
        yield f"{head}{sep.join(texts)}}}"


def cosets_to_json(ct: CosetTable):
    """The table as the JSON object {count, dim, reps, theta, type}, keys sorted, in pieces:
    one per length layer of reps."""
    dim = ct.max_length
    reps = _word_objects(ct, lambda l: f'"codim": {dim - l}, "length": {l}, ')
    tail = f'], "theta": {json.dumps(list(ct.theta))}, "type": {json.dumps(ct.rs.type.name())}}}'
    return chain((f'{{"count": {len(ct)}, "dim": {dim}, "reps": [',), join_pieces(reps), (tail,))


def graph_to_dot(ct: CosetTable, name: str, color_of=None, dotted=()):
    """The Hasse diagram as the DOT digraph `name`, in pieces: one per length layer of
    vertices and of edge sources.  `color_of[k]`, when given, colours the vertex at
    position k; the edges labelled in `dotted` are drawn dotted.  The point index is
    built, and certified, before the pieces are returned."""
    ct._points
    # the layers run through the positions in order, so one iterator serves them all
    colors = repeat("") if color_of is None else map(", color={}".format, color_of)
    style = [""] * (ct.rs.rank + 1)
    for i in dotted:
        style[i] = ", style=dotted"
    vertices = (
        "\n".join(f'  n{k} [label="{t} ({l})"{c}];' for k, t, c in zip(ct.of_length(l), texts, colors))
        for l, texts in enumerate(ct.text_layers())
    )
    edges = (
        "\n".join(f'  n{a} -> n{b} [label="{i}"{style[i]}];' for a, b, i in run)
        for run in hasse_edges(ct)
    )
    return join_pieces(chain((f"digraph {name} {{",), vertices, edges, ("}",)), "\n")


def hasse_to_dot(ct: CosetTable):
    """The Hasse diagram in DOT, in pieces (see `graph_to_dot`)."""
    return graph_to_dot(ct, "hasse")


def hasse_to_json(ct: CosetTable):
    """The Hasse diagram as the JSON object {edges, theta, type, vertices}, keys sorted, in
    pieces: one per length layer of edge sources and of vertices.  The point index is
    built, and certified, before the pieces are returned."""
    ct._points
    edges = join_pieces(
        ", ".join(f'{{"from": {a}, "label": {i}, "to": {b}}}' for a, b, i in run)
        for run in hasse_edges(ct)
    )
    vertices = join_pieces(_word_objects(ct, lambda l: f'"length": {l}, '))
    middle = (
        f'], "theta": {json.dumps(list(ct.theta))}, "type": {json.dumps(ct.rs.type.name())}, '
        f'"vertices": ['
    )
    return chain(('{"edges": [',), edges, (middle,), vertices, ("]}",))
