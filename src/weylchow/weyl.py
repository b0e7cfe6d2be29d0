"""Weyl group elements, parabolic coset representatives and weak-order Hasse diagrams.

Elements are identified by their action on the regular weight
rho = sum of all fundamental weights: two elements are equal iff their
rho-images agree (the reflection representation is faithful).  The
canonical word of an element is its lexicographically least reduced word;
it falls out of a greedy descent on the rho-image, because

    i is a left descent of w  <=>  the i-th omega-coordinate of w(rho) < 0.

Coset representatives W^Theta are enumerated by breadth-first search on
the W-orbit of lambda_Theta = sum of omega_i over i not in Theta, whose
stabilizer is exactly W_Theta.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cache
from math import prod

from .errors import ResourceLimitError, UsageError
from .rootdata import RootSystem, root_subsystem, weyl_degrees

DEFAULT_COSET_CAP = 10_000_000


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


@dataclass(frozen=True)
class WeylElement:
    """A Weyl group element in canonical (lex-least reduced) word form."""

    rs: RootSystem
    word: tuple
    rho_image: tuple

    @staticmethod
    def from_word(rs: RootSystem, word) -> "WeylElement":
        word = tuple(int(i) for i in word)
        for i in word:
            if not 1 <= i <= rs.rank:
                raise UsageError(f"letter {i} out of range 1..{rs.rank}")
        v = apply_word(rs, word, rs.rho)
        return WeylElement(rs, _canonical_from_image(rs, v), tuple(v))

    @staticmethod
    def identity(rs: RootSystem) -> "WeylElement":
        return WeylElement(rs, (), rs.rho)

    @property
    def length(self) -> int:
        return len(self.word)

    def act(self, v):
        """Image of a weight vector under this element."""
        return apply_word(self.rs, self.word, v)

    def act_root(self, c):
        """Image of a vector in simple-root coordinates."""
        for i in reversed(self.word):
            c = self.rs.reflect_root(i - 1, c)
        return c

    def inverse(self) -> "WeylElement":
        return WeylElement.from_word(self.rs, tuple(reversed(self.word)))

    def __mul__(self, other: "WeylElement") -> "WeylElement":
        if self.rs is not other.rs:
            raise UsageError("elements live in different root systems")
        v = apply_word(self.rs, self.word, other.rho_image)
        return WeylElement(self.rs, _canonical_from_image(self.rs, v), tuple(v))

    def __eq__(self, other):
        return isinstance(other, WeylElement) and self.rho_image == other.rho_image

    def __hash__(self):
        return hash(self.rho_image)

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
            return WeylElement(rs, _canonical_from_image(rs, v), tuple(v))


class CosetTable:
    """Minimal-length representatives of W/W_Theta with BFS structure.

    reps are ordered by (length, canonical word); `parent` and `parent_label`
    record the BFS tree (rep = s_label * parent), which downstream code uses
    to evaluate composed divided differences with shared work.
    """

    def __init__(self, rs: RootSystem, theta, cap: int = DEFAULT_COSET_CAP):
        theta = tuple(sorted(set(theta)))
        for i in theta:
            if not 1 <= i <= rs.rank:
                raise UsageError(f"vertex {i} out of range 1..{rs.rank}")
        self.rs = rs
        self.theta = theta
        # |W^Theta| = prod degrees(W) / prod degrees(W_Theta), known before any BFS
        size = prod(weyl_degrees(rs.type)) // prod(weyl_degrees(root_subsystem(rs, theta).type))
        if size > cap:
            raise ResourceLimitError(
                f"|W^Theta| = {size} exceeds cap {cap} for type {rs.type.name()}, theta={list(theta)}"
            )
        theta_set = set(theta)
        lam = tuple(0 if (j + 1) in theta_set else 1 for j in range(rs.rank))

        # BFS on the orbit of lambda_Theta; each new point's lex-least word is
        # min over predecessors of (i,) + parent word, realized by scanning
        # parents in word order and labels increasingly.
        start = lam
        info = {start: ((), None, None)}  # point -> (word, parent_point, label)
        layers = [[start]]
        count = 1
        while layers[-1]:
            nxt = {}
            prev_layer = sorted(layers[-1], key=lambda p: info[p][0])
            for p in prev_layer:
                wp = info[p][0]
                for i in range(1, rs.rank + 1):
                    q = rs.reflect_weight(i - 1, p)
                    if q == p or q in info:
                        continue
                    cand = (i,) + wp
                    if q not in nxt or cand < nxt[q][0]:
                        nxt[q] = (cand, p, i)
            for q, rec in nxt.items():
                info[q] = rec
            count += len(nxt)
            if count > cap:
                raise ResourceLimitError(
                    f"|W^Theta| exceeds cap {cap} for type {rs.type.name()}, theta={list(theta)}"
                )
            layers.append(sorted(nxt.keys(), key=lambda p: info[p][0]))
        layers.pop()

        order = []
        for layer in layers:
            order.extend(layer)
        self.reps = tuple(
            WeylElement(rs, info[p][0], apply_word(rs, info[p][0], rs.rho)) for p in order
        )
        self.index = {w.word: k for k, w in enumerate(self.reps)}
        point_pos = {p: k for k, p in enumerate(order)}
        self.parent = tuple(
            point_pos[info[p][1]] if info[p][1] is not None else -1 for p in order
        )
        self.parent_label = tuple(info[p][2] if info[p][2] is not None else 0 for p in order)
        self._points = point_pos
        self.w0 = longest_element(rs, range(1, rs.rank + 1))
        self.w_theta = longest_element(rs, theta)
        self._dual = None

    def __len__(self):
        return len(self.reps)

    @property
    def max_length(self) -> int:
        """dim G/P_Theta: the length of the longest representative."""
        return self.reps[-1].length if self.reps else 0

    def codim(self, k: int) -> int:
        """Codimension of the basis class [X_w] for rep index k."""
        return self.max_length - self.reps[k].length

    def rep_of(self, w: WeylElement) -> int:
        """Index of the minimal representative of the coset w W_Theta."""
        p = apply_word(self.rs, w.word, self._lambda())
        k = self._points.get(p)
        if k is None:
            raise AssertionError("coset projection failed")
        return k

    def _lambda(self):
        theta_set = set(self.theta)
        return tuple(0 if (j + 1) in theta_set else 1 for j in range(self.rs.rank))

    def dual_index(self, k: int) -> int:
        """Index of w0 * w_k * w_theta, the Poincaré-dual basis element."""
        if self._dual is None:
            dual = []
            for w in self.reps:
                u = (self.w0 * w) * self.w_theta
                dual.append(self.index[u.word])
            self._dual = tuple(dual)
        return self._dual[k]

    def graded_counts(self):
        """Number of representatives of each length 0..max_length."""
        out = [0] * (self.max_length + 1)
        for w in self.reps:
            out[w.length] += 1
        return tuple(out)


def coset_reps(rs: RootSystem, theta) -> CosetTable:
    """Enumerate W^Theta (cached per root system and set of theta vertices)."""
    return _coset_table(rs, tuple(sorted(set(theta))))


@cache
def _coset_table(rs: RootSystem, theta: tuple) -> CosetTable:
    return CosetTable(rs, theta)


@dataclass(frozen=True)
class HasseDiagram:
    """Labelled weak-order diagram on W^Theta: w -> s_i w when both are
    representatives and the length goes up (necessarily by exactly 1)."""

    theta: tuple
    vertices: tuple          # rep indices, in table order
    edges: tuple             # (from_index, to_index, label)
    table: CosetTable


def hasse_diagram(ct: CosetTable) -> HasseDiagram:
    rs = ct.rs
    lam = ct._lambda()
    points = [apply_word(rs, w.word, lam) for w in ct.reps]
    pos = {p: k for k, p in enumerate(points)}
    edges = []
    for k, w in enumerate(ct.reps):
        p = points[k]
        for i in range(1, rs.rank + 1):
            q = rs.reflect_weight(i - 1, p)
            if q == p:
                continue
            m = pos.get(q)
            if m is not None and ct.reps[m].length == w.length + 1:
                edges.append((k, m, i))
    edges.sort()
    return HasseDiagram(theta=ct.theta, vertices=tuple(range(len(ct.reps))), edges=tuple(edges), table=ct)


def hasse_to_dot(h: HasseDiagram) -> str:
    lines = ["digraph hasse {"]
    for k in h.vertices:
        w = h.table.reps[k]
        label = f"{list(w.word)} ({w.length})"
        lines.append(f'  n{k} [label="{label}"];')
    for a, b, i in h.edges:
        lines.append(f'  n{a} -> n{b} [label="{i}"];')
    lines.append("}")
    return "\n".join(lines)


def hasse_to_json(h: HasseDiagram) -> str:
    payload = {
        "type": h.table.rs.type.name(),
        "theta": list(h.theta),
        "vertices": [
            {"word": list(w.word), "length": w.length} for w in h.table.reps
        ],
        "edges": [{"from": a, "to": b, "label": i} for a, b, i in h.edges],
    }
    return json.dumps(payload, sort_keys=True)


def all_reduced_words(rs: RootSystem, w: WeylElement):
    """Every reduced word of w (exponential; for small-rank tests only)."""
    out = []

    def rec(v, acc):
        if v == rs.rho:
            out.append(tuple(acc))
            return
        for i in range(rs.rank):
            if v[i] < 0:
                rec(rs.reflect_weight(i, v), acc + [i + 1])

    rec(w.rho_image, [])
    return out


def enumerate_group(rs: RootSystem):
    """All elements of W as a CosetTable with empty theta."""
    return coset_reps(rs, ())
