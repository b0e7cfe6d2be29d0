"""Root systems and weight lattices for simple and reducible Dynkin types.

Everything is integral and in Bourbaki numbering.  Two coordinate systems
are used throughout the package:

* simple-root coordinates: a root is an integer vector over alpha_1..alpha_n;
* fundamental-weight coordinates ("omega coordinates"): a weight is a vector
  over omega_1..omega_n.  The two are related by the Cartan matrix A:
  omega-coords of alpha_j = column j of A.

A positive root is stored in simple-root coordinates, with its
omega-coordinates and its coroot over the simple coroots alongside.  Every
reflection acts on omega-coordinates: s_i acts by
    (s_i v)_j = v_j - A[j][i] * v_i,
which is the matrix form of s_i(omega_j) = omega_j - delta_ij alpha_i.
The positive roots, their omega-coordinates and their coroots come from one
closure of the simple roots under these reflections, in integers.
"""

from __future__ import annotations

from functools import cache
from math import isqrt

from .errors import InternalComputationError, ResourceLimitError, UsageError

FAMILIES = ("A", "B", "C", "D", "E", "F", "G")

#: most positive roots a RootSystem is built with (A44 has 990; E8 has 120)
MAX_POSITIVE_ROOTS = 1000

#: degrees of the fundamental polynomial invariants, per family
_EXCEPTIONAL_DEGREES = {
    ("E", 6): (2, 5, 6, 8, 9, 12),
    ("E", 7): (2, 6, 8, 10, 12, 14, 18),
    ("E", 8): (2, 8, 12, 14, 18, 20, 24, 30),
    ("F", 4): (2, 6, 8, 12),
    ("G", 2): (2, 6),
}


def is_small_prime(p: int) -> bool:
    """True for a prime p below 2^31.

    Trial division stays fast below the cap, which no torsion prime comes near.
    """
    return 2 <= p < 1 << 31 and all(p % d for d in range(2, isqrt(p) + 1))


def ring_modulus(ring: str):
    """None for Z and Q, p for Z/p; a ring that is not a str, or a non-prime p, is a
    usage error (inverses mod p need a field)."""
    if not isinstance(ring, str):  # before the cache, which would hash it or read it as text
        raise UsageError(f"ring {ring!r} must be a string such as \"Z/2\"")
    return _ring_modulus(ring)


@cache
def _ring_modulus(ring: str):
    if ring in ("Z", "Q"):
        return None
    if ring.startswith("Z/"):
        try:
            p = int(ring[2:])
        except ValueError:
            raise UsageError(f"bad ring {ring!r}") from None
        if ring != f"Z/{p}":  # one spelling per ring: int() also reads "02", "+2", " 2" and "1_9"
            raise UsageError(f"bad ring {ring!r}: write the modulus as Z/{p}")
        # the cache spares ChowClass construction from repeating the test for every class
        if not is_small_prime(p):
            raise UsageError(f"bad ring {ring!r}: the modulus must be a prime below 2^31")
        return p
    raise UsageError(f"unknown ring {ring!r}")


def _check_family_rank(family: str, rank: int) -> None:
    if family not in FAMILIES:
        raise UsageError(f"unknown family {family!r}")
    if rank < 1:
        raise UsageError(f"rank must be positive, got {rank}")
    if family == "B" and rank < 2:
        raise UsageError("B requires rank >= 2 (use A1 for rank 1)")
    if family == "C" and rank < 2:
        raise UsageError("C requires rank >= 2")
    if family == "D" and rank < 3:
        raise UsageError("D requires rank >= 3")
    if family == "E" and rank not in (6, 7, 8):
        raise UsageError("E exists only in ranks 6, 7, 8")
    if family == "F" and rank != 4:
        raise UsageError("F exists only in rank 4")
    if family == "G" and rank != 2:
        raise UsageError("G exists only in rank 2")


class Record:
    """Base of the package's immutable value records.

    A subclass names its fields in `__slots__`, in constructor order, and
    `Record.__init__` stores them, each given once by position or by name (a
    missing, unknown or repeated field is a TypeError); a subclass that checks
    them ends its own `__init__` with `super().__init__(...)`.  Records refuse
    assignment and deletion, compare and hash by their fields (never equal to
    a record of another class), and print as `Class(field=value, ...)`.
    """

    __slots__ = ()

    def __init__(self, *values, **named):
        slots = self.__slots__
        if len(values) > len(slots):
            raise TypeError(f"{type(self).__qualname__}() takes {len(slots)} fields")
        for name, value in zip(slots, values):
            object.__setattr__(self, name, value)
        for name in slots[len(values):]:
            if name not in named:
                raise TypeError(f"{type(self).__qualname__}() is missing field {name!r}")
            object.__setattr__(self, name, named.pop(name))
        if named:
            name = next(iter(named))
            kind = "a repeated" if name in slots else "an unknown"
            raise TypeError(f"{type(self).__qualname__}() got {kind} field {name!r}")

    def _fields(self) -> tuple:
        return tuple([getattr(self, name) for name in self.__slots__])

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._fields() == other._fields()
        return NotImplemented

    def __hash__(self):
        return hash(self._fields())

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self):
        # copy and pickle rebuild through the constructor, which stores the slots
        return type(self), self._fields()


class DynkinType(Record):
    """An ordered list of simple components, vertices labelled 1..n overall."""

    __slots__ = ("components",)  # tuple of (family, rank)

    def __init__(self, components: tuple):
        for family, rank in components:
            _check_family_rank(family, rank)
        super().__init__(components)

    @staticmethod
    def parse(text: str) -> "DynkinType":
        """Parse strings like "E7", "A2xA2", "D6"; "" or "1" is the empty type."""
        text = text.strip()
        if text in ("", "1", "0"):
            return DynkinType(())
        comps = []
        for piece in text.split("x"):
            piece = piece.strip()
            if not piece or not piece[0].isalpha():
                raise UsageError(f"cannot parse Dynkin type {text!r}")
            family = piece[0].upper()
            try:
                rank = int(piece[1:])
            except ValueError:
                raise UsageError(f"cannot parse Dynkin type {text!r}") from None
            if piece[1:] != str(rank):  # int() also reads "1_0", "+7", " 7", "05" and "٣"
                raise UsageError(f"cannot parse Dynkin type {text!r}: write {family}{rank}")
            comps.append((family, rank))
        return DynkinType(tuple(comps))

    @property
    def rank(self) -> int:
        return sum(r for _, r in self.components)

    def name(self) -> str:
        if not self.components:
            return "1"
        return "x".join(f"{f}{r}" for f, r in self.components)

    def component_ranges(self):
        """Yield (family, rank, offset) with vertices offset+1..offset+rank."""
        off = 0
        for family, rank in self.components:
            yield family, rank, off
            off += rank

    def __str__(self):
        return self.name()


def _simple_cartan(family: str, rank: int):
    """Cartan matrix A[i][j] = <alpha_j, alpha_i^vee> in Bourbaki numbering."""
    n = rank
    a = [[0] * n for _ in range(n)]
    for i in range(n):
        a[i][i] = 2

    def bond(i, j, aij=-1, aji=-1):
        a[i][j] = aij
        a[j][i] = aji

    if family == "A":
        for i in range(n - 1):
            bond(i, i + 1)
    elif family == "B":
        for i in range(n - 2):
            bond(i, i + 1)
        # alpha_n short: <alpha_{n-1}, alpha_n^vee> = -2
        bond(n - 2, n - 1, -1, -2)
    elif family == "C":
        for i in range(n - 2):
            bond(i, i + 1)
        # alpha_n long: <alpha_n, alpha_{n-1}^vee> = -2
        bond(n - 2, n - 1, -2, -1)
    elif family == "D":
        for i in range(n - 3):
            bond(i, i + 1)
        bond(n - 3, n - 2)
        bond(n - 3, n - 1)
    elif family == "E":
        # chain 1-3-4-5-6(-7)(-8), vertex 2 attached to 4
        chain = [1, 3, 4, 5, 6, 7, 8][: n - 1]
        for u, v in zip(chain, chain[1:]):
            bond(u - 1, v - 1)
        bond(2 - 1, 4 - 1)
    elif family == "F":
        bond(0, 1)
        bond(1, 2, -1, -2)  # alpha_3 short
        bond(2, 3)
    elif family == "G":
        bond(0, 1, -3, -1)  # alpha_1 short
    return a


def _coxeter_number(family: str, rank: int) -> int:
    """The largest fundamental degree of a simple type."""
    if family == "A":
        return rank + 1
    if family in ("B", "C"):
        return 2 * rank
    if family == "D":
        return 2 * rank - 2
    return _EXCEPTIONAL_DEGREES[(family, rank)][-1]


class PositiveRoot(Record):
    """One positive root with its precomputed pairing data."""

    __slots__ = (
        "root",            # simple-root coordinates
        "omega",           # fundamental-weight coordinates (A @ root)
        "coroot",          # coordinates of beta^vee over the simple coroots
    )


class RootSystem:
    """Immutable root-system data for a (possibly reducible) Dynkin type."""

    def __init__(self, dtype: DynkinType):
        # a simple component of rank n and Coxeter number h has n h / 2 positive roots
        count = sum(rank * _coxeter_number(family, rank) // 2 for family, rank in dtype.components)
        if count > MAX_POSITIVE_ROOTS:
            raise ResourceLimitError(
                f"type {dtype.name()} has {count} positive roots, over the cap {MAX_POSITIVE_ROOTS}"
            )
        self.type = dtype
        n = dtype.rank
        self.rank = n
        cartan = [[0] * n for _ in range(n)]
        for family, rank, off in dtype.component_ranges():
            block = _simple_cartan(family, rank)
            for i in range(rank):
                for j in range(rank):
                    cartan[off + i][off + j] = block[i][j]
        self.cartan = tuple(tuple(row) for row in cartan)
        # column i of the Cartan matrix without its zeros: the entries s_i changes
        self._reflection_columns = tuple(
            tuple((j, cartan[j][i]) for j in range(n) if cartan[j][i]) for i in range(n)
        )
        self.positive_roots = self._close_positive_roots(count)
        self.rho = tuple([1] * n)

    # -- coordinates ---------------------------------------------------

    def alpha_omega(self, i: int):
        """omega-coordinates of alpha_i (0-based i): column i of the Cartan matrix."""
        return tuple(self.cartan[j][i] for j in range(self.rank))

    def reflect_weight(self, i: int, v):
        """Apply s_i to a weight vector in omega-coordinates (0-based i)."""
        vi = v[i]
        if vi == 0:
            return tuple(v)
        out = list(v)
        for j, a in self._reflection_columns[i]:
            out[j] -= a * vi
        return tuple(out)

    # -- construction --------------------------------------------------

    def _close_positive_roots(self, count: int):
        """Phi+ ordered by (height, root), closed from the simple roots under the s_i.

        A positive root beta with <beta, alpha_i^vee> = omega_i < 0 has the higher
        positive root s_i beta = beta - omega_i alpha_i, with omega-coordinates
        s_i omega and coroot s_i beta^vee = beta^vee - <alpha_i, beta^vee> alpha_i^vee;
        every non-simple positive root arises so.  The closure must give the `count`
        roots of the closed form, each with <beta, beta^vee> = 2.
        """
        n = self.rank
        # layers[h - 1]: root of height h -> (omega-coordinates, coroot)
        layers = [{}]
        for i in range(n):
            e = tuple(1 if j == i else 0 for j in range(n))
            layers[0][e] = (self.alpha_omega(i), e)
        out = []
        for layer in layers:  # grows while it is read: s_i beta lies above beta
            for root in sorted(layer):
                omega, coroot = layer[root]
                if sum(c * v for c, v in zip(coroot, omega)) != 2:
                    raise InternalComputationError(f"<beta, beta^vee> != 2 at root {root}")
                out.append(PositiveRoot(root, omega, coroot))
                for i, v in enumerate(omega):
                    if v < 0:
                        image = root[:i] + (root[i] - v,) + root[i + 1:]
                        height = sum(image)
                        while len(layers) < height:
                            layers.append({})
                        if image not in layers[height - 1]:
                            pairing = sum(coroot[j] * a for j, a in self._reflection_columns[i])
                            layers[height - 1][image] = (
                                self.reflect_weight(i, omega),
                                coroot[:i] + (coroot[i] - pairing,) + coroot[i + 1:],
                            )
            if len(out) > count:  # also ends a closure that would never stop
                break
        if len(out) != count:
            raise InternalComputationError(
                f"type {self.type.name()} closed to {len(out)} positive roots, not {count}"
            )
        return tuple(out)

    def num_positive_roots(self) -> int:
        return len(self.positive_roots)

    def __repr__(self):
        return f"RootSystem({self.type.name()})"


@cache
def _cached_root_system(name: str) -> RootSystem:
    return RootSystem(DynkinType.parse(name))


@cache
def _root_system_of_string(text: str) -> RootSystem:
    """The root system of a type string, cached by the string as spelled, so a type
    is parsed once per spelling a process meets; an invalid one raises on every call
    (a raising call is not cached)."""
    return _cached_root_system(DynkinType.parse(text).name())


def build_root_system(dtype) -> RootSystem:
    """Build (and cache) the root system of a DynkinType or type string."""
    if isinstance(dtype, str):
        return _root_system_of_string(dtype)
    if isinstance(dtype, DynkinType):
        return _cached_root_system(dtype.name())
    raise UsageError(f"expected DynkinType or string, got {type(dtype).__name__}")


def weyl_degrees(dtype) -> tuple:
    """Degrees of the fundamental invariants, concatenated over components.

    The product of the degrees is the order of the Weyl group; tests check
    this against exhaustive enumeration on small ranks.
    """
    if isinstance(dtype, str):
        dtype = DynkinType.parse(dtype)
    out = []
    for family, rank in dtype.components:
        if family == "A":
            out.extend(range(2, rank + 2))
        elif family in ("B", "C"):
            out.extend(range(2, 2 * rank + 1, 2))
        elif family == "D":
            out.extend(list(range(2, 2 * rank - 1, 2)) + [rank])
        else:
            out.extend(_EXCEPTIONAL_DEGREES[(family, rank)])
    return tuple(out)


# -- subsystems ---------------------------------------------------------


def _component_type(cartan, comp) -> tuple:
    """(family, rank) of a connected subdiagram, read off its shape alone.

    A multiple bond decides G2 (a -3), B_n (two vertices, or its short end a
    leaf), C_n (its long end a leaf) or F4 (neither end a leaf); a simply laced
    diagram is A_n without a branch vertex, D_n when two arms of the branch
    vertex have length 1, and E_n otherwise.
    """
    n = len(comp)
    adjacent = {v: [w for w in comp if w != v and cartan[v][w]] for v in comp}
    for short in comp:
        for long_ in adjacent[short]:
            if cartan[short][long_] == -3:
                return "G", 2
            if cartan[short][long_] == -2:
                if n == 2 or len(adjacent[short]) == 1:
                    return "B", n
                return ("C", n) if len(adjacent[long_]) == 1 else ("F", 4)
    branch = [v for v in comp if len(adjacent[v]) == 3]
    if not branch:
        return "A", n
    leaves = sum(len(adjacent[w]) == 1 for w in adjacent[branch[0]])
    return ("D", n) if leaves >= 2 else ("E", n)


def checked_vertices(rank: int, vertices, what: str = "vertex") -> tuple:
    """vertices as a sorted tuple without repeats, each an int (not a bool) in 1..rank.

    Anything else raises UsageError naming the range; `what` names the vertices.
    """
    vertices = tuple(vertices)
    for i in vertices:
        if not isinstance(i, int) or isinstance(i, bool):
            raise UsageError(f"{what} {i!r} must be an integer in 1..{rank}")
        if not 1 <= i <= rank:
            raise UsageError(f"{what} {i} out of range 1..{rank}")
    return tuple(sorted(set(vertices)))


def root_subsystem(rs: RootSystem, theta) -> DynkinType:
    """Dynkin type of the subsystem generated by {alpha_i : i in theta} (1-based).

    Each connected component of the induced subdiagram is classified by its
    shape; the components are sorted by (family, rank).
    """
    theta = checked_vertices(rs.rank, theta)
    cartan = rs.cartan
    left = {i - 1 for i in theta}
    components = []
    while left:
        comp = [left.pop()]
        for x in comp:
            near = [y for y in left if cartan[x][y]]
            left.difference_update(near)
            comp.extend(near)
        components.append(_component_type(cartan, comp))
    return DynkinType(tuple(sorted(components)))
