"""Root systems and weight lattices for simple and reducible Dynkin types.

Everything is integral and in Bourbaki numbering.  Two coordinate systems
are used throughout the package:

* simple-root coordinates: a root is an integer vector over alpha_1..alpha_n;
* fundamental-weight coordinates ("omega coordinates"): a weight is a vector
  over omega_1..omega_n.  The two are related by the Cartan matrix A:
  omega-coords of alpha_j = column j of A.

The simple reflection s_i acts on omega-coordinates by
    (s_i v)_j = v_j - A[j][i] * v_i,
which is the matrix form of s_i(omega_j) = omega_j - delta_ij alpha_i.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .errors import UsageError

FAMILIES = ("A", "B", "C", "D", "E", "F", "G")

#: degrees of the fundamental polynomial invariants, per family
_EXCEPTIONAL_DEGREES = {
    ("E", 6): (2, 5, 6, 8, 9, 12),
    ("E", 7): (2, 6, 8, 10, 12, 14, 18),
    ("E", 8): (2, 8, 12, 14, 18, 20, 24, 30),
    ("F", 4): (2, 6, 8, 12),
    ("G", 2): (2, 6),
}


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


@dataclass(frozen=True)
class DynkinType:
    """An ordered list of simple components, vertices labelled 1..n overall."""

    components: tuple  # tuple of (family, rank)

    def __post_init__(self):
        for family, rank in self.components:
            _check_family_rank(family, rank)

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


def _symmetrizer(cartan, n):
    """Positive integers d_i with d_i A[i][j] = d_j A[j][i]; short roots get 1."""
    d = [0] * n
    for start in range(n):
        if d[start]:
            continue
        d[start] = 1
        stack = [start]
        while stack:
            i = stack.pop()
            for j in range(n):
                if i != j and cartan[i][j] != 0 and not d[j]:
                    # d_j / d_i = A[i][j] / A[j][i]
                    num = d[i] * cartan[i][j]
                    den = cartan[j][i]
                    q = Fraction(num, den)
                    d[j] = q
                    stack.append(j)
    # clear denominators per component and normalize minimum to 1
    from math import gcd

    vals = []
    for x in d:
        f = Fraction(x)
        vals.append(f)
    lcm = 1
    for f in vals:
        lcm = lcm * f.denominator // gcd(lcm, f.denominator)
    ints = [int(f * lcm) for f in vals]
    g = 0
    for v in ints:
        g = gcd(g, v)
    return tuple(v // g for v in ints)


@dataclass(frozen=True)
class PositiveRoot:
    """One positive root with its precomputed pairing data."""

    root: tuple        # simple-root coordinates
    omega: tuple       # fundamental-weight coordinates (A @ root)
    coroot: tuple      # coordinates of beta^vee over the simple coroots
    height: int


class RootSystem:
    """Immutable root-system data for a (possibly reducible) Dynkin type."""

    def __init__(self, dtype: DynkinType):
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
        self.symmetrizer = _symmetrizer(cartan, n) if n else ()
        self.positive_roots = self._close_positive_roots()
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
        col = self.cartan
        return tuple(v[j] - col[j][i] * vi for j in range(self.rank))

    def reflect_root(self, i: int, c):
        """Apply s_i in simple-root coordinates: c - <sum c_j alpha_j, alpha_i^vee> e_i."""
        pairing = sum(self.cartan[i][j] * c[j] for j in range(self.rank))
        out = list(c)
        out[i] -= pairing
        return tuple(out)

    def root_to_omega(self, c):
        return tuple(
            sum(self.cartan[j][k] * c[k] for k in range(self.rank)) for j in range(self.rank)
        )

    # -- construction --------------------------------------------------

    def _close_positive_roots(self):
        """Height-by-height closure from the simple roots via root strings."""
        n = self.rank
        if n == 0:
            return ()
        layers = [[tuple(1 if j == i else 0 for j in range(n)) for i in range(n)]]
        seen = set(layers[0])
        while True:
            nxt = []
            for c in layers[-1]:
                for i in range(n):
                    # beta + alpha_i is a root iff q = p - <beta, alpha_i^vee> > 0,
                    # where p = max k with beta - k alpha_i a root
                    pairing = sum(self.cartan[i][j] * c[j] for j in range(n))
                    p = 0
                    probe = list(c)
                    while True:
                        probe[i] -= 1
                        if probe[i] < 0 or tuple(probe) not in seen:
                            break
                        p += 1
                    if p - pairing > 0:
                        up = list(c)
                        up[i] += 1
                        t = tuple(up)
                        if t not in seen:
                            seen.add(t)
                            nxt.append(t)
            if not nxt:
                break
            nxt.sort()
            layers.append(nxt)
        out = []
        for h, layer in enumerate(layers, start=1):
            for c in sorted(layer):
                omega = self.root_to_omega(c)
                # (beta,beta) = sum_ij c_i c_j d_i A[i][j]; coroot coords 2 d_i c_i/(beta,beta)
                norm = 0
                for i in range(self.rank):
                    if c[i]:
                        for j in range(self.rank):
                            if c[j]:
                                norm += c[i] * c[j] * self.symmetrizer[i] * self.cartan[i][j]
                coroot = []
                for i in range(self.rank):
                    num = 2 * self.symmetrizer[i] * c[i]
                    if num % norm != 0 and num != 0:
                        raise AssertionError("coroot coordinates must be integral")
                    coroot.append(num // norm if num else 0)
                out.append(PositiveRoot(root=c, omega=omega, coroot=tuple(coroot), height=h))
        return tuple(out)

    def num_positive_roots(self) -> int:
        return len(self.positive_roots)

    def __repr__(self):
        return f"RootSystem({self.type.name()})"


@lru_cache(maxsize=None)
def _cached_root_system(name: str) -> RootSystem:
    return RootSystem(DynkinType.parse(name))


def build_root_system(dtype) -> RootSystem:
    """Build (and cache) the root system of a DynkinType or type string."""
    if isinstance(dtype, str):
        return _cached_root_system(DynkinType.parse(dtype).name())
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


def _classify_component(cartan, verts):
    """Classify the connected subdiagram on `verts` and return it in Bourbaki order.

    cartan: ambient Cartan matrix (list of rows); verts: ambient 0-based
    vertex list.  Returns (family, rank, ordered ambient vertices) where
    position k (0-based) carries Bourbaki label k+1.
    """
    n = len(verts)
    adj = {v: [] for v in verts}
    bond = {}
    for a in verts:
        for b in verts:
            if a < b and cartan[a][b] != 0:
                adj[a].append(b)
                adj[b].append(a)
                bond[(a, b)] = bond[(b, a)] = cartan[a][b] * cartan[b][a]
    if n == 1:
        return ("A", 1, [verts[0]])

    deg = {v: len(adj[v]) for v in verts}
    triple = [e for e, m in bond.items() if m == 3]
    double = [e for e, m in bond.items() if m == 2]
    branch = [v for v in verts if deg[v] == 3]

    def chain_from(end, banned=()):
        """Walk a path starting at a leaf."""
        path = [end]
        prev = None
        cur = end
        while True:
            nxts = [w for w in adj[cur] if w != prev and w not in banned]
            if not nxts:
                return path
            prev, cur = cur, nxts[0]
            path.append(cur)

    if triple:
        # G2: alpha_1 short.  a[short][long] = -3 in our convention.
        a, b = triple[0]
        if cartan[a][b] == -3:
            return ("G", 2, [a, b])
        return ("G", 2, [b, a])

    if double:
        (u, v) = double[0]
        # short side: the vertex x of the bond with cartan[x][other] == -2
        short, long_ = (u, v) if cartan[u][v] == -2 else (v, u)
        if n == 2:
            # B2 convention: alpha_1 long, alpha_2 short
            return ("B", 2, [long_, short])
        # distinguish B (short leaf) from C (long leaf) from F4 (central bond)
        if deg[short] == 1:
            # B_n: short root is the last vertex
            path = chain_from(short)
            path.reverse()
            return ("B", n, path)
        if deg[long_] == 1:
            # C_n: long root is the last vertex
            path = chain_from(long_)
            path.reverse()
            return ("C", n, path)
        # F4: double bond in the middle; Bourbaki order walks long side first
        long_leaf = [w for w in verts if deg[w] == 1 and _reaches(adj, w, long_, avoid=short)]
        path = chain_from(long_leaf[0])
        if not (len(path) == 4 and path[1] == long_ and path[2] == short):
            raise UsageError("subdiagram is not of finite Dynkin type")
        return ("F", 4, path)

    if not branch:
        # simply laced chain: A_n; pick the orientation with lex-least vertices
        leaves = [v for v in verts if deg[v] == 1]
        p1 = chain_from(leaves[0])
        p2 = list(reversed(p1))
        return ("A", n, min(p1, p2))

    c = branch[0]
    arms = []
    for w in adj[c]:
        arm = [w]
        prev = c
        cur = w
        while True:
            nxts = [x for x in adj[cur] if x != prev]
            if not nxts:
                break
            prev, cur = cur, nxts[0]
            arm.append(cur)
        arms.append(arm)
    arms.sort(key=lambda a: (len(a), a))
    l1, l2, l3 = (len(a) for a in arms)
    if l1 == 1 and l2 == 1:
        # D_n: long arm = 1..n-3, branch = n-2, the two short arms n-1, n
        long_arm = list(reversed(arms[2]))
        tips = sorted([arms[0][0], arms[1][0]])
        return ("D", n, long_arm + [c] + tips)
    if l1 == 1 and l2 == 2:
        # E_n: vertex 2 = the length-1 arm, chain 1-3-4(=branch)-5-6-...
        two = arms[0][0]
        mids = [a for a in (arms[1], arms[2]) if len(a) == 2]
        longs = [a for a in (arms[1], arms[2]) if len(a) > 2]
        if longs:
            armB = mids[0]          # 3, 1
            armC = longs[0]         # 5, 6, ...
        else:
            # E6: two arms of length 2; pick lex-least labelling
            o1 = [mids[0][1], mids[0][0], c, mids[1][0], mids[1][1]]
            o2 = [mids[1][1], mids[1][0], c, mids[0][0], mids[0][1]]
            seq = min(o1, o2)
            return ("E", 6, [seq[0], two, seq[1], seq[2], seq[3], seq[4]])
        order = [armB[1], two, armB[0], c] + armC
        return ("E", n, order)
    raise UsageError("subdiagram is not of finite Dynkin type")


def _reaches(adj, start, target, avoid):
    seen = {start, avoid}
    stack = [start]
    while stack:
        x = stack.pop()
        if x == target:
            return True
        for y in adj[x]:
            if y not in seen:
                seen.add(y)
                stack.append(y)
    return False


class Subsystem:
    """A root subsystem with its own RootSystem plus the ambient embedding."""

    def __init__(self, system: RootSystem, embedding: tuple):
        self.system = system
        #: embedding[k] = ambient 1-based vertex carrying the subsystem's vertex k+1
        self.embedding = embedding

    @property
    def type(self) -> DynkinType:
        return self.system.type


def root_subsystem(rs: RootSystem, theta) -> Subsystem:
    """The subsystem generated by {alpha_i : i in theta} (1-based labels).

    Components are classified by subdiagram shape, relabelled to Bourbaki
    numbering, and sorted by (family, rank) then by embedding for output
    determinism.
    """
    theta = sorted(set(theta))
    for i in theta:
        if not 1 <= i <= rs.rank:
            raise UsageError(f"vertex {i} out of range 1..{rs.rank}")
    verts = [i - 1 for i in theta]
    cartan = [list(row) for row in rs.cartan]
    # connected components of the induced subdiagram
    comps = []
    left = set(verts)
    while left:
        start = min(left)
        stack, comp = [start], {start}
        while stack:
            x = stack.pop()
            for y in verts:
                if y not in comp and cartan[x][y] != 0:
                    comp.add(y)
                    stack.append(y)
        left -= comp
        comps.append(sorted(comp))
    classified = [_classify_component(cartan, comp) for comp in comps]
    classified.sort(key=lambda t: (t[0], t[1], t[2]))
    families = tuple((f, r) for f, r, _ in classified)
    embedding = tuple(v + 1 for _, _, order in classified for v in order)
    sub = build_root_system(DynkinType(families)) if families else build_root_system(DynkinType(()))
    return Subsystem(sub, embedding)
