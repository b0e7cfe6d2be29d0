"""The Chow ring of G/P_Theta in the Schubert basis.

Basis classes [X_w] are indexed by positions in the CosetTable of W^Theta;
codim [X_w] = dim X - l(w), so index 0 (the identity) is the point class
and the longest representative is the fundamental class.

Multiplication follows the characteristic-map procedure: find rational
preimages of both factors among products of W_Theta-invariant generator
polynomials, multiply in the polynomial ring, and push back through the
characteristic map

    c(u) = sum over w in W^Theta with l(w) = deg u of Delta_w(u) [X_{w0 w wt}].

Complementary-degree products short-circuit through Poincaré duality
(which is the same answer, by the duality formula itself), and products
whose target codimension exceeds half the dimension are assembled from
duality pairings so the polynomial work stays at degree <= dim/2 + 1.

Divided-difference chains Delta_w share work across w: canonical words are
built by the coset BFS as (letter) + parent word, so Delta_w(u) =
Delta_letter(Delta_parent(u)) and one sweep over the table computes every
chain, level by level.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from math import gcd, isqrt

from . import univar
from .errors import InternalComputationError, ResourceLimitError, UsageError
from .polynomial import Polynomial, elementary_symmetric_classes
from .rootdata import RootSystem, build_root_system, root_subsystem, weyl_degrees
from .weyl import CosetTable, WeylElement, _canonical_from_image, coset_reps


# ---------------------------------------------------------------------------
# Chow classes


@dataclass
class ChowClass:
    """A sparse element of CH*(G/P_Theta) over the Schubert basis."""

    type_name: str
    theta: tuple
    ring: str                 # "Z", "Q", or "Z/p"
    coeffs: dict              # basis index -> coefficient

    def copy(self):
        return ChowClass(self.type_name, self.theta, self.ring, dict(self.coeffs))

    def is_zero(self):
        return not self.coeffs

    def support_codims(self, ct: CosetTable):
        return {ct.codim(k) for k in self.coeffs}

    def codim(self, ct: CosetTable):
        cds = self.support_codims(ct)
        if len(cds) > 1:
            raise UsageError(f"class is not homogeneous (codims {sorted(cds)})")
        return cds.pop() if cds else None

    def __add__(self, other):
        _check_compatible(self, other)
        out = dict(self.coeffs)
        for k, c in other.coeffs.items():
            v = out.get(k, 0) + c
            out[k] = v
        cls = ChowClass(self.type_name, self.theta, self.ring, out)
        return _normalize(cls)

    def scale(self, c):
        return _normalize(
            ChowClass(self.type_name, self.theta, self.ring, {k: c * v for k, v in self.coeffs.items()})
        )

    def __eq__(self, other):
        return (
            isinstance(other, ChowClass)
            and self.type_name == other.type_name
            and self.theta == other.theta
            and self.ring == other.ring
            and self.coeffs == other.coeffs
        )


@cache
def _ring_modulus(ring: str):
    """None for Z and Q, p for Z/p; a non-prime p is a usage error (inverses mod p need a field)."""
    if ring in ("Z", "Q"):
        return None
    if ring.startswith("Z/"):
        try:
            p = int(ring[2:])
        except ValueError:
            raise UsageError(f"bad ring {ring!r}") from None
        # trial division stays fast below the cap, which no torsion prime comes
        # near, and the cache spares _normalize from repeating it for every class
        if not 2 <= p < 1 << 31 or any(p % d == 0 for d in range(2, isqrt(p) + 1)):
            raise UsageError(f"bad ring {ring!r}: the modulus must be a prime below 2^31")
        return p
    raise UsageError(f"unknown ring {ring!r}")


def _normalize(cls: ChowClass) -> ChowClass:
    p = _ring_modulus(cls.ring)
    out = {}
    for k, c in cls.coeffs.items():
        if p is not None:
            if isinstance(c, Fraction):
                if c.denominator % p == 0:
                    raise InternalComputationError(f"denominator not invertible mod {p}")
                c = c.numerator * pow(c.denominator, -1, p)
            c = c % p
        elif cls.ring == "Z":
            if isinstance(c, Fraction):
                if c.denominator != 1:
                    raise InternalComputationError("non-integral coefficient in Z-class")
                c = int(c)
        if c:
            out[k] = c
    cls.coeffs = out
    return cls


def _check_compatible(a: ChowClass, b: ChowClass):
    if a.type_name != b.type_name or a.theta != b.theta:
        raise UsageError("classes live on different varieties")
    if a.ring != b.ring:
        raise UsageError(f"coefficient rings differ: {a.ring} vs {b.ring}")


def class_to_json(cls: ChowClass, ct: CosetTable) -> str:
    terms = [
        {"word": list(ct.reps[k].word), "coeff": int(c) if not isinstance(c, Fraction) else str(c)}
        for k, c in sorted(cls.coeffs.items())
    ]
    return json.dumps(
        {"type": cls.type_name, "theta": list(cls.theta), "ring": cls.ring, "terms": terms},
        sort_keys=True,
    )


def class_from_json(text: str) -> ChowClass:
    try:
        data = json.loads(text)
        type_name = data["type"]
        theta = tuple(sorted(data.get("theta", [])))
        ring = data.get("ring", "Z")
        rs = build_root_system(type_name)
        ct = coset_reps(rs, theta)
        coeffs: dict = {}
        for term in data.get("terms", []):
            word = term["word"]
            w = WeylElement.from_word(rs, word)
            k = ct.index.get(w.word)
            if k is None:
                raise UsageError(f"word {word} is not a minimal coset representative")
            if term.get("dual"):
                k = ct.dual_index(k)
            coeffs[k] = coeffs.get(k, 0) + _coefficient_from_json(term.get("coeff", 1))
    except (KeyError, TypeError, ValueError) as exc:
        raise UsageError(f"malformed class JSON: {exc}") from exc
    p = _ring_modulus(ring)
    for c in coeffs.values():
        den = c.denominator if isinstance(c, Fraction) else 1
        if p is not None and den % p == 0:
            raise UsageError(f"coefficient {c} has a denominator that is not invertible in {ring}")
        if ring == "Z" and den != 1:
            raise UsageError(f"coefficient {c} is not an integer, as ring Z requires")
    return _normalize(ChowClass(type_name, theta, ring, coeffs))


def _coefficient_from_json(c):
    """An exact coefficient: a JSON integer or a rational string such as "-3/4"."""
    if isinstance(c, int) and not isinstance(c, bool):
        return c
    if isinstance(c, str):
        return Fraction(c)
    raise UsageError(f"coefficient {c!r} must be an integer or a rational string")


# ---------------------------------------------------------------------------
# Poincaré polynomial (Solomon)


def poincare_polynomial(rs: RootSystem, theta) -> tuple:
    """Ratio of degree products; exact division, error on nonzero remainder."""
    theta = tuple(sorted(set(theta)))
    num = univar.ONE
    for d in weyl_degrees(rs.type):
        num = univar.mul(num, univar.t_power_minus_one(d))
    den = univar.ONE
    sub = root_subsystem(rs, theta)
    sub_degrees = weyl_degrees(sub.type)
    for d in sub_degrees:
        den = univar.mul(den, univar.t_power_minus_one(d))
    for _ in range(rs.rank - len(sub_degrees)):
        den = univar.mul(den, univar.t_power_minus_one(1))
    return univar.divide_exact(num, den, "Poincaré")


# ---------------------------------------------------------------------------
# Duality and Pieri


def dual(ct: CosetTable, w) -> int:
    """Index of w0 w w_theta for w given as a rep index or WeylElement."""
    if isinstance(w, WeylElement):
        k = ct.index.get(w.word)
        if k is None:
            raise UsageError("element is not a minimal coset representative")
    else:
        k = int(w)
    return ct.dual_index(k)


def duality_product(ct: CosetTable, a: int, b: int) -> int:
    """Coefficient of the point class in [X_a][X_b] for complementary codims."""
    if ct.codim(a) + ct.codim(b) != ct.max_length:
        raise UsageError("codimensions are not complementary")
    return 1 if ct.dual_index(a) == b else 0


def pieri_multiply(rs: RootSystem, alpha: int, w: WeylElement) -> ChowClass:
    """Chevalley/Pieri product [X_{w0 s_alpha}] * [X_w] on the full flag variety.

    Runs over positive roots beta with l(w s_beta) = l(w) - 1; the
    coefficient is <beta^vee, omega_alpha>.
    """
    if not 1 <= alpha <= rs.rank:
        raise UsageError(f"divisor index {alpha} out of range")
    ct = coset_reps(rs, ())
    out = {}
    for pr in rs.positive_roots:
        pairing_rho = sum(pr.coroot)  # <rho, beta^vee>
        v = tuple(r - pairing_rho * o for r, o in zip(rs.rho, pr.omega))
        word = _canonical_from_image(rs, w.act(v))  # canonical word of w s_beta
        if len(word) != w.length - 1:
            continue
        coeff = pr.coroot[alpha - 1]  # <beta^vee, omega_alpha>
        if coeff:
            k = ct.index[word]
            out[k] = out.get(k, 0) + coeff
    return _normalize(ChowClass(rs.type.name(), (), "Z", out))


# ---------------------------------------------------------------------------
# Divided differences and the characteristic map


def divided_difference(rs: RootSystem, word, u: Polynomial) -> Polynomial:
    """Delta_{s_{i1}} o ... o Delta_{s_ik} applied to u (word need not be reduced)."""
    for i in reversed(tuple(word)):
        if not 1 <= i <= rs.rank:
            raise UsageError(f"letter {i} out of range")
        u = u.divided_difference(i - 1)
    return u


class _FlagContext:
    """Per-(root system, theta) machinery: coset table, generators, preimage grids, memos."""

    GRID_LIMIT = 4000  # safety valve on grid enumeration

    def __init__(self, rs: RootSystem, theta):
        self.rs = rs
        self.theta = tuple(sorted(set(theta)))
        self.ct = coset_reps(rs, self.theta)
        self.dim = self.ct.max_length
        self.poincare = poincare_polynomial(rs, self.theta)
        self._gens = None
        self._grid = {}          # degree -> (pivot_exps, pivot_polys, blocks for solving)
        self._basis_preimage = {}
        self._pair_memo = {}
        # Grow-on-demand memos: an entry computed up to bound b serves requests <= b.
        self._chern = {}          # ring -> [c_0, ..., c_b]
        self._phi_cache = {}      # basis index -> (b, Phi pieces up to offset b)
        self._steenrod_cache = {}  # basis index -> (b, S^0..S^b pieces)

    # -- invariant generators -----------------------------------------

    @property
    def gens(self):
        if self._gens is None:
            self._gens = _invariant_generators(self.rs, self.theta)
        return self._gens

    # -- delta tree -----------------------------------------------------

    def delta_scalars(self, P: Polynomial, max_len=None):
        """Constant terms of Delta_w(P) for every rep w, sharing chain prefixes.

        P may be inhomogeneous: the constant term of Delta_w(P) picks out
        exactly the degree-l(w) component's contribution.
        """
        ct = self.ct
        dmax = P.degree() if max_len is None else min(P.degree(), max_len)
        out = {}
        prev = {}
        cur = {}
        for k, w in enumerate(ct.reps):
            if w.length > dmax:
                break
            if k == 0:
                q = P
            else:
                parent = ct.parent[k]
                src = cur.get(parent)
                if src is None:
                    src = prev.get(parent)
                q = src.divided_difference(ct.parent_label[k] - 1)
            if w.length > 0 and ct.reps[k - 1].length < w.length:
                prev = cur
                cur = {}
            cur[k] = q
            c = q.terms.get(0, 0)  # the packed key of the constant monomial
            if c:
                out[k] = c
        return out

    def char_map_graded(self, P: Polynomial, ring="Q", max_codim=None):
        """Characteristic image of a possibly inhomogeneous invariant P.

        Returns {degree: ChowClass}; each graded piece of P of degree d
        contributes at codimension d via index w -> dual index.
        """
        scalars = self.delta_scalars(P, max_len=max_codim)
        graded = {}
        for k, c in scalars.items():
            d = self.ct.reps[k].length
            graded.setdefault(d, {})[self.ct.dual_index(k)] = c
        return {
            d: _normalize(ChowClass(self.rs.type.name(), self.theta, ring, coeffs))
            for d, coeffs in sorted(graded.items())
        }

    # -- preimage grid ----------------------------------------------------

    def _grid_products(self, d):
        """Exponent vectors over the generators with total degree d, sparse first."""
        gens = self.gens
        degs = [g.degree() for g in gens]
        out = []

        def rec(idx, remaining, acc):
            if remaining == 0:
                out.append(tuple(acc))
                return
            if idx == len(gens):
                return
            step = degs[idx]
            max_e = remaining // step
            for e in range(max_e + 1):
                rec(idx + 1, remaining - e * step, acc + [e])

        rec(0, d, [])
        if len(out) > self.GRID_LIMIT:
            raise ResourceLimitError(
                f"preimage grid of {len(out)} products at degree {d} exceeds {self.GRID_LIMIT}"
            )

        def sparsity(exps):
            heavy = sum(e * degs[j] for j, e in enumerate(exps) if degs[j] > 1)
            return (heavy, sum(1 for j, e in enumerate(exps) if e and degs[j] > 1), exps)

        out.sort(key=sparsity)
        return out

    def _product_poly(self, exps):
        gens = self.gens
        P = Polynomial.one(self.rs)
        for j, e in enumerate(exps):
            for _ in range(e):
                P = P * gens[j]
        return P

    def grid(self, d):
        """Pivot products spanning CH^d tensor Q, with a solver for preimages.

        Products are imaged one by one in sparsity order until the images
        span; the rest of the grid is never touched.
        """
        hit = self._grid.get(d)
        if hit is not None:
            return hit
        target_rank = self.poincare[d] if d < len(self.poincare) else 0
        positions = [k for k in range(len(self.ct)) if self.ct.codim(k) == d]
        pos_index = {k: t for t, k in enumerate(positions)}
        pivots = []       # (exps, Polynomial, image vector over positions)
        rows = []         # row-echelon scratch: list of (vector, combo index)
        if target_rank == 0:
            self._grid[d] = ([], positions, [])
            return self._grid[d]
        for exps in self._grid_products(d):
            P = self._product_poly(exps)
            den, IP = P.to_integer()
            scalars = self.delta_scalars(IP)
            vec = [Fraction(0)] * len(positions)
            for k, c in scalars.items():
                if self.ct.reps[k].length == d:
                    vec[pos_index[self.ct.dual_index(k)]] = Fraction(c, den)
            if _adds_rank(rows, vec):
                pivots.append((exps, P, tuple(vec)))
                if len(pivots) == target_rank:
                    break
        if len(pivots) < target_rank:
            raise InternalComputationError(
                f"invariant products do not span CH^{d} (rank {len(pivots)} < {target_rank})"
            )
        inv = _invert_matrix([list(p[2]) for p in pivots])
        self._grid[d] = (pivots, positions, inv)
        return self._grid[d]

    def basis_preimages(self, d):
        """Preimage polynomials for every basis class of codimension d.

        The linear identity sum_j inv[j][t] * image_j = e_t is re-verified
        exactly, which certifies char_map(preimage) = class for each basis
        element (char_map is linear and the images were computed by it).
        """
        hit = self._basis_preimage.get(d)
        if hit is not None:
            return hit
        pivots, positions, inv = self.grid(d)
        out = {}
        for t, k in enumerate(positions):
            # x with sum_j x_j image_j = e_t is row t of the inverse matrix
            u = Polynomial.zero(self.rs)
            for j in range(len(pivots)):
                c = inv[t][j]
                if c:
                    u = u + pivots[j][1].scale(c)
            check = [
                sum(inv[t][j] * pivots[j][2][s] for j in range(len(pivots)))
                for s in range(len(positions))
            ]
            if any(check[s] != (1 if s == t else 0) for s in range(len(positions))):
                raise InternalComputationError("preimage verification failed")
            out[k] = u.map_fractions()
        self._basis_preimage[d] = out
        return out

    def preimage_of(self, cls: ChowClass) -> Polynomial:
        d = cls.codim(self.ct)
        if d is None:
            return Polynomial.zero(self.rs)
        pre = self.basis_preimages(d)
        u = Polynomial.zero(self.rs)
        for k, c in cls.coeffs.items():
            u = u + pre[k].scale(c)
        return u

    # -- Chern classes ----------------------------------------------------

    def chern_classes(self, max_codim=None, ring="Z"):
        """Graded Chern classes of the tangent bundle, c_0 .. c_max_codim."""
        if max_codim is not None and max_codim < 0:
            raise UsageError(f"codimension must be nonnegative, got {max_codim}")
        top = self.dim if max_codim is None else min(max_codim, self.dim)
        cached = self._chern.get(ring)
        if cached is not None and len(cached) > top:
            return cached[: top + 1]
        theta_set = set(self.theta)
        U = [pr for pr in self.rs.positive_roots
             if any(pr.root[j] for j in range(self.rs.rank) if (j + 1) not in theta_set)]
        # W_Theta permutes U (it fixes the theta-span and Phi+ minus simple thetas)
        uset = {pr.root for pr in U}
        for i in self.theta:
            for pr in U:
                img = self.rs.reflect_root(i - 1, pr.root)
                if img not in uset:
                    raise InternalComputationError("unipotent-radical roots not Theta-stable")
        es = elementary_symmetric_classes(self.rs, [pr.omega for pr in U], top, _ring_modulus(ring))
        # the e_k have distinct degrees, so their terms never collide
        total = Polynomial(self.rs, {m: c for e in es for m, c in e.terms.items()})
        graded = self.char_map_graded(total, ring=ring, max_codim=top)
        out = []
        for dgr in range(top + 1):
            cls = graded.get(dgr)
            if cls is None:
                cls = ChowClass(self.rs.type.name(), self.theta, ring, {})
            out.append(cls)
        self._chern[ring] = out
        return out


def _adds_rank(rows, vec):
    """Row-echelon insert; True if vec was independent of current rows."""
    v = list(vec)
    for pivot_col, pivot_row in rows:
        c = v[pivot_col]
        if c:
            f = c / pivot_row[pivot_col]
            for i in range(len(v)):
                if pivot_row[i]:
                    v[i] -= f * pivot_row[i]
    for i, c in enumerate(v):
        if c:
            rows.append((i, v))
            return True
    return False


def _invert_matrix(rows):
    """Exact inverse of a square matrix over the rationals."""
    n = len(rows)
    a = [[Fraction(x) for x in row] + [Fraction(1 if j == i else 0) for j in range(n)]
         for i, row in enumerate(rows)]
    for col in range(n):
        piv = next((r for r in range(col, n) if a[r][col]), None)
        if piv is None:
            raise InternalComputationError("singular matrix")
        a[col], a[piv] = a[piv], a[col]
        f = a[col][col]
        a[col] = [x / f for x in a[col]]
        for r in range(n):
            if r != col and a[r][col]:
                g = a[r][col]
                a[r] = [x - g * y for x, y in zip(a[r], a[col])]
    return [row[n:] for row in a]


def flag_context(rs: RootSystem, theta) -> _FlagContext:
    """The shared _FlagContext of G/P_Theta (cached per root system and theta)."""
    return _flag_context(rs, tuple(sorted(set(theta))))


@cache
def _flag_context(rs: RootSystem, theta: tuple) -> _FlagContext:
    return _FlagContext(rs, theta)


# ---------------------------------------------------------------------------
# Invariant generators


_CANDIDATE_POINTS = (
    (1, 2, 3, 4, 5, 6, 7, 8),
    (1, 4, 9, 16, 25, 36, 49, 64),
    (2, 3, 5, 7, 11, 13, 17, 19),
)


def _sub_fundamental_seeds(rs: RootSystem, theta):
    """Fundamental weights of <Theta> in ambient omega-coordinates, integer-scaled."""
    theta = tuple(sorted(set(theta)))
    m = len(theta)
    # seed j solves sum_k A[i][k] c_k = delta_ij over i, k in theta: column j of A_Theta^-1
    inv = _invert_matrix([[rs.cartan[i - 1][k - 1] for k in theta] for i in theta])
    seeds = []
    for j in range(m):
        c = [inv[k][j] for k in range(m)]
        coords = [Fraction(0)] * rs.rank
        for k in range(m):
            if c[k]:
                alpha = rs.alpha_omega(theta[k] - 1)
                for t in range(rs.rank):
                    coords[t] += c[k] * alpha[t]
        den = 1
        for x in coords:
            den = den * x.denominator // gcd(den, x.denominator)
        seeds.append(tuple(int(x * den) for x in coords))
    return seeds


def _orbit(rs: RootSystem, theta, seed):
    seen = {tuple(seed)}
    frontier = [tuple(seed)]
    while frontier:
        nxt = []
        for v in frontier:
            for i in theta:
                u = rs.reflect_weight(i - 1, v)
                if u not in seen:
                    seen.add(u)
                    nxt.append(u)
        frontier = nxt
    return sorted(seen)


def _orbit_power_sums(rs, orbit, degrees):
    """Power sums of the linear forms of an orbit, one polynomial per degree."""
    dmax = max(degrees)
    sums = {d: Polynomial.zero(rs) for d in degrees}
    for mu in orbit:
        form = Polynomial.linear_form(rs, mu)
        p = Polynomial.one(rs)
        for d in range(1, dmax + 1):
            p = p * form
            if d in sums:
                sums[d] = sums[d] + p
    return sums


def _invariant_generators(rs: RootSystem, theta):
    """omega_i (i not in theta) plus one invariant per fundamental degree of <Theta>.

    Candidates are orbit power sums of the subsystem's fundamental weights;
    a candidate fills a degree slot when it enlarges the Jacobian rank at a
    fixed test point, and the final set is validated by a nonzero Jacobian
    determinant (functional independence, hence a generating set by the
    degree-product criterion).
    """
    theta = tuple(sorted(set(theta)))
    n = rs.rank
    base = [Polynomial.variable(rs, i) for i in range(1, n + 1) if i not in theta]
    if not theta:
        return base
    sub = root_subsystem(rs, theta)
    slots = sorted(weyl_degrees(sub.type))
    seeds = _sub_fundamental_seeds(rs, theta)
    orbits = [_orbit(rs, theta, s) for s in seeds]
    order = sorted(range(len(orbits)), key=lambda i: (len(orbits[i]), i))
    wanted = sorted(set(slots))
    sums_by_seed = [
        _orbit_power_sums(rs, orbits[i], wanted) for i in order
    ]

    for point in _CANDIDATE_POINTS:
        pt = point[:n]
        rows = []
        for g in base:
            grad = [g.derivative(j).evaluate(pt) for j in range(n)]
            _adds_rank(rows, [Fraction(x) for x in grad])
        chosen = []
        ok = True
        for d in slots:
            found = None
            for sums in sums_by_seed:
                cand = sums[d]
                if cand.is_zero() or any(cand == c for c in chosen):
                    continue
                grad = [Fraction(cand.derivative(j).evaluate(pt)) for j in range(n)]
                if _adds_rank(rows, grad):
                    found = cand
                    break
            if found is None:
                ok = False
                break
            chosen.append(found)
        if ok and len(rows) == n:
            for g in chosen:
                if not g.is_invariant_under(theta):
                    raise InternalComputationError("orbit power sum failed invariance")
            return base + chosen
    raise InternalComputationError(
        f"could not assemble invariant generators for theta={list(theta)}"
    )


def invariant_generators(rs: RootSystem, theta):
    return flag_context(rs, theta).gens


# ---------------------------------------------------------------------------
# Public characteristic map / preimage / multiplication


def char_map(rs: RootSystem, theta, u: Polynomial, check: bool = True) -> ChowClass:
    """The map c(u) = sum Delta_w(u) [X_{w0 w wt}] for homogeneous invariant u."""
    ctx = flag_context(rs, theta)
    if check:
        if not u.is_homogeneous():
            raise UsageError("char_map requires a homogeneous polynomial")
        if not u.is_invariant_under(ctx.theta):
            raise UsageError("polynomial is not W_Theta-invariant")
    if u.is_zero() or u.degree() > ctx.dim:
        return ChowClass(rs.type.name(), ctx.theta, "Q", {})
    graded = ctx.char_map_graded(u)
    cls = graded.get(u.degree(), ChowClass(rs.type.name(), ctx.theta, "Q", {}))
    if all(not isinstance(c, Fraction) or c.denominator == 1 for c in cls.coeffs.values()):
        cls = ChowClass(cls.type_name, cls.theta, "Z", {k: int(c) for k, c in cls.coeffs.items()})
    else:
        cls.ring = "Q"
    return _normalize(cls)


def preimage(cls: ChowClass) -> Polynomial:
    """A W_Theta-invariant polynomial u with char_map(u) = cls.

    The solve is re-verified exactly against the cached characteristic
    images inside basis_preimages; mod-p classes are lifted to integer
    representatives first (any lift works, c is functorial in coefficients).
    """
    rs = build_root_system(cls.type_name)
    ctx = flag_context(rs, cls.theta)
    return ctx.preimage_of(_lift_to_rational(cls))


def _lift_to_rational(cls: ChowClass) -> ChowClass:
    """Interpret mod-p coefficients as integers in [0, p) for preimage work."""
    return ChowClass(cls.type_name, cls.theta, "Q", {k: Fraction(c) for k, c in cls.coeffs.items()})


def multiply(a: ChowClass, b: ChowClass) -> ChowClass:
    """Product in CH*(G/P_Theta); dispatches on total codimension."""
    _check_compatible(a, b)
    rs = build_root_system(a.type_name)
    ctx = flag_context(rs, a.theta)
    if a.is_zero() or b.is_zero():
        return ChowClass(a.type_name, a.theta, a.ring, {})
    parts_a = _graded_parts(a, ctx)
    parts_b = _graded_parts(b, ctx)
    total = ChowClass(a.type_name, a.theta, a.ring, {})
    for da, ca in parts_a.items():
        for db, cb in parts_b.items():
            total = total + _multiply_homogeneous(ctx, ca, cb, da, db)
    return _normalize(total)


def _graded_parts(cls: ChowClass, ctx: _FlagContext):
    out = {}
    for k, c in cls.coeffs.items():
        d = ctx.ct.codim(k)
        out.setdefault(d, ChowClass(cls.type_name, cls.theta, cls.ring, {})).coeffs[k] = c
    return out


def _poly_limit(dim: int) -> int:
    return max((dim + 1) // 2 + 1, 9)


def _multiply_homogeneous(ctx, a, b, da, db):
    k = da + db
    ring = a.ring
    empty = ChowClass(a.type_name, a.theta, ring, {})
    if k > ctx.dim:
        return empty
    if da == 0:
        c = a.coeffs.get(len(ctx.ct) - 1, 0)
        return b.scale(c)
    if db == 0:
        c = b.coeffs.get(len(ctx.ct) - 1, 0)
        return a.scale(c)
    if k == ctx.dim:
        val = _pairing(ctx, a, b)
        return _normalize(ChowClass(a.type_name, a.theta, ring, {0: val} if val else {}))
    memo_key = (_freeze(a), _freeze(b))
    hit = ctx._pair_memo.get(memo_key)
    if hit is not None:
        return hit.copy()
    limit = _poly_limit(ctx.dim)
    if k <= limit or max(da, db) < ctx.dim - limit:
        out = _multiply_poly_route(ctx, a, b, k, ring)
    else:
        out = _multiply_by_pairings(ctx, a, b, da, db, ring)
    ctx._pair_memo[memo_key] = out.copy()
    return out


def _freeze(cls):
    return (cls.ring, tuple(sorted(cls.coeffs.items())))


def _pairing(ctx, a, b):
    """Coefficient of the point class in a product of complementary classes."""
    total = 0
    for k, c in a.coeffs.items():
        d = b.coeffs.get(ctx.ct.dual_index(k))
        if d:
            total += c * d
    p = _ring_modulus(a.ring)
    return total % p if p is not None else total


def _multiply_poly_route(ctx, a, b, k, ring):
    ua = ctx.preimage_of(_lift_to_rational(a))
    ub = ctx.preimage_of(_lift_to_rational(b))
    da, A = ua.to_integer()
    db, B = ub.to_integer()
    P = A * B
    scalars = ctx.delta_scalars(P, max_len=k)
    den = da * db
    coeffs = {}
    for idx, c in scalars.items():
        if ctx.ct.reps[idx].length == k:
            v = Fraction(c, den)
            if v:
                coeffs[ctx.ct.dual_index(idx)] = v
    return _normalize(ChowClass(a.type_name, a.theta, ring, coeffs))


def _multiply_by_pairings(ctx, a, b, da, db, ring):
    """Assemble a high-codimension product from duality pairings.

    coeff of [X_v] in a*b is deg(a * (b * [Z_v])); the inner product has
    total codimension dim - da, which the caller guarantees is small.
    """
    k = da + db
    if da < db:
        a, b, da, db = b, a, db, da
    out = {}
    for v in range(len(ctx.ct)):
        if ctx.ct.codim(v) != k:
            continue
        zv = ChowClass(a.type_name, a.theta, ring, {ctx.ct.dual_index(v): 1})
        inner = _multiply_homogeneous(ctx, b, zv, db, ctx.dim - k)
        val = _pairing(ctx, a, inner)
        if val:
            out[v] = val
    return _normalize(ChowClass(a.type_name, a.theta, ring, out))


def pullback_to_flags(cls: ChowClass) -> ChowClass:
    """CH*(G/P) -> CH*(G/B), [X_w] -> [X_{w w_theta}] (a ring injection)."""
    rs = build_root_system(cls.type_name)
    ctx = flag_context(rs, cls.theta)
    flags = coset_reps(rs, ())
    out = {}
    for k, c in cls.coeffs.items():
        w = ctx.ct.reps[k] * ctx.ct.w_theta
        out[flags.index[w.word]] = c
    return _normalize(ChowClass(cls.type_name, (), cls.ring, out))


def chern_tangent(rs: RootSystem, theta, max_codim=None, ring="Z"):
    """Graded Chern classes of T_{G/P_Theta} via the characteristic map."""
    return flag_context(rs, theta).chern_classes(max_codim=max_codim, ring=ring)
