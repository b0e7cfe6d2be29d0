"""The Chow ring of G/P_Theta in the Schubert basis.

Basis classes [X_w] are indexed by positions in the CosetTable of W^Theta;
codim [X_w] = dim X - l(w), so index 0 (the identity) is the point class
and the longest representative is the fundamental class.  The basis class at
position k is the Schubert class xi^v of v = w0 w_k w_Theta, the
representative at `ct.dual_index(k)`, of codimension l(v).

Products and Chern classes are computed by localization at the T-fixed
points, one per representative x (Kostant-Kumar; Billey, Duke Math. J. 96):
an equivariant class is determined by its restrictions to the fixed points,
and the restriction of xi^v to x vanishes unless v <= x, with xi^x(x) the
product of the roots r_j below.  Every restriction is taken at one integer
point, t0 = 2 rho^vee, where each positive root takes the value 2 height > 0.

- Restriction rows.  For the canonical word b_1 ... b_l of x and
  r_j = s_b_1 ... s_b_(j-1)(alpha_b_j), xi^v(x) is the sum over the subwords
  that are reduced words of v of the product of their r_j.  One right-to-left
  walk over the word gives it for every v (`CosetTable.subword_sums`); the
  rows are memoized per flag variety (`_FlagContext.rows`).
- Triangular solve.  F = sum_w c^w xi^w with c^w of degree deg F - l(w) is
  solved for c^w(t0) in increasing length (`_FlagContext.solve`); each
  division is exact in the integers, and a remainder is an internal error.
  The constants c^x with l(x) = deg F are the Schubert coefficients.  A
  product takes F = a b, the Chern class c_k takes F = e_k of the tangent
  weights x(-U), and every degree is solved in one pass.
- Cap before work.  Solving degree n visits the x with l(x) <= n, and the
  walk for x holds at most G(l(x)) states, G(l) the representatives of
  length <= l (the table's layers, the coefficients of g(X)); more than
  ENTRY_CAP in all is refused with ResourceLimitError before any row is
  built.  Past the cap a product keeps only the x above a term of each
  factor in the Bruhat order, the only ones whose c^x can be nonzero, and
  their walks keep only the lengths the solve reads
  (`_FlagContext.fixed_points`), so near-complementary products on large
  flag varieties stay cheap.

The Borel presentation stays for what reads polynomials: `char_map` (the
characteristic map c(u) = sum over w of Delta_w(u) [X_{w0 w wt}] for a
W_Theta-invariant u), `preimage` and the invariant generators they rest on,
which the Steenrod oracle and its duality route use.  A preimage is an
integer combination of pivot products g^e of the generators: one
fraction-free elimination per degree picks the pivots and gives D M^-1 for
their image matrix M.  Divided-difference chains share work across w:
canonical words are built by the coset BFS as (letter) + parent word, so
Delta_w(u) = Delta_letter(Delta_parent(u)) and one sweep over the table
computes every chain, one length layer at a time.
"""

from __future__ import annotations

import json
import re
from bisect import bisect_left
from fractions import Fraction
from functools import cache, cached_property
from itertools import accumulate, chain, count, islice, repeat
from math import gcd, lcm
from operator import mul
from types import MappingProxyType

from .errors import InternalComputationError, ResourceLimitError, UsageError
from .polynomial import Polynomial
from .rootdata import (
    Record, RootSystem, build_root_system, checked_vertices, is_small_prime, ring_modulus,
    root_subsystem, weyl_degrees,
)
from .weyl import CosetTable, WeylElement, _canonical_from_image, checked_word, coset_reps

#: restriction-walk states above which a product or a Chern class is refused before any
#: row is built.  The walk for x holds at most one state per representative of length
#: <= l(x), G(l(x)) of them (read off the table's layers), and leaves the whole row, one
#: value per v <= x; a query is counted as the sum over the x it solves at (a windowed
#: walk as in `_FlagContext._counts`).  Measured with tracemalloc on CPython 3.11 (E8,
#: Theta = {2, ..., 8}: all 2,160 rows, counted 2,380,359, 1.78M values, 157 MB), a value
#: takes about 88 bytes, so rows at the cap take at most about 265 MB.  There the rows
#: took 7 s and every Chern class a further 15-18 s (180 MB peak RSS).
ENTRY_CAP = 3_000_000

# ---------------------------------------------------------------------------
# Chow classes


class ChowClass(Record):
    """A sparse element of CH*(G/P_Theta) over the Schubert basis.

    Immutable, coefficients included (a read-only mapping), and normalized
    when built: over Z/p every coefficient is reduced into [0, p) (a Fraction
    through the inverse of its denominator), over Z an integral Fraction
    becomes an int, over Q values are kept as given, and zero coefficients
    are dropped.
    """

    __slots__ = (
        "type_name",
        "theta",
        "ring",                   # "Z", "Q", or "Z/p"
        "coeffs",                 # basis index -> coefficient
    )

    def __init__(self, type_name: str, theta: tuple, ring: str, coeffs: dict):
        p = ring_modulus(ring)
        out = {}
        for k, c in coeffs.items():
            if p is not None:
                if isinstance(c, Fraction):
                    if c.denominator % p == 0:
                        raise InternalComputationError(f"denominator not invertible mod {p}")
                    c = c.numerator * pow(c.denominator, -1, p)
                c = c % p
            elif ring == "Z":
                if isinstance(c, Fraction):
                    if c.denominator != 1:
                        raise InternalComputationError("non-integral coefficient in Z-class")
                    c = int(c)
            if c:
                out[k] = c
        object.__setattr__(self, "type_name", type_name)
        object.__setattr__(self, "theta", theta)
        object.__setattr__(self, "ring", ring)
        object.__setattr__(self, "coeffs", MappingProxyType(out))

    def __reduce__(self):
        # a mapping proxy does not pickle; its dict does
        return ChowClass, (self.type_name, self.theta, self.ring, dict(self.coeffs))

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
            out[k] = out.get(k, 0) + c
        return ChowClass(self.type_name, self.theta, self.ring, out)


def _integral(cls: ChowClass):
    """(L, {position: L * coefficient}): cls read over the integers, L the common
    denominator of its coefficients.  A Z/p coefficient is its representative in
    [0, p), so L = 1 there."""
    L = lcm(*(c.denominator for c in cls.coeffs.values()))
    return L, {k: c.numerator * (L // c.denominator) for k, c in cls.coeffs.items()}


def _check_compatible(a: ChowClass, b: ChowClass):
    if a.type_name != b.type_name or a.theta != b.theta:
        raise UsageError("classes live on different varieties")
    if a.ring != b.ring:
        raise UsageError(f"coefficient rings differ: {a.ring} vs {b.ring}")


def class_to_json(cls: ChowClass, ct: CosetTable) -> str:
    terms = [
        {"word": list(ct.words[k]), "coeff": int(c) if not isinstance(c, Fraction) else str(c)}
        for k, c in sorted(cls.coeffs.items())
    ]
    return json.dumps(
        {"type": cls.type_name, "theta": list(cls.theta), "ring": cls.ring, "terms": terms},
        sort_keys=True,
    )


def class_from_json(text: str) -> ChowClass:
    try:
        data = json.loads(text)
        rs = build_root_system(data["type"])
        theta = data.get("theta", [])
        if not isinstance(theta, list):  # a string or an object would iterate as vertices
            raise UsageError(f"theta {theta!r} must be a list of integer vertices")
        ct = coset_reps(rs, checked_vertices(rs.rank, theta, "theta vertex"))
        ring = data.get("ring", "Z")
        if not isinstance(ring, str):
            raise UsageError(f"ring {ring!r} must be a string such as \"Z/2\"")
        terms = data.get("terms", [])
        if not isinstance(terms, list):  # an object would iterate as its keys
            raise UsageError(f"terms {terms!r} must be a list of terms")
        coeffs: dict = {}
        for term in terms:
            word = term["word"]
            k = ct.index.get(checked_word(rs, word))  # checked first: True would hash as 1
            if k is None:  # not the canonical word of a rep: canonicalize and look again
                k = ct.index.get(WeylElement.from_word(rs, word).word)
            if k is None:
                raise UsageError(f"word {word} is not a minimal coset representative")
            dual = term.get("dual", False)
            if not isinstance(dual, bool):
                raise UsageError(f"dual flag {dual!r} must be true or false")
            if dual:
                k = ct.dual_index(k)
            coeffs[k] = coeffs.get(k, 0) + _coefficient_from_json(term.get("coeff", 1))
    except (KeyError, TypeError, ValueError) as exc:
        raise UsageError(f"malformed class JSON: {exc}") from exc
    p = ring_modulus(ring)
    for c in coeffs.values():
        den = c.denominator if isinstance(c, Fraction) else 1
        if p is not None and den % p == 0:
            raise UsageError(f"coefficient {c} has a denominator that is not invertible in {ring}")
        if ring == "Z" and den != 1:
            raise UsageError(f"coefficient {c} is not an integer, as ring Z requires")
    # the canonical type name and theta, as every class the package builds carries
    return ChowClass(rs.type.name(), ct.theta, ring, coeffs)


_RATIONAL = re.compile(r"-?[0-9]+(/[0-9]+)?")


def _coefficient_from_json(c):
    """An exact coefficient: a JSON integer or a rational string such as "-3/4"."""
    if isinstance(c, int) and not isinstance(c, bool):
        return c
    # Fraction() alone would also read "1_0", " 3", "+3", "1e2", "1.5" and non-ASCII digits
    if isinstance(c, str) and _RATIONAL.fullmatch(c):
        try:
            return Fraction(c)
        except ZeroDivisionError:
            raise UsageError(f"coefficient {c!r} has a zero denominator") from None
    raise UsageError(f"coefficient {c!r} must be an integer or a rational string")


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
    checked_vertices(rs.rank, (alpha,), "divisor index")
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
    return ChowClass(rs.type.name(), (), "Z", out)


# ---------------------------------------------------------------------------
# Divided differences and the characteristic map


def divided_difference(rs: RootSystem, word, u: Polynomial) -> Polynomial:
    """Delta_{s_{i1}} o ... o Delta_{s_ik} applied to u (word need not be reduced)."""
    for i in reversed(checked_word(rs, word)):
        u = u.divided_difference(i - 1)
    return u


class _FlagContext:
    """Per-(root system, theta) machinery: coset table, fixed-point rows, generators, memos.

    Codimension layers are read from the coset table (`ct.of_codim`).
    Products and Chern classes share one memo, the fixed-point restriction
    rows (`rows`); preimages memoize the image of each generator monomial
    (`image`) and the pivot grids.
    """

    def __init__(self, rs: RootSystem, theta):
        self.rs = rs
        self.ct = coset_reps(rs, theta)
        self.theta = self.ct.theta
        self.dim = self.ct.max_length
        self._grid = {}          # degree -> (pivots, D, A)
        self._images = {}        # generator exponents e -> delta sweep of g^e
        self._rows = {}          # position x -> restriction row of x (see rows)
        self._row_entries = 0    # the memo's rows counted as in ENTRY_CAP
        # grow-on-demand memo: integral c_0 .. c_b as coefficient maps serve requests <= b
        self._chern = []

    # -- invariant generators -----------------------------------------

    @cached_property
    def gens(self):
        return _invariant_generators(self.rs, self.theta)

    # -- delta tree -----------------------------------------------------

    def delta_scalars(self, P: Polynomial, max_len=None, modulus=None):
        """Constant terms of Delta_w(P) for every rep w, sharing chain prefixes.

        P may be inhomogeneous: the constant term of Delta_w(P) picks out
        exactly the degree-l(w) component's contribution.  Each length layer
        of the table is computed from the previous one through the BFS
        parents, so only two layers of polynomials are alive at a time.
        With a prime modulus every layer is reduced mod p (exact: D_i is integral).
        """
        ct = self.ct
        dmax = P.degree() if max_len is None else min(P.degree(), max_len)
        out = {}
        layer = {0: P}
        for length in range(dmax + 1):
            if length:
                layer = {k: layer[ct.parent[k]].divided_difference(ct.parent_label[k] - 1, modulus)
                         for k in ct.of_length(length)}
            for k, q in layer.items():
                c = q.terms.get(0, 0)  # the packed key of the constant monomial
                if c:
                    out[k] = c
        return out

    def char_map_graded(self, P: Polynomial, ring="Q", max_codim=None):
        """Characteristic image of a possibly inhomogeneous invariant P.

        Returns {degree: ChowClass}; each graded piece of P of degree d
        contributes at codimension d via index w -> dual index.
        """
        scalars = self.delta_scalars(P, max_len=max_codim, modulus=ring_modulus(ring))
        graded = {}
        for k, c in scalars.items():
            d = self.ct.length(k)
            graded.setdefault(d, {})[self.ct.dual_index(k)] = c
        return {
            d: ChowClass(self.rs.type.name(), self.theta, ring, coeffs)
            for d, coeffs in sorted(graded.items())
        }

    # -- preimage grid ----------------------------------------------------

    def _grid_products(self, d):
        """Exponent vectors of the candidate products for grid(d), in the order tried.

        c is a ring map onto CH tensor Q, so CH^d tensor Q is spanned by the
        pivots of grid(d - deg g_j) times g_j.  Generators are taken in order
        (base weights first) and repeats dropped; grid(0) has the one candidate 1.
        """
        if d == 0:
            return [(0,) * len(self.gens)]
        return list(dict.fromkeys(
            exps[:j] + (exps[j] + 1,) + exps[j + 1:]
            for j, g in enumerate(self.gens) if g.degree() <= d
            for exps in self.grid(d - g.degree())[0]
        ))

    def _product_poly(self, exps):
        gens = self.gens
        P = Polynomial.one(self.rs)
        for j, e in enumerate(exps):
            for _ in range(e):
                P = P * gens[j]
        return P

    def image(self, exps):
        """Delta sweep of the generator monomial g^exps, {rep index: scalar}, memoized.

        g^exps is homogeneous, so only reps of length sum(exps * deg g)
        appear; the grids and the product route share these entries.
        """
        hit = self._images.get(exps)
        if hit is None:
            hit = self._images[exps] = self.delta_scalars(self._product_poly(exps))
        return hit

    def grid(self, d):
        """Pivot products spanning CH^d tensor Q, with a solver for preimages.

        The candidates, each a pivot of a lower grid times one generator
        (_grid_products), are imaged one by one through one integer
        elimination until the images span; the rest are never touched.
        Returns (pivots, D, A): pivots[j] = exps_j, the exponent
        vector of the pivot product P_j, and A = D M^-1 is integral for M the
        image matrix of the pivots (row j is the image of P_j).  Columns are
        the codim-d layer of the table: basis index k is column
        k - ct.of_codim(d).start.
        A M = D I is re-verified exactly against the raw images before the
        grid is stored, which certifies char_map of every preimage built
        from it (char_map is linear).
        """
        hit = self._grid.get(d)
        if hit is not None:
            return hit
        layer = self.ct.of_codim(d)
        n = len(layer)
        pivots = []       # exponent vectors of the pivot products
        images = []       # integer image vector over the codim-d layer, one per pivot
        elim = _Echelon(n)
        for exps in self._grid_products(d):
            vec = [0] * n
            for k, c in self.image(exps).items():
                vec[self.ct.dual_index(k) - layer.start] = c
            if elim.add(vec):
                pivots.append(exps)
                images.append(vec)
                if len(pivots) == n:
                    break
        if len(pivots) < n:
            raise InternalComputationError(
                f"invariant products do not span CH^{d} (rank {len(pivots)} < {n})"
            )
        D, A = elim.inverse()
        for t in range(n):
            for s in range(n):
                if sum(A[t][j] * images[j][s] for j in range(n)) != (D if s == t else 0):
                    raise InternalComputationError("preimage verification failed")
        self._grid[d] = (pivots, D, A)
        return self._grid[d]

    def pivot_coords(self, cls: ChowClass):
        """(den, [(exps_j, x_j)]): char_map(sum_j x_j g^exps_j) = den * cls.

        cls must be homogeneous and nonzero; only the nonzero integers x_j
        are listed.  A Z/p coefficient is read as its integer representative
        in [0, p) (any lift works, c is functorial in coefficients).  With L
        the common denominator of the coefficients, den = D L and
        x = sum_k L c_k A[k - start] over the pivot products (pivots, D, A)
        of grid(d), d = codim cls, whose columns start at ct.of_codim(d).start.
        """
        d = cls.codim(self.ct)
        pivots, D, A = self.grid(d)
        start = self.ct.of_codim(d).start
        L, ints = _integral(cls)
        x = [0] * len(pivots)
        for k, c in ints.items():
            for j, a in enumerate(A[k - start]):
                x[j] += c * a
        return D * L, [(exps, xj) for exps, xj in zip(pivots, x) if xj]

    def preimage_of(self, cls: ChowClass):
        """(den, U): an integer polynomial U with char_map(U / den) = cls.

        den > 0 and gcd(den, content U) = 1; cls must be homogeneous.
        U = sum_j x_j P_j over the pivot products of pivot_coords, with the
        common content of den and U divided out.
        """
        if cls.is_zero():
            return 1, Polynomial.zero(self.rs)
        den, coords = self.pivot_coords(cls)
        acc = {}
        for exps, xj in coords:
            for m, c in self._product_poly(exps).terms.items():
                acc[m] = acc.get(m, 0) + xj * c
        g = gcd(den, *acc.values())
        return den // g, Polynomial(self.rs, {m: c // g for m, c in acc.items() if c})

    # -- unipotent radical --------------------------------------------------

    @cached_property
    def unipotent_roots(self):
        """Positive roots with support outside theta: the roots of the unipotent radical.

        W_Theta permutes them (it fixes the theta-span and Phi+ minus the
        simple thetas); this is checked.
        """
        rs = self.rs
        theta_set = set(self.theta)
        U = [pr for pr in rs.positive_roots
             if any(pr.root[j] for j in range(rs.rank) if (j + 1) not in theta_set)]
        omegas = {pr.omega for pr in U}
        for i in self.theta:
            for pr in U:
                if rs.reflect_weight(i - 1, pr.omega) not in omegas:
                    raise InternalComputationError("unipotent-radical roots not Theta-stable")
        return U

    # -- localization at the fixed points -----------------------------------

    def _counts(self, top, lengths=None):
        """l -> the most states the restriction walk of an x of length l holds at once,
        for l = 0..top (see ENTRY_CAP).

        After j letters the states are reps of length m <= j, at most g_m of
        each.  A whole row ends with one state per v <= x, so at most G(l), the
        reps of length <= l.  With `lengths` (see `CosetTable.subword_sums`), a
        state of length m is kept only while some wanted length lies in
        m..m + (l - j), which bounds every step and so the row.
        """
        sizes = [len(self.ct.of_length(m)) for m in range(top + 1)]
        if lengths is None:
            return list(accumulate(sizes))
        wanted = sorted(lengths)
        reach = [next((n for n in wanted if n >= m), top + 1) for m in range(top + 1)]
        return [max(sum(g for m, g in enumerate(sizes[: j + 1]) if reach[m] <= m + l - j)
                    for j in range(l + 1))
                for l in range(top + 1)]

    @cached_property
    def _layers(self):
        """[(positions of length l, the most states the walks of every x with l(x) <= l
        hold)] for l = 0..dim."""
        out, total = [], 0
        for l, count in enumerate(self._counts(self.dim)):
            layer = self.ct.of_length(l)
            total += len(layer) * count
            out.append((layer, total))
        return out

    def _refuse(self, entries, top):
        return ResourceLimitError(
            f"{entries} restriction-walk states (codim up to {top}) exceed the cap {ENTRY_CAP} "
            f"for type {self.rs.type.name()}, theta={list(self.theta)}"
        )

    def fixed_points(self, top, supports=()):
        """(layers, lengths): the fixed points a solve up to degree top visits, as one
        list of positions per length 0..top, each in table order, and the lengths of
        the v whose xi^v(x) the solve reads (None: every v <= x).  Refused above
        ENTRY_CAP before any row is built.

        These are the x with l(x) <= top.  When their walks count more than
        ENTRY_CAP states and the two supports of a product's factors (positions
        of classes xi^v) are given, only the x above some v of each support in
        the Bruhat order are kept: a(x) b(x) vanishes at every other x, and so
        does every c^x of the product.  Such an x is no shorter than the longest
        of the two supports' shortest terms, so the solve reads only the values
        at the supports' lengths and from there up.  The smaller of the two
        upper sets is grown, the two in turn until one is complete, then cut to
        the x above the other support; when both pass the cap the product is
        refused without finishing either.
        """
        ct = self.ct
        top = min(top, self.dim)
        layers = self._layers[: top + 1]
        entries = layers[-1][1]
        if entries <= ENTRY_CAP:
            return [layer for layer, _ in layers], None
        if not supports:
            raise self._refuse(entries, top)
        terms = [{ct.length(v) for v in s} for s in supports]
        lengths = set.union(*terms, range(max(map(min, terms)), top + 1))
        counts = self._counts(top, lengths)
        walks = [ct.upper_set(s, top) for s in supports]
        found = [[] for _ in walks]
        entries = [0 for _ in walks]
        while min(entries) <= ENTRY_CAP:
            for i, walk in enumerate(walks):
                if entries[i] > ENTRY_CAP:
                    continue
                x = next(walk, None)
                if x is None:
                    layers = [[] for _ in range(top + 1)]
                    for x in sorted(found[i]):
                        if ct.bruhat_above(x, supports[1 - i]):
                            layers[ct.length(x)].append(x)
                    return layers, lengths
                found[i].append(x)
                entries[i] += counts[ct.length(x)]
        raise self._refuse(min(entries), top)

    def _row(self, x, lengths=None):
        """The restriction row of the fixed point x (see `rows`)."""
        word = self.ct.words[x]
        t = [2] * self.rs.rank
        factors = []
        for b in word:
            tb = t[b - 1]
            factors.append(tb)
            t = [v - tb * a for v, a in zip(t, self.rs.cartan[b - 1])]
        return self.ct.subword_sums(word, factors, lengths), t

    def rows(self, xs, lengths=None):
        """Restriction rows of the fixed points at the positions xs, by position.

        Row x is ({position v: xi^v(x)}, t) at t0 = 2 rho^vee, with t the
        coweight x^-1(t0) as its pairings <alpha_i, t>.  Walking the canonical
        word b_1 ... b_l of x from t = t0 (every <alpha_i, t0> = 2), the letter
        b_j meets r_j(t0) = <alpha_b_j, t> and then reflects t by s_b_j; those
        values are Billey's factors r_j = s_b_1 ... s_b_(j-1)(alpha_b_j), and
        `CosetTable.subword_sums` sums their products over the subwords.

        Whole rows come from the memo, which is emptied when new rows would
        take it past ENTRY_CAP (counted as there), so it holds no more
        than one query may.  With `lengths`, the rows hold only the v of those
        lengths; they are built for this call and not kept.
        """
        if lengths is not None:
            return {x: self._row(x, lengths) for x in xs}
        memo = self._rows
        xs = list(xs)
        missing = [x for x in xs if x not in memo]
        if not missing:
            return memo
        counts = self._counts(self.dim)
        if self._row_entries + sum(counts[self.ct.length(x)] for x in missing) > ENTRY_CAP:
            memo.clear()
            self._row_entries, missing = 0, xs
        for x in missing:
            memo[x] = self._row(x)
            self._row_entries += counts[self.ct.length(x)]
        return memo

    def solve(self, degrees, rhs, supports=()):
        """The degree-0 Schubert coefficients of classes given by their restrictions.

        rhs(row, t) lists the values at one fixed point (see `rows`) of
        equivariant classes F_d, one homogeneous class of degree d per entry of
        the increasing `degrees`.  With F_d = sum_w c_d^w xi^w and c_d^w a
        polynomial of degree d - l(w), going through the x of `fixed_points`
        (supports as there) in increasing length and using xi^w(x) = 0 unless
        w <= x,

            c_d^x = (F_d(x) - sum over w < x of c_d^w xi^w(x)) / xi^x(x),

        all values at t0.  Every c_d^w(t0) is an integer, so a division that
        leaves a remainder raises InternalComputationError.  Returns, per
        degree d, {basis position of xi^x: c_d^x} over l(x) = d, the constants
        that do not depend on t0.
        """
        ct = self.ct
        layers, lengths = self.fixed_points(degrees[-1], supports)
        rows = self.rows(chain.from_iterable(layers), lengths)
        cols = [{} for _ in degrees]  # degree index -> {x: c_d^x}, the nonzero ones
        out = [{} for _ in degrees]
        zeros = repeat(0)
        for length, layer in enumerate(layers):
            first = bisect_left(degrees, length)  # c_d^x = 0 for d < l(x)
            for x in layer:
                row, t = rows[x]
                acc = rhs(row, t)
                ws = None
                for j in range(first, len(degrees)):
                    col = cols[j]
                    if col:  # c_d^x is still 0 in its own sum
                        if ws is None:
                            ws, vs = list(row), list(row.values())
                        acc[j] -= sum(map(mul, map(col.get, ws, zeros), vs))
                    if acc[j]:
                        q, r = divmod(acc[j], row[x])
                        if r:
                            raise InternalComputationError(
                                f"restriction at fixed point {x} is not divisible by xi^x(x)"
                            )
                        col[x] = q
                if first < len(degrees) and degrees[first] == length and x in cols[first]:
                    out[first][ct.dual_index(x)] = cols[first][x]
        return out

    # -- Chern classes ----------------------------------------------------

    def chern_classes(self, max_codim=None, ring="Z"):
        """Graded Chern classes of the tangent bundle, c_0 .. c_max_codim.

        At x the tangent weights are x(-U) for U the unipotent roots, so c_k^T
        restricts to e_k of their values -<beta, x^-1(t0)>; one `solve` gives
        every c_k over Z, reduced into the ring when the classes are built.
        """
        if max_codim is not None and max_codim < 0:
            raise UsageError(f"codimension must be nonnegative, got {max_codim}")
        top = self.dim if max_codim is None else min(max_codim, self.dim)
        if len(self._chern) <= top:
            roots = [pr.root for pr in self.unipotent_roots]

            def esym(row, t):
                es = [1] + [0] * top
                for root in roots:
                    g = -sum(n * x for n, x in zip(root, t))
                    for k in range(top, 0, -1):
                        es[k] += es[k - 1] * g
                return es

            self._chern = self.solve(range(top + 1), esym)
        name = self.rs.type.name()
        return [ChowClass(name, self.theta, ring, c) for c in self._chern[: top + 1]]


class _Echelon:
    """Fraction-free Gauss-Jordan elimination over the integers.

    Like Bareiss (Math. Comp. 1968) it never leaves Z, but each row is kept
    primitive by dividing out its content.  The rows are in reduced echelon
    form, keyed by pivot column, and each row [v | a] carries in a the
    combination of the accepted inputs that gives v, so a M = v for M the
    matrix whose j-th row is the j-th accepted input.
    """

    def __init__(self, n):
        self.n = n
        self.rows = {}   # pivot column -> primitive row of 2n ints

    def add(self, vec) -> bool:
        """Insert an integer vector of length n; True if it was independent of the rows so far."""
        n = self.n
        if len(self.rows) == n:  # full rank: every vector is dependent
            return False
        r = list(vec) + [0] * n
        r[n + len(self.rows)] = 1
        for p, row in self.rows.items():
            c = r[p]
            if c:
                r = _primitive([row[p] * x - c * y for x, y in zip(r, row)])
        q = next((i for i in range(n) if r[i]), None)
        if q is None:
            return False
        for p, row in self.rows.items():
            c = row[q]
            if c:
                self.rows[p] = _primitive([r[q] * x - c * y for x, y in zip(row, r)])
        self.rows[q] = r
        return True

    def inverse(self):
        """(D, A) with D > 0 and A = D M^-1 integral, once n inputs are accepted."""
        n = self.n
        if len(self.rows) < n:
            raise InternalComputationError("singular matrix")
        # at full rank row p is [a_p e_p | a_p (row p of M^-1)]
        D = lcm(*(row[p] for p, row in self.rows.items()))
        return D, [[D // row[p] * y for y in row[n:]] for p, row in sorted(self.rows.items())]


def _primitive(row):
    g = gcd(*row)
    return [x // g for x in row] if g > 1 else row


def flag_context(rs: RootSystem, theta) -> _FlagContext:
    """The shared _FlagContext of G/P_Theta (cached per root system and theta)."""
    return _flag_context(rs, checked_vertices(rs.rank, theta))


@cache
def _flag_context(rs: RootSystem, theta: tuple) -> _FlagContext:
    return _FlagContext(rs, theta)


# ---------------------------------------------------------------------------
# Invariant generators


def _candidate_points(n):
    """Test points with n coordinates, in the order tried: 1..n, the squares, the first n primes."""
    primes = tuple(islice(filter(is_small_prime, count(2)), n))
    return tuple(range(1, n + 1)), tuple(x * x for x in range(1, n + 1)), primes


def _sub_fundamental_seeds(rs: RootSystem, theta):
    """Fundamental weights of <Theta> in ambient omega-coordinates, integer-scaled."""
    m = len(theta)
    # seed j solves sum_k A[i][k] c_k = delta_ij over i, k in theta: column j of A_Theta^-1,
    # here D A_Theta^-1; dividing by gcd(D, content) leaves the least integer multiple
    elim = _Echelon(m)
    for i in theta:
        elim.add([rs.cartan[i - 1][k - 1] for k in theta])
    D, inv = elim.inverse()
    alphas = [rs.alpha_omega(i - 1) for i in theta]
    seeds = []
    for j in range(m):
        coords = [sum(inv[k][j] * alphas[k][t] for k in range(m)) for t in range(rs.rank)]
        g = gcd(D, *coords)
        seeds.append(tuple(x // g for x in coords))
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


def _power_sum_row(orbit, values, d):
    """Jacobian row of p_d = sum_mu (mu.x)^d at a point where mu.x takes the given values.

    d/dx_j p_d = d sum_mu (mu.x)^(d-1) mu_j, an exact integer per j.
    """
    weights = [d * v ** (d - 1) for v in values]
    return [sum(c * mu[j] for c, mu in zip(weights, orbit)) for j in range(len(orbit[0]))]


def _power_sum(rs, orbit, d):
    """p_d = sum over the orbit of (mu.x)^d as a polynomial."""
    total = Polynomial.zero(rs)
    for mu in orbit:
        form = Polynomial.linear_form(rs, mu)
        p = form
        for _ in range(d - 1):
            p = p * form
        total = total + p
    return total


def _invariant_generators(rs: RootSystem, theta):
    """omega_i (i not in theta) plus one invariant per fundamental degree of <Theta>.

    Candidates are orbit power sums p_d of the subsystem's fundamental
    weights, offered slot by slot (degrees ascending, smallest orbit first).
    A candidate fills a slot when its Jacobian row at a fixed test point
    enlarges the rank; that row is computed numerically from the values
    mu.pt, so only the winning power sums are ever expanded as polynomials.
    Each winner's row is recomputed from its polynomial, the final Jacobian
    has rank n (functional independence, hence a generating set by the
    degree-product criterion), and every winner is checked W_Theta-invariant.
    """
    n = rs.rank
    base = [Polynomial.variable(rs, i) for i in range(1, n + 1) if i not in theta]
    if not theta:
        return base
    slots = sorted(weyl_degrees(root_subsystem(rs, theta)))
    orbits = sorted((_orbit(rs, theta, s) for s in _sub_fundamental_seeds(rs, theta)), key=len)

    for pt in _candidate_points(n):
        elim = _Echelon(n)
        for g in base:
            elim.add([g.derivative(j).evaluate(pt) for j in range(n)])
        values = [[sum(m * x for m, x in zip(mu, pt)) for mu in orbit] for orbit in orbits]
        chosen = []
        for d in slots:
            for orbit, vals in zip(orbits, values):
                row = _power_sum_row(orbit, vals, d)
                if elim.add(row):
                    chosen.append((orbit, d, row))
                    break
            else:
                break
        if len(chosen) < len(slots) or len(elim.rows) < n:
            continue
        gens = []
        for orbit, d, row in chosen:
            g = _power_sum(rs, orbit, d)
            if [g.derivative(j).evaluate(pt) for j in range(n)] != row:
                raise InternalComputationError("orbit power sum disagrees with its Jacobian row")
            if not g.is_invariant_under(theta):
                raise InternalComputationError("orbit power sum failed invariance")
            gens.append(g)
        return base + gens
    raise InternalComputationError(
        f"could not assemble invariant generators for theta={list(theta)}"
    )


def invariant_generators(rs: RootSystem, theta):
    return flag_context(rs, theta).gens


# ---------------------------------------------------------------------------
# Public characteristic map / preimage / multiplication


def char_map(rs: RootSystem, theta, u: Polynomial) -> ChowClass:
    """The map c(u) = sum Delta_w(u) [X_{w0 w wt}] for homogeneous invariant u."""
    ctx = flag_context(rs, theta)
    if not u.is_homogeneous():
        raise UsageError("char_map requires a homogeneous polynomial")
    if not u.is_invariant_under(ctx.theta):
        raise UsageError("polynomial is not W_Theta-invariant")
    if u.is_zero() or u.degree() > ctx.dim:
        return ChowClass(rs.type.name(), ctx.theta, "Q", {})
    graded = ctx.char_map_graded(u)
    cls = graded.get(u.degree(), ChowClass(rs.type.name(), ctx.theta, "Q", {}))
    if all(not isinstance(c, Fraction) or c.denominator == 1 for c in cls.coeffs.values()):
        return ChowClass(cls.type_name, cls.theta, "Z", cls.coeffs)
    return cls


def preimage(cls: ChowClass) -> Polynomial:
    """A W_Theta-invariant polynomial u with char_map(u) = cls.

    u = U / den for the integer pair (den, U) of _FlagContext.preimage_of,
    whose grid re-verifies its solve exactly; mod-p classes are lifted to
    integer representatives (any lift works, c is functorial in coefficients).
    """
    rs = build_root_system(cls.type_name)
    den, U = flag_context(rs, cls.theta).preimage_of(cls)
    return U.scale(Fraction(1, den)) if den > 1 else U


def multiply(a: ChowClass, b: ChowClass) -> ChowClass:
    """Product in CH*(G/P_Theta) by localization at the fixed points.

    The factors are read as integer combinations of the classes xi^v (a
    coefficient over Q is scaled by its class's common denominator, one over
    Z/p is its representative in [0, p)); the product of the graded parts of
    codimensions da and db is solved at degree da + db, every degree in one
    pass of `_FlagContext.solve` (given both factors' supports, which cut a
    large space to the fixed points above them), and the scales are divided
    out last.
    """
    _check_compatible(a, b)
    rs = build_root_system(a.type_name)
    ctx = flag_context(rs, a.theta)
    ct = ctx.ct

    def integral_parts(cls):
        """(scale, {codim: [(position of xi^v, integer coefficient)]}) from `_integral`."""
        scale, ints = _integral(cls)
        parts = {}
        for k, c in ints.items():
            parts.setdefault(ct.codim(k), []).append((ct.dual_index(k), c))
        return scale, parts

    la, parts_a = integral_parts(a)
    lb, parts_b = integral_parts(b)
    degrees = sorted({da + db for da in parts_a for db in parts_b if da + db <= ctx.dim})
    where = {n: j for j, n in enumerate(degrees)}
    # (degree index, a's positions, a's coefficients, b's positions, b's coefficients)
    pairs = [(where[da + db], *zip(*ta), *zip(*tb)) for da, ta in parts_a.items()
             for db, tb in parts_b.items() if da + db in where]
    zeros = repeat(0)

    def products(row, t):
        out = [0] * len(degrees)
        get = row.get
        for j, va, ca, vb, cb in pairs:
            if fa := sum(map(mul, map(get, va, zeros), ca)):
                out[j] += fa * sum(map(mul, map(get, vb, zeros), cb))
        return out

    den = la * lb
    coeffs = {}
    if degrees:
        supports = [[v for terms in parts.values() for v, _ in terms]
                    for parts in (parts_a, parts_b)]
        for layer in ctx.solve(degrees, products, supports):
            coeffs.update((k, Fraction(c, den)) for k, c in layer.items())
    return ChowClass(a.type_name, a.theta, a.ring, coeffs)


def _poly_limit(dim: int) -> int:
    """The route split the recorded products golden pools were drawn with.

    Only perfbench/record_golden.py reads it; multiplication does not.
    """
    return max((dim + 1) // 2 + 1, 9)


def pullback_to_flags(cls: ChowClass) -> ChowClass:
    """CH*(G/P) -> CH*(G/B), [X_w] -> [X_{w w_theta}] (a ring injection)."""
    rs = build_root_system(cls.type_name)
    ctx = flag_context(rs, cls.theta)
    flags = coset_reps(rs, ())
    out = {}
    for k, c in cls.coeffs.items():
        w = ctx.ct.reps[k] * ctx.ct.w_theta
        out[flags.index[w.word]] = c
    return ChowClass(cls.type_name, (), cls.ring, out)


def chern_tangent(rs: RootSystem, theta, max_codim=None, ring="Z"):
    """Graded Chern classes of T_{G/P_Theta}, c_0 .. c_max_codim, by localization."""
    return flag_context(rs, theta).chern_classes(max_codim=max_codim, ring=ring)
