"""Mod-2 Steenrod operations on Ch*(G/P_Theta) via Bott-Samelson resolutions.

For a reduced word (i_1..i_l) the resolution's Chow ring is

    Z[D_1..D_l] / (D_j^2 - D_j nu_j),
    nu_j = sum_{k<j} < s_{i_{k+1}} ... s_{i_{j-1}}(alpha_{i_j}), alpha_{i_k}^vee > D_k,

an iterated P^1-bundle presentation: nu_j is the first Chern class of the
normal bundle of the canonical section at stage j.  Square-free monomials
prod_{j in T} D_j are the classes of sub-resolutions on the complementary
position set; such a monomial pushes forward to [X_v] exactly when the
complementary subword is reduced with product v a minimal coset
representative, and to 0 otherwise.

Over Z/2 a ring element is one int bitset over the 2^l square-free
monomials, so addition is xor.  Multiplying by a linear form is one sweep
from the top position down that uses D_k^2 = D_k nu_k; a handful of
big-int operations per position replaces any per-monomial work.  The
pushforward walks the subwords of each ring once, right to left, taking
only letters that are ascents of W^Theta, up to the largest degree asked
for, and reads the element's bit at each pushed subword, so no
monomial is ever listed.

The total operation on a pushed fundamental class is a Wu-type formula

    (I)   S([X_w]) = pi_*( pi^* c(T_X) . c(T_Z)^{-1} ),   or
    (II)  S([X_w]) = pi_*( pi^* c(T_X)^{-1} . c(T_Z) ),

everything evaluated inside the resolution ring mod 2 (pullbacks of line
bundles are explicit linear combinations of the D_j).  Convention I is the
one that reproduces the divisor-generated closed form on type-A flag
varieties (II disagrees on A3); it is fixed as WU_CONVENTION and checked
against that closed form on A2 and A3 before the first answer, and a
disagreement raises CalibrationError.

For basis classes whose reduced word is too long to expand a 2^l ring, the
graded pieces are recovered from duality pairings: with Phi(u) :=
pi_*(c(T_Z)^{-or+1}) (convention-matched), the degree functional satisfies
deg(S(g) . Phi(u)) = deg(g u) for all u, which gives the triangular
recursion

    <S^m(g), u> = sum_{m' < m} <S^{m'}(g), Phi(u)_{dim - codim(g) - m'}>,

whose right side needs only Bott-Samelson data of complementary classes
with short words.
"""

from __future__ import annotations

from functools import cache
from math import comb
from types import MappingProxyType

from .errors import CalibrationError, InternalComputationError, ResourceLimitError, UsageError
from .polynomial import Polynomial, unpack_monomial
from .rootdata import RootSystem, build_root_system
from .schubert import ChowClass, char_map, flag_context
from .weyl import CosetTable, checked_word, coset_reps

#: maximal reduced-word length for direct ring expansion (2^l basis monomials)
DIRECT_WORD_LIMIT = 18

#: the Wu-type formula below that matches the type-A divisor oracle (II fails on A3)
WU_CONVENTION = "I"


@cache
def _selectors(length):
    """(clear, deg, below) bitset selectors over the 2^length square-free masks.

    clear[k] holds the masks without bit k, deg[d] those with d bits, and
    below[d] those with fewer than d bits.  They depend only on the length,
    so every ring of one word length shares them; kept for every length up
    to DIRECT_WORD_LIMIT, they hold under 4 MB.
    """
    n = 1 << length
    # masks without bit k: runs of 2^k set bits with period 2^(k+1), doubled up to n bits
    clear = []
    for k in range(length):
        sel, width = (1 << (1 << k)) - 1, 2 << k
        while width < n:
            sel |= sel << width
            width <<= 1
        clear.append(sel)
    # deg[d]: masks with d bits, grown one position at a time
    deg = [1]
    for k in range(length):
        deg = [a | (b << (1 << k)) for a, b in zip(deg + [0], [0] + deg)]
    below = [0]
    for piece in deg:
        below.append(below[-1] | piece)
    return tuple(clear), tuple(deg), tuple(below)


class BottSamelsonRing:
    """CH of the Bott-Samelson resolution of a reduced word, mod 2.

    An element is one int bitset: bit m is set when the square-free monomial
    with divisor mask m (bit j of m set means the factor D_{j+1} is present)
    occurs; addition is xor.  The selectors clear, deg and below (see
    `_selectors`) are built once per word length and shared by every ring
    of that length.
    """

    def __init__(self, rs: RootSystem, word):
        word = checked_word(rs, word)
        if len(word) > DIRECT_WORD_LIMIT:
            raise ResourceLimitError(
                f"Bott-Samelson word of length {len(word)} exceeds the direct limit "
                f"{DIRECT_WORD_LIMIT}"
            )
        self.rs = rs
        self.word = word
        self.length = len(word)
        # reducedness check: appending each letter must go up in length
        y = rs.rho
        for i in word:
            if y[i - 1] < 0:
                raise UsageError(f"word {list(word)} is not reduced")
            y = rs.reflect_weight(i - 1, y)
        # nu[j]: the positions k < j whose Cartan pairing in nu_j is odd
        self.nu = []
        for j in range(self.length):
            mu = rs.alpha_omega(word[j] - 1)
            odd = []
            for k in range(j - 1, -1, -1):
                if mu[word[k] - 1] % 2:
                    odd.append(k)
                mu = rs.reflect_weight(word[k] - 1, mu)
            self.nu.append(tuple(odd))
        self.clear, self.deg, self.below = _selectors(self.length)

    def one(self):
        return 1

    @staticmethod
    def masks(elem):
        """The divisor masks of the monomials in `elem`, increasing."""
        bits = bin(elem)[:1:-1]
        out = []
        m = bits.find("1")
        while m >= 0:
            out.append(m)
            m = bits.find("1", m + 1)
        return out

    def mul_divisor(self, elem, k, max_degree=None):
        return self.mul_linear(elem, (k,), max_degree=max_degree)

    def mul_linear(self, elem, form, max_degree=None):
        """Multiply by the sum of the divisors at the positions in `form`.

        pending[k] is what is still to be multiplied by D_k.  Its monomials
        without D_k just gain it (a shift by 2^k); on the rest
        D_k^2 = D_k nu_k, so they move on to pending[m] for m in nu[k], all
        below k: one sweep from the top position down finishes the product.
        Each factor raises the degree by one, so truncating to max_degree
        drops the monomials of degree max_degree and above first.
        """
        if max_degree is not None and max_degree <= self.length:
            elem &= self.below[max(max_degree, 0)]
        if not elem or not form:
            return 0
        pending = [0] * (max(form) + 1)
        for k in form:
            pending[k] ^= elem
        out = 0
        for k in range(len(pending) - 1, -1, -1):
            x = pending[k]
            if x:
                low = x & self.clear[k]
                out ^= low << (1 << k)
                x ^= low
                if x:
                    for m in self.nu[k]:
                        pending[m] ^= x
        return out

    def mul(self, a, b, max_degree=None):
        if a.bit_count() > b.bit_count():
            a, b = b, a
        out = 0
        for amask in self.masks(a):
            term = b
            m = amask
            while m and term:
                k = (m & -m).bit_length() - 1
                term = self.mul_divisor(term, k, max_degree=max_degree)
                m &= m - 1
            out ^= term
        return out

    def mul_one_plus_series(self, elem, form, exponent, max_degree):
        """Multiply by (1 + form)^exponent truncated; exponent is +1 or -1.

        Mod 2, (1 + x)^{-1} = 1 + x + x^2 + ...
        """
        acc = elem
        term = elem
        for _ in range(max_degree + 1 if exponent == -1 else 1):
            term = self.mul_linear(term, form, max_degree=max_degree)
            if not term:
                break
            acc ^= term
        return acc

    def pull_weight_class(self, mu):
        """c_1 of the pullback of the line bundle of weight mu, as a tuple of positions.

        The coefficient at D_k is <s_{i_{k+1}} ... s_{i_l}(mu), alpha_{i_k}^vee>;
        the positions kept are those where it is odd.
        """
        out = []
        v = tuple(mu)
        for k in range(self.length - 1, -1, -1):
            if v[self.word[k] - 1] % 2:
                out.append(k)
            v = self.rs.reflect_weight(self.word[k] - 1, v)
        return tuple(out)

    def graded_piece(self, elem, d):
        return elem & self.deg[d] if 0 <= d <= self.length else 0


def steenrod_on_bs(ring: BottSamelsonRing, elem):
    """The ring endomorphism generated by D |-> D + D^2 (the total square)."""
    out = 0
    for mask in ring.masks(elem):
        term = 1
        m = mask
        while m:
            k = (m & -m).bit_length() - 1
            term = ring.mul_divisor(term, k)
            term ^= ring.mul_divisor(term, k)  # * (1 + D_k)
            m &= m - 1
        out ^= term
    return out


def bs_pushforward(ring: BottSamelsonRing, elem, theta) -> ChowClass:
    """Push a ring element (an int bitset) to a mod-2 Schubert class on G/P_Theta.

    The monomial prod_{j in T} D_j is the sub-resolution on positions
    S = complement(T); it pushes to [X_v] when the subword at S is reduced
    and its product v is a minimal coset representative, else to 0.  The
    subwords are walked once, up to the top degree of `elem`, and the
    element's bit is read at each pushed subword's mask, so the cost
    follows the number of pushed subwords, not of monomials.
    """
    ct = coset_reps(ring.rs, theta)
    top = next((d for d in range(ring.length, 0, -1) if elem & ring.deg[d]), 0)
    out = set()
    for m, k in ct.subword_positions(ring.word, top).items():
        if elem >> m & 1:
            out ^= {k}
    return ChowClass(ring.rs.type.name(), ct.theta, "Z/2", dict.fromkeys(out, 1))


def _pushed_series(ct: CosetTable, idx, word, eps, weights, top):
    """{d: pi_* of degree d of c(E)^eps c(T_Z)^-eps}, nonzero pieces only, d <= top.

    Z is the resolution of `word`, a reduced word of the rep at position idx,
    E the sum of the line bundles pulled back from the weights (omega
    coordinates), and c(T_Z) = prod_j (1 + nu_j); eps is +1 or -1.  A
    degree-d monomial lands in codimension codim(idx) + d, so one push of
    the whole product is split by codimension; degree 0 must give [X_idx].
    """
    ring = BottSamelsonRing(ct.rs, word)
    elem = ring.one()
    for mu in weights:
        elem = ring.mul_one_plus_series(elem, ring.pull_weight_class(mu), eps, top)
    for nu in ring.nu:
        elem = ring.mul_one_plus_series(elem, nu, -eps, top)
    base = ct.codim(idx)
    graded = {}
    for k in bs_pushforward(ring, elem, ct.theta).coeffs:
        graded.setdefault(ct.codim(k) - base, {})[k] = 1
    if graded.get(0) != {idx: 1}:
        raise InternalComputationError("resolution is not birational onto its image")
    name = ring.rs.type.name()
    return {d: ChowClass(name, ct.theta, "Z/2", graded[d]) for d in sorted(graded)}


# ---------------------------------------------------------------------------
# Calibration of the Wu-formula convention


def _substitute_total_square_mod2(P: Polynomial) -> Polynomial:
    """x^e |-> prod_j x_j^{e_j} (1+x_j)^{e_j} mod 2 (the image of S on divisors)."""
    rs = P.rs
    out = Polynomial.zero(rs)
    for e, c in P.terms.items():
        if c % 2 == 0:
            continue
        acc = Polynomial.one(rs)
        for j, ej in enumerate(unpack_monomial(e, rs.rank)):
            if not ej:
                continue
            piece = Polynomial.zero(rs)
            for t in range(ej + 1):
                if comb(ej, t) % 2:
                    exps = [ej + t if k == j else 0 for k in range(rs.rank)]
                    piece = piece + Polynomial.monomial(rs, exps)
            acc = (acc * piece).reduce_mod(2)
        out = (out + acc).reduce_mod(2)
    return out


def _oracle_steenrod_divisor_generated(rs: RootSystem, idx):
    """Closed-form total Steenrod on a divisor-generated mod-2 Chow ring (type A)."""
    ct = coset_reps(rs, ())
    cls = ChowClass(rs.type.name(), (), "Z", {idx: 1})
    den, iu = flag_context(rs, ()).preimage_of(cls)
    if den % 2 == 0:
        raise InternalComputationError("oracle needs an odd-denominator preimage")
    subbed = _substitute_total_square_mod2(iu.reduce_mod(2))
    graded = {}
    for d, piece in subbed.graded_parts().items():
        img = char_map(rs, (), piece)
        img2 = ChowClass(rs.type.name(), (), "Z/2", img.coeffs)
        if not img2.is_zero():
            graded[d - ct.codim(idx)] = img2
    return graded


def _direct_steenrod_pieces(rs, theta, idx, convention, up_to=None, word=None):
    """S^i([X_idx]) for all i <= up_to via the resolution ring, one convention.

    `word` overrides the canonical reduced word (the result must not depend
    on the choice; tests recompute with alternatives).
    """
    ctx = flag_context(rs, theta)
    ct = ctx.ct
    codim = ct.codim(idx)
    emax = codim if up_to is None else min(up_to, codim)
    eps = 1 if convention == "I" else -1
    # the tangent bundle of the base: one line bundle per root in the unipotent radical
    weights = [pr.omega for pr in ctx.unipotent_roots]
    return _pushed_series(ct, idx, ct.words[idx] if word is None else word, eps, weights, emax)


@cache
def _calibrate():
    """Check WU_CONVENTION against the divisor oracle on every A2 and A3 flag class."""
    for name in ("A2", "A3"):
        rs = build_root_system(name)
        for idx in range(len(coset_reps(rs, ()))):
            got = _direct_steenrod_pieces(rs, (), idx, WU_CONVENTION)
            if got != _oracle_steenrod_divisor_generated(rs, idx):
                raise CalibrationError(
                    f"Wu convention {WU_CONVENTION} disagrees with the divisor-generated "
                    f"oracle on {name} class {idx}"
                )
    return WU_CONVENTION


# ---------------------------------------------------------------------------
# Phi classes and the duality route


@cache
def _phi_pieces(rs, theta, idx):
    """Graded pieces of Phi([X_idx]) = pi_*(c(T_Z)^{-+1}), convention-matched, at every offset.

    This is the direct route's series without the base factors, truncated
    at the word length instead of the codimension, as a read-only mapping.
    theta must be normalized (sorted, no repeats), as `CosetTable.theta` is.
    """
    _calibrate()
    eps = 1 if WU_CONVENTION == "I" else -1
    ct = coset_reps(rs, theta)
    return MappingProxyType(_pushed_series(ct, idx, ct.words[idx], eps, (), ct.length(idx)))


def _steenrod_by_duality(rs, theta, idx, up_to):
    """S^m([X_idx]) for m <= up_to from pairings against Phi of complementary classes."""
    ct = coset_reps(rs, theta)
    dim = ct.max_length
    c = ct.codim(idx)
    m_max = min(up_to, c)
    known = {0: {idx: 1}}  # m -> coeff dict of S^m
    for m in range(1, m_max + 1):
        coeffs = {}
        for u in ct.of_codim(dim - c - m):
            phi = _phi_pieces(rs, ct.theta, u)
            val = 0
            for mp in range(m):
                piece = phi.get(m - mp)
                if not piece:
                    continue
                s_mp = known.get(mp, {})
                for v, cv in piece.coeffs.items():
                    sv = s_mp.get(ct.dual_index(v))
                    if sv:
                        val += cv * sv
            val %= 2
            if val:
                coeffs[ct.dual_index(u)] = val
        known[m] = coeffs
    return {
        m: ChowClass(rs.type.name(), ct.theta, "Z/2", cf)
        for m, cf in known.items()
        if cf
    }


def steenrod_basis_element(rs, theta, idx, up_to=None):
    """Graded Steenrod pieces {i: S^i} of one mod-2 basis class, i <= up_to (cached).

    The bound is clipped to the class's codimension first, so every bound at
    or above it shares one entry.
    """
    ct = coset_reps(rs, theta)
    codim = ct.codim(idx)
    return _basis_pieces(rs, ct.theta, idx, codim if up_to is None else min(up_to, codim))


@cache
def _basis_pieces(rs, theta, idx, want):
    """S^0..S^want of [X_idx] by the direct ring or, for a long word, the duality route.

    Read-only, as every caller shares the cached mapping.
    """
    _calibrate()
    ct = coset_reps(rs, theta)
    codim = ct.codim(idx)
    word_len = ct.length(idx)
    if word_len <= DIRECT_WORD_LIMIT:
        return MappingProxyType(_direct_steenrod_pieces(rs, theta, idx, WU_CONVENTION, up_to=want))
    if codim + want <= DIRECT_WORD_LIMIT:
        return MappingProxyType(_steenrod_by_duality(rs, theta, idx, want))
    raise ResourceLimitError(
        f"S^<= {want} of a codimension-{codim} class (word length {word_len}) "
        "is out of reach: neither the direct ring nor the duality route fits"
    )


def steenrod_total(cls: ChowClass, up_to=None):
    """The graded list S^0(cls)..S^max(cls) for a mod-2 class.

    S is additive, so the class is expanded over the basis; each basis
    element goes through its own resolution (or the duality route for long
    words).
    """
    if cls.ring != "Z/2":
        raise UsageError("steenrod_total expects a Z/2 class")
    if up_to is not None and up_to < 0:
        raise UsageError(f"Steenrod degree must be nonnegative, got {up_to}")
    rs = build_root_system(cls.type_name)
    ct = coset_reps(rs, cls.theta)
    if cls.is_zero():
        return [cls]
    top = max(ct.codim(k) for k in cls.coeffs)
    want = top if up_to is None else min(up_to, top)
    pieces = [set() for _ in range(want + 1)]
    for k, c in cls.coeffs.items():
        if c % 2 == 0:
            continue
        for d, piece in steenrod_basis_element(rs, cls.theta, k, up_to=want).items():
            pieces[d].symmetric_difference_update(piece.coeffs)
    return [ChowClass(cls.type_name, cls.theta, "Z/2", dict.fromkeys(p, 1)) for p in pieces]


def wu_convention():
    """The Wu convention name, checked against the oracle on first use.

    "I": S(f_* a) = c(T_Y) f_*(c(T_X)^{-1} S(a)).
    """
    return _calibrate()
