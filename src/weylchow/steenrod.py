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

from .errors import CalibrationError, InternalComputationError, ResourceLimitError, UsageError
from .polynomial import Polynomial, unpack_monomial
from .rootdata import RootSystem, build_root_system
from .schubert import ChowClass, char_map, flag_context, preimage
from .weyl import WeylElement, _canonical_from_image, coset_reps

#: maximal reduced-word length for direct ring expansion (2^l basis monomials)
DIRECT_WORD_LIMIT = 18

#: the Wu-type formula below that matches the type-A divisor oracle (II fails on A3)
WU_CONVENTION = "I"


class BottSamelsonRing:
    """CH of the Bott-Samelson resolution of a reduced word, mod 2.

    An element is a set of square-free divisor monomials, each a bitmask
    (bit j set means the factor D_{j+1} is present); addition is symmetric
    difference.
    """

    def __init__(self, rs: RootSystem, word):
        word = tuple(int(i) for i in word)
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
        self._divmemo = {}

    def one(self):
        return {0}

    def _mul_div_mask(self, k, mask):
        """D_{k+1} times the square-free monomial `mask`, as a tuple of square-free masks."""
        bit = 1 << k
        if not mask & bit:
            return (mask | bit,)
        low = mask & (bit * 2 - 1)
        key = (k, low)
        hit = self._divmemo.get(key)
        if hit is None:
            out = set()
            for m in self.nu[k]:
                out.symmetric_difference_update(self._mul_div_mask(m, low))
            hit = self._divmemo[key] = tuple(out)
        high = mask ^ low
        if not high:
            return hit
        return tuple(mm | high for mm in hit)

    def mul_divisor(self, elem, k, max_degree=None):
        # D_{k+1} raises the degree of every monomial by exactly one
        out = set()
        for mask in elem:
            if max_degree is None or mask.bit_count() < max_degree:
                out.symmetric_difference_update(self._mul_div_mask(k, mask))
        return out

    def mul_linear(self, elem, form, max_degree=None):
        """Multiply by the sum of the divisors at the positions in `form`."""
        out = set()
        for k in form:
            out ^= self.mul_divisor(elem, k, max_degree=max_degree)
        return out

    def mul(self, a, b, max_degree=None):
        if len(a) > len(b):
            a, b = b, a
        out = set()
        for amask in a:
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
        acc = set(elem)
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
        return {m for m in elem if m.bit_count() == d}


def steenrod_on_bs(ring: BottSamelsonRing, elem):
    """The ring endomorphism generated by D |-> D + D^2 (the total square)."""
    out = set()
    for mask in elem:
        term = {0}
        m = mask
        while m:
            k = (m & -m).bit_length() - 1
            term = ring.mul_divisor(term, k)
            term ^= ring.mul_divisor(term, k)  # * (1 + D_k)
            m &= m - 1
        out ^= term
    return out


def bs_pushforward(ring: BottSamelsonRing, elem, theta) -> ChowClass:
    """Push square-free monomials to mod-2 Schubert classes on G/P_Theta.

    The monomial prod_{j in T} D_j is the sub-resolution on positions
    S = complement(T); it pushes to [X_v] when the subword at S is reduced
    and its product v is a minimal coset representative, else to 0.
    """
    rs = ring.rs
    ct = coset_reps(rs, theta)
    theta_set = set(ct.theta)
    out = set()
    for mask in elem:
        positions = [p for p in range(ring.length) if not (mask >> p) & 1]
        y = rs.rho  # tracks u^{-1}(rho) while letters are appended on the right
        ok = True
        for p in positions:
            j = ring.word[p]
            if y[j - 1] < 0:
                ok = False
                break
            y = rs.reflect_weight(j - 1, y)
        if not ok:
            continue
        if any(y[s - 1] < 0 for s in theta_set):
            continue  # product not a minimal representative
        # y = u^{-1}(rho); reversing a reduced word of u^{-1} gives one of u
        inv_word = _canonical_from_image(rs, y)
        u = WeylElement.from_word(rs, tuple(reversed(inv_word)))
        k = ct.index.get(u.word)
        if k is None:
            raise InternalComputationError("pushforward image is not a coset representative")
        out ^= {k}
    return ChowClass(rs.type.name(), ct.theta, "Z/2", dict.fromkeys(out, 1))


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
    u = preimage(cls)
    den, iu = u.to_integer()
    if den % 2 == 0:
        raise InternalComputationError("oracle needs an odd-denominator preimage")
    subbed = _substitute_total_square_mod2(iu.reduce_mod(2))
    graded = {}
    for d, piece in subbed.graded_parts().items():
        img = char_map(rs, (), piece, check=False)
        img2 = ChowClass(rs.type.name(), (), "Z/2", img.coeffs)
        if not img2.is_zero():
            graded[d - ct.codim(idx)] = img2
    return graded


def _direct_steenrod_pieces(rs, theta, idx, convention, up_to=None, word=None):
    """S^i([X_idx]) for all i <= up_to via the resolution ring, one convention.

    `word` overrides the canonical reduced word (the result must not depend
    on the choice; tests recompute with alternatives).
    """
    ct = coset_reps(rs, theta)
    if word is None:
        word = ct.reps[idx].word
    codim = ct.codim(idx)
    emax = codim if up_to is None else min(up_to, codim)
    ring = BottSamelsonRing(rs, word)
    theta_set = set(ct.theta)
    # pulled-back tangent factors of the base: one per root in the unipotent radical
    u_roots = [
        pr for pr in rs.positive_roots
        if any(pr.root[j] for j in range(rs.rank) if (j + 1) not in theta_set)
    ]
    elem = ring.one()
    eps = 1 if convention == "I" else -1
    for pr in u_roots:
        form = ring.pull_weight_class(pr.omega)
        elem = ring.mul_one_plus_series(elem, form, eps, emax)
    for j in range(ring.length):
        elem = ring.mul_one_plus_series(elem, ring.nu[j], -eps, emax)
    out = {}
    for d in range(emax + 1):
        piece = ring.graded_piece(elem, d)
        cls = bs_pushforward(ring, piece, ct.theta)
        if d == 0 and cls.coeffs != {idx: 1}:
            raise InternalComputationError("resolution is not birational onto its image")
        if not cls.is_zero():
            out[d] = cls
    return out


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


def _phi_pieces(rs, theta, idx, max_offset):
    """Graded pieces of Phi([X_idx]) = pi_*(c(T_Z)^{-+1}), convention-matched."""
    conv = _calibrate()
    ctx = flag_context(rs, theta)
    hit = ctx._phi_cache.get(idx)
    if hit is not None and hit[0] >= max_offset:
        return hit[1]
    ct = ctx.ct
    word = ct.reps[idx].word
    if len(word) > DIRECT_WORD_LIMIT:
        raise ResourceLimitError(
            f"Bott-Samelson word of length {len(word)} exceeds the direct limit"
        )
    ring = BottSamelsonRing(rs, word)
    sigma = -1 if conv == "I" else 1
    elem = ring.one()
    for j in range(ring.length):
        elem = ring.mul_one_plus_series(elem, ring.nu[j], sigma, max_offset)
    out = {}
    for d in range(max_offset + 1):
        piece = ring.graded_piece(elem, d)
        cls = bs_pushforward(ring, piece, ct.theta)
        if d == 0 and cls.coeffs != {idx: 1}:
            raise InternalComputationError("Phi normalization failed")
        if not cls.is_zero():
            out[d] = cls
    ctx._phi_cache[idx] = (max_offset, out)
    return out


def _steenrod_by_duality(rs, theta, idx, up_to):
    """S^m([X_idx]) for m <= up_to from pairings against Phi of complementary classes."""
    ct = coset_reps(rs, theta)
    dim = ct.max_length
    c = ct.codim(idx)
    m_max = min(up_to, c)
    known = {0: {idx: 1}}  # m -> coeff dict of S^m
    for m in range(1, m_max + 1):
        coeffs = {}
        for u in range(len(ct)):
            if ct.codim(u) != dim - c - m:
                continue
            # request offsets up to at least 8 so overlapping passes share the cache
            phi = _phi_pieces(rs, theta, u, max(m, min(8, ct.codim(u))))
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
    """Graded Steenrod pieces {i: S^i} of one mod-2 basis class (cached)."""
    conv = _calibrate()
    ctx = flag_context(rs, theta)
    ct = ctx.ct
    codim = ct.codim(idx)
    want = codim if up_to is None else min(up_to, codim)
    hit = ctx._steenrod_cache.get(idx)
    if hit is not None and hit[0] >= want:
        return {d: c for d, c in hit[1].items() if d <= want}
    word_len = ct.reps[idx].length
    if word_len <= DIRECT_WORD_LIMIT:
        out = _direct_steenrod_pieces(rs, theta, idx, conv, up_to=want)
    elif codim + want <= DIRECT_WORD_LIMIT:
        out = _steenrod_by_duality(rs, theta, idx, want)
    else:
        raise ResourceLimitError(
            f"S^<= {want} of a codimension-{codim} class (word length {word_len}) "
            "is out of reach: neither the direct ring nor the duality route fits"
        )
    ctx._steenrod_cache[idx] = (want, out)
    return out


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
            if d <= want:
                pieces[d].symmetric_difference_update(piece.coeffs)
    return [ChowClass(cls.type_name, cls.theta, "Z/2", dict.fromkeys(p, 1)) for p in pieces]


def wu_convention():
    """The Wu convention name, checked against the oracle on first use.

    "I": S(f_* a) = c(T_Y) f_*(c(T_X)^{-1} S(a)).
    """
    return _calibrate()
