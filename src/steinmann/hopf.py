"""The dual pair of Hopf algebras on set compositions.

One algebra (bases M, P, C) is commutative: multiplication quasishuffles /
shuffles / sign-quasishuffles the two lump sequences, and comultiplication is
deconcatenation.  Its dual (bases H, Q) is cocommutative: multiplication is
concatenation and comultiplication restricts (H) or deshuffles (Q).  All
coefficients are exact rationals.

Elements are sparse combinations on the shared ``lincomb.LinComb`` base: a
ground set, a basis tag, and a mapping from keys to nonzero coefficients.
Keys are set compositions, except in the C basis where genuine preposet keys
are allowed as well; those normalize on demand to composition keys through an
alternating-sign expansion, so every operation can assume composition keys
internally.

The Tits product (refining one composition by another) and the primitive
series expansion in the H basis live here too, since both are expressed
directly in these bases.
"""

from __future__ import annotations

from functools import lru_cache

from . import preposets as pp
from .compositions import (
    GroundSet,
    SetComposition,
    coarser_compositions,
    concat,
    enumerate_compositions,
    finer_compositions,
    opposite,
    quotient_factors,
    relabel_ground,
    restrict,
)
from .errors import DomainError, GroundMismatchError
from .lincomb import LinComb, check_keys_over, extend_bilinearly, extend_linearly
from .preposets import Preposet
from .rat import ONE, ZERO, as_rat, rat

DUAL_SIDE = {"M": "sigma*", "P": "sigma*", "C": "sigma*", "H": "sigma", "Q": "sigma"}
BASES = tuple(DUAL_SIDE)


class BasisElement(LinComb):
    """A rational linear combination of basis keys, tagged by its basis."""

    __slots__ = ()
    label_names = ("ground", "basis")

    def _check_keys(self, keys):
        ground, basis = self.labels
        if basis not in BASES:
            raise DomainError(f"unknown basis tag {basis!r}")
        if basis != "C" and any(isinstance(key, Preposet) for key in keys):
            raise DomainError("preposet keys are only allowed in the C basis")
        check_keys_over(keys, ground, (SetComposition, Preposet))

    def relabel(self, mapping: dict) -> "BasisElement":
        """Transport along a bijection ``new label -> old label``, key by key."""
        terms = {k.relabel(mapping): v for k, v in self.terms.items()}
        return BasisElement(relabel_ground(self.ground, mapping), self.basis, terms)


def element(ground: GroundSet, basis: str, terms: dict) -> BasisElement:
    return BasisElement(ground, basis, terms)


def basis_vector(basis: str, key) -> BasisElement:
    return BasisElement(key.ground, basis, {key: ONE})


def zero(ground: GroundSet, basis: str) -> BasisElement:
    return BasisElement(ground, basis, {})


def unit(basis: str) -> BasisElement:
    """The basis vector of the unique composition of the empty set."""
    g = GroundSet(())
    return basis_vector(basis, SetComposition(g, ()))


class TensorElement(LinComb):
    """A rational combination of key pairs over a two-sided ground split."""

    __slots__ = ()
    label_names = ("left_ground", "right_ground", "basis")

    def _check_keys(self, keys):
        left, right, _ = self.labels
        for kl, kr in keys:
            if kl.ground != left or kr.ground != right:
                raise GroundMismatchError("tensor key grounds mismatch")

    def swap(self) -> "TensorElement":
        left, right, basis = self.labels
        return TensorElement._trusted(
            (right, left, basis), {(kr, kl): v for (kl, kr), v in self.terms.items()}
        )


# ---------------------------------------------------------------------------
# quasishuffles


def _interleavings(f_lumps, g_lumps, allow_merge):
    """Interleave two lump sequences, optionally merging one lump from each.

    Yields the lump sequences H with H below the two-sided concatenation:
    every F-lump keeps its order, every G-lump keeps its order, and a merged
    lump always combines exactly one lump of each side.
    """
    if not f_lumps:
        yield g_lumps
        return
    if not g_lumps:
        yield f_lumps
        return
    for tail in _interleavings(f_lumps[1:], g_lumps, allow_merge):
        yield (f_lumps[0],) + tail
    for tail in _interleavings(f_lumps, g_lumps[1:], allow_merge):
        yield (g_lumps[0],) + tail
    if allow_merge:
        merged = tuple(sorted(f_lumps[0] + g_lumps[0]))
        for tail in _interleavings(f_lumps[1:], g_lumps[1:], allow_merge):
            yield (merged,) + tail


def quasishuffles(f: SetComposition, g: SetComposition):
    """All compositions refining-compatibly below the concatenation of f and g."""
    new_ground = GroundSet(f.ground.labels + g.ground.labels)
    return [
        SetComposition(new_ground, lumps)
        for lumps in _interleavings(f.lumps, g.lumps, allow_merge=True)
    ]


def shuffles(f: SetComposition, g: SetComposition):
    new_ground = GroundSet(f.ground.labels + g.ground.labels)
    return [
        SetComposition(new_ground, lumps)
        for lumps in _interleavings(f.lumps, g.lumps, allow_merge=False)
    ]


# ---------------------------------------------------------------------------
# C-basis preposet keys


def preposet_expansion(p: Preposet) -> dict:
    """Expand a preposet C-key over composition C-keys with alternating signs.

    The expansion runs over compositions G whose order refines p while
    keeping every nonsymmetric pair of p nonsymmetric, signed by the lump
    count difference.
    """
    lp = pp.lump_count(p)
    out = {}
    for g_comp in enumerate_compositions(p.ground):
        q = pp.preposet_of(g_comp)
        if pp.preceq(q, p):
            out[g_comp] = as_rat((-1) ** (lp - len(g_comp)))
    return out


def cone_element(p: Preposet) -> BasisElement:
    """The C-basis element attached to a preposet (kept as a preposet key)."""
    g = pp.to_composition(p) if pp.is_total(p) else None
    if g is not None:
        return basis_vector("C", g)
    return BasisElement(p.ground, "C", {p: ONE})


def normalize_c_keys(x: BasisElement) -> BasisElement:
    """Rewrite preposet C-keys as composition C-keys."""
    if x.basis != "C":
        return x
    terms = extend_linearly(
        x.terms, lambda k: {k: ONE} if isinstance(k, SetComposition) else preposet_expansion(k)
    )
    return BasisElement(x.ground, "C", terms)


# ---------------------------------------------------------------------------
# change of basis


@lru_cache(maxsize=4096)
def _convert_key(key: SetComposition, src: str, dst: str) -> dict:
    """Expansion of one src-basis vector in the dst basis, as key->coeff.

    Memoized, so the recursive M -> P inversion and the P <-> C detour
    through M reuse their sub-results; callers must not mutate the result.
    """
    if src == dst:
        return {key: ONE}
    if src == "P" and dst == "M":
        out = {}
        for g_comp in coarser_compositions(key):
            _, fact = quotient_factors(key, g_comp)
            out[g_comp] = rat(1, fact)
        return out
    if src == "C" and dst == "M":
        return {g_comp: ONE for g_comp in coarser_compositions(key)}
    if src == "M" and dst == "C":
        k = len(key)
        return {
            g_comp: as_rat((-1) ** (k - len(g_comp)))
            for g_comp in coarser_compositions(key)
        }
    if src == "M" and dst == "P":
        # invert the triangular P->M substitution
        out = {key: ONE}
        for g_comp in coarser_compositions(key):
            if g_comp == key:
                continue
            _, fact = quotient_factors(key, g_comp)
            for k2, v2 in _convert_key(g_comp, "M", "P").items():
                out[k2] = out.get(k2, ZERO) - rat(1, fact) * v2
        return out
    if src == "H" and dst == "Q":
        out = {}
        for g_comp in finer_compositions(key):
            _, fact = quotient_factors(g_comp, key)
            out[g_comp] = rat(1, fact)
        return out
    if src == "Q" and dst == "H":
        out = {}
        for g_comp in finer_compositions(key):
            l, _ = quotient_factors(g_comp, key)
            out[g_comp] = as_rat((-1) ** (len(g_comp) - len(key))) / l
        return out
    if src in ("P", "C") and dst in ("P", "C"):
        return extend_linearly(_convert_key(key, src, "M"), lambda k: _convert_key(k, "M", dst))
    raise DomainError(f"no conversion from {src} to {dst}")


def change_basis(x: BasisElement, target: str) -> BasisElement:
    """Convert within the same algebra (M/P/C together, H/Q together)."""
    if target not in BASES:
        raise DomainError(f"unknown basis tag {target!r}")
    if DUAL_SIDE[x.basis] != DUAL_SIDE[target]:
        raise DomainError(f"cannot convert across the pairing: {x.basis} -> {target}")
    x = normalize_c_keys(x)
    if x.basis == target:
        return x
    terms = extend_linearly(x.terms, lambda k: _convert_key(k, x.basis, target))
    return BasisElement(x.ground, target, terms)


# ---------------------------------------------------------------------------
# the structure maps on basis keys, and their linear extensions


def _key_product(basis: str, f: SetComposition, g: SetComposition) -> dict:
    """The product of two composition keys over disjoint grounds, as key -> coeff.

    H and Q concatenate; P shuffles, M quasishuffles, and C quasishuffles with
    the sign of the number of merged lumps.
    """
    if basis in ("H", "Q"):
        return {concat(f, g): ONE}
    if basis == "P":
        return dict.fromkeys(shuffles(f, g), ONE)
    total = len(f) + len(g)
    return {
        h: -ONE if basis == "C" and (total - len(h)) % 2 else ONE for h in quasishuffles(f, g)
    }


def _key_coproduct(basis: str, key: SetComposition, s, t) -> dict:
    """The coproduct of one composition key at the split (S, T) of its ground,
    given as two label frozensets, as (left key, right key) -> coeff; empty
    where it vanishes.

    M, P and C deconcatenate: the term survives iff S is the union of the
    first few lumps.  H restricts to both sides; Q deshuffles, surviving iff
    every lump lies within S or within T.
    """
    if basis in ("M", "P", "C"):
        size, j = 0, 0
        while size < len(s):
            if not s.issuperset(key.lumps[j]):
                return {}
            size += len(key.lumps[j])
            j += 1
        left = SetComposition(key.ground.subset(s), key.lumps[:j])
        return {(left, SetComposition(key.ground.subset(t), key.lumps[j:])): ONE}
    if basis == "Q" and not all(s.issuperset(lump) or t.issuperset(lump) for lump in key.lumps):
        return {}
    return {(restrict(key, s), restrict(key, t)): ONE}


def multiply(a: BasisElement, b: BasisElement) -> BasisElement:
    """The basis-specific product over the disjoint union of the grounds."""
    if a.basis != b.basis:
        raise DomainError("multiply requires equal basis tags; convert first")
    if a.ground.label_set & b.ground.label_set:
        raise GroundMismatchError("multiply requires disjoint grounds")
    a, b = normalize_c_keys(a), normalize_c_keys(b)
    terms = extend_bilinearly(a.terms, b.terms, lambda f, g: _key_product(a.basis, f, g))
    return BasisElement(GroundSet(a.ground.labels + b.ground.labels), a.basis, terms)


def comultiply(x: BasisElement, split) -> TensorElement:
    """Coproduct component at an ordered split (S, T) of the ground set."""
    s, t = (frozenset(side) for side in split)
    if s & t or s | t != x.ground.label_set:
        raise DomainError("comultiply requires an ordered two-sided partition of the ground")
    x = normalize_c_keys(x)
    terms = extend_linearly(x.terms, lambda k: _key_coproduct(x.basis, k, s, t))
    return TensorElement(x.ground.subset(s), x.ground.subset(t), x.basis, terms)


def antipode(x: BasisElement) -> BasisElement:
    """The antipode, via the closed alternating formulas in the M and H bases."""
    if x.basis in ("M", "P", "C"):
        basis, image = "M", lambda k: {g: (-1) ** len(k) for g in coarser_compositions(opposite(k))}
    else:
        basis, image = "H", lambda k: {g: (-1) ** len(g) for g in finer_compositions(opposite(k))}
    out = BasisElement(x.ground, basis, extend_linearly(change_basis(x, basis).terms, image))
    return change_basis(out, x.basis)


def pairing(a: BasisElement, b: BasisElement):
    """The perfect pairing: <M_F, H_G> = delta, extended bilinearly."""
    if a.ground != b.ground:
        raise GroundMismatchError("pairing requires equal grounds")
    if DUAL_SIDE[a.basis] == DUAL_SIDE[b.basis]:
        raise DomainError("pairing takes one element from each side")
    if DUAL_SIDE[a.basis] == "sigma":
        a, b = b, a
    am = change_basis(a, "M")
    bh = change_basis(b, "H")
    total = ZERO
    for key, coeff in am.terms.items():
        total += coeff * bh.terms.get(key, ZERO)
    return total


# ---------------------------------------------------------------------------
# Tits product and the primitive series


def tits(f: SetComposition, g: SetComposition) -> SetComposition:
    """Refine each lump of f by g (the composition monoid product)."""
    if f.ground != g.ground:
        raise GroundMismatchError("the Tits product requires equal grounds")
    lumps = []
    for s in f.lumps:
        for t in g.lumps:
            inter = tuple(x for x in t if x in set(s))
            if inter:
                lumps.append(inter)
    return SetComposition(f.ground, tuple(lumps))


def tits_h(a: BasisElement, b: BasisElement) -> BasisElement:
    """Bilinear extension of the Tits product on H-basis elements."""
    if a.basis != "H" or b.basis != "H":
        raise DomainError("tits_h expects H-basis elements")
    if a.ground != b.ground:
        raise GroundMismatchError("tits_h requires equal grounds")
    terms = extend_bilinearly(a.terms, b.terms, lambda f, g: {tits(f, g): ONE})
    return BasisElement(a.ground, "H", terms)


def eulerian_series(g: GroundSet) -> BasisElement:
    """The first Eulerian idempotent in the H basis (zero on the empty set)."""
    if len(g) == 0:
        return zero(g, "H")
    terms = {}
    for f in enumerate_compositions(g):
        k = len(f)
        terms[f] = -as_rat((-1) ** k) / k
    return BasisElement(g, "H", terms)
