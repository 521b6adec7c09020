"""Piecewise-constant functions on the braid arrangement.

A function here is stored by its values on relatively open faces, i.e. as a
sparse mapping from set compositions to rationals: the composition records
which coordinates coincide and how the level sets are ordered.  Closed cones
attached to preposets are sums of faces, and the pointwise product is then
diagonal in the face basis because faces have disjoint supports.
"""

from __future__ import annotations

from . import preposets as pp
from . import ratgeom
from .compositions import SetComposition, enumerate_compositions
from .errors import DomainError, GroundMismatchError
from .lincomb import LinComb, check_keys_over
from .preposets import Preposet
from .rat import ONE, ZERO, rat


class PwcFunction(LinComb):
    """Face-basis coordinates of a piecewise-constant function."""

    __slots__ = ()
    label_names = ("ground",)
    coeffs = property(lambda self: self.terms, doc="face -> nonzero value")

    def _check_keys(self, keys):
        check_keys_over(keys, self.ground, (SetComposition,))


def braid_signature(lam: ratgeom.Point) -> SetComposition:
    """Level sets of a weight point, ordered by decreasing value."""
    groups = {}
    for label in lam.ground.labels:
        groups.setdefault(lam.coord(label), []).append(label)
    ordered = sorted(groups.items(), key=lambda kv: kv[0], reverse=True)
    return SetComposition(lam.ground, tuple(tuple(v) for _, v in ordered))


def face(f: SetComposition) -> PwcFunction:
    """The indicator of one relatively open face."""
    return PwcFunction(f.ground, {f: ONE})


def cone(p: Preposet) -> PwcFunction:
    """The closed braid cone of a preposet: sum of the faces refining it."""
    coeffs = {}
    for f in enumerate_compositions(p.ground):
        if pp.leq(pp.preposet_of(f), p):
            coeffs[f] = ONE
    return PwcFunction(p.ground, coeffs)


def eval_function(f: PwcFunction, lam: ratgeom.Point):
    """Evaluate at a weight point by looking up its braid signature."""
    if f.ground != lam.ground:
        raise GroundMismatchError("evaluation ground mismatch")
    return f.coeffs.get(braid_signature(lam), ZERO)


def pointwise_product(f: PwcFunction, g: PwcFunction) -> PwcFunction:
    """Multiply values; faces have disjoint supports so this is diagonal."""
    if f.ground != g.ground:
        raise GroundMismatchError("function grounds differ")
    coeffs = {}
    for key, v in f.coeffs.items():
        w = g.coeffs.get(key)
        if w is not None:
            coeffs[key] = v * w
    return PwcFunction(f.ground, coeffs)


def face_interior_point(f: SetComposition) -> ratgeom.Point:
    """The canonical strict witness: lump j of k gets value k - j + 1."""
    k = len(f)
    values = {}
    for j, lump in enumerate(f.lumps):
        for x in lump:
            values[x] = rat(k - j)  # k-1 down to 0; only differences matter
    if not f.lumps:
        return ratgeom.Point(f.ground, ())
    return ratgeom.point(f.ground, values)


def support_matches_cone(p: Preposet) -> bool:
    """Oracle: the cone function is the characteristic function of the
    conical space spanned by the indicator weights of the preposet's
    coprobes.  Checked face by face with exact cone membership, modulo the
    all-ones direction.
    """
    if len(p.ground) > 5:
        raise DomainError("support oracle is exhaustive over faces; use n <= 5")
    cone_fn = cone(p)
    gens = [tb.weight_vector().coords for tb in pp.coprobes(p)]
    ones = tuple(ONE for _ in p.ground.labels)
    for f in enumerate_compositions(p.ground):
        witness = face_interior_point(f)
        val = eval_function(cone_fn, witness)
        member = ratgeom.cone_member(witness.coords, gens, lineality=(ones,)) is not None
        if (val == 1) != member:
            return False
        if val not in (0, 1):
            return False
    return True
