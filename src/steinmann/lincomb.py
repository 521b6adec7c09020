"""Finite exact rational combinations of labelled keys.

Every linear object of the library is a mapping from keys (set
compositions, preposets, comb keys, faces, chamber sign strings, or pairs of
these over a split) to nonzero rationals, over a fixed tuple of labels: the
ground set or grounds, plus a basis tag where the type has one.  ``LinComb``
implements that vector-space structure once; each public element type is a
thin subclass that names its labels and checks its keys.
"""

from __future__ import annotations

from .errors import DomainError, GroundMismatchError
from .rat import ONE, ZERO, as_rat, rat_str


class LinComb:
    """An immutable sparse combination: ``terms`` maps keys to nonzero rationals.

    A subclass lists its ``label_names``; it is constructed positionally from
    those labels followed by the terms, and each name becomes a read-only
    attribute.  It overrides ``_check_keys`` to reject keys that do not belong
    over its labels.  Coefficients are coerced to the rational backend and
    zeros dropped.  Two values are equal when their types, labels and terms
    are; only values of one type over the same labels can be added.
    """

    __slots__ = ("labels", "terms")
    label_names = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        for i, name in enumerate(cls.__dict__.get("label_names", ())):
            setattr(cls, name, property(lambda self, i=i: self.labels[i]))

    def __init__(self, *labels_and_terms):
        *labels, terms = labels_and_terms
        if len(labels) != len(self.label_names):
            names = ", ".join(self.label_names)
            raise TypeError(f"{type(self).__name__} takes ({names}, terms)")
        object.__setattr__(self, "labels", tuple(labels))
        self._check_keys(terms)
        clean = {}
        for key, coeff in terms.items():
            coeff = as_rat(coeff)
            if coeff != 0:
                clean[key] = coeff
        object.__setattr__(self, "terms", clean)

    def _check_keys(self, keys):
        """Raise a DomainError unless the labels are valid and every key belongs."""

    @classmethod
    def _trusted(cls, labels: tuple, terms: dict):
        """Wrap terms already known to be valid, rational and nonzero."""
        obj = object.__new__(cls)
        object.__setattr__(obj, "labels", labels)
        object.__setattr__(obj, "terms", terms)
        return obj

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def coeff(self, key):
        return self.terms.get(key, ZERO)

    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other):
        same_space = type(other) is type(self) and other.labels == self.labels
        return same_space and other.terms == self.terms

    def __hash__(self):
        return hash((self.labels, frozenset(self.terms.items())))

    def _plus(self, other, negate: bool):
        if type(other) is not type(self):
            raise DomainError(f"cannot combine {type(self).__name__} with {type(other).__name__}")
        for a, b in zip(self.labels, other.labels):
            if a != b:
                mismatch = DomainError if isinstance(a, str) else GroundMismatchError
                raise mismatch(f"{type(self).__name__} operands differ: {a!r} vs {b!r}")
        terms = dict(self.terms)
        for key, v in other.terms.items():
            v = terms.get(key, ZERO) + (-v if negate else v)
            if v:
                terms[key] = v
            else:
                del terms[key]
        return self._trusted(self.labels, terms)

    def __add__(self, other):
        return self._plus(other, False)

    def __sub__(self, other):
        return self._plus(other, True)

    def __neg__(self):
        return self._trusted(self.labels, {k: -v for k, v in self.terms.items()})

    def scale(self, c):
        c = as_rat(c)
        if c == 0:
            return self._trusted(self.labels, {})
        return self._trusted(self.labels, {k: c * v for k, v in self.terms.items()})

    def __repr__(self):
        items = sorted(self.terms.items(), key=lambda kv: repr(kv[0]))
        body = ", ".join(f"{k!r}: {rat_str(v)}" for k, v in items)
        return f"{type(self).__name__}({', '.join(map(repr, self.labels))}, {{{body}}})"


def check_keys_over(keys, ground, kinds: tuple):
    """Every key is one of ``kinds`` and lives over ``ground``."""
    for key in keys:
        if not isinstance(key, kinds):
            raise DomainError(f"invalid key type {type(key).__name__}")
        if key.ground != ground:
            raise GroundMismatchError("key ground mismatch")


def extend_linearly(terms: dict, image) -> dict:
    """``sum(coeff * image(key))`` over ``terms``, where ``image(key)`` is a
    key -> coefficient mapping; returned as such a mapping, zeros kept.

    Key maps mostly return the shared ``ONE``; its products are skipped, and
    a key's first contribution is stored as it is rather than added to zero.
    """
    out = {}
    for key, coeff in terms.items():
        for k2, v2 in image(key).items():
            c = coeff if v2 is ONE else coeff * v2
            old = out.get(k2)
            out[k2] = c if old is None else old + c
    return out


def extend_bilinearly(a: dict, b: dict, image=None) -> dict:
    """``sum(ca * cb * image(ka, kb))`` over the terms of ``a`` and ``b``, as
    ``extend_linearly`` returns it.  Without ``image`` each pair of keys maps
    to the pair key ``(ka, kb)``: the tensor product of the two mappings."""
    image = image or (lambda ka, kb: {(ka, kb): ONE})
    out = {}
    for ka, ca in a.items():
        for kb, cb in b.items():
            c = cb if ca is ONE else ca if cb is ONE else ca * cb
            for k2, v2 in image(ka, kb).items():
                v = c if v2 is ONE else c * v2
                old = out.get(k2)
                out[k2] = v if old is None else old + v
    return out
