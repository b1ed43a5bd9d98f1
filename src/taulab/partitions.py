"""Integer partitions / Young diagrams and their combinatorial accessors.

Convention note.  A ``Partition`` is just a weakly decreasing tuple of
positive integers; it carries no row/column orientation of its own.  The
character and Schur machinery reads the parts as row lengths.  The
cut-and-join eigenvalue formula below is the same algebraic expression
whichever way the parts are read, and the orientation of the whole library
is pinned by the eigenvector test A(s_lambda) = f(lambda) s_lambda together
with the hook-sum identity (see symfunc).

The hook-character sum (``_hook_poly``, ``_hook_sum``) and the sub-multiset
enumerator (``_sub_multisets``) live here, once, for hurwitz, pic and hodge.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, factorial

from .series import _cached, _check_caps


class Partition:
    """Weakly decreasing tuple of positive integers; empty allowed."""

    __slots__ = ("parts",)

    def __init__(self, parts=()):
        parts = tuple(parts)
        # ints (int() would truncate 2.7), weakly decreasing, last part positive
        if parts and (not all(type(x) is int for x in parts) or parts[-1] < 1
                      or any(a < b for a, b in zip(parts, parts[1:]))):
            raise ValueError("partition parts must be positive ints, weakly "
                             "decreasing, got %r" % (parts,))
        object.__setattr__(self, "parts", parts)

    def __setattr__(self, *a):
        raise AttributeError("Partition is immutable")

    @classmethod
    def from_multiset(cls, values):
        return cls(sorted(values, reverse=True))

    def __iter__(self):
        return iter(self.parts)

    def __len__(self):
        return len(self.parts)

    def __getitem__(self, i):
        return self.parts[i]

    def __eq__(self, other):
        return isinstance(other, Partition) and self.parts == other.parts

    def __lt__(self, other):
        return self.parts < other.parts

    def __hash__(self):
        return hash(self.parts)

    def __repr__(self):
        return "Partition%r" % (self.parts,)

    @property
    def size(self):
        return sum(self.parts)

    def corners(self):
        """All removable boxes as (i, part) pairs, i 1-based."""
        out = []
        k = len(self.parts)
        for i in range(k):
            if i == k - 1 or self.parts[i + 1] < self.parts[i]:
                out.append((i + 1, self.parts[i]))
        return out

    def _check_row(self, i):
        if type(i) is not int or not 1 <= i <= len(self.parts):
            raise ValueError("%r has no row %r" % (self, i))

    def remove_corner(self, i):
        """Partition with the corner in row i (1-based) erased."""
        self._check_row(i)
        if (i, self.parts[i - 1]) not in self.corners():
            raise ValueError("row %d is not a corner of %r" % (i, self.parts))
        parts = list(self.parts)
        parts[i - 1] -= 1
        if parts[i - 1] == 0:
            parts.pop(i - 1)
        return Partition(parts)

    def add_to_part(self, i):
        """Increase part i (1-based, must exist) by one; used for cycle-type
        bumps.  The result is re-sorted since cycle types are multisets."""
        self._check_row(i)
        parts = list(self.parts)
        parts[i - 1] += 1
        return Partition(sorted(parts, reverse=True))

    def multiplicities(self):
        mult = {}
        for p in self.parts:
            mult[p] = mult.get(p, 0) + 1
        return mult


def _check_partition(name, *ps):
    """ValueError unless every argument is a Partition: a tuple or a string
    would otherwise fail later, on an attribute it lacks."""
    if not all(isinstance(p, Partition) for p in ps):
        raise ValueError("%s needs Partitions, got %s" % (name, ", ".join(map(repr, ps))))


def partitions_of(d):
    """All partitions of d, reverse-lexicographic, deterministic."""
    _check_caps("partitions_of", 0, d)
    return [Partition(p) for p in _parts_tuples(d, d)]


def _parts_tuples(d, maxpart):
    return _cached(("parts", d, maxpart), _parts_tuples_raw, d, maxpart)


def _parts_tuples_raw(d, maxpart):
    if d == 0:
        return ((),)
    out = []
    for first in range(min(d, maxpart), 0, -1):
        for rest in _parts_tuples(d - first, first):
            out.append((first,) + rest)
    return tuple(out)


def partitions_upto(d):
    _check_caps("partitions_upto", 0, d)
    out = []
    for k in range(d + 1):
        out.extend(partitions_of(k))
    return out


def aut_order(p):
    """Number of permutations of the parts preserving their values."""
    _check_partition("aut_order", p)
    out = 1
    for m in p.multiplicities().values():
        out *= factorial(m)
    return out


def zee(p):
    """Centralizer order of the conjugacy class with cycle type p."""
    _check_partition("zee", p)
    out = aut_order(p)
    for x in p.parts:
        out *= x
    return out


def class_size(p):
    _check_partition("class_size", p)
    return factorial(p.size) // zee(p)


def cut_and_join_eigenvalue(p):
    """f(p) = 1/2 sum p_i (p_i - 2i + 1) over the parts.

    Equals the content sum of the diagram whose rows are the parts; this is
    the eigenvalue of the cut-and-join operator on the Schur polynomial
    labeled by the same parts (pinned by tests).
    """
    _check_partition("cut_and_join_eigenvalue", p)
    return Fraction(sum(x * (x - 2 * i + 1) for i, x in enumerate(p.parts, start=1)), 2)


def hook(a, b):
    """Diagram with one arm of length a and leg of length b: (a+1, 1^b)."""
    _check_caps("hook", 0, a, b)
    return Partition((a + 1,) + (1,) * b)


def _hook_poly(nu):
    """prod_i (1 - (-y)^{nu_i}) as a coefficient list."""
    poly = [1]
    for b in nu:
        out = poly + [0] * b
        for j, c in enumerate(poly):  # times 1 - (-y)^b
            out[j + b] -= c if b % 2 == 0 else -c
        poly = out
    return poly


def _hook_sum(poly, d, m):
    """2^m sum_j (-1)^j f_j^m [y^j] poly / (1 + y), f_j = d (d - 1 - 2j) / 2,
    an integer: 2^m times the one-part character sum for
    poly = prod_i (1 - (-y)^{nu_i}), |nu| = d (see ``hurwitz``).
    poly must be divisible by 1 + y; (-1)^j times the quotient's y^j
    coefficient is the alternating prefix sum of poly to y^j."""
    acc = prefix = 0
    for j, c in enumerate(poly[:d]):
        prefix += -c if j % 2 else c
        acc += prefix * (d * (d - 1 - 2 * j)) ** m
    return acc


def _sub_multisets(vm):
    """[(t, s - t, prod_b C(mult_b(s), mult_b(t)), l(t), |t|)] for every
    sub-multiset t of s = vm = ((b, mult_b(s)), ...), b increasing, keyed as
    vm is, in the lexicographic order of the exponent vectors of t: t = {}
    first, t = s last.  |t| = sum_b b mult_b(t)."""
    subs = [((), (), 1, 0, 0)]
    for b, c in vm:
        subs = [(t + ((b, x),) if x else t, u + ((b, c - x),) if x < c else u,
                 w * comb(c, x), nt + x, size + b * x)
                for t, u, w, nt, size in subs for x in range(c + 1)]
    return subs
