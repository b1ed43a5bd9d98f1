"""Integer partitions / Young diagrams and their combinatorial accessors.

Convention note.  A ``Partition`` is just a weakly decreasing tuple of
positive integers; it carries no row/column orientation of its own.  The
character and Schur machinery reads the parts as row lengths.  The
cut-and-join eigenvalue formula below is the same algebraic expression
whichever way the parts are read, and the orientation of the whole library
is pinned by the eigenvector test A(s_lambda) = f(lambda) s_lambda together
with the hook-sum identity (see symfunc).
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial

from .series import _cached


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

    def remove_corner(self, i):
        """Partition with the corner in row i (1-based) erased."""
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
        parts = list(self.parts)
        parts[i - 1] += 1
        return Partition(sorted(parts, reverse=True))

    def multiplicities(self):
        mult = {}
        for p in self.parts:
            mult[p] = mult.get(p, 0) + 1
        return mult


def partitions_of(d):
    """All partitions of d, reverse-lexicographic, deterministic."""
    if d < 0:
        raise ValueError("cannot partition %d" % d)
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
    out = []
    for k in range(d + 1):
        out.extend(partitions_of(k))
    return out


def aut_order(p):
    """Number of permutations of the parts preserving their values."""
    out = 1
    for m in p.multiplicities().values():
        out *= factorial(m)
    return out


def zee(p):
    """Centralizer order of the conjugacy class with cycle type p."""
    out = aut_order(p)
    for x in p.parts:
        out *= x
    return out


def class_size(p):
    return factorial(p.size) // zee(p)


def cut_and_join_eigenvalue(p):
    """f(p) = 1/2 sum p_i (p_i - 2i + 1) over the parts.

    Equals the content sum of the diagram whose rows are the parts; this is
    the eigenvalue of the cut-and-join operator on the Schur polynomial
    labeled by the same parts (pinned by tests).
    """
    return Fraction(sum(x * (x - 2 * i + 1) for i, x in enumerate(p.parts, start=1)), 2)


def hook(a, b):
    """Diagram with one arm of length a and leg of length b: (a+1, 1^b)."""
    if a < 0 or b < 0:
        raise ValueError("hook arm and leg must be >= 0, got %d, %d" % (a, b))
    return Partition((a + 1,) + (1,) * b)
