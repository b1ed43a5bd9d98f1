from fractions import Fraction
from math import factorial

import pytest

from taulab.partitions import (Partition, partitions_of, partitions_upto,
                               aut_order, zee, class_size,
                               cut_and_join_eigenvalue, hook)
from oracles import conjugate, contents_sum, is_hook, hook_arm_leg


def test_partitions_of_small():
    assert [p.parts for p in partitions_of(0)] == [()]
    assert [p.parts for p in partitions_of(3)] == [(3,), (2, 1), (1, 1, 1)]
    assert len(partitions_of(5)) == 7


def test_partitions_of_counts():
    # independent oracle: Euler recurrence via pentagonal numbers
    counts = [1]
    for n in range(1, 13):
        total = 0
        k = 1
        while True:
            g1 = k * (3 * k - 1) // 2
            g2 = k * (3 * k + 1) // 2
            if g1 > n and g2 > n:
                break
            sign = -1 if k % 2 == 0 else 1
            if g1 <= n:
                total += sign * counts[n - g1]
            if g2 <= n:
                total += sign * counts[n - g2]
            k += 1
        counts.append(total)
    for n in range(13):
        assert len(partitions_of(n)) == counts[n]


def test_aut_order():
    assert aut_order(Partition((7, 6, 6, 4, 1, 1, 1, 1, 1))) == 240
    assert aut_order(Partition((1, 1, 1))) == 6
    assert aut_order(Partition((3,))) == 1


def test_corners():
    assert Partition((2, 1)).corners() == [(1, 2), (2, 1)]
    assert Partition((1, 1)).corners() == [(2, 1)]
    big = Partition((7, 6, 6, 4, 1, 1, 1, 1, 1))
    assert [i for i, _ in big.corners()] == [1, 3, 4, 9]


def test_remove_corner():
    assert Partition((2, 1)).remove_corner(1) == Partition((1, 1))
    assert Partition((1,)).remove_corner(1) == Partition(())
    assert Partition((3, 3, 1)).remove_corner(2) == Partition((3, 2, 1))
    with pytest.raises(ValueError):
        Partition((2, 2)).remove_corner(1)


def test_remove_corner_all_small():
    for p in partitions_upto(10):
        for i, _ in p.corners():
            q = p.remove_corner(i)
            assert q.size == p.size - 1


def test_conjugate():
    assert conjugate(Partition((3, 1))) == Partition((2, 1, 1))
    assert conjugate(Partition(())) == Partition(())
    assert conjugate(Partition((2, 2))) == Partition((2, 2))
    for p in partitions_upto(10):
        assert conjugate(conjugate(p)) == p


def test_class_sizes_sum_to_group_order():
    for d in range(9):
        assert sum(class_size(p) for p in partitions_of(d)) == factorial(d)
        for p in partitions_of(d):
            assert zee(p) == aut_order(p) * prod(p.parts)


def prod(xs):
    out = 1
    for x in xs:
        out *= x
    return out


def test_cut_and_join_eigenvalue():
    assert cut_and_join_eigenvalue(Partition((1,))) == 0
    for a in range(5):
        for b in range(5):
            f = cut_and_join_eigenvalue(hook(a, b))
            assert f == Fraction(a * (a + 1) - b * (b + 1), 2)
    assert cut_and_join_eigenvalue(Partition((2, 1))) == 0


def test_eigenvalue_equals_content_sum():
    for p in partitions_upto(10):
        assert cut_and_join_eigenvalue(p) == contents_sum(p)
        assert cut_and_join_eigenvalue(conjugate(p)) == -cut_and_join_eigenvalue(p)


def test_hook():
    assert hook(0, 0) == Partition((1,))
    assert hook(2, 1) == Partition((3, 1))
    assert hook(0, 2) == Partition((1, 1, 1))
    assert is_hook(hook(3, 2)) and hook_arm_leg(hook(3, 2)) == (3, 2)
    assert not is_hook(Partition((2, 2)))
