"""Witten-Kontsevich psi-class intersections by the Dijkgraaf-Verlinde-Verlinde
recursion: an oracle that shares no code with the Hurwitz, change-of-variables
or equation routes.  It checks the lambda_0 slice of the Hodge tables and the
moduli series F^{(0)} coefficient by coefficient.

``pic.bracket`` is not compared: its brackets obey 4g = sum d_i - n + 3, not
the psi-class dimension constraint 3g - 3 + n = sum d_i.
"""

from fractions import Fraction as F
from functools import lru_cache
from itertools import product
from math import factorial

from taulab.cli import main
from taulab.hodge import f_moduli, hurwitz_to_hodge, moduli_caps_for
from taulab.partitions import partitions_upto


def _double_factorial(n):
    """n!! for odd n >= -1, with (-1)!! = 1."""
    out = 1
    for k in range(n, 0, -2):
        out *= k
    return out


@lru_cache(maxsize=None)
def dvv(ds):
    """<tau_{d_1} ... tau_{d_n}>_g for a sorted tuple ds; the genus is fixed by
    sum d_i = 3g - 3 + n, and unstable or non-integral shapes give 0."""
    n = len(ds)
    g3 = sum(ds) + 3 - n
    if n == 0 or g3 < 0 or g3 % 3 or 2 * (g3 // 3) - 2 + n <= 0:
        return F(0)
    if ds == (0, 0, 0):
        return F(1)
    if ds == (1,):
        return F(1, 24)
    if ds[0] == 0:
        # string equation
        rest = ds[1:]
        return sum((dvv(tuple(sorted(rest[:j] + (d - 1,) + rest[j + 1:])))
                    for j, d in enumerate(rest) if d), F(0))
    # DVV on the largest index k + 1
    k, rest = ds[-1] - 1, ds[:-1]
    acc = F(0)
    for j, d in enumerate(rest):
        acc += F(_double_factorial(2 * k + 2 * d + 1), _double_factorial(2 * d - 1)) \
            * dvv(tuple(sorted(rest[:j] + (d + k,) + rest[j + 1:])))
    for r in range(k):
        s = k - 1 - r
        c = F(_double_factorial(2 * r + 1) * _double_factorial(2 * s + 1), 2)
        acc += c * dvv(tuple(sorted(rest + (r, s))))
        for side in product((0, 1), repeat=len(rest)):
            left = tuple(sorted((r,) + tuple(d for d, x in zip(rest, side) if x)))
            right = tuple(sorted((s,) + tuple(d for d, x in zip(rest, side) if not x)))
            acc += c * dvv(left) * dvv(right)
    return acc / _double_factorial(2 * k + 3)


def test_dvv_goldens():
    # Witten's one-point values and two small multi-point ones
    assert dvv((1,)) == F(1, 24) and dvv((4,)) == F(1, 1152)
    assert dvv((7,)) == F(1, 82944)
    assert dvv((1, 1)) == F(1, 24) and dvv((2, 3)) == F(29, 5760)
    assert dvv((0, 0, 0, 1)) == 1 and dvv((0, 2)) == F(1, 24)
    assert dvv((0, 0)) == 0 and dvv((2,)) == 0


HODGE_SHAPES = [(0, 3), (0, 4), (1, 1), (1, 2), (1, 3), (2, 1), (2, 2), (2, 3),
                (3, 1), (4, 2), (4, 3)]


def test_hodge_lambda0_slice_matches_dvv():
    compared = 0
    for g, n in HODGE_SHAPES:
        for (k, ds), v in hurwitz_to_hodge(g, n).items():
            if k == 0:
                assert sum(ds) == 3 * g - 3 + n
                assert v == dvv(ds), (g, ds)
                compared += 1
    assert compared == 45  # every sorted index tuple of the eleven shapes


def test_cli_genus3_hodge_matches_dvv(capsys):
    # the whole (3, 3) table: the principal lattice b_1 + b_2 + b_3 <= 13,
    # 286 simple numbers of degree up to 13, whose top layer of differences
    # must vanish
    code = main(["hodge", "--genus", "3", "--indices", "3,3,3", "--k", "0"])
    assert (code, capsys.readouterr().out.strip()) == (0, "583/96768")
    assert dvv((3, 3, 3)) == F(583, 96768)


def test_f0_matches_dvv():
    # the caps the heavier hodge tests share; slice 0 is exact to weight 10
    f0 = f_moduli(0, 10, moduli_caps_for(10, 2))
    assert f0.cap_weight == 10
    monos = partitions_upto(10)  # t_d has weight d + 1
    assert len(monos) == 139
    for la in monos:
        ds = tuple(sorted(part - 1 for part in la.parts))
        aut = 1
        for d in set(ds):
            aut *= factorial(ds.count(d))
        assert f0.coeff(0, {d: ds.count(d) for d in ds}) == dvv(ds) / aut, ds
