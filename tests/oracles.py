"""Slow reference routes the library no longer takes, kept as test oracles.

* ``series_log``: the logarithm of a whole truncated series, term by term.
* ``disconnected_simple_series``: Z = sum over lambda of (dim/d!)
  e^{beta f} s_lambda, whose logarithm is the connected simple series.
* ``cut_and_join_simple_series``: the connected simple series from the
  cut-and-join equation alone (Goulden-Jackson, "Transitive factorizations
  into transpositions and holomorphic mappings on the sphere", 1997), with no
  characters.
"""

from fractions import Fraction as F
from math import factorial

from taulab.hierarchy import cut_and_join
from taulab.hurwitz import _exp_schur_sum
from taulab.partitions import partitions_upto
from taulab.series import Series, FAMILY_P, vm_mul, vm_weight
from taulab.symfunc import dimension


def series_log(s):
    """log of a series with constant term 1: sum_k (-1)^{k+1} (s - 1)^k / k."""
    if s.constant_term() != 1:
        raise ValueError("log needs constant term 1")
    x = s - 1
    acc = Series.zero(s.family, s.cap_weight, s.cap_aux)
    term = Series.constant(s.family, s.cap_weight, s.cap_aux, 1)
    for k in range(1, s.cap_weight + s.cap_aux + 1):
        term = term * x
        if term.is_zero():
            break
        acc = acc + term * F((-1) ** (k + 1), k)
    return acc


def disconnected_simple_series(cap_weight, cap_aux):
    """sum over partitions lambda of (dim/d!) e^{beta f_lambda} s_lambda."""
    return _exp_schur_sum(((la, F(dimension(la), factorial(la.size)))
                           for la in partitions_upto(cap_weight)),
                          cap_weight, cap_aux)


def _drop(vm, i):
    """The monomial vm divided by p_i (p_i must divide it)."""
    return tuple((b, e - (b == i)) for b, e in vm if b != i or e > 1)


def cut_and_join_simple_series(cap_weight, cap_aux):
    """Solve dH/dbeta = Delta H + 1/2 sum_{i,j} i j p_{i+j} dH/dp_i dH/dp_j
    from H = p_1 at beta = 0, one beta order at a time.  The quadratic term
    keeps the weight, so each order is exact to cap_weight."""
    slices = [{((1, 1),): F(1)}]  # slices[k]: {monomial: coefficient of beta^k}
    for k in range(cap_aux):
        delta = cut_and_join(Series(FAMILY_P, cap_weight, 0,
                                    {(0, vm): c for vm, c in slices[k].items()}))
        nxt = {vm: c for (_, vm), c in delta.terms.items()}
        for a in range(k + 1):
            for vm1, c1 in slices[a].items():
                room = cap_weight - vm_weight(FAMILY_P, vm1)
                for vm2, c2 in slices[k - a].items():
                    if vm_weight(FAMILY_P, vm2) > room:
                        continue
                    for i, e1 in vm1:
                        left = _drop(vm1, i)
                        for j, e2 in vm2:
                            vm = vm_mul(vm_mul(left, _drop(vm2, j)), ((i + j, 1),))
                            nxt[vm] = nxt.get(vm, 0) + F(i * j * e1 * e2, 2) * c1 * c2
        slices.append({vm: c / (k + 1) for vm, c in nxt.items() if c})
    return Series(FAMILY_P, cap_weight, cap_aux,
                  {(k, vm): c for k, sl in enumerate(slices) for vm, c in sl.items()})
