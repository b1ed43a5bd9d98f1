"""Slow reference routes the library no longer takes, kept as test oracles.

* ``series_log``: the logarithm of a whole truncated series, term by term.
* ``fraction_mul``, ``fraction_add``, ``fraction_scale``,
  ``fraction_partial``: the ``Series`` product, sum, scalar product and
  partial derivative computed term by term in ``Fraction``s, with no call
  to ``diffops.evaluate``, which the library's product and derivative run
  on.  Each returns ``(terms, cap_weight, cap_aux)``, terms without zeros in
  insertion order; ``vm_mul`` multiplies their variable monomials.
* ``disconnected_simple_series``: Z = sum over lambda of (dim/d!)
  e^{beta f} s_lambda, whose logarithm is the connected simple series.
* ``cut_and_join_simple_series``: the connected simple series from the
  cut-and-join equation alone (Goulden-Jackson, "Transitive factorizations
  into transpositions and holomorphic mappings on the sphere", 1997), with no
  characters.
* ``expand_then_cancel``: the change of variables of ``pic`` by its literal
  definition, expanding every p-monomial into every t-monomial it reaches
  and letting the image cancel.
* ``term_by_term``: a polynomial in derivatives evaluated one product at a
  time, each factor its own chain of partials.
* ``evaluate_by_series``: ``diffops.evaluate`` in ``Series`` sums: every
  derivative and product at the caps of its factors, cut to the residual's
  caps only at the end.
  Both take products and derivatives from ``fraction_mul`` and
  ``fraction_partial``, so neither runs ``evaluate``.
* ``string_check_by_coeff``, ``dilaton_check_by_coeff``, ``lowered`` and
  ``bump``: the string and dilaton equations of ``pic`` checked one
  t-monomial at a time, each coefficient read as a ``Fraction``.
* ``a_alternating``: a(d, k) as the alternating ``Fraction`` sum.
* ``L_grade_per_tuple``: the z^k part of L, one index tuple at a time.
* ``build_L_grade``: the z^k part of L, normal ordered, summed per
  composition of k.
* ``exp_l_operator_route``: exp(l) = L checked in the normal-ordered
  operator algebra, by ``ZOp.exp`` of the operator form of ``solve_l``'s
  matrix (``l_operator``), grade by grade against ``build_L_grade``.
* ``full_rescan``: the PDE route re-evaluating every monomial's
  equation on every sweep.
* ``bell_poly_by_set_partitions``: Faa di Bruno's expansion summed over
  every set partition of each monomial's positions, one at a time.
* ``elsv_scaled_value``: the scaled simple number that the Hodge table
  fits, one profile at a time, each from its own single-profile
  ``hurwitz_frobenius`` query rather than one table for a whole lattice.
* ``hodge_by_tensor_grid``: the Hodge table fitted on the tensor grid of
  per-variable degree 3g-3+n (``tensor_fit``, 1-d Newton fits ``fit_1d``
  along each axis, on ``elsv_scaled_value``), verified at one held-out
  point (``tensor_eval``).
* ``lagrange_fit_1d``: the 1-d exact polynomial fit of ``fit_1d`` through
  the Lagrange basis, rebuilt for every node.
* ``apply_L_by_substitution``: the operator L applied by ``substitute``,
  multiplying Series images of the t variables term by term.
* ``kp_residual_exp``: KP_{i,j}(F) as Hir_{i,j}(e^F) e^{-2F}, through the
  series exponential, against the closed ``hierarchy.kp_residual``.
* ``mn_character``: chi_mu(nu) by the recursive Murnaghan-Nakayama rule,
  one (mu, nu) pair at a time, against the bead-mask columns of ``symfunc``.
* ``hook_length_dimension``: dim(mu) by the hook length formula.
* ``connected_simple_rows`` and ``connected_simple_series``: the connected
  table with one ``character`` call per (lambda, s) pair and the sub-multiset
  logarithm summed entry by entry, with a binomial per pair of entries, and
  the series built from its rows at J = cap_aux.
* ``h_unst_simple``: the unstable (g = 0, n <= 2) part of the connected
  simple series in closed form, against the terms of the table that
  ``hodge.h_simple_stable`` drops.
* ``sub_multiset_splits`` and ``monomial_splits_by_bucket``: the
  sub-multiset splits of the connected table and of the PDE route, each
  written out on its own rather than through ``partitions._sub_multisets``.
* ``EntrywiseSolver``: the PDE route building the reduction of every
  (slice, eta, monomial) it reads and every split of each monomial, without
  the grading test.

Series, partition and operator methods that no library code calls:

* ``constant``, ``variable``, ``series_exp``, ``series_inverse``, ``aux_slice``,
  ``aux_shift``, ``aux_partial`` and ``substitute`` on ``Series``, and
  ``partial``, the derivative in one main variable as one ``evaluate``
  call;
* ``conjugate`` and ``contents_sum`` on ``Partition``;
* ``top_compose`` on ``TOp``, and ``zop_grade``, ``zop_scale``, ``zop_compose``
  and ``zop_exp`` on ``ZOp``.

Checks of stated identities that more than one test module runs:

* ``derivative_transform_pic`` and ``derivative_inverse_check``: d/dp_b in
  the q-picture, and the check that a derivative transform inverts its
  change of variables.
* ``power_monomial`` and ``hook_sum_identity_check``: p_nu as a series, and
  p_d = sum_{a+b+1=d} (-1)^b s_{hook(a,b)}.
* ``is_hook`` and ``hook_arm_leg``: hook diagrams and their arm and leg.
* ``polynomiality_check``: a grid fit of the scaled one-part numbers,
  verified on held-out points.
"""

from fractions import Fraction as F
from functools import lru_cache
from itertools import chain, product
from math import comb, factorial, lcm, prod

from taulab.diffops import TOp, ZOp, _accumulate, evaluate
from taulab.hierarchy import cut_and_join, hirota_residual
from taulab.hodge import (a_coeff, conjugated_equation, solve_l, ModuliPDESolver, _reduce,
                          _equation_terms, _work_entry)
from taulab.hurwitz import HurwitzQuery, ONEPART, SIMPLE, hurwitz_frobenius, _exp_schur_sum
from taulab.partitions import (Partition, partitions_of, partitions_upto, hook, zee,
                               cut_and_join_eigenvalue)
from taulab.pic import (Laurent, STRING_SOURCE_PIC, _monomials_up_to_weight,
                        _mono_factorials)
from taulab.series import Series, Rat, FAMILY_P, _check_caps, _make, vm_weight, var_weight
from taulab.symfunc import dimension, schur_poly


def vm_mul(a, b):
    """The product of two variable monomials."""
    if not a:
        return b
    if not b:
        return a
    acc = dict(a)
    for i, e in b:
        acc[i] = acc.get(i, 0) + e
    return tuple(sorted(acc.items()))


def partial(s, index):
    """The formal derivative of s in the main variable with the given index,
    exact to cap_weight - weight(variable): one ``evaluate`` call, which
    refuses an index that is not a variable of the family and a variable
    heavier than the weight cap."""
    return evaluate({((0, (index,)),): 1}, {0: s})


def constant(family, cap_weight, cap_aux, value):
    """The series equal to value."""
    return Series(family, cap_weight, cap_aux, {(0, ()): value})


def variable(family, index, cap_weight, cap_aux, coeff=1):
    """The series coeff * x_index; an index that is not a variable of the
    family is refused by ``Series``."""
    return Series(family, cap_weight, cap_aux, {(0, ((index, 1),)): coeff})


def series_exp(s):
    """exp of a series with zero constant term."""
    if s.constant_term():
        raise ValueError("exp needs zero constant term")
    acc = term = constant(s.family, s.cap_weight, s.cap_aux, 1)
    # each factor raises weight + aux by at least 1
    for k in range(1, s.cap_weight + s.cap_aux + 1):
        term = term * s * Rat(1, k)
        if term.is_zero():
            break
        acc = acc + term
    return acc


def series_inverse(s):
    """Multiplicative inverse; the constant term must be nonzero."""
    c0 = s.constant_term()
    if not c0:
        raise ValueError("inverse needs nonzero constant term")
    y = s / c0 - 1
    acc = term = constant(s.family, s.cap_weight, s.cap_aux, 1)
    for k in range(1, s.cap_weight + s.cap_aux + 1):
        term = term * y
        if term.is_zero():
            break
        acc = acc + term * (-1) ** k
    return acc / c0


def aux_slice(s, j):
    """Coefficient series of aux^j (the aux exponent is dropped)."""
    return _make(s.family, s.cap_weight, s.cap_aux,
                 {(0, vm): n for (aux, vm), n in s.num.items() if aux == j}, s.den)


def aux_shift(s, k):
    """Multiply by aux^k (k >= 0)."""
    if k < 0:
        raise ValueError("aux_shift needs k >= 0, got %d" % k)
    return _make(s.family, s.cap_weight, s.cap_aux,
                 {(aux + k, vm): n for (aux, vm), n in s.num.items()
                  if aux + k <= s.cap_aux}, s.den)


def aux_partial(s):
    """Formal derivative in the auxiliary variable."""
    return _make(s.family, s.cap_weight, s.cap_aux,
                 {(aux - 1, vm): aux * n for (aux, vm), n in s.num.items() if aux},
                 s.den)


def substitute(s, images, cap_weight=None, cap_aux=None):
    """Simultaneous substitution of finite series for the main variables of s.

    ``images`` maps variable indices to Series in s's family; any variable
    without an image must not occur, and the auxiliary variable is kept.  The
    result has the given caps, by default s's caps.  Every image must be free
    of constant terms (each image term has weight + aux >= 1); this is the
    triangularity that keeps the truncated computation finite and is checked
    up front.  Exactness on the retained range is the caller's
    responsibility: images must be supplied complete up to the target caps.
    """
    fam = s.family
    w = s.cap_weight if cap_weight is None else cap_weight
    a = s.cap_aux if cap_aux is None else cap_aux
    for i, img in images.items():
        if img.family != fam:
            raise ValueError("image of variable %d is in family %s, not %s"
                             % (i, img.family, fam))
        if (0, ()) in img.num:
            raise ValueError("image of variable %d has a constant term; "
                             "substitution grading is not triangular" % i)
    images = {i: _make(fam, w, a, {k: n for k, n in img.num.items()
                                   if k[0] <= a and vm_weight(fam, k[1]) <= w}, img.den)
              for i, img in images.items()}
    out = Series(fam, w, a)
    for (aux, vm), n in s.num.items():
        if aux > a:
            continue
        piece = _make(fam, w, a, {(aux, ()): n}, s.den)
        for i, e in vm:
            if i not in images:
                raise ValueError("no image for variable index %d" % i)
            for _ in range(e):
                piece = piece * images[i]
                if piece.is_zero():
                    break
            if piece.is_zero():
                break
        out = out + piece
    return out


def conjugate(p):
    """Transpose of the diagram of a Partition; an involution."""
    cols = [0] * (p.parts[0] if p.parts else 0)
    for part in p.parts:
        for j in range(part):
            cols[j] += 1
    return Partition(cols)


def contents_sum(p):
    """Sum of j - i over the boxes (row i, column j) of a Partition."""
    return sum(x * (x + 1) // 2 - i * x for i, x in enumerate(p.parts, start=1))


def top_compose(x, y, index_cap=None):
    """The composition x o y of two TOps, normal ordered exactly: each shared
    index contracts j times in every way, with Leibniz's C(q, j) r!/(r-j)!."""
    out = {}
    for (tp, qd), ca in x.terms.items():
        qcount = {i: qd.count(i) for i in set(qd)}
        for (tr, sd), cb in y.terms.items():
            rcount = {i: tr.count(i) for i in set(tr)}
            shared = [i for i in qcount if i in rcount]
            for combo in product(*[range(min(qcount[i], rcount[i]) + 1) for i in shared]):
                coeff = ca * cb
                newt, newd = list(tp + tr), list(sd + qd)
                for i, j in zip(shared, combo):
                    coeff *= comb(qcount[i], j) * factorial(rcount[i]) // factorial(rcount[i] - j)
                    for _ in range(j):
                        newt.remove(i)
                        newd.remove(i)
                if not coeff or (index_cap is not None
                                 and any(i > index_cap for i in newt + newd)):
                    continue
                key = (tuple(sorted(newt)), tuple(sorted(newd)))
                out[key] = out.get(key, Rat(0)) + coeff
    return TOp(out)


def zop_grade(z, k):
    """The z^k part of a ZOp."""
    return z.grades.get(k, TOp.zero())


def zop_scale(z, c):
    """c times a ZOp."""
    return ZOp({k: TOp({key: v * c for key, v in t.terms.items()}) for k, t in z.grades.items()})


def zop_compose(x, y, zcap, index_cap=None):
    """The composition x o y of two ZOps, through z^zcap."""
    out = {}
    for k1, a in x.grades.items():
        for k2, b in y.grades.items():
            if k1 + k2 <= zcap:
                t = top_compose(a, b, index_cap)
                if not t.is_zero():
                    out[k1 + k2] = out.get(k1 + k2, TOp.zero()) + t
    return ZOp(out)


def zop_exp(z, zcap, index_cap=None):
    """exp of a ZOp with no z^0 part."""
    if 0 in z.grades:
        raise ValueError("exp needs an operator with no z^0 part")
    acc = term = ZOp({0: TOp({((), ()): 1})})
    for n in range(1, zcap + 1):
        term = zop_scale(zop_compose(term, z, zcap, index_cap), Rat(1, n))
        if not term.grades:
            break
        acc = acc + term
    return acc


def series_log(s):
    """log of a series with constant term 1: sum_k (-1)^{k+1} (s - 1)^k / k."""
    if s.constant_term() != 1:
        raise ValueError("log needs constant term 1")
    x = s - 1
    acc = Series(s.family, s.cap_weight, s.cap_aux)
    term = constant(s.family, s.cap_weight, s.cap_aux, 1)
    for k in range(1, s.cap_weight + s.cap_aux + 1):
        term = term * x
        if term.is_zero():
            break
        acc = acc + term * F((-1) ** (k + 1), k)
    return acc


def _kept(s, terms, w, a):
    """The nonzero terms within caps (w, a), as Series.__init__ keeps them."""
    return ({k: c for k, c in terms.items()
             if c and k[0] <= a and vm_weight(s.family, k[1]) <= w}, w, a)


def fraction_mul(x, y):
    w = min(x.cap_weight, y.cap_weight)
    a = min(x.cap_aux, y.cap_aux)
    fam = x.family
    out = {}
    buckets = {}
    for (aux2, vm2), c2 in y.terms.items():
        w2 = vm_weight(fam, vm2)
        if w2 <= w:
            buckets.setdefault(w2, []).append((aux2, vm2, c2))
    weights = sorted(buckets)
    for (aux1, vm1), c1 in x.terms.items():
        w1 = vm_weight(fam, vm1)
        room = w - w1
        if room < 0:
            continue
        aroom = a - aux1
        for w2 in weights:
            if w2 > room:
                break
            for aux2, vm2, c2 in buckets[w2]:
                if aux2 > aroom:
                    continue
                key = (aux1 + aux2, vm_mul(vm1, vm2))
                prev = out.get(key)
                out[key] = c1 * c2 if prev is None else prev + c1 * c2
    return _kept(x, out, w, a)


def fraction_add(x, y):
    terms = dict(x.terms)
    for k, c in y.terms.items():
        terms[k] = terms.get(k, F(0)) + c
    return _kept(x, terms, min(x.cap_weight, y.cap_weight), min(x.cap_aux, y.cap_aux))


def fraction_scale(x, c):
    return _kept(x, {k: F(c) * v for k, v in x.terms.items()}, x.cap_weight, x.cap_aux)


def fraction_partial(x, index):
    out = {}
    for (aux, vm), c in x.terms.items():
        d = dict(vm)
        e = d.get(index)
        if not e:
            continue
        if e == 1:
            del d[index]
        else:
            d[index] = e - 1
        key = (aux, tuple(sorted(d.items())))
        out[key] = out.get(key, F(0)) + e * c
    return _kept(x, out, x.cap_weight - var_weight(x.family, index), x.cap_aux)


def _series(family, kept):
    """The Series of a ``fraction_*`` result (terms, cap_weight, cap_aux)."""
    terms, w, a = kept
    return Series(family, w, a, terms)


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


def _top(aux_exp, mono):
    """sum top(d_i) over a t-monomial: the aux exponent its factors lose
    from their largest sources p_{d_i + 1}."""
    return -sum(aux_exp(d + 1, d) * e for d, e in mono)


def expand_then_cancel(series, coeff, aux_exp, base):
    """Image of a family-P series under p_b -> sum_{d >= b-1} coeff(b, d)
    aux^{aux_exp(b, d)} t_d, beta -> aux^base, kept on its exact staircase.

    Each distinct p-monomial is expanded once and then shifted by base * m
    for every beta^m that carries it."""
    if series.family != FAMILY_P:
        raise ValueError("the change of variables needs a family-P series, "
                         "got family %s" % series.family)
    powers = {}
    for (m, vm), c in series.terms.items():
        powers.setdefault(vm, []).append((m, c))
    out = {}
    for vm, pairs in powers.items():
        bs = [b for b, e in vm for _ in range(e)]
        expansion = {}
        mono = {}

        def assign(idx, budget, cc, e):
            if idx == len(bs):
                key = (e, tuple(sorted(mono.items())))
                expansion[key] = expansion.get(key, 0) + cc
                return
            b = bs[idx]
            for d in range(b - 1, budget):
                mono[d] = mono.get(d, 0) + 1
                assign(idx + 1, budget - (d + 1), cc * coeff(b, d), e + aux_exp(b, d))
                mono[d] -= 1
                if not mono[d]:
                    del mono[d]

        assign(0, series.cap_weight, Rat(1), 0)
        for (e, tm), cc in expansion.items():
            # room left on the staircase once beta^m is shifted in
            room = base * series.cap_aux - e - _top(aux_exp, tm)
            for m, c in pairs:
                if base * m <= room:
                    key = (base * m + e, tm)
                    out[key] = out.get(key, 0) + c * cc
    return Laurent({k: v for k, v in out.items() if v}, series.cap_weight, series.cap_aux,
                   base, aux_exp)


def evaluate_by_series(poly, fs):
    """sum c * prod_r d^{eta_r} fs[s_r] in Series sums, with products and
    derivatives by ``fraction_mul`` and ``fraction_partial``: each d^eta F is
    one partial of d^{eta[:-1]} F at full caps, keys that differ only in their
    last factor share one product of the rest, and the caps of the result
    are the least over the first series of fs and every factor."""
    some = next(iter(fs.values()))
    table = {}

    def derivative(s, eta):
        got = table.get((s, eta))
        if got is None:
            got = (_series(some.family, fraction_partial(derivative(s, eta[:-1]), eta[-1]))
                   if eta else fs[s])
            table[(s, eta)] = got
        return got

    buckets = {}
    for key, c in poly.items():
        buckets.setdefault(key[:-1], []).append((c, key[-1:]))
    out = Series(some.family, some.cap_weight, some.cap_aux)
    for prefix, lasts in buckets.items():
        piece = Series(some.family, some.cap_weight, some.cap_aux)
        for c, last in lasts:
            piece = piece + (derivative(*last[0]) * c if last else c)
        for s, eta in prefix:
            piece = _series(some.family, fraction_mul(piece, derivative(s, eta)))
        out = out + piece
    return out


def bump(mono, d, by=1):
    """The t-monomial {d: e} with the exponent of t_d raised by `by`; None
    below zero."""
    out = dict(mono)
    out[d] = out.get(d, 0) + by
    if out[d] == 0:
        del out[d]
    elif out[d] < 0:
        return None
    return out


def lowered(F, mono):
    """Coefficient of the monomial in sum_{d >= 1} t_d dF/dt_{d-1}."""
    acc = Rat(0)
    for d in mono:
        if d >= 1:
            stripped = bump(mono, d, -1)
            acc += (stripped.get(d - 1, 0) + 1) * F.coeff(0, bump(stripped, d - 1))
    return acc


def string_check_by_coeff(F, source=STRING_SOURCE_PIC):
    """``pic.string_check`` one t-monomial of weight <= W - 1 at a time."""
    W = F.cap_weight
    source = source or {}
    for mono in _monomials_up_to_weight(W - 1):
        e0 = mono.get(0, 0)
        lhs = (e0 + 1) * F.coeff(0, bump(mono, 0))
        rhs = source.get(tuple(sorted(mono.items())), Rat(0)) + lowered(F, mono)
        if lhs != rhs:
            return False
    return True


def dilaton_check_by_coeff(F):
    """``pic.dilaton_check`` one t-monomial of weight <= W - 2 at a time."""
    W = F.cap_weight
    for mono in _monomials_up_to_weight(W - 2):
        e1 = mono.get(1, 0)
        lhs = (e1 + 1) * F.coeff(0, bump(mono, 1))
        weight = sum((d + 1) * e for d, e in mono.items())
        rhs = Rat(weight, 2) * F.coeff(0, mono) - Rat(1, 2) * F.coeff(0, mono)
        if lhs != rhs:
            return False
    return True


def term_by_term(poly, fs):
    """sum c * prod d^eta fs[s], each factor its own chain of
    ``fraction_partial``, multiplied in by ``fraction_mul``."""
    some = next(iter(fs.values()))
    out = Series(some.family, some.cap_weight, some.cap_aux)
    for key, c in poly.items():
        piece = constant(some.family, some.cap_weight, some.cap_aux, c)
        for s, eta in key:
            factor = fs[s]
            for i in eta:
                factor = _series(some.family, fraction_partial(factor, i))
            piece = _series(some.family, fraction_mul(piece, factor))
        out = out + piece
    return out


@lru_cache(maxsize=None)
def a_alternating(d, k):
    """Coefficient of psi^{d+k} in sum_b (-1)^{d-b+1} / ((d-b+1)! (b-1)!)
    * 1/(1 - b psi), summed as Fractions."""
    acc = F(0)
    for b in range(1, d + 2):
        acc += F((-1) ** (d - b + 1) * b ** (d + k),
                 factorial(d - b + 1) * factorial(b - 1))
    return acc


def apply_L_by_substitution(k, f):
    """``hodge.apply_L`` through ``substitute``: the images of t_m are
    Series in z = aux, multiplied out term by term in Series products, and
    the z^k slice is kept."""
    w = f.cap_weight - k
    if w < 0 or any(aux for aux, _ in f.num):
        raise ValueError("L_%d does not apply to %r" % (k, f))
    images = {m: Series.from_terms(f.family, w, k, [(j, ((m - j, 1),), a_coeff(m - j, j))
                                                     for j in range(min(m, k) + 1)])
              for m in range(f.cap_weight)}
    image = substitute(f, images, cap_weight=w, cap_aux=k)
    return _make(f.family, w, f.cap_aux,
                 {(0, vm): n for (aux, vm), n in image.num.items() if aux == k}, image.den)


def L_grade_per_tuple(k, index_cap):
    """z^k part of L: over ordered compositions (k_1..k_r) of k and index
    tuples (n_1..n_r), (1/r!) prod a(n_i, k_i) t_{n_i} d/dt_{n_i + k_i}."""
    terms = {}
    compositions = [c for r in range(1, k + 1) for c in product(range(1, k + 1), repeat=r)
                    if sum(c) == k]
    for compn in compositions:
        for ns in product(range(index_cap + 1), repeat=len(compn)):
            if any(n + ki > index_cap for n, ki in zip(ns, compn)):
                continue
            coeff = F(1, factorial(len(compn)))
            for n, ki in zip(ns, compn):
                coeff *= a_alternating(n, ki)
            key = (tuple(sorted(ns)), tuple(sorted(n + ki for n, ki in zip(ns, compn))))
            terms[key] = terms.get(key, F(0)) + coeff
    return TOp(terms)


def _compositions(k):
    if k == 0:
        return [()]
    return [(first,) + rest for first in range(1, k + 1)
            for rest in _compositions(k - first)]


@lru_cache(maxsize=None)
def build_L_grade(k, index_cap):
    """z^k part of L: sum over ordered compositions (k_1..k_r) of k of
    (1/r!) prod a_{n_i, n_i+k_i} t_{n_1}..t_{n_r} d/dt_{n_1+k_1}..d/dt_{n_r+k_r}.
    The products are summed as integers per key and divided by r! once."""
    a = {(n, j): int(a_coeff(n, j)) for j in range(1, k + 1)
         for n in range(index_cap - j + 1)}
    terms = {}
    for compn in _compositions(k) if k else []:
        sums = {}
        for ns in product(*[range(index_cap - ki + 1) for ki in compn]):
            coeff = 1
            for n, ki in zip(ns, compn):
                coeff *= a[n, ki]
            key = (tuple(sorted(ns)), tuple(sorted(n + ki for n, ki in zip(ns, compn))))
            sums[key] = sums.get(key, 0) + coeff
        for key, c in sums.items():
            terms[key] = terms.get(key, F(0)) + F(c, factorial(len(compn)))
    return TOp(terms)


def l_operator(m):
    """The first-order operator sum c z^(j-i) t_i d/dt_j of a matrix {(i, j): c}."""
    grades = {}
    for (i, j), c in m.items():
        grades.setdefault(j - i, {})[((i,), (j,))] = c
    return ZOp({k: TOp(terms) for k, terms in grades.items()})


def exp_l_operator_route(zmax, index_cap):
    """exp(l), summed in the normal-ordered operator algebra, reproduces every
    coefficient of L through z^zmax on terms with all indices within the cap."""
    expl = zop_exp(l_operator(solve_l(zmax, index_cap)), zmax, index_cap)
    for k in range(zmax + 1):
        want = TOp({((), ()): 1}) if k == 0 else build_L_grade(k, index_cap)
        if zop_grade(expl, k) != want:
            return False
    return True


def full_rescan(solver):
    """Run a fresh ModuliPDESolver with each sweep re-evaluating the equation
    at every monomial, until a whole sweep solves nothing."""
    entries = [_work_entry(mono) for mono in _monomials_up_to_weight(solver.weight_cap)]
    for phase in range(solver.kmax + 1):
        terms = _equation_terms(conjugated_equation(2, 2, phase))
        progress = True
        while progress:
            progress = False
            for entry in entries:
                aff = solver.equation_affine(terms, entry)
                if aff is None:
                    continue
                const = aff.pop(None, 0)
                if len(aff) == 1:
                    (prim, coeff), = aff.items()
                    solver.solved[prim] = -const / coeff
                    progress = True
                elif not aff and const:
                    raise ValueError("inconsistent equation at %r" % (entry[0],))
    return solver


def set_partitions(items):
    """All set partitions of a list (positions distinct)."""
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for part in set_partitions(rest):
        for k in range(len(part)):
            yield part[:k] + [part[k] + [first]] + part[k + 1:]
        yield [[first]] + part


def bell_poly_by_set_partitions(dp):
    """``hierarchy.bell_poly`` with one step per set partition."""
    out = {}
    for mono, c in dp.items():
        for part in set_partitions(list(mono)):
            key = tuple(sorted(tuple(sorted(block)) for block in part))
            out[key] = out.get(key, 0) + c
    return {k: v for k, v in out.items() if v}


def lagrange_fit_1d(points):
    """Exact polynomial through (x, y) points, as a coefficient list."""
    n = len(points)
    coeffs = [Rat(0)] * n
    for i, (xi, yi) in enumerate(points):
        basis = [Rat(1)]
        denom = Rat(1)
        for j, (xj, _) in enumerate(points):
            if i == j:
                continue
            denom *= xi - xj
            basis = _poly_mul_linear(basis, -xj)
        for k, c in enumerate(basis):
            coeffs[k] += yi * c / denom
    while coeffs and not coeffs[-1]:
        coeffs.pop()
    return coeffs


def fit_1d(points):
    """Exact polynomial through (x, y) points with distinct x, as a coefficient
    list: Newton's divided differences, expanded by Horner's rule."""
    xs = [x for x, _ in points]
    c = [y for _, y in points]
    for j in range(1, len(c)):
        for i in range(len(c) - 1, j - 1, -1):
            c[i] = (c[i] - c[i - 1]) / (xs[i] - xs[i - j])
    coeffs = []
    for x, ck in zip(reversed(xs), reversed(c)):  # coeffs * (X - x) + ck
        coeffs = [a - x * b for a, b in zip([ck] + coeffs, coeffs + [0])]
    while coeffs and not coeffs[-1]:
        coeffs.pop()
    return coeffs


def tensor_fit(axes, value):
    """Exact polynomial through value(point) on the grid axes[0] x axes[1]
    x ..., by 1-d interpolation along each axis in turn (``fit_1d``);
    returns {exponent tuple: coeff} without zero coefficients."""
    def fit_rec(prefix):
        if len(prefix) == len(axes):
            return {(): value(prefix)}
        per_x = [(Rat(x), fit_rec(prefix + (x,))) for x in axes[len(prefix)]]
        keys = set()
        for _, sub in per_x:
            keys.update(sub)
        out = {}
        for key in keys:
            pts = [(x, sub.get(key, Rat(0))) for x, sub in per_x]
            for e, c in enumerate(fit_1d(pts)):
                if c:
                    out[(e,) + key] = c
        return out
    return fit_rec(())


def tensor_eval(coeffs, point):
    """Evaluate a ``tensor_fit`` result at a point."""
    acc = Rat(0)
    for exps, c in coeffs.items():
        term = c
        for x, e in zip(point, exps):
            term *= Rat(x) ** e
        acc += term
    return acc


def elsv_scaled_value(g, bs):
    """h_{g;b} / (m! prod b_i^{b_i}/b_i!), the polynomial part of the count,
    from one single-profile ``hurwitz_frobenius`` query."""
    q = HurwitzQuery(SIMPLE, g, bs)
    h = hurwitz_frobenius(q)
    scale = Rat(factorial(q.branch_points))
    for b in bs:
        scale *= Rat(b ** b, factorial(b))
    return h / scale


def hodge_by_tensor_grid(g, n):
    """``hodge.hurwitz_to_hodge`` on the tensor grid b_i in 1..dim + 1,
    dim = 3g - 3 + n, per-variable degree dim, with the point
    (dim + 2, ..., dim + 2) held out and verified."""
    dim = 3 * g - 3 + n
    B = dim + 1
    coeffs = tensor_fit([range(1, B + 1)] * n, lambda bs: elsv_scaled_value(g, bs))
    table = {}
    for exps, c in coeffs.items():
        k = dim - sum(exps)
        if k < 0 or k > g:
            raise ValueError("off-grading coefficient at %r: %r" % (exps, c))
        key = (k, tuple(sorted(exps)))
        value = c * Rat((-1) ** k)
        if table.setdefault(key, value) != value:
            raise ValueError("asymmetric solve at %r" % (key,))
    probe = tuple([B + 1] * n)
    if tensor_eval(coeffs, probe) != elsv_scaled_value(g, probe):
        raise ValueError("held-out grid point failed")
    return table


def _poly_mul_linear(coeffs, const):
    out = [Rat(0)] * (len(coeffs) + 1)
    for k, c in enumerate(coeffs):
        out[k] += c * const
        out[k + 1] += c
    return out


def kp_residual_exp(i, j, F):
    """KP_{i,j}(F) = Hir_{i,j}(e^F) * e^{-2F}.  F must have zero constant term."""
    if F.constant_term():
        raise ValueError("KP residual needs zero constant term")
    return hirota_residual(i, j, series_exp(F)) * series_exp(F * Rat(-2))


@lru_cache(maxsize=None)
def mn_character(mu, nu):
    """chi_mu(nu) for part tuples mu, nu of one size: strip a rim hook of
    length nu[0] off mu in every way, on beta-sets, with the sign of its
    height, and recur on the rest of nu."""
    if not nu:
        return 1
    strip = nu[0]
    rest = nu[1:]
    k = len(mu)
    betas = [mu[i] + (k - 1 - i) for i in range(k)]
    bset = set(betas)
    total = 0
    for b in betas:
        nb = b - strip
        if nb < 0 or nb in bset:
            continue
        height = sum(1 for x in betas if nb < x < b)
        newbetas = sorted((x for x in betas if x != b), reverse=True)
        # insert nb keeping decreasing order, then convert back to parts
        newbetas.append(nb)
        newbetas.sort(reverse=True)
        newmu = tuple(x - (k - 1 - i) for i, x in enumerate(newbetas))
        newmu = tuple(x for x in newmu if x > 0)
        total += (-1) ** height * mn_character(newmu, rest)
    return total


def hook_length_dimension(mu):
    """dim(mu) = |mu|! / prod of the hook lengths."""
    conj = conjugate(mu).parts
    hooks = prod((p - j) + (conj[j] - i) - 1 for i, p in enumerate(mu.parts) for j in range(p))
    return factorial(mu.size) // hooks


@lru_cache(maxsize=None)
def connected_simple_rows(vm, J):
    """The Z and H rows of ``hurwitz._connected_rows`` at every j <= J,
    without the K! / k! scaling of its slots: one character per (lambda, s)
    and one binomial per pair of entries."""
    values, mults = zip(*vm)
    size = sum(b * c for b, c in vm)
    n = sum(mults)
    excess = size - n
    mu = tuple(b for b, c in reversed(vm) for _ in range(c))
    Z = [0] * (J + 1)
    for la in partitions_of(size):
        if c := mn_character(la.parts, mu):
            f2 = int(2 * cut_and_join_eigenvalue(la))
            c *= hook_length_dimension(la) * f2 ** excess
            for j in range(J + 1):
                Z[j] += c
                c *= f2
    H = [n * z for z in Z]
    # sub-multisets t as exponent vectors against the multiplicities of s
    for t in product(*[range(c + 1) for c in mults]):
        nt = sum(t)
        if not 0 < nt < n:
            continue
        tsize = sum(b * x for b, x in zip(values, t))
        Ht = connected_simple_rows(tuple((b, x) for b, x in zip(values, t) if x), J)[1]
        Zu = connected_simple_rows(tuple((b, c - x) for b, c, x in zip(values, mults, t)
                                         if c > x), J)[0]
        w = nt * comb(size, tsize) * prod(map(comb, mults, t))
        shift = tsize - nt
        for j1, h in enumerate(Ht):
            if h:
                h *= w
                for j2 in range(J + 1 - j1):
                    H[j1 + j2] -= comb(excess + j1 + j2, shift + j1) * h * Zu[j2]
    return tuple(Z), tuple(v // n for v in H)


def connected_simple_series(cap_weight, cap_aux):
    """``hurwitz.h_simple_series`` from the rows of ``connected_simple_rows``
    at J = cap_aux."""
    terms = {}
    for la in partitions_upto(cap_weight)[1:]:
        excess, vm = la.size - len(la), tuple(sorted(la.multiplicities().items()))
        row = connected_simple_rows(vm, cap_aux)[1] if excess <= cap_aux else ()
        for k, h in enumerate(row[:cap_aux + 1 - excess], start=excess):
            terms[k, vm] = Rat(h, factorial(la.size) * zee(la) * 2 ** k * factorial(k))
    return Series(FAMILY_P, cap_weight, cap_aux, terms)


def h_unst_simple(cap_weight, cap_aux):
    """Unstable part (g = 0, n <= 2) of the simple H, closed form.

    One-point coefficients are beta^{b-1} b^{b-2}/b!, where b = 1 reads
    1^{-1}/1! = 1; two-point ones are
    beta^{b1+b2} b1^b1 b2^b2 / (2 (b1 + b2) b1! b2!) over ordered pairs.
    Every coefficient is an integer over den = 2 lcm(1..W) W!.
    """
    _check_caps("h_unst_simple", 0, cap_weight, cap_aux)
    W = cap_weight
    den = 2 * lcm(*range(1, W + 1)) * factorial(W)
    num = {(0, ((1, 1),)): den} if W else {}
    for b in range(2, W + 1):
        if b - 1 <= cap_aux:
            num[b - 1, ((b, 1),)] = b ** (b - 2) * (den // factorial(b))
    for b1 in range(1, W):
        for b2 in range(b1, W - b1 + 1):  # unordered, so b1 < b2 counts twice
            if b1 + b2 <= cap_aux:
                vm = ((b1, 2),) if b1 == b2 else ((b1, 1), (b2, 1))
                num[b1 + b2, vm] = (b1 ** b1 * b2 ** b2 * (1 + (b1 < b2))
                                    * (den // (2 * (b1 + b2) * factorial(b1) * factorial(b2))))
    return _make(FAMILY_P, W, cap_aux, num, den)


def sub_multiset_splits(vm):
    """[(t, s - t, l(t) C(|s|, |t|) prod_b C(mult_b(s), mult_b(t)))] for the
    nonempty proper sub-multisets t of s = vm."""
    subs = [((), (), 1, 0, 0)]  # t, s - t, prod_b C(.,.), l(t), |t| so far
    for b, c in vm:
        subs = [(t + ((b, x),) if x else t, u + ((b, c - x),) if x < c else u,
                 w * comb(c, x), nt + x, size + b * x)
                for t, u, w, nt, size in subs for x in range(c + 1)]
    total = subs[-1][4]  # the first entry is t = {}, the last t = s
    return [(t, u, nt * comb(total, size) * w) for t, u, w, nt, size in subs[1:-1]]


def monomial_splits_by_bucket(mono):
    """Every way to share the monomial mono = ((d, e), ...) between two
    factors, as (t, l(t), |t|, mono / t, l, |mono / t|), in the order of the
    exponent vectors of t, bucketed by (|t| - l(t)) % 3."""
    splits = [((), 0, 0, (), 0, 0)]
    for d, e in mono:
        splits = [(t + ((d, x),) if x else t, lt + x, st + d * x,
                   rest + ((d, e - x),) if x < e else rest, lr + e - x, sr + d * (e - x))
                  for t, lt, st, rest, lr, sr in splits for x in range(e + 1)]
    buckets = ([], [], [])
    for split in splits:
        buckets[(split[2] - split[1]) % 3].append(split)
    return buckets


class EntrywiseSolver(ModuliPDESolver):
    """``ModuliPDESolver`` reading every coefficient it meets: each one builds
    its reduction's argument and scales by the monomial's factorials, every
    term of the equation is read whatever its bucket, and every split of the
    monomial is read for both factors.  Of the work-list entry it reads only
    the monomial."""

    def _entry(self, k, eta, mono):
        form = _reduce(k, list(eta) + [d for d, e in mono.items() for _ in range(e)])
        if not form:
            return form
        return _accumulate({}, ((None, c * self.solved[p]) if p in self.solved else (p, c)
                                for p, c in form.items()), Rat(1, _mono_factorials(mono)))

    def equation_affine(self, terms, entry):
        mono = dict(entry[0])
        total = {}
        for key, c in chain(*terms[0], *terms[1]):
            if len(key) == 1:
                (slice_k, eta), = key
                _accumulate(total, self._entry(slice_k, eta, mono).items(), c)
            elif len(key) == 2:
                (k1, e1), (k2, e2) = key
                idx = sorted(mono)
                for takes in product(*[range(mono[d] + 1) for d in idx]):
                    a = self._entry(k1, e1, dict(zip(idx, takes)))
                    b = self._entry(k2, e2, {d: mono[d] - t for d, t in zip(idx, takes)})
                    if len(a) > (None in a):
                        if len(b) > (None in b):
                            return None
                        a, b = b, a
                    if a and b:  # a is a nonzero constant
                        _accumulate(total, b.items(), c * a[None])
            else:
                raise NotImplementedError("equations with 3+ factors")
        return total


# -- checks of stated identities ------------------------------------------------


def derivative_transform_pic(b):
    """d/dp_b = sum_{d<b} q^{d+1} (b-1)!/(b-d-1)! d/dt_d;
    returns [(d, q_exponent, coeff)]."""
    if b < 1:
        raise ValueError("p_b needs b >= 1, got %d" % b)
    return [(d, d + 1, Rat(factorial(b - 1), factorial(b - 1 - d)))
            for d in range(b)]


def derivative_inverse_check(nmax, derivative_transform, coeff):
    """The derivative transform is the exact inverse of the change of
    variables with the given coefficients: sum_d D[b][d] C[d][b'] =
    delta_{b b'} (the aux powers cancel).  The q-picture pairs
    derivative_transform_pic with pic.chvar_coeff, the u-picture
    hodge.derivative_transform_elsv with hodge.elsv_chvar_coeff."""
    for b in range(1, nmax + 1):
        for bp in range(1, nmax + 1):
            acc = Rat(0)
            for d, _, c in derivative_transform(b):
                acc += c * coeff(bp, d)
            if acc != (1 if b == bp else 0):
                return False
    return True


def power_monomial(nu):
    """The monomial p_nu as a family-P series."""
    return Series.from_terms(FAMILY_P, nu.size, 0, [(0, nu.multiplicities(), Rat(1))])


def hook_sum_identity_check(d):
    """True iff p_d = sum_{a+b+1=d} (-1)^b s_{hook(a,b)}."""
    if d < 1:
        raise ValueError("p_d needs d >= 1, got %d" % d)
    acc = Series(FAMILY_P, d, 0)
    for b in range(d):
        a = d - 1 - b
        acc = acc + schur_poly(hook(a, b)) * Rat((-1) ** b)
    return acc == power_monomial(Partition((d,)))


def is_hook(p):
    return len(p) >= 1 and all(x == 1 for x in p.parts[1:])


def hook_arm_leg(p):
    if not is_hook(p):
        raise ValueError("%r is not a hook" % (p,))
    return p.parts[0] - 1, len(p) - 1


def polynomiality_check(g, n, window, held_out):
    """Fit h_{g;b}/(m! d) on the window of b-tuples as a polynomial and
    verify exactly on held-out tuples.

    window and held_out are lists of b-tuples of length n; the window must
    be a full grid.  Returns (ok, coefficients): a coefficient list for
    n = 1, {exponent tuple: coeff} for n > 1.  Degree must stay below the
    window size per axis.  A malformed or empty window, or a held-out list
    that is empty or meets the window, verifies nothing: ValueError.
    """
    def value(b):
        q = HurwitzQuery(ONEPART, g, b)
        m = q.branch_points
        return hurwitz_frobenius(q) / (factorial(m) * q.degree)

    window, held_out = [tuple(b) for b in window], [tuple(b) for b in held_out]
    if any(len(b) != n for b in window + held_out):
        raise ValueError("every b-tuple needs length n = %d" % n)
    if not window or not held_out:
        raise ValueError("the window and the held-out list must be nonempty")
    axes = [sorted({b[i] for b in window}) for i in range(n)]
    if set(window) != set(product(*axes)):
        raise ValueError("the window is not a full grid")
    if set(held_out) & set(window):
        raise ValueError("a held-out point lies in the window")
    table = {b: value(b) for b in window}
    coeffs = tensor_fit(axes, table.__getitem__)
    ok = all(tensor_eval(coeffs, b) == value(b) for b in held_out)
    if n == 1:
        top = max((exps[0] for exps in coeffs), default=-1)
        coeffs = [coeffs.get((e,), Rat(0)) for e in range(top + 1)]
    return ok, coeffs
