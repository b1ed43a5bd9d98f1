"""Finite differential operators.

A polynomial in commuting symbols is a plain dict {sorted symbol tuple:
nonzero coeff}.  The symbols are derivative indices i (the d_i of weight i:
D_mu, a constant-coefficient operator on series), derivative monomials m
(sorted index tuples standing for d^m of a series: the Hirota, KP and LKP
forms of ``hierarchy``, and ``hodge``'s equations, which key them with a
grade).

``expand`` is the one routine that multiplies out a symbol substitution,
sum c * prod over factors of a sum of graded symbol tuples, for a whole
polynomial in one call: every product of the Hirota and KP forms, the
binomial change of derivative variables, and in ``hodge`` the transformed
KP equation, its conjugation, the displayed KdV equations and the operator
L (``apply_L``).  ``_accumulate`` is the one linear combination.

``evaluate`` is the one evaluator of polynomials in partial derivatives of
one or more series: every Hirota, KP, LKP, KdV and conjugated residual goes
through it, and so does ``Series.__mul__``: no other library code multiplies
or differentiates series.  It fixes the residual's caps first, then runs
every derivative, product and sum in one pass over packed integer monomials
cut to those caps (slot bound in its docstring), and builds one Series.

``TOp`` is a normal-ordered operator sum c * t-monomial * derivative-monomial
in the t variables, and ``ZOp`` its z-graded sums.  The library calls
neither; they stay because the benchmark harness (``perfbench/wrap.py``)
wraps both by name.  Their scaling, composition and exponential, which only
the operator-algebra test oracle of exp(l) = L runs, live with that oracle.
"""

from __future__ import annotations

from math import lcm, prod

from .series import Rat, _check_family, _check_vm, _make, _ratio, var_weight


def expand(terms, image, cap=None):
    """sum c * prod_f sum image(f) over terms (grade, factors, c): {(grade, key): coeff}.

    image(f) lists (grade, symbols, coeff) and is called once per factor of each
    term.  A term's product starts at its grade, grades add and a grade above cap
    is dropped; the key is the sorted concatenation of the chosen symbol tuples.
    Each product is taken in the images' own coefficients (integer images give
    integers) and scaled by c once per key; zero sums drop out."""
    out = {}
    for g0, factors, c in terms:
        acc = {(g0, ()): 1} if cap is None or g0 <= cap else {}
        for f in factors:
            step, images = {}, image(f)
            for (ga, key0), ca in acc.items():
                for g, syms, ci in images:
                    if cap is None or ga + g <= cap:
                        key = (ga + g, tuple(sorted(key0 + syms)))
                        step[key] = step.get(key, 0) + ca * ci
            acc = step
        for key, v in acc.items():
            out[key] = out.get(key, 0) + c * v
    return {key: v for key, v in out.items() if v}


def _accumulate(acc, items, scale):
    """acc += scale * items for {key: coeff} items, dropping the coefficients
    that become zero; returns acc.  The one linear combination of polynomials
    (and of the affine forms of ``hodge``'s PDE route)."""
    for key, c in items:
        v = acc.get(key, 0) + scale * c
        if v:
            acc[key] = v
        else:
            acc.pop(key, None)
    return acc


def evaluate(poly, fs):
    """sum c * prod_r d^{eta_r} fs[s_r] for poly {((s_1, eta_1), ...): c}.

    Each eta is a sorted index tuple and fs maps each slice s to a Series of
    one family.  The caps come first: weight W is the least of the first
    series' cap and every factor's cap_weight - weight(eta), and aux A the
    least cap_aux, both found by arithmetic on the caps.  A derivative in
    an index that is not a variable of the family, or heavier than the
    weight cap the derivatives before it leave, is refused before any work.
    Then one pass in packed integers:

    * a monomial aux^a prod x_i^{e_i} of weight w is the int
      a + sum e_i << (bits * weight(x_i)) + w << (bits * (W + H + 1)), where
      H is the heaviest derivative weight.  No slot ever holds more than
      max(W + H, A), so bits = that.bit_length() cannot carry: a product is
      formed only for w1 + w2 <= W and a1 + a2 <= A, and a derivative only
      lowers a slot that is >= 1;
    * d^eta fs[s] is one partial of d^{eta[:-1]} fs[s], computed once per
      call and kept to weight W + H, enough for every eta it leads to;
    * numerators are integers over one denominator, the lcm of every key's
      c.denominator times its factors' denominators, so each key's
      coefficient is an integer multiple of its product.

    Keys that differ only in their last factor share one product of the
    rest.  A product takes the left terms in order, each against the right
    terms by increasing weight, and a sum appends new keys in order, so the
    result stores its terms in the order of the products and sums taken one
    at a time.  ``Series.__mul__`` is this function on one product."""
    if not fs:
        raise ValueError("evaluate needs at least one series")
    some = next(iter(fs.values()))
    fam = some.family
    off = var_weight(fam, 0)  # the weight of variable i is i + off
    W, A, H, den = some.cap_weight, some.cap_aux, 0, 1
    for key, c in poly.items():
        for s, eta in key:
            f, w = fs[s], 0
            _check_family(some, f)
            for i in eta:
                _check_vm(fam, ((i, 1),))
                if i + off > f.cap_weight - w:
                    raise ValueError("d/d(variable %d) of weight %d exceeds the remaining "
                                     "weight cap %d" % (i, i + off, f.cap_weight - w))
                w += i + off
            W, A, H = min(W, f.cap_weight - w), min(A, f.cap_aux), max(H, w)
        den = lcm(den, _ratio(c)[1] * prod(fs[s].den for s, _ in key))
    bits = max(W + H, A).bit_length()
    mask = (1 << bits) - 1
    shw = bits * (W + H + 1)
    top = (W + 1) << shw  # k < top iff the weight of k is <= W
    cap = (W + H + 1) << shw  # k < cap iff the weight of k is <= W + H
    table = {}

    def derivative(s, eta):
        got = table.get((s, eta))
        if got is None:
            got = {}
            if eta:
                wv = eta[-1] + off
                sh = bits * wv
                step = (1 << sh) + (wv << shw)
                for k, n in derivative(s, eta[:-1]).items():
                    e = (k >> sh) & mask
                    if e and k - step < cap:
                        got[k - step] = e * n
            else:
                for (a, vm), n in fs[s].num.items():
                    k, w = a, 0
                    for i, e in vm:
                        w += (i + off) * e
                        k += e << (bits * (i + off))
                    k += w << shw
                    if a <= A and k < cap:
                        got[k] = n
            table[s, eta] = got
        return got

    def times(piece, s, eta):
        """piece * d^eta fs[s] within (W, A): piece's terms in order, each
        against the factor's by increasing weight."""
        right = sorted(derivative(s, eta).items(), key=lambda kn: kn[0] >> shw)
        out = {}
        for k1, n1 in piece.items():
            room = top - (k1 >> shw << shw)
            aroom = A - (k1 & mask)
            for k2, n2 in right:
                if k2 >= room:
                    break
                if k2 & mask <= aroom:
                    out[k1 + k2] = out.get(k1 + k2, 0) + n1 * n2
        return {k: n for k, n in out.items() if n}

    def add(acc, terms, m):
        """acc += m * terms below the weight cap, dropping what cancels."""
        for k, n in terms:
            if k < top:
                v = acc.get(k, 0) + m * n
                if v:
                    acc[k] = v
                else:
                    del acc[k]

    buckets = {}
    for key, c in poly.items():
        p, q = _ratio(c)
        if p:
            m = p * den // (q * prod(fs[s].den for s, _ in key))
            buckets.setdefault(key[:-1], []).append((m, key[-1:]))
    out = {}
    for prefix, lasts in buckets.items():
        piece = {}
        for m, last in lasts:
            add(piece, derivative(*last[0]).items() if last else ((0, 1),), m)
        for s, eta in prefix:
            if not piece:
                break
            piece = times(piece, s, eta)
        add(out, piece.items(), 1)
    slots = [(bits * j, j - off) for j in range(1, W + 1)]
    return _make(fam, W, A, {(k & mask, tuple((i, (k >> sh) & mask) for sh, i in slots
                                             if (k >> sh) & mask)): n
                             for k, n in out.items()}, den)


# -- normal-ordered t-variable operators --------------------------------------


class TOp:
    """sum c * (prod t_j) * (prod d/dt_i), keys = (tmono, dmono) tuples."""

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        clean = {}
        for (tm, dm), c in (terms or {}).items():
            c = Rat(c)
            if not c:
                continue
            key = (tuple(sorted(tm)), tuple(sorted(dm)))
            clean[key] = clean.get(key, Rat(0)) + c
        self.terms = {k: v for k, v in clean.items() if v}

    @classmethod
    def zero(cls):
        return cls()

    def __add__(self, other):
        out = dict(self.terms)
        for k, v in other.terms.items():
            out[k] = out.get(k, Rat(0)) + v
        return TOp(out)

    def __eq__(self, other):
        return isinstance(other, TOp) and self.terms == other.terms

    def __repr__(self):
        return "TOp(%d terms)" % len(self.terms)

    def is_zero(self):
        return not self.terms


class ZOp:
    """z-graded operator: {z_order: TOp}, order >= 0."""

    __slots__ = ("grades",)

    def __init__(self, grades=None):
        self.grades = {k: v for k, v in (grades or {}).items()
                       if isinstance(v, TOp) and not v.is_zero()}

    def __add__(self, other):
        out = dict(self.grades)
        for k, v in other.grades.items():
            out[k] = out.get(k, TOp.zero()) + v
        return ZOp(out)
