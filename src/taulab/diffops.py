"""Finite differential operators.

``expand`` is the one routine that multiplies out a symbol substitution:
the product over factors of a sum of graded symbol tuples.  DPoly products
and the binomial change of derivative variables call it, and so do the
transformed KP equation, its conjugation and the displayed KdV equations in
``hodge``.

``evaluate`` is the one evaluator of polynomials in partial derivatives of
one or more series: every Hirota, KP, LKP, KdV and conjugated residual goes
through it.  It fixes the residual's caps first, then runs every derivative,
product and sum in one pass over packed integer monomials cut to those caps
(slot bound in its docstring), and builds one Series at the end.

Two flavors of operator are used:

* ``DPoly``: the one sparse polynomial with rational coefficients in
  commuting symbols, which are either
  - derivative indices i, the symbols d_i (weight i): the polynomial, D_mu
    for one, is then a constant-coefficient operator on series (``apply``),
    and the S operator of the corner-bite calculus acts on it; or
  - derivative monomials m, sorted index tuples that stand for d^m of a
    series (D^m tau in a Hirota form, d^m F in a KP form); ``lift`` makes
    each monomial of an operator one such symbol.

* ``TOp``: a normal-ordered operator sum c * t-monomial * derivative-monomial
  in the t variables, and ``ZOp``, its z-graded sums.  The library calls
  neither; they stay because the benchmark harness (``perfbench/wrap.py``)
  wraps both by name.  Their composition and exponential, which only the
  operator-algebra test oracle of exp(l) = L runs, live with that oracle.
"""

from __future__ import annotations

from math import comb, lcm, prod

from .series import Rat, _make, _ratio, var_weight


def expand(factors, image, cap=None):
    """Multiply out prod over factors f of sum image(f): {(grade, key): coeff}.

    image(f) lists (grade, symbols, coeff) and is called once per factor.
    Grades add and a grade above cap is dropped; the key is the sorted
    concatenation of the chosen symbol tuples; zero coefficients drop out."""
    acc = {(0, ()): Rat(1)}
    for f in factors:
        step = {}
        terms = image(f)
        for (g0, key0), c0 in acc.items():
            for g, syms, c in terms:
                if cap is not None and g0 + g > cap:
                    continue
                key = (g0 + g, tuple(sorted(key0 + syms)))
                step[key] = step.get(key, 0) + c0 * c
        acc = step
    return {key: c for key, c in acc.items() if c}


def evaluate(poly, fs):
    """sum c * prod_r d^{eta_r} fs[s_r] for poly {((s_1, eta_1), ...): c}.

    Each eta is a sorted index tuple and fs maps each slice s to a Series of
    one family.  The caps come first: weight W is the least of the first
    series' cap and every factor's cap_weight - weight(eta), and aux A the
    least cap_aux; a derivative heavier than its cap is refused by
    ``Series.partial`` before any work.  Then one pass in packed integers:

    * a monomial aux^a prod x_i^{e_i} of weight w is the int
      a + sum e_i << (bits * weight(x_i)) + w << (bits * (W + H + 1)), where
      H is the heaviest derivative weight.  No slot ever holds more than
      max(W + H, A), so bits = that.bit_length() cannot carry: a product is
      formed only for w1 + w2 <= W and a1 + a2 <= A, and a derivative only
      lowers a slot that is >= 1;
    * d^eta fs[s] is one partial of d^{eta[:-1]} fs[s], computed once per
      call and kept to weight W plus the most that the rest of any eta it
      leads to still takes off;
    * numerators are integers over one denominator, the lcm of every key's
      c.denominator times its factors' denominators, so each key's
      coefficient is an integer multiple of its product.

    Keys that differ only in their last factor share one product of the
    rest, and terms are summed and multiplied in the order of the Series
    arithmetic, so the result stores its terms in the same order as the
    sum of the Series products."""
    if not fs:
        raise ValueError("evaluate needs at least one series")
    some = next(iter(fs.values()))
    fam = some.family
    off = var_weight(fam, 0)  # the weight of variable i is i + off
    W, A, den = some.cap_weight, some.cap_aux, 1
    empty = {}  # (s, eta): the empty series at the caps of d^eta fs[s]

    def caps(s, eta):
        got = empty.get((s, eta))
        if got is None:
            if eta:
                got = caps(s, eta[:-1]).partial(eta[-1])
            else:
                some._check_family(fs[s])
                got = _make(fam, fs[s].cap_weight, fs[s].cap_aux, {}, 1)
            empty[s, eta] = got
        return got

    for key, c in poly.items():
        for s, eta in key:
            z = caps(s, eta)
            W, A = min(W, z.cap_weight), min(A, z.cap_aux)
        den = lcm(den, _ratio(c)[1] * prod(fs[s].den for s, _ in key))
    lost = {se: fs[se[0]].cap_weight - z.cap_weight for se, z in empty.items()}
    H = max(lost.values(), default=0)
    bits = max(W + H, A).bit_length()
    mask = (1 << bits) - 1
    shw = bits * (W + H + 1)
    top = (W + 1) << shw  # k < top iff the weight of k is <= W
    need = {}  # (s, eta): the weight to which d^eta fs[s] is kept
    for (s, eta), w in lost.items():
        for k in range(len(eta) + 1):
            # eta[k:] still takes w - lost[s, eta[:k]] off d^{eta[:k]} fs[s]
            need[s, eta[:k]] = max(need.get((s, eta[:k]), 0), W + w - lost[s, eta[:k]])
    table, rows = {}, {}

    def derivative(s, eta):
        got = table.get((s, eta))
        if got is None:
            cap = (need[s, eta] + 1) << shw
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
        """piece * d^eta fs[s] within (W, A), in ``Series.__mul__``'s order."""
        right = rows.get((s, eta))
        if right is None:
            right = rows[s, eta] = sorted(derivative(s, eta).items(),
                                          key=lambda kn: kn[0] >> shw)
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


def _evaluate_monomials(form, series):
    """``evaluate`` of a DPoly in derivative monomials m, each read as d^m series."""
    return evaluate({tuple((0, m) for m in key): c for key, c in form.terms.items()},
                    {0: series})


def _dpoly(terms):
    """The DPoly of normal terms: sorted keys, nonzero Fraction values."""
    p = object.__new__(DPoly)
    p.terms = terms
    return p


class DPoly:
    """Sparse polynomial: sorted symbol tuples -> nonzero Fractions (see above)."""

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        clean = {}
        for mono, c in (terms or {}).items():
            c = Rat(c)
            if c:
                key = tuple(sorted(mono))
                clean[key] = clean[key] + c if key in clean else c
        self.terms = {k: v for k, v in clean.items() if v}

    @classmethod
    def d(cls, i):
        return cls({(i,): Rat(1)})

    def lift(self):
        """sum c * [m]: each monomial m of this polynomial as one symbol."""
        return _dpoly({(mono,): c for mono, c in self.terms.items()})

    def __add__(self, other):
        out = dict(self.terms)
        for k, v in other.terms.items():
            out[k] = out[k] + v if k in out else v
        return _dpoly({k: v for k, v in out.items() if v})

    def __mul__(self, other):
        if isinstance(other, DPoly):
            return _dpoly({mono: c for (_, mono), c in expand(
                (self, other), lambda p: [(0, m, k) for m, k in p.terms.items()]).items()})
        c = Rat(other)
        return _dpoly({k: v * c for k, v in self.terms.items()} if c else {})

    __rmul__ = __mul__

    def __eq__(self, other):
        return isinstance(other, DPoly) and self.terms == other.terms

    def __repr__(self):
        if not self.terms:
            return "DPoly(0)"
        bits = []
        for mono, c in sorted(self.terms.items()):
            name = "*".join("d%d" % x if isinstance(x, int) else
                            "d(%s)" % ",".join(map(str, x)) for x in mono) or "1"
            bits.append("%s*%s" % (c, name))
        return "DPoly(%s)" % " + ".join(bits)

    def is_zero(self):
        return not self.terms

    def apply(self, series):
        """This operator, in index symbols, applied to series."""
        return _evaluate_monomials(self.lift(), series)

    def s_action(self):
        """S = sum_i i d_i d/dd_{i+1}, acting on the polynomial."""
        out = {}
        for mono, c in self.terms.items():
            seen = set()
            for x in mono:
                if x in seen or x < 2:
                    continue
                seen.add(x)
                e = mono.count(x)
                at = mono.index(x)
                new = tuple(sorted(mono[:at] + mono[at + 1:] + (x - 1,)))
                out[new] = out.get(new, Rat(0)) + c * e * (x - 1)
        return DPoly(out)

    def subst_binomial_q(self):
        """Substitute d_i -> sum_{k=1..i} C(i-1, k-1) q^k delta_k.

        Returns {(q_exponent, delta_monomial): coeff}; used to verify that
        this change of variables equals beta^{n/2} e^{S/sqrt(beta)} on
        quasihomogeneous polynomials.
        """
        out = {}
        for mono, c in self.terms.items():
            for key, v in expand(mono, lambda i: [(k, (k,), comb(i - 1, k - 1))
                                                  for k in range(1, i + 1)]).items():
                out[key] = out.get(key, Rat(0)) + c * v
        return {k: v for k, v in out.items() if v}


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

    def scale(self, c):
        c = Rat(c)
        return TOp({k: v * c for k, v in self.terms.items()})

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

    def scale(self, c):
        return ZOp({k: v.scale(c) for k, v in self.grades.items()})
