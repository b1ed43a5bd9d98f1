"""Finite differential operators.

``expand`` is the one routine that multiplies out a symbol substitution:
the product over factors of a sum of graded symbol tuples.  DPoly products,
the binomial change of derivative variables, the canonical pairs of a
bilinear form and FPoly products in ``hierarchy`` call it, and so do the
transformed KP equation, its conjugation and the displayed KdV equations in
``hodge``.

``evaluate`` is the one evaluator of polynomials in partial derivatives of
one or more series: every Hirota, KP, LKP, KdV and conjugated residual goes
through it.  Within a call it computes each derivative d^eta F once, as one
partial derivative of d^{eta[:-1]} F, and drops that table on return.

Two flavors of operator are used:

* ``DPoly``: a polynomial with rational coefficients in commuting derivative
  symbols d_1, d_2, ... (weight(d_i) = i).  Viewed as a constant-coefficient
  operator it acts on series by iterated partial derivatives; viewed as a
  polynomial it supports the corner-bite calculus (the S operator).

* ``TOp``: a normal-ordered operator sum c * t-monomial * derivative-monomial
  in the t variables, with exact composition (contractions via Leibniz), and
  ``ZOp``, its z-graded sums, with an exponential.  The library calls neither;
  they stay because the benchmark harness (``perfbench/wrap.py``) wraps both
  by name, and the operator-algebra test oracle of exp(l) = L builds on them.
"""

from __future__ import annotations

from itertools import product
from math import comb

from .series import Series, Rat


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

    Each eta is a sorted index tuple and fs maps each slice s to a Series.
    Keys that differ only in their last factor share one product of the rest.
    The caps of the result are the least over the first series of fs and
    every factor; a derivative heavier than its remaining cap is refused by
    ``Series.partial``."""
    some = next(iter(fs.values()))
    table = {}

    def derivative(s, eta):
        got = table.get((s, eta))
        if got is None:
            got = derivative(s, eta[:-1]).partial(eta[-1]) if eta else fs[s]
            table[(s, eta)] = got
        return got

    buckets = {}
    for key, c in poly.items():
        buckets.setdefault(key[:-1], []).append((c, key[-1:]))
    out = Series.zero(some.family, some.cap_weight, some.cap_aux)
    for prefix, lasts in buckets.items():
        piece = Series.zero(some.family, some.cap_weight, some.cap_aux)
        for c, last in lasts:
            piece = piece + (derivative(*last[0]) * c if last else c)
        for s, eta in prefix:
            piece = piece * derivative(s, eta)
        out = out + piece
    return out


class DPoly:
    """Polynomial in derivative symbols d_i; keys are sorted index tuples."""

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        clean = {}
        for mono, c in (terms or {}).items():
            c = Rat(c)
            if c:
                clean[tuple(sorted(mono))] = clean.get(tuple(sorted(mono)), Rat(0)) + c
        self.terms = {k: v for k, v in clean.items() if v}

    @classmethod
    def d(cls, i):
        return cls({(i,): Rat(1)})

    def __add__(self, other):
        out = dict(self.terms)
        for k, v in other.terms.items():
            out[k] = out.get(k, Rat(0)) + v
        return DPoly(out)

    def __sub__(self, other):
        return self + (other * Rat(-1))

    def __mul__(self, other):
        if isinstance(other, DPoly):
            return DPoly({mono: c for (_, mono), c in expand(
                (self, other), lambda p: [(0, m, k) for m, k in p.terms.items()]).items()})
        c = Rat(other)
        return DPoly({k: v * c for k, v in self.terms.items()})

    __rmul__ = __mul__

    def __eq__(self, other):
        return isinstance(other, DPoly) and self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def __repr__(self):
        if not self.terms:
            return "DPoly(0)"
        bits = []
        for mono, c in sorted(self.terms.items()):
            name = "*".join("d%d" % i for i in mono) if mono else "1"
            bits.append("%s*%s" % (c, name))
        return "DPoly(%s)" % " + ".join(bits)

    def is_zero(self):
        return not self.terms

    def apply(self, series):
        return evaluate({((0, mono),): c for mono, c in self.terms.items()},
                        {0: series})

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


class BForm:
    """Bilinear combination sum_r c_r (A_r tau) (B_r tau)."""

    __slots__ = ("parts",)

    def __init__(self, parts):
        self.parts = [(Rat(c), a, b) for c, a, b in parts]

    def __add__(self, other):
        return BForm(self.parts + other.parts)

    def scale(self, c):
        c = Rat(c)
        return BForm([(c * k, a, b) for k, a, b in self.parts])

    def apply(self, tau):
        return evaluate({((0, m1), (0, m2)): c
                         for (m1, m2), c in self.canonical_pairs().items()},
                        {0: tau})

    def canonical_pairs(self):
        """Unordered expansion dict {(mono_min, mono_max): coeff}."""
        out = {}
        for c, a, b in self.parts:
            for (_, key), v in expand((a, b), lambda p: [(0, (mono,), k) for mono, k
                                                         in p.terms.items()]).items():
                out[key] = out.get(key, Rat(0)) + c * v
        return {k: v for k, v in out.items() if v}

    def s_tensor(self):
        """(S (x) 1 + 1 (x) S) applied to the form."""
        return BForm([(c, a.s_action(), b) for c, a, b in self.parts]
                     + [(c, a, b.s_action()) for c, a, b in self.parts])

    def d1_derivative(self):
        """Derivative of the expression in p_1 (product rule)."""
        d1 = DPoly.d(1)
        return BForm([(c, d1 * a, b) for c, a, b in self.parts]
                     + [(c, a, d1 * b) for c, a, b in self.parts])

    def equals(self, other):
        return self.canonical_pairs() == other.canonical_pairs()


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

    @classmethod
    def single(cls, tmono, dmono, c=1):
        return cls({(tuple(sorted(tmono)), tuple(sorted(dmono))): Rat(c)})

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

    def compose(self, other, index_cap=None):
        """Operator composition self o other, normal ordered exactly."""
        out = {}
        for (tp, qd), ca in self.terms.items():
            qcount = {}
            for x in qd:
                qcount[x] = qcount.get(x, 0) + 1
            for (tr, sd), cb in other.terms.items():
                rcount = {}
                for x in tr:
                    rcount[x] = rcount.get(x, 0) + 1
                shared = [x for x in qcount if x in rcount]
                # enumerate contraction multiplicities per shared index
                ranges = [range(min(qcount[x], rcount[x]) + 1) for x in shared]
                for combo in product(*ranges):
                    contraction = dict(zip(shared, combo))
                    coeff = ca * cb
                    for x, j in contraction.items():
                        q, r = qcount[x], rcount[x]
                        fall = 1
                        for t in range(j):
                            fall *= (r - t)
                        coeff *= comb(q, j) * fall
                    if not coeff:
                        continue
                    newt = list(tp)
                    for x in tr:
                        newt.append(x)
                    newd = list(sd)
                    for x in qd:
                        newd.append(x)
                    for x, j in contraction.items():
                        for _ in range(j):
                            newt.remove(x)
                            newd.remove(x)
                    if index_cap is not None and any(x > index_cap for x in newt + newd):
                        continue
                    key = (tuple(sorted(newt)), tuple(sorted(newd)))
                    out[key] = out.get(key, Rat(0)) + coeff
        return TOp(out)


class ZOp:
    """z-graded operator: {z_order: TOp}, order >= 0."""

    __slots__ = ("grades",)

    def __init__(self, grades=None):
        self.grades = {k: v for k, v in (grades or {}).items()
                       if isinstance(v, TOp) and not v.is_zero()}

    @classmethod
    def identity(cls):
        return cls({0: TOp.single((), (), 1)})

    def grade(self, k):
        return self.grades.get(k, TOp.zero())

    def __add__(self, other):
        out = dict(self.grades)
        for k, v in other.grades.items():
            out[k] = out.get(k, TOp.zero()) + v
        return ZOp(out)

    def scale(self, c):
        return ZOp({k: v.scale(c) for k, v in self.grades.items()})

    def compose(self, other, zcap, index_cap=None):
        out = {}
        for k1, a in self.grades.items():
            for k2, b in other.grades.items():
                if k1 + k2 > zcap:
                    continue
                t = a.compose(b, index_cap)
                if not t.is_zero():
                    out[k1 + k2] = out.get(k1 + k2, TOp.zero()) + t
        return ZOp(out)

    def exp(self, zcap, index_cap=None):
        """exp of an operator with no z^0 part."""
        if 0 in self.grades:
            raise ValueError("exp needs an operator with no z^0 part")
        acc = ZOp.identity()
        term = ZOp.identity()
        for n in range(1, zcap + 1):
            term = term.compose(self, zcap, index_cap).scale(Rat(1, n))
            if not term.grades:
                break
            acc = acc + term
        return acc
