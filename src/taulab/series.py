"""Truncated sparse multivariate power series over exact rationals.

Every series lives in one of three variable families:

* ``P``:   auxiliary variable beta, main variables p_1, p_2, ... with
  weight(p_b) = b.
* ``T_Q``: auxiliary variable q (q^2 = beta), main variables t_0, t_1, ...
  with weight(t_d) = d + 1.
* ``T_U``: auxiliary variable u (u^3 = beta, z = u^2), main variables
  t_0, t_1, ... with weight(t_d) = d + 1.

A monomial is stored as ``(aux_exponent, ((index, exponent), ...))`` with the
variable pairs sorted by index and all exponents positive; ``Series`` refuses
any other key, and caps that are not integers >= 0.  Truncation is
eager: a series never stores a term whose weight exceeds ``cap_weight`` or
whose auxiliary exponent exceeds ``cap_aux``, and never stores a zero
coefficient.  Coefficients are integer numerators over one denominator, and
the arithmetic reduces each result once, not each term.  Every coefficient
handed out (``terms``, ``coeff``, ``to_jsonable``) is an exact ``Fraction``;
coefficients and scalars taken in must be ``int`` or ``Fraction``.  There is
no floating point anywhere."""

from __future__ import annotations

import threading
from fractions import Fraction
from math import gcd, lcm
from types import MappingProxyType

Rat = Fraction

FAMILY_P = "P"
FAMILY_TQ = "T_Q"
FAMILY_TU = "T_U"
FAMILIES = (FAMILY_P, FAMILY_TQ, FAMILY_TU)

# The process-wide memo of every layer.  Each key starts with a tag naming
# its use ("char", "bracket", "d_mu", "H_simple", ...), so uses cannot
# collide.  Values are immutable once stored.  A hit takes no lock; a miss
# builds under one re-entrant lock, so each key is built once and a nested
# build runs in the thread that holds it.  A build that raises stores nothing.
_memo = {}
_memo_lock = threading.RLock()


def _cached(key, build, *args):
    """The value at key, from build(*args) on a miss.  Hot callers pass args
    rather than a closure, so a hit creates no function object."""
    got = _memo.get(key)
    if got is None:
        with _memo_lock:
            got = _memo.get(key)
            if got is None:
                got = _memo[key] = build(*args)
    return got


def _check_caps(name, least, *caps):
    """ValueError unless every cap is an int >= least: a float would share
    the memo key of the equal int, and a bool would read as 0 or 1."""
    if not all(type(c) is int and c >= least for c in caps):
        raise ValueError("%s needs integers >= %d, got %s"
                         % (name, least, ", ".join(map(repr, caps))))


def _check_vm(family, vm):
    """ValueError unless vm lists variables of the family by increasing
    index, each with an integer exponent >= 1."""
    low = 0 if family != FAMILY_P else 1
    for i, e in vm:
        if type(i) is not int or i < low or type(e) is not int or e < 1:
            raise ValueError("%r is not a monomial of family %s" % (vm, family))
        low = i + 1


def vm_from_dict(d):
    """Canonical variable-monomial from an {index: exponent} mapping."""
    items = tuple(sorted((i, e) for i, e in d.items() if e))
    if any(e < 0 for _, e in items):
        raise ValueError("negative exponent in %r" % (items,))
    return items


def vm_mul(a, b):
    if not a:
        return b
    if not b:
        return a
    acc = dict(a)
    for i, e in b:
        acc[i] = acc.get(i, 0) + e
    return tuple(sorted(acc.items()))


def vm_weight(family, vm):
    shift = 0 if family == FAMILY_P else 1
    w = 0
    for i, e in vm:
        w += (i + shift) * e
    return w


def var_weight(family, index):
    return index if family == FAMILY_P else index + 1


def _ratio(x):
    """(numerator, denominator) of an int or Fraction; a float is refused."""
    if not isinstance(x, (int, Rat)):
        raise ValueError("series coefficients and scalars must be int or "
                         "Fraction, got %r" % (x,))
    return x.numerator, x.denominator


def _reduced(num, den):
    """(num, den) without zero numerators and divided by their common gcd."""
    g = gcd(den, *num.values())
    if g > 1 or 0 in num.values():
        num = {k: n // g for k, n in num.items() if n}
        den //= g
    return num, den


def _make(family, cap_weight, cap_aux, num, den):
    """The series num/den, for den > 0 and num's terms within the caps."""
    s = object.__new__(Series)
    s.family, s.cap_weight, s.cap_aux = family, cap_weight, cap_aux
    s.num, s.den = _reduced(num, den)
    return s


def _within(family, cap_weight, cap_aux, num):
    return {k: n for k, n in num.items()
            if k[0] <= cap_aux and vm_weight(family, k[1]) <= cap_weight}


_JSON_KINDS = {dict: "an object", list: "a list", str: "a string", int: "an integer"}


def _json_field(obj, path, kind):
    """The value under the last key of path in the JSON object obj; a missing
    value or one of another kind raises ValueError naming the field."""
    value = obj.get(path.rsplit(".", 1)[-1]) if isinstance(obj, dict) else None
    if not isinstance(value, kind) or isinstance(value, bool):
        raise ValueError("series JSON: %s must be %s" % (path, _JSON_KINDS[kind]))
    return value


class Series:
    """Sparse truncated series.  Treat instances as immutable.

    The coefficient of aux^a x^vm is num[(a, vm)] / den, with den > 0, no zero
    numerator and gcd(den, every numerator) = 1, so equal series store equal
    (num, den)."""

    __slots__ = ("family", "cap_weight", "cap_aux", "num", "den")

    def __init__(self, family, cap_weight, cap_aux, terms=None):
        if family not in FAMILIES:
            raise ValueError("unknown family %r" % (family,))
        _check_caps("Series", 0, cap_weight, cap_aux)
        pairs = [(key, _ratio(c)) for key, c in (terms or {}).items()]
        for aux, vm in (key for key, _ in pairs):
            _check_caps("an auxiliary exponent", 0, aux)
            _check_vm(family, vm)
        den = lcm(*(q for _, (_, q) in pairs))
        num = {key: p * (den // q) for key, (p, q) in pairs}
        self.family, self.cap_weight, self.cap_aux = family, cap_weight, cap_aux
        self.num, self.den = _reduced(_within(family, cap_weight, cap_aux, num), den)

    # -- constructors -------------------------------------------------

    @classmethod
    def zero(cls, family, cap_weight, cap_aux):
        return cls(family, cap_weight, cap_aux)

    @classmethod
    def constant(cls, family, cap_weight, cap_aux, value):
        return cls(family, cap_weight, cap_aux, {(0, ()): value})

    @classmethod
    def from_terms(cls, family, cap_weight, cap_aux, items):
        """items: iterable of (aux, {index: exp} or vm tuple, coeff)."""
        terms = {}
        for aux, vm, c in items:
            key = (aux, vm_from_dict(vm) if isinstance(vm, dict) else vm)
            _ratio(c)  # refuse a float before it is summed
            terms[key] = terms[key] + c if key in terms else c
        return cls(family, cap_weight, cap_aux, terms)

    # -- queries -------------------------------------------------------

    @property
    def terms(self):
        """Read-only {(aux, vm): Fraction}, built on access, in storage order."""
        den = self.den
        return MappingProxyType({k: Rat(n, den) for k, n in self.num.items()})

    def coeff(self, aux=0, vm=()):
        if isinstance(vm, dict):
            vm = vm_from_dict(vm)
        return Rat(self.num.get((aux, vm), 0), self.den)

    def is_zero(self):
        return not self.num

    def constant_term(self):
        return self.coeff()

    def sorted_terms(self):
        return sorted(self.terms.items())

    # -- arithmetic ----------------------------------------------------

    def _check_family(self, other):
        if self.family != other.family:
            raise ValueError("mismatched families %s, %s" % (self.family, other.family))

    def __add__(self, other):
        if not isinstance(other, Series):
            p, q = _ratio(other)
            other = _make(self.family, self.cap_weight, self.cap_aux, {(0, ()): p}, q)
        self._check_family(other)
        fam = self.family
        w = min(self.cap_weight, other.cap_weight)
        a = min(self.cap_aux, other.cap_aux)
        den = lcm(self.den, other.den)
        m1, m2 = den // self.den, den // other.den
        out = {k: n * m1 for k, n in self.num.items()} if m1 > 1 else dict(self.num)
        for k, n in other.num.items():
            out[k] = out.get(k, 0) + n * m2
        if (self.cap_weight, self.cap_aux, other.cap_weight, other.cap_aux) != (w, a, w, a):
            out = _within(fam, w, a, out)
        return _make(fam, w, a, out, den)

    __radd__ = __add__

    def __neg__(self):
        return _make(self.family, self.cap_weight, self.cap_aux,
                     {k: -n for k, n in self.num.items()}, self.den)

    def __sub__(self, other):
        return self + -(other if isinstance(other, Series) else Rat(*_ratio(other)))

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if not isinstance(other, Series):
            p, q = _ratio(other)
            return _make(self.family, self.cap_weight, self.cap_aux,
                         {k: n * p for k, n in self.num.items()}, self.den * q)
        self._check_family(other)
        w = min(self.cap_weight, other.cap_weight)
        a = min(self.cap_aux, other.cap_aux)
        fam = self.family
        out = {}
        # bucket the right factor by weight so high-weight pairs are skipped
        # without touching them
        buckets = {}
        for (aux2, vm2), c2 in other.num.items():
            w2 = vm_weight(fam, vm2)
            if w2 <= w:
                buckets.setdefault(w2, []).append((aux2, vm2, c2))
        weights = sorted(buckets)
        for (aux1, vm1), c1 in self.num.items():
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
                    out[key] = out.get(key, 0) + c1 * c2
        return _make(fam, w, a, out, self.den * other.den)

    __rmul__ = __mul__

    def __pow__(self, n):
        if not isinstance(n, int) or n < 0:
            raise ValueError("series powers need an integer n >= 0, got %r" % (n,))
        result = Series.constant(self.family, self.cap_weight, self.cap_aux, 1)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base if n > 1 else base
            n >>= 1
        return result

    def __truediv__(self, other):
        p, q = _ratio(other)
        return self * (Rat(q) / p)

    def __eq__(self, other):
        if not isinstance(other, Series):
            p, q = _ratio(other)
            return self.num == ({(0, ()): p} if p else {}) and self.den == q
        return (self.family == other.family and self.den == other.den
                and self.num == other.num)

    def __hash__(self):
        return hash((self.family, self.den, frozenset(self.num.items())))

    def __repr__(self):
        n = len(self.num)
        return "Series(%s, w<=%d, aux<=%d, %d terms)" % (
            self.family, self.cap_weight, self.cap_aux, n)

    def pretty(self):
        """Readable rendering of every term, deterministic order."""
        if not self.num:
            return "0"
        names = {FAMILY_P: ("beta", "p"), FAMILY_TQ: ("q", "t"), FAMILY_TU: ("u", "t")}
        auxn, varn = names[self.family]
        bits = []
        for (aux, vm), c in self.sorted_terms():
            factors = []
            if aux:
                factors.append("%s^%d" % (auxn, aux) if aux > 1 else auxn)
            for i, e in vm:
                v = "%s%d" % (varn, i) if self.family != FAMILY_P else "p%d" % i
                factors.append(v if e == 1 else "%s^%d" % (v, e))
            mono = "*".join(factors) if factors else "1"
            bits.append("%s*%s" % (c, mono))
        return " + ".join(bits)

    # -- calculus ------------------------------------------------------

    def partial(self, index):
        """Formal derivative in the main variable with the given index.

        The result is exact only to cap_weight - weight(var); the caps are
        reduced accordingly, and a variable heavier than the cap is refused.
        """
        fam = self.family
        _check_vm(fam, ((index, 1),))
        wvar = var_weight(fam, index)
        if wvar > self.cap_weight:
            raise ValueError("d/d(variable %d) of weight %d exceeds the remaining "
                             "weight cap %d" % (index, wvar, self.cap_weight))
        out = {}
        # distinct monomials have distinct derivatives, so nothing adds up
        for (aux, vm), n in self.num.items():
            for pos, (i, e) in enumerate(vm):
                if i == index:
                    low = ((i, e - 1),) if e > 1 else ()
                    out[(aux, vm[:pos] + low + vm[pos + 1:])] = e * n
                    break
        return _make(fam, self.cap_weight - wvar, self.cap_aux, out, self.den)

    def substitute(self, images, cap_weight=None, cap_aux=None):
        """Simultaneous substitution of finite series for main variables.

        ``images`` maps variable indices to Series in this series' family; any
        variable without an image must not occur, and the auxiliary variable
        is kept.  The result has the given caps, by default this series'
        caps.  Every image must be free of constant terms (each image term
        has weight + aux >= 1); this is the triangularity that keeps the
        truncated computation finite and is checked up front.  Exactness on
        the retained range is the caller's responsibility: images must be
        supplied complete up to the target caps.
        """
        fam = self.family
        w = self.cap_weight if cap_weight is None else cap_weight
        a = self.cap_aux if cap_aux is None else cap_aux
        for i, img in images.items():
            if img.family != fam:
                raise ValueError("image of variable %d is in family %s, not %s"
                                 % (i, img.family, fam))
            if (0, ()) in img.num:
                raise ValueError("image of variable %d has a constant term; "
                                 "substitution grading is not triangular" % i)
        images = {i: _make(fam, w, a, _within(fam, w, a, img.num), img.den)
                  for i, img in images.items()}
        out = Series.zero(fam, w, a)
        for (aux, vm), n in self.num.items():
            if aux > a:
                continue
            piece = _make(fam, w, a, {(aux, ()): n}, self.den)
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

    # -- serialization ---------------------------------------------------

    def to_jsonable(self):
        """JSON object with exponent vectors (aux, slot1, slot2, ...).

        Slot i holds p_i (family P) or t_{i-1} (families T_*), matching the
        canonical variable order (beta|q|u, p_1/t_0, p_2/t_1, ...).
        """
        width = 0
        for _, vm in self.num:
            for i, _ in vm:
                slot = i if self.family == FAMILY_P else i + 1
                width = max(width, slot)
        rows = []
        for (aux, vm), c in self.terms.items():
            vec = [0] * (width + 1)
            vec[0] = aux
            for i, e in vm:
                slot = i if self.family == FAMILY_P else i + 1
                vec[slot] = e
            rows.append({"exp": vec, "coeff": "%d/%d" % (c.numerator, c.denominator)})
        rows.sort(key=lambda r: r["exp"])
        return {"family": self.family,
                "caps": {"weight": self.cap_weight, "aux": self.cap_aux},
                "terms": rows}

    @classmethod
    def from_jsonable(cls, obj):
        """The series of a to_jsonable object.  A field of the wrong shape
        raises ValueError naming it."""
        if not isinstance(obj, dict):
            raise ValueError("series JSON must be an object, got %s" % type(obj).__name__)
        family = _json_field(obj, "family", str)
        caps = _json_field(obj, "caps", dict)
        weight = _json_field(caps, "caps.weight", int)
        aux = _json_field(caps, "caps.aux", int)
        items = []
        for k, row in enumerate(_json_field(obj, "terms", list)):
            vec = _json_field(row, "terms[%d].exp" % k, list)
            coeff = _json_field(row, "terms[%d].coeff" % k, str)
            if not vec or any(type(e) is not int for e in vec):
                raise ValueError("series JSON: terms[%d].exp must be a nonempty "
                                 "list of integers" % k)
            try:
                num, den = map(int, coeff.split("/"))
            except ValueError:
                raise ValueError("series JSON: terms[%d].coeff must be num/den, got %r"
                                 % (k, coeff)) from None
            if not den:
                raise ValueError("zero denominator in coefficient %r" % coeff)
            d = {}
            for slot, e in enumerate(vec[1:], start=1):
                if e:
                    d[slot if family == FAMILY_P else slot - 1] = e
            items.append((vec[0], d, Rat(num, den)))
        return cls.from_terms(family, weight, aux, items)
