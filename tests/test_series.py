import json
import re
import sys
import threading
import time
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

from taulab import hierarchy, hodge, hurwitz, pic, series
from taulab.diffops import evaluate
from taulab.series import (Series, Rat, FAMILY_P, FAMILY_TQ, FAMILIES, _cached,
                           var_weight)
from oracles import (constant, variable, series_exp, series_inverse, aux_slice, aux_shift,
                     series_log, fraction_mul, fraction_add, fraction_scale, fraction_partial,
                     substitute, partial)


def P(cap_w=8, cap_a=4):
    return lambda idx: variable(FAMILY_P, idx, cap_w, cap_a)


def test_add_examples():
    p = P()
    assert (p(1) + (-1) * p(1)).is_zero()
    s = 1 + p(1) + p(2)
    assert s.coeff() == 1 and s.coeff(vm={1: 1}) == 1 and s.coeff(vm={2: 1}) == 1
    half_sq = Series.from_terms(FAMILY_P, 8, 4, [(0, {1: 2}, Rat(1, 2))])
    assert (half_sq + half_sq).coeff(vm={1: 2}) == 1


def test_mul_examples():
    p = P()
    assert (p(1) * p(2)).coeff(vm={1: 1, 2: 1}) == 1
    beta_p1 = Series.from_terms(FAMILY_P, 8, 4, [(1, {1: 1}, 1)])
    sq = (1 + beta_p1) * (1 + beta_p1)
    assert sq.coeff() == 1
    assert sq.coeff(aux=1, vm={1: 1}) == 2
    assert sq.coeff(aux=2, vm={1: 2}) == 1
    tiny = variable(FAMILY_P, 1, 1, 0)
    assert (tiny * tiny).is_zero()


def test_partial_examples():
    p2 = variable(FAMILY_P, 2, 8, 0)
    assert partial(p2 * p2, 2).coeff(vm={2: 1}) == 2
    t = lambda d: variable(FAMILY_TQ, d, 8, 0)
    assert partial(t(0) * t(1), 0) == t(1)
    assert partial(variable(FAMILY_P, 2, 8, 0), 1).is_zero()
    # exact to cap - weight(var): at cap 2 only the constant term of d/dp_2 is
    # known, and at cap 1 nothing is
    d = partial(variable(FAMILY_P, 2, 2, 0), 2)
    assert d.cap_weight == 0 and d == 1
    heavy = re.escape("d/d(variable 2) of weight 2 exceeds the remaining weight cap 1")
    with pytest.raises(ValueError, match=heavy):
        partial(variable(FAMILY_P, 2, 1, 0), 2)
    # the second derivative of a chain meets the cap the first one left
    with pytest.raises(ValueError, match=heavy):
        evaluate({((0, (2, 2)),): 1}, {0: variable(FAMILY_P, 2, 3, 0)})
    with pytest.raises(ValueError, match=re.escape("((0, 1),) is not a monomial of family P")):
        partial(variable(FAMILY_P, 2, 3, 0), 0)


def test_family_mismatch():
    a = variable(FAMILY_P, 1, 4, 0)
    b = variable(FAMILY_TQ, 1, 4, 0)
    with pytest.raises(ValueError, match="^mismatched families P, T_Q$"):
        a + b
    with pytest.raises(ValueError, match="^mismatched families P, T_Q$"):
        a * b
    with pytest.raises(ValueError, match="^mismatched families T_Q, P$"):
        b * a


def test_substitute_identity_and_zero():
    p = P()
    s = p(1) * p(2) + p(3)
    images = {i: variable(FAMILY_P, i, 8, 4) for i in (1, 2, 3)}
    assert substitute(s, images) == s
    z = Series(FAMILY_P, 8, 4)
    assert substitute(z, images).is_zero()


def test_substitute_rejects_constant_image():
    s = variable(FAMILY_P, 1, 4, 2)
    bad = 1 + variable(FAMILY_P, 1, 4, 2)
    with pytest.raises(ValueError):
        substitute(s, {1: bad})


def test_exp_log_inverse_roundtrip():
    p = P()
    x = p(1) + Series.from_terms(FAMILY_P, 8, 4, [(1, {2: 1}, Rat(1, 3))])
    e = series_exp(x)
    assert e.constant_term() == 1
    assert series_log(e) == x
    inv = series_inverse(e)
    assert (e * inv) == 1


def test_aux_slice_and_shift():
    s = Series.from_terms(FAMILY_P, 4, 4, [(0, {1: 1}, 1), (2, {1: 1}, Rat(5))])
    assert aux_slice(s, 2).coeff(vm={1: 1}) == 5
    assert aux_shift(s, 1).coeff(aux=3, vm={1: 1}) == 5


def test_serialization_roundtrip():
    s = Series.from_terms(FAMILY_TQ, 6, 3,
                          [(1, {0: 2}, Rat(-7, 3)), (0, {2: 1}, Rat(22, 7))])
    obj = s.to_jsonable()
    assert obj["family"] == "T_Q"
    back = Series.from_jsonable(obj)
    assert back == s and back.cap_weight == s.cap_weight and back.cap_aux == s.cap_aux


# -- randomized ring laws ----------------------------------------------------

coeffs = st.integers(-4, 4).map(Fraction)
monos = st.tuples(st.integers(0, 2), st.dictionaries(st.integers(1, 3), st.integers(1, 2), max_size=2))


def series_strategy(cap_w=6, cap_a=3):
    return st.lists(st.tuples(monos, coeffs), max_size=4).map(
        lambda items: Series.from_terms(
            FAMILY_P, cap_w, cap_a, [(aux, vm, c) for (aux, vm), c in items]))


@settings(max_examples=60, deadline=None)
@given(series_strategy(), series_strategy(), series_strategy())
def test_ring_axioms(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert a + b == b + a
    assert a * b == b * a
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c


@settings(max_examples=60, deadline=None)
@given(series_strategy(), series_strategy())
def test_leibniz(a, b):
    lhs = partial(a * b, 1)
    rhs = partial(a, 1) * b + a * partial(b, 1)
    assert lhs == rhs


@settings(max_examples=40, deadline=None)
@given(series_strategy(), series_strategy())
def test_substitute_is_ring_morphism(a, b):
    images = {1: Series.from_terms(FAMILY_P, 6, 3, [(0, {2: 1}, 1), (1, {1: 1}, 1)]),
              2: Series.from_terms(FAMILY_P, 6, 3, [(0, {1: 2}, Rat(1, 2))]),
              3: Series.from_terms(FAMILY_P, 6, 3, [(1, {3: 1}, -1)])}
    # weights of the images dominate those of the originals, so the truncated
    # substitution is exact on the retained range and must be multiplicative
    lhs = substitute(a * b, images)
    rhs = substitute(a, images) * substitute(b, images)
    assert lhs == rhs


# -- the integer kernel against the Fraction oracle ----------------------------

# small, coprime-mixed and above-2^64 denominators, either sign
dens = st.one_of(st.integers(1, 12), st.sampled_from([2 ** 64 + 13, 3 ** 41, 7 ** 23]),
                 st.integers(2 ** 64, 2 ** 70)).flatmap(lambda d: st.sampled_from([d, -d]))
fracs = st.builds(Fraction, st.integers(-10 ** 22, 10 ** 22), dens)


@st.composite
def same_family_pair(draw):
    fam = draw(st.sampled_from(FAMILIES))
    low = 1 if fam == FAMILY_P else 0

    def one():
        items = draw(st.lists(st.tuples(
            st.integers(0, 3),
            st.dictionaries(st.integers(low, low + 3), st.integers(1, 2), max_size=3),
            st.one_of(fracs, st.integers(-5, 5))), max_size=6))
        return Series.from_terms(fam, draw(st.integers(0, 7)), draw(st.integers(0, 3)),
                                 items)
    return one(), one()


def assert_canonical(s):
    assert s.den > 0 and all(s.num.values())
    assert gcd(s.den, *s.num.values()) == 1


def assert_matches(got, want):
    terms, w, a = want
    assert (got.cap_weight, got.cap_aux) == (w, a)
    assert list(got.terms.items()) == list(terms.items())  # values and dict order
    assert all(type(c) is Fraction for c in got.terms.values())
    assert type(got.constant_term()) is Fraction
    assert_canonical(got)


@settings(max_examples=150, deadline=None)
@given(same_family_pair(), st.one_of(fracs, st.integers(-3, 3)))
def test_kernel_matches_fraction_oracle(pair, c):
    x, y = pair
    assert_matches(x * y, fraction_mul(x, y))
    assert_matches(x + y, fraction_add(x, y))
    minus_y = fraction_scale(y, -1)
    assert_matches(x - y, fraction_add(x, Series(y.family, *minus_y[1:], minus_y[0])))
    assert_matches(x - x, ({}, x.cap_weight, x.cap_aux))
    assert (x - x).den == 1
    assert_matches(x * c, fraction_scale(x, c))
    low = 1 if x.family == FAMILY_P else 0
    for index in range(low, low + 4):
        if var_weight(x.family, index) <= x.cap_weight:
            assert_matches(partial(x, index), fraction_partial(x, index))


def test_equal_series_store_one_canonical_form():
    x = variable(FAMILY_TQ, 0, 6, 2, Rat(3, 4))
    y = Series.from_terms(FAMILY_TQ, 6, 2, [(1, {1: 1}, Rat(-5, 6))])
    a, b = (x + y) * (x - y), x * x - y * y
    assert a == b and hash(a) == hash(b)
    assert (a.num, a.den) == (b.num, b.den) == ({(0, ((0, 2),)): 81, (2, ((1, 2),)): -100}, 144)
    half = constant(FAMILY_P, 4, 2, Rat(1, 2))
    one = half + half
    assert one == 1 and (one.num, one.den) == ({(0, ()): 1}, 1)
    for s in (a, b, one, a - b, x * 6, partial(x * 4, 0)):
        assert_canonical(s)


@pytest.mark.parametrize("family", FAMILIES)
def test_constant_series_hash_as_their_value(family):
    # a series equal to a number must land in the same set and dict slot
    for value in (3, Fraction(-2, 7), 0):
        for s in (constant(family, 4, 2, value), constant(family, 0, 0, value)):
            assert s == value and hash(s) == hash(value)
            assert value in {s} and s in {value} and len({s, value}) == 1
            assert {value: "v"}[s] == "v" and {s: "s"}[value] == "s"
    zero = Series(family, 5, 1)
    assert 0 in {zero} and Fraction(0) in {zero: 1} and len({zero, 0}) == 1


def test_from_jsonable_normalizes_a_negative_denominator():
    obj = {"family": FAMILY_P, "caps": {"weight": 4, "aux": 2},
           "terms": [{"exp": [1, 2], "coeff": "1/-2"}, {"exp": [0, 0, 1], "coeff": "-6/4"}]}
    s = Series.from_jsonable(obj)
    assert s.coeff(1, {1: 2}) == Rat(-1, 2) and s.coeff(0, {2: 1}) == Rat(-3, 2)
    text = json.dumps(s.to_jsonable())
    assert json.dumps(Series.from_jsonable(json.loads(text)).to_jsonable()) == text
    assert '"1/-2"' not in text and Series.from_jsonable(json.loads(text)) == s


def test_memo_builds_each_key_once_under_threads():
    # 8 threads ask for one fresh key whose build nests a second fresh key,
    # which 8 more threads ask for directly: each key is built once, and
    # every thread gets the same object
    outer, inner = ("test-thread-outer", object()), ("test-thread-inner", object())
    builds = {outer: 0, inner: 0}
    count_lock = threading.Lock()
    start = threading.Barrier(16, timeout=10)

    def build(key, nested):
        with count_lock:
            builds[key] += 1
        time.sleep(0.05)  # keep the other threads waiting on the miss
        return (object(), _cached(nested, build, nested, None)) if nested else object()

    got = [None] * 16

    def ask(i):
        start.wait()
        got[i] = _cached(outer, build, outer, inner) if i < 8 else \
            _cached(inner, build, inner, None)

    threads = [threading.Thread(target=ask, args=(i,)) for i in range(16)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=10)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert builds == {outer: 1, inner: 1}
    assert all(g is got[0] for g in got[:8])
    assert all(g is got[8] for g in got[8:])
    assert got[0][1] is got[8]


def test_memo_stores_nothing_when_a_build_raises():
    # the failed build leaves no entry and no held lock: a retry from
    # another thread builds the key again
    key = ("test-raising-build", object())
    builds = []

    def build(fail):
        builds.append(fail)
        if fail:
            raise KeyError("bad input")
        return object()

    with pytest.raises(KeyError):
        _cached(key, build, True)
    assert key not in series._memo
    got = []
    retry = threading.Thread(target=lambda: got.append(_cached(key, build, False)),
                             daemon=True)
    retry.start()
    retry.join(timeout=10)
    assert not retry.is_alive()
    assert builds == [True, False] and _cached(key, build, True) is got[0]


# The memo's tags, each kept because a benchmark workload reads its entries
# a second time (CHANGES.md holds the per-tag hit counts).  A new tag joins
# this list with its own hit/miss measurement.
MEMO_TAGS = {"parts", "column", "shape", "d_mu", "hirota", "kp", "bracket",
             "bracket_series", "a", "LbF", "F", "conj", "reduce", "monomial"}


def test_memo_holds_only_the_kept_tags(monkeypatch):
    # the library calls of one hodge-session and one tau-session batch of the
    # benchmark, on an empty memo
    monkeypatch.setattr(series, "_memo", {})
    W = 10
    M = hodge.moduli_caps_for(W, 2)
    for g, n in ((1, 1), (1, 2), (2, 1)):
        hodge.hurwitz_to_hodge(g, n)
    fs = {k: hodge.f_moduli(k, W, M) for k in range(3)}
    for name, zk in (("F01", 0), ("F02", 0), ("F11", 0), ("F03", 0), ("F12", 0),
                     ("F01", 1), ("F11", 1), ("F01", 2)):
        hodge.kdv_check(name, zk, fs)
    hodge.ModuliPDESolver(1, W).run()
    hodge.ck_report(5, 5)
    hodge.exp_l_equals_L_check(4, 8)
    hodge.conjugated_equation(2, 2, 1)
    for g in range(3):
        pic.genus_table(g)
    pic.bracket((2, 2, 2, 3, 4, 4))
    pic.chvar_pic(hurwitz.h_onepart_series(12, 7) - hurwitz.h_unst_onepart(12, 7), q_floor=1)
    f = pic.f_series(12)
    pic.string_check(f)
    pic.dilaton_check(f)
    pic.u_hierarchy_residuals(12)
    lp2h = hurwitz.lp(hurwitz.lp(hurwitz.h_onepart_series(10, 6)))
    for i, j in ((2, 2), (2, 3)):
        hierarchy.hirota_residual(i, j, lp2h + Fraction(3, 7))
    assert {key[0] for key in series._memo} == MEMO_TAGS
