"""tau-lab command line front end.

Exit codes: 0 on success or PASS, 1 on a failed verification, 2 on usage
errors.  All numeric output is exact, printed as num/den (integers as n/1
in JSON, bare integers in text)."""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

# each command imports the modules it runs, so a process loads only those
from .partitions import Partition, partitions_of, partitions_upto
from .series import Series, Rat


def _parse_ints(s):
    return tuple(int(x) for x in s.split(",") if x != "")


def _fmt(value):
    value = Fraction(value)
    return str(value.numerator) if value.denominator == 1 else _fmt_frac(value)


def _fmt_frac(value):
    value = Fraction(value)
    return "%d/%d" % (value.numerator, value.denominator)


def cmd_hurwitz(args):
    from . import hurwitz as hw
    q = hw.HurwitzQuery(args.kind, args.genus, _parse_ints(args.profile))
    cached = hw.cache_lookup(q)
    value = hw.hurwitz(q, method=args.method)
    if cached is not None and cached != value:
        print("cache mismatch: cached %s, computed %s" % (_fmt(cached), _fmt(value)),
              file=sys.stderr)
        return 1
    if cached is None:
        hw.cache_store(q, value)
    if args.json:
        print(json.dumps({"query": {"kind": q.kind, "genus": q.genus,
                                    "profile": list(q.profile)},
                          "method": args.method, "value": _fmt_frac(value)}))
    else:
        print(_fmt(value))
    return 0


def cmd_bracket(args):
    from . import pic
    print(_fmt(pic.bracket(_parse_ints(args.indices))))
    return 0


def cmd_bracket_table(args):
    from . import pic
    table = pic.genus_table(args.genus)
    rows = [{"indices": list(k), "value": _fmt_frac(v)}
            for k, v in sorted(table.items())]
    if args.format == "csv":
        print("indices,value")
        for r in rows:
            print("%s,%s" % (" ".join(map(str, r["indices"])), r["value"]))
    else:
        print(json.dumps({"genus": args.genus, "brackets": rows}, indent=2))
    return 0


def cmd_hodge(args):
    from . import hodge
    if args.k < 0:
        raise ValueError("--k must be >= 0, got %d" % args.k)
    ds = _parse_ints(args.indices)
    if any(d < 0 for d in ds):
        raise ValueError("hodge indices must be >= 0, got %r" % (ds,))
    table = hodge.hurwitz_to_hodge(args.genus, len(ds))
    print(_fmt(table.get((args.k, tuple(sorted(ds))), Rat(0))))
    return 0


def cmd_char(args):
    from .symfunc import character
    mu = Partition(sorted(_parse_ints(args.mu), reverse=True))
    lam = Partition(sorted(_parse_ints(args.lam), reverse=True))
    print(character(mu, lam))
    return 0


def cmd_schur(args):
    from .symfunc import schur_poly
    mu = Partition(sorted(_parse_ints(args.mu), reverse=True))
    s = schur_poly(mu)
    if args.format == "json":
        print(json.dumps(s.to_jsonable()))
    else:
        print(s.pretty(max_terms=10 ** 6))
    return 0


BUILDERS = {
    "onepart-h": ("hurwitz", lambda hw, w, a: hw.h_onepart_series(w, a)),
    "simple-h": ("hurwitz", lambda hw, w, a: hw.h_simple_series(w, a)),
    "lp2h": ("hurwitz", lambda hw, w, a: hw.lp(hw.lp(hw.h_onepart_series(w, a)))),
    "hooks": ("hurwitz", lambda hw, w, a: hw.hook_series(w, a)),
    "f": ("pic", lambda pic, w, a: pic.f_series(w)),
    "u": ("pic", lambda pic, w, a: pic.u_series(w)),
    "u-in-T": ("pic", lambda pic, w, a: pic.u_in_T(w)),
}


def cmd_series(args):
    if args.roundtrip:
        with open(args.roundtrip) as fh:
            obj = json.load(fh)
        s = Series.from_jsonable(obj)
        again = s.to_jsonable()
        ok = Series.from_jsonable(again) == s
        print("PASS" if ok else "FAIL")
        return 0 if ok else 1
    from importlib import import_module
    module, build = BUILDERS[args.build]
    s = build(import_module("." + module, __package__), args.cap_weight, args.cap_aux)
    print(json.dumps(s.to_jsonable()))
    return 0


def cmd_verify(args):
    if args.cap_weight is None:
        # kdv's higher equations lose the most weight: at 10 each keeps a
        # nonempty region
        args.cap_weight = 10 if args.suite == "kdv" else 8
    ok, detail = VERIFIERS[args.suite](args)
    print(detail)
    print("PASS" if ok else "FAIL")
    return 0 if ok else 1


def _verify_hirota(args):
    from . import hierarchy
    if args.tau:
        with open(args.tau) as fh:
            tau = Series.from_jsonable(json.load(fh))
    else:
        from . import hurwitz as hw
        tau = hw.lp(hw.lp(hw.h_onepart_series(args.cap_weight, args.cap_aux))) + 1
    res = hierarchy.hirota_residual(args.i, args.j, tau)
    return res.is_zero(), "max weight checked: %d" % res.cap_weight


def _region(args, items, bound="max_size"):
    """The items a suite checks up to args.<bound>; an empty region is a
    usage error."""
    if not items:
        flag = "--" + bound.replace("_", "-")
        raise ValueError("verify %s: %s %d checks an empty region; raise %s"
                         % (args.suite, flag, getattr(args, bound), flag))
    return items


def _verify_corner(args):
    from . import hierarchy
    mus = _region(args, [mu for mu in partitions_upto(args.max_size) if mu.size])
    bad = [mu for mu in mus if not hierarchy.corner_descent_check(mu)]
    return not bad, "checked all diagrams with at most %d boxes" % args.max_size


def _verify_char_identity(args):
    from . import hierarchy
    pairs = _region(args, [(mu, la) for d in range(1, args.max_size + 1)
                           for mu in partitions_of(d) for la in partitions_of(d - 1)])
    for mu, la in pairs:
        if not hierarchy.character_identity_check(mu, la):
            return False, "failed at %r, %r" % (mu, la)
    return True, "checked all diagrams with at most %d boxes" % args.max_size


def _verify_descent(args):
    from . import hierarchy
    hi = args.max_ij
    sweep = _region(args, [(i, j) for i in range(2, hi + 1)
                           for j in range(i, hi + 1)], "max_ij")
    # the three displayed relations are checked at every --max-ij
    for (i, j) in [(2, 2), (2, 3), (3, 3)] + sweep:
        if not hierarchy.hirota_descent_check(i, j):
            return False, "failed at (%d, %d)" % (i, j)
    return True, "descent relations hold through i, j <= %d" % hi


def _verify_ck(args):
    from . import hodge
    if not 1 <= args.kmax <= len(hodge.LISTED_CK):
        raise ValueError("verify ck: --kmax %d is outside 1..%d, the listed c_k"
                         % (args.kmax, len(hodge.LISTED_CK)))
    rep = hodge.ck_report(args.kmax)
    lines = []
    ok = True
    for k in range(1, args.kmax + 1):
        low = rep[k]["lowering"]
        tr = rep[k]["transposed"]
        want = hodge.LISTED_CK[k - 1]
        good = low == want
        ok = ok and good
        lines.append("k=%d lowering=%s transposed=%s listed=%s %s"
                     % (k, low, tr, want, "ok" if good else "BAD"))
    return ok, "\n".join(lines)


def _verify_kdv(args):
    from . import hodge
    W = args.cap_weight
    M = hodge.moduli_caps_for(W, 2)
    fs = {k: hodge.f_moduli(k, W, M) for k in (0, 1, 2)}
    checks = [(name, 0, {0: fs[0]}) for name in ("F01", "F02", "F11", "F03", "F12")]
    checks += [("F01", 1, {0: fs[0], 1: fs[1]}), ("F11", 1, {0: fs[0], 1: fs[1]}),
               ("F01", 2, fs)]
    lines = []
    ok = True
    for name, zk, use in checks:
        res = hodge.kdv_check(name, zk, use)
        if res.cap_weight <= 0:
            raise ValueError("verify kdv: %s z^%d checks an empty region at "
                             "--cap-weight %d; raise --cap-weight" % (name, zk, W))
        good = res.is_zero()
        ok = ok and good
        lines.append("%s z^%d: %s (weight <= %d)"
                     % (name, zk, "ok" if good else "BAD", res.cap_weight))
    return ok, "\n".join(lines)


def _verify_u_tau(args):
    from . import pic
    res = pic.u_hierarchy_residuals(args.cap_weight)
    lines = []
    ok = True
    for key, series in sorted(res.items(), key=str):
        good = series.is_zero()
        ok = ok and good
        kind, (i, j), shift = key
        lines.append("%s (%d,%d) shift=%s: %s (weight <= %d)"
                     % (kind, i, j, shift, "ok" if good else "BAD",
                        series.cap_weight))
    return ok, "\n".join(lines)


def _verify_weight_flow(args):
    from . import hierarchy
    bad = [mu for mu in _region(args, partitions_upto(args.max_size))
           if not hierarchy.weight_flow_equivalence_check(mu)]
    return not bad, "checked all diagrams with at most %d boxes" % args.max_size


VERIFIERS = {
    "hirota": _verify_hirota,
    "corner": _verify_corner,
    "char-identity": _verify_char_identity,
    "descent": _verify_descent,
    "ck": _verify_ck,
    "kdv": _verify_kdv,
    "u-tau": _verify_u_tau,
    "weight-flow": _verify_weight_flow,
}


def build_parser():
    p = argparse.ArgumentParser(prog="tau-lab")
    sub = p.add_subparsers(dest="command", required=True)

    q = sub.add_parser("hurwitz", help="a single Hurwitz number")
    q.add_argument("--kind", choices=["onepart", "simple"], required=True)
    q.add_argument("--genus", type=int, required=True)
    q.add_argument("--profile", required=True)
    q.add_argument("--method", choices=["brute", "frobenius", "closed"],
                   default="frobenius")
    q.add_argument("--json", action="store_true")
    q.set_defaults(func=cmd_hurwitz)

    b = sub.add_parser("bracket", help="psi-class bracket value")
    b.add_argument("--indices", required=True)
    b.set_defaults(func=cmd_bracket)

    bt = sub.add_parser("bracket-table", help="generator brackets of a genus")
    bt.add_argument("--genus", type=int, required=True)
    bt.add_argument("--format", choices=["json", "csv"], default="json")
    bt.set_defaults(func=cmd_bracket_table)

    h = sub.add_parser("hodge", help="single-lambda Hodge integral")
    h.add_argument("--genus", type=int, required=True)
    h.add_argument("--indices", required=True)
    h.add_argument("--k", type=int, default=0)
    h.set_defaults(func=cmd_hodge)

    c = sub.add_parser("char", help="symmetric group character value")
    c.add_argument("--mu", required=True)
    c.add_argument("--lambda", dest="lam", required=True)
    c.set_defaults(func=cmd_char)

    s = sub.add_parser("schur", help="Schur polynomial in power sums")
    s.add_argument("--mu", required=True)
    s.add_argument("--format", choices=["text", "json"], default="text")
    s.set_defaults(func=cmd_schur)

    se = sub.add_parser("series", help="build or round-trip a series")
    se.add_argument("--build", choices=sorted(BUILDERS), default="onepart-h")
    se.add_argument("--cap-weight", type=int, default=8)
    se.add_argument("--cap-aux", type=int, default=6)
    se.add_argument("--roundtrip", metavar="FILE")
    se.set_defaults(func=cmd_series)

    v = sub.add_parser("verify", help="run a verification suite")
    v.add_argument("suite", choices=sorted(VERIFIERS))
    v.add_argument("--i", type=int, default=2)
    v.add_argument("--j", type=int, default=2)
    v.add_argument("--tau", metavar="FILE")
    v.add_argument("--max-size", type=int, default=8)
    v.add_argument("--max-ij", type=int, default=5)
    v.add_argument("--kmax", type=int, default=12)
    v.add_argument("--cap-weight", type=int, default=None,
                   help="weight cap (default 10 for kdv, 8 otherwise)")
    v.add_argument("--cap-aux", type=int, default=6)
    v.set_defaults(func=cmd_verify)

    return p


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, NotImplementedError, OSError, KeyError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
