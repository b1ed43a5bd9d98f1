"""tau-lab command line front end.

Exit codes: 0 on success or PASS, 1 on a failed verification, 2 on usage
errors.  An option that the run does not read is a usage error: each
``verify`` suite reads only the options ``VERIFIERS`` lists for it, and
``verify hirota --tau FILE`` and ``series --roundtrip FILE`` take their caps
from the file.  All numeric output is exact, printed as num/den (integers as
n/1 in JSON, bare integers in text)."""

from __future__ import annotations

import argparse
import json
import sys

# each command imports the modules it runs, so a process loads only those
from .partitions import Partition, partitions_of, partitions_upto
from .series import Series


def _parse_ints(s):
    """A comma list of ints; "" is the empty list, and an empty item is an error."""
    items = s.split(",") if s else []
    if "" in items:
        raise ValueError("empty item in the list %r" % s)
    return tuple(int(x) for x in items)


def _fmt_frac(value):
    return "%d/%d" % (value.numerator, value.denominator)


def cmd_hurwitz(args):
    from . import hurwitz as hw
    q = hw.HurwitzQuery(args.kind, args.genus, _parse_ints(args.profile))
    value = hw.hurwitz(q, method=args.method)
    if args.json:
        print(json.dumps({"query": {"kind": q.kind, "genus": q.genus,
                                    "profile": list(q.profile)},
                          "method": args.method, "value": _fmt_frac(value)}))
    else:
        print(value)
    return 0


def cmd_bracket(args):
    from . import pic
    print(pic.bracket(_parse_ints(args.indices)))
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
    dim = hodge.stable_dim(args.genus, len(ds))
    if sum(ds) + args.k != dim or args.k > args.genus:
        print(0)  # the table holds only k <= g and sum(ds) + k = dim
        return 0
    table = hodge.hurwitz_to_hodge(args.genus, len(ds))
    print(table.get((args.k, tuple(sorted(ds))), 0))
    return 0


def cmd_char(args):
    from .symfunc import character
    print(character(Partition.from_multiset(_parse_ints(args.mu)),
                    Partition.from_multiset(_parse_ints(args.lam))))
    return 0


def cmd_schur(args):
    from .symfunc import schur_poly
    s = schur_poly(Partition.from_multiset(_parse_ints(args.mu)))
    if args.format == "json":
        print(json.dumps(s.to_jsonable()))
    else:
        print(s.pretty())
    return 0


BUILDERS = {
    "onepart-h": ("hurwitz", lambda hw, w, a: hw.h_onepart_series(w, a)),
    "simple-h": ("hurwitz", lambda hw, w, a: hw.h_simple_series(w, a)),
    "lp2h": ("hurwitz", lambda hw, w, a: hw.lp(hw.lp(hw.h_onepart_series(w, a)))),
    "hooks": ("hurwitz", lambda hw, w, a: hw.hook_series(w, a)),
    # the bracket series have no aux variable, so they do not read --cap-aux
    "f": ("pic", lambda pic, w: pic.f_series(w)),
    "u": ("pic", lambda pic, w: pic.u_series(w)),
    "u-in-T": ("pic", lambda pic, w: pic.u_in_T(w)),
}
NO_AUX = ("f", "u", "u-in-T")


def _refuse(args, names, run):
    """A usage error when an option in names, which the run does not read,
    was given."""
    given = ["--" + name.replace("_", "-") for name in names
             if getattr(args, name) is not None]
    if given:
        raise ValueError("%s does not read %s" % (run, ", ".join(given)))


def _read_series(path):
    with open(path) as fh:
        return Series.from_jsonable(json.load(fh))


def _build(name, args):
    """The series `series --build name` prints at the caps args gives."""
    from importlib import import_module
    module, build = BUILDERS[name]
    caps = [8 if args.cap_weight is None else args.cap_weight]
    if name in NO_AUX:
        _refuse(args, ("cap_aux",), "series --build " + name)
    else:
        caps.append(6 if args.cap_aux is None else args.cap_aux)
    return build(import_module("." + module, __package__), *caps)


def cmd_series(args):
    if args.roundtrip is not None:
        _refuse(args, ("build", "cap_weight", "cap_aux"), "series --roundtrip FILE")
        s = _read_series(args.roundtrip)
        ok = Series.from_jsonable(s.to_jsonable()) == s
        print("PASS" if ok else "FAIL")
        return 0 if ok else 1
    print(json.dumps(_build(args.build or "onepart-h", args).to_jsonable()))
    return 0


def cmd_verify(args):
    run, reads = VERIFIERS[args.suite]
    _refuse(args, [name for name in VERIFY_OPTIONS if name not in reads],
            "verify " + args.suite)
    for name, default in reads.items():
        if getattr(args, name) is None:
            setattr(args, name, default)
    ok, detail = run(args)
    print(detail)
    print("PASS" if ok else "FAIL")
    return 0 if ok else 1


def _sweep(args, bound, items, check, passed):
    """Check each item of the region up to args.<bound> and name the first
    that fails; an empty region is a usage error."""
    if not items:
        flag = "--" + bound.replace("_", "-")
        raise ValueError("verify %s: %s %d checks an empty region; raise %s"
                         % (args.suite, flag, getattr(args, bound), flag))
    bad = next((item for item in items if not check(item)), None)
    return bad is None, passed if bad is None else "failed at %r" % (bad,)


def _rows(rows):
    """A report of (good, line) rows, each line showing ok or BAD at {}."""
    rows = list(rows)
    return (all(good for good, _ in rows),
            "\n".join(line.format("ok" if good else "BAD") for good, line in rows))


def _verify_hirota(args):
    from . import hierarchy
    if args.tau is not None:
        # the file's caps bound the check
        _refuse(args, ("cap_weight", "cap_aux"), "verify hirota --tau FILE")
        tau = _read_series(args.tau)
    else:
        tau = _build("lp2h", args) + 1
    res = hierarchy.hirota_residual(args.i, args.j, tau)
    return res.is_zero(), "max weight checked: %d" % res.cap_weight


def _verify_corner(args):
    from . import hierarchy
    return _sweep(args, "max_size", [mu for mu in partitions_upto(args.max_size) if mu.size],
                  hierarchy.corner_descent_check,
                  "checked all diagrams with at most %d boxes" % args.max_size)


def _verify_char_identity(args):
    from . import hierarchy
    return _sweep(args, "max_size", [(mu, la) for d in range(1, args.max_size + 1)
                                     for mu in partitions_of(d) for la in partitions_of(d - 1)],
                  lambda pair: hierarchy.character_identity_check(*pair),
                  "checked all diagrams with at most %d boxes" % args.max_size)


def _verify_descent(args):
    from . import hierarchy
    hi = args.max_ij
    sweep = [(i, j) for i in range(2, hi + 1) for j in range(i, hi + 1)]
    # the three displayed relations are checked at every nonempty --max-ij
    return _sweep(args, "max_ij", sweep and [(2, 2), (2, 3), (3, 3)] + sweep,
                  lambda ij: hierarchy.hirota_descent_check(*ij),
                  "descent relations hold through i, j <= %d" % hi)


def _verify_ck(args):
    from . import hodge
    if not 1 <= args.kmax <= len(hodge.LISTED_CK):
        raise ValueError("verify ck: --kmax %d is outside 1..%d, the listed c_k"
                         % (args.kmax, len(hodge.LISTED_CK)))
    rep = hodge.ck_report(args.kmax)
    return _rows((rep[k]["lowering"] == want,
                  "k=%d lowering=%s transposed=%s listed=%s {}"
                  % (k, rep[k]["lowering"], rep[k]["transposed"], want))
                 for k, want in enumerate(hodge.LISTED_CK[:args.kmax], start=1))


def _verify_kdv(args):
    from . import hodge
    W = args.cap_weight
    M = hodge.moduli_caps_for(W, 2)
    fs = {k: hodge.f_moduli(k, W, M) for k in (0, 1, 2)}
    rows = []
    for name, zk in [("F01", 0), ("F02", 0), ("F11", 0), ("F03", 0), ("F12", 0),
                     ("F01", 1), ("F11", 1), ("F01", 2)]:
        res = hodge.kdv_check(name, zk, {k: fs[k] for k in range(zk + 1)})
        if res.cap_weight <= 0:
            raise ValueError("verify kdv: %s z^%d checks an empty region at "
                             "--cap-weight %d; raise --cap-weight" % (name, zk, W))
        rows.append((res.is_zero(), "%s z^%d: {} (weight <= %d)" % (name, zk, res.cap_weight)))
    return _rows(rows)


def _verify_u_tau(args):
    from . import pic
    res = pic.u_hierarchy_residuals(args.cap_weight)
    return _rows((series.is_zero(), "%s (%d,%d) shift=%s: {} (weight <= %d)"
                  % (kind, i, j, shift, series.cap_weight))
                 for (kind, (i, j), shift), series in sorted(res.items(), key=str))


def _verify_weight_flow(args):
    from . import hierarchy
    return _sweep(args, "max_size", partitions_upto(args.max_size),
                  hierarchy.weight_flow_equivalence_check,
                  "checked all diagrams with at most %d boxes" % args.max_size)


# suite: (runner, {option it reads: default}); every other verify option is
# refused.  hirota fills in its caps itself, because --tau replaces them.
VERIFIERS = {
    "hirota": (_verify_hirota, {"i": 2, "j": 2, "tau": None, "cap_weight": None,
                                "cap_aux": None}),
    "corner": (_verify_corner, {"max_size": 8}),
    "char-identity": (_verify_char_identity, {"max_size": 8}),
    "descent": (_verify_descent, {"max_ij": 5}),
    "ck": (_verify_ck, {"kmax": 12}),
    # kdv's higher equations lose the most weight: at 10 each keeps a
    # nonempty region
    "kdv": (_verify_kdv, {"cap_weight": 10}),
    "u-tau": (_verify_u_tau, {"cap_weight": 8}),
    "weight-flow": (_verify_weight_flow, {"max_size": 8}),
}
VERIFY_OPTIONS = list(dict.fromkeys(name for _, reads in VERIFIERS.values() for name in reads))


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
    se.add_argument("--build", choices=sorted(BUILDERS), help="default onepart-h")
    se.add_argument("--cap-weight", type=int, help="default 8")
    se.add_argument("--cap-aux", type=int, help="default 6")
    se.add_argument("--roundtrip", metavar="FILE")
    se.set_defaults(func=cmd_series)

    v = sub.add_parser("verify", help="run a verification suite")
    v.add_argument("suite", choices=sorted(VERIFIERS))
    # flat flags: each suite refuses the ones it does not read
    for name in VERIFY_OPTIONS:
        if name == "tau":
            v.add_argument("--tau", metavar="FILE")
        else:
            v.add_argument("--" + name.replace("_", "-"), type=int)
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
