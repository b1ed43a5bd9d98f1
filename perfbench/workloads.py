"""Workload definitions: input pools, seeded batches and exact answer checks.

A batch is a list of operations.  A ``cli`` operation is one ``tau-lab``
invocation in a fresh process; a ``session`` operation is one library call
sent to a long-lived session process.  Every operation carries the check
its answer must pass; the expected values come from ``reference.json``,
which ``make_reference.py`` writes after cross-checking each entry.

The parent process never imports taulab, so that inputs and checks do not
depend on the code being measured; the few combinatorial enumerations the
pools need are written out here.
"""

import hashlib
import json
import os
import re
from fractions import Fraction
from itertools import combinations_with_replacement
from math import factorial

HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCE = os.path.join(HERE, "reference.json")

WORKLOADS = ("cli-cold", "hodge-session", "tau-session")

# -- input pools ---------------------------------------------------------------


def partitions(d, maxpart=None):
    """Partitions of d as weakly decreasing tuples."""
    maxpart = d if maxpart is None else maxpart
    if d == 0:
        return [()]
    out = []
    for first in range(min(d, maxpart), 0, -1):
        for rest in partitions(d - first, first):
            out.append((first,) + rest)
    return out


def _ceil4(x):
    return (x + 3) // 4 * 4


def simple_pool():
    """Connected simple queries: genus 0-2, degree <= 12, 1..16 branch points.
    Returns {(degree class, branch class): [(g, profile)]}; the classes
    round degree and branch points up to a multiple of 4."""
    pool = {}
    for d in range(1, 13):
        for nu in partitions(d):
            for g in range(3):
                m = d + len(nu) + 2 * g - 2
                if 1 <= m <= 16:
                    pool.setdefault((_ceil4(d), _ceil4(m)), []).append((g, nu))
    return pool


# one cli-cold batch draws one simple query from each of these classes: the
# top class carries the batch's wall time, the five (8, 12) queries its tail
SIMPLE_CLASSES = ((12, 16), (8, 12), (8, 12), (8, 12), (8, 12), (8, 12),
                  (8, 8), (4, 4))


def onepart_pool():
    return [(g, nu) for d in range(1, 11) for nu in partitions(d) for g in range(5)]


def bracket_genus(ds):
    """Genus of <tau_d1 ... tau_dn> in the library's grading, or None."""
    top = sum(ds) - len(ds) + 3
    return top // 4 if top % 4 == 0 and top >= 0 else None


GOLDEN_BRACKETS = {
    (0, 0, 0): "1/1", (2,): "1/24", (6,): "1/1920", (2, 5): "19/5760",
    (3, 4): "11/1920", (2, 2, 4): "37/1440", (2, 3, 3): "5/144",
    (2, 2, 2, 3): "5/24", (2, 2, 2, 2, 2): "25/16",
}
BRACKET_WEIGHT = 12  # the transform route cross-checks brackets up to this weight


def bracket_pool():
    """Genus <= 2 brackets of weight sum(d + 1) <= 12, plus the goldens."""
    out = set(GOLDEN_BRACKETS)
    for n in range(1, BRACKET_WEIGHT + 1):
        for ds in combinations_with_replacement(range(BRACKET_WEIGHT), n):
            if sum(ds) + n <= BRACKET_WEIGHT and bracket_genus(ds) in (0, 1, 2):
                out.add(ds)
    return sorted(out)


def genus_generators(g, max_points):
    """Brackets of genus g with every index >= 2 and at most max_points points."""
    out = []
    for n in range(1, max_points + 1):
        total = 4 * g - 3 + n
        if total < 2 * n:
            continue
        for la in partitions(total - 2 * n):
            if len(la) <= n:
                out.append(tuple(sorted((2,) * (n - len(la)) + tuple(x + 2 for x in la))))
    return out


GENUS3_POINTS = 6
HODGE_SHAPES = ((1, 1), (1, 2), (2, 1))


def hodge_pool():
    """(g, k, ds) for the (g, n) shapes of the Hodge tables, sum ds = 3g-3+n-k."""
    out = []
    for g, n in HODGE_SHAPES:
        for k in range(g + 1):
            for ds in combinations_with_replacement(range(3 * g - 3 + n + 1), n):
                if sum(ds) == 3 * g - 3 + n - k:
                    out.append((g, k, ds))
    return out


def key(*parts):
    """Reference table key: '|'-joined parts, tuples comma-joined."""
    return "|".join(",".join(map(str, p)) if isinstance(p, tuple) else str(p)
                    for p in parts)


def mono(ds):
    """The t-monomial {d: multiplicity} of a bracket's index multiset."""
    return {d: ds.count(d) for d in set(ds)}


def mono_factorials(ds):
    """prod of multiplicity! over the monomial: a coefficient of F times this
    is the bracket."""
    out = 1
    for e in mono(ds).values():
        out *= factorial(e)
    return out


def frac(x):
    x = Fraction(x)
    return "%d/%d" % (x.numerator, x.denominator)


def plain(value):
    """The CLI's text form of an exact value (integers bare)."""
    x = Fraction(value)
    return str(x.numerator) if x.denominator == 1 else frac(x)


# -- operations ------------------------------------------------------------------

TAU_FILE = "tau.json"  # written by the README series example, read by verify hirota

README = (
    ("bracket --indices 2,3,3", "exact"),
    ("bracket-table --genus 2", "exact"),
    ("hurwitz --kind onepart --genus 1 --profile 3 --method brute", "exact"),
    ("hurwitz --kind simple --genus 0 --profile 2,2 --json", "exact"),
    ("hodge --genus 1 --indices 1 --k 0", "exact"),
    ("char --mu 2,1 --lambda 3", "exact"),
    ("schur --mu 2,1 --format json", "exact"),
    ("series --build lp2h --cap-weight 8 --cap-aux 6", "sha256"),
    ("verify hirota --i 2 --j 3 --tau " + TAU_FILE, "verify"),
    ("verify corner --max-size 8", "verify"),
    ("verify u-tau --cap-weight 10", "verify"),
)

# README's exit-code contract: 2 and a one-line "error:" for malformed input
MALFORMED = (
    "hurwitz --kind onepart --genus -1 --profile 3",
    "hodge --genus 0 --indices 0",
    "schur --mu 0",
    "bracket --indices -1",
    "hurwitz --kind simple --genus 0 --profile 3 --method closed",
    "hurwitz --kind simple --genus 0 --profile 6 --method brute",
)


def cli_op(argv, check, expect=None, save=None):
    return {"argv": argv.split(), "check": check, "expect": expect, "save": save}


def session_op(name, args, check, expect):
    return {"op": name, "args": args, "check": check, "expect": expect}


def cli_cold_batch(rng, ref, pools):
    ops = []
    for argv, check in README:
        ops.append(cli_op(argv, check, ref["readme"][argv],
                          save=TAU_FILE if argv.startswith("series") else None))
    drawn = []
    for cls in SIMPLE_CLASSES:
        g, nu = rng.choice(pools["simple"][cls])
        drawn.append(("simple", g, nu))
    for _ in range(3):
        g, nu = rng.choice(pools["onepart"])
        drawn.append(("onepart", g, nu))
    for kind, g, nu in drawn:
        profile = list(nu)
        rng.shuffle(profile)
        argv = "hurwitz --kind %s --genus %d --profile %s" % (
            kind, g, ",".join(map(str, profile)))
        ops.append(cli_op(argv, "exact", ref[kind][key(g, nu)]))
    for ds in rng.sample(pools["bracket"], 3):
        order = list(ds)
        rng.shuffle(order)
        ops.append(cli_op("bracket --indices " + ",".join(map(str, order)), "exact",
                          ref["bracket"][key(ds)]))
    for g, n in HODGE_SHAPES:
        _, k, ds = rng.choice([e for e in pools["hodge"] if e[0] == g and len(e[2]) == n])
        ops.append(cli_op("hodge --genus %d --indices %s --k %d"
                          % (g, ",".join(map(str, ds)), k), "exact",
                          plain(Fraction(ref["hodge"][key(g, k, ds)]))))
    for argv in MALFORMED:
        ops.append(cli_op(argv, "usage_error"))
    head, tail = ops[:len(README)], ops[len(README):]
    rng.shuffle(tail)
    return head + tail


def hodge_session_batch(rng, ref, pools):
    W = ref["hodge_session"]["weight"]
    probes = rng.sample(pools["hodge"], len(pools["hodge"]))
    pde_probes = [e for e in probes if e[1] <= 1]

    def values(entries):
        return [ref["hodge"][key(*e)] for e in entries]

    ops = [session_op("hurwitz_to_hodge", [g, n], "equal",
                      ref["hodge_tables"][key(g, n)]) for g, n in HODGE_SHAPES]
    for k in range(3):
        mine = [e for e in probes if e[1] == k]
        ops.append(session_op("f_moduli", [k, W, [list(e[2]) for e in mine]], "region",
                              [ref["hodge_session"]["f_moduli_region"][k], values(mine)]))
    for name, zk in ref["hodge_session"]["kdv_order"]:
        ops.append(session_op("kdv_check", [name, zk], "region",
                              [ref["hodge_session"]["kdv"][key(name, zk)], True]))
    ops.append(session_op("pde_solver", [1, W, [[e[1], list(e[2])] for e in pde_probes]],
                          "equal", values(pde_probes)))
    kmax, nmax = ref["hodge_session"]["ck"]
    ops.append(session_op("ck_report", [kmax, nmax], "equal", ref["listed_ck"][:kmax]))
    ops.append(session_op("exp_l_equals_L_check", ref["hodge_session"]["exp_l"],
                          "equal", True))
    ops.append(session_op("conjugated_equation", [2, 2, 1], "equal",
                          ref["conj_z1"]))
    return ops


def tau_session_batch(rng, ref, pools):
    tau = ref["tau_session"]
    ops = [session_op("genus_table", [g], "equal", ref["genus_tables"][str(g)])
           for g in range(3)]
    for ds in pools["genus3"]:
        ops.append(session_op("bracket", [list(ds)], "equal", ref["genus3"][key(ds)]))
    ops.append(session_op("transform_route", tau["transform_caps"], "equal",
                          tau["transform"]))
    ops.append(session_op("string_dilaton", [tau["f_weight"]], "equal", [True, True]))
    ops.append(session_op("u_hierarchy_residuals", [tau["u_weight"]], "region",
                          tau["u_hierarchy"]))
    shifts = []
    for _ in range(2):
        shifts.append(frac(Fraction(rng.randrange(-20, 21), rng.randrange(1, 21))))
    W, M = tau["lp2h_caps"]
    ops.append(session_op("hirota_shifted", [W, M, shifts], "region",
                          [[r, True] for r in tau["lp2h_regions"] for _ in shifts]))
    return ops


BATCHES = {"cli-cold": cli_cold_batch, "hodge-session": hodge_session_batch,
           "tau-session": tau_session_batch}


def load_pools():
    return {"simple": simple_pool(), "onepart": onepart_pool(),
            "bracket": bracket_pool(), "hodge": hodge_pool(),
            "genus3": genus_generators(3, GENUS3_POINTS)}


def load_reference(path=REFERENCE):
    with open(path) as fh:
        return json.load(fh)


# -- checks --------------------------------------------------------------------

REGION = re.compile(r"(?:<=|at most|checked:)\s*(\d+)")


def regions_of(text):
    return [int(x) for x in REGION.findall(text)]


def check_cli(op, rc, out, err):
    """None when the invocation's answer is right, else the reason."""
    if "Traceback" in err:
        return "traceback"
    if op["check"] == "usage_error":
        lines = err.strip().splitlines()
        if rc != 2 or out.strip() or len(lines) != 1 or not lines[0].startswith("error:"):
            return "exit %d, expected 2 with a one-line error" % rc
        return None
    if rc != 0:
        return "exit %d" % rc
    if op["check"] == "exact":
        return None if out.strip() == op["expect"] else "wrong value"
    if op["check"] == "sha256":
        digest = hashlib.sha256(out.encode()).hexdigest()
        return None if digest == op["expect"] else "wrong series"
    if op["check"] == "verify":
        lines = out.strip().splitlines()
        if not lines or lines[-1] != "PASS" or "BAD" in out:
            return "verification did not pass"
        got = regions_of(out)
        if len(got) != len(op["expect"]) or any(
                g < w for g, w in zip(got, op["expect"])):
            return "checked region %r smaller than %r" % (got, op["expect"])
        return None
    raise ValueError("unknown check %r" % op["check"])


def check_session(op, value):
    """None when the session's answer is right, else the reason."""
    if op["check"] == "equal":
        return None if value == op["expect"] else "wrong value"
    if op["check"] == "region":
        # expect: [region, payload] or a list of such pairs; the region
        # reported may be larger than the reference, never smaller
        pairs = op["expect"] if isinstance(op["expect"][0], list) else [op["expect"]]
        got = value if isinstance(op["expect"][0], list) else [value]
        if len(got) != len(pairs):
            return "wrong number of results"
        for (region, payload), (want_region, want) in zip(got, pairs):
            if payload != want:
                return "wrong value"
            if region < want_region:
                return "checked region %d smaller than %d" % (region, want_region)
        return None
    raise ValueError("unknown check %r" % op["check"])
