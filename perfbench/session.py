"""Session process: one taulab library process serving operations in turn.

Started by run.py with the checkout's ``src`` on ``sys.path``.  It reports
its set-up time (process start until ``import taulab`` returns, measured
from ``PERFBENCH_T0``), then reads one JSON request per line on stdin and
answers each with one JSON line on stdout, so the caller runs a closed
loop.  Caches are shared across the requests, as in a user's session.
With ``PERFBENCH_TRACE=1`` the layers are wrapped (see wrap.py) and the
trace is sent with the reply to the final ``bye`` request.
"""

import os
import sys
import time

import taulab  # noqa: E402  (the set-up being measured)

SETUP_S = time.monotonic() - float(os.environ["PERFBENCH_T0"])

import json  # noqa: E402
import traceback  # noqa: E402
from fractions import Fraction  # noqa: E402

import wrap  # noqa: E402
from workloads import frac, key, mono, mono_factorials  # noqa: E402

TRACER = wrap.install() if os.environ.get("PERFBENCH_TRACE") == "1" else None

from taulab import hierarchy, hodge, pic  # noqa: E402
from taulab import hurwitz as hw  # noqa: E402


class Session:
    """The operations a session serves; state persists between requests."""

    def __init__(self):
        self.fs = {}

    def hurwitz_to_hodge(self, g, n):
        return {key(k, ds): frac(v) for (k, ds), v in hodge.hurwitz_to_hodge(g, n).items()}

    def f_moduli(self, k, W, probes):
        M = hodge.moduli_caps_for(W, 2)
        f = self.fs[k] = hodge.f_moduli(k, W, M)
        return [f.cap_weight,
                [frac(f.coeff(0, mono(ds)) * mono_factorials(ds)) for ds in probes]]

    def kdv_check(self, name, zk):
        res = hodge.kdv_check(name, zk, {k: self.fs[k] for k in range(zk + 1)})
        return [res.cap_weight, res.is_zero()]

    def pde_solver(self, kmax, weight_cap, probes):
        solver = hodge.ModuliPDESolver(kmax=kmax, weight_cap=weight_cap).run()
        return [frac(solver.bracket(k, tuple(ds))) for k, ds in probes]

    def ck_report(self, kmax, nmax):
        rep = hodge.ck_report(kmax, nmax)
        return [None if rep[k]["lowering"] is None else frac(rep[k]["lowering"])
                for k in range(1, kmax + 1)]

    def exp_l_equals_L_check(self, zmax, index_cap):
        return hodge.exp_l_equals_L_check(zmax, index_cap)

    def conjugated_equation(self, i, j, k):
        eq = hodge.conjugated_equation(i, j, k)
        return sorted([[[s, list(eta)] for s, eta in factors], frac(c)]
                      for factors, c in eq.items())

    def genus_table(self, g):
        return {key(ds): frac(v) for ds, v in pic.genus_table(g).items()}

    def bracket(self, ds):
        return frac(pic.bracket(tuple(ds)))

    def transform_route(self, W, M):
        H_st = hw.h_onepart_series(W, M) - hw.h_unst_onepart(W, M)
        img = pic.chvar_pic(H_st, q_floor=1)
        got = img.q_slice(1)
        return [img.lowest_nonzero_q(), got.cap_weight,
                got == pic.f_series(got.cap_weight)]

    def string_dilaton(self, W):
        F = pic.f_series(W)
        return [pic.string_check(F), pic.dilaton_check(F)]

    def u_hierarchy_residuals(self, W):
        res = pic.u_hierarchy_residuals(W)
        return [[s.cap_weight, s.is_zero()] for _, s in sorted(res.items(), key=str)]

    def hirota_shifted(self, W, M, shifts):
        lp2h = hw.lp(hw.lp(hw.h_onepart_series(W, M)))
        out = []
        for i, j in ((2, 2), (2, 3)):
            for c in shifts:
                res = hierarchy.hirota_residual(i, j, lp2h + Fraction(c))
                out.append([res.cap_weight, res.is_zero()])
        return out


def main():
    session = Session()
    out = sys.stdout
    out.write(json.dumps({"setup_s": SETUP_S}) + "\n")
    out.flush()
    for line in sys.stdin:
        req = json.loads(line)
        if req["op"] == "bye":
            reply = {"trace": TRACER.report() if TRACER else None}
        else:
            try:
                reply = {"value": getattr(session, req["op"])(*req["args"])}
            except Exception:  # reported to the caller, which counts a failure
                reply = {"error": traceback.format_exc()}
        out.write(json.dumps(reply) + "\n")
        out.flush()
        if req["op"] == "bye":
            return


if __name__ == "__main__":
    main()
