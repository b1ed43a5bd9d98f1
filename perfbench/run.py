"""taulab benchmark: three workloads as a closed loop, answers checked exactly.

    python3 perfbench/run.py --workload cli-cold --seed 1 --seconds 30 --trace 0

Run from the root of a checkout; the program is the checkout's ``src/taulab``.
One parent process runs one operation at a time, and at most one child
process (a ``tau-lab`` invocation or a library session) exists at a time.
A run repeats the workload's batch, drawing fresh inputs from ``--seed``,
for about ``--seconds`` seconds.  Every answer is compared with
``reference.json`` at zero tolerance.

``--trace 0`` reports the end-to-end metrics (medians over the batches).
``--trace 1`` alternates untraced and traced batches and reports per-layer
metrics from the traced ones (see wrap.py and layers.json), the trace
overhead, and the share of traced wall time covered by layer spans or
set-up; the spans of the last traced batch are written to
``.perfbench/spans-<workload>.jsonl``.  The last stdout line is the result
object; the line before it records the environment.
"""

import argparse
import json
import os
import platform
import random
import selectors
import shutil
import statistics
import subprocess
import sys
import time

import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench")
HARD_LIMIT_S = 170.0
CLI_TIMEOUT_S = 60.0
SESSION_TIMEOUT_S = 120.0

END_TO_END = {"wall_s": "s", "latency_p50_s": "s", "latency_tail_s": "s",
              "setup_s": "s", "peak_rss_mb": "MB"}


class Deadline(Exception):
    """A child outlived its time limit and was killed."""


def _env(trace):
    env = dict(os.environ)
    env.pop("TAU_LAB_CACHE", None)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, env.get("PYTHONPATH")) if p)
    env["PERFBENCH_TRACE"] = "1" if trace else "0"
    env["PERFBENCH_T0"] = repr(time.monotonic())
    return env


def _reap(proc):
    """Wait for the child and return its peak RSS in MB."""
    _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    return usage.ru_maxrss / 1024.0


def _drain(files, until):
    """Read every file to EOF; raise Deadline at the monotonic time `until`."""
    chunks = {f: [] for f in files}
    with selectors.DefaultSelector() as sel:
        for f in files:
            sel.register(f, selectors.EVENT_READ)
        while sel.get_map():
            left = until - time.monotonic()
            if left <= 0:
                raise Deadline()
            for sk, _ in sel.select(left):
                data = os.read(sk.fd, 1 << 16)
                if data:
                    chunks[sk.fileobj].append(data)
                else:
                    sel.unregister(sk.fileobj)
    return [b"".join(chunks[f]).decode() for f in files]


def run_cli(argv, trace, cwd, until):
    """One tau-lab process: (rc, stdout, stderr, report, seconds, rss_mb)."""
    rfd, wfd = os.pipe()
    env = _env(trace)
    env["PERFBENCH_FD"] = str(wfd)
    start = time.monotonic()
    try:
        proc = subprocess.Popen([sys.executable, os.path.join(HERE, "launch.py")] + argv,
                                cwd=cwd, env=env, stdin=subprocess.DEVNULL,
                                stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                                pass_fds=(wfd,))
    finally:
        os.close(wfd)
    with os.fdopen(rfd, "rb") as rep:
        try:
            out, err, report = _drain([proc.stdout, proc.stderr, rep],
                                      min(until, start + CLI_TIMEOUT_S))
        except Deadline:
            proc.kill()
            _reap(proc)
            raise
        finally:
            proc.stdout.close()
            proc.stderr.close()
    rss = _reap(proc)
    elapsed = time.monotonic() - start
    return proc.returncode, out, err, json.loads(report) if report else None, elapsed, rss


class Session:
    """A session process answering one JSON request per line."""

    def __init__(self, trace, until):
        self.until = until
        self.buf = b""
        self.proc = subprocess.Popen([sys.executable, os.path.join(HERE, "session.py")],
                                     cwd=ROOT, env=_env(trace), stdin=subprocess.PIPE,
                                     stdout=subprocess.PIPE, stderr=subprocess.DEVNULL)
        try:
            self.setup_s = self._reply(self.until)["setup_s"]
        except BaseException:
            self.kill()
            raise

    def _reply(self, until):
        while b"\n" not in self.buf:
            left = until - time.monotonic()
            if left <= 0:
                raise Deadline()
            with selectors.DefaultSelector() as sel:
                sel.register(self.proc.stdout, selectors.EVENT_READ)
                if not sel.select(left):
                    continue
            data = os.read(self.proc.stdout.fileno(), 1 << 16)
            if not data:
                raise EOFError("session process ended")
            self.buf += data
        line, self.buf = self.buf.split(b"\n", 1)
        return json.loads(line)

    def call(self, op, args):
        self.proc.stdin.write((json.dumps({"op": op, "args": args}) + "\n").encode())
        self.proc.stdin.flush()
        return self._reply(min(self.until, time.monotonic() + SESSION_TIMEOUT_S))

    def close(self):
        """End the session: (trace report, peak RSS in MB)."""
        trace = self.call("bye", [])["trace"]
        self.proc.stdin.close()
        rss = _reap(self.proc)
        self.proc.stdout.close()
        return trace, rss

    def kill(self):
        self.proc.kill()
        self.proc.stdin.close()
        self.proc.stdout.close()
        return _reap(self.proc)


def run_batch(workload, ops, trace, until, work):
    """Run one batch; returns its timings, failures and traces.

    The unit of latency is what its user waits for: one tau-lab process
    (start included) in cli-cold, and the whole session in the session
    workloads, whose requests depend on each other's caches."""
    b = {"latencies": [], "setups": [], "rss": 0.0, "failed": 0, "wrong": [],
         "traces": [], "answers": [], "attempted": len(ops)}
    start = time.monotonic()

    def record(op, reason, seconds=None):
        if seconds is not None:
            b["latencies"].append(seconds)
        if reason is not None:
            b["failed"] += 1
            if op["check"] != "usage_error":
                b["wrong"].append("%s: %s" % (op.get("argv") or op["op"], reason))

    if workload == "cli-cold":
        for op in ops:
            try:
                rc, out, err, rep, seconds, rss = run_cli(op["argv"], trace, work, until)
            except Deadline:
                record(op, "timeout")
                b["timeout"] = True
                break
            b["rss"] = max(b["rss"], rss)
            if rep:
                b["setups"].append(rep["setup_s"])
                if rep["trace"]:
                    b["traces"].append(rep["trace"])
            if op["save"]:
                with open(os.path.join(work, op["save"]), "w") as fh:
                    fh.write(out)
            b["answers"].append([rc, out])
            record(op, workloads.check_cli(op, rc, out, err), seconds)
    else:
        session = Session(trace, until)
        b["setups"].append(session.setup_s)
        trace_report = None
        for op in ops:
            try:
                reply = session.call(op["op"], op["args"])
            except (Deadline, EOFError, OSError):
                b["rss"] = session.kill()
                record(op, "timeout or crash")
                b["timeout"] = True
                break
            b["answers"].append(reply)
            reason = reply.get("error") or workloads.check_session(op, reply["value"])
            record(op, reason)
        else:
            trace_report, b["rss"] = session.close()
        if trace_report:
            b["traces"].append(trace_report)
    b["wall"] = time.monotonic() - start
    if workload != "cli-cold":
        b["latencies"].append(b["wall"])
    b["traced"] = trace
    return b


def tail(values):
    """(value, percentile, samples): the highest percentile with at least
    ten samples beyond it; the maximum when there are fewer than eleven."""
    xs = sorted(values)
    n = len(xs)
    i = n - 11 if n > 10 else n - 1
    return xs[i], 100.0 * (i + 1) / n, n


def merge(reports):
    """Sum the per-process trace reports of one batch."""
    m = {"stats": {}, "distinct": {}, "terms_max": {}, "fraction_ops": 0, "root_s": 0.0}
    for r in reports:
        for name, (calls, self_s, parents) in r["stats"].items():
            s = m["stats"].setdefault(name, [0, 0.0, 0])
            s[0] += calls
            s[1] += self_s
            s[2] += parents
        for name, n in r["distinct"].items():
            m["distinct"][name] = m["distinct"].get(name, 0) + n
        for layer, n in r["terms_max"].items():
            m["terms_max"][layer] = max(m["terms_max"].get(layer, 0), n)
        m["fraction_ops"] += r["fraction_ops"]
        m["root_s"] += r["root_s"]
    return m


def layer_metrics(b):
    """Per-layer metrics of one traced batch, as {name: (value, unit)}."""
    m = merge(b["traces"])
    stats = m["stats"]

    def calls(*names):
        return sum(stats.get(n, (0, 0.0, 0))[0] for n in names)

    def self_s(*names):
        return sum(stats.get(n, (0, 0.0, 0))[1] for n in names)

    def prefix_calls(prefix):
        return sum(s[0] for n, s in stats.items() if n.startswith(prefix))

    def prefix_self(prefix):
        return sum(s[1] for n, s in stats.items() if n.startswith(prefix))

    def distinct_ratio(name):
        # 1 when never called: there is nothing a memo could skip
        return m["distinct"].get(name, 0) / calls(name) if calls(name) else 1.0

    frob = "hurwitz.hurwitz_frobenius[onepart]"
    covered = (sum(b["setups"]) + m["root_s"]) / b["wall"]
    return {
        "series.mul.calls": (calls("series.Series.__mul__"), "count"),
        "series.mul.self_s": (self_s("series.Series.__mul__"), "s"),
        "series.log.self_s": (self_s("series.Series.log"), "s"),
        "series.exp.self_s": (self_s("series.Series.exp"), "s"),
        "series.partial.calls": (calls("series.Series.partial"), "count"),
        "series.terms_max": (m["terms_max"].get("series", 0), "count"),
        "symfunc.character.calls": (calls("symfunc.character"), "count"),
        "symfunc.character.distinct_ratio": (distinct_ratio("symfunc.character"), "1"),
        "symfunc.schur_poly.self_s": (self_s("symfunc.schur_poly"), "s"),
        "symfunc.self_s": (prefix_self("symfunc."), "s"),
        "partitions.Partition.calls": (prefix_calls("partitions.Partition."), "count"),
        "partitions.self_s": (prefix_self("partitions."), "s"),
        "hurwitz.frobenius_onepart.calls": (calls(frob), "count"),
        "hurwitz.frobenius_onepart.distinct_ratio": (distinct_ratio(frob), "1"),
        "hurwitz.frobenius_onepart.self_s": (self_s(frob), "s"),
        "hurwitz.disconnected_simple_series.self_s":
            (self_s("hurwitz.disconnected_simple_series"), "s"),
        "hurwitz.h_simple_series.builds":
            (stats.get("hurwitz.h_simple_series", (0, 0.0, 0))[2], "count"),
        "hurwitz.self_s": (prefix_self("hurwitz."), "s"),
        "diffops.compose.calls": (calls("diffops.TOp.compose", "diffops.ZOp.compose"), "count"),
        "diffops.compose.self_s": (self_s("diffops.TOp.compose", "diffops.ZOp.compose"), "s"),
        "diffops.apply.self_s": (self_s("diffops.TOp.apply"), "s"),
        "diffops.terms_max": (m["terms_max"].get("diffops", 0), "count"),
        "hierarchy.residual.calls": (calls("hierarchy.hirota_residual", "hierarchy.kp_residual",
                                           "hierarchy.lkp_residual"), "count"),
        "hierarchy.self_s": (prefix_self("hierarchy."), "s"),
        "pic.bracket.calls": (calls("pic.bracket"), "count"),
        "pic.bracket.distinct_ratio": (distinct_ratio("pic.bracket"), "1"),
        "pic.transform_p_to_tq.self_s": (self_s("pic.transform_p_to_tq"), "s"),
        "pic.self_s": (prefix_self("pic."), "s"),
        "hodge.transform_p_to_tu.self_s": (self_s("hodge.transform_p_to_tu"), "s"),
        "hodge.solve_l.self_s": (self_s("hodge.solve_l"), "s"),
        "hodge.hurwitz_to_hodge.self_s": (self_s("hodge.hurwitz_to_hodge"), "s"),
        "hodge.pde_solver.self_s": (prefix_self("hodge.ModuliPDESolver."), "s"),
        "hodge.self_s": (prefix_self("hodge."), "s"),
        "cli.main.self_s": (self_s("cli.main"), "s"),
        "fractions.ops": (m["fraction_ops"], "count"),
        "trace.covered_ratio": (covered, "1"),
    }


def write_spans(workload, b):
    """Write the spans of one traced batch, one JSON line each."""
    os.makedirs(OUT, exist_ok=True)
    with open(os.path.join(OUT, "spans-%s.jsonl" % workload), "w") as fh:
        for proc, r in enumerate(b["traces"]):
            open_spans = []  # (index, end) of the enclosing spans
            ordered = sorted(r["spans"], key=lambda s: (s[1], s[3]))
            for i, (fid, start, dur, depth) in enumerate(ordered):
                while open_spans and open_spans[-1][1] < start + dur:
                    open_spans.pop()
                parent = open_spans[-1][0] if open_spans else None
                fh.write(json.dumps({"process": proc, "id": i, "parent": parent,
                                     "name": r["names"][fid], "start": start,
                                     "dur": dur}) + "\n")
                open_spans.append((i, start + dur))


def environment(tail_info):
    cpu = platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    lines = {}
    pkg = os.path.join(SRC, "taulab")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name)) as fh:
                lines[name] = sum(1 for _ in fh)
    return {"nproc": os.cpu_count(), "python": platform.python_version(), "cpu": cpu,
            "commit": git_commit(), "latency_tail": tail_info,
            "src_lines": lines, "src_lines_total": sum(lines.values())}


def git_commit():
    """The checked-out commit, read from .git without running git; None
    outside a git checkout."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.exists(path):
            with open(path) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        return None
    return None


def measure(workload, seed, seconds, trace, batch=None):
    """Run batches for about `seconds` seconds; returns the batch records."""
    ref = workloads.load_reference()
    pools = workloads.load_pools()
    make = batch or workloads.BATCHES[workload]
    rng = random.Random(seed)
    start = time.monotonic()
    until = start + HARD_LIMIT_S
    work = os.path.join(OUT, "work-%d" % os.getpid())
    os.makedirs(work, exist_ok=True)
    batches = []
    try:
        while True:
            traced = trace and len(batches) % 2 == 1
            b = run_batch(workload, make(rng, ref, pools), traced, until, work)
            batches.append(b)
            if b.get("timeout"):
                break
            elapsed = time.monotonic() - start
            longest = max(x["wall"] for x in batches)
            if trace and len(batches) < 2:
                continue
            if elapsed + 0.5 * longest > seconds or elapsed + longest > HARD_LIMIT_S:
                break
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return batches


def summarize(workload, batches, trace):
    """The result object and the environment record."""
    plain = [b for b in batches if not b["traced"]]
    lat = [x for b in plain for x in b["latencies"]]
    value, pct, n = tail(lat)
    result = {
        "correct": not any(b["wrong"] or b.get("timeout") for b in batches),
        "attempted": sum(b["attempted"] for b in batches),
        "failed": sum(b["failed"] for b in batches),
    }
    if trace:
        traced = [b for b in batches if b["traced"]]
        per_batch = [layer_metrics(b) for b in traced]
        metrics = {name: {"value": statistics.median(pb[name][0] for pb in per_batch),
                          "unit": unit} for name, (_, unit) in per_batch[0].items()}
        metrics["trace.overhead_s"] = {
            "value": statistics.median(b["wall"] for b in traced)
            - statistics.median(b["wall"] for b in plain), "unit": "s"}
        write_spans(workload, traced[-1])
        layer_self = {}
        for name, (_, self_s, _) in merge(traced[-1]["traces"])["stats"].items():
            layer = name.split(".", 1)[0]
            layer_self[layer] = layer_self.get(layer, 0.0) + self_s
    else:
        values = {
            "wall_s": statistics.median(b["wall"] for b in plain),
            "latency_p50_s": statistics.median(lat),
            "latency_tail_s": value,
            "setup_s": statistics.median(x for b in plain for x in b["setups"]),
            "peak_rss_mb": max(b["rss"] for b in plain),
        }
        metrics = {k: {"value": v, "unit": END_TO_END[k]} for k, v in values.items()}
    result["metrics"] = metrics
    env = environment({"percentile": pct, "samples": n})
    if trace:
        env["layer_self_s"] = dict(sorted(layer_self.items(), key=lambda kv: -kv[1]))
        env["setup_s_traced"] = sum(traced[-1]["setups"])
        env["wall_s_traced"] = traced[-1]["wall"]
    env.update(workload=workload, batches=len(batches),
               wrong=[w for b in batches for w in b["wrong"]][:20])
    return result, env


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "taulab", "__init__.py")):
        print("error: no taulab sources under %s" % SRC, file=sys.stderr)
        return 2
    batches = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    result, env = summarize(args.workload, batches, bool(args.trace))
    print(json.dumps({"env": env}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
