"""Benchmark driver for mukai-entropy.

    python3 bench/run.py --workload radius --seed 1 --seconds 30 --trace 0

Runs from the root of a checkout: the package is imported from ./src, by a
worker process (worker.py) started with PYTHONPATH=src, one at a time. The
workload's fixed case list (cases.py) runs in closed-loop passes, one case
at a time, until another pass would overrun --seconds. Case times are
scaled to a nominal host speed (calib.py), and a case's time is its median
over the passes. Every output is checked against golden.json and by the
independent checks in checks.py.
The last line of stdout is one JSON object with the metrics: the
end-to-end ones with --trace 0, the per-layer ones with --trace 1.
README.md lists the metrics and which workload each one should move.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import resource
import select
import statistics
import subprocess
import sys
import time

from cases import (BUDGET_S, CASES, CLIFF_BUDGET_S, MEMORY_CAP, WORKLOADS,
                   cliff_cases)
from calib import REF_NOMINAL_S
from checks import CHECKS, digest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".bench_out")
SETUPS = 7          # worker set-ups per run; setup_s is their median
GRACE_S = 10.0      # beyond the budget before a silent worker is killed
CLI_PROBES = 5      # bare-start and import samples in a traced run

# Spans the worker records; each gives the per-layer metric "<name>_s".
LAYER_SPANS = (
    "spectral.spectral_radius", "spectral.char_poly",
    "spectral.radius_closed_form", "isometries.construct",
    "isometries.compose", "lattice.model", "lattice.complement",
    "orthosearch.find", "orthosearch.signature_report", "entropy.ext_table",
    "entropy.gy_gap",
)


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    # One thread per child: the host has few cores and runs the driver too.
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def _cap_memory():
    resource.setrlimit(resource.RLIMIT_AS, (MEMORY_CAP, MEMORY_CAP))


def case_key(case: dict) -> str:
    return digest({k: v for k, v in case.items() if k != "id"})


class Worker:
    """One worker process; `start` returns its set-up time in seconds,
    scaled to the nominal host speed by the reference the worker timed
    at start-up (calib.py)."""

    def __init__(self, grams, budget):
        self.grams, self.budget, self.proc = grams, budget, None

    def start(self) -> float:
        t0 = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, os.path.join(HERE, "worker.py"), ROOT],
            cwd=ROOT, env=_env(), stdin=subprocess.PIPE,
            stdout=subprocess.PIPE, text=True)
        self._send({"budget": self.budget, "grams": self.grams})
        reply = self._recv(GRACE_S + 60)
        if not (reply and reply.get("ready")):
            self.stop()
            raise RuntimeError("worker did not start; is src/ present?")
        return (time.perf_counter() - t0) * REF_NOMINAL_S / reply["ref"]

    def _send(self, msg):
        self.proc.stdin.write(json.dumps(msg) + "\n")
        self.proc.stdin.flush()

    def _recv(self, timeout):
        ready, _, _ = select.select([self.proc.stdout], [], [], timeout)
        line = self.proc.stdout.readline() if ready else ""
        return json.loads(line) if line else None

    def run(self, case, trace, budget) -> dict:
        """Result of one case; a worker that goes silent is replaced."""
        self._send({"case": case, "trace": trace, "budget": budget})
        result = self._recv(budget + GRACE_S)
        if result is None:
            status = "over_time" if self.proc.poll() is None else "error"
            self.stop()
            self.start()
            return {"id": case["id"], "status": status, "t": budget,
                    "ref": REF_NOMINAL_S, "out": None, "spans": []}
        return result

    def stop(self):
        if self.proc is None:
            return
        self.proc.stdin.close()
        try:
            self.proc.wait(timeout=GRACE_S)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()
        self.proc = None


# Runs `python -m mukai_entropy.cli ARGV` by way of runpy, as -m does, after
# timing calib.reference_s in the same process, and reports that time as the
# last line of stderr. The host's two vCPUs can be in different speed phases,
# so the reference must run where the call runs.
CLI_MAIN = """\
import runpy, sys
sys.path.insert(0, sys.argv.pop(1))
from calib import reference_s
ref = reference_s()
try:
    runpy.run_module("mukai_entropy.cli", run_name="__main__", alter_sys=True)
finally:
    sys.stderr.write(f"\\nref {ref!r}\\n")
"""


def run_cli(argv, budget) -> dict:
    """One CLI call, timed from spawn to exit.

    The call is its own span, so traced cli runs list every call."""
    t0 = time.perf_counter()
    proc = subprocess.Popen([sys.executable, "-c", CLI_MAIN, HERE, *argv],
                            cwd=ROOT, env=_env(), stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, preexec_fn=_cap_memory)
    try:
        stdout, stderr = proc.communicate(timeout=budget)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        return {"status": "over_time", "t": budget, "ref": REF_NOMINAL_S,
                "out": None}
    t1 = time.perf_counter()
    ref = stderr.decode().rsplit("\nref ", 1)[-1]
    return {"status": "ok", "t": t1 - t0, "ref": float(ref),
            "out": {"code": proc.returncode,
                    "stdout": hashlib.sha256(stdout).hexdigest()[:16]},
            "spans": [[0, None, "cli.call", t0, t1]]}


def judge(case, result, pinned) -> str:
    """'ok', 'over_budget' or 'wrong' for one finished or stopped case."""
    if result["status"] in ("over_time", "over_memory"):
        return "over_budget"
    if result["status"] != "ok":
        print(f"  {case['id']}: {result['out']}", file=sys.stderr)
        return "wrong"
    out = result["out"]
    if pinned is not None and digest(out) != pinned:
        print(f"  {case['id']}: output differs from golden.json", file=sys.stderr)
        return "wrong"
    if case["kind"] == "cli":
        return "ok" if out["code"] in (0, 2, 3, 4) else "wrong"
    problems = CHECKS[case["kind"]](case, out)
    if problems:
        print(f"  {case['id']}: {'; '.join(problems)}", file=sys.stderr)
    return "wrong" if problems else "ok"


class Runner:
    def __init__(self, workload, seed):
        self.workload = workload
        self.budget = BUDGET_S[workload]
        self.cases = CASES[workload](seed)
        with open(os.path.join(HERE, "golden.json"), encoding="utf-8") as fh:
            self.golden = json.load(fh).get(workload, {})
        grams = [c["gram"] for c in self.cases if "gram" in c]
        self.grams = [json.loads(g) for g in dict.fromkeys(map(json.dumps, grams))]
        self.worker = Worker(self.grams, self.budget)
        self.setups = []

    def setup(self):
        """Start the worker SETUPS times; the last one stays up for the cases."""
        for i in range(SETUPS):
            self.setups.append(self.worker.start())
            if i < SETUPS - 1 or self.workload == "cli":
                self.worker.stop()

    def run_case(self, case, trace, budget=None) -> dict:
        budget = budget or self.budget
        if case["kind"] == "cli":
            return run_cli(case["argv"], budget)
        if self.worker.proc is None:  # cli runs keep no worker up
            self.worker.start()
        return self.worker.run(case, trace, budget)

    def one_pass(self, cases, trace=False, cliff=False) -> list[dict]:
        """Run `cases` once; a cliff case gets CLIFF_BUDGET_S, and running
        out is its expected outcome, not a failure."""
        records = []
        for case in cases:
            budget = CLIFF_BUDGET_S if cliff else None
            result = self.run_case(case, trace, budget)
            result["verdict"] = judge(case, result,
                                      self.golden.get(case_key(case)))
            result["id"] = case["id"]
            result["failed"] = result["verdict"] == "wrong" or (
                result["verdict"] == "over_budget" and not cliff)
            records.append(result)
        return records


def tail(ts):
    """(percentile, value): the highest percentile with >= 10 cases beyond."""
    n = len(ts)
    q = 100 * (n - 10) // n if n > 10 else 50
    rank = max(1, math.ceil(q * n / 100))
    return q, sorted(ts)[rank - 1]


def end_to_end(setups, passes) -> dict:
    """Case times of a pass are scaled by REF_NOMINAL_S over the pass's mean
    reference time, which takes out the host's slow phases; a case's time
    is then its median over the passes. Wall time and percentiles are taken
    over those per-case times."""
    scale = [REF_NOMINAL_S * len(p) / sum(r["ref"] for r in p) for p in passes]
    best = [statistics.median(p[i]["t"] * f for p, f in zip(passes, scale))
            for i in range(len(passes[0]))]
    q, t_tail = tail(best)
    rss_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    walls = [sum(r["t"] for r in p) for p in passes]
    print(f"passes: {len(passes)}, cases per pass: {len(best)}, tail "
          f"percentile: p{q}, unscaled pass wall s: min {min(walls):.4g} "
          f"median {statistics.median(walls):.4g}, host speed scale: "
          f"{min(scale):.3g}..{max(scale):.3g}")
    return {
        "setup_s": (statistics.median(setups), "s"),
        "wall_s": (sum(best), "s"),
        "case_p50_s": (statistics.median(best), "s"),
        "case_tail_s": (t_tail, "s"),
        "peak_rss_mb": (rss_kb / 1024, "MB"),
    }


def outcome(records) -> dict:
    """Attempted and failed counts, and the over-budget and wrong case ids."""
    failed = sum(r["failed"] for r in records)
    return {
        "attempted": len(records), "failed": failed,
        "failed_frac": failed / len(records),
        "over_budget": sorted({r["id"] for r in records
                               if r["verdict"] == "over_budget"}),
        "wrong": sorted({r["id"] for r in records if r["verdict"] == "wrong"}),
    }


def probe_cases(workload) -> list[dict]:
    """First case of each other workload, so each traced run covers every layer."""
    out = []
    for other in WORKLOADS:
        if other in (workload, "cli"):
            continue
        cases = CASES[other](0)
        out.append(cases[0])
        if other == "radius":
            out.append(next(c for c in cases if c["kind"] == "phi"))
        if other == "sweep":
            out.append(next(c for c in cases if c["kind"] == "ext"))
    return out


def self_times(records) -> dict:
    """Per-layer self time: span length minus the time its children cover."""
    totals = {}
    for rec in records:
        spans = rec.get("spans", [])
        child = [0.0] * len(spans)
        for sid, parent, name, start, end in spans:
            if parent is not None:
                child[parent] += end - start
        for sid, parent, name, start, end in spans:
            totals[name] = totals.get(name, 0.0) + (end - start) - child[sid]
    return totals


def per_layer(plain, traced, probe, cliffs, cli_times) -> dict:
    records = traced + probe + cliffs
    totals = self_times(records)
    spans = [s for r in records for s in r.get("spans", [])]
    outs = [r["out"] for r in records if r.get("out")]
    metrics = {f"{name}_s": (totals.get(name, 0.0), "s") for name in LAYER_SPANS}
    metrics["spectral.radius_calls"] = (
        sum(s[2] == "spectral.spectral_radius" for s in spans), "count")
    metrics["spectral.charpoly_coeff_bits"] = (
        max([o["bits"] for o in outs if "bits" in o] or [0]), "bits")
    metrics["isometries.compose_calls"] = (
        sum(s[2] == "isometries.compose" for s in spans), "count")
    metrics["orthosearch.over_budget_n"] = (sum(
        r.get("verdict") == "over_budget" and r["id"].startswith("search")
        for r in records), "count")
    metrics["cli.interp_s"] = (cli_times["interp"], "s")
    metrics["cli.import_s"] = (cli_times["import"] - cli_times["interp"], "s")
    metrics["cli.call_s"] = (cli_times["call"], "s")
    plain_wall = sum(r["t"] for r in plain)
    metrics["trace_overhead_frac"] = (
        sum(r["t"] for r in traced) / plain_wall - 1, "frac")
    metrics["over_budget_n"] = (
        sum(r["verdict"] == "over_budget" for r in traced + cliffs), "count")
    metrics["wrong_n"] = (sum(r["verdict"] == "wrong" for r in traced), "count")
    return metrics


def cli_layer(traced) -> dict:
    """Bare interpreter start, package import, and a CLI call, median each."""
    def timed(args):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, *args], cwd=ROOT, env=_env(),
                       check=True, stdout=subprocess.DEVNULL)
        return time.perf_counter() - t0
    interp = statistics.median(timed(["-c", "pass"]) for _ in range(CLI_PROBES))
    imp = statistics.median(timed(["-c", "import mukai_entropy"])
                            for _ in range(CLI_PROBES))
    calls = [r["t"] for r in traced if r["id"].startswith("cli-")]
    if not calls:
        calls = [run_cli(c["argv"], BUDGET_S["cli"])["t"]
                 for c in CASES["cli"](0)[:CLI_PROBES]]
    return {"interp": interp, "import": imp, "call": statistics.median(calls)}


def write_trace(workload, seed, records):
    os.makedirs(OUT_DIR, exist_ok=True)
    spans = [{"case": r["id"], "id": s[0], "parent": s[1], "name": s[2],
              "start": s[3], "end": s[4]}
             for r in records for s in r.get("spans", [])]
    path = os.path.join(OUT_DIR, f"trace-{workload}-{seed}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(spans, fh)
    return path


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "mukai_entropy", "__init__.py")):
        print(f"no package source under {SRC}", file=sys.stderr)
        return 2

    runner = Runner(args.workload, args.seed)
    try:
        runner.setup()
        t_start = time.perf_counter()
        passes = [runner.one_pass(runner.cases)]
        if args.trace:
            models = runner.run_case({"id": "models", "kind": "models",
                                      "grams": runner.grams}, trace=True)
            traced = runner.one_pass(runner.cases, trace=True)
            probe = runner.one_pass(probe_cases(args.workload), trace=True)
            cliffs = runner.one_pass(cliff_cases(args.workload, args.seed),
                                     trace=True, cliff=True)
            records = passes[0] + traced + probe + cliffs
        else:
            pass_s = time.perf_counter() - t_start
            while time.perf_counter() - t_start + pass_s <= args.seconds:
                passes.append(runner.one_pass(runner.cases))
            records = [r for p in passes for r in p]
    finally:
        runner.worker.stop()

    info = outcome(records)
    for key, value in info.items():
        print(f"{args.workload} {key}: {value}")
    if args.trace:
        metrics = per_layer(passes[0], traced, [models] + probe, cliffs,
                            cli_layer(traced))
        path = write_trace(args.workload, args.seed,
                           [models] + traced + probe + cliffs)
        print(f"spans written to {path}")
    else:
        metrics = end_to_end(runner.setups, passes)
    for name, (value, unit) in metrics.items():
        print(f"{args.workload} {name} = {value:.6g} {unit}")
    result = {
        "correct": not info["wrong"],
        "attempted": info["attempted"],
        "failed": info["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
