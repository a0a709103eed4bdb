"""Benchmark worker: runs cases one at a time, sent as JSON lines on stdin.

Started by run.py with PYTHONPATH pointing at the checkout's src/. Each case
runs under a SIGALRM time budget; the process runs under an address-space
cap, so a case that outgrows it raises MemoryError here instead of taking
the machine's memory. With tracing on, every call the benchmark makes into a
layer of the package is wrapped in a span kept in memory and returned with
the case result.

Protocol, one JSON object per line each way:
  -> {"budget": s, "grams": [...]}      <- {"ready": true, "ref": s}
  -> {"case": {...}, "trace": bool, "budget": s}
                                 <- {"id", "status", "t", "ref", "out", "spans"}
"ref" is the time of calib.reference_s: at start-up the median of three
runs before the package is imported, for a case one run just before it.
  EOF ends the worker.
"""

from __future__ import annotations

import json
import os
import resource
import signal
import sys
import time

import cases
from calib import reference_s
from checks import digest

START_REF = sorted(reference_s() for _ in range(3))[1]

resource.setrlimit(resource.RLIMIT_AS, (cases.MEMORY_CAP, cases.MEMORY_CAP))

import mukai_entropy  # noqa: E402
from mukai_entropy import (  # noqa: E402
    K3LatticeModel,
    MukaiVector,
    SearchExhaustedError,
    char_poly,
    compose,
    ext_recursion_table,
    find_positive_orthogonal,
    gy_gap,
    orthogonal_complement_basis,
    radius_closed_form,
    signature_report,
    spectral_radius,
    spherical_twist_action,
    twist_tensor_action,
)


class OverBudget(BaseException):
    """Raised by SIGALRM; a BaseException so no handler in the package eats it."""


def _alarm(signum, frame):
    raise OverBudget()


class Tracer:
    """Spans [id, parent, name, start, end] of one case, kept in memory."""

    def __init__(self, on: bool):
        self.on = on
        self.spans = []
        self.stack = []

    def span(self, name: str):
        return _Span(self, name)


class _Span:
    def __init__(self, tracer: Tracer, name: str):
        self.tracer = tracer
        self.name = name

    def __enter__(self):
        tr = self.tracer
        if tr.on:
            self.rec = [len(tr.spans), tr.stack[-1] if tr.stack else None,
                        self.name, time.perf_counter(), None]
            tr.spans.append(self.rec)
            tr.stack.append(self.rec[0])

    def __exit__(self, *exc):
        tr = self.tracer
        if tr.on:
            self.rec[4] = time.perf_counter()
            tr.stack.pop()
        return False


class Worker:
    def __init__(self):
        self.models = {}

    def model(self, gram, tr: Tracer) -> K3LatticeModel:
        key = json.dumps(gram)
        if key not in self.models:
            with tr.span("lattice.model"):
                self.models[key] = K3LatticeModel(len(gram), gram)
        return self.models[key]

    def radius_of(self, matrix, tol, tr: Tracer) -> dict:
        with tr.span("spectral.char_poly"):
            cp = char_poly(matrix)
        bits = max(abs(c) for c in cp.coeffs).bit_length()
        with tr.span("spectral.spectral_radius"):
            r = spectral_radius(matrix, tol)
        return {"charpoly": digest([str(c) for c in cp.coeffs]), "bits": bits,
                "lo": str(r.lo), "hi": str(r.hi), "value": repr(r.value)}

    def word(self, case, tr):
        model = self.model(case["gram"], tr)
        with tr.span("isometries.construct"):
            action = twist_tensor_action(model)
        for s in case["word"]:
            with tr.span("isometries.construct"):
                twist = spherical_twist_action(model, MukaiVector.from_coords(s))
            with tr.span("isometries.compose"):
                action = compose(twist, action)
        return self.radius_of(action.matrix, case["tol"], tr)

    def phi(self, case, tr):
        model = self.model(case["gram"], tr)
        with tr.span("isometries.construct"):
            action = twist_tensor_action(model)
        out = self.radius_of(action.matrix, case["tol"], tr)
        with tr.span("spectral.radius_closed_form"):
            out["closed_form"] = str(radius_closed_form(case["d"]))
        return out

    def search(self, case, tr):
        model = self.model(case["gram"], tr)
        s = MukaiVector.from_coords(case["s"])
        with tr.span("lattice.complement"):
            basis = orthogonal_complement_basis(model, [s])
        with tr.span("orthosearch.find"):
            try:
                v = find_positive_orthogonal(model, s, case["bound"]).coords
            except SearchExhaustedError:
                v = None
        with tr.span("orthosearch.signature_report"):
            rep = signature_report(model, s)
        return {"v": v, "complement": [b.coords for b in basis],
                "signature": [rep.full.as_tuple(), rep.s_line.as_tuple(),
                              rep.s_perp.as_tuple()]}

    def gy(self, case, tr):
        rows = []
        for d in range(case["d_min"], case["d_max"] + 1):
            with tr.span("entropy.gy_gap"):
                rep = gy_gap(d)
            with tr.span("spectral.radius_closed_form"):
                closed = radius_closed_form(d)
            rows.append([d, repr(rep.lower_bound), repr(rep.log_rho),
                         repr(rep.gap), rep.certified, str(closed)])
        return {"rows": rows}

    def ext(self, case, tr):
        with tr.span("entropy.ext_table"):
            table = ext_recursion_table(case["d"], case["i"], case["k"],
                                        case["n_max"])
        return {"rows": [[r.n, r.top_degree, str(r.top_dim),
                          str(r.growth_bound), str(r.chi)]
                         for r in table.rows]}

    def models_case(self, case, tr):
        self.models.clear()
        for g in case["grams"]:
            self.model(g, tr)
        return {}

    def run(self, case, budget, trace) -> dict:
        tr = Tracer(trace)
        handler = {"word": self.word, "phi": self.phi, "search": self.search,
                   "gy": self.gy, "ext": self.ext,
                   "models": self.models_case}[case["kind"]]
        out, status = None, "ok"
        ref = reference_s()
        t0 = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, budget)
        try:
            with tr.span("case"):
                out = handler(case, tr)
        except OverBudget:
            status = "over_time"
        except MemoryError:
            status = "over_memory"
        except Exception as exc:  # reported back and judged wrong
            status, out = "error", repr(exc)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
        t = time.perf_counter() - t0
        for rec in tr.spans:  # spans cut short by the budget end there
            if rec[4] is None:
                rec[4] = t0 + t
        return {"id": case["id"], "status": status, "t": t, "ref": ref,
                "out": out, "spans": tr.spans}


def main() -> int:
    src = os.path.realpath(os.path.join(sys.argv[1], "src"))
    pkg = os.path.realpath(mukai_entropy.__file__)
    if not pkg.startswith(src + os.sep):
        print(f"worker: mukai_entropy imported from {pkg}, not {src}",
              file=sys.stderr)
        return 2
    signal.signal(signal.SIGALRM, _alarm)
    worker = Worker()
    init = json.loads(sys.stdin.readline())
    budget = init["budget"]
    for g in init["grams"]:
        worker.model(g, Tracer(False))
    print(json.dumps({"ready": True, "ref": START_REF}), flush=True)
    for line in sys.stdin:
        msg = json.loads(line)
        result = worker.run(msg["case"], msg.get("budget", budget),
                            msg.get("trace", False))
        print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
