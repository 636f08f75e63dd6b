"""One benchmark process: closed-loop passes over a workload's operations.

Usage: python3 perfbench/worker.py SPEC.json  (with the engine importable)

One client, one process, no threads: the next operation starts only when
the previous one has finished.  Each operation is timed alone, between two
timings of the reference kernel (``reference.py``), and its output is then
checked against its oracle outside the timed region.  Passes repeat until
another one would end after ``seconds`` (at least ``MIN_PASSES``).

With ``trace`` on, untraced passes alternate with passes under the
outside-in tracer, and the kernel probes run last with the tracer
removed.  The last line of stdout is one JSON object for ``run.py``.
"""

from __future__ import annotations

import hashlib
import json
import resource
import statistics
import sys
from pathlib import Path
from time import perf_counter

import qhopf.cli as cli
from qhopf import presets, repcat

import reference

MIN_PASSES = 3
MIN_TRACED_PASSES = 2
SCALAR_ORDERS = (1, 3, 4, 16)
SPAN_FAMILIES = ("cli.parse_text", "cli.emit", "qha.validate", "qha.derived",
                 "coend.coend_maps", "coend.factorisability", "modular.modular_data",
                 "fusion.verlinde_fusion", "repcat.verify_braided_hopf")


# ---------------------------------------------------------------------------
# oracles: each returns None when the output is right, else the reason


def _fusion_is_group_law(fusion: dict, n: int) -> bool:
    def parse(label):
        return int(label[1]), int(label[2])

    rows = fusion["table"]
    if len(rows) != n ** 6:
        return False
    for row in rows:
        (s1, t1), (s2, t2), (s3, t3) = parse(row["U"]), parse(row["V"]), parse(row["W"])
        want = int(s3 == (s1 + s2) % n and t3 == (t1 + t2) % n)
        if row["N"] != want:
            return False
    return True


def check_report(oracle: dict, code, out: Path) -> str | None:
    kind = oracle["type"]
    want_code = 1 if kind == "mutant" else 0
    if code != want_code:
        return f"exit code {code}, expected {want_code}"
    data = out.read_bytes()
    if kind == "digest":
        digest = hashlib.sha256(data).hexdigest()
        return None if digest == oracle["sha256"] else f"report bytes differ ({digest})"
    doc = json.loads(data)
    if kind == "mutant":
        located = [c for c in doc["check"]["checks"] if not c["ok"] and c["witness"]]
        return None if located else "no located witness for the failing axiom"
    if not doc["check"]["ok"]:
        return "axioms fail"
    fact = doc["factorisability"]
    if kind == "group":
        want = {"is_factorisable": False, "tests_agree": True, "rank_D": 1,
                "invariants_dim": oracle["order"]}
        got = {k: fact[k] for k in want}
        if got != want:
            return f"factorisability {got}, expected {want}"
        if doc["modular"] is not None or doc["fusion"] is not None:
            return "modular or fusion ran on a non-factorisable input"
        return None
    n = oracle["n"]
    want = {"is_factorisable": True, "tests_agree": True, "rank_D": n * n}
    got = {k: fact[k] for k in want}
    if got != want:
        return f"factorisability {got}, expected {want}"
    if doc["modular"]["lambda"] != oracle["lambda"]:
        return f"lambda {doc['modular']['lambda']}, expected {oracle['lambda']}"
    if not _fusion_is_group_law(doc["fusion"], n):
        return f"fusion table is not the Z/{n} x Z/{n} group law"
    return None


# ---------------------------------------------------------------------------
# operations and passes


def run_op(op: dict) -> tuple[float, str | None]:
    """Time one operation, then judge its output."""
    if op["kind"] == "braided":
        t0 = perf_counter()
        try:
            rep = repcat.verify_braided_hopf(presets.preset(op["preset"]).algebra)
        except Exception as e:  # a crash is a failed operation, not a dead run
            return perf_counter() - t0, f"{type(e).__name__}: {e}"
        dt = perf_counter() - t0
        return dt, None if rep.ok else f"verify_braided_hopf fails: {rep!r}"
    out = Path(op["out"])
    out.unlink(missing_ok=True)
    code = None
    t0 = perf_counter()
    try:
        cli.main(["report", *op["args"], "--out", str(out)])
    except SystemExit as e:
        code = e.code
    except Exception as e:  # a traceback is a failed operation
        return perf_counter() - t0, f"{type(e).__name__}: {e}"
    dt = perf_counter() - t0
    return dt, check_report(op["oracle"], code, out)


class Passes:
    """Runs passes, keeping each operation's time and the failures."""

    def __init__(self, ops: list[dict]):
        self.ops = ops
        self.attempted = 0
        self.errors: list[str] = []

    def one(self) -> dict[str, list[float]]:
        """One pass: each operation's wall time, and the same rescaled by
        the reference kernel timed before and after it."""
        wall, scaled = [], []
        ref = reference.kernel_s()
        for op in self.ops:
            dt, err = run_op(op)
            ref_after = reference.kernel_s()
            wall.append(dt)
            scaled.append(reference.scaled(dt, (ref + ref_after) / 2))
            ref = ref_after
            self.attempted += 1
            if err is not None:
                self.errors.append(f"{op['name']}: {err}")
        return {"wall": wall, "scaled": scaled}

    def until(self, seconds: float, min_passes: int) -> list[dict]:
        """Passes until another one would end after ``seconds``."""
        runs = []
        start = perf_counter()
        last = 0.0
        while len(runs) < min_passes or perf_counter() - start + last <= seconds:
            t0 = perf_counter()
            runs.append(self.one())
            last = perf_counter() - t0
        return runs

    def traced(self, seconds: float, min_rounds: int, tracer) -> tuple:
        """Alternating untraced and traced passes, so that both see the
        same machine; returns both pass lists and one sample per traced
        pass."""
        untraced, traced, samples = [], [], []
        start = perf_counter()
        last = 0.0
        while len(traced) < min_rounds or perf_counter() - start + last <= seconds:
            t0 = perf_counter()
            untraced.append(self.one())
            tracer.install()
            try:
                traced.append(self.one())
            finally:
                tracer.uninstall()
            samples.append(tracer.take())
            last = perf_counter() - t0
        return untraced, traced, samples


def pass_time(runs: list[dict], key: str = "scaled") -> float:
    """Time of one pass: the sum over operations of each one's median
    time in the run, so that a stall in one pass is discarded."""
    return sum(statistics.median(op) for op in zip(*(r[key] for r in runs)))


# ---------------------------------------------------------------------------
# traced run


def layer_metrics(samples: list[tuple], untraced: list[dict],
                  traced: list[dict], probes: dict[str, float]) -> tuple[dict, bool]:
    """Per-layer metrics per pass: self times are medians over the traced
    passes, counts come from the first (and must repeat in every other)."""
    counts_repeat = all(s[1:] == samples[0][1:] for s in samples)
    _, counts, muls, invs = samples[0]

    def self_s(family):
        return statistics.median(s[0].get(family, 0.0) for s in samples)

    m = {f"{f}_s": (self_s(f), "s") for f in SPAN_FAMILIES}
    dense = counts["tensorspace.dense_entries"]
    m.update({
        "tensorspace.ops": (counts["tensorspace.ops_calls"], "count"),
        "tensorspace.ops_s": (self_s("tensorspace.ops"), "s"),
        "tensorspace.nonzero_calls": (counts["tensorspace.nonzero_calls"], "count"),
        "tensorspace.dense_entries": (dense, "count"),
        "tensorspace.nnz_yielded": (counts["tensorspace.nnz_yielded"], "count"),
        "tensorspace.nnz_ratio": (counts["tensorspace.nnz_yielded"] / dense if dense else 0.0,
                                  "ratio"),
    })
    for o in SCALAR_ORDERS:
        m[f"exactmath.scalar_mul.o{o}"] = (muls[o], "count")
        m[f"exactmath.scalar_inv.o{o}"] = (invs[o], "count")
    for fam, work in (("echelon", "cells"), ("matmul", "mults"), ("kron", "cells")):
        key = f"exactmath.{fam}"
        m[f"{key}_calls"] = (counts[f"{key}_calls"], "count")
        m[f"{key}_s"] = (self_s(key), "s")
        m[f"{key}_{work}"] = (counts[f"{key}_{work}"], "count")
    m.update({k: (v, "us" if "_us." in k else "s") for k, v in probes.items()})
    m["trace.overhead_frac"] = (pass_time(traced) / pass_time(untraced) - 1, "ratio")
    other = sorted((set(muls) | set(invs)) - set(SCALAR_ORDERS))
    if other:
        print(f"scalar work at unlisted field orders {other}", file=sys.stderr)
    return {k: {"value": v, "unit": u} for k, (v, u) in m.items()}, counts_repeat


def main() -> int:
    spec = json.loads(Path(sys.argv[1]).read_text(encoding="utf-8"))
    passes = Passes(spec["ops"])
    seconds = spec["seconds"]
    result: dict = {}
    if not spec["trace"]:
        result["untraced"] = passes.until(seconds, MIN_PASSES)
    else:
        from tracer import Tracer
        import probes

        result["untraced"], result["traced"], samples = passes.traced(
            seconds, MIN_TRACED_PASSES, Tracer())
        result["layers"], result["counts_repeat"] = layer_metrics(
            samples, result["untraced"], result["traced"], probes.run(spec["seed"]))
    result["certify_s"] = pass_time(result["untraced"])
    result["certify_wall_s"] = pass_time(result["untraced"], "wall")
    result["attempted"] = passes.attempted
    result["errors"] = passes.errors
    result["peak_rss_mib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
