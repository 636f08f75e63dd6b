"""qhopf benchmark: certify each workload's inputs and report the metrics.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload presets --seed 1 --seconds 40 --trace 0

The seed makes the inputs (definition files written through the CLI
serialiser under ``.bench_build/perfbench``); the engine receives only
those files.  ``setup_s`` is measured in fresh interpreters, and the
passes run in one more fresh interpreter (``worker.py``).  The last line
of stdout is one JSON object: with ``--trace 0`` it carries the
end-to-end metrics, with ``--trace 1`` the per-layer ones.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

import reference

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_build" / "perfbench"

SETUP_SAMPLES = 5      # fresh-interpreter imports before and again after the passes
WORKER_TIMEOUT_S = 165


def import_samples(env: dict) -> list[tuple[float, float]]:
    """(import seconds, reference kernel seconds) of qhopf.cli, with click,
    in fresh interpreters."""
    return [reference.import_sample(env) for _ in range(SETUP_SAMPLES)]


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not (SRC / "qhopf" / "cli.py").is_file():
        print(f"error: the engine sources are missing ({SRC / 'qhopf'})", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import inputs

    if args.workload not in inputs.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; known: "
              f"{', '.join(inputs.WORKLOADS)}", file=sys.stderr)
        return 2

    workdir = WORK / f"{args.workload}-{args.seed}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    ops = inputs.make_ops(args.workload, args.seed, workdir)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(SRC)] + [p for p in [os.environ.get("PYTHONPATH")] if p]))

    setup = [] if args.trace else import_samples(env)
    spec = workdir / "spec.json"
    spec.write_text(json.dumps({"ops": ops, "seconds": args.seconds, "trace": args.trace,
                                "seed": args.seed}), encoding="utf-8")
    proc = subprocess.run([sys.executable, str(HERE / "worker.py"), str(spec)], env=env,
                          capture_output=True, text=True, timeout=WORKER_TIMEOUT_S)
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        print(f"error: worker exited with {proc.returncode}", file=sys.stderr)
        return 1
    res = json.loads(proc.stdout.splitlines()[-1])

    attempted, failed = res["attempted"], len(res["errors"])
    for err in res["errors"][:10]:
        print(f"failed: {err}", file=sys.stderr)
    correct = failed == 0 and res.get("counts_repeat", True)
    certify = res["certify_s"]
    print(f"{args.workload} seed {args.seed}: certify_s {certify:.4f} over "
          f"{len(res['untraced'])} passes (unscaled wall {res['certify_wall_s']:.4f})")
    if args.trace:
        metrics = res["layers"]
        print(f"traced passes {len(res['traced'])}, counts repeat: {res['counts_repeat']}, "
              f"trace.overhead_frac {metrics['trace.overhead_frac']['value']:.3f}")
    else:
        res["setup_samples"] = setup = setup + import_samples(env)
        setup_wall = statistics.median(imp for imp, _ in setup)
        setup = statistics.median(reference.scaled(imp, ref) for imp, ref in setup)
        metrics = {
            "certify_s": {"value": certify, "unit": "s"},
            "setup_s": {"value": setup, "unit": "s"},
            "peak_rss_mib": {"value": res["peak_rss_mib"], "unit": "MiB"},
        }
        print(f"setup_s {setup:.4f} (unscaled wall {setup_wall:.4f}), "
              f"peak_rss_mib {res['peak_rss_mib']:.1f}")
    print(f"failed_frac {failed / attempted:.4f} ({failed} of {attempted} operations)")
    (workdir / "result.json").write_text(json.dumps(res, indent=1), encoding="utf-8")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
