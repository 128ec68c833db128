"""Meshing benchmark: one workload, one seed, one process.

Run from the repository root:

    python3 bench/run.py --workload cylinder_mesh --seed 1 --seconds 15 --trace 0

Set-up (bench/make_input.py, run five times in a fresh interpreter and
timed from start to exit) imports voidhex from ./src, builds the workload's
bed and writes it as a centers file. The run then repeats whole operations
(one bed through the workload's pipeline, then the independent checks)
until --seconds have passed, at least once. The last line of standard
output is one JSON object: with --trace 0 it carries the end-to-end
metrics; with --trace 1 a traced operation follows the untraced ones and
the per-layer metrics are reported instead, with the spans written to
bench/out/.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

SETUP_REPEATS = 5


class _RevertCounter(logging.Handler):
    """Counts the tessellator's smoothing-revert warnings."""

    def __init__(self):
        super().__init__(level=logging.WARNING)
        self.count = 0

    def emit(self, record):
        if "reverting" in record.getMessage():
            self.count += 1


def _oplog_counts(path) -> dict:
    counts = {"collapse": 0, "collapse_skipped": 0, "guard_push": 0, "inserted": 0}
    with open(path) as fh:
        for line in fh:
            rec = json.loads(line)
            if rec["op"] == "insert":
                counts["inserted"] += len(rec["new_vertices"])
            elif rec["op"] in counts:
                counts[rec["op"]] += 1
    return counts


def _traced_metrics(wl, workloads, centers, out_dir, tag, untraced_run_s):
    """One traced operation; returns its per-layer metrics."""
    from spans import Tracer
    from voidhex.hexgen import audit_conformal

    reverts = _RevertCounter()
    tess_log = logging.getLogger("voidhex.tessellate")
    oplog = out_dir / f"{tag}-oplog.jsonl"
    tess_log.addHandler(reverts)
    try:
        with Tracer() as tracer:
            out = workloads.run_op(wl, centers, tracer, oplog_path=oplog)
            audit = None
            if out.mesh is not None:
                with tracer.span("hexgen.audit_conformal", memory=True):
                    audit = audit_conformal(out.mesh)
    finally:
        tess_log.removeHandler(reverts)
    with tracer.span("bench.check"):
        quality, _ = workloads.check_op(wl, out)
    ops = _oplog_counts(oplog)
    oplog.unlink()
    tracer.dump(out_dir / f"{tag}-spans.json", workload=wl.name, tag=tag)

    op_span = next(s for s in tracer.spans if s["name"] == "op")
    traced_run_s = op_span["end"] - op_span["start"]
    mesh = out.mesh
    attempts = ops["collapse"] + ops["collapse_skipped"]
    metrics = {
        "bed.precondition_s": (tracer.total("bed."), "s"),
        "voronoi.ghosts_s": (tracer.total("voronoi.generate_ghosts"), "s"),
        "voronoi.cells_s": (tracer.total("voronoi.build_cells"), "s"),
        "voronoi.cells": (out.cells.n_real, "count"),
        "voronoi.facets": (out.facets_built, "count"),
        "repair.total_s": (tracer.total("repair."), "s"),
        "repair.peak_mb": (tracer.peak_mb("repair."), "MB"),
        "repair.collapses": (ops["collapse"], "count"),
        "repair.collapses_skipped": (ops["collapse_skipped"], "count"),
        "repair.collapse_yield": (ops["collapse"] / attempts if attempts else 0.0, "1"),
        "repair.inserted_vertices": (ops["inserted"], "count"),
        "repair.guard_pushes": (ops["guard_push"], "count"),
        "tessellate.total_s": (tracer.total("tessellate."), "s"),
        "tessellate.peak_mb": (tracer.peak_mb("tessellate."), "MB"),
        "tessellate.quads": (sum(len(p.quads) for p in out.quads.patches.values())
                             if out.quads is not None else 0, "count"),
        "tessellate.nodes": (len(out.quads.nodes) if out.quads is not None else 0, "count"),
        "tessellate.smooth_reverts": (reverts.count, "count"),
        "hexgen.sweep_s": (tracer.total("hexgen.sweep"), "s"),
        "hexgen.refine_s": (tracer.total("hexgen.refine_radial"), "s"),
        "hexgen.extrude_s": (tracer.total("hexgen.extrude_layers"), "s"),
        "hexgen.audit_s": (tracer.total("hexgen.audit_conformal"), "s"),
        "hexgen.peak_mb": (max(tracer.peak_mb(f"hexgen.{s}")
                               for s in ("sweep", "refine_radial", "extrude_layers")), "MB"),
        "hexgen.hexes": (len(mesh.elements) if mesh is not None else 0, "count"),
        "hexgen.nodes": (len(mesh.nodes) if mesh is not None else 0, "count"),
        "hexgen.boundary_faces": (audit["boundary_faces"] if audit else 0, "count"),
        "hexgen.inverted_hexes": (int((quality <= 0).sum()) if mesh is not None else 0,
                                  "count"),
        "hexgen.min_scaled_jacobian": (float(quality.min()) if mesh is not None else 0.0, "1"),
        "trace.overhead_s": (traced_run_s - untraced_run_s, "s"),
    }
    return metrics


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "voidhex" / "__init__.py").is_file():
        print("bench: src/voidhex not found; run from the repository root", file=sys.stderr)
        return 2
    out_dir = root / "bench" / "out"
    out_dir.mkdir(parents=True, exist_ok=True)

    sys.path.insert(0, str(root / "src"))
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"bench: unknown workload {args.workload!r}; "
              f"choose from {', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    wl = workloads.WORKLOADS[args.workload]
    tag = f"{wl.name}-seed{args.seed}-pid{os.getpid()}"
    centers = out_dir / f"{tag}.xyz"

    try:
        # set-up, several times over, each in a fresh interpreter
        setup_times = []
        for _ in range(SETUP_REPEATS):
            t = time.perf_counter()
            subprocess.run([sys.executable, str(Path(__file__).with_name("make_input.py")),
                            wl.name, str(args.seed), str(centers)], check=True)
            setup_times.append(time.perf_counter() - t)
        result = _run(args, wl, workloads, centers, out_dir, tag,
                      statistics.median(setup_times))
    finally:
        centers.unlink(missing_ok=True)
    if result is None:
        return 1
    print(json.dumps(result))
    return 0


def _run(args, wl, workloads, centers, out_dir, tag, setup_s):
    """Whole operations until the run length is used up, then the result."""
    import numpy as np
    from spans import NullTracer

    attempted = failed = 0
    correct = True
    run_times, quality, n_elements = [], None, None
    start = time.perf_counter()
    while attempted == 0 or time.perf_counter() - start < args.seconds:
        attempted += 1
        try:
            t = time.perf_counter()
            out = workloads.run_op(wl, centers, NullTracer())
            dt = time.perf_counter() - t
        except Exception:
            failed += 1
            traceback.print_exc()
            continue
        try:
            quality, n_elements = workloads.check_op(wl, out)
        except workloads.checks.CheckError as exc:
            failed += 1
            correct = False
            print(f"bench: check failed: {exc}", file=sys.stderr)
            continue
        finally:
            del out  # free this mesh before the next operation builds one
        run_times.append(dt)
    if not run_times:
        print(f"bench: all {attempted} operations failed", file=sys.stderr)
        return None
    run_s = statistics.median(run_times)

    if args.trace:
        attempted += 1
        metrics = _traced_metrics(wl, workloads, centers, out_dir, tag, run_s)
    else:
        metrics = {
            "setup_s": (setup_s, "s"),
            "run_s": (run_s, "s"),
            "elements_per_s": (n_elements / run_s, "1/s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
            "quality_p05": (float(np.percentile(quality, 5)), "1"),
        }
    return {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


if __name__ == "__main__":
    sys.exit(main())
