#!/usr/bin/env python3
"""fibervox benchmark.

    python3 perfbench/run.py --workload desk --seed 0 --seconds 30 --trace 0

Runs one workload of workloads.py in this one process, as a closed loop: the
set-up several times, then one pass after another, never two at once, until
--seconds have passed and at least two passes have followed the first. The
first pass is a warm-up: it runs cold (fresh heap, first calls) and is left
out of wall_s, the median of the passes after it. --seed sets model.seed and
degrade.noise_seed, as the CLI's --seed does.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics. With --trace 0 the metrics are the end-to-end
metrics BENCHMARK.json lists; with --trace 1 they are its per-layer metrics,
taken from passes with every public fibervox call wrapped in a span, which
alternate with untraced passes after the warm-up (traced, untraced, ...) so
that the tracing overhead can be reported.
The spans of a traced run are written to .bench_out/. Names and units come
from BENCHMARK.json, so a metric it lists and this file does not compute is
an error.

fibervox is imported from the src/ directory beside this one. Without it the
benchmark prints an error and exits with status 2.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from contextlib import ExitStack, nullcontext
from pathlib import Path

# One thread per process: no BLAS or OpenMP worker threads beside the loop.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
OUT = ROOT / ".bench_out"
SETUP_REPS = 5
MIN_TIMED_PASSES = 2


def import_fibervox():
    """Import fibervox from SRC, never from an installed copy."""
    if not (SRC / "fibervox" / "__init__.py").is_file():
        raise ImportError(f"no fibervox sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import fibervox
    if Path(fibervox.__file__).resolve().parent != (SRC / "fibervox").resolve():
        raise ImportError(f"fibervox was imported from {fibervox.__file__}, not {SRC}")
    return fibervox


def cold_import() -> None:
    """Import fibervox in a fresh interpreter: the start-up every CLI stage
    pays, and a cost that work moved to import time would raise."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    subprocess.run([sys.executable, "-c", "import fibervox"], env=env, cwd=ROOT, check=True)


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 tiny: bool = False) -> tuple[dict, list[str]]:
    """Run one workload; return the result object and report lines."""
    fibervox = import_fibervox()
    from spans import Tracer
    from speed import normalized, reference_seconds
    from workloads import (WORKLOADS, Artifacts, Checks, alloc_peaks, check_outputs,
                           load_config, model_fields, run_pass)

    if name not in WORKLOADS:
        raise ValueError(f"unknown workload {name!r}; choose from {sorted(WORKLOADS)}")
    w = WORKLOADS[name]
    checks = Checks()
    tracer = Tracer() if trace else None

    def traced(phase: str, on: bool = True):
        """Instrument fibervox and open a top-level span, when tracing."""
        if tracer is None or not on:
            return nullcontext()
        stack = ExitStack()
        stack.enter_context(tracer.instrumented(fibervox))
        stack.enter_context(tracer.span(phase))
        return stack

    WORK.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=WORK))
    try:
        cfg = load_config(ROOT, w, seed, tiny)
        model = None
        pre = {}
        if w.pack == "prologue":
            # The desk pack's cost is a lottery over seeds (one stalled fiber
            # can burn 150 000 rejected offers), so it is run once, untimed.
            with traced("prologue"):
                model = fibervox.fibers.generate_model(cfg.model_params())
            pre = model_fields(model)

        # Every timed interval runs between two runs of the reference kernel
        # (speed.py); the end-to-end times are scaled by how fast it ran.
        refs = [reference_seconds()]
        setup_raw, setup_norm = [], []
        for _ in range(SETUP_REPS):
            gc.collect()
            t0 = time.perf_counter()
            with traced("setup"):
                cold_import()
                cfg = load_config(ROOT, w, seed, tiny)
            setup_raw.append(time.perf_counter() - t0)
            refs.append(reference_seconds())
            setup_norm.append(normalized(setup_raw[-1], refs[-2], refs[-1]))

        # Pass 0 is the warm-up: untimed and without the reference around it,
        # so that peak_rss_mb, read after it, holds the set-up and one pass.
        # After it, a traced run alternates traced and untraced passes,
        # starting with a traced one.
        times = {False: [], True: []}
        norm_times = []
        results = []
        first_digest = None
        last = None
        start = time.perf_counter()
        while True:
            on = trace and len(results) % 2 == 1
            gc.collect()
            art = Artifacts(work / f"pass-{len(results)}", checks)
            if results:
                refs.append(reference_seconds())
            t0 = time.perf_counter()
            with traced("pass", on):
                res = run_pass(w, cfg, model, art, checks)
            elapsed = time.perf_counter() - t0
            if results:
                refs.append(reference_seconds())
                times[on].append(elapsed)
                if not on:
                    norm_times.append(normalized(elapsed, refs[-2], refs[-1]))
            else:
                warmup = elapsed
                # Set-up plus one pass is what one CLI run of the chain holds;
                # later passes only add heap fragmentation.
                peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            check_outputs(w, art, res, checks)
            digest, res["bytes_written"] = art.digest()
            if first_digest is None:
                first_digest = digest
            checks.check("pass artifacts identical to pass 1", digest == first_digest)
            results.append(res)
            if last is not None:
                shutil.rmtree(last.dir)
            last = art
            done = time.perf_counter() - start >= seconds
            if done and len(results) > MIN_TIMED_PASSES:
                break
        peaks = alloc_peaks(cfg, last) if trace and w.volumes else {}
    finally:
        shutil.rmtree(work, ignore_errors=True)

    answers = {**pre, **results[0]}
    wall = statistics.median(times[False])
    values = {
        "norm_wall_s": statistics.median(norm_times),
        "setup_s": statistics.median(setup_norm),
        "peak_rss_mb": peak_rss_mb,
        "raw_setup_s": statistics.median(setup_raw),
        "ref_s": statistics.median(refs),
    }
    if trace:
        values.update(layer_values(tracer, answers, peaks, w, cfg, times, checks))
        OUT.mkdir(exist_ok=True)
        tracer.write_jsonl(OUT / f"spans-{name}-seed{seed}.jsonl")

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = bench["per_layer"] if trace else bench["end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    result = {"correct": checks.failed == 0, "attempted": checks.attempted,
              "failed": checks.failed, "metrics": metrics}

    lines = [
        f"workload {name} seed {seed} trace {int(trace)}",
        f"norm_wall_s median {values['norm_wall_s']:.4f} s over {len(norm_times)} untraced"
        f" pass(es); raw median {wall:.4f} s"
        + (f"; {statistics.median(times[True]):.4f} s over {len(times[True])} traced"
           if trace else ""),
        "untraced pass times " + " ".join(f"{t:.3f}" for t in times[False])
        + f" s; warm-up {warmup:.3f} s",
        f"reference kernel median {values['ref_s']:.4f} s over {len(refs)} runs,"
        f" {min(refs):.4f}-{max(refs):.4f} s",
        f"setup_s median {values['setup_s']:.4f} s over {SETUP_REPS} set-ups;"
        f" raw median {values['raw_setup_s']:.4f} s",
        "results " + " ".join(f"{k}={v:.6g}" if isinstance(v, float) else f"{k}={v}"
                              for k, v in sorted(answers.items())),
        f"checks attempted={checks.attempted} failed={checks.failed}",
        *(f"FAILED {f}" for f in checks.failures),
    ]
    return result, lines


def layer_values(tracer, answers: dict, peaks: dict, w, cfg, times: dict, checks) -> dict:
    """Per-layer values: span totals per phase (median over the traced
    passes, the set-ups or the prologue, whichever ran the layer), counts,
    the result fields and the tracing overhead. Layers a workload does not
    run read 0."""
    totals: dict[str, float] = {}
    for phase in ("pass", "setup", "prologue"):
        per = tracer.phase_totals(phase)
        for key in set().union(*per):
            if key not in totals:
                totals[key] = statistics.median(t.get(key, 0.0) for t in per)
    untraced = statistics.median(times[False])
    traced = statistics.median(times[True])
    target = cfg.raw["model"]["target_fraction"]
    attempts = totals.get("generate_model.attempts", 0)
    fibers = totals.get("generate_model.fibers", 0)
    values = {key: totals.get(key, 0.0) for key in (
        "generate_model.s", "audit_model.s", "model_statistics.s", "write_fibers_csv.s",
        "read_fibers_csv.s", "write_stl.s", "rasterize_labels.s", "rasterize_attenuation.s",
        "degrade.s", "simulate_fbp.s", "simulate_fbp.self_s", "radon_slice.s",
        "fbp_slice.s", "annotations_from_fibers.s", "render_polylines.s", "region_grow.s",
        "frangi_multiscale.s", "frangi_multiscale.self_s", "hessian_at_scale.s",
        "frangi_response.s", "structure_tensor_orientation.s", "binarize.s",
        "connected_components.s", "evaluate.s", "write_volume.s", "read_volume.s",
        "pass.self_s")}
    values.update({
        "attempts": attempts,
        "fibers": fibers,
        "accept_ratio": fibers / attempts if attempts else 0.0,
        "segment_distance_sq.calls": totals.get("generate_model.segment_distance_sq.calls", 0),
        "segment_distance_sq.rows": totals.get("generate_model.segment_distance_sq.rows", 0),
        "stl_bytes": totals.get("write_stl.stl_bytes", 0),
        "components": totals.get("connected_components.components", 0),
        "contingency_cells": totals.get("contingency_table.contingency_cells", 0),
        "frangi_multiscale.peak_alloc_mb": peaks.get("frangi_multiscale.peak_alloc_mb", 0.0),
        "evaluate.peak_alloc_mb": peaks.get("evaluate.peak_alloc_mb", 0.0),
        "bytes_written": answers["bytes_written"],
        "vf_gap": (target - answers["vf"]) / target,
        "dice": answers.get("dice", 0.0),
        "ari": answers.get("ari", 0.0),
        "annotate_dice": answers.get("annotate_dice", 0.0),
        "fbp_rmse": answers.get("fbp_rmse", 0.0),
        "fibers_per_s": answers["fibers"] / untraced,
        "mvox_per_s": cfg.grid_spec().voxel_count / 1e6 / untraced if w.volumes else 0.0,
        "error_rate": checks.failed / max(1, checks.attempted),
        "trace.spans": totals.get("spans", 0),
        "trace.wall_s": traced,
        "trace.untraced_wall_s": untraced,
        "trace.overhead_s": traced - untraced,
    })
    return values


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        result, lines = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    except (ImportError, ValueError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    for line in lines:
        print(line)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
