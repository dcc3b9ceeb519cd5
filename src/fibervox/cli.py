"""Command-line pipeline front-end.

Subcommands chain through files on disk, so any pipeline prefix can be
resumed: generate -> rasterize -> degrade/fbp -> annotate -> segment ->
evaluate -> stats. Every stage prints a one-line JSON summary on success and
``error stage=<name>: <message>`` on stderr with a nonzero exit otherwise.
Every artifact is written to a temporary file and moved into place with
``os.replace``, and recorded in the list ``main`` sets in ``volume.WRITTEN``,
as is each output directory a stage makes. A failed stage removes the
recorded files, and never one it failed to replace, then the recorded
directories left empty; so does a stage stopped by Ctrl-C or SIGTERM.
"""

from __future__ import annotations

import argparse
import json
import signal
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .annotate import annotations_from_fibers, read_annotations, region_grow, render_polylines
from .config import PipelineConfig
from .ctsim import degrade, fibers_outside, rasterize, simulate_fbp, write_sinogram
from .fibers import (FiberModel, generate_model, label_statistics, model_statistics,
                     read_fibers_csv, stats_document, write_fibers_csv)
from .mesh import write_stl
from .metrics import evaluate
from .vesselness import (binarize, check_binarize, check_orientation, connected_components,
                         frangi_multiscale, structure_tensor_orientation, write_orientation_field)
from .volume import (FORMAT_VERSION, WRITTEN, LabelVolume, Volume, _check_number, read_volume,
                     write_files, write_volume)


def _write_json(path, payload: dict) -> str:
    """The indented JSON text of ``payload``, also written to ``path`` if given."""
    text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    if path:
        write_files({path: text.encode()}, path)
    return text


def _make_dir(path) -> Path:
    """``path.mkdir(parents=True, exist_ok=True)`` that records each directory
    it makes in ``volume.WRITTEN``, outermost first."""
    path = Path(path)
    for d in reversed((path, *path.parents)):
        if not d.is_dir():
            d.mkdir()
            WRITTEN.get().append(d)
    return path


def _require(kind: type, vol, stem: str):
    if not isinstance(vol, kind):
        held, wanted = ("labels (u32)", "gray (f32)") if kind is Volume \
            else ("gray data (f32)", "label (u32)")
        raise ValueError(f"'{stem}' holds {held}; a {wanted} volume is required")
    return vol


def _summary(**fields) -> None:
    print(json.dumps(fields, sort_keys=True))


def _cmd_generate(args, cfg: PipelineConfig) -> None:
    # write_stl checks this too, but only after the packing.
    _check_number("segments_per_circle", args.stl_sides, low=3, strict=False, integer=True)
    model = generate_model(cfg.model_params())
    out_dir = _make_dir(args.out_dir)
    write_fibers_csv(model.fibers, out_dir / "fibers.csv")
    write_stl(model, out_dir / "model.stl", args.stl_sides)
    stats = stats_document(model, audit=args.audit)
    _write_json(out_dir / "stats.json", stats)
    extra = {key: stats[key] for key in ("stalled", "audit") if key in stats}
    _summary(stage="generate", fibers=stats["fiber_count"],
             volume_fraction=stats["volume_fraction"], attempts_used=model.attempts_used,
             stop_reason=model.stop_reason, **extra)


def _cmd_rasterize(args, cfg: PipelineConfig) -> None:
    raster = cfg.raw["raster"]
    fibers = read_fibers_csv(args.fibers)
    model = FiberModel(params=cfg.model_params(), fibers=fibers)
    grid = cfg.grid_spec()
    labels, conflicts, atten = rasterize(model, grid, raster["supersample"],
                                         (raster["fiber_value"], raster["matrix_value"]))
    out_dir = _make_dir(args.out_dir)
    write_volume(labels, out_dir / "gt")
    write_volume(atten, out_dir / "atten")
    _summary(stage="rasterize", conflicts=conflicts, fibers_outside=fibers_outside(fibers, grid),
             labeled_voxels=int(np.count_nonzero(labels.data)))


def _cmd_degrade(args, cfg: PipelineConfig) -> None:
    gray = _require(Volume, read_volume(args.input), args.input)
    result = degrade(gray, cfg.degrade_params())
    write_volume(result, args.output)
    _summary(stage="degrade", mean=float(result.data.mean()))


def _cmd_fbp(args, cfg: PipelineConfig) -> None:
    gray = _require(Volume, read_volume(args.input), args.input)
    n_angles = cfg.raw["fbp"]["n_angles"]
    sink = None
    if args.dump_sinograms:
        sino_dir = _make_dir(args.dump_sinograms)

        def sink(k, sino):
            write_sinogram(sino, sino_dir / f"sino_z{k:04d}")
    result = simulate_fbp(gray, n_angles, sink)
    write_volume(result, args.output)
    _summary(stage="fbp", n_angles=n_angles)


def _cmd_annotate(args, cfg: PipelineConfig) -> None:
    gray = _require(Volume, read_volume(args.gray), args.gray)
    if args.annotations:
        chains = read_annotations(args.annotations)
    else:
        chains = annotations_from_fibers(read_fibers_csv(args.from_fibers), gray.grid)
    seeds, conflicts = render_polylines(chains, gray.grid)
    labels = region_grow(gray, seeds, cfg.raw["annotate"]["threshold"])
    write_volume(labels, args.output)
    _summary(stage="annotate", chains=len(chains), conflicts=conflicts,
             labeled_voxels=int(np.count_nonzero(labels.data)))


def _cmd_segment(args, cfg: PipelineConfig) -> None:
    gray = _require(Volume, read_volume(args.input), args.input)
    seg = cfg.raw["segment"]
    if seg["polarity"] == "bright":
        prepared = gray
    elif seg["polarity"] == "dark":
        prepared = Volume(grid=gray.grid, data=-gray.data)
    else:
        raise ValueError(f"segment.polarity must be 'bright' or 'dark', got {seg['polarity']!r}")
    # Every setting and output directory is checked before the filter runs.
    scales, params = cfg.scale_set(), cfg.vesselness_params()
    check_binarize(seg["binarize"], seg["threshold"])
    if args.orientation:
        check_orientation(seg["orientation_sigma_g"], seg["orientation_rho"])
    out_dir = _make_dir(args.out_dir)
    if args.orientation and not Path(args.orientation).parent.is_dir():
        raise OSError(f"failed to write '{args.orientation}': "
                      f"no directory '{Path(args.orientation).parent}'")
    response = frangi_multiscale(prepared, scales, params)
    mask = binarize(response, method=seg["binarize"], threshold=seg["threshold"])
    instances = connected_components(mask)
    for vol, name in ((response, "vess"), (mask, "mask"), (instances, "pred")):
        write_volume(vol, out_dir / name)
    summary = dict(stage="segment", components=int(instances.data.max()),
                   mask_voxels=int(np.count_nonzero(mask.data)), scales=list(scales.sigmas))
    # The written volumes are dropped so that the structure tensor's peak does
    # not stack on them.
    del prepared, response, mask, instances, vol
    if args.orientation:
        field = structure_tensor_orientation(gray, seg["orientation_sigma_g"],
                                             seg["orientation_rho"])
        write_orientation_field(field, args.orientation)
    _summary(**summary)


def _cmd_evaluate(args, cfg: PipelineConfig) -> None:
    truth = _require(LabelVolume, read_volume(args.truth), args.truth)
    pred = _require(LabelVolume, read_volume(args.pred), args.pred)
    if truth.grid != pred.grid:
        raise ValueError(
            f"grid mismatch: truth dims {truth.grid.dims} (voxel {truth.grid.voxel_size} um) "
            f"vs pred dims {pred.grid.dims} (voxel {pred.grid.voxel_size} um)")
    report = evaluate(truth.data, pred.data,
                      ignore_background=cfg.raw["evaluate"]["ignore_background"])
    sys.stdout.write(_write_json(args.output, report.to_dict()))


def _cmd_stats(args, cfg: PipelineConfig) -> None:
    if args.fibers:
        model = FiberModel(params=cfg.model_params(), fibers=read_fibers_csv(args.fibers))
        payload = model_statistics(model).to_dict()
    else:
        labels = _require(LabelVolume, read_volume(args.labels), args.labels)
        payload = label_statistics(labels)
    sys.stdout.write(_write_json(args.output, payload))


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", metavar="FILE", default=None,
                        help="pipeline config JSON (defaults apply when omitted)")
    common.add_argument("--set", metavar="KEY=JSON", action="append", default=[],
                        dest="overrides",
                        help="override one config value, e.g. --set model.seed=7")
    common.add_argument("--seed", type=int, default=None,
                        help="override model.seed and degrade.noise_seed")

    parser = argparse.ArgumentParser(
        prog="fibervox",
        description="Synthetic short-fiber CT volumes, ground truth, and segmentation scoring.")
    parser.add_argument("--version", action="version",
                        version=f"fibervox {__version__} (volume format {FORMAT_VERSION})")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", parents=[common],
                       help="pack a random fiber model; writes fibers.csv, model.stl, stats.json")
    p.add_argument("--out-dir", default=".", help="output directory")
    p.add_argument("--stl-sides", type=int, default=24,
                   help="cylinder tessellation segments per circle")
    p.add_argument("--audit", action="store_true",
                   help="include the overlap/bounds audit counts in stats.json and the summary line")

    p = sub.add_parser("rasterize", parents=[common],
                       help="fibers.csv to ground-truth labels (gt) and attenuation (atten)")
    p.add_argument("--fibers", required=True, help="fibers.csv path")
    p.add_argument("--out-dir", default=".", help="output directory")

    p = sub.add_parser("degrade", parents=[common],
                       help="blur + noise degradation of a gray volume")
    p.add_argument("--input", required=True, help="input volume stem")
    p.add_argument("--output", required=True, help="output volume stem")

    p = sub.add_parser("fbp", parents=[common],
                       help="parallel-beam projection and filtered backprojection per slice")
    p.add_argument("--input", required=True, help="input volume stem")
    p.add_argument("--output", required=True, help="output volume stem")
    p.add_argument("--dump-sinograms", metavar="DIR", default=None,
                   help="also write per-slice sinograms into DIR")

    p = sub.add_parser("annotate", parents=[common],
                       help="polyline chains to labels via seeded region growing")
    p.add_argument("--gray", required=True, help="gray volume stem")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--annotations", help="annotation JSON file")
    group.add_argument("--from-fibers", help="derive 2-point chains from fibers.csv")
    p.add_argument("--output", required=True, help="output label volume stem")

    p = sub.add_parser("segment", parents=[common],
                       help="tubularity filter, binarization, connected components")
    p.add_argument("--input", required=True, help="gray volume stem")
    p.add_argument("--out-dir", default=".", help="output directory (vess, mask, pred)")
    p.add_argument("--orientation", metavar="STEM", default=None,
                   help="also write a structure-tensor orientation field to STEM.*")

    p = sub.add_parser("evaluate", parents=[common],
                       help="Dice + ARI of predicted labels against ground truth")
    p.add_argument("--truth", required=True, help="ground-truth label volume stem")
    p.add_argument("--pred", required=True, help="predicted label volume stem")
    p.add_argument("--output", default="metrics.json", help="metrics JSON path")

    p = sub.add_parser("stats", parents=[common],
                       help="length/orientation histograms from fibers.csv or labels")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--fibers", help="fibers.csv path")
    group.add_argument("--labels", help="label volume stem")
    p.add_argument("--output", default=None, help="also write the JSON to this path")

    return parser


_HANDLERS = {
    "generate": _cmd_generate,
    "rasterize": _cmd_rasterize,
    "degrade": _cmd_degrade,
    "fbp": _cmd_fbp,
    "annotate": _cmd_annotate,
    "segment": _cmd_segment,
    "evaluate": _cmd_evaluate,
    "stats": _cmd_stats,
}


def _interrupt(signum, frame):
    raise KeyboardInterrupt(f"interrupted by {signal.Signals(signum).name}")


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    # SIGTERM, like Ctrl-C, fails the stage through the handler below.
    previous = signal.signal(signal.SIGTERM, _interrupt)
    token = WRITTEN.set([])
    try:
        cfg = PipelineConfig.load(args.config)
        cfg.apply_overrides(args.overrides)
        if args.seed is not None:
            cfg.raw["model"]["seed"] = args.seed
            cfg.raw["degrade"]["noise_seed"] = args.seed
        _HANDLERS[args.command](args, cfg)
        return 0
    except (Exception, KeyboardInterrupt) as exc:  # noqa: BLE001 - single CLI error boundary
        # Files, then directories innermost first; rmdir spares a non-empty one.
        for path in reversed(WRITTEN.get()):
            try:
                if path.is_dir():
                    path.rmdir()
                else:
                    path.unlink(missing_ok=True)
            except OSError:
                pass
        message = " ".join(str(exc).split()) or type(exc).__name__
        print(f"error stage={args.command}: {message}", file=sys.stderr)
        return 1
    finally:
        signal.signal(signal.SIGTERM, previous)
        WRITTEN.reset(token)


if __name__ == "__main__":
    sys.exit(main())
