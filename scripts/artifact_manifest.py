"""Print a SHA-256 manifest of the artifacts of two fixed command-line chains.

    python scripts/artifact_manifest.py DIR

``DIR/desk`` gets the README desk chain at the default config plus
``annotate --from-fibers``, ``segment --orientation`` and ``stats
--labels``/``--fibers``; ``DIR/tiny`` gets the 24^3 chain of
``tests/test_determinism.py``, including ``fbp --dump-sinograms``. Each chain
also keeps its stages' stdout in ``summaries.txt``. The output is one
``sha256  path`` line per file, sorted by path, so a refactor that must keep
every artifact byte-identical is checked by running this on both commits and
comparing the two outputs. The script exits nonzero, printing no manifest, if
either chain leaves a temporary ``.*.tmp`` file behind. The package and the
test chain are imported from the checkout that holds this script.
"""

import contextlib
import hashlib
import io
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

from fibervox.cli import main  # noqa: E402
from test_determinism import run_chain  # noqa: E402


def desk_chain(d: Path) -> list[str]:
    """The README desk chain plus the optional stages; returns the summaries."""
    steps = [
        ("generate", "--out-dir", d, "--audit"),
        ("rasterize", "--fibers", d / "fibers.csv", "--out-dir", d),
        ("degrade", "--input", d / "atten", "--output", d / "gray"),
        ("annotate", "--gray", d / "gray", "--from-fibers", d / "fibers.csv",
         "--output", d / "anno"),
        ("segment", "--input", d / "gray", "--out-dir", d, "--orientation", d / "orient"),
        ("evaluate", "--truth", d / "gt", "--pred", d / "pred", "--output", d / "metrics.json"),
        ("stats", "--labels", d / "gt", "--output", d / "labstats.json"),
        ("stats", "--fibers", d / "fibers.csv", "--output", d / "fibstats.json"),
    ]
    summaries = []
    for step in steps:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = main([str(arg) for arg in step])
        if code != 0:
            sys.exit(f"desk chain: {step[0]} exited {code}")
        summaries.append(out.getvalue())
    return summaries


def main_manifest(out_dir: Path) -> None:
    for name, chain in (("desk", desk_chain), ("tiny", lambda d: run_chain(d)[1])):
        d = out_dir / name
        d.mkdir(parents=True, exist_ok=False)
        summaries = chain(d)
        (d / "summaries.txt").write_text("".join(summaries))
    leftovers = sorted(str(p.relative_to(out_dir)) for p in out_dir.rglob(".*.tmp"))
    if leftovers:
        sys.exit(f"temporary files left behind: {', '.join(leftovers)}")
    for path in sorted(p for p in out_dir.rglob("*") if p.is_file()):
        digest = hashlib.sha256(path.read_bytes()).hexdigest()
        print(f"{digest}  {path.relative_to(out_dir)}")


if __name__ == "__main__":
    if len(sys.argv) != 2:
        sys.exit(__doc__)
    main_manifest(Path(sys.argv[1]))
