#!/usr/bin/env python3
"""Self-check of the benchmark harness at toy size, in under a minute.

    python3 perfbench/selfcheck.py

Runs each workload's code path on a 24^3 grid with a small model, once
untraced and once traced, and asserts that every metric BENCHMARK.json names
is emitted with its unit as a finite number (end-to-end metrics above 0),
and that every correctness check passed. Then copies only BENCHMARK.json and
perfbench/ into a scratch directory and asserts that run.py exits non-zero
there without printing a result.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import run


def check_workload(bench: dict, name: str) -> None:
    for trace, kind in ((False, "end_to_end"), (True, "per_layer")):
        result, lines = run.run_workload(name, seed=1, seconds=0, trace=trace, tiny=True)
        where = f"{name} trace={int(trace)}"
        assert result["correct"] and result["failed"] == 0, (where, lines)
        assert result["attempted"] >= 1, where
        expected = [m["name"] for m in bench[kind]]
        assert list(result["metrics"]) == expected, (where, sorted(result["metrics"]))
        for m in bench[kind]:
            got = result["metrics"][m["name"]]
            assert got["unit"] == m["unit"], (where, m["name"], got)
            value = got["value"]
            assert isinstance(value, (int, float)) and math.isfinite(value), (where, m["name"])
            assert kind == "per_layer" or value > 0, (where, m["name"], value)
        print(f"ok {where}: {len(expected)} metrics, {result['attempted']} checks")


def check_bare_directory() -> None:
    run.WORK.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=run.WORK) as tmp:
        bare = Path(tmp)
        shutil.copy(run.ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
        shutil.copytree(Path(__file__).resolve().parent, bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "desk",
                               "--seed", "0", "--seconds", "1", "--trace", "0"],
                              cwd=bare, capture_output=True, text=True, timeout=180)
        assert proc.returncode != 0 and not proc.stdout.strip(), proc
    print(f"ok bare directory: exit {proc.returncode}, {proc.stderr.strip()}")


def main() -> int:
    bench = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    for w in bench["workloads"]:
        check_workload(bench, w["name"])
    check_bare_directory()
    return 0


if __name__ == "__main__":
    sys.exit(main())
