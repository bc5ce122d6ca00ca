"""Regenerate frozen_mc.json: the ``mc`` rows every workload writes at the
default seed, computed with 1 worker.

Usage (from the repository root): python3 bench/freeze_mc.py

The benchmark compares each pass's ``mc`` rows with these, byte for byte,
so a workload run at 2 workers also proves its output does not depend on
the worker count.  Rerun this only for a change meant to alter MC output.
"""

import dataclasses
import json
import shutil
import time
from pathlib import Path

from checks import read_csv
from run import BENCH_DIR, _pass
from workloads import DEFAULT_SEED, WORKLOADS


def _serial(argv: tuple[str, ...]) -> tuple[str, ...]:
    out = list(argv)
    if "--workers" in out:
        out[out.index("--workers") + 1] = "1"
    return tuple(out)


def main() -> int:
    root = Path.cwd()
    work = root / ".bench_work" / "freeze"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    frozen = {}
    try:
        for name, make in WORKLOADS.items():
            workload = make(DEFAULT_SEED)
            calls = tuple(dataclasses.replace(c, argv=_serial(c.argv)) for c in workload.calls)
            workload = dataclasses.replace(workload, calls=calls)
            result, outdir = _pass(root, work, workload, 0, False, time.perf_counter())
            for call, outcome in zip(workload.calls, result["calls"]):
                if outcome["rc"] not in (0, 1) or "mc" not in call.rows:
                    continue
                rows = read_csv(str(outdir / f"{call.name}.csv"))
                frozen[f"{name}/{call.name}"] = [",".join(r) for r in rows if r[1] == "mc"]
            shutil.rmtree(outdir)
    finally:
        shutil.rmtree(work.parent, ignore_errors=True)
    (BENCH_DIR / "frozen_mc.json").write_text(json.dumps(frozen, indent=1) + "\n")
    print(f"froze {sum(map(len, frozen.values()))} mc rows from {len(frozen)} CSVs")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
