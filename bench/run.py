"""twrelay benchmark: drives the ``twrelay`` CLI end to end, one fresh
interpreter per workload pass, and times its layers from outside.

Usage (from the repository root):

    python3 bench/run.py --workload {figures,analytic-dense,mc-validate,all}
                         [--seed N] [--seconds S] [--trace 0|1]

A run repeats passes of the workload for about ``--seconds`` seconds (at
least 3 passes; 4 when tracing) after one untimed warm-up import, checks
the files every pass writes, and prints a summary, a provenance line and,
as its last line, one JSON result:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones of BENCHMARK.json;
with ``--trace 1`` the run alternates untraced and traced passes, adds the
MC probes, and the metrics are the per-layer ones.  ``attempted`` counts
CLI calls and output checks; ``failed`` counts the ones that make the
output wrong (see checks.py); ``failed_frac`` in the summary also counts
failed judgment checks.  Times are scaled to a fixed CPU speed (see
REF_S).  Every file a run writes goes under ``.bench_work/`` and is removed
when it ends.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

from checks import Tally, check_pass
from workloads import DEFAULT_SEED, WORKLOADS, mc_seed

BENCH_DIR = Path(__file__).resolve().parent
MIN_PASSES = 3
MIN_TRACED_PASSES = 4  # two untraced, two traced
HARD_LIMIT_S = 120.0  # no new pass starts after this, whatever --seconds says
CHILD_DEADLINE_S = 165.0  # any child still running then is killed
PROBE_SEED = 7
# The CPUs of the shared VM this benchmark was tuned on (2 vCPUs, 2.0 GHz
# Xeon) flip between a fast and a ~1.5x slower state every few seconds, as
# co-tenant load comes and goes; a run's raw median moves with the share of
# slow time.  Each pass therefore times child.reference_s around its timed
# regions, and every time from a pass is scaled by REF_S / (mean of the
# reference times before and after the region).  REF_S is that loop's time
# on an uncontended vCPU of that machine (Python 3.11), so scaled times read
# as the same pass there.  Raw medians are printed in the summary.
REF_S = 0.004


class BenchError(RuntimeError):
    """The benchmark could not produce a result."""


def _child(root: Path, script: str, args: list[str], started: float) -> None:
    """Run a bench script in a fresh interpreter with ``src`` on the path."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(root / "src"), env.get("PYTHONPATH")) if p
    )
    proc = subprocess.Popen(
        [sys.executable, str(BENCH_DIR / script), *args],
        cwd=root, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True, start_new_session=True,
    )
    timeout = max(1.0, CHILD_DEADLINE_S - (time.perf_counter() - started))
    try:
        _, err = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)  # the child and its MC workers
        proc.communicate()
        raise BenchError(f"{script} did not finish within {timeout:.0f} s")
    if proc.returncode != 0:
        raise BenchError(f"{script} exited {proc.returncode}:\n{err[-3000:]}")


def _pass(root: Path, work: Path, workload, index: int, trace: bool, started: float):
    """One pass; returns the child's result and the directory it wrote."""
    outdir = work / f"pass{index}"
    outdir.mkdir()
    out = str(outdir)
    calls = []
    for call in workload.calls:
        if call.config is not None:
            (outdir / f"{call.name}.cfg").write_text(call.config.replace("{out}", out))
        calls.append([arg.replace("{out}", out) for arg in call.argv])
    spec, result = outdir / "spec.json", outdir / "result.json"
    spec.write_text(json.dumps({"calls": calls, "trace": trace}))
    _child(root, "child.py", [str(spec), str(result)], started)
    return json.loads(result.read_text()), outdir


def _tail(values: list[float]):
    """Highest nearest-rank percentile with at least ten samples above it."""
    rank = len(values) - 10
    if rank < 1:
        return None
    return 100.0 * rank / len(values), sorted(values)[rank - 1]


def _scales(result: dict) -> tuple[float, float]:
    """(set-up scale, calls scale) of one pass; see REF_S."""
    before_import, before_calls, after_calls = result["ref_s"]
    return (2 * REF_S / (before_import + before_calls),
            2 * REF_S / (before_calls + after_calls))


def _layer_metrics(traced: list[dict], untraced: list[dict], probe: dict) -> dict:
    reports = [(r["trace"], _scales(r)[1]) for r in traced]
    spans = reports[0][0]["spans"]
    metrics = {}
    for span, (calls, _, _) in spans.items():
        self_s = statistics.median(rep["spans"][span][2] * k for rep, k in reports)
        total_s = statistics.median(rep["spans"][span][1] * k for rep, k in reports)
        metrics[f"{span}.calls"] = calls
        metrics[f"{span}.self_s"] = self_s
        metrics[f"{span}.us_per_call"] = 1e6 * total_s / calls if calls else 0.0
    counts = reports[0][0]["counts"]
    metrics["numerics.quad_adaptive.evals"] = counts["quad_evals"]
    metrics["analytic.capacity_series.terms"] = counts["series_terms"]
    metrics["mc.samples"] = counts["mc_samples"]
    mc_s = metrics["mc.estimate_outage.self_s"] + metrics["mc.estimate_capacity.self_s"]
    metrics["mc.samples_per_s"] = counts["mc_samples"] / mc_s if mc_s > 0 else 0.0
    metrics.update(probe)
    metrics["trace.overhead_s"] = (
        statistics.median(r["wall_s"] * _scales(r)[1] for r in traced)
        - statistics.median(r["wall_s"] * _scales(r)[1] for r in untraced)
    )
    return metrics


def _probe(root: Path, work: Path, seed: int, started: float, notes: list[str]) -> dict:
    path = work / "probe.json"
    try:
        _child(root, "probe.py", [str(mc_seed(seed, PROBE_SEED)), str(path)], started)
        return json.loads(path.read_text())
    except BenchError as exc:
        notes.append(f"MC probe failed; probe metrics reported as 0: {exc}")
        return {"mc.pool_start_s": 0.0, "mc.samples_per_s.workers1": 0.0,
                "mc.samples_per_s.workers2": 0.0}


def _trace_counts(report: dict) -> tuple:
    return (sorted((k, v[0]) for k, v in report["spans"].items()),
            sorted(report["counts"].items()))


def run_workload(root: Path, name: str, seed: int, seconds: float, trace: bool):
    """Returns (end-to-end samples, raw time samples, per-layer metrics or
    None, tally, notes).  Times in the samples and metrics are scaled to
    REF_S; the raw ones are not."""
    workload = WORKLOADS[name](seed)
    frozen = None
    if seed == DEFAULT_SEED:
        frozen = json.loads((BENCH_DIR / "frozen_mc.json").read_text())
    work = root / ".bench_work" / f"{name}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        started = time.perf_counter()
        # Warm-up import: fills the bytecode and file caches before timing.
        spec = work / "warmup.json"
        spec.write_text(json.dumps({"calls": [], "trace": False}))
        _child(root, "child.py", [str(spec), str(work / "warmup.out.json")], started)

        started = time.perf_counter()
        tally = Tally()
        untraced, traced = [], []
        last = 0.0
        min_passes = MIN_TRACED_PASSES if trace else MIN_PASSES
        while True:
            elapsed = time.perf_counter() - started
            done = len(untraced) + len(traced)
            if done >= min_passes and elapsed + last > seconds:
                break
            if done and elapsed + last > HARD_LIMIT_S:
                break
            is_traced = trace and done % 2 == 1
            pass_start = time.perf_counter()
            result, outdir = _pass(root, work, workload, done, is_traced, started)
            last = time.perf_counter() - pass_start
            tally.merge(check_pass(workload, str(outdir), result["calls"], frozen))
            shutil.rmtree(outdir)
            (traced if is_traced else untraced).append(result)

        notes = []
        layers = None
        if trace:
            first = traced[0]["trace"]
            notes.extend(first["notes"])
            for other in traced[1:]:
                tally.add("contract", "trace_counts_repeat",
                          _trace_counts(other["trace"]) == _trace_counts(first))
            probe = _probe(root, work, seed, started, notes)
            layers = _layer_metrics(traced, untraced, probe)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass  # another run still uses it
    samples = {
        "wall_s": [r["wall_s"] * _scales(r)[1] for r in untraced],
        "setup_s": [r["setup_s"] * _scales(r)[0] for r in untraced + traced],
        "peak_rss_mb": [
            (r["maxrss_self_kb"] + r["maxrss_children_kb"]) / 1024.0 for r in untraced
        ],
    }
    errors = {
        " ".join(call["argv"]): call["error"]
        for r in untraced + traced for call in r["calls"] if call["error"]
    }
    notes.extend(f"{argv} raised:\n{error}" for argv, error in errors.items())
    raw = {
        "wall_s": [r["wall_s"] for r in untraced],
        "setup_s": [r["setup_s"] for r in untraced + traced],
    }
    return samples, raw, layers, tally, notes


def _git_commit(root: Path) -> str:
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _version(dist: str) -> str:
    try:
        return metadata.version(dist)
    except metadata.PackageNotFoundError:
        return "unknown"


def provenance(root: Path) -> dict:
    digest = hashlib.sha256()
    lines = 0
    for path in sorted((root / "src").rglob("*.py")):
        data = path.read_bytes()
        digest.update(str(path.relative_to(root)).encode() + b"\0" + data)
        lines += data.count(b"\n")
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": _version("numpy"),
        "scipy": _version("scipy"),
        "git_commit": _git_commit(root),
        "src_lines": lines,
        "src_sha256": digest.hexdigest(),
    }


def _print_summary(name, seed, samples, raw, layers, units, tally: Tally, notes) -> None:
    print(f"== {name} (seed {seed}) ==")
    if layers:
        print(f"{'span':<32} {'calls':>8} {'self_s':>9} {'us_per_call':>12}")
        spans = sorted({k.rsplit(".", 1)[0] for k in layers if k.endswith(".self_s")},
                       key=lambda s: -layers[f"{s}.self_s"])
        for span in spans:
            print(f"{span:<32} {layers[span + '.calls']:>8} "
                  f"{layers[span + '.self_s']:>9.4f} {layers[span + '.us_per_call']:>12.1f}")
        print(f"trace overhead {layers['trace.overhead_s']:.4f} s "
              "(median traced wall_s minus median untraced wall_s)")
    for metric, values in samples.items():
        unit = units[metric]
        line = f"{metric:<12} median {statistics.median(values):.4f} {unit}"
        tail = _tail(values)
        if tail:
            line += f"  p{tail[0]:.0f} {tail[1]:.4f} {unit}"
        else:
            line += "  (tail percentile needs 11+ passes)"
        if metric in raw:
            line += f"  raw median {statistics.median(raw[metric]):.4f} {unit}"
        print(line + f"  n={len(values)}")
    attempted, failed = tally.total()
    print(f"{'failed_frac':<12} {failed / attempted:.4f} (fraction; {failed} of "
          f"{attempted} calls and checks)")
    for (kind, check), (n, bad) in sorted(tally.counts.items()):
        print(f"  {kind:<9} {check:<22} {bad:>5} failed of {n}")
    for note in notes:
        print(f"note: {note}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument(
        "--seconds", type=float,
        help=f"default: run_seconds of BENCHMARK.json; no pass starts after {HARD_LIMIT_S:.0f} s")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")

    root = Path.cwd()
    if not (root / "src" / "twrelay" / "cli.py").is_file():
        print(f"error: no twrelay sources under {root / 'src'}; run from the "
              "repository root", file=sys.stderr)
        return 2
    spec = json.loads((root / "BENCHMARK.json").read_text())
    listed = spec["per_layer" if args.trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    seconds = spec["run_seconds"] if args.seconds is None else args.seconds

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    for name in names:
        try:
            samples, raw, layers, tally, notes = run_workload(
                root, name, args.seed, seconds, bool(args.trace))
        except BenchError as exc:
            print(f"error: {name}: {exc}", file=sys.stderr)
            return 1
        _print_summary(name, args.seed, samples, raw, layers, units, tally, notes)
        print("provenance: " + json.dumps(provenance(root)))
        values = layers if args.trace else {
            k: statistics.median(v) for k, v in samples.items()
        }
        mismatch = {m["name"] for m in listed} ^ set(values)
        if mismatch:
            print(f"error: metrics and BENCHMARK.json disagree on {sorted(mismatch)}",
                  file=sys.stderr)
            return 1
        attempted, _ = tally.total()
        failed = tally.contract_failures()
        print(json.dumps({
            "correct": failed == 0,
            "attempted": attempted,
            "failed": failed,
            "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                        for m in listed},
        }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
