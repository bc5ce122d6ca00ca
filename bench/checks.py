"""Output checks for one workload pass.

Every check is one operation.  Two kinds:

- *contract* checks must hold for the output to be correct: the CSV has the
  grid and rows its call asked for, every value is finite, the validate
  report agrees with itself and with the exit code, and at the default seed
  every ``mc`` row equals, byte for byte, the row frozen in frozen_mc.json
  (the chunked-seeding contract; at 2 workers it also proves the output
  does not depend on the worker count).
- *judgment* checks test a claim the program makes about its numbers: MC
  agreement (the rules ``validate`` applies), bound chains and the accuracy
  of fast paths.  Two of them fail at known points today (the ``taylor``
  tolerance and the tight capacity upper bound); they stay counted.

The rules are written out here rather than imported from the package, so a
change to the package cannot change how its output is judged.
"""

from __future__ import annotations

import math
import os
from collections import defaultdict

EXACT = {"exact_quadrature", "exact_taylor", "capacity_quadrature",
         "capacity_series", "dmt"}
LOWER = {"lower_bound", "capacity_bounds:lower"}
UPPER = {"upper_bound", "capacity_bounds:tight_upper", "capacity_bounds:loose_upper"}

TAYLOR_ABS_TOL = 1e-3
SERIES_REL_TOL = 1e-6


class Tally:
    """Attempted and failed operations, by check name and kind."""

    def __init__(self) -> None:
        self.counts: dict[tuple[str, str], list[int]] = defaultdict(lambda: [0, 0])

    def add(self, kind: str, name: str, ok: bool) -> None:
        entry = self.counts[(kind, name)]
        entry[0] += 1
        entry[1] += 0 if ok else 1

    def merge(self, other: "Tally") -> None:
        for key, (attempted, failed) in other.counts.items():
            self.counts[key][0] += attempted
            self.counts[key][1] += failed

    def total(self) -> tuple[int, int]:
        """(attempted, failed) over every call and check."""
        values = list(self.counts.values())
        return sum(v[0] for v in values), sum(v[1] for v in values)

    def contract_failures(self) -> int:
        """Failures that make the output wrong: a failed contract check, or a
        run/reproduce call that exits nonzero.  ``validate`` exits 1 when a
        judgment fails; its exit code is checked against its report."""
        return sum(
            failed for (kind, name), (_, failed) in self.counts.items()
            if kind == "contract" or (kind == "call" and name != "validate")
        )


def read_csv(path: str) -> list[tuple[str, str, str, str]]:
    """Rows of a sweep CSV as the exact strings written."""
    rows = []
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            line = line.rstrip("\n")
            if not line or line.startswith("#") or line == "axis,method,value,std_err":
                continue
            fields = line.split(",")
            if len(fields) != 4:
                raise ValueError(f"malformed row {line!r}")
            rows.append(tuple(fields))
    return rows


def _grid(rows) -> dict[str, dict[str, tuple[float, float | None]]]:
    grid: dict[str, dict[str, tuple[float, float | None]]] = {}
    for axis, method, value, err in rows:
        grid.setdefault(axis, {})[method] = (float(value), float(err) if err else None)
    return grid


def _shape_ok(rows, call) -> bool:
    by_axis: dict[str, list[str]] = {}
    for axis, method, value, err in rows:
        by_axis.setdefault(axis, []).append(method)
        numbers = [value] + ([err] if err else [])
        if not all(math.isfinite(float(x)) for x in numbers):
            return False
    return len(by_axis) == call.points and all(
        tuple(methods) == call.rows for methods in by_axis.values()
    )


def _judge_mc_agreement(grid, tally: Tally) -> None:
    for point in grid.values():
        mc, se = point["mc"]
        slack = 3.0 * (se or 0.0)
        for method, (value, _) in point.items():
            if method in EXACT:
                tally.add("judgment", "mc_agreement", abs(value - mc) <= slack)
            elif method in LOWER:
                tally.add("judgment", "mc_agreement", value <= mc + slack)
            elif method in UPPER:
                tally.add("judgment", "mc_agreement", value >= mc - slack)


def _judge_outage(grid, tally: Tally) -> None:
    for point in grid.values():
        exact = point["exact_quadrature"][0]
        tally.add("judgment", "outage_bound_chain",
                  point["lower_bound"][0] <= exact <= point["upper_bound"][0])
        tally.add("judgment", "taylor_tolerance",
                  abs(point["exact_taylor"][0] - exact) <= TAYLOR_ABS_TOL)


def _judge_capacity(grid, tally: Tally) -> None:
    for point in grid.values():
        c = point["capacity_quadrature"][0]
        tally.add("judgment", "series_vs_quadrature",
                  abs(point["capacity_series"][0] - c) <= SERIES_REL_TOL * c)
        lower, tight, loose = (point[name][0] for name in
                               ("capacity_bounds:lower", "capacity_bounds:tight_upper",
                                "capacity_bounds:loose_upper"))
        tally.add("judgment", "capacity_bound_chain", lower <= c <= tight <= loose)


def _judge_report(path: str, call, rc: int, tally: Tally) -> None:
    verdicts = []
    overall = None
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            line = line.rstrip("\n")
            if line.startswith("overall: "):
                overall = line[len("overall: "):]
            elif line.endswith(" -> PASS") or line.endswith(" -> FAIL"):
                verdicts.append(line.endswith("PASS"))
    for ok in verdicts:
        tally.add("judgment", "validate_lines", ok)
    judged = sum(1 for m in call.rows if m in EXACT | LOWER | UPPER)
    passed = all(verdicts)
    tally.add("contract", "validate_report",
              len(verdicts) == judged * call.points
              and overall == ("PASS" if passed else "FAIL")
              and rc == (0 if passed else 1))


_JUDGES = {
    "mc_agreement": _judge_mc_agreement,
    "outage_relations": _judge_outage,
    "capacity_relations": _judge_capacity,
}


def check_pass(workload, outdir: str, calls: list[dict], frozen: dict | None) -> Tally:
    """Check the files one pass wrote.  ``frozen`` maps CSV keys to frozen
    ``mc`` rows, or is None when the workload seed is not the default."""
    tally = Tally()
    for call, result in zip(workload.calls, calls):
        rc = result["rc"]
        tally.add("call", call.argv[0], rc == 0)
        csv_path = os.path.join(outdir, f"{call.name}.csv")
        try:
            rows = read_csv(csv_path)
            shape_ok = _shape_ok(rows, call)
        except (OSError, ValueError):
            rows, shape_ok = [], False
        tally.add("contract", "csv_shape", shape_ok)
        if not shape_ok:
            continue
        if frozen is not None and "mc" in call.rows:
            expected = frozen.get(f"{workload.name}/{call.name}", [])
            got = [",".join(r) for r in rows if r[1] == "mc"]
            for i, row in enumerate(got):
                tally.add("contract", "frozen_mc", i < len(expected) and row == expected[i])
        if call.judge == "validation_report":
            try:
                _judge_report(csv_path + ".validation.txt", call, rc, tally)
            except OSError:
                tally.add("contract", "validate_report", False)
        elif call.judge:
            _JUDGES[call.judge](_grid(rows), tally)
    return tally
