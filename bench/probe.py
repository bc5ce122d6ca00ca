"""MC layer probes, kept apart from the workloads, in a fresh interpreter.

Usage: python3 bench/probe.py SEED RESULT.json

- ``pool_start_s``: ``estimate_outage`` on 2 chunks (n = 2^16 + 1) at 2
  workers minus the same call at 1 worker, median of paired repeats.  The
  second chunk holds one sample, so the difference is the cost of starting
  and stopping the worker pool.
- ``samples_per_s.workers1`` / ``.workers2``: outage samples per second on
  n = 2^22 at 1 and 2 workers, median of repeats, pool start included.
"""

import json
import statistics
import sys
import time

POOL_REPEATS = 9
RATE_REPEATS = 3
RATE_N = 1 << 22


def _timed(fn, *args, **kwargs) -> float:
    start = time.perf_counter()
    fn(*args, **kwargs)
    return time.perf_counter() - start


def main(seed: int, result_path: str) -> int:
    import twrelay.mc as mc
    from twrelay import TargetRates, build_params

    params = build_params(p1=100, p2=100, sigma2=1, eta=1, lam=0.75,
                          epsilon=0.5, d1=0.5, path_loss_exp=3)
    targets = TargetRates.from_rates(1.0, 1.0)
    estimate = mc.estimate_outage
    n_pool = (1 << 16) + 1

    estimate(params, targets, n_pool, seed, workers=2)  # warm-up
    gaps = []
    for _ in range(POOL_REPEATS):
        serial = _timed(estimate, params, targets, n_pool, seed, workers=1)
        pooled = _timed(estimate, params, targets, n_pool, seed, workers=2)
        gaps.append(pooled - serial)

    result = {"mc.pool_start_s": statistics.median(gaps)}
    for workers in (1, 2):
        times = [_timed(estimate, params, targets, RATE_N, seed, workers=workers)
                 for _ in range(RATE_REPEATS)]
        result[f"mc.samples_per_s.workers{workers}"] = RATE_N / statistics.median(times)
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    raise SystemExit(main(int(sys.argv[1]), sys.argv[2]))
