"""Compare two full runs of the benchmark: ``compare.py A.json B.json``.

``A`` is the baseline (the parent commit), ``B`` the change; both are
``out/result.json`` files written by ``run.py`` without ``--workload``
(use ``--runs N`` for ``N`` seeds a side). Runs are paired by workload and
seed — the same seed is the same plan on both sides, so how large a plan
happens to be cancels — and one row is printed per workload and
end-to-end metric, with a verdict from the metric's bound:

* ``regressed``  — the median of B/A over the pairs is worse than one by
  more than the bound;
* ``unresolved`` — the pairs disagree by more than the bound (quartile
  distance of B/A over its median), so the bound cannot tell, unless B
  reads better than A on every pair; also a worsening seen on fewer than
  three pairs, which say nothing about how far pairs disagree;
* ``ok``         — otherwise.

Bounds come from ``BENCHMARK.json``. The raw times and rates (``wall_s``,
``cpu_s``, ``jobs_per_s``, ``engine_events_per_s``,
``cpu_us_per_engine_event``) are not listed there — they depend on the
seed's plan size, which only pairing removes, and on the machine's mood —
and are held to 10% here.

The comparison is refused (exit code 2) when the two sides were measured
with a different event core or Python, or when an exact count (jobs,
engine events, recorded events, messages, journal bytes) differs for the
same workload and seed: that is a changed workload, not a speed-up.
Exit code 1 means some row regressed.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from statistics import median, quantiles

SPEC = Path(__file__).resolve().parents[2] / "BENCHMARK.json"

PAIRED_ONLY = [
    {"name": name, "unit": unit, "better": better, "bound": 0.1}
    for name, unit, better in (
        ("wall_s", "s", "lower"),
        ("cpu_s", "s", "lower"),
        ("jobs_per_s", "jobs/s", "higher"),
        ("engine_events_per_s", "events/s", "higher"),
        ("cpu_us_per_engine_event", "us", "lower"),
    )
]


def _by_key(side: dict) -> dict:
    return {(r["workload"], r["seed"], r["trace"]): r for r in side["runs"]}


def refusal(a: dict, b: dict) -> str | None:
    """Why the two results cannot be compared, or ``None``."""
    for tag in ("core", "python"):
        if a["tags"][tag] != b["tags"][tag]:
            return (f"{tag} differs: {a['tags'][tag]} against "
                    f"{b['tags'][tag]}")
    runs_a, runs_b = _by_key(a), _by_key(b)
    if runs_a.keys() != runs_b.keys():
        return "the two sides did not run the same workloads and seeds"
    for key, run in runs_a.items():
        if run["counts"] != runs_b[key]["counts"]:
            workload, seed, _ = key
            return (f"exact counts differ on {workload} seed {seed}: "
                    f"{run['counts']} against {runs_b[key]['counts']}")
    return None


def verdicts(a: dict, b: dict, spec: dict) -> list[tuple]:
    """``(workload, metric, unit, median A, median B, worsening, spread,
    bound, pairs, verdict)`` per workload and end-to-end metric."""
    runs_a, runs_b = _by_key(a), _by_key(b)
    rows = []
    for workload in (w["name"] for w in spec["workloads"]):
        keys = [k for k in runs_a if k[0] == workload and not k[2]]
        if not keys:
            continue
        for metric in spec["end_to_end"] + PAIRED_ONLY:
            name, bound = metric["name"], metric["bound"]
            old = [runs_a[k]["metrics"][name]["value"] for k in keys]
            new = [runs_b[k]["metrics"][name]["value"] for k in keys]
            ratios = [n / o for n, o in zip(new, old)]
            if metric["better"] == "lower":
                worsening = median(ratios) - 1.0
                all_better = max(ratios) < 1.0
            else:
                worsening = 1.0 - median(ratios)
                all_better = min(ratios) > 1.0
            # Fewer than three pairs say nothing about how far pairs
            # disagree, so they can clear a metric but not convict it.
            spread = None
            if len(ratios) > 2:
                q1, _, q3 = quantiles(ratios, n=4)
                spread = (q3 - q1) / median(ratios)
            if spread is not None and spread > bound and not all_better:
                verdict = "unresolved"
            elif worsening > bound:
                verdict = "regressed" if spread is not None else "unresolved"
            else:
                verdict = "ok"
            rows.append((workload, name, metric["unit"], median(old),
                         median(new), worsening, spread, bound,
                         len(ratios), verdict))
    return rows


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__.split("\n\n")[0], file=sys.stderr)
        return 2
    a, b = (json.loads(Path(path).read_text()) for path in argv)
    why = refusal(a, b)
    if why is not None:
        print(f"refused: {why}", file=sys.stderr)
        return 2
    rows = verdicts(a, b, json.loads(SPEC.read_text()))
    print(f"{'workload':<18} {'metric':<24} {'unit':<9} {'A':>11} {'B':>11} "
          f"{'worse':>7} {'spread':>7} {'bound':>6} {'n':>3}  verdict")
    for (workload, name, unit, old, new, worsening, spread, bound, pairs,
         verdict) in rows:
        wide = "-" if spread is None else f"{spread:.1%}"
        print(f"{workload:<18} {name:<24} {unit:<9} {old:>11.5g} "
              f"{new:>11.5g} {worsening:>+7.1%} {wide:>7} "
              f"{bound:>6.0%} {pairs:>3}  {verdict}")
    return 1 if any(row[-1] == "regressed" for row in rows) else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
