"""End-to-end ``repro serve`` benchmark.

A timed run serves one workload again and again for ``--seconds`` and
folds the serves into one value per metric.  The whole benchmark --
inputs prepared through the CLI, ``--repeats`` timed runs of every
workload round-robin, then traced serves -- prints each metric by name
and unit and appends one JSON record to ``--out``::

    python benchmarks/e2e/run.py [--seed N] [--repeats 5] [--out PATH]

One timed run of one workload.  The last line of output is a JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``: the
``end_to_end`` metrics of ``BENCHMARK.json``, or with ``--trace 1`` its
``per_layer`` ones::

    python benchmarks/e2e/run.py --workload paper-1shard --seed 3 \\
        --seconds 12 --trace 0

Verdicts for two sets of records of the same inputs::

    python benchmarks/e2e/run.py --compare A.jsonl B.jsonl

The script puts ``src`` on the children's ``PYTHONPATH`` itself and
leaves the rest of the environment (BLAS threads included) as it finds
it.  See README.md for the workloads, metrics and comparison rule.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import statistics
import sys
import time
from typing import Dict, List, Optional

import harness
import ledger
from harness import BenchError

#: Traced serves at most per workload and invocation.
MAX_TRACED = 8


def _fmt(value: float) -> str:
    return f"{value:.4g}" if abs(value) < 1e5 else f"{value:,.0f}"


def _spec() -> Dict[str, object]:
    path = harness.ROOT / "BENCHMARK.json"
    if not path.exists():
        raise BenchError(f"{path} not found")
    return json.loads(path.read_text())


#: How one timed run folds its serves into one value per metric.  This
#: host's speed swings by up to 65% from one second to the next (a fixed
#: pure-Python loop takes 0.24 s to 0.41 s), so a median or mean over a
#: few seconds' serves moves with the share of slow seconds in the run.
#: The best serve of a run is the program at the host's full speed and
#: repeats from run to run; set-up and memory keep the median.
RUN_STATISTIC = {
    "msgs_per_s": max,
    "setup_s": statistics.median,
    "cpu_us_per_msg": min,
    "peak_rss_mb": statistics.median,
}


def _fold(outcomes: List[harness.RunOutcome]) -> Dict[str, float]:
    ok = [o for o in outcomes if o.metrics]
    if not ok:
        return {}
    return {
        name: fold([o.metrics[name] for o in ok])
        for name, fold in RUN_STATISTIC.items()
    }


def _log(label: str, outcome: harness.RunOutcome) -> None:
    for problem in outcome.problems:
        print(problem, file=sys.stderr)
    print(f"{label}: " + ", ".join(
        f"{k}={_fmt(v)}" for k, v in outcome.metrics.items()
    ), file=sys.stderr)


def timed_run(
    wl: harness.Workload, inputs: harness.Inputs, seconds: float
) -> List[harness.RunOutcome]:
    """Serve ``wl`` again and again until ``seconds`` have passed."""
    outcomes: List[harness.RunOutcome] = []
    start = time.perf_counter()
    while not outcomes or time.perf_counter() - start < seconds:
        outcomes.append(harness.run_workload(wl, inputs))
        _log(f"{wl.name} serve {len(outcomes)}", outcomes[-1])
    return outcomes


def traced_runs(
    wl: harness.Workload, inputs: harness.Inputs
) -> List[harness.RunOutcome]:
    """Traced serves until they pool enough ticks for a 98th
    percentile, or :data:`MAX_TRACED` of them."""
    traced: List[harness.RunOutcome] = []
    while len(traced) < MAX_TRACED and (
        ledger.ticks(_spans(traced)) < ledger.P98_TICKS
    ):
        traced.append(harness.run_workload(wl, inputs, traced=True))
        _log(f"{wl.name} traced serve {len(traced)}", traced[-1])
    return traced


def _spans(outcomes: List[harness.RunOutcome]) -> List[ledger.TracedRun]:
    return [o.traced for o in outcomes if o.traced is not None]


def _layer_metrics(
    traced: List[harness.RunOutcome], plain: List[harness.RunOutcome]
) -> Dict[str, float]:
    metrics = ledger.per_layer(_spans(traced)) if _spans(traced) else {}

    def rate(outcomes: List[harness.RunOutcome]) -> Optional[float]:
        rates = [o.metrics["msgs_per_s"] for o in outcomes if o.metrics]
        return statistics.median(rates) if rates else None

    traced_rate, plain_rate = rate(traced), rate(plain)
    if traced_rate and plain_rate:
        overhead = 1 - traced_rate / plain_rate
        metrics["ledger.trace_overhead_fraction"] = overhead
    return metrics


# -- one workload for a fixed time ------------------------------------------


def bench(
    name: str, seed: int, seconds: float, trace: bool, scale: str
) -> Dict[str, object]:
    """One timed run of one workload; the result line's object.

    With ``trace`` traced serves follow the timed run: per-layer metrics
    come from them, and the timed run's serves give the throughput the
    tracing overhead is measured against.
    """
    spec = _spec()
    wl = harness.workload(name)
    inputs = harness.prepare(wl.trace, seed, scale)
    plain = timed_run(wl, inputs, seconds)
    traced = traced_runs(wl, inputs) if trace else []
    if trace:
        values, units = _layer_metrics(traced, plain), ledger.UNITS
        declared = spec["per_layer"]
    else:
        values, units = _fold(plain), harness.UNITS
        declared = spec["end_to_end"]
    for metric, value in values.items():
        print(f"{metric:<34} {_fmt(value):>10} {units[metric]}")
    outcomes = plain + traced
    correct = not any(o.problems for o in outcomes) and all(
        m["name"] in values for m in declared
    )
    return {
        "correct": correct,
        "attempted": sum(o.attempted for o in outcomes),
        "failed": sum(o.failed for o in outcomes),
        "metrics": {
            m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
            for m in declared if m["name"] in values
        },
    }


# -- the whole benchmark ----------------------------------------------------


def run_all(
    seed: Optional[int], repeats: int, seconds: float, scale: str
) -> Dict[str, object]:
    """Every workload's timed run ``repeats`` times round-robin, then
    traced serves of each."""
    whys = {w["name"]: w["why"] for w in _spec()["workloads"]}
    workloads = list(harness.WORKLOADS)
    inputs = {
        trace: harness.prepare(
            trace, harness.SEEDS[trace] if seed is None else seed, scale
        )
        for trace in sorted({w.trace for w in workloads})
    }
    runs: Dict[str, List[List[harness.RunOutcome]]] = {
        w.name: [] for w in workloads
    }
    for _ in range(repeats):
        # Round-robin, so slow drift on the host hits every workload.
        for wl in workloads:
            runs[wl.name].append(timed_run(wl, inputs[wl.trace], seconds))
    record: Dict[str, object] = {
        "scale": scale,
        "seeds": {t: i.seed for t, i in inputs.items()},
        "repeats": repeats,
        "seconds": seconds,
        "fingerprint": harness.fingerprint(list(inputs.values())),
        "workloads": {},
    }
    for wl in workloads:
        plain = [o for run in runs[wl.name] for o in run]
        traced = traced_runs(wl, inputs[wl.trace])
        spans = _spans(traced)
        folded = [_fold(run) for run in runs[wl.name]]
        layers = _layer_metrics(traced, plain)
        attempted = sum(o.attempted for o in plain)
        failed = sum(o.failed for o in plain)
        metrics = {}
        for metric, unit in harness.UNITS.items():
            values = [f[metric] for f in folded if f]
            metrics[metric] = {
                "unit": unit, "n": len(values), "values": values,
                **(harness.summary(values) if values else {}),
            }
        record["workloads"][wl.name] = {
            "why": whys[wl.name],
            "attempted": attempted,
            "failed": failed,
            "failed_msgs_fraction": failed / attempted,
            "problems": [p for o in plain + traced for p in o.problems],
            "metrics": metrics,
            "per_layer": {
                metric: {"unit": unit, "value": layers[metric]}
                for metric, unit in ledger.UNITS.items() if metric in layers
            },
            "traced_ticks": ledger.ticks(spans),
            "ledger": {
                "main": ledger.layer_seconds([r.main for r in spans]),
                "workers": ledger.layer_seconds(
                    [w for r in spans for w in r.workers]
                ),
                "wall_s": sum(r.wall_s for r in spans),
            },
            "absent": ledger.absent(spans),
        }
    return record


def print_record(record: Dict[str, object]) -> None:
    fp = record["fingerprint"]
    print(f"host: {fp['cores']} cores, python {fp.get('python')}, numpy "
          f"{fp.get('numpy')}, {fp.get('blas')}, start method "
          f"{fp.get('start_method')}, env {fp['env']}, commit "
          f"{fp['commit'][:12]}{' (dirty)' if fp['dirty'] else ''}")
    print(f"scale {record['scale']}, seeds {record['seeds']}, "
          f"{record['repeats']} timed runs of {record['seconds']:g} s; "
          f"median [q1, q3]")
    for name, w in record["workloads"].items():
        print(f"\n{name}")
        print(f"  {'failed_msgs_fraction':<34} "
              f"{_fmt(w['failed_msgs_fraction']):>10} fraction "
              f"({w['failed']} of {w['attempted']} msgs)")
        for metric, m in w["metrics"].items():
            if m["n"]:
                print(f"  {metric:<34} {_fmt(m['median']):>10} "
                      f"[{_fmt(m['q1'])}, {_fmt(m['q3'])}] {m['unit']}")
        for metric, m in w["per_layer"].items():
            print(f"  {metric:<34} {_fmt(m['value']):>10} {m['unit']}")
        wall = w["ledger"]["wall_s"]
        if wall:
            shares = ", ".join(
                f"{layer} {seconds / wall:.1%}"
                for layer, seconds in w["ledger"]["main"].items()
            )
            print(f"  ledger (main process, share of wall): {shares}")
        for problem in w["problems"]:
            print(f"  PROBLEM: {problem}")
        if w["absent"]:
            print(f"  absent: {', '.join(w['absent'])}")


# -- comparing two sets of records ------------------------------------------


def verdict(
    a: List[float], b: List[float], higher: bool, bound: float
) -> str:
    """The choosing-metrics rule for B (the change) against A (the parent).

    Better: B wins at least nine tenths of the pairs (ties count for
    neither) and the medians differ by more than A's quartile spread.
    Worse: B's median is worse than A's by more than ``bound`` of it.
    Unresolved: A's spread is wider than the bound, unless every B run
    beats every A run.  Otherwise unchanged.
    """
    sa, sb = harness.summary(a), harness.summary(b)
    sign = 1 if higher else -1
    wins = sum(1 for x, y in zip(a, b) if sign * (y - x) > 0)
    gain = sign * (sb["median"] - sa["median"])
    spread = sa["q3"] - sa["q1"]
    if wins >= 0.9 * min(len(a), len(b)) and gain > spread:
        return "better"
    if -gain > bound * abs(sa["median"]):
        return "worse"
    beats_all = min(sign * y for y in b) > max(sign * x for x in a)
    if spread > bound * abs(sa["median"]) and not beats_all:
        return "unresolved"
    return "unchanged"


def _load_records(path: str) -> List[Dict]:
    lines = pathlib.Path(path).read_text().splitlines()
    return [json.loads(line) for line in lines if line.strip()]


def _pooled(records: List[Dict], name: str, metric: str) -> List[float]:
    return [
        v for r in records if name in r["workloads"]
        for v in r["workloads"][name]["metrics"][metric]["values"]
    ]


def compare(path_a: str, path_b: str) -> int:
    """Print a verdict per workload and end-to-end metric; 2 if the
    records were made from different inputs."""
    a, b = _load_records(path_a), _load_records(path_b)
    digests = {json.dumps(r["fingerprint"]["inputs"], sort_keys=True)
               for r in a + b}
    if len(digests) != 1:
        print("refusing to compare: the records' input digests differ",
              file=sys.stderr)
        return 2
    spec = {m["name"]: m for m in _spec()["end_to_end"]}
    print(f"{'workload':<14} {'metric':<16} {'A median [q1, q3]':>30} "
          f"{'B median [q1, q3]':>30} {'wins A:B':>9}  verdict")
    for name in harness.WORKLOAD_NAMES:
        for metric in harness.UNITS:
            va, vb = _pooled(a, name, metric), _pooled(b, name, metric)
            if not va or not vb:
                continue
            higher = spec[metric]["better"] == "higher"
            sign = 1 if higher else -1
            pairs = list(zip(va, vb))
            b_wins = sum(1 for x, y in pairs if sign * (y - x) > 0)
            a_wins = sum(1 for x, y in pairs if sign * (y - x) < 0)
            sa, sb = harness.summary(va), harness.summary(vb)
            print(
                f"{name:<14} {metric:<16} "
                f"{_fmt(sa['median']):>10} [{_fmt(sa['q1'])}, "
                f"{_fmt(sa['q3'])}] {_fmt(sb['median']):>10} "
                f"[{_fmt(sb['q1'])}, {_fmt(sb['q3'])}] "
                f"{a_wins:>4}:{b_wins:<4}  "
                f"{verdict(va, vb, higher, spec[metric]['bound'])}"
            )
    return 0


# -- entry point --------------------------------------------------------------


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description="end-to-end repro serve benchmark"
    )
    parser.add_argument("--workload", choices=harness.WORKLOAD_NAMES,
                        help="run one workload for --seconds")
    parser.add_argument("--seed", type=int, default=None,
                        help="input seed (default: 7 paper, 11 wide)")
    parser.add_argument("--seconds", type=float, default=12.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--repeats", type=int, default=5)
    parser.add_argument("--scale", choices=sorted(harness.SCALES),
                        default="default")
    parser.add_argument("--out", default=None,
                        help="JSON-lines file the record is appended to "
                             "(default .bench_build/e2e/records.jsonl)")
    parser.add_argument("--compare", nargs=2, metavar=("A", "B"))
    args = parser.parse_args(argv)
    try:
        if args.compare:
            return compare(*args.compare)
        if args.workload:
            wl = harness.workload(args.workload)
            seed = harness.SEEDS[wl.trace] if args.seed is None else args.seed
            result = bench(args.workload, seed, args.seconds,
                           bool(args.trace), args.scale)
            print(json.dumps(result))
            return 0
        record = run_all(args.seed, args.repeats, args.seconds, args.scale)
    except BenchError as error:
        print(f"benchmark cannot run: {error}", file=sys.stderr)
        return 2
    out = pathlib.Path(args.out) if args.out else (
        harness.BUILD / "records.jsonl"
    )
    out.parent.mkdir(parents=True, exist_ok=True)
    with open(out, "a") as handle:
        handle.write(json.dumps(record) + "\n")
    print_record(record)
    print(f"\nrecord appended to {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
