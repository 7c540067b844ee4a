#!/usr/bin/env python3
"""Compares two result sets of the end-to-end benchmark (stdlib only).

A result set is a directory of run outputs, one file per run: the stdout of
`bench/e2e/run.sh --workload W --seed N --seconds S --trace 0`. Its first
line names the workload and seed, each metric line ends with the metric's
clock (host, sim or derived), and its last line is the JSON result. Traced
runs are ignored.

For every workload and every end-to-end metric of BENCHMARK.json it prints
each side's median and quartiles, the change of the median, the bound and a
verdict:

  ok          within the bound (sim metrics: bit-identical for every seed)
  better      host metric: the change wins at least 9 of 10 seed-paired runs
              and the medians differ by more than the parent's quartile
              spread
  worse       the median got worse by more than the bound
  unresolved  host metric: a side's quartile spread exceeds the bound and
              not every run of the change beats every run of the parent
  changed     sim metric: some seed's value moved, but within the bound
  missing     a run of either side lacks the metric

Sim metrics are deterministic per seed, so they are compared seed by seed
and any change is flagged. Exits 1 if any row is worse, unresolved or
missing, 2 on unusable input, 0 otherwise.

usage: compare.py PARENT_DIR CHANGE_DIR [--benchmark BENCHMARK.json]
       compare.py --selftest
"""

import json
import math
import os
import statistics
import sys
import tempfile

MIN_RUNS = 5
HERE = os.path.dirname(os.path.abspath(__file__))
DEFAULT_BENCHMARK = os.path.join(HERE, "..", "..", "BENCHMARK.json")


class InputError(Exception):
    pass


def parse_run(path):
    """One run file -> dict(workload, seed, traced, values, clocks)."""
    with open(path) as f:
        lines = [line.rstrip("\n") for line in f if line.strip()]
    if not lines or not lines[0].startswith("# "):
        raise InputError(f"{path}: no '# <workload> seed=<n>' header")
    header = lines[0].split()
    fields = dict(part.split("=", 1) for part in header[2:] if "=" in part)
    try:
        result = json.loads(lines[-1])
        seed = int(fields["seed"])
    except (ValueError, KeyError) as e:
        raise InputError(f"{path}: unreadable run output ({e})")
    clocks = {}
    for line in lines[1:-1]:
        parts = line.split()
        if len(parts) == 4:
            clocks[parts[0]] = parts[3]
    return {
        "workload": header[1],
        "seed": seed,
        "traced": "traced" in header[2:],
        "correct": result.get("correct") is True,
        "values": {k: v["value"] for k, v in result["metrics"].items()},
        "clocks": clocks,
    }


def load_set(directory):
    """Untraced runs of a result set, grouped by workload."""
    if not os.path.isdir(directory):
        raise InputError(f"{directory}: not a directory")
    runs = {}
    for name in sorted(os.listdir(directory)):
        path = os.path.join(directory, name)
        if not os.path.isfile(path):
            continue
        run = parse_run(path)
        if not run["traced"]:
            runs.setdefault(run["workload"], []).append(run)
    return runs


def quartiles(values):
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def verdict(metric, parent, change):
    """One comparison row for `metric` (a BENCHMARK.json end_to_end entry)."""
    name, bound = metric["name"], metric["bound"]
    sign = 1.0 if metric["better"] == "lower" else -1.0
    row = {"metric": name, "bound": bound}
    if any(name not in r["values"] for r in parent + change):
        row["verdict"] = "missing"
        return row
    a = [r["values"][name] for r in parent]
    b = [r["values"][name] for r in change]
    med_a, med_b = statistics.median(a), statistics.median(b)
    (a1, a3), (b1, b3) = quartiles(a), quartiles(b)
    row.update(med_a=med_a, q_a=(a1, a3), med_b=med_b, q_b=(b1, b3))
    worse_by = sign * (med_b - med_a) / abs(med_a) if med_a else 0.0
    row["delta"] = (med_b - med_a) / abs(med_a) if med_a else 0.0

    by_seed_a = {r["seed"]: r["values"][name] for r in parent}
    by_seed_b = {r["seed"]: r["values"][name] for r in change}
    seeds = sorted(set(by_seed_a) & set(by_seed_b))
    clock = (parent + change)[0]["clocks"].get(name, "host")
    if clock == "sim":
        moved = [s for s in seeds if by_seed_a[s] != by_seed_b[s]]
        if not moved and len(seeds) == len(parent) == len(change):
            row["verdict"] = "ok"
        elif worse_by > bound:
            row["verdict"] = "worse"
        else:
            row["verdict"] = "changed"
        return row

    if seeds:
        pairs = [(by_seed_a[s], by_seed_b[s]) for s in seeds]
    else:
        pairs = list(zip(sorted(a), sorted(b)))
    wins = sum(1 for x, y in pairs if sign * (x - y) > 0)
    spread = max((a3 - a1) / abs(med_a) if med_a else 0.0,
                 (b3 - b1) / abs(med_b) if med_b else 0.0)
    all_better = (max(b) < min(a)) if sign > 0 else (min(b) > max(a))
    if (wins >= 0.9 * len(pairs) and sign * (med_a - med_b) > (a3 - a1)):
        row["verdict"] = "better"
    elif spread > bound and not all_better:
        row["verdict"] = "unresolved"
    elif worse_by > bound:
        row["verdict"] = "worse"
    else:
        row["verdict"] = "ok"
    return row


def compare(parent_dir, change_dir, benchmark):
    """[(workload, row)] for every workload and end-to-end metric."""
    parent, change = load_set(parent_dir), load_set(change_dir)
    rows = []
    for workload in sorted(set(parent) | set(change)):
        p, c = parent.get(workload, []), change.get(workload, [])
        if len(p) < MIN_RUNS or len(c) < MIN_RUNS:
            raise InputError(f"{workload}: {len(p)} parent and {len(c)} "
                             f"change runs; need at least {MIN_RUNS} each")
        incorrect = sum(1 for r in p + c if not r["correct"])
        if incorrect:
            raise InputError(f"{workload}: {incorrect} runs report "
                             "correct=false")
        for metric in benchmark["end_to_end"]:
            rows.append((workload, verdict(metric, p, c)))
    return rows


def exit_status(rows):
    failing = ("worse", "unresolved", "missing")
    return 1 if any(r["verdict"] in failing for _, r in rows) else 0


def print_rows(rows, out=sys.stdout):
    fmt = "{:<14} {:<22} {:>32} {:>32} {:>9} {:>6}  {}"
    print(fmt.format("workload", "metric", "parent median [q1, q3]",
                     "change median [q1, q3]", "delta", "bound", "verdict"),
          file=out)
    counts = {}
    for workload, row in rows:
        counts[row["verdict"]] = counts.get(row["verdict"], 0) + 1
        if row["verdict"] == "missing":
            print(fmt.format(workload, row["metric"], "-", "-", "-",
                             f"{row['bound']:.0%}", "missing"), file=out)
            continue
        side = "{:.6g} [{:.6g}, {:.6g}]"
        print(fmt.format(workload, row["metric"],
                         side.format(row["med_a"], *row["q_a"]),
                         side.format(row["med_b"], *row["q_b"]),
                         f"{row['delta']:+.2%}", f"{row['bound']:.0%}",
                         row["verdict"]), file=out)
    print("summary: " + ", ".join(f"{n} {v}" for v, n in sorted(
        counts.items())), file=out)


# ---- self test ---------------------------------------------------------------

SELFTEST_BENCHMARK = {"end_to_end": [
    {"name": "wall_s", "unit": "s", "better": "lower", "bound": 0.1},
    {"name": "peak_rss_mb", "unit": "MB", "better": "lower", "bound": 0.1},
    {"name": "sim_latency_s", "unit": "s", "better": "lower", "bound": 0.1},
]}
SELFTEST_CLOCKS = {"wall_s": "host", "peak_rss_mb": "host",
                   "sim_latency_s": "sim"}


def write_set(directory, runs):
    """Writes {seed: metrics} as one run file per seed."""
    os.makedirs(directory)
    for seed, metrics in runs.items():
        lines = [f"# paper-figs seed={seed} rounds=5 untraced"]
        lines += [f"{k} {v!r} s {SELFTEST_CLOCKS[k]}"
                  for k, v in metrics.items()]
        lines.append(json.dumps({
            "correct": True, "attempted": 39, "failed": 0,
            "metrics": {k: {"value": v, "unit": "s"}
                        for k, v in metrics.items()}}))
        with open(os.path.join(directory, f"run{seed}.txt"), "w") as f:
            f.write("\n".join(lines) + "\n")


def selftest():
    base = {seed: {"wall_s": 1.0 + 0.004 * (seed % 3),
                   "peak_rss_mb": 50.0 + 0.1 * (seed % 2),
                   "sim_latency_s": 2.0 + seed * 1e-6}
            for seed in range(1, 7)}

    def variant(edit):
        runs = {seed: dict(m) for seed, m in base.items()}
        edit(runs)
        return runs

    def slower(runs):
        for m in runs.values():
            m["wall_s"] *= 1.15

    def sim_ulp(runs):
        runs[3]["sim_latency_s"] = math.nextafter(runs[3]["sim_latency_s"],
                                                  10.0)

    def drop(runs):
        del runs[5]["peak_rss_mb"]

    cases = [
        ("same commit", variant(lambda runs: None), {}, 0),
        ("+15% wall_s", variant(slower), {"wall_s": "worse"}, 1),
        ("one-ulp sim change", variant(sim_ulp),
         {"sim_latency_s": "changed"}, 0),
        ("dropped metric", variant(drop), {"peak_rss_mb": "missing"}, 1),
    ]
    failures = 0
    with tempfile.TemporaryDirectory() as tmp:
        parent = os.path.join(tmp, "parent")
        write_set(parent, base)
        for i, (label, runs, expect, status) in enumerate(cases):
            change = os.path.join(tmp, f"change{i}")
            write_set(change, runs)
            rows = compare(parent, change, SELFTEST_BENCHMARK)
            rc = exit_status(rows)
            got = {row["metric"]: row["verdict"] for _, row in rows}
            want = {m["name"]: expect.get(m["name"], "ok")
                    for m in SELFTEST_BENCHMARK["end_to_end"]}
            ok = got == want and rc == status
            failures += not ok
            print(f"{'ok  ' if ok else 'FAIL'} {label}: verdicts {got}, "
                  f"exit {rc}")
    return 1 if failures else 0


def main(argv):
    if argv[1:] == ["--selftest"]:
        return selftest()
    args = argv[1:]
    benchmark_path = DEFAULT_BENCHMARK
    if "--benchmark" in args:
        i = args.index("--benchmark")
        if i + 1 >= len(args):
            print(__doc__, file=sys.stderr)
            return 2
        benchmark_path = args[i + 1]
        del args[i:i + 2]
    if len(args) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    try:
        with open(benchmark_path) as f:
            benchmark = json.load(f)
        rows = compare(args[0], args[1], benchmark)
    except (InputError, OSError, ValueError, KeyError) as e:
        print(f"compare.py: {e}", file=sys.stderr)
        return 2
    print_rows(rows)
    return exit_status(rows)


if __name__ == "__main__":
    sys.exit(main(sys.argv))
