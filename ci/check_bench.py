#!/usr/bin/env python3
"""Speedup pins for the bench_* binaries.

The baseline-vs-current regression comparison lives in the rule-driven
`pkx diff` gate (bench2pkb + rules/regression.rules). This script holds
only the pins CI runs over google-benchmark JSON reports.

--require-speedup SLOW FAST RATIO asserts an absolute speedup *within*
the current report: real_time(SLOW) must be at least RATIO times
real_time(FAST). Both benchmarks come from the same run on the same
machine, so no normalization is needed; this pins down claims like "PKB
cold load is >= 5x faster than the text parse". Repeatable; needs no
baseline.

--require-speedup-vs-baseline NAME RATIO asserts a speedup *across*
reports: benchmark NAME in the current report must be at least RATIO
times faster than in the baseline. Each report is normalized by the
geometric mean of the benchmarks both share,

    ratio(b) = real_time(b) / geomean(shared real_times in report)

which cancels machine speed to first order, so a faster CI machine
cannot fake the speedup and the shared unaffected benchmarks anchor the
scale. This is how CI pins "the columnar store makes fact churn >= 2x
faster than the pre-overhaul code": the pre-overhaul report is
committed once (bench/baseline/bench_fact_churn_pre.json) and never
regenerated. Repeatable.

Exit codes: 0 pass, 1 a pin failed, 2 usage/input error.

--self-test proves both pins can fire: over the --baseline report, a
satisfiable and an unsatisfiable --require-speedup, an identical report
and an injected 4x speedup against --require-speedup-vs-baseline. Run
in CI before the real pins so a silently broken pin cannot masquerade
as green.

Stdlib only (no pip installs on the runner).
"""

import argparse
import copy
import json
import math
import sys


def load_benchmarks(paths):
    """Returns {name: real_time} merged over one or more JSON reports.

    Run the benchmark with --benchmark_repetitions=N (and optionally
    several times); the minimum over all repetition rows in all files
    is taken per benchmark. Min is the standard low-noise statistic
    for wall-clock microbenchmarks: scheduler preemption and cache
    pollution only ever add time, so the minimum approaches the true
    cost while mean/median wander with load.
    """
    out = {}
    for path in paths:
        with open(path) as f:
            report = json.load(f)
        for b in report.get("benchmarks", []):
            if b.get("run_type") == "aggregate":
                continue
            name = b["name"]
            t = float(b["real_time"])
            out[name] = min(out.get(name, t), t)
    if not out:
        raise ValueError(f"{paths}: no benchmark entries")
    return out


def geomean(times):
    return math.exp(sum(math.log(t) for t in times) / len(times))


def check_speedups(current, requirements):
    """Returns failure strings for unmet --require-speedup constraints."""
    failures = []
    for slow, fast, ratio in requirements:
        if slow not in current or fast not in current:
            missing = [n for n in (slow, fast) if n not in current]
            failures.append(f"--require-speedup: {', '.join(missing)} "
                            f"missing from current report")
            continue
        actual = current[slow] / current[fast]
        status = "ok" if actual >= ratio else "FAIL"
        print(f"  {status:4s} {slow} / {fast}: {actual:.1f}x "
              f"(required >= {ratio:g}x)")
        if actual < ratio:
            failures.append(f"{fast} is only {actual:.1f}x faster than "
                            f"{slow} (required >= {ratio:g}x)")
    return failures


def check_speedups_vs_baseline(baseline, current, requirements):
    """Failure strings for unmet --require-speedup-vs-baseline pins.

    speedup(NAME) = (baseline[NAME] / baseline_geomean)
                  / (current[NAME] / current_geomean)

    computed over the benchmarks shared by both reports: machine speed
    cancels, so only a genuine improvement on NAME's code path (relative
    to its unaffected siblings) counts.
    """
    failures = []
    shared = sorted(set(baseline) & set(current))
    if not shared:
        return ["--require-speedup-vs-baseline: no shared benchmarks "
                "between baseline and current"]
    if any(baseline[n] <= 0 or current[n] <= 0 for n in shared):
        return ["--require-speedup-vs-baseline: non-positive benchmark "
                "time in report"]
    base_geo = geomean([baseline[n] for n in shared])
    cur_geo = geomean([current[n] for n in shared])
    for name, ratio in requirements:
        if name not in baseline or name not in current:
            where = "baseline" if name not in baseline else "current"
            failures.append(f"--require-speedup-vs-baseline: {name} "
                            f"missing from {where} report")
            continue
        actual = (baseline[name] / base_geo) / (current[name] / cur_geo)
        status = "ok" if actual >= ratio else "FAIL"
        print(f"  {status:4s} {name}: {actual:.1f}x faster than baseline, "
              f"normalized (required >= {ratio:g}x)")
        if actual < ratio:
            failures.append(f"{name}: only {actual:.1f}x faster than "
                            f"baseline, normalized "
                            f"(required >= {ratio:g}x)")
    return failures


def parse_speedup_args(raw):
    """[[slow, fast, '5'], ...] -> [(slow, fast, 5.0), ...]."""
    out = []
    for slow, fast, ratio in raw or []:
        out.append((slow, fast, float(ratio)))
    return out


def self_test(baseline):
    """Proves both pins fire when unmet and pass when met."""
    names = sorted(baseline)
    if len(names) < 2:
        print("self-test FAILED: the baseline needs two benchmarks")
        return False
    slow, fast = names[0], names[1]
    actual = baseline[slow] / baseline[fast]
    print("self-test: satisfiable --require-speedup must pass")
    if check_speedups(baseline, [(slow, fast, actual / 2)]):
        print("self-test FAILED: satisfied speedup requirement failed")
        return False
    print("self-test: unsatisfiable --require-speedup must fail")
    if not check_speedups(baseline, [(slow, fast, actual * 2)]):
        print("self-test FAILED: unmet speedup requirement passed")
        return False
    victim = names[0]
    print("self-test: identical reports give a 1.0x normalized speedup")
    if check_speedups_vs_baseline(baseline, dict(baseline),
                                  [(victim, 0.9)]):
        print("self-test FAILED: 0.9x vs-baseline pin failed on "
              "identical reports")
        return False
    print("self-test: unmet --require-speedup-vs-baseline must fail")
    if not check_speedups_vs_baseline(baseline, dict(baseline),
                                      [(victim, 2.0)]):
        print("self-test FAILED: 2x vs-baseline pin passed on "
              "identical reports")
        return False
    sped = copy.deepcopy(baseline)
    sped[victim] /= 4.0
    print(f"self-test: 4x speedup injected into {victim} must satisfy "
          "a 2x vs-baseline pin")
    if check_speedups_vs_baseline(baseline, sped, [(victim, 2.0)]):
        print("self-test FAILED: injected 4x speedup did not satisfy "
              "the 2x vs-baseline pin")
        return False
    print("self-test passed: both pins fire")
    return True


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--baseline", nargs="+",
                    help="committed baseline JSON report(s), for "
                    "--require-speedup-vs-baseline and --self-test")
    ap.add_argument("--current", nargs="+",
                    help="fresh benchmark JSON report(s); several runs "
                    "are merged by elementwise min "
                    "(required unless --self-test)")
    ap.add_argument("--self-test", action="store_true",
                    help="verify both pins fire on the baseline report")
    ap.add_argument("--require-speedup", nargs=3, action="append",
                    metavar=("SLOW", "FAST", "RATIO"),
                    help="require real_time(SLOW) >= RATIO * "
                    "real_time(FAST) in the current report; repeatable")
    ap.add_argument("--require-speedup-vs-baseline", nargs=2,
                    action="append", metavar=("NAME", "RATIO"),
                    help="require NAME to be >= RATIO x faster in the "
                    "current report than in the baseline, geomean-"
                    "normalized per report; repeatable")
    args = ap.parse_args()

    try:
        speedups = parse_speedup_args(args.require_speedup)
        vs_baseline = [(name, float(ratio))
                       for name, ratio in
                       args.require_speedup_vs_baseline or []]
    except ValueError as e:
        print(f"error in --require-speedup: {e}", file=sys.stderr)
        return 2

    baseline = None
    if args.baseline:
        try:
            baseline = load_benchmarks(args.baseline)
        except (OSError, ValueError, KeyError) as e:
            print(f"error reading baseline: {e}", file=sys.stderr)
            return 2
    elif args.self_test or vs_baseline:
        print("error: --baseline is required by --self-test and "
              "--require-speedup-vs-baseline", file=sys.stderr)
        return 2

    if args.self_test:
        return 0 if self_test(baseline) else 1

    if not args.current:
        print("error: --current is required unless --self-test",
              file=sys.stderr)
        return 2
    try:
        current = load_benchmarks(args.current)
    except (OSError, ValueError, KeyError) as e:
        print(f"error reading current report: {e}", file=sys.stderr)
        return 2

    if not speedups and not vs_baseline:
        print("error: no pin given (--require-speedup or "
              "--require-speedup-vs-baseline)", file=sys.stderr)
        return 2
    failures = []
    if speedups:
        print("bench gate: absolute speedup requirements")
        failures += check_speedups(current, speedups)
    if vs_baseline:
        print("bench gate: normalized speedup-vs-baseline requirements")
        failures += check_speedups_vs_baseline(baseline, current,
                                               vs_baseline)
    if failures:
        print("\nspeedup pins failed:")
        for f in failures:
            print(f"  {f}")
        return 1
    print("speedup pins passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
