#!/usr/bin/env python3
"""Same-host A/B comparison of the working tree against a git revision:
the repo's one regression gate (`make ab`, run by `make check`).

  python3 bench/ab.py [--rev REV] [--expect-change METRIC ...]

Exports REV (default HEAD~1) with `git archive`, and the working tree's
tracked and unignored untracked files by copy, into two temporary
directories (no worktree, nothing written to .git).  Both sides build
there from scratch, so they run the same layout, and the tree may be
edited while ab runs.  Then, for every workload in BENCHMARK.json, it
runs 10 interleaved pairs of

  python3 perfbench/run.py --workload W --seed 1 --seconds S --trace 0

(S = BENCHMARK.json's run_seconds), alternating which side goes first,
and prints each end-to-end metric's median, interquartile range and win
count (pairs in which the working tree is better); a median worse than
the parent's by more than BENCHMARK.json's bound is marked `past bound`,
report-only.  Then it runs one traced pass per side, compares the
per-layer metrics that perfbench/layers.json marks exact, and prints that
pass's per-layer timings (BENCHMARK.json's per_layer metrics in s or ms,
e.g. mapper.compact_s) for both sides, report-only, so a stage's part in
a wall-time change shows in the same run; a metric named with
--expect-change that is not exact (a derived ratio such as
pack.fits_hit_ratio) is printed there per side too, report-only.  Last,
it runs 10 interleaved pairs of the Bechamel kernels (`bench/main.exe
-kernels`) and prints each kernel's minimum and median ns/run per side.
Host interference only adds time, so the kernels are gated on the
minimum over the pairs.

Exits 1 when, on any workload, the working tree fails more operations in
total over its runs, a QoR metric (die_area_mm2, path_delay_ps,
wirelength_mm) differs, or an exact per-layer metric differs and is not
named with --expect-change; or when a kernel that runs on both sides has
a minimum ns/run more than 25% above the parent's.  --expect-change takes
any per_layer metric of BENCHMARK.json; another name exits with an error
at once.  `make ab [REV=...] [EXPECT=...]` runs it.
"""

import argparse
import json
import os
import re
import shutil
import statistics
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
QOR = ("die_area_mm2", "path_delay_ps", "wirelength_mm")
PAIRS = 10
KERNEL_PAIRS = 10
KERNEL_BOUND = 0.25
SEED = 1
KERNEL_LINE = re.compile(r"^\s+(\S+)\s+([0-9.]+) ns/run")


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def export(rev, dest):
    """Unpack the tree of REV into a new directory DEST; returns the full
    commit id."""
    commit = subprocess.run(
        ["git", "-C", ROOT, "rev-parse", "--verify", rev + "^{commit}"],
        capture_output=True, text=True)
    if commit.returncode != 0:
        sys.exit("ab: unknown revision %s" % rev)
    os.mkdir(dest)
    archive = subprocess.Popen(["git", "-C", ROOT, "archive", rev],
                               stdout=subprocess.PIPE)
    subprocess.run(["tar", "-x", "-C", dest], stdin=archive.stdout, check=True)
    if archive.wait() != 0:
        sys.exit("ab: git archive %s failed" % rev)
    return commit.stdout.strip()


def export_worktree(dest):
    """Copy the working tree's tracked files and its untracked files that
    are not ignored into DEST, skipping tracked files deleted in the tree."""
    r = subprocess.run(["git", "-C", ROOT, "ls-files", "-z", "--cached",
                        "--others", "--exclude-standard"],
                       capture_output=True, check=True)
    for rel in sorted(set(r.stdout.decode().split("\0")) - {""}):
        src = os.path.join(ROOT, rel)
        if not os.path.lexists(src):
            continue
        dst = os.path.join(dest, rel)
        os.makedirs(os.path.dirname(dst), exist_ok=True)
        shutil.copy2(src, dst, follow_symlinks=False)


def bench(tree, workload, seconds, trace):
    """One perfbench run in TREE; returns its JSON result."""
    r = subprocess.run(
        [sys.executable, os.path.join(tree, "perfbench", "run.py"),
         "--workload", workload, "--seed", str(SEED),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=tree, capture_output=True, text=True)
    lines = r.stdout.splitlines()
    if r.returncode != 0 or not lines:
        sys.stderr.write(r.stderr)
        sys.exit("ab: perfbench failed in %s on %s" % (tree, workload))
    return json.loads(lines[-1])


def interleave(pairs, base_tree, new_tree, run, what):
    """PAIRS runs of RUN(tree) per side, alternating which side goes
    first; returns the base and new results."""
    base, new = [], []
    for i in range(pairs):
        sides = [(base_tree, base), (new_tree, new)]
        if i % 2:
            sides.reverse()
        for tree, out in sides:
            out.append(run(tree))
        log("ab: %s pair %d/%d done" % (what, i + 1, pairs))
    return base, new


def kernels(tree):
    """One `bench/main.exe -kernels` run in TREE: {kernel: ns/run}."""
    exe = os.path.join(tree, "_build", "default", "bench", "main.exe")
    r = subprocess.run([exe, "-kernels"], cwd=tree, capture_output=True,
                       text=True)
    # A REV older than -kernels has only -perfdiff, which prints the same
    # kernel lines but exits 1 on a diff against the committed
    # BENCH_sweep.json, so its exit code is ignored.  Drop this fallback
    # once REV is never older than the commit that added -kernels.
    legacy = "unknown option '-kernels'" in r.stderr
    if legacy:
        r = subprocess.run([exe, "-perfdiff"], cwd=tree, capture_output=True,
                           text=True)
    out = {}
    for line in r.stdout.splitlines():
        m = KERNEL_LINE.match(line)
        if m:
            out[m.group(1)] = float(m.group(2))
    if (r.returncode != 0 and not legacy) or not out:
        sys.stderr.write(r.stdout + r.stderr)
        sys.exit("ab: no kernel timings from %s" % tree)
    return out


def compare_kernels(base, new):
    """Print the kernel table; returns the kernels past the gate."""
    print("== bench kernels: %d pairs (ns/run); fails when the new minimum "
          "exceeds the base minimum by more than %.0f%%"
          % (len(base), KERNEL_BOUND * 100))
    print("%-24s %12s %12s %12s %12s %8s  %s"
          % ("kernel", "base min", "base median", "new min", "new median",
             "min delta", "verdict"))
    bad = []
    names = set().union(*base, *new)
    for name in sorted(names):
        b = [r[name] for r in base if name in r]
        n = [r[name] for r in new if name in r]
        cells = []
        for xs in (b, n):
            cells += (["%12.0f" % min(xs), "%12.0f" % statistics.median(xs)]
                      if xs else ["%12s" % "-"] * 2)
        if not n or not b:
            print("%-24s %s %s %s %s %8s  %s" % (
                name, *cells, "", "(base only)" if b else "(new only)"))
            continue
        ratio = min(n) / min(b)
        verdict = "ok"
        if ratio > 1 + KERNEL_BOUND:
            verdict = "FAIL"
            bad.append("kernel %s: minimum %.0f -> %.0f ns/run (%+.1f%%)"
                       % (name, min(b), min(n), (ratio - 1) * 100))
        print("%-24s %s %s %s %s %+7.1f%%  %s"
              % (name, *cells, (ratio - 1) * 100, verdict))
    return bad


def kernel_step(base_tree, new_tree):
    """Build bench/main.exe in both trees, run KERNEL_PAIRS interleaved
    pairs and print the table; returns the kernels past the gate."""
    for tree in (base_tree, new_tree):
        subprocess.run(["dune", "build", "--root", tree, "bench/main.exe"],
                       cwd=tree, check=True, capture_output=True)
    return compare_kernels(*interleave(KERNEL_PAIRS, base_tree, new_tree,
                                       kernels, "kernel"))


def quartiles(xs):
    if len(xs) < 2:
        return xs[0], xs[0], xs[0]
    q1, q2, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return q1, q2, q3


def compare(workload, base, new, end_to_end):
    """Print one workload's comparison; returns its failures.  A median
    worse than the parent's by more than the metric's bound is marked
    `past bound` but does not fail: sub-millisecond setup_s crosses 25%
    on host noise alone."""
    bad = []
    print("== %s: %d pairs (base = parent, new = working tree)"
          % (workload, len(base)))
    print("%-16s %14s %10s %14s %10s %8s %6s"
          % ("metric", "base median", "base IQR", "new median", "new IQR",
             "delta", "wins"))
    for name, (lower, bound) in end_to_end.items():
        if name not in base[0]["metrics"]:
            continue
        b = [r["metrics"][name]["value"] for r in base]
        n = [r["metrics"][name]["value"] for r in new]
        bq1, bmed, bq3 = quartiles(b)
        nq1, nmed, nq3 = quartiles(n)
        sign = 1 if lower else -1
        wins = sum(1 for x, y in zip(n, b) if sign * (x - y) < 0)
        delta = (nmed - bmed) / bmed if bmed else 0.0
        print("%-16s %14.6g %10.3g %14.6g %10.3g %+7.1f%% %3d/%d%s"
              % (name, bmed, bq3 - bq1, nmed, nq3 - nq1, delta * 100, wins,
                 len(n), "  past bound" if sign * delta > bound else ""))
        if name in QOR and sorted(set(b)) != sorted(set(n)):
            bad.append("%s: %s differs: %s vs %s"
                       % (workload, name, sorted(set(b)), sorted(set(n))))
    bf = sum(r["failed"] for r in base)
    nf = sum(r["failed"] for r in new)
    print("failed operations over all runs: base %d of %d, new %d of %d"
          % (bf, sum(r["attempted"] for r in base),
             nf, sum(r["attempted"] for r in new)))
    if nf > bf:
        bad.append("%s: failed operations rose from %d to %d"
                   % (workload, bf, nf))
    return bad


def compare_exact(workload, base, new, exact, expect):
    bad = []
    for name in exact:
        b = base["metrics"][name]["value"]
        n = new["metrics"][name]["value"]
        if b == n:
            continue
        tag = "expected" if name in expect else "UNEXPECTED"
        print("exact %-28s %14.6g -> %-14.6g %s" % (name, b, n, tag))
        if name not in expect:
            bad.append("%s: exact metric %s changed: %r -> %r"
                       % (workload, name, b, n))
    return bad


def compare_declared(base, new, declared):
    """Print each declared non-exact metric's traced-pass value per side."""
    for name in declared:
        b = base["metrics"].get(name, {}).get("value")
        n = new["metrics"].get(name, {}).get("value")
        print("declared %-25s %14s -> %-14s report only" % (name, b, n))


def compare_timing(workload, base, new, timing):
    """Print the traced pass's per-layer timings per side (report only)."""
    print("-- %s traced pass, per-layer timing (1 run per side, report only)"
          % workload)
    print("%-24s %12s %12s %8s" % ("metric", "base", "new", "delta"))
    for name in timing:
        if name not in base["metrics"] or name not in new["metrics"]:
            continue
        b = base["metrics"][name]["value"]
        n = new["metrics"][name]["value"]
        print("%-24s %12.4g %12.4g %+7.1f%%"
              % (name, b, n, (n - b) / b * 100 if b else 0.0))


def main():
    spec = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))
    layers = json.load(open(os.path.join(ROOT, "perfbench", "layers.json")))
    workloads = [w["name"] for w in spec["workloads"]]
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--rev", default="HEAD~1")
    p.add_argument("--expect-change", action="append", default=[],
                   metavar="METRIC")
    a = p.parse_args()
    seconds = spec["run_seconds"]
    per_layer = [m["name"] for m in spec["per_layer"]]
    unknown = [m for m in a.expect_change if m not in per_layer]
    if unknown:
        sys.exit("ab: not a per_layer metric of BENCHMARK.json: %s"
                 % ", ".join(unknown))
    declared = [m for m in a.expect_change if m not in layers["exact"]]
    end_to_end = {m["name"]: (m["better"] == "lower", m["bound"])
                  for m in spec["end_to_end"]}
    timing = [m["name"] for m in spec["per_layer"] if m["unit"] in ("s", "ms")]
    tmp = tempfile.mkdtemp(prefix="vpga-ab-")
    base_tree, new_tree = os.path.join(tmp, "base"), os.path.join(tmp, "new")
    try:
        commit = export(a.rev, base_tree)
        export_worktree(new_tree)
        log("ab: base %s (%s) and the working tree exported to %s"
            % (a.rev, commit[:12], tmp))
        bad = []
        for w in workloads:
            base, new = interleave(
                PAIRS, base_tree, new_tree,
                lambda tree: bench(tree, w, seconds, 0), w)
            bad += compare(w, base, new, end_to_end)
            traced_base = bench(base_tree, w, 1, 1)
            traced_new = bench(new_tree, w, 1, 1)
            bad += compare_exact(w, traced_base, traced_new, layers["exact"],
                                 a.expect_change)
            compare_declared(traced_base, traced_new, declared)
            compare_timing(w, traced_base, traced_new, timing)
            sys.stdout.flush()
        bad += kernel_step(base_tree, new_tree)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    for b in bad:
        print("FAILED " + b)
    sys.exit(1 if bad else 0)


if __name__ == "__main__":
    main()
