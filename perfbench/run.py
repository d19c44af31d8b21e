#!/usr/bin/env python3
"""Build and run the repository benchmark (see perfbench/README.md).

  python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
  python3 perfbench/run.py --workload all [--seed N --seconds S --trace 0|1]
  python3 perfbench/run.py --selftest [--workload NAME] [--seed N] [--seconds S]

Builds perfbench/vpga_bench.exe from source with dune (build output goes to
standard error), stamps the source revision, and runs the workload.  The
last line of standard output is the JSON result.  --workload all runs every
workload in turn and ends with one combined JSON line whose metric names are
prefixed with the workload.  --selftest runs each workload's traced pass
twice and fails unless every metric layers.json marks exact repeats exactly
and every "stresses" claim in layers.json holds.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
HERE = os.path.join(ROOT, "perfbench")
EXE = os.path.join(ROOT, "_build", "default", "perfbench", "vpga_bench.exe")
LAYERS = os.path.join(HERE, "layers.json")
RUN_TIMEOUT_S = 170


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(1)


def build():
    for need in ("dune-project", "lib", os.path.join("perfbench", "dune")):
        if not os.path.exists(os.path.join(ROOT, need)):
            fail("%s is missing: run from a checkout of the repository" % need)
    env = dict(os.environ, DUNE_CACHE="disabled")
    r = subprocess.run(
        ["dune", "build", "--root", ROOT, "./perfbench/vpga_bench.exe"],
        cwd=ROOT, stdout=sys.stderr, stderr=sys.stderr, env=env)
    if r.returncode != 0 or not os.path.exists(EXE):
        fail("build failed")


def revision():
    """git commit when the checkout is a repository, plus a digest of the
    sources the benchmark builds from (the only stamp when it is not)."""
    h = hashlib.md5()
    for top in ("dune-project", "lib", "bin", "perfbench"):
        path = os.path.join(ROOT, top)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(path) for f in fs)
        for f in sorted(files):
            h.update(os.path.relpath(f, ROOT).encode())
            with open(f, "rb") as fh:
                h.update(fh.read())
    rev = "src-md5:" + h.hexdigest()[:12]
    if os.path.isdir(os.path.join(ROOT, ".git")):
        r = subprocess.run(
            ["git", "--git-dir", os.path.join(ROOT, ".git"), "rev-parse",
             "--short=12", "HEAD"],
            capture_output=True, text=True)
        if r.returncode == 0:
            rev = "git:" + r.stdout.strip() + "," + rev
    return rev


def run_one(workload, seed, seconds, trace, rev, echo=True):
    """Run one workload; returns the parsed result and its raw line."""
    try:
        r = subprocess.run(
            [EXE, "--workload", workload, "--seed", str(seed), "--seconds",
             str(seconds), "--trace", str(trace), "--rev", rev],
            cwd=ROOT, capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("%s did not finish within %d s" % (workload, RUN_TIMEOUT_S))
    sys.stderr.write(r.stderr)
    lines = r.stdout.splitlines()
    if r.returncode != 0 or not lines:
        if echo:
            sys.stdout.write(r.stdout)
        fail("%s exited with code %d" % (workload, r.returncode))
    result = json.loads(lines[-1])
    if echo:
        sys.stdout.write("\n".join(lines[:-1]) + "\n")
    return result, lines[-1]


def selftest(workloads, seed, seconds, rev):
    spec = json.load(open(LAYERS))
    exact = spec["exact"]
    bad = []
    for w in workloads:
        first, _ = run_one(w, seed, seconds, 1, rev, echo=False)
        second, _ = run_one(w, seed, seconds, 1, rev, echo=False)
        for res in (first, second):
            if not res["correct"]:
                bad.append("%s: %d of %d operations failed"
                           % (w, res["failed"], res["attempted"]))
        a, b = first["metrics"], second["metrics"]
        drift = [n for n in exact if a[n]["value"] != b[n]["value"]]
        for n in drift:
            bad.append("%s: %s not exact: %r then %r"
                       % (w, n, a[n]["value"], b[n]["value"]))
        print("%-15s %d of %d exact metrics repeat"
              % (w, len(exact) - len(drift), len(exact)))
        for claim in spec["workloads"][w].get("stresses", []):
            value = a[claim["metric"]]["value"]
            if "share_of" in claim:
                value /= a[claim["share_of"]]["value"]
            ok = value >= claim["min"] if "min" in claim else value == claim["equals"]
            print("%-15s %-48s %s" % (w, claim["text"], "ok" if ok else "FAILED"))
            if not ok:
                bad.append("%s: %s (measured %.4g)" % (w, claim["text"], value))
    for x in bad:
        print("FAILED " + x)
    return not bad


def main():
    spec = json.load(open(LAYERS))
    names = list(spec["workloads"])
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", default=None)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=int, default=10)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--selftest", action="store_true")
    a = p.parse_args()
    chosen = names if a.workload in (None, "all") else [a.workload]
    if any(w not in names for w in chosen):
        fail("unknown workload %s (one of: %s)" % (a.workload, ", ".join(names)))
    if a.workload is None and not a.selftest:
        fail("--workload is required")
    build()
    rev = revision()
    if a.selftest:
        sys.exit(0 if selftest(chosen, a.seed, a.seconds, rev) else 1)
    if len(chosen) == 1:
        _, line = run_one(chosen[0], a.seed, a.seconds, a.trace, rev)
        print(line)
        return
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for w in chosen:
        print("== " + w)
        res, _ = run_one(w, a.seed, a.seconds, a.trace, rev)
        combined["correct"] = combined["correct"] and res["correct"]
        combined["attempted"] += res["attempted"]
        combined["failed"] += res["failed"]
        for k, v in res["metrics"].items():
            combined["metrics"][w + "." + k] = v
    print(json.dumps(combined))


if __name__ == "__main__":
    main()
