#!/usr/bin/env python3
"""Build the perfbench binary from this checkout's sources and run it.

Run from anywhere; the checkout is the directory above this file:

    python3 perfbench/run.py --workload paper-repair --seed 1 --seconds 20 --trace 0

The Go build cache, module cache and binary live under .bench_build/ in
the checkout. The last line of standard output is the JSON result; the line
before it is the run's record (host, nproc, GOMAXPROCS, Go version, source
revision, seed, run length, and the workload's own named figures). A traced
run also writes its spans to .bench_build/perfbench/spans-<workload>.jsonl.
The exit code is nonzero, and no result is printed, when the sources are
missing, the build fails, or any output check fails.
"""
import argparse
import hashlib
import os
import signal
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
RUN_TIMEOUT_S = 170


def source_revision():
    """The git commit when the checkout is a repository, else a digest of
    every Go source and module file in it."""
    head = ROOT / ".git" / "HEAD"
    if head.is_file():
        try:
            out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                 capture_output=True, text=True, timeout=30)
            if out.returncode == 0:
                return out.stdout.strip()
        except (OSError, subprocess.TimeoutExpired):
            pass
    h = hashlib.sha256()
    for p in sorted(ROOT.rglob("*")):
        rel = p.relative_to(ROOT)
        if rel.parts[0].startswith("."):
            continue
        if p.is_file() and (p.suffix == ".go" or p.name in ("go.mod", "go.sum")):
            h.update(str(rel).encode() + b"\0" + p.read_bytes())
    return "src-" + h.hexdigest()[:16]


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not (ROOT / "go.mod").is_file() or not (ROOT / "hbverify.go").is_file():
        print("perfbench: no hbverify sources in %s" % ROOT, file=sys.stderr)
        return 2

    tmp = BUILD / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ)
    env.update({
        "GOTMPDIR": str(tmp),
        "TMPDIR": str(tmp),
        "GOCACHE": str(BUILD / "gocache"),
        "GOMODCACHE": str(BUILD / "gomod"),
        "GOPATH": str(BUILD / "gopath"),
        "XDG_CONFIG_HOME": str(BUILD / "config"),
        "GOTOOLCHAIN": "local",
        "GOFLAGS": "",
        "CGO_ENABLED": "0",
    })
    binary = BUILD / "perfbench"
    build = subprocess.run(["go", "build", "-o", str(binary), "."], cwd=HERE, env=env,
                           stdout=sys.stderr)
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return build.returncode or 1

    cmd = [str(binary), "-workload", args.workload, "-seed", str(args.seed),
           "-seconds", str(args.seconds), "-trace", str(args.trace),
           "-commit", source_revision()]
    if args.trace == 1:
        cmd += ["-spans", str(BUILD / ("spans-%s.jsonl" % args.workload))]
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env)

    def stop(signum, _frame):
        proc.kill()
        proc.wait()
        sys.exit(128 + signum)

    signal.signal(signal.SIGTERM, stop)
    signal.signal(signal.SIGINT, stop)
    try:
        return proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        print("perfbench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
