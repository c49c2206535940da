#!/usr/bin/env python3
"""Build the repo benchmark from this checkout's sources and run it.

Usage, from the root of the checkout:

    python3 perfbench/run.py --workload cold_compile --seed 1 \
        --seconds 10 --trace 0

The build goes to $CARGO_TARGET_DIR (default .bench_build) and its
output to stderr, so the last line on stdout is the result JSON that
the perfbench binary prints. Any other flags (--defect ...) are passed
through to the binary. Exits with the binary's code, or 2 when the
build fails (for instance when the library sources are missing).
"""

import hashlib
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 175


def build_dir():
    path = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(ROOT, path)


def build(bdir):
    """Configure and build the perfbench target; True on success."""
    jobs = str(os.cpu_count() or 1)
    steps = [
        ["cmake", "-S", HERE, "-B", bdir, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", bdir, "--target", "perfbench", "-j", jobs],
    ]
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            return False
    return True


def git_rev():
    """HEAD of the checkout, or "none" outside a git work tree."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, env=env)
    except OSError:
        return "none"
    return out.stdout.strip() if out.returncode == 0 else "none"


def src_digest():
    """sha256 over the library sources and the root build file."""
    h = hashlib.sha256()
    files = [os.path.join(ROOT, "CMakeLists.txt")]
    for base, dirs, names in os.walk(os.path.join(ROOT, "src")):
        dirs.sort()
        files += [os.path.join(base, n) for n in sorted(names)]
    for path in files:
        h.update(os.path.relpath(path, ROOT).encode())
        with open(path, "rb") as f:
            h.update(f.read())
    return h.hexdigest()[:16]


def main():
    bdir = build_dir()
    if not build(bdir):
        print("perfbench: build failed", file=sys.stderr)
        return 2
    cmd = [os.path.join(bdir, "perfbench")] + sys.argv[1:] + [
        "--git-rev", git_rev(),
        "--src-digest", src_digest(),
        "--trace-dir", os.path.join(bdir, "traces"),
    ]
    sys.stdout.flush()
    try:
        return subprocess.run(cmd, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print("perfbench: run timed out", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
