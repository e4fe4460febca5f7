#!/usr/bin/env python3
"""Build and run rtbench, the end-to-end benchmark of the threaded runtime.

Run from the root of a source tree:

    python3 rtbench/run.py --workload nt_pair --seed 1 --seconds 10 --trace 0

The library is compiled from ./src together with rtbench/rtbench.cpp into
$CARGO_TARGET_DIR/rtbench (default .bench_build/rtbench); build output goes
to stderr. The binary's standard output is passed through unchanged, so
the last line is the JSON result. Exit codes: the binary's own (0 ok,
1 a correctness gate failed), 2 bad arguments, 3 no sources or the build
failed.
"""
import hashlib
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def log(msg):
    print(f"rtbench: {msg}", file=sys.stderr, flush=True)


def source_digest():
    """sha1 over src/ and rtbench/ sources: identifies the build when the
    tree is not a git checkout."""
    h = hashlib.sha1()
    for top in ("src", "rtbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                if name.endswith((".cpp", ".hpp", ".txt")):
                    path = os.path.join(dirpath, name)
                    h.update(os.path.relpath(path, ROOT).encode())
                    with open(path, "rb") as f:
                        h.update(f.read())
    return h.hexdigest()[:12]


def describe():
    try:
        out = subprocess.run(["git", "describe", "--always", "--dirty", "--tags"],
                             cwd=ROOT, capture_output=True, text=True, timeout=10)
        if out.returncode == 0 and out.stdout.strip():
            return out.stdout.strip() + " src-" + source_digest()
    except (OSError, subprocess.SubprocessError):
        pass
    return "no-git src-" + source_digest()


def build(build_dir):
    jobs = str(max(1, os.cpu_count() or 1))
    steps = []
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "--target", "rtbench",
                  "-j", jobs])
    for cmd in steps:
        r = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if r.returncode != 0:
            log("build step failed: " + " ".join(cmd))
            return False
    return True


def main(argv):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log("no src/ tree next to rtbench/: nothing to build")
        return 3
    target = os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build")
    build_dir = os.path.join(os.path.abspath(target), "rtbench")
    if not build(build_dir):
        return 3
    binary = os.path.join(build_dir, "rtbench")
    work = os.path.join(build_dir, "work")
    cmd = [binary] + argv + ["--work-dir", work, "--describe", describe()]
    sys.stdout.flush()
    return subprocess.run(cmd).returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
