#!/usr/bin/env python3
"""Build and run the ePVF repository benchmark.

    python3 perfbench/run.py --workload analyze|campaign|edit-loop \
        --seed N --seconds S --trace 0|1 [--size full|tiny] \
        [--reference FILE] [--write-reference]

Run from the repository root. The first run configures and builds the
benchmark package (perfbench/CMakeLists.txt, which compiles the libraries
from ../src) into .bench_build/perfbench; later runs only re-check the build.
The last line of stdout is the result object; the exit code is the benchmark's
(0 ok, 1 correctness failure, 2 usage error or refused build). Build output
goes to stderr. See perfbench/README.md for the workloads and metrics.
"""

import argparse
import hashlib
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 880


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return os.path.join(ROOT, base, "perfbench")


def log(message):
    print("run.py: " + message, file=sys.stderr, flush=True)


def build(directory):
    """Configures (once) and builds the perfbench binary; returns its path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log("the ePVF sources (src/) are missing; nothing to build")
        return None
    commands = []
    if not os.path.isfile(os.path.join(directory, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", directory, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        commands.append(configure)
    jobs = str(os.cpu_count() or 1)
    commands.append(["cmake", "--build", directory, "--target", "perfbench", "-j", jobs])
    for command in commands:
        try:
            done = subprocess.run(command, cwd=ROOT, stdout=sys.stderr, stderr=sys.stderr,
                                  timeout=BUILD_TIMEOUT_S, check=False)
        except (OSError, subprocess.TimeoutExpired) as error:
            log("build failed: %s" % error)
            return None
        if done.returncode != 0:
            log("build failed: %s exited with %d" % (" ".join(command), done.returncode))
            return None
    return os.path.join(directory, "perfbench")


def source_identity():
    """The git commit when there is one, else a digest of the sources."""
    try:
        done = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True,
                              text=True, timeout=10, check=False)
        if done.returncode == 0 and done.stdout.strip():
            return done.stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        pass
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as handle:
                    digest.update(handle.read())
    return "src-sha256:" + digest.hexdigest()[:16]


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True,
                        choices=["analyze", "campaign", "edit-loop"])
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=["0", "1"])
    parser.add_argument("--size", default="full", choices=["full", "tiny"])
    parser.add_argument("--reference", help="reference file (default reference/<size>.ref)")
    parser.add_argument("--write-reference", action="store_true",
                        help="record this run's outputs as the reference")
    args = parser.parse_args()
    if args.seed < 0:
        parser.error("--seed must be non-negative")

    directory = build_dir()
    binary = build(directory)
    if binary is None:
        return 2

    tmp = os.path.join(directory, "tmp", "run-%d" % os.getpid())
    os.makedirs(tmp, exist_ok=True)
    trace_out = os.path.join(directory, "trace-%s-seed%d.json" % (args.workload, args.seed))
    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", repr(args.seconds), "--trace", args.trace, "--size", args.size,
               "--reference",
               args.reference or os.path.join(HERE, "reference", args.size + ".ref"),
               "--tmp-dir", tmp, "--commit", source_identity()]
    if args.trace == "1":
        command += ["--trace-out", trace_out]
    if args.write_reference:
        command.append("--write-reference")
    try:
        # stdout passes straight through, so the result stays the last line.
        return subprocess.run(command, cwd=ROOT, timeout=RUN_TIMEOUT_S, check=False).returncode
    except subprocess.TimeoutExpired:
        log("benchmark exceeded %d s" % RUN_TIMEOUT_S)
        return 1
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
