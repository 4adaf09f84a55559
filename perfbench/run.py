#!/usr/bin/env python3
"""Build and run the ASQP-RL end-to-end benchmark.

    python3 perfbench/run.py --workload <setup_heavy|explore_mixed|ingest_live> \
        --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. Builds `perfbench` (release, offline) into
$CARGO_TARGET_DIR, default `.bench_build`, then runs one workload in a fresh
process. The last line of standard output is the run's JSON result; the exit
code is the benchmark's (0 ok, 1 an answer check failed, 2 the run could not
complete). Build output goes to standard error.
"""

import hashlib
import os
import subprocess
import sys

ROOT = os.getcwd()
MANIFEST = os.path.join("perfbench", "Cargo.toml")
SOURCES = ["Cargo.toml", "crates", "third_party", "perfbench/Cargo.toml", "perfbench/src"]


def source_label():
    """The git commit when there is one, else a digest of the sources."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--short=12", "HEAD"],
            capture_output=True, text=True, timeout=10, check=True,
        )
        return out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    digest = hashlib.sha256()
    for top in SOURCES:
        paths = []
        if os.path.isfile(top):
            paths.append(top)
        for base, dirs, files in os.walk(top):
            dirs.sort()
            paths.extend(os.path.join(base, f) for f in sorted(files)
                         if f.endswith((".rs", ".toml")))
        for path in paths:
            digest.update(path.encode())
            with open(path, "rb") as f:
                digest.update(f.read())
    return "src-" + digest.hexdigest()[:12]


def main():
    if not os.path.isfile(MANIFEST):
        print("run.py: run from the repository root", file=sys.stderr)
        return 2
    env = dict(os.environ)
    target = env.setdefault("CARGO_TARGET_DIR", os.path.join(ROOT, ".bench_build"))
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", MANIFEST],
        env=env, stdout=sys.stderr,
    )
    if build.returncode != 0:
        print("run.py: build failed", file=sys.stderr)
        return build.returncode or 2
    binary = os.path.join(target, "release", "asqp-perfbench")
    run = subprocess.run([binary, *sys.argv[1:], "--commit", source_label()], env=env)
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
