#!/usr/bin/env python3
"""Builds the LA-1 benchmark from source and runs it.

Usage, from the repository root:

    python3 perfbench/run.py --workload <npu_lookup|table_update> \
        --seed <n> --seconds <n> --trace <0|1>

The build goes to $CARGO_TARGET_DIR (default `.bench_build`); journals and
traces go to `.bench_build/perfbench`. The last line of standard output is
the result object; build output and progress go to standard error. Exits
non-zero without a result when the build or the run fails.
"""

import hashlib
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def source_rev():
    """The git revision, or a digest of the sources outside a git checkout."""
    try:
        rev = subprocess.run(
            ["git", "rev-parse", "--short=12", "HEAD"],
            cwd=ROOT, capture_output=True, text=True, check=False,
        )
        if rev.returncode == 0 and rev.stdout.strip():
            return rev.stdout.strip()
    except OSError:
        pass
    digest = hashlib.sha256()
    for top in ("crates", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                if name.endswith((".rs", ".toml")):
                    path = os.path.join(dirpath, name)
                    digest.update(os.path.relpath(path, ROOT).encode())
                    with open(path, "rb") as f:
                        digest.update(f.read())
    return "src-" + digest.hexdigest()[:12]


def rustc_version():
    try:
        out = subprocess.run(["rustc", "--version"], capture_output=True, text=True, check=False)
        return out.stdout.strip() or "unknown"
    except OSError:
        return "unknown"


def main():
    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    build = [
        "cargo", "build", "--release", "--offline", "--quiet",
        "--manifest-path", os.path.join(HERE, "Cargo.toml"),
    ]
    try:
        built = subprocess.run(build, env=env, stdout=sys.stderr, check=False)
    except OSError as e:
        print(f"perfbench: cannot run cargo: {e}", file=sys.stderr)
        return 1
    if built.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return built.returncode or 1
    env["PERFBENCH_RUSTC"] = rustc_version()
    env["PERFBENCH_GIT_REV"] = source_rev()
    exe = os.path.join(target, "release", "la1-perfbench")
    ran = subprocess.run([exe, *sys.argv[1:]], env=env, check=False)
    return ran.returncode


if __name__ == "__main__":
    sys.exit(main())
