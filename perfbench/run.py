#!/usr/bin/env python3
"""Build and run the repository's benchmark (see perfbench/README.md).

    python3 perfbench/run.py --workload serve --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --self-test

Run from the root of a checkout. Builds the release `taor-serve` binary
and the perfbench package into $CARGO_TARGET_DIR (default
`.bench_build`), then runs perfbench with the given arguments. The last
line on stdout is the result object; build output goes to stderr.
`--self-test` runs the benchmark's own tests instead (span self times,
output checks against corrupted expectations, metric lists).
"""

import hashlib
import os
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
MANIFEST = ROOT / "perfbench" / "Cargo.toml"


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def cargo(args, target):
    env = dict(os.environ, CARGO_TARGET_DIR=str(target))
    # Cargo's own output goes to stderr; stdout is kept for the result.
    return subprocess.run(["cargo", *args], cwd=ROOT, env=env, stdout=sys.stderr).returncode


def build(target):
    if not (ROOT / "Cargo.toml").is_file() or not (ROOT / "crates" / "serve").is_dir():
        fail("the repository's sources are missing; run from the root of a checkout")
    for args in (
        ["build", "--offline", "--release", "--quiet", "-p", "taor-serve", "--bin", "taor-serve"],
        ["build", "--offline", "--release", "--quiet", "--manifest-path", str(MANIFEST)],
    ):
        if cargo(args, target) != 0:
            fail("build failed: cargo " + " ".join(args))


def rustc_version():
    try:
        out = subprocess.run(["rustc", "-V"], capture_output=True, text=True, check=True)
        return out.stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def commit_id():
    """The git commit, or a digest of the sources outside a git repository."""
    if (ROOT / ".git").exists():
        try:
            out = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True
            )
            if out.returncode == 0 and out.stdout.strip():
                return out.stdout.strip()
        except OSError:
            pass
    digest = hashlib.sha256()
    for top in ("Cargo.toml", "Cargo.lock", "crates", "vendor", "perfbench"):
        path = ROOT / top
        files = [path] if path.is_file() else sorted(p for p in path.rglob("*") if p.is_file())
        for f in files:
            digest.update(str(f.relative_to(ROOT)).encode())
            digest.update(f.read_bytes())
    return "tree-" + digest.hexdigest()[:16]


def main():
    target = pathlib.Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    if not target.is_absolute():
        target = ROOT / target
    args = sys.argv[1:]
    if args == ["--self-test"]:
        if not (ROOT / "crates" / "serve").is_dir():
            fail("the repository's sources are missing; run from the root of a checkout")
        sys.exit(cargo(["test", "--offline", "--release", "--manifest-path", str(MANIFEST)], target))
    build(target)
    cmd = [
        str(target / "release" / "perfbench"),
        *args,
        "--taor-serve", str(target / "release" / "taor-serve"),
        "--out-dir", str(target / "perfbench"),
        "--rustc", rustc_version(),
        "--commit", commit_id(),
    ]
    sys.exit(subprocess.run(cmd, cwd=ROOT).returncode)


if __name__ == "__main__":
    main()
