#!/usr/bin/env python3
"""Run the why-not benchmark on one workload.

    python3 whynotbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run it from the repository root. The first run builds the program's
sources together with the benchmark driver (sbt, offline) into
whynotbench/target and records the classpath; later runs reuse the build
while no source file has changed. Each run starts one JVM. Its standard
output ends with one JSON line: correct, attempted, failed, metrics.
"""
import argparse
import hashlib
import json
import os
import signal
import subprocess
import sys

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
TARGET = os.path.join(BENCH, "target")
STAMP = os.path.join(TARGET, "whynotbench-build.json")
PROGRAM = os.path.join(ROOT, "src", "main", "scala")

BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170
HEAP = "2g"

# What spark-submit adds on Java 17 (Spark's JavaModuleOptions).
JAVA_MODULE_OPTIONS = [
    "-XX:+IgnoreUnrecognizedVMOptions",
    "--add-opens=java.base/java.lang=ALL-UNNAMED",
    "--add-opens=java.base/java.lang.invoke=ALL-UNNAMED",
    "--add-opens=java.base/java.lang.reflect=ALL-UNNAMED",
    "--add-opens=java.base/java.io=ALL-UNNAMED",
    "--add-opens=java.base/java.net=ALL-UNNAMED",
    "--add-opens=java.base/java.nio=ALL-UNNAMED",
    "--add-opens=java.base/java.util=ALL-UNNAMED",
    "--add-opens=java.base/java.util.concurrent=ALL-UNNAMED",
    "--add-opens=java.base/java.util.concurrent.atomic=ALL-UNNAMED",
    "--add-opens=java.base/jdk.internal.ref=ALL-UNNAMED",
    "--add-opens=java.base/sun.nio.ch=ALL-UNNAMED",
    "--add-opens=java.base/sun.nio.cs=ALL-UNNAMED",
    "--add-opens=java.base/sun.security.action=ALL-UNNAMED",
    "--add-opens=java.base/sun.util.calendar=ALL-UNNAMED",
    "-Djdk.reflect.useDirectMethodHandle=false",
    "-Dio.netty.tryReflectionSetAccessible=true",
]


def fail(msg):
    print(f"whynotbench: {msg}", file=sys.stderr)
    sys.exit(2)


def source_hash():
    """Hash of every file the build compiles or is configured by."""
    h = hashlib.sha256()
    roots = [PROGRAM, os.path.join(BENCH, "src", "main"), os.path.join(BENCH, "project")]
    files = [os.path.join(BENCH, "build.sbt")]
    for r in roots:
        for d, dirs, names in os.walk(r):
            dirs[:] = sorted(x for x in dirs if x != "target")
            files += [os.path.join(d, n) for n in sorted(names)]
    for f in files:
        h.update(os.path.relpath(f, ROOT).encode())
        with open(f, "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()


def run_group(cmd, timeout, **kw):
    """Run cmd in its own process group; kill the whole group on timeout."""
    p = subprocess.Popen(cmd, start_new_session=True, **kw)
    try:
        out, _ = p.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(p.pid, signal.SIGKILL)
        p.wait()
        fail(f"{cmd[0]} did not finish within {timeout} s")
    return p.returncode, out


def classpath():
    """The run classpath, building first when the sources changed."""
    digest = source_hash()
    if os.path.exists(STAMP):
        with open(STAMP) as fh:
            stamp = json.load(fh)
        if stamp.get("hash") == digest:
            return stamp["classpath"]
    env = dict(os.environ, COURSIER_MODE="offline")
    opts = ["-Dsbt.offline=true", "-Dsbt.server.forcestart=false", "-Xmx2g"]
    repos = os.path.expanduser("~/.sbt/repositories")
    if os.path.exists(repos):
        opts += ["-Dsbt.override.build.repos=true", f"-Dsbt.repository.config={repos}"]
    env["SBT_OPTS"] = " ".join(opts)
    code, out = run_group(
        ["sbt", "--batch", "-Dsbt.log.noformat=true", "export Runtime/fullClasspath"],
        BUILD_TIMEOUT_S, cwd=BENCH, env=env, stdin=subprocess.DEVNULL,
        stdout=subprocess.PIPE, text=True)
    sys.stderr.write(out)
    lines = [l for l in out.splitlines() if l.strip() and not l.startswith("[")]
    if code != 0 or not lines:
        fail(f"build failed (sbt exit {code})")
    cp = lines[-1].strip()
    os.makedirs(TARGET, exist_ok=True)
    with open(STAMP, "w") as fh:
        json.dump({"hash": digest, "classpath": cp}, fh)
    return cp


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int)
    ap.add_argument("--seconds", type=int, default=20)
    ap.add_argument("--trace", choices=["0", "1"], default="0")
    args = ap.parse_args()
    if not os.path.isdir(os.path.join(PROGRAM, "repro", "core")):
        fail(f"no program sources under {os.path.relpath(PROGRAM)}; run from a full checkout")

    cp = classpath()
    workdir = os.path.join(TARGET, "run")
    tmp = os.path.join(workdir, "tmp")
    os.makedirs(tmp, exist_ok=True)
    # -XX:-UsePerfData: no hsperfdata file outside the checkout
    cmd = (["java", f"-Xms{HEAP}", f"-Xmx{HEAP}", f"-Djava.io.tmpdir={tmp}", "-XX:-UsePerfData"]
           + JAVA_MODULE_OPTIONS
           + ["-cp", cp, "repro.perf.Main", "--workload", args.workload,
              "--seconds", str(args.seconds), "--trace", args.trace, "--workdir", workdir]
           + (["--seed", str(args.seed)] if args.seed is not None else []))
    code, out = run_group(cmd, RUN_TIMEOUT_S, cwd=ROOT, stdin=subprocess.DEVNULL,
                          stdout=subprocess.PIPE, text=True)
    if code != 0:
        sys.stderr.write(out)
        fail(f"benchmark exited with {code}")
    sys.stdout.write(out)
    sys.stdout.flush()


if __name__ == "__main__":
    main()
