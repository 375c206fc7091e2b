#!/usr/bin/env python3
"""Run one workload of the DITS benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run it from the root of a checkout. The first run compiles the
repository's main sources together with the benchmark (perfbench/build.sbt)
and caches the result under perfbench/target; later runs reuse it until a
source file changes. The benchmark then runs in one JVM. Its standard
output ends with the JSON result line; build logs go to standard error.
"""

import argparse
import hashlib
import os
import pathlib
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
TARGET = HERE / "target"
STAMP = TARGET / "bench-build.txt"
MAIN = "repro.perfbench.Main"
WORKLOADS = ["ojsp-paper", "mixed-rw"]

# The first run may build for up to 900 s; a run itself ends within 180 s.
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def source_digest():
    """Digest of everything the build compiles, to know when to rebuild."""
    h = hashlib.sha256()
    files = [HERE / "build.sbt", HERE / "project" / "build.properties"]
    for tree in (ROOT / "src" / "main" / "scala", HERE / "src" / "main" / "scala"):
        files += sorted(tree.rglob("*.scala"))
    for f in files:
        h.update(str(f.relative_to(ROOT)).encode())
        h.update(f.read_bytes())
    return h.hexdigest()


def build(digest):
    """Compile with sbt and record the runtime classpath next to the digest."""
    env = dict(os.environ)
    env.setdefault("COURSIER_MODE", "offline")
    env["JAVA_TOOL_OPTIONS"] = (env.get("JAVA_TOOL_OPTIONS", "") + " -XX:-UsePerfData").strip()
    tmp = TARGET / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    env["TMPDIR"] = str(tmp)
    # Scratch files (JVM perf data, sbt's and JNA's temporary files, the
    # boot lock) stay out of shared directories; sbt's caches are only read.
    cmd = ["sbt", "--batch", "-Dsbt.log.noformat=true", "-Dsbt.server.forcestart=false",
           f"-Djava.io.tmpdir={tmp}", f"-Djna.tmpdir={tmp}", "-Dsbt.boot.lock=false",
           "compile", "export Runtime/fullClasspath"]
    try:
        res = subprocess.run(cmd, cwd=HERE, env=env, stdout=subprocess.PIPE,
                             stderr=sys.stderr, text=True, timeout=BUILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("build timed out")
    sys.stderr.write(res.stdout)
    lines = [l for l in res.stdout.splitlines() if l.strip()]
    if res.returncode != 0 or not lines or "[" in lines[-1][:1]:
        fail(f"build failed (sbt exit {res.returncode})")
    TARGET.mkdir(parents=True, exist_ok=True)
    STAMP.write_text(digest + "\n" + lines[-1] + "\n")
    return lines[-1]


def classpath():
    digest = source_digest()
    if STAMP.exists():
        stamp_digest, cp = STAMP.read_text().splitlines()[:2]
        if stamp_digest == digest:
            return cp
    return build(digest)


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, choices=["0", "1"])
    args = ap.parse_args()

    if not (ROOT / "src" / "main" / "scala").is_dir():
        fail(f"no program sources under {ROOT / 'src' / 'main' / 'scala'}; run from a full checkout")

    cp = classpath()
    out_dir = TARGET / "traces"
    tmp_dir = TARGET / "tmp"
    tmp_dir.mkdir(parents=True, exist_ok=True)
    # Transparent huge pages: the search chases pointers across a heap of
    # half a gigabyte; with 4 KiB pages it ran slower and its speed moved
    # more from one JVM to the next. -Xbatch compiles each hot method when
    # its counters trip, in the thread that tripped them, so a run's
    # compiled code does not depend on how the compiler threads were
    # scheduled; without it, the same seed's mixed-rw median moved by up
    # to a fifth from one JVM to the next.
    cmd = (["java", "-Xbatch", "-XX:+UseParallelGC", "-XX:+UseTransparentHugePages", "-XX:-UsePerfData",
            "-Xms3g", "-Xmx3g", f"-Djava.io.tmpdir={tmp_dir}",
            "-cp", cp, MAIN, "--workload", args.workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", args.trace, "--out", str(out_dir)])
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        fail(f"run exceeded {RUN_TIMEOUT_S} s")
    lines = out.splitlines()
    if proc.returncode != 0 or not lines or not lines[-1].startswith("{"):
        sys.stderr.write(out)
        fail(f"benchmark exited {proc.returncode} without a result")
    sys.stdout.write(out)
    sys.stdout.flush()


if __name__ == "__main__":
    main()
