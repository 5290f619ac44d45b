#!/usr/bin/env python3
"""End-to-end campaign benchmark: build, run one workload, report.

Run from the root of a checkout:

    python3 perfbench/run.py --workload paper_warm --seed 1 \\
        --seconds 30 --trace 0
    python3 perfbench/run.py --selftest

The first call compiles the repository's libraries and the benchmark
binary dsmem_perfbench (perfbench/CMakeLists.txt) into $CARGO_TARGET_DIR/perfbench
(default .bench_build/perfbench); later calls rebuild only what
changed. dsmem_perfbench's report goes to stdout and its last line is the
JSON result, checked here against BENCHMARK.json. Work files live
in .bench_work/ and are removed on exit. README.md documents the
workloads and metrics.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
RUN_TIMEOUT_S = 170
WORKLOADS = ("paper_cold", "paper_warm", "svc_warm", "long_trace")


def spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def expected_metrics(trace):
    """{name: unit} a run with --trace `trace` must report."""
    key = "per_layer" if trace else "end_to_end"
    return {m["name"]: m["unit"] for m in spec()[key]}


def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(ROOT, target, "perfbench")


def bench_env(tmp):
    """dsmem_perfbench's environment: compiler and program temporaries
    stay in the checkout, and the defaults the benchmark measures
    (trace residency, SIMD backend) are not overridden."""
    env = dict(os.environ)
    env.pop("DSMEM_STREAM_EXEC", None)
    env.pop("DSMEM_SIMD", None)
    os.makedirs(tmp, exist_ok=True)
    env["TMPDIR"] = tmp
    return env


def build(targets, env):
    out = build_dir()
    cache = os.path.join(out, "CMakeCache.txt")
    if os.path.exists(cache):
        with open(cache) as f:
            home = "CMAKE_HOME_DIRECTORY:INTERNAL=" + BENCH_DIR + "\n"
            if home not in f.read():
                # Configured from another source tree: start over.
                shutil.rmtree(out)
    if not os.path.exists(cache):
        # Later builds re-run configure by themselves when a
        # CMakeLists.txt changed.
        subprocess.run(["cmake", "-S", BENCH_DIR, "-B", out,
                        "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                       stdout=sys.stderr, env=env, check=True)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", out, "-j", jobs, "--target"] +
                   targets, stdout=sys.stderr, env=env, check=True)
    return out


def check_result(line, workload, trace):
    """Parse dsmem_perfbench's last line; False in "correct" when its shape
    disagrees with BENCHMARK.json."""
    result = json.loads(line)
    want = expected_metrics(trace)
    if workload == "long_trace":
        # A synthetic trace has no paper reference.
        want.pop("paper_err_pp", None)
    got = {k: v.get("unit") for k, v in result["metrics"].items()}
    if got != want:
        print("metric set differs from BENCHMARK.json: got %s, want %s"
              % (sorted(got.items()), sorted(want.items())))
        result["correct"] = False
    return result


def run(args):
    tmp = os.path.join(ROOT, ".bench_work", "tmp.%d" % os.getpid())
    # Relative to ROOT, dsmem_perfbench's working directory: svc_warm's
    # AF_UNIX socket lives in it, and socket paths are short.
    work = os.path.join(".bench_work",
                        "%s.%d" % (args.workload, os.getpid()))
    try:
        env = bench_env(tmp)
        exe = os.path.join(build(["dsmem_perfbench", "dsmem_svc_cli"],
                                 env), "dsmem_perfbench")
        proc = subprocess.run(
            [exe, "--workload", args.workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace),
             "--work", work,
             "--golden", os.path.join(BENCH_DIR, "golden.txt")],
            cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True,
            timeout=RUN_TIMEOUT_S)
        lines = proc.stdout.rstrip("\n").split("\n")
        if proc.returncode != 0 or not lines[-1].startswith("{"):
            sys.stdout.write(proc.stdout)
            print("dsmem_perfbench failed (exit %d)" % proc.returncode,
                  file=sys.stderr)
            return 1
        result = check_result(lines[-1], args.workload, args.trace)
        print("\n".join(lines[:-1]))
        print(json.dumps(result))
        return 0
    finally:
        shutil.rmtree(os.path.join(ROOT, work), ignore_errors=True)
        shutil.rmtree(tmp, ignore_errors=True)


def selftest():
    tmp = os.path.join(ROOT, ".bench_work", "tmp.%d" % os.getpid())
    try:
        env = bench_env(tmp)
        out = build(["dsmem_perfbench", "dsmem_svc_cli",
                     "perfbench_selftest"], env)
        env["PERFBENCH_EXE"] = os.path.join(out, "dsmem_perfbench")
        env["PYTHONDONTWRITEBYTECODE"] = "1"
        names = subprocess.run(
            [sys.executable,
             os.path.join(BENCH_DIR, "tests", "test_metric_names.py"),
             "-v"], cwd=ROOT, env=env)
        gtest = subprocess.run(
            [os.path.join(out, "perfbench_selftest")], cwd=ROOT, env=env)
        return 0 if names.returncode == 0 and gtest.returncode == 0 else 1
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=30)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--selftest", action="store_true",
                   help="build and run the benchmark's self-tests")
    args = p.parse_args()
    if not os.path.exists(os.path.join(ROOT, "src", "CMakeLists.txt")):
        print("perfbench: no dsmem sources under %s" % ROOT,
              file=sys.stderr)
        return 2
    if args.selftest:
        return selftest()
    if not args.workload:
        p.error("--workload is required")
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
