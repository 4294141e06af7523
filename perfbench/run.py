#!/usr/bin/env python3
"""Repository benchmark entry point.

    python3 perfbench/run.py --workload <name|all> --seed <n> --seconds <s> \
        --trace <0|1>
    python3 perfbench/run.py --selfcheck

Builds the benchmark program (perfbench/CMakeLists.txt, which compiles the
library from src/) into $CARGO_TARGET_DIR/perfbench (default .bench_build),
then runs each requested workload in its own process with every
ESSENTIALS_* knob removed from the environment, so runs measure the
library's defaults.  The last line of stdout is the workload's result:
{"correct", "attempted", "failed", "metrics"}, its metrics ordered and
unit-checked against BENCHMARK.json.  Exit status 0 only when every output
checked correct.

--selfcheck runs every workload at tiny sizes for one second and asserts
that each metric BENCHMARK.json names is emitted with its unit (untraced
and traced), and that a deliberately corrupted result trips the
correctness gate.
"""

import argparse
import fcntl
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["rmat-analytics", "serve-mixed"]
RUN_TIMEOUT_S = 170


def log(msg):
    print("perfbench: " + msg, file=sys.stderr, flush=True)


def build_root():
    base = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return base


def build():
    """Configure and build the benchmark program; returns its path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        raise RuntimeError("library sources not found next to perfbench/")
    out = os.path.join(build_root(), "perfbench")
    os.makedirs(out, exist_ok=True)
    with open(os.path.join(out, "build.lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        with open(os.path.join(out, "build.log"), "w") as blog:
            steps = []
            if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
                steps.append(["cmake", "-S", HERE, "-B", out,
                              "-DCMAKE_BUILD_TYPE=Release"])
            steps.append(["cmake", "--build", out, "-j",
                          str(os.cpu_count() or 1)])
            for cmd in steps:
                if subprocess.run(cmd, stdout=blog, stderr=subprocess.STDOUT,
                                  timeout=880).returncode != 0:
                    blog.flush()
                    with open(os.path.join(out, "build.log")) as f:
                        sys.stderr.write(f.read()[-4000:])
                    raise RuntimeError("build failed: " + " ".join(cmd))
    return os.path.join(out, "perfbench")


def clean_env():
    return {k: v for k, v in os.environ.items()
            if not k.startswith("ESSENTIALS_")}


def benchmark_lists():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    return spec, e2e, layer


def finalize(res, trace):
    """Order a result's metrics as BENCHMARK.json lists them and check their
    units.  Untraced, every end-to-end metric must be present.  Traced, every
    per-layer metric is emitted, a layer the workload bypasses reading 0, and
    failed_share is failed / attempted.  A metric BENCHMARK.json does not
    list is an error, so the program and the file cannot drift apart."""
    _, e2e, layer = benchmark_lists()
    got = dict(res["metrics"])
    if trace:
        got["failed_share"] = {
            "value": res["failed"] / res["attempted"] if res["attempted"]
            else 0.0, "unit": "share"}
    out = {}
    for name, unit in (layer if trace else e2e).items():
        m = got.pop(name, None)
        if m is None:
            if not trace:
                raise ValueError("metric not emitted: " + name)
            m = {"value": 0.0, "unit": unit}
        if m["unit"] != unit:
            raise ValueError("unit of %s is %s, not %s" % (name, m["unit"],
                                                           unit))
        out[name] = m
    if got:
        raise ValueError("metrics not in BENCHMARK.json: " +
                         ", ".join(sorted(got)))
    res["metrics"] = out
    return res


def run_workload(binary, workload, seed, seconds, trace, extra=(),
                 quiet=False):
    """Run one workload process; returns (exit code, stdout lines, result)."""
    scratch = os.path.join(build_root(), "runs",
                           "%s-seed%s-trace%d-%d" % (workload, seed, trace,
                                                     os.getpid()))
    os.makedirs(scratch, exist_ok=True)
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--scratch", scratch] + list(extra)
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, env=clean_env(),
                            stderr=subprocess.DEVNULL if quiet else None,
                            text=True)
    try:
        stdout, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        log("%s did not finish within %d s" % (workload, RUN_TIMEOUT_S))
        return 1, [], None
    finally:
        spans = [f for f in os.listdir(scratch) if f.startswith("spans-")]
        if spans:
            keep = os.path.join(build_root(), "spans")
            os.makedirs(keep, exist_ok=True)
            for f in spans:
                shutil.move(os.path.join(scratch, f),
                            os.path.join(keep, "seed%s-%s" % (seed, f)))
        shutil.rmtree(scratch, ignore_errors=True)
    lines = [l for l in stdout.splitlines() if l.strip()]
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except ValueError:
            result = None
    if result is None or "metrics" not in result:
        return proc.returncode or 1, lines, None
    try:
        finalize(result, trace)
    except ValueError as ex:
        log("%s: %s" % (workload, ex))
        return 1, lines, None
    lines[-1] = json.dumps(result)
    return proc.returncode, lines, result


def selfcheck(binary):
    spec, _, _ = benchmark_lists()
    names = [w["name"] for w in spec["workloads"]]
    assert names == WORKLOADS, "BENCHMARK.json workloads differ: %s" % names
    for w in WORKLOADS:
        for trace in (0, 1):
            # finalize() has checked every metric's name and unit.
            code, _, res = run_workload(binary, w, 7, 1, trace, ["--tiny"])
            assert code == 0 and res and res["correct"], \
                "%s trace=%d failed (exit %d)" % (w, trace, code)
            assert res["attempted"] >= 1 and res["failed"] == 0
        code, _, res = run_workload(binary, w, 7, 1, 0,
                                    ["--tiny", "--corrupt"], quiet=True)
        assert code != 0 and res and not res["correct"] and res["failed"] > 0, \
            "%s: corrupted result was not caught" % w
        log("selfcheck %s ok" % w)
    print("selfcheck ok")


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", default="all",
                    choices=WORKLOADS + ["all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--selfcheck", action="store_true")
    args = ap.parse_args()
    try:
        binary = build()
    except (RuntimeError, OSError, subprocess.SubprocessError) as ex:
        log(str(ex))
        return 1
    if args.selfcheck:
        try:
            selfcheck(binary)
        except AssertionError as ex:
            log("selfcheck FAILED: %s" % ex)
            return 1
        return 0

    workloads = WORKLOADS if args.workload == "all" else [args.workload]
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    status = 0
    for w in workloads:
        code, lines, res = run_workload(binary, w, args.seed, args.seconds,
                                        args.trace)
        if res is None:
            log("%s produced no result (exit %d)" % (w, code))
            return code or 1
        for line in lines:
            print(line)
        status = status or code
        combined["correct"] = combined["correct"] and bool(res["correct"])
        combined["attempted"] += res["attempted"]
        combined["failed"] += res["failed"]
        for k, v in res["metrics"].items():
            combined["metrics"]["%s.%s" % (w, k)] = v
    if len(workloads) > 1:
        print(json.dumps(combined))
    sys.stdout.flush()
    return status


if __name__ == "__main__":
    sys.exit(main())
