#!/usr/bin/env python3
"""The repository benchmark: one command, three phases, one JSON line.

    python3 perfbench/run.py --workload wi --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --self-test

A workload is a Table 4 dataset family: `wi` (power-law, wiki-Vote
stand-in) or `po` (quasi-uniform, poisson3Da stand-in). Every run drives
the library through its three workload classes, each in its own process
so that peak RSS belongs to that phase alone:

  warm_sim      four Table 1 accelerators, warm plan cache, serial and
                sharded runs (exec, trace, model)
  cold_explore  compile + single-shot run per accelerator and one
                tuner pass (compiler, ir instantiation, analytic, tuner)
  serve_mix     in-process server, closed loop of 2 clients (serve)

A fourth process times a library-independent calibration kernel between
the phases' slices (see PHASES). Inputs derive from --seed only. The run
builds the benchmark from source first (CMake, into $CARGO_TARGET_DIR or
.bench_build). With --trace 0 the last line carries the end-to-end
metrics of BENCHMARK.json, with --trace 1 its per-layer metrics (a
separate, traced pass). Every operation's result is checked; a failure
makes `correct` false and the exit code 1.
"""

import argparse
import json
import os
import select
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent

# Share of --seconds each phase measures for, and the length of one
# round of slices: every round gives each phase one slice, so each
# phase samples the whole run and a slow spell of the host is shared
# by all of them. `calibrate` times a fixed library-independent kernel
# in every round; timings are scaled by its median to a host on which
# the kernel takes NOMINAL_CALIB_MS, which cancels the slow spells
# that last longer than a run.
PHASES = [("calibrate", 0.10), ("warm_sim", 0.36), ("cold_explore", 0.27),
          ("serve_mix", 0.27)]
ROUND_S = 1.0
NOMINAL_CALIB_MS = 30.0
TIME_UNITS = {"s", "ms", "us", "ns"}
RATE_UNITS = {"1/s"}
# Longest wait for one reply from a phase (set-up or one slice), and
# for the whole measurement once the build is done.
REPLY_TIMEOUT_S = 120
RUN_TIMEOUT_S = 170

# How a metric several phases report is combined.
SUMMED = {"setup_s"}
MAXED = {"peak_rss_mb"}


def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return (ROOT / target / "perfbench").resolve()


def build():
    """Configure once, then (re)build; returns the benchmark binary."""
    out = build_dir()
    out.mkdir(parents=True, exist_ok=True)
    log = out / "build.log"
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not (out / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(HERE), "-B", str(out),
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", str(out), "-j", jobs])
    with open(log, "w") as fh:
        for cmd in steps:
            if subprocess.run(cmd, stdout=fh, stderr=subprocess.STDOUT,
                              cwd=ROOT).returncode != 0:
                fh.flush()
                sys.stderr.write(log.read_text()[-4000:])
                sys.stderr.write("perfbench: build failed\n")
                sys.exit(1)
    return out / "teaal_perfbench"


class PhaseProcess:
    """One phase in its own process, driven over stdin/stdout."""

    def __init__(self, exe, phase, args, extra):
        self.phase = phase
        cmd = [str(exe), "--phase", phase, "--dataset", args.workload,
               "--seed", str(args.seed), "--trace", str(args.trace),
               "--work-dir", str(build_dir() / "work"), *extra]
        self.proc = subprocess.Popen(cmd, stdin=subprocess.PIPE,
                                     stdout=subprocess.PIPE, text=True,
                                     cwd=ROOT)

    def expect(self, token, deadline):
        wait = min(REPLY_TIMEOUT_S, deadline - time.monotonic())
        ready, _, _ = select.select([self.proc.stdout], [], [],
                                    max(0.0, wait))
        line = self.proc.stdout.readline() if ready else ""
        if line.strip() != token:
            raise RuntimeError(f"{self.phase}: expected {token}, got "
                               f"{line.strip() or 'nothing'}")

    def command(self, text):
        self.proc.stdin.write(text + "\n")
        self.proc.stdin.flush()

    def finish(self, deadline):
        """Ask for the metrics; returns (exit code, result, report)."""
        self.command("finish")
        out, _ = self.proc.communicate(
            timeout=max(1.0, deadline - time.monotonic()))
        lines = out.strip().splitlines()
        try:
            result = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            raise RuntimeError(f"{self.phase}: no result")
        return self.proc.returncode, result, lines[:-1]

    def kill(self):
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()


def measure(exe, args, extra):
    """Set the phases up one after another, then interleave their
    slices; returns [(exit code, result, report lines)]."""
    deadline = time.monotonic() + RUN_TIMEOUT_S
    procs = []
    try:
        for phase, _ in PHASES:
            procs.append(PhaseProcess(exe, phase, args, extra))
            procs[-1].expect("@ready", deadline)
        rounds = max(3, round(args.seconds / ROUND_S))
        for _ in range(rounds):
            for proc, (_, share) in zip(procs, PHASES):
                ms = args.seconds * share / rounds * 1000
                proc.command(f"run {ms:.1f}")
                proc.expect("@done", deadline)
        return [proc.finish(deadline) for proc in procs]
    except (RuntimeError, OSError, subprocess.TimeoutExpired) as err:
        sys.stderr.write(f"perfbench: {err}\n")
        sys.exit(1)
    finally:
        for proc in procs:
            proc.kill()


def combine(results):
    """Merge the phases' metrics; returns {name: (value, unit, n)}."""
    merged = {}
    for res in results:
        for name, m in res["metrics"].items():
            entry = (m["value"], m["unit"], m["samples"])
            if name not in merged:
                merged[name] = entry
            elif name in SUMMED or name.startswith("self_ms."):
                old = merged[name]
                merged[name] = (old[0] + entry[0], old[1], old[2] + entry[2])
            elif name in MAXED:
                merged[name] = max(merged[name], entry)
            else:
                raise ValueError(f"metric {name} reported by two phases")
    return merged


def wanted_metrics(trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return spec["per_layer" if trace else "end_to_end"]


def run(args, extra=()):
    """One benchmark run; returns (exit code, final JSON object, every
    metric the phases reported)."""
    exe = build()
    codes, results = [], []
    for (phase, _), (code, res, lines) in zip(PHASES,
                                              measure(exe, args, extra)):
        for line in lines:
            print(line)
        codes.append(code)
        results.append(res)
        ratio = res["failed"] / max(1, res["attempted"])
        print(f"# {phase:<14} fail_ratio {ratio:.6f} ratio "
              f"n={res['attempted']}")

    calib = results[0]["metrics"]["host.calib_ms"]["value"]
    factor = calib / NOMINAL_CALIB_MS
    merged = combine(results[1:])
    merged["host.speed_factor"] = (factor, "x", 1)
    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    print(f"# {'all':<14} fail_ratio {failed / max(1, attempted):.6f} "
          f"ratio n={attempted}")
    print(f"# {'all':<14} host.speed_factor {factor:.6f} x (timings "
          f"below are scaled to a {NOMINAL_CALIB_MS:g} ms kernel)")
    metrics = {}
    for m in wanted_metrics(args.trace):
        if m["name"] not in merged:
            sys.stderr.write(f"perfbench: metric {m['name']} missing\n")
            sys.exit(1)
        value, unit, samples = merged[m["name"]]
        # Set-up runs before the interleaved slices, so the factor does
        # not describe it: setup_s stays as measured.
        if unit in TIME_UNITS and m["name"] != "setup_s":
            value /= factor
        elif unit in RATE_UNITS:
            value *= factor
        if unit != m["unit"]:
            sys.stderr.write(f"perfbench: {m['name']} unit {unit}, "
                             f"expected {m['unit']}\n")
            sys.exit(1)
        print(f"# {'scaled':<14} {m['name']:<34} {value:16.6f} {unit:<6} "
              f"n={samples}")
        metrics[m["name"]] = {"value": value, "unit": unit}
    correct = failed == 0 and all(c == 0 for c in codes)
    final = {"correct": correct, "attempted": attempted, "failed": failed,
             "metrics": metrics}
    return (0 if correct else 1), final, merged


def self_test():
    """Tiny inputs: every metric is printed with its unit, a perturbed
    result trips the gate, derived layer metrics stay non-negative."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = []
    for trace in (0, 1):
        args = argparse.Namespace(workload="wi", seed=7, seconds=3.0,
                                  trace=trace)
        code, final, merged = run(args, extra=("--tiny",))
        names = spec["per_layer" if trace else "end_to_end"]
        for m in names:
            got = final["metrics"].get(m["name"])
            if got is None or got["unit"] != m["unit"]:
                problems.append(f"metric {m['name']} not printed "
                                f"with unit {m['unit']}")
        if code != 0 or not final["correct"]:
            problems.append(f"clean tiny run (trace {trace}) failed")
        if trace:
            for name, (value, _, _) in merged.items():
                derived = (name.startswith("model.self_ms.")
                           or name == "serve.queue_ms.p50")
                if derived and value < 0:
                    problems.append(f"derived metric {name} = {value} < 0")
    print("# self-test: perturbed run, its FAILED lines are expected")
    args = argparse.Namespace(workload="wi", seed=7, seconds=1.0, trace=0)
    code, final, _ = run(args, extra=("--tiny", "--perturb"))
    if code == 0 or final["correct"] or final["failed"] == 0:
        problems.append("perturbed result did not trip the gate")
    for p in problems:
        print(f"SELF-TEST FAIL: {p}")
    print("SELF-TEST " + ("FAILED" if problems else "PASSED"))
    return 1 if problems else 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=["wi", "po"], default="wi")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=40)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--self-test", action="store_true")
    args = ap.parse_args()
    if args.self_test:
        return self_test()
    code, final, _ = run(args)
    print(json.dumps(final))
    return code


if __name__ == "__main__":
    sys.exit(main())
