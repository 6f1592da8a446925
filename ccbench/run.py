#!/usr/bin/env python3
"""ccbench: the repository benchmark. See ccbench/README.md.

Run from the root of a checkout:

  python3 ccbench/run.py                          # every workload, untraced
  python3 ccbench/run.py --trace 1                # every workload, traced
  python3 ccbench/run.py --workload sim_paper     # the ungated paper point
  python3 ccbench/run.py --workload sim_hot_checked --seed 7 --seconds 20 --trace 0
  python3 ccbench/run.py compare OLD.jsonl NEW.jsonl

It builds the ccbench binary from source (CMake, Release) under
.bench_build/, runs each workload in its own process, checks the outputs,
prints every metric as "name value unit", appends the result with the host
fingerprint to .bench_build/ccbench/history.jsonl, and prints one JSON
result object as the last line of standard output. Exit status is 0 only
when every check passed.
"""

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SOURCE = Path(__file__).resolve().parent
# The child must finish well inside the 180 s a run may take.
CHILD_TIMEOUT_S = 170
CPU_MAX_FREQ = Path("/sys/devices/system/cpu/cpu0/cpufreq/cpuinfo_max_freq")
# Run and checked like the BENCHMARK.json workloads, but not gated: on a
# shared host its times move with other tenants' load more than the gated
# workloads' do (README.md, "Steadiness on a shared host").
UNGATED_WORKLOADS = ["sim_paper"]


def load_spec():
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as f:
        return json.load(f)


def build_dir():
    base = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not base.is_absolute():
        base = ROOT / base
    return base / "ccbench"


def build():
    """Configures (once) and builds the binary; returns its path."""
    out = build_dir()
    out.mkdir(parents=True, exist_ok=True)
    log_path = out / "build.log"
    with open(log_path, "w", encoding="utf-8") as log:
        steps = []
        if not (out / "CMakeCache.txt").exists():
            generator = ["-G", "Ninja"] if shutil.which("ninja") else []
            steps.append(["cmake", "-S", str(SOURCE), "-B", str(out),
                          "-DCMAKE_BUILD_TYPE=Release", *generator])
        jobs = str(min(4, os.cpu_count() or 1))
        steps.append(["cmake", "--build", str(out), "-j", jobs])
        for step in steps:
            if subprocess.run(step, stdout=log, stderr=subprocess.STDOUT,
                              cwd=ROOT).returncode != 0:
                log.flush()
                tail = log_path.read_text(encoding="utf-8").splitlines()[-20:]
                sys.stderr.write("ccbench: build failed:\n" +
                                 "\n".join(tail) + "\n")
                return None
    return out / "ccbench"


def cpu_identity():
    """The CPU's model name and rated MHz (cpuinfo_max_freq). The current
    clock, 'cpu MHz', moves with frequency scaling, so it stands in only
    when neither the model nor the rating is known."""
    fields = {}
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            for line in f:
                key, _, value = line.partition(":")
                fields.setdefault(key.strip(), value.strip())
    except OSError:
        pass
    model = fields.get("model name", "unknown")
    try:
        return model, round(int(CPU_MAX_FREQ.read_text(encoding="utf-8"))
                            / 1000)
    except (OSError, ValueError):
        pass
    if model != "unknown":
        return model, None
    try:
        return model, round(float(fields.get("cpu MHz", "0")))
    except ValueError:
        return model, None


def fingerprint(child):
    """Host identity a baseline is keyed by: results are compared only when
    every field matches."""
    model, mhz = cpu_identity()
    return {
        "cores": os.cpu_count(),
        "cpu": model,
        "mhz": mhz,
        "compiler": child.get("compiler", "unknown"),
        "build_type": child.get("build_type", "unknown"),
    }


def expected_metrics(spec, trace):
    """name -> unit the run must report; failed_frac rides along untraced."""
    key = "per_layer" if trace else "end_to_end"
    names = {m["name"]: m["unit"] for m in spec[key]}
    if not trace:
        names["failed_frac"] = "fraction"
    return names


def run_workload(binary, spec, name, args):
    """Runs one workload in its own process; returns (ok, child report)."""
    cmd = [str(binary), "--workload", name, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=CHILD_TIMEOUT_S, cwd=ROOT)
    except subprocess.TimeoutExpired:
        sys.stderr.write(f"ccbench: {name} timed out\n")
        return False, None
    lines = proc.stdout.strip().splitlines()
    try:
        child = json.loads(lines[-1])
    except (IndexError, ValueError):
        sys.stderr.write(f"ccbench: {name} exited {proc.returncode} "
                         "without a report\n")
        return False, None
    ok = proc.returncode == 0 and not child["errors"]
    for error in child["errors"]:
        sys.stderr.write(f"ccbench: {name}: {error}\n")
    metrics = child["metrics"]
    for metric, unit in expected_metrics(spec, args.trace).items():
        entry = metrics.get(metric)
        if entry is None or entry["unit"] != unit or \
                not math.isfinite(entry["value"]):
            sys.stderr.write(f"ccbench: {name}: metric {metric} missing, "
                             "not finite, or not in " + unit + "\n")
            ok = False
    if not args.trace and metrics.get("failed_frac", {}).get("value") != 0:
        sys.stderr.write(f"ccbench: {name}: failed_frac is not 0\n")
        ok = False
    if child["attempted"] < 1:
        ok = False
    return ok, child


def print_report(name, child):
    for metric, entry in child["metrics"].items():
        print(f"{name} {metric} {entry['value']:.6g} {entry['unit']}")
    for label, digest in child["digests"].items():
        print(f"{name} digest {label} {digest}")


def append_history(path, record):
    with open(path, "a", encoding="utf-8") as f:
        f.write(json.dumps(record, sort_keys=True) + "\n")


def run(args):
    spec = load_spec()
    names = UNGATED_WORKLOADS + [w["name"] for w in spec["workloads"]]
    if args.workload is not None and args.workload not in names:
        sys.stderr.write(f"ccbench: unknown workload {args.workload}\n")
        return 2
    binary = build()
    if binary is None:
        return 1
    selected = [args.workload] if args.workload else names
    correct = True
    attempted = failed = 0
    final_metrics = {}
    wanted = [m["name"] for m in
              spec["per_layer" if args.trace else "end_to_end"]]
    for name in selected:
        ok, child = run_workload(binary, spec, name, args)
        if child is None:
            return 1
        host = fingerprint(child)
        print(f"fingerprint {json.dumps(host, sort_keys=True)}")
        print_report(name, child)
        correct = correct and ok
        attempted += child["attempted"]
        failed += child["failed"]
        metrics = {m: child["metrics"][m] for m in wanted
                   if m in child["metrics"]}
        append_history(build_dir() / "history.jsonl", {
            "time": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
            "fingerprint": host, "workload": name, "seed": args.seed,
            "seconds": args.seconds, "trace": args.trace, "correct": ok,
            "attempted": child["attempted"], "failed": child["failed"],
            "metrics": child["metrics"], "digests": child["digests"]})
        if args.workload:
            final_metrics = metrics
        else:
            final_metrics.update({f"{name}.{m}": v
                                  for m, v in metrics.items()})
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": final_metrics}))
    return 0 if correct else 1


def read_records(path):
    with open(path, encoding="utf-8") as f:
        return [json.loads(line) for line in f if line.strip()]


def compare(args):
    """Compares two result files metric by metric, by name, within the
    bounds BENCHMARK.json fixes. Refuses results from different hosts. A
    workload's runs are compared only with runs of the same length, so
    short smoke runs in a history never count against full ones."""
    spec = load_spec()
    old, new = read_records(args.old), read_records(args.new)
    hosts = {json.dumps(r["fingerprint"], sort_keys=True) for r in old + new}
    if len(hosts) != 1:
        sys.stderr.write("ccbench: refusing to compare results whose host "
                         "fingerprints differ:\n  " + "\n  ".join(sorted(hosts))
                         + "\n")
        return 2
    groups = sorted({(r["workload"], r["seconds"]) for r in old + new
                     if not r["trace"]})
    worse = False
    for metric in spec["end_to_end"]:
        name, bound = metric["name"], metric["bound"]
        lower = metric["better"] == "lower"
        for workload, seconds in groups:
            def values(records):
                return [r["metrics"][name]["value"] for r in records
                        if r["workload"] == workload
                        and r["seconds"] == seconds and not r["trace"]
                        and name in r["metrics"]]
            a, b = values(old), values(new)
            if not a or not b:
                continue
            ma, mb = statistics.median(a), statistics.median(b)
            change = (mb - ma) / ma if ma else 0.0
            regressed = (change > bound) if lower else (-change > bound)
            worse = worse or regressed
            print(f"{workload} ({seconds:g} s) {name} {ma:.6g} -> {mb:.6g} "
                  f"{metric['unit']} ({change:+.1%}, bound {bound:.0%})"
                  + (" REGRESSION" if regressed else ""))
    return 1 if worse else 0


def main(argv):
    if argv and argv[0] == "compare":
        parser = argparse.ArgumentParser(prog="run.py compare")
        parser.add_argument("old")
        parser.add_argument("new")
        return compare(parser.parse_args(argv[1:]))
    parser = argparse.ArgumentParser(prog="run.py")
    parser.add_argument("--workload", default=None,
                        help="one workload (default: all, each in its own "
                             "process)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measured seconds per workload "
                             "(default: BENCHMARK.json run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds is None:
        args.seconds = load_spec()["run_seconds"]
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return run(args)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
