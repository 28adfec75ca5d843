#!/usr/bin/env python3
"""Runs one rlsbench workload: builds the benchmark from source, runs it in a
fresh process, checks its result against BENCHMARK.json and prints it.

    python3 rlsbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 rlsbench/run.py --selftest

Run from the root of a checkout. The build goes to .bench_build/ there.
The last line of stdout is the result object {correct, attempted, failed,
metrics}; the exit code is 0 only when every output check passed.
"""

import argparse
import hashlib
import json
import os
import re
import shutil
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(".bench_build", "rlsbench")
SCRATCH = os.path.join(".bench_build", "scratch")
RUN_TIMEOUT_S = 170

NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT_RE = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
TOP_KEYS = {"command", "paths", "run_seconds", "workloads", "end_to_end",
            "per_layer"}


def validate_benchmark(spec):
    """Returns the list of problems with a parsed BENCHMARK.json."""
    errors = []
    if not isinstance(spec, dict) or set(spec) != TOP_KEYS:
        return ["top-level keys must be exactly " + ", ".join(sorted(TOP_KEYS))]
    rs = spec["run_seconds"]
    if not isinstance(rs, int) or isinstance(rs, bool) or not 1 <= rs <= 60:
        errors.append("run_seconds must be a whole number from 1 to 60")
    seen = set()

    def check_name(name, where):
        if not isinstance(name, str) or not NAME_RE.match(name):
            errors.append(f"{where}: bad name {name!r} (letters, digits, "
                          "_ . - ; starts with a letter or digit; <= 64)")
        elif name in seen:
            errors.append(f"{where}: name {name!r} used twice")
        seen.add(name)

    for key, lo, hi in (("workloads", 2, 8), ("end_to_end", 1, 16),
                        ("per_layer", 1, 128)):
        items = spec[key]
        if not isinstance(items, list) or not lo <= len(items) <= hi:
            errors.append(f"{key}: needs {lo} to {hi} entries")
            continue
        for item in items:
            if not isinstance(item, dict):
                errors.append(f"{key}: entries must be objects")
                continue
            want = {"workloads": {"name", "why"},
                    "end_to_end": {"name", "unit", "better", "bound"},
                    "per_layer": {"name", "unit", "better"}}[key]
            if set(item) != want:
                errors.append(f"{key}: {item.get('name')!r} must have "
                              f"exactly the keys {sorted(want)}")
                continue
            check_name(item["name"], key)
            if key == "workloads":
                why = item["why"]
                if not isinstance(why, str) or not why or len(why) > 200 \
                        or "\n" in why:
                    errors.append(f"workload {item['name']!r}: why must be "
                                  "one line of at most 200 characters")
                continue
            if not isinstance(item["unit"], str) or \
                    not UNIT_RE.match(item["unit"]):
                errors.append(f"{key}: {item['name']!r} has a bad unit")
            if item["better"] not in ("lower", "higher"):
                errors.append(f"{key}: {item['name']!r} better must be "
                              "lower or higher")
            if key == "end_to_end":
                b = item["bound"]
                if not isinstance(b, (int, float)) or isinstance(b, bool) \
                        or not 0 < b <= 0.25:
                    errors.append(f"{item['name']!r}: bound must be in "
                                  "(0, 0.25]")
    if not errors:
        setup = [m for m in spec["end_to_end"] if m["name"] == "setup_s"]
        if not setup or setup[0]["unit"] != "s" or \
                setup[0]["better"] != "lower":
            errors.append("end_to_end must hold setup_s in s, lower better")
    return errors


def check_result(result, spec, trace):
    """Returns the problems with a result object against the spec."""
    errors = []
    keys = {"correct", "attempted", "failed", "metrics"}
    if not isinstance(result, dict) or set(result) != keys:
        return ["result keys must be exactly " + ", ".join(sorted(keys))]
    if not isinstance(result["correct"], bool):
        errors.append("correct must be a boolean")
    for k in ("attempted", "failed"):
        v = result[k]
        if not isinstance(v, int) or isinstance(v, bool) or v < 0:
            errors.append(f"{k} must be a whole number")
    if isinstance(result["attempted"], int) and result["attempted"] < 1:
        errors.append("attempted must be at least 1")
    listed = {m["name"]: m["unit"]
              for m in spec["per_layer" if trace else "end_to_end"]}
    metrics = result["metrics"]
    if not isinstance(metrics, dict):
        return errors + ["metrics must be an object"]
    if set(metrics) != set(listed):
        missing = sorted(set(listed) - set(metrics))
        extra = sorted(set(metrics) - set(listed))
        errors.append(f"metrics differ from BENCHMARK.json: missing "
                      f"{missing}, not listed {extra}")
    for name, m in metrics.items():
        if not NAME_RE.match(name):
            errors.append(f"bad metric name {name!r}")
        if not isinstance(m, dict) or set(m) != {"value", "unit"}:
            errors.append(f"metric {name!r} must be {{value, unit}}")
        elif name in listed and m["unit"] != listed[name]:
            errors.append(f"metric {name!r} unit {m['unit']!r} != "
                          f"{listed[name]!r}")
        elif not isinstance(m["value"], (int, float)) or \
                isinstance(m["value"], bool):
            errors.append(f"metric {name!r} value is not a number")
    return errors


def source_identity():
    """Git commit when there is one, and always a digest of the sources
    the benchmark is built from (a checkout need not be a git repository)."""
    digest = hashlib.sha256()
    for top in ("src", "rlsbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
            for f in sorted(filenames):
                path = os.path.join(dirpath, f)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as fh:
                    digest.update(fh.read())
    commit = "none"
    if shutil.which("git"):
        r = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                           capture_output=True, text=True)
        if r.returncode == 0:
            commit = r.stdout.strip()
    return f"git:{commit} tree:{digest.hexdigest()[:16]}"


def build(targets):
    """Configures and builds the benchmark package; build output goes to
    stderr so stdout stays the result stream."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    configure = ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"]
    if shutil.which("ninja"):
        configure += ["-G", "Ninja"]
    if not any(os.path.exists(os.path.join(BUILD, f))
               for f in ("build.ninja", "Makefile")):
        subprocess.run(configure, check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", BUILD, "-j", jobs, "--target"] +
                   targets, check=True, stdout=sys.stderr)


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    errors = validate_benchmark(spec)
    if errors:
        raise ValueError("BENCHMARK.json: " + "; ".join(errors))
    return spec


def run_workload(args):
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    if args.workload not in names:
        print(f"rlsbench: unknown workload {args.workload!r} (BENCHMARK.json "
              f"lists {', '.join(names)})", file=sys.stderr)
        return 2
    build(["rlsbench"])
    cmd = [os.path.join(BUILD, "rlsbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--scratch", SCRATCH,
           "--source", source_identity()]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("rlsbench: the workload timed out", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(SCRATCH, ignore_errors=True)
    lines = proc.stdout.splitlines()
    if not lines:
        print(f"rlsbench: the workload printed nothing (exit {proc.returncode})",
              file=sys.stderr)
        return 1
    for line in lines[:-1]:
        print(line)
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        print(f"rlsbench: last output line is not JSON: {lines[-1]!r}",
              file=sys.stderr)
        return 1
    errors = check_result(result, spec, args.trace == 1)
    for e in errors:
        print(f"rlsbench: {e}", file=sys.stderr)
    if errors:
        return 1
    print(json.dumps(result))
    return proc.returncode if result["correct"] else max(1, proc.returncode)


def selftest():
    build(["rlsbench_selftest"])
    code = subprocess.run([os.path.join(BUILD, "rlsbench_selftest")]).returncode
    sys.dont_write_bytecode = True
    sys.path.insert(0, HERE)
    suite = unittest.defaultTestLoader.discover(HERE, pattern="test_*.py")
    ok = unittest.TextTestRunner(verbosity=2).run(suite).wasSuccessful()
    return 0 if code == 0 and ok else 1


def main(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=int, default=10)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--selftest", action="store_true")
    args = p.parse_args(argv)
    try:
        if args.selftest:
            return selftest()
        if not args.workload or args.seed < 0 or args.seconds < 1:
            p.error("--workload, a seed >= 0 and seconds >= 1 are required")
        return run_workload(args)
    except (OSError, ValueError, subprocess.CalledProcessError) as e:
        print(f"rlsbench: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
