#!/usr/bin/env python3
"""The repository benchmark: one command for every workload.

    python3 perfbench/run.py --workload fem_table4 --seed 1 --seconds 35 --trace 0

Builds the op driver (perfbench_ops) and the library from source with CMake
into $CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench), generates
the workload's inputs from the seed, runs it, checks every op's output, and
prints each metric by name and unit. The last stdout line is one JSON
object: {"correct", "attempted", "failed", "metrics"}. --trace 0 reports the
end-to-end metrics; --trace 1 runs the traced mode and reports the
per-layer ones, and writes the spans to the build directory.
See perfbench/README.md for the workloads and what each metric predicts.
"""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.dont_write_bytecode = True  # write nothing next to the sources

import inputs  # noqa: E402
import stats  # noqa: E402

ROOT = HERE.parent
WORKLOADS = list(inputs.GROUPS)
BUILD_TIMEOUT_S = 800
RUN_TIMEOUT_S = 160


class BenchError(Exception):
    pass


def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR")
    base = Path(target) if target else ROOT / ".bench_build"
    return (base if base.is_absolute() else Path.cwd() / base) / "perfbench"


def build(bdir):
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        raise BenchError(f"library sources not found under {ROOT / 'src'}")
    jobs = str(min(os.cpu_count() or 1, 4))
    steps = []
    if not (bdir / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(bdir),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(bdir), "--target", "perfbench_ops",
                  "-j", jobs])
    for cmd in steps:
        try:
            subprocess.run(cmd, stdout=sys.stderr, check=True,
                           timeout=BUILD_TIMEOUT_S)
        except (OSError, subprocess.SubprocessError) as e:
            raise BenchError(f"build failed: {e}") from e
    return bdir / "perfbench_ops"


def run_ops(exe, args, values, spans):
    cmd = [str(exe), "--workload", args.workload, "--seconds",
           str(args.seconds), "--trace", str(args.trace)]
    for k, v in values.items():
        cmd += ["--in", f"{k}={v!r}"]
    if spans:
        cmd += ["--spans", str(spans)]
    try:
        out = subprocess.run(cmd, stdout=subprocess.PIPE, check=True,
                             text=True, timeout=RUN_TIMEOUT_S).stdout
    except (OSError, subprocess.SubprocessError) as e:
        raise BenchError(f"op driver failed: {e}") from e
    return [json.loads(line) for line in out.splitlines() if line.strip()]


def check_sim_clock(workload, seed, records):
    """Fails ops whose simulated clock moved, compared at printed digits.

    On the default seed the reference is golden.json; on other seeds it is
    the run's first op, since every op of a run gets the same inputs. The
    printed-digit comparison lets a change that only reassociates sums
    pass, while a change to the cost model fails.
    """
    ops = [r for r in records if r["rec"] == "op" and "sim_s" in r]
    if not ops:
        return

    def printed(r):
        return (f"{r['sim_s']:.6g}", [f"{x:.2f}" for x in r.get("ratios", [])])

    if seed == inputs.DEFAULT_SEED:
        golden = json.loads((HERE / "golden.json").read_text())[workload]
        want = (golden["sim_s_per_op"], golden.get("ratios", []))
    else:
        want = printed(ops[0])
    for r in ops:
        got = printed(r)
        if got != want and r["ok"]:
            r["ok"] = False
            r["why"] = f"simulated clock {got} differs from {want}"


def report(args, records, metrics, units, attempted, failed, tail_info):
    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds}"
          f" trace={args.trace}")
    for name, value in metrics.items():
        note = ""
        if name == "op_tail_s":
            note = (f"  (p{tail_info['percentile']:.1f} of {tail_info['n']}"
                    f" ops, {tail_info['beyond']} beyond)")
        print(f"  {name:28s} {value:.6g} {units[name]}{note}")
    calib = [r for r in records if r["rec"] == "calib"][-1]
    print(f"  host.calib_s start={calib['start_s']:.6g} "
          f"end={calib['end_s']:.6g} s (host drift marker)")
    print(f"  failed {failed} of {attempted} ops")
    for r in records:
        if r["rec"] == "op" and not r["ok"]:
            print(f"  failed op ({r['phase']}): {r['why']}")


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=inputs.DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=35.0)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = p.parse_args(argv)
    if args.seconds <= 0:
        p.error("--seconds must be positive")

    try:
        bdir = build_dir()
        exe = build(bdir)
        values = inputs.generate(args.workload, args.seed)
        spans = (bdir / f"spans_{args.workload}_{args.seed}.json"
                 if args.trace else None)
        records = run_ops(exe, args, values, spans)
        check_sim_clock(args.workload, args.seed, records)
        attempted, failed = stats.failures(records)
        if args.trace:
            metrics, units, tail_info = (stats.per_layer(records),
                                         stats.PER_LAYER, None)
        else:
            metrics, tail_info = stats.end_to_end(records)
            units = stats.END_TO_END
    except (BenchError, ValueError, KeyError, IndexError) as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 1

    report(args, records, metrics, units, attempted, failed, tail_info)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]}
                    for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
