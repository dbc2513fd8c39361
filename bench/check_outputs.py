#!/usr/bin/env python3
"""Byte-level output check for the figure and ablation benches.

Runs every bench binary at small fixed sizes with --seed=7 and writes into
one directory, per bench <b>:

  <b>_<table>.csv           every --csv table;
  <b>.prom, <b>.prom.timeseries.csv
                            the --metrics outputs, for benches that take it;
  <b>.jsonl                 a JSON lines --trace with a small --trace-ring,
                            for benches that take it.

A flag is passed only to the benches whose --help lists it. The sweep
benches are those whose --help lists --checkpoint-dir.

Two modes:

  check_outputs.py --bin-dir build/bench --out DIR [--threads N]
      writes one pass into DIR and checks nothing else, so the outputs of
      two trees can be compared with `diff -r`.

  check_outputs.py --bin-dir build/bench
      the check registered with ctest. It requires that
        * every bench writes each output its --help says it takes;
        * a pass at --threads=1 and a pass at --threads=4 write
          byte-identical directories;
        * every sweep bench writes the same CSVs when it checkpoints
          (--checkpoint-dir);
        * every bench whose --help lists --policy exits 2 on
          --policy=bogus.
"""

import argparse
import filecmp
import pathlib
import re
import subprocess
import sys
import tempfile

# Every bench with the sizes that keep one pass of the suite to about a
# second (the figures need no more to exercise every code path).
BENCHES = {
    "fig3_analytical": [],
    "fig5a_xdevs": ["--tasks=400", "--nodes=100"],
    "fig5b_boinc": ["--vars=10", "--tasks=20", "--clients=30"],
    "fig5c_improvement": ["--cross-tasks=400"],
    "fig6_response_time": ["--tasks=400", "--nodes=1000"],
    "fig7_coded_tradeoff": ["--tasks=200", "--nodes=60"],
    "ablation_churn": ["--tasks=400", "--nodes=100"],
    "ablation_correlated": ["--tasks=400"],
    "ablation_credibility": ["--tasks=300"],
    "ablation_equivalence": ["--trials=50"],
    "ablation_heterogeneous": ["--tasks=400"],
    "ablation_homogeneous": ["--tasks=400"],
    "ablation_mapreduce": ["--documents=64"],
    "ablation_nonbinary": ["--tasks=400"],
    "ablation_scheduling": ["--tasks=400", "--nodes=50"],
    "ablation_selftuning": ["--tasks=1000"],
    "ablation_stragglers": ["--tasks=400", "--nodes=100"],
    "ablation_waves": ["--tasks=2000"],
}

SEED = 7
REPS = 3
TRACE_RING = 64
TIMEOUT_S = 300


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--bin-dir", required=True, type=pathlib.Path,
                        help="directory holding the bench binaries")
    parser.add_argument("--out", type=pathlib.Path,
                        help="write one pass here and check nothing else")
    parser.add_argument("--threads", type=int, default=4,
                        help="--threads of the --out pass")
    return parser.parse_args(argv)


def listed_flags(binary):
    """The flag names a bench's --help lists."""
    result = subprocess.run([str(binary), "--help"], capture_output=True,
                            text=True, timeout=TIMEOUT_S, check=True)
    return set(re.findall(r"^\s+--([\w-]+)", result.stdout, re.MULTILINE))


def run(cmd):
    result = subprocess.run(cmd, stdout=subprocess.DEVNULL,
                            stderr=subprocess.PIPE, timeout=TIMEOUT_S,
                            text=True)
    return result.returncode, result.stderr


def bench_cmd(binary, name, flags, out, threads):
    """The command line of `name` writing its outputs into `out`."""
    cmd = [str(binary)] + BENCHES[name]
    optional = {
        "seed": f"--seed={SEED}",
        "reps": f"--reps={REPS}",
        "threads": f"--threads={threads}",
        "csv": f"--csv={out / name}.csv",
        "metrics": f"--metrics={out / name}.prom",
        "trace": f"--trace={out / name}.jsonl",
        "trace-ring": f"--trace-ring={TRACE_RING}",
    }
    cmd += [arg for flag, arg in optional.items() if flag in flags]
    return cmd


def run_pass(benches, out, threads, checkpoints=None):
    """Runs every bench into `out`, each checkpointing into its own
    directory under `checkpoints` when that is given; returns the
    failures."""
    out.mkdir(parents=True, exist_ok=True)
    failures = []
    for name, (binary, flags) in benches.items():
        cmd = bench_cmd(binary, name, flags, out, threads)
        if checkpoints is not None:
            cmd.append(f"--checkpoint-dir={checkpoints / name}")
        code, stderr = run(cmd)
        if code != 0:
            failures.append(f"{' '.join(cmd)} exited {code}:\n{stderr}")
    return failures


def missing_outputs(benches, out):
    """One failure per output a bench's --help lists but it did not write."""
    failures = []
    for name, (_, flags) in benches.items():
        wanted = [f"{name}_*.csv"]
        if "metrics" in flags:
            wanted += [f"{name}.prom", f"{name}.prom.timeseries.csv"]
        if "trace" in flags:
            wanted.append(f"{name}.jsonl")
        failures += [f"{name} wrote no {pattern}" for pattern in wanted
                     if not list(out.glob(pattern))]
    return failures


def differing_files(left, right, pattern="*"):
    """Names of files matching `pattern` that differ or exist on one side."""
    names = {p.name for p in left.glob(pattern)}
    names |= {p.name for p in right.glob(pattern)}
    return sorted(n for n in names
                  if not ((left / n).is_file() and (right / n).is_file()
                          and filecmp.cmp(left / n, right / n, shallow=False)))


def check(benches, scratch):
    failures = []
    one, four = scratch / "threads1", scratch / "threads4"
    failures += run_pass(benches, one, threads=1)
    failures += run_pass(benches, four, threads=4)
    failures += missing_outputs(benches, four)
    for name in differing_files(one, four):
        failures.append(f"{name} differs between --threads=1 and 4")

    sweeps = {name: bench for name, bench in benches.items()
              if "checkpoint-dir" in bench[1]}
    checkpointed = scratch / "checkpointed"
    failures += run_pass(sweeps, checkpointed, threads=4,
                         checkpoints=scratch / "checkpoints")
    for name in sweeps:
        for table in differing_files(four, checkpointed, f"{name}_*.csv"):
            failures.append(f"{table} differs when checkpointed")

    for name, (binary, flags) in benches.items():
        if "policy" not in flags:
            continue
        code, stderr = run([str(binary)] + BENCHES[name] +
                           ["--policy=bogus"])
        if code != 2:
            failures.append(f"{name} --policy=bogus exited {code}, "
                            f"not 2:\n{stderr}")
    return failures


def main(argv):
    opts = parse_args(argv)
    benches = {}
    for name in BENCHES:
        binary = opts.bin_dir / name
        benches[name] = (binary, listed_flags(binary))

    if opts.out is not None:
        failures = run_pass(benches, opts.out.resolve(), opts.threads)
    else:
        with tempfile.TemporaryDirectory(prefix="check_outputs_") as tmp:
            failures = check(benches, pathlib.Path(tmp))
    for failure in failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    if failures:
        return 1
    print(f"PASS: {len(benches)} benches")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
