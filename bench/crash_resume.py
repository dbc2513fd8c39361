#!/usr/bin/env python3
"""Fault-injected crash/recovery gate for checkpointed sweeps.

Protocol:

  1. Reference: run the bench uninterrupted (no checkpointing) and keep its
     CSV as the ground truth.
  2. Crash loop: run the same sweep with --checkpoint-dir, SIGKILL-ing the
     process at a seeded-random moment; then resume with --resume and kill
     again, repeatedly. Once an unfinished point holds two epochs, one byte
     of its newest epoch file is flipped, so a resume must fall back to the
     older epoch and re-run the replications saved since it.
  3. Final resume: let the last --resume run finish, and require its CSV to
     be byte-identical to the reference.

A kill can land anywhere: mid-replication, mid-checkpoint-save, between
points, or after the sweep already finished (the resume of a complete sweep
must then reproduce the CSV from checkpoints alone). Every path must end in
the same bytes.

Wired into ctest as the tier-2 `crash_resume` test:

  ctest --test-dir build -C perf -L tier2
"""

import argparse
import os
import pathlib
import random
import signal
import subprocess
import sys
import tempfile
import time


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--binary", required=True,
                        help="checkpointable bench binary (e.g. fig5a_xdevs)")
    parser.add_argument("--args", action="append", default=[],
                        help="extra bench flag, repeatable")
    parser.add_argument("--csv-tag", default="fig5a",
                        help="tag the bench appends to its --csv path")
    parser.add_argument("--threads", type=int, default=16)
    parser.add_argument("--reps", type=int, default=8)
    parser.add_argument("--seed", type=int, default=1,
                        help="bench master seed")
    parser.add_argument("--kill-seed", type=int, default=20260809,
                        help="seed for the randomized kill points")
    parser.add_argument("--kills", type=int, default=4,
                        help="SIGKILL injections before the final resume")
    parser.add_argument("--timeout", type=float, default=600.0,
                        help="per-run timeout in seconds")
    return parser.parse_args(argv)


def tagged_csv(path, tag):
    """The bench suffixes '_<tag>' before the extension of its --csv path."""
    p = pathlib.Path(path)
    return p.with_name(f"{p.stem}_{tag}{p.suffix}")


def bench_cmd(opts, csv_path, checkpoint_dir=None, resume=False):
    cmd = [opts.binary, f"--reps={opts.reps}", f"--threads={opts.threads}",
           f"--seed={opts.seed}", f"--csv={csv_path}"] + opts.args
    if checkpoint_dir is not None:
        cmd.append(f"--checkpoint-dir={checkpoint_dir}")
    if resume:
        cmd.append("--resume")
    return cmd


def run_to_completion(cmd, timeout):
    result = subprocess.run(cmd, stdout=subprocess.DEVNULL,
                            stderr=subprocess.PIPE, timeout=timeout)
    if result.returncode != 0:
        sys.stderr.write(result.stderr.decode(errors="replace"))
        raise SystemExit(f"FAIL: {' '.join(cmd)} exited "
                         f"{result.returncode}")
    return result


def run_and_kill(cmd, delay, timeout):
    """Starts the bench and SIGKILLs it after `delay` seconds (unless it
    finishes first). Returns True if the kill landed."""
    proc = subprocess.Popen(cmd, stdout=subprocess.DEVNULL,
                            stderr=subprocess.DEVNULL)
    try:
        proc.wait(timeout=delay)
        return False  # finished before the kill
    except subprocess.TimeoutExpired:
        proc.send_signal(signal.SIGKILL)
        proc.wait(timeout=timeout)
        return True


# ckpt::frame_record's header: magic u32, version u32, fingerprint u64,
# payload length u64 (little-endian).
FRAME_HEADER_BYTES = 24


def record_complete(data):
    """The `complete` byte ckpt::encode_point writes after the identity
    header (codec name, replications, master seed, point, label)."""
    pos = FRAME_HEADER_BYTES
    pos += 8 + int.from_bytes(data[pos:pos + 8], "little")  # codec name
    pos += 3 * 8  # replications, master seed, point
    pos += 8 + int.from_bytes(data[pos:pos + 8], "little")  # label
    return data[pos] != 0


def corrupt_newest_epoch(checkpoint_dir):
    """Flips a byte mid-file in the newest epoch of the lowest-numbered
    point that holds two epochs and whose newest record is not complete, so
    a resume must fall back to the older epoch and recompute the
    replications saved since it. Returns the damaged file, or None when no
    point qualifies yet."""
    root = pathlib.Path(checkpoint_dir)
    for point in sorted(root.glob("point-*"),
                        key=lambda p: int(p.name.split("-")[1])):
        epochs = sorted(point.glob("e*.ckpt"), key=lambda p: int(p.stem[1:]))
        if len(epochs) < 2:
            continue
        data = bytearray(epochs[-1].read_bytes())
        if record_complete(data):
            continue
        data[len(data) // 2] ^= 0x40
        epochs[-1].write_bytes(data)
        return str(epochs[-1])
    return None


def main(argv):
    opts = parse_args(argv)
    rng = random.Random(opts.kill_seed)
    with tempfile.TemporaryDirectory(prefix="crash_resume_") as tmp:
        tmp = pathlib.Path(tmp)
        ckpt_dir = tmp / "ckpt"

        # 1. Ground truth, no checkpointing involved.
        ref_csv = tmp / "ref.csv"
        start = time.monotonic()
        run_to_completion(bench_cmd(opts, ref_csv), opts.timeout)
        duration = time.monotonic() - start
        reference = tagged_csv(ref_csv, opts.csv_tag).read_bytes()
        print(f"reference run: {duration:.2f}s, "
              f"{len(reference)} CSV bytes")

        # 2. Crash loop: kill at seeded-random fractions of the reference
        # duration, so kills land at varied sweep positions.
        out_csv = tmp / "out.csv"
        corrupted = False
        for attempt in range(opts.kills):
            delay = max(0.05, rng.uniform(0.1, 0.9) * duration)
            cmd = bench_cmd(opts, out_csv, ckpt_dir, resume=attempt > 0)
            killed = run_and_kill(cmd, delay, opts.timeout)
            print(f"attempt {attempt}: "
                  f"{'killed after %.2fs' % delay if killed else 'finished'}")
            if not corrupted and ckpt_dir.exists():
                victim = corrupt_newest_epoch(ckpt_dir)
                if victim:
                    corrupted = True
                    print(f"flipped a byte in newest epoch: {victim}")

        # 3. Final resume must finish and reproduce the reference bytes.
        run_to_completion(bench_cmd(opts, out_csv, ckpt_dir, resume=True),
                          opts.timeout)
        resumed = tagged_csv(out_csv, opts.csv_tag).read_bytes()
        if resumed != reference:
            raise SystemExit(
                "FAIL: resumed sweep CSV differs from the uninterrupted "
                f"reference ({len(resumed)} vs {len(reference)} bytes)")
        if not corrupted:
            raise SystemExit(
                "FAIL: no epoch file was ever corrupted — no kill left an "
                "unfinished point with two epochs; raise --kills or --reps")
        print("OK: resumed aggregates are byte-identical to the "
              "uninterrupted reference, even with a corrupt newest epoch")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
