"""Benchmark of the polyillum CLI: one workload per run.

Usage (from the root of a checkout):

    python3 benchmark/run.py --workload {classify,illuminate,oracle,verify}
                             --seed N --seconds S --trace {0,1}

A closed loop with one client: each operation runs in a fresh interpreter
(worker.py) and the next starts only after it has ended.  Whole rounds of
the workload's operations run until S seconds have passed.  Every output
is checked by checker.py, which does not import polyillum.  The last line
of stdout is one JSON object with `correct`, `attempted`, `failed` and
`metrics`: the end-to-end metrics with --trace 0; with --trace 1 each
operation runs untraced and then traced, and the metrics are the
per-layer metrics of the traced runs plus the tracing overhead.  Failures and a
summary go to stderr.  See README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

import checker
import instances as inst
import tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKER = HERE / "worker.py"
OP_TIMEOUT_S = 60      # the slowest operation takes about 8 s
# Times are reported in reference seconds: measured seconds scaled by
# CALIBRATION_REF_S over the worker's calibration time (see README.md).
CALIBRATION_REF_S = 0.030
RUN_BUDGET_S = 150     # start no further round after this
# The random R^3 sets are one fixed draw, not drawn from --seed: `skeleton`
# fails on some of them (a known fault), and the share of failed operations
# must not depend on the seed.  --seed draws the offsets and orders instead.
R3_DRAW = "r3/2403"
R3_COUNT = 12


class BenchError(Exception):
    """The benchmark itself cannot run (no program to run, broken worker)."""


@dataclass
class Op:
    command: str
    instance: inst.Instance
    argv: list
    label: str
    directions_doc: Optional[dict] = None

    @property
    def known_fault(self) -> bool:
        """`skeleton` returns a skeleton for some sets that are not strongly
        monotypic (see README.md); these operations fail until it is mended."""
        return self.command == "skeleton" and not self.instance.sm


def _seeded(specs, rng):
    """Products of simplices with offsets drawn from the workload seed."""
    return [inst.product_of_simplices(name + "~r", dims, rng.randrange(2 ** 32))
            for name, dims in specs]


def _products(specs, rng=None):
    """Products of simplices with unit offsets and, given rng, seeded offsets."""
    unit = [inst.product_of_simplices(name, dims) for name, dims in specs]
    return unit + (_seeded(specs, rng) if rng is not None else [])


def _box(ns):
    return [(f"box{n}", [1] * n) for n in ns]


def _simplex(ns):
    return [(f"simplex{n}", [n]) for n in ns]


def _sp(*dims_list):
    return [("sp" + "".join(map(str, dims)), list(dims)) for dims in dims_list]


def _op(command, instance, *flags, directions=None, tag=""):
    argv = [command, f"{instance.name}.json", *flags]
    if directions is not None:
        argv += ["--directions", f"{instance.name}{tag}.dirs.json"]
    return Op(command, instance, argv, f"{command} {instance.name}{tag}", directions)


def build_workload(name: str, seed: int) -> list:
    """The operations of one round, in order."""
    rng = random.Random(f"{name}/{seed}")
    if name == "classify":
        simple = _seeded(_box([3, 4, 5]) + _simplex([4, 5, 6, 7])
                         + _sp((2, 2), (2, 2, 1), (3, 3)), rng) + [inst.hexagon()]
        others = [inst.square_pyramid()] + inst.random_r3_sets(R3_DRAW, R3_COUNT)
        return ([_op("classify", i) for i in simple + others]
                + [_op("fan", i, "--verify-unique") for i in simple])
    if name == "illuminate":
        families = _products(_box([3, 4, 5, 6]) + _simplex([4, 5, 6, 7])
                             + _sp((2, 2), (2, 2, 1), (3, 3)), rng)
        others = inst.random_r3_sets(R3_DRAW, R3_COUNT) + [inst.set_n()]
        return ([_op("illuminate", i, "--verify") for i in families]
                + [_op(c, i) for i in others for c in ("skeleton", "illuminate")])
    if name == "oracle":
        shapes = _seeded(_box([3, 4, 5]) + _simplex([3, 4, 5, 6, 7])
                         + _sp((2, 1), (2, 2), (2, 2, 1), (3, 3)), rng)
        return [_op("oracle", i) for i in shapes + [inst.hexagon(), inst.square_pyramid()]]
    if name == "verify":
        ops = []
        for i in _products(_box([5, 6, 7]) + _sp((2, 2, 2), (2, 2, 1, 1), (4, 3))):
            passing, failing = inst.verify_directions(i, rng)
            ops.append(_op("verify", i, directions=passing, tag=".pass"))
            ops.append(_op("verify", i, directions=failing, tag=".fail"))
        return ops
    raise BenchError(f"unknown workload {name!r}")


WORKLOADS = ("classify", "illuminate", "oracle", "verify")


def _files(ops) -> dict:
    files = {}
    for op in ops:
        files[op.argv[1]] = op.instance.doc()
        if op.directions_doc is not None:
            files[op.argv[-1]] = op.directions_doc
    return files


def _start_worker(workdir: Path, trace: bool) -> subprocess.Popen:
    env = dict(os.environ, PYTHONHASHSEED="0")
    proc = subprocess.Popen([sys.executable, str(WORKER), str(SRC), "1" if trace else "0"],
                            cwd=workdir, env=env, text=True, stdin=subprocess.PIPE,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    if proc.stdout.readline() != "ready\n":
        _, err = proc.communicate(timeout=OP_TIMEOUT_S)
        raise BenchError(f"worker did not start: {err.strip()[-2000:]}")
    return proc


def _run_op(proc: subprocess.Popen, op: Op) -> dict:
    try:
        out, err = proc.communicate(json.dumps(op.argv) + "\n", timeout=OP_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        return {"code": None, "payload": "", "traceback": None, "timeout": True,
                "seconds": float(OP_TIMEOUT_S), "calibration_s": CALIBRATION_REF_S,
                "rss_kb": 0, "trace": None}
    try:
        return json.loads(out.splitlines()[-1])
    except (IndexError, json.JSONDecodeError):
        raise BenchError(f"worker gave no result for {op.label}: {err.strip()[-2000:]}")


def _judge(op: Op, result: dict) -> Optional[str]:
    """None if the operation succeeded, else why it failed."""
    if result.get("timeout"):
        return f"no result within {OP_TIMEOUT_S} s"
    if result["traceback"]:
        return "traceback: " + result["traceback"].strip().splitlines()[-1]
    try:
        payload = json.loads(result["payload"])
    except json.JSONDecodeError:
        return "payload is not one JSON document"
    return checker.check(op, result["code"], payload)


def _scaled(snapshot: dict, factor: float) -> dict:
    for part in ("layer_ns", "stage_ns"):
        snapshot[part] = {k: v * factor for k, v in snapshot[part].items()}
    return snapshot


def run_round(ops, workdir: Path, modes) -> list:
    """One pass over the operations, each run once per tracing mode in
    `modes`, back to back so that a traced run and its untraced twin see
    the same machine.  Per mode: set-up time (writing the files and
    starting each worker), each operation's time, peak RSS, failures and,
    when traced, the merged per-layer aggregates.  Every time is scaled to
    reference seconds by the calibration of the worker it was taken in."""
    start = time.perf_counter()
    for name, doc in _files(ops).items():
        (workdir / name).write_text(json.dumps(doc) + "\n", encoding="utf-8")
    written = time.perf_counter() - start
    rounds = [{"setup_s": 0.0, "times": [], "raw_s": 0.0, "factors": [], "rss_mb": [],
               "failures": [], "trace": []} for _ in modes]
    for op in ops:
        for trace, r in zip(modes, rounds):
            started = time.perf_counter()
            proc = _start_worker(workdir, trace)
            start_s = time.perf_counter() - started
            try:
                result = _run_op(proc, op)
            finally:
                if proc.poll() is None:
                    proc.kill()
                proc.wait()
            factor = CALIBRATION_REF_S / result["calibration_s"]
            r["factors"].append(factor)
            r["setup_s"] += start_s * factor
            r["times"].append(result["seconds"] * factor)
            r["raw_s"] += result["seconds"]
            r["rss_mb"].append(result["rss_kb"] / 1024)
            if result["trace"]:
                r["trace"].append(_scaled(result["trace"], factor))
            reason = _judge(op, result)
            if reason is not None:
                r["failures"].append((op, reason))
    for r in rounds:
        r["setup_s"] += written * statistics.median(r["factors"])
        r["trace"] = tracer.merge(r["trace"])
    return rounds


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def end_to_end(rounds) -> dict:
    return {
        "wall_s": _metric(statistics.median(sum(r["times"]) for r in rounds), "s"),
        "op_ms_p50": _metric(1000 * statistics.median(t for r in rounds for t in r["times"]), "ms"),
        "peak_rss_mb": _metric(statistics.median(max(r["rss_mb"]) for r in rounds), "MB"),
        "setup_s": _metric(statistics.median(r["setup_s"] for r in rounds), "s"),
    }


def per_layer(plain, traced) -> dict:
    values = [tracer.layer_metrics(r["trace"]) for r in traced]
    units = dict(tracer.METRICS)
    out = {name: _metric(statistics.median(v[name] for v in values), units[name])
           for name, _ in tracer.METRICS}
    overhead = (statistics.median(sum(r["times"]) for r in traced)
                - statistics.median(sum(r["times"]) for r in plain))
    out["trace.overhead_s"] = _metric(overhead, "s")
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "polyillum" / "cli.py").is_file():
        print(f"benchmark: no program to run at {SRC / 'polyillum'}", file=sys.stderr)
        return 2

    ops = build_workload(args.workload, args.seed)
    workdir = ROOT / ".bench_work" / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    plain, traced = [], []
    try:
        warm = _start_worker(workdir, bool(args.trace))  # compiles the bytecode caches
        warm.communicate(timeout=OP_TIMEOUT_S)
        began = time.perf_counter()
        while True:
            rounds = run_round(ops, workdir, (False, True) if args.trace else (False,))
            plain.append(rounds[0])
            traced += rounds[1:]
            elapsed = time.perf_counter() - began
            per_round = elapsed / len(plain)
            if elapsed >= args.seconds or elapsed + per_round > RUN_BUDGET_S:
                break
    except BenchError as err:
        print(f"benchmark: {err}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    rounds = plain + traced
    failures = [f for r in rounds for f in r["failures"]]
    seen = set()
    for op, reason in failures:
        if op.label not in seen:
            seen.add(op.label)
            kind = "known fault" if op.known_fault else "FAILED"
            print(f"{kind}: {op.label}: {reason}", file=sys.stderr)
    metrics = per_layer(plain, traced) if args.trace else end_to_end(plain)
    print(f"{args.workload}: {len(plain)} round(s) of {len(ops)} operations, "
          f"{len(failures)} failed; first round: measured wall {plain[0]['raw_s']:.3f} s, "
          f"median scale factor {statistics.median(plain[0]['factors']):.3f}",
          file=sys.stderr)
    print(json.dumps({
        "correct": all(op.known_fault for op, _ in failures),
        "attempted": len(ops) * len(rounds),
        "failed": len(failures),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
