"""afrob benchmark: one workload, one seed, one measured run.

    python3 perfbench/run.py --workload semantics --seed 0 --seconds 18 --trace 0

Run from the root of a source checkout (the directory holding ``src/afrob``).
The run sends a fixed number of rounds of requests, sized so that at the
commit that defined the benchmark each pass took a third of ``--seconds``,
and never fewer than 100 requests.  Every pass runs in a fresh interpreter
(``worker.py``) with a pinned environment, so the enumeration cache starts
cold and no framework is shared between processes.

Times are stated at a reference machine speed.  The worker times a fixed
calibration kernel next to the set-up and next to every request; each time
is multiplied by ``REFERENCE_CALIBRATION_S`` over the kernel's local median
time.  On a shared machine whose speed drifts by half within minutes, this
takes the drift out and leaves the program's own cost.

With ``--trace 0`` the same requests are sent in three processes one after
another and the run reports the end-to-end metrics over all three.  With
``--trace 1`` one untraced process and one traced process send them, and the
run reports the per-layer metrics.  The outputs are checked after the timed
loop.  The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  Everything the run
writes goes under ``.perfbench_out/`` in the checkout.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"
# a worker still going 170 s after the run started is killed and the run fails
_DEADLINE = time.monotonic() + 170

# every request is sent once in each of this many fresh processes
REPLICAS = 3

# the calibration kernel's time (worker.calibrate) that times are scaled to:
# about its median between requests on the machine the benchmark was
# defined on.  Fixed, so that every commit is stated at the same speed.
REFERENCE_CALIBRATION_S = 0.0004
# a request's speed is the median kernel time over this many kernels on
# either side of it
CALIBRATION_WINDOW = 3

E2E_UNITS = {
    "throughput_rps": "1/s",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}


def _environment() -> dict:
    env = {key: value for key, value in os.environ.items() if key != "AFROB_JOBS"}
    env["PYTHONHASHSEED"] = "0"
    return env


def _worker(args: list[str]) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), *args, "--out", str(OUT)],
        cwd=ROOT,
        env=_environment(),
        capture_output=True,
        text=True,
        timeout=max(1.0, _DEADLINE - time.monotonic()),
    )
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with {proc.returncode}:\n{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as cpuinfo:
            for line in cpuinfo:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit() -> str:
    """HEAD of the checkout, read from .git without running git; the
    benchmark also runs in exported trees, which have none."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.exists():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "none"


def _source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "afrob").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def _record() -> dict:
    return {
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "cpu": _cpu_model(),
        "git_commit": _git_commit(),
        "source_sha256": _source_digest(),
    }


def _at_reference(latencies: list[float], calibration: list[float]) -> list[float]:
    """Each latency scaled to the reference speed by the median kernel time
    around it; calibration[i] was timed just before request i."""
    w = CALIBRATION_WINDOW
    return [
        latency * REFERENCE_CALIBRATION_S / statistics.median(calibration[max(0, i - w) : i + w + 1])
        for i, latency in enumerate(latencies)
    ]


def _end_to_end(args, common) -> tuple[dict, dict]:
    replicas = [_worker(["--check", *common] if k == 0 else common) for k in range(REPLICAS)]
    first = replicas[0]
    count = first["requests"]
    failed = set(first["failed"])
    problems = list(first["problems"])
    for replica in replicas[1:]:
        failed.update(replica["failed"])
        problems += replica["problems"]
        for index, (mine, theirs) in enumerate(zip(first["digests"], replica["digests"])):
            if mine != theirs:
                failed.add(index)
                problems.append(f"request {index} answered differently in another process")
    # every send of every replica is one sample; medians and percentiles
    # over all of them are steadier than any one replica's
    samples = sorted(
        latency for r in replicas for latency in _at_reference(r["latencies_s"], r["calibration_s"])
    )
    setups = [r["setup_s"] * REFERENCE_CALIBRATION_S / r["setup_calibration_s"] for r in replicas]
    metrics = {
        "throughput_rps": len(samples) / sum(samples),
        "latency_p50_ms": 1000 * _percentile(samples, 0.5),
        "latency_p90_ms": 1000 * _percentile(samples, 0.9),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in replicas),
        "setup_s": statistics.median(setups),
    }
    raw = sorted(latency for r in replicas for latency in r["latencies_s"])
    detail = {
        key: first.get(key)
        for key in ("checked", "divergent_adm_witnesses", "digest", "digest_pinned")
    }
    detail.update(
        requests=count,
        samples=len(samples),
        attempted=count * REPLICAS,
        failed=len(failed) * REPLICAS,
        problems=problems,
        setup_at_reference_s=setups,
        setup_measured_s=[r["setup_s"] for r in replicas],
        calibration_median_s=[statistics.median(r["calibration_s"]) for r in replicas],
        measured={
            "throughput_rps": len(raw) / sum(raw),
            "latency_p50_ms": 1000 * _percentile(raw, 0.5),
            "latency_p90_ms": 1000 * _percentile(raw, 0.9),
        },
        loop_wall_s=[r["loop_wall_s"] for r in replicas],
    )
    return metrics, detail


def _per_layer(args, common) -> tuple[dict, dict]:
    untraced = _worker(common)
    loop_ref = untraced["loop_wall_s"] / statistics.median(untraced["calibration_s"])
    traced = _worker([*common, "--check", "--trace", "--untraced-loop-ref", str(loop_ref)])
    count = traced["requests"]
    failed = set(traced["failed"]) | set(untraced["failed"])
    problems = traced["problems"] + untraced["problems"]
    # the wrappers must not change a single answer
    for index, (mine, theirs) in enumerate(zip(untraced["digests"], traced["digests"])):
        if mine != theirs:
            failed.add(index)
            problems.append(f"request {index} answered differently when traced")
    detail = {
        key: traced.get(key)
        for key in ("checked", "divergent_adm_witnesses", "digest", "digest_pinned", "absent", "spans")
    }
    detail.update(
        requests=count,
        attempted=2 * count,
        failed=2 * len(failed),
        problems=problems,
        loop_wall_s=[untraced["loop_wall_s"], traced["loop_wall_s"]],
    )
    return traced["per_layer"], detail


def _percentile(sorted_values, share):
    """Nearest-rank percentile."""
    return sorted_values[max(1, math.ceil(share * len(sorted_values))) - 1]


def main() -> int:
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=18)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()

    if not (ROOT / "src" / "afrob" / "cli.py").is_file():
        print(f"error: no afrob source tree at {ROOT / 'src' / 'afrob'}", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 1
    OUT.mkdir(exist_ok=True)
    rounds = WORKLOADS[args.workload].rounds(args.seconds / REPLICAS)
    common = ["--workload", args.workload, "--seed", str(args.seed), "--rounds", str(rounds)]
    try:
        if args.trace:
            values, detail = _per_layer(args, common)
        else:
            values, detail = _end_to_end(args, common)
    except (RuntimeError, subprocess.TimeoutExpired, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3

    attempted, failed = detail["attempted"], detail["failed"]
    correct = not detail["problems"]
    detail["environment"] = _record()
    detail["workload"] = args.workload
    detail["seed"] = args.seed
    (OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(detail, indent=2, sort_keys=True) + "\n"
    )

    if args.trace:
        from tracing import METRICS

        units = {name: unit for name, (unit, _) in METRICS.items()}
    else:
        units = E2E_UNITS
    env = detail["environment"]
    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds:g}  trace {args.trace}")
    print(
        f"environment: nproc {env['nproc']}, python {env['python']}, cpu {env['cpu']}, "
        f"commit {env['git_commit']}, source sha256 {env['source_sha256'][:16]}"
    )
    print(f"closed loop, one client; {detail['requests']} distinct requests, {attempted} sends attempted")
    if not args.trace:
        print(f"times at the reference speed, over {detail['samples']} samples; as measured in brackets")
    measured = detail.get("measured", {})
    for name, value in values.items():
        note = f"  ({measured[name]:.6g})" if name in measured else ""
        print(f"  {name:32s} {value:14.6g} {units.get(name, '')}{note}")
    print(f"  {'error_ratio':32s} {failed / attempted:14.6g} ratio ({failed} of {attempted} sends failed)")
    if detail.get("absent"):
        print("absent: " + ", ".join(detail["absent"]))
    if detail.get("divergent_adm_witnesses"):
        print(f"plain adm witnesses the recomputation rejects (known divergence): {detail['divergent_adm_witnesses']}")
    if detail.get("digest"):
        pinned = detail.get("digest_pinned")
        state = "not pinned for this seed" if pinned is None else ("matches pin" if pinned == detail["digest"] else "DIFFERS from pin")
        print(f"output digest {detail['digest']} ({state})")
    for problem in detail["problems"][:20]:
        print(f"problem: {problem}")
    metrics = {name: {"value": value, "unit": units[name]} for name, value in values.items() if name in units}
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
