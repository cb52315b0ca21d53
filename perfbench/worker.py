"""One measured process: set-up, the closed request loop, then the checks.

``run.py`` starts this file in a fresh interpreter for every replica, so the
enumeration cache starts cold and nothing is shared between processes.  The
process sets up (import, input generation, apx writes), then sends every
request of the first --rounds rounds once, in order, and stops sending once
the loop has run for ``LOOP_BUDGET_S``.  With --check it checks the outputs
afterwards; with --trace it records spans around every layer call.  Next to
the set-up and to every request it times a fixed calibration kernel, so that
``run.py`` can state the times at a reference machine speed.  The last line
of standard output is one JSON object with the process's results.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import resource
import shutil
import statistics
import sys
import time
import zlib
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

import checks  # noqa: E402
from workloads import DIGEST_ROUNDS, WORKLOADS, write_inputs  # noqa: E402

# the seed whose output digests digests.json pins
PINNED_SEED = 0

# a pass stops sending after this long, and the requests it did not send
# count as failed; a pass took about 6 s at the defining commit, so a program
# up to about seven times slower is still measured whole, and a slower one
# still reports its metrics within the run's time limit
LOOP_BUDGET_S = 42

# calibration kernels timed before the set-up; their median is its speed
SETUP_CALIBRATIONS = 9


def calibrate() -> float:
    """Time a fixed piece of pure-Python work (about 0.4 ms): building
    tuples and frozensets, a keyed sort, dict lookups, bit operations and a
    JSON dump, the kind of work the program does.  Its time tracks how fast
    the shared machine runs this process at the moment."""
    start = time.perf_counter()
    rows = [(f"a{i}", i * 7 % 13, frozenset((i, i + 1))) for i in range(150)]
    rows.sort(key=lambda row: (row[1], row[0]))
    index = {name: k for name, k, _ in rows}
    acc = 0
    for name, k, pair in rows:
        acc ^= (index[name] << k) | len(pair)
    json.dumps({"rows": [[name, k] for name, k, _ in rows], "acc": acc}).split(",")
    return time.perf_counter() - start


def _setup(workload, seed: int, rounds: int, work_dir: Path):
    """Import the program, generate the pool and write its inputs; return
    the pool, its argument vectors, the program's entry point and the
    set-up time."""
    start = time.perf_counter()
    sys.path.insert(0, str(ROOT / "src"))
    from afrob.cli import run_cli

    pool = workload.pool(seed, rounds)
    write_inputs(pool, work_dir)
    commands = [request.command(work_dir) for request in pool]
    return pool, commands, run_cli, time.perf_counter() - start


def _call(run_cli, argv):
    """One request, in process, with stdout and stderr captured."""
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = run_cli(argv)
    except Exception as exc:  # a crash is a failed request, not a failed run
        code = f"{type(exc).__name__}: {exc}"
    return time.perf_counter() - start, code, out.getvalue()


def _digest(text: str) -> str:
    return hashlib.blake2b(text.encode(), digest_size=16).hexdigest()


def _measure(args, pool, commands, run_cli) -> dict:
    tracer = None
    call_cli = run_cli
    if args.trace:
        from tracing import ROOT_SPAN, Tracer

        tracer = Tracer()
    timed = [r.index for r in pool if r.round < args.rounds]
    latencies: list[float] = []
    # calibration[i] is timed just before request i, and one more after the last
    calibration: list[float] = []
    codes: list = []
    digests: list[str] = []
    kept: dict[int, bytes] = {}
    not_restored: list[str] = []
    try:
        if tracer is not None:
            tracer.install()
            call_cli = tracer.wrap(run_cli, ROOT_SPAN)
        loop_start = time.perf_counter()
        for index in timed:
            if time.perf_counter() - loop_start > LOOP_BUDGET_S:
                break
            calibration.append(calibrate())
            elapsed, code, text = _call(call_cli, commands[index])
            latencies.append(elapsed)
            codes.append(code)
            digests.append(_digest(text))
            if args.check and pool[index].check:
                kept[index] = zlib.compress(text.encode(), 1)
        calibration.append(calibrate())
        loop_wall_s = time.perf_counter() - loop_start - sum(calibration)
    finally:
        if tracer is not None:
            not_restored = tracer.restore()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    sent = len(latencies)
    result = {
        "requests": len(timed),
        "latencies_s": latencies,
        "calibration_s": calibration,
        "digests": digests,
        "loop_wall_s": loop_wall_s,
        "peak_rss_mb": peak_rss_mb,
        "problems": [
            f"request {i} ({pool[i].kind}) exited with {code}"
            for i, code in zip(timed, codes)
            if code != 0
        ],
        "failed": [i for i, code in zip(timed, codes) if code != 0] + timed[sent:],
    }
    if sent < len(timed):
        result["problems"].append(
            f"{len(timed) - sent} of {len(timed)} requests not sent: the loop ran out of its {LOOP_BUDGET_S:g} s"
        )
    result["problems"] += [f"{spec} was not restored after tracing" for spec in not_restored]
    if args.check:
        _check(args, pool, commands, run_cli, digests, kept, result, complete=sent == len(timed))
    if tracer is not None:
        # the loop's time at the calibration kernel's speed, against the
        # untraced process's, so that a change of machine speed between
        # the two processes does not show as tracing overhead
        at_reference = loop_wall_s / statistics.median(calibration)
        layers, absent = tracer.metrics(loop_wall_s, at_reference / args.untraced_loop_ref)
        result["per_layer"] = layers
        result["absent"] = absent + [f"wrap point {p}" for p in tracer.absent_points]
        result["spans"] = len(tracer.name)
        tracer.write(Path(args.out) / f"spans-{args.workload}.csv.gz")
    return result


def _check(args, pool, commands, run_cli, digests, kept, result, complete) -> None:
    """Reference checks, the pinned digest and (for audits) the pinned
    ledger; none of it is timed.  The digest is left out when the loop ran
    out of time (``complete`` false), which is already a failure."""
    problems, failed = result["problems"], result["failed"]
    divergent: list[int] = []
    for index, blob in kept.items():
        found = checks.check(pool[index], zlib.decompress(blob).decode(), divergent)
        if found:
            failed.append(index)
            problems += [f"request {index}: {p}" for p in found]
    result["checked"] = len(kept)
    result["divergent_adm_witnesses"] = len(divergent)

    if not complete:
        return
    # outputs of the pinned first rounds, sending untimed any not yet sent
    prefix = [r.index for r in pool if r.round < DIGEST_ROUNDS]
    digests = list(digests)
    for index in prefix[len(digests):]:
        _, code, text = _call(run_cli, commands[index])
        digests.append(_digest(text))
        if code != 0:
            problems.append(f"untimed request {index} exited with {code}")
    digest = hashlib.sha256("\n".join(digests[: len(prefix)]).encode()).hexdigest()
    result["digest"] = digest
    result["digest_pinned"] = None
    if args.seed == PINNED_SEED:
        pinned = json.loads((HERE / "digests.json").read_text())["digests"].get(args.workload)
        result["digest_pinned"] = pinned
        if digest != pinned:
            problems.append(f"output digest {digest} differs from the pinned {pinned}")

    if args.workload == "audit":
        _, code, text = _call(
            run_cli, ["audit", "--args", "3", "--semantics", "adm", "--format", "json", "--jobs", "1"]
        )
        problems += checks.check_pinned_ledger(text) if code == 0 else ["n=3 adm audit failed"]


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--rounds", type=int, required=True)
    parser.add_argument("--check", action="store_true")
    parser.add_argument("--trace", action="store_true")
    # with --trace: the untraced process's loop time over its calibration time
    parser.add_argument("--untraced-loop-ref", type=float, default=0.0)
    parser.add_argument("--out", required=True)
    args = parser.parse_args()

    work_dir = Path(args.out) / f"work-{os.getpid()}"
    try:
        setup_calibration = [calibrate() for _ in range(SETUP_CALIBRATIONS)]
        pool, commands, run_cli, setup_s = _setup(WORKLOADS[args.workload], args.seed, args.rounds, work_dir)
        result = {"setup_s": setup_s, "setup_calibration_s": statistics.median(setup_calibration)}
        result.update(_measure(args, pool, commands, run_cli))
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
