"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload get-cold --seed 1 --seconds 30 --trace 0

Run from the repository root.  The last line of standard output is one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics``, which holds
every ``end_to_end`` metric of ``BENCHMARK.json`` with ``--trace 0`` and
every ``per_layer`` metric with ``--trace 1``, each with its unit.  The lines
before it give the traffic properties a claim must cite.  Exits non-zero,
printing no result, when the program's sources are missing.

The workload runs in a child process that leads a process group of its own:
the ``zsmiles serve`` server, the engine's worker pool and multiprocessing's
resource tracker all belong to it.  This process adopts whatever the group
leaves behind (``PR_SET_CHILD_SUBREAPER`` on Linux), and on every way out,
a normal end, an error or a signal, it terminates what is left of the group
and reaps every process before it exits.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

#: Seconds the group gets to exit after SIGTERM before it is sent SIGKILL.
STOP_GRACE = 15.0
PR_SET_PDEATHSIG = 1
PR_SET_CHILD_SUBREAPER = 36
WORKER_FLAG = "--in-worker"


def _prctl():
    """libc's ``prctl``, or ``None`` where there is none."""
    try:
        return ctypes.CDLL(None, use_errno=True).prctl
    except (OSError, AttributeError):
        return None


def _raise_exit(signum, _frame) -> None:
    raise SystemExit(128 + signum)


def _exit_on_signals() -> None:
    """Turn SIGTERM, SIGINT and SIGHUP into ``SystemExit`` so ``finally`` runs."""
    for signum in (signal.SIGTERM, signal.SIGINT, signal.SIGHUP):
        signal.signal(signum, _raise_exit)


def _signal_group(pgid: int, signum: int) -> None:
    try:
        os.killpg(pgid, signum)
    except (ProcessLookupError, PermissionError):
        pass


def _end_group(pgid: int) -> None:
    """Terminate what is left of group *pgid* and reap every child."""
    for signum in (signal.SIGTERM, signal.SIGINT, signal.SIGHUP):
        signal.signal(signum, signal.SIG_IGN)
    _signal_group(pgid, signal.SIGTERM)
    deadline = time.monotonic() + STOP_GRACE
    while True:
        try:
            pid, _ = os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:
            return
        if pid:
            continue
        if deadline is not None and time.monotonic() > deadline:
            _signal_group(pgid, signal.SIGKILL)
            deadline = None
        time.sleep(0.01)


def supervise(argv) -> int:
    """Run the workload in its own process group; end every process it starts."""
    prctl = _prctl()
    if prctl is not None:
        prctl(PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0)
    parent = os.getpid()

    def die_with_parent() -> None:
        if prctl is not None:
            prctl(PR_SET_PDEATHSIG, signal.SIGTERM, 0, 0, 0)
        if os.getppid() != parent:
            os._exit(1)

    _exit_on_signals()
    child = subprocess.Popen(
        [sys.executable, str(Path(__file__).resolve()), *argv, WORKER_FLAG],
        cwd=ROOT,
        start_new_session=True,
        preexec_fn=die_with_parent,
    )
    try:
        return child.wait()
    finally:
        _end_group(child.pid)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(WORKER_FLAG, action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    why = {w["name"]: w["why"] for w in spec["workloads"]}
    if args.workload not in why:
        parser.error(f"--workload must be one of {sorted(why)}")
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if not args.in_worker:
        return supervise(argv)

    _exit_on_signals()
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from perfbench.workloads import WORKLOADS, run

    tally, values, report = run(
        WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace), ROOT
    )
    declared = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    if set(values) != set(declared):
        raise RuntimeError(
            f"metrics differ from BENCHMARK.json: {sorted(set(values) ^ set(declared))}"
        )
    for line in report:
        print(line)
    print(f"why: {why[args.workload]}")
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": values[name], "unit": declared[name]} for name in declared},
    }
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
