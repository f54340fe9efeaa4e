"""Benchmark of the ``ordsoft`` pipeline: one workload, one seed, one JSON line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. Inputs are generated from ``--seed`` through
``ordsoft synth`` into ``.perfbench_work/`` (git-ignored). The workload's
round of commands is then repeated, whole rounds only, until the commands
have run for ``--seconds``. Each round's outputs are checked by independent
oracles, and the rounds must agree byte for byte.

With ``--trace 0`` the last line reports the end-to-end metrics: the medians
over rounds of ``wall_s``, ``cpu_s`` and ``peak_rss_mb``, and ``setup_s``,
the median over at least ten fresh processes, launched between the rounds,
of the time from launch to the first fit. With ``--trace 1`` every third
round is untraced and the others are traced, at least one untraced and two
traced rounds, so every traced run also checks that tracing leaves the outputs
byte-identical and that the traced counts repeat exactly; the last line
reports the per-layer metrics of the first traced round and
``trace.overhead_s``, traced minus untraced median wall time.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import checks
import inputs
import tracer
from speed import SpeedMeter, pin_to_one_cpu
from workloads import WORKLOADS, Command, Workload

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".perfbench_work"
SETUP_PROBES = 10  # at least this many per run
PROBES_PER_ROUND = 5
DEADLINE_S = 170.0  # every run must end within 180 s
COUNT_METRICS = [k for k, unit in tracer.LAYER_METRICS.items() if unit == "count"]


class Harness:
    def __init__(self, workload: Workload, work: Path, started: float, meter: SpeedMeter):
        self.workload = workload
        self.work = work
        self.env = inputs.program_env(ROOT)
        self.deadline = started + DEADLINE_S
        self.meter = meter

    def _launch(self, argv: list[str], log: Path) -> subprocess.Popen:
        with open(log, "w") as fh:
            return subprocess.Popen(argv, env=self.env, cwd=ROOT, stdout=fh,
                                    stderr=subprocess.STDOUT, start_new_session=True)

    @staticmethod
    def _end_group(pgid: int) -> None:
        """Kill whatever is left of a command's process group.

        Commands run serially (``ORDSOFT_WORKERS=1``), so the group is the one
        process its caller waits for.
        """
        try:
            os.killpg(pgid, signal.SIGKILL)
        except ProcessLookupError:
            pass

    def run_command(self, argv: list[str], log: Path) -> tuple[float, float, float, int, float]:
        """Wall and CPU seconds at the reference speed, peak RSS (MiB), exit code and the scale.

        The scale is the command's reference seconds per measured second.
        """
        start = time.monotonic()
        proc = self._launch(argv, log)
        timer = threading.Timer(max(self.deadline - time.monotonic(), 0.0),
                                self._end_group, [proc.pid])
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
            end = time.monotonic()
        finally:
            timer.cancel()
            self._end_group(proc.pid)
        proc.returncode = os.waitstatus_to_exitcode(status)
        scale = self.meter.scale(start, end)
        cpu = usage.ru_utime + usage.ru_stime  # includes any children it reaped
        return (end - start) * scale, cpu * scale, usage.ru_maxrss / 1024.0, proc.returncode, scale

    def probe_setup(self, cmd: Command) -> float:
        """Seconds at the reference speed from launching the command to its first fit."""
        stamp = self.work / "probe.t"
        stamp.unlink(missing_ok=True)
        argv = [sys.executable, str(ROOT / "perfbench" / "tracer.py"), "--probe", str(stamp),
                "--", *cmd.args]
        start = time.monotonic()
        proc = self._launch(argv, self.work / "probe.log")
        try:
            proc.wait(timeout=max(self.deadline - time.monotonic(), 1.0))
        finally:
            self._end_group(proc.pid)
            proc.wait()
        if not stamp.exists():
            raise RuntimeError(f"set-up probe never reached a fit; see {self.work / 'probe.log'}")
        end = float(stamp.read_text())
        return (end - start) * self.meter.scale(start, end)

    def run_round(self, index: int, traced: bool) -> dict:
        out = self.work / f"round{index}"
        out.mkdir()
        commands = self.workload.commands(out)
        result = {"out": out, "traced": traced, "wall": 0.0, "cpu": 0.0, "rss": 0.0,
                  "attempted": 0, "failed": 0, "totals": []}
        failed_cmds: set[int] = set()
        for i, cmd in enumerate(commands):
            result["attempted"] += cmd.ops
            if any(d in failed_cmds for d in cmd.after) or time.monotonic() > self.deadline:
                failed_cmds.add(i)
                result["failed"] += cmd.ops
                continue
            if traced:
                spans = out / f"spans{i}"
                spans.mkdir()
                argv = [sys.executable, str(ROOT / "perfbench" / "tracer.py"), "--spans",
                        str(spans), "--", *cmd.args]
            else:
                argv = [sys.executable, "-m", "ordsoft.cli", *cmd.args]
            log = out / f"cmd{i}.log"
            wall, cpu, rss, code, scale = self.run_command(argv, log)
            result["wall"] += wall
            result["cpu"] += cpu
            result["rss"] = max(result["rss"], rss)
            if code != 0:
                failed_cmds.add(i)
                result["failed"] += cmd.ops
                print(f"command failed ({code}): {' '.join(cmd.args)}\n{log.read_text()[-2000:]}",
                      file=sys.stderr)
            elif traced:
                result["totals"].append(tracer.summarise(tracer.load_spans(spans), scale))
        result["complete"] = not failed_cmds
        return result


def verify(workload: Workload, rounds: list[dict], trace: bool) -> list[str]:
    """Oracle checks on every round; rounds must repeat outputs and counts exactly.

    No operation of a workload is expected to fail, so a round with a failed
    command is a problem in itself: its outputs cannot be checked.
    """
    problems = [f"{r['out'].name} incomplete, not verified" for r in rounds if not r["complete"]]
    complete = [r for r in rounds if r["complete"]]
    for r in complete:
        try:
            workload.check(r["out"])
        except Exception as exc:  # noqa: BLE001 - any failure is a failed check, reported
            problems.append(f"{r['out'].name}: {type(exc).__name__}: {exc}")
    if complete:
        first = complete[0]
        for r in complete[1:]:
            for ref, path in zip(workload.deterministic_files(first["out"]),
                                 workload.deterministic_files(r["out"])):
                if ref.read_bytes() != path.read_bytes():
                    problems.append(f"{path.name} of {r['out'].name} differs from {first['out'].name}")
    traced = [tracer.layer_metrics(r["totals"]) for r in complete if r["traced"]]
    if trace and len(traced) < 2:
        problems.append("fewer than two complete traced rounds, counts not compared")
    for m in traced[1:]:
        for key in COUNT_METRICS:
            if m[key] != traced[0][key]:
                problems.append(f"count {key} differs between traced rounds")
    return problems


def run(workload: Workload, work: Path, seed: int, seconds: float, trace: bool,
        meter: SpeedMeter) -> dict:
    started = time.monotonic()
    checks.selftest()
    workload.prepare(ROOT, work, seed)
    harness = Harness(workload, work, started, meter)
    first = workload.commands(work / "probe")[0]
    setup: list[float] = []

    def probe(until: int) -> None:
        while not trace and len(setup) < until:
            setup.append(harness.probe_setup(first))

    # Rounds repeat until --seconds of command time pass, so a faster program
    # still measures as long. Two rounds at least, so every run checks that
    # outputs repeat; three in a traced run (U, T, T), which needs an untraced
    # round for the overhead and two traced ones to compare counts.
    # Set-up probes sit between rounds, so their median sees the same moments
    # of the machine's drifting speed as the rounds do.
    rounds = []
    while len(rounds) < (3 if trace else 2) or sum(r["wall"] for r in rounds) < seconds:
        probe(len(setup) + PROBES_PER_ROUND)
        rounds.append(harness.run_round(len(rounds), traced=trace and len(rounds) % 3 != 0))
        if time.monotonic() > harness.deadline:
            break
    probe(SETUP_PROBES)
    values = {"setup_s": statistics.median(setup)} if setup else {}

    problems = verify(workload, rounds, trace)
    for p in problems:
        print(f"check failed: {p}", file=sys.stderr)
    timed = [r for r in rounds if r["complete"] and not r["traced"]]
    units = {"wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MiB", "setup_s": "s"}
    if trace:
        traced = [r for r in rounds if r["complete"] and r["traced"]]
        if traced and timed:
            values = tracer.layer_metrics(traced[0]["totals"])
            values["trace.overhead_s"] = (statistics.median(r["wall"] for r in traced)
                                          - statistics.median(r["wall"] for r in timed))
            units = tracer.LAYER_METRICS
    elif timed:
        values.update(
            wall_s=statistics.median(r["wall"] for r in timed),
            cpu_s=statistics.median(r["cpu"] for r in timed),
            peak_rss_mb=statistics.median(r["rss"] for r in timed),
        )
    metrics = {k: {"value": v, "unit": units.get(k, "s")} for k, v in values.items()}
    return {
        "correct": not problems,
        "attempted": sum(r["attempted"] for r in rounds),
        "failed": sum(r["failed"] for r in rounds),
        "metrics": metrics,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"],
                        help="'all' runs every workload and prints one line for each")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # so that a terminated run still kills the command it is waiting for
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))
    if not (ROOT / "src" / "ordsoft" / "cli.py").is_file():
        print(f"no ordsoft source tree under {ROOT / 'src'}", file=sys.stderr)
        return 2
    pin_to_one_cpu()
    meter = SpeedMeter()
    meter.start()
    try:
        names = list(WORKLOADS) if args.workload == "all" else [args.workload]
        for name in names:
            work = WORK / f"{name}-seed{args.seed}-trace{args.trace}"
            shutil.rmtree(work, ignore_errors=True)
            work.mkdir(parents=True)
            result = run(WORKLOADS[name], work, args.seed, args.seconds, bool(args.trace), meter)
            print(json.dumps({"workload": name, **result} if len(names) > 1 else result))
    finally:
        meter.stop()
    return 0


if __name__ == "__main__":
    sys.exit(main())
