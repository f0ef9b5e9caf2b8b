"""One pass of a workload, in a fresh interpreter.

Reads a JSON spec on stdin -- the commands, the captured digests, the work
directory and whether to trace -- runs every command through
``seqparity.cli.main`` with stdout captured, checks each output, and prints
one JSON line with the pass's time, peak memory, failures and, when traced,
the per-layer figures.  A fresh process per pass keeps the generators'
``lru_cache``s as cold as a CLI user gets them.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import resource
import sys
import time
import traceback
from pathlib import Path

import tracing
import workloads


def execute(cli, cmd: dict) -> tuple[int, float, str]:
    """Exit code, wall seconds and stdout of one command.

    Only ``cli.main`` is timed.  A command with a ``to`` file writes its
    stdout straight to that file, as a shell redirect would.
    """
    if cmd["to"] is None:
        sink = io.StringIO()
        rc, seconds = _timed_main(cli, cmd["argv"], sink)
        return rc, seconds, sink.getvalue()
    with open(cmd["to"], "w", encoding="utf-8") as sink:
        rc, seconds = _timed_main(cli, cmd["argv"], sink)
    return rc, seconds, read(cmd["to"])


def _timed_main(cli, argv: list[str], sink) -> tuple[int, float]:
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(io.StringIO()):
        started = time.perf_counter()
        try:
            rc = cli.main(argv)
        except SystemExit as exc:  # argparse rejects bad arguments this way
            rc = exc.code if isinstance(exc.code, int) else 2
        sink.flush()
        return rc, time.perf_counter() - started


def read(name: str) -> str:
    return Path(name).read_text(encoding="utf-8")


# Typical wall time of calibrate() on the machine the benchmark was defined
# on: a 2-vCPU Intel Xeon VM with Python 3.11.
REFERENCE_CALIBRATION_S = 0.045
# Command time between two calibrations; a pass calibrates at least twice.
CALIBRATE_EVERY_S = 0.5


def calibrate() -> float:
    """Wall seconds of a fixed pure-Python job: integer arithmetic and list
    allocation, the kinds of work the generators do.

    On a shared machine, other tenants can change its speed by 20 % or more
    for seconds to minutes at a time.  Timed in the same process between the
    commands, the job slows down with them, and dividing by its time cancels
    the swing.
    """
    started = time.perf_counter()
    total = 0
    for i in range(200_000):
        total += i * i % 7
    for _ in range(40):  # small lists, so that peak memory stays the program's
        total += sum([i * 3 for i in range(10_000)])
    return time.perf_counter() - started


def speed_adjusted(seconds: float, calibrations: list[float]) -> float:
    """``seconds`` at the speed where calibrate() takes the reference time."""
    return seconds * REFERENCE_CALIBRATION_S * len(calibrations) / sum(calibrations)


def run_pass(spec: dict) -> dict:
    from seqparity import cli

    calibration = [calibrate()]
    adjusted_s = segment_s = 0.0
    recorder = tracing.Recorder() if spec["trace"] else None
    if recorder is not None:
        tracing.install(recorder)
    work = Path(spec["workdir"])
    os.chdir(work)
    run_s, failures, used, out_bytes = 0.0, [], 0, 0
    for cmd in spec["commands"]:
        try:
            rc, seconds, text = execute(cli, cmd)
            run_s += seconds
            segment_s += seconds
            if segment_s >= CALIBRATE_EVERY_S:
                calibration.append(calibrate())
                adjusted_s += speed_adjusted(segment_s, calibration[-2:])
                segment_s = 0.0
            out_bytes += len(text.encode())
            problems, n_used = workloads.check_output(cmd, rc, text, spec["expected"], read)
            used += n_used
        except Exception:
            problems = [traceback.format_exc(limit=3)]
        if problems:
            failures.append({"argv": cmd["argv"], "problems": problems})
    if segment_s or len(calibration) == 1:
        calibration.append(calibrate())
        adjusted_s += speed_adjusted(segment_s, calibration[-2:])
    result = {
        "run_s": run_s,
        "adjusted_run_s": adjusted_s,
        "calibration_s": calibration,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "attempted": len(spec["commands"]),
        "failed": len(failures),
        "failures": failures,
    }
    if recorder is not None:
        layers = tracing.layer_totals(recorder)
        layers.update({
            "catalogue.terms_used": used,
            "cli.out_bytes": out_bytes,
            "cli.commands": len(spec["commands"]),
            "cli.commands_failed": len(failures),
        })
        result["layers"] = layers
        Path(spec["spans_out"]).write_text(json.dumps(recorder.records()))
    return result


if __name__ == "__main__":
    print(json.dumps(run_pass(json.load(sys.stdin))))
