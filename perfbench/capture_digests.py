"""Record the stdout digest of every seed-independent benchmark command.

The benchmark checks each pass's output against these digests, so that the
default output stays byte-identical.  Re-run only when a change is meant to
alter output, and review the diff of ``expected_digests.json``:

    python3 perfbench/capture_digests.py   # from the root of a checkout
"""

from __future__ import annotations

import json
import os
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(Path.cwd() / "src"))

import workloads  # noqa: E402
from worker import execute, read  # noqa: E402


def main() -> int:
    from seqparity import cli

    digests = {}
    build = Path.cwd() / ".bench_build" / "perfbench"
    build.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=build) as work:
        os.chdir(work)
        for workload in workloads.WORKLOADS:
            for smoke in (False, True):
                for cmd in workloads.commands(workload, 0, smoke):
                    rc, _, text = execute(cli, cmd)
                    if cmd["key"] is not None:
                        digests[cmd["key"]] = workloads.digest(text)
                    problems, _ = workloads.check_output(cmd, rc, text, digests, read)
                    if problems:
                        print(f"{' '.join(cmd['argv'])}: {problems}", file=sys.stderr)
                        return 1
        os.chdir(build)
    (HERE / "expected_digests.json").write_text(
        json.dumps(digests, indent=1, sort_keys=True) + "\n")
    print(f"{len(digests)} digests written")
    return 0


if __name__ == "__main__":
    sys.exit(main())
