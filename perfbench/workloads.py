"""The benchmark's workloads: the CLI commands of one pass, built from a seed,
and the checks each command's output must pass.

A command is a JSON-ready dict, because the pass runs in a fresh interpreter
that receives its commands on stdin:

    argv   -- arguments for ``seqparity.cli.main``
    key    -- digest key for outputs that do not depend on the seed, else None
    to     -- file (relative to the pass's work directory) the stdout goes to
    check  -- what the output must show, see ``check_output``
"""

from __future__ import annotations

import hashlib
import random
import re

WORKLOADS = ("verify-default", "verify-heavy", "verify-wide", "gen-bfile")

# The 21 catalogued OEIS sequences that ship a fixture: id -> first index.
OFFSETS = {
    "A010060": 0, "A010059": 0, "A001969": 1, "A000069": 1, "A228495": 1,
    "A128975": 1, "A048883": 0, "A102393": 0, "A029886": 0, "A001285": 0,
    "A247303": 0, "A092524": 1, "A104258": 1, "A061297": 0, "A093431": 1,
    "A003071": 1, "A001855": 1, "A122248": 0, "A113474": 1, "A101925": 0,
    "A005187": 0,
}
# The big-integer lcm sums, which `verify` checks over the heavy range.
HEAVY = frozenset({"A061297", "A093431"})

# PAPER.md's table in report order: id -> (claim status, claimed, fitted).
# Four claims are off by an index shift and must show FAIL.
PAPER_TABLE = {
    "A128975": ("PASS", "m(n)", "m(n)"),
    "A102393": ("PASS", "m(n)", "m(n)"),
    "A029886": ("PASS", "m(n)", "m(n)"),
    "A247303": ("PASS", "m(n)", "m(n)"),
    "A092524": ("FAIL", "m(n+1)", "m(n-1)"),
    "A104258": ("FAIL", "m(n+1)", "m(n-1)"),
    "A061297": ("PASS", "m(n)", "m(n)"),
    "A093431": ("FAIL", "1-m(n+1)", "1-m(n)"),
    "A003071": ("FAIL", "1-m(n+1)", "1-m(n-1)"),
    "A122248": ("PASS", "1-m(n)", "1-m(n)"),
}
# The cheap claimed sequences: no convolution and no lcm sum among them.
WIDE_IDS = ("A128975", "A102393", "A092524", "A104258", "A003071", "A122248")

# (cheap range, heavy range) per workload, full size and smoke size.
SIZES = {
    "verify-default": ((4096, 512), (256, 64)),
    "verify-heavy": ((1024, 1024), (128, 128)),
    "verify-wide": ((65536, 0), (2048, 0)),
    "gen-bfile": ((4096, 512), (256, 128)),
}
WINDOW = 64

_VERIFY_LINE = re.compile(
    r"(\S+)  claimed: (PASS|FAIL) \[(\S+)\]  "
    r"fitted: shift=-?\d+ complement=(?:yes|no) \[(\S+)\]  "
    r"range: (\d+)\.\.(\d+)  mismatches: \d+"
)
_CHECKED_LINE = re.compile(r"(\S+): checked (\d+) terms, 0 mismatches")


def commands(workload: str, seed: int | str, smoke: bool = False) -> list[dict]:
    """The commands of one pass, in order; the seed fixes every choice."""
    cheap, heavy = SIZES[workload][smoke]
    rng = random.Random(seed)
    if workload in ("verify-default", "verify-heavy"):
        argv = ["verify", "all"]
        if workload == "verify-heavy" or smoke:
            argv += ["--n-max", str(cheap), "--n-max-heavy", str(heavy)]
        expect = {i: heavy if i in HEAVY else cheap for i in PAPER_TABLE}
        return [_command(argv, {"kind": "verify", "expect": expect})]
    if workload == "verify-wide":
        ids = list(WIDE_IDS)
        rng.shuffle(ids)
        return [
            _command(["verify", i, "--n-max", str(cheap)],
                     {"kind": "verify", "expect": {i: cheap}})
            for i in ids
        ]
    if workload == "gen-bfile":
        ids = sorted(OFFSETS)
        rng.shuffle(ids)
        out = []
        for i in ids:
            offset, count = OFFSETS[i], heavy if i in HEAVY else cheap
            start = rng.randint(offset + count // 2, offset + count - WINDOW)
            bfile = f"b-{i}-{count}.txt"
            out += [
                _command(["gen", i, "--count", str(count), "--format", "bfile"],
                         {"kind": "bfile", "offset": offset, "rows": count}, to=bfile),
                _command(["check-bfile", i, "--file", bfile],
                         {"kind": "checked", "id": i, "rows": count}),
                _command(["gen", i, "--from", str(start), "--count", str(WINDOW)],
                         {"kind": "window", "bfile": bfile, "start": start}, keyed=False),
                _command(["check-bfile", i], {"kind": "checked", "id": i, "rows": None}),
            ]
        return out
    raise ValueError(f"unknown workload {workload!r}")


def _command(argv: list[str], check: dict, to: str | None = None,
             keyed: bool = True) -> dict:
    return {"argv": argv, "key": " ".join(argv) if keyed else None, "to": to,
            "check": check}


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def check_output(cmd: dict, rc: int, text: str, expected: dict[str, str],
                 read) -> tuple[list[str], int]:
    """Problems with one command's result, and how many terms it used.

    ``read(name)`` returns the text of a file the pass wrote earlier.  The
    used-term count is parsed from the output: the terms a user receives.
    """
    check, problems, used = cmd["check"], [], 0
    if rc != 0:
        problems.append(f"exit code {rc}")
    if cmd["key"] is not None and expected.get(cmd["key"]) != digest(text):
        problems.append("stdout digest differs from the one captured")
    lines = text.splitlines()
    kind = check["kind"]
    if kind == "verify":
        seen = {}
        for line in lines:
            match = _VERIFY_LINE.fullmatch(line)
            if match is None:
                problems.append(f"unparsed report line {line!r}")
                continue
            sid, status, claimed, fitted, lo, hi = match.groups()
            seen[sid] = int(hi)
            used += int(hi) - int(lo) + 1
            if PAPER_TABLE.get(sid) != (status, claimed, fitted):
                problems.append(f"{sid}: {status} [{claimed}] fitted [{fitted}] "
                                f"is not PAPER.md's {PAPER_TABLE.get(sid)}")
        if seen != check["expect"]:
            problems.append(f"report ranges {seen} != {check['expect']}")
    elif kind == "bfile":
        rows = _rows(lines)
        used = len(rows)
        indices = [index for index, _ in rows]
        want = list(range(check["offset"], check["offset"] + check["rows"]))
        if indices != want:
            problems.append("b-file rows are not the requested index range")
    elif kind == "checked":
        match = _CHECKED_LINE.fullmatch(lines[-1]) if len(lines) == 1 else None
        if match is None or match.group(1) != check["id"]:
            problems.append(f"unexpected check-bfile output {text[:200]!r}")
        else:
            used = int(match.group(2))
            if check["rows"] is not None and used != check["rows"]:
                problems.append(f"checked {used} rows, wrote {check['rows']}")
    elif kind == "window":
        table = dict(_rows(read(check["bfile"]).splitlines()))
        start = check["start"]
        used = len(lines)
        want = [str(table.get(n)) for n in range(start, start + WINDOW)]
        if lines != want:
            problems.append(f"window at {start} differs from the b-file just written")
    return problems, used


def _rows(lines: list[str]) -> list[tuple[int, int]]:
    return [(int(a), int(b)) for a, b in (line.split() for line in lines)]
