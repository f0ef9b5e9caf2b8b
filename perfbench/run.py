"""seqparity benchmark: time the CLI commands users wait on, and check their output.

Run from the root of a checkout:

    python3 perfbench/run.py --workload verify-default --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seconds 25   # every workload, one table
    python3 perfbench/run.py --self-test                   # smoke passes and a planted failure

Each pass is a fresh interpreter (``worker.py``) that runs the workload's
commands in order and checks every output.  ``--trace 0`` reports the
end-to-end metrics of BENCHMARK.json, ``--trace 1`` the per-layer ones from
traced passes alternated with untraced ones.  Human-readable lines come
first; the last line is one JSON object.  Results and spans are written
under ``.bench_build/perfbench/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import workloads
from worker import speed_adjusted

HERE = Path(__file__).resolve().parent
SETUP_SAMPLES = 9
MIN_PASSES = 3
DEADLINE_S = 170  # the whole run must end within 180 s
SMOKE_LIMIT_S = 10.0


class Bench:
    """The checkout under test: where its source is and where runs write."""

    def __init__(self, root: Path) -> None:
        self.root = root
        self.out = root / ".bench_build" / "perfbench"
        self.out.mkdir(parents=True, exist_ok=True)
        # Byte code is written under .bench_build, for the standard library
        # too, so every pass imports compiled modules as an installed CLI does.
        self.env = {
            **{k: v for k, v in os.environ.items() if k != "PYTHONDONTWRITEBYTECODE"},
            "PYTHONPATH": str(root / "src"),
            "PYTHONPYCACHEPREFIX": str(root / ".bench_build" / "pycache"),
            "PYTHONHASHSEED": "0",
        }
        self.expected = json.loads((HERE / "expected_digests.json").read_text())
        self.per_layer = json.loads((root / "BENCHMARK.json").read_text())["per_layer"]
        self.restart_clock()

    def restart_clock(self) -> None:
        self.deadline = time.monotonic() + DEADLINE_S

    def _python(self, script: str, stdin: str = "") -> subprocess.CompletedProcess:
        timeout = max(1.0, self.deadline - time.monotonic())
        return subprocess.run([sys.executable, str(HERE / script)], input=stdin,
                              capture_output=True, text=True, env=self.env,
                              cwd=self.root, timeout=timeout)

    def setup_sample(self) -> tuple[float, float]:
        """Set-up seconds of a fresh interpreter: as measured, and speed-adjusted."""
        proc = self._python("setup_probe.py")
        if proc.returncode != 0:
            raise RuntimeError(f"importing seqparity failed:\n{proc.stderr}")
        elapsed, calibration = map(float, proc.stdout.split())
        return elapsed, speed_adjusted(elapsed, [calibration])

    def run_pass(self, cmds: list[dict], trace: bool, spans_out: Path,
                 expected: dict | None = None) -> dict:
        work = Path(tempfile.mkdtemp(dir=self.out, prefix="work-"))
        spec = {"commands": cmds, "trace": trace, "workdir": str(work),
                "spans_out": str(spans_out),
                "expected": self.expected if expected is None else expected}
        try:
            proc = self._python("worker.py", json.dumps(spec))
        except subprocess.TimeoutExpired:
            return _broken(cmds, "pass did not end before the run's deadline")
        finally:
            shutil.rmtree(work, ignore_errors=True)
        try:
            return json.loads(proc.stdout.splitlines()[-1])
        except (IndexError, json.JSONDecodeError):
            return _broken(cmds, f"pass exited {proc.returncode}: {proc.stderr[-2000:]}")


def _broken(cmds: list[dict], why: str) -> dict:
    """A pass that reported nothing: every command counts as failed."""
    return {"run_s": None, "adjusted_run_s": None, "peak_rss_mb": None, "attempted": len(cmds),
            "failed": len(cmds), "failures": [{"argv": [], "problems": [why]}]}


def measure(bench: Bench, workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """One benchmark run of a workload: passes for ``seconds``, each after a
    set-up sample, so that both sample the same stretch of machine load.

    Each untraced pass draws its own inputs from the seed and its index, so
    that a run's median covers several window offsets and command orders.
    A traced run gives every pass the seed's inputs, so that its exact counts
    must agree from pass to pass.
    """
    bench.restart_clock()
    bench.setup_sample()  # compiles the byte code once; users have it installed
    setup: list[tuple[float, float]] = []
    passes: list[tuple[bool, dict]] = []
    started, slowest = time.monotonic(), 0.0
    while len(passes) < MIN_PASSES or time.monotonic() - started < seconds:
        now = time.monotonic()
        if passes and now + 2 * slowest > bench.deadline:
            break  # another pass could overrun the deadline
        traced = trace and len(passes) % 2 == 1
        if not trace:
            setup.append(bench.setup_sample())
        cmds = workloads.commands(workload, seed if trace else f"{seed}/{len(passes)}")
        spans = bench.out / f"spans-{workload}-seed{seed}-pass{len(passes)}.json"
        passes.append((traced, bench.run_pass(cmds, traced, spans)))
        slowest = max(slowest, time.monotonic() - now)
    while not trace and len(setup) < SETUP_SAMPLES:
        setup.append(bench.setup_sample())
    plain = [p for t, p in passes if not t]
    failures = [f for _, p in passes for f in p["failures"]]
    result = {
        "workload": workload, "seed": seed, "trace": trace,
        "attempted": sum(p["attempted"] for _, p in passes),
        "failed": sum(p["failed"] for _, p in passes),
        "failures": failures[:20],
        "passes": [{"traced": t, **{k: v for k, v in p.items() if k != "failures"}}
                   for t, p in passes],
    }
    if trace:
        result["metrics"], result["consistency"] = _layer_metrics(passes, bench.per_layer)
    else:
        result["metrics"] = {
            "setup_s": (_median(a for _, a in setup), "s",
                        f"median of {len(setup)} fresh interpreters, at reference machine speed"),
            "run_s": (_median(p["adjusted_run_s"] for p in plain), "s",
                      f"median of {len(plain)} passes, at reference machine speed"),
            "peak_rss_mb": (_median(p["peak_rss_mb"] for p in plain), "MB",
                            f"median of {len(plain)} passes"),
        }
        result["consistency"] = []
        result["wall"] = {"setup_s": _median(e for e, _ in setup),
                          "run_s": _median(p["run_s"] for p in plain)}
    return result


def _layer_metrics(passes: list[tuple[bool, dict]],
                   spec: list[dict]) -> tuple[dict, list[str]]:
    """BENCHMARK.json's per-layer metrics: times are medians over traced
    passes, counts must repeat exactly from pass to pass."""
    traced = [p for t, p in passes if t and "layers" in p]
    plain = [p for t, p in passes if not t]
    if not traced:
        return {}, ["no traced pass completed"]
    n = f"median of {len(traced)} traced passes"
    traced_run = _median(p["run_s"] for p in traced)
    plain_run = _median(p["run_s"] for p in plain)
    used = traced[0]["layers"].get("catalogue.terms_used", 0)
    computed = traced[0]["layers"].get("catalogue.terms_computed", 0)
    derived = {
        "catalogue.useful_ratio": (used / computed if computed else 0.0,
                                   "terms used / terms computed"),
        "trace.run_s": (traced_run, n),
        "trace.untraced_run_s": (plain_run, f"median of {len(plain)} untraced passes"),
        "trace.overhead_s": (
            _median(p["adjusted_run_s"] for p in traced)
            - _median(p["adjusted_run_s"] for p in plain),
            "traced run_s - untraced run_s, both at reference machine speed"),
        "trace.unattributed_s": (
            _median(p["run_s"] - p["layers"]["trace.self_sum_s"] for p in traced),
            "traced run_s - sum of span self times"),
    }
    metrics, problems = {}, []
    for entry in spec:
        name, unit = entry["name"], entry["unit"]
        if name in derived:
            value, note = derived[name]
        elif unit == "s":
            value, note = _median(p["layers"].get(name, 0.0) for p in traced), n
        else:
            values = {p["layers"].get(name, 0) for p in traced}
            if len(values) > 1:
                problems.append(f"{name} differs between passes: {sorted(values)}")
            value, note = int(min(values)), "exact count per pass"
        metrics[name] = (value, unit, note)
    return metrics, problems


def _median(values) -> float:
    """Median of the values a pass reported; 0.0 when every pass broke."""
    values = [v for v in values if v is not None]
    return statistics.median(values) if values else 0.0


def stamp(root: Path) -> dict:
    """Machine, processor count, Python version and the code measured."""
    digest = hashlib.sha256()
    for path in sorted((root / "src").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(str(path.relative_to(root)).encode() + b"\0" + path.read_bytes())
    return {
        "machine": f"{platform.node()} {platform.machine()} {platform.platform()}",
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "commit": _git_commit(root),
        "src_sha256": digest.hexdigest(),
    }


def _git_commit(root: Path) -> str | None:
    git = root / ".git"
    if not (git / "HEAD").is_file():
        return None  # an exported checkout: src_sha256 identifies the code
    head = (git / "HEAD").read_text().strip()
    if not head.startswith("ref: "):
        return head
    ref = head[5:]
    if (git / ref).is_file():
        return (git / ref).read_text().strip()
    packed = git / "packed-refs"
    for line in packed.read_text().splitlines() if packed.is_file() else []:
        if line.endswith(" " + ref):
            return line.split()[0]
    return None


def _print_block(result: dict) -> None:
    passes = len(result["passes"])
    print(f"{result['workload']}  seed={result['seed']}  trace={int(result['trace'])}  "
          f"passes={passes}")
    for name, (value, unit, note) in result["metrics"].items():
        print(f"  {name:28s} {value:14.6f} {unit:6s} {note}")
    for name, value in result.get("wall", {}).items():
        print(f"  {'wall ' + name:28s} {value:14.6f} {'s':6s} "
              "median as measured, not speed-adjusted")
    attempted, failed = result["attempted"], result["failed"]
    print(f"  {'fail_ratio':28s} {failed / attempted:14.6f} {'ratio':6s} "
          f"{failed} of {attempted} commands")
    for failure in result["failures"]:
        print(f"  FAILED {' '.join(failure['argv'])}: {failure['problems']}")
    for problem in result["consistency"]:
        print(f"  INCONSISTENT {problem}")


def self_test(bench: Bench) -> int:
    """Smoke passes of every workload, then planted wrong expectations."""
    ok = True

    def report(label: str, passed: bool, detail: str) -> None:
        nonlocal ok
        ok &= passed
        print(f"{'PASS' if passed else 'FAIL'}  {label}: {detail}")

    spans = bench.out / "spans-self-test.json"
    bench.setup_sample()
    for workload in workloads.WORKLOADS:
        cmds = workloads.commands(workload, 0, smoke=True)
        for traced in (False, True):
            started = time.monotonic()
            p = bench.run_pass(cmds, traced, spans)
            wall = time.monotonic() - started
            report(f"{workload} smoke pass, traced={traced}",
                   p["failed"] == 0 and wall < SMOKE_LIMIT_S,
                   f"{p['failed']} of {p['attempted']} failed, {wall:.2f} s wall"
                   + "".join(f"\n  {f}" for f in p["failures"][:1]))
        keyed = next(c for c in cmds if c["key"] is not None)
        wrong = {**bench.expected, keyed["key"]: workloads.digest("wrong\n")}
        p = bench.run_pass(cmds, False, spans, expected=wrong)
        report(f"{workload} wrong digest for {keyed['key']!r}", p["failed"] == 1,
               f"fail_ratio {p['failed']}/{p['attempted']}")
    cmds = workloads.commands("gen-bfile", 0, smoke=True)
    window = next(c for c in cmds if c["check"]["kind"] == "window")
    window["check"]["start"] += 1
    p = bench.run_pass(cmds, False, spans)
    report("gen-bfile window checked against the wrong rows", p["failed"] == 1,
           f"fail_ratio {p['failed']}/{p['attempted']}")
    return 0 if ok else 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args(argv)
    if args.workload is None and not args.self_test:
        parser.error("give --workload or --self-test")

    root = Path.cwd()
    if not (root / "src" / "seqparity" / "__init__.py").is_file():
        print("error: run from the root of a seqparity checkout "
              "(src/seqparity is missing)", file=sys.stderr)
        return 2
    bench = Bench(root)
    if args.self_test:
        return self_test(bench)

    info = stamp(root)
    print("stamp " + json.dumps(info, sort_keys=True))
    names = workloads.WORKLOADS if args.workload == "all" else [args.workload]
    results = []
    for workload in names:
        result = measure(bench, workload, args.seed, args.seconds, bool(args.trace))
        result["stamp"] = info
        (bench.out / f"result-{workload}-seed{args.seed}-trace{args.trace}.json").write_text(
            json.dumps(result, indent=1))
        _print_block(result)
        results.append(result)

    prefix = len(results) > 1
    print(json.dumps({
        "correct": all(r["failed"] == 0 and not r["consistency"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": {
            (f"{r['workload']}.{name}" if prefix else name): {"value": value, "unit": unit}
            for r in results for name, (value, unit, _) in r["metrics"].items()
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
