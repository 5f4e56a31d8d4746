#!/usr/bin/env python3
"""Benchmark of the bruhat-hypercubes command line.

    python3 perfbench/run.py --workload s6-zscan --seed 1 --seconds 55 --trace 0

Run from the root of a checkout.  Every workload drives the real CLI,
``python -m bruhat_hypercubes`` with ``src/`` on PYTHONPATH, in fresh
processes, without ``--cache`` and with BRUHAT_CACHE removed from the
environment.  Every output is checked against references recorded by
``record_refs.py``; a mismatch counts as a failed operation.

Workloads (README.md says why each exists):

* ``s6-zscan``: ``verify 6 --exhaustive-z --json --shard K/256``, one
  sweep after another for ``--seconds``, each on the next slice K of an
  order the seed draws;
* ``queries-cold``: a closed loop of one-at-a-time ``kl``, ``hcd``,
  ``hcd ... z`` and ``iso`` processes on S_6/S_7 pairs, in blocks of one
  query per stratum, for ``--seconds`` and at least 100 queries.

With ``--trace 0`` the last stdout line carries the end-to-end metrics; with
``--trace 1`` one traced and one untraced pass run and it carries the
per-layer metrics of the traced pass (see tracing.py).  Earlier stdout lines
repeat the metrics for people and record the run environment.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import math
import os
import random
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import tracing

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"  # stderr captures and span files; removed at exit
REFS = HERE / "refs"
# Children still running this long after the run started are killed and
# count as failures, so that a run ends within three minutes whatever the
# program does.
RUN_LIMIT_S = 165.0

# A sweep run measures up to this many set-ups (the sweeps' own, then
# launches killed at their first report).
SETUP_SAMPLES = 12

# Comparable pairs u <= v of S_n: the report count of an unsharded verify.
PAIRS = {3: 19, 4: 213, 5: 3781, 6: 98407}


@dataclass(frozen=True)
class Stratum:
    """One slot of a query block: a command on pairs of S_n of these lengths."""

    label: str
    command: str  # "kl", "hcd", "hcd-z" or "iso"
    n: int
    lengths: tuple[int, ...]


@dataclass(frozen=True)
class Scale:
    zscan_n: int
    zscan_shards: int
    strata: tuple[Stratum, ...]
    min_queries: int
    trace_blocks: int


def _strata(n_lo: int, n_hi: int, light: tuple, heavy: tuple) -> tuple[Stratum, ...]:
    slots = (
        ("kl-light", "kl", light),
        ("kl-heavy", "kl", heavy),
        ("hcd-light", "hcd", light),
        ("hcd-z-light", "hcd-z", light),
        ("iso-light", "iso", light),
    )
    return tuple(
        Stratum(f"{label}-s{n}", command, n, lengths)
        for label, command, lengths in slots
        for n in (n_lo, n_hi)
    )


SCALES = {
    # The heavy kl slots are a fifth of each block, so query_p90_ms falls
    # inside them and follows the polynomial layer.
    "full": Scale(6, 256, _strata(6, 7, (3, 4, 5, 6), (7,)), 100, 5),
    # For the benchmark's own tests: S_3/S_4, seconds instead of minutes.
    "tiny": Scale(4, 4, _strata(3, 4, (1, 2), (3,)), 10, 1),
}


# ---------------------------------------------------------------------------
# running the CLI


@dataclass
class Run:
    """One CLI process: its stdout lines with arrival times (seconds since
    launch), exit time, exit code, peak RSS and stderr."""

    lines: list[bytes] = field(default_factory=list)
    times: list[float] = field(default_factory=list)
    exit_s: float = 0.0
    returncode: int = -1
    peak_rss_mb: float = 0.0
    stderr: str = ""

    def objects(self) -> list:
        """Each stdout line parsed as JSON, or None where it is not JSON."""
        out = []
        for line in self.lines:
            try:
                out.append(json.loads(line))
            except ValueError:
                out.append(None)
        return out


def child_env() -> dict:
    env = dict(os.environ)
    env.pop("BRUHAT_CACHE", None)
    # Cache bytecode under src/, as an installed CLI does, whatever the
    # caller's environment says; otherwise every process recompiles src/.
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env["PYTHONPATH"] = str(SRC)
    # Reports reach the pipe as they are printed, so arrival times are the
    # times the CLI produced them.
    env["PYTHONUNBUFFERED"] = "1"
    return env


def cli_command(argv: list[str], spans: Path | None = None) -> list[str]:
    """The CLI, or the traced CLI writing its spans to ``spans``."""
    if spans is None:
        return [sys.executable, "-m", "bruhat_hypercubes", *argv]
    return [sys.executable, str(HERE / "trace_cli.py"), str(spans), *argv]


def run_process(cmd: list[str], deadline: float = math.inf, max_lines: int = 0) -> Run:
    """Run one child to completion; it is killed at ``deadline``
    (``time.monotonic`` seconds), or once it has printed ``max_lines`` lines
    if that is not 0."""
    run = Run()
    with tempfile.TemporaryFile(dir=WORK) as err:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=err, env=child_env(), cwd=ROOT)
        killer = None
        if deadline < math.inf:
            killer = threading.Timer(max(deadline - time.monotonic(), 0.0), proc.kill)
            killer.start()
        try:
            with proc.stdout:
                for line in proc.stdout:
                    run.times.append(time.perf_counter() - start)
                    run.lines.append(line)
                    if len(run.lines) == max_lines:
                        proc.kill()
                        break
        except BaseException:
            proc.kill()
            raise
        finally:
            if killer is not None:
                killer.cancel()
            _, status, usage = os.wait4(proc.pid, 0)
            run.exit_s = time.perf_counter() - start
            proc.returncode = run.returncode = os.waitstatus_to_exitcode(status)
            run.peak_rss_mb = usage.ru_maxrss / 1024.0
        err.seek(0)
        run.stderr = err.read().decode(errors="replace")
    return run


# ---------------------------------------------------------------------------
# the correctness gate


def canonical(line: bytes) -> bytes:
    """A report line as the reference records it: the summary's wall-clock
    ``seconds`` is left out, everything else is byte for byte."""
    line = line.rstrip(b"\n")
    if line.startswith(b'{"summary"'):
        try:
            obj = json.loads(line)
            obj["summary"].pop("seconds", None)
        except (ValueError, KeyError, TypeError, AttributeError):
            return line  # malformed: it will differ from the reference
        line = json.dumps(obj, sort_keys=True).encode()
    return line


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:16]


def stream_digests(lines: list[bytes]) -> list[str]:
    return [digest(canonical(line)) for line in lines]


def is_report(obj) -> bool:
    """An interval report, as opposed to an iso-class line or the summary."""
    return isinstance(obj, dict) and "u" in obj and "v" in obj


def sweep_problems(run: Run, expected_reports: int) -> list[str]:
    """What is wrong with a sweep, references aside: a non-zero exit, a
    counterexample, no interval report, or another number of reports than
    the slice holds."""
    problems = []
    if run.returncode != 0:
        problems.append(f"exit code {run.returncode}")
    objects = run.objects()
    reports = [obj for obj in objects if is_report(obj)]
    last = objects[-1] if objects else None
    summary = last.get("summary") if isinstance(last, dict) else None
    if not isinstance(summary, dict):
        problems.append("no summary line")
    else:
        if summary.get("counterexamples") != 0:
            problems.append(f"summary counts {summary.get('counterexamples')} counterexamples")
        if summary.get("intervals") != expected_reports:
            problems.append(f"summary counts {summary.get('intervals')} intervals, expected {expected_reports}")
    if not reports:
        problems.append("no interval reports")
    elif len(reports) != expected_reports:
        problems.append(f"{len(reports)} interval reports, expected {expected_reports}")
    if any(r.get("counterexamples") for r in reports):
        problems.append("a report carries a counterexample")
    return problems


def check_sweep(run: Run, expected_reports: int, ref: list[str] | None) -> tuple[int, int, list[str]]:
    """(attempted, failed, problems) for one sweep.

    One operation is one line of the reference stream.  A sweep with any of
    the ``sweep_problems``, or with no reference, fails as a whole;
    otherwise each line that differs from the reference fails."""
    problems = sweep_problems(run, expected_reports)
    if ref is None:
        problems.append("no reference recorded for this sweep")
        ref = []
    attempted = max(len(ref), expected_reports, 1)
    got = stream_digests(run.lines)
    mismatched = sum(1 for i, d in enumerate(ref) if i >= len(got) or got[i] != d)
    mismatched += max(0, len(got) - len(ref))
    failed = attempted if problems else min(mismatched, attempted)
    if mismatched:
        problems.append(f"{mismatched} lines differ from the reference")
    return attempted, failed, problems


def check_query(run: Run, ref_digest: str) -> list[str]:
    problems = []
    if run.returncode != 0:
        problems.append(f"exit code {run.returncode}: {run.stderr.strip()[:200]}")
    if digest(b"".join(run.lines)) != ref_digest:
        problems.append("output differs from the reference")
    return problems


# ---------------------------------------------------------------------------
# statistics


def median(xs) -> float:
    return statistics.median(xs) if xs else 0.0


def p90(xs) -> float:
    if len(xs) < 2:
        return median(xs)
    return statistics.quantiles(xs, n=10)[8]


def calibrate() -> float:
    """A fixed pure-Python loop: a diagnostic of host speed, never applied
    to any metric."""
    start = time.perf_counter()
    acc = 0
    for i in range(400_000):
        acc = (acc * 31 + i) % 1_000_003
    return time.perf_counter() - start


def environment() -> dict:
    head = ROOT / ".git" / "HEAD"
    revision = "unknown"
    try:
        text = head.read_text().strip()
        if text.startswith("ref: "):
            revision = (ROOT / ".git" / text[5:]).read_text().strip()
        else:
            revision = text
    except OSError:
        pass
    src_lines = 0
    for path in sorted(SRC.rglob("*.py")):
        with open(path, "rb") as fh:
            src_lines += sum(1 for _ in fh)
    return {
        "python": sys.version.split()[0],
        "git_revision": revision,
        "nproc": len(os.sched_getaffinity(0)),
        "src_lines": src_lines,
    }


# ---------------------------------------------------------------------------
# workloads


@dataclass
class Ledger:
    """One benchmark run: the operations attempted and failed so far, and
    the deadline its children are killed at."""

    deadline: float
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)

    def add(self, attempted: int, failed: int, problems: list[str]) -> None:
        self.attempted += attempted
        self.failed += failed
        self.problems += problems

    def run(self, cmd: list[str], max_lines: int = 0) -> Run:
        return run_process(cmd, self.deadline, max_lines)

    def spans(self, path: Path) -> list[tuple]:
        """The spans a traced process wrote to ``path``, which is removed.
        A missing or unreadable file is a failed operation, so that a layer
        the tracer lost never reads as zero."""
        try:
            spans = tracing.load_spans(path)
            path.unlink()
        except (OSError, ValueError, KeyError, TypeError) as exc:
            self.add(1, 1, [f"no spans from the traced process: {exc}"])
            return []
        self.add(1, 0, [])
        return spans


def zscan_sweep(scale: Scale, k: int) -> tuple[list[str], int]:
    """The z-scan sweep of slice K: its CLI arguments and interval count."""
    m = scale.zscan_shards
    argv = ["verify", str(scale.zscan_n), "--exhaustive-z", "--json", "--shard", f"{k}/{m}"]
    return argv, len(range(k - 1, PAIRS[scale.zscan_n], m))


def slice_order(seed: int, refs: dict) -> list[int]:
    """The recorded slices in an order drawn from the seed; a run sweeps
    them in turn, so each run averages over several slices."""
    order = list(refs["zscan_candidates"])
    random.Random(seed).shuffle(order)
    return order


def sweep_timings(run: Run) -> dict | None:
    """Set-up, wall time, report count, time after set-up and report gaps
    of a sweep that reported at least one interval and a summary."""
    marks = [t for t, obj in zip(run.times, run.objects()) if is_report(obj)]
    if not marks or len(run.lines) < 2:
        return None
    setup, total = marks[0], run.times[-1]
    return {
        "setup_s": setup,
        "sweep_s": total,
        "count": len(marks),
        "busy_s": total - setup,
        "gaps_ms": [1000.0 * (b - a) for a, b in zip(marks, marks[1:])],
        "peak_rss_mb": run.peak_rss_mb,
    }


def end_to_end(samples: list[dict], setups: list[float], latencies_ms: list[float]) -> dict:
    """Medians over the samples (sweeps or query blocks) and set-ups of a
    run, the rate over all samples together, and the latency percentiles
    over all of them."""

    def pick(key: str) -> float:
        return median([s[key] for s in samples])

    busy = sum(s["busy_s"] for s in samples)
    return {
        "setup_s": (median(setups), "s"),
        "sweep_s": (pick("sweep_s"), "s"),
        "intervals_per_s": (sum(s["count"] for s in samples) / busy if busy > 0 else 0.0, "1/s"),
        "peak_rss_mb": (pick("peak_rss_mb"), "MB"),
        "query_p50_ms": (median(latencies_ms), "ms"),
        "query_p90_ms": (p90(latencies_ms), "ms"),
    }


def run_sweeps(scale, seed, seconds, trace, refs, ledger):
    plans = [zscan_sweep(scale, k) for k in slice_order(seed, refs)]
    print(f"# sweeps: {' '.join(plans[0][0][:-1])} K/{scale.zscan_shards}, K in turn from {[a[-1] for a, _ in plans]}")

    def one(i, spans=None):
        argv, expected = plans[i % len(plans)]
        run = ledger.run(cli_command(argv, spans))
        ledger.add(*check_sweep(run, expected, refs["sweeps"].get(" ".join(argv))))
        return sweep_timings(run)

    if trace:
        spans = WORK / "spans-sweep.json"
        plain = one(0)
        traced = one(0, spans)
        overhead = traced["sweep_s"] / plain["sweep_s"] if plain and traced else 0.0
        return tracing.layer_metrics([ledger.spans(spans)], overhead)

    start = time.perf_counter()
    samples, gaps, longest = [], [], 0.0
    for sweeps in itertools.count(1):
        began = time.perf_counter()
        timing = one(sweeps - 1)
        if timing:
            samples.append(timing)
            gaps += timing["gaps_ms"]
        longest = max(longest, time.perf_counter() - began)
        # start another sweep only if even the longest so far would end
        # within the budget, so that a slow host does not stretch the run
        if time.perf_counter() - start + longest > seconds:
            break

    # spend what is left of the budget on more set-ups, on the next slices:
    # launch, wait for the first report, kill
    setups = [s["setup_s"] for s in samples]
    for i in itertools.count(sweeps):
        if not setups or len(setups) >= SETUP_SAMPLES or time.perf_counter() - start + max(setups) > seconds:
            break
        argv, _ = plans[i % len(plans)]
        ref = refs["sweeps"].get(" ".join(argv))
        run = ledger.run(cli_command(argv), max_lines=1)
        same = bool(run.lines and ref) and digest(canonical(run.lines[0])) == ref[0]
        ledger.add(1, 0 if same else 1, [] if same else ["set-up probe: first report differs from the reference"])
        if not same:
            break
        setups.append(run.times[0])
    print(f"# sweeps measured: {len(samples)}, set-ups: {len(setups)}")
    return end_to_end(samples, setups, gaps)


def make_block(rng: random.Random, scale: Scale, pool: dict) -> list[dict]:
    block = [rng.choice(pool[s.label]) for s in scale.strata]
    rng.shuffle(block)
    return block


IMPORT_PROBE = (
    "import time; t = time.perf_counter(); import bruhat_hypercubes.cli;"
    " print(time.perf_counter() - t)"
)


def run_block(block, ledger, spans: Path | None = None):
    """Run one block of queries, one process at a time, traced to ``spans``
    if given; returns the block's wall time, the query latencies (spawn to
    exit), peak RSS values and the spans of each traced query."""
    latencies, rss, layers = [], [], []
    start = time.perf_counter()
    for query in block:
        run = ledger.run(cli_command(query["argv"], spans))
        problems = check_query(run, query["digest"])
        ledger.add(1, 1 if problems else 0, [f"{' '.join(query['argv'])}: {p}" for p in problems])
        latencies.append(1000.0 * run.exit_s)
        rss.append(run.peak_rss_mb)
        if spans is not None:
            layers.append(ledger.spans(spans))
    return time.perf_counter() - start, latencies, rss, layers


def import_seconds(ledger) -> float | None:
    run = ledger.run([sys.executable, "-c", IMPORT_PROBE])
    try:
        value = float(run.lines[-1])
    except (IndexError, ValueError):
        ledger.add(1, 1, [f"import probe failed: {run.stderr.strip()[:200]}"])
        return None
    ledger.add(1, 0, [])
    return value


def run_queries(scale, seed, seconds, trace, refs, ledger):
    rng = random.Random(seed)
    pool = refs["queries"]

    if trace:
        plain_s = traced_s = 0.0
        layers = []
        for _ in range(scale.trace_blocks):
            block = make_block(rng, scale, pool)
            plain_s += run_block(block, ledger)[0]
            wall, _, _, spans = run_block(block, ledger, WORK / "spans-query.json")
            traced_s += wall
            layers += spans
        return tracing.layer_metrics(layers, traced_s / plain_s if plain_s else 0.0)

    start = time.perf_counter()
    samples, setups, latencies = [], [], []
    while True:
        began = time.perf_counter()
        setup = import_seconds(ledger)
        if setup is not None:
            setups.append(setup)
        wall, lat, rss, _ = run_block(make_block(rng, scale, pool), ledger)
        latencies += lat
        samples.append({"sweep_s": wall, "count": len(lat), "busy_s": wall, "peak_rss_mb": median(rss)})
        took = time.perf_counter() - began
        if len(latencies) >= scale.min_queries and time.perf_counter() - start + took > seconds:
            break
    print(f"# queries measured: {len(latencies)} in {len(samples)} blocks")
    return end_to_end(samples, setups, latencies)


WORKLOADS = ("s6-zscan", "queries-cold")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=55)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=sorted(SCALES), default="full")
    args = parser.parse_args(argv)

    if not (SRC / "bruhat_hypercubes" / "cli.py").is_file():
        print(f"error: no bruhat_hypercubes package under {SRC}", file=sys.stderr)
        return 2
    with open(REFS / f"{args.scale}.json", encoding="utf-8") as fh:
        refs = json.load(fh)
    scale = SCALES[args.scale]

    WORK.mkdir(exist_ok=True)
    env = environment()
    env["calibration_before_s"] = calibrate()
    ledger = Ledger(deadline=time.monotonic() + RUN_LIMIT_S)
    try:
        if args.workload == "queries-cold":
            metrics = run_queries(scale, args.seed, args.seconds, args.trace, refs, ledger)
        else:
            metrics = run_sweeps(scale, args.seed, args.seconds, args.trace, refs, ledger)
    finally:
        shutil.rmtree(WORK, ignore_errors=True)
    env["calibration_after_s"] = calibrate()

    print("# env " + json.dumps(env, sort_keys=True))
    for problem in ledger.problems[:20]:
        print(f"# FAILED: {problem}")
    for name, (value, unit) in metrics.items():
        print(f"# {name} = {value:.6g} {unit}")
    error_rate = ledger.failed / ledger.attempted
    print(f"# error_rate = {error_rate:.6g} ({ledger.failed} failed of {ledger.attempted} attempted)")
    result = {
        "correct": ledger.failed == 0,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
