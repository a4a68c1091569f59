"""shadowcodes benchmark: closed-loop passes of CLI jobs, one client.

Usage, from the root of the repository:

    python3 bench/run.py --workload build|scan|tables [--seed N]
                         [--seconds S] [--trace 0|1]
    python3 bench/run.py --record-golden

Each pass runs every job of the workload's roster once, in this
process, through ``shadowcodes.cli.main(argv)`` with ``--out`` pointing
to a scratch file and the default ``--workers 1``.  Passes repeat until
``--seconds`` have gone by and at least ``MIN_PASSES`` have run.  Every
job's exit code and output are checked.

Times are taken on two clocks: wall seconds, and reference seconds from
``hostclock.HostClock``, which factors out the host's drifting speed.
The bounded metrics are in reference seconds; the report also gives
wall seconds.

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` runs the
layer probes and alternates untraced and traced passes over the union
of all rosters, and reports the per-layer metrics.  The last stdout
line is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``; the line before it is the full report, provenance
included.  Scratch files and traces go to ``.bench_out/``.  See
bench/README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from collections import defaultdict
from dataclasses import asdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"
SETUP_SCRIPT = Path(__file__).resolve().parent / "setup_inputs.py"

TAIL_BEYOND = 10  # the tail is the highest percentile with ten passes beyond it
MIN_PASSES = TAIL_BEYOND + 1
MIN_TRACE_PAIRS = 2
SETUP_REPEATS = 7
COMMAND_METRICS = ("construct", "dmin", "verify", "figure")
END_TO_END = ("setup_s", "pass_s.p50", "pass_s.tail", "peak_rss_mb")
COUNTS = ("shadow.evals", "binary.codewords", "weil.points", "verify.checks")


def unit_of(name: str) -> str:
    if name == "peak_rss_mb":
        return "MB"
    if name.endswith(("_s", ".s")) or ".s." in name or name.startswith(("pass_s.", "pass_wall_s.")):
        return "s"
    if ".ns" in name:
        return "ns"
    if name.endswith(".us"):
        return "us"
    return "count" if name in COUNTS else "ratio"


class BenchError(Exception):
    """The benchmark itself cannot run (missing package, set-up failed)."""


# -- provenance ---------------------------------------------------------------


def git_revision() -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def numpy_imports() -> bool:
    proc = subprocess.run([sys.executable, "-c", "import numpy"], capture_output=True,
                          timeout=120, check=False)
    return proc.returncode == 0


def provenance() -> dict:
    nproc = len(os.sched_getaffinity(0))
    return {
        "python": platform.python_version(),
        "nproc": nproc,
        "git_revision": git_revision(),
        "numpy_imports": numpy_imports(),
        "workers": f"not measured: every job runs with --workers 1 on {nproc} CPUs",
        "loop": "closed, one client, no threads",
    }


# -- set-up -------------------------------------------------------------------


def timed_setup(roster, inputs_dir: Path, repeats: int, clock) -> tuple[list, list[dict]]:
    """Run the set-up in a fresh interpreter ``repeats`` times; return
    (wall, reference) seconds of each and the phase times it reported,
    scaled to reference seconds."""
    plan = json.dumps({"fields": list(roster.fields),
                       "inputs": [asdict(i) for i in roster.inputs]})
    times, phases = [], []
    for _ in range(repeats):
        with clock.measuring() as took:
            proc = subprocess.run([sys.executable, str(SETUP_SCRIPT), plan, str(inputs_dir)],
                                  capture_output=True, text=True, timeout=170, check=False)
        if proc.returncode != 0:
            raise BenchError(f"set-up failed: {proc.stderr.strip()}")
        wall, ref = took
        times.append((wall, ref))
        reported = json.loads(proc.stdout.splitlines()[-1])
        phases.append({k: v * ref / wall for k, v in reported.items()})
    return times, phases


# -- passes -------------------------------------------------------------------


class Outcomes:
    """Attempted, failed and incorrect jobs over a run.

    A job fails when it raises or ends with another exit code than the
    one expected; it is incorrect when it ends as expected but its
    output fails a check."""

    def __init__(self, checker, check_failed):
        self.checker = checker
        self.check_failed = check_failed
        self.attempted = 0
        self.failed = 0
        self.incorrect = 0
        self.problems: dict[str, dict] = {}

    def _note(self, job, what: str) -> None:
        entry = self.problems.setdefault(job.id, {"what": what, "times": 0})
        entry["times"] += 1

    def record(self, job, code, exc, text, stderr) -> None:
        self.attempted += 1
        if exc is not None:
            self.failed += 1
            self._note(job, f"failed: raised {type(exc).__name__}: {exc}")
        elif code != job.expect_exit:
            self.failed += 1
            self._note(job, f"failed: exit {code}, want {job.expect_exit}")
        else:
            try:
                self.checker.check(job, text, stderr)
            except self.check_failed as bad:
                self.incorrect += 1
                self._note(job, f"incorrect: {bad}")


def run_pass(jobs, cli_main, work: Path, outcomes: Outcomes, clock, tracer=None):
    """Run every job once; return {job id: (wall seconds, reference seconds)}."""
    times: dict[str, list[float]] = {}
    out = work / "out"
    inputs = work / "inputs"
    for job in jobs:
        argv = [a.format(out=out, inputs=inputs) for a in job.argv]
        out.unlink(missing_ok=True)
        err = io.StringIO()
        exc = None
        nothing = contextlib.nullcontext()
        traced = tracer.installed() if tracer else nothing
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err), traced:
            with clock.measuring() as times[job.id]:
                try:
                    with tracer.span(f"cli.main.{job.command}", job.id) if tracer else nothing:
                        code = cli_main(argv)
                except SystemExit as stop:  # argparse refusals
                    code = stop.code
                except Exception as raised:  # a raising job is a failed job; the run goes on
                    code, exc = None, raised
        text = out.read_text() if out.exists() else None
        outcomes.record(job, code, exc, text, err.getvalue())
    return times


def tail(values: list[float]) -> tuple[float, int]:
    """Value at the highest rank with TAIL_BEYOND values beyond it, and
    that rank (1-based, ascending)."""
    ordered = sorted(values)
    rank = len(ordered) - TAIL_BEYOND
    if rank < 1:
        raise BenchError(f"{len(ordered)} passes leave no rank with {TAIL_BEYOND} beyond it")
    return ordered[rank - 1], rank


# -- per-layer metrics from spans ---------------------------------------------

PER_PASS_SECONDS = (
    "poly.all_monic_irreducibles", "shadow.construct", "shadow.to_descriptor",
    "shadow.from_descriptor", "binary.gf2_rank", "binary.exact_min_distance",
    "binary.sampled_min_distance_upper", "concat.concat_generator", "bounds.fig3_rows",
    "verify.weil", "verify.theorem4", "verify.theorem6", "verify.theorem7",
    "verify.section6",
)
CLI_COMMANDS = ("construct", "dmin", "verify", "figure", "bounds")


def layer_metrics(spans, pass_ranges) -> dict[str, float]:
    """Per-layer metrics over the traced passes: seconds per pass as a
    median over passes, counts per pass likewise, and rates over all."""
    per_pass = []
    total_s: dict[str, float] = defaultdict(float)
    total_n: dict[str, int] = defaultdict(int)
    for lo, hi in pass_ranges:
        secs: dict[str, float] = defaultdict(float)
        counts: dict[str, int] = defaultdict(int)
        for name, start, end, _parent, _job, extra in spans[lo:hi]:
            secs[name] += end - start
            total_s[name] += end - start
            total_n[name + "#calls"] += 1
            for key, value in (extra or {}).items():
                counts[f"{name}#{key}"] += value
                total_n[f"{name}#{key}"] += value
        counts["verify#checks"] = sum(v for k, v in counts.items() if k.endswith("#checks"))
        per_pass.append((secs, counts))

    def med(pick):
        return statistics.median(pick(s, c) for s, c in per_pass)

    out = {f"{n}.s": med(lambda s, c, n=n: s[n]) for n in PER_PASS_SECONDS}
    out.update({f"cli.main.s.{cmd}": med(lambda s, c, cmd=cmd: s[f"cli.main.{cmd}"])
                for cmd in CLI_COMMANDS})

    def rate(name, count_key, scale):
        return total_s[name] / total_n[f"{name}#{count_key}"] * scale

    out.update({
        "poly.irreducible_yield": total_n["poly.is_irreducible#accepted"]
        / total_n["poly.is_irreducible#tested"],
        "shadow.lambda_map.ns_per_eval": rate("shadow.lambda_map", "evals", 1e9),
        "shadow.evals": med(lambda s, c: c["shadow.lambda_map#evals"]),
        "binary.codewords": med(lambda s, c: c["binary.exact_min_distance#codewords"]),
        "binary.ns_per_codeword": rate("binary.exact_min_distance", "codewords", 1e9),
        "binary.weight_distribution.ns_per_codeword":
            rate("binary.weight_distribution", "codewords", 1e9),
        "weil.count_zeros.us": rate("weil.count_zeros", "calls", 1e6),
        "weil.points": med(lambda s, c: c["weil.count_zeros#points"]),
        "verify.checks": med(lambda s, c: c["verify#checks"]),
    })
    return out


def self_time_table(spans, self_times, passes: int) -> dict[str, float]:
    """Self seconds per traced pass, by span name, largest first."""
    acc: dict[str, float] = defaultdict(float)
    for span, own in zip(spans, self_times):
        acc[span[0]] += own
    return dict(sorted(((k, v / passes) for k, v in acc.items()), key=lambda kv: -kv[1]))


# -- the two kinds of run -----------------------------------------------------


def run_end_to_end(args, mods, work: Path) -> tuple[dict, dict]:
    rosters, checks, cli_main = mods["roster"], mods["checks"], mods["cli_main"]
    r = rosters.roster(args.workload, args.seed)
    clock = mods["hostclock"].HostClock()
    setups, phases = timed_setup(r, work / "inputs", SETUP_REPEATS, clock)
    for q in r.fields:
        mods["field_of_order"](q)
    golden = checks.load_golden() if args.seed == rosters.DEFAULT_SEED else None
    outcomes = Outcomes(checks.OutputChecker(work / "inputs", golden), checks.CheckFailed)
    passes = []
    start = time.perf_counter()
    while len(passes) < MIN_PASSES or time.perf_counter() - start < args.seconds:
        passes.append(run_pass(r.jobs, cli_main, work, outcomes, clock))

    def per_pass(i: int, command: str | None = None) -> list[float]:
        return [sum(t[job.id][i] for job in r.jobs if command in (None, job.command))
                for t in passes]

    pass_wall, pass_ref = per_pass(0), per_pass(1)
    ref_tail, rank = tail(pass_ref)
    metrics = dict(zip(END_TO_END, (
        statistics.median(ref for _, ref in setups),
        statistics.median(pass_ref),
        ref_tail,
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    )))
    other = {"setup_wall_s": statistics.median(wall for wall, _ in setups),
             "pass_wall_s.p50": statistics.median(pass_wall),
             "pass_wall_s.tail": tail(pass_wall)[0]}
    for cmd in COMMAND_METRICS:
        if any(job.command == cmd for job in r.jobs):
            other[f"{cmd}_s"] = statistics.median(per_pass(1, cmd))
            other[f"{cmd}_wall_s"] = statistics.median(per_pass(0, cmd))
    other["failed_frac"] = outcomes.failed / outcomes.attempted
    report = {
        "other_metrics": {k: {"value": v, "unit": unit_of(k)} for k, v in other.items()},
        "tail": {"rank": rank, "samples": len(passes), "percentile": 100 * rank / len(passes)},
        "setup_wall_ref_s": setups,
        "setup_phases_s": {k: statistics.median(p[k] for p in phases) for k in phases[0]},
        "job_wall_s": {job.id: [t[job.id][0] for t in passes] for job in r.jobs},
        "job_s": {job.id: [t[job.id][1] for t in passes] for job in r.jobs},
    }
    return metrics, {"outcomes": outcomes, **report}


def run_traced(args, mods, work: Path) -> tuple[dict, dict]:
    rosters, checks, spans_mod = mods["roster"], mods["checks"], mods["spans"]
    r = rosters.union(args.seed)
    clock = mods["hostclock"].HostClock()
    metrics = mods["probes"].run_probes(args.seed, clock)
    _, phases = timed_setup(r, work / "inputs", SETUP_REPEATS, clock)
    metrics["field.field_of_order.s"] = statistics.median(p["fields_s"] for p in phases)
    for q in r.fields:
        mods["field_of_order"](q)
    golden = checks.load_golden() if args.seed == rosters.DEFAULT_SEED else None
    outcomes = Outcomes(checks.OutputChecker(work / "inputs", golden), checks.CheckFailed)
    tracer = spans_mod.Tracer(clock.now)
    plain, traced, ranges = [], [], []
    start = time.perf_counter()
    pairs = 0
    while pairs < MIN_TRACE_PAIRS or time.perf_counter() - start < args.seconds:
        # alternate which side of the pair runs first
        for with_trace in ((False, True) if pairs % 2 == 0 else (True, False)):
            if with_trace:
                lo = len(tracer.spans)
                times = run_pass(r.jobs, mods["cli_main"], work, outcomes, clock, tracer)
                ranges.append((lo, len(tracer.spans)))
                traced.append(sum(ref for _, ref in times.values()))
            else:
                times = run_pass(r.jobs, mods["cli_main"], work, outcomes, clock)
                plain.append(sum(ref for _, ref in times.values()))
        pairs += 1
    metrics.update(layer_metrics(tracer.spans, ranges))
    metrics["trace.overhead_frac"] = statistics.median(traced) / statistics.median(plain) - 1
    own = spans_mod.self_times(tracer.spans)
    report = {
        "pairs": pairs,
        "traced_pass_s": traced,
        "untraced_pass_s": plain,
        "spans": len(tracer.spans),
        "self_s_per_pass": self_time_table(tracer.spans, own, len(ranges)),
        "trace_file": str(write_trace(args, tracer.spans, own)),
    }
    return metrics, {"outcomes": outcomes, **report}


def write_trace(args, spans, own) -> Path:
    """Write every span, with its self time, once the run is over."""
    path = OUT_DIR / f"trace-{args.workload}-seed{args.seed}.json"
    fields = ["name", "start", "end", "parent", "job", "counts", "self"]
    rows = [list(s) + [o] for s, o in zip(spans, own)]
    path.write_text(json.dumps({"fields": fields, "spans": rows}) + "\n")
    return path.relative_to(ROOT)


def record_golden(mods, work: Path) -> int:
    """Record golden values for the default seed from one pass of each
    workload; jobs that fail or produce wrong output are not recorded."""
    rosters, checks = mods["roster"], mods["checks"]
    golden, bad = {}, {}
    for w in rosters.WORKLOADS:
        r = rosters.roster(w, rosters.DEFAULT_SEED)
        clock = mods["hostclock"].HostClock()
        timed_setup(r, work / "inputs", 1, clock)
        outcomes = Outcomes(checks.OutputChecker(work / "inputs", None), checks.CheckFailed)
        run_pass(r.jobs, mods["cli_main"], work, outcomes, clock)
        checker = outcomes.checker
        for job in r.jobs:
            if job.id in checker.digests and job.check != "verify":
                golden[job.id] = {"sha256": checker.digests[job.id], **checker.values[job.id]}
        bad.update(outcomes.problems)
    checks.GOLDEN_PATH.write_text(json.dumps(golden, indent=2, sort_keys=True) + "\n")
    for job_id, entry in bad.items():
        print(f"not recorded: {job_id}: {entry['what']}", file=sys.stderr)
    print(f"recorded {len(golden)} golden values in {checks.GOLDEN_PATH.relative_to(ROOT)}")
    return 0


# -- entry point --------------------------------------------------------------


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=["build", "scan", "tables"])
    p.add_argument("--seed", type=int, default=1729)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--record-golden", action="store_true",
                   help="record golden outputs for the default seed and exit")
    args = p.parse_args(argv)
    if args.workload is None and not args.record_golden:
        p.error("--workload is required")
    return args


def load_modules() -> dict:
    """Import the package from src/ and the benchmark's own modules."""
    if not (SRC / "shadowcodes" / "__init__.py").is_file():
        raise BenchError("no shadowcodes package under src/: run from a full checkout")
    sys.path[:0] = [str(SRC), str(ROOT)]
    from shadowcodes.cli import main as cli_main
    from shadowcodes.field import field_of_order

    from bench import checks, hostclock, probes, roster, spans

    return {"cli_main": cli_main, "field_of_order": field_of_order, "checks": checks,
            "hostclock": hostclock, "probes": probes, "roster": roster, "spans": spans}


def print_report(args, metrics: dict, report: dict) -> None:
    outcomes = report.pop("outcomes")
    print(f"workload={args.workload} seed={args.seed} trace={args.trace}"
          f" attempted={outcomes.attempted} failed={outcomes.failed}"
          f" incorrect={outcomes.incorrect}")
    other = report.get("other_metrics", {})
    shown = {**metrics, **{k: v["value"] for k, v in other.items()}}
    for name, value in shown.items():
        print(f"  {name:<44} {value:>16.6f} {unit_of(name)}")
    if "tail" in report:
        t = report["tail"]
        print(f"  the tails are rank {t['rank']} of {t['samples']} passes"
              f" (percentile {t['percentile']:.1f})")
    for job_id, entry in outcomes.problems.items():
        print(f"  {job_id}: {entry['what']} (x{entry['times']})")
    report.update(workload=args.workload, seed=args.seed, trace=args.trace,
                  provenance=provenance(), problems=outcomes.problems,
                  failed_frac=outcomes.failed / outcomes.attempted)
    print(json.dumps({"report": report}, default=str))
    print(json.dumps({
        "correct": outcomes.incorrect == 0,
        "attempted": outcomes.attempted,
        "failed": outcomes.failed,
        "metrics": {k: {"value": v, "unit": unit_of(k)} for k, v in metrics.items()},
    }))


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        mods = load_modules()
        OUT_DIR.mkdir(exist_ok=True)
        work = Path(tempfile.mkdtemp(prefix="work-", dir=OUT_DIR))
        try:
            if args.record_golden:
                return record_golden(mods, work)
            run = run_traced if args.trace else run_end_to_end
            metrics, report = run(args, mods, work)
        finally:
            shutil.rmtree(work, ignore_errors=True)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print_report(args, metrics, report)
    return 0


if __name__ == "__main__":
    sys.exit(main())
