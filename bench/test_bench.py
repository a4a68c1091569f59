"""Tests of the benchmark itself: deterministic rosters, output checks
that reject corrupted outputs, and well-formed metric names.

Run with the package on the path: PYTHONPATH=src python -m pytest bench
"""

import copy
import json
import re
import signal
from pathlib import Path

import pytest

from bench import checks, hostclock, run, spans
from bench.roster import BUILD_FIELDS, WORKLOADS, Job, roster, union
from shadowcodes.cli import main as cli_main

ROOT = Path(__file__).resolve().parent.parent
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


@pytest.mark.parametrize("workload", WORKLOADS)
def test_roster_is_deterministic_per_seed(workload):
    for seed in (0, 1, 1729, 2**40):
        assert roster(workload, seed) == roster(workload, seed)
    assert union(5) == union(5)
    # the seed drives random choices, so some seed changes the roster
    assert len({roster(workload, s).jobs for s in range(8)}) > 1


def test_union_holds_every_job_once():
    ids = [j.id for j in union(3).jobs]
    assert len(ids) == len(set(ids))
    assert set(ids) == {j.id for w in WORKLOADS for j in roster(w, 3).jobs}


def _emitted_layer_names() -> set[str]:
    """Names layer_metrics gives for one pass that enters every span."""
    names = [spans.span_name(m, f) for m, f, _ in spans.TARGETS]
    names += [f"cli.main.{c}" for c in run.CLI_COMMANDS]
    counts = {"evals": 1, "codewords": 1, "tested": 1, "accepted": 1, "points": 1,
              "checks": 1}
    fake = [(n, 0.0, 1.0, -1, "job", counts) for n in names]
    layer = set(run.layer_metrics(fake, [(0, len(fake))]))
    probe = {f"field.{op}.ns.q{q}" for q in BUILD_FIELDS
             for op in ("add", "mul", "lg_parity")}
    probe |= {"poly.is_irreducible.us", "bounds.gv_min_distance.us", "bounds.k0.us"}
    return layer | probe | {"field.field_of_order.s", "trace.overhead_frac"}


def test_metric_names_are_well_formed_and_match_the_spec():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    end_to_end = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    report_only = {"setup_wall_s", "pass_wall_s.p50", "pass_wall_s.tail", "failed_frac"}
    report_only |= {f"{c}_{u}" for c in run.COMMAND_METRICS for u in ("s", "wall_s")}
    for name in set(end_to_end) | set(per_layer) | report_only | _emitted_layer_names():
        assert NAME.fullmatch(name), name
    assert list(end_to_end) == list(run.END_TO_END)
    assert set(per_layer) == _emitted_layer_names()
    for name, unit in {**end_to_end, **per_layer}.items():
        assert unit == run.unit_of(name), name
    assert {w["name"] for w in spec["workloads"]} == set(WORKLOADS)


# -- each output check rejects a corrupted output -----------------------------


@pytest.fixture
def made(tmp_path):
    """Run a small CLI job; return (job, output text, stderr)."""

    def make(job_id, argv, check, want=None, expect_exit=0):
        out = tmp_path / "out"
        out.unlink(missing_ok=True)
        job = Job(job_id, tuple(argv) + ("--out", str(out)), check, expect_exit, want or {})
        assert cli_main(list(job.argv)) == expect_exit
        return job, (out.read_text() if out.exists() else None)

    return make


@pytest.fixture
def small_code(tmp_path):
    desc = tmp_path / "small.json"
    assert cli_main(["construct", "deg1", "--n", "113", "--k", "9", "--out", str(desc)]) == 0
    return desc


def _rejects(job, text, stderr="", inputs_dir=Path(".")):
    with pytest.raises(checks.CheckFailed):
        checks.CHECKS[job.check](job, text, stderr, inputs_dir)


def _edit_json(text, **changes):
    obj = json.loads(text)
    obj.update(changes)
    return json.dumps(obj)


def test_descriptor_check(made):
    job, text = made("d", ["construct", "deg1", "--n", "113", "--k", "9"], "descriptor",
                     {"n": 113, "k": 9})
    checks.check_descriptor(job, text, "", None)
    desc = json.loads(text)
    flipped = copy.deepcopy(desc)
    flipped["G"][0] = format(int(desc["G"][0], 16) ^ 1, f"0{len(desc['G'][0])}x")
    _rejects(job, json.dumps(flipped))
    _rejects(job, _edit_json(text, k=8))
    _rejects(job, _edit_json(text, rank=8))
    _rejects(job, text[:-10])


def test_error_check(made):
    job, text = made("e", ["construct", "deg1", "--n", "99", "--k", "10"], "error",
                     expect_exit=2)
    checks.check_error(job, text, "error: q is not a prime power", None)
    _rejects(job, text, "Traceback (most recent call last):")
    _rejects(job, "{}", "error: written anyway")


def test_dmin_and_sample_checks(made, small_code):
    want = {"n": 113, "k": 9, "descriptor": small_code.name}
    job, text = made("m", ["dmin", str(small_code)], "dmin", want)
    checks.check_dmin(job, text, "", small_code.parent)
    rep = json.loads(text)
    _rejects(job, _edit_json(text, dmin=rep["floor"] - 1), inputs_dir=small_code.parent)
    _rejects(job, _edit_json(text, floor_met=False), inputs_dir=small_code.parent)
    _rejects(job, _edit_json(text, floor=rep["floor"] + 1), inputs_dir=small_code.parent)
    _rejects(job, _edit_json(text, k=10), inputs_dir=small_code.parent)

    job, text = made("s", ["dmin", str(small_code), "--sample", "500"], "sample", want)
    checks.check_sample(job, text, "", small_code.parent)
    _rejects(job, _edit_json(text, dmin_upper=114), inputs_dir=small_code.parent)
    _rejects(job, _edit_json(text, dmin_upper=rep["floor"] - 1), inputs_dir=small_code.parent)


def test_verify_check(made):
    job, text = made("v", ["verify", "section6"], "verify", {"suite": "section6"})
    checks.check_verify(job, text, "", None)
    _rejects(job, _edit_json(text, ok=False))
    _rejects(job, _edit_json(text, suite="weil"))


def _drop_line(text, match):
    lines = text.splitlines(True)
    idx = next(i for i, line in enumerate(lines) if match in line)
    return "".join(lines[:idx] + lines[idx + 1:])


def test_figure_checks(made):
    job, text = made("f3", ["figure", "fig3", "--n", "64"], "figure", {"figure": "fig3", "n": 64})
    checks.check_figure(job, text, "", None)
    _rejects(job, _drop_line(text, "gv,64,7,"))
    _rejects(job, text.replace("rsrm,64,", "rsrm,65,", 1))
    _rejects(job, "\n".join(line for line in text.splitlines() if "scheme" not in line))

    job, text = made("f1", ["figure", "fig1"], "figure", {"figure": "fig1"})
    checks.check_figure(job, text, "", None)
    row = text.splitlines()[-1].split(",")
    _rejects(job, text.replace(",".join(row), ",".join([row[0], "1.0", row[2]])))

    job, text = made("f4", ["figure", "fig4"], "figure", {"figure": "fig4"})
    checks.check_figure(job, text, "", None)
    _rejects(job, text.replace("rsrm", "kerdock"))


def test_bounds_checks(made):
    job, text = made("g", ["bounds", "gv", "--n", "200", "--k", "40"], "bounds_gv",
                     {"n": 200, "k": 40})
    checks.check_bounds_gv(job, text, "", None)
    d = json.loads(text)["d"]
    _rejects(job, _edit_json(text, d=d + 1))
    _rejects(job, _edit_json(text, d=d - 1))

    job, text = made("k", ["bounds", "k0", "--n", "5000"], "bounds_k0", {"n": 5000})
    checks.check_bounds_k0(job, text, "", None)
    _rejects(job, _edit_json(text, k0=70.0))
    _rejects(job, _edit_json(text, k0_cardano=1.0))


def test_checker_holds_later_passes_to_the_first_and_to_the_golden(made):
    job, text = made("tables/figure.fig4", ["figure", "fig4"], "figure", {"figure": "fig4"})
    checker = checks.OutputChecker(Path("."), None)
    checker.check(job, text, "")
    checker.check(job, text, "")
    with pytest.raises(checks.CheckFailed):
        checker.check(job, text.replace("0.", "1.", 1), "")

    golden = {job.id: {"sha256": checks.digest(job, text)}}
    checks.OutputChecker(Path("."), golden).check(job, text, "")
    with pytest.raises(checks.CheckFailed):
        checks.OutputChecker(Path("."), {job.id: {"sha256": "0" * 64}}).check(job, text, "")
    with pytest.raises(checks.CheckFailed):
        checks.OutputChecker(Path("."), {}).check(job, text, "")


def test_tail_has_ten_passes_beyond_it():
    values = [float(v) for v in range(1, 31)]
    assert run.tail(values) == (20.0, 20)
    with pytest.raises(run.BenchError):
        run.tail(values[:10])


def test_host_clock_is_monotonic_and_restores_the_alarm_handler():
    clock = hostclock.HostClock()
    before = signal.getsignal(signal.SIGALRM)
    readings = []
    with clock.measuring() as took:
        for _ in range(200):
            readings.append(clock.now())
            hostclock.reference_chunk()
    assert readings == sorted(readings)
    wall, ref = took
    assert wall > 0 and ref > 0
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
