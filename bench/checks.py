"""Output checks for benchmark jobs.

Every job is checked on its exit code and on package invariants:
descriptor round-trip, n and k, ``floor_met``, ``"ok": true`` and the
defining inequalities of the bound tables.  For the default seed the
output is also compared with golden values recorded from the same
roster (descriptors without ``config``, dmin values, figure CSVs).
Verify reports are checked only on ``ok`` and the exit code.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
from pathlib import Path

from shadowcodes.bounds import FIG_FIELDNAMES
from shadowcodes.shadow import from_descriptor, surd_from_json, to_descriptor

GOLDEN_PATH = Path(__file__).resolve().parent / "golden.json"


class CheckFailed(Exception):
    """A job ran to its expected exit code but its output is wrong."""


def _require(cond: bool, what: str) -> None:
    if not cond:
        raise CheckFailed(what)


def _json(text: str | None) -> dict:
    _require(text is not None, "no output file was written")
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise CheckFailed(f"output is not JSON: {exc}") from None


def canonical(job, text: str) -> str:
    """The part of an output golden values pin: JSON without ``config``,
    CSV without its ``#`` comment lines."""
    if job.command == "figure":
        return "".join(line for line in text.splitlines(True) if not line.startswith("#"))
    obj = _json(text)
    obj.pop("config", None)
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def digest(job, text: str) -> str:
    return hashlib.sha256(canonical(job, text).encode()).hexdigest()


# -- one checker per job kind ---------------------------------------------


def check_descriptor(job, text, stderr, inputs_dir) -> dict:
    desc = _json(text)
    desc.pop("config", None)
    _require(desc.get("format") == "shadow-code/1", "format is not shadow-code/1")
    _require(desc.get("n") == job.want["n"], f"n = {desc.get('n')}, want {job.want['n']}")
    _require(desc.get("k") == job.want["k"], f"k = {desc.get('k')}, want {job.want['k']}")
    _require(desc.get("rank") == desc["k"], "rank and k disagree")
    _require(len(desc.get("G", ())) == len(desc.get("B", ())), "|G| and |B| disagree")
    if desc.get("delta_positive"):
        _require(desc["k"] == len(desc["B"]), "positive delta but k != |B|")
    try:
        rebuilt = to_descriptor(from_descriptor(desc))
    except (ValueError, KeyError, TypeError) as exc:
        raise CheckFailed(f"descriptor does not reload: {exc}") from None
    _require(rebuilt == desc, "descriptor does not round-trip")
    return {}


def check_error(job, text, stderr, inputs_dir) -> dict:
    _require(text is None, "an output file was written for a refused job")
    _require(stderr.startswith("error:"), "stderr does not start with 'error:'")
    return {}


def _floor(inputs_dir: Path, name: str) -> int:
    desc = json.loads((inputs_dir / name).read_text())
    return surd_from_json(desc["delta"]).ceil()


def check_dmin(job, text, stderr, inputs_dir) -> dict:
    rep = _json(text)
    _require(rep.get("method") == "exact", "method is not exact")
    _require((rep.get("n"), rep.get("k")) == (job.want["n"], job.want["k"]), "n or k differs")
    d = rep.get("dmin")
    _require(isinstance(d, int) and 1 <= d <= rep["n"], f"dmin {d} outside 1..n")
    _require(rep.get("floor") == _floor(inputs_dir, job.want["descriptor"]), "floor differs")
    _require(rep.get("floor_met") is True and d >= rep["floor"], "dmin is below the floor")
    return {"dmin": d}


def check_sample(job, text, stderr, inputs_dir) -> dict:
    rep = _json(text)
    _require(rep.get("method") == "sample", "method is not sample")
    _require((rep.get("n"), rep.get("k")) == (job.want["n"], job.want["k"]), "n or k differs")
    d = rep.get("dmin_upper")
    floor = _floor(inputs_dir, job.want["descriptor"])
    _require(isinstance(d, int) and floor <= d <= rep["n"], f"dmin_upper {d} outside floor..n")
    return {"dmin_upper": d}


def check_verify(job, text, stderr, inputs_dir) -> dict:
    rep = _json(text)
    _require(rep.get("suite") == job.want["suite"], "wrong suite")
    _require(rep.get("ok") is True, "report is not ok")
    return {}


def _csv_rows(text: str | None) -> tuple[list[str], list[dict]]:
    _require(text is not None, "no output file was written")
    body = "".join(line for line in text.splitlines(True) if not line.startswith("#"))
    reader = csv.DictReader(io.StringIO(body))
    rows = list(reader)
    _require(bool(rows), "figure has no rows")
    return list(reader.fieldnames or ()), rows


def check_figure(job, text, stderr, inputs_dir) -> dict:
    names, rows = _csv_rows(text)
    fig = job.want["figure"]
    if fig == "fig1":
        _require(names == ["n", "k0", "approx"], "fig1 header differs")
        for r in rows:
            _require(float(r["k0"]) > float(r["approx"]), f"k0 <= sqrt(n) + 1/2 at n={r['n']}")
        return {}
    _require(names == FIG_FIELDNAMES, f"{fig} header differs")
    for r in rows:
        n, k, rate = int(r["n"]), float(r["k"]), float(r["rate"])
        _require(math.isclose(rate, k / n, rel_tol=1e-12), f"rate != k/n in {r}")
    if fig == "fig4":
        _require({r["scheme"] for r in rows} == {"rsrm", "shadow_deg1"}, "fig4 schemes differ")
        return {}
    n = job.want["n"]
    _require(all(int(r["n"]) == n for r in rows), "fig3 row with another n")
    _require(sum(r["scheme"] == "gv" for r in rows) == n, "fig3 GV column is not full")
    floors = {r["k"]: float(r["delta"]) for r in rows if r["scheme"] == "shadow_deg1"}
    for r in rows:
        if r["scheme"] == "shadow_exact" and r["k"] in floors:
            _require(float(r["delta"]) >= floors[r["k"]], f"exact distance below floor: {r}")
    return {}


def check_bounds_gv(job, text, stderr, inputs_dir) -> dict:
    rep = _json(text)
    n, k, d = rep.get("n"), rep.get("k"), rep.get("d")
    _require((n, k) == (job.want["n"], job.want["k"]), "n or k differs")
    _require(isinstance(d, int) and 1 <= d <= n, f"d {d} outside 1..n")
    # largest d with sum_{i <= d-2} C(n-1, i) < 2^(n-k)
    below = sum(math.comb(n - 1, i) for i in range(d - 1))
    _require(below < 1 << (n - k), "GV sum at d is not below 2^(n-k)")
    _require(d == n or below + math.comb(n - 1, d - 1) >= 1 << (n - k), "d is not the largest")
    return {"d": d}


def check_bounds_k0(job, text, stderr, inputs_dir) -> dict:
    rep = _json(text)
    n = rep.get("n")
    _require(n == job.want["n"], "n differs")
    _require(rep["k0"] > math.sqrt(n) + 0.5, "k0 <= sqrt(n) + 1/2")
    _require(abs(rep["k0"] - rep["k0_cardano"]) <= 1e-6, "bisection and closed form disagree")
    return {}


CHECKS = {
    "descriptor": check_descriptor,
    "error": check_error,
    "dmin": check_dmin,
    "sample": check_sample,
    "verify": check_verify,
    "figure": check_figure,
    "bounds_gv": check_bounds_gv,
    "bounds_k0": check_bounds_k0,
}


class OutputChecker:
    """Checks each job's output in full the first time it is seen in a
    run, then only that later passes reproduce it byte for byte."""

    def __init__(self, inputs_dir: Path, golden: dict | None):
        self.inputs_dir = inputs_dir
        self.golden = golden
        self.seen: dict[str, str] = {}
        self.values: dict[str, dict] = {}
        self.digests: dict[str, str] = {}

    def check(self, job, text: str | None, stderr: str) -> None:
        raw = hashlib.sha256((text or "").encode()).hexdigest()
        if job.id in self.seen:
            _require(self.seen[job.id] == raw, "output differs from the first pass")
            return
        values = CHECKS[job.check](job, text, stderr, self.inputs_dir)
        if text is not None:
            self.digests[job.id] = digest(job, text)
            if self.golden is not None and job.check != "verify":
                want = self.golden.get(job.id)
                _require(want is not None, "no golden value recorded")
                _require(want["sha256"] == self.digests[job.id], "output differs from the golden")
        self.seen[job.id] = raw
        self.values[job.id] = values


def load_golden() -> dict:
    return json.loads(GOLDEN_PATH.read_text())
