"""Workload rosters: which CLI jobs a pass runs, and what they need.

The seed drives only the random choices (deg2 seeds, verify and figure
seeds, and which admissible (n, k) to pick inside a fixed band); the
amount of work per pass stays fixed.  Argument lists carry two
placeholders, ``{out}`` (the job's output file) and ``{inputs}`` (the
directory the set-up wrote descriptors into).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from shadowcodes.field import find_odd_prime_power

WORKLOADS = ("build", "scan", "tables")
DEFAULT_SEED = 1729

# the fields the build jobs construct over; the field probes use them too
BUILD_FIELDS = (3125, 2187, 65537, 49, 729)
# shared with the theorem4 and weil suites, which run over these fields
VERIFY_FIELDS = (9, 13, 25, 27, 49, 81, 121)


@dataclass(frozen=True)
class Job:
    id: str
    argv: tuple[str, ...]
    check: str  # name of the output check in checks.py
    expect_exit: int = 0
    want: dict = field(default_factory=dict, hash=False)

    @property
    def command(self) -> str:
        return self.argv[0]


@dataclass(frozen=True)
class Input:
    """A descriptor the set-up writes: built by `construct`, or copied
    from another input with one generator bit flipped."""

    file: str
    argv: tuple[str, ...] = ()
    tamper_from: str = ""


@dataclass(frozen=True)
class Roster:
    workload: str
    jobs: tuple[Job, ...]
    fields: tuple[int, ...]
    inputs: tuple[Input, ...] = ()


def _out(*argv) -> tuple[str, ...]:
    return tuple(str(a) for a in argv) + ("--out", "{out}")


def _deg1_admissible(n: int, k: int) -> bool:
    """q = n + k - 1 is an odd prime power and the degree <= 1 floor
    (n - k + 1)/2 - sqrt(q)(k - 2)/2 is positive, decided on squares."""
    q = n + k - 1
    return find_odd_prime_power(q) is not None and (n - k + 1) ** 2 > q * (k - 2) ** 2


def smallest_admissible_lengths(k: int, count: int, start: int = 3) -> list[int]:
    out = []
    n = max(start, k)
    while len(out) < count:
        if _deg1_admissible(n, k):
            out.append(n)
        n += 1
    return out


def _build(rng: random.Random) -> Roster:
    deg2_seed = rng.randrange(1, 1 << 31)
    jobs = (
        Job("construct.deg1.q3125", _out("construct", "deg1", "--q", 3125, "--e-size", 3060),
            "descriptor", want={"n": 3060, "k": 66}),
        Job("construct.deg1.q2187", _out("construct", "deg1", "--q", 2187, "--e-size", 2140),
            "descriptor", want={"n": 2140, "k": 48}),
        Job("construct.deg1.q65537", _out("construct", "deg1", "--q", 65537, "--e-size", 65535),
            "descriptor", want={"n": 65535, "k": 3}),
        Job("construct.deg2.q49.seeded",
            _out("construct", "deg2", "--q", 49, "--k", 3, "--seed", deg2_seed),
            "descriptor", want={"n": 49, "k": 3}),
        Job("construct.deg2.q729", _out("construct", "deg2", "--q", 729, "--k", 10),
            "descriptor", want={"n": 729, "k": 10}),
        # 99 + 10 - 1 = 108 is no prime power: the correct outcome is exit 2
        Job("construct.deg1.inadmissible", _out("construct", "deg1", "--n", 99, "--k", 10),
            "error", expect_exit=2),
    )
    return Roster("build", jobs, BUILD_FIELDS)


def _scan(rng: random.Random) -> Roster:
    n_small = rng.choice(smallest_admissible_lengths(22, 4, start=400))
    sample_seed = rng.randrange(1, 1 << 31)
    codes = {"d2048": (2048, 22), "dsmall": (n_small, 22), "d1000": (1000, 20)}
    inputs = tuple(
        Input(f"{name}.json", ("construct", "deg1", "--n", str(n), "--k", str(k)))
        for name, (n, k) in codes.items()
    ) + (Input("tampered.json", tamper_from="d1000.json"),)

    def dmin(job_id, name, *extra, check="dmin", expect_exit=0):
        n, k = codes.get(name, (None, None))
        argv = _out("dmin", "{inputs}/" + name + ".json", *extra)
        want = {"n": n, "k": k, "descriptor": name + ".json"} if n else {}
        return Job(job_id, argv, check, expect_exit, want)

    jobs = (
        dmin("dmin.n2048.k22", "d2048"),
        dmin("dmin.small.k22", "dsmall"),
        dmin("dmin.n1000.k20", "d1000"),
        dmin("dmin.sample.n2048", "d2048", "--sample", "20000", "--seed", str(sample_seed),
             check="sample"),
        Job("verify.theorem7.m3", _out("verify", "theorem7", "--m", 3), "verify",
            want={"suite": "theorem7"}),
        # one G bit flipped: the correct outcome is exit 2
        dmin("dmin.tampered", "tampered", check="error", expect_exit=2),
    )
    fields = tuple(n + k - 1 for n, k in codes.values())
    return Roster("scan", jobs, fields, inputs)


def _fig3_orders(n: int, exact_cap: int = 16) -> list[int]:
    return [n + k - 1 for k in range(2, exact_cap + 1) if find_odd_prime_power(n + k - 1)]


def _tables(rng: random.Random) -> Roster:
    fig_seed = rng.randrange(1, 1 << 20)
    verify_seed = rng.randrange(1, 1 << 31)
    gv_n = rng.randrange(900, 1100)
    gv_k = rng.randrange(gv_n // 8, gv_n // 2)
    k0_n = rng.randrange(1000, 100000)
    jobs = (
        Job("figure.fig3.n1024", _out("figure", "fig3", "--n", 1024, "--seed", fig_seed),
            "figure", want={"figure": "fig3", "n": 1024}),
        Job("figure.fig3.n256", _out("figure", "fig3", "--n", 256, "--seed", fig_seed + 1),
            "figure", want={"figure": "fig3", "n": 256}),
        Job("figure.fig1", _out("figure", "fig1"), "figure", want={"figure": "fig1"}),
        Job("figure.fig4", _out("figure", "fig4"), "figure", want={"figure": "fig4"}),
        Job("verify.weil", _out("verify", "weil", "--seed", verify_seed), "verify",
            want={"suite": "weil"}),
        Job("verify.theorem4", _out("verify", "theorem4", "--seed", verify_seed), "verify",
            want={"suite": "theorem4"}),
        Job("verify.theorem6", _out("verify", "theorem6"), "verify", want={"suite": "theorem6"}),
        Job("verify.section6", _out("verify", "section6"), "verify", want={"suite": "section6"}),
        Job("bounds.gv", _out("bounds", "gv", "--n", gv_n, "--k", gv_k), "bounds_gv",
            want={"n": gv_n, "k": gv_k}),
        Job("bounds.k0", _out("bounds", "k0", "--n", k0_n), "bounds_k0", want={"n": k0_n}),
    )
    fields = tuple(sorted(set(VERIFY_FIELDS) | set(_fig3_orders(1024)) | set(_fig3_orders(256))))
    return Roster("tables", jobs, fields)


_BUILDERS = {"build": _build, "scan": _scan, "tables": _tables}


def roster(workload: str, seed: int) -> Roster:
    """The jobs of one pass of ``workload``, ids prefixed by the workload;
    equal seeds give equal rosters."""
    r = _BUILDERS[workload](random.Random(f"{workload}:{seed}"))
    jobs = tuple(
        Job(f"{workload}/{j.id}", j.argv, j.check, j.expect_exit, j.want) for j in r.jobs
    )
    return Roster(workload, jobs, r.fields, r.inputs)


def union(seed: int) -> Roster:
    """Every workload's roster in one.

    The traced run uses it, so every layer is reached whatever the
    workload; the fields and inputs are the union of all set-ups."""
    parts = [roster(w, seed) for w in WORKLOADS]
    jobs = tuple(j for r in parts for j in r.jobs)
    fields = tuple(sorted({q for r in parts for q in r.fields}))
    inputs = tuple(i for r in parts for i in r.inputs)
    return Roster("union", jobs, fields, inputs)
