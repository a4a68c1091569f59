"""Every failure branch of the verify suites, and of the dmin floor check.

Each case rebinds one name the suite reads so that one check fails,
runs the CLI, and reads the report: exit 1, "ok": false, and failure
entries that carry the keys a reader needs to reproduce them."""

import hashlib
import json
from fractions import Fraction

import pytest

from shadowcodes import cli, verify
from shadowcodes.cli import main

THEOREM4_KEYS = {"kind", "q", "n", "B_size", "check"}


def _deficient_rank(code):
    return code._replace(rank=code.rank - 1) if code.delta_positive else code


def _excess_rank(code):
    return code if code.delta_positive else code._replace(rank=len(code.basic.polys) + 1)


# (argv, module, name, replacement built from the real function,
#  keys of each failure entry, the "check" each entry names or None)
CASES = {
    "weil_count_window": (
        # d q more points: |count - q| >= d q - (d - 1) sqrt(q), past the
        # window once sqrt(q) > 2; the GF(3) base case keeps its count
        ("weil", "--count", "2"), verify, "count_zeros",
        lambda real: lambda spec, rows: (
            real(spec, rows) + (spec.field.q != 3) * spec.degree * spec.field.q
        ),
        {"q", "gamma", "factors", "count", "degree"}, None,
    ),
    "weil_base_case": (
        # 3 points on the GF(3) curve, still inside its window
        ("weil", "--count", "0"), verify, "count_zeros",
        lambda real: lambda spec, rows: real(spec, rows) + 1,
        {"q", "expected_count", "count"}, None,
    ),
    "theorem4_product_row_sum": (
        ("theorem4",), verify, "lambda_map",
        lambda real: lambda f, ev: real(f, ev) ^ 1,
        THEOREM4_KEYS | {"exponents"}, "product_row_sum",
    ),
    "theorem4_full_rank": (
        ("theorem4",), verify, "construct_deg1",
        lambda real: lambda field, size: _deficient_rank(real(field, size)),
        THEOREM4_KEYS, "full_rank",
    ),
    "theorem4_rank_bound": (
        ("theorem4",), verify, "construct_deg1",
        lambda real: lambda field, size: _excess_rank(real(field, size)),
        THEOREM4_KEYS, "rank_bound",
    ),
    "theorem4_distance_floor": (
        ("theorem4",), verify, "exact_min_distance",
        lambda real: lambda gen: 1,
        THEOREM4_KEYS | {"dmin", "floor"}, "distance_floor",
    ),
    "theorem4_vacuous_floor_not_flagged": (
        ("theorem4",), verify, "distance_lower_bound",
        lambda real: lambda code: code.delta,
        THEOREM4_KEYS, "vacuous_floor_not_flagged",
    ),
    "theorem4_complement_symmetry": (
        ("theorem4",), verify, "weight_distribution",
        lambda real: lambda gen: [1] + [0] * gen.n,
        THEOREM4_KEYS, "complement_symmetry",
    ),
    "theorem6_quartic_identity": (
        ("theorem6", "--n-max", "100"), verify, "s_cubic",
        lambda real: lambda n, k: real(n, k) + 1,
        {"m", "S"}, None,
    ),
    "theorem6_negative_from_two": (
        # only the n = 2 surd; the root check's surds have q = n >= 3
        ("theorem6", "--n-max", "100"), verify, "Surd",
        lambda real: lambda a, b, q: real(-a if q == 2 else a, b, q),
        {"check"}, "negative from n = 2 on",
    ),
    "theorem6_root_gap": (
        ("theorem6", "--n-max", "100"), verify, "k0",
        lambda real: lambda n: real(n)._replace(k0_cardano=real(n).k0 + 1e-3),
        {"n", "bisection", "cardano"}, None,
    ),
    "theorem6_root_bracket": (
        # within the 1e-6 gap, but 10^-8 is past the 2^-30 bracket
        ("theorem6", "--n-max", "100"), verify, "k0",
        lambda real: lambda n: real(n)._replace(k0=real(n).k0 + 1e-8),
        {"n", "bisection", "cardano"}, None,
    ),
    "theorem6_root_above_approx": (
        # k0 - 1/2 negated in the grid's surds (q = n >= 3): a k0 moved
        # below sqrt(n) + 1/2 would also leave its bracket
        ("theorem6", "--n-max", "100"), verify, "Surd",
        lambda real: lambda a, b, q: real(a if q == 2 else -a, b, q),
        {"n", "k0", "approx"}, None,
    ),
    "theorem7_rate": (
        ("theorem7",), verify, "concat_params",
        lambda real: lambda spec: real(spec)._replace(rate=real(spec).rate + 1),
        {"m", "K", "check"}, "rate",
    ),
    "theorem7_floor": (
        ("theorem7",), verify, "exact_min_distance",
        lambda real: lambda code: 1,
        {"m", "K", "dmin", "floor"}, None,
    ),
    "section6_margin": (
        ("section6",), verify, "SECTION6_MS",
        lambda real: range(0, 1),
        {"m", "r", "lhs", "rhs"}, None,
    ),
}


@pytest.mark.parametrize("case", list(CASES))
def test_failed_check_exits_one_with_its_entry(tmp_path, monkeypatch, case):
    args, module, name, patch, keys, check = CASES[case]
    monkeypatch.setattr(module, name, patch(getattr(module, name)))
    out = tmp_path / "report.json"
    assert main(["verify", *args, "--out", str(out)]) == 1
    report = json.loads(out.read_text())
    assert report["ok"] is False and report["failures"]
    for entry in report["failures"]:
        assert set(entry) == keys
        assert entry.get("check") == check


@pytest.mark.parametrize(
    "suite, keys",
    [
        (verify.verify_weil, ["suite", "params", "checks"]),
        (verify.verify_theorem4, ["suite", "params", "checks"]),
        (verify.verify_theorem6, ["suite", "params", "claim", "checks", "max_root_gap"]),
        (verify.verify_theorem7, ["suite", "params", "checks", "skipped_K"]),
        (verify.verify_section6, ["suite", "params", "checks"]),
    ],
    ids=["weil", "theorem4", "theorem6", "theorem7", "section6"],
)
def test_report_keys_keep_their_order(suite, keys):
    """Every report names its suite first and ends in failures and ok,
    the verdict behind exit code 1; each suite's own fields sit between."""
    assert list(suite()) == keys + ["failures", "ok"]


def test_section6_margins_strict_and_exact(monkeypatch):
    """900 grid points, each strict; where m = 0 forces every point to
    fail, the entry's exact fractions satisfy lhs - rhs = r m / 2."""
    report = verify.verify_section6()
    assert (report["checks"], report["ok"]) == (9 * 100, True)
    monkeypatch.setattr(verify, "SECTION6_MS", range(0, 1))
    report = verify.verify_section6()
    assert len(report["failures"]) == report["checks"] == 100
    for entry in report["failures"]:
        m, r, lhs, rhs = entry["m"], *(Fraction(entry[key]) for key in ("r", "lhs", "rhs"))
        assert lhs - rhs == r * m / 2 and lhs <= rhs


def test_scaled_cubic_is_d_cubed_times_s():
    """The bracket's integer form against s_cubic on exact fractions."""
    from shadowcodes.bounds import s_cubic

    for n in (3, 10, 1000, 10**9):
        for k, d in ((0, 1), (7, 3), (-5, 2), (123456789, 1 << 30)):
            assert verify._s_scaled(n, k, d) == d**3 * s_cubic(n, Fraction(k, d))


def test_dmin_below_the_floor_exits_one(tmp_path, monkeypatch):
    desc, out = tmp_path / "code.json", tmp_path / "report.json"
    assert main(["construct", "deg1", "--n", "28", "--k", "4", "--out", str(desc)]) == 0
    monkeypatch.setattr(cli, "exact_min_distance", lambda gen: 1)
    assert main(["dmin", str(desc), "--out", str(out)]) == 1
    report = json.loads(out.read_text())
    assert report["dmin"] == 1 and report["floor"] > 1
    assert report["floor_met"] is False


# sha256 of json.dumps(report) for each suite call; theorem6 is left out,
# since its floats come from libm and complex powers
REPORT_DIGESTS = {
    "theorem4": (lambda: verify.verify_theorem4(),
                 "708cb1331326c7223949b635a01bad48f24082cc0305aeb1a903c533cd8784d3"),
    "theorem4-seed7": (lambda: verify.verify_theorem4(7),
                       "dfde3f677d11f969ad4161ed1c4d11258144f34f3b9be99591e81e7d0601ad91"),
    "theorem7-m1": (lambda: verify.verify_theorem7(1),
                    "86c6ad5349343d9e08c34d94142310827f962716ff75f84cb56339c7ca54b74b"),
    "theorem7-m2": (lambda: verify.verify_theorem7(2),
                    "c097c719ea4118d571df3933ea082d0e4cda4fb495936c9014af012152fe5804"),
    "theorem7-m3": (lambda: verify.verify_theorem7(3),
                    "e3f72f05e11e73f39550add8b2376187f7eb727f43a0be2bf808da4bfaa0d5b2"),
    "theorem7-m4": (lambda: verify.verify_theorem7(4),
                    "e45641ae5cf422783d989e3c85d493937d785fa2cbe2756751b25f6e4ac9f268"),
    "weil": (lambda: verify.verify_weil(),
             "e0205c750be3068b78e4b0ff533f7c2d6eb8f6687a2e90fc060c509170c00708"),
    "weil-seed7": (lambda: verify.verify_weil(seed=7),
                   "5e425344451e9621e59dd8f2059ed5e79affcea2408c8c211820d5ff7c138c00"),
    "section6": (lambda: verify.verify_section6(),
                 "bbaa717d9cd2d1aaf0e269b7aeb09dc3f8d736250382e8ef30255954333e7a9d"),
}


@pytest.mark.parametrize("name", list(REPORT_DIGESTS))
def test_report_bytes_are_pinned(name):
    """The bench's golden digests skip verify jobs, and its tables
    workload draws a random verify seed, so a changed report shows there
    only when its ok flips: each report's JSON bytes are pinned here."""
    suite, digest = REPORT_DIGESTS[name]
    assert hashlib.sha256(json.dumps(suite()).encode()).hexdigest() == digest
