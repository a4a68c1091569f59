import argparse
import contextlib
import csv
import io
import itertools
import json
import re
import resource
import shlex
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from shadowcodes import __version__
from shadowcodes.bounds import FIG_FIELDNAMES, BoundPoint, fig1_rows, fig4_rows
from shadowcodes.cli import _json_pieces, build_parser, main, rows_to_csv


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_construct_then_exact_dmin(tmp_path, capsys):
    desc = tmp_path / "code.json"
    code, _, _ = run_cli(
        capsys, "construct", "deg1", "--q", "25", "--e-size", "21", "--out", str(desc)
    )
    assert code == 0
    stored = json.loads(desc.read_text())
    assert stored["n"] == 21 and stored["k"] == 5
    assert stored["format"] == "shadow-code/1"
    code, out, _ = run_cli(capsys, "dmin", str(desc))
    assert code == 0
    report = json.loads(out)
    assert report["method"] == "exact"
    assert report["dmin"] == 8
    assert report["floor"] == 1
    assert report["floor_met"] is True


def test_dmin_sampled_upper_bound(tmp_path, capsys):
    desc = tmp_path / "code.json"
    run_cli(capsys, "construct", "deg2", "--q", "49", "--k", "3", "--out", str(desc))
    code, out, _ = run_cli(capsys, "dmin", str(desc), "--sample", "400", "--seed", "7")
    assert code == 0
    first = json.loads(out)
    assert first["method"] == "sample"
    assert first["dmin_upper"] >= 24
    code, out, _ = run_cli(capsys, "dmin", str(desc), "--sample", "400", "--seed", "7")
    assert json.loads(out)["dmin_upper"] == first["dmin_upper"]


def test_dmin_missing_file(capsys):
    code, _, err = run_cli(capsys, "dmin", "/nonexistent/code.json")
    assert code == 2
    assert "error:" in err


def test_dmin_descriptor_faults_exit_two(tmp_path, capsys):
    good = tmp_path / "code.json"
    run_cli(capsys, "construct", "deg1", "--q", "25", "--e-size", "21", "--out", str(good))
    desc = json.loads(good.read_text())
    tampered = dict(desc, G=[format(int(desc["G"][0], 16) ^ 1, "06x")] + desc["G"][1:])
    missing = {k: v for k, v in desc.items() if k != "E"}
    faults = {"tampered.json": json.dumps(tampered), "missing.json": json.dumps(missing),
              "text.json": "not json {"}
    for name, text in faults.items():
        path = tmp_path / name
        path.write_text(text)
        code, out, err = run_cli(capsys, "dmin", str(path))
        assert (code, out) == (2, ""), name
        assert err.startswith("error:"), name


@pytest.mark.parametrize(
    "key, index, text",
    [("B", 0, "x,1"), ("G", 0, "zz"), ("B", 0, "999,1"), ("B", 0, 5), ("E", 0, 0.5)],
    ids=["B_not_an_integer", "G_not_hex", "B_coefficient_out_of_range", "B_not_a_string",
         "E_not_an_integer"],
)
def test_dmin_malformed_descriptor_text_exits_two(tmp_path, capsys, key, index, text):
    path = tmp_path / "code.json"
    run_cli(capsys, "construct", "deg1", "--n", "28", "--k", "4", "--out", str(path))
    desc = json.loads(path.read_text())
    assert desc["field"]["p"] == 31
    desc[key][index] = text
    path.write_text(json.dumps(desc))
    code, out, err = run_cli(capsys, "dmin", str(path))
    assert (code, out) == (2, "")
    assert err.startswith("error:") and "Traceback" not in err


@pytest.mark.parametrize(
    "key, field, value",
    [
        ("field", "p", 3.0),
        ("field", "p", "3"),
        ("field", "m", True),
        (None, "kind", [1]),
        ("field", "modulus", [1.7, 0.2, True]),
        ("field", "modulus", "abc"),
        ("field", "modulus", 5),
    ],
    ids=["p_float", "p_string", "m_bool", "kind_not_a_string", "modulus_floats_and_bool",
         "modulus_string", "modulus_int"],
)
def test_dmin_descriptor_with_mistyped_field_or_kind_exits_two(
    tmp_path, capsys, key, field, value
):
    # GF(9)'s modulus is (1, 0, 1), which int() would read off [1.7, 0.2, true]
    path = tmp_path / "code.json"
    run_cli(capsys, "construct", "deg1", "--q", "9", "--e-size", "7", "--out", str(path))
    desc = json.loads(path.read_text())
    assert desc["field"] == {"p": 3, "m": 2, "modulus": [1, 0, 1]}
    (desc[key] if key else desc)[field] = value
    path.write_text(json.dumps(desc))
    code, out, err = run_cli(capsys, "dmin", str(path))
    assert (code, out) == (2, "")
    assert err.startswith("error:") and "Traceback" not in err


@pytest.mark.parametrize(
    "built, relabel",
    [(("deg2", "--q", "49", "--k", "2"), "deg1"), (("deg1", "--n", "28", "--k", "4"), "deg2")],
    ids=["deg2_as_deg1", "deg1_as_deg2"],
)
def test_dmin_descriptor_with_the_wrong_family_kind_exits_two(tmp_path, capsys, built, relabel):
    path = tmp_path / "code.json"
    assert run_cli(capsys, "construct", *built, "--out", str(path))[0] == 0
    desc = json.loads(path.read_text())
    path.write_text(json.dumps(dict(desc, kind=relabel)))
    code, out, err = run_cli(capsys, "dmin", str(path))
    assert (code, out) == (2, "")
    assert err.startswith("error:") and "Traceback" not in err


def test_dmin_over_a_61_bit_characteristic_exits_two_at_once(tmp_path):
    """Trial division stops at its bound, so a prime characteristic of
    61 bits is refused where it used to divide for minutes; and GF(3^2000)
    is refused by its order before a degree-2000 modulus search."""
    desc = tmp_path / "huge.json"
    for field, named in (({"p": 2**61 - 1, "m": 3}, f"{2**61 - 1} has no factor up to"),
                         ({"p": 3, "m": 2000}, "GF(3^2000) has more than")):
        desc.write_text(json.dumps({"field": field, "E": [0, 1, 2], "B": ["5,1"], "G": ["7"]}))
        proc = subprocess.run(
            [sys.executable, "-m", "shadowcodes.cli", "dmin", str(desc)],
            capture_output=True, text=True, timeout=20,
        )
        assert (proc.returncode, proc.stdout) == (2, ""), field
        assert proc.stderr.startswith("error:") and "Traceback" not in proc.stderr
        # the refusal's own message, not relabelled as a malformed file
        assert named in proc.stderr and "malformed" not in proc.stderr


def test_importing_the_cli_loads_neither_dataclasses_nor_inspect():
    """Every CLI call imports the whole package first, and its records
    are NamedTuples: dataclasses, and the inspect it pulls in, stay out."""
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, shadowcodes.cli;"
         " print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"],
        capture_output=True, text=True, timeout=20,
    )
    assert (proc.returncode, proc.stdout) == (0, "[]\n"), proc.stderr


def test_dmin_over_a_40_bit_characteristic_squared_ends_cleanly(tmp_path):
    """p = 999999999989 passes trial division, and GF(p^2), past the order
    whose q - 1 trial division factors, is refused before any modulus
    search: exit 2, never a MemoryError from listing range(p)."""
    desc = tmp_path / "huge.json"
    desc.write_text(json.dumps(
        {"field": {"p": 999999999989, "m": 2}, "E": [0, 1, 2], "B": ["5,1"], "G": ["7"]}
    ))
    proc = subprocess.run(
        [sys.executable, "-m", "shadowcodes.cli", "dmin", str(desc)],
        capture_output=True, text=True, timeout=20,
    )
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr.startswith("error:") and "Traceback" not in proc.stderr


def test_dmin_three_points_over_a_huge_prime_field(tmp_path, capsys):
    """A 3-point E over GF(2**31 - 1) costs three Euler powers, not a
    character table of the whole field."""
    p = 2**31 - 1
    points = [0, 1, 2]
    row = sum((pow(b + 5, (p - 1) // 2, p) != 1) << j for j, b in enumerate(points))
    desc = tmp_path / "big.json"
    desc.write_text(json.dumps(
        {"field": {"p": p, "m": 1}, "E": points, "B": ["5,1"], "G": [format(row, "x")]}
    ))
    code, out, err = run_cli(capsys, "dmin", str(desc))
    assert code == 0, err
    report = json.loads(out)
    assert (report["n"], report["k"]) == (3, 1)
    assert report["dmin"] == row.bit_count()


def _cap_address_space():
    limit = 1 << 30
    resource.setrlimit(resource.RLIMIT_AS, (limit, limit))


@pytest.mark.parametrize(
    "argv",
    [
        ("deg2", "--q", "1000000007", "--k", "1"),
        ("deg1", "--q", "1000000007", "--e-size", "3"),
        ("deg1", "--q", "1000000007", "--e-size", "999999990"),
        ("deg2", "--q", "65521", "--k", "1", "--seed", "1"),
    ],
    ids=["deg2_whole_field", "deg1_rows", "deg1_points", "deg2_seeded_supply"],
)
def test_construct_past_the_length_budget_exits_two(argv):
    """Each would list about 10^9 points or linears, or a seeded draw
    about 2^31 quadratics; the length budget refuses it before anything
    is built."""
    _assert_capped_refusal("construct", *argv)


def test_gv_past_its_length_budget_exits_two():
    """The prefix sums of n = 200000 would keep about 2.5 GB of ints."""
    _assert_capped_refusal("bounds", "gv", "--n", "200000", "--k", "10")


def test_concat_matrix_past_the_length_budget_exits_two(capsys):
    """Rows of N 2^m = 2^31 - 2^15 bits are refused before any is built;
    the parameters alone still print."""
    _assert_capped_refusal("concat", "--m", "15", "--N", "65535", "--K", "1", "--matrix")
    code, out, _ = run_cli(capsys, "concat", "--m", "15", "--N", "65535", "--K", "1")
    assert code == 0 and json.loads(out)["n"] == 65535 << 15


def _assert_capped_refusal(*argv):
    """The CLI exits 2 with an error line naming the length budget.  The
    child's address space is capped at 1 GiB, so a regression fails fast
    instead of filling memory."""
    proc = subprocess.run(
        [sys.executable, "-m", "shadowcodes.cli", *argv],
        capture_output=True, text=True, timeout=60, preexec_fn=_cap_address_space,
    )
    assert (proc.returncode, proc.stdout) == (2, ""), proc.stderr
    assert proc.stderr.startswith("error:") and "length budget" in proc.stderr
    assert "Traceback" not in proc.stderr


def test_bad_construct_and_sample_parameters_exit_two(tmp_path, capsys):
    code, _, err = run_cli(capsys, "construct", "deg1", "--q", "121", "--e-size", "200")
    assert code == 2 and "size must be in 1..121" in err
    desc = tmp_path / "code.json"
    run_cli(capsys, "construct", "deg1", "--q", "25", "--e-size", "21", "--out", str(desc))
    code, out, err = run_cli(capsys, "dmin", str(desc), "--sample", "-5")
    assert (code, out) == (2, "")
    assert "trial" in err


@pytest.mark.parametrize(
    "argv",
    [
        ("figure", "fig3", "--n", "0"),
        ("figure", "fig4", "--m-max", "1"),
        ("dmin", "{tmp}"),
        ("construct", "deg1", "--n", "28", "--k", "4", "--out", "{tmp}"),
        ("concat", "--m", "30", "--N", "3", "--K", "1"),
        ("verify", "theorem7", "--m", "30"),
        ("verify", "theorem6", "--n-max", "-1"),
        ("verify", "theorem7", "--m", "-1"),
        ("verify", "weil", "--count", "-1"),
        ("verify", "weil", "--q-max", "3"),
        ("bounds", "k0", "--n", "1000000000000"),
        ("figure", "fig1", "--n-max", str(10**21)),
        ("verify", "theorem6", "--n-max", str(10**10)),
        ("figure", "fig4", "--m-max", "512"),
        ("figure", "fig4", "--a", "0.499", "--m-max", "511"),
        ("figure", "fig1", "--points", "0"),
        ("figure", "fig1", "--points", "-3"),
        ("figure", "fig1", "--n-min", "10", "--n-max", "11", "--points", str((1 << 16) + 1)),
        ("bounds", "deltacon", "--n", "16", "--k", "-5"),
        ("bounds", "shadow1", "--n", str(10**400), "--k", "3"),
        ("bounds", "shadow2", "--n", str(10**400), "--k", "3"),
        ("bounds", "shadow1", "--n", "5", "--k", str(10**400)),
        ("bounds", "shadow1", "--n", "5", "--k", str(10**300)),
        ("bounds", "dg", "--m", "20000", "--d", "1"),
    ],
    ids=["fig3_n0", "fig4_empty_range", "dmin_directory", "out_directory",
         "concat_field_too_large", "theorem7_field_too_large", "theorem6_n_max_negative",
         "theorem7_m_negative", "weil_count_negative", "weil_q_max_below_roster",
         "k0_n_too_large", "fig1_n_max_too_large", "theorem6_n_max_too_large", "fig4_m_max_overflows",
         "fig4_a_past_the_root_budget",
         "fig1_no_points", "fig1_negative_points", "fig1_points_past_the_budget",
         "deltacon_k_negative",
         "shadow1_n_overflows", "shadow2_n_overflows", "shadow1_k_overflows",
         "shadow1_floor_infinite", "dg_m_past_the_printable_cap"],
)
def test_bad_inputs_exit_two_without_traceback(tmp_path, capsys, argv):
    assert main(["construct", "deg1", "--n", "28", "--k", "4",
                 "--out", str(tmp_path / "code.json")]) == 0
    code, out, err = run_cli(capsys, *(a.format(tmp=tmp_path) for a in argv))
    assert (code, out) == (2, "")
    assert err.startswith("error:") and "Traceback" not in err
    if argv[-2] == "--n-max":
        assert argv[-1] in err  # the flag's value, not a grid point past it


def _descriptor_file(directory, *argv):
    path = directory / "code.json"
    assert main([*argv, "--out", str(path)]) == 0
    return json.loads(path.read_text())


@pytest.fixture(scope="module")
def stored_codes(tmp_path_factory):
    d = tmp_path_factory.mktemp("codes")
    return d, [
        _descriptor_file(d, "construct", "deg1", "--n", "28", "--k", "4"),
        _descriptor_file(d, "construct", "deg2", "--q", "25", "--k", "2"),
    ]


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_any_flipped_generator_bit_exits_two(stored_codes, data):
    directory, codes = stored_codes
    desc = dict(data.draw(st.sampled_from(codes), label="code"))
    row = data.draw(st.integers(0, len(desc["G"]) - 1), label="row")
    bit = data.draw(st.integers(0, desc["n"] - 1), label="bit")
    width = len(desc["G"][row])
    desc["G"] = list(desc["G"])
    desc["G"][row] = format(int(desc["G"][row], 16) ^ (1 << bit), f"0{width}x")
    path, out = directory / "flipped.json", directory / "report.json"
    path.write_text(json.dumps(desc))
    assert main(["dmin", str(path), "--out", str(out)]) == 2
    assert not out.exists()


def test_construct_nk_round_numbers(capsys):
    code, out, _ = run_cli(capsys, "construct", "deg1", "--n", "100", "--k", "10")
    assert code == 0
    desc = json.loads(out)
    assert desc["n"] == 100 and desc["k"] == 10
    assert desc["field"]["p"] == 109


def test_construct_inadmissible_suggests_neighbor(capsys):
    code, _, err = run_cli(capsys, "construct", "deg1", "--n", "99", "--k", "10")
    assert code == 2
    assert "107" in err and "odd prime power" in err


def test_construct_argument_combinations(capsys):
    assert run_cli(capsys, "construct", "deg1")[0] == 2
    assert run_cli(capsys, "construct", "deg1", "--n", "5")[0] == 2
    with pytest.raises(SystemExit) as exc:
        main(["construct", "deg2", "--q", "49"])
    assert exc.value.code == 2


def test_construct_deg2_seeded_reproducible(capsys):
    _, out1, _ = run_cli(capsys, "construct", "deg2", "--q", "49", "--k", "3", "--seed", "5")
    _, out2, _ = run_cli(capsys, "construct", "deg2", "--q", "49", "--k", "3", "--seed", "5")
    a, b = json.loads(out1), json.loads(out2)
    assert a["G"] == b["G"] and a["B"] == b["B"]


def test_figure_csv_and_json(capsys):
    code, out, _ = run_cli(capsys, "figure", "fig4", "--format", "csv")
    assert code == 0
    lines = out.splitlines()
    comments = [ln for ln in lines if ln.startswith("#")]
    assert "# figure=fig4" in comments and "# a=0.49" in comments
    header = next(ln for ln in lines if not ln.startswith("#"))
    assert header == "scheme,n,k,rate,delta,kind"
    code, out, _ = run_cli(capsys, "figure", "fig4", "--format", "json")
    obj = json.loads(out)
    assert obj["config"]["figure"] == "fig4"
    assert len(obj["rows"]) == 18


def test_figure_fig1_and_fig3(tmp_path, capsys):
    out_path = tmp_path / "fig1.csv"
    code, _, _ = run_cli(
        capsys, "figure", "fig1", "--n-max", "1000", "--points", "5", "--out", str(out_path)
    )
    assert code == 0
    text = out_path.read_text()
    assert text.splitlines()[-1].split(",")[0].isdigit()
    code, out, _ = run_cli(capsys, "figure", "fig3", "--n", "64", "--format", "json")
    assert code == 0
    rows = json.loads(out)["rows"]
    assert {r["scheme"] for r in rows} >= {"shadow_deg1", "gv", "dg", "rm1", "rm2", "random"}


def test_fig3_shorter_than_a_random_dimension(capsys):
    code, out, err = run_cli(capsys, "figure", "fig3", "--n", "8", "--format", "json")
    assert (code, err) == (0, "")
    rows = json.loads(out)["rows"]
    assert [r["k"] for r in rows if r["scheme"] == "random"] == [8]
    assert [r["k"] for r in rows if r["scheme"] == "gv"] == list(range(1, 9))


def test_verify_suites_pass(capsys):
    code, out, _ = run_cli(capsys, "verify", "section6")
    assert code == 0
    report = json.loads(out)
    assert report["ok"] is True and report["failures"] == []
    assert report["config"]["suite"] == "section6"

    code, out, _ = run_cli(capsys, "verify", "theorem7", "--m", "2")
    assert code == 0 and json.loads(out)["ok"] is True

    code, out, _ = run_cli(capsys, "verify", "weil", "--q-max", "27", "--count", "30")
    assert code == 0
    report = json.loads(out)
    assert report["ok"] is True and report["checks"] == 31

    code, out, _ = run_cli(capsys, "verify", "theorem6", "--n-max", "2000")
    assert code == 0 and json.loads(out)["ok"] is True

    code, out, _ = run_cli(capsys, "verify", "theorem4")
    report = json.loads(out)
    assert code == 0 and report["ok"] is True
    assert report["checks"] > 200


def test_verify_failure_exits_one(capsys, monkeypatch):
    def broken(q_max, count, seed):
        return {"suite": "weil", "checks": 1, "failures": [{"q": 3}], "ok": False}

    monkeypatch.setattr("shadowcodes.cli.verify_weil", broken)
    code, out, _ = run_cli(capsys, "verify", "weil")
    assert code == 1
    assert json.loads(out)["ok"] is False


def test_concat_report(capsys):
    code, out, _ = run_cli(capsys, "concat", "--m", "2", "--N", "4", "--K", "2")
    assert code == 0
    report = json.loads(out)
    assert report["n"] == 16 and report["k"] == 6
    assert report["dmin_lb"] == 6 and report["rate"] == "3/8"
    code, out, _ = run_cli(capsys, "concat", "--m", "2", "--N", "4", "--K", "2", "--matrix")
    report = json.loads(out)
    assert report["G"] == ["ffff", "aaaa", "cccc", "c5af", "36ca", "9f3c"]
    code, _, err = run_cli(capsys, "concat", "--m", "2", "--N", "9", "--K", "2")
    assert code == 2 and "error:" in err


def test_bounds_quantities(capsys):
    code, out, _ = run_cli(capsys, "bounds", "gv", "--n", "16", "--k", "6")
    assert code == 0 and json.loads(out)["d"] == 5
    code, out, _ = run_cli(capsys, "bounds", "dg", "--m", "4", "--d", "2")
    report = json.loads(out)
    assert (report["n"], report["log2_size"], report["dmin"]) == (16, 8, 6)
    code, out, _ = run_cli(capsys, "bounds", "k0", "--n", "113")
    report = json.loads(out)
    assert list(report) == ["config", "n", "k0", "k0_cardano", "xi", "omega_sq"]
    assert 0 < report["k0"] - 113**0.5 - 0.5 < 0.5
    assert report["omega_sq"] < 0
    code, out, _ = run_cli(capsys, "bounds", "shadow1", "--n", "113", "--k", "9")
    assert json.loads(out)["floor"] == pytest.approx(14.0)
    code, out, _ = run_cli(capsys, "bounds", "deltacon", "--n", "16", "--k", "3")
    assert json.loads(out)["floor"] == 0.5


def test_bounds_missing_arguments(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["bounds", "gv", "--n", "16"])
    assert exc.value.code == 2
    assert "--k" in capsys.readouterr().err


# strings that an indented dump escapes, that would trip a writer which
# splices lists back in for a "\0" stand-in, or that hold a bracket or brace
TRICKY_TEXT = st.one_of(
    st.text(max_size=6),
    st.sampled_from(["\0", '"', "\\", "a\0b", '"\\u0000"', '\n  "E": "\\u0000"', "E",
                     "[", "]", "{", "}", "a[1]", "{}", "[]"]),
)
JSON_LEAVES = st.one_of(
    st.none(), st.booleans(), st.integers(), TRICKY_TEXT,
    st.floats(allow_nan=False), st.fractions(),
)
TOP_VALUES = st.one_of(
    st.lists(st.integers(-(2**70), 2**70), max_size=4),  # empty, one item, signs, > 2^64
    st.lists(st.booleans(), max_size=3),
    st.lists(st.one_of(st.integers(), st.booleans()), max_size=4),
    st.lists(TRICKY_TEXT, max_size=4),
    st.lists(st.one_of(st.floats(allow_nan=False), st.fractions()), max_size=4),  # default=str
    st.lists(st.one_of(JSON_LEAVES, st.just([]), st.just({})), max_size=4),
    st.recursive(JSON_LEAVES, lambda inner: st.one_of(
        st.lists(inner, max_size=3), st.dictionaries(TRICKY_TEXT, inner, max_size=3)),
        max_leaves=6),
)


@settings(max_examples=300, deadline=None)
@given(obj=st.one_of(
    st.dictionaries(TRICKY_TEXT, TOP_VALUES, max_size=6),
    st.dictionaries(st.one_of(st.integers(), TRICKY_TEXT), TOP_VALUES, max_size=3),
    TOP_VALUES,
))
def test_json_pieces_join_to_the_indented_dump(obj):
    assert "".join(_json_pieces(obj)) == json.dumps(obj, indent=2, default=str) + "\n"


def test_json_pieces_splice_past_an_equal_string_value():
    """A "\\0" string, a splicing writer's stand-in, comes first, at the top
    level and nested, and E's items are one piece from the C encoder: a
    writer that dumps E with the indent would pass the property above."""
    obj = {"a": "\0", "E": [3, -1, 2**70], "b": {"E": "\0"}, "F": [7],
           "c": [], "d": Fraction(1, 3)}
    pieces = _json_pieces(obj)
    assert "".join(pieces) == json.dumps(obj, indent=2, default=str) + "\n"
    assert "3,\n    -1,\n    1180591620717411303424" in pieces  # E, from the C encoder


@pytest.mark.parametrize(
    "value, items",
    [
        ([3, -1, 2**70], "3,\n    -1,\n    1180591620717411303424"),
        (["0f", "a1"], '"0f",\n    "a1"'),
        ([Fraction(1, 3), Fraction(-2)], '"1/3",\n    "-2"'),
        ([1, {"a": 2}], None),
        ([1, []], None),
        (["a[1]", 2], None),
        ("a[1]", None),
    ],
)
def test_json_pieces_write_flat_lists_from_the_c_encoder(value, items):
    """A top-level list of scalars is one piece from the C encoder; a list
    that holds a dict, a list or a string with "[", and such a string
    itself, are their indented dumps."""
    obj = {"config": {"k": 1}, "E": value, "n": 5}
    pieces = _json_pieces(obj)
    assert "".join(pieces) == json.dumps(obj, indent=2, default=str) + "\n"
    flat = items in pieces
    assert flat == (items is not None)
    assert ("[\n    " in pieces) == flat


@pytest.mark.parametrize(
    "argv",
    [
        ("construct", "deg1", "--q", "65537", "--e-size", "65535"),
        ("construct", "deg1", "--n", "28", "--k", "4"),
        ("construct", "deg2", "--q", "49", "--k", "3", "--seed", "5"),
        ("dmin", "{code}"),
        ("dmin", "{code}", "--sample", "50", "--seed", "3"),
        ("verify", "theorem7", "--m", "2"),
        ("verify", "weil"),
        ("bounds", "gv", "--n", "16", "--k", "6"),
        ("bounds", "k0", "--n", "113"),
        ("concat", "--m", "2", "--N", "4", "--K", "2", "--matrix"),
        ("figure", "fig1", "--format", "json"),
        ("figure", "fig3", "--n", "64", "--format", "json"),
        ("figure", "fig4", "--format", "json"),
    ],
    ids=" ".join,
)
def test_json_output_keeps_the_indented_layout(tmp_path, capsys, argv):
    """Every JSON leaf prints json.dumps(..., indent=2) text, one list item
    a line, and --out writes the same bytes."""
    code_path = tmp_path / "code.json"
    assert main(["construct", "deg1", "--n", "28", "--k", "4", "--out", str(code_path)]) == 0
    argv = [a.format(code=code_path) for a in argv]
    code, out, err = run_cli(capsys, *argv)
    assert (code, err) == (0, "")
    assert out == json.dumps(json.loads(out), indent=2) + "\n"
    out_path = tmp_path / "out.json"
    assert main([*argv, "--out", str(out_path)]) == 0
    assert out_path.read_bytes() == out.encode()


def test_rows_to_csv_round_trip():
    rows = [r._asdict() for r in fig4_rows()]
    text = rows_to_csv(rows, {"figure": "fig4", "a": 0.49})
    lines = text.splitlines()
    assert lines[0] == "# a=0.49"
    assert lines[1] == "# figure=fig4"
    assert lines[2] == ",".join(FIG_FIELDNAMES)
    body = [ln for ln in lines if not ln.startswith("#")]
    parsed = list(csv.DictReader(io.StringIO("\n".join(body))))
    assert len(parsed) == len(rows)
    assert parsed[0]["scheme"] == rows[0]["scheme"]
    assert float(parsed[0]["delta"]) == pytest.approx(rows[0]["delta"])


def test_rows_to_csv_plain_dicts():
    rows = fig1_rows(10, 100, 5)
    text = rows_to_csv(rows, {})
    parsed = list(csv.DictReader(io.StringIO(text)))
    assert len(parsed) == len(rows)
    assert set(parsed[0]) == {"n", "k0", "approx"}


def test_figure_json_round_trip(capsys):
    code, out, _ = run_cli(capsys, "figure", "fig4", "--format", "json")
    assert code == 0
    obj = json.loads(out)
    assert obj["config"] == {"tool": f"shadowcodes {__version__}", "command": "figure",
                             "figure": "fig4", "a": 0.49, "m_min": 2, "m_max": 10}
    assert [BoundPoint(**row) for row in obj["rows"]] == fig4_rows()


@pytest.mark.parametrize(
    "argv",
    [
        ("figure", "fig1", "--a", "0.3"),
        ("figure", "fig3", "--points", "5"),
        ("verify", "section6", "--m", "3"),
        ("verify", "theorem4", "--count", "5"),
        ("bounds", "k0", "--n", "113", "--k", "9"),
        ("construct", "deg2", "--q", "9", "--k", "1", "--e-size", "4"),
        ("construct", "deg1", "--q", "9", "--e-size", "7", "--seed", "5"),
        ("figure", "--format", "json", "fig4"),
        ("verify", "theorem6", "--n", "50"),
        ("verify", "theorem7", "--workers", "1"),
        ("dmin", "code.json", "--workers", "0"),
        ("dmin", "code.json", "--sample", "5", "--workers", "0"),
    ],
    ids=["fig1_a", "fig3_points", "section6_m", "theorem4_count", "k0_k", "deg2_e_size",
         "deg1_seed", "flag_before_leaf", "n_is_no_prefix_of_n_max", "theorem7_workers",
         "dmin_workers_zero", "dmin_sample_workers_zero"],
)
def test_flags_of_another_leaf_exit_two(capsys, argv):
    """Each leaf takes only the flags it reads, after the leaf name, so a
    flag of another leaf or of none exits 2.  The usage printed is that
    of the parser the words before the first flag reach, not the root's."""
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert out == ""
    words = itertools.takewhile(lambda a: not a.startswith("--"), argv)
    path = " ".join(w for w in words if not w.endswith(".json"))  # a descriptor is no parser
    assert err.startswith(f"usage: shadowcodes {path} ["), err


def _leaves(parser, path=()):
    """(leaf path, leaf parser) for every leaf, read off the parser's own subparsers."""
    subs = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    if not subs:
        return [(path, parser)]
    return [
        leaf for name, child in subs[0].choices.items() for leaf in _leaves(child, (*path, name))
    ]


def _leaf_options(parser) -> list:
    skip = (argparse._HelpAction, argparse._VersionAction)
    return [a for a in parser._actions if a.option_strings and not isinstance(a, skip)]


LEAVES = _leaves(build_parser())
FUZZ_INTS = [*range(-2, 10), 16, 25, 27, 49]
# verify theorem7 builds 2^m codes and scans each exactly: m = 8 takes 0.3 s
# and m = 9 1.2-1.6 s wall on a 2-CPU x86-64 host, so --m stops at 8; from
# m = 16 on GF(2^(m+1)) is past the table limit and exits 2
FUZZ_DRAWS = {
    "m": st.sampled_from([n for n in FUZZ_INTS if n != 9]),
}


@pytest.fixture(scope="module")
def fuzz_paths(tmp_path_factory):
    """Values for the string arguments: the one positional and --out."""
    d = tmp_path_factory.mktemp("fuzz")
    desc = d / "code.json"
    assert main(["construct", "deg1", "--n", "28", "--k", "4", "--out", str(desc)]) == 0
    return {"descriptor": str(desc), "out": str(d / "out.txt")}


def _draw_value(data, action, paths):
    if action.choices:
        return data.draw(st.sampled_from(sorted(action.choices)), label=action.dest)
    if action.type is int:
        draw = FUZZ_DRAWS.get(action.dest, st.sampled_from(FUZZ_INTS))
        return data.draw(draw, label=action.dest)
    if action.type is float:
        return data.draw(st.sampled_from([-1, 0, 0.25, 0.49, 0.5, 0.7]), label=action.dest)
    return paths[action.dest]  # a new string argument needs a value in fuzz_paths


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_every_leaf_exits_zero_one_or_two(fuzz_paths, data):
    """Fuzz every leaf over its own flags, with some dropped at random:
    parse errors and bad values exit 2, and nothing else escapes main."""
    path, leaf = data.draw(st.sampled_from(LEAVES), label="leaf")
    argv = list(path)
    for action in leaf._actions:
        if not action.option_strings:
            argv.append(str(_draw_value(data, action, fuzz_paths)))
    for action in _leaf_options(leaf):
        if data.draw(st.booleans(), label=f"give {action.dest}"):
            argv.append(action.option_strings[0])
            if action.nargs != 0:
                argv.append(str(_draw_value(data, action, fuzz_paths)))
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    assert code in (0, 1, 2), argv
    assert "Traceback" not in err.getvalue(), argv


def test_argparse_rejects_unknown(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["nonsense"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit):
        main([])


def test_console_script_version():
    """Covers `python -m shadowcodes.cli` (the module's `__main__` block)."""
    proc = subprocess.run(
        [sys.executable, "-m", "shadowcodes.cli", "--version"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout.strip() == f"shadowcodes {__version__}"


PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"

# What a generated console script does: set argv[0] to the command name,
# import the target, and exit with its return value called with no arguments.
CONSOLE_SCRIPT = """\
import importlib, sys
sys.argv[0] = "shadowcodes"
sys.exit(getattr(importlib.import_module({module!r}), {attr!r})())
"""


def test_installed_entry_point_runs():
    """Covers the `[project.scripts]` target, run as its console script runs it."""
    try:
        import tomllib
    except ModuleNotFoundError:  # Python 3.10
        tomllib = pytest.importorskip("tomli")
    with open(PYPROJECT, "rb") as fh:
        scripts = tomllib.load(fh)["project"]["scripts"]
    assert "shadowcodes" in scripts
    module, sep, attr = scripts["shadowcodes"].partition(":")
    assert sep and module and attr, scripts["shadowcodes"]
    code = CONSOLE_SCRIPT.format(module=module, attr=attr)
    proc = subprocess.run(
        [sys.executable, "-c", code, "bounds", "gv", "--n", "16", "--k", "6"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["d"] == 5


README_TEXT = (Path(__file__).resolve().parents[1] / "README.md").read_text()
README_COMMANDS = [
    shlex.split(line.removeprefix("$ "), comments=True)[1:]
    for block in re.findall(r"^```[^\n]*\n(.*?)^```", README_TEXT, flags=re.M | re.S)
    for line in block.splitlines()
    if line.removeprefix("$ ").startswith("shadowcodes ")
]


@pytest.mark.parametrize("argv", README_COMMANDS, ids=" ".join)
def test_readme_command_lines_parse(argv):
    """Every README command line parses under today's leaves; none is run."""
    try:
        build_parser().parse_args(argv)
    except SystemExit:
        pytest.fail(f"README command does not parse: shadowcodes {' '.join(argv)}")


def test_readme_lists_each_leafs_flags():
    rows = re.findall(r"^\| `([a-z0-9 ]+)` \| (.*) \|$", README_TEXT, flags=re.M)
    listed = {leaf: set(re.findall(r"`(--[A-Za-z][\w-]*)`", flags)) for leaf, flags in rows}
    declared = {
        " ".join(path): {o for a in _leaf_options(leaf) for o in a.option_strings} - {"--out"}
        for path, leaf in LEAVES
    }
    assert listed == declared
    assert len(README_COMMANDS) > 10
