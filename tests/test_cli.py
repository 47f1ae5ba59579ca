import doctest
import hashlib
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from crosscut import cli, families
from crosscut.cli import (
    BFileParseError,
    OutputRecord,
    cmd_altsum,
    cmd_homology,
    cmd_maximal,
    cmd_oeis_compare,
    cmd_scan_h2,
    cmd_table,
    main,
    parse_bfile,
)
from crosscut.complexes import coprime_free_collapsed
from crosscut.families import kind_from_name
from crosscut.homology import HomologyGroup, reduced_homology
from crosscut.lattice import FamilyLattice

import oracles

ROOT = Path(__file__).resolve().parent.parent
DATA = ROOT / "data" / "oeis"
PRIMITIVE = kind_from_name("primitive")


def test_render_formats():
    record = OutputRecord(
        "demo", (("x", "1"),), ("a", "b"), [(1, 2), (3, 4)], ["note"], "pass"
    )
    assert record.render("csv") == "a,b\n1,2\n3,4\n# note\n# verdict: pass"
    assert record.render("tsv") == "a\tb\n1\t2\n3\t4\n# note\n# verdict: pass"
    body = json.loads(record.render("json"))
    assert body == {
        "command": "demo",
        "parameters": {"x": "1"},
        "header": ["a", "b"],
        "rows": [[1, 2], [3, 4]],
        "comments": ["note"],
        "verdict": "pass",
    }
    with pytest.raises(ValueError):
        record.render("yaml")


def test_output_is_byte_identical_across_runs():
    for fmt in ("csv", "json", "tsv"):
        assert cmd_table(PRIMITIVE, 8, fmt) == cmd_table(PRIMITIVE, 8, fmt)
    assert cmd_scan_h2(1, 8) == cmd_scan_h2(1, 8)


def test_table_rows_match_counts():
    code, text = cmd_table(PRIMITIVE, 6)
    assert code == 0
    lines = text.splitlines()
    assert lines[0] == "n,k,count"
    tri = families.count_triangle(PRIMITIVE, 6)
    expected = [
        f"{n},{k},{tri.count(n, k)}" for n in range(1, 7) for k in range(n + 1)
    ]
    assert lines[1:] == expected


def test_table_frozen_corners():
    _, text = cmd_table(PRIMITIVE, 17, "json")
    payload = json.loads(text)["payload"]
    assert payload["17"][9] == oracles.EXPECTED_PRIMITIVE[17][9] == 10
    assert payload["13"][7] == 6
    assert len(payload) == 17 and len(payload["17"]) == 18
    _, text = cmd_table(kind_from_name("coprime"), 17, "json")
    assert json.loads(text)["payload"]["17"][8] == oracles.EXPECTED_COPRIME[17][8] == 8
    _, text = cmd_table(kind_from_name("productfree"), 12, "json")
    assert json.loads(text)["payload"]["12"][9] == oracles.EXPECTED_PRODUCT_FREE[12][9] == 1


def test_table_rejects_bad_n():
    with pytest.raises(ValueError):
        cmd_table(PRIMITIVE, 0)


def test_altsum_primitive_passes():
    code, text = cmd_altsum(PRIMITIVE, 2, 17)
    assert code == 0
    lines = text.splitlines()
    assert lines[-1] == "# verdict: pass"
    assert all(line.endswith(",pass") for line in lines[1:-1])
    assert lines[1] == "2,-1,-1,pass"


def test_altsum_smultiple_expected_value():
    code, text = cmd_altsum(kind_from_name("smultiple", 3), 6, 6)
    assert code == 0
    assert text.splitlines()[1] == "6,-6,-6,pass"


def test_altsum_pre_domain_rows_are_na():
    code, text = cmd_altsum(kind_from_name("productfree"), 1, 12)
    assert code == 0
    lines = text.splitlines()
    assert lines[1].startswith("1,") and lines[1].endswith(",n/a")
    assert all(line.endswith(",pass") for line in lines[2:-1])


def test_altsum_empirical_stabilization():
    code, text = cmd_altsum(kind_from_name("divisibilitychain"), 1, 10)
    assert code == 0
    lines = text.splitlines()
    assert "# verdict" not in text
    assert any("empirical stabilization at n=" in line for line in lines)
    assert lines[-2].endswith(",stable")


def test_altsum_empirical_no_tail():
    code, text = cmd_altsum(kind_from_name("coprimefree"), 3, 3)
    assert code == 0
    assert "# no stable tail in range" in text.splitlines()
    assert text.splitlines()[1].endswith(",observed")


# the families with no stated alternating-sum constant, whose altsum rows report
# an empirical stabilization instead of a verdict
EMPIRICAL = ("coprimefree", "distinctpairproducts", "nodivisorofpairproduct", "divisibilitychain")
ALTSUM_KINDS = [kind_from_name(name) for name in families.FAMILY_NAMES if name != "smultiple"]
ALTSUM_KINDS += [kind_from_name("smultiple", s) for s in (2, 3)]


@pytest.mark.parametrize("kind", ALTSUM_KINDS, ids=lambda k: k.label())
def test_altsum_is_empirical_exactly_without_a_constant(kind):
    code, text = cmd_altsum(kind, 1, 8)
    assert code == 0
    lines = text.splitlines()
    statuses = {line.rsplit(",", 1)[1] for line in lines[1:] if not line.startswith("#")}
    if kind.name in EMPIRICAL:
        assert statuses <= {"stable", "pre-threshold", "observed"}
        assert not any(line.startswith("# verdict") for line in lines)
    else:
        assert statuses <= {"pass", "n/a"}
        assert lines[-1] == "# verdict: pass"


def test_homology_collapsed_coprimefree():
    code, text = cmd_homology(kind_from_name("coprimefree"), 10)
    assert code == 0
    lines = text.splitlines()
    assert lines[1:4] == ["0,2,-", "1,0,-", "2,0,-"]
    assert lines[4] == "# complex has 4 vertices and 3 facets"


def test_homology_collapse_flag_preserves_ranks():
    kind = kind_from_name("smultiple", 2)
    _, collapsed = cmd_homology(kind, 5, 1)
    _, full = cmd_homology(kind, 5, 1, collapse=False)
    ranks = lambda text: [line.split(",")[1] for line in text.splitlines()[1:3]]
    assert ranks(collapsed) == ranks(full) == ["0", "3"]


def test_scan_h2_trivial_range():
    code, text = cmd_scan_h2(1, 8)
    assert code == 0
    lines = text.splitlines()
    assert lines[0] == "n,rank,torsion"
    assert all(line.split(",")[1] == "0" for line in lines[1:9])
    assert lines[-1] == "# no nontrivial H~2 in range"
    with pytest.raises(ValueError):
        cmd_scan_h2(1, 500)


def _linked_facets(c):
    return [f for f in c.facets if f & f - 1]


# 8 is not squarefree and 37 is prime, so at both starts the model differs from
# row n - 1's only in isolated vertices: a scan that began mid-run would reuse there
@pytest.mark.parametrize("lo, hi", [(8, 70), (37, 60)])
def test_scan_h2_rows_match_standalone_homology(lo, hi, monkeypatch):
    models = [coprime_free_collapsed(n) for n in range(lo, hi + 1)]
    rows = [tuple(line.split(",")) for line in cmd_scan_h2(lo, hi)[1].splitlines()[1 : hi - lo + 2]]
    want = []
    for n, c in enumerate(models, lo):
        group = reduced_homology(c, 2)[2]
        want.append((str(n), str(group.rank), "x".join(map(str, group.torsion)) or "-"))
    assert rows == want
    # every H~2 here is 0, so tag each elimination's group with its call number
    # to see which model each row's group came from
    eliminated = []

    def tagged(c, d_max):
        eliminated.append(c)
        return [HomologyGroup(0)] * d_max + [HomologyGroup(len(eliminated))]

    monkeypatch.setattr(cli, "reduced_homology", tagged)
    rows = cmd_scan_h2(lo, hi)[1].splitlines()[1 : hi - lo + 2]
    for c, row in zip(models, rows):
        call = int(row.split(",")[1])
        assert call > 0 and _linked_facets(eliminated[call - 1]) == _linked_facets(c), row
    changes = sum(_linked_facets(a) != _linked_facets(b) for a, b in zip(models, models[1:]))
    assert len(eliminated) == 1 + changes


def test_maximal_partition_report():
    code, text = cmd_maximal(PRIMITIVE, 4)
    assert code == 0
    lines = text.splitlines()
    assert lines[1:4] == ["0,1,1", "1,2,2 3", "2,2,3 4"]
    assert "# partition into m=2 classes" in lines
    assert "# class 0: coatoms 0" in lines
    assert "# class 1: coatoms 1 2" in lines


def test_maximal_enumerates_members_once(monkeypatch):
    calls = []
    members = families.members

    def counting(*args):
        calls.append(args)
        return members(*args)

    monkeypatch.setattr(families, "members", counting)
    assert len(FamilyLattice(families.PRODUCT_FREE, 10).coatoms()) == 6
    assert len(calls) == 1
    calls.clear()
    code, text = cmd_maximal(families.PRODUCT_FREE, 10)
    assert len(calls) == 1
    assert code == 0
    assert text == (
        "index,size,elements\n"
        "0,5,2 3 5 7 8\n"
        "1,6,2 5 6 7 8 9\n"
        "2,5,2 3 7 8 10\n"
        "3,7,3 4 5 6 7 8 10\n"
        "4,6,2 6 7 8 9 10\n"
        "5,7,4 5 6 7 8 9 10\n"
        "# partition into m=1 classes\n"
        "# class 0: coatoms 0 1 2 3 4 5"
    )


# perfbench's digests.json pins the stdout of every benchmark step; mobius steps
# are library calls, and test_criterion_6 already pins the scan-h2 rows
RECORDED = json.loads((ROOT / "perfbench" / "digests.json").read_text())


@pytest.mark.parametrize(
    "step", [key for key in sorted(RECORDED) if key.split()[0] not in ("mobius", "scan-h2")]
)
def test_cli_output_matches_recorded_digest(step, monkeypatch, capsys):
    monkeypatch.chdir(ROOT)  # b-file paths are relative to the repository root
    code = main(step.split())
    out = capsys.readouterr().out
    assert code == RECORDED[step]["exit"]
    assert hashlib.sha256(out.encode()).hexdigest() == RECORDED[step]["sha256"]


def test_maximal_failure_witness():
    code, text = cmd_maximal(kind_from_name("coprimefree"), 10)
    assert code == 0
    assert any("no partition: component [" in line for line in text.splitlines())
    assert any("disjoint witness pair:" in line for line in text.splitlines())


def test_parse_bfile():
    bfile = parse_bfile(DATA / "b051026.txt")
    assert bfile.id == "A051026"
    assert bfile.entries[0] == (1, 2)
    assert bfile.entries[-1] == (17, 3057)
    assert all(a[0] < b[0] for a, b in zip(bfile.entries, bfile.entries[1:]))


@pytest.mark.parametrize(
    "content",
    ["1 2\n2 3 4\n", "1 2\nx 3\n", "1 2\n2 3.5\n", "2 2\n1 3\n", "1 2\n1 3\n"],
)
def test_parse_bfile_rejects_malformed(tmp_path, content):
    path = tmp_path / "b000001.txt"
    path.write_text(content)
    with pytest.raises(BFileParseError):
        parse_bfile(path)


def test_parse_bfile_skips_comments_and_blanks(tmp_path):
    path = tmp_path / "b000001.txt"
    path.write_text("# header\n\n1 2\n\n# mid\n3 4\n")
    assert parse_bfile(path).entries == ((1, 2), (3, 4))


@pytest.mark.parametrize(
    "family,bfile",
    [
        ("primitive", "b051026.txt"),
        ("coprime", "b084422.txt"),
        ("productfree", "b326489.txt"),
    ],
)
def test_oeis_compare_shipped_files(family, bfile):
    code, text = cmd_oeis_compare(kind_from_name(family), DATA / bfile)
    assert code == 0
    assert text.splitlines()[-1] == "# verdict: pass"
    assert all(line.endswith(",pass") for line in text.splitlines()[1:-2])


def test_oeis_compare_mismatch(tmp_path):
    path = tmp_path / "b051026.txt"
    path.write_text("1 2\n2 3\n3 99\n")
    code, text = cmd_oeis_compare(PRIMITIVE, path)
    assert code == 1
    assert "3,5,99,fail" in text.splitlines()
    assert text.splitlines()[-1] == "# verdict: fail"


def test_oeis_compare_no_overlap(tmp_path):
    path = tmp_path / "b051026.txt"
    path.write_text("30 5\n31 6\n")
    code, text = cmd_oeis_compare(PRIMITIVE, path)
    assert code == 0
    assert "# no overlapping indices with A051026" in text.splitlines()


def test_main_prints_and_exits_zero(capsys):
    assert main(["table", "--family", "primitive", "--n", "5"]) == 0
    first = capsys.readouterr().out
    assert main(["table", "--family", "primitive", "--n", "5"]) == 0
    assert capsys.readouterr().out == first
    assert first.startswith("n,k,count\n")


SMULTIPLE_2 = kind_from_name("smultiple", 2)
BFILE = "data/oeis/b051026.txt"
SUBCOMMANDS = [
    ("table --family primitive --n 6", lambda: cmd_table(PRIMITIVE, 6)),
    (
        "altsum --family coprimefree --n-from 2 --n-to 9 --format json",
        lambda: cmd_altsum(kind_from_name("coprimefree"), 2, 9, "json"),
    ),
    (
        "homology --family smultiple --s 2 --n 7 --dmax 3 --no-collapse",
        lambda: cmd_homology(SMULTIPLE_2, 7, 3, False),
    ),
    ("scan-h2 --n-from 3 --n-to 12 --format tsv", lambda: cmd_scan_h2(3, 12, "tsv")),
    ("maximal --family productfree --n 10", lambda: cmd_maximal(families.PRODUCT_FREE, 10)),
    (
        f"oeis-compare --family primitive --bfile {BFILE} --guard-override 12",
        lambda: cmd_oeis_compare(PRIMITIVE, BFILE, guard=12),
    ),
]


@pytest.mark.parametrize("argv, call", SUBCOMMANDS, ids=[a.split()[0] for a, _ in SUBCOMMANDS])
def test_main_runs_each_subcommand(argv, call, monkeypatch, capsys):
    # the parser names each command's function, and main prints exactly its text
    monkeypatch.chdir(ROOT)  # the b-file path is relative to the repository root
    code, text = call()
    assert main(argv.split()) == code
    assert capsys.readouterr().out == text + "\n"


def test_main_reuses_its_parser_without_leaking_options(monkeypatch, capsys):
    # main builds its parser once per process, so --guard-override, --no-collapse
    # and --format from one call must not carry into the next, in either order
    monkeypatch.chdir(ROOT)
    expected = [(argv, call()) for argv, call in SUBCOMMANDS]
    for argv, (code, text) in [*expected, *reversed(expected)]:
        assert main(argv.split()) == code, argv
        assert capsys.readouterr().out == text + "\n", argv
    assert cli._build_parser() is cli._build_parser()


def test_main_closed_stdout_is_not_an_error():
    # a reader that stops after one line closes the pipe mid-write; the listing
    # (about 1 MB) outgrows the pipe buffer, so the write fails after the close.
    # capsys has no real file descriptor, hence the subprocess.
    args = [sys.executable, "-m", "crosscut.cli", *"maximal --family coprimefree --n 600".split()]
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    with subprocess.Popen(args, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env) as proc:
        assert proc.stdout.readline() == b"index,size,elements\n"
        proc.stdout.close()
        assert proc.stderr.read() == b""
        assert proc.wait(timeout=60) == 0


def test_main_writes_out_file(tmp_path, capsys):
    out = tmp_path / "table.csv"
    assert main(["table", "--family", "coprime", "--n", "4", "--out", str(out)]) == 0
    assert capsys.readouterr().out == ""
    body = out.read_text()
    assert body.endswith("\n") and body.startswith("n,k,count\n")


def test_main_unwritable_out_exits_two(tmp_path, capsys):
    out = tmp_path / "missing" / "x.csv"
    assert main(["table", "--family", "primitive", "--n", "3", "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert not out.exists()


def test_main_usage_errors_exit_two(capsys):
    assert main(["table", "--family", "nosuch", "--n", "5"]) == 2
    # the library checks n; the commands do not repeat it
    for command in ("table", "homology", "maximal"):
        assert main([command, "--family", "primitive", "--n", "0"]) == 2
        assert "error: need n >= 1, got 0" in capsys.readouterr().err
    assert main(["homology", "--family", "coprimefree", "--n", "0"]) == 2
    assert "error: need n >= 1, got 0" in capsys.readouterr().err
    assert main(["scan-h2", "--n-to", "500"]) == 2
    assert main([]) == 2
    capsys.readouterr()


def test_main_coprimefree_homology_limits(capsys):
    # the reduced model is capped like scan-h2, the full face complex by the guard
    assert main(["homology", "--family", "coprimefree", "--n", "201"]) == 2
    assert "error: coprime-free homology limited to n <= 200" in capsys.readouterr().err
    assert main(["homology", "--family", "coprimefree", "--n", "25", "--no-collapse"]) == 2
    assert "exceeds the enumeration guard 24" in capsys.readouterr().err
    assert main(["homology", "--family", "coprimefree", "--n", "200", "--dmax", "0"]) == 0
    assert main(["homology", "--family", "coprimefree", "--n", "24", "--no-collapse"]) == 0
    capsys.readouterr()


def test_main_guard_error_and_override(capsys):
    assert main(["table", "--family", "divisibilitychain", "--n", "25"]) == 2
    captured = capsys.readouterr()
    assert "error:" in captured.err
    args = ["table", "--family", "divisibilitychain", "--n", "25", "--guard-override", "26"]
    assert main(args) == 0
    captured = capsys.readouterr()
    assert "warning: enumeration guard raised to 2^26" in captured.err
    assert captured.out.startswith("n,k,count\n")
    # an override below the default lowers the guard, and says so
    assert main(["table", "--family", "primitive", "--n", "3", "--guard-override", "3"]) == 0
    captured = capsys.readouterr()
    assert "warning: enumeration guard lowered to 2^3" in captured.err
    assert "raised" not in captured.err


def test_main_homology_dmax_is_guarded(capsys):
    # d_max + 1 output rows may not pass 2^guard: a guard of 4 allows 16
    args = ["homology", "--family", "primitive", "--n", "4", "--guard-override", "4"]
    assert main([*args, "--dmax", "15"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "d,rank,torsion" and lines[16] == "15,0,-" and len(lines) == 18
    assert main([*args, "--dmax", "16"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "error: --dmax 16 asks for 17 rows, over 2^4" in captured.err


def test_cli_import_loads_no_dataclasses():
    # every command starts a fresh interpreter, so crosscut.cli's imports are
    # paid on each run; dataclasses alone pulls in inspect, ast and tokenize
    code = "import crosscut.cli, sys; print('dataclasses' in sys.modules)"
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    result = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert (result.returncode, result.stdout) == (0, "False\n"), result.stderr


def test_main_guard_override_below_one_exits_two(capsys):
    # a guard of 2^0 checks no row at all, so it must not print a passing verdict
    for value in ("0", "-1"):
        args = ["oeis-compare", "--family", "primitive", "--bfile", str(DATA / "b051026.txt")]
        assert main([*args, "--guard-override", value]) == 2
        captured = capsys.readouterr()
        assert f"error: --guard-override needs N >= 1, got {value}" in captured.err
        assert "raised to" not in captured.err
        assert captured.out == ""


def test_main_bad_bfile_exits_two(tmp_path, capsys):
    path = tmp_path / "b000001.txt"
    path.write_text("1 2\n2 3 4\n")
    args = ["oeis-compare", "--family", "primitive", "--bfile", str(path)]
    assert main(args) == 2
    assert "error:" in capsys.readouterr().err
    missing = ["oeis-compare", "--family", "primitive", "--bfile", str(tmp_path / "nope.txt")]
    assert main(missing) == 2
    capsys.readouterr()


# survey_digests.json pins the 27 CSVs that scripts/run_survey.py writes with its
# defaults: count tables, alternating sums and maximal listings for every family
SURVEY = json.loads((Path(__file__).parent / "survey_digests.json").read_text())


def test_survey_matches_recorded_digests(tmp_path, capsys):
    spec = importlib.util.spec_from_file_location("run_survey", ROOT / "scripts" / "run_survey.py")
    survey = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(survey)
    assert survey.main(["--out-dir", str(tmp_path)]) == 0
    got = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in tmp_path.iterdir()}
    assert got == SURVEY


def test_readme_library_examples():
    result = doctest.testfile(str(ROOT / "README.md"), module_relative=False)
    assert result.attempted and not result.failed
