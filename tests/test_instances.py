"""Instance documents, pipeline verdicts, report/DOT output, CLI behavior."""

import hashlib
import json
import re
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import tracktree
from tracktree import (
    InstanceSpec,
    corpus,
    crossing_exhibit,
    dot_document,
    fig1_exhibit,
    instance_to_text,
    parse_instance_text,
    random_nested_family,
    report_document,
    run_instance,
)
from tracktree.cli import _error_line, build_parser, command_parser, main
from tracktree.errors import ParseError, TrackTreeError
from tracktree.instances import Expectations, make_model
from tracktree.reports import FAIL, PASS, UNCERTIFIED, CheckResult, Report

INSTANCE_DIR = Path(__file__).resolve().parent.parent / "demos" / "instances"
# the directory the package was imported from, for subprocesses with a bare environment
PACKAGE_PATH = str(Path(tracktree.__file__).resolve().parent.parent)


# --------------------------------------------------------------------------
# parsing


def test_corpus_round_trips_through_text():
    for name, spec in corpus().items():
        assert parse_instance_text(instance_to_text(spec)) == spec, name


def test_explicit_round_trip():
    spec = crossing_exhibit()
    assert parse_instance_text(instance_to_text(spec)) == spec


def test_parse_rejects_margin_at_least_radius():
    text = instance_to_text(corpus()["E1"]).replace("margin = 2", "margin = 9")
    with pytest.raises(ParseError):
        parse_instance_text(text)


def test_parse_rejects_radius_below_twice_margin():
    text = instance_to_text(corpus()["E1"]).replace("radius = 8", "radius = 3")
    with pytest.raises(ParseError):
        parse_instance_text(text)


def test_parse_rejects_missing_identity_translation():
    text = instance_to_text(corpus()["E1"]).replace("TT, T, 1, t, tt", "t, tt")
    with pytest.raises(ParseError):
        parse_instance_text(text)


def test_parse_rejects_bad_rule():
    text = instance_to_text(corpus()["E1"]).replace("rule = t in", "rule = t sideways")
    with pytest.raises(ParseError):
        parse_instance_text(text)


def test_parse_rejects_stray_keys():
    with pytest.raises(ParseError):
        parse_instance_text("name = foo\n")


def test_shipped_instance_files_parse_to_corpus():
    shipped = {**corpus(), "crossing": crossing_exhibit(), "fig1": fig1_exhibit()}
    for name, spec in shipped.items():
        parsed = parse_instance_text((INSTANCE_DIR / f"{name}.ini").read_text())
        assert parsed == spec, name


# --------------------------------------------------------------------------
# pipeline verdicts


def test_corpus_all_pass():
    for name, spec in corpus().items():
        result = run_instance(spec)
        assert result.report.status == "pass", (name, result.report.witnesses)
        assert result.report.exit_code() == 0


def test_expectations_checked():
    spec = corpus()["E1"]
    wrong = spec._replace(expectations=spec.expectations._replace(tree_vertices=7))
    result = run_instance(wrong)
    assert result.report.status == "fail"
    assert any(c.name == "expectations" and c.status == "fail" for c in result.report.checks)


def test_crossing_exhibit_fails_with_witness():
    result = run_instance(crossing_exhibit())
    assert result.report.status == "fail"
    nest = [c for c in result.report.checks if c.name == "nestedness"][0]
    assert nest.status == "fail"
    assert "a" in nest.witness and "b" in nest.witness
    assert result.report.exit_code() == 2


def test_fig1_exhibit_passes():
    result = run_instance(fig1_exhibit())
    assert result.report.status == "pass"
    assert result.report.counts["tree_vertices"] == 8


def test_radius_margin_overrides():
    result = run_instance(corpus()["E1"], radius=10, margin=2)
    assert result.report.status == "pass"
    assert result.report.counts["omega"] == 21


def test_uncertified_run_aborts():
    spec = corpus()["E1"]._replace(radius=4, margin=1, translations=("1", "tttt"))
    result = run_instance(spec)
    assert result.report.status == "uncertified"
    assert result.report.exit_code() == 3
    assert result.report.checks[-1].name == "family_certification"


# --------------------------------------------------------------------------
# report and DOT documents


def test_report_document_deterministic():
    spec = corpus()["E2"]
    doc1 = report_document(run_instance(spec).report)
    doc2 = report_document(run_instance(spec).report)
    assert doc1 == doc2
    payload = json.loads(doc1)
    assert payload["timing_ms"] == 0
    assert list(payload) == ["instance", "status", "counts", "checks", "witnesses", "timing_ms"]


# text with the characters json escapes: quotes, backslashes, control
# characters and non-ASCII, besides any other
_TEXT = st.text(st.one_of(st.sampled_from('"\\/\x00\x1f\x7f\n\t\u00e9\u2028\U0001f600'),
                          st.characters()), max_size=8)


@st.composite
def reports(draw):
    checks = draw(st.lists(st.builds(CheckResult, _TEXT, st.sampled_from([PASS, FAIL, UNCERTIFIED]),
                                     st.none() | _TEXT), max_size=4))
    counts = draw(st.dictionaries(_TEXT, st.integers(), max_size=4))
    return Report(draw(_TEXT), checks, counts,
                  draw(st.floats(0, 1e7, allow_nan=False) | st.integers(0, 10 ** 6)))


@settings(max_examples=300, deadline=None)
@given(reports(), st.booleans())
def test_report_document_is_json_dumps_indent_2(report, include_timings):
    doc = {
        "instance": report.instance,
        "status": report.status,
        "counts": {k: report.counts[k] for k in sorted(report.counts)},
        "checks": [{"name": c.name, "status": c.status, "witness": c.witness}
                   for c in report.checks],
        "witnesses": report.witnesses,
        "timing_ms": round(report.timing_ms, 3) if include_timings else 0,
    }
    assert report_document(report, include_timings) == json.dumps(doc, indent=2) + "\n"


def test_failing_checks_always_carry_witnesses():
    result = run_instance(crossing_exhibit())
    payload = json.loads(report_document(result.report))
    for check in payload["checks"]:
        if check["status"] == "fail":
            assert check["witness"]
    assert payload["witnesses"]


def test_dot_document_shape():
    result = run_instance(corpus()["E1"])
    dot = dot_document(result.tree, "E1")
    assert dot.startswith('graph "E1" {')
    assert 'label="o", shape=doublecircle' in dot
    assert dot.count(" -- ") == 4
    assert '[label="1"]' in dot  # the identity coset labels one edge


# --------------------------------------------------------------------------
# CLI


def test_cli_check_pass(capsys):
    code = main(["check", str(INSTANCE_DIR / "E1.ini")])
    out = capsys.readouterr().out
    assert code == 0
    assert json.loads(out)["status"] == "pass"


def test_cli_check_multiple_jobs(capsys):
    paths = [str(INSTANCE_DIR / f"{n}.ini") for n in ("E1", "E2", "E3", "E4")]
    code = main(["check", *paths])
    assert code == 0
    out = capsys.readouterr().out
    # one report per file, in the order given
    assert [line for line in out.splitlines() if line.startswith('  "instance"')] == [
        f'  "instance": "{n}",' for n in ("E1", "E2", "E3", "E4")]
    assert out.count('"status": "pass"') >= 4


def test_cli_crossing_exit_code(capsys):
    code = main(["check", str(INSTANCE_DIR / "crossing.ini")])
    assert code == 2
    capsys.readouterr()


def test_cli_input_error(tmp_path, capsys):
    bad = tmp_path / "bad.ini"
    bad.write_text(instance_to_text(corpus()["E1"]).replace("margin = 2", "margin = 9"))
    assert main(["check", str(bad)]) == 4
    assert "input error" in capsys.readouterr().err
    bad.write_text(instance_to_text(corpus()["E1"]).replace(
        "margin = 2", "margin = 2\naction_radius = -1"))
    assert main(["check", str(bad)]) == 4
    assert "input error" in capsys.readouterr().err


def test_cli_missing_file(capsys):
    assert main(["check", "/nonexistent/spec.ini"]) == 4
    capsys.readouterr()


def test_cli_tree_dot(capsys):
    code = main(["tree", str(INSTANCE_DIR / "E4.ini")])
    out = capsys.readouterr().out
    assert code == 0 and out.startswith('graph "E4"')


def test_cli_tree_dot_title_is_one_quoted_id(tmp_path, capsys):
    name = r'my "E1" \\ test'
    spec = tmp_path / "named.ini"
    spec.write_text((INSTANCE_DIR / "E1.ini").read_text().replace("name = E1", f"name = {name}"))
    code = main(["tree", str(spec)])
    first = capsys.readouterr().out.splitlines()[0]
    # a quoted ID runs to the first quote not escaped by a backslash
    match = re.fullmatch(r'graph "((?:[^"\\]|\\.)*)" \{', first)
    assert code == 0 and match, first
    assert re.sub(r"\\(.)", r"\1", match.group(1)) == name


def test_cli_tree_dot_labels_are_quoted_ids(tmp_path, capsys):
    # explicit keys may hold quotes and backslashes: every label is one quoted ID
    spec = tmp_path / "quoted.ini"
    spec.write_text("[instance]\nname = quoted\nmode = explicit\n\n"
                    '[universe]\nkeys = a"b c\\d e\n\n'
                    '[vertices]\nvertex = u :\nvertex = v : a"b\nvertex = w : a"b c\\d\n')
    code = main(["tree", str(spec)])
    lines = capsys.readouterr().out.splitlines()[2:-1]
    labels = []
    for line in lines:
        match = re.fullmatch(r'  B\d+(?: -- B\d+)? \[label="((?:[^"\\]|\\.)*)"'
                             r'(?:, shape=doublecircle)?\];', line)
        assert match, line
        labels.append(re.sub(r"\\(.)", r"\1", match.group(1)))
    assert code == 0
    assert labels == ["o", '{a"b}', '{a"b,c\\d}', 'a"b', "c\\d"]


def test_cli_tree_report(capsys):
    # `tree` prints DOT only; the report of the same run is the one `check` prints
    e2 = str(INSTANCE_DIR / "E2.ini")
    code = main(["check", e2])
    out = capsys.readouterr().out
    assert code == 0 and json.loads(out)["instance"] == "E2"
    code = main(["tree", e2])
    assert code == 0 and capsys.readouterr().out.startswith('graph "E2"')


def test_cli_oracle(capsys):
    code = main(["oracle", str(INSTANCE_DIR / "E3.ini")])
    out = json.loads(capsys.readouterr().out)
    assert code == 0
    assert out["orientations_match"] and out["all_within_class"]


def test_cli_demo(capsys):
    code = main(["demo", "E1"])
    out = capsys.readouterr().out
    assert code == 0 and "graph" in out
    assert main(["demo", "E9"]) == 4
    capsys.readouterr()


def test_cli_random(capsys):
    code = main(["random", "--seed", "11"])
    out = json.loads(capsys.readouterr().out)
    assert code == 0 and out["status"] == "pass"
    for classes in ("0", "-1"):
        assert main(["random", "--seed", "1", "--classes", classes]) == 4
        assert "input error: --classes must be at least 1" in capsys.readouterr().err


def random_round_trip(seed, classes=None):
    """`random` as it ran before it handed its family to ``run_family``: the
    family written out key by key as an explicit spec, which ``run_instance``
    builds again; (exit code, report document)."""
    family, info = random_nested_family(seed, exact_classes=classes)
    spec = InstanceSpec(
        name=f"random-{seed}", mode="explicit",
        universe=tuple(family.universe),
        explicit_vertices=tuple((v.name, tuple(family.keys_of(v.members))) for v in family.vertices),
        expectations=Expectations(
            nested=True, tree_vertices=info.tree_vertex_count,
            tree_edges=info.tree_edge_count,
            class_sizes=tuple(sorted(info.class_sizes))),
    ).validate()
    result = run_instance(spec)
    return result.report.exit_code(), report_document(result.report)


@pytest.mark.parametrize("classes", [None, 1, 2, 5, 9, 15, 40])
def test_cli_random_reports_as_the_round_trip_did(capsys, classes):
    # 15 classes fill the pattern layer's 16-vertex cap and 40 exceed it
    for seed in range(6):
        argv = ["random", "--seed", str(seed)] + ["--classes", str(classes)] * (classes is not None)
        code = main(argv)
        assert (code, capsys.readouterr().out) == random_round_trip(seed, classes), argv


def test_cli_random_has_no_window_options(capsys):
    # an explicit family has no window for --radius or --margin to set
    for option in ("--radius", "--margin"):
        code, out, err = _run(main, ["random", "--seed", "1", option, "2"], capsys)
        assert (code, out) == (2, "")
        assert f"unrecognized arguments: {option} 2" in err


def test_cli_out_file(tmp_path, capsys):
    target = tmp_path / "report.json"
    code = main(["check", str(INSTANCE_DIR / "E1.ini"), "--out", str(target)])
    capsys.readouterr()
    assert code == 0
    assert json.loads(target.read_text())["status"] == "pass"


def test_cli_calls_in_one_process_keep_no_options(capsys):
    # main() builds its parser once per process; an option given to one call
    # must not carry over to the next, so each report equals that of a call
    # on a freshly built parser
    assert build_parser() is build_parser()
    e3, e2 = str(INSTANCE_DIR / "E3.ini"), str(INSTANCE_DIR / "E2.ini")
    calls = [["check", e3, "--radius", "7"], ["check", e3],
             ["check", e2, "--radius", "7", "--margin", "3"], ["check", e2],
             ["tree", e3, "--radius", "7"], ["tree", e3]]
    reused = []
    for argv in calls:
        code = main(argv)
        reused.append((code, capsys.readouterr().out))
    fresh = []
    for argv in calls:
        build_parser.cache_clear()
        command_parser.cache_clear()
        code = main(argv)
        fresh.append((code, capsys.readouterr().out))
    assert reused == fresh
    assert reused[0] != reused[1] and reused[2] != reused[3]
    assert reused[4][1].startswith('graph "E3"') and reused[5][1].startswith('graph "E3"')


def test_cli_timings_only_where_a_report_reads_them(capsys):
    # tree prints DOT and oracle its own document: neither has timings to show
    parser, e1 = build_parser(), str(INSTANCE_DIR / "E1.ini")
    for argv in (["tree", e1, "--timings"], ["oracle", e1, "--timings"]):
        with pytest.raises(SystemExit) as exc:
            parser.parse_args(argv)
        assert exc.value.code == 2
        assert "unrecognized arguments: --timings" in capsys.readouterr().err
    for argv in (["check", e1, "--timings"], ["demo", "E1", "--timings"],
                 ["random", "--seed", "1", "--timings"]):
        assert parser.parse_args(argv).timings


E1_PATH, E2_PATH = str(INSTANCE_DIR / "E1.ini"), str(INSTANCE_DIR / "E2.ini")

# argv cases where main's one-command parser must act as the full parser does
PARSER_CASES = {
    "help": ["--help"],
    "check --help": ["check", "--help"],
    "tree --help": ["tree", "--help"],
    "oracle --help": ["oracle", "--help"],
    "demo --help": ["demo", "--help"],
    "random --help": ["random", "-h"],
    "help abbreviated": ["check", E1_PATH, "--he"],
    "no arguments": [],
    "unknown command": ["verify", E1_PATH],
    "missing positional": ["check"],
    "missing positional (tree)": ["tree"],
    "missing required option": ["random"],
    "missing option argument": ["check", E1_PATH, "--out"],
    "--radius x": ["check", E1_PATH, "--radius", "x"],
    "unknown option": ["check", E1_PATH, "--bogus"],
    "tree --timings": ["tree", E1_PATH, "--timings"],
    "oracle --timings": ["oracle", E1_PATH, "--timings"],
    "extra positional": ["tree", E1_PATH, E2_PATH],
    "extra positional (demo)": ["demo", "E1", "E2"],
    "option before positional": ["check", "--radius", "6", E1_PATH],
    "--rad 6": ["check", E1_PATH, "--rad", "6"],
    "--": ["check", "--", E1_PATH],
    "two files": ["check", E1_PATH, E2_PATH],
    "handler input error": ["random", "--seed", "1", "--classes", "0"],
    "missing file": ["tree", str(INSTANCE_DIR / "missing.ini")],
    "random": ["random", "--seed", "2", "--classes", "3"],
    "random --radius": ["random", "--seed", "1", "--radius", "2"],
    "demo": ["demo", "E4", "--margin", "3"],
}


def _full_parser_main(argv):
    # main as it was before the one-command parsers: the full parser, then the handler
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except TrackTreeError as exc:
        sys.stderr.write(f"{_error_line(exc)}\n")
        return 4


def _run(entry, argv, capsys):
    try:
        code = entry(list(argv))
    except SystemExit as exc:
        code = exc.code
    out, err = capsys.readouterr()
    return code, out, err


@pytest.mark.parametrize("argv", PARSER_CASES.values(), ids=PARSER_CASES)
def test_cli_command_parser_acts_as_the_full_parser(capsys, argv):
    # help, usage errors, exit codes and documents are byte-identical
    assert _run(main, argv, capsys) == _run(_full_parser_main, argv, capsys)


def test_cli_command_run_builds_no_full_parser(capsys):
    build_parser.cache_clear()
    command_parser.cache_clear()
    assert main(["check", E1_PATH]) == 0
    assert json.loads(capsys.readouterr().out)["status"] == "pass"
    assert build_parser.cache_info().currsize == 0
    assert command_parser.cache_info().currsize == 1


def test_corpus_report_bytes_golden(capsys):
    # locks the report bytes of the shipped instances; a deliberate change to
    # this hash is explained in CHANGES.md
    main(["check", *sorted(str(p) for p in INSTANCE_DIR.glob("*.ini"))])
    out = capsys.readouterr().out
    assert hashlib.md5(out.encode()).hexdigest() == "37a461f1d466ced4896a5c25b23d6c36"


# stdout md5 of `tree` (DOT) and `oracle` on each shipped instance; the crossing
# instance has no tree, so its `tree` prints nothing on stdout
TREE_AND_ORACLE_GOLDEN = {
    "E1.ini": ("e68f82da94bc789f904ac70200d1bf42", "4ff04549ab3998878a5156a70b3144aa"),
    "E2.ini": ("fa143f01ba3827806c777f92687617a8", "d89de6eee770d8334e58024817417d66"),
    "E3.ini": ("087e43fd9c07fbea7e536063fcdcb070", "5ab9842548e2efb2234106d84b9ba924"),
    "E4.ini": ("0a9ef307bc4e5d39c9f3474cab7f2f9a", "525b89df3c2b37550904ba570caed8a9"),
    "crossing.ini": ("d41d8cd98f00b204e9800998ecf8427e", "1e10350d8a45e43bbf5f9de4f0bd34d1"),
    "fig1.ini": ("9788eaee5c259cdfa968b6593f5f25be", "eb01f6dbd4a8e7a91521c1a8212b47d8"),
}


def test_tree_and_oracle_bytes_golden(capsys):
    assert sorted(TREE_AND_ORACLE_GOLDEN) == sorted(p.name for p in INSTANCE_DIR.glob("*.ini"))
    for name, (tree_md5, oracle_md5) in TREE_AND_ORACLE_GOLDEN.items():
        for command, want in (("tree", tree_md5), ("oracle", oracle_md5)):
            main([command, str(INSTANCE_DIR / name)])
            out = capsys.readouterr().out
            assert hashlib.md5(out.encode()).hexdigest() == want, (command, name)


# stdout md5 of each demo script; demo 04 prints tree flips and demo 05 stabilizers
DEMO_GOLDEN = {
    "01_group_words.py": "5ac736c639a08631fc627eef27544ff8",
    "02_windows_and_hypotheses.py": "21db5eac9047d21566be0f2dafd40f90",
    "03_pattern_combinatorics.py": "acae7cdc31d88f3390a89c8b1e204577",
    "04_dual_tree.py": "d3bdca46432d5895bfa18b618129bfd2",
    "05_action_and_stabilizers.py": "c0936b23ad54a33a040bec10785cefb8",
}


def test_demo_output_golden():
    demo_dir = INSTANCE_DIR.parent
    assert sorted(DEMO_GOLDEN) == sorted(p.name for p in demo_dir.glob("*.py"))
    for name, want in DEMO_GOLDEN.items():
        for seed in ("1", "2"):
            proc = subprocess.run(
                [sys.executable, str(demo_dir / name)], capture_output=True,
                env={"PYTHONHASHSEED": seed, "PATH": "", "PYTHONPATH": PACKAGE_PATH})
            assert proc.returncode == 0, proc.stderr
            assert hashlib.md5(proc.stdout).hexdigest() == want, (name, seed)


# (instance, radius, margin) -> (exit code, stdout md5) of `check` at two window
# sizes per instance besides the shipped one, and E3 over radius 5-10; E3 at
# margin 1 is uncertified: its translation bb is longer than the margin, and
# the witness says to raise the margin.  E3 at radius 9 and 10 passes with no
# radius + 2 ball, which is over the element cap there: its differences are
# certified by the Stallings core bound.  E3 at margin 3
# reaches the words BAb and Bab, which fix its base set too: its expected K
# is not exact, so it passes
CHECK_WINDOW_GOLDEN = {
    ("E1", 6, 2): (0, "d28a753d11087f37ecd4a2f8efd3d060"),
    ("E1", 10, 3): (0, "c53ea23c52c108f8c4b96df38bde98f7"),
    ("E2", 5, 2): (0, "89c2a66a00d755e42ad1ef9200d9f56c"),
    ("E2", 8, 3): (0, "8763f27e0ba6ce7ffcfd0829bf27ed2c"),
    ("E3", 5, 1): (3, "fe0601aba09e27b0cef242488f2c5bcf"),
    ("E3", 7, 3): (0, "c538ad5523b27c63afab03a427f35884"),
    ("E4", 6, 2): (0, "423d8a37a81173cc4199bc0fd41c7901"),
    ("E4", 9, 3): (0, "066f634e26895f3b0de4066bed9468ad"),
    ("E3", 5, 2): (0, "533165f49d7f00a87ecb5a8da0b5b32d"),
    ("E3", 6, 2): (0, "d244855b80feaee3ffbbcef3ee4de626"),
    ("E3", 7, 2): (0, "1422ffe12f4d069692fd0b30c68ac77b"),
    ("E3", 8, 2): (0, "4aff313820020e341c0f632f45fc515e"),
    ("E3", 9, 2): (0, "dcae43be114c33f44db3fbc7ba1bf201"),
    ("E3", 10, 2): (0, "7c542a32b99db364b3dc394caa615384"),
}


@pytest.mark.parametrize("name,radius,margin", sorted(CHECK_WINDOW_GOLDEN))
def test_check_window_sizes_golden(capsys, name, radius, margin):
    code = main(["check", str(INSTANCE_DIR / f"{name}.ini"),
                 "--radius", str(radius), "--margin", str(margin)])
    out = capsys.readouterr().out
    assert (code, hashlib.md5(out.encode()).hexdigest()) == CHECK_WINDOW_GOLDEN[name, radius, margin]


# the free-product instance C of the benchmark's group ladder, kept out of the
# shipped corpus: Z2*Z2*Z2 over <st>, the one group here whose subgroup is cyclic
# of infinite order
FREE_PRODUCT_C = """[instance]
name = C

[group]
kind = free_product_cyclic
orders = 2,2,2
letters = stu

[window]
radius = 5
margin = 2

[subgroup]
generators = st

[base_set]
default = out
rule = s in

[translations]
elements = 1, s, t, u

[expected_k]
generators = st
exact = false
"""

# radius -> (exit code, stdout md5) of `check` on C at margin 2
C_CHECK_GOLDEN = {
    5: (0, "7241a6686f58f4b9d74951ba51542623"),
    6: (0, "11d05fc4b4cf4d8ab6a6686d22934319"),
}


@pytest.mark.parametrize("radius", sorted(C_CHECK_GOLDEN))
def test_free_product_check_golden(tmp_path, capsys, radius):
    spec = tmp_path / "C.ini"
    spec.write_text(FREE_PRODUCT_C)
    code = main(["check", str(spec), "--radius", str(radius), "--margin", "2"])
    out = capsys.readouterr().out
    assert (code, hashlib.md5(out.encode()).hexdigest()) == C_CHECK_GOLDEN[radius]


# Z3*Z4 over <tt>: every factor of C has order 2, so only here do the steps of
# translates, walks and the regrowth include syllables longer than one letter
# (ss, tt, ttt) and inverses of another length (t and ttt)
FREE_PRODUCT_Z3_Z4 = FREE_PRODUCT_C.replace("name = C", "name = Z3*Z4").replace(
    "orders = 2,2,2\nletters = stu", "orders = 3,4\nletters = st").replace(
    "generators = st", "generators = tt").replace(
    "elements = 1, s, t, u", "elements = 1, s, ss, t, tt")

# radius -> (exit code, stdout md5) of `check` on Z3*Z4 at margin 3
Z3_Z4_CHECK_GOLDEN = {
    6: (0, "5cb317c5ef88d41b06f86e8ed7ef8365"),
    8: (0, "cec5a9fab352f3c865075159649832ae"),
}


@pytest.mark.parametrize("radius", sorted(Z3_Z4_CHECK_GOLDEN))
def test_free_product_syllable_check_golden(tmp_path, capsys, radius):
    spec = tmp_path / "Z3_Z4.ini"
    spec.write_text(FREE_PRODUCT_Z3_Z4)
    code = main(["check", str(spec), "--radius", str(radius), "--margin", "3"])
    out = capsys.readouterr().out
    assert (code, hashlib.md5(out.encode()).hexdigest()) == Z3_Z4_CHECK_GOLDEN[radius]


def test_free_product_hint_names_a_long_inverse(tmp_path, capsys):
    # the walk that certifies a translate by st takes (st)^-1 = tttss, five
    # letters against st's two: past the margin 3, no radius certifies it
    spec = tmp_path / "Z3_Z4.ini"
    spec.write_text(FREE_PRODUCT_Z3_Z4.replace("elements = 1, s, ss, t, tt", "elements = 1, s, st"))
    for radius in (8, 10):
        assert main(["check", str(spec), "--radius", str(radius), "--margin", "3"]) == 3
        assert json.loads(capsys.readouterr().out)["witnesses"] == [
            "uncertified difference for (1, st): translate undecided inside the core; "
            "translation's inverse tttss longer than the margin 3; raise the margin"]
    # raising the margin past |tttss| certifies the family, as the hint says
    assert main(["check", str(spec), "--radius", "10", "--margin", "5"]) == 2
    report = json.loads(capsys.readouterr().out)
    assert report["status"] == "fail"
    assert any("inverse of s escapes the class union" in w for w in report["witnesses"])
    assert all(c["status"] != "uncertified" for c in report["checks"])


SEVERAL_WORDS = """[instance]
name = several-words

[group]
kind = free_product_cyclic
orders = {orders}
letters = stu

[window]
radius = {radius}
margin = 2

[subgroup]
generators = {generators}

[base_set]
rule = t in

[translations]
elements = 1, s, u, t
"""


def test_free_product_subgroups_of_several_words_end_in_reports(tmp_path, capsys):
    # <sut, utus> in Z2*Z2*Z2 lies in no factor and is not cyclic: every line passes
    spec = tmp_path / "several.ini"
    spec.write_text(SEVERAL_WORDS.format(orders="2, 2, 2", radius=6, generators="sut, utus"))
    assert main(["check", str(spec)]) == 0
    report = json.loads(capsys.readouterr().out)
    assert all(c["status"] == "pass" for c in report["checks"])
    counts = report["counts"]
    assert (counts["omega"], counts["core_keys"], counts["family_vertices"],
            counts["tree_vertices"]) == (65, 17, 3, 4)
    # <ut, utuu, tuus> is all of Z2*Z2*Z3: one coset, and the empty base set is not proper
    spec.write_text(SEVERAL_WORDS.format(orders="2, 2, 3", radius=4, generators="ut, utuu, tuus"))
    assert main(["check", str(spec)]) == 2
    report = json.loads(capsys.readouterr().out)
    assert report["counts"]["omega"] == 1
    assert report["witnesses"] == ["base set is empty"]


# seed -> (exit code, stdout md5) of `random --seed`
RANDOM_GOLDEN = {
    0: (0, "e0c5a33eca49e7111b9d3909fbe39577"),
    1: (0, "1aacd017820ba45678a0575c7fcf638f"),
    2: (0, "d2b7aa5994e859847b23bdc6c2aa6744"),
    3: (0, "aad7923e250715098a6e97bf837f217c"),
    4: (0, "d6044c71b0e61ede2a773c8eca5fce8f"),
    5: (0, "f7fe930918fda68ef73a3ecd252c9b71"),
    6: (0, "d5d7f82d6e544496fc26de9bf15d78ef"),
    7: (0, "ac012ae14528f4a6e211acc692a743a0"),
    8: (0, "c75d846394af89e15a1936470e0b0c92"),
    9: (0, "c97963184eb4f9214519c5b84dc7c791"),
    10: (0, "fdc93621b8d7cd6c11845cd1ba26f64f"),
    11: (0, "b8453f088e365291d56d54559df874ea"),
    12: (0, "da834e1f35ee7c87dd5642ad2e8901b8"),
    13: (0, "e773848a076d5006011fc34791458ed5"),
    14: (0, "69e654c2796c341b588f62c462c4be37"),
    15: (0, "ef6173bf8b4f06ec624f432163d07afe"),
    16: (0, "d1b8b290f50d66d9b5abc0d1f42a73ae"),
    17: (0, "21995c084ff6de259f5f202f9a17482a"),
    18: (0, "57eccb0273d2b7c5fe614aec2b3a4e66"),
    19: (0, "ec2c72efc6ad9327b1bd4b7fe61a92ac"),
    20: (0, "6040cecfed2b89603ca746137eea47e7"),
    21: (0, "e0626c673e5e6322c95df103b94c4107"),
    22: (0, "e06e58da7cc17b62f1fa83bee86c2829"),
    23: (0, "b0380aa8030659d75b6d5acd2d71522e"),
    24: (0, "8e3992beaa1693f6b2988a146de182ef"),
    25: (0, "a3c44cd4ca978adda89caeca0526efa9"),
    26: (0, "920721adc105989220d2e72cc7d62052"),
    27: (0, "2931308003bc950bf9a2eb91f227feee"),
    28: (0, "ab214687d0010e41627f225e9fffd07f"),
    29: (0, "5d65ff16e635f83a0567a0a61f831e3d"),
    30: (0, "874af9d70dd46261e0ae9a57e7d97fc0"),
    31: (0, "946b39e84e2c5bf152d5a1f1037bc638"),
    32: (0, "80c6361f296b057ca1c4e762250502c6"),
    33: (0, "ca19088f58fe7a742aa71d3ee67cb7e5"),
    34: (0, "abab80109b0a31bf66ec464e8207c1e4"),
    35: (0, "f2aa38271aae432aab50ea12ca1fa5e5"),
    36: (0, "4a78010f7ce3d7f16bd5c692fc33444f"),
    37: (0, "6bc1769969f41def84b6c461c54b4145"),
    38: (0, "d7ec5037608bed924504beb12261e547"),
    39: (0, "64e5ea7967dc8432208cb123a3fb463a"),
}


@pytest.mark.parametrize("seed", sorted(RANDOM_GOLDEN))
def test_random_golden(capsys, seed):
    code = main(["random", "--seed", str(seed)])
    out = capsys.readouterr().out
    assert (code, hashlib.md5(out.encode()).hexdigest()) == RANDOM_GOLDEN[seed]


# (classes, seed, max_extra_cosets) -> (exit code, stdout md5) of `oracle` on an
# explicit instance file written from random_nested_family; the families with
# one extra coset at most stay under the labeling oracle's caps more often, and
# those with 13 and 14 classes are over the orientation oracle's cap
ORACLE_GOLDEN = {
    (3, 0, 4): (0, "f27af5d98608ad51393cf07e7b6da6be"),
    (3, 1, 4): (0, "551a2208a8863d32b65c3a703dc8a60f"),
    (3, 2, 1): (0, "444544f7fae8fc7468958bb213bc9eea"),
    (4, 0, 4): (0, "ffc06cf6b63be126b96f835cfcf8b5af"),
    (4, 1, 4): (0, "3ecbea4851103cc3d5034adbec0601ee"),
    (4, 2, 1): (0, "e5fc6126a365bf66a55f66d33a995aa1"),
    (5, 0, 4): (0, "8a6ac432850bf008d535fc159e45c2e4"),
    (5, 1, 4): (0, "393bc25e587214491b1899968b661b91"),
    (5, 2, 1): (0, "9ad6583ea0e47f04c5fd95f327b88415"),
    (6, 0, 4): (0, "5d07b446c85c584859b95409eca0925e"),
    (6, 1, 4): (0, "cc128ed63daccf585f10543ff4191937"),
    (6, 2, 1): (0, "fbf95912374f9f06d66c430c2c66bda2"),
    (7, 0, 4): (0, "6ca304bce78757b9a08dc1fbcefdaa62"),
    (7, 1, 4): (0, "bb2c3172583779069df8078ffcab13c3"),
    (7, 2, 1): (0, "81e93fd6e2a46fdfd0a97d87efb05da5"),
    (8, 0, 4): (0, "a278d0a79f8d587b4b60e577769855cf"),
    (8, 1, 4): (0, "b7f294b4cf80f1c0b1860d8a5ed2c64e"),
    (8, 2, 1): (0, "b692b09a3948b35f15851e00279f0679"),
    (9, 0, 4): (0, "51e293bc6217b06c9e314165590dc614"),
    (9, 1, 4): (0, "d235353030511728f23b226511df2683"),
    (9, 2, 1): (0, "e00528117344b5be3f792ad61f28f241"),
    (10, 0, 4): (0, "510681bc822f3dc87afe8ea2368669bc"),
    (10, 1, 4): (0, "a1b13c30345b57f5bf60157f71f77bf3"),
    (10, 2, 1): (0, "124a0ec9f9ccee5330018b02c9aedeb0"),
    (13, 0, 4): (0, "5f329b9ac3f228edcd1aeeb52ec57100"),
    (14, 1, 4): (0, "fa7ed8cb9e909c60eb8bd4f94ebb18df"),
}


def write_nested_family(directory, classes, seed, extra):
    """An explicit instance file written from random_nested_family."""
    from tracktree.oracles import random_nested_family

    family, _ = random_nested_family(seed, max_extra_cosets=extra, exact_classes=classes)
    spec = InstanceSpec(name=f"nested-{classes}-{seed}-{extra}", mode="explicit",
                        universe=tuple(family.universe),
                        explicit_vertices=tuple((v.name, tuple(family.keys_of(v.members)))
                                                for v in family.vertices))
    path = directory / f"{spec.name}.ini"
    path.write_text(instance_to_text(spec))
    return path


@pytest.mark.parametrize("classes,seed,extra", sorted(ORACLE_GOLDEN))
def test_oracle_golden(tmp_path, capsys, classes, seed, extra):
    code = main(["oracle", str(write_nested_family(tmp_path, classes, seed, extra))])
    out = capsys.readouterr().out
    assert (code, hashlib.md5(out.encode()).hexdigest()) == ORACLE_GOLDEN[classes, seed, extra]
    if classes > 12:
        assert "orientations_skipped" in json.loads(out)


def test_cli_check_reports_good_files_past_a_bad_one(tmp_path, capsys):
    bad = tmp_path / "bad.ini"
    bad.write_text("not an instance\n")
    good = [str(INSTANCE_DIR / "E1.ini"), str(INSTANCE_DIR / "E4.ini")]
    assert main(["check", good[0], str(bad), good[1]]) == 4
    captured = capsys.readouterr()
    main(["check", *good])
    assert captured.out == capsys.readouterr().out
    assert captured.err.startswith(f"input error: {bad}: ") and captured.err.count("\n") == 1


EXPLICIT_PQ = "[instance]\nmode = explicit\n[universe]\nkeys = a b\n[vertices]\nvertex = p : a\n"


@pytest.mark.parametrize("content, message", [
    (b"[instance]\nname = x\n\xff\n", "cannot read instance file {path}: 'utf-8' codec can't "
     "decode byte 0xff in position 20: invalid start byte"),
    (EXPLICIT_PQ.encode() + b"vertex = q : a\n", "vertex 'q' duplicates vertex 'p'"),
    (EXPLICIT_PQ.encode() + b"vertex = q : z\n",
     "vertex 'q' uses keys outside the universe: ['z']"),
    (EXPLICIT_PQ.encode() + b"vertex = p : b\n", "vertex name 'p' is used twice"),
    (EXPLICIT_PQ.replace("keys = a b", "keys = a b a").encode(),
     "the universe repeats keys ['a']"),
    ((INSTANCE_DIR / "E3.ini").read_bytes().replace(b"rank = 2", b"rank ="),
     "expected one integer for rank, got ''"),
], ids=["not-utf-8", "duplicate-vertex", "stray-key", "repeated-name", "repeated-key",
        "empty-rank"])
def test_cli_bad_file_is_an_input_error(tmp_path, capsys, content, message):
    bad = tmp_path / "bad.ini"
    bad.write_bytes(content)
    good = [str(INSTANCE_DIR / "E1.ini"), str(INSTANCE_DIR / "E4.ini")]
    assert main(["check", good[0], str(bad), good[1]]) == 4
    captured = capsys.readouterr()
    main(["check", *good])
    assert captured.out == capsys.readouterr().out
    assert captured.err == f"input error: {bad}: {message.format(path=bad)}\n"


@pytest.mark.parametrize("gap", [" ", "\t", " \t", "\t "], ids=["space", "tab", "space-tab", "tab-space"])
def test_inline_comment_after_any_whitespace(gap):
    # a "#" after a tab used to be read as a key, with the words after it
    text = EXPLICIT_PQ.replace("keys = a b", f"keys = a b{gap}# note")
    spec = parse_instance_text(text)
    assert spec.universe == ("a", "b")
    assert spec == parse_instance_text(EXPLICIT_PQ)


def test_cli_key_listed_twice_in_a_vertex_is_one_key(tmp_path, capsys):
    reports = []
    for stem, keys in (("once", "a b"), ("twice", "b a b")):
        path = tmp_path / f"{stem}.ini"
        path.write_text(EXPLICIT_PQ + f"vertex = q : {keys}\n")
        assert main(["check", str(path)]) == 0
        reports.append(capsys.readouterr().out)
    assert reports[0] == reports[1]


def test_cli_oracle_runs_each_oracle_once(tmp_path, monkeypatch, capsys):
    import tracktree.pipeline

    calls = {"oracle_orientations": 0, "oracle_labelings": 0, "labeling_verdict": 0}
    for name in calls:
        original = getattr(tracktree.pipeline, name)

        def counted(*args, _original=original, _name=name):
            calls[_name] += 1
            return _original(*args)

        monkeypatch.setattr(tracktree.pipeline, name, counted)
    # E4 is under both oracles' caps; the 13-class family is over both
    for path, verdicts in ((INSTANCE_DIR / "E4.ini", 1),
                           (write_nested_family(tmp_path, 13, 0, 4), 0)):
        calls.update(dict.fromkeys(calls, 0))
        assert main(["oracle", str(path)]) == 0
        capsys.readouterr()
        assert calls == {"oracle_orientations": 1, "oracle_labelings": 1,
                         "labeling_verdict": verdicts}, path.name


def test_labels_are_assigned_only_for_the_labeling_oracle(tmp_path, monkeypatch, capsys):
    import tracktree.pipeline

    calls = []
    original = tracktree.pipeline.assign_labels

    def counted(system):
        calls.append(system)
        return original(system)

    monkeypatch.setattr(tracktree.pipeline, "assign_labels", counted)
    # E4 is under the labeling oracle's cap and the 13-class family over it;
    # (labels assigned, `check` stdout md5) per file
    for path, want in ((INSTANCE_DIR / "E4.ini", (1, "424695d5488f7047c2fd4c4b9955bc36")),
                       (write_nested_family(tmp_path, 13, 0, 4),
                        (0, "a573ea99f21383ec6537f6ef1a092a87"))):
        calls.clear()
        assert main(["check", str(path)]) == 0
        out = capsys.readouterr().out
        assert (len(calls), hashlib.md5(out.encode()).hexdigest()) == want, path.name


def test_cli_vertex_cap_is_uncertified(tmp_path, capsys):
    # a path of 18 vertices, over the 16-vertex cap of the pattern layer
    keys = [f"c{k:02d}" for k in range(17)]
    lines = ["[instance]", "name = path18", "mode = explicit", "", "[universe]",
             "keys = " + " ".join(keys), "", "[vertices]"]
    lines += [f"vertex = v{i:02d} : " + " ".join(keys[:i]) for i in range(18)]
    spec = tmp_path / "path18.ini"
    spec.write_text("\n".join(lines) + "\n")
    assert main(["check", str(spec)]) == 3
    captured = capsys.readouterr()
    report = json.loads(captured.out)
    assert report["status"] == "uncertified" and captured.err == ""
    assert report["checks"][-1] == {"name": "track_system", "status": "uncertified",
                                    "witness": "family of 18 vertices exceeds the cap 16"}


def test_cli_radius_two_over_the_cap_is_uncertified(tmp_path, capsys):
    # E3 at radius 10 is certified by the core bound B = 2, with no re-check ball
    assert main(["check", str(INSTANCE_DIR / "E3.ini"), "--radius", "10"]) == 0
    assert json.loads(capsys.readouterr().out)["status"] == "pass"
    # bbbbbbaB is out while its parent bbbbbba is in (and A*a = A still, as
    # the expected stabilizer <a> asks): the keys are decided as their
    # parents only past length 8, so B = 7 + 2 > radius - margin and the
    # radius + 2 re-check runs; its radius 12 ball has 1 062 881 elements,
    # over the element cap: decided from the closed-form ball size, so the
    # run ends in a report
    spec = tmp_path / "E3.ini"
    spec.write_text((INSTANCE_DIR / "E3.ini").read_text().replace(
        "rule = b in\n", "rule = b in\nrule = bbbbbbaB out\n"))
    start = time.perf_counter()
    code = main(["check", str(spec), "--radius", "10"])
    elapsed = time.perf_counter() - start
    report = json.loads(capsys.readouterr().out)
    assert code == 3 and report["status"] == "uncertified"
    by_name = {c["name"]: c for c in report["checks"]}
    assert by_name["witness_stability"]["status"] == "uncertified"
    assert "element cap" in by_name["witness_stability"]["witness"]
    assert all(c["status"] == "pass" for n, c in by_name.items() if n != "witness_stability")
    assert elapsed < 10, elapsed


def test_cli_redundant_long_rule_keeps_the_core_bound(tmp_path, capsys):
    # a rule 10 letters long that agrees with b in leaves every key decided
    # as its parent past length 1: the depth read off the decisions is 1, not
    # the rule's 10, so B = 2 and E3 passes at radius 10 with no re-check
    spec = tmp_path / "E3.ini"
    spec.write_text((INSTANCE_DIR / "E3.ini").read_text().replace(
        "rule = b in\n", "rule = b in\nrule = bbbbbbbbbb in\n"))
    assert main(["check", str(spec), "--radius", "10"]) == 0
    assert json.loads(capsys.readouterr().out)["status"] == "pass"


def test_cli_translation_longer_than_the_margin_names_the_margin(tmp_path, capsys):
    # E3 with the translation bbb: a core key radius - 2 long walks bbb out to
    # radius + 1 letters, so no radius decides it, and the witness says to
    # raise the margin; at margin 3 the family is certified and gets a verdict
    spec = tmp_path / "E3.ini"
    spec.write_text((INSTANCE_DIR / "E3.ini").read_text().replace(
        "elements = 1, b, B, bb, a", "elements = 1, b, B, bbb, a"))
    for radius in ("8", "10"):
        assert main(["check", str(spec), "--radius", radius]) == 3
        report = json.loads(capsys.readouterr().out)
        assert report["status"] == "uncertified"
        assert report["witnesses"] == [
            "uncertified difference for (1, bbb): translate undecided inside the core; "
            "translation longer than the margin 2; raise the margin"]
    # the expectations are E3's, for the translation bb, so the verdict is fail
    assert main(["check", str(spec), "--margin", "3"]) == 2
    report = json.loads(capsys.readouterr().out)
    assert report["status"] == "fail"
    assert [c["name"] for c in report["checks"] if c["status"] != "pass"] == ["expectations"]


FAR_RULE = """[instance]
name = far

[group]
kind = free
rank = 2
letters = ab

[window]
radius = 6
margin = 2

[subgroup]
generators = a

[base_set]
default = out
rule = bbbbbbb in

[translations]
elements = 1, B
"""

SHELL_AT_RADIUS_TWO = """[instance]
name = shell

[group]
kind = free_abelian
rank = 1
letters = x

[window]
radius = 4
margin = 2

[base_set]
default = out
rule = x out
rule = xxxxx in

[translations]
elements = 1, x, Xx, XX
"""


@pytest.mark.parametrize("text, witness", [
    # the base set is empty at radius 6, so B's translate moves nothing; at radius 8 it moves b^6
    (FAR_RULE, "difference for (1, B) changed at radius + 2: [] vs ['bbbbbb']"),
    # at radius 6 the base set is no longer empty and a difference reaches the shell
    (SHELL_AT_RADIUS_TWO, "uncertified difference for (1, x): "
                          "symmetric difference touches the boundary shell; enlarge radius"),
])
def test_cli_radius_two_certification_failure_is_uncertified(tmp_path, capsys, text, witness):
    spec = tmp_path / "instance.ini"
    spec.write_text(text)
    assert main(["check", str(spec)]) == 3
    captured = capsys.readouterr()
    report = json.loads(captured.out)
    assert report["status"] == "uncertified" and captured.err == ""
    assert report["checks"][-1] == {"name": "witness_stability", "status": "uncertified",
                                    "witness": witness}


MOVED_EXPECTED_K = """[instance]
name = moved-k

[group]
kind = free
rank = 2
letters = ab

[window]
radius = 4
margin = 2

[base_set]
default = out
rule = a in

[translations]
elements = 1

[expected_k]
generators = A
"""


def test_cli_expected_k_moving_the_base_set_fails_only_its_own_checks(tmp_path, capsys):
    # A moves the base set: expected_stabilizer and stabilizer_base fail, while
    # the action check acts on the translations alone and passes
    spec = tmp_path / "moved.ini"
    spec.write_text(MOVED_EXPECTED_K)
    assert main(["check", str(spec)]) == 2
    report = json.loads(capsys.readouterr().out)
    failed = [c["name"] for c in report["checks"] if c["status"] != "pass"]
    assert failed == ["expected_stabilizer", "stabilizer_base"]
    by_name = {c["name"]: c for c in report["checks"]}
    assert by_name["action_equivariance"]["status"] == "pass"
    assert report["witnesses"] == ["expected stabilizer element A moves the base set",
                                   "expected stabilizer element A moves the base vertex"]


FINITE_BASE_SET = """[instance]
name = finite

[group]
kind = free
rank = 2
letters = ab

[window]
radius = 4
margin = 2

[base_set]
default = out
include = AA, Ab

[translations]
elements = 1
"""


@pytest.mark.xfail(strict=True, reason="properness is a shell heuristic that passes a finite "
                                       "base set at radius 4 (ROADMAP item 8 decides it exactly)")
def test_cli_finite_base_set_is_not_proper(tmp_path, capsys):
    # A is two cosets, so H-finite and not proper; the heuristic looks only at
    # the distance-2 shell, which holds keys in A and out of it, so the check
    # passes with exit 0 (at radius 8 the distance-3 shell shows the fault)
    spec = tmp_path / "finite.ini"
    spec.write_text(FINITE_BASE_SET)
    code = main(["check", str(spec)])
    by_name = {c["name"]: c for c in json.loads(capsys.readouterr().out)["checks"]}
    assert code == 2 and by_name["properness"]["status"] == "fail"


# name -> (instance fields, exit code, stdout md5) of `check` on a group
# instance in which one of properness, stabilizer_base, stabilizer_class_union
# or witness_stability does not pass, one input per witness text; the
# stability witnesses name (1, g), g the first translation whose difference
# A + A*g is uncertified or changes at radius + 2 (in -duplicates and
# -merged, that change also changes which translates merge)
WITNESS_GOLDEN = {
    "properness-empty": (dict(radius=4, margin=1, expected_k_exact=True),
                         2, "f0bc70156ec43c1e4e0aabad37749b78"),
    "properness-base-misses": (dict(rank=2, radius=4, margin=1, base_includes=("B",),
                                    expected_k_exact=True),
                               2, "53f52667a8463bc4c335f15527dfdb7f"),
    "properness-full": (dict(radius=4, base_default_in=True, expected_k_exact=True),
                        2, "f3b43517aa295ccbd2ba08518cc21ecb"),
    "properness-complement-misses": (dict(rank=2, radius=5, base_excludes=("a",),
                                          base_default_in=True, expected_k_exact=True),
                                     2, "719be294a632e2119ac6f29f48de5ff7"),
    "properness-no-shells": (dict(radius=5, subgroup_generators=("aa",), base_excludes=("aA",),
                                  base_default_in=True, translations=("A", "1"),
                                  expected_k_exact=True),
                             2, "7d21484062848592db43f8598b69609a"),
    "base-moved": (dict(radius=5, base_excludes=("A",), base_default_in=True,
                        expected_k_generators=("a",), expected_k_exact=True),
                   2, "6d40036eafaca05867ba1cf01e1716af"),
    "union-product": (dict(radius=5, base_excludes=("A", "a"), base_default_in=True,
                           translations=("1", "aaA", "aAa", "A"), expected_k_generators=("AA",),
                           expected_k_exact=True),
                      2, "bf0487b55ebac8468b7e8340405b12ee"),
    "union-inverse": (dict(radius=5, base_excludes=("a",), base_default_in=True,
                           translations=("1", "aAA")),
                      2, "b3c439314c58a64f25046b7f839c6d81"),
    "stability-duplicates": (dict(rank=2, radius=2, margin=1, subgroup_generators=("AAb", "ba"),
                                  base_includes=("ab",), translations=("1", "Bba"),
                                  expected_k_exact=True),
                             3, "f0b8380370e12374f471d83000186b12"),
    "stability-shell": (dict(rank=2, radius=4, base_rules=(("AAAAB", True),), base_includes=("a",),
                             translations=("B", "b", "aAB", "1"), expected_k_generators=("B",),
                             expected_k_exact=True),
                        3, "2a24f6ca4cd908d2b1864d40e8ec66c0"),
    "stability-undecided": (dict(kind="free_product_cyclic", rank=2, orders=(2, 3), radius=5,
                                 subgroup_generators=("st",), base_excludes=("ts",),
                                 base_default_in=True, translations=("st", "st", "1"),
                                 expected_k_exact=True),
                            # the hint names (st)^-1 = tts, longer than the margin: no
                            # radius certifies st at margin 2, and margin 3 does
                            3, "5efb0f56765496837f8152d5f499e44c"),
    "stability-margin": (dict(rank=2, radius=2, margin=1, subgroup_generators=("aBB", "A"),
                              base_rules=(("B", True),), base_default_in=True,
                              translations=("a", "1", "A", "bB", "Ab"), expected_k_exact=True),
                         3, "846a35d058cdc1183f5fdbb209a830be"),
    "stability-changed": (dict(radius=2, margin=1, base_excludes=("A", "AA"), base_default_in=True,
                               translations=("1", "aAa"), expected_k_exact=True),
                          3, "46eb7d4f973129ce63468d9fca70272c"),
    "stability-merged": (dict(rank=1, radius=2, margin=1, base_rules=(("aAA", False), ("AAA", False),
                                                                      ("Aaa", False)),
                              base_includes=("aa",), base_default_in=True, translations=("aAA", "1")),
                         3, "be089fe53f46886a64b4f21f0d3ed2d7"),
    "stabilizer-edges": (dict(kind="free_product_cyclic", rank=2, orders=(2, 2), radius=4,
                              subgroup_generators=("s", "SS"), base_excludes=("T",),
                              base_default_in=True, translations=("t", "1"), expected_k_exact=True),
                         2, "17117c71dff58643f057d74f7a5f9402"),
}


@pytest.mark.parametrize("name", sorted(WITNESS_GOLDEN))
def test_check_witness_bytes_golden(tmp_path, capsys, name):
    fields, want_code, want_md5 = WITNESS_GOLDEN[name]
    spec = tmp_path / f"{name}.ini"
    spec.write_text(instance_to_text(InstanceSpec(name, **fields)))
    code = main(["check", str(spec)])
    out = capsys.readouterr().out
    assert (code, hashlib.md5(out.encode()).hexdigest()) == (want_code, want_md5)


@st.composite
def group_specs(draw):
    """A group instance of any kind, with random subgroup, base rules (some
    longer than the radius), includes, excludes, translations (the identity at
    any position among them) and expected K."""
    kind = draw(st.sampled_from(["free", "free_abelian", "free_product_cyclic"]))
    orders = tuple(draw(st.lists(st.integers(2, 3), min_size=2, max_size=3))
                   if kind == "free_product_cyclic" else ())
    rank = len(orders) or draw(st.integers(1, 2))
    letters = "".join(make_model(InstanceSpec("fuzz", kind=kind, rank=rank, orders=orders)).letters)
    alphabet = letters + letters.upper()
    margin = draw(st.integers(1, 2))
    radius = draw(st.integers(2 * margin, 5))
    action_radius = draw(st.none() | st.integers(-2, margin))

    def words(max_size, max_len=3):
        return tuple(draw(st.lists(st.text(alphabet, min_size=1, max_size=max_len),
                                   max_size=max_size)))

    prefixes = st.integers(1, radius + 2).flatmap(lambda n: st.text(alphabet, min_size=n, max_size=n))
    rules = draw(st.lists(st.tuples(prefixes, st.booleans()), max_size=3, unique_by=lambda r: r[0]))
    translations = list(words(4))
    translations.insert(draw(st.integers(0, len(translations))), "1")
    return InstanceSpec(
        name="fuzz", kind=kind, rank=rank, orders=orders, radius=radius, margin=margin,
        action_radius=action_radius,
        subgroup_generators=words(2), base_rules=tuple(rules), base_includes=words(2),
        base_excludes=words(2), base_default_in=draw(st.booleans()),
        translations=tuple(translations), expected_k_generators=words(1, 2),
        expected_k_exact=draw(st.booleans()))


@settings(max_examples=150, deadline=None)
@given(group_specs())
@example(parse_instance_text(FAR_RULE))
@example(parse_instance_text(SHELL_AT_RADIUS_TWO))
def test_every_valid_group_input_ends_in_a_report(spec):
    try:
        result = run_instance(spec)
    except ParseError:
        return
    assert result.report.checks
    assert result.report.status in ("pass", "fail", "uncertified")
    # every verdict but pass carries its witness, and a translation's action
    # is certified wherever its almost-invariance witness was
    assert all(c.witness for c in result.report.checks if c.status != "pass")
    assert not any(c.name == "action_equivariance" and c.status == "uncertified"
                   for c in result.report.checks)


def test_cli_window_over_the_cap_is_uncertified(tmp_path, capsys):
    # the radius 11 ball has 354 293 elements, over the element cap; radius 13
    # is over the radius cap: both end in a report, not an input error
    for radius, cap in (("11", "element cap"), ("13", "configured maximum")):
        code = main(["check", str(INSTANCE_DIR / "E3.ini"), "--radius", radius])
        report = json.loads(capsys.readouterr().out)
        assert code == 3 and report["status"] == "uncertified"
        assert [(c["name"], c["status"]) for c in report["checks"]] == [("window", "uncertified")]
        assert cap in report["checks"][0]["witness"]
    # an inconsistent radius and margin stays an input error
    assert main(["check", str(INSTANCE_DIR / "E3.ini"), "--radius", "5", "--margin", "3"]) == 4
    assert "input error" in capsys.readouterr().err


def test_cli_labeling_budget_family(tmp_path, capsys, monkeypatch):
    # path v0 - v1 - v2 with classes of 6 and 2 keys: 8 labels, inside the
    # oracle's caps, with 6! * 2! labelings
    six = " ".join(f"c{k}" for k in range(6))
    spec = tmp_path / "budget.ini"
    spec.write_text("[instance]\nname = budget\nmode = explicit\n\n"
                    f"[universe]\nkeys = {six} c6 c7\n\n"
                    f"[vertices]\nvertex = v0 :\nvertex = v1 : {six}\n"
                    f"vertex = v2 : {six} c6 c7\n")
    assert main(["check", str(spec)]) == 0
    capsys.readouterr()
    assert main(["oracle", str(spec)]) == 0
    assert json.loads(capsys.readouterr().out)["labelings"] == 720 * 2
    # out of its step budget, the labeling oracle is uncertified
    monkeypatch.setattr("tracktree.oracles.DFS_BUDGET", 1000)
    code = main(["check", str(spec)])
    report = json.loads(capsys.readouterr().out)
    assert code == 3 and report["status"] == "uncertified"
    by_name = {c["name"]: c for c in report["checks"]}
    assert by_name["labeling_oracle"] == {
        "name": "labeling_oracle", "status": "uncertified",
        "witness": "labeling enumeration exceeded its budget"}
    assert all(c["status"] == "pass" for n, c in by_name.items() if n != "labeling_oracle")
    assert report["counts"]["tree_vertices"] == 3 + 5 + 1


def test_labeling_oracle_witness_names_the_failed_verdict_parts(tmp_path, capsys, monkeypatch):
    spec = tmp_path / "within.ini"
    spec.write_text("[instance]\nname = within\nmode = explicit\n\n"
                    "[universe]\nkeys = c1 c2 c3 c4 c5 c6 c7\n\n"
                    "[vertices]\nvertex = u : c1 c2 c3\nvertex = v : c4 c5\n"
                    "vertex = w : c6 c7\n")
    assign_labels = tracktree.pipeline.assign_labels

    def reversed_first_edge(system):
        labels = assign_labels(system)
        edge = min(labels)
        return {**labels, edge: labels[edge][::-1]}

    monkeypatch.setattr(tracktree.pipeline, "assign_labels", reversed_first_edge)
    assert main(["check", str(spec)]) == 2
    by_name = {c["name"]: c for c in json.loads(capsys.readouterr().out)["checks"]}
    assert by_name["labeling_oracle"] == {
        "name": "labeling_oracle", "status": "fail",
        "witness": "canonical_is_valid, all_within_class failed: 24 labelings vs expected 24"}


def test_cli_byte_identical_across_processes():
    # different hash seeds must not leak into the report bytes
    outputs = []
    for seed in ("1", "2"):
        proc = subprocess.run(
            [sys.executable, "-m", "tracktree.cli", "check", str(INSTANCE_DIR / "E4.ini")],
            capture_output=True, env={"PYTHONHASHSEED": seed, "PATH": "", "PYTHONPATH": PACKAGE_PATH},
            cwd=str(INSTANCE_DIR))
        assert proc.returncode == 0, proc.stderr
        outputs.append(proc.stdout)
    assert outputs[0] == outputs[1]


def test_write_atomic_io_error(tmp_path):
    from tracktree.errors import IoError
    from tracktree.reports import write_atomic

    with pytest.raises(IoError):
        write_atomic(tmp_path / "missing_dir" / "report.json", "{}")
    # the temp file is written, then cannot replace a directory: it is removed
    (tmp_path / "taken").mkdir()
    with pytest.raises(IoError):
        write_atomic(tmp_path / "taken", "{}")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["taken"]



def test_dot_single_vertex_tree():
    from tracktree import build_track_system, build_tree, explicit_family

    fam = explicit_family(["a"], [("v", frozenset(["a"]))])
    tree = build_tree(build_track_system(fam))
    dot = dot_document(tree, "degenerate")
    assert 'label="o"' in dot and " -- " not in dot
