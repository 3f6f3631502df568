"""Golden-file and round-trip tests for every CLI subcommand."""

import errno
import importlib.resources
import io
import json
import os
import random
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

from reslat import harness
from reslat.cli import build_parser, main, to_rlat_text
from reslat.core import direct_product

GOLDEN_DIR = Path(__file__).parent / "golden"
REGEN = bool(os.environ.get("REGEN_GOLDENS"))

FIXTURE_PATHS = {
    name: str(importlib.resources.files("reslat") / "fixtures" / f"{name}.rlat")
    for name in ("a6", "b6", "c6", "a8")
}
FILTER_ARG = {"a6": "c,d,1", "b6": "a,c,1", "c6": "1", "a8": "f,1"}


def run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    return {"exit": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


def check_golden(name, argv):
    got = run_cli(argv)
    path = GOLDEN_DIR / f"{name}.json"
    if REGEN:
        GOLDEN_DIR.mkdir(exist_ok=True)
        path.write_text(json.dumps(got, indent=2, sort_keys=True) + "\n",
                        encoding="utf-8")
    want = json.loads(path.read_text(encoding="utf-8"))
    assert got == want, f"golden mismatch for {name}"
    return got


SUBCOMMANDS = [
    ("validate", lambda p, f: ["validate", p]),
    ("filters", lambda p, f: ["filters", p]),
    ("spectrum", lambda p, f: ["spectrum", p, "--kind", "maximal"]),
    ("alpha", lambda p, f: ["alpha", p]),
    ("pure", lambda p, f: ["pure", p]),
    ("sigma", lambda p, f: ["sigma", p, "--filter", f]),
    ("rho", lambda p, f: ["rho", p, "--filter", f]),
    ("spp", lambda p, f: ["spp", p]),
    ("dtop", lambda p, f: ["dtop", p]),
    ("classify", lambda p, f: ["classify", p]),
    ("gelfand", lambda p, f: ["gelfand", p]),
    ("mp", lambda p, f: ["mp", p]),
    ("quotient", lambda p, f: ["quotient", p, "--filter", f]),
    ("check", lambda p, f: ["check", p, "--suite", "core"]),
]


@pytest.mark.parametrize("fixture_name", list(FIXTURE_PATHS))
@pytest.mark.parametrize("command,mk", SUBCOMMANDS,
                         ids=[c for c, _ in SUBCOMMANDS])
def test_subcommand_golden(command, mk, fixture_name):
    path = FIXTURE_PATHS[fixture_name]
    check_golden(f"{fixture_name}__{command}",
                 mk(path, FILTER_ARG[fixture_name]))


# The top library layer each subcommand calls; a call may load that layer
# and the layers below it (LAYERS order), and no other reslat module.
LAYERS = ("filters", "topology", "spectra", "purity", "classify", "harness")
TOP_LAYER = {"validate": None, "filters": "filters", "spectrum": "spectra",
             "alpha": "filters", "pure": "purity", "sigma": "purity",
             "rho": "purity", "spp": "purity", "dtop": "purity",
             "classify": "classify", "gelfand": "classify", "mp": "classify",
             "quotient": "filters", "check": "harness"}
# Runs one CLI call, then prints the reslat modules loaded as stderr's last
# line.
_CALL_PROBE = """
import json, sys
from reslat.cli import main
code = main(sys.argv[1:])
sys.stdout.flush()
print(json.dumps(sorted(m for m in sys.modules
                        if m.split(".")[0] == "reslat")), file=sys.stderr)
sys.exit(code)
"""


@pytest.mark.parametrize("command,mk", SUBCOMMANDS,
                         ids=[c for c, _ in SUBCOMMANDS])
def test_fresh_call_loads_only_its_layers(command, mk):
    root = Path(__file__).resolve().parent.parent
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    proc = subprocess.run(
        [sys.executable, "-c", _CALL_PROBE, *mk(FIXTURE_PATHS["a6"],
                                                FILTER_ARG["a6"])],
        env=env, capture_output=True, text=True, timeout=60)
    *err, modules = proc.stderr.splitlines(keepends=True)
    want = json.loads((GOLDEN_DIR / f"a6__{command}.json")
                      .read_text(encoding="utf-8"))
    assert {"exit": proc.returncode, "stdout": proc.stdout,
            "stderr": "".join(err)} == want
    loaded = set(json.loads(modules))
    top = TOP_LAYER[command]
    allowed = LAYERS[:LAYERS.index(top) + 1] if top else ()
    assert loaded - {"reslat", "reslat.core", "reslat.cli"} <= {
        f"reslat.{m}" for m in allowed}
    if top:
        assert f"reslat.{top}" in loaded


def test_shared_parser_keeps_no_state_between_calls():
    # every golden call twice, shuffled, with usage errors and --help in
    # between: each result is its golden, or the same as its first run
    assert build_parser() is build_parser()
    calls = [(f"{fx}__{command}", mk(path, FILTER_ARG[fx]), None)
             for fx, path in FIXTURE_PATHS.items()
             for command, mk in SUBCOMMANDS] * 2
    a6 = FIXTURE_PATHS["a6"]
    calls += [("kind", ["spectrum", a6, "--kind", "weird"], 3),
              ("flag", ["filters", a6, "--frobnicate"], 3),
              ("nocmd", [], 3), ("help", ["--help"], 0),
              ("subhelp", ["sigma", "--help"], 0)] * 4
    random.Random(9).shuffle(calls)
    first = {}
    for name, argv, code in calls:
        got = run_cli(argv)
        if code is None:
            want = json.loads((GOLDEN_DIR / f"{name}.json")
                              .read_text(encoding="utf-8"))
            assert got == want, name
            continue
        assert got["exit"] == code, name
        assert (got["stdout"] != "") == (code == 0), name
        assert got == first.setdefault(name, got), name
    assert "usage: reslat sigma" in first["subhelp"]["stdout"]
    assert "required: command" in first["nocmd"]["stderr"]


def test_gen_goldens():
    check_golden("gen__godel3", ["gen", "--family", "godel", "--size", "3"])
    check_golden("gen__luk4", ["gen", "--family", "lukasiewicz", "--size", "4"])


def test_gen_roundtrip(tmp_path):
    res = run_cli(["gen", "--family", "lukasiewicz", "--size", "4"])
    assert res["exit"] == 0
    path = tmp_path / "l4.rlat"
    path.write_text(res["stdout"], encoding="utf-8")
    assert run_cli(["validate", str(path)])["exit"] == 0
    res2 = run_cli(["gen", "--product", str(path), str(path)])
    assert res2["exit"] == 0 and "Luk4xLuk4" in res2["stdout"]


def _gen_chain_file(tmp_path, size):
    path = tmp_path / f"g{size}.rlat"
    res = run_cli(["gen", "--family", "godel", "--size", str(size)])
    path.write_text(res["stdout"], encoding="utf-8")
    return str(path)


def test_gen_size_cap(tmp_path):
    g3, g5, g13 = (_gen_chain_file(tmp_path, k) for k in (3, 5, 13))
    for factors in ((g5, g13), (g5, g5, g3), (g3, g3, g3, g3)):
        out = run_cli(["gen", "--product", *factors])
        assert out["exit"] == 3 and out["stdout"] == "", factors
        assert "(cap 64)" in out["stderr"]


def test_gen_chain_size_out_of_range():
    # 0 is a given size, not a missing one: it gets the bound error too
    for size in (0, 1, 65):
        out = run_cli(["gen", "--family", "godel", "--size", str(size)])
        assert out == {"exit": 3, "stdout": "",
                       "stderr": f"chain size {size} outside 2..64\n"}, size


def test_gen_product_of_three_factors(tmp_path):
    g2 = _gen_chain_file(tmp_path, 2)
    res = run_cli(["gen", "--product", g2, g2, g2])
    two = harness.godel_chain(2)
    want = to_rlat_text(direct_product(direct_product(two, two), two))
    assert res == {"exit": 0, "stdout": want, "stderr": ""}
    out = run_cli(["gen", "--product", g2])
    assert out["exit"] == 3 and out["stdout"] == ""
    assert out["stderr"] == "gen --product needs at least two lattice files\n"


def test_gen_refuses_family_or_size_with_product(tmp_path):
    g2 = _gen_chain_file(tmp_path, 2)
    for extra in (["--family", "godel", "--size", "3"], ["--family", "godel"],
                  ["--size", "3"]):
        out = run_cli(["gen", *extra, "--product", g2, g2])
        assert out == {"exit": 3, "stdout": "",
                       "stderr": "gen takes --family and --size, or --product, "
                                 "not both\n"}, extra


def test_product_filter_tokens_round_trip(tmp_path):
    g2 = tmp_path / "g2.rlat"
    g2.write_text(run_cli(["gen", "--family", "godel", "--size", "2"])["stdout"],
                  encoding="utf-8")
    prod = tmp_path / "p.rlat"
    prod.write_text(run_cli(["gen", "--product", str(g2), str(g2)])["stdout"],
                    encoding="utf-8")
    doc = json.loads(run_cli(["filters", str(prod), "--json"])["stdout"])
    assert ["(1,1)"] in doc["result"]["filters"]
    for toks in doc["result"]["filters"]:
        for cmd in ("sigma", "rho", "quotient"):
            res = run_cli([cmd, str(prod), "--filter", " ".join(toks)])
            assert res["exit"] == 0, (cmd, toks, res["stderr"])


def _listed_sets(argv):
    """The sets a listing subcommand prints, one per line under its header."""
    return [line.strip() for line in run_cli(argv)["stdout"].splitlines()[1:]]


def test_printed_filter_sets_round_trip(tmp_path):
    g2 = tmp_path / "g2.rlat"
    g2.write_text(run_cli(["gen", "--family", "godel", "--size", "2"])["stdout"],
                  encoding="utf-8")
    g3 = tmp_path / "g3.rlat"
    g3.write_text(run_cli(["gen", "--family", "godel", "--size", "3"])["stdout"],
                  encoding="utf-8")
    products = []
    for a, b in ((g2, g2), (g3, FIXTURE_PATHS["b6"])):
        prod = tmp_path / f"{a.stem}x{Path(b).stem}.rlat"
        prod.write_text(run_cli(["gen", "--product", str(a), str(b)])["stdout"],
                        encoding="utf-8")
        products.append(str(prod))
    for path in list(FIXTURE_PATHS.values()) + products:
        _assert_printed_sets_round_trip(path)


def _assert_printed_sets_round_trip(path):
    """Every set that a listing, sigma or rho prints for ``path`` is read
    back by ``--filter``."""
    filters = _listed_sets(["filters", path])
    assert filters
    printed = set()
    for kind in ("prime", "maximal", "minimal"):
        printed.update(_listed_sets(["spectrum", path, "--kind", kind]))
    printed.update(_listed_sets(["pure", path]))
    printed.update(_listed_sets(["alpha", path]))
    spp = run_cli(["spp", path])["stdout"].splitlines()
    points = spp[1:next(i for i, l in enumerate(spp) if l.startswith("opens"))]
    assert len(points) == int(spp[0].split(": ")[1].split()[0])
    printed.update(line.split()[0] for line in points)
    for f in filters:
        for cmd in ("sigma", "rho", "quotient"):
            res = run_cli([cmd, path, "--filter", f])
            assert res["exit"] == 0, (cmd, path, f, res["stderr"])
            if cmd != "quotient":
                lhs, rhs = res["stdout"].strip().split(" = ")
                assert lhs == f"{cmd}({f})"
                printed.add(rhs)
    for s in sorted(printed):
        res = run_cli(["sigma", path, "--filter", s])
        assert res["exit"] == 0, (path, s, res["stderr"])


def _renamed_chain(tmp_path, tokens):
    """``gen``'s Godel chain with its inner tokens x1, x2, ... renamed."""
    text = run_cli(["gen", "--family", "godel", "--size",
                    str(len(tokens) + 2)])["stdout"]
    ren = {f"x{i}": t for i, t in enumerate(tokens, start=1)}
    path = tmp_path / "renamed.rlat"
    path.write_text("\n".join(" ".join(ren.get(w, w) for w in line.split())
                              for line in text.splitlines()) + "\n",
                    encoding="utf-8")
    return str(path)


def test_filter_reads_tokens_with_commas_parentheses_and_braces(tmp_path):
    path = _renamed_chain(tmp_path, ["a)", "(a", "a,b", "{x}", "a"])
    assert "{a),(a,a,b,{x},a,1}" in _listed_sets(["filters", path])
    _assert_printed_sets_round_trip(path)
    res = run_cli(["sigma", path, "--filter", "{x}, a, 1"])  # spare commas
    assert res["stdout"] == "sigma({{x},a,1}) = {1}\n"
    g2 = tmp_path / "g2.rlat"
    g2.write_text(run_cli(["gen", "--family", "godel", "--size", "2"])["stdout"],
                  encoding="utf-8")
    prod = tmp_path / "prod.rlat"
    prod.write_text(run_cli(["gen", "--product", path, str(g2)])["stdout"],
                    encoding="utf-8")
    _assert_printed_sets_round_trip(str(prod))


def test_filter_refuses_a_set_that_reads_two_ways(tmp_path):
    # with a, b and a,b all tokens, {a,b,1} is {a,b,1} or {a,b; 1}
    path = _renamed_chain(tmp_path, ["a,b", "a", "b"])
    res = run_cli(["sigma", path, "--filter", "{a,b,1}"])
    assert res == {"exit": 3, "stdout": "",
                   "stderr": "Godel5: '{a,b,1}' reads as two sets, "
                             "['a', 'b', '1'] and ['a,b', '1']\n"}
    assert run_cli(["sigma", path, "--filter", "{b,1}"])["exit"] == 0


def test_json_outputs_round_trip():
    for fixture_name, path in FIXTURE_PATHS.items():
        for command, mk in SUBCOMMANDS:
            if command in ("gelfand", "mp"):
                continue                      # refusals covered separately
            argv = mk(path, FILTER_ARG[fixture_name]) + ["--json"]
            first = run_cli(argv)
            second = run_cli(argv)
            assert first == second            # recomputation is identical
            doc = json.loads(first["stdout"])
            assert set(doc) == {"lattice", "command", "result", "witnesses"}


def test_json_envelope_on_refusals_and_failures(tmp_path, monkeypatch):
    # the three documents written off the success path share its envelope
    from reslat import harness as hz
    bad = tmp_path / "bad.rlat"
    text = Path(FIXTURE_PATHS["a6"]).read_text(encoding="utf-8")
    bad.write_text(text.replace("mul a c 0", "mul a c a"), encoding="utf-8")
    res = run_cli(["validate", str(bad), "--json"])
    doc = json.loads(res["stdout"])
    assert res["exit"] == 1 and doc["result"] == {"valid": False}
    assert doc["lattice"] == str(bad) and doc["command"] == "validate"
    assert doc["witnesses"][0].startswith("A6: 3 violation(s)\n")
    res = run_cli(["mp", FIXTURE_PATHS["a8"], "--json"])
    assert res["exit"] == 2
    assert res["stdout"] == json.dumps(
        {"command": "mp", "lattice": "A8", "result": {"qualifies": False},
         "witnesses": ["A8 is not mp"]}, indent=2) + "\n"
    broken = dict(hz.PROPERTIES)
    broken["resproposition"] = (
        "core", lambda lat: hz._fail({"triple": ["a", "b", "c"]}))
    monkeypatch.setattr(hz, "PROPERTIES", broken)
    res = run_cli(["check", FIXTURE_PATHS["a6"], "--suite", "core", "--json"])
    doc = json.loads(res["stdout"])
    assert res["exit"] == 2 and list(doc) == [
        "command", "lattice", "result", "witnesses"]
    assert doc["lattice"] == ["A6"] and doc["command"] == "check"
    assert doc["result"]["counts"]["fail"] == 1
    assert doc["witnesses"] == [{"lattice": "A6", "property": "resproposition",
                                 "triple": ["a", "b", "c"]}]


def test_json_sets_are_token_arrays_in_file_order():
    res = run_cli(["filters", FIXTURE_PATHS["b6"], "--json"])
    doc = json.loads(res["stdout"])
    assert ["a", "c", "1"] in doc["result"]["filters"]


def test_classify_json_reports_witnesses():
    res = run_cli(["classify", FIXTURE_PATHS["a8"], "--json"])
    doc = json.loads(res["stdout"])
    flags = doc["result"]["flags"]
    assert flags["gelfand"]["value"] is True
    assert flags["mp"]["value"] is False
    assert any(w["flag"] == "mp" for w in doc["witnesses"])


def test_exit_codes(tmp_path):
    bad = tmp_path / "bad.rlat"
    bad.write_text("lattice Bad\nelements 0 a 1\nbottom 0\ntop 1\n"
                   "cover 0 a\ncover a 1\nmul a a 1\nend\n", encoding="utf-8")
    assert run_cli(["validate", str(bad)])["exit"] == 1
    assert run_cli(["gelfand", FIXTURE_PATHS["a6"]])["exit"] == 2
    assert run_cli(["mp", FIXTURE_PATHS["a8"]])["exit"] == 2
    assert run_cli(["validate", str(tmp_path / "missing.rlat")])["exit"] == 3
    assert run_cli(["spectrum", FIXTURE_PATHS["a6"], "--kind", "weird"])["exit"] == 3
    assert run_cli(["sigma", FIXTURE_PATHS["a6"], "--filter", "d"])["exit"] == 3
    assert run_cli(["sigma", FIXTURE_PATHS["a6"], "--filter", "q,1"])["exit"] == 3
    truncated = tmp_path / "trunc.rlat"
    truncated.write_text("lattice X\nelements 0 1\n", encoding="utf-8")
    assert run_cli(["validate", str(truncated)])["exit"] == 3


def _unreadable(tmp_path, kind):
    """A path that names no file, a directory, or a file that is not UTF-8."""
    if kind == "missing":
        return str(tmp_path / "missing.rlat")
    if kind == "directory":
        return str(tmp_path)
    path = tmp_path / "latin1.rlat"
    path.write_bytes("lattice \u00c4\nend\n".encode("latin-1"))
    return str(path)


@pytest.mark.parametrize("kind", ["missing", "directory", "not-utf8"])
@pytest.mark.parametrize("command,mk", SUBCOMMANDS,
                         ids=[c for c, _ in SUBCOMMANDS])
def test_unreadable_file_exits_3(command, mk, kind, tmp_path):
    # every file-taking subcommand: one line on stderr, nothing on stdout
    path = _unreadable(tmp_path, kind)
    res = run_cli(mk(path, "1"))
    assert res["exit"] == 3 and res["stdout"] == ""
    if kind == "directory":                 # the OS words the reason
        assert res["stderr"].startswith(f"{path}: ")
        assert res["stderr"].count("\n") == 1
    else:
        assert res["stderr"] == {"missing": f"no such file: {path}\n",
                                 "not-utf8": f"{path}: not UTF-8 text\n"}[kind]


def test_write_error_without_a_file_name_exits_3():
    # a full disk under stdout: the OSError names no file
    class Full(io.StringIO):
        def write(self, text):
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
    err = io.StringIO()
    with redirect_stdout(Full()), redirect_stderr(err):
        assert main(["filters", FIXTURE_PATHS["a6"]]) == 3
    assert err.getvalue() == os.strerror(errno.ENOSPC) + "\n"


def _reslat_process(argv):
    """Run ``python -m reslat.cli`` on ``argv`` in a fresh interpreter."""
    root = Path(__file__).resolve().parent.parent
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    return subprocess.run([sys.executable, "-m", "reslat.cli", *argv],
                          env=env, capture_output=True, text=True, timeout=60)


@pytest.mark.parametrize("case", ["directory", "not-utf8", "validate-dot",
                                  "spp-dot", "gen-product-cap", "gen-size-65"])
def test_refusal_exits_3_with_one_line_and_no_traceback(case, tmp_path):
    a6, dot = FIXTURE_PATHS["a6"], str(tmp_path / "missing" / "x.dot")
    argv, want = {
        "directory": (["validate", str(tmp_path)], f"{tmp_path}: "),
        "not-utf8": (["validate", _unreadable(tmp_path, "not-utf8")],
                     f"{tmp_path / 'latin1.rlat'}: not UTF-8 text\n"),
        "validate-dot": (["validate", a6, "--dot", dot], f"no such file: {dot}\n"),
        "spp-dot": (["spp", a6, "--dot", dot], f"no such file: {dot}\n"),
        "gen-product-cap": (["gen", "--product", _gen_chain_file(tmp_path, 5),
                             _gen_chain_file(tmp_path, 13)],
                            "Godel5 x Godel13 would have 65 elements (cap 64)\n"),
        "gen-size-65": (["gen", "--family", "godel", "--size", "65"],
                        "chain size 65 outside 2..64\n"),
    }[case]
    proc = _reslat_process(argv)
    assert proc.returncode == 3 and proc.stdout == "", proc.stderr
    assert proc.stderr.startswith(want) and proc.stderr.count("\n") == 1, \
        proc.stderr


def test_validate_reads_a_file_with_a_byte_order_mark(tmp_path):
    # editors on some platforms save UTF-8 with a leading BOM
    text = Path(FIXTURE_PATHS["a6"]).read_text(encoding="utf-8")
    path = tmp_path / "a6-bom.rlat"
    path.write_bytes(b"\xef\xbb\xbf" + text.encode("utf-8"))
    want = json.loads((GOLDEN_DIR / "a6__validate.json")
                      .read_text(encoding="utf-8"))
    assert run_cli(["validate", str(path)]) == want


def test_check_refuses_duplicate_instance_names(tmp_path):
    renamed = tmp_path / "B.rlat"
    text = Path(FIXTURE_PATHS["a8"]).read_text(encoding="utf-8")
    renamed.write_text(text.replace("lattice A8", "lattice A6"),
                       encoding="utf-8")
    for second in (str(renamed), FIXTURE_PATHS["a6"]):
        res = run_cli(["check", FIXTURE_PATHS["a6"], second, "--suite", "core"])
        assert res["exit"] == 3 and res["stdout"] == ""
        assert "named 'A6'" in res["stderr"]


@pytest.mark.parametrize("which,attr", [("gelfand", "GELFAND_CLAUSES"),
                                        ("mp", "MP_CLAUSES")])
def test_certificate_failure_exit(which, attr, monkeypatch):
    from reslat import classify as cl
    clauses = tuple((cid, (lambda lat: False) if cid == "spp_hausdorff" else
                     holds, note) for cid, holds, note in getattr(cl, attr))
    monkeypatch.setattr(cl, attr, clauses)
    res = run_cli([which, FIXTURE_PATHS["b6"]])
    assert res["exit"] == 2 and res["stdout"] == ""
    assert res["stderr"] == "certificate failure: clause spp_hausdorff: failed\n"


def test_unknown_flag_rejected():
    assert run_cli(["filters", FIXTURE_PATHS["a6"], "--frobnicate"])["exit"] == 3


def test_check_reports_violation_exit(monkeypatch, tmp_path):
    # a valid instance with all properties passing exits 0
    assert run_cli(["check", FIXTURE_PATHS["c6"], "--suite", "spp"])["exit"] == 0


A6_HASSE_DOT = """digraph "A6" {
  rankdir=BT;
  node [shape=plaintext];
  "0";
  "a";
  "b";
  "c";
  "d";
  "1";
  "0" -> "a";
  "0" -> "c";
  "a" -> "b";
  "b" -> "d";
  "c" -> "d";
  "d" -> "1";
}"""

B6_SPP_DOT = """digraph "Spp(B6)" {
  rankdir=BT;
  node [shape=plaintext];
  "{d,1}";
  "{a,c,1}";
}"""


def test_dot_outputs(tmp_path):
    hasse = tmp_path / "hasse.dot"
    res = run_cli(["validate", FIXTURE_PATHS["a6"], "--dot", str(hasse)])
    assert res["exit"] == 0
    assert hasse.read_text(encoding="utf-8") == A6_HASSE_DOT
    spp_dot = tmp_path / "spp.dot"
    res = run_cli(["spp", FIXTURE_PATHS["b6"], "--dot", str(spp_dot)])
    assert res["exit"] == 0
    assert spp_dot.read_text(encoding="utf-8") == B6_SPP_DOT


def test_dot_escapes_quotes_and_backslashes(tmp_path):
    path = tmp_path / "q4.rlat"
    path.write_text('lattice Q"4\nelements 0 p"q r\\ 1\nbottom 0\ntop 1\n'
                    'cover 0 p"q\ncover 0 r\\\ncover p"q 1\ncover r\\ 1\n'
                    'mul p"q p"q p"q\nmul r\\ r\\ r\\\nmul p"q r\\ 0\nend\n',
                    encoding="utf-8")
    hasse, spp_dot = tmp_path / "hasse.dot", tmp_path / "spp.dot"
    assert run_cli(["validate", str(path), "--dot", str(hasse)])["exit"] == 0
    assert hasse.read_text(encoding="utf-8") == r"""digraph "Q\"4" {
  rankdir=BT;
  node [shape=plaintext];
  "0";
  "p\"q";
  "r\\";
  "1";
  "0" -> "p\"q";
  "0" -> "r\\";
  "p\"q" -> "1";
  "r\\" -> "1";
}"""
    assert run_cli(["spp", str(path), "--dot", str(spp_dot)])["exit"] == 0
    assert spp_dot.read_text(encoding="utf-8") == r"""digraph "Spp(Q\"4)" {
  rankdir=BT;
  node [shape=plaintext];
  "{p\"q,1}";
  "{r\\,1}";
}"""


def test_root_fixture_copies_match_package_data():
    root = Path(__file__).parent.parent / "fixtures"
    for name, pkg_path in FIXTURE_PATHS.items():
        assert (root / f"{name}.rlat").read_bytes() == \
            Path(pkg_path).read_bytes()
