import json
import subprocess
import sys

import pytest

from floydlab import cli
from floydlab.cli import main
from floydlab.graph_core import read_graph_file
from floydlab.group_models import Heisenberg, growth_series


def run_cli(*args, expect=0):
    proc = subprocess.run([sys.executable, "-m", "floydlab.cli", *args],
                          capture_output=True, text=True)
    assert proc.returncode == expect, proc.stderr
    return proc


def test_gen_z2(tmp_path):
    out = tmp_path / "z.graph"
    proc = run_cli("gen", "--model", "zn:2", "--radius", "10", "--out", str(out))
    assert proc.stdout.strip() == "vertices=221 edges=400"
    ball = read_graph_file(out)
    assert ball.vertex_count == 221
    assert ball.radius == 10


def test_gen_trivial_ball(tmp_path):
    out = tmp_path / "f0.graph"
    proc = run_cli("gen", "--model", "free:2", "--radius", "0", "--out", str(out))
    assert proc.stdout.strip() == "vertices=1 edges=0"
    assert read_graph_file(out).vertex_count == 1


def test_gen_heisenberg_counts(tmp_path):
    out = tmp_path / "h.graph"
    proc = run_cli("gen", "--model", "heis", "--radius", "6", "--out", str(out))
    series = growth_series(Heisenberg(), 6)
    vertices = int(proc.stdout.split()[0].split("=")[1])
    assert vertices == sum(series)
    ball = read_graph_file(out)
    counts = [0] * 7
    for d in ball.dist.tolist():
        counts[d] += 1
    assert counts == series


def test_gen_respects_vertex_cap(tmp_path):
    out = tmp_path / "f.graph"
    run_cli("gen", "--model", "free:2", "--radius", "8", "--cap", "100",
            "--out", str(out), expect=1)


def test_floyd_diam_tree_column(tmp_path):
    graph = tmp_path / "f.graph"
    run_cli("gen", "--model", "free:2", "--radius", "6", "--out", str(graph))
    out = tmp_path / "d.csv"
    proc = run_cli("floyd-diam", "--graph", str(graph), "--floyd", "invpow:2",
                   "--radii", "2..6", "--margin", "1.0", "--out", str(out))
    lines = out.read_text().splitlines()
    assert lines[0].startswith("# floydlab floyd-diam ")
    assert lines[1] == "r,diameter,witness_u,witness_v"
    values = [float(line.split(",")[1]) for line in lines[2:]]
    assert len(values) == 5
    assert all(b >= a for a, b in zip(values, values[1:]))
    assert "non-vanishing" in proc.stderr


def test_floyd_diam_margin_rows_omitted(tmp_path):
    graph = tmp_path / "z.graph"
    run_cli("gen", "--model", "zn:2", "--radius", "18", "--out", str(graph))
    out = tmp_path / "d.csv"
    proc = run_cli("floyd-diam", "--graph", str(graph), "--floyd", "invpow:2",
                   "--radii", "2..9", "--out", str(out))
    lines = out.read_text().splitlines()
    rows = [line for line in lines[2:]]
    assert [int(r.split(",")[0]) for r in rows] == [2, 3, 4, 5, 6]
    assert "omitted" in proc.stderr


def test_divergence_csv_and_infinity(tmp_path):
    out = tmp_path / "dv.csv"
    run_cli("divergence", "--model", "free:2", "--radius", "4",
            "--n-range", "1..4", "--margin", "1.0", "--protocol", "exhaustive",
            "--out", str(out))
    lines = out.read_text().splitlines()
    assert lines[1] == "n,value_or_inf,a,b,c,forbidden_radius,protocol,seed"
    rows = [line.split(",") for line in lines[2:]]
    assert rows[0][1] == "1"
    assert all(r[1] == "inf" for r in rows[1:])


def test_forced_exhaustive_warning_on_stderr(tmp_path):
    proc = run_cli("divergence", "--model", "zn:2", "--radius", "15",
                   "--n-range", "1..1", "--margin", "1", "--protocol",
                   "exhaustive", "--out", str(tmp_path / "dv.csv"))
    assert ("RuntimeWarning: exhaustive divergence on 481 inner vertices, "
            "above EXHAUSTIVE_CAP = 400") in proc.stderr


def test_criterion_verdict_line(tmp_path):
    out = tmp_path / "cr.csv"
    run_cli("criterion", "--model", "zn:2", "--radius", "24",
            "--floyd", "invpow:2", "--n-range", "2..4",
            "--protocol", "exhaustive", "--out", str(out))
    lines = out.read_text().splitlines()
    assert lines[1] == "n,div_2n,f_argument,term"
    assert lines[-1].startswith("# verdict: ")


def test_verify_thick_json(tmp_path):
    graph = tmp_path / "z.graph"
    run_cli("gen", "--model", "zn:2", "--radius", "16", "--out", str(graph))
    ball = read_graph_file(graph)
    structure = {
        "C": 1.0, "order": 0, "D_min": 4,
        "subsets": [{"name": "all",
                     "vertices": list(range(ball.vertex_count)),
                     "substructure": None}],
    }
    spath = tmp_path / "structure.json"
    spath.write_text(json.dumps(structure))
    out = tmp_path / "verdict.json"
    run_cli("verify-thick", "--graph", str(graph), "--structure", str(spath),
            "--out", str(out))
    doc = json.loads(out.read_text())
    assert doc["overall"] is True
    assert doc["subsets"][0]["divergence_verdict"] == "linear-compatible"


def test_verify_thick_inconclusive_exit_code(tmp_path):
    graph = tmp_path / "z.graph"
    run_cli("gen", "--model", "zn:2", "--radius", "4", "--out", str(graph))
    ball = read_graph_file(graph)
    structure = {
        "C": 1.0, "order": 0, "D_min": 4,
        "subsets": [{"name": "all",
                     "vertices": list(range(ball.vertex_count)),
                     "substructure": None}],
    }
    spath = tmp_path / "structure.json"
    spath.write_text(json.dumps(structure))
    out = tmp_path / "verdict.json"
    run_cli("verify-thick", "--graph", str(graph), "--structure", str(spath),
            "--segment-length", "4", "--out", str(out), expect=2)
    doc = json.loads(out.read_text())
    assert doc["subsets"][0]["divergence_verdict"] == "insufficient-scale"


def test_input_errors_exit_one(tmp_path):
    run_cli("gen", "--model", "zn:0", "--radius", "2",
            "--out", str(tmp_path / "x"), expect=1)
    run_cli("floyd-diam", "--graph", str(tmp_path / "missing.graph"),
            "--floyd", "invpow:2", "--radii", "1..2", expect=1)
    run_cli("divergence", "--model", "zn:2", "--radius", "6",
            "--n-range", "9..4", expect=1)
    run_cli("nonsense", expect=1)
    # both --model and --graph is a usage error
    run_cli("floyd-diam", "--model", "zn:2", "--graph", "x", "--floyd",
            "invpow:2", "--radii", "1..2", expect=1)


_SOURCE = ("--model", "zn:2", "--radius", "6")


@pytest.mark.parametrize("argv,message", [
    # str.isdigit accepts these digits, but int() rejects '²' and reads '٣' as 3.
    (("divergence", *_SOURCE, "--n-range", "²..2"),
     "--n-range: bad range '²..2', expected A..B with 1 <= A <= B"),
    (("divergence", *_SOURCE, "--n-range", "0..1"),
     "--n-range: bad range '0..1', expected A..B with 1 <= A <= B"),
    (("criterion", *_SOURCE, "--floyd", "invpow:2", "--n-range", "0..2"),
     "--n-range: bad range '0..2', expected A..B with 1 <= A <= B"),
    (("floyd-diam", *_SOURCE, "--floyd", "invpow:2", "--radii", "1..٣"),
     "--radii: bad range '1..٣', expected A..B with 0 <= A <= B"),
    (("floyd-diam", *_SOURCE, "--floyd", "invpow:2", "--radii", "2..1"),
     "--radii: bad range '2..1', expected A..B with 0 <= A <= B"),
    (("gen", "--model", "zn:٣", "--radius", "2", "--out", "unused.graph"),
     "bad rank in model spec 'zn:٣'"),
    (("gen", "--model", "free:²", "--radius", "2", "--out", "unused.graph"),
     "bad rank in model spec 'free:²'"),
])
def test_integer_text_is_ascii_and_named(argv, message):
    proc = run_cli(*argv, expect=1)
    assert proc.stderr == f"floydlab: {message}\n"


@pytest.mark.parametrize("argv,flag,value", [
    (("floyd-diam", *_SOURCE, "--floyd", "invpow:2", "--radii", "1..2"),
     "--pair-cap", "0"),
    (("floyd-diam", *_SOURCE, "--floyd", "invpow:2", "--radii", "1..2"),
     "--threads", "-1"),
    (("divergence", *_SOURCE, "--n-range", "1..2", "--protocol", "sampled"),
     "--pairs-per-n", "-3"),
    (("divergence", *_SOURCE, "--n-range", "1..2", "--protocol", "sampled"),
     "--c-per-pair", "0"),
    (("criterion", *_SOURCE, "--floyd", "invpow:2", "--n-range", "1..2"),
     "--threads", "0"),
    (("verify-thick", *_SOURCE, "--structure", "unused.json"),
     "--pairs-per-n", "0"),
    (("gen", "--model", "zn:2", "--radius", "2", "--out", "unused.graph"),
     "--cap", "0"),
    (("gen", "--model", "zn:2", "--radius", "2", "--out", "unused.graph"),
     "--threads", "-1"),
    (("floyd-diam", *_SOURCE, "--floyd", "invpow:2", "--radii", "1..2"),
     "--cap", "-1"),
])
def test_count_flags_need_a_positive_integer(argv, flag, value):
    proc = run_cli(*argv, flag, value, expect=1)
    assert proc.stderr == f"floydlab: {flag}: expected an integer >= 1, got {value}\n"


@pytest.mark.parametrize("argv", [
    ("gen", "--model", "zn:2", "--out", "unused.graph"),
    ("floyd-diam", "--model", "zn:2", "--floyd", "invpow:2", "--radii", "0..1"),
    ("divergence", "--model", "zn:2", "--n-range", "1..2"),
    ("criterion", "--model", "zn:2", "--floyd", "invpow:2", "--n-range", "1..2"),
    ("verify-thick", "--model", "zn:2", "--structure", "unused.json"),
])
def test_radius_must_be_nonnegative(argv, capsys):
    assert main([*argv, "--radius", "-1"]) == 1
    assert capsys.readouterr().err == "floydlab: --radius: expected an integer >= 0, got -1\n"


def test_segment_length_is_checked_before_the_ball_is_built(monkeypatch, capsys):
    def no_ball(args):
        raise AssertionError("ball built")

    monkeypatch.setattr(cli, "_load_ball", no_ball)
    argv = ["verify-thick", *_SOURCE, "--structure", "unused.json"]
    assert main([*argv, "--segment-length", "1"]) == 1
    assert capsys.readouterr().err == (
        "floydlab: --segment-length: expected an integer >= 2, got 1\n")


@pytest.mark.parametrize("spec", ["invpow:x", "exp:", "invpow:", "exp:1/2"])
def test_floyd_spec_parameter_must_be_a_real(spec, capsys):
    argv = ["floyd-diam", *_SOURCE, "--floyd", spec, "--radii", "1..2"]
    assert main(argv) == 1
    assert capsys.readouterr().err == f"floydlab: bad parameter in floyd spec {spec!r}\n"


@pytest.mark.parametrize("argv,flag,want", [
    (("divergence", *_SOURCE, "--n-range", "1..2", "--protocol", "exhaustive",
      "--gamma", "inf"), "--gamma", "a finite real >= 0, got inf"),
    (("criterion", *_SOURCE, "--floyd", "invpow:2", "--n-range", "1..2",
      "--gamma=-inf"), "--gamma", "a finite real >= 0, got -inf"),
    (("divergence", *_SOURCE, "--n-range", "1..2", "--gamma", "nan"),
     "--gamma", "a finite real >= 0, got nan"),
    (("divergence", *_SOURCE, "--n-range", "1..2", "--delta", "nan"),
     "--delta", "a real in (0, 1), got nan"),
    (("verify-thick", *_SOURCE, "--structure", "unused.json", "--delta", "1.5"),
     "--delta", "a real in (0, 1), got 1.5"),
    (("floyd-diam", *_SOURCE, "--floyd", "invpow:2", "--radii", "0..2",
      "--margin", "nan"), "--margin", "a finite real >= 1, got nan"),
    (("floyd-diam", *_SOURCE, "--floyd", "invpow:2", "--radii", "1..2",
      "--margin", "0.5"), "--margin", "a finite real >= 1, got 0.5"),
    (("divergence", *_SOURCE, "--n-range", "1..2", "--margin", "nan"),
     "--margin", "a finite real >= 1, got nan"),
    (("criterion", *_SOURCE, "--floyd", "invpow:2", "--n-range", "1..2",
      "--margin", "inf"), "--margin", "a finite real >= 1, got inf"),
    (("verify-thick", *_SOURCE, "--structure", "unused.json", "--margin", "-2"),
     "--margin", "a finite real >= 1, got -2.0"),
])
def test_real_flags_need_a_value_in_range(argv, flag, want, capsys):
    assert main(list(argv)) == 1
    assert capsys.readouterr().err == f"floydlab: {flag}: expected {want}\n"


def test_radii_may_start_at_zero(tmp_path):
    out = tmp_path / "d.csv"
    run_cli("floyd-diam", *_SOURCE, "--floyd", "invpow:2", "--radii", "0..1",
            "--out", str(out))
    assert [line.split(",")[:2] for line in out.read_text().splitlines()[2:3]] == [
        ["0", "0.0"]]


@pytest.mark.parametrize("value", ["abc", "٣", "-5", "", "0"])
def test_env_vertex_cap_must_be_ascii_digits(tmp_path, value):
    import os
    env = dict(os.environ, FLOYDLAB_VERTEX_CAP=value)
    proc = subprocess.run(
        [sys.executable, "-m", "floydlab.cli", "gen", "--model", "zn:2",
         "--radius", "2", "--out", str(tmp_path / "z.graph")],
        capture_output=True, text=True, env=env)
    assert proc.returncode == 1
    assert proc.stderr == ("floydlab: FLOYDLAB_VERTEX_CAP: expected an integer "
                           f">= 1, got {value!r}\n")
    assert not (tmp_path / "z.graph").exists()


@pytest.fixture(scope="module")
def z2_r6_graph(tmp_path_factory):
    graph = tmp_path_factory.mktemp("structure") / "z.graph"
    run_cli("gen", "--model", "zn:2", "--radius", "6", "--out", str(graph))
    return graph


def _leaf(vertices):
    return {"C": 1, "order": 0, "D_min": 4,
            "subsets": [{"name": "a", "vertices": vertices}]}


MALFORMED_STRUCTURES = {
    "missing-D_min": ({"C": 1, "order": 0, "subsets": []}, "structure D_min: missing"),
    "top-level-list": ([1, 2], "structure: expected an object, got [1, 2]"),
    "vertex-999": (_leaf([0, 999]), "structure subsets[0].vertices[1]: vertex 999 "
                                    "out of range 0..84"),
    "vertex-minus-1": (_leaf([-1]), "structure subsets[0].vertices[0]: vertex -1 "
                                    "out of range 0..84"),
    "vertices-string": (_leaf("abc"), "structure subsets[0].vertices: expected a "
                                      "list, got \"abc\""),
    "vertex-float": (_leaf([0, 1, 1.5]), "structure subsets[0].vertices[2]: expected "
                                         "an integer, got 1.5"),
    "nested-vertex": ({"C": 1, "order": 1, "D_min": 4, "subsets": [
        {"name": "a", "vertices": [0, 1], "substructure": _leaf([1, 85])}]},
        "structure subsets[0].substructure.subsets[0].vertices[1]: vertex 85 "
        "out of range 0..84"),
    "nested-vertex-outside-parent": ({"C": 1, "order": 1, "D_min": 4, "subsets": [
        {"name": "a", "vertices": [0, 1, 2]},
        {"name": "c", "vertices": [3, 4, 5, 6],
         "substructure": _leaf([4, 60])}]},
        "structure subsets[1].substructure.subsets[0].vertices[1]: vertex 60 "
        "not in parent subset 'c'"),
    "order-bool": ({**_leaf([0]), "order": True},
                   "structure order: expected an integer, got true"),
    "late-vertex-bool": (_leaf(list(range(85)) * 40 + [True]),
                         "structure subsets[0].vertices[3400]: expected an "
                         "integer, got true"),
    "late-vertex-85": (_leaf(list(range(85)) * 40 + [85]),
                       "structure subsets[0].vertices[3400]: vertex 85 out of "
                       "range 0..84"),
    "vertex-huge": (_leaf([0, 1, 10 ** 30]),
                    "structure subsets[0].vertices[2]: vertex "
                    "1000000000000000000000000000000 out of range 0..84"),
    "nested-outside-parent-before-out-of-range": (
        {"C": 1, "order": 1, "D_min": 4, "subsets": [
            {"name": "c", "vertices": [3, 4, 5, 6],
             "substructure": _leaf([4, 5, 60, 99])}]},
        "structure subsets[0].substructure.subsets[0].vertices[2]: vertex 60 "
        "not in parent subset 'c'"),
    "nested-out-of-range-before-outside-parent": (
        {"C": 1, "order": 1, "D_min": 4, "subsets": [
            {"name": "c", "vertices": [3, 4, 5, 6],
             "substructure": _leaf([4, 5, 99, 60])}]},
        "structure subsets[0].substructure.subsets[0].vertices[2]: vertex 99 "
        "out of range 0..84"),
}


@pytest.mark.parametrize("case", sorted(MALFORMED_STRUCTURES))
def test_verify_thick_rejects_malformed_structure(tmp_path, z2_r6_graph, case):
    doc, message = MALFORMED_STRUCTURES[case]
    spath = tmp_path / "structure.json"
    spath.write_text(json.dumps(doc))
    proc = run_cli("verify-thick", "--graph", str(z2_r6_graph), "--structure",
                   str(spath), "--out", str(tmp_path / "v.json"), expect=1)
    assert proc.stderr == f"floydlab: {message}\n"
    assert not (tmp_path / "v.json").exists()


@pytest.mark.parametrize("line,shown", [("nan", "'nan'"), ("inf", "'inf'"),
                                        ("-1e400", "'-1e400'"), ("abc", "'abc'"),
                                        ("0", "'0'")])
def test_floyd_table_rejects_bad_line(tmp_path, line, shown):
    table = tmp_path / "t.txt"
    table.write_text(f"1.0\n\n{line}\n0.25\n")
    out = tmp_path / "d.csv"
    proc = run_cli("floyd-diam", "--model", "zn:2", "--radius", "6", "--floyd",
                   f"table:{table}", "--radii", "1..2", "--out", str(out), expect=1)
    assert proc.stderr == (f"floydlab: table {table} line 3: expected a finite "
                           f"positive real, got {shown}\n")
    assert not out.exists()


def test_env_vertex_cap_overrides(tmp_path):
    import os
    env = dict(os.environ, FLOYDLAB_VERTEX_CAP="50")
    proc = subprocess.run(
        [sys.executable, "-m", "floydlab.cli", "gen", "--model", "zn:2",
         "--radius", "10", "--out", str(tmp_path / "z.graph")],
        capture_output=True, text=True, env=env)
    assert proc.returncode == 1
    assert "cap" in proc.stderr


def test_seed_recorded_in_header(tmp_path):
    out = tmp_path / "dv.csv"
    run_cli("divergence", "--model", "zn:2", "--radius", "12",
            "--n-range", "1..4", "--protocol", "sampled", "--seed", "7",
            "--out", str(out))
    header = out.read_text().splitlines()[0]
    assert "seed=7" in header


@pytest.mark.parametrize("threads", ["1", "4"])
def test_rerun_determinism(tmp_path, threads):
    graph = tmp_path / "z.graph"
    run_cli("gen", "--model", "zn:2", "--radius", "12", "--out", str(graph))
    first = tmp_path / "a.csv"
    second = tmp_path / "b.csv"
    for out in (first, second):
        run_cli("floyd-diam", "--graph", str(graph), "--floyd", "invpow:2",
                "--radii", "2..4", "--threads", threads, "--out", str(out))
    assert first.read_bytes() == second.read_bytes()
