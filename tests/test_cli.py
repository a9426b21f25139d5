import contextlib
import csv
import hashlib
import io
import json
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import FILE_EDITS, mutate, star_comb
from ksec.cli import RunRecord, main
from ksec.errors import KsecError
from ksec.graph import write_gr
from ksec.treedec import parse_td


def run(args):
    return main(args)


def test_tree_end_to_end(tmp_path, capsys):
    gr = tmp_path / "p9.gr"
    gr.write_text("c demo\np ks 9 8\n" + "".join(f"{i} {i+1}\n" for i in range(1, 9)))
    out_json = tmp_path / "out.json"
    assert run(["tree", "--input", str(gr), "-k", "3", "--json", str(out_json), "--oracle"]) == 0
    text = capsys.readouterr().out
    assert "width=2" in text
    assert "oracle minimum width: 2" in text
    payload = json.loads(out_json.read_text())
    assert payload["width"] == 2
    assert payload["oracle_width"] == 2
    assert len(payload["parts"]) == 3
    # stable ordering: serialized keys are sorted
    assert out_json.read_text() == json.dumps(payload, sort_keys=True, indent=2) + "\n"


def test_tree_parse_error_exit_2(tmp_path, capsys):
    bad = tmp_path / "bad.gr"
    bad.write_text("p ks 3 1\n1 9\n")
    assert run(["tree", "--input", str(bad), "-k", "2"]) == 2
    assert "line 2" in capsys.readouterr().err


def test_missing_file_exit_2(tmp_path, capsys):
    assert run(["tree", "--input", str(tmp_path / "nope.gr"), "-k", "2"]) == 2


def test_k_out_of_range_exit_2(tmp_path, capsys):
    gr = tmp_path / "g.gr"
    gr.write_text("p ks 3 2\n1 2\n2 3\n")
    assert run(["tree", "--input", str(gr), "-k", "1"]) == 2


def test_td_end_to_end_and_invalid_td(tmp_path, capsys):
    gr = tmp_path / "g.gr"
    gr.write_text("p ks 4 3\n1 2\n2 3\n3 4\n")
    td = tmp_path / "g.td"
    td.write_text("s td 3 2 4\nb 1 1 2\nb 2 2 3\nb 3 3 4\n1 2\n2 3\n")
    assert run(["td", "--graph", str(gr), "--td", str(td), "-k", "2"]) == 0
    assert "width=1" in capsys.readouterr().out

    bad = tmp_path / "bad.td"
    bad.write_text("s td 3 2 4\nb 1 1 2\nb 2 2\nb 3 3 4\n1 2\n2 3\n")
    assert run(["td", "--graph", str(gr), "--td", str(bad), "-k", "2"]) == 2
    assert "T2" in capsys.readouterr().err


def test_invalid_td_is_checked_once_and_named(tmp_path, capsys):
    gr = tmp_path / "p4.gr"
    gr.write_text("p ks 4 3\n1 2\n2 3\n3 4\n")
    uncovered = tmp_path / "t2.td"  # edge (2,3) lies in no cluster
    uncovered.write_text("s td 2 2 4\nb 1 1 2\nb 2 3 4\n1 2\n")
    assert run(["td", "--graph", str(gr), "--td", str(uncovered), "-k", "2"]) == 2
    assert "fails T2 at (2, 3)" in capsys.readouterr().err

    missing = tmp_path / "t1.td"  # vertex 4 lies in no cluster
    missing.write_text("s td 2 2 4\nb 1 1 2\nb 2 2 3\n1 2\n")
    argv = ["oracle", "mincut-td", "--graph", str(gr), "--td", str(missing), "-m", "2"]
    assert run(argv) == 2
    assert "fails T1 at 4" in capsys.readouterr().err


def test_gen_run_pipeline(tmp_path, capsys):
    out = tmp_path / "inst"
    assert run(["gen", "adversarial_ternary_path", "--height", "2", "--seed", "3", "--out", str(out)]) == 0
    assert run(["tree", "--input", str(out) + ".gr", "-k", "4"]) == 0

    out2 = tmp_path / "pk"
    assert run(["gen", "random_partial_ktree", "--n", "20", "--t", "3", "--seed", "4", "--out", str(out2)]) == 0
    assert run(["td", "--graph", str(out2) + ".gr", "--td", str(out2) + ".td", "-k", "3"]) == 0


def test_gen_determinism(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    for out in (a, b):
        assert run(["gen", "random_tree_maxdeg", "--n", "33", "--max-degree", "4",
                    "--seed", "12", "--out", str(out)]) == 0
    assert (tmp_path / "a.gr").read_bytes() == (tmp_path / "b.gr").read_bytes()


def test_bench_adversarial_csv(tmp_path):
    out = tmp_path / "r.csv"
    assert run(["bench", "adversarial", "--heights", "2..3", "-k", "4",
                "--seed", "1", "--csv", str(out)]) == 0
    rows = list(csv.DictReader(out.read_text().splitlines()))
    assert len(rows) == 2
    assert rows[0]["family"] == "adversarial_ternary_path"
    assert int(rows[0]["width"]) <= float(rows[0]["bound_tree"])
    assert rows[0]["baseline_width"] != ""
    # round-trip: rows reconstruct RunRecords
    rec = RunRecord(**rows[0])
    assert rec.n == rows[0]["n"] and rec.family == "adversarial_ternary_path"
    assert list(rows[0].keys()) == RunRecord.csv_fields()


@pytest.mark.parametrize("k", ["2,3", "x"])
def test_bench_adversarial_takes_a_single_k(k, capsys):
    assert run(["bench", "adversarial", "--heights", "2..2", "-k", k, "--seed", "1"]) == 2
    assert f"error: adversarial suite takes a single k, got {k!r}" in capsys.readouterr().err


def test_bench_random_trees_and_empty_suite(tmp_path):
    out = tmp_path / "rt.csv"
    assert run(["bench", "random-trees", "--count", "3", "--n", "10..40",
                "-k", "2,3", "--seed", "9", "--csv", str(out)]) == 0
    rows = list(csv.DictReader(out.read_text().splitlines()))
    assert len(rows) == 6
    for row in rows:
        assert int(row["width"]) <= float(row["bound_tree"])
        assert int(row["width"]) <= float(row["bound_tree_improved"])

    empty = tmp_path / "empty.csv"
    assert run(["bench", "random-trees", "--count", "0", "--seed", "1", "--csv", str(empty)]) == 0
    assert empty.read_text().strip() == ",".join(RunRecord.csv_fields())


def test_bench_partial_ktrees(tmp_path):
    out = tmp_path / "pk.csv"
    assert run(["bench", "partial-ktrees", "--count", "2", "--n", "10..30", "--t", "3",
                "-k", "2", "--seed", "5", "--csv", str(out)]) == 0
    rows = list(csv.DictReader(out.read_text().splitlines()))
    assert len(rows) == 2
    for row in rows:
        assert int(row["width"]) <= float(row["bound_td"])
        assert row["r"].count("/") == 1


def test_oracle_subcommands(tmp_path, capsys):
    gr = tmp_path / "g.gr"
    gr.write_text("p ks 7 6\n" + "".join(f"1 {v}\n" for v in range(2, 8)))
    assert run(["oracle", "minksec", "--input", str(gr), "-k", "2"]) == 0
    assert "MinSec(2) = 3" in capsys.readouterr().out
    assert run(["oracle", "mincut", "--input", str(gr), "-m", "3"]) == 0
    assert "min width with |B|=3: 3" in capsys.readouterr().out

    td = tmp_path / "g.td"
    td.write_text("s td 1 7 7\nb 1 1 2 3 4 5 6 7\n")
    assert run(["oracle", "mincut-td", "--graph", str(gr), "--td", str(td), "-m", "3"]) == 0
    assert "min width with |B|=3: 3" in capsys.readouterr().out


def test_labeling_dump(tmp_path, capsys):
    gr = tmp_path / "p5.gr"
    gr.write_text("p ks 5 4\n1 2\n2 3\n3 4\n4 5\n")
    assert run(["labeling", "--input", str(gr)]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["path"] == [1, 2, 3, 4, 5]
    assert payload["label_of"]["1"] == 1


def test_labeling_dump_of_a_tree_off_its_path_is_pinned(tmp_path):
    """The whole ``--json`` dump, byte for byte, where labels are no longer the ids.

    The longest path is 6 5 2 3 7 8; vertices 1, 4 and 9 hang off it, and
    1 and 9 share the block of path vertex 2.
    """
    gr, out = tmp_path / "t.gr", tmp_path / "lab.json"
    gr.write_text("p ks 9 8\n1 2\n2 3\n3 4\n2 5\n5 6\n3 7\n7 8\n1 9\n")
    assert run(["labeling", "--input", str(gr), "--json", str(out)]) == 0
    assert json.loads(out.read_text())["label_of"] == {
        "1": 4, "2": 5, "3": 7, "4": 6, "5": 2, "6": 1, "7": 8, "8": 9, "9": 3,
    }
    digest = hashlib.sha256(out.read_bytes()).hexdigest()
    assert digest == "4c7b16f83ef32346c4dacc661a5354cea39a8064e12d139d3badc229e12988d9"


def path_gr(n):
    return f"p ks {n} {n - 1}\n" + "".join(f"{i} {i+1}\n" for i in range(1, n))


def path_td(n):
    return (f"s td {n - 1} 2 {n}\n" + "".join(f"b {i} {i} {i+1}\n" for i in range(1, n))
            + "".join(f"{i} {i+1}\n" for i in range(1, n - 1)))


@pytest.mark.parametrize("cmd", [
    ["tree", "--input", "{gr}", "-k", "2", "--json", "{out}"],
    ["td", "--graph", "{gr}", "--td", "{td}", "-k", "2", "--json", "{out}"],
    ["labeling", "--input", "{gr}", "--json", "{out}"],
    ["bench", "random-trees", "--count", "1", "--n", "10..10", "-k", "2", "--seed", "1",
     "--csv", "{out}"],
    ["gen", "random_tree_maxdeg", "--n", "10", "--max-degree", "3", "--seed", "1",
     "--out", "{out}"],
], ids=["tree", "td", "labeling", "bench", "gen"])
def test_an_output_path_in_a_missing_directory_exits_2_naming_it(tmp_path, capsys, cmd):
    gr, td = tmp_path / "p4.gr", tmp_path / "p4.td"
    gr.write_text(path_gr(4))
    td.write_text(path_td(4))
    out = tmp_path / "missing" / "x"
    assert run([arg.format(gr=gr, td=td, out=out) for arg in cmd]) == 2
    assert str(out) in capsys.readouterr().err


# each input a command reads, with "{bad}" standing for the one it cannot open
@pytest.mark.parametrize("cmd", [
    ["tree", "--input", "{bad}", "-k", "2"],
    ["td", "--graph", "{bad}", "--td", "{td}", "-k", "2"],
    ["td", "--graph", "{gr}", "--td", "{bad}", "-k", "2"],
    ["labeling", "--input", "{bad}"],
    ["oracle", "minksec", "--input", "{bad}", "-k", "2"],
    ["oracle", "mincut", "--input", "{bad}", "-m", "2"],
    ["oracle", "mincut-td", "--graph", "{bad}", "--td", "{td}", "-m", "2"],
    ["oracle", "mincut-td", "--graph", "{gr}", "--td", "{bad}", "-m", "2"],
], ids=["tree", "td-graph", "td-td", "labeling", "minksec", "mincut", "mincut-td-graph",
        "mincut-td-td"])
def test_an_input_path_that_cannot_be_read_exits_2_naming_it(tmp_path, capsys, cmd):
    gr, td = tmp_path / "p4.gr", tmp_path / "p4.td"
    gr.write_text(path_gr(4))
    td.write_text(path_td(4))
    bad = tmp_path / "missing" / "x"
    assert run([arg.format(gr=gr, td=td, bad=bad) for arg in cmd]) == 2
    assert str(bad) in capsys.readouterr().err


# the DP guard: 1 MB admits the parse of a 2000-vertex path (160 kB) but not its tables
DP_TRIPPED = "resource guard: exact-cut DP tables exceed memory guard"


def test_resource_guard_exit_4(tmp_path, capsys, monkeypatch):
    # every cut of at most 2 edges blacks a count that is not 2 mod 4, so m = 2002 of the
    # comb's 4004 vertices takes the tree DP, whose tables need about 8 MB
    monkeypatch.setenv("KSEC_MAX_MEM_MB", "1")
    gr = tmp_path / "comb.gr"
    gr.write_text(write_gr(star_comb(1001, 3)))
    assert run(["oracle", "mincut", "--input", str(gr), "-m", "2002"]) == 4
    assert DP_TRIPPED in capsys.readouterr().err


def test_a_cut_of_width_at_most_2_needs_no_dp_tables(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("KSEC_MAX_MEM_MB", "1")
    gr = tmp_path / "p.gr"
    gr.write_text(path_gr(2000))
    assert run(["oracle", "mincut", "--input", str(gr), "-m", "1000"]) == 0
    assert "min width with |B|=1000: 1" in capsys.readouterr().out


def test_resource_guard_exit_4_on_the_decomposition_dp(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("KSEC_MAX_MEM_MB", "1")
    gr = tmp_path / "p.gr"
    gr.write_text(path_gr(2000))
    td = tmp_path / "p.td"
    td.write_text(path_td(2000))
    assert run(["oracle", "mincut-td", "--graph", str(gr), "--td", str(td), "-m", "1000"]) == 4
    assert DP_TRIPPED in capsys.readouterr().err


def test_resource_guard_exit_4_on_a_huge_k(tmp_path, capsys, monkeypatch):
    """k >= n builds k parts, most of them empty; the guard is read before they are."""
    monkeypatch.setenv("KSEC_MAX_MEM_MB", "1")
    gr = tmp_path / "p.gr"
    gr.write_text(path_gr(3))
    assert run(["tree", "--input", str(gr), "-k", str(10**6)]) == 4
    assert "resource guard: k=1000000 parts need about 190 MB" in capsys.readouterr().err


def test_resource_guard_exit_4_on_the_parse(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("KSEC_MAX_MEM_MB", "0")
    gr = tmp_path / "p.gr"
    gr.write_text(path_gr(40))
    assert run(["oracle", "mincut", "--input", str(gr), "-m", "20"]) == 4
    err = capsys.readouterr().err
    assert "resource guard: line 1: 40 vertices need about 0 MB, over the 0 MB" in err


@pytest.mark.parametrize("value", ["abc", "1.5", ""])
@pytest.mark.parametrize("cmd", [["tree", "-k", "2"], ["oracle", "mincut", "-m", "2"]])
def test_a_malformed_memory_guard_is_named_with_exit_2(tmp_path, capsys, monkeypatch, cmd,
                                                       value):
    monkeypatch.setenv("KSEC_MAX_MEM_MB", value)
    gr = tmp_path / "p.gr"
    gr.write_text(path_gr(5))
    assert run(cmd + ["--input", str(gr)]) == 2
    err = capsys.readouterr().err
    assert f"error: KSEC_MAX_MEM_MB must be an integer (MB), got {value!r}" in err


def gen_pair(out, seed, n, t):
    """Write ``out``.gr and ``out``.td, a random partial t-tree from ``ksec gen``."""
    with contextlib.redirect_stdout(io.StringIO()):
        assert run(["gen", "random_partial_ktree", "--seed", str(seed), "--n", str(n),
                    "--t", str(t), "--out", str(out)]) == 0
    return Path(f"{out}.gr"), Path(f"{out}.td")


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 2 ** 30), st.integers(1, 10), st.integers(1, 4), FILE_EDITS)
def test_parse_td_on_mutated_files_raises_only_typed_errors(seed, n, t, edits):
    with tempfile.TemporaryDirectory() as tmp:
        _, td_file = gen_pair(Path(tmp) / "g", seed, n, t)
        text = mutate(td_file.read_text(), edits)
    with contextlib.suppress(KsecError):  # FormatError is one
        parse_td(text)


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 2 ** 30), st.integers(1, 10), st.integers(1, 4),
       st.sampled_from(["gr", "td"]), FILE_EDITS, st.integers(-1, 11),
       st.sampled_from([None, "0", "abc"]))
def test_cli_on_a_mutated_pair_exits_only_with_a_contract_code(seed, n, t, which, edits, size, mem):
    """``ksec td``, ``tree``, ``oracle mincut`` and ``mincut-td`` exit 0, 2, 3 or 4."""
    with tempfile.TemporaryDirectory() as tmp, pytest.MonkeyPatch.context() as mp:
        gr, td = gen_pair(Path(tmp) / "g", seed, n, t)
        hit = gr if which == "gr" else td
        hit.write_text(mutate(hit.read_text(), edits))
        if mem is None:
            mp.delenv("KSEC_MAX_MEM_MB", raising=False)
        else:
            mp.setenv("KSEC_MAX_MEM_MB", mem)
        pair = ["--graph", str(gr), "--td", str(td)]
        for argv in (["td", *pair, "-k", str(size)],
                     ["tree", "--input", str(gr), "-k", str(size)],
                     ["oracle", "mincut", "--input", str(gr), "-m", str(size)],
                     ["oracle", "mincut-td", *pair, "-m", str(size)]):
            quiet = io.StringIO()
            with contextlib.redirect_stdout(quiet), contextlib.redirect_stderr(quiet):
                assert run(argv) in (0, 2, 3, 4), argv
