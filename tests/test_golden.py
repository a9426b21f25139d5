"""Golden outputs: SHA-256 of the full result of the public section calls.

Each case hashes the parts, the width, ``BoundReport.to_dict()`` and every
per-cut trace dict (case tags, anchors, intermediate sets) of one seeded
instance.  The CLI cases hash the bytes that ``ksec tree --json``, ``ksec td
--json`` and ``ksec labeling --json`` write for an instance from ``ksec gen``,
and the CSV that each ``ksec bench`` suite writes with its ``seconds`` column
blanked.
A refactor that claims to keep behaviour must keep these hashes; a change
that alters output on purpose must update them and say why.
"""

import contextlib
import csv
import hashlib
import io
import json

import pytest

import oracles
from ksec.cli import main
from ksec.engine import cut_prescribed_sizes, ksection_td_detailed, ksection_tree_detailed
from ksec.instances import GeneratorSpec, Xorshift64Star, generate


def _digest(payload) -> str:
    return hashlib.sha256(json.dumps(payload, sort_keys=True).encode()).hexdigest()


def _tree(seed: int, n: int, k: int, cap: int = 5) -> str:
    g, _ = generate(GeneratorSpec("random_tree_maxdeg", seed=seed, n=n, max_degree=cap))
    section, report, traces = ksection_tree_detailed(g, k)
    return _digest([section.parts, section.width, report.to_dict(), traces])


def _adversarial(height: int, k: int) -> str:
    g, _ = generate(GeneratorSpec("adversarial_ternary_path", height=height))
    section, report, traces = ksection_tree_detailed(g, k)
    return _digest([section.parts, section.width, report.to_dict(), traces])


def _dary(arity: int, height: int, k: int) -> str:
    g, _ = generate(GeneratorSpec("perfect_dary", arity=arity, height=height))
    section, report, traces = ksection_tree_detailed(g, k)
    return _digest([section.parts, section.width, report.to_dict(), traces])


def _forest(seed: int, shares: tuple) -> str:
    g = oracles.random_forest(Xorshift64Star(seed), n_lo=300, n_hi=600, max_degree=5, drop=8)
    sizes = [g.n * s // sum(shares) for s in shares]
    sizes[-1] += g.n - sum(sizes)
    parts, report = cut_prescribed_sizes(g, sizes)
    return _digest([parts, report.to_dict()])


def _td(seed: int, n: int, k: int) -> str:
    g, td = generate(GeneratorSpec("random_partial_ktree", seed=seed, n=n, t=4))
    section, report, traces = ksection_td_detailed(g, td, k)
    return _digest([section.parts, section.width, report.to_dict(), traces])


CASES = {
    "tree-s11-n200-k2": (_tree, (11, 200, 2)),
    "tree-s12-n200-k16": (_tree, (12, 200, 16)),
    "tree-s13-n700-k3": (_tree, (13, 700, 3)),
    "tree-s14-n1200-k16": (_tree, (14, 1200, 16)),
    "tree-s15-n2000-k2": (_tree, (15, 2000, 2)),
    "tree-s16-n2000-k16": (_tree, (16, 2000, 16)),
    "tree-s19-n300-k16-cap3": (_tree, (19, 300, 16, 3)),
    "adversarial-h4-k2": (_adversarial, (4, 2)),
    "adversarial-h4-k3": (_adversarial, (4, 3)),
    "adversarial-h4-k16": (_adversarial, (4, 16)),
    "adversarial-h6-k2": (_adversarial, (6, 2)),
    # inner optima of 5 and 6: the one inner cut of each runs the tree DP
    "dary-3-h6-k2": (_dary, (3, 6, 2)),
    "dary-5-h4-k2": (_dary, (5, 4, 2)),
    "forest-s21-1:1:1": (_forest, (21, (1, 1, 1))),
    "forest-s22-1:3:2:5": (_forest, (22, (1, 3, 2, 5))),
    "td-s31-n200-k2": (_td, (31, 200, 2)),
    "td-s32-n200-k4": (_td, (32, 200, 4)),
    "td-s34-n200-k4": (_td, (34, 200, 4)),
    "td-s44-n200-k4": (_td, (44, 200, 4)),
    # its induced decompositions hold 182 empty nodes in all, its glued ones 28:
    # the glue builds only the spans of Ṽ's clusters (two whole copies held 2374)
    "td-s51-n1000-k4": (_td, (51, 1000, 4)),
    # its parts change if the glue drops its empty stand-ins: the width goes 1071 -> 1070
    "td-s1-n1000-k16": (_td, (1, 1000, 16)),
}

EXPECTED = {
    "adversarial-h4-k16": "e9fc622519e843db2c5e955814fdf8e6e1ddfd5b0cc882d8435b2f02907b1b7f",
    "adversarial-h4-k2": "3b94a5310c767ca911bab205e6ba05a3279de245e772b92b32974e33c34112b8",
    "adversarial-h4-k3": "5cf6d4ada6b5461d858af677a6a69ae5e65aabd377111e01e53a1d591a467acc",
    "adversarial-h6-k2": "70488a951e4335939c3b41c0b563427be1c32d7722c53f96ba9ede0a0de9a88a",
    "dary-3-h6-k2": "16bdab9d74f5703e94bb04182a34aa096f09ff08024e6521e0d9afdad9370602",
    "dary-5-h4-k2": "b81155d64f5b3fe060a7d7ed0a0a266fe5592dce6029e742ed2a713685beeabc",
    "forest-s21-1:1:1": "6f4d2d16a91e2b2b17e0281e590d282c3196c702cec3f1edcbafaf7fae6070d0",
    "forest-s22-1:3:2:5": "c11250f215168f53425cfbc99ec06422b6f7dc34f002e0b64bba9bfa8735c37d",
    "td-s1-n1000-k16": "5e9d223597d1f86ce42815b88138c4cc02c16855915e515294b437642a4de219",
    "td-s31-n200-k2": "478e92b0765dd040124042b62c0484f9acecfcc56e0726a34eda9d14acbe7141",
    "td-s32-n200-k4": "b41f5a88211bfd26e7065794af9da0ccdf87d4c0381f27037bbcbbe58b60055f",
    "td-s34-n200-k4": "731eeb4880287ce6cb68a3e007c905480f480c9684d53512a6c7d97a5ec37f91",
    "td-s44-n200-k4": "5ff29890f1af38db46ccb7273781390e3dcc77165c8809f6b14cb25fd5f2608b",
    "td-s51-n1000-k4": "e317d95f760c0bcfaf74220010c4b8dd9b688e1d4c44015ba31ce25f612c32e1",
    "tree-s11-n200-k2": "9496a1d556c4319bbc1e2761ea8d9c6094f63aaff04c29a5a8a7398879c9d8ca",
    "tree-s12-n200-k16": "d0aecf3aea570d2730497cb87296ba796538c8c314b85b3a954b7b48e561dafa",
    "tree-s13-n700-k3": "a406cd57b7efefef6a11c0e0ea34f6dc1df4b5fbd9046f066038f87e121a4d66",
    "tree-s14-n1200-k16": "c1041df0ed2125ed93019588a945dbce1bdb2c1570e8130b19bd3d100c124671",
    "tree-s15-n2000-k2": "29946586cf0212af3bb4da0b6798e6cfaf92ae2e4da2f6c4755119a111907b1b",
    "tree-s16-n2000-k16": "ef2b85e2bdbdb156eae708e1c4faab2a35f0d8475181ae6465148b18c722195d",
    "tree-s19-n300-k16-cap3": "a55a880aca64f0d050c3d7184712b8b4989b0798c13b9f5c6a51ab2f497bca3f",
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden(name):
    fn, args = CASES[name]
    assert fn(*args) == EXPECTED[name]


# name -> (``ksec gen`` arguments, command and its arguments); the instance
# files are handed to the command as --input, or --graph and --td
CLI_CASES = {
    "tree-s61-n400-k4": (
        ["random_tree_maxdeg", "--seed", "61", "--n", "400", "--max-degree", "5"],
        ["tree", "-k", "4"],
    ),
    "tree-adversarial-h4-k3": (
        ["adversarial_ternary_path", "--seed", "64", "--height", "4"],
        ["tree", "-k", "3"],
    ),
    "td-s62-n150-k4": (
        ["random_partial_ktree", "--seed", "62", "--n", "150", "--t", "3"],
        ["td", "-k", "4"],
    ),
    "labeling-s63-n120": (
        ["random_tree_maxdeg", "--seed", "63", "--n", "120", "--max-degree", "4"],
        ["labeling"],
    ),
}

CLI_EXPECTED = {
    "labeling-s63-n120": "f3fff65f7c30c3424ab7baeb2be58a6c60cb2d2d072aadf85306610ff001e6d0",
    "td-s62-n150-k4": "0e633025f2364f08bdbe91958065e183e543c18bc8bf07c92d90ca4bdb862a89",
    "tree-adversarial-h4-k3": "02e68313ef42cf8bb694b12e3570db0f4d2431a6862cc4b0b7c7e7130a7aee8d",
    "tree-s61-n400-k4": "1a9f045f5dcc76d402ba98779dad658841bdb97d90143f61cd336015e5458307",
}


@pytest.mark.parametrize("name", sorted(CLI_CASES))
def test_cli_golden(name, tmp_path):
    gen, (cmd, *rest) = CLI_CASES[name]
    inst, out = tmp_path / "inst", tmp_path / "out.json"
    if cmd == "td":
        files = ["--graph", f"{inst}.gr", "--td", f"{inst}.td"]
    else:
        files = ["--input", f"{inst}.gr"]
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["gen", *gen, "--out", str(inst)]) == 0
        assert main([cmd, *files, *rest, "--json", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == CLI_EXPECTED[name]


# name -> ``ksec bench`` arguments; the suites build their own seeded instances
BENCH_CASES = {
    "adversarial-h3..5-k4": ["adversarial", "--seed", "1", "--heights", "3..5", "-k", "4"],
    "partial-ktrees-s72": ["partial-ktrees", "--seed", "72", "--count", "3", "--n", "40..120",
                           "-k", "2,4"],
    "random-trees-s71": ["random-trees", "--seed", "71", "--count", "5", "--n", "6..30",
                         "-k", "2,3", "--oracle", "--oracle-limit", "10"],
}

BENCH_EXPECTED = {
    "adversarial-h3..5-k4": "f418f97ef5d3fddf59c1093c6eb53e2154b4ef735f4c50d88840becbdff2af9d",
    "partial-ktrees-s72": "b259d5c65b0d5d5290c6942d95edd762f041619ba89abb8d76e1b4b5767eb94b",
    "random-trees-s71": "6c1e130b1ad2bfb113655b312d5b945012aa04f851041b9c501c1f28be6205c0",
}


@pytest.mark.parametrize("name", sorted(BENCH_CASES))
def test_bench_csv_golden(name, tmp_path):
    out = tmp_path / "bench.csv"
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["bench", *BENCH_CASES[name], "--csv", str(out)]) == 0
    with out.open(newline="") as fh:
        rows = list(csv.reader(fh))
    col = rows[0].index("seconds")
    for row in rows[1:]:
        row[col] = ""  # wall time, the one column that varies between runs
    text = io.StringIO()
    csv.writer(text, lineterminator="\n").writerows(rows)
    assert hashlib.sha256(text.getvalue().encode()).hexdigest() == BENCH_EXPECTED[name]
