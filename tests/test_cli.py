import contextlib
import hashlib
import io
import os
import random
import signal
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import pytest

from conftest import MIXED_SIGNATURES, cycle_sym, digraph, random_looped, random_mixed
from oracles import naive_count
import homcount.cli
import homcount.homsearch
import homcount.profinite
import homcount.selftest
import homcount.stirling
from homcount.cli import EXIT_INTERNAL, run
from homcount.errors import InvariantViolationError
from homcount.formats import write_structure
from homcount.homsearch import iter_hom_maps
from homcount.sigstruct import E_SM, GRAPH_SIGNATURE, SE_M, MorphismClass

C6_TEXT = """\
signature E/2
structure c6 size 6
E: (0,1) (1,0) (1,2) (2,1) (2,3) (3,2) (3,4) (4,3) (4,5) (5,4) (5,0) (0,5)
end
"""

TWO_C3_TEXT = """\
signature E/2
structure two_c3 size 6
E: (0,1) (1,0) (1,2) (2,1) (2,0) (0,2) (3,4) (4,3) (4,5) (5,4) (5,3) (3,5)
end
"""

K3_TEXT = """\
signature E/2
structure k3 size 3
E: (0,1) (1,0) (0,2) (2,0) (1,2) (2,1)
end
"""

ARC_TEXT = """\
signature E/2
structure arc size 2
E: (0,1)
end
"""

TREES_TEXT = "tree chain3 size 3 parents - 0 1 end\n"
CHERRY_TEXT = "tree cherry size 3 parents - 0 0 end\n"

SPEC_TEXT = """\
treespec unary states 1 start 0
children 0: 0
end
"""

TOWER_TEXT = """\
group Z2 order 2 table 0 1 / 1 0 end
group Z4 order 4 table 0 1 2 3 / 1 2 3 0 / 2 3 0 1 / 3 0 1 2 end
group Z8 order 8 table
0 1 2 3 4 5 6 7 / 1 2 3 4 5 6 7 0 / 2 3 4 5 6 7 0 1 / 3 4 5 6 7 0 1 2 /
4 5 6 7 0 1 2 3 / 5 6 7 0 1 2 3 4 / 6 7 0 1 2 3 4 5 / 7 0 1 2 3 4 5 6
end
tower T levels Z2 Z4 Z8
connect 0 1 0 1
connect 0 1 2 3 0 1 2 3
end
"""

Z2_FAMILY_TEXT = "group Z2 order 2 table 0 1 / 1 0 end\n"

V4_TOWER_TEXT = """\
group V4 order 4 table 0 1 2 3 / 1 0 3 2 / 2 3 0 1 / 3 2 1 0 end
group V8 order 8 table
0 1 2 3 4 5 6 7 / 1 0 3 2 5 4 7 6 / 2 3 0 1 6 7 4 5 / 3 2 1 0 7 6 5 4 /
4 5 6 7 0 1 2 3 / 5 4 7 6 1 0 3 2 / 6 7 4 5 2 3 0 1 / 7 6 5 4 3 2 1 0
end
tower W levels V4 V8
connect 0 1 2 3 0 1 2 3
end
"""


@pytest.fixture()
def files(tmp_path):
    def make(name, text):
        path = tmp_path / name
        path.write_text(text)
        return str(path)

    return make


def invoke(argv, capsys):
    code = run(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_count_hom(files, capsys):
    c = files("arc.struct", ARC_TEXT)
    a = files("k3.struct", K3_TEXT)
    code, out, _ = invoke(["count", "--class", "hom", c, a], capsys)
    assert code == 0
    assert out == "6\n"


def test_count_with_witness_limit(files, capsys):
    c = files("arc.struct", ARC_TEXT)
    a = files("k3.struct", K3_TEXT)
    code, out, _ = invoke(["count", "--limit", "2", c, a], capsys)
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "6"
    assert sum(1 for l in lines if l.startswith("map\t")) == 2
    assert lines[-1] == "truncated"
    code, out, _ = invoke(["count", "--limit", "10", c, a], capsys)
    assert sum(1 for l in out.split("\n") if l.startswith("map\t")) == 6
    assert "truncated" not in out


def test_count_with_a_limit_holds_one_listed_map_at_a_time(files):
    # 20,000 listed maps, each checked as a Morphism and printed before the
    # next is built; held together, they take over 4 MB.
    c = files("e6.struct", "signature E/2\nstructure e6 size 6\nE:\nend\n")
    a = files("e10.struct", "signature E/2\nstructure e10 size 10\nE:\nend\n")
    with open(os.devnull, "w") as devnull, contextlib.redirect_stdout(devnull):
        tracemalloc.start()
        try:
            code = run(["count", "--limit", "20000", c, a])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert code == 0
    assert peak < 2 * 2**20


@pytest.mark.parametrize("argv, expected", [
    (["--class", "quotient", "--limit", "3", "c4", "a2"],
     "4\nmap\t0 1 0 0\nmap\t0 1 0 1\nmap\t0 1 1 0\ntruncated\n"),
    (["--class", "quotient", "--limit", "10", "c4", "a2"],
     "4\nmap\t0 1 0 0\nmap\t0 1 0 1\nmap\t0 1 1 0\nmap\t0 1 1 1\n"),
    (["--limit", "1", "e0", "a2"], "1\nmap\t\n"),
    (["--class", "surjection", "--limit", "2", "e0", "a2"], "0\n"),
])
def test_count_with_a_limit_lists_a_class_counted_by_listing_once(
        files, capsys, monkeypatch, argv, expected):
    # SE_M quotients and size-0 patterns are counted by listing their maps,
    # so the listing that counts them also gives the maps printed
    paths = {"c4": files("c4.struct", "signature E/2\nstructure c size 4\nE: (0,1)\nend\n"),
             "a2": files("a2.struct", "signature E/2\nstructure a size 2\nE: (0,1)\nend\n"),
             "e0": files("e0.struct", "signature E/2\nstructure e size 0\nE:\nend\n")}
    listings = []
    maps = homcount.homsearch._maps
    monkeypatch.setattr(homcount.homsearch, "_maps",
                        lambda *args: listings.append(args) or maps(*args))
    code, out, err = invoke(["count"] + [paths.get(arg, arg) for arg in argv], capsys)
    assert (code, out, err) == (0, expected, "")
    assert len(listings) == 1


def test_count_with_a_limit_prints_the_total_then_the_first_maps(files, capsys, monkeypatch):
    # C6 into a 5-element digraph, 5^6 maps, above the table path's.  A class
    # counted on a path is listed once, up to the limit; SE_M quotients,
    # counted by listing, are listed once, in full.
    c6 = cycle_sym(6)
    target = digraph(5, {(0, 1), (1, 0), (1, 2), (2, 1), (2, 3), (3, 2), (3, 4), (4, 3),
                         (4, 0), (0, 4), (0, 2), (2, 0), (1, 1), (3, 3)})
    c = files("c6.struct", write_structure("c6", c6))
    a = files("t5.struct", write_structure("t5", target))
    cases = [(cls, system, naive_count(c6, target, cls, system),
              list(iter_hom_maps(c6, target, cls, system)))
             for cls in MorphismClass for system in (SE_M, E_SM)]
    pulled = []
    real_maps = homcount.homsearch._maps

    def maps(*args):
        pulled.append(0)
        i = len(pulled) - 1
        for f in real_maps(*args):
            pulled[i] += 1
            yield f

    monkeypatch.setattr(homcount.homsearch, "_maps", maps)
    truncated = 0
    for cls, system, total, listing in cases:
        by_listing = (cls, system) == (MorphismClass.QUOTIENT, SE_M)
        for k in (1, 3, 100):
            del pulled[:]
            code, out, err = invoke(["count", "--class", cls.value, "--system", system.value,
                                     "--limit", str(k), c, a], capsys)
            expected = f"{total}\n" + "".join(
                "map\t" + " ".join(map(str, f)) + "\n" for f in listing[:k])
            if total > k:
                expected += "truncated\n"
                truncated += 1
            assert (code, out, err) == (0, expected, ""), (cls, system, k)
            assert pulled == [total if by_listing else min(total, k)], (cls, system, k)
    assert truncated


@pytest.mark.parametrize("limit", ["0", "-3"])
def test_count_refuses_a_limit_below_one(files, capsys, limit):
    c = files("arc.struct", ARC_TEXT)
    a = files("k3.struct", K3_TEXT)
    for cls in ("hom", "quotient"):
        code, out, err = invoke(["count", "--class", cls, "--limit", limit, c, a], capsys)
        assert (code, out, err) == (2, "", "error: limit must be >= 1 when given\n")


def test_count_with_a_limit_past_sys_maxsize_lists_every_map(files, capsys):
    # No listing holds more than sys.maxsize maps, so such a limit cuts none.
    # The arc has 6 maps into K3, and no quotient, a class counted by listing.
    c = files("arc.struct", ARC_TEXT)
    a = files("k3.struct", K3_TEXT)
    for cls, maps in (("hom", 6), ("quotient", 0)):
        code, out, err = invoke(["count", "--class", cls, "--limit", str(10 ** 20), c, a],
                                capsys)
        assert (code, out, err) == invoke(["count", "--class", cls, "--limit", "1000", c, a],
                                          capsys)
        assert (code, err) == (0, "")
        assert out.count("map\t") == maps and "truncated" not in out


def test_count_with_a_limit_counts_its_total_on_the_frontier_path(files, capsys, monkeypatch):
    # C6 into a 6-element digraph: a plain count the frontier DP takes, once,
    # while the listing stops at the limit
    rng = random.Random(6)
    target = digraph(6, {(i, j) for i in range(6) for j in range(6) if rng.random() < 0.3})
    c = files("c6.struct", write_structure("c6", cycle_sym(6)))
    a = files("g6.struct", write_structure("g6", target))
    calls = []
    frontier = homcount.homsearch._frontier_count
    monkeypatch.setattr(homcount.homsearch, "_frontier_count",
                        lambda *args: calls.append(args) or frontier(*args))
    code, out, err = invoke(["count", "--limit", "3", c, a], capsys)
    lines = out.splitlines()
    assert (code, err) == (0, "")
    assert lines[0] == str(naive_count(cycle_sym(6), target))
    assert len(lines) == 5 and lines[-1] == "truncated"
    assert len(calls) == 1


def test_count_long_path_into_k2(files, capsys):
    arcs = " ".join(f"({i},{i + 1}) ({i + 1},{i})" for i in range(1999))
    c = files("path2000.struct",
              f"signature E/2\nstructure path size 2000\nE: {arcs}\nend\n")
    a = files("k2.struct", "signature E/2\nstructure k2 size 2\nE: (0,1) (1,0)\nend\n")
    code, out, _ = invoke(["count", c, a], capsys)
    assert code == 0
    assert out == "2\n"


def test_count_long_path_into_k3(files, capsys):
    # 3 * 2^39 maps, past the search's reach: counted on the frontier DP
    arcs = " ".join(f"({i},{i + 1}) ({i + 1},{i})" for i in range(39))
    c = files("path40.struct", f"signature E/2\nstructure path size 40\nE: {arcs}\nend\n")
    a = files("k3.struct", K3_TEXT)
    start = time.process_time()
    code, out, _ = invoke(["count", c, a], capsys)
    assert time.process_time() - start < 1.0
    assert (code, out) == (0, "1649267441664\n")


def test_count_signature_mismatch_exit_2(files, capsys):
    c = files("arc.struct", ARC_TEXT)
    other = files("other.struct", "signature R/2\nstructure x size 1\nend\n")
    code, _, err = invoke(["count", c, other], capsys)
    assert code == 2
    assert "error" in err


def test_distinguish_finds_k3_witness(files, capsys):
    a = files("c6.struct", C6_TEXT)
    b = files("2c3.struct", TWO_C3_TEXT)
    code, out, _ = invoke(["distinguish", "--budget", "3", a, b], capsys)
    assert code == 1
    assert "structure witness size 3" in out
    assert "count\tc6\t0" in out
    assert "count\ttwo_c3\t12" in out


def test_distinguish_equal_exit_0(files, capsys):
    a = files("k3.struct", K3_TEXT)
    code, out, _ = invoke(["distinguish", "--budget", "3", a, a], capsys)
    assert code == 0
    assert "profiles-equal-within-budget" in out


def test_distinguish_cap_exit_3(files, capsys, monkeypatch):
    monkeypatch.setenv("HOMCOUNT_CAP", "10")
    a = files("c6.struct", C6_TEXT)
    b = files("2c3.struct", TWO_C3_TEXT)
    code, _, err = invoke(["distinguish", "--budget", "4", a, b], capsys)
    assert code == 3
    assert "cap" in err


def test_distinguish_bad_cap_names_the_variable_exit_2(files, capsys, monkeypatch):
    a = files("c6.struct", C6_TEXT)
    b = files("2c3.struct", TWO_C3_TEXT)
    for setting in ("ten", "-5"):
        monkeypatch.setenv("HOMCOUNT_CAP", setting)
        code, out, err = invoke(["distinguish", "--budget", "4", a, b], capsys)
        assert code == 2
        assert out == ""
        assert f"HOMCOUNT_CAP must be a non-negative integer, got '{setting}'" in err
    # 0 is a cap like any other: the first catalogue level exceeds it
    monkeypatch.setenv("HOMCOUNT_CAP", "0")
    code, out, err = invoke(["distinguish", "--budget", "4", a, b], capsys)
    assert (code, out) == (3, "") and "exceeding cap 0" in err


NINE_TEXT = "signature E/2\nstructure n9 size 9\nend\n"
ELEVEN_TEXT = "signature E/2\nstructure n11 size 11\nend\n"
BINARY_SPEC_TEXT = "treespec binary states 1 start 0\nchildren 0: 0 0\nend\n"


@pytest.mark.parametrize("cap, setting, argv", [
    ("HOMCOUNT_CAP", "10", ["distinguish", "--budget", "4", "c6", "two_c3"]),
    ("PARTITION_SIZE_CAP", None, ["mobius", "nine"]),
    ("CANON_SIZE_CAP", None, ["iso", "nine", "nine"]),
    ("TREEWIDTH_SIZE_CAP", None, ["treewidth", "eleven"]),
    ("TRUNCATION_NODE_CAP", None, ["trees", "truncate", "--depth", "20", "binary"]),
    ("HOMCOUNT_CAP", "1000", ["trees", "distinguish", "--budget", "10", "chain", "chain"]),
])
def test_every_cap_exits_3_and_names_itself(files, capsys, monkeypatch, cap, setting, argv):
    paths = {
        "c6": files("c6.struct", C6_TEXT),
        "two_c3": files("2c3.struct", TWO_C3_TEXT),
        "nine": files("nine.struct", NINE_TEXT),
        "eleven": files("eleven.struct", ELEVEN_TEXT),
        "binary": files("binary.spec", BINARY_SPEC_TEXT),
        "chain": files("chain.tree", TREES_TEXT),
    }
    if setting is None:
        monkeypatch.delenv("HOMCOUNT_CAP", raising=False)
    else:
        monkeypatch.setenv("HOMCOUNT_CAP", setting)
    code, out, err = invoke([paths.get(arg, arg) for arg in argv], capsys)
    assert code == 3
    assert out == ""
    assert cap in err and "exceeding cap" in err
    assert ("set the environment variable HOMCOUNT_CAP to raise it" in err) == \
        (setting is not None)


def test_iso(files, capsys):
    a = files("c6.struct", C6_TEXT)
    b = files("2c3.struct", TWO_C3_TEXT)
    code, out, _ = invoke(["iso", a, b], capsys)
    assert code == 0
    assert out == "false\n"
    code, out, _ = invoke(["iso", a, a], capsys)
    assert out == "true\n"


def test_profile_deterministic_tsv(files, capsys):
    a = files("k3.struct", K3_TEXT)
    code, out1, _ = invoke(["profile", "--budget", "2", a], capsys)
    assert code == 0
    code, out2, _ = invoke(["profile", "--budget", "2", a], capsys)
    assert out1 == out2
    lines = out1.strip().split("\n")
    assert len(lines) == 12  # 2 + 10 canonical tests
    assert all(len(line.split("\t")) == 2 for line in lines)


def test_mobius_output(files, capsys):
    c = files("arc.struct", ARC_TEXT)
    code, out, _ = invoke(["mobius", c], capsys)
    assert code == 0
    lines = out.strip().split("\n")
    assert "element\t0\t0.1" in lines  # the collapse class
    assert "element\t1\t0|1" in lines  # the identity (top) class
    assert "hasse\t0\t1" in lines
    assert "mobius\t0\t1\t-1" in lines


# sha256 of `homcount mobius` stdout by element count, taken when the table
# was read off a checked up-set table with mu by recursion (`FinitePoset`).
# The table reads only the partitions, so it depends on the element count
# alone.
MOBIUS_TABLE_SHA256 = {
    0: "f9bc7791af08d0832ca92c967784a3424532f87651a1dc6cc1541e9a4290c9ab",
    1: "13587aa0ecd0e488676daaa43c364c8e21d38bbfafec12d79155b1ef97ffe0f7",
    2: "cbf978417bc1ae50bd597e9c8caae0482f52f9a710817e21a2012bf11dbae026",
    3: "a251513e01c24b6b101d15dd85fdb6fe54bd67ab243099df50800fa829656fa8",
    4: "ba255f6e13558af97e229ea1b171c719b5981dd351817351e9e4d525ac5ef7f9",
    5: "6a3cacd298cd1042e1cf62f4ff2d3047b7d1036349c03c1b6fa7a8fbb2a44e1b",
    6: "96fff0c196ea9152695ee82b47a7dd9119c9aed3d3f627372289002bade2b8d4",
    7: "e7eebebe5bc7ce7c5421779e622d49deb532bd90d237eebe0d1a2578e0b6020d",
    8: "90871443ecd99c3403460689fe152bffddb31626b93b873cc5f46167053702eb",
}


def test_mobius_table_is_byte_identical(files, capsys):
    # E/2 with loops on 0-8 elements, and the mixed arity E/2,R/3 on 0-7
    # (the 8-element table, 4,140 classes, is the dear one).
    rng = random.Random(35)
    cases = [(n, random_looped(rng, GRAPH_SIGNATURE, n, 0.3) if n else digraph(0, set()))
             for n in range(9)]
    cases += [(n, random_mixed(rng, MIXED_SIGNATURES[0], n)) for n in range(8)]
    for n, c in cases:
        code, out, err = invoke(["mobius", files(f"c{n}.struct", write_structure("c", c))],
                                capsys)
        assert (code, err) == (0, "")
        assert hashlib.sha256(out.encode()).hexdigest() == MOBIUS_TABLE_SHA256[n], c


def test_kernel_output(files, capsys):
    three = files(
        "three.struct", "signature E/2\nstructure n3 size 3\nend\n"
    )
    two = files("two.struct", "signature E/2\nstructure n2 size 2\nend\n")
    code, out, _ = invoke(["kernel", three, two], capsys)
    assert code == 0
    assert out.startswith("partition\tblocks\tgeneric\n")
    assert out.strip().endswith("total\t\t8")


LOOPED_C5_TEXT = """\
signature E/2
structure c5 size 5
E: (0,0) (0,1) (1,2) (2,3) (3,1) (3,4)
end
"""

LOOPED_A4_TEXT = """\
signature E/2
structure a4 size 4
E: (0,0) (0,1) (1,0) (1,2) (2,0) (2,2) (3,3) (2,3)
end
"""

# One row per realized E_SM class, in the order of block count, partition
# and sorted relations: partitions repeat when their classes differ in the
# pulled-back relations.
KERNEL_E_SM_OUT = """\
partition\tblocks\tgeneric
0.1.2.3.4\t1\t3
0|1.2.3.4\t2\t2
0.1.2.3|4\t2\t1
0.1.2.3|4\t2\t2
0.1.2.4|3\t2\t1
0.1.3|2.4\t2\t1
0.1.3.4|2\t2\t1
0.2.3|1.4\t2\t1
0.2.3.4|1\t2\t1
0|1.2.3|4\t3\t1
0|1.2.4|3\t3\t1
0|1.3|2.4\t3\t1
0|1.3.4|2\t3\t1
0.1|2|3.4\t3\t1
0.1|2.4|3\t3\t1
0.1.2|3|4\t3\t1
0.1.4|2|3\t3\t1
0.1.4|2|3\t3\t1
0.3|1.4|2\t3\t1
0.3|1.4|2\t3\t1
0.3.4|1|2\t3\t1
0.3.4|1|2\t3\t1
0.4|1.2|3\t3\t1
0.1|2|3|4\t4\t1
0.3|1|2|4\t4\t1
total\t\t29
"""


def test_kernel_e_sm_output_is_pinned(files, capsys):
    c = files("c5.struct", LOOPED_C5_TEXT)
    a = files("a4.struct", LOOPED_A4_TEXT)
    code, out, _ = invoke(["kernel", "--system", "e-sm", c, a], capsys)
    assert code == 0
    assert out == KERNEL_E_SM_OUT


# One row per kernel partition, zero rows included, in `set_partitions` order.
KERNEL_SE_M_OUT = """\
partition\tblocks\tgeneric
0.1.2.3.4\t1\t3
0.1.2.3|4\t2\t3
0.1.2.4|3\t2\t1
0.1.2|3.4\t2\t0
0.1.2|3|4\t3\t1
0.1.3.4|2\t2\t1
0.1.3|2.4\t2\t1
0.1.3|2|4\t3\t0
0.1.4|2.3\t2\t0
0.1|2.3.4\t2\t0
0.1|2.3|4\t3\t0
0.1.4|2|3\t3\t2
0.1|2.4|3\t3\t1
0.1|2|3.4\t3\t1
0.1|2|3|4\t4\t1
0.2.3.4|1\t2\t1
0.2.3|1.4\t2\t1
0.2.3|1|4\t3\t0
0.2.4|1.3\t2\t0
0.2|1.3.4\t2\t0
0.2|1.3|4\t3\t0
0.2.4|1|3\t3\t0
0.2|1.4|3\t3\t0
0.2|1|3.4\t3\t0
0.2|1|3|4\t4\t0
0.3.4|1.2\t2\t0
0.3|1.2.4\t2\t0
0.3|1.2|4\t3\t0
0.4|1.2.3\t2\t0
0|1.2.3.4\t2\t2
0|1.2.3|4\t3\t1
0.4|1.2|3\t3\t1
0|1.2.4|3\t3\t1
0|1.2|3.4\t3\t0
0|1.2|3|4\t4\t0
0.3.4|1|2\t3\t2
0.3|1.4|2\t3\t2
0.3|1|2.4\t3\t0
0.3|1|2|4\t4\t1
0.4|1.3|2\t3\t0
0|1.3.4|2\t3\t1
0|1.3|2.4\t3\t1
0|1.3|2|4\t4\t0
0.4|1|2.3\t3\t0
0|1.4|2.3\t3\t0
0|1|2.3.4\t3\t0
0|1|2.3|4\t4\t0
0.4|1|2|3\t4\t0
0|1.4|2|3\t4\t0
0|1|2.4|3\t4\t0
0|1|2|3.4\t4\t0
0|1|2|3|4\t5\t0
total\t\t29
"""


def test_kernel_se_m_output_is_pinned(files, capsys):
    c = files("c5.struct", LOOPED_C5_TEXT)
    a = files("a4.struct", LOOPED_A4_TEXT)
    code, out, _ = invoke(["kernel", "--system", "se-m", c, a], capsys)
    assert code == 0
    assert out == KERNEL_SE_M_OUT


def test_stirling(capsys):
    code, out, _ = invoke(["stirling", "4", "2"], capsys)
    assert code == 0
    assert out == "7\n"


def test_treewidth(files, capsys):
    a = files("k3.struct", K3_TEXT)
    code, out, _ = invoke(["treewidth", a], capsys)
    assert code == 0
    assert out == "2\n"


def test_ck_hom_profile(files, capsys):
    a = files("c6.struct", C6_TEXT)
    b = files("2c3.struct", TWO_C3_TEXT)
    code, out, _ = invoke(["ck", "--k", "3", "--budget", "3", a, b], capsys)
    assert code == 1
    assert "structure witness size 3" in out
    code, out, _ = invoke(
        ["ck", "--k", "2", "--budget", "4", "--undirected", a, b], capsys
    )
    assert code == 0
    assert "equivalent-within-budget" in out


def test_ck_cap_exit_3(files, capsys, monkeypatch):
    monkeypatch.setenv("HOMCOUNT_CAP", "10")
    a = files("c6.struct", C6_TEXT)
    b = files("2c3.struct", TWO_C3_TEXT)
    code, out, err = invoke(["ck", "--k", "3", "--budget", "4", "--undirected", a, b],
                            capsys)
    assert code == 3
    assert out == ""
    assert "11 candidate structures, exceeding cap 10" in err


def test_ck_k2_tree_walk_cap_exit_3(files, capsys, monkeypatch):
    monkeypatch.delenv("HOMCOUNT_CAP", raising=False)
    a = files("arc.struct", ARC_TEXT)
    b = files("k3.struct", K3_TEXT)
    code, out, err = invoke(["ck", "--k", "2", "--budget", "7", a, b], capsys)
    assert code == 3
    assert out == ""
    assert "1128470 candidate structures, exceeding cap 1000000" in err


def test_ck_wl_method(files, capsys):
    a = files("c6.struct", C6_TEXT)
    b = files("2c3.struct", TWO_C3_TEXT)
    code, out, _ = invoke(["ck", "--k", "2", "--method", "wl", a, b], capsys)
    assert code == 0
    assert "equivalent" in out
    code, out, _ = invoke(["ck", "--k", "3", "--method", "wl", a, b], capsys)
    assert code == 1


def test_trees_count(files, capsys):
    chain = files("chain.tree", TREES_TEXT)
    cherry = files("cherry.tree", CHERRY_TEXT)
    # depth is preserved, so the 3-chain cannot land in the 2-level cherry
    code, out, _ = invoke(["trees", "count", chain, cherry], capsys)
    assert code == 0
    assert out == "0\n"
    code, out, _ = invoke(["trees", "count", cherry, chain], capsys)
    assert out == "1\n"


def test_trees_count_deep_chain(files, capsys):
    parents = " ".join(["-"] + [str(v) for v in range(600)])
    chain = files("chain.tree", f"tree chain size 601 parents {parents} end\n")
    code, out, _ = invoke(["trees", "count", chain, chain], capsys)
    assert code == 0
    assert out == "1\n"


def test_trees_count_past_the_int_digit_limit(files, capsys):
    # A 5,000-edge star into an 11-node star: 10^5000 maps, past Python's
    # default limit of 4,300 digits for int-to-text; the limit is restored.
    def star(name, leaves):
        return files(f"{name}.tree",
                     f"tree {name} size {leaves + 1} parents - {' 0' * leaves} end\n")

    digit_limit = getattr(sys, "get_int_max_str_digits", lambda: None)
    before = digit_limit()
    code, out, _ = invoke(["trees", "count", star("big", 5000), star("small", 10)], capsys)
    assert code == 0
    assert out == "1" + "0" * 5000 + "\n"
    assert digit_limit() == before


def test_trees_distinguish(files, capsys):
    p = files("chain.tree", TREES_TEXT)
    q = files("cherry.tree", CHERRY_TEXT)
    code, out, _ = invoke(["trees", "distinguish", "--budget", "3", p, q], capsys)
    assert code == 1
    assert "tree witness size 2 parents - 0 end" in out
    assert "count\tchain3\t1" in out
    assert "count\tcherry\t2" in out


def test_trees_truncate(files, capsys):
    spec = files("unary.spec", SPEC_TEXT)
    code, out, _ = invoke(["trees", "truncate", "--depth", "3", spec], capsys)
    assert code == 0
    assert out == "tree unary size 4 parents - 0 1 2 end\n"


def test_tower_count(files, capsys):
    t = files("t.twr", TOWER_TEXT)
    fam = files("fam.grp", Z2_FAMILY_TEXT)
    code, out, _ = invoke(["tower", "count", t, fam], capsys)
    assert code == 0
    assert out == "2\tstabilized\n"


def test_tower_distinguish_and_surjections(files, capsys):
    t1 = files("t1.twr", TOWER_TEXT)
    t2 = files("t2.twr", V4_TOWER_TEXT)
    fam = files("fam.grp", Z2_FAMILY_TEXT)
    code, out, err = invoke(
        ["tower", "distinguish", "--family", fam, t1, t2], capsys
    )
    assert code == 1
    assert "witness\tZ2" in out
    assert "count\tT\t2" in out
    assert "count\tW\t8" in out
    # W's level counts step 4 -> 8, so Z2 is flagged as unstabilized
    assert "not stabilized" in err

    v4fam = files("v4fam.grp",
                  "group V4 order 4 table 0 1 2 3 / 1 0 3 2 / 2 3 0 1 / 3 2 1 0 end\n")
    code, out, _ = invoke(["tower", "surjections", "--family", v4fam, t1], capsys)
    assert code == 0
    assert out == "V4\tfalse\n"
    code, out, _ = invoke(["tower", "surjections", "--family", v4fam, t2], capsys)
    assert out == "V4\ttrue\n"


def test_parse_error_exit_2(files, capsys):
    """One bad file of each kind: exit 2, nothing on stdout, the line on stderr."""
    cases = [
        (["treewidth"], "signature E/2\nstructure a size 2\nE: (0,5)\nend\n", 3),
        (["trees", "count", "FILE"], "tree a size 2\nparents - x\nend\n", 2),
        (["trees", "truncate", "--depth", "1"],
         "treespec a states 1 start 0\nchildren 0: 1\nend\n", 2),
        (["tower", "count", "FILE"], "group Z2 order 2 table\n0 1 / 1 1\nend\n", 1),
        (["tower", "count", "FILE"],
         "group Z2 order 2 table 0 1 / 1 0 end\ntower T levels Z2\nZ3 end\n", 3),
        (["tower", "surjections", "--family", "FILE"],
         "group A order 1 table 0 end\ngroup A order 2 table 0 1 / 1 0 end\n", 2),
        (["tower", "count", "FILE"],
         "group G order 1 table 0 end\ntower T levels G end\ntower T levels G end\n", 3),
    ]
    for argv, text, line in cases:
        bad = files("bad.txt", text)
        code, out, err = invoke([bad if arg == "FILE" else arg for arg in argv] + [bad], capsys)
        assert (code, out) == (2, "")
        assert err.startswith(f"error: line {line}: ")


@pytest.mark.parametrize("argv", [
    ["profile", "--budget", "0", "K3"],
    ["distinguish", "--budget", "0", "K3", "K3"],
    ["ck", "--k", "2", "--budget", "0", "K3", "K3"],
    ["trees", "distinguish", "--budget", "-1", "TREE", "TREE"],
])
def test_a_budget_below_1_is_a_usage_error(files, capsys, argv):
    paths = {"K3": files("k3.struct", K3_TEXT), "TREE": files("t.tree", TREES_TEXT)}
    code, out, err = invoke([paths.get(arg, arg) for arg in argv], capsys)
    assert (code, out, err) == (2, "", "error: budget must be >= 1\n")


def test_tower_warnings_name_each_family_member(files, capsys):
    """Two family groups with one table but different names are two members:
    each is named in its own warning."""
    w = files("w.twr", V4_TOWER_TEXT)
    fam = files("fam.grp", "group Z2 order 2 table 0 1 / 1 0 end\n"
                           "group C2 order 2 table 0 1 / 1 0 end\n")
    code, out, err = invoke(["tower", "distinguish", "--family", fam, w, w], capsys)
    assert (code, out) == (0, "profiles-equal-within-budget\n")
    assert err == ("warning: counts for Z2 not stabilized\n"
                   "warning: counts for C2 not stabilized\n")


@pytest.mark.parametrize("argv, kind", [
    (["treewidth", "EMPTY"], "structure"),
    (["trees", "count", "EMPTY", "EMPTY"], "tree"),
    (["trees", "truncate", "--depth", "1", "EMPTY"], "treespec"),
])
def test_a_file_without_blocks_names_the_block_kind_exit_2(files, capsys, argv, kind):
    empty = files("empty.txt", "")
    code, out, err = invoke([empty if arg == "EMPTY" else arg for arg in argv], capsys)
    assert (code, out) == (2, "")
    assert err == f"error: {empty} contains no {kind} block\n"


def test_usage_error_exit_2(capsys):
    assert run(["nonsense"]) == 2


MIXED_TEXT = "signature E/2 R/3\nstructure m size 2\nE: (0,1)\nR: (0,1,1)\nend\n"
BAD_ENTRY_FAMILY_TEXT = ("group Z2 order 2 table 0 1 / 1 0 end\n"
                         "group Y order 2 table 0 1 / 1 2 end\n")


@pytest.mark.parametrize("argv, code, out, err", [
    (["count", "MISSING", "K3"], 2, "", "error: cannot read MISSING"),
    (["ck", "--k", "2", "K3", "K3"], 2, "", "error: --budget is required"),
    (["ck", "--k", "0", "--budget", "2", "K3", "K3"], 2, "", "error: k must be >= 1"),
    (["ck", "--k", "2", "--budget", "2", "--undirected", "MIXED", "MIXED"], 2, "",
     "error: the undirected preset needs exactly one binary symbol"),
    (["stirling", "-1", "2"], 2, "", "error: arguments must be non-negative"),
    (["trees", "distinguish", "--budget", "3", "TREE", "TREE"], 0,
     "profiles-equal-within-budget\n", ""),
    (["tower", "count", "TOWER", "BAD_FAMILY"], 2, "",
     "error: line 2: table entries out of range"),
])
def test_refusals_and_equal_trees_exit_cleanly(files, tmp_path, capsys, argv, code, out,
                                               err):
    paths = {"K3": files("k3.struct", K3_TEXT), "MIXED": files("m.struct", MIXED_TEXT),
             "TREE": files("t.tree", TREES_TEXT), "TOWER": files("t.twr", TOWER_TEXT),
             "BAD_FAMILY": files("bad.grp", BAD_ENTRY_FAMILY_TEXT),
             "MISSING": str(tmp_path / "missing.struct")}
    got_code, got_out, got_err = invoke([paths.get(arg, arg) for arg in argv], capsys)
    assert (got_code, got_out) == (code, out)
    assert got_err.startswith(err.replace("MISSING", paths["MISSING"]))
    assert "Traceback" not in got_err


def test_byte_identical_reruns(files, capsys):
    a = files("c6.struct", C6_TEXT)
    b = files("2c3.struct", TWO_C3_TEXT)
    outs = []
    for _ in range(2):
        code, out, _ = invoke(["distinguish", "--budget", "3", a, b], capsys)
        outs.append((code, out))
    assert outs[0] == outs[1]


def test_selftest_quick(capsys):
    code, out, _ = invoke(["selftest", "--level", "quick"], capsys)
    assert code == 0
    lines = [l for l in out.strip().split("\n") if l]
    assert len(lines) == 8
    assert all(line.startswith("PASS") for line in lines)


def test_internal_error_exit_4_with_traceback(files, capsys, monkeypatch):
    def broken(args):
        raise RuntimeError("broken handler")

    monkeypatch.setitem(homcount.cli._HANDLERS, "count", broken)
    a = files("k3.struct", K3_TEXT)
    code, out, err = invoke(["count", a, a], capsys)
    assert code == EXIT_INTERNAL == 4
    assert out == ""
    assert "Traceback" in err and "RuntimeError: broken handler" in err


def test_failed_internal_check_exit_4_with_traceback(files, capsys, monkeypatch):
    # A failed internal check (InvariantViolationError) is an internal
    # error, not a usage error.
    def broken(args):
        raise InvariantViolationError("kernel rows do not add up")

    monkeypatch.setitem(homcount.cli._HANDLERS, "kernel", broken)
    a = files("k3.struct", K3_TEXT)
    code, out, err = invoke(["kernel", a, a], capsys)
    assert code == EXIT_INTERNAL
    assert out == ""
    assert "Traceback" in err and "InvariantViolationError: kernel rows do not add up" in err


def test_a_kernel_that_does_not_add_up_exits_4_with_traceback(files, capsys, monkeypatch):
    real = homcount.stirling.hom_count
    monkeypatch.setattr(homcount.stirling, "hom_count", lambda c, a: real(c, a) + 1)
    a = files("k3.struct", K3_TEXT)
    code, out, err = invoke(["kernel", a, a], capsys)
    assert code == EXIT_INTERNAL
    assert out == ""
    assert "Traceback" in err
    assert "InvariantViolationError: kernel decomposition of hom-set does not add up" in err


def test_tower_counts_that_decrease_exit_4_with_traceback(files, capsys, monkeypatch):
    monkeypatch.setattr(homcount.profinite, "count_group_homs", lambda g, c: 10 - g.order)
    t = files("t.twr", TOWER_TEXT)
    fam = files("fam.grp", Z2_FAMILY_TEXT)
    code, out, err = invoke(["tower", "count", t, fam], capsys)
    assert code == EXIT_INTERNAL
    assert out == ""
    assert "Traceback" in err
    assert "InvariantViolationError: hom counts decreased along the tower: [8, 6, 2]" in err


@pytest.mark.skipif(not hasattr(signal, "SIGPIPE"), reason="the platform has no SIGPIPE")
def test_a_closed_stdout_ends_the_command_by_sigpipe_silently(files):
    # 100,000 listed maps are 1.6 MB, more than a pipe buffer holds (64 KB by
    # default on Linux, 1 MB at most), so the command is still writing when
    # its reader goes away.
    c = files("e6.struct", "signature E/2\nstructure e6 size 6\nE:\nend\n")
    a = files("e10.struct", "signature E/2\nstructure e10 size 10\nE:\nend\n")
    src = str(Path(homcount.cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH"))))}
    proc = subprocess.Popen(
        [sys.executable, "-m", "homcount.cli", "count", "--limit", "100000", c, a],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    assert proc.stdout.readline() == b"1000000\n"
    proc.stdout.close()
    err = proc.stderr.read()
    assert proc.wait(timeout=60) == -signal.SIGPIPE
    assert err == b""


@pytest.mark.parametrize("command", ["distinguish", "mobius"])
def test_system_is_not_an_option_of_distinguish_or_mobius_exit_2(files, capsys, command):
    a = files("k3.struct", K3_TEXT)
    argv = [command, "--system", "e-sm"] + (
        ["--budget", "2", a, a] if command == "distinguish" else [a])
    code, out, err = invoke(argv, capsys)
    assert code == 2
    assert out == ""
    assert "--system" in err


def test_failed_selftest_exit_4(capsys, monkeypatch):
    failing = (1, "always fails", lambda level: (False, "forced failure"))
    monkeypatch.setattr(homcount.selftest, "CRITERIA", (failing,))
    code, out, _ = invoke(["selftest", "--level", "quick"], capsys)
    assert code == EXIT_INTERNAL
    assert out.startswith("FAIL\tcriterion 1\talways fails\tforced failure\t")
