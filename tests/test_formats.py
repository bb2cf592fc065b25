import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from homcount.errors import ParseError
from homcount.formats import (
    parse_groups_and_towers,
    parse_structures,
    parse_tree_specs,
    parse_trees,
    write_structure,
    write_tree,
)
from homcount.profinite import cyclic_group
from homcount.sigstruct import Signature, Structure
from homcount.trees import FiniteTree, chain_tree
from oracles import tree_encoding

STRUCT_TEXT = """\
signature E/2 R/3
structure demo size 4
E: (0,1) (1,2)
R: (0,1,2)
end
"""


def test_parse_structure_block():
    blocks = parse_structures(STRUCT_TEXT)
    assert len(blocks) == 1
    name, s = blocks[0]
    assert name == "demo"
    assert s.size == 4
    assert s.relation("E") == frozenset({(0, 1), (1, 2)})
    assert s.relation("R") == frozenset({(0, 1, 2)})


def test_parse_structure_omitted_symbols_are_empty():
    text = "signature E/2\nstructure a size 2\nend\n"
    _, s = parse_structures(text)[0]
    assert s.relation("E") == frozenset()


def test_parse_multiple_blocks_share_signature():
    text = (
        "signature E/2\n"
        "structure a size 1\nE: (0,0)\nend\n"
        "structure b size 2\nE: (0,1)\nend\n"
    )
    blocks = parse_structures(text)
    assert [name for name, _ in blocks] == ["a", "b"]
    assert blocks[0][1].signature == blocks[1][1].signature


def test_parse_rejects_out_of_range_index():
    text = "signature E/2\nstructure a size 2\nE: (0,2)\nend\n"
    with pytest.raises(ParseError) as err:
        parse_structures(text)
    assert err.value.line == 3


def test_parse_says_a_size_0_structure_has_no_elements():
    text = "signature E/2\nstructure a size 0\nE: (2,0)\nend\n"
    with pytest.raises(ParseError) as err:
        parse_structures(text)
    assert str(err.value) == \
        "line 3: tuple (2,0) out of range (the structure has no elements)"


def test_parse_rejects_arity_mismatch():
    text = "signature E/2\nstructure a size 2\nE: (0,1,0)\nend\n"
    with pytest.raises(ParseError) as err:
        parse_structures(text)
    assert err.value.line == 3


def test_parse_rejects_unknown_symbol_and_stray_text():
    with pytest.raises(ParseError):
        parse_structures("signature E/2\nstructure a size 2\nF: (0,1)\nend\n")
    with pytest.raises(ParseError):
        parse_structures("signature E/2\nstructure a size 2\nE: (0,1) junk\nend\n")


def test_parse_rejects_unterminated_block():
    with pytest.raises(ParseError):
        parse_structures("signature E/2\nstructure a size 2\nE: (0,1)\n")


def test_structure_round_trip():
    blocks = parse_structures(STRUCT_TEXT)
    name, s = blocks[0]
    again = parse_structures(write_structure(name, s))
    assert again[0][1] == s


def test_parse_tree_block():
    name, t = parse_trees("tree demo size 5 parents - 0 0 1 1 end")[0]
    assert name == "demo"
    assert t.size == 5
    assert t.parent == (-1, 0, 0, 1, 1)


def test_parse_tree_empty_and_round_trip():
    name, t = parse_trees("tree empty size 0 parents end")[0]
    assert t.size == 0
    for tree in [chain_tree(4), t]:
        again = parse_trees(write_tree("x", tree))[0][1]
        assert tree_encoding(again) == tree_encoding(tree)


def test_parse_tree_rejects_two_roots():
    with pytest.raises(ParseError):
        parse_trees("tree bad size 2 parents - - end")


def test_parse_tree_spec():
    text = (
        "treespec unary states 2 start 0\n"
        "children 0: 1\n"
        "children 1: 1\n"
        "end\n"
    )
    name, spec = parse_tree_specs(text)[0]
    assert name == "unary"
    assert spec.children == ((1,), (1,))
    assert spec.start == 0


def test_parse_tree_spec_missing_children():
    text = "treespec bad states 2 start 0\nchildren 0: 1\nend\n"
    with pytest.raises(ParseError):
        parse_tree_specs(text)


GROUP_TEXT = """\
group Z2 order 2 table 0 1 / 1 0 end
group Z4 order 4 table
0 1 2 3 /
1 2 3 0 /
2 3 0 1 /
3 0 1 2
end
tower T levels Z2 Z4
connect 0 1 0 1
end
"""


def test_parse_groups_and_towers():
    groups, towers = parse_groups_and_towers(GROUP_TEXT)
    assert set(groups) == {"Z2", "Z4"}
    assert groups["Z4"].table == cyclic_group(4).table
    t = towers["T"]
    assert [g.order for g in t.levels] == [2, 4]
    assert t.connecting[0].map == (0, 1, 0, 1)


def test_a_trailing_slash_opens_a_row_that_end_drops():
    groups, _ = parse_groups_and_towers("group Z2 order 2 table 0 1 / 1 0 / end")
    assert groups["Z2"].table == ((0, 1), (1, 0))


def test_parse_tower_rejects_non_surjective_connect():
    text = (
        "group Z2 order 2 table 0 1 / 1 0 end\n"
        "group Z4 order 4 table 0 1 2 3 / 1 2 3 0 / 2 3 0 1 / 3 0 1 2 end\n"
        "tower T levels Z2 Z4\nconnect 0 0 0 0\nend\n"
    )
    with pytest.raises(ParseError):
        parse_groups_and_towers(text)


def test_parse_group_rejects_bad_table():
    with pytest.raises(ParseError):
        parse_groups_and_towers("group bad order 2 table 0 1 / 1 1 end")


def test_parse_tower_unknown_level():
    with pytest.raises(ParseError):
        parse_groups_and_towers("tower T levels nope end")


_S = "signature E/2\nstructure a size 2\n"
_Z2 = "group Z2 order 2 table 0 1 / 1 0 end\n"
_Z4 = "group Z4 order 4 table 0 1 2 3 / 1 2 3 0 / 2 3 0 1 / 3 0 1 2 end\n"
_T = _Z2 + _Z4 + "tower T levels Z2 Z4\n"

# One malformed input per rejection path of each format: (parser, text, the
# 1-based line the ParseError names).
REJECTIONS = {
    "structures: stray text":
        (parse_structures, _S + "E: (0,1) junk\nend\n", 3),
    "structures: unexpected line":
        (parse_structures, "signature E/2\n\nhello\n", 3),
    "structures: duplicate relation line":
        (parse_structures, _S + "E: (0,1)\nE: (1,0)\nend\n", 4),
    "structures: unknown symbol":
        (parse_structures, _S + "F: (0,1)\nend\n", 3),
    "structures: not a relation line":
        (parse_structures, _S + "E (0,1)\nend\n", 3),
    "structures: no NAME/ARITY":
        (parse_structures, "signature E2\n", 1),
    "structures: bad symbol name":
        (parse_structures, "\nsignature 1E/2\n", 2),
    "structures: bad arity":
        (parse_structures, "signature E/x\n", 1),
    "structures: arity below 1":
        (parse_structures, "signature E/0\n", 1),
    "structures: duplicate symbol":
        (parse_structures, "signature E/2 E/3\n", 1),
    "structures: empty signature":
        (parse_structures, "signature\n", 1),
    "structures: bad header":
        (parse_structures, "signature E/2\nstructure a size x\nend\n", 2),
    "structures: bad tuple":
        (parse_structures, _S + "E: (0,a)\nend\n", 3),
    "structures: arity mismatch":
        (parse_structures, _S + "E: (0,1,0)\nend\n", 3),
    "structures: out-of-range index":
        (parse_structures, _S + "E: (0,2)\nend\n", 3),
    "structures: negative index":
        (parse_structures, _S + "E: (0,-1)\nend\n", 3),
    "structures: block before signature":
        (parse_structures, "\nstructure a size 2\nend\n", 2),
    "structures: unterminated block":
        (parse_structures, "signature E/2\n\nstructure a size 2\nE: (0,1)\n", 3),
    "trees: expected tree":
        (parse_trees, "forest a size 1 parents - end", 1),
    "trees: expected size":
        (parse_trees, "tree a\nsz 1 parents - end", 2),
    "trees: bad size":
        (parse_trees, "tree a size\nx parents end", 2),
    "trees: expected parents":
        (parse_trees, "tree a size 1\nparent - end", 2),
    "trees: bad parent entry":
        (parse_trees, "tree a size 2 parents\n- x end", 2),
    "trees: expected end":
        (parse_trees, "tree a size 1 parents -\n0 end", 2),
    "trees: end of input":
        (parse_trees, "tree a size 2\nparents -\n", 2),
    "trees: end of input after name":
        (parse_trees, "\ntree a", 2),
    "trees: two roots":
        (parse_trees, "tree a size 2 parents\n- -\nend", 3),
    "trees: parent out of range":
        (parse_trees, "tree a size 2 parents - 5\nend", 2),
    "trees: cycle":
        (parse_trees, "tree a size 3 parents - 2 1\nend", 2),
    "trees: negative size":
        (parse_trees, "tree a size -1 parents\nend", 2),
    "tree specs: header":
        (parse_tree_specs, "treespec a states x start 0\nend\n", 1),
    "tree specs: not a children line":
        (parse_tree_specs, "treespec a states 1 start 0\nkids 0: 0\nend\n", 2),
    "tree specs: duplicate state":
        (parse_tree_specs, "treespec a states 2 start 0\nchildren 0: 1\nchildren 0: 1\nend\n", 3),
    "tree specs: state out of range":
        (parse_tree_specs, "treespec a states 2 start 0\nchildren 2: 1\nend\n", 2),
    "tree specs: bad child":
        (parse_tree_specs, "treespec a states 2 start 0\nchildren 0: 1 x\nend\n", 2),
    "tree specs: child out of range":
        (parse_tree_specs, "treespec a states 2 start 0\nchildren 0: 2\nend\n", 2),
    "tree specs: missing children":
        (parse_tree_specs, "\ntreespec a states 2 start 0\nchildren 0: 1\nend\n", 2),
    "tree specs: start out of range":
        (parse_tree_specs, "\ntreespec a states 1 start 1\nchildren 0:\nend\n", 2),
    "tree specs: unterminated block":
        (parse_tree_specs, "treespec a states 1 start 0\n\nchildren 0: 0\n", 1),
    "groups: expected group or tower":
        (parse_groups_and_towers, "\ngroop Z2 order 2 table 0 1 / 1 0 end", 2),
    "groups: expected order":
        (parse_groups_and_towers, "group Z2\nsize 2 table 0 1 / 1 0 end", 2),
    "groups: bad order":
        (parse_groups_and_towers, "group Z2 order\ntwo table 0 1 / 1 0 end", 2),
    "groups: expected table":
        (parse_groups_and_towers, "group Z2 order 2\nrows 0 1 / 1 0 end", 2),
    "groups: bad table entry":
        (parse_groups_and_towers, "group Z2 order 2 table\n0 1 /\n1 x end", 3),
    "groups: too few rows":
        (parse_groups_and_towers, "group Z2 order 2 table\n0 1 end", 1),
    "groups: short row":
        (parse_groups_and_towers, "group Z2 order 2 table\n0 1 / 1 end", 1),
    "groups: not a group":
        (parse_groups_and_towers, "group Z2 order 2 table\n0 1 / 1 1 end", 1),
    "groups: unexpected end of input":
        (parse_groups_and_towers, "group Z2 order 2 table 0 1\n/ 1 0\n", 2),
    "groups: duplicate group name":
        (parse_groups_and_towers, "group A order 1 table 0 end\n\ngroup A\norder 1 table 0 end\n", 3),
    "towers: expected levels":
        (parse_groups_and_towers, _Z2 + "tower T\nlevel Z2 end\n", 3),
    "towers: unknown level":
        (parse_groups_and_towers, _Z2 + "tower T levels Z2\nnope end\n", 3),
    "towers: no levels":
        (parse_groups_and_towers, _Z2 + "\ntower T levels end\n", 3),
    "towers: too many connect lines":
        (parse_groups_and_towers, _Z2 + "tower T levels Z2\nconnect 0 1\nend\n", 3),
    "towers: bad image entry":
        (parse_groups_and_towers, _T + "connect 0 1 x 1\nend\n", 4),
    "towers: not a homomorphism":
        (parse_groups_and_towers, _T + "connect 0 1 1 1\nend\n", 4),
    "towers: non-surjective connecting map":
        (parse_groups_and_towers, _T + "connect 0 0 0 0\nend\n", 3),
    "towers: missing connect line":
        (parse_groups_and_towers, _T + "end\n", 3),
    "towers: expected end":
        (parse_groups_and_towers, _T + "connect 0 1 0 1\nfin\n", 5),
    "towers: unexpected end of input":
        (parse_groups_and_towers, _T + "connect 0 1 0 1\n", 4),
    "towers: unknown level read to end of input":
        (parse_groups_and_towers, _Z2 + "tower T levels nope\n", 2),
    "towers: level list runs to end of input":
        (parse_groups_and_towers, _Z2 + "tower T levels Z2\nZ2\n", 3),
    "towers: duplicate tower name":
        (parse_groups_and_towers, _Z2 + "tower T levels Z2 end\ntower T levels Z2 end\n", 3),
}


@pytest.mark.parametrize("case", REJECTIONS)
def test_every_rejection_names_its_line(case):
    parse, text, line = REJECTIONS[case]
    with pytest.raises(ParseError) as err:
        parse(text)
    assert err.value.line == line


# Block names: any run of printable non-space characters, parentheses included.
_NAMES = st.text(st.characters(blacklist_categories=("Z", "C")), min_size=1, max_size=6)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_structure_text_round_trip(data):
    n = data.draw(st.integers(0, 6))
    cells = st.integers(0, max(n - 1, 0))

    def tuples(arity):
        return data.draw(st.sets(st.tuples(*[cells] * arity), max_size=12) if n
                         else st.just(set()))

    s = Structure.build(Signature((("E", 2), ("R", 3))), n, {"E": tuples(2), "R": tuples(3)})
    name = data.draw(_NAMES)
    assert parse_structures(write_structure(name, s)) == [(name, s)]


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_tree_text_round_trip(data):
    n = data.draw(st.integers(0, 8))
    order = data.draw(st.permutations(range(n)))
    parent = [-1] * n
    for i in range(1, n):  # order[i] hangs below a node placed before it
        parent[order[i]] = order[data.draw(st.integers(0, i - 1))]
    t = FiniteTree(n, tuple(parent))
    name = data.draw(_NAMES)
    assert parse_trees(write_tree(name, t)) == [(name, t)]
