import pytest

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
from homcount.trees import chain_tree
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
