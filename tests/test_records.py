"""The package's value records are plain classes: each keeps its
constructor, field names, equality, hash, repr and immutability, and
importing the command line loads neither `dataclasses` nor `inspect`."""

import copy
import os
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

import homcount.cli
from homcount.cklogic import CkVerdict, TreeDecomposition
from homcount.homsearch import CountResult
from homcount.lovasz import DistinguishResult, HomProfile
from homcount.profinite import FiniteGroup, GroupHom, Tower, cyclic_group, direct_product
from homcount.quotposet import QuotientClass
from homcount.selftest import CriterionResult
from homcount.sigstruct import SE_M, Morphism, Signature, Structure
from homcount.stirling import DecompositionRow, KernelDecomposition
from homcount.trees import FiniteTree, RationalTreeSpec

SIG = Signature((("E", 2),))
ARC = Structure(SIG, 2, (frozenset({(0, 1)}),))
LOOP = Structure(SIG, 1, (frozenset({(0, 0)}),))
Z2, Z4 = cyclic_group(2), cyclic_group(4)
Z4_Z2 = GroupHom(Z4, Z2, (0, 1, 0, 1))
V4 = direct_product(Z2, Z2)
V4_Z2 = GroupHom(V4, Z2, (0, 1, 0, 1))
ROW = DecompositionRow(((0,), (1,)), ARC, 1)

# class, its fields in constructor order with one value each, the defaults
# of the trailing fields, the fields equality and hash leave out, and other
# values for some fields that make the record unequal
RECORDS = [
    (Signature, {"symbols": (("E", 2),)}, {}, (), {"symbols": (("F", 2),)}),
    (Structure, {"signature": SIG, "size": 2, "relations": (frozenset({(0, 1)}),)}, {}, (),
     {"relations": (frozenset({(1, 0)}),)}),
    (Morphism, {"domain": ARC, "codomain": ARC, "map": (0, 1)}, {}, (),
     {"codomain": LOOP}),
    (CountResult, {"count": 3, "witnesses": (), "truncated": True},
     {"witnesses": None, "truncated": False}, (), {"count": 4}),
    (TreeDecomposition, {"bags": (frozenset({0, 1}),), "tree": (), "width": 1}, {}, (),
     {"width": 2}),
    (CkVerdict, {"equivalent": False, "witness": ARC, "counts": (1, 2)},
     {"witness": None, "counts": None}, (), {"counts": (2, 1)}),
    (FiniteTree, {"size": 2, "parent": (-1, 0)}, {}, (), {"parent": (1, -1)}),
    (RationalTreeSpec, {"states": ("a", "b"), "children": ((1,), ()), "start": 0}, {}, (),
     {"start": 1}),
    (DecompositionRow, {"partition": ((0,), (1,)), "codomain": ARC, "generic": 1}, {}, (),
     {"generic": 2}),
    (KernelDecomposition, {"source": ARC, "target": ARC, "system": SE_M, "rows": (ROW,),
                           "total": 1, "homcount": 1}, {}, (), {"total": 2}),
    (FiniteGroup, {"order": 2, "table": Z2.table, "name": "Z2"}, {"name": ""}, ("name",),
     {"table": ((1, 0), (0, 1))}),
    (GroupHom, {"domain": Z4, "codomain": Z2, "map": (0, 1, 0, 1)}, {}, (),
     {"map": (0, 0, 0, 0)}),
    (Tower, {"levels": (Z2, Z4), "connecting": (Z4_Z2,), "name": "T"}, {"name": ""},
     ("name",), {"levels": (Z2, V4), "connecting": (V4_Z2,)}),
    (QuotientClass, {"partition": ((0,), (1,)), "codomain": ARC}, {}, (),
     {"codomain": Structure(SIG, 2, (frozenset(),))}),
    (HomProfile, {"subject": ARC, "family": (ARC,), "counts": (1,), "side": "right"}, {}, (),
     {"side": "left"}),
    (DistinguishResult, {"witness": ARC, "counts": (1, 2), "verdict": "distinguished",
                         "warnings": ("w",)}, {"warnings": ()}, (), {"verdict": "equal"}),
    (CriterionResult, {"number": 1, "name": "n", "passed": True, "detail": "d",
                       "seconds": 0.5}, {}, (), {"passed": False}),
]
IDS = [cls.__name__ for cls, *_ in RECORDS]


def test_every_record_is_listed_once():
    assert len(set(IDS)) == len(IDS) == 17


@pytest.mark.parametrize("cls, fields, defaults, ignored, other", RECORDS, ids=IDS)
def test_construction_by_position_keyword_and_defaults(cls, fields, defaults, ignored, other):
    by_position = cls(*fields.values())
    by_keyword = cls(**fields)
    for name, value in fields.items():
        assert getattr(by_position, name) is value
        assert getattr(by_keyword, name) is value
    required = {k: v for k, v in fields.items() if k not in defaults}
    with_defaults = cls(**required)
    for name, value in defaults.items():
        assert getattr(with_defaults, name) == value
    with pytest.raises(TypeError):
        cls(*fields.values(), None)


@pytest.mark.parametrize("cls, fields, defaults, ignored, other", RECORDS, ids=IDS)
def test_equality_and_hash_over_the_compared_fields(cls, fields, defaults, ignored, other):
    record = cls(**fields)
    compared = tuple(v for k, v in fields.items() if k not in ignored)
    assert record == cls(**fields)
    assert not record != cls(**fields)
    assert record != cls(**{**fields, **other})
    for name in ignored:
        assert record == cls(**{**fields, name: "another label"})
    assert hash(record) == hash(compared)
    assert hash(record) == hash(cls(**{**fields, **dict.fromkeys(ignored, "x")}))
    # a record never equals an instance of another class with the same fields
    other_cls = type("Other", (cls,), {"__slots__": ()})
    assert record != other_cls(**fields)
    assert other_cls(**fields) != record
    assert record != compared


@pytest.mark.parametrize("cls, fields, defaults, ignored, other", RECORDS, ids=IDS)
def test_fields_cannot_be_assigned_or_deleted(cls, fields, defaults, ignored, other):
    record = cls(**fields)
    for name, value in fields.items():
        with pytest.raises(AttributeError):
            setattr(record, name, value)
        with pytest.raises(AttributeError):
            delattr(record, name)
        assert getattr(record, name) is value
    with pytest.raises(AttributeError):
        record.extra = 1


@pytest.mark.parametrize("cls, fields, defaults, ignored, other", RECORDS, ids=IDS)
def test_repr_copy_and_pickle(cls, fields, defaults, ignored, other):
    record = cls(**fields)
    assert repr(record) == f"{cls.__name__}({', '.join(f'{k}={v!r}' for k, v in fields.items())})"
    assert copy.copy(record) == record
    assert copy.deepcopy(record) == record
    assert pickle.loads(pickle.dumps(record)) == record


def test_repr_of_the_structure_records():
    assert repr(SIG) == "Signature(symbols=(('E', 2),))"
    assert repr(ARC) == ("Structure(signature=Signature(symbols=(('E', 2),)), size=2, "
                         "relations=(frozenset({(0, 1)}),))")
    assert repr(Morphism(LOOP, LOOP, (0,))) == (
        "Morphism(domain=Structure(signature=Signature(symbols=(('E', 2),)), size=1, "
        "relations=(frozenset({(0, 0)}),)), codomain=Structure(signature=Signature("
        "symbols=(('E', 2),)), size=1, relations=(frozenset({(0, 0)}),)), map=(0,))")


@pytest.mark.parametrize("cls, args", [
    (FiniteGroup, (2, Z2.table)),
    (GroupHom, (Z4, Z2, (0, 1, 0, 1))),
    (Tower, ((Z2, Z4), (Z4_Z2,))),
])
def test_the_group_checks_are_looked_up_at_construction(monkeypatch, cls, args):
    # the benchmark's tracer times the group checks by patching them on the class
    seen = []
    monkeypatch.setattr(cls, "__post_init__", lambda self: seen.append(self))
    record = cls(*args)
    assert seen == [record]


def test_importing_the_command_line_loads_neither_dataclasses_nor_inspect():
    src = Path(homcount.cli.__file__).resolve().parents[1]
    probe = ("import sys, homcount.cli; "
             "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))")
    out = subprocess.run([sys.executable, "-S", "-c", probe], capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": str(src)}, check=True).stdout
    assert out == "[]\n"
