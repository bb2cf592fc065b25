"""Line-oriented text formats: structures, trees, tree specs, groups, towers.

Parsing is strict: unknown lines, out-of-range indices and arity mismatches
are rejected with 1-based line numbers.  Writers emit the same formats the
parsers accept.
"""

from __future__ import annotations

import re

from .errors import ParseError
from .profinite import FiniteGroup, GroupHom, Tower
from .sigstruct import Signature, Structure
from .trees import FiniteTree, RationalTreeSpec

_TUPLE_RE = re.compile(r"\(([^()]*)\)")
_NAME_RE = re.compile(r"^[A-Za-z_][A-Za-z0-9_.+-]*$")


def _parse_symbol_decl(token: str, lineno: int) -> tuple[str, int]:
    if "/" not in token:
        raise ParseError(f"expected NAME/ARITY, got {token!r}", lineno)
    name, _, arity_text = token.rpartition("/")
    if not _NAME_RE.match(name):
        raise ParseError(f"bad relation symbol name {name!r}", lineno)
    try:
        arity = int(arity_text)
    except ValueError:
        raise ParseError(f"bad arity {arity_text!r}", lineno) from None
    return name, arity


def parse_structures(text: str) -> list[tuple[str, Structure]]:
    """All structure blocks in the text, in order, as (name, structure)."""
    signature: Signature | None = None
    out: list[tuple[str, Structure]] = []
    block: dict | None = None

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        head = line.split()[0]
        if block is None:
            if head == "signature":
                decls = line.split()[1:]
                if not decls:
                    raise ParseError("signature needs at least one symbol", lineno)
                try:
                    signature = Signature(
                        tuple(_parse_symbol_decl(d, lineno) for d in decls)
                    )
                except ValueError as exc:
                    raise ParseError(str(exc), lineno) from None
            elif head == "structure":
                if signature is None:
                    raise ParseError("structure block before any signature", lineno)
                m = re.match(r"^structure\s+(\S+)\s+size\s+(\d+)$", line)
                if not m:
                    raise ParseError("expected: structure NAME size N", lineno)
                block = {"name": m.group(1), "size": int(m.group(2)),
                         "relations": {}, "line": lineno}
            else:
                raise ParseError(f"unexpected line {line!r}", lineno)
            continue
        if line == "end":
            try:
                s = Structure.build(signature, block["size"], block["relations"])
            except ValueError as exc:
                raise ParseError(str(exc), block["line"]) from None
            out.append((block["name"], s))
            block = None
            continue
        m = re.match(r"^(\S+):\s*(.*)$", line)
        if not m:
            raise ParseError(f"expected 'SYMBOL: tuples' or 'end', got {line!r}",
                             lineno)
        sym, body = m.group(1), m.group(2)
        if sym not in signature.names:
            raise ParseError(f"unknown relation symbol {sym!r}", lineno)
        if sym in block["relations"]:
            raise ParseError(f"duplicate relation line for {sym!r}", lineno)
        leftover = _TUPLE_RE.sub("", body).strip()
        if leftover:
            raise ParseError(f"stray text {leftover!r} outside tuples", lineno)
        tuples = []
        for match in _TUPLE_RE.finditer(body):
            items = [p.strip() for p in match.group(1).split(",")] if match.group(1).strip() else []
            try:
                t = tuple(int(p) for p in items)
            except ValueError:
                raise ParseError(f"bad tuple {match.group(0)}", lineno) from None
            if len(t) != signature.arity(sym):
                raise ParseError(
                    f"tuple {match.group(0)} has arity {len(t)}, "
                    f"expected {signature.arity(sym)}",
                    lineno,
                )
            if any(not 0 <= x < block["size"] for x in t):
                raise ParseError(
                    f"tuple {match.group(0)} out of range 0..{block['size'] - 1}",
                    lineno,
                )
            tuples.append(t)
        block["relations"][sym] = tuples
    if block is not None:
        raise ParseError("unterminated structure block", block["line"])
    return out


def write_structure(name: str, s: Structure) -> str:
    lines = [
        "signature " + " ".join(f"{n}/{a}" for n, a in s.signature.symbols),
        f"structure {name} size {s.size}",
    ]
    for (sym, _), rel in zip(s.signature.symbols, s.relations):
        if rel:
            body = " ".join(
                "(" + ",".join(str(x) for x in t) + ")" for t in sorted(rel)
            )
            lines.append(f"{sym}: {body}")
    lines.append("end")
    return "\n".join(lines) + "\n"


class _Tokens:
    """The whitespace-separated tokens of a text, each with its 1-based line
    number, taken in order by `need`; true while some are left."""

    def __init__(self, text: str):
        self.items = [(tok, lineno) for lineno, raw in enumerate(text.splitlines(), start=1)
                      for tok in raw.split()]
        self.i = 0

    def __bool__(self):
        return self.i < len(self.items)

    def need(self, what: str) -> tuple[str, int]:
        """The next (token, line); `what` names it if the input has ended."""
        if self.i >= len(self.items):
            raise ParseError(f"unexpected end of input, wanted {what}",
                             self.items[-1][1] if self.items else 1)
        self.i += 1
        return self.items[self.i - 1]


def parse_trees(text: str) -> list[tuple[str, FiniteTree]]:
    """Blocks of the form: tree NAME size N parents - 0 0 1 1 end"""
    tokens = _Tokens(text)
    need = tokens.need
    out = []
    while tokens:
        tok, lineno = need("'tree'")
        if tok != "tree":
            raise ParseError(f"expected 'tree', got {tok!r}", lineno)
        name, _ = need("tree name")
        kw, ln = need("'size'")
        if kw != "size":
            raise ParseError(f"expected 'size', got {kw!r}", ln)
        size_text, ln = need("size value")
        try:
            size = int(size_text)
        except ValueError:
            raise ParseError(f"bad size {size_text!r}", ln) from None
        kw, ln = need("'parents'")
        if kw != "parents":
            raise ParseError(f"expected 'parents', got {kw!r}", ln)
        parents = []
        for _ in range(size):
            tok, ln = need("parent entry")
            if tok == "-":
                parents.append(-1)
            else:
                try:
                    parents.append(int(tok))
                except ValueError:
                    raise ParseError(f"bad parent entry {tok!r}", ln) from None
        tok, ln = need("'end'")
        if tok != "end":
            raise ParseError(f"expected 'end' after {size} parents, got {tok!r}", ln)
        try:
            out.append((name, FiniteTree(size, tuple(parents))))
        except ValueError as exc:
            raise ParseError(str(exc), ln) from None
    return out


def write_tree(name: str, t: FiniteTree) -> str:
    parents = " ".join("-" if p == -1 else str(p) for p in t.parent)
    middle = f" {parents} " if t.size else " "
    return f"tree {name} size {t.size} parents{middle}end\n"


def parse_tree_specs(text: str) -> list[tuple[str, RationalTreeSpec]]:
    """Blocks:
        treespec NAME states N start S
        children 0: 0 1
        ...
        end
    Every state needs a children line (possibly empty)."""
    out = []
    block = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        if block is None:
            m = re.match(r"^treespec\s+(\S+)\s+states\s+(\d+)\s+start\s+(\d+)$", line)
            if not m:
                raise ParseError("expected: treespec NAME states N start S", lineno)
            block = {"name": m.group(1), "states": int(m.group(2)),
                     "start": int(m.group(3)), "children": {}, "line": lineno}
            continue
        if line == "end":
            missing = set(range(block["states"])) - set(block["children"])
            if missing:
                raise ParseError(
                    f"missing children lines for states {sorted(missing)}",
                    block["line"],
                )
            try:
                spec = RationalTreeSpec(
                    tuple(str(s) for s in range(block["states"])),
                    tuple(tuple(block["children"][s]) for s in range(block["states"])),
                    block["start"],
                )
            except ValueError as exc:
                raise ParseError(str(exc), block["line"]) from None
            out.append((block["name"], spec))
            block = None
            continue
        m = re.match(r"^children\s+(\d+):\s*(.*)$", line)
        if not m:
            raise ParseError(f"expected 'children S: ...' or 'end', got {line!r}",
                             lineno)
        state = int(m.group(1))
        if state >= block["states"] or state in block["children"]:
            raise ParseError(f"bad or duplicate state {state}", lineno)
        try:
            kids = [int(tok) for tok in m.group(2).split()]
        except ValueError:
            raise ParseError(f"bad child list {m.group(2)!r}", lineno) from None
        if any(not 0 <= k < block["states"] for k in kids):
            raise ParseError("child state out of range", lineno)
        block["children"][state] = kids
    if block is not None:
        raise ParseError("unterminated treespec block", block["line"])
    return out


def parse_groups_and_towers(text: str):
    """Group and tower blocks; towers refer to earlier group names.

        group Z2 order 2 table 0 1 / 1 0 end
        tower T levels Z2 Z4
        connect 0 1 0 1
        end

    Returns (groups, towers) as ordered name dicts."""
    groups: dict[str, FiniteGroup] = {}
    towers: dict[str, Tower] = {}
    tokens = _Tokens(text)
    need = tokens.need
    while tokens:
        tok, lineno = need("'group' or 'tower'")
        if tok == "group":
            name, _ = need("group name")
            kw, ln = need("'order'")
            if kw != "order":
                raise ParseError(f"expected 'order', got {kw!r}", ln)
            order_text, ln = need("order value")
            try:
                order = int(order_text)
            except ValueError:
                raise ParseError(f"bad order {order_text!r}", ln) from None
            kw, ln = need("'table'")
            if kw != "table":
                raise ParseError(f"expected 'table', got {kw!r}", ln)
            rows = []
            row: list[int] = []
            while True:
                tok, ln = need("table entry, '/' or 'end'")
                if tok == "/":
                    rows.append(row)
                    row = []
                elif tok == "end":
                    if row:
                        rows.append(row)
                    break
                else:
                    try:
                        row.append(int(tok))
                    except ValueError:
                        raise ParseError(f"bad table entry {tok!r}", ln) from None
            if len(rows) != order or any(len(r) != order for r in rows):
                raise ParseError(
                    f"table must have {order} rows of {order} entries", lineno
                )
            try:
                groups[name] = FiniteGroup(order, tuple(map(tuple, rows)), name)
            except ValueError as exc:
                raise ParseError(str(exc), lineno) from None
        elif tok == "tower":
            name, _ = need("tower name")
            kw, ln = need("'levels'")
            if kw != "levels":
                raise ParseError(f"expected 'levels', got {kw!r}", ln)
            level_names = []
            while True:
                tok, ln = need("level name, 'connect' or 'end'")
                if tok in ("connect", "end"):
                    break
                level_names.append((tok, ln))
            levels = []
            for lname, ln in level_names:
                if lname not in groups:
                    raise ParseError(f"unknown group {lname!r}", ln)
                levels.append(groups[lname])
            if not levels:
                raise ParseError("tower needs at least one level", lineno)
            connecting = []
            step = 0
            while tok == "connect":
                if step >= len(levels) - 1:
                    raise ParseError("too many connect lines", ln)
                dom, cod = levels[step + 1], levels[step]
                images = []
                for _ in range(dom.order):
                    val, ln = need("image entry")
                    try:
                        images.append(int(val))
                    except ValueError:
                        raise ParseError(f"bad image entry {val!r}", ln) from None
                try:
                    hom = GroupHom(dom, cod, tuple(images))
                except ValueError as exc:
                    raise ParseError(str(exc), ln) from None
                connecting.append(hom)
                step += 1
                tok, ln = need("'connect' or 'end'")
            if tok != "end":
                raise ParseError(f"expected 'end', got {tok!r}", ln)
            try:
                towers[name] = Tower(tuple(levels), tuple(connecting), name)
            except ValueError as exc:
                raise ParseError(str(exc), lineno) from None
        else:
            raise ParseError(f"expected 'group' or 'tower', got {tok!r}", lineno)
    return groups, towers
