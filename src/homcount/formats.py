"""Text formats: structures, trees, tree specs, groups, towers.

Every format is a sequence of blocks closed by `end`.  Structures and tree
specs are read line by line; trees, groups and towers as whitespace-separated
tokens, so their blocks may span or share lines.  Parsing is strict: unknown
lines or keywords, bad integers, out-of-range indices and arity mismatches
raise a ParseError naming the 1-based line, as does any value a constructor
refuses.  Writers emit the same formats the parsers accept.
"""

from __future__ import annotations

import re

from .errors import ParseError
from .profinite import FiniteGroup, GroupHom, Tower
from .sigstruct import Signature, Structure
from .trees import FiniteTree, RationalTreeSpec

_TUPLE_RE = re.compile(r"\(([^()]*)\)")
_NAME_RE = re.compile(r"^[A-Za-z_][A-Za-z0-9_.+-]*$")


def _int(text: str, line: int, what: str) -> int:
    """`text` as an integer; otherwise `bad <what> 'text'` at `line`."""
    try:
        return int(text)
    except ValueError:
        raise ParseError(f"bad {what} {text!r}", line) from None


def _built(make, line: int, *args):
    """make(*args), with the constructor's ValueError reported at `line`."""
    try:
        return make(*args)
    except ValueError as exc:
        raise ParseError(str(exc), line) from None


def _lines(text: str):
    """The non-blank lines of a text, stripped, with their 1-based numbers."""
    for lineno, raw in enumerate(text.splitlines(), start=1):
        if raw.strip():
            yield lineno, raw.strip()


def _block_body(lines, kind: str, start: int):
    """The lines taken from `lines` up to the `end` closing the `kind` block
    that opened at line `start`."""
    for lineno, line in lines:
        if line == "end":
            return
        yield lineno, line
    raise ParseError(f"unterminated {kind} block", start)


def _signature(decls: list[str], lineno: int) -> Signature:
    if not decls:
        raise ParseError("signature needs at least one symbol", lineno)
    symbols = []
    for decl in decls:
        name, slash, arity = decl.rpartition("/")
        if not slash:
            raise ParseError(f"expected NAME/ARITY, got {decl!r}", lineno)
        if not _NAME_RE.match(name):
            raise ParseError(f"bad relation symbol name {name!r}", lineno)
        symbols.append((name, _int(arity, lineno, "arity")))
    return _built(Signature, lineno, tuple(symbols))


def parse_structures(text: str) -> list[tuple[str, Structure]]:
    """All structure blocks in the text, in order, as (name, structure)."""
    signature: Signature | None = None
    out: list[tuple[str, Structure]] = []
    lines = _lines(text)
    for lineno, line in lines:
        head, *rest = line.split()
        if head == "signature":
            signature = _signature(rest, lineno)
            continue
        if head != "structure":
            raise ParseError(f"unexpected line {line!r}", lineno)
        if signature is None:
            raise ParseError("structure block before any signature", lineno)
        m = re.match(r"^structure\s+(\S+)\s+size\s+(\d+)$", line)
        if not m:
            raise ParseError("expected: structure NAME size N", lineno)
        size = int(m.group(2))
        relations: dict[str, list[tuple[int, ...]]] = {}
        for ln, body in _block_body(lines, "structure", lineno):
            r = re.match(r"^(\S+):\s*(.*)$", body)
            if not r:
                raise ParseError(f"expected 'SYMBOL: tuples' or 'end', got {body!r}", ln)
            sym, tuples_text = r.groups()
            if sym not in signature.names:
                raise ParseError(f"unknown relation symbol {sym!r}", ln)
            if sym in relations:
                raise ParseError(f"duplicate relation line for {sym!r}", ln)
            leftover = _TUPLE_RE.sub("", tuples_text).strip()
            if leftover:
                raise ParseError(f"stray text {leftover!r} outside tuples", ln)
            relations[sym] = []
            for match in _TUPLE_RE.finditer(tuples_text):
                entries = match.group(1).split(",") if match.group(1).strip() else []
                t = tuple(_int(x.strip(), ln, "tuple entry") for x in entries)
                if len(t) != signature.arity(sym):
                    raise ParseError(f"tuple {match.group(0)} has arity {len(t)}, "
                                     f"expected {signature.arity(sym)}", ln)
                if any(not 0 <= x < size for x in t):
                    bounds = f"0..{size - 1}" if size else "(the structure has no elements)"
                    raise ParseError(f"tuple {match.group(0)} out of range {bounds}", ln)
                relations[sym].append(t)
        out.append((m.group(1), _built(Structure.build, lineno, signature, size, relations)))
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


def parse_tree_specs(text: str) -> list[tuple[str, RationalTreeSpec]]:
    """Blocks:
        treespec NAME states N start S
        children 0: 0 1
        ...
        end
    Every state needs a children line (possibly empty)."""
    out = []
    lines = _lines(text)
    for lineno, line in lines:
        m = re.match(r"^treespec\s+(\S+)\s+states\s+(\d+)\s+start\s+(\d+)$", line)
        if not m:
            raise ParseError("expected: treespec NAME states N start S", lineno)
        states = int(m.group(2))
        children: dict[int, tuple[int, ...]] = {}
        for ln, body in _block_body(lines, "treespec", lineno):
            c = re.match(r"^children\s+(\d+):\s*(.*)$", body)
            if not c:
                raise ParseError(f"expected 'children S: ...' or 'end', got {body!r}", ln)
            state = int(c.group(1))
            if state >= states or state in children:
                raise ParseError(f"bad or duplicate state {state}", ln)
            kids = tuple(_int(tok, ln, "child state") for tok in c.group(2).split())
            if any(not 0 <= k < states for k in kids):
                raise ParseError("child state out of range", ln)
            children[state] = kids
        missing = sorted(set(range(states)) - set(children))
        if missing:
            raise ParseError(f"missing children lines for states {missing}", lineno)
        spec = _built(RationalTreeSpec, lineno, tuple(map(str, range(states))),
                      tuple(children[s] for s in range(states)), int(m.group(3)))
        out.append((m.group(1), spec))
    return out


class _Tokens:
    """The whitespace-separated tokens of a text, each with its 1-based line
    number, read in order; true while some are left."""

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

    def keyword(self, word: str) -> int:
        """Read the token `word`; its line."""
        tok, line = self.need(f"'{word}'")
        if tok != word:
            raise ParseError(f"expected '{word}', got {tok!r}", line)
        return line

    def integer(self, what: str) -> int:
        """Read an integer token; `what` names it in errors."""
        tok, line = self.need(f"{what} value")
        return _int(tok, line, what)


def parse_trees(text: str) -> list[tuple[str, FiniteTree]]:
    """Blocks of the form: tree NAME size N parents - 0 0 1 1 end"""
    tokens = _Tokens(text)
    out = []
    while tokens:
        tokens.keyword("tree")
        name, _ = tokens.need("tree name")
        tokens.keyword("size")
        size = tokens.integer("size")
        tokens.keyword("parents")
        parents = []
        for _ in range(size):
            tok, line = tokens.need("parent entry")
            parents.append(-1 if tok == "-" else _int(tok, line, "parent entry"))
        line = tokens.keyword("end")
        out.append((name, _built(FiniteTree, line, size, tuple(parents))))
    return out


def write_tree(name: str, t: FiniteTree) -> str:
    parents = " ".join("-" if p == -1 else str(p) for p in t.parent)
    middle = f" {parents} " if t.size else " "
    return f"tree {name} size {t.size} parents{middle}end\n"


def parse_groups_and_towers(text: str):
    """Group and tower blocks; towers refer to earlier group names.

        group Z2 order 2 table 0 1 / 1 0 end
        tower T levels Z2 Z4
        connect 0 1 0 1
        end

    Returns (groups, towers) as ordered name dicts; a name defined twice
    is an error."""
    groups: dict[str, FiniteGroup] = {}
    towers: dict[str, Tower] = {}
    tokens = _Tokens(text)
    while tokens:
        tok, lineno = tokens.need("'group' or 'tower'")
        if tok == "group":
            name, line = tokens.need("group name")
            if name in groups:
                raise ParseError(f"duplicate group name {name!r}", line)
            tokens.keyword("order")
            order = tokens.integer("order")
            tokens.keyword("table")
            rows: list[list[int]] = [[]]
            while True:
                tok, line = tokens.need("table entry, '/' or 'end'")
                if tok == "end":
                    break
                if tok == "/":
                    rows.append([])
                else:
                    rows[-1].append(_int(tok, line, "table entry"))
            if not rows[-1]:  # `end` closes a row only when it has entries
                rows.pop()
            groups[name] = _built(FiniteGroup, lineno, order, tuple(map(tuple, rows)), name)
        elif tok == "tower":
            name, line = tokens.need("tower name")
            if name in towers:
                raise ParseError(f"duplicate tower name {name!r}", line)
            tokens.keyword("levels")
            level_names = []
            while True:
                tok, line = tokens.need("level name, 'connect' or 'end'")
                if tok in ("connect", "end"):
                    break
                level_names.append((tok, line))
            for lname, ln in level_names:
                if lname not in groups:
                    raise ParseError(f"unknown group {lname!r}", ln)
            levels = [groups[lname] for lname, _ in level_names]
            if not levels:
                raise ParseError("tower needs at least one level", lineno)
            connecting: list[GroupHom] = []
            while tok == "connect":
                if len(connecting) >= len(levels) - 1:
                    raise ParseError("too many connect lines", line)
                dom, cod = levels[len(connecting) + 1], levels[len(connecting)]
                images = []
                for _ in range(dom.order):
                    tok, line = tokens.need("image entry")
                    images.append(_int(tok, line, "image entry"))
                connecting.append(_built(GroupHom, line, dom, cod, tuple(images)))
                tok, line = tokens.need("'connect' or 'end'")
            if tok != "end":
                raise ParseError(f"expected 'end', got {tok!r}", line)
            towers[name] = _built(Tower, lineno, tuple(levels), tuple(connecting), name)
        else:
            raise ParseError(f"expected 'group' or 'tower', got {tok!r}", lineno)
    return groups, towers
