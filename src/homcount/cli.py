"""Command-line frontend.

Exit codes: 0 success, 1 a distinguishing witness was found (the inputs
differ), 2 usage or parse error, 3 a size/enumeration cap was exceeded, 4 an
internal error (a traceback on stderr, or a failed selftest).  A command
whose stdout is closed early (`homcount ... | head`) is ended by SIGPIPE,
where the platform has it, with nothing on stderr, as `cat` is.
Output on stdout is deterministic TSV or structure blocks; diagnostics go to
stderr.  The environment variable HOMCOUNT_CAP overrides the global
structure-count cap.
"""

from __future__ import annotations

import argparse
import sys
from itertools import islice

from .cklogic import ck_profile_equal, treewidth, wl_equivalent
from .errors import CapExceededError, HomcountError, InvariantViolationError, ParseError
from .formats import (
    parse_groups_and_towers,
    parse_structures,
    parse_tree_specs,
    parse_trees,
    write_structure,
    write_tree,
)
from .homsearch import _counted_by_listing, count_morphisms, iter_hom_maps
from .lovasz import LEFT, RIGHT, distinguish, enumerate_structures, hom_profile
from .profinite import continuous_hom_count, distinguish_towers, surjection_profile
from .quotposet import quotient_poset
from .sigstruct import (
    FactorisationSystem,
    Morphism,
    MorphismClass,
    _class_rules,
    _representative_code,
    are_isomorphic,
)
from .stirling import kernel_decomposition, stirling_number
from .trees import count_tree_morphisms, distinguish_trees, truncate

EXIT_OK = 0
EXIT_DISTINGUISHED = 1
EXIT_USAGE = 2
EXIT_CAP = 3
EXIT_INTERNAL = 4


def _read(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc.strerror}") from None


def _blocks(path: str, parse=parse_structures, kind: str = "structure"):
    """The (name, value) blocks that `parse` reads from the file, at least
    one."""
    blocks = parse(_read(path))
    if not blocks:
        raise ParseError(f"{path} contains no {kind} block")
    return blocks


def _groups(text: str):
    return list(parse_groups_and_towers(text)[0].items())


def _towers(text: str):
    return list(parse_groups_and_towers(text)[1].items())


def _report_witness(block: str, names, counts) -> int:
    """Report a distinguishing witness: its block, then one count line per
    subject."""
    sys.stdout.write(block)
    for name, count in zip(names, counts):
        print(f"count\t{name}\t{count}")
    return EXIT_DISTINGUISHED


def _partition_text(partition) -> str:
    return "|".join(".".join(str(x) for x in block) for block in partition)


def _add_system(p):
    p.add_argument("--system", choices=["se-m", "e-sm"], default="se-m",
                   help="factorisation system: quotients reflect relations "
                        "(se-m) or embeddings do (e-sm)")


def _add_side(p):
    p.add_argument("--side", choices=[RIGHT, LEFT], default=RIGHT,
                   help="count maps into the subject (right) or out of it (left)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="homcount",
        description="Homomorphism-counting laboratory for finite relational "
                    "structures, rooted trees and group towers.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser(
        "count",
        help="count morphisms of a class from one structure into another",
        description="Exact number of maps of the chosen class c -> a; the "
                    "cardinalities that drive isomorphism-by-counting.",
    )
    p.add_argument("--class", dest="cls",
                   choices=[c.value for c in MorphismClass], default="hom")
    _add_system(p)
    p.add_argument("--limit", type=int,
                   help="also list up to LIMIT witness maps")
    p.add_argument("source")
    p.add_argument("target")

    p = sub.add_parser(
        "profile",
        help="morphism-count profile against all tests up to a size budget",
        description="The hom-count vector that determines a finite structure "
                    "up to isomorphism (Lovasz-style counting); TSV of "
                    "canonical code and count.",
    )
    p.add_argument("--budget", type=int, required=True)
    p.add_argument("--class", dest="cls",
                   choices=[c.value for c in MorphismClass], default="hom")
    _add_side(p)
    _add_system(p)
    p.add_argument("subject")

    p = sub.add_parser(
        "distinguish",
        help="search for a test structure separating two structures",
        description="Lovasz-style homomorphism counting: enumerate canonical "
                    "tests by size and report the first one whose counts "
                    "differ; exit 1 when a witness exists.",
    )
    p.add_argument("--budget", type=int, required=True)
    _add_side(p)
    p.add_argument("left_subject")
    p.add_argument("right_subject")

    p = sub.add_parser(
        "iso",
        help="canonical-form isomorphism test",
        description="Decides isomorphism by canonical code equality.",
    )
    p.add_argument("left_subject")
    p.add_argument("right_subject")

    p = sub.add_parser(
        "mobius",
        help="quotient poset with its Moebius function",
        description="The poset of quotient classes with its Hasse diagram "
                    "and Moebius table (Moebius inversion in the incidence "
                    "algebra recovers embedding from hom counts).",
    )
    p.add_argument("source")

    p = sub.add_parser(
        "kernel",
        help="decompose a hom-set over quotient classes",
        description="Stirling-kernel decomposition: hom(c, a) splits into "
                    "generic elements over the quotient classes of c; TSV of "
                    "partition, block count and generic count.",
    )
    _add_system(p)
    p.add_argument("source")
    p.add_argument("target")

    p = sub.add_parser(
        "stirling",
        help="Stirling number of the second kind",
        description="Partitions of an n-set into m non-empty blocks; the "
                    "multiplicities in the hom-set decomposition over finite "
                    "sets.",
    )
    p.add_argument("n", type=int)
    p.add_argument("m", type=int)

    p = sub.add_parser(
        "treewidth",
        help="exact tree-width of the Gaifman graph",
        description="Exact tree-width via dynamic programming over "
                    "elimination orderings; tree-width < k characterises the "
                    "test structures of k-variable counting logic.",
    )
    p.add_argument("subject")

    p = sub.add_parser(
        "ck",
        help="counting-logic equivalence via bounded-tree-width hom counts",
        description="k-variable counting logic equivalence: compare hom "
                    "counts from all connected structures of tree-width < k "
                    "(hom-profile method) or run the Weisfeiler-Leman "
                    "refinement oracle; exit 1 when the subjects differ.",
    )
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--budget", type=int)
    p.add_argument("--method", choices=["hom-profile", "wl"],
                   default="hom-profile")
    p.add_argument("--undirected", action="store_true",
                   help="restrict tests to symmetric loopless relations")
    p.add_argument("left_subject")
    p.add_argument("right_subject")

    trees = sub.add_parser(
        "trees",
        help="rooted-tree morphism counting and distinguishing",
        description="Tree morphisms preserve the root and the covering "
                    "relation; counting them determines finitely branching "
                    "trees, exercised here on finite trees and truncations.",
    )
    tsub = trees.add_subparsers(dest="tree_command", required=True)
    p = tsub.add_parser("count", help="count tree morphisms r -> p")
    p.add_argument("source")
    p.add_argument("target")
    p = tsub.add_parser("distinguish",
                        help="first test tree with differing counts; exit 1 "
                             "when found")
    p.add_argument("--budget", type=int, required=True)
    p.add_argument("left_subject")
    p.add_argument("right_subject")
    p = tsub.add_parser("truncate",
                        help="unfold a finitely branching tree spec to a depth")
    p.add_argument("--depth", type=int, required=True)
    p.add_argument("spec")

    tower = sub.add_parser(
        "tower",
        help="group towers: continuous-hom counts and distinguishing",
        description="A tower of finite groups with surjective connecting "
                    "maps is a truncated inverse limit; level hom counts are "
                    "non-decreasing and their stabilized values drive "
                    "isomorphism-by-counting for profinite groups.",
    )
    wsub = tower.add_subparsers(dest="tower_command", required=True)
    p = wsub.add_parser("count",
                        help="stabilized hom count from a tower into a group")
    p.add_argument("tower_file")
    p.add_argument("group_file")
    p = wsub.add_parser("distinguish",
                        help="first family group with differing stabilized "
                             "counts; exit 1 when found")
    p.add_argument("--family", required=True,
                   help="file with the test groups, in order")
    p.add_argument("left_tower")
    p.add_argument("right_tower")
    p = wsub.add_parser("surjections",
                        help="which family groups some tower level surjects onto")
    p.add_argument("--family", required=True)
    p.add_argument("tower_file")

    p = sub.add_parser(
        "selftest",
        help="run the acceptance suite",
        description="Runs every acceptance criterion at the chosen level and "
                    "prints one PASS/FAIL line per criterion.",
    )
    p.add_argument("--level", choices=["quick", "desk"], default="desk")

    return parser


def _cmd_count(args) -> int:
    _, c = _blocks(args.source)[0]
    _, a = _blocks(args.target)[0]
    cls, system = MorphismClass(args.cls), FactorisationSystem(args.system)
    limit = args.limit
    # The count refuses a bad signature, class or limit before anything is
    # printed, and each listed map is checked and printed before the next is
    # built.  A class counted by listing is listed once, keeping its first
    # `limit` maps as raw index tuples; a limit below 1 is left to
    # count_morphisms to refuse.
    _, surjective, reflects = _class_rules(cls, system)
    if limit is not None and limit >= 1 and _counted_by_listing(c, surjective, reflects):
        maps = iter_hom_maps(c, a, cls, system)
        listed = list(islice(maps, limit))
        total = len(listed) + sum(1 for _ in maps)
    else:
        total = count_morphisms(c, a, cls, system, limit=limit).count
        listed = () if limit is None else islice(iter_hom_maps(c, a, cls, system), limit)
    print(total)
    for f in listed:
        print("map\t" + " ".join(map(str, Morphism.build(c, a, f).map)))
    if limit is not None and total > limit:
        print("truncated")
    return EXIT_OK


def _cmd_profile(args) -> int:
    _, a = _blocks(args.subject)[0]
    family = enumerate_structures(a.signature, args.budget)
    prof = hom_profile(a, family, args.side, MorphismClass(args.cls),
                       FactorisationSystem(args.system))
    for test, count in zip(prof.family, prof.counts):
        print(f"{_representative_code(test).decode('ascii')}\t{count}")
    return EXIT_OK


def _cmd_distinguish(args) -> int:
    name_a, a = _blocks(args.left_subject)[0]
    name_b, b = _blocks(args.right_subject)[0]
    res = distinguish(a, b, args.budget, args.side)
    if res.distinguished:
        return _report_witness(write_structure("witness", res.witness), (name_a, name_b),
                               res.counts)
    print(res.verdict)
    return EXIT_OK


def _cmd_iso(args) -> int:
    _, a = _blocks(args.left_subject)[0]
    _, b = _blocks(args.right_subject)[0]
    print("true" if are_isomorphic(a, b) else "false")
    return EXIT_OK


def _cmd_mobius(args) -> int:
    _, c = _blocks(args.source)[0]
    q = quotient_poset(c)
    for i, e in enumerate(q.elements):
        print(f"element\t{i}\t{_partition_text(e.partition)}")
    up_sets = [q.poset.up_set(i) for i in range(len(q))]
    blocks = [len(e.partition) for e in q.elements]
    for i, up in enumerate(up_sets):
        for j in up:
            # the poset is graded by block count: j covers i iff it has one more
            if blocks[j] == blocks[i] + 1:
                print(f"hasse\t{i}\t{j}")
    for i, up in enumerate(up_sets):
        for j in up:
            print(f"mobius\t{i}\t{j}\t{q.poset.mobius(i, j)}")
    return EXIT_OK


def _cmd_kernel(args) -> int:
    _, c = _blocks(args.source)[0]
    _, a = _blocks(args.target)[0]
    dec = kernel_decomposition(c, a, FactorisationSystem(args.system))
    print("partition\tblocks\tgeneric")
    for row in dec.rows:
        print(f"{_partition_text(row.partition)}\t{len(row.partition)}"
              f"\t{row.generic}")
    print(f"total\t\t{dec.total}")
    return EXIT_OK


def _cmd_stirling(args) -> int:
    print(stirling_number(args.n, args.m))
    return EXIT_OK


def _cmd_treewidth(args) -> int:
    _, a = _blocks(args.subject)[0]
    print(treewidth(a))
    return EXIT_OK


def _cmd_ck(args) -> int:
    name_a, a = _blocks(args.left_subject)[0]
    name_b, b = _blocks(args.right_subject)[0]
    if args.method == "wl":
        equivalent = wl_equivalent(a, b, args.k)
        print(f"wl-oracle\t{'equivalent' if equivalent else 'inequivalent'}")
        return EXIT_OK if equivalent else EXIT_DISTINGUISHED
    if args.budget is None:
        raise ParseError("--budget is required for the hom-profile method")
    verdict = ck_profile_equal(a, b, args.k, args.budget, args.undirected)
    if verdict.equivalent:
        print("hom-profile\tequivalent-within-budget")
        return EXIT_OK
    return _report_witness(write_structure("witness", verdict.witness), (name_a, name_b),
                           verdict.counts)


def _cmd_trees(args) -> int:
    if args.tree_command == "count":
        _, r = _blocks(args.source, parse_trees, "tree")[0]
        _, p = _blocks(args.target, parse_trees, "tree")[0]
        print(count_tree_morphisms(r, p))
        return EXIT_OK
    if args.tree_command == "distinguish":
        name_p, p = _blocks(args.left_subject, parse_trees, "tree")[0]
        name_q, q = _blocks(args.right_subject, parse_trees, "tree")[0]
        res = distinguish_trees(p, q, args.budget)
        if res.distinguished:
            return _report_witness(write_tree("witness", res.witness), (name_p, name_q),
                                   res.counts)
        print(res.verdict)
        return EXIT_OK
    name, spec = _blocks(args.spec, parse_tree_specs, "treespec")[0]
    sys.stdout.write(write_tree(name, truncate(spec, args.depth)))
    return EXIT_OK


def _cmd_tower(args) -> int:
    if args.tower_command == "count":
        _, t = _blocks(args.tower_file, _towers, "tower")[0]
        _, c = _blocks(args.group_file, _groups, "group")[0]
        count, stabilized = continuous_hom_count(t, c)
        print(f"{count}\t{'stabilized' if stabilized else 'unstabilized'}")
        return EXIT_OK
    if args.tower_command == "distinguish":
        name1, t1 = _blocks(args.left_tower, _towers, "tower")[0]
        name2, t2 = _blocks(args.right_tower, _towers, "tower")[0]
        fam = _blocks(args.family, _groups, "group")
        res = distinguish_towers(t1, t2, [g for _, g in fam])
        # by identity: groups with equal tables and other names compare equal
        for w in res.warnings:
            wname = next(n for n, g in fam if g is w)
            print(f"warning: counts for {wname} not stabilized", file=sys.stderr)
        if res.distinguished:
            wname = next(n for n, g in fam if g is res.witness)
            return _report_witness(f"witness\t{wname}\n", (name1, name2), res.counts)
        print(res.verdict)
        return EXIT_OK
    _, t = _blocks(args.tower_file, _towers, "tower")[0]
    fam = _blocks(args.family, _groups, "group")
    flags = surjection_profile(t, [g for _, g in fam])
    for (name, _), flag in zip(fam, flags):
        print(f"{name}\t{'true' if flag else 'false'}")
    return EXIT_OK


def _cmd_selftest(args) -> int:
    from .selftest import run_all

    results = run_all(args.level)
    return EXIT_OK if all(r.passed for r in results) else EXIT_INTERNAL


_HANDLERS = {
    "count": _cmd_count,
    "profile": _cmd_profile,
    "distinguish": _cmd_distinguish,
    "iso": _cmd_iso,
    "mobius": _cmd_mobius,
    "kernel": _cmd_kernel,
    "stirling": _cmd_stirling,
    "treewidth": _cmd_treewidth,
    "ck": _cmd_ck,
    "trees": _cmd_trees,
    "tower": _cmd_tower,
    "selftest": _cmd_selftest,
}


def run(argv) -> int:
    """Run one command; exact counts print in full, however many digits they
    have (Python's int-to-text digit limit is lifted for the call)."""
    if not hasattr(sys, "set_int_max_str_digits"):  # builds without the limit
        return _run(argv)
    digits = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        return _run(argv)
    finally:
        sys.set_int_max_str_digits(digits)


def _run(argv) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    try:
        return _HANDLERS[args.command](args)
    except InvariantViolationError:
        return _internal_error()
    except CapExceededError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CAP
    except (HomcountError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except Exception:
        return _internal_error()


def _internal_error() -> int:
    """Print the traceback of the exception being handled."""
    import traceback  # here only: importing it costs every start-up a few ms

    traceback.print_exc()
    return EXIT_INTERNAL


def main() -> None:
    # the default SIGPIPE action ends a command whose stdout is closed early
    # silently, as it ends `cat`; `run` leaves process-wide state alone
    import signal

    if hasattr(signal, "SIGPIPE"):
        signal.signal(signal.SIGPIPE, signal.SIG_DFL)
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
