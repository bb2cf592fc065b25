"""A fixed, seeded set of CLI calls on small random and broken inputs: every
call answers (exit 0 or 1), or refuses with a usage or cap error (2 or 3),
and none prints a traceback."""

import itertools
import random
from pathlib import Path

from conftest import MIXED_SIGNATURES, random_mixed
from homcount.cli import run
from homcount.formats import write_structure
from homcount.sigstruct import GRAPH_SIGNATURE, MorphismClass

SIGNATURES = (GRAPH_SIGNATURE, *MIXED_SIGNATURES)
CLASSES = [cls.value for cls in MorphismClass]
SYSTEMS = ("se-m", "e-sm")


def _mutant(rng, text: str) -> str:
    """The structure text with one fault: a truncated block, a cut at any
    character, a tuple out of range, a tuple of the wrong arity, a bad size
    or an unknown symbol."""
    lines = text.splitlines()
    head, body = lines[:2], lines[2:-1]
    size = int(head[1].split()[-1])
    symbol, arity = head[0].split()[1].split("/")
    kind = rng.randrange(6)
    if kind == 0:
        return "\n".join(lines[:-1]) + "\n"
    if kind == 1:
        return text[:rng.randrange(len(text))]
    if kind == 2:
        bad = [0] * int(arity)
        bad[rng.randrange(len(bad))] = size + rng.randrange(3)
        body = [f"{symbol}: ({','.join(map(str, bad))})"]
    elif kind == 3:
        body = [f"{symbol}: ({','.join(['0'] * (int(arity) + 1))})"]
    elif kind == 4:
        head[1] = f"structure s size {rng.choice(['-1', 'x', ''])}"
    else:
        body = body + ["Q: (0)"]
    return "\n".join(head + body + ["end"]) + "\n"


def _calls(rng, path):
    """About 150 argument lists, each over files written through `path`."""
    def structure(max_size, sig=None):
        sig = sig or rng.choice(SIGNATURES)
        return path(write_structure("s", random_mixed(rng, sig, rng.randint(0, max_size))))

    def pair(sources=5, targets=6):
        sig = rng.choice(SIGNATURES)
        return [structure(sources, sig), structure(targets, sig)]

    calls = []
    for cls in CLASSES:
        for system in SYSTEMS:
            for limit in ([], ["--limit", "3"]):
                calls += [["count", "--class", cls, "--system", system, *limit, *pair()]
                          for _ in range(2)]
    calls += [["kernel", "--system", rng.choice(SYSTEMS), *pair(4, 5)] for _ in range(16)]
    calls += [["mobius", structure(5)] for _ in range(10)]
    calls += [["iso", *pair(5, 5)] for _ in range(10)]
    calls += [["treewidth", structure(6)] for _ in range(10)]
    for _ in range(16):
        k = str(rng.randint(1, 3))
        if rng.random() < 0.3:
            calls.append(["ck", "--k", k, "--method", "wl", *pair(5, 5)])
            continue
        undirected = ["--undirected"] if rng.random() < 0.5 else []
        sig = (GRAPH_SIGNATURE if undirected and rng.random() < 0.7
               else rng.choice(SIGNATURES))
        calls.append(["ck", "--k", k, "--budget", str(rng.randint(1, 3)), *undirected,
                      structure(5, sig), structure(5, sig)])
    calls += [["distinguish", "--budget", str(rng.randint(1, 3)),
               "--side", rng.choice(("right", "left")), *pair(5, 5)] for _ in range(12)]
    calls += [["profile", "--budget", str(rng.randint(1, 3)),
               "--class", rng.choice(CLASSES), "--side", rng.choice(("right", "left")),
               "--system", rng.choice(SYSTEMS), structure(5)] for _ in range(12)]
    # one broken file per call, in the first or second place
    for _ in range(24):
        call = list(rng.choice(calls))
        files = [i for i, arg in enumerate(call) if arg.endswith(".txt")]
        i = rng.choice(files)
        call[i] = path(_mutant(rng, Path(call[i]).read_text()))
        calls.append(call)
    return calls


def test_random_and_broken_inputs_exit_cleanly(tmp_path, capsys):
    names = itertools.count()

    def path(text):
        file = tmp_path / f"in{next(names)}.txt"
        file.write_text(text)
        return str(file)

    calls = _calls(random.Random(2027), path)
    assert 140 <= len(calls) <= 160
    codes = []
    for argv in calls:
        code = run(argv)
        err = capsys.readouterr().err
        assert 0 <= code <= 3 and "Traceback" not in err, (argv, code, err)
        codes.append(code)
    # the set reaches answers, refusals of bad input and cap errors alike
    assert {0, 2, 3} <= set(codes)
