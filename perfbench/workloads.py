"""Operations, workloads and seeded input presentations of the benchmark.

Every operation is one ``gckit`` command line.  Its arguments name inputs
by key; :func:`materialize` writes a seeded presentation of each input and
returns the argument vectors with the keys replaced by file paths.

A seed changes how an input is written down, never which element of the
complex it is: vertices are relabeled and the edges (or, for orgraphs, the
arrows) are permuted by an *even* permutation.  So every operation prints
the same bytes for every seed, and one golden per operation covers all
seeds.
"""

from __future__ import annotations

import os
import random
import shutil
from contextlib import contextmanager
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
INPUT_DIR = BENCH_DIR / "inputs"
GOLDEN_DIR = BENCH_DIR / "golden"

HEPTAGON_ORGRAPHS = ("hept1.o", "hept2.o", "hept3.o", "hept4.o")

# key -> (directory relative to the checkout root, or None for the
# benchmark's own inputs; whether the seed may rewrite it)
INPUTS = {
    "tetra.g": ("data", True),
    # rules-check names witnesses by their labels, so wheel5 is never rewritten
    "wheel5.g": ("data", False),
    "cubic3.poisson": ("data", False),
    "quad2.poisson": ("data", False),
    "so3.poisson": ("data", False),
    "gamma5.gs": (None, True),
    "or_gamma5.os": (None, True),
    "or_tetra.os": (None, True),
    **{name: (None, True) for name in HEPTAGON_ORGRAPHS},
}

# name -> (verb metric, argument vector); "{key}" is replaced by an input path
OPS = {
    "kernel-6-9": ("kernel", ["kernel", "--vertices", "6", "--edges", "9"]),
    "kernel-6-10": ("kernel", ["kernel", "--vertices", "6", "--edges", "10"]),
    "kernel-6-11": ("kernel", ["kernel", "--vertices", "6", "--edges", "11"]),
    "cocycle-gamma5": ("cocycle", ["cocycle", "{gamma5.gs}"]),
    "orient-gamma5": ("orient", ["orient", "{gamma5.gs}"]),
    "fold-or-gamma5": ("fold", ["fold", "{or_gamma5.os}"]),
    "rules-check-wheel5": ("rules_check", ["rules-check", "{wheel5.g}"]),
    **{
        f"normalize-{name[:-2]}": ("normalize", ["normalize", "{" + name + "}"])
        for name in HEPTAGON_ORGRAPHS
    },
    "corollary-tetra-cubic3": (
        "corollary",
        ["verify-corollary", "--graph", "{tetra.g}", "--poisson", "{cubic3.poisson}"],
    ),
    "corollary-gamma5-so3": (
        "corollary",
        ["verify-corollary", "--graph", "{gamma5.gs}", "--poisson", "{so3.poisson}"],
    ),
    "eval-or-gamma5-quad2": (
        "eval", ["eval", "--poisson", "{quad2.poisson}", "{or_gamma5.os}"]
    ),
    "eval-or-tetra-cubic3": (
        "eval", ["eval", "--poisson", "{cubic3.poisson}", "{or_tetra.os}"]
    ),
}

# Per-verb times reported by the benchmark, keyed by the OPS verb field.
VERB_METRICS = {
    "kernel": "verb.kernel_s",
    "orient": "verb.orient_s",
    "normalize": "verb.normalize_s",
    "fold": "verb.fold_s",
    "rules_check": "verb.rules_check_s",
    "corollary": "verb.corollary_s",
    "eval": "verb.eval_s",
}

_COMPLEX = ["kernel-6-9", "kernel-6-10", "kernel-6-11", "cocycle-gamma5"]
_ORIENT = [
    "orient-gamma5",
    "fold-or-gamma5",
    "rules-check-wheel5",
    *(f"normalize-{name[:-2]}" for name in HEPTAGON_ORGRAPHS),
]
_FLOW = [
    "corollary-tetra-cubic3",
    "corollary-gamma5-so3",
    "eval-or-gamma5-quad2",
    "eval-or-tetra-cubic3",
]

# name -> (operations, whether they run in one interpreter)
WORKLOADS = {
    "complex": (_COMPLEX, False),
    "orient": (_ORIENT, False),
    "flow": (_FLOW, False),
    # The cold operations minus kernel (6,9) and (6,11) and three of the four
    # normalizations, run twice in one interpreter: the first pass fills both
    # module caches and every later operation can reuse them.
    "session": (
        [
            "kernel-6-10",
            "cocycle-gamma5",
            "orient-gamma5",
            "fold-or-gamma5",
            "rules-check-wheel5",
            "normalize-hept1",
            *_FLOW,
        ],
        True,
    ),
}


# ---------------------------------------------------------------------------
# Seeded presentations


def inversions(seq) -> int:
    return sum(1 for i in range(len(seq)) for j in range(i + 1, len(seq)) if seq[i] > seq[j])


def even_permutation(rng: random.Random, n: int) -> list[int]:
    """A uniformly random even permutation of ``range(n)``."""
    perm = list(range(n))
    rng.shuffle(perm)
    if n >= 2 and inversions(perm) % 2:
        perm[0], perm[1] = perm[1], perm[0]
    return perm


def _edge_list(rng: random.Random, n: int, edges: list[tuple[int, int]]) -> list[tuple[int, int]]:
    """Relabel the vertices ``1..n`` and permute the edge positions evenly.

    ``perm[j]`` is the old position of the edge placed at position ``j``.
    """
    labels = list(range(1, n + 1))
    rng.shuffle(labels)
    perm = even_permutation(rng, len(edges))
    out = []
    for j in range(len(edges)):
        u, v = edges[perm[j]]
        a, b = labels[u - 1], labels[v - 1]
        out.append((min(a, b), max(a, b)))
    return out


def _pairs(
    rng: random.Random, s: int, pairs: list[tuple[int, int]]
) -> list[tuple[int, int]]:
    """Relabel the internal vertices and flip an even number of pairs.

    Moving a whole pair is an even permutation of the arrow positions, and
    flips come two at a time, so the arrow permutation is even.
    """
    n = len(pairs)
    place = list(range(n))  # internal vertex i gets label s + place[i]
    rng.shuffle(place)
    flips = rng.sample(range(n), 2 * rng.randrange(n // 2 + 1))
    out: list[tuple[int, int]] = [(0, 0)] * n
    for i, (a, b) in enumerate(pairs):
        a = a if a < s else s + place[a - s]
        b = b if b < s else s + place[b - s]
        out[place[i]] = (b, a) if i in flips else (a, b)
    return out


def _content(text: str) -> list[str]:
    """Lines of ``text`` without comments and blanks."""
    lines = (line.split("#", 1)[0].strip() for line in text.splitlines())
    return [line for line in lines if line]


def _graph_text(rng: random.Random, text: str) -> str:
    lines = _content(text)
    _, n, m = lines[0].split()
    edges = [tuple(int(x) for x in line.split()) for line in lines[1:]]
    out = _edge_list(rng, int(n), edges)
    return "\n".join([f"g {n} {m}", *(f"{u} {v}" for u, v in out)]) + "\n"


def _graph_sum_line(rng: random.Random, line: str) -> str:
    coeff, rest = line.split("*", 1)
    head, edge_text = rest.split(":", 1)
    n = int(head.split()[1])
    edges = [tuple(int(x) for x in chunk.split()) for chunk in edge_text.split(",")]
    out = _edge_list(rng, n, edges)
    return f"{coeff.strip()} * {head.strip()} : " + ", ".join(f"{u} {v}" for u, v in out)


def _orgraph_body(rng: random.Random, body: str) -> str:
    head, pair_text = body.split(":", 1)
    fields = head.split()
    s = int(fields[2]) if len(fields) == 3 else 2
    pairs = [tuple(int(x) for x in chunk.split()) for chunk in pair_text.split(";")]
    out = _pairs(rng, s, pairs)
    return f"{head.strip()} : " + " ; ".join(f"{a} {b}" for a, b in out)


def _orgraph_sum_line(rng: random.Random, line: str) -> str:
    coeff, rest = line.split("*", 1)
    return f"{coeff.strip()} * {_orgraph_body(rng, rest.strip())}"


def present(key: str, text: str, seed: int) -> str:
    """The seeded presentation of input ``key`` (same seed, same text)."""
    rng = random.Random(f"{seed}:{key}")
    suffix = key.rsplit(".", 1)[1]
    if suffix == "g":
        return _graph_text(rng, text)
    lines = _content(text)
    if suffix == "gs":
        return "\n".join(_graph_sum_line(rng, line) for line in lines) + "\n"
    if suffix == "os":
        return "\n".join(_orgraph_sum_line(rng, line) for line in lines) + "\n"
    if suffix == "o":
        return _orgraph_body(rng, lines[0]) + "\n"
    raise ValueError(f"no seeded presentation for {key}")


def source_path(root: Path, key: str) -> Path:
    directory, _ = INPUTS[key]
    return (root / directory / key) if directory else INPUT_DIR / key


def materialize(
    root: Path, names: list[str], seed: int | None, workdir: Path
) -> dict[str, list[str]]:
    """Argument vectors of operations ``names`` with inputs for ``seed``.

    With ``seed=None`` the inputs are used as checked in.
    """
    paths: dict[str, str] = {}
    argvs = {}
    for name in names:
        argv = []
        for arg in OPS[name][1]:
            if arg.startswith("{"):
                key = arg[1:-1]
                if key not in paths:
                    src = source_path(root, key)
                    if seed is None or not INPUTS[key][1]:
                        paths[key] = str(src)
                    else:
                        dst = workdir / key
                        dst.write_text(present(key, src.read_text(), seed))
                        paths[key] = str(dst)
                arg = paths[key]
            argv.append(arg)
        argvs[name] = argv
    return argvs


@contextmanager
def work_dir(root: Path):
    """A fresh directory for this process's files, removed on exit."""
    path = root / ".perfbench_work" / str(os.getpid())
    path.mkdir(parents=True)
    try:
        yield path
    finally:
        shutil.rmtree(path)
        try:
            path.parent.rmdir()
        except OSError:
            pass  # another benchmark process still uses it
