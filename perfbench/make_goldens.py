"""Derive the benchmark's inputs and capture its goldens.

Usage, from the root of the repository::

    python3 perfbench/make_goldens.py --check   # re-derive, compare bytes
    python3 perfbench/make_goldens.py --write   # rewrite inputs and goldens

The derived inputs are the gamma5 cocycle as ``kernel 6 10`` prints it,
its orientation Or(gamma5), the orientation Or(tetra), the heptagon wheel,
and four 8-internal-vertex orgraphs read off evenly spaced orientation
witnesses of the heptagon wheel.  The goldens are every operation's exit
code and stdout on the inputs as checked in.  ``--check`` exits 1 when a
re-derived input differs from the checked-in bytes.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import child
from workloads import GOLDEN_DIR, HEPTAGON_ORGRAPHS, INPUT_DIR, OPS, materialize, work_dir

WHEEL7 = "wheel7.g"


def _cli(root: Path, argv: list[str]) -> bytes:
    done = child.run(["-m", "gckit.cli", *argv], child.env_for(root))
    if done.exit_code != 0:
        raise SystemExit(f"gckit {' '.join(argv)} exited {done.exit_code}")
    return done.stdout


def _heptagon_wheel() -> bytes:
    """Hub 1 and rim 2..8: the rim cycle first, then the seven spokes."""
    rim = [(v, v + 1) for v in range(2, 8)] + [(2, 8)]
    edges = rim + [(1, v) for v in range(2, 9)]
    lines = ["# heptagon wheel: rim cycle first, then the spokes from hub 1",
             f"g 8 {len(edges)}", *(f"{u} {v}" for u, v in edges)]
    return ("\n".join(lines) + "\n").encode()


def _heptagon_orgraphs(root: Path, wheel: bytes) -> list[bytes]:
    sys.path.insert(0, str(root / "src"))
    from gckit.graphs import parse_graph
    from gckit.orient import enumerate_orientations, format_orgraph

    witnesses = enumerate_orientations(parse_graph(wheel.decode()))
    picks = [witnesses[k * len(witnesses) // len(HEPTAGON_ORGRAPHS)] for k in range(len(HEPTAGON_ORGRAPHS))]
    return [(format_orgraph(w.orgraph()) + "\n").encode() for w in picks]


def derive(root: Path) -> dict[str, bytes]:
    """Every derived input, from the program at ``root``."""
    out: dict[str, bytes] = {}
    kernel = _cli(root, ["kernel", "--vertices", "6", "--edges", "10"]).decode()
    head, basis = kernel.split("# basis 1\n")
    if head != "dimension: 1\n":
        raise SystemExit(f"expected a one-dimensional (6,10) kernel, got {head!r}")
    out["gamma5.gs"] = basis.encode()
    out["or_tetra.os"] = _cli(root, ["orient", str(root / "data" / "tetra.g")])
    with work_dir(root) as scratch:
        (scratch / "gamma5.gs").write_bytes(out["gamma5.gs"])
        out["or_gamma5.os"] = _cli(root, ["orient", str(scratch / "gamma5.gs")])
    out[WHEEL7] = _heptagon_wheel()
    out.update(zip(HEPTAGON_ORGRAPHS, _heptagon_orgraphs(root, out[WHEEL7])))
    return out


def capture(root: Path) -> None:
    """Write every operation's golden stdout and the table of exit codes."""
    GOLDEN_DIR.mkdir(exist_ok=True)
    argvs = materialize(root, list(OPS), None, INPUT_DIR)
    codes = {}
    env = child.env_for(root)
    for name, argv in argvs.items():
        done = child.run(["-m", "gckit.cli", *argv], env)
        (GOLDEN_DIR / f"{name}.out").write_bytes(done.stdout)
        codes[name] = done.exit_code
    (GOLDEN_DIR / "exit_codes.json").write_text(json.dumps(codes, indent=2) + "\n")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    mode = parser.add_mutually_exclusive_group(required=True)
    mode.add_argument("--check", action="store_true")
    mode.add_argument("--write", action="store_true")
    args = parser.parse_args()
    root = Path.cwd()
    derived = derive(root)
    if args.write:
        INPUT_DIR.mkdir(exist_ok=True)
        for name, data in derived.items():
            (INPUT_DIR / name).write_bytes(data)
        capture(root)
        return 0
    stale = [n for n, data in derived.items() if (INPUT_DIR / n).read_bytes() != data]
    for name in stale:
        print(f"derived input differs from the checked-in bytes: {name}")
    print(f"{len(derived) - len(stale)}/{len(derived)} derived inputs reproduced")
    return 1 if stale else 0


if __name__ == "__main__":
    sys.exit(main())
