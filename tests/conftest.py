"""Shared fixtures: the standard graph zoo, bivector corpus, CLI runner."""

from __future__ import annotations

import contextlib
import io
from pathlib import Path

import pytest

from gckit import GraphSum, Multivector, UnorientedGraph, cocycle_kernel, new_graph, parse_poisson
from gckit.cli import main as cli_main

DATA = Path(__file__).resolve().parent.parent / "data"


@pytest.fixture(scope="session")
def data_dir() -> Path:
    return DATA


@pytest.fixture(scope="session")
def edge() -> UnorientedGraph:
    return new_graph(2, [(1, 2)])


@pytest.fixture(scope="session")
def path3() -> UnorientedGraph:
    return new_graph(3, [(1, 2), (2, 3)])


@pytest.fixture(scope="session")
def tetra() -> UnorientedGraph:
    return new_graph(4, [(1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4)])


@pytest.fixture(scope="session")
def wheel5() -> UnorientedGraph:
    """Pentagon wheel, rim cycle listed before the spokes of hub 1."""
    return new_graph(
        6,
        [(2, 3), (3, 4), (4, 5), (5, 6), (2, 6),
         (1, 2), (1, 3), (1, 4), (1, 5), (1, 6)],
    )


@pytest.fixture(scope="session")
def companion5() -> UnorientedGraph:
    """The second graph of the six-vertex ten-edge cocycle."""
    return new_graph(
        6,
        [(1, 2), (1, 3), (1, 4), (1, 5), (2, 3),
         (2, 4), (2, 6), (3, 5), (4, 6), (5, 6)],
    )


@pytest.fixture(scope="session")
def pentagon_cocycle() -> GraphSum:
    """The pentagon-wheel cocycle: the one basis vector of the (6,10) kernel."""
    (basis,) = cocycle_kernel(6, 10)
    return basis


def _load_poisson(name: str) -> Multivector:
    return parse_poisson((DATA / name).read_text(encoding="utf-8"))


@pytest.fixture(scope="session")
def sym2() -> Multivector:
    return _load_poisson("sym2.poisson")


@pytest.fixture(scope="session")
def so3() -> Multivector:
    return _load_poisson("so3.poisson")


@pytest.fixture(scope="session")
def quad2() -> Multivector:
    return _load_poisson("quad2.poisson")


@pytest.fixture(scope="session")
def cubic3() -> Multivector:
    """Deliberately non-Poisson cubic bivector (nonvanishing self-bracket)."""
    return _load_poisson("cubic3.poisson")


def run_cli(*args: str) -> tuple[int, str, str]:
    """Invoke the command line in-process; returns (exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli_main(list(args))
        except SystemExit as exc:  # argparse paths (--version, usage errors)
            code = exc.code if isinstance(exc.code, int) else 0
    return code, out.getvalue(), err.getvalue()


@pytest.fixture(scope="session")
def cli():
    return run_cli
