import importlib
from pathlib import Path

import pytest

from superdegen.catalog import load_catalog
from superdegen.graph import load_default_graph
from superdegen.linalg import Matrix
from superdegen.structure import transport


@pytest.fixture(scope="session")
def catalog():
    return load_catalog()


@pytest.fixture(scope="session")
def graph(catalog):
    return load_default_graph(catalog)


@pytest.fixture(scope="session")
def benchmark_points(catalog):
    """(workload, seed) -> the points of one pass of a perfbench fuzz
    workload (its own input generator), moved without revalidation."""
    def points(workload, seed):
        with pytest.MonkeyPatch.context() as mp:
            mp.syspath_prepend(str(Path(__file__).resolve().parent.parent / "perfbench"))
            raw = importlib.import_module("inputs").fuzz_points(workload, seed)
        out = []
        for point in raw:
            sc = catalog.entry(point["label"]).sc
            out.append(transport(Matrix.from_rows(point["g"], sc.field), sc, revalidate=False))
        return out
    return points
