"""Every generated presentation loads as a valid finite 2-graph.

Run from the root of a checkout:

    python3 -m pytest -q perfbench/test_gen.py
"""

import os
import random
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import gen  # noqa: E402
import run  # noqa: E402
from pathgroupoids import Degree, load_presentation  # noqa: E402

SIZES = sorted(set(run.FA_SMALL + run.FA_LARGE + [(2, 1, 2, 1), (2, 2, 3, 2)]))


@pytest.mark.parametrize("size", SIZES, ids=lambda s: "x".join(map(str, s)))
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_document_loads_as_a_valid_2_graph(size, seed):
    a, b, ma, mb = size
    g = load_presentation(gen.twisted_product(*size, random.Random(seed)), name="tw")
    assert g.rank == 2 and g.is_finite
    assert len(g.vertices) == (a + 1) * (b + 1)
    assert len(g.squares) == a * b * ma * mb
    morphisms = g.enumerate_morphisms(Degree(run.BOUND)).morphisms
    assert len(morphisms) == gen.morphism_count(*size, run.BOUND)


def test_seed_picks_the_twist():
    docs = {gen.twisted_product(1, 1, 2, 2, random.Random(seed)) for seed in range(20)}
    assert len(docs) > 1
    assert gen.twisted_product(1, 1, 2, 2, random.Random(5)) == gen.twisted_product(
        1, 1, 2, 2, random.Random(5)
    )


def test_every_workload_document_loads():
    for name, make in run.WORKLOADS.items():
        for file_name, text in make(random.Random(f"{name}:0")).documents.items():
            load_presentation(text, name=file_name)


def test_rejects_empty_sizes():
    with pytest.raises(ValueError):
        gen.twisted_product(0, 1, 1, 1, random.Random(0))
