import multiprocessing
import random

import pytest
from hypothesis import strategies as st

from adimlab import verify
from adimlab.graph import Graph, from_pair_mask


@pytest.fixture(autouse=True, scope="session")
def no_process_left_running():
    yield
    verify._close_pool()
    assert multiprocessing.active_children() == []


def random_graph(rng: random.Random, n: int) -> Graph:
    return from_pair_mask(n, rng.getrandbits(n * (n - 1) // 2))


@st.composite
def graphs(draw, min_n=1, max_n=8):
    n = draw(st.integers(min_n, max_n))
    mask = draw(st.integers(0, (1 << (n * (n - 1) // 2)) - 1))
    return from_pair_mask(n, mask)
