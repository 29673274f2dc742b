import random

from hypothesis import strategies as st

from adimlab.graph import Graph, from_pair_mask


def random_graph(rng: random.Random, n: int) -> Graph:
    return from_pair_mask(n, rng.getrandbits(n * (n - 1) // 2))


@st.composite
def graphs(draw, min_n=1, max_n=8):
    n = draw(st.integers(min_n, max_n))
    mask = draw(st.integers(0, (1 << (n * (n - 1) // 2)) - 1))
    return from_pair_mask(n, mask)
