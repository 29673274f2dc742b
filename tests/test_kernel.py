"""The multicover kernel on inputs the solver-level tests do not reach."""

import pytest

from adimlab import kernel
from adimlab.errors import AdimlabError, BudgetExhausted, KTooLarge
from adimlab.graph import path
from adimlab.metric import build_table


def test_budget_exhausted_raises():
    masks = build_table(path(10), 2).pair_masks
    with pytest.raises(BudgetExhausted):
        kernel.solve_min_multicover(masks, 2, 10, 0, 2)


def test_greedy_cover_infeasible_raises_typed_error():
    # the second mask has 1 bit, so no vertex set hits it twice
    with pytest.raises(KTooLarge) as info:
        kernel.greedy_cover([0b011, 0b100], 2, 3, 0)
    assert isinstance(info.value, AdimlabError)


def test_python_kernel_large_universe():
    # masks are plain ints, so n > 64 works through big ints
    masks = [(1 << 64) | (1 << 65), (1 << 65) | (1 << 66), (1 << 64) | (1 << 66)]
    size, witness, _, _ = kernel.solve_min_multicover(masks, 1, 67, 0, None)
    assert size == 2
    assert all((witness & m).bit_count() >= 1 for m in masks)
    g = path(70)
    big = build_table(g, 2).pair_masks
    greedy = kernel.greedy_cover(big, 1, 70, 0)
    assert all((greedy & m).bit_count() >= 1 for m in big)
