"""Shared searches merge back to the serial search, checked in one process.

``LocalPeer`` stands in for the other end of the ``witness`` link: at a
poll it takes the oldest open branch of the search (``_Search.split``) and
runs it at once, from the incumbent of that moment, so a taken branch
runs before the rest of the branch it was taken from.  Its own polls may
take from it in turn.  The merge must then give the size, cover, node
count and stored record of the serial search, and the covers and nodes of
the serial lex pass."""

import random

import pytest

from adimlab import kernel
from adimlab.graph import from_pair_mask
from adimlab.metric import build_table, dimensionality


class LocalPeer:
    """Takes a branch at a poll with probability ``p`` (every poll at 1),
    drawn from ``rng``, and counts what the merge met: branches taken,
    branches taken from a taken branch, segments run again, and probes
    whose first cover came before a taken branch or in one."""

    def __init__(self, rng, p):
        self.rng, self.p = rng, p
        self.taken = self.nested = self.reruns = 0
        self.first_cover = {"before": 0, "taken": 0}

    def poll(self, search):
        if self.rng.random() >= self.p:
            return
        state = search.split()
        if state is None:
            return
        segments = search.segments
        self.taken += 1
        self.nested += search.seg is not segments.items[0]
        item = segments.add(search.seg, state, search.best_size, search.best_mask, kernel.HERE)
        item.result = kernel.segment(
            search, search.k, search.floor, state, search.best_size, search.best_mask,
            self, segments, item,
        )

    def wait(self, segments):
        raise AssertionError("every segment a local peer takes is done at once")

    def close(self, segments):
        self.reruns += sum(item.where is not kernel.TODO for item in segments.dropped)
        if segments.search.floor:
            for i, item in enumerate(segments.items):
                if item.result[0] <= segments.search.floor:
                    self.first_cover["taken" if i else "before"] += 1
                    break


def _problems(ns, seed):
    for n in ns:
        g = from_pair_mask(n, random.Random(seed * 1000 + n).getrandbits(n * (n - 1) // 2))
        for t in (2, n):
            table = build_table(g, t)
            for k in range(1, min(dimensionality(table), 3) + 1):
                yield table, k


def _serial_and_shared(table, k, peer, limit, prefix):
    """(record, covers, nodes) of the minimum search and the lex pass,
    serial and then shared with ``peer``, each on a fresh prepared table."""
    out = []
    for share in (None, peer):
        prepared = kernel.prepare(table.pair_masks, table.n, table.prepared.prefix)
        record, _ = kernel._minimum(prepared, k, None, peer=share)
        assert prepared.searches[k] == record
        size, cover, nodes, _ = record
        covers, nodes = kernel.lex_pass(prepared, k, size, cover, limit, prefix, nodes, None, share)
        out.append((record, covers, nodes))
    return out


@pytest.mark.parametrize("seed", [1, 2])
def test_random_steals_merge_to_the_serial_search(monkeypatch, seed):
    monkeypatch.setattr(kernel, "POLL_NODES", 2)
    peer = LocalPeer(random.Random(seed), 0.25)
    for table, k in _problems(range(8, 25), seed):
        serial, shared = _serial_and_shared(table, k, peer, 1, table.prepared.prefix)
        assert shared == serial
    # the cases the merge must get right all happened
    assert peer.taken > 1000 and peer.nested > 100
    assert peer.reruns > 0
    assert peer.first_cover["before"] > 0 and peer.first_cover["taken"] > 0


def test_a_steal_at_every_poll_lists_the_serial_bases(monkeypatch):
    monkeypatch.setattr(kernel, "POLL_NODES", 8)
    peer = LocalPeer(random.Random(0), 1.0)
    for table, k in _problems(range(8, 17), 3):
        serial, shared = _serial_and_shared(table, k, peer, 1 << 62, 0)
        assert shared == serial
    assert peer.taken > 100 and peer.nested > 10


def test_a_stale_branch_runs_again_with_its_whole_subtree(monkeypatch):
    # a branch taken at the first poll runs from the greedy incumbent; the
    # rest of the search improves on it, so the branch and everything taken
    # from it run again from the improved incumbent, counted once
    monkeypatch.setattr(kernel, "POLL_NODES", 1)
    n = 11
    table = build_table(from_pair_mask(n, random.Random(n).getrandbits(55)), 2)
    serial = kernel.minimum_search(kernel.prepare(table.pair_masks, n), 1)
    assert serial == (3, 88, 21, 4)

    class TwoSteals(LocalPeer):
        def __init__(self):
            super().__init__(None, 1.0)
            self.polls = 0

        def poll(self, search):
            self.polls += 1
            if self.polls in (9, 10):
                self.rng = random.Random(0)
                super().poll(search)

    peer = TwoSteals()
    prepared = kernel.prepare(table.pair_masks, n)
    assert kernel._minimum(prepared, 1, None, peer=peer)[0] == serial
    assert peer.taken == 2 and peer.nested == 1 and peer.reruns == 2
