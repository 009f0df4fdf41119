"""Tests for the bounded controller queues."""

import pytest

from repro.memctrl.queues import BoundedQueue
from repro.memctrl.request import MemRequest, ReqKind


def req(i, line=0, bank=0, kind=ReqKind.READ):
    return MemRequest(req_id=i, kind=kind, core=0, line=line, bank=bank)


class TestCapacity:
    def test_push_until_full(self):
        q = BoundedQueue(2)
        assert q.push(req(1))
        assert q.push(req(2))
        assert q.full
        assert not q.push(req(3))
        assert len(q) == 2

    def test_rejects_zero_capacity(self):
        with pytest.raises(ValueError):
            BoundedQueue(0)

    def test_occupancy(self):
        q = BoundedQueue(4)
        q.push(req(1))
        assert q.occupancy() == 1
        assert not q.empty


class TestSelection:
    def test_oldest_for_bank(self):
        q = BoundedQueue(8)
        q.push(req(1, bank=1))
        q.push(req(2, bank=0))
        q.push(req(3, bank=1))
        oldest = q.oldest_for_bank(1)
        assert oldest.req_id == 1

    def test_oldest_for_missing_bank(self):
        q = BoundedQueue(8)
        q.push(req(1, bank=0))
        assert q.oldest_for_bank(5) is None

    def test_bank_index_tracks_push_and_remove(self):
        q = BoundedQueue(8)
        a, b, c = req(1, bank=1), req(2, bank=0), req(3, bank=1)
        for r in (a, b, c):
            q.push(r)
        assert q.has_bank(1) and q.has_bank(0) and not q.has_bank(2)
        assert list(q.for_bank(1)) == [a, c]
        q.remove(a)
        assert q.oldest_for_bank(1) is c
        q.remove(c)
        assert not q.has_bank(1)
        assert list(q.for_bank(1)) == []
        assert q.oldest_for_bank(1) is None

    def test_remove_is_by_identity(self):
        q = BoundedQueue(8)
        a, twin = req(1, bank=3), req(1, bank=3)
        q.push(a)
        q.push(twin)
        q.remove(twin)
        assert q.oldest_for_bank(3) is a
        assert list(q) == [a]

    def test_oldest_where(self):
        q = BoundedQueue(8)
        q.push(req(1, line=10))
        q.push(req(2, line=20))
        assert q.oldest_where(lambda r: r.line == 20).req_id == 2


class TestRemovalAndLines:
    def test_remove_frees_slot(self):
        q = BoundedQueue(1)
        r = req(1)
        q.push(r)
        q.remove(r)
        assert q.empty
        assert q.push(req(2))

    def test_contains_line_multiset(self):
        q = BoundedQueue(8)
        a, b = req(1, line=5), req(2, line=5)
        q.push(a)
        q.push(b)
        q.remove(a)
        assert q.contains_line(5)       # second request still pending
        q.remove(b)
        assert not q.contains_line(5)

    def test_iteration_order_is_fifo(self):
        q = BoundedQueue(8)
        for i in range(3):
            q.push(req(i))
        assert [r.req_id for r in q] == [0, 1, 2]
