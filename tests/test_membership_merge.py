"""The peer table's merge is a join-semilattice.

``repro.net.daemon.merge`` keeps, per id, the row with the larger
``(incarnation, status rank)``.  Tables merged that way agree however
the rows reach them: in any order, any number of times, in any grouping.
That is what lets the daemon forward each changed row once and trust
the cluster to converge.
"""

from hypothesis import given
from hypothesis import strategies as st

from repro.net.daemon import ALIVE, DEAD, SUSPECT, merge

ROW = st.tuples(st.sampled_from(["a:1", "b:2", "c:3"]),
                st.tuples(st.integers(0, 3),
                          st.sampled_from([ALIVE, SUSPECT, DEAD])))
ROWS = st.lists(ROW, max_size=12)


def table_of(rows):
    table = {}
    merge(table, rows)
    return table


def join(left, right):
    table = dict(left)
    merge(table, right.items())
    return table


@given(ROWS, ROWS)
def test_commutative(a, b):
    assert join(table_of(a), table_of(b)) == join(table_of(b), table_of(a))


@given(ROWS, ROWS, ROWS)
def test_associative(a, b, c):
    a, b, c = table_of(a), table_of(b), table_of(c)
    assert join(join(a, b), c) == join(a, join(b, c))


@given(ROWS)
def test_idempotent(a):
    a = table_of(a)
    assert join(a, a) == a
    assert merge(dict(a), a.items()) == {}


@given(ROWS, st.data())
def test_any_delivery_converges(rows, data):
    """Any permutation, with any rows delivered twice, in any split into
    separate merges, ends in the same table."""
    delivered = data.draw(st.permutations(
        rows + data.draw(st.lists(st.sampled_from(rows), max_size=6))
        if rows else rows))
    cut = data.draw(st.integers(0, len(delivered)))
    table = {}
    merge(table, delivered[:cut])
    merge(table, delivered[cut:])
    assert table == table_of(rows)


@given(ROWS, ROWS)
def test_reports_exactly_what_changed(a, b):
    before = table_of(a)
    after = dict(before)
    changed = merge(after, b)
    assert changed == {peer: before.get(peer) for peer in after
                       if after[peer] != before.get(peer)}


def test_rank_breaks_ties_and_incarnation_beats_rank():
    table = {"y": (0, ALIVE)}
    assert merge(table, [("y", (0, SUSPECT))]) == {"y": (0, ALIVE)}
    assert merge(table, [("y", (0, ALIVE))]) == {}  # a refuted rank stays
    assert merge(table, [("y", (1, ALIVE))]) == {"y": (0, SUSPECT)}
    assert merge(table, [("y", (0, DEAD))]) == {}  # a stale verdict loses
    assert table == {"y": (1, ALIVE)}
