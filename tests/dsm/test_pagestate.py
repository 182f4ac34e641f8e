"""Unit tests for per-page coherence metadata."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dsm import PageCoherence


def test_fresh_page_is_valid():
    state = PageCoherence(0, 4)
    assert state.valid
    assert state.stale_writers() == []


def test_write_notice_invalidates():
    state = PageCoherence(0, 4)
    became_stale = state.note_write_notice(2, 1)
    assert became_stale
    assert not state.valid
    assert state.stale_writers() == [2]


def test_second_notice_does_not_report_stale_again():
    state = PageCoherence(0, 4)
    assert state.note_write_notice(2, 1)
    assert not state.note_write_notice(2, 2)
    assert not state.note_write_notice(3, 1)
    assert set(state.stale_writers()) == {2, 3}


def test_diffs_applied_revalidates():
    state = PageCoherence(0, 4)
    state.note_write_notice(1, 3)
    state.note_diffs_applied(1, 3)
    assert state.valid


def test_diffs_covering_future_intervals():
    state = PageCoherence(0, 4)
    state.note_write_notice(1, 2)
    state.note_diffs_applied(1, 5)  # flush covered through 5
    assert state.valid
    # An older notice arriving late changes nothing.
    assert not state.note_write_notice(1, 4)
    assert state.valid


def test_applied_never_regresses():
    state = PageCoherence(0, 2)
    state.note_diffs_applied(1, 5)
    state.note_diffs_applied(1, 3)
    assert state.applied_upto[1] == 5


def _valid_by_definition(state):
    return all(a >= n for a, n in zip(state.applied_upto, state.needed_upto))


@settings(max_examples=200, deadline=None)
@given(
    st.integers(min_value=1, max_value=5),
    st.lists(
        st.tuples(
            st.booleans(),
            st.integers(min_value=0, max_value=4),
            st.integers(min_value=0, max_value=8),
        ),
        max_size=40,
    ),
)
def test_property_stale_count_matches_definition(num_nodes, ops):
    """``valid`` is an O(1) count; it must agree with the per-writer scan
    after every notice/apply step and across a snapshot round trip."""
    state = PageCoherence(0, num_nodes)
    for is_notice, proc, interval in ops:
        proc %= num_nodes
        was_valid = state.valid
        if is_notice:
            became_stale = state.note_write_notice(proc, interval)
            assert became_stale == (was_valid and not _valid_by_definition(state))
        else:
            state.note_diffs_applied(proc, interval)
        assert state.valid == _valid_by_definition(state)
        assert state.stale == len(state.stale_writers())
    restored = PageCoherence.from_snapshot(0, num_nodes, state.snapshot_state())
    assert restored.valid == _valid_by_definition(state)
    assert restored.stale == state.stale
