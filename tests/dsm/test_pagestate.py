"""Unit tests for per-page coherence metadata."""

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
