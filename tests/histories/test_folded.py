"""Property-based tests for the incrementally folded histories.

The central invariant: maintaining a fold incrementally (insert the newest
bit, drop the bit leaving the window) always equals recomputing the fold
from the full history — for any history length, fold width and outcome
sequence.  The packed :class:`FoldedHistoryBank` must equal, lane by lane,
the one-fold :class:`FoldedHistory` loop it replaces.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.histories.folded import FoldedHistory, FoldedHistoryBank
from repro.histories.global_history import GlobalHistoryRegister


def _drive(fold: FoldedHistory, history: GlobalHistoryRegister, outcomes) -> None:
    """Feed outcomes through the fold exactly the way a predictor does."""
    for taken in outcomes:
        dropped = history.bit(fold.history_length - 1) if len(history) else 0
        fold.update(1 if taken else 0, dropped)
        history.push(taken)


class TestFoldedHistory:
    @given(
        st.integers(min_value=1, max_value=200),
        st.integers(min_value=1, max_value=14),
        st.lists(st.booleans(), max_size=400),
    )
    @settings(max_examples=60, deadline=None)
    def test_incremental_matches_recompute(self, history_length, width, outcomes):
        fold = FoldedHistory(history_length, width)
        history = GlobalHistoryRegister(capacity=max(256, history_length + 8))
        _drive(fold, history, outcomes)
        assert fold.value == fold.recompute(history)

    def test_fold_value_stays_in_width(self):
        fold = FoldedHistory(64, 10)
        history = GlobalHistoryRegister(capacity=128)
        _drive(fold, history, [True] * 200)
        assert 0 <= fold.value < 1 << 10

    def test_all_zero_history_folds_to_zero(self):
        fold = FoldedHistory(32, 8)
        history = GlobalHistoryRegister(capacity=64)
        _drive(fold, history, [False] * 100)
        assert fold.value == 0

    def test_checkpoint_restore(self):
        fold = FoldedHistory(20, 7)
        history = GlobalHistoryRegister(capacity=64)
        _drive(fold, history, [True, False, True, True])
        snapshot = fold.checkpoint()
        _drive(fold, history, [False, False])
        fold.restore(snapshot)
        assert fold.value == snapshot

    def test_clear(self):
        fold = FoldedHistory(20, 7)
        history = GlobalHistoryRegister(capacity=64)
        _drive(fold, history, [True] * 30)
        fold.clear()
        assert fold.value == 0

    def test_old_bits_leave_the_window(self):
        """After pushing `history_length` zeros, earlier ones must not linger."""
        fold = FoldedHistory(8, 4)
        history = GlobalHistoryRegister(capacity=64)
        _drive(fold, history, [True] * 10)
        _drive(fold, history, [False] * 8)
        assert fold.value == 0


def _drive_bank(bank: FoldedHistoryBank, history: GlobalHistoryRegister, outcomes) -> None:
    for taken in outcomes:
        bank.update(taken)
        history.push(taken)


class TestFoldedHistoryBank:
    @given(
        st.lists(st.tuples(st.integers(1, 2000), st.integers(1, 20)), min_size=1, max_size=8),
        st.data(),
    )
    @settings(max_examples=40, deadline=None)
    def test_every_lane_matches_the_one_fold_loop(self, folds, data):
        longest = max(length for length, _ in folds)
        # Sequences both shorter and longer than the folded windows.
        count = data.draw(st.integers(0, longest + 300))
        pattern = data.draw(st.integers(0, (1 << count) - 1))
        outcomes = [bool(pattern >> position & 1) for position in range(count)]
        bank = FoldedHistoryBank(folds)
        references = [FoldedHistory(length, width) for length, width in folds]
        history = GlobalHistoryRegister(capacity=longest + 8)
        for reference in references:
            _drive(reference, GlobalHistoryRegister(capacity=longest + 8), outcomes)
        _drive_bank(bank, history, outcomes)
        lanes = bank.lanes()
        for lane, reference in enumerate(references):
            assert bank.lane(lane) == lanes[lane] == reference.value
            assert reference.value == reference.recompute(history)

    def test_longest_windows_drop_their_oldest_bits(self):
        """TAGE's longest folds, driven well past their windows."""
        folds = [(2000, 15), (2000, 14), (1179, 10), (696, 12), (1, 1)]
        outcomes = [bool(bit) for bit in random.Random(3).choices((0, 1), k=4500)]
        bank = FoldedHistoryBank(folds)
        history = GlobalHistoryRegister(capacity=2008)
        _drive_bank(bank, history, outcomes)
        for lane, (length, width) in enumerate(folds):
            assert bank.lane(lane) == FoldedHistory(length, width).recompute(history)

    def test_three_folds_advance_together(self):
        bank = FoldedHistoryBank([(30, 10), (30, 8), (30, 7)])
        history = GlobalHistoryRegister(capacity=64)
        _drive_bank(bank, history, [True, False, True, True, False])
        for lane, width in enumerate((10, 8, 7)):
            assert bank.lane(lane) == FoldedHistory(30, width).recompute(history)

    def test_pack_and_unpack_use_the_lane_layout(self):
        bank = FoldedHistoryBank([(12, 9), (12, 11)])
        bank.update(True)
        mix = bank.pack([0b101, 0b11])
        assert list(bank.unpack(bank.value ^ mix)) == [bank.lane(0) ^ 0b101, bank.lane(1) ^ 0b11]

    def test_checkpoint_restore_roundtrip(self):
        bank = FoldedHistoryBank([(12, 9), (12, 11), (12, 10)])
        bank.update(True)
        snapshot = bank.checkpoint()
        bank.update(True)
        bank.restore(snapshot)
        assert bank.checkpoint() == snapshot

    def test_clear(self):
        bank = FoldedHistoryBank([(12, 9), (12, 11), (12, 10)])
        bank.update(True)
        bank.clear()
        assert bank.checkpoint() == (0, 0)
        assert list(bank.lanes()) == [0, 0, 0]

    def test_rejects_folds_wider_than_a_lane(self):
        with pytest.raises(ValueError):
            FoldedHistoryBank([(100, 64)])
        with pytest.raises(ValueError):
            FoldedHistoryBank([])
