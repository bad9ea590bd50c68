"""Incrementally folded (compressed) branch histories.

A TAGE table indexed with a 640-bit history cannot XOR all 640 bits at
prediction time; instead the hardware maintains, per table, a small
"circular shift register" (CSR) that always equals the XOR-fold of the most
recent ``history_length`` bits down to ``compressed_length`` bits.  On every
new branch the CSR is updated in O(1) by inserting the incoming bit and
removing the outgoing one.

Two implementations of that structure live here:

* :class:`FoldedHistory` — one CSR, updated exactly as the hardware
  description reads.  It is the reference model: the GEHL and FTL
  predictors use it directly, and the tests use it as the oracle for
  the bank below.
* :class:`FoldedHistoryBank` — every fold of a predictor packed side by
  side as fixed-width *lanes* of one Python integer, so one branch
  advances all of them with a handful of big-integer operations instead
  of one small update per fold.  TAGE keeps its 3 folds per tagged table
  (index, tag CSR1, tag CSR2) in one bank, and the numpy kernels compute
  their per-branch fold streams with one.

Bank lane layout
----------------
Lane ``i`` occupies bits ``[i*S, (i+1)*S)`` of :attr:`FoldedHistoryBank.value`,
where the slot width ``S`` (8, 16, 32 or 64) is the smallest that exceeds
the widest fold.  A fold of width ``W`` keeps its value in the low ``W``
bits of its slot; bit ``W`` is a scratch *overflow* bit that is zero
between updates, and the bits above it are always zero.  One update
mirrors :meth:`FoldedHistory.update` lane by lane:

1. ``value << 1`` rotates every lane left; a lane's top bit lands in its
   own overflow bit, never in the next lane (it was zero there),
2. one OR sets bit 0 of every lane when the inserted bit is 1,
3. for each distinct history length whose dropped bit is 1, one XOR flips
   bit ``length % W`` of every lane of that length,
4. per distinct width ``W``, the overflow bits of that width's lanes are
   moved down to bit 0 (``>> W``) and cleared — the ``value ^= value >> W;
   value &= mask(W)`` wrap of the single fold.

Every step acts on each lane independently and equals the corresponding
step of :class:`FoldedHistory` on that lane, so each lane stays equal to
a :class:`FoldedHistory` fed the same bits (and hence to its
:meth:`~FoldedHistory.recompute`); the property tests check exactly this.
The bank keeps its own packed copy of the last ``max(history_length)``
inserted bits to know which bits drop out.
"""

from __future__ import annotations

import sys
from array import array
from typing import Sequence

from repro.common.bits import mask
from repro.histories.global_history import GlobalHistoryRegister

__all__ = ["FoldedHistory", "FoldedHistoryBank"]


class FoldedHistory:
    """A compressed history register tracking an XOR fold incrementally.

    Parameters
    ----------
    history_length:
        Number of global-history bits folded.
    compressed_length:
        Width of the fold in bits.

    The invariant maintained is that :attr:`value` always equals
    :meth:`recompute` applied to the source history — the property-based
    tests exercise exactly this equivalence.
    """

    def __init__(self, history_length: int, compressed_length: int) -> None:
        if history_length < 1:
            raise ValueError("history_length must be positive")
        if compressed_length < 1:
            raise ValueError("compressed_length must be positive")
        self.history_length = history_length
        self.compressed_length = compressed_length
        self.outpoint = history_length % compressed_length
        self.value = 0

    def update(self, inserted_bit: int, dropped_bit: int) -> None:
        """Rotate the fold: insert the newest history bit, remove the oldest.

        Parameters
        ----------
        inserted_bit:
            Direction (0/1) of the branch entering the history window.
        dropped_bit:
            Direction (0/1) of the branch leaving the window, i.e. the bit
            that was ``history_length`` branches ago *before* this update.
        """
        self.value = (self.value << 1) | (inserted_bit & 1)
        self.value ^= (dropped_bit & 1) << self.outpoint
        self.value ^= self.value >> self.compressed_length
        self.value &= mask(self.compressed_length)

    def recompute(self, history: GlobalHistoryRegister) -> int:
        """Recompute the fold from scratch from ``history`` (reference model).

        The incremental update is XOR-linear: a history bit of age ``i``
        (``i = 0`` is the most recent branch) has been rotated left ``i``
        times since it was inserted at position 0, so it contributes at bit
        position ``i mod compressed_length``.  Bits older than
        ``history_length`` have been cancelled out by the dropped-bit XOR.
        The incremental :meth:`update` must always agree with this direct
        computation; the property-based tests check the equivalence.
        """
        folded = 0
        window = min(self.history_length, len(history))
        for i in range(window):
            folded ^= history.bit(i) << (i % self.compressed_length)
        return folded

    def checkpoint(self) -> int:
        """Snapshot the fold value."""
        return self.value

    def restore(self, snapshot: int) -> None:
        """Restore a snapshot taken by :meth:`checkpoint`."""
        self.value = snapshot

    def clear(self) -> None:
        """Reset the fold to the all-zero history."""
        self.value = 0


class FoldedHistoryBank:
    """Many folded histories of one direction stream, packed into one integer.

    Parameters
    ----------
    folds:
        ``(history_length, width)`` of every lane, in lane order.  Widths
        must be below 64 bits.

    :meth:`update` advances every lane by one branch; :meth:`lane` reads
    one lane and :meth:`lanes` unpacks all of them at once.  See the
    module docstring for the layout and why each lane equals a
    :class:`FoldedHistory` of the same length and width.
    """

    def __init__(self, folds: Sequence[tuple[int, int]]) -> None:
        folds = tuple((int(length), int(width)) for length, width in folds)
        if not folds:
            raise ValueError("a fold bank needs at least one fold")
        for length, width in folds:
            if length < 1:
                raise ValueError("history_length must be positive")
            if width < 1:
                raise ValueError("compressed_length must be positive")
        widest = max(width for _, width in folds)
        # The narrowest unsigned array element wider than every fold.
        for typecode in "BHILQ":
            if widest < 8 * array(typecode).itemsize:
                break
        else:
            raise ValueError(f"fold width {widest} does not fit a 64-bit lane")
        self.folds = folds
        self._typecode = typecode
        self.slot_bits = 8 * array(typecode).itemsize
        self._bytes = len(folds) * self.slot_bits // 8
        insert = 0
        drops: dict[int, int] = {}
        tops: dict[int, int] = {}
        for lane, (length, width) in enumerate(folds):
            base = lane * self.slot_bits
            insert |= 1 << base
            drops[length] = drops.get(length, 0) | 1 << (base + length % width)
            tops[width] = tops.get(width, 0) | 1 << (base + width)
        self._insert = insert
        #: (probe of the history bit leaving a window of that length, XOR mask)
        self._drops = tuple((1 << (length - 1), out) for length, out in sorted(drops.items()))
        self._overflow = sum(tops.values())
        self._wraps = tuple(sorted(tops.items()))
        self._history_mask = mask(max(length for length, _ in folds))
        #: The packed lanes (see the module docstring).
        self.value = 0
        #: The last ``max(history_length)`` inserted bits, newest in bit 0.
        self.history = 0

    def update(self, taken: bool) -> None:
        """Advance every lane by one branch of direction ``taken``."""
        history = self.history
        value = self.value << 1
        if taken:
            value |= self._insert
        for probe, out in self._drops:
            if history & probe:
                value ^= out
        overflow = value & self._overflow
        value ^= overflow
        for width, top in self._wraps:
            value ^= (overflow & top) >> width
        self.value = value
        self.history = ((history << 1) | (1 if taken else 0)) & self._history_mask

    def lane(self, index: int) -> int:
        """The current value of lane ``index``."""
        return (self.value >> (index * self.slot_bits)) & mask(self.folds[index][1])

    def lanes(self) -> array:
        """Every lane's current value, unpacked in one step."""
        return self.unpack(self.value)

    def unpack(self, packed: int) -> array:
        """Split an integer in the bank's slot layout into its slots.

        ``packed`` is :attr:`value` or an integer derived from it slot by
        slot — TAGE XORs its hash terms into the lanes and masks them to
        the index and tag widths before unpacking them all at once.
        """
        slots = array(self._typecode, packed.to_bytes(self._bytes, "little"))
        if sys.byteorder == "big":
            slots.byteswap()
        return slots

    def pack(self, values: Sequence[int]) -> int:
        """Place ``values[i]`` in slot ``i``: an integer in the bank's slot layout."""
        if len(values) > len(self.folds):
            raise ValueError(f"{len(values)} values for {len(self.folds)} lanes")
        packed = 0
        for lane, value in enumerate(values):
            if not 0 <= value < 1 << self.slot_bits:
                raise ValueError(f"value {value} does not fit a {self.slot_bits}-bit slot")
            packed |= value << (lane * self.slot_bits)
        return packed

    def checkpoint(self) -> tuple[int, int]:
        """Snapshot the lanes and the window of inserted bits."""
        return self.value, self.history

    def restore(self, snapshot: tuple[int, int]) -> None:
        """Restore a snapshot taken by :meth:`checkpoint`."""
        self.value, self.history = snapshot

    def clear(self) -> None:
        """Reset every lane to the all-zero history."""
        self.value = 0
        self.history = 0
