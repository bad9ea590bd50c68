"""The TAGE conditional branch predictor (Seznec & Michaud, 2006).

TAGE — TAgged GEometric history length — is the paper's main predictor
(Section 3).  A bimodal base table provides a default prediction; M
partially-tagged tables, indexed with geometrically increasing global
history lengths, provide the prediction of the *provider* component (the
hitting table with the longest history).  A handful of mechanisms around
this core account for most of its accuracy:

* the *alternate prediction* and the ``USE_ALT_ON_NA`` counter, which fall
  back to the next matching component when the provider entry is still
  weak (Section 3.1),
* allocation of up to ``max_allocations`` new entries on non-consecutive
  tables after a misprediction (Section 3.2.1),
* a single *useful* bit per entry protecting it from replacement, with a
  global reset driven by an 8-bit allocation success/failure monitor
  (Section 3.2.2).

The implementation exposes everything the rest of the paper needs: the
fetch-time prediction snapshot (for delayed-update scenarios [B]/[C]), the
provider entry identity (for the Immediate Update Mimicker) and the
provider counter value (for the Statistical Corrector).
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from operator import getitem

from repro.common.bits import fold_bits, mask
from repro.common.counters import SaturatingCounter, clamp
from repro.common.storage import StorageReport
from repro.core.config import TAGEConfig, make_reference_tage_config
from repro.histories.folded import FoldedHistoryBank
from repro.histories.global_history import GlobalHistoryRegister, PathHistory
from repro.predictors.base import PredictionInfo, Predictor, UpdateStats
from repro.predictors.bimodal import BimodalPrediction, BimodalPredictor

__all__ = ["TAGEPrediction", "TAGEPredictor", "make_reference_tage"]


@dataclass
class TAGEPrediction(PredictionInfo):
    """Snapshot of one TAGE prediction.

    Besides the final direction, the snapshot records everything the
    retire-time update and the side predictors need:

    * the provider component and entry (``provider_table`` is 0 when the
      bimodal base provides, 1..M for tagged tables),
    * the alternate prediction,
    * the per-table indices, tags and useful bits computed at fetch time,
      so scenarios [B]/[C] can update and allocate without re-reading,
    * the base (bimodal) read.
    """

    tage_taken: bool = False
    provider_table: int = 0
    provider_index: int = 0
    provider_ctr: int = 0
    provider_taken: bool = False
    weak_provider: bool = False
    alt_table: int = 0
    alt_index: int = 0
    alt_taken: bool = False
    base_index: int = 0
    base_hysteresis_index: int = 0
    base_counter: int = 0
    indices: tuple[int, ...] = ()
    tags: tuple[int, ...] = ()
    useful_snapshot: tuple[int, ...] = ()

    def provider_entry(self) -> tuple[int, int]:
        """Identity of the entry that provided the prediction.

        Returns ``(table, index)`` where ``table`` is 0 for the bimodal
        base and 1..M for tagged tables.  This is the key the Immediate
        Update Mimicker associates with in-flight branches.
        """
        if self.provider_table > 0:
            return self.provider_table, self.provider_index
        return 0, self.base_index

    def provider_centered(self) -> int:
        """Centered counter value of the hitting component, ``2*ctr + 1``.

        The Statistical Corrector (Section 5.3) weighs the TAGE prediction
        by this value; for a bimodal provider the 2-bit counter is centered
        around its midpoint.
        """
        if self.provider_table > 0:
            return 2 * self.provider_ctr + 1
        return 2 * (self.base_counter - 2) + 1


class TAGEPredictor(Predictor):
    """The TAGE predictor proper.

    Parameters
    ----------
    config:
        Predictor dimensioning; defaults to the paper's reference 64 KB
        configuration (:func:`repro.core.config.make_reference_tage_config`).

    The tagged tables are ``array.array`` columns (prediction counter,
    partial tag, useful bits), and the three folds of every tagged table
    live in one :class:`~repro.histories.folded.FoldedHistoryBank`, so a
    branch computes all indices and tags in one pass
    (:meth:`_indices_tags`) and advances all folds at once.
    """

    def __init__(self, config: TAGEConfig | None = None) -> None:
        self.config = config or make_reference_tage_config()
        cfg = self.config
        self.name = f"tage-{cfg.num_components}comp-{cfg.storage_kbits:.0f}Kbits"
        self.num_tables = cfg.num_tagged_tables
        tables = range(self.num_tables)

        self.base = BimodalPredictor(
            entries=1 << cfg.bimodal_log2_entries,
            hysteresis_sharing=cfg.bimodal_hysteresis_sharing,
        )
        self._ctr_lo = -(1 << (cfg.counter_bits - 1))
        self._ctr_hi = (1 << (cfg.counter_bits - 1)) - 1
        self._u_max = (1 << cfg.useful_bits) - 1
        sizes = [1 << cfg.table_log2_entries[table] for table in tables]
        self._ctr = [_zeros("b", n) for n in sizes]
        self._tags = [_zeros("i", n) for n in sizes]
        self._useful = [_zeros("b", n) for n in sizes]

        self.history = GlobalHistoryRegister(capacity=max(64, cfg.max_history + 8))
        self.path_history = PathHistory(width=cfg.path_history_bits)
        # Lanes 0..M-1 hold the index folds, M..2M-1 tag CSR1 and 2M..3M-1
        # tag CSR2 (one bit narrower, so the tag is not a rotation of the
        # index), as the released TAGE simulators keep them.
        lengths = cfg.history_lengths
        self._folds = FoldedHistoryBank(
            [(lengths[t], cfg.table_log2_entries[t]) for t in tables]
            + [(lengths[t], cfg.tag_widths[t]) for t in tables]
            + [(lengths[t], max(1, cfg.tag_widths[t] - 1)) for t in tables]
        )
        self._hash_constants()
        self._path_luts = self._path_mix_tables()

        #: Optional bank selector modelling the 4-way interleaved
        #: single-ported organisation of Section 4.3.  When set, the low
        #: index bits of every tagged table are replaced by the bank chosen
        #: by the selection rule, so a branch can map to up to four
        #: distinct entries depending on its neighbours — the source of the
        #: small accuracy loss the paper measures.
        self.bank_selector = None

        #: USE_ALT_ON_NA — positive means "trust the alternate prediction
        #: when the provider entry is weak" (Section 3.1).
        self.use_alt_on_na = SaturatingCounter(bits=cfg.use_alt_on_na_bits, signed=True, value=0)
        #: Allocation success/failure monitor; saturation triggers the
        #: global reset of every useful bit (Section 3.2.2).
        self.allocation_tick = SaturatingCounter(
            bits=cfg.allocation_tick_bits, signed=False, value=0
        )
        self.useful_resets = 0

    # -- index and tag computation -------------------------------------------

    def _hash_constants(self) -> None:
        """Per-table constants of :meth:`_indices_tags`, in the bank's slot layout.

        The index of table ``t`` and its partial tag are computed in lanes
        ``t`` and ``M + t`` of one integer: the folds are already there,
        and each other term of the hash is placed in every slot at once.
        """
        cfg = self.config
        slot_bits = self._folds.slot_bits
        tables = range(self.num_tables)
        self._slot_mask = mask(slot_bits)
        spreads: dict[int, int] = {}
        for table in tables:
            width = cfg.table_log2_entries[table]
            spreads[width] = spreads.get(width, 0) | 1 << (table * slot_bits)
        #: Per distinct index width: (PC-hash shifts, slots of that width).
        self._index_spreads = tuple(
            (2 + width, 2 + 2 * width, spread) for width, spread in sorted(spreads.items())
        )
        #: Slots of the tables whose low index bits name the bank when interleaved.
        self._bank_spread = sum(
            1 << (table * slot_bits) for table in tables if cfg.table_log2_entries[table] >= 2
        )
        #: Tag CSR2 lanes sit M slots above the tag CSR1 lanes.
        self._tag_fold_2_shift = self.num_tables * slot_bits
        self._tag_spread = self._folds.pack([0] * self.num_tables + [1] * self.num_tables)
        self._tag_slots = self._tag_spread * self._slot_mask
        self._lane_masks = self._folds.pack(
            [mask(cfg.table_log2_entries[t]) for t in tables]
            + [mask(cfg.tag_widths[t]) for t in tables]
        )

    def _path_mix_tables(self) -> tuple[list[int], ...]:
        """Lookup tables of the path-history term of every index, per path byte.

        Each table folds the path history into its index width and rotates
        it by ``table % width`` so the tables see the path differently.
        That term is XOR-linear in the path bits, so it is tabulated once
        per path byte, in the fold bank's slot layout: XORing one entry per
        byte gives the term of every table at its index lane.
        """
        cfg = self.config

        def term(table: int, path: int) -> int:
            width = cfg.table_log2_entries[table]
            length = min(cfg.history_lengths[table], cfg.path_history_bits)
            folded = fold_bits(path & mask(length), length, width)
            rotation = table % width
            if rotation:
                folded = ((folded << rotation) | (folded >> (width - rotation))) & mask(width)
            return folded

        luts = []
        for low in range(0, cfg.path_history_bits, 8):
            lut = [0]
            for bit in range(low, min(low + 8, cfg.path_history_bits)):
                packed = self._folds.pack([term(t, 1 << bit) for t in range(self.num_tables)])
                lut += [entry ^ packed for entry in lut]
            luts.append(lut)
        return tuple(luts)

    def _indices_tags(self, pc: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """Index and partial tag of ``pc`` in every tagged table, right now.

        Table ``t``'s index is ``(pc_hash ^ index_fold ^ path_mix) & mask(W)``
        and its tag ``((pc >> 2) ^ tag_fold_1 ^ (tag_fold_2 << 1)) &
        mask(tag_width)``.  All of them are computed side by side in the
        fold bank's lanes and unpacked in one step.  With a bank selector
        the low index bits name the bank chosen for this branch.
        """
        value = self._folds.value
        slot_mask = self._slot_mask
        pc_bits = pc >> 2
        mix = ((value >> self._tag_fold_2_shift) << 1) & self._tag_slots
        mix ^= (pc_bits & slot_mask) * self._tag_spread
        for shift_1, shift_2, spread in self._index_spreads:
            mix ^= ((pc_bits ^ (pc >> shift_1) ^ (pc >> shift_2)) & slot_mask) * spread
        path = self.path_history.value
        for lut in self._path_luts:
            mix ^= lut[path & 0xFF]
            path >>= 8
        packed = (value ^ mix) & self._lane_masks
        selector = self.bank_selector
        if selector is not None:
            spread = self._bank_spread
            packed &= ~((selector.num_banks - 1) * spread)
            packed |= selector.select(pc) * spread
        lanes = self._folds.unpack(packed)
        tables = self.num_tables
        return tuple(lanes[:tables]), tuple(lanes[tables : 2 * tables])

    # -- Predictor interface -------------------------------------------------

    def predict(self, pc: int) -> TAGEPrediction:
        base_info = self.base.predict(pc)

        indices, tags = self._indices_tags(pc)
        useful = tuple(map(getitem, self._useful, indices))
        stored = tuple(map(getitem, self._tags, indices))

        provider_table = 0
        provider_index = 0
        provider_ctr = 0
        provider_taken = base_info.taken
        weak_provider = False
        alt_table = 0
        alt_index = 0
        alt_taken = base_info.taken

        # The provider is the hitting table with the longest history; the
        # alternate is the next hitting one below it.
        table = self.num_tables - 1
        while table >= 0 and stored[table] != tags[table]:
            table -= 1
        if table >= 0:
            provider_table = table + 1
            provider_index = indices[table]
            provider_ctr = self._ctr[table][provider_index]
            provider_taken = provider_ctr >= 0
            weak_provider = provider_ctr in (-1, 0)
            table -= 1
            while table >= 0 and stored[table] != tags[table]:
                table -= 1
            if table >= 0:
                alt_table = table + 1
                alt_index = indices[table]
                alt_taken = self._ctr[table][alt_index] >= 0

        if provider_table > 0:
            if weak_provider and self.use_alt_on_na.value >= 0:
                taken = alt_taken
            else:
                taken = provider_taken
        else:
            taken = base_info.taken

        return TAGEPrediction(
            taken=taken,
            tage_taken=taken,
            provider_table=provider_table,
            provider_index=provider_index,
            provider_ctr=provider_ctr,
            provider_taken=provider_taken,
            weak_provider=weak_provider,
            alt_table=alt_table,
            alt_index=alt_index,
            alt_taken=alt_taken,
            base_index=base_info.index,
            base_hysteresis_index=base_info.hysteresis_index,
            base_counter=base_info.counter,
            indices=indices,
            tags=tags,
            useful_snapshot=useful,
        )

    def update_history(self, pc: int, taken: bool, info: PredictionInfo) -> None:
        self._folds.update(taken)
        self.history.push(taken)
        self.path_history.push(pc)
        if self.bank_selector is not None:
            # The predicted branch becomes one of the "two previous
            # predictions" the bank-selection rule must avoid.
            self.bank_selector.advance(pc)

    def update(
        self, pc: int, taken: bool, info: PredictionInfo, reread: bool = True
    ) -> UpdateStats:
        if not isinstance(info, TAGEPrediction):
            raise TypeError("TAGE update needs the TAGEPrediction returned by predict()")
        stats = UpdateStats()
        mispredicted = info.tage_taken != taken
        provider = info.provider_table  # 0 = bimodal base

        # USE_ALT_ON_NA bookkeeping: learn whether the alternate prediction
        # beats a weak ("newly allocated") provider entry.
        if provider > 0 and info.weak_provider and info.provider_taken != info.alt_taken:
            self.use_alt_on_na.update(info.alt_taken == taken)

        if provider > 0:
            self._update_provider(info, taken, reread, stats)
        else:
            base_snapshot = BimodalPrediction(
                taken=info.base_counter >= 2,
                index=info.base_index,
                hysteresis_index=info.base_hysteresis_index,
                counter=info.base_counter,
            )
            stats.merge(self.base.update(pc, taken, base_snapshot, reread=reread))

        if mispredicted and provider < self.num_tables:
            self._allocate(info, taken, reread, stats)
        return stats

    # -- update helpers -------------------------------------------------------

    def _update_provider(
        self, info: TAGEPrediction, taken: bool, reread: bool, stats: UpdateStats
    ) -> None:
        """Update the provider entry's prediction counter and useful bit."""
        table = info.provider_table - 1
        index = info.provider_index
        counters = self._ctr[table]
        if reread:
            ctr = counters[index]
            stats.entry_reads += 1
        else:
            ctr = info.provider_ctr
        new_ctr = clamp(ctr + (1 if taken else -1), self._ctr_lo, self._ctr_hi)
        if new_ctr != counters[index]:
            counters[index] = new_ctr
            stats.entry_writes += 1
            stats.tables_written += 1

        # The useful bit is set when the provider was correct while the
        # alternate prediction was wrong (Section 3.2.2).
        if info.provider_taken != info.alt_taken and info.provider_taken == taken:
            if self._useful[table][index] != self._u_max:
                self._useful[table][index] = self._u_max
                stats.entry_writes += 1

    def _allocate(
        self, info: TAGEPrediction, taken: bool, reread: bool, stats: UpdateStats
    ) -> None:
        """Allocate up to ``max_allocations`` entries on non-consecutive tables."""
        cfg = self.config
        allocated = 0
        table = info.provider_table  # first candidate table (0-based == provider 1-based)
        while table < self.num_tables and allocated < cfg.max_allocations:
            index = info.indices[table]
            if reread:
                useful = self._useful[table][index]
                stats.entry_reads += 1
            else:
                useful = info.useful_snapshot[table]
            if useful == 0:
                self._tags[table][index] = info.tags[table]
                self._ctr[table][index] = 0 if taken else -1
                self._useful[table][index] = 0
                stats.entry_writes += 1
                stats.tables_written += 1
                stats.allocations += 1
                allocated += 1
                self.allocation_tick.decrement()
                table += 2  # non-consecutive tables (Section 3.2.1)
            else:
                self.allocation_tick.increment()
                table += 1

        if self.allocation_tick.value == self.allocation_tick.hi:
            self._reset_useful_bits()
            self.allocation_tick.set(0)

    def _reset_useful_bits(self) -> None:
        """Global reset of every useful bit (allocation-failure saturation)."""
        for useful in self._useful:
            useful[:] = _zeros(useful.typecode, len(useful))
        self.useful_resets += 1

    # -- reporting ------------------------------------------------------------

    def storage_report(self) -> StorageReport:
        cfg = self.config
        report = StorageReport(self.name)
        report.extend(self.base.storage_report(), prefix="bimodal ")
        for table in range(self.num_tables):
            entries = 1 << cfg.table_log2_entries[table]
            report.add(
                f"T{table + 1} entries (L={cfg.history_lengths[table]})",
                entries,
                cfg.entry_bits(table),
            )
        report.add("USE_ALT_ON_NA", 1, cfg.use_alt_on_na_bits)
        report.add("allocation tick counter", 1, cfg.allocation_tick_bits)
        report.add("path history", 1, cfg.path_history_bits)
        return report

    def reset(self) -> None:
        """Restore the power-on state."""
        self.base.reset()
        for column in (*self._ctr, *self._tags, *self._useful):
            column[:] = _zeros(column.typecode, len(column))
        self.history.clear()
        self.path_history.clear()
        self._folds.clear()
        self.use_alt_on_na.set(0)
        self.allocation_tick.set(0)
        self.useful_resets = 0
        if self.bank_selector is not None:
            self.bank_selector.reset()


def _zeros(typecode: str, entries: int) -> array:
    """A zero-filled ``array`` of ``entries`` elements."""
    return array(typecode, bytes(array(typecode).itemsize * entries))


def make_reference_tage() -> TAGEPredictor:
    """Build the paper's reference ~512 Kbit / 64 KByte-class TAGE predictor."""
    return TAGEPredictor(make_reference_tage_config())
