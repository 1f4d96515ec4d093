//! A single broker: local clients, per-interface routing tables and
//! per-interface covering suppression state.
//!
//! Everything an event is matched against lives in one storage, the
//! `MatchTable`: the raw bounds, row-major (`raw`, a slot's `(lo, hi)` pairs
//! side by side, the one exact store), beside the column-major
//! `cell_lo[attr][slot]` / `cell_hi[attr][slot]`, the same bounds as 16-bit
//! grid cells, plus an `ids` column. A local table adds a `clients` column and keeps its slots
//! **ordered by client**, so a client's matches are adjacent and every
//! client is emitted once. A broker's local tables are one client-ordered
//! sequence: every client of a table comes before every client of the
//! next, a client's run lies whole in one table, and a table that passes
//! `LOCAL_CAP` slots is cut at the client boundary nearest its middle. So an
//! ordered insert shifts the slots of one short table, and the broker emits
//! its clients in ascending order — the order the wire's delta encoding
//! needs — without sorting them. Routing tables are order-free and hold no
//! [`Subscription`] handles.
//!
//! A local table holds only a client's *maximal* subscriptions. A client is
//! delivered an event once however many of its subscriptions match, so a
//! subscription whose raw bounds lie inside another's of the same client can
//! change no delivery: it is kept off-table, filed under that one (its
//! witness) in the same held-back structure a link files a suppressed
//! subscription in, and goes back into the table only when its witness
//! leaves and nothing else of its client covers it. On the repo benchmark's
//! population that keeps three slots in ten out of both kernels' scans.
//!
//! Serial publish answers at two resolutions, the paper's move applied to
//! matching: the event is quantised once ([`EventCells`]), the grid filter
//! (`MatchTable::candidates`) compares its cells with 64 slots' cell columns
//! at a time — eight 16-bit lanes where a raw `f64` compare gets two — and
//! only what the grid cannot rule out is confirmed on a slot's raw row
//! (`MatchTable::confirm`): one per client run, its first candidate (the
//! leader pass of [`Broker::matching_clients`]), the next only if that fails.
//! Bounds and values go through the one monotone
//! [`Schema::quantize`], so `lo <= v <= hi` implies
//! `cell(lo) <= cell(v) <= cell(hi)`: the filter never drops a match, and
//! nothing is reported that the raw compare did not confirm. Batched publish
//! goes the other way round, the grid naming events: a chunk of up to 64
//! events is quantised the same way and tabulated by cell — per attribute,
//! for every cell the events below it and the events up to it — so a slot's
//! bound reads its events off the table at its stored cell (`KernelView`,
//! with the table's per-slot `open` flags): one entry per bound however many
//! events the chunk holds, and no raw value. [`EventChunk`] says why that is
//! exact but for a matched event in an open bound's own cell, the one case
//! that compares raw values. [`Subscription::matches`] is the oracle the
//! tests compare both with.

use std::collections::{HashMap, HashSet};
use std::ops::Range;

use acd_covering::CoveringPolicy;
use acd_subscription::schema::MAX_ATTRIBUTES;
use acd_subscription::{Event, Schema, SubId, Subscription};

use crate::link::{Held, Link};
use crate::network::{for_each_bit, Registry, Violation};
use crate::Result;

/// Identifier of a broker inside a [`crate::BrokerNetwork`] (an index into
/// the topology).
pub type BrokerId = usize;

/// Identifier of a client attached to a broker.
pub type ClientId = u64;

/// How far a grid coordinate of `schema` is shifted right to fit a 16-bit
/// cell column: a coarser cell is still monotone in the value.
fn cell_shift(schema: &Schema) -> u32 {
    schema.bits_per_attribute().saturating_sub(u16::BITS)
}

/// Grid coordinate `coordinate` as a 16-bit cell. Saturating, so the map
/// stays monotone whatever it is handed.
fn cell_of(coordinate: u64, shift: u32) -> u16 {
    u16::try_from(coordinate >> shift).unwrap_or(u16::MAX)
}

/// One event prepared for matching: its raw values next to their 16-bit
/// grid cells, built once per publish and read at every broker the serial
/// walk visits. An [`EventChunk`] is built from up to 64 of them, so both
/// kernels take an event as valid on the same terms.
#[derive(Debug)]
pub struct EventCells<'a> {
    /// The event's values, one per schema attribute: what `confirm`
    /// compares with the raw bounds.
    values: &'a [f64],
    /// `cells[attr]`: the grid cell of `values[attr]`.
    cells: [u16; MAX_ATTRIBUTES],
}

impl<'a> EventCells<'a> {
    /// Quantises `event` under `schema` (the schema the match tables were
    /// filled under). `None` for an event of a foreign schema, which can
    /// match nothing. [`Event::new`] is the only way to build an event, so
    /// one of `schema` has one in-domain value per attribute.
    pub fn new(schema: &Schema, event: &'a Event) -> Option<EventCells<'a>> {
        if event.schema() != schema {
            return None;
        }
        let values = event.values();
        let shift = cell_shift(schema);
        let mut cells = [0u16; MAX_ATTRIBUTES];
        for (attr, (cell, &value)) in cells.iter_mut().zip(values).enumerate() {
            *cell = cell_of(schema.quantize(attr, value).ok()?, shift);
        }
        Some(EventCells { values, cells })
    }

    /// The event's cells, one per schema attribute.
    fn cells(&self) -> &[u16] {
        self.cells.get(..self.values.len()).unwrap_or(&self.cells)
    }
}

/// Column-major storage of the subscriptions one interface matches events
/// against. Every column is indexed by slot and all columns have the same
/// length (the cell columns run on to the end of their last block); only
/// the methods below touch them, so they stay aligned.
#[derive(Debug)]
pub(crate) struct MatchTable {
    /// `raw[slot * arity + attr]`: the inclusive raw `(lo, hi)` bounds,
    /// row-major, one row of `arity` pairs per slot. **The truth**: the one
    /// exact store, read a row at a time by [`confirm`](Self::confirm),
    /// `cover_in_run` and the batched kernel's cold path, each of which asks
    /// about one slot across its attributes.
    raw: Vec<(f64, f64)>,
    /// `cell_lo[attr][slot]`: the grid cell of the slot's raw lower bound
    /// (`Subscription::grid_cells`, as [`cell_of`] narrows it). With
    /// `cell_hi`, **the filter** [`candidates`](Self::candidates) reads, and
    /// the keys the batched kernel looks a chunk's masks up by. The filter
    /// cannot miss: bounds and event values go through the same monotone
    /// `Schema::quantize` and `cell_of`, so `lo <= v <= hi` implies
    /// `cell_lo <= cell(v) <= cell_hi`. Unlike every other column, the cell
    /// columns are kept a whole number of blocks long, so the filter only
    /// ever reads fixed 64-lane arrays: the slots past `len()` hold
    /// `(PAD_LO, PAD_HI)`, bounds no cell lies inside.
    cell_lo: Vec<Vec<u16>>,
    /// `cell_hi[attr][slot]`: the grid cell of the raw upper bound.
    cell_hi: Vec<Vec<u16>>,
    /// `open[slot]`: which of the slot's bounds are *open* — bit `2 * attr`
    /// set where its raw lower bound on `attr` lies above its domain's
    /// minimum, the bit above it where its upper bound lies below the
    /// maximum. A valid value can fall on the far side of an open bound
    /// inside the bound's own cell, and of no other bound, so these flags
    /// are all the batched kernel needs to know of the raw bounds until an
    /// event shares such a cell. One word per slot, as long as `ids`.
    open: Vec<u64>,
    /// The `cell_of` shift of the schema the table is filled under.
    shift: u32,
    /// Subscription identifier of each slot.
    ids: Vec<SubId>,
    /// Local table only (empty in routing tables): the owning client of
    /// each slot, ascending.
    clients: Vec<ClientId>,
    /// Local table only: one bit per slot (bit `slot % 64` of word
    /// `slot / 64`), set where the slot is the last of its client's run, so
    /// the serial kernel finds every run's first candidate in a block at
    /// once. Kept by a bit insert / remove at the slot plus one neighbour
    /// bit, never rebuilt.
    run_ends: Vec<u64>,
}

impl MatchTable {
    /// Slots per [`candidates`](Self::candidates) call: one mask bit each.
    const BLOCK: usize = 64;
    /// What the cell columns hold past the last slot: `PAD_LO <= c` and
    /// `c <= PAD_HI` cannot both hold.
    const PAD_LO: u16 = u16::MAX;
    const PAD_HI: u16 = 0;

    pub(crate) fn new(schema: &Schema) -> MatchTable {
        let arity = schema.arity();
        MatchTable {
            raw: Vec::new(),
            cell_lo: vec![Vec::new(); arity],
            cell_hi: vec![Vec::new(); arity],
            open: Vec::new(),
            shift: cell_shift(schema),
            ids: Vec::new(),
            clients: Vec::new(),
            run_ends: Vec::new(),
        }
    }

    fn len(&self) -> usize {
        self.ids.len()
    }

    /// Attributes per slot: the cell columns, one each.
    fn arity(&self) -> usize {
        self.cell_lo.len()
    }

    /// The raw bounds of `slot`, one pair per attribute (`None` for a slot
    /// that does not exist).
    #[inline]
    fn row(&self, slot: usize) -> Option<&[(f64, f64)]> {
        self.raw.get(slot * self.arity()..)?.get(..self.arity())
    }

    /// Writes `subscription`'s bounds, cells, open flags and identifier at
    /// `slot`, shifting the later slots up.
    fn insert_bounds(&mut self, slot: usize, subscription: &Subscription) {
        debug_assert_eq!(subscription.raw_bounds().len(), self.arity());
        let (at, raw) = (slot * self.arity(), subscription.raw_bounds());
        self.raw.splice(at..at, raw.iter().copied());
        let columns = self.cell_lo.iter_mut().zip(&mut self.cell_hi);
        for ((lo, hi), (low, high)) in columns.zip(subscription.grid_cells()) {
            lo.insert(slot, cell_of(low, self.shift));
            hi.insert(slot, cell_of(high, self.shift));
        }
        let domains = raw.iter().zip(subscription.schema().attributes());
        let flags = domains.enumerate().map(|(attr, (&(low, high), domain))| {
            (u64::from(low > domain.min()) | u64::from(high < domain.max()) << 1) << (2 * attr)
        });
        let open = flags.fold(0, |open, flag| open | flag);
        self.open.insert(slot, open);
        self.pad_cells(self.len() + 1);
        self.ids.insert(slot, subscription.id());
    }

    /// Brings the cell columns, whose first `live` elements are slots, back
    /// to whole blocks: padding goes or comes at their end.
    fn pad_cells(&mut self, live: usize) {
        let padded = live.next_multiple_of(Self::BLOCK);
        for lo in &mut self.cell_lo {
            lo.resize(padded, Self::PAD_LO);
        }
        for hi in &mut self.cell_hi {
            hi.resize(padded, Self::PAD_HI);
        }
    }

    /// Local table: inserts after the last slot of `client`, keeping the
    /// slots ordered by client.
    fn insert_local(&mut self, client: ClientId, subscription: &Subscription) {
        let slot = self.clients.partition_point(|&c| c <= client);
        self.insert_bounds(slot, subscription);
        // The new slot ends its client's run; the slot before it, if it is
        // the same client's, no longer does.
        insert_bit(&mut self.run_ends, self.clients.len(), slot, true);
        if slot > 0 && self.clients.get(slot - 1) == Some(&client) {
            set_bit(&mut self.run_ends, slot - 1, false);
        }
        self.clients.insert(slot, client);
        debug_assert_eq!(self.run_ends, run_ends_of(&self.clients));
    }

    /// Local table: the slots of `client`'s run (empty where it would go
    /// when the table holds none of its subscriptions).
    fn run_of(&self, client: ClientId) -> Range<usize> {
        self.clients.partition_point(|&c| c < client)
            ..self.clients.partition_point(|&c| c <= client)
    }

    /// Local table: removes `client`'s slot holding `id`, preserving client
    /// order (`None` when there is none). Only that client's run is searched.
    fn remove_local(&mut self, client: ClientId, id: SubId) -> Option<()> {
        let run = self.run_of(client);
        let slot = run.start + self.ids.get(run)?.iter().position(|&i| i == id)?;
        self.remove_slot(client, slot);
        Some(())
    }

    /// Local table: the id of the first slot of `client`'s run whose raw
    /// bounds contain `bounds` (`contains`), and whether a slot before it
    /// (any slot, when none does) lies inside them.
    fn cover_in_run(&self, client: ClientId, bounds: &[(f64, f64)]) -> (Option<SubId>, bool) {
        let mut covered = false;
        for slot in self.run_of(client) {
            let (Some(&id), Some(row)) = (self.ids.get(slot), self.row(slot)) else {
                break;
            };
            if contains(row, bounds) {
                return (Some(id), covered);
            }
            covered |= contains(bounds, row);
        }
        (None, covered)
    }

    /// Local table: removes every slot of `client`'s run whose raw bounds
    /// lie inside `cover`'s, returning them in slot order, each rebuilt from
    /// its row under `cover`'s schema (demotions are rare).
    fn remove_covered(&mut self, client: ClientId, cover: &Subscription) -> Vec<Subscription> {
        let mut removed = Vec::new();
        for slot in self.run_of(client).rev() {
            let (Some(&id), Some(row)) = (self.ids.get(slot), self.row(slot)) else {
                continue;
            };
            if contains(cover.raw_bounds(), row) {
                let rebuilt = Subscription::from_raw_bounds(cover.schema(), id, row);
                removed.push(rebuilt.expect("a slot's row was validated when it was stored"));
                self.remove_slot(client, slot);
            }
        }
        removed.reverse(); // slot order
        removed
    }

    /// Local table: removes slot `slot`, which is `client`'s, preserving
    /// client order.
    fn remove_slot(&mut self, client: ClientId, slot: usize) {
        let at = slot * self.arity();
        self.raw.drain(at..at + self.arity());
        for column in self.cell_lo.iter_mut().chain(&mut self.cell_hi) {
            column.remove(slot);
        }
        self.open.remove(slot);
        self.pad_cells(self.len() - 1);
        self.ids.remove(slot);
        let ended_run = remove_bit(&mut self.run_ends, self.clients.len(), slot);
        self.clients.remove(slot);
        // If the slot ended a longer run, the slot before it ends it now.
        if ended_run && slot > 0 && self.clients.get(slot - 1) == Some(&client) {
            set_bit(&mut self.run_ends, slot - 1, true);
        }
        debug_assert_eq!(self.run_ends, run_ends_of(&self.clients));
    }

    /// Local table: the client boundary nearest the middle slot, where the
    /// table splits (`None` when every slot is one client's).
    fn split_point(&self) -> Option<usize> {
        let middle = self.len() / 2;
        let run = self.run_of(*self.clients.get(middle)?);
        let nearer = if middle - run.start <= run.end - middle {
            [run.start, run.end]
        } else {
            [run.end, run.start]
        };
        nearer.into_iter().find(|&at| 0 < at && at < self.len())
    }

    /// Local table: moves the slots from `at`, a client boundary, on into a
    /// new table. Both halves are cut to size: a split `Vec` keeps all of
    /// its capacity, which would leave the lower half holding the whole
    /// table's room.
    fn split_off(&mut self, at: usize) -> MatchTable {
        fn split<T>(columns: &mut [Vec<T>], at: usize) -> Vec<Vec<T>> {
            columns
                .iter_mut()
                .map(|column| column.split_off(at))
                .collect()
        }
        let mut upper = MatchTable {
            raw: self.raw.split_off(at * self.arity()),
            cell_lo: split(&mut self.cell_lo, at),
            cell_hi: split(&mut self.cell_hi, at),
            open: self.open.split_off(at),
            shift: self.shift,
            ids: self.ids.split_off(at),
            clients: self.clients.split_off(at),
            run_ends: Vec::new(),
        };
        for table in [&mut *self, &mut upper] {
            table.pad_cells(table.len());
            table.run_ends = run_ends_of(&table.clients);
            table.shrink_to_fit();
        }
        upper
    }

    /// Local table: takes over the slots of `next`, whose clients all come
    /// after this table's.
    fn append(&mut self, mut next: MatchTable) {
        let (len, live) = (self.len(), next.len());
        self.raw.append(&mut next.raw);
        let columns = self.cell_lo.iter_mut().zip(&next.cell_lo);
        for (column, tail) in columns.chain(self.cell_hi.iter_mut().zip(&next.cell_hi)) {
            column.truncate(len);
            column.extend(tail.iter().take(live));
        }
        self.open.append(&mut next.open);
        self.pad_cells(len + live);
        self.ids.append(&mut next.ids);
        self.clients.append(&mut next.clients);
        self.run_ends = run_ends_of(&self.clients);
    }

    fn shrink_to_fit(&mut self) {
        self.raw.shrink_to_fit();
        for column in self.cell_lo.iter_mut().chain(&mut self.cell_hi) {
            column.shrink_to_fit();
        }
        self.open.shrink_to_fit();
        self.ids.shrink_to_fit();
        self.clients.shrink_to_fit();
        self.run_ends.shrink_to_fit();
    }

    /// Routing table: removes the slot holding `id` by moving the last slot
    /// into it, returning whether it was present.
    fn swap_remove_routing(&mut self, id: SubId) -> bool {
        // Newest first: the churning entries are the latest appended, and a
        // swap-remove keeps them at the tail.
        let Some(slot) = self.ids.iter().rposition(|&i| i == id) else {
            return false;
        };
        let last = self.len() - 1;
        let arity = self.arity();
        self.raw.copy_within(last * arity.., slot * arity);
        self.raw.truncate(last * arity);
        self.open.swap_remove(slot);
        // The last *slot* moves in, not the padding behind it: its place is
        // taken by the padding element `remove` shifts down.
        for column in self.cell_lo.iter_mut().chain(&mut self.cell_hi) {
            column.swap(slot, last);
            column.remove(last);
        }
        self.pad_cells(last);
        self.ids.swap_remove(slot);
        true
    }

    /// The grid filter, one event x 64 slots: bit `i` of the result is set
    /// when slot `64 * block + i` exists and the event's cell lies inside
    /// the slot's cell bounds on every attribute — a *necessary* condition
    /// for the raw bounds to hold it (see `cell_lo`), so the result is a
    /// superset of the block's matches and [`confirm`](Self::confirm) decides. Branch-free over fixed 64-lane
    /// arrays, which is what lets the compiler compare eight slots an
    /// instruction: per slot, the saturating distances from the event's cell
    /// down to `cell_lo` and up to `cell_hi` are OR-ed over the attributes,
    /// and a slot is a candidate where they all are zero.
    fn candidates(&self, event: &EventCells<'_>, block: usize) -> u64 {
        let start = block * Self::BLOCK;
        if start >= self.len() {
            return 0;
        }
        let mut outside = [0u16; Self::BLOCK];
        let columns = self.cell_lo.iter().zip(&self.cell_hi);
        for ((lo, hi), &cell) in columns.zip(event.cells()) {
            let (Some(lo), Some(hi)) = (block_of(lo, start), block_of(hi, start)) else {
                return 0; // the cell columns are padded to whole blocks
            };
            for ((distance, &low), &high) in outside.iter_mut().zip(lo).zip(hi) {
                *distance |= low.saturating_sub(cell) | cell.saturating_sub(high);
            }
        }
        let mut flags = [0u8; Self::BLOCK];
        for (flag, &distance) in flags.iter_mut().zip(&outside) {
            *flag = u8::from(distance == 0);
        }
        let mut mask = 0u64;
        for (byte, eight) in flags.as_chunks::<8>().0.iter().enumerate() {
            // Each flag is 0 or 1; the multiply gathers bit 0 of every byte
            // into the top byte (the partial products never collide).
            let word = u64::from_le_bytes(*eight);
            mask |= (word.wrapping_mul(0x0102_0408_1020_4080) >> 56) << (8 * byte);
        }
        // The padding of a last block fails every compare.
        mask
    }

    /// The truth: whether the event's raw values lie inside `slot`'s raw
    /// bounds on every attribute (`false` for a slot that does not exist) —
    /// `Subscription::matches`' own compare, on the columns. Nothing is
    /// delivered or forwarded without it.
    #[inline]
    fn confirm(&self, event: &EventCells<'_>, slot: usize) -> bool {
        self.row(slot).is_some_and(|row| {
            let mut pairs = row.iter().zip(event.values);
            pairs.all(|(&(lo, hi), &v)| lo <= v && v <= hi)
        })
    }

    /// Whether a slot from block `first` on holds `event` (grid, then raw); inlined into both walks.
    #[inline(always)]
    fn holds(&self, event: &EventCells<'_>, first: usize) -> bool {
        (first..self.len().div_ceil(Self::BLOCK)).any(|block| {
            let mut mask = self.candidates(event, block);
            while mask != 0 {
                if self.confirm(event, block * Self::BLOCK + mask.trailing_zeros() as usize) {
                    return true;
                }
                mask &= mask - 1;
            }
            false
        })
    }
}

/// Whether the raw bounds `outer` contain `inner` on every attribute:
/// [`Subscription::covers`] on two rows, which must be of one length (a
/// missing row, read as empty, contains nothing).
fn contains(outer: &[(f64, f64)], inner: &[(f64, f64)]) -> bool {
    let mut pairs = outer.iter().zip(inner);
    outer.len() == inner.len() && pairs.all(|(&(lo, hi), &(low, high))| lo <= low && high <= hi)
}

/// The block of a cell column that starts at slot `start`.
#[inline]
fn block_of(column: &[u16], start: usize) -> Option<&[u16; MatchTable::BLOCK]> {
    column.get(start..)?.first_chunk()
}

/// The slots from bit `bit` to the end of its run: `ends` has a bit set on
/// the last slot of every run, and a run with no end in this block takes the
/// rest of the block.
#[inline]
fn run_from(ends: u64, bit: u32) -> u64 {
    let after = ends & (u64::MAX << bit);
    (after ^ after.wrapping_sub(1)) & (u64::MAX << bit)
}

/// The first candidate of every run of a block, all at once: `ends` marks
/// the last slot of each run, so `ends << 1 | 1` marks the first, and
/// subtracting those from `cand | ends` borrows, within each run, from its
/// lowest set bit, which is its first candidate or else its end (Warren's
/// rightmost-bit identities, per run).
#[inline]
fn leaders(cand: u64, ends: u64) -> u64 {
    let z = cand | ends;
    z & !z.wrapping_sub(ends << 1 | 1) & cand
}

/// A local table's `run_ends`, from scratch: what the incremental updates
/// are checked against.
fn run_ends_of(clients: &[ClientId]) -> Vec<u64> {
    let mut words = vec![0u64; clients.len().div_ceil(MatchTable::BLOCK)];
    for slot in 0..clients.len() {
        set_bit(&mut words, slot, clients.get(slot) != clients.get(slot + 1));
    }
    words
}

/// Sets bit `at` of the bit vector `words` to `bit`.
fn set_bit(words: &mut [u64], at: usize, bit: bool) {
    if let Some(word) = words.get_mut(at / MatchTable::BLOCK) {
        let offset = at % MatchTable::BLOCK;
        *word = (*word & !(1 << offset)) | (u64::from(bit) << offset);
    }
}

/// Inserts `bit` at position `at <= len` of the `len`-bit vector `words`,
/// moving the later bits up by one.
fn insert_bit(words: &mut Vec<u64>, len: usize, at: usize, bit: bool) {
    if len.is_multiple_of(MatchTable::BLOCK) {
        words.push(0);
    }
    let offset = at % MatchTable::BLOCK;
    let mut words = words.iter_mut().skip(at / MatchTable::BLOCK);
    let Some(word) = words.next() else {
        return;
    };
    let below = (1u64 << offset) - 1;
    let mut carry = *word >> 63;
    *word = (*word & below) | ((*word & !below) << 1) | (u64::from(bit) << offset);
    for word in words {
        let out = *word >> 63;
        *word = (*word << 1) | carry;
        carry = out;
    }
}

/// Removes the bit at position `at < len` of the `len`-bit vector `words`,
/// moving the later bits down by one, and returns it.
fn remove_bit(words: &mut Vec<u64>, len: usize, at: usize) -> bool {
    let (first, offset) = (at / MatchTable::BLOCK, at % MatchTable::BLOCK);
    let mut removed = false;
    let mut carry = 0u64;
    for (index, word) in words.iter_mut().enumerate().skip(first).rev() {
        let out = *word & 1;
        if index == first {
            let below = (1u64 << offset) - 1;
            removed = *word >> offset & 1 == 1;
            *word = (*word & below) | ((*word >> 1) & !below) | (carry << 63);
        } else {
            *word = (*word >> 1) | (carry << 63);
        }
        carry = out;
    }
    if len % MatchTable::BLOCK == 1 {
        words.pop();
    }
    removed
}

/// The most slots a local table holds, unless they are all one client's.
/// A cap because an ordered insert or removal shifts every later slot of
/// its table's columns: with one table of a broker's ~1 500 slots the repo
/// benchmark's set-up (10 000 subscribes, or a 10 000-record recovery) ran
/// 9–27 % slower than appending, against a 25 % bound. Not much lower,
/// because every table adds a partly filled last block to each walk. In
/// process, on that benchmark's population (10 512 StockTicker
/// subscriptions on 7 brokers over 64 clients; medians, one pinned CPU of
/// a two-vCPU sandbox):
///
/// | cap | set-up | churn pair | serial publish |
/// |---|---|---|---|
/// | 256 | 37–43 ms | 6.6 µs | 12.3 µs |
/// | **512** | 37–42 ms | 7.1 µs | 12.0 µs |
/// | 1 024 | 43–45 ms | 8.1 µs | 11.9 µs |
/// | four hashed tables, sorted output | 39–43 ms | 7.5 µs | 17.2 µs |
///
/// Those runs held every subscription in a table. Covered subscriptions are
/// now held back off-table, so the cap counts a client's *maximal*
/// subscriptions only (~70 % of that population).
const LOCAL_CAP: usize = 512;

/// One broker of the overlay.
///
/// A broker keeps two kinds of state:
///
/// * `local` + `held`: the subscriptions registered by clients attached to
///   it (with the owning client, so deliveries can be attributed): in one
///   client-ordered sequence of capped match tables those no other
///   subscription of the same client covers, and off-table the rest, each
///   filed under an in-table one of its client that covers it. Under a
///   covering policy only the in-table ones go out on the links: the rest
///   are covered there by their witness;
/// * `links`: one `Link` record per neighbor (`link.rs`) — `routing`, the
///   bounds of the subscriptions received from it, used to decide where an
///   event must be forwarded; `sent`, the covering index of the
///   subscriptions already forwarded to it (a new subscription is only
///   forwarded if no already-sent one covers it: sender-side suppression); `held`, the ones held back, each filed under the sent
///   subscription that covers it (its witness), so that retracting a witness
///   re-advertises exactly what it masked.
///
/// An overlay walk changes a broker under its write lock alone, one broker
/// lock per walk step (see [`crate::network`]).
#[derive(Debug)]
pub struct Broker {
    id: BrokerId,
    /// Subscriptions registered by local clients, ordered by client across
    /// the whole sequence: every client of `local[i]` comes before every
    /// client of `local[i + 1]`, so a client's slots are one run of one
    /// table and reading the tables in turn meets the clients ascending. A
    /// table passing [`LOCAL_CAP`] slots splits at the client boundary
    /// nearest its middle (one client's run alone may exceed the cap, and
    /// keeps its table); two neighbours holding fewer than half the cap
    /// between them fold into one; an emptied table goes. Never empty, and
    /// a table is empty only when it is the only one.
    ///
    /// Invariant: no slot is raw-covered (`contains`) by
    /// another slot of the same client, and every subscription in `held` is
    /// filed under an in-table slot of the same client that raw-covers it.
    /// Every event a held subscription matches its witness matches, so the
    /// clients the tables' matches name — what `matching_clients` emits —
    /// are exactly the clients with at least one live matching
    /// subscription, while the kernels scan only the maximal ones.
    local: Vec<MatchTable>,
    /// The local subscriptions kept off-table, each under its witness
    /// (crate-visible only so that the audit's tests can misfile one).
    pub(crate) held: Held,
    /// Per-neighbor state, created at construction for every neighbor.
    links: HashMap<BrokerId, Link>,
}

impl Broker {
    /// Creates a broker with a link record for each of its neighbors.
    ///
    /// # Errors
    ///
    /// Returns an error if the covering policy cannot build its index.
    pub fn new(
        id: BrokerId,
        neighbors: &[BrokerId],
        schema: &Schema,
        policy: CoveringPolicy,
    ) -> Result<Self> {
        let links = neighbors
            .iter()
            .map(|&n| Ok((n, Link::new(schema, policy)?)));
        let links = links.collect::<Result<HashMap<_, _>>>()?;
        Ok(Broker {
            id,
            local: vec![MatchTable::new(schema)],
            held: Held::default(),
            links,
        })
    }

    /// This broker's identifier.
    pub fn id(&self) -> BrokerId {
        self.id
    }

    /// The record of the link to `neighbor`, which the overlay only ever
    /// names from the topology's adjacency lists.
    pub(crate) fn link_mut(&mut self, neighbor: BrokerId) -> &mut Link {
        self.links
            .get_mut(&neighbor)
            .expect("neighbor links are created at construction")
    }

    /// Registers a subscription from a local client. The subscription must
    /// follow the schema the broker was created with. When a slot of the
    /// client's run raw-covers it (equal bounds included) it is held behind
    /// that slot and no table changes; otherwise every slot of the run it
    /// raw-covers is demoted — filed under it with everything that slot was
    /// holding back — and it takes a slot of its own. Returns the demoted
    /// slots, or `None` when it was held.
    pub fn add_local(
        &mut self,
        client: ClientId,
        subscription: Subscription,
    ) -> Option<Vec<Subscription>> {
        let at = self.local_table(client);
        let table = self
            .local
            .get_mut(at)
            .expect("a broker keeps at least one local table");
        let (witness, covers) = table.cover_in_run(client, subscription.raw_bounds());
        if let Some(witness) = witness {
            self.held.hold(witness, subscription);
            return None;
        }
        let demoted = covers.then(|| table.remove_covered(client, &subscription));
        let demoted = demoted.unwrap_or_default();
        for slot in &demoted {
            let list = self.held.take(slot.id());
            self.held.hold(subscription.id(), slot.clone());
            for held in list {
                self.held.hold(subscription.id(), held);
            }
        }
        table.insert_local(client, &subscription);
        if covers {
            // At least one slot was demoted: the table did not grow.
            self.fold(at);
        } else if table.len() > LOCAL_CAP {
            if let Some(cut) = table.split_point() {
                let upper = table.split_off(cut);
                self.local.insert(at + 1, upper);
            }
        }
        Some(demoted)
    }

    /// The local table that holds `client`'s run, or takes it: the first
    /// whose last client is not below `client`, else the last table.
    fn local_table(&self, client: ClientId) -> usize {
        let before = |table: &MatchTable| table.clients.last().is_some_and(|&last| last < client);
        let at = self.local.partition_point(before);
        at.min(self.local.len().saturating_sub(1))
    }

    /// Records a subscription received from a neighbor (a routing-table
    /// entry: its bounds and identifier, no handle).
    pub(crate) fn add_received(&mut self, from: BrokerId, subscription: &Subscription) {
        let table = &mut self.link_mut(from).routing;
        // Routing slots carry no order: append.
        table.insert_bounds(table.len(), subscription);
    }

    /// Number of local subscriptions: table slots plus the ones held back
    /// off-table.
    pub fn local_subscriptions(&self) -> usize {
        self.local.iter().map(MatchTable::len).sum::<usize>() + self.held.len()
    }

    /// The slots of each local match table, in client order (diagnostics:
    /// a subscription held back behind another of its client's takes none).
    pub fn local_table_slots(&self) -> Vec<usize> {
        self.local.iter().map(MatchTable::len).collect()
    }

    /// Total routing-table entries (received subscriptions over all
    /// interfaces).
    pub fn routing_table_entries(&self) -> usize {
        self.links.values().map(|link| link.routing.len()).sum()
    }

    /// Removes the local subscription `id` of `client`, if it was registered
    /// here for that client. Binary searches find the client's table and
    /// run; only the run is scanned. A held-back
    /// subscription just leaves its witness's list. An in-table one leaves
    /// its table, and what it was holding back is added again, in arrival
    /// order, as [`add_local`](Self::add_local) adds it: each ends behind
    /// another witness or back in the table, and the latter are returned.
    pub fn remove_local(&mut self, client: ClientId, id: SubId) -> Option<Vec<Subscription>> {
        let at = self.local_table(client);
        if let Some(witness) = self.held.witness(id) {
            let table = self.local.get(at)?;
            // Its witness is one of its client's slots.
            if !table.ids.get(table.run_of(client))?.contains(&witness) {
                return None;
            }
            return self.held.release(id).map(|_| Vec::new());
        }
        self.local.get_mut(at)?.remove_local(client, id)?;
        self.fold(at);
        let mut promoted = self.held.take(id);
        for orphan in &promoted {
            self.add_local(client, orphan.clone());
        }
        // An orphan that a later one covers ends behind it, off-table.
        promoted.retain(|orphan| self.held.witness(orphan.id()).is_none());
        Some(promoted)
    }

    /// After a removal or demotion from local table `at`: drops it if it
    /// emptied, or folds it into a neighbour when the two hold fewer than
    /// half the cap between them — unless it is the only table.
    fn fold(&mut self, at: usize) {
        let len = |i: usize| self.local.get(i).map(MatchTable::len);
        let lower = match (len(at), at.checked_sub(1).and_then(len), len(at + 1)) {
            _ if self.local.len() == 1 => return,
            (Some(0), ..) => {
                self.local.remove(at);
                return;
            }
            (Some(here), Some(before), _) if before + here < LOCAL_CAP / 2 => at - 1,
            (Some(here), _, Some(after)) if here + after < LOCAL_CAP / 2 => at,
            _ => return,
        };
        let upper = self.local.remove(lower + 1);
        if let Some(table) = self.local.get_mut(lower) {
            table.append(upper);
        }
    }

    /// Removes a routing-table entry received from `neighbor`, returning
    /// whether it was present.
    pub(crate) fn remove_received(&mut self, from: BrokerId, id: SubId) -> bool {
        self.links
            .get_mut(&from)
            .is_some_and(|link| link.routing.swap_remove_routing(id))
    }

    /// Total held-back entries across every link (diagnostics: one per
    /// live subscription a link is suppressing, not one per historical
    /// suppression — see the `Link` invariant).
    pub fn suppressed_entries(&self) -> usize {
        self.links.values().map(|link| link.held.len()).sum()
    }

    /// This broker's share of [`crate::BrokerNetwork::audit`], against the
    /// registry's copy (live id → client): every link's ([`Link::audit`], and
    /// its live sent ids and routing entries, into `sent` and `routed` as
    /// `(sender, receiver, id)`), then `Broker::local`'s invariant and each
    /// slot registered for its client, then that a live local subscription
    /// is on every link (sent or held back there) exactly when it holds a
    /// slot or the policy does not detect covering (`covering`). Returns the
    /// local ids.
    pub(crate) fn audit(
        &self,
        registered: &Registry,
        covering: bool,
        found: &mut Vec<Violation>,
        sent: &mut HashSet<(BrokerId, BrokerId, SubId)>,
        routed: &mut HashSet<(BrokerId, BrokerId, SubId)>,
    ) -> Vec<SubId> {
        let broker = self.id;
        for (&neighbor, link) in &self.links {
            link.audit(broker, neighbor, registered, found);
            let records = link.sent.ids().map(|id| (id, true));
            for (id, out) in records.chain(link.routing.ids.iter().map(|&id| (id, false))) {
                if !registered.contains_key(&id) {
                    found.push(Violation::DeadId(broker, neighbor, id));
                } else if out {
                    sent.insert((broker, neighbor, id));
                } else if !routed.insert((neighbor, broker, id)) {
                    found.push(Violation::OneSidedRoute(neighbor, broker, id));
                }
            }
        }
        let mut slots = HashMap::new();
        for table in &self.local {
            for (slot, (&id, &client)) in table.ids.iter().zip(&table.clients).enumerate() {
                slots.insert(id, (client, table.row(slot).unwrap_or_default()));
                if registered.get(&id) != Some(&client) {
                    found.push(Violation::Misplaced(Some(broker), id));
                }
            }
        }
        let odd = self.held.disagreements().into_iter();
        found.extend(odd.map(|id| Violation::Unmirrored(broker, None, id)));
        for (witness, held) in self.held.entries() {
            let id = held.id();
            found.push(match (registered.get(&id), slots.get(&witness)) {
                (None, _) => Violation::Misplaced(Some(broker), id),
                (Some(client), Some(&(owner, row))) if *client == owner => {
                    if contains(row, held.raw_bounds()) {
                        continue;
                    }
                    Violation::UncoveringWitness(broker, None, witness, id)
                }
                _ => Violation::ForeignWitness(broker, witness, id),
            });
        }
        let mut local: Vec<SubId> = self.local.iter().flat_map(|t| &t.ids).copied().collect();
        let slotted = local.len();
        local.extend(self.held.entries().map(|(_, held)| held.id()));
        for (&neighbor, link) in &self.links {
            for (at, &id) in local.iter().enumerate() {
                let on = link.sent.contains(id) || link.held.witness(id).is_some();
                if on != (at < slotted || !covering) && registered.contains_key(&id) {
                    found.push(Violation::Misadvertised(broker, neighbor, id));
                }
            }
        }
        local
    }

    /// Calls `deliver(client)` once for every local client with at least
    /// one subscription matching `event`, in ascending client order (the
    /// tables are read in their order) — the serial emit path. Only the
    /// tables are read: a held-back subscription matches nothing its
    /// in-table witness does not (see `Broker::local`). `event` was
    /// quantised under the network's schema, which checked the event's own
    /// (once per publish, not once per subscription). Slots are ordered by
    /// client, so a client's slots are one run: per block, every run's first
    /// candidate (its leader) is found at once, and only the leaders go to
    /// the raw bounds (`MatchTable::confirm`). A leader that fails hands on
    /// to its run's next candidate, and the first that holds delivers. A run
    /// carried over a block seam leaves the next block's candidates when its
    /// client was delivered before the seam. Allocation-free.
    pub fn matching_clients<F: FnMut(ClientId)>(&self, event: &EventCells<'_>, mut deliver: F) {
        for table in &self.local {
            let mut last = None;
            let blocks = table.clients.chunks(MatchTable::BLOCK).zip(&table.run_ends);
            for (block, (clients, &ends)) in blocks.enumerate() {
                let mut cand = table.candidates(event, block);
                if clients.first().copied() == last {
                    cand &= !run_from(ends, 0);
                }
                let (mut runs, start) = (leaders(cand, ends), block * MatchTable::BLOCK);
                while runs != 0 {
                    // The leader, else its run's next candidate the raw bounds
                    // confirm; none left reads bit 64, past every client.
                    let mut tries = cand & run_from(ends, runs.trailing_zeros());
                    runs &= runs - 1;
                    while tries != 0
                        && !table.confirm(event, start + tries.trailing_zeros() as usize)
                    {
                        tries &= tries - 1;
                    }
                    if let Some(&client) = clients.get(tries.trailing_zeros() as usize) {
                        last = Some(client);
                        deliver(client);
                    }
                }
            }
        }
    }

    /// Batched form of [`matching_clients`](Self::matching_clients): calls
    /// `deliver(client, mask)` once for every local client with at least
    /// one subscription matching at least one of the chunk events selected
    /// by the `active` bitmask; bit `i` of `mask` says whether chunk event
    /// `i` is delivered to the client. A client's slots are one run of its
    /// one table, so its slots' masks are OR-ed over the run — each slot
    /// asked only about the events the run has not claimed yet — and the
    /// clients are emitted once each, ascending. As for the serial path,
    /// held-back subscriptions are not read. Allocation-free.
    pub fn matching_clients_mask<F: FnMut(ClientId, u64)>(
        &self,
        chunk: &EventChunk<'_>,
        active: u64,
        mut deliver: F,
    ) {
        for table in &self.local {
            let view = chunk.view(table);
            let mut start = 0;
            for run in table.clients.chunk_by(|a, b| a == b) {
                let &[client, ..] = run else {
                    continue; // chunk_by yields no empty run
                };
                let mut claimed = 0u64;
                for slot in start..start + run.len() {
                    claimed |= view.mask(slot, active & !claimed);
                }
                start += run.len();
                if claimed != 0 {
                    deliver(client, claimed);
                }
            }
        }
    }

    /// Batched form of [`neighbor_interested`](Self::neighbor_interested):
    /// the bitmask of `active` chunk events that match at least one
    /// subscription received from `neighbor`. Slot-outer, an event leaving
    /// the remaining set once a slot claims it, until a block seam finds at
    /// most `ROUTE_TAIL` left: each then takes the serial filter over the
    /// rest of the table. Allocation-free.
    pub fn neighbor_interested_mask(
        &self,
        neighbor: BrokerId,
        chunk: &EventChunk<'_>,
        active: u64,
    ) -> u64 {
        let Some(table) = self.links.get(&neighbor).map(|link| &link.routing) else {
            return 0;
        };
        let view = chunk.view(table);
        let mut interested = 0u64;
        for slot in 0..table.len() {
            let remaining = active & !interested;
            let seam = slot % MatchTable::BLOCK == 0;
            if remaining == 0 || seam && remaining.count_ones() <= ROUTE_TAIL {
                for_each_bit(remaining, |i| {
                    let event = chunk.events.get(i).and_then(Option::as_ref);
                    let block = slot / MatchTable::BLOCK;
                    interested |= u64::from(event.is_some_and(|e| table.holds(e, block))) << i;
                });
                return interested;
            }
            interested |= view.mask(slot, remaining);
        }
        interested
    }

    /// Whether any subscription received from `neighbor` matches `event`
    /// (i.e. the event must be forwarded toward that neighbor): true at the
    /// first candidate the raw bounds confirm. As for
    /// [`matching_clients`](Self::matching_clients), `event` was quantised
    /// under the network's schema.
    pub fn neighbor_interested(&self, neighbor: BrokerId, event: &EventCells<'_>) -> bool {
        let link = self.links.get(&neighbor);
        link.is_some_and(|link| link.routing.holds(event, 0))
    }
}

/// The unsettled events at or below which [`Broker::neighbor_interested_mask`]
/// leaves the rank pass, whose cost is per slot: 97 % of its slot evaluations
/// serve at most 16 on the benchmark population, and 8 to 32 read alike.
const ROUTE_TAIL: u32 = 16;

/// One chunk of at most 64 batched events **read off the grid**: per
/// attribute, a table naming for every grid cell `c` two event masks, the
/// events in cells below `c` and the events in cells up to and including
/// `c`.
///
/// The events one slot's `[lo, hi]` admits on one attribute are then, but
/// for those in the bounds' own cells, `upto[cell(hi)] & !below[cell(lo)]`
/// — the paper's move, a lookup on a quantised grid in place of `n`
/// comparisons, applied to the events of a burst. The batched publish path
/// ([`BrokerNetwork::publish_batch`]) reads both off the table at the slot's
/// stored cells (`cell_lo`, `cell_hi`), so a bound costs one table entry
/// however many events the chunk holds, and no raw value.
///
/// *Exact because cells are monotone*: `v < lo` for every event in a cell
/// below `cell(lo)` and for none in a cell above it (and alike for `hi`), so
/// only an event in a bound's own cell can fall on either side of it — and
/// not even that when the bound is its domain's end, as no valid value lies
/// below the minimum or above the maximum. A match table flags the bounds
/// that are not (`MatchTable::open`). So a slot's mask is the compare's
/// unless an event it matched shares the cell of one of its open bounds, and
/// only then does a cold path compare that event's raw value with the bound.
///
/// A chunk event is valid, and matched, on the serial walk's terms: the
/// chunk holds its [`EventCells`].
///
/// [`BrokerNetwork::publish_batch`]: crate::BrokerNetwork::publish_batch
#[derive(Debug)]
pub struct EventChunk<'a> {
    /// `events[i]`: chunk event `i` as the serial walk takes it, if valid.
    events: [Option<EventCells<'a>>; EventChunk::WIDTH],
    /// How far a match table's 16-bit cell is shifted right to index a cell
    /// table, so that no table has more than `2^TABLE_BITS` entries: a
    /// coarser cell is still monotone in the value.
    narrow: u32,
    /// One cell table per schema attribute.
    columns: Vec<MaskColumn>,
    /// Slots sent down the exact path, for the tests that pin when it runs.
    #[cfg(test)]
    exact_paths: std::sync::atomic::AtomicUsize,
}

/// One attribute of an [`EventChunk`].
#[derive(Debug)]
struct MaskColumn {
    /// `cells[c]`: the events in the (narrowed) cells below `c` and up to
    /// `c`.
    cells: Vec<CellMasks>,
}

/// One entry of a [`MaskColumn`]'s cell table.
#[derive(Debug, Clone, Copy, Default)]
struct CellMasks {
    /// The events in the cells below this one.
    below: u64,
    /// The events in this cell and the cells below it.
    upto: u64,
}

impl CellMasks {
    /// The events in this cell.
    #[inline]
    fn inside(self) -> u64 {
        self.upto & !self.below
    }
}

impl MaskColumn {
    /// Tabulates attribute `attr` of the chunk's valid `events` by their
    /// cells, shifted right by `narrow`, over a table of `cells` entries.
    fn new(
        events: &[Option<EventCells<'_>>],
        attr: usize,
        narrow: u32,
        cells: usize,
    ) -> MaskColumn {
        let mut column = MaskColumn {
            cells: vec![CellMasks::default(); cells],
        };
        for (bit, event) in events.iter().enumerate() {
            if let Some(&cell) = event.as_ref().and_then(|event| event.cells().get(attr)) {
                // The cell's own events, until the running OR below.
                if let Some(entry) = column.cells.get_mut(usize::from(cell >> narrow)) {
                    entry.upto |= 1 << bit;
                }
            }
        }
        let mut seen = 0u64;
        for entry in &mut column.cells {
            entry.below = seen;
            seen |= entry.upto;
            entry.upto = seen;
        }
        column
    }
}

impl<'a> EventChunk<'a> {
    /// Events per chunk: one bit of the match mask each.
    pub const WIDTH: usize = 64;

    /// The most cells a cell table spans, as a power of two: 16 KiB of
    /// entries per attribute.
    const TABLE_BITS: u32 = 10;

    /// Quantises `events` (at most [`WIDTH`](Self::WIDTH) of them; chunk
    /// event `i` is `events[i]`) under `schema` — the schema the match tables
    /// were filled under — and tabulates them attribute by attribute. An
    /// event [`EventCells::new`] refuses keeps its bit position but is left
    /// out of every table.
    pub fn new(schema: &Schema, events: &'a [Event]) -> EventChunk<'a> {
        debug_assert!(events.len() <= Self::WIDTH);
        let cells: [Option<EventCells<'a>>; EventChunk::WIDTH] =
            std::array::from_fn(|i| EventCells::new(schema, events.get(i)?));
        // The match tables' cells have `bits - cell_shift` bits.
        let cell_bits = schema.bits_per_attribute() - cell_shift(schema);
        let narrow = cell_bits.saturating_sub(Self::TABLE_BITS);
        let table = 1 << (cell_bits - narrow);
        EventChunk {
            narrow,
            columns: (0..schema.arity())
                .map(|attr| MaskColumn::new(&cells, attr, narrow, table))
                .collect(),
            events: cells,
            #[cfg(test)]
            exact_paths: Default::default(),
        }
    }

    /// The mask with one bit set per valid chunk event: the events a walk
    /// starts with.
    pub fn valid(&self) -> u64 {
        let valid = self.events.iter().rev().map(Option::is_some);
        valid.fold(0, |mask, valid| mask << 1 | u64::from(valid))
    }

    /// The chunk laid against `table`, ready for its slot loop.
    fn view<'t>(&'t self, table: &'t MatchTable) -> KernelView<'t> {
        let len = table.len();
        let mut lanes = [Lane::default(); MAX_ATTRIBUTES];
        let cells = table.cell_lo.iter().zip(&table.cell_hi);
        let mut arity = 0;
        for (lane, ((lo, hi), column)) in lanes.iter_mut().zip(cells.zip(&self.columns)) {
            *lane = Lane {
                cell_lo: lo.get(..len).unwrap_or_default(),
                cell_hi: hi.get(..len).unwrap_or_default(),
                cells: &column.cells,
            };
            arity += 1;
        }
        KernelView {
            chunk: self,
            table,
            narrow: self.narrow,
            lanes,
            arity,
        }
    }
}

/// An [`EventChunk`] laid against one match table, built once per (chunk,
/// table): per attribute, the table's cell columns next to the chunk's cell
/// table, so that the slot loop reads slices it holds rather than finding
/// them in the table's and the chunk's column lists at every slot.
struct KernelView<'a> {
    chunk: &'a EventChunk<'a>,
    table: &'a MatchTable,
    /// The chunk's `narrow`.
    narrow: u32,
    /// One per schema attribute: the first `arity`.
    lanes: [Lane<'a>; MAX_ATTRIBUTES],
    arity: usize,
}

/// One attribute of a [`KernelView`].
#[derive(Clone, Copy, Default)]
struct Lane<'a> {
    /// The table's cell columns, cut to its slots.
    cell_lo: &'a [u16],
    cell_hi: &'a [u16],
    /// The chunk's cell table for the attribute.
    cells: &'a [CellMasks],
}

impl KernelView<'_> {
    /// The 64-event x one-slot kernel: the bitmask of `active` chunk events
    /// that satisfy every range bound of the table's slot `slot` (0 when the
    /// slot does not exist) — bit for bit what `lo <= v && v <= hi` gives.
    /// Every subscription stored in a [`Broker`] was validated against the
    /// same schema as the chunk's events at subscribe time. Per attribute,
    /// the slot's two cells and its flags pick two cell-table entries: the
    /// events from `cell(lo)` up to `cell(hi)`, and the events in either
    /// bound's own cell, which an open bound leaves unsure (see
    /// [`EventChunk`]). A slot whose mask keeps an unsure event goes to
    /// [`exact_mask`](Self::exact_mask); the branch is per slot and rarely
    /// taken. No table holds an invalid event, so the result never does
    /// either, whatever `active` says.
    #[inline]
    fn mask(&self, slot: usize, active: u64) -> u64 {
        let (mut mask, mut unsure) = (active, 0u64);
        let Some(&(mut open)) = self.table.open.get(slot) else {
            return 0;
        };
        for lane in self.lanes.get(..self.arity).unwrap_or_default() {
            let (Some(&cell_lo), Some(&cell_hi)) = (lane.cell_lo.get(slot), lane.cell_hi.get(slot))
            else {
                return 0;
            };
            // The table spans every narrowed cell, so these never miss.
            let (Some(&low), Some(&high)) = (
                lane.cells.get(usize::from(cell_lo >> self.narrow)),
                lane.cells.get(usize::from(cell_hi >> self.narrow)),
            ) else {
                return 0;
            };
            mask &= high.upto & !low.below;
            unsure |= low.inside() & (open & 1).wrapping_neg()
                | high.inside() & (open >> 1 & 1).wrapping_neg();
            open >>= 2;
        }
        if mask & unsure != 0 {
            self.exact_mask(slot, mask)
        } else {
            mask
        }
    }

    /// [`mask`](Self::mask) for a slot the cells leave unsure, narrowing
    /// `active` (the events the cells admit): every event of it in a bound's
    /// own cell is compared with the raw bound — the oracle's own compare,
    /// so ties, values equal to the bound and `-0.0` against `0.0` need no
    /// special case. The others lie in cells strictly between the bounds'.
    #[cold]
    #[inline(never)]
    fn exact_mask(&self, slot: usize, active: u64) -> u64 {
        #[cfg(test)]
        self.chunk
            .exact_paths
            .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        let mut mask = active;
        let Some(row) = self.table.row(slot) else {
            return 0;
        };
        for (attr, (lane, &(lo, hi))) in self.lanes.iter().zip(row).enumerate() {
            let (Some(&cell_lo), Some(&cell_hi)) = (lane.cell_lo.get(slot), lane.cell_hi.get(slot))
            else {
                return 0;
            };
            let inside = |cell: u16| {
                let entry = lane.cells.get(usize::from(cell >> self.narrow));
                entry.map_or(0, |entry| entry.inside())
            };
            let mut edge = mask & (inside(cell_lo) | inside(cell_hi));
            while edge != 0 {
                let bit = edge.trailing_zeros();
                let event = self.chunk.events.get(bit as usize).and_then(Option::as_ref);
                let value = event.and_then(|event| event.values.get(attr));
                if !value.is_some_and(|&v| lo <= v && v <= hi) {
                    mask &= !(1 << bit);
                }
                edge &= edge - 1;
            }
        }
        mask
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use acd_subscription::SubscriptionBuilder;
    use proptest::prelude::*;

    /// The unit tests' schema (also link.rs's and network.rs's).
    pub(crate) fn schema() -> Schema {
        Schema::builder()
            .attribute("x", 0.0, 100.0)
            .attribute("y", 0.0, 100.0)
            .bits_per_attribute(6)
            .build()
            .unwrap()
    }

    /// Subscription `id` over `x` and `y`.
    pub(crate) fn sub(schema: &Schema, id: SubId, x: (f64, f64), y: (f64, f64)) -> Subscription {
        SubscriptionBuilder::new(schema)
            .range("x", x.0, x.1)
            .range("y", y.0, y.1)
            .build(id)
            .unwrap()
    }

    /// Each of `broker`'s links, by neighbor: the subscriptions sent on it
    /// and the ids routed from it.
    pub(crate) fn link_records(broker: &Broker) -> Vec<(BrokerId, Vec<Subscription>, Vec<SubId>)> {
        let mut records: Vec<_> = broker
            .links
            .iter()
            .map(|(&neighbor, link)| {
                let sent = link.sent.ids().filter_map(|id| link.sent.get(id).cloned());
                (neighbor, sent.collect(), link.routing.ids.clone())
            })
            .collect();
        records.sort_by_key(|&(neighbor, ..)| neighbor);
        records
    }

    /// The bounds stored at `slot`, read back across the attribute columns.
    fn bounds_at(table: &MatchTable, slot: usize) -> Vec<(f64, f64)> {
        table.row(slot).unwrap().to_vec()
    }

    /// Asserts that `table` holds `subscription` at `slot`: its raw bounds,
    /// its grid bounds as 16-bit cells, and which of its bounds are open
    /// (not their domain's end).
    fn assert_slot_holds(table: &MatchTable, slot: usize, subscription: &Subscription) {
        assert_eq!(
            bounds_at(table, slot),
            subscription.raw_bounds(),
            "slot {slot}"
        );
        let columns = table.cell_lo.iter().zip(&table.cell_hi);
        let stored: Vec<(u16, u16)> = columns.map(|(lo, hi)| (lo[slot], hi[slot])).collect();
        let narrow = |&(lo, hi): &(u64, u64)| {
            let shift = subscription
                .schema()
                .bits_per_attribute()
                .saturating_sub(16);
            ((lo >> shift) as u16, (hi >> shift) as u16)
        };
        let expected: Vec<(u16, u16)> = subscription.grid_bounds().iter().map(narrow).collect();
        assert_eq!(stored, expected, "slot {slot}");
        let open: Vec<(bool, bool)> = (0..table.arity())
            .map(|attr| {
                let flags = table.open[slot] >> (2 * attr);
                (flags & 1 == 1, flags & 2 == 2)
            })
            .collect();
        let domains = subscription.schema().attributes();
        let expected: Vec<(bool, bool)> = subscription
            .raw_bounds()
            .iter()
            .zip(domains)
            .map(|(&(lo, hi), domain)| (lo > domain.min(), hi < domain.max()))
            .collect();
        assert_eq!(open, expected, "slot {slot}");
    }

    /// The subscriptions `table`'s slots hold under schema `s`, in slot
    /// order, rebuilt from their rows.
    fn handles(table: &MatchTable, s: &Schema) -> Vec<Subscription> {
        let slots = table.ids.iter().enumerate();
        let rebuilt =
            slots.map(|(slot, &id)| Subscription::from_raw_bounds(s, id, table.row(slot).unwrap()));
        rebuilt.collect::<Result<_, _>>().unwrap()
    }

    /// Every column is as long as `ids` (the cell columns: as its whole
    /// blocks), slots hold the cells and open flags of their rows under
    /// schema `s`, and (local tables) slots are client-ordered and
    /// `run_ends` marks exactly the last slot of every client's run.
    fn assert_aligned(table: &MatchTable, s: &Schema, local: bool) {
        let n = table.len();
        assert_eq!(table.raw.len(), n * table.arity());
        assert_eq!(table.open.len(), n);
        // The cell columns run on to the end of their last block, padded
        // with bounds no cell lies inside.
        let padding = n..n.next_multiple_of(MatchTable::BLOCK);
        for (lo, hi) in table.cell_lo.iter().zip(&table.cell_hi) {
            assert_eq!((lo.len(), hi.len()), (padding.end, padding.end));
            assert!(lo[padding.clone()].iter().all(|&pad| pad == u16::MAX));
            assert!(hi[padding.clone()].iter().all(|&pad| pad == 0));
        }
        let owned = if local { n } else { 0 };
        assert_eq!((table.ids.len(), table.clients.len()), (n, owned));
        assert!(table.clients.is_sorted(), "{:?}", table.clients);
        for (slot, handle) in handles(table, s).iter().enumerate() {
            assert_slot_holds(table, slot, handle);
        }
        let mut ends = vec![0u64; owned.div_ceil(MatchTable::BLOCK)];
        let mut next = 0;
        for run in table.clients.chunk_by(|a, b| a == b) {
            next += run.len();
            ends[(next - 1) / MatchTable::BLOCK] |= 1 << ((next - 1) % MatchTable::BLOCK);
        }
        assert_eq!(table.run_ends, ends, "{:?}", table.clients);
    }

    /// Candidates-then-confirm says for every slot of `table` what the
    /// oracle says about the subscription stored there (`stored`, in slot
    /// order), and the grid filter alone never drops a slot the raw bounds
    /// confirm: `candidates ⊇ matches`, bit for bit.
    fn assert_kernel_matches_oracle(table: &MatchTable, stored: &[Subscription], event: &Event) {
        assert_eq!(table.len(), stored.len());
        let Some(schema) = stored.first().map(Subscription::schema) else {
            return;
        };
        let Some(cells) = EventCells::new(schema, event) else {
            assert!(stored.iter().all(|s| !s.matches(event)), "{event}");
            return;
        };
        for (slot, subscription) in stored.iter().enumerate() {
            let block = table.candidates(&cells, slot / MatchTable::BLOCK);
            let candidate = block >> (slot % MatchTable::BLOCK) & 1 == 1;
            let confirmed = table.confirm(&cells, slot);
            let context = format!("slot {slot} of {}, {subscription} / {event}", table.len());
            assert_eq!(confirmed, subscription.matches(event), "{context}");
            assert!(candidate || !confirmed, "the filter dropped {context}");
        }
        // No bits beyond the last slot, no slot beyond the last block.
        let blocks = table.len().div_ceil(MatchTable::BLOCK);
        let tail = table.len() % MatchTable::BLOCK;
        if tail != 0 {
            assert_eq!(table.candidates(&cells, blocks - 1) >> tail, 0);
        }
        assert_eq!(table.candidates(&cells, blocks), 0);
        assert!(!table.confirm(&cells, table.len()));
    }

    #[test]
    fn columns_stay_aligned_through_insert_remove_and_swap_remove() {
        let s = schema();
        let mut local = MatchTable::new(&s);
        let mut routing = MatchTable::new(&s);
        let mut live: Vec<(ClientId, Subscription)> = Vec::new();
        // 150 slots cross two block seams; clients arrive out of order and
        // repeat; every third step removes an earlier subscription. Some
        // bounds are their domain's ends (`lo == 0`, `lo + 45 >= 100`), so
        // both open flags take both values.
        for i in 0..150u64 {
            let lo = (i * 7 % 60) as f64;
            let fresh = sub(&s, i, (lo, (lo + 45.0).min(100.0)), (lo / 2.0, lo + 1.0));
            let client = i * 5 % 13;
            local.insert_local(client, &fresh);
            routing.insert_bounds(routing.len(), &fresh);
            live.push((client, fresh));
            if i % 3 == 2 {
                let (client, gone) = live.swap_remove(i as usize * 11 % live.len());
                assert!(
                    local.remove_local(client + 1, gone.id()).is_none(),
                    "not its client"
                );
                assert!(
                    local.remove_local(client, gone.id()).is_some(),
                    "registered above"
                );
                assert!(routing.swap_remove_routing(gone.id()));
                assert!(!routing.swap_remove_routing(gone.id()), "already gone");
                assert!(local.remove_local(client, gone.id()).is_none());
            }
            assert_aligned(&local, &s, true);
            assert_aligned(&routing, &s, false);
            // Every table length from 1 to ~100 (both sides of a seam), every
            // live subscription's own low corner.
            for (_, subscription) in &live {
                let corner = subscription.raw_bounds().iter().map(|&(low, _)| low);
                let event = Event::new(&s, corner.collect()).unwrap();
                assert_kernel_matches_oracle(&local, &handles(&local, &s), &event);
            }
            assert_eq!((local.len(), routing.len()), (live.len(), live.len()));
            // The routing table holds exactly the live bounds, cells and
            // flags, in any order.
            for (_, subscription) in &live {
                let slot = routing.ids.iter().position(|&id| id == subscription.id());
                let slot = slot.expect("live subscriptions keep their routing slot");
                assert_slot_holds(&routing, slot, subscription);
            }
        }
    }

    #[test]
    fn each_matching_client_is_emitted_once() {
        let s = schema();
        let mut b = Broker::new(0, &[1], &s, CoveringPolicy::None).unwrap();
        // Every client's subscriptions overlap without nesting (one width,
        // distinct starts), so none is held back and every one is a slot.
        // 700 slots over 7 clients, so every local table in use spans
        // several blocks: client c owns every 7th subscription, all
        // containing (40, 40), all but client 3's some containing (50, 50),
        // and only client 5's reaching (90, 90).
        for i in 0..700u64 {
            let (client, k) = (i % 7, (i / 7) as f64);
            let x = match client {
                3 => (k * 0.1, 40.0 + k * 0.1),
                5 => (40.0 + k * 0.01, 95.0 + k * 0.01),
                _ => (k * 0.1, 45.0 + k * 0.1),
            };
            b.add_local(client, sub(&s, i, x, x));
        }
        // Client 8: a run of 150 slots, so it spans at least three blocks
        // wherever it starts, and only its last slot holds (97, 97) — the
        // walk must carry an undelivered run across two seams.
        for i in 0..150u64 {
            let k = i as f64 * 0.05;
            let x = if i == 149 {
                (96.0, 98.0)
            } else {
                (k, k + 10.0)
            };
            b.add_local(8, sub(&s, 1_000 + i, x, x));
        }
        // Clients 9 and 10: (70.5, 70.5) lies in the grid cell of all four
        // of their bounds (a cell is 100 / 64 wide), so each slot is a
        // candidate; on raw bounds client 9's first slot and client 10's
        // only one start above it and client 9's second holds it.
        b.add_local(9, sub(&s, 2_000, (70.6, 71.0), (70.6, 71.0)));
        b.add_local(9, sub(&s, 2_001, (70.4, 70.9), (70.4, 70.9)));
        b.add_local(10, sub(&s, 2_002, (70.6, 71.0), (70.6, 71.0)));
        assert_eq!(b.held.len(), 0, "nothing nests");
        let near = Event::new(&s, vec![70.5, 70.5]).unwrap();
        let cells = EventCells::new(&s, &near).unwrap();
        let table = &b.local[b.local_table(9)];
        let first = table.clients.iter().position(|&c| c == 9).unwrap();
        let block = table.candidates(&cells, first / MatchTable::BLOCK);
        assert_eq!(block >> (first % MatchTable::BLOCK) & 1, 1, "a candidate");
        assert!(!table.confirm(&cells, first) && table.confirm(&cells, first + 1));
        assert_local_tables(&b);
        assert!(b.local.len() > 1, "853 slots split the tables");

        assert_eq!(emitted(&b, &s, &[50.0, 50.0]), vec![0, 1, 2, 4, 5, 6]);
        assert_eq!(emitted(&b, &s, &[90.0, 90.0]), vec![5]);
        assert_eq!(emitted(&b, &s, &[40.0, 40.0]), vec![0, 1, 2, 3, 4, 5, 6]);
        assert_eq!(emitted(&b, &s, &[97.0, 97.0]), vec![8]);
        assert_eq!(emitted(&b, &s, &[70.5, 70.5]), vec![5, 9]);
        assert!(emitted(&b, &s, &[99.0, 99.0]).is_empty());
    }

    /// `leaders` names the first candidate of every run of a block, as a
    /// scan of each run does: random blocks, dense and sparse, of long and
    /// short runs, a run open at the block's top included.
    #[test]
    fn the_leader_identity_is_a_per_run_scan() {
        let mut state = 0x9e37_79b9_7f4a_7c15u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for round in 0..200_000 {
            let (cand, ends) = match round % 4 {
                0 => (next(), next()),
                1 => (next() & next(), next() & next() & next()),
                2 => (next() | next(), next() & next() & next() & next()),
                _ => (next(), 0),
            };
            let (mut expected, mut open) = (0u64, true);
            for bit in 0..64 {
                if open && cand >> bit & 1 == 1 {
                    expected |= 1 << bit;
                    open = false;
                }
                open |= ends >> bit & 1 == 1;
            }
            assert_eq!(leaders(cand, ends), expected, "{cand:#x} / {ends:#x}");
        }
    }

    /// The leader pass at a block seam and on the raw bounds, against the
    /// oracle. Client 100's run takes slots 60 on, across the seam at 64,
    /// behind 60 one-slot clients no event here reaches and before client
    /// 200, which every event reaches. 25.1 and 25.15 share a grid cell
    /// (a cell is 100 / 64 wide), so a slot whose lower bound is 25.15 is a
    /// candidate of x = 25.1 that its raw bounds refuse.
    #[test]
    fn the_leader_pass_meets_the_oracle_at_block_seams() {
        let s = schema();
        let full = (0.0, 100.0);
        let cases: [(&str, Vec<_>, usize); 4] = [
            (
                "a run delivered before the seam and carried over it",
                (0..8)
                    .map(|i| (20.0 + f64::from(i) * 0.1, 30.0 + f64::from(i)))
                    .collect(),
                60,
            ),
            (
                "a run carried over the seam undelivered, its candidates refused before it",
                (0..8)
                    .map(|i| match i {
                        0..4 => (25.15 + f64::from(i) * 0.01, 40.0 + f64::from(i)),
                        _ => (20.0 + f64::from(i) * 0.1, 30.0 + f64::from(i)),
                    })
                    .collect(),
                64,
            ),
            (
                "a leader refused on an open bound's cell, a later slot confirming",
                vec![(25.15, 40.0), (20.0, 30.5)],
                61,
            ),
            (
                "a run whose every candidate is refused",
                (0..3)
                    .map(|i| (25.15 + f64::from(i) * 0.01, 40.0 + f64::from(i)))
                    .collect(),
                usize::MAX,
            ),
        ];
        for (case, run, delivering) in cases {
            let mut b = Broker::new(0, &[], &s, CoveringPolicy::None).unwrap();
            let mut live = Vec::new();
            let filler = (0..60).map(|c| (c, (c as f64 * 0.01, 1.0 + c as f64 * 0.01)));
            let seam = run.iter().map(|&x| (100, x));
            for (id, (client, x)) in (0..).zip(filler.chain(seam).chain([(200, full)])) {
                let subscription = sub(&s, id, x, full);
                b.add_local(client, subscription.clone());
                live.push((client, subscription));
            }
            assert_eq!(
                (b.held.len(), b.local.len()),
                (0, 1),
                "{case}: one table, no nesting"
            );
            let event = Event::new(&s, vec![25.1, 50.0]).unwrap();
            let cells = EventCells::new(&s, &event).unwrap();
            let table = &b.local[0];
            let candidate =
                |slot: usize| table.candidates(&cells, slot / 64) >> (slot % 64) & 1 == 1;
            let confirms: Vec<usize> = (60..60 + run.len())
                .filter(|&slot| table.confirm(&cells, slot))
                .collect();
            assert!(
                (60..60 + run.len()).all(candidate),
                "{case}: every slot of the run a candidate"
            );
            assert_eq!(
                confirms.first().copied().unwrap_or(usize::MAX),
                delivering,
                "{case}"
            );
            let mut expected: Vec<ClientId> = live
                .iter()
                .filter(|(_, subscription)| subscription.matches(&event))
                .map(|&(client, _)| client)
                .collect();
            expected.dedup();
            assert_eq!(emitted(&b, &s, &[25.1, 50.0]), expected, "{case}");
        }
    }

    #[test]
    fn counts_read_the_tables_and_suppressed_lists() {
        let s = schema();
        let mut b = Broker::new(0, &[1, 2], &s, CoveringPolicy::ExactSfc).unwrap();
        let wide = sub(&s, 1, (0.0, 100.0), (0.0, 100.0));
        let narrow = sub(&s, 2, (10.0, 20.0), (10.0, 20.0));
        b.add_local(7, wide.clone());
        b.add_local(7, narrow.clone());
        b.add_received(1, &wide);
        b.add_received(2, &wide);
        b.add_received(2, &narrow);
        assert!(!b.link_mut(1).offer(&wide).unwrap().is_covered());
        assert!(b.link_mut(1).offer(&narrow).unwrap().is_covered());
        assert_eq!(b.local_subscriptions(), 2);
        assert_eq!(b.routing_table_entries(), 3);
        assert_eq!(b.suppressed_entries(), 1);

        // Retracting the cover re-advertises the one it masked, in place.
        let readvertised = b.link_mut(1).retract(wide.id()).unwrap();
        let readvertised = readvertised.expect("wide was sent");
        assert_eq!(readvertised.len(), 1);
        assert_eq!(readvertised[0].0, narrow);
        assert!(!readvertised[0].1.is_covered());
        assert_eq!(b.suppressed_entries(), 0);

        assert!(b.remove_received(2, 1));
        assert!(!b.remove_received(2, 1));
        assert!(!b.remove_received(9, 2), "unknown interface");
        assert_eq!(b.remove_local(8, 1), None, "not client 8's");
        assert_eq!(
            b.remove_local(7, 1),
            Some(vec![narrow]),
            "narrow takes the slot"
        );
        assert_eq!(b.remove_local(7, 1), None);
        assert_eq!(b.local_subscriptions(), 1);
        assert_eq!(b.routing_table_entries(), 2);
    }

    /// The ids of `client`'s slots, in slot order.
    fn slots_of(b: &Broker, client: ClientId) -> Vec<SubId> {
        let table = &b.local[b.local_table(client)];
        table.ids[table.run_of(client)].to_vec()
    }

    /// The ids held back behind local slot `witness`, in list order.
    fn held_behind(b: &Broker, witness: SubId) -> Vec<SubId> {
        let list = b.held.entries().filter(|&(w, _)| w == witness);
        list.map(|(_, held)| held.id()).collect()
    }

    #[test]
    fn an_equal_twin_is_held_and_takes_the_slot_when_its_witness_goes() {
        let s = schema();
        let mut b = Broker::new(0, &[], &s, CoveringPolicy::None).unwrap();
        let first = sub(&s, 1, (10.0, 20.0), (10.0, 20.0));
        let twin = first.with_id(2);
        b.add_local(7, first.clone());
        b.add_local(7, twin.clone());
        // Another client's twin is not this client's to hold.
        b.add_local(8, first.with_id(3));
        assert_eq!((slots_of(&b, 7), held_behind(&b, 1)), (vec![1], vec![2]));
        assert_eq!(slots_of(&b, 8), [3]);
        assert_eq!(
            (b.local_subscriptions(), b.local_table_slots()),
            (3, vec![2])
        );
        assert_eq!(emitted(&b, &s, &[15.0, 15.0]), [7, 8]);

        assert_eq!(b.remove_local(8, 2), None, "not client 8's");
        assert_eq!(b.remove_local(7, 1), Some(vec![twin]));
        assert_eq!(slots_of(&b, 7), [2]);
        assert_eq!(b.held.len(), 0);
        assert_eq!(emitted(&b, &s, &[15.0, 15.0]), [7, 8]);
        assert_eq!(b.remove_local(7, 2), Some(vec![]));
        assert_eq!(emitted(&b, &s, &[15.0, 15.0]), [8]);
    }

    #[test]
    fn a_newcomer_takes_over_the_slots_it_covers_with_what_they_hold() {
        let s = schema();
        let mut b = Broker::new(0, &[], &s, CoveringPolicy::None).unwrap();
        // Three incomparable slots (1, 2, 3), each holding a narrower one
        // (11, 12, 13), and a fourth (4) the newcomer does not cover.
        for (k, x) in [10.0, 30.0, 50.0].into_iter().enumerate() {
            let k = k as SubId;
            b.add_local(7, sub(&s, 1 + k, (x, x + 10.0), (20.0, 40.0)));
            b.add_local(7, sub(&s, 11 + k, (x + 2.0, x + 4.0), (25.0, 30.0)));
        }
        b.add_local(7, sub(&s, 4, (0.0, 90.0), (60.0, 70.0)));
        assert_eq!(slots_of(&b, 7), [1, 2, 3, 4]);
        let ids = |moved: Vec<Subscription>| moved.iter().map(Subscription::id).collect::<Vec<_>>();
        let newcomer = sub(&s, 5, (5.0, 65.0), (15.0, 45.0));
        assert_eq!(
            b.add_local(7, newcomer).map(ids),
            Some(vec![1, 2, 3]),
            "demoted"
        );
        assert_eq!(slots_of(&b, 7), [4, 5]);
        assert_eq!(held_behind(&b, 5), [1, 11, 2, 12, 3, 13]);
        assert_eq!(b.held.len(), 6, "the demoted lists are gone");
        assert_eq!(b.local_subscriptions(), 8);
        assert_eq!(emitted(&b, &s, &[33.0, 27.0]), [7]);

        // The newcomer goes: what it held is added again in that order, so
        // each demoted slot comes back with its own entry behind it.
        assert_eq!(
            b.remove_local(7, 5).map(ids),
            Some(vec![1, 2, 3]),
            "promoted"
        );
        assert_eq!(slots_of(&b, 7), [4, 1, 2, 3]);
        for k in 1..=3 {
            assert_eq!(held_behind(&b, k), [10 + k]);
        }
        assert_eq!(b.local_subscriptions(), 7);
    }

    #[test]
    fn a_table_demotion_shrinks_folds_into_its_neighbour() {
        let s = schema();
        let mut b = Broker::new(0, &[], &s, CoveringPolicy::None).unwrap();
        // 200 slots of client 1 and 320 of client 2, none nested: the split
        // at the 513th cuts at the client boundary.
        for i in 0..520u64 {
            let (client, k) = if i < 200 { (1, i) } else { (2, i - 200) };
            let x = k as f64 * 0.1;
            b.add_local(client, sub(&s, i, (x, x + 1.0), (x, x + 1.0)));
        }
        assert_eq!(b.local_table_slots(), [200, 320]);
        b.add_local(2, sub(&s, 1_000, (0.0, 100.0), (0.0, 100.0)));
        assert_eq!(b.local_table_slots(), [201]);
        assert_eq!(b.local_subscriptions(), 521);
        assert_eq!(emitted(&b, &s, &[5.0, 5.0]), [1, 2]);
    }

    #[test]
    fn a_grid_cover_inside_one_cell_is_not_a_raw_cover() {
        let s = schema();
        let mut b = Broker::new(0, &[], &s, CoveringPolicy::None).unwrap();
        // Both in cell 32 ([50, 51.5625)) on both attributes: equal grid
        // bounds, while neither's raw bounds hold the other's.
        let low = sub(&s, 1, (50.2, 50.8), (50.2, 50.8));
        let high = sub(&s, 2, (50.4, 51.0), (50.4, 51.0));
        assert_eq!(low.grid_bounds(), high.grid_bounds());
        assert!(!low.covers(&high) && !high.covers(&low));
        b.add_local(7, low);
        b.add_local(7, high);
        assert_eq!((slots_of(&b, 7), b.held.len()), (vec![1, 2], 0));
        // Between the two lower bounds, and between the two upper ones.
        assert_eq!(emitted(&b, &s, &[50.3, 50.3]), [7]);
        assert_eq!(emitted(&b, &s, &[50.9, 50.9]), [7]);
        assert!(emitted(&b, &s, &[51.1, 51.1]).is_empty());
        let events =
            [[50.3, 50.3], [50.9, 50.9], [51.1, 51.1]].map(|v| Event::new(&s, v.to_vec()).unwrap());
        assert_eq!(emitted_mask(&b, &s, &events), [(7, 0b011)]);
    }

    /// A witness slot whose row is missing covers nothing: the audit names
    /// what it holds back rather than read the missing row as a cover.
    #[test]
    fn a_witness_slot_without_a_row_covers_nothing() {
        let s = schema();
        let mut b = Broker::new(0, &[], &s, CoveringPolicy::ExactSfc).unwrap();
        b.add_local(7, sub(&s, 1, (0.0, 90.0), (0.0, 90.0)));
        b.add_local(7, sub(&s, 2, (20.0, 30.0), (20.0, 30.0)));
        assert_eq!(b.held.witness(2), Some(1));
        b.local[0].raw.clear();
        let registered: Registry = [(1, 7), (2, 7)].into();
        let (mut found, mut sent, mut routed) = (Vec::new(), HashSet::new(), HashSet::new());
        b.audit(&registered, true, &mut found, &mut sent, &mut routed);
        assert_eq!(found, [Violation::UncoveringWitness(0, None, 1, 2)]);
    }

    #[test]
    fn negative_zero_bounds_are_twins_of_zero_ones() {
        let s = schema();
        for (first, second) in [(0.0, -0.0), (-0.0, 0.0)] {
            let mut b = Broker::new(0, &[], &s, CoveringPolicy::None).unwrap();
            b.add_local(7, sub(&s, 1, (first, 10.0), (first, 10.0)));
            b.add_local(7, sub(&s, 2, (second, 10.0), (second, 10.0)));
            assert_eq!((slots_of(&b, 7), held_behind(&b, 1)), (vec![1], vec![2]));
            for zero in [0.0, -0.0] {
                assert_eq!(emitted(&b, &s, &[zero, zero]), [7]);
            }
            assert!(b.remove_local(7, 1).is_some());
            assert_eq!((slots_of(&b, 7), b.held.len()), (vec![2], 0));
            assert_eq!(emitted(&b, &s, &[-0.0, 0.0]), [7]);
        }
    }

    /// Every `(client, mask)` `matching_clients_mask` emits for a chunk of
    /// `events`, all of them active.
    fn emitted_mask(b: &Broker, s: &Schema, events: &[Event]) -> Vec<(ClientId, u64)> {
        let chunk = EventChunk::new(s, events);
        let mut out = Vec::new();
        b.matching_clients_mask(&chunk, chunk.valid(), |client, mask| {
            out.push((client, mask))
        });
        out
    }

    proptest! {
        /// `KernelView::mask` against the compare it replaces and
        /// against `Subscription::matches`, bit by bit, on tables filled the
        /// way a broker fills them. Bounds and values are drawn in or next to
        /// a few anchor cells — the first, the last, the cell starting at
        /// `0.0`, one at random and one starting a narrowed table cell — so a
        /// chunk holds many events per cell, ties and both zeros: on the cell
        /// edge, one ulp either side, the next edge, inside the cell, or the
        /// domain's ends. Grids of 1 / 10 / 12 / 13 / 16 / 17 / 31 bits take
        /// the cell tables unnarrowed and narrowed; chunks mix valid events
        /// with foreign-schema ones, which match nothing. The routing table
        /// spans up to five blocks, so a link's answer
        /// (`neighbor_interested_mask`) meets the routing tail's switch
        /// before, at and after its first seam.
        #[test]
        fn rank_kernel_matches_the_compare_oracle(
            bits in prop_oneof![
                Just(1u32), Just(10), Just(12), Just(13), Just(16), Just(17), Just(31)
            ],
            arity in prop_oneof![Just(1usize), Just(3)],
            len in prop_oneof![Just(1usize), Just(63), Just(64), 1usize..65],
            slots in 1usize..300,
            seed in any::<u64>(),
            active in any::<u64>(),
        ) {
            const DOMAIN: (f64, f64) = (-2.5, 7.5);
            let mut builder = Schema::builder().bits_per_attribute(bits);
            for attr in 0..arity {
                builder = builder.attribute(format!("a{attr}"), DOMAIN.0, DOMAIN.1);
            }
            let s = builder.build().unwrap();
            let foreign = Schema::builder().attribute("z", 0.0, 1.0).build().unwrap();
            let lcg = |mut mix: u64| {
                move || {
                    mix = mix.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                    mix >> 33
                }
            };
            // One stream for the points, one for what kind of event to make.
            let (mut next, mut pick) = (lcg(seed), lcg(!seed));
            let last = s.grid_size() - 1;
            // Grid cells per cell-table entry once the table is narrowed.
            let entry = 1 << bits.saturating_sub(EventChunk::TABLE_BITS);
            let anchors = [
                0,
                last,
                s.grid_size() / 4, // starts at 0.0
                next() % (last + 1),
                next() % (last + 1) / entry * entry,
            ];
            let width = (DOMAIN.1 - DOMAIN.0) / s.grid_size() as f64;
            let mut point = |attr: usize| {
                let cell = anchors[next() as usize % anchors.len()];
                let edge = s.dequantize(attr, cell).unwrap();
                let value = match next() % 10 {
                    0 => DOMAIN.0,
                    1 => DOMAIN.1,
                    2 => edge,
                    3 => edge.next_down(),
                    4 => edge.next_up(),
                    5 => edge + width,
                    6 => -0.0,
                    7 => 0.0,
                    _ => edge + width * (next() % 1024) as f64 / 1024.0,
                };
                value.clamp(DOMAIN.0, DOMAIN.1)
            };

            let mut local = MatchTable::new(&s);
            let mut broker = Broker::new(0, &[1], &s, CoveringPolicy::None).unwrap();
            let mut received = Vec::new();
            for id in 0..slots as u64 {
                let bounds: Vec<(f64, f64)> = (0..arity)
                    .map(|attr| {
                        let (p, q) = (point(attr), point(attr));
                        (p.min(q), p.max(q))
                    })
                    .collect();
                let fresh = Subscription::from_raw_bounds(&s, id, &bounds).unwrap();
                local.insert_local(id % 5, &fresh);
                broker.add_received(1, &fresh);
                received.push(fresh);
            }
            let routing = &broker.links[&1].routing;
            let events: Vec<Event> = (0..len)
                .map(|_| {
                    let values: Vec<f64> = (0..arity).map(&mut point).collect();
                    if pick() % 10 == 0 {
                        Event::new(&foreign, vec![0.5]).unwrap()
                    } else {
                        Event::new(&s, values).unwrap()
                    }
                })
                .collect();

            let chunk = EventChunk::new(&s, &events);
            let mut valid = 0u64;
            for (bit, event) in events.iter().enumerate() {
                valid |= u64::from(event.schema() == &s) << bit;
            }
            prop_assert_eq!(chunk.valid(), valid);
            // The link's answer: all of `active`, the lowest 16 valid events
            // of it (the tail from slot 0 on), and every event.
            let mut wanted = 0u64;
            for (bit, event) in events.iter().enumerate() {
                wanted |= u64::from(received.iter().any(|r| r.matches(event))) << bit;
            }
            let mut few = active & valid;
            while few.count_ones() > ROUTE_TAIL {
                few &= !(1 << (63 - few.leading_zeros()));
            }
            for active in [active, few, u64::MAX] {
                prop_assert_eq!(
                    broker.neighbor_interested_mask(1, &chunk, active),
                    wanted & active,
                    "{} slots, {} / {} events, {} bits",
                    slots,
                    active.count_ones(),
                    len,
                    bits
                );
            }
            for (table, stored) in [(&local, &handles(&local, &s)), (routing, &received)] {
                let view = chunk.view(table);
                for (slot, subscription) in stored.iter().enumerate() {
                    let (mut compared, mut matched) = (0u64, 0u64);
                    for (bit, event) in events.iter().enumerate() {
                        let inside = event.schema() == &s
                            && bounds_at(table, slot)
                                .iter()
                                .zip(event.values())
                                .all(|(&(lo, hi), &v)| lo <= v && v <= hi);
                        compared |= u64::from(inside) << bit;
                        matched |= u64::from(subscription.matches(event)) << bit;
                    }
                    prop_assert_eq!(compared, matched, "the compare is the oracle");
                    prop_assert_eq!(
                        view.mask(slot, active),
                        compared & active,
                        "slot {} of {}, {} / {} events, {} bits",
                        slot,
                        table.len(),
                        subscription,
                        len,
                        bits
                    );
                }
                prop_assert_eq!(view.mask(table.len(), u64::MAX), 0, "no such slot");
            }
        }

        /// The two-resolution kernel against the oracle where integer-valued
        /// tests cannot reach: grids coarser than, equal to and finer than a
        /// 16-bit cell column, tables on both sides of a block seam, and
        /// bounds and values that share a grid cell in either order, sit on
        /// or one ulp off a cell edge, or are the domain's ends (`lo == min`;
        /// `hi == max`, which quantises into the clamped last cell). The
        /// domain's span is no power of two, so cell edges round.
        #[test]
        fn grid_filter_never_drops_a_match_and_confirm_is_the_oracle(
            bits in prop_oneof![Just(1u32), Just(10), Just(16), Just(17), Just(31)],
            arity in prop_oneof![Just(1usize), Just(3), Just(32)],
            len in prop_oneof![Just(1usize), Just(63), Just(64), Just(65), Just(130)],
            seed in any::<u64>(),
        ) {
            const DOMAIN: (f64, f64) = (-2.5, 7.5);
            let mut builder = Schema::builder().bits_per_attribute(bits);
            for attr in 0..arity {
                builder = builder.attribute(format!("a{attr}"), DOMAIN.0, DOMAIN.1);
            }
            let s = builder.build().unwrap();
            let mut mix = seed;
            let mut next = move || {
                mix = mix.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                mix >> 33
            };
            // Three cells per test case — the first, the last and one in
            // between — that every bound and value is drawn in or next to.
            let last = s.grid_size() - 1;
            let anchors = [0, next() % (last + 1), last];
            let width = (DOMAIN.1 - DOMAIN.0) / s.grid_size() as f64;
            let mut point = |attr: usize| {
                let cell = anchors[next() as usize % anchors.len()];
                let edge = s.dequantize(attr, cell).unwrap();
                let value = match next() % 8 {
                    0 => DOMAIN.0,
                    1 => DOMAIN.1,
                    2 => edge,
                    3 => edge.next_down(),
                    4 => edge.next_up(),
                    5 => edge + width,
                    _ => edge + width * (next() % 1024) as f64 / 1024.0,
                };
                value.clamp(DOMAIN.0, DOMAIN.1)
            };

            let mut local = MatchTable::new(&s);
            let mut routing = MatchTable::new(&s);
            let mut received = Vec::new();
            for id in 0..len as u64 {
                let bounds: Vec<(f64, f64)> = (0..arity)
                    .map(|attr| {
                        let (p, q) = (point(attr), point(attr));
                        (p.min(q), p.max(q))
                    })
                    .collect();
                let fresh = Subscription::from_raw_bounds(&s, id, &bounds).unwrap();
                local.insert_local(id * 7 % 5, &fresh);
                routing.insert_bounds(routing.len(), &fresh);
                received.push(fresh);
            }
            assert_aligned(&local, &s, true);
            assert_aligned(&routing, &s, false);
            for _ in 0..24 {
                let event = Event::new(&s, (0..arity).map(&mut point).collect()).unwrap();
                assert_kernel_matches_oracle(&local, &handles(&local, &s), &event);
                assert_kernel_matches_oracle(&routing, &received, &event);
            }
        }
    }

    /// The batched kernel on a grid whose cell tables are narrowed (2
    /// attributes x 16 bits, so 64 grid cells share a table entry), against
    /// `Subscription::matches`: bounds on the domain's ends, at `0.0` and
    /// `-0.0` (a cell edge), and inside cells that events share, on either
    /// side and on the bound; events with both zeros; and no slot at or
    /// past the end of either table.
    #[test]
    fn grid_masks_match_the_oracle_on_a_narrowed_grid() {
        let s = Schema::builder()
            .attribute("a", -1.0, 1.0)
            .attribute("b", -1.0, 1.0)
            .bits_per_attribute(16)
            .build()
            .unwrap();
        let bounds = [
            [(-1.0, 1.0), (-1.0, 1.0)],
            [(-1.0, 0.0), (0.0, 1.0)],
            [(-0.0, 0.5), (-1.0, -0.0)],
            [(0.0, 0.0), (-0.0, -0.0)],
            [(0.1, 0.2), (0.1, 0.2)],
            [(0.1001, 0.1002), (-1.0, 0.1001)],
            [(0.2, 1.0), (-0.3, 0.1)],
            // Only the lower bounds open, then only the upper ones.
            [(0.1, 1.0), (0.1, 1.0)],
            [(-1.0, 0.2), (-1.0, 0.2)],
        ];
        let mut local = MatchTable::new(&s);
        let mut routing = MatchTable::new(&s);
        let mut received = Vec::new();
        for (id, bounds) in (0..).zip(&bounds) {
            let fresh = Subscription::from_raw_bounds(&s, id, bounds).unwrap();
            local.insert_local(id, &fresh);
            routing.insert_bounds(routing.len(), &fresh);
            received.push(fresh);
        }
        let values = [
            -1.0,
            1.0,
            0.0,
            -0.0,
            0.1_f64.next_down(),
            0.1,
            0.1_f64.next_up(),
            0.10005,
            0.1001,
            0.2,
            0.2_f64.next_up(),
            -0.3,
        ];
        let mut events: Vec<Event> = Vec::new();
        for (i, &a) in values.iter().enumerate() {
            for &b in values.iter().skip(i % 3).step_by(3) {
                events.push(Event::new(&s, vec![a, b]).unwrap());
            }
        }
        let chunk = EventChunk::new(&s, &events);
        assert!(chunk.narrow > 0, "the cell tables are narrowed");
        assert_eq!(
            chunk.valid(),
            u64::MAX >> (EventChunk::WIDTH - events.len())
        );
        for (table, stored) in [(&local, &handles(&local, &s)), (&routing, &received)] {
            let view = chunk.view(table);
            for (slot, subscription) in stored.iter().enumerate() {
                let mut oracle = 0u64;
                for (bit, event) in events.iter().enumerate() {
                    oracle |= u64::from(subscription.matches(event)) << bit;
                }
                assert_eq!(view.mask(slot, u64::MAX), oracle, "{subscription}");
            }
            for past in [table.len(), table.len() + 1, MatchTable::BLOCK, usize::MAX] {
                assert_eq!(view.mask(past, u64::MAX), 0, "slot {past}");
            }
        }
        assert!(chunk.exact_paths.load(std::sync::atomic::Ordering::Relaxed) > 0);
    }

    /// The batched kernel compares raw values only where an event it
    /// matched shares the cell of an open bound: never for a burst whose
    /// events share cells only with bounds on their domain's ends, and for
    /// a slot whose bound, inside the domain, shares a cell with one.
    #[test]
    fn the_exact_path_runs_only_for_a_matched_event_in_an_open_bounds_cell() {
        let s = schema();
        let mut b = Broker::new(0, &[1], &s, CoveringPolicy::None).unwrap();
        // `low`'s upper bounds lie in cell 25, [39.0625, 40.625).
        let wide = sub(&s, 1, (0.0, 100.0), (0.0, 100.0));
        let low = sub(&s, 2, (0.0, 40.0), (0.0, 40.0));
        b.add_local(1, wide.clone());
        b.add_local(2, low.clone());
        b.add_received(1, &low);
        let burst = |values: &[[f64; 2]]| -> Vec<Event> {
            values
                .iter()
                .map(|v| Event::new(&s, v.to_vec()).unwrap())
                .collect()
        };
        let exact_paths = |chunk: &EventChunk| {
            let mut out = Vec::new();
            b.matching_clients_mask(chunk, chunk.valid(), |c, mask| out.push((c, mask)));
            let interested = b.neighbor_interested_mask(1, chunk, chunk.valid());
            let paths = chunk.exact_paths.load(std::sync::atomic::Ordering::Relaxed);
            (out, interested, paths)
        };

        // Cells 0 and 63 hold the domain's ends, which no value lies beyond.
        let events = burst(&[[0.0, 0.0], [100.0, 100.0], [20.0, 99.5], [0.5, 20.0]]);
        let chunk = EventChunk::new(&s, &events);
        assert!(events.iter().all(|e| wide.matches(e)));
        assert_eq!(
            exact_paths(&chunk),
            (vec![(1, 0b1111), (2, 0b1001)], 0b1001, 0)
        );

        // 40.3 and 39.5 share cell 25 with `low`'s open upper bounds.
        let events = burst(&[[0.0, 0.0], [40.3, 40.3], [39.5, 39.5]]);
        let chunk = EventChunk::new(&s, &events);
        assert!(!low.matches(&events[1]) && low.matches(&events[2]));
        let (out, interested, paths) = exact_paths(&chunk);
        assert_eq!((out, interested), (vec![(1, 0b111), (2, 0b101)], 0b101));
        assert!(paths > 0);
    }

    /// Every client `matching_clients` emits for an event holding `values`,
    /// repeats and all, in the order it emits them.
    fn emitted(b: &Broker, s: &Schema, values: &[f64]) -> Vec<ClientId> {
        let event = Event::new(s, values.to_vec()).unwrap();
        let mut out = Vec::new();
        let cells = EventCells::new(s, &event).unwrap();
        b.matching_clients(&cells, |client| out.push(client));
        out
    }

    /// The local sequence's invariants: every table aligned; clients
    /// ascending across the tables, so each client's run lies whole in one
    /// table; no empty table but a lone one; no table over the cap but one
    /// holding a single client's run.
    fn assert_local_tables(b: &Broker) {
        assert!(!b.local.is_empty());
        for table in &b.local {
            assert_aligned(table, &schema(), true);
            assert!(table.len() > 0 || b.local.len() == 1, "an empty table");
            let one_client = table.clients.first() == table.clients.last();
            assert!(
                table.len() <= LOCAL_CAP || one_client,
                "{} slots",
                table.len()
            );
        }
        for (table, next) in b.local.iter().zip(b.local.iter().skip(1)) {
            let (last, first) = (table.clients.last(), next.clients.first());
            assert!(last < first, "client {last:?} before {first:?}");
        }
    }

    /// The local cover invariant (see `Broker::local`) against `live`, the
    /// `(client, subscription)` pairs registered at `b`: the broker's audit
    /// against them finds nothing and names exactly their ids, the stored
    /// handles are theirs, and the runs of the clients `antichain` picks
    /// hold no slot another slot of the run raw-covers.
    fn assert_local_cover(
        b: &Broker,
        live: &[(ClientId, Subscription)],
        antichain: impl Fn(ClientId, usize) -> bool,
    ) {
        let registered: Registry = live.iter().map(|(client, s)| (s.id(), *client)).collect();
        let (mut found, mut sent, mut routed) = (Vec::new(), HashSet::new(), HashSet::new());
        let mut local = b.audit(&registered, true, &mut found, &mut sent, &mut routed);
        let mut ids: Vec<SubId> = registered.into_keys().collect();
        local.sort_unstable();
        ids.sort_unstable();
        assert_eq!((found, local), (vec![], ids));
        let by_id: HashMap<SubId, &Subscription> = live.iter().map(|(_, s)| (s.id(), s)).collect();
        let held = b.held.entries().map(|(_, held)| held.clone());
        let mut stored = b
            .local
            .iter()
            .flat_map(|table| handles(table, &schema()))
            .chain(held);
        assert!(stored.all(|s| by_id[&s.id()] == &s));
        for table in &b.local {
            let (mut start, slots) = (0, handles(table, &schema()));
            for run in table.clients.chunk_by(|a, c| a == c) {
                let handles = &slots[start..start + run.len()];
                start += run.len();
                if !antichain(run[0], run.len()) {
                    continue;
                }
                for (i, outer) in handles.iter().enumerate() {
                    for (j, inner) in handles.iter().enumerate() {
                        assert!(i == j || !outer.covers(inner), "{outer} over {inner}");
                    }
                }
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(4))]

        /// `add_local` / `remove_local` at one broker — 3 000 adds with a
        /// removal after about one in six, then a drain — keep the local
        /// sequence's invariants and the local cover invariant, and
        /// `matching_clients` (strictly ascending) and
        /// `matching_clients_mask` emit exactly the oracle's clients over
        /// every live subscription, held ones included, after every step.
        /// Clients are 0, `u64::MAX` and their neighbours, strided ids and
        /// ids interleaved between those; most adds go to one client whose
        /// run alone passes the cap. One add in four shrinks a live
        /// subscription of its client, down to an equal twin, and one in
        /// eight grows one, so the held path, demotion and re-adding are
        /// all common. (The big client's run is checked for the antichain
        /// every 64 steps: it is quadratic in the run.)
        #[test]
        fn local_tables_stay_client_ordered_and_capped(seed in any::<u64>()) {
            const ADDS: SubId = 3_000;
            const BIG: ClientId = 5 << 40;
            let s = schema();
            let mut b = Broker::new(0, &[], &s, CoveringPolicy::None).unwrap();
            let mut mix = seed;
            let mut next = move || {
                mix = mix.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                mix >> 33
            };
            // `Some(id)` adds subscription `id`, `None` removes a live one.
            let mut steps: Vec<Option<SubId>> = Vec::new();
            for id in 0..ADDS {
                steps.push(Some(id));
                if next() % 6 == 0 {
                    steps.push(None);
                }
            }
            let left = steps.iter().map(|step| if step.is_some() { 1 } else { -1 }).sum();
            steps.extend((0..left).map(|_: i64| None));
            let mut live: Vec<(ClientId, Subscription)> = Vec::new();
            let (mut oversized, mut demoted) = (false, false);
            for (step, add) in steps.into_iter().enumerate() {
                let touched = if let Some(id) = add {
                    let (client, bounds) = match (next() % 8, live.len()) {
                        (0..=1, n) if n > 0 => {
                            let (client, parent) = &live[next() as usize % n];
                            let inward = |(lo, hi): (f64, f64), d: f64| {
                                let lo = (lo + d).min(hi);
                                (lo, (hi - d).max(lo))
                            };
                            let bounds = parent.raw_bounds();
                            let d = (next() % 3) as f64;
                            (*client, [inward(bounds[0], d), inward(bounds[1], d)])
                        }
                        (2, n) if n > 0 => {
                            let (client, parent) = &live[next() as usize % n];
                            let outward = |(lo, hi): (f64, f64)| {
                                ((lo - 2.0).max(0.0), (hi + 2.0).min(100.0))
                            };
                            let bounds = parent.raw_bounds();
                            (*client, [outward(bounds[0]), outward(bounds[1])])
                        }
                        _ => {
                            let client = match next() % 8 {
                                0..=3 => BIG,
                                4 => [0, 1, u64::MAX - 1, u64::MAX][next() as usize % 4],
                                5 | 6 => (next() % 16) << 40,
                                _ => ((next() % 16) << 40) + 1 + next() % 3,
                            };
                            // One width: fresh ones nest only as equal twins.
                            let (x, y) = ((next() % 90) as f64, (next() % 90) as f64);
                            (client, [(x, x + 10.0), (y, y + 10.0)])
                        }
                    };
                    let fresh = sub(&s, id, bounds[0], bounds[1]);
                    let slots: usize = b.local_table_slots().iter().sum();
                    b.add_local(client, fresh.clone());
                    demoted |= b.local_table_slots().iter().sum::<usize>() < slots;
                    live.push((client, fresh));
                    client
                } else {
                    let (client, gone) = live.swap_remove(next() as usize % live.len());
                    let held = b.held.witness(gone.id()).is_some();
                    let promoted = b.remove_local(client, gone.id()).expect("registered");
                    prop_assert!(!held || promoted.is_empty());
                    for orphan in &promoted {
                        prop_assert!(b.held.witness(orphan.id()).is_none(), "took a slot");
                    }
                    client
                };
                assert_local_tables(&b);
                assert_local_cover(&b, &live, |client, len| {
                    client == touched && len <= 128 || step % 256 == 0
                });
                oversized |= b.local.iter().any(|table| table.len() > LOCAL_CAP);

                let values = [(next() % 101) as f64, (next() % 101) as f64];
                let oracle = |event: &Event| {
                    let mut clients: Vec<ClientId> = live
                        .iter()
                        .filter(|(_, subscription)| subscription.matches(event))
                        .map(|&(client, _)| client)
                        .collect();
                    clients.sort_unstable();
                    clients.dedup();
                    clients
                };
                let event = Event::new(&s, values.to_vec()).unwrap();
                let out = emitted(&b, &s, &values);
                prop_assert!(out.is_sorted_by(|a, c| a < c), "{:?}", out);
                prop_assert_eq!(out, oracle(&event));

                // The batched kernel over a few events: per client, the OR
                // of the oracle's verdicts.
                let events: Vec<Event> = (0..3)
                    .map(|_| {
                        let values = vec![(next() % 101) as f64, (next() % 101) as f64];
                        Event::new(&s, values).unwrap()
                    })
                    .collect();
                let mut expected: Vec<(ClientId, u64)> = Vec::new();
                for (bit, event) in events.iter().enumerate() {
                    for client in oracle(event) {
                        match expected.iter_mut().find(|(c, _)| *c == client) {
                            Some((_, mask)) => *mask |= 1 << bit,
                            None => expected.push((client, 1 << bit)),
                        }
                    }
                }
                expected.sort_unstable();
                prop_assert_eq!(emitted_mask(&b, &s, &events), expected);
            }
            prop_assert!(oversized, "one client's run alone passes the cap");
            prop_assert!(demoted, "a newcomer took over a slot it covers");
            prop_assert_eq!(b.local.len(), 1);
            prop_assert_eq!(b.local_table_slots(), vec![0]);
            prop_assert_eq!(b.held.len(), 0);
        }
    }

    /// The routing tail's three regimes over a four-block link table. Event
    /// `i` of a full chunk sits at `x = i + 0.5`; `wants[block]` names the
    /// events the block's slots match, one slot each, and filler no event
    /// meets pads every block to 64 slots. Where the tail takes over, some
    /// events are wanted only by the block it switches at.
    #[test]
    fn the_routing_tail_settles_from_the_block_it_switches_at() {
        assert_eq!(ROUTE_TAIL, 16, "the cases below count to 16");
        let s = schema();
        let events: Vec<Event> = (0..64)
            .map(|i| Event::new(&s, vec![i as f64 + 0.5, 50.0]).unwrap())
            .collect();
        let chunk = EventChunk::new(&s, &events);
        let link = |wants: [Range<usize>; 4]| {
            let mut b = Broker::new(0, &[1], &s, CoveringPolicy::None).unwrap();
            for (block, want) in wants.into_iter().enumerate() {
                let mut xs: Vec<_> = want.map(|i| (i as f64 + 0.25, i as f64 + 0.75)).collect();
                xs.resize(MatchTable::BLOCK, (90.0, 95.0));
                for (slot, x) in xs.into_iter().enumerate() {
                    let id = (block * MatchTable::BLOCK + slot) as SubId;
                    b.add_received(1, &sub(&s, id, x, (0.0, 100.0)));
                }
            }
            b
        };
        // 24 events nobody wants: above the threshold to the end, so the
        // rank pass carries the whole table.
        let b = link([0..20, 20..30, 30..35, 35..40]);
        assert_eq!(
            b.neighbor_interested_mask(1, &chunk, u64::MAX),
            (1 << 40) - 1
        );
        // 16 events asked: the tail from slot 0, events 0-3 wanted only there.
        let b = link([0..4, 40..41, 41..42, 8..12]);
        assert_eq!(b.neighbor_interested_mask(1, &chunk, 0xffff), 0x0f0f);
        // 48 events settled by the third block's seam: the tail from there,
        // events 48-55 wanted only in that block.
        let b = link([0..30, 30..48, 48..56, 56..60]);
        assert_eq!(
            b.neighbor_interested_mask(1, &chunk, u64::MAX),
            (1 << 60) - 1
        );
    }

    #[test]
    fn local_matching_and_neighbor_interest() {
        let s = schema();
        let mut b = Broker::new(3, &[0], &s, CoveringPolicy::ExactLinear).unwrap();
        b.add_local(100, sub(&s, 1, (0.0, 50.0), (0.0, 50.0)));
        b.add_local(101, sub(&s, 2, (60.0, 90.0), (60.0, 90.0)));
        b.add_received(0, &sub(&s, 3, (0.0, 10.0), (0.0, 10.0)));
        let interested = |values: [f64; 2]| {
            let event = Event::new(&s, values.to_vec()).unwrap();
            b.neighbor_interested(0, &EventCells::new(&s, &event).unwrap())
        };

        assert_eq!(emitted(&b, &s, &[5.0, 5.0]), vec![100]);
        assert!(interested([5.0, 5.0]));
        assert!(!interested([99.0, 99.0]));
        // In the cell of the routing entry's upper bound, beyond the bound.
        assert!(!interested([10.5, 10.5]));
        assert!(emitted(&b, &s, &[99.0, 99.0]).is_empty());
        assert_eq!(b.routing_table_entries(), 1);
        assert_eq!(b.local_subscriptions(), 2);
    }
}
