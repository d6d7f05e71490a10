//! Event schedulers: the hierarchical timing wheel and the binary-heap
//! oracle behind the kernel's event queue.
//!
//! The engine dispatches events in `(at, seq)` order — absolute
//! nanosecond timestamp, then insertion sequence number — and every run
//! must be bit-for-bit deterministic. Both backends here implement that
//! total order exactly; they differ only in cost:
//!
//! * [`HeapScheduler`] is the original `BinaryHeap<Reverse<Scheduled>>`:
//!   O(log n) per push/pop with whole-`Scheduled` sift moves. It is kept
//!   as the *differential-testing oracle* — trivially correct by
//!   construction — and selectable via `ROCC_SCHEDULER=heap`.
//! * [`TimingWheel`] is a hierarchical timing wheel (Varghese & Lauck):
//!   8 levels × 256 slots of FIFO buckets keyed by the bytes of the
//!   timestamp, covering the full `u64` nanosecond range (so the
//!   `SimTime::MAX` sentinel needs no special case). Push and pop are
//!   O(1) amortized; per-level occupancy bitmaps make the next-slot scan
//!   four word tests. This is the default backend.
//!
//! ## Why the wheel preserves `(at, seq)` order bit-identically
//!
//! Level = index of the highest byte in which `at` differs from the
//! wheel's clock `now`; slot = that byte of `at`. Three invariants carry
//! the proof:
//!
//! 1. **Same `at` ⇒ same bucket, in seq order.** Two events with equal
//!    `at` land in the same slot of the same level at every point in
//!    time, and each bucket keeps its equal-`at` entries sorted by seq,
//!    so equal-timestamp runs always pop in seq order. A push appends
//!    when its seq is newer than every seq the wheel has ever been
//!    pushed, which holds for every fresh kernel push (the kernel issues
//!    seqs in increasing order). Any other push (a host timer forwarded
//!    to the seq reserved when it was armed, or a snapshot restore
//!    replaying the queue in `(at, seq)` order) goes before the first
//!    equal-`at` entry in its bucket with a later seq. The bucket's back
//!    entry can't stand in for that search: overflow buckets mix
//!    instants, so their back need not hold their newest seq. Cascades
//!    and rebases move buckets front to back, so they keep that order
//!    without a search.
//! 2. **Level-0 buckets are single-instant.** An occupied level-0 slot
//!    shares its upper 56 bits with `now`, so the slot index pins the
//!    full timestamp: the lowest occupied slot holds exactly the global
//!    minimum's bucket.
//! 3. **Cascades don't reorder.** Expanding the lowest occupied slot of
//!    the lowest occupied overflow level re-inserts its FIFO bucket
//!    front-to-back into strictly lower levels; relative order of
//!    equal-`at` events is preserved (they move together, in order), and
//!    no other bucket's level assignment changes because the clock only
//!    advances within the expanded slot's window.
//!
//! ## Pushes into the past
//!
//! The run loops pop an event to *look* at it and requeue it when it
//! lies beyond the run's deadline; the pop advanced the wheel clock to
//! that event's timestamp, but the kernel clock rewinds to the deadline.
//! A later `schedule()` may then legitimately target the gap. The wheel
//! handles any push below its clock by **rebasing**: drain every bucket
//! and re-insert relative to the new, smaller clock. O(n), but it can
//! only happen right after a deadline requeue — never in the steady
//! state — and correctness is what's non-negotiable here. The
//! always-counted [`SchedStats::rebases`] makes the cost observable.

use crate::engine::Event;
use crate::time::SimTime;
use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};

/// One queued event: absolute due time, insertion sequence number (the
/// deterministic tiebreak), and the event payload.
#[derive(Debug)]
pub struct Scheduled {
    /// Absolute due time.
    pub at: SimTime,
    /// Kernel-issued insertion sequence number; orders same-instant
    /// events deterministically.
    pub seq: u64,
    /// The event payload.
    pub ev: Event,
}

impl PartialEq for Scheduled {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}
impl Eq for Scheduled {}
impl PartialOrd for Scheduled {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Scheduled {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.at, self.seq).cmp(&(other.at, other.seq))
    }
}

/// Overflow levels in the timing wheel. 8 levels × 8 bits per level
/// cover the entire `u64` nanosecond axis, so any representable
/// timestamp — including the `SimTime::MAX` "never" sentinel — has a
/// bucket.
pub const WHEEL_LEVELS: usize = 8;
/// Slot-index bits per level (256 slots).
const SLOT_BITS: u32 = 8;
/// Slots per level.
const SLOTS: usize = 1 << SLOT_BITS;
/// `u64` words in a per-level occupancy bitmap.
const OCC_WORDS: usize = SLOTS / 64;

/// Always-on scheduler introspection counters (plain integer bumps on
/// cold paths; the profiler exports them).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SchedStats {
    /// Overflow-slot expansions performed by pops.
    pub cascades: u64,
    /// Events moved to a lower level by those expansions.
    pub cascaded_events: u64,
    /// Full drain-and-reinsert rebases triggered by pushes below the
    /// wheel clock (deadline-requeue aftermath; see module docs).
    pub rebases: u64,
    /// Highest wheel level any event was ever inserted at.
    pub max_level: u8,
}

/// The scheduling contract the kernel drives and both backends honor:
/// events pop in ascending `(at, seq)` order, with [`Scheduler::requeue`]
/// restoring the most recently popped minimum to the head.
pub trait Scheduler {
    /// Insert an event. `at` may be below the most recently popped
    /// timestamp (see the module docs on rebasing); order among live
    /// entries is always `(at, seq)`.
    fn push(&mut self, s: Scheduled);

    /// Remove and return the minimum `(at, seq)` entry.
    fn pop(&mut self) -> Option<Scheduled>;

    /// Put back an event just obtained from [`Scheduler::pop`], restoring
    /// it to the head of the queue. Precondition: `s` was the most recent
    /// pop and nothing was pushed or popped since — i.e. `s` is still ≤
    /// every live entry. (The run loops use this for not-yet-due events.)
    fn requeue(&mut self, s: Scheduled);

    /// Live entry count.
    fn len(&self) -> usize;

    /// Whether no entries are pending.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Every live entry, in arbitrary order (the snapshot codec sorts by
    /// `(at, seq)` itself so the serialized form is backend-independent).
    fn entries(&self) -> Vec<(SimTime, u64, &Event)>;

    /// Introspection counters (all-zero for the heap).
    fn stats(&self) -> SchedStats;

    /// Current per-level entry counts (all-zero for the heap), for the
    /// profiler's bucket-occupancy series.
    fn level_depths(&self) -> [u64; WHEEL_LEVELS];

    /// Backend name for reports ("heap" / "wheel").
    fn name(&self) -> &'static str;
}

// ------------------------------------------------------------- heap oracle

/// The original binary-heap scheduler, kept as the differential-testing
/// oracle (`ROCC_SCHEDULER=heap`).
#[derive(Debug, Default)]
pub struct HeapScheduler {
    heap: BinaryHeap<Reverse<Scheduled>>,
}

impl Scheduler for HeapScheduler {
    #[inline]
    fn push(&mut self, s: Scheduled) {
        self.heap.push(Reverse(s));
    }

    #[inline]
    fn pop(&mut self) -> Option<Scheduled> {
        self.heap.pop().map(|r| r.0)
    }

    #[inline]
    fn requeue(&mut self, s: Scheduled) {
        self.heap.push(Reverse(s));
    }

    #[inline]
    fn len(&self) -> usize {
        self.heap.len()
    }

    fn entries(&self) -> Vec<(SimTime, u64, &Event)> {
        self.heap.iter().map(|r| (r.0.at, r.0.seq, &r.0.ev)).collect()
    }

    fn stats(&self) -> SchedStats {
        SchedStats::default()
    }

    fn level_depths(&self) -> [u64; WHEEL_LEVELS] {
        [0; WHEEL_LEVELS]
    }

    fn name(&self) -> &'static str {
        "heap"
    }
}

// ------------------------------------------------------------ timing wheel

/// Hierarchical timing wheel: 8 levels × 256 FIFO buckets with per-level
/// occupancy bitmaps. See the module docs for layout and ordering proof.
#[derive(Debug)]
pub struct TimingWheel {
    /// The wheel clock: the timestamp of the most recent pop (0 before
    /// any). All bucket/level assignments are relative to it.
    now_ns: u64,
    /// Live entry count.
    len: usize,
    /// `WHEEL_LEVELS * SLOTS` FIFO buckets, indexed `level * SLOTS + slot`.
    /// Buckets keep their allocation once grown, so steady-state churn
    /// allocates nothing.
    buckets: Vec<VecDeque<Scheduled>>,
    /// Per-level slot-occupancy bitmaps.
    occ: [[u64; OCC_WORDS]; WHEEL_LEVELS],
    /// Per-level live entry counts (drives the cascade scan and the
    /// profiler's occupancy series).
    level_len: [u64; WHEEL_LEVELS],
    /// Scratch buffer reused by cascades so expanding a bucket never
    /// allocates in steady state.
    scratch: Vec<Scheduled>,
    /// Newest seq ever pushed. Every queued entry's seq is at most this,
    /// so a push with a newer seq may append to its bucket.
    max_seq: u64,
    stats: SchedStats,
}

impl Default for TimingWheel {
    fn default() -> Self {
        TimingWheel {
            now_ns: 0,
            len: 0,
            buckets: (0..WHEEL_LEVELS * SLOTS).map(|_| VecDeque::new()).collect(),
            occ: [[0; OCC_WORDS]; WHEEL_LEVELS],
            level_len: [0; WHEEL_LEVELS],
            scratch: Vec::new(),
            max_seq: 0,
            stats: SchedStats::default(),
        }
    }
}

/// Index of the highest byte in which `at` differs from `now` (0 when
/// equal): the wheel level of an entry due at `at`.
#[inline]
fn level_of(at: u64, now: u64) -> usize {
    let diff = at ^ now;
    if diff == 0 {
        0
    } else {
        (63 - diff.leading_zeros() as usize) >> 3
    }
}

/// Lowest set slot index in a level's occupancy bitmap.
#[inline]
fn first_occupied(occ: &[u64; OCC_WORDS]) -> Option<usize> {
    for (w, &bits) in occ.iter().enumerate() {
        if bits != 0 {
            return Some((w << 6) | bits.trailing_zeros() as usize);
        }
    }
    None
}

impl TimingWheel {
    /// Mark the bucket of an entry due at `at` (relative to the current
    /// clock) as holding one more entry and return its index. Does not
    /// touch `len` (cascades move entries without changing the total).
    #[inline]
    fn claim(&mut self, at: u64) -> usize {
        debug_assert!(at >= self.now_ns, "insert below the wheel clock");
        let lvl = level_of(at, self.now_ns);
        let slot = ((at >> (SLOT_BITS * lvl as u32)) & (SLOTS as u64 - 1)) as usize;
        self.occ[lvl][slot >> 6] |= 1u64 << (slot & 63);
        self.level_len[lvl] += 1;
        if lvl as u8 > self.stats.max_level {
            self.stats.max_level = lvl as u8;
        }
        (lvl << SLOT_BITS) | slot
    }

    /// Append `s` to its bucket. Cascades and rebases move entries in
    /// bucket order into buckets holding no other entry of the same
    /// instant, so appending keeps each instant's seq order.
    #[inline]
    fn insert(&mut self, s: Scheduled) {
        let i = self.claim(s.at.as_nanos());
        self.buckets[i].push_back(s);
    }

    /// Drain every bucket and re-insert relative to a smaller clock.
    /// Per-bucket FIFO order is preserved, and equal-`at` events always
    /// share a bucket, so `(at, seq)` order survives the rebase.
    #[cold]
    fn rebase(&mut self, new_now_ns: u64) {
        self.stats.rebases += 1;
        let mut all = Vec::with_capacity(self.len);
        for b in &mut self.buckets {
            all.extend(b.drain(..));
        }
        self.occ = [[0; OCC_WORDS]; WHEEL_LEVELS];
        self.level_len = [0; WHEEL_LEVELS];
        self.now_ns = new_now_ns;
        for s in all {
            self.insert(s);
        }
    }

    /// Expand the lowest occupied slot of the lowest occupied overflow
    /// level into lower levels, advancing the clock to that slot's
    /// window start. Caller guarantees level 0 is empty and `len > 0`.
    #[cold]
    fn cascade(&mut self) {
        let lvl = (1..WHEEL_LEVELS)
            .find(|&l| self.level_len[l] > 0)
            .expect("cascade called on an empty wheel");
        let slot = first_occupied(&self.occ[lvl]).expect("level_len/occ out of sync");
        // The slot's window start: bytes above `lvl` from the clock, byte
        // `lvl` = slot, lower bytes zero. Occupied slots are never behind
        // the cursor (no entries below the clock), so this only advances.
        let keep_above = if lvl == WHEEL_LEVELS - 1 {
            0
        } else {
            self.now_ns & !((1u64 << (SLOT_BITS * (lvl as u32 + 1))) - 1)
        };
        let new_now = keep_above | ((slot as u64) << (SLOT_BITS * lvl as u32));
        debug_assert!(new_now > self.now_ns);
        self.now_ns = new_now;
        let idx = (lvl << SLOT_BITS) | slot;
        let mut moved = std::mem::take(&mut self.scratch);
        moved.extend(self.buckets[idx].drain(..));
        self.occ[lvl][slot >> 6] &= !(1u64 << (slot & 63));
        self.level_len[lvl] -= moved.len() as u64;
        self.stats.cascades += 1;
        self.stats.cascaded_events += moved.len() as u64;
        // Re-inserts land strictly below `lvl`: every moved timestamp
        // shares bytes ≥ lvl with the new clock.
        for s in moved.drain(..) {
            self.insert(s);
        }
        self.scratch = moved;
    }
}

impl Scheduler for TimingWheel {
    #[inline]
    fn push(&mut self, s: Scheduled) {
        if s.at.as_nanos() < self.now_ns {
            self.rebase(s.at.as_nanos());
        }
        let i = self.claim(s.at.as_nanos());
        let bucket = &mut self.buckets[i];
        if s.seq > self.max_seq {
            // No queued entry has a later seq: appending keeps order.
            self.max_seq = s.seq;
            bucket.push_back(s);
        } else {
            // A reserved (older) seq: its place is before the first entry
            // due at the same instant with a later seq. Upper-level
            // buckets mix instants, so the back entry alone can't tell.
            let pos = bucket
                .iter()
                .position(|e| e.at == s.at && e.seq > s.seq)
                .unwrap_or(bucket.len());
            bucket.insert(pos, s);
        }
        self.len += 1;
    }

    #[inline]
    fn pop(&mut self) -> Option<Scheduled> {
        if self.len == 0 {
            return None;
        }
        loop {
            if self.level_len[0] > 0 {
                // Level-0 slots pin full timestamps (invariant 2): the
                // lowest occupied slot is the global minimum's bucket,
                // and its FIFO front is the minimum (invariant 1).
                let slot = first_occupied(&self.occ[0]).expect("level_len/occ out of sync");
                let bucket = &mut self.buckets[slot];
                let s = bucket.pop_front().expect("occupied slot with empty bucket");
                if bucket.is_empty() {
                    self.occ[0][slot >> 6] &= !(1u64 << (slot & 63));
                }
                self.level_len[0] -= 1;
                self.len -= 1;
                self.now_ns = s.at.as_nanos();
                return Some(s);
            }
            self.cascade();
        }
    }

    #[inline]
    fn requeue(&mut self, s: Scheduled) {
        // `s` was the most recent pop, so it is ≤ every live entry:
        // front-pushed into its bucket it becomes the head again, even
        // when the bucket already holds equal-`at`, later-seq events.
        let at = s.at.as_nanos();
        if at < self.now_ns {
            self.rebase(at);
        }
        let i = self.claim(at);
        self.buckets[i].push_front(s);
        self.len += 1;
    }

    #[inline]
    fn len(&self) -> usize {
        self.len
    }

    fn entries(&self) -> Vec<(SimTime, u64, &Event)> {
        self.buckets
            .iter()
            .flatten()
            .map(|s| (s.at, s.seq, &s.ev))
            .collect()
    }

    fn stats(&self) -> SchedStats {
        self.stats
    }

    fn level_depths(&self) -> [u64; WHEEL_LEVELS] {
        self.level_len
    }

    fn name(&self) -> &'static str {
        "wheel"
    }
}

// ---------------------------------------------------------------- backend

/// Which scheduler backend the kernel runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Backend {
    /// The binary-heap oracle.
    Heap,
    /// The hierarchical timing wheel (default).
    Wheel,
}

impl Backend {
    /// Resolve the backend from the `ROCC_SCHEDULER` environment variable
    /// (`heap` | `wheel`; unset or empty means wheel). The choice lives
    /// outside [`crate::config::SimConfig`] on purpose: both backends
    /// produce bit-identical schedules, so it must not perturb the
    /// config digest that snapshots and observatory goldens bind to.
    pub fn from_env() -> Backend {
        match std::env::var("ROCC_SCHEDULER").as_deref() {
            Ok("heap") => Backend::Heap,
            Ok("wheel") | Ok("") | Err(_) => Backend::Wheel,
            Ok(other) => panic!("ROCC_SCHEDULER={other:?}: expected \"heap\" or \"wheel\""),
        }
    }

    /// Stable lowercase name, as recorded in bench documents.
    pub fn name(self) -> &'static str {
        match self {
            Backend::Heap => "heap",
            Backend::Wheel => "wheel",
        }
    }
}

/// Enum dispatcher the kernel embeds: static dispatch over the two
/// backends (one predictable branch per op, no vtable), while the
/// [`Scheduler`] trait stays available for differential tests that drive
/// backends generically.
// One instance lives embedded in the kernel for the whole run; boxing
// the wheel to shrink the enum would put a pointer chase on every
// push/pop, which is exactly what this module exists to avoid.
#[allow(clippy::large_enum_variant)]
#[derive(Debug)]
pub enum SchedulerImpl {
    /// Binary-heap oracle.
    Heap(HeapScheduler),
    /// Hierarchical timing wheel.
    Wheel(TimingWheel),
}

impl SchedulerImpl {
    /// Fresh, empty scheduler of the given backend.
    pub fn new(backend: Backend) -> Self {
        match backend {
            Backend::Heap => SchedulerImpl::Heap(HeapScheduler::default()),
            Backend::Wheel => SchedulerImpl::Wheel(TimingWheel::default()),
        }
    }

    /// Which backend this is.
    pub fn backend(&self) -> Backend {
        match self {
            SchedulerImpl::Heap(_) => Backend::Heap,
            SchedulerImpl::Wheel(_) => Backend::Wheel,
        }
    }
}

impl Scheduler for SchedulerImpl {
    #[inline]
    fn push(&mut self, s: Scheduled) {
        match self {
            SchedulerImpl::Heap(h) => h.push(s),
            SchedulerImpl::Wheel(w) => w.push(s),
        }
    }

    #[inline]
    fn pop(&mut self) -> Option<Scheduled> {
        match self {
            SchedulerImpl::Heap(h) => h.pop(),
            SchedulerImpl::Wheel(w) => w.pop(),
        }
    }

    #[inline]
    fn requeue(&mut self, s: Scheduled) {
        match self {
            SchedulerImpl::Heap(h) => h.requeue(s),
            SchedulerImpl::Wheel(w) => w.requeue(s),
        }
    }

    #[inline]
    fn len(&self) -> usize {
        match self {
            SchedulerImpl::Heap(h) => h.len(),
            SchedulerImpl::Wheel(w) => w.len(),
        }
    }

    fn entries(&self) -> Vec<(SimTime, u64, &Event)> {
        match self {
            SchedulerImpl::Heap(h) => h.entries(),
            SchedulerImpl::Wheel(w) => w.entries(),
        }
    }

    fn stats(&self) -> SchedStats {
        match self {
            SchedulerImpl::Heap(h) => Scheduler::stats(h),
            SchedulerImpl::Wheel(w) => Scheduler::stats(w),
        }
    }

    fn level_depths(&self) -> [u64; WHEEL_LEVELS] {
        match self {
            SchedulerImpl::Heap(h) => h.level_depths(),
            SchedulerImpl::Wheel(w) => w.level_depths(),
        }
    }

    fn name(&self) -> &'static str {
        match self {
            SchedulerImpl::Heap(h) => h.name(),
            SchedulerImpl::Wheel(w) => w.name(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn ev() -> Event {
        Event::Sample
    }

    fn sch(at: u64, seq: u64) -> Scheduled {
        Scheduled {
            at: SimTime::from_nanos(at),
            seq,
            ev: ev(),
        }
    }

    /// Drain a scheduler completely, returning the `(at, seq)` pop order.
    fn drain(s: &mut impl Scheduler) -> Vec<(u64, u64)> {
        let mut out = Vec::new();
        while let Some(x) = s.pop() {
            out.push((x.at.as_nanos(), x.seq));
        }
        out
    }

    #[test]
    fn same_timestamp_bursts_pop_in_seq_order() {
        // Satellite: same-timestamp FIFO bursts. A burst of events at one
        // instant interleaved with other instants must pop in (at, seq).
        for mk in [
            || Box::new(SchedulerImpl::new(Backend::Wheel)),
            || Box::new(SchedulerImpl::new(Backend::Heap)),
        ] {
            let mut s = mk();
            let mut seq = 0u64;
            let mut expect = Vec::new();
            for at in [500u64, 100, 500, 500, 100, 7, 500] {
                seq += 1;
                s.push(sch(at, seq));
                expect.push((at, seq));
            }
            expect.sort_unstable();
            assert_eq!(drain(&mut *s), expect, "{} backend", s.name());
        }
    }

    #[test]
    fn far_future_events_cascade_down_in_order() {
        // Satellite: far-future overflow-level cascade. Timestamps spread
        // across every wheel level, including the u64::MAX sentinel.
        let mut w = TimingWheel::default();
        let ats = [
            3u64,
            250,
            0x1_23,
            0x45_67_89,
            0xAB_CD_EF_01,
            0x12_34_56_78_9A,
            0xFE_DC_BA_98_76_54_32,
            u64::MAX,
        ];
        for (i, &at) in ats.iter().enumerate() {
            w.push(sch(at, i as u64 + 1));
        }
        assert_eq!(Scheduler::stats(&w).max_level as usize, WHEEL_LEVELS - 1);
        let order = drain(&mut w);
        let mut expect: Vec<(u64, u64)> =
            ats.iter().enumerate().map(|(i, &a)| (a, i as u64 + 1)).collect();
        expect.sort_unstable();
        assert_eq!(order, expect);
        assert!(
            Scheduler::stats(&w).cascades > 0,
            "multi-level spread must cascade"
        );
        assert_eq!(
            Scheduler::stats(&w).cascaded_events >= ats.len() as u64 - 2,
            true,
            "most events lived above level 0"
        );
    }

    #[test]
    fn schedule_during_dispatch_at_current_tick_stays_fifo() {
        // Satellite: schedule-during-dispatch at the current tick. While
        // dispatching an event at t (wheel clock == t), new events pushed
        // at exactly t must run after already-queued ones at t, in seq
        // order — the engine's zero-delay self-reschedule pattern.
        let mut w = TimingWheel::default();
        w.push(sch(1000, 1));
        w.push(sch(1000, 2));
        let first = w.pop().unwrap();
        assert_eq!((first.at.as_nanos(), first.seq), (1000, 1));
        // "dispatch" of seq 1 schedules two more events at the same tick
        // and one in the future.
        w.push(sch(1000, 3));
        w.push(sch(1010, 4));
        w.push(sch(1000, 5));
        assert_eq!(drain(&mut w), vec![(1000, 2), (1000, 3), (1000, 5), (1010, 4)]);
    }

    #[test]
    fn requeue_restores_the_head_before_equal_timestamp_events() {
        for mk in [
            || SchedulerImpl::new(Backend::Wheel),
            || SchedulerImpl::new(Backend::Heap),
        ] {
            let mut s = mk();
            s.push(sch(42, 1));
            s.push(sch(42, 2));
            s.push(sch(42, 3));
            let head = s.pop().unwrap();
            assert_eq!(head.seq, 1);
            s.requeue(head);
            assert_eq!(
                drain(&mut s),
                vec![(42, 1), (42, 2), (42, 3)],
                "{} backend: requeue must restore the head",
                s.name()
            );
        }
    }

    #[test]
    fn push_below_the_wheel_clock_rebases_and_stays_ordered() {
        // The deadline-requeue aftermath: a pop advanced the wheel clock,
        // then new work arrives below it.
        let mut w = TimingWheel::default();
        w.push(sch(5000, 1));
        assert_eq!(w.pop().unwrap().at.as_nanos(), 5000);
        w.push(sch(4800, 2)); // below the clock → rebase
        w.push(sch(5100, 3));
        w.push(sch(4800, 4));
        assert!(Scheduler::stats(&w).rebases >= 1);
        assert_eq!(drain(&mut w), vec![(4800, 2), (4800, 4), (5100, 3)]);
    }

    #[test]
    fn requeue_below_the_wheel_clock_rebases() {
        // run_until deadline flow at wheel level: pop a far event (clock
        // jumps there), requeue it, then push near-term work that the
        // next run_until call must see first.
        let mut w = TimingWheel::default();
        w.push(sch(1_000_000, 1));
        let far = w.pop().unwrap();
        w.requeue(far);
        w.push(sch(600_000, 2));
        assert_eq!(drain(&mut w), vec![(600_000, 2), (1_000_000, 1)]);
    }

    #[test]
    fn level_depths_and_len_track_contents() {
        let mut w = TimingWheel::default();
        assert!(Scheduler::is_empty(&w));
        w.push(sch(1, 1));
        w.push(sch(0x10_00, 2));
        w.push(sch(0x10_00_00, 3));
        assert_eq!(Scheduler::len(&w), 3);
        let depths = Scheduler::level_depths(&w);
        assert_eq!(depths.iter().sum::<u64>(), 3);
        assert_eq!(depths[0], 1);
        assert_eq!(depths[1], 1);
        assert_eq!(depths[2], 1);
        assert_eq!(Scheduler::entries(&w).len(), 3);
        let _ = w.pop();
        assert_eq!(Scheduler::len(&w), 2);
    }

    #[test]
    fn reserved_push_takes_its_seq_place_among_equal_instants() {
        // A push whose seq is older than queued equal-`at` entries (a host
        // timer forwarded to the seq reserved when it was armed) must pop
        // before them, whichever level the bucket sits at, and keep that
        // place through the cascades that bring it down to level 0.
        for at in [7u64, 0x1_23, 0x45_67_89, 0xAB_CD_EF_01] {
            let mut heap = SchedulerImpl::new(Backend::Heap);
            let mut wheel = SchedulerImpl::new(Backend::Wheel);
            for (a, seq) in [(at, 2), (at + 1, 5), (at, 4), (at, 3), (at - 1, 6), (at, 1)] {
                heap.push(sch(a, seq));
                wheel.push(sch(a, seq));
            }
            let want = drain(&mut heap);
            assert_eq!(&want[..], &[(at - 1, 6), (at, 1), (at, 2), (at, 3), (at, 4), (at + 1, 5)]);
            assert_eq!(drain(&mut wheel), want, "at {at:#x}");
        }
    }

    #[test]
    fn reserved_push_into_a_mixed_instant_bucket_stays_ordered() {
        // An upper-level bucket mixes instants, so its back entry need not
        // hold its newest seq: after the older-seq (0x110, 1) lands behind
        // (0x100, 3), a reserved (0x100, 2) must still go before (0x100, 3).
        let mut heap = SchedulerImpl::new(Backend::Heap);
        let mut wheel = SchedulerImpl::new(Backend::Wheel);
        for (at, seq) in [(0x100, 3), (0x110, 1), (0x100, 2)] {
            heap.push(sch(at, seq));
            wheel.push(sch(at, seq));
        }
        let want = drain(&mut heap);
        assert_eq!(want, vec![(0x100, 2), (0x100, 3), (0x110, 1)]);
        assert_eq!(drain(&mut wheel), want);
    }

    #[test]
    fn reserved_push_after_a_rebase_stays_ordered() {
        let mut w = TimingWheel::default();
        w.push(sch(5000, 1));
        assert_eq!(w.pop().unwrap().at.as_nanos(), 5000);
        w.push(sch(6000, 5));
        w.push(sch(6000, 7));
        w.push(sch(4800, 8)); // below the clock: rebase
        w.push(sch(6000, 6)); // reserved seq between the queued ones
        w.push(sch(6000, 2));
        assert!(Scheduler::stats(&w).rebases >= 1);
        assert_eq!(
            drain(&mut w),
            vec![(4800, 8), (6000, 2), (6000, 5), (6000, 6), (6000, 7)]
        );
    }

    // Satellite: always-on differential proptest, heap vs wheel over
    // random event streams (pushes with clustered timestamps, pops, and
    // head requeues — the full kernel op set — plus reserved pushes that
    // carry an older seq into instants already queued under later seqs).
    proptest! {
        #[test]
        fn differential_heap_vs_wheel(ops in proptest::collection::vec(
            (0u8..13, 0u64..5, 0u64..64), 1..400)
        ) {
            let mut heap = SchedulerImpl::new(Backend::Heap);
            let mut wheel = SchedulerImpl::new(Backend::Wheel);
            let mut seq = 0u64;
            let mut clock = 0u64;
            // Seqs issued but not yet pushed, and every instant pushed so
            // far (targets for reserved pushes into occupied buckets).
            let mut reserved: Vec<u64> = Vec::new();
            let mut ats: Vec<u64> = Vec::new();
            for (op, scale, delta) in ops {
                if op < 5 {
                    // Push: timestamps cluster near the clock but reach
                    // far-future levels via the scale factor (collisions
                    // at identical instants are common by construction).
                    seq += 1;
                    let at = clock + delta * 257u64.pow(scale as u32);
                    heap.push(sch(at, seq));
                    wheel.push(sch(at, seq));
                    ats.push(at);
                } else if op == 5 {
                    // Reserve a seq; later fresh pushes get newer ones.
                    seq += 1;
                    reserved.push(seq);
                } else if op < 8 {
                    // Reserved push: an older seq, either into an instant
                    // already pushed (level 0 or an overflow level,
                    // depending on its distance from the clock) or just
                    // past one, which mostly shares its overflow bucket
                    // but not its instant (so those buckets mix instants
                    // with out-of-order seqs). Pops and requeues before
                    // and after drive cascades and rebases over it.
                    if reserved.is_empty() {
                        continue;
                    }
                    let r = reserved.remove(delta as usize % reserved.len());
                    let at = if ats.is_empty() {
                        clock + delta * 257u64.pow(scale as u32)
                    } else {
                        let near = ats[(delta as usize * 31 + scale as usize) % ats.len()];
                        near.max(clock) + if op == 6 { 0 } else { 1 + delta % 3 }
                    };
                    heap.push(sch(at, r));
                    wheel.push(sch(at, r));
                    ats.push(at);
                } else if op < 12 {
                    // Pop from both; results must agree exactly.
                    let a = heap.pop().map(|s| (s.at.as_nanos(), s.seq));
                    let b = wheel.pop().map(|s| (s.at.as_nanos(), s.seq));
                    prop_assert_eq!(a, b, "pop order diverged");
                    if let Some((at, _)) = a {
                        clock = at;
                    }
                } else {
                    // Pop-and-requeue the head in both (the run-loop
                    // deadline pattern); clock intentionally NOT advanced,
                    // so later pushes can land below the wheel clock and
                    // exercise the rebase path.
                    if let (Some(a), Some(b)) = (heap.pop(), wheel.pop()) {
                        prop_assert_eq!((a.at, a.seq), (b.at, b.seq));
                        heap.requeue(a);
                        wheel.requeue(b);
                    }
                }
                prop_assert_eq!(heap.len(), wheel.len());
            }
            // Full drain must agree.
            loop {
                let a = heap.pop().map(|s| (s.at.as_nanos(), s.seq));
                let b = wheel.pop().map(|s| (s.at.as_nanos(), s.seq));
                prop_assert_eq!(a, b, "drain order diverged");
                if a.is_none() {
                    break;
                }
            }
        }
    }
}
