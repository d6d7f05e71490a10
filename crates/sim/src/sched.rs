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
//!   a 4,096-slot level 0 of one nanosecond per slot, and seven 256-slot
//!   levels above it, keyed by bit fields of the timestamp. Together they
//!   cover the full `u64` nanosecond range, so the `SimTime::MAX`
//!   sentinel needs no special case. Push and pop are O(1) amortized;
//!   occupancy bitmaps find the next occupied slot in a few word tests.
//!   This is the default backend.
//!
//! ## Layout
//!
//! Level 0 keys bits 0–11 of the timestamp; level `l` ≥ 1 keys bits
//! `12 + 8(l−1)` to `19 + 8(l−1)`, so level 7 holds the top four bits.
//! A level-0 window spans 4,096 ns, longer than a serialization or a
//! 1.5 µs link hop, so most events are pushed straight into level 0 and
//! never cascade.
//!
//! Each queued [`Scheduled`] is stored exactly once, in a slab of nodes.
//! Freed nodes go on a LIFO free list threaded through their `next`
//! links, so the slab holds at most as many nodes as the peak count of
//! live entries. A bucket is an intrusive singly linked FIFO: a head and
//! a tail link. A link is a slab index plus one, so 0 means "none" and
//! the zero-initialised bucket array starts empty. Cascades and rebases
//! relink nodes; they never copy an entry. The bucket array is 5,888 ×
//! 8 bytes (46 KB). Level 0's 64-word occupancy bitmap has a one-word
//! summary (bit `w` set iff word `w` is non-zero), so its lowest
//! occupied slot is two `trailing_zeros` away.
//!
//! ## Why the wheel preserves `(at, seq)` order bit-identically
//!
//! Level = 0 when `at` agrees with the wheel's clock `now` on every bit
//! above the low 12, otherwise the level whose bit field holds the
//! highest bit in which they differ; slot = that level's bit field of
//! `at`. Three invariants carry the proof:
//!
//! 1. **Same `at` ⇒ same bucket, in seq order.** Two events with equal
//!    `at` land in the same slot of the same level at every point in
//!    time, and each bucket keeps its equal-`at` entries sorted by seq,
//!    so equal-timestamp runs always pop in seq order. A push links at
//!    the tail when its seq is newer than every seq the wheel has ever
//!    been pushed, which holds for every fresh kernel push (the kernel
//!    issues seqs in increasing order). Any other push (a host timer
//!    forwarded to the seq reserved when it was armed, or a snapshot
//!    restore replaying the queue in `(at, seq)` order) walks its bucket
//!    and links before the first equal-`at` entry with a later seq. The
//!    bucket's tail can't stand in for that walk: overflow buckets mix
//!    instants, so their tail need not hold their newest seq. Cascades
//!    and rebases relink buckets front to back at the tails of their new
//!    buckets, which hold no other entry of the same instant (all of
//!    them moved together), so they keep that order without a walk.
//! 2. **Level-0 buckets are single-instant.** An occupied level-0 slot
//!    shares its upper 52 bits with `now`, so the slot index pins the
//!    full timestamp: the lowest occupied slot holds exactly the global
//!    minimum's bucket.
//! 3. **Cascades don't reorder.** Expanding the lowest occupied slot of
//!    the lowest occupied overflow level relinks its FIFO bucket
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
//! handles any push below its clock by **rebasing**: unlink every bucket
//! and relink each node relative to the new, smaller clock. O(n), but it
//! can only happen right after a deadline requeue — never in the steady
//! state — and correctness is what's non-negotiable here. The
//! always-counted [`SchedStats::rebases`] makes the cost observable.
//! [`Scheduler::requeue`] links the event at the head of its bucket, so
//! it pops first again even when its bucket holds equal-`at`, later-seq
//! entries.

use crate::engine::Event;
use crate::time::SimTime;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

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

/// Levels in the timing wheel: a 12-bit level 0 and seven 8-bit levels
/// reach bit 68, so any representable timestamp — including the
/// `SimTime::MAX` "never" sentinel — has a bucket.
pub const WHEEL_LEVELS: usize = 8;
/// Slot-index bits of level 0 (4,096 one-nanosecond slots).
const L0_BITS: u32 = 12;
/// Level-0 slots.
const L0_SLOTS: usize = 1 << L0_BITS;
/// Slot-index bits of each overflow level (256 slots).
const SLOT_BITS: u32 = 8;
/// Slots per overflow level.
const SLOTS: usize = 1 << SLOT_BITS;
/// Buckets on all levels: level 0's, then each overflow level's.
const BUCKETS: usize = L0_SLOTS + (WHEEL_LEVELS - 1) * SLOTS;
/// `u64` words in one overflow level's occupancy bitmap.
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

/// A node link: slab index + 1, so 0 ([`NIL`]) means "none".
type Link = u32;
/// The empty link.
const NIL: Link = 0;

/// One slab node: a queued entry (`None` while on the free list) and the
/// link to the next node of its bucket or of the free list.
#[derive(Debug)]
struct Node {
    next: Link,
    s: Option<Scheduled>,
}

/// An intrusive FIFO of slab nodes.
#[derive(Debug, Clone, Copy, Default)]
struct Bucket {
    head: Link,
    tail: Link,
}

/// Hierarchical timing wheel: a 4,096-slot level 0 and seven 256-slot
/// levels of intrusive FIFO buckets over one node slab. See the module
/// docs for layout and ordering proof.
#[derive(Debug)]
pub struct TimingWheel {
    /// The wheel clock: the timestamp of the most recent pop (0 before
    /// any). All bucket/level assignments are relative to it.
    now_ns: u64,
    /// Live entry count.
    len: usize,
    /// Every queued entry, stored once. Grows only when the free list is
    /// empty, so its length is the peak live entry count.
    nodes: Vec<Node>,
    /// Head of the LIFO free list, threaded through `Node::next`.
    free: Link,
    /// `BUCKETS` FIFO buckets: level 0's 4,096 slots, then 256 per
    /// overflow level.
    buckets: Vec<Bucket>,
    /// Slot-occupancy bitmap over all buckets, in bucket order.
    occ: [u64; BUCKETS / 64],
    /// Bit `w` set iff level-0 bitmap word `w` is non-zero.
    l0_summary: u64,
    /// Per-level live entry counts (drives the cascade scan and the
    /// profiler's occupancy series).
    level_len: [u64; WHEEL_LEVELS],
    /// Newest seq ever pushed. Every queued entry's seq is at most this,
    /// so a push with a newer seq may link at its bucket's tail.
    max_seq: u64,
    stats: SchedStats,
}

impl Default for TimingWheel {
    fn default() -> Self {
        TimingWheel {
            now_ns: 0,
            len: 0,
            nodes: Vec::new(),
            free: NIL,
            buckets: vec![Bucket::default(); BUCKETS],
            occ: [0; BUCKETS / 64],
            l0_summary: 0,
            level_len: [0; WHEEL_LEVELS],
            max_seq: 0,
            stats: SchedStats::default(),
        }
    }
}

/// Lowest timestamp bit of level `lvl`'s slot field.
#[inline]
fn level_shift(lvl: usize) -> u32 {
    if lvl == 0 {
        0
    } else {
        L0_BITS + SLOT_BITS * (lvl as u32 - 1)
    }
}

/// Index of the first bucket of level `lvl`.
#[inline]
fn level_base(lvl: usize) -> usize {
    if lvl == 0 {
        0
    } else {
        L0_SLOTS + (lvl - 1) * SLOTS
    }
}

/// The wheel level of an entry due at `at`: 0 when `at` and `now` agree
/// above the low 12 bits, else the level whose field holds the highest
/// differing bit.
#[inline]
fn level_of(at: u64, now: u64) -> usize {
    let diff = at ^ now;
    if diff < L0_SLOTS as u64 {
        0
    } else {
        1 + ((63 - diff.leading_zeros() - L0_BITS) / SLOT_BITS) as usize
    }
}

/// The entry a queued node holds.
#[inline]
fn entry(n: &Node) -> &Scheduled {
    n.s.as_ref().expect("bucket links a free slab node")
}

impl TimingWheel {
    #[inline]
    fn node(&self, l: Link) -> &Node {
        &self.nodes[l as usize - 1]
    }

    #[inline]
    fn node_mut(&mut self, l: Link) -> &mut Node {
        &mut self.nodes[l as usize - 1]
    }

    /// Store `s` in a free node (or a new one) and return its link. The
    /// node's `next` is [`NIL`].
    #[inline]
    fn alloc(&mut self, s: Scheduled) -> Link {
        if self.free == NIL {
            self.nodes.push(Node { next: NIL, s: Some(s) });
            return Link::try_from(self.nodes.len()).expect("timing wheel slab overflow");
        }
        let l = self.free;
        let n = self.node_mut(l);
        let next_free = n.next;
        n.next = NIL;
        n.s = Some(s);
        self.free = next_free;
        l
    }

    /// Mark the bucket of an entry due at `at` (relative to the current
    /// clock) as holding one more entry and return its index. Does not
    /// touch `len` (cascades move entries without changing the total).
    #[inline]
    fn claim(&mut self, at: u64) -> usize {
        debug_assert!(at >= self.now_ns, "insert below the wheel clock");
        let lvl = level_of(at, self.now_ns);
        let width = if lvl == 0 { L0_SLOTS } else { SLOTS };
        let slot = (at >> level_shift(lvl)) as usize & (width - 1);
        let b = level_base(lvl) + slot;
        self.occ[b >> 6] |= 1u64 << (b & 63);
        if lvl == 0 {
            self.l0_summary |= 1u64 << (b >> 6);
        }
        self.level_len[lvl] += 1;
        if lvl as u8 > self.stats.max_level {
            self.stats.max_level = lvl as u8;
        }
        b
    }

    /// Clear bucket `b`'s occupancy bit (it just became empty).
    #[inline]
    fn vacate(&mut self, b: usize) {
        let w = b >> 6;
        self.occ[w] &= !(1u64 << (b & 63));
        if b < L0_SLOTS && self.occ[w] == 0 {
            self.l0_summary &= !(1u64 << w);
        }
    }

    /// Link node `l` (whose `next` is [`NIL`]) at the tail of bucket `b`.
    #[inline]
    fn link_back(&mut self, b: usize, l: Link) {
        let tail = self.buckets[b].tail;
        if tail == NIL {
            self.buckets[b].head = l;
        } else {
            self.node_mut(tail).next = l;
        }
        self.buckets[b].tail = l;
    }

    /// Link node `l`, holding a reserved (older) seq, before the first
    /// entry of bucket `b` due at the same instant with a later seq, or
    /// at the tail when there is none. Upper-level buckets mix instants,
    /// so the tail entry alone can't tell.
    fn link_ordered(&mut self, b: usize, l: Link) {
        let (at, seq) = {
            let s = entry(self.node(l));
            (s.at, s.seq)
        };
        let mut prev = NIL;
        let mut cur = self.buckets[b].head;
        while cur != NIL {
            let n = self.node(cur);
            let e = entry(n);
            if e.at == at && e.seq > seq {
                break;
            }
            prev = cur;
            cur = n.next;
        }
        self.node_mut(l).next = cur;
        if prev == NIL {
            self.buckets[b].head = l;
        } else {
            self.node_mut(prev).next = l;
        }
        if cur == NIL {
            self.buckets[b].tail = l;
        }
    }

    /// Relink the chain starting at `l` front to back into the buckets
    /// its entries belong to under the current clock; returns how many
    /// nodes it moved. Equal-`at` entries always share a bucket, and the
    /// chain holds all of an instant's entries in seq order, so linking
    /// each at its new bucket's tail keeps that order.
    fn relink_chain(&mut self, mut l: Link) -> u64 {
        let mut moved = 0;
        while l != NIL {
            let n = self.node_mut(l);
            let next = n.next;
            n.next = NIL;
            let at = entry(n).at.as_nanos();
            let b = self.claim(at);
            self.link_back(b, l);
            l = next;
            moved += 1;
        }
        moved
    }

    /// Unlink every bucket and relink its nodes relative to a smaller
    /// clock. Per-bucket FIFO order is preserved, and equal-`at` events
    /// always share a bucket, so `(at, seq)` order survives the rebase.
    #[cold]
    fn rebase(&mut self, new_now_ns: u64) {
        self.stats.rebases += 1;
        // Collect each bucket's chain into one, in bucket order, before
        // any relinking can put a node into a bucket not yet visited.
        let mut head = NIL;
        let mut tail = NIL;
        for i in 0..BUCKETS {
            let b = std::mem::take(&mut self.buckets[i]);
            if b.head == NIL {
                continue;
            }
            if tail == NIL {
                head = b.head;
            } else {
                self.node_mut(tail).next = b.head;
            }
            tail = b.tail;
        }
        self.occ = [0; BUCKETS / 64];
        self.l0_summary = 0;
        self.level_len = [0; WHEEL_LEVELS];
        self.now_ns = new_now_ns;
        self.relink_chain(head);
    }

    /// Expand the lowest occupied slot of the lowest occupied overflow
    /// level into lower levels, advancing the clock to that slot's
    /// window start. Caller guarantees level 0 is empty and `len > 0`.
    #[cold]
    fn cascade(&mut self) {
        let lvl = (1..WHEEL_LEVELS)
            .find(|&l| self.level_len[l] > 0)
            .expect("cascade called on an empty wheel");
        let base = level_base(lvl);
        let words = &self.occ[base >> 6..(base >> 6) + OCC_WORDS];
        let slot = words
            .iter()
            .enumerate()
            .find(|&(_, &bits)| bits != 0)
            .map(|(w, &bits)| (w << 6) | bits.trailing_zeros() as usize)
            .expect("level_len/occ out of sync");
        // The slot's window start: bits above the level's field from the
        // clock, the field = slot, lower bits zero. Occupied slots are
        // never behind the cursor (no entries below the clock), so this
        // only advances.
        let shift = level_shift(lvl);
        let top = shift + SLOT_BITS;
        let keep_above = if top >= u64::BITS {
            0
        } else {
            self.now_ns & !((1u64 << top) - 1)
        };
        let new_now = keep_above | ((slot as u64) << shift);
        debug_assert!(new_now > self.now_ns);
        self.now_ns = new_now;
        let b = base + slot;
        let chain = std::mem::take(&mut self.buckets[b]).head;
        self.vacate(b);
        // Relinks land strictly below `lvl`: every moved timestamp shares
        // the bits from the level's field up with the new clock.
        let moved = self.relink_chain(chain);
        self.level_len[lvl] -= moved;
        self.stats.cascades += 1;
        self.stats.cascaded_events += moved;
    }
}

impl Scheduler for TimingWheel {
    #[inline]
    fn push(&mut self, s: Scheduled) {
        let at = s.at.as_nanos();
        if at < self.now_ns {
            self.rebase(at);
        }
        let b = self.claim(at);
        let seq = s.seq;
        let l = self.alloc(s);
        if seq > self.max_seq {
            // No queued entry has a later seq: linking at the tail keeps
            // order.
            self.max_seq = seq;
            self.link_back(b, l);
        } else {
            self.link_ordered(b, l);
        }
        self.len += 1;
    }

    #[inline]
    fn pop(&mut self) -> Option<Scheduled> {
        if self.len == 0 {
            return None;
        }
        while self.l0_summary == 0 {
            self.cascade();
        }
        // Level-0 slots pin full timestamps (invariant 2): the lowest
        // occupied slot is the global minimum's bucket, and its FIFO head
        // is the minimum (invariant 1).
        let w = self.l0_summary.trailing_zeros() as usize;
        let b = (w << 6) | self.occ[w].trailing_zeros() as usize;
        let l = self.buckets[b].head;
        let free = self.free;
        let n = self.node_mut(l);
        let next = n.next;
        let s = n.s.take().expect("bucket links a free slab node");
        n.next = free;
        self.free = l;
        self.buckets[b].head = next;
        if next == NIL {
            self.buckets[b].tail = NIL;
            self.vacate(b);
        }
        self.level_len[0] -= 1;
        self.len -= 1;
        self.now_ns = s.at.as_nanos();
        Some(s)
    }

    #[inline]
    fn requeue(&mut self, s: Scheduled) {
        // `s` was the most recent pop, so it is ≤ every live entry:
        // linked at its bucket's head it becomes the head again, even
        // when the bucket already holds equal-`at`, later-seq events.
        let at = s.at.as_nanos();
        if at < self.now_ns {
            self.rebase(at);
        }
        let b = self.claim(at);
        let l = self.alloc(s);
        let head = self.buckets[b].head;
        self.node_mut(l).next = head;
        self.buckets[b].head = l;
        if head == NIL {
            self.buckets[b].tail = l;
        }
        self.len += 1;
    }

    #[inline]
    fn len(&self) -> usize {
        self.len
    }

    fn entries(&self) -> Vec<(SimTime, u64, &Event)> {
        self.nodes
            .iter()
            .filter_map(|n| n.s.as_ref())
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
        for at in [7u64, 0x1_23, 0x12_34, 0x45_67_89, 0xAB_CD_EF_01] {
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
        // An upper-level bucket mixes instants, so its tail entry need not
        // hold its newest seq: after the older-seq (0x1010, 1) lands behind
        // (0x1000, 3) in level 1, a reserved (0x1000, 2) must still go
        // before (0x1000, 3).
        let mut heap = SchedulerImpl::new(Backend::Heap);
        let mut wheel = SchedulerImpl::new(Backend::Wheel);
        for (at, seq) in [(0x1000, 3), (0x1010, 1), (0x1000, 2)] {
            heap.push(sch(at, seq));
            wheel.push(sch(at, seq));
        }
        assert_eq!(
            wheel.level_depths()[1],
            3,
            "all three share a level-1 bucket"
        );
        let want = drain(&mut heap);
        assert_eq!(want, vec![(0x1000, 2), (0x1000, 3), (0x1010, 1)]);
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

    #[test]
    fn level_zero_spans_one_4096_ns_window() {
        // Level 0 holds every instant that shares the clock's upper 52
        // bits; the next window starts level 1.
        for now in [0u64, 3 << 12] {
            let mut w = TimingWheel::default();
            if now > 0 {
                w.push(sch(now, 1));
                assert_eq!(w.pop().unwrap().at.as_nanos(), now);
            }
            w.push(sch(now + 4095, 2));
            assert_eq!(Scheduler::level_depths(&w), [1, 0, 0, 0, 0, 0, 0, 0]);
            w.push(sch(now + 4096, 3));
            assert_eq!(Scheduler::level_depths(&w), [1, 1, 0, 0, 0, 0, 0, 0]);
            assert_eq!(drain(&mut w), vec![(now + 4095, 2), (now + 4096, 3)]);
        }
    }

    #[test]
    fn cascaded_level_one_bucket_pops_in_at_seq_order() {
        // One level-1 bucket holding mixed instants, equal-`at` runs and a
        // reserved seq: a single cascade relinks it into level 0, and the
        // pops come out in (at, seq) order.
        let mut w = TimingWheel::default();
        let pushes = [
            (0x1_005, 2),
            (0x1_002, 3),
            (0x1_005, 4),
            (0x1_0F9, 5),
            (0x1_002, 6),
            (0x1_005, 1),
        ];
        for &(at, seq) in &pushes {
            w.push(sch(at, seq));
        }
        assert_eq!(Scheduler::level_depths(&w)[1], pushes.len() as u64);
        let mut want = pushes.to_vec();
        want.sort_unstable();
        assert_eq!(drain(&mut w), want);
        let st = Scheduler::stats(&w);
        assert_eq!((st.cascades, st.cascaded_events), (1, pushes.len() as u64));
    }

    #[test]
    fn slab_never_outgrows_the_peak_live_count() {
        // Burst-and-drain cycles of varying size, with requeues, reserved
        // pushes and a rebase mixed in: freed nodes are reused before the
        // slab grows, so it never holds more nodes than were live at once.
        let mut w = TimingWheel::default();
        let mut seq = 0u64;
        let mut peak = 0usize;
        let mut clock = 0u64;
        for (cycle, &burst) in [40usize, 7, 300, 120, 300, 1, 64].iter().enumerate() {
            for i in 0..burst {
                // Every other seq is reserved for a later, older-seq push.
                seq += 2;
                let at = clock + (i as u64 * 7919) % 50_000;
                w.push(sch(at, seq));
                if i % 5 == 0 {
                    w.push(sch(at, seq - 1));
                }
                peak = peak.max(Scheduler::len(&w));
            }
            assert_eq!(w.nodes.len(), peak, "cycle {cycle}");
            let keep = if cycle % 2 == 0 { 0 } else { burst / 3 };
            while Scheduler::len(&w) > keep {
                let s = w.pop().unwrap();
                clock = s.at.as_nanos();
                if s.seq % 11 == 0 {
                    w.requeue(s);
                    w.pop().unwrap();
                }
            }
            if cycle == 3 {
                // A push below the clock rebases the survivors.
                seq += 1;
                clock = clock.saturating_sub(10_000);
                w.push(sch(clock, seq));
                peak = peak.max(Scheduler::len(&w));
            }
            assert!(w.nodes.len() <= peak, "cycle {cycle}");
        }
        assert!(Scheduler::stats(&w).rebases >= 1);
        assert_eq!(w.nodes.len(), peak);
    }

    // Satellite: always-on differential proptest, heap vs wheel over
    // random event streams (pushes with clustered timestamps, pops, and
    // head requeues — the full kernel op set — plus reserved pushes that
    // carry an older seq into instants already queued under later seqs,
    // and pushes that straddle the edges of level-0 and level-1 windows).
    proptest! {
        #[test]
        fn differential_heap_vs_wheel(ops in proptest::collection::vec(
            (0u8..14, 0u64..5, 0u64..64), 1..400)
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
                } else if op == 12 {
                    // Push within 2 ns of one of the next few 4,096-ns
                    // (level 0) or 1,048,576-ns (level 1) window edges.
                    seq += 1;
                    let bits = if delta % 4 == 0 { 20 } else { 12 };
                    let edge = ((clock >> bits) + 1 + delta % 3) << bits;
                    let at = edge + scale - 2;
                    heap.push(sch(at, seq));
                    wheel.push(sch(at, seq));
                    ats.push(at);
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
