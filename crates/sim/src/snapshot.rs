//! Deterministic mid-run snapshot/restore: the `rocc-snapshot/v3` format
//! and the one state codec every snapshot section and digest is built on.
//!
//! A snapshot captures the complete *dynamic* state of a [`crate::engine::Sim`]
//! — scheduler queue, packet slab, both RNG streams, switch queues and PFC
//! state, host send/recv and RP state, CP fair-rate calculators, fault
//! cursors, budget counters, and telemetry/observatory/sanitizer
//! accumulators — such that restoring it into a freshly built, identically
//! configured `Sim` resumes the run with **byte-identical** verdicts,
//! metrics JSONL, and aggregates versus an uninterrupted run (see
//! DESIGN.md §3i).
//!
//! The caller-rebuild protocol: construction-time state (topology, config,
//! CC factories, registered flows, trace watch lists, enabled
//! telemetry/observatory/sanitizer features) is **not** serialized. The
//! restoring process rebuilds the `Sim` exactly as the original run did —
//! same constructor arguments, same `add_flow` calls, same watch/enable
//! calls — and then [`crate::engine::Sim::restore`] overwrites every
//! dynamic field. Mismatched construction is detected via the seed and a
//! seed-zeroed FNV-1a config digest in the header, plus structural checks
//! (node roles, watch-list lengths, enable flags) during decode.
//!
//! Wire format: a 16-byte magic (`rocc-snapshot/v3`), a fixed header
//! (seed, config digest, sim time, event count, body length), the body,
//! and a trailing FNV-1a-64 digest over everything before it. Corruption
//! of any byte is caught by the trailer before any state is applied. The
//! body is the [`crate::engine::Sim::component_states`] sections in their
//! canonical order, each as its name and its bytes, both length-prefixed:
//! the bytes a snapshot stores are exactly the bytes the divergence
//! observatory digests.
//!
//! The codec: every value is written and read by one `Wire` impl, and
//! state decoded over a rebuilt value by one `Restore` impl. Composite
//! types state their field order and tags once, with `wire!`, next to
//! their definitions. Integers are little-endian, `usize` is a `u64`,
//! `bool` and `Option` tags are one byte each (anything but 0/1 is
//! malformed), lengths are `u64` prefixes, and hash maps are written
//! sorted by key.

use crate::config::SimConfig;
use crate::fastmap::FxHashMap;
use crate::packet::{CpId, FlowId};
use crate::time::{SimDuration, SimTime};
use crate::topology::{LinkId, NodeId, PortId};
use crate::units::BitRate;
use rand::rngs::StdRng;
use std::cmp::Reverse;
use std::collections::{BTreeMap, BTreeSet, BinaryHeap, VecDeque};
use std::fmt;
use std::hash::Hash;

/// Leading magic of every snapshot: format name + version in one token.
pub const SNAPSHOT_MAGIC: &[u8; 16] = b"rocc-snapshot/v3";

/// Byte length of the fixed header (magic + seed + config digest + now +
/// events + body length).
pub const HEADER_LEN: usize = 16 + 8 * 5;

/// Why a snapshot failed to load. Every variant is recoverable by falling
/// back to a fresh cell run — corrupt or stale snapshots must never poison
/// a campaign.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SnapshotError {
    /// The leading magic is not [`SNAPSHOT_MAGIC`] (wrong file, wrong
    /// version, or garbage).
    BadMagic,
    /// The byte stream ended before the declared structure did.
    Truncated,
    /// The trailing FNV-1a digest does not match the content (bit rot,
    /// torn write).
    DigestMismatch {
        /// Digest recomputed over the content.
        computed: u64,
        /// Digest stored in the trailer.
        stored: u64,
    },
    /// The snapshot was taken under a different seed or configuration than
    /// the `Sim` it is being restored into.
    ConfigMismatch {
        /// What the restoring `Sim` expects (seed, config digest).
        expected: (u64, u64),
        /// What the snapshot header carries.
        found: (u64, u64),
    },
    /// Structurally invalid content (bad enum tag, count mismatch against
    /// the rebuilt `Sim`). The static string names the decode site.
    Malformed(&'static str),
}

impl fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SnapshotError::BadMagic => {
                write!(f, "not a {} file", String::from_utf8_lossy(SNAPSHOT_MAGIC))
            }
            SnapshotError::Truncated => write!(f, "snapshot truncated"),
            SnapshotError::DigestMismatch { computed, stored } => write!(
                f,
                "snapshot digest mismatch: computed {computed:016x}, stored {stored:016x}"
            ),
            SnapshotError::ConfigMismatch { expected, found } => write!(
                f,
                "snapshot config mismatch: expected seed {} / config {:016x}, found seed {} / config {:016x}",
                expected.0, expected.1, found.0, found.1
            ),
            SnapshotError::Malformed(what) => write!(f, "malformed snapshot: {what}"),
        }
    }
}

impl std::error::Error for SnapshotError {}

/// FNV-1a 64-bit digest (the workspace's artifact-digest convention,
/// shared via `rocc_stats::digest` — see `rocc_core::digest`).
pub fn fnv1a(bytes: &[u8]) -> u64 {
    rocc_stats::digest::fnv1a_64(bytes)
}

/// Seed-independent configuration digest: FNV-1a over the `Debug` render
/// of the config with its seed zeroed, so one digest covers a whole seed
/// sweep of the same cell configuration.
pub fn config_digest(config: &SimConfig) -> u64 {
    let mut c = config.clone();
    c.seed = 0;
    fnv1a(format!("{c:?}").as_bytes())
}

/// Parsed snapshot header, returned by [`inspect`] without touching the
/// body (used by `repro snapshot inspect` and the supervisor's staleness
/// checks).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SnapshotInfo {
    /// RNG seed of the captured run.
    pub seed: u64,
    /// Seed-zeroed FNV-1a digest of the captured run's `SimConfig`.
    pub config_digest: u64,
    /// Simulated time at the capture instant, nanoseconds.
    pub now_ns: u64,
    /// Events processed at the capture instant.
    pub events_processed: u64,
    /// Body length in bytes (checkpoint size accounting).
    pub body_len: u64,
    /// Total file length in bytes.
    pub total_len: u64,
}

/// Validate magic, structure, and trailing digest, and return the header.
/// Reads the whole buffer (for the digest) but decodes none of the body.
pub fn inspect(bytes: &[u8]) -> Result<SnapshotInfo, SnapshotError> {
    if bytes.len() < HEADER_LEN + 8 {
        return Err(if bytes.len() >= 16 && &bytes[..16] != SNAPSHOT_MAGIC {
            SnapshotError::BadMagic
        } else {
            SnapshotError::Truncated
        });
    }
    if &bytes[..16] != SNAPSHOT_MAGIC {
        return Err(SnapshotError::BadMagic);
    }
    let word = |i: usize| {
        let o = 16 + i * 8;
        u64::from_le_bytes(bytes[o..o + 8].try_into().unwrap())
    };
    let (seed, config, now_ns, events, body_len) = (word(0), word(1), word(2), word(3), word(4));
    let expect_total = HEADER_LEN as u64 + body_len + 8;
    if bytes.len() as u64 != expect_total {
        return Err(SnapshotError::Truncated);
    }
    let content = &bytes[..bytes.len() - 8];
    let stored = u64::from_le_bytes(bytes[bytes.len() - 8..].try_into().unwrap());
    let computed = fnv1a(content);
    if computed != stored {
        return Err(SnapshotError::DigestMismatch { computed, stored });
    }
    Ok(SnapshotInfo {
        seed,
        config_digest: config,
        now_ns,
        events_processed: events,
        body_len,
        total_len: bytes.len() as u64,
    })
}

// ---------------------------------------------------------------------------
// Byte sink and source
// ---------------------------------------------------------------------------

/// Append-only byte sink for snapshot sections.
pub(crate) struct SnapWriter {
    buf: Vec<u8>,
}

impl SnapWriter {
    pub(crate) fn new() -> Self {
        SnapWriter {
            buf: Vec::with_capacity(4096),
        }
    }

    fn raw(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// A length prefix: `u64`, little-endian.
    pub(crate) fn len(&mut self, n: usize) {
        self.raw(&(n as u64).to_le_bytes());
    }

    /// Length-prefixed raw bytes.
    pub(crate) fn bytes(&mut self, b: &[u8]) {
        self.len(b.len());
        self.raw(b);
    }

    pub(crate) fn into_bytes(self) -> Vec<u8> {
        self.buf
    }
}

/// Bounds-checked reader over snapshot bytes.
pub(crate) struct SnapReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> SnapReader<'a> {
    pub(crate) fn new(buf: &'a [u8]) -> Self {
        SnapReader { buf, pos: 0 }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], SnapshotError> {
        if n > self.buf.len() - self.pos {
            return Err(SnapshotError::Truncated);
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    fn array<const N: usize>(&mut self) -> Result<[u8; N], SnapshotError> {
        Ok(self.take(N)?.try_into().expect("take returns N bytes"))
    }

    /// Length prefix with a sanity ceiling: a corrupt length must fail
    /// fast, not attempt a multi-terabyte allocation.
    pub(crate) fn len(&mut self) -> Result<usize, SnapshotError> {
        let n = usize::get(self)?;
        if n > (self.buf.len() - self.pos).max(1 << 20) {
            return Err(SnapshotError::Malformed("length prefix"));
        }
        Ok(n)
    }

    /// Length-prefixed raw bytes, borrowed.
    pub(crate) fn bytes(&mut self) -> Result<&'a [u8], SnapshotError> {
        let n = self.len()?;
        self.take(n)
    }

    /// True once every byte has been consumed (restore asserts this:
    /// trailing bytes mean the decode drifted from the encode).
    pub(crate) fn exhausted(&self) -> bool {
        self.pos == self.buf.len()
    }
}

// ---------------------------------------------------------------------------
// The codec
// ---------------------------------------------------------------------------

/// A value's wire form, stated once: `put` writes it, `get` reads it back.
/// Composite types derive theirs with [`wire!`], so each field order and
/// tag set is written in one place.
pub(crate) trait Wire: Sized {
    fn put(&self, w: &mut SnapWriter);
    fn get(r: &mut SnapReader<'_>) -> Result<Self, SnapshotError>;
}

/// State decoded over a rebuilt value rather than into a new one: its
/// construction-time fields (topology links, CC boxes, watch lists,
/// subscribers) are not written and keep their rebuilt values. Every
/// [`Wire`] value restores by replacement.
pub(crate) trait Restore {
    fn save(&self, w: &mut SnapWriter);
    fn load(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapshotError>;
}

impl<T: Wire> Restore for T {
    fn save(&self, w: &mut SnapWriter) {
        self.put(w);
    }

    fn load(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapshotError> {
        *self = T::get(r)?;
        Ok(())
    }
}

impl Wire for u8 {
    fn put(&self, w: &mut SnapWriter) {
        w.raw(&[*self]);
    }

    fn get(r: &mut SnapReader<'_>) -> Result<Self, SnapshotError> {
        Ok(r.take(1)?[0])
    }
}

impl Wire for u32 {
    fn put(&self, w: &mut SnapWriter) {
        w.raw(&self.to_le_bytes());
    }

    fn get(r: &mut SnapReader<'_>) -> Result<Self, SnapshotError> {
        Ok(u32::from_le_bytes(r.array()?))
    }
}

impl Wire for u64 {
    fn put(&self, w: &mut SnapWriter) {
        w.raw(&self.to_le_bytes());
    }

    fn get(r: &mut SnapReader<'_>) -> Result<Self, SnapshotError> {
        Ok(u64::from_le_bytes(r.array()?))
    }
}

impl Wire for u128 {
    fn put(&self, w: &mut SnapWriter) {
        w.raw(&self.to_le_bytes());
    }

    fn get(r: &mut SnapReader<'_>) -> Result<Self, SnapshotError> {
        Ok(u128::from_le_bytes(r.array()?))
    }
}

/// Written as a `u64`, so snapshots do not depend on the pointer width.
impl Wire for usize {
    fn put(&self, w: &mut SnapWriter) {
        (*self as u64).put(w);
    }

    fn get(r: &mut SnapReader<'_>) -> Result<Self, SnapshotError> {
        usize::try_from(u64::get(r)?).map_err(|_| SnapshotError::Malformed("usize"))
    }
}

/// One byte, 0 or 1; any other value is malformed.
impl Wire for bool {
    fn put(&self, w: &mut SnapWriter) {
        (*self as u8).put(w);
    }

    fn get(r: &mut SnapReader<'_>) -> Result<Self, SnapshotError> {
        match u8::get(r)? {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err(SnapshotError::Malformed("bool")),
        }
    }
}

/// The IEEE-754 bits, so every value (NaN payloads included) round-trips.
impl Wire for f64 {
    fn put(&self, w: &mut SnapWriter) {
        self.to_bits().put(w);
    }

    fn get(r: &mut SnapReader<'_>) -> Result<Self, SnapshotError> {
        Ok(f64::from_bits(u64::get(r)?))
    }
}

impl Wire for String {
    fn put(&self, w: &mut SnapWriter) {
        w.bytes(self.as_bytes());
    }

    fn get(r: &mut SnapReader<'_>) -> Result<Self, SnapshotError> {
        String::from_utf8(r.bytes()?.to_vec()).map_err(|_| SnapshotError::Malformed("utf8 string"))
    }
}

/// A `u8` tag (0 = `None`, 1 = `Some`), then the value.
impl<T: Wire> Wire for Option<T> {
    fn put(&self, w: &mut SnapWriter) {
        match self {
            None => 0u8.put(w),
            Some(v) => {
                1u8.put(w);
                v.put(w);
            }
        }
    }

    fn get(r: &mut SnapReader<'_>) -> Result<Self, SnapshotError> {
        match u8::get(r)? {
            0 => Ok(None),
            1 => Ok(Some(T::get(r)?)),
            _ => Err(SnapshotError::Malformed("option tag")),
        }
    }
}

/// Read `n` values. The allocation grows with what is actually decoded,
/// so a corrupt count cannot reserve more than the bytes can back.
fn get_n<T: Wire>(r: &mut SnapReader<'_>, n: usize) -> Result<Vec<T>, SnapshotError> {
    let mut out = Vec::with_capacity(n.min(1024));
    for _ in 0..n {
        out.push(T::get(r)?);
    }
    Ok(out)
}

/// A `u64` length, then the elements in order.
impl<T: Wire> Wire for Vec<T> {
    fn put(&self, w: &mut SnapWriter) {
        w.len(self.len());
        self.iter().for_each(|v| v.put(w));
    }

    fn get(r: &mut SnapReader<'_>) -> Result<Self, SnapshotError> {
        let n = r.len()?;
        get_n(r, n)
    }
}

impl<T: Wire> Wire for VecDeque<T> {
    fn put(&self, w: &mut SnapWriter) {
        w.len(self.len());
        self.iter().for_each(|v| v.put(w));
    }

    fn get(r: &mut SnapReader<'_>) -> Result<Self, SnapshotError> {
        Ok(Vec::get(r)?.into())
    }
}

/// The elements only: the length is part of the type.
impl<T: Wire, const N: usize> Wire for [T; N] {
    fn put(&self, w: &mut SnapWriter) {
        self.iter().for_each(|v| v.put(w));
    }

    fn get(r: &mut SnapReader<'_>) -> Result<Self, SnapshotError> {
        Ok(get_n(r, N)?
            .try_into()
            .ok()
            .expect("get_n returns N values"))
    }
}

impl<A: Wire, B: Wire> Wire for (A, B) {
    fn put(&self, w: &mut SnapWriter) {
        self.0.put(w);
        self.1.put(w);
    }

    fn get(r: &mut SnapReader<'_>) -> Result<Self, SnapshotError> {
        Ok((A::get(r)?, B::get(r)?))
    }
}

impl<A: Wire, B: Wire, C: Wire> Wire for (A, B, C) {
    fn put(&self, w: &mut SnapWriter) {
        self.0.put(w);
        self.1.put(w);
        self.2.put(w);
    }

    fn get(r: &mut SnapReader<'_>) -> Result<Self, SnapshotError> {
        Ok((A::get(r)?, B::get(r)?, C::get(r)?))
    }
}

/// Write `(key, value)` pairs with a length prefix.
fn put_pairs<'a, K: Wire + 'a, V: Wire + 'a>(
    w: &mut SnapWriter,
    n: usize,
    pairs: impl Iterator<Item = (&'a K, &'a V)>,
) {
    w.len(n);
    for (k, v) in pairs {
        k.put(w);
        v.put(w);
    }
}

/// Entries in key order.
impl<K: Wire + Ord, V: Wire> Wire for BTreeMap<K, V> {
    fn put(&self, w: &mut SnapWriter) {
        put_pairs(w, self.len(), self.iter());
    }

    fn get(r: &mut SnapReader<'_>) -> Result<Self, SnapshotError> {
        Ok(Vec::<(K, V)>::get(r)?.into_iter().collect())
    }
}

impl<T: Wire + Ord> Wire for BTreeSet<T> {
    fn put(&self, w: &mut SnapWriter) {
        w.len(self.len());
        self.iter().for_each(|v| v.put(w));
    }

    fn get(r: &mut SnapReader<'_>) -> Result<Self, SnapshotError> {
        Ok(Vec::get(r)?.into_iter().collect())
    }
}

/// Entries sorted by key: the hash order never reaches the bytes.
impl<K: Wire + Ord + Hash, V: Wire> Wire for FxHashMap<K, V> {
    fn put(&self, w: &mut SnapWriter) {
        let mut pairs: Vec<(&K, &V)> = self.iter().collect();
        pairs.sort_unstable_by(|a, b| a.0.cmp(b.0));
        put_pairs(w, pairs.len(), pairs.into_iter());
    }

    fn get(r: &mut SnapReader<'_>) -> Result<Self, SnapshotError> {
        Ok(Vec::<(K, V)>::get(r)?.into_iter().collect())
    }
}

/// A min-heap as its entries in ascending order. The order is total, so
/// the rebuilt heap pops exactly as the saved one would have.
impl<T: Wire + Ord + Copy> Wire for BinaryHeap<Reverse<T>> {
    fn put(&self, w: &mut SnapWriter) {
        let mut items: Vec<T> = self.iter().map(|Reverse(v)| *v).collect();
        items.sort_unstable();
        items.put(w);
    }

    fn get(r: &mut SnapReader<'_>) -> Result<Self, SnapshotError> {
        Ok(Vec::get(r)?.into_iter().map(Reverse).collect())
    }
}

impl Wire for SimTime {
    fn put(&self, w: &mut SnapWriter) {
        self.as_nanos().put(w);
    }

    fn get(r: &mut SnapReader<'_>) -> Result<Self, SnapshotError> {
        Ok(SimTime::from_nanos(u64::get(r)?))
    }
}

impl Wire for SimDuration {
    fn put(&self, w: &mut SnapWriter) {
        self.as_nanos().put(w);
    }

    fn get(r: &mut SnapReader<'_>) -> Result<Self, SnapshotError> {
        Ok(SimDuration::from_nanos(u64::get(r)?))
    }
}

impl Wire for BitRate {
    fn put(&self, w: &mut SnapWriter) {
        self.as_bps().put(w);
    }

    fn get(r: &mut SnapReader<'_>) -> Result<Self, SnapshotError> {
        Ok(BitRate::from_bps(u64::get(r)?))
    }
}

/// A PRNG as its four raw state words.
impl Wire for StdRng {
    fn put(&self, w: &mut SnapWriter) {
        self.state().put(w);
    }

    fn get(r: &mut SnapReader<'_>) -> Result<Self, SnapshotError> {
        Ok(StdRng::from_state(Wire::get(r)?))
    }
}

/// Per-field rules of [`wire!`]'s `state` form. A field without a rule is
/// decoded in place through its [`Restore`] impl.
pub(crate) mod field {
    use super::{Restore, SnapReader, SnapWriter, SnapshotError, Wire};

    /// Configuration recorded so a restore can verify that the rebuilt
    /// run matches it: the decoded value must equal the rebuilt one.
    pub(crate) mod same {
        use super::*;

        pub(crate) fn save<T: Wire>(v: &T, w: &mut SnapWriter) {
            v.put(w);
        }

        pub(crate) fn load<T: Wire + PartialEq>(
            v: &mut T,
            r: &mut SnapReader<'_>,
            what: &'static str,
        ) -> Result<(), SnapshotError> {
            if T::get(r)? != *v {
                return Err(SnapshotError::Malformed(what));
            }
            Ok(())
        }
    }

    /// A vector whose length is construction state (one entry per watched
    /// queue, per port, per link): written with its length, which must
    /// match the rebuilt one; the entries are restored in place.
    pub(crate) mod fixed {
        use super::*;

        pub(crate) fn save<T: Restore>(v: &[T], w: &mut SnapWriter) {
            w.len(v.len());
            super::bare::save(v, w);
        }

        pub(crate) fn load<T: Restore>(
            v: &mut [T],
            r: &mut SnapReader<'_>,
            what: &'static str,
        ) -> Result<(), SnapshotError> {
            if r.len()? != v.len() {
                return Err(SnapshotError::Malformed(what));
            }
            super::bare::load(v, r, what)
        }
    }

    /// Like [`fixed`], without the length.
    pub(crate) mod bare {
        use super::*;

        pub(crate) fn save<T: Restore>(v: &[T], w: &mut SnapWriter) {
            v.iter().for_each(|x| x.save(w));
        }

        pub(crate) fn load<T: Restore>(
            v: &mut [T],
            r: &mut SnapReader<'_>,
            _what: &'static str,
        ) -> Result<(), SnapshotError> {
            v.iter_mut().try_for_each(|x| x.load(r))
        }
    }

    /// Construction state recorded by its length alone, which must match.
    pub(crate) mod len {
        use super::*;

        pub(crate) fn save<T>(v: &[T], w: &mut SnapWriter) {
            w.len(v.len());
        }

        pub(crate) fn load<T>(
            v: &mut [T],
            r: &mut SnapReader<'_>,
            what: &'static str,
        ) -> Result<(), SnapshotError> {
            if r.len()? != v.len() {
                return Err(SnapshotError::Malformed(what));
            }
            Ok(())
        }
    }
}

/// States a type's wire form once, fields and tags in wire order:
///
/// * `wire!(Name { a, b, c })` — a struct, field by field (a tuple
///   struct lists its positions: `wire!(Name { 0 })`);
/// * `wire!(enum Name { 0 => A { x, y }, 1 => B(z), 2 => C })` — a tagged
///   enum: the `u8` tag, then the variant's fields; an unknown tag is
///   [`SnapshotError::Malformed`];
/// * `wire!(state Name { a, b: same, c: fixed })` — a [`Restore`] impl for
///   state decoded over a rebuilt value. Fields not listed are
///   construction state; a listed field may name a [`field`] rule.
macro_rules! wire {
    (enum $ty:ident {
        $($tag:literal => $v:ident $({ $($f:ident),* })? $(( $($t:ident),* ))?),* $(,)?
    }) => {
        impl $crate::snapshot::Wire for $ty {
            fn put(&self, w: &mut $crate::snapshot::SnapWriter) {
                match self {
                    $($ty::$v $({ $($f),* })? $(( $($t),* ))? => {
                        <u8 as $crate::snapshot::Wire>::put(&$tag, w);
                        $($($crate::snapshot::Wire::put($f, w);)*)?
                        $($($crate::snapshot::Wire::put($t, w);)*)?
                    })*
                }
            }

            fn get(
                r: &mut $crate::snapshot::SnapReader<'_>,
            ) -> Result<Self, $crate::snapshot::SnapshotError> {
                match <u8 as $crate::snapshot::Wire>::get(r)? {
                    $($tag => {
                        $($(let $f = $crate::snapshot::Wire::get(r)?;)*)?
                        $($(let $t = $crate::snapshot::Wire::get(r)?;)*)?
                        Ok($ty::$v $({ $($f),* })? $(( $($t),* ))?)
                    })*
                    _ => Err($crate::snapshot::SnapshotError::Malformed(
                        concat!(stringify!($ty), " tag"),
                    )),
                }
            }
        }
    };
    (state $ty:ident { $($f:ident $(: $rule:ident)?),* $(,)? }) => {
        impl $crate::snapshot::Restore for $ty {
            fn save(&self, w: &mut $crate::snapshot::SnapWriter) {
                $($crate::snapshot::wire!(@save self.$f, w $(, $rule)?);)*
            }

            fn load(
                &mut self,
                r: &mut $crate::snapshot::SnapReader<'_>,
            ) -> Result<(), $crate::snapshot::SnapshotError> {
                $($crate::snapshot::wire!(
                    @load self.$f, r,
                    concat!(stringify!($ty), ".", stringify!($f), " differs from the rebuilt run")
                    $(, $rule)?
                );)*
                Ok(())
            }
        }
    };
    (@save $s:ident . $f:ident, $w:ident) => {
        $crate::snapshot::Restore::save(&$s.$f, $w)
    };
    (@save $s:ident . $f:ident, $w:ident, $rule:ident) => {
        $crate::snapshot::field::$rule::save(&$s.$f, $w)
    };
    (@load $s:ident . $f:ident, $r:ident, $what:expr) => {
        $crate::snapshot::Restore::load(&mut $s.$f, $r)?
    };
    (@load $s:ident . $f:ident, $r:ident, $what:expr, $rule:ident) => {
        $crate::snapshot::field::$rule::load(&mut $s.$f, $r, $what)?
    };
    ($ty:ident { $($f:tt),* $(,)? }) => {
        impl $crate::snapshot::Wire for $ty {
            fn put(&self, w: &mut $crate::snapshot::SnapWriter) {
                $($crate::snapshot::Wire::put(&self.$f, w);)*
            }

            fn get(
                r: &mut $crate::snapshot::SnapReader<'_>,
            ) -> Result<Self, $crate::snapshot::SnapshotError> {
                Ok($ty { $($f: $crate::snapshot::Wire::get(r)?),* })
            }
        }
    };
}
pub(crate) use wire;

wire!(FlowId { 0 });
wire!(NodeId { 0 });
wire!(PortId { 0 });
wire!(LinkId { 0 });
wire!(CpId { node, port });

/// Frame a finished body into the final snapshot byte stream: magic,
/// header words, body, FNV trailer.
pub(crate) fn frame(
    seed: u64,
    config_digest: u64,
    now_ns: u64,
    events_processed: u64,
    body: Vec<u8>,
) -> Vec<u8> {
    let mut out = Vec::with_capacity(HEADER_LEN + body.len() + 8);
    out.extend_from_slice(SNAPSHOT_MAGIC);
    out.extend_from_slice(&seed.to_le_bytes());
    out.extend_from_slice(&config_digest.to_le_bytes());
    out.extend_from_slice(&now_ns.to_le_bytes());
    out.extend_from_slice(&events_processed.to_le_bytes());
    out.extend_from_slice(&(body.len() as u64).to_le_bytes());
    out.extend_from_slice(&body);
    let digest = fnv1a(&out);
    out.extend_from_slice(&digest.to_le_bytes());
    out
}

/// Split a framed snapshot into `(info, body)` after full validation.
pub(crate) fn unframe(bytes: &[u8]) -> Result<(SnapshotInfo, &[u8]), SnapshotError> {
    let info = inspect(bytes)?;
    let body = &bytes[HEADER_LEN..bytes.len() - 8];
    Ok((info, body))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frame_roundtrip_and_inspect() {
        let body = vec![1u8, 2, 3, 4, 5];
        let bytes = frame(42, 0xabcd, 1000, 77, body.clone());
        let info = inspect(&bytes).unwrap();
        assert_eq!(info.seed, 42);
        assert_eq!(info.config_digest, 0xabcd);
        assert_eq!(info.now_ns, 1000);
        assert_eq!(info.events_processed, 77);
        assert_eq!(info.body_len, 5);
        let (_, b) = unframe(&bytes).unwrap();
        assert_eq!(b, &body[..]);
    }

    #[test]
    fn corruption_is_detected() {
        let mut bytes = frame(1, 2, 3, 4, vec![9u8; 64]);
        assert!(inspect(&bytes).is_ok());
        bytes[HEADER_LEN + 10] ^= 0x40;
        assert!(matches!(
            inspect(&bytes),
            Err(SnapshotError::DigestMismatch { .. })
        ));
        // Truncation.
        let short = &bytes[..bytes.len() - 3];
        assert!(matches!(inspect(short), Err(SnapshotError::Truncated)));
        // Wrong magic.
        let mut wrong = frame(1, 2, 3, 4, vec![]);
        wrong[0] = b'x';
        assert!(matches!(inspect(&wrong), Err(SnapshotError::BadMagic)));
    }

    fn encode<T: Wire>(v: &T) -> Vec<u8> {
        let mut w = SnapWriter::new();
        v.put(&mut w);
        w.into_bytes()
    }

    fn decode<T: Wire>(bytes: &[u8]) -> Result<T, SnapshotError> {
        let mut r = SnapReader::new(bytes);
        let v = T::get(&mut r)?;
        assert!(r.exhausted(), "decode left trailing bytes");
        Ok(v)
    }

    /// `v` decodes back to itself and re-encodes to the same bytes.
    fn roundtrips<T: Wire + fmt::Debug>(v: &T) {
        let bytes = encode(v);
        let back: T = decode(&bytes).unwrap_or_else(|e| panic!("{v:?}: {e}"));
        assert_eq!(format!("{back:?}"), format!("{v:?}"));
        assert_eq!(encode(&back), bytes, "{v:?}");
    }

    /// Every tag byte past the last variant's is malformed.
    fn unknown_tags_are_malformed<T: Wire + fmt::Debug>(v: &T, variants: u8) {
        let mut bytes = encode(v);
        for tag in variants..=u8::MAX {
            bytes[0] = tag;
            match decode::<T>(&bytes) {
                Err(SnapshotError::Malformed(_)) => {}
                other => panic!("tag {tag} of {v:?} decoded as {other:?}"),
            }
        }
    }

    /// Every proper prefix of `v`'s encoding fails to decode.
    fn truncations_fail<T: Wire + fmt::Debug>(v: &T) {
        let bytes = encode(v);
        for n in 0..bytes.len() {
            assert!(
                decode::<T>(&bytes[..n]).is_err(),
                "{v:?} cut to {n} bytes decoded"
            );
        }
    }

    #[test]
    fn primitive_codecs_roundtrip_with_fixed_layouts() {
        roundtrips(&7u8);
        roundtrips(&true);
        roundtrips(&123_456u32);
        roundtrips(&(u64::MAX - 1));
        roundtrips(&(1u128 << 100));
        roundtrips(&-1.5f64);
        roundtrips(&None::<u64>);
        roundtrips(&Some(9u64));
        roundtrips(&"hello".to_string());
        roundtrips(&vec![1u64, 2, 3]);
        roundtrips(&[(SimTime::from_nanos(5), 6u64); 2]);
        let fx: FxHashMap<FlowId, u64> = [(FlowId(9), 1), (FlowId(2), 3)].into_iter().collect();
        roundtrips(&fx);
        // The layouts every stream relies on: `u64` lengths, one-byte
        // option tags, hash maps sorted by key.
        assert_eq!(
            encode(&Some(9u64)),
            [&[1u8][..], &9u64.to_le_bytes()].concat()
        );
        assert_eq!(encode(&vec![7u8]), [&1u64.to_le_bytes()[..], &[7]].concat());
        assert_eq!(&encode(&fx)[8..16], &2u64.to_le_bytes());
        // Tags and bools other than 0/1 are malformed, as is bad UTF-8.
        unknown_tags_are_malformed(&Some(1u8), 2);
        unknown_tags_are_malformed(&true, 2);
        let mut bad = encode(&"ab".to_string());
        bad[8] = 0xff;
        assert_eq!(
            decode::<String>(&bad),
            Err(SnapshotError::Malformed("utf8 string"))
        );
        // A length beyond both the remaining bytes and the ceiling fails
        // before allocating.
        let huge = encode(&(1u64 << 40));
        assert_eq!(
            decode::<Vec<u8>>(&huge),
            Err(SnapshotError::Malformed("length prefix"))
        );
    }

    #[test]
    fn packet_and_event_codecs_roundtrip() {
        use crate::cc::FeedbackEvent;
        use crate::engine::Event;
        use crate::fault::FaultEvent;
        use crate::metrics::MetricRow;
        use crate::packet::{IntHop, IntStack, Packet, PacketKind};
        use crate::slab::PacketSlab;
        use crate::telemetry::{
            CpDecisionKind, DropCause, RpTransitionKind, SimEvent, VerdictKind,
        };
        use crate::trace::{FctRecord, PfcEvent, Sample};

        let t = SimTime::from_nanos(777);
        let cp = CpId {
            node: NodeId(4),
            port: PortId(1),
        };
        let mut int = IntStack::new();
        int.push(IntHop {
            qlen_bytes: 11,
            tx_bytes: 22,
            ts_ns: 33,
            rate: BitRate::from_bps(44),
        });
        let kinds = [
            PacketKind::Data {
                seq: 1,
                payload: 1000,
                last: true,
            },
            PacketKind::Ack {
                cum_seq: 4096,
                ecn_echo: true,
                data_tx_time: t,
                int,
            },
            PacketKind::Nack { expected_seq: 5 },
            PacketKind::RoccCnp {
                fair_rate_units: 200,
                cp,
            },
            PacketKind::RoccQueueReport {
                q_cur_units: 3,
                f_max_units: 4,
                cp,
            },
            PacketKind::DcqcnCnp,
            PacketKind::QcnFb { fb: 63, cp },
            PacketKind::PfcPause,
            PacketKind::PfcResume,
        ];
        let packets: Vec<Packet> = kinds
            .iter()
            .map(|&kind| Packet {
                flow: FlowId(5),
                src: NodeId(1),
                dst: NodeId(2),
                kind,
                ecn: true,
                int,
                sent_at: SimTime::from_nanos(999),
            })
            .collect();
        let feedback = [
            FeedbackEvent::RoccCnp {
                fair_rate_units: 200,
                cp,
            },
            FeedbackEvent::RoccQueueReport {
                q_cur_units: 3,
                f_max_units: 4,
                cp,
            },
            FeedbackEvent::DcqcnCnp,
            FeedbackEvent::QcnFb { fb: 7, cp },
        ];
        let faults = [
            FaultEvent::LinkDown(LinkId(3)),
            FaultEvent::LinkUp(LinkId(3)),
            FaultEvent::HostPause(NodeId(2)),
            FaultEvent::HostCrash(NodeId(2)),
            FaultEvent::HostRestore(NodeId(2)),
        ];
        let pr = PacketSlab::new().alloc(packets[0]);
        let (node, port, flow) = (NodeId(3), PortId(2), FlowId(8));
        let mut events = vec![
            Event::Arrive {
                link: LinkId(6),
                pr,
            },
            Event::SwitchTxDone { node, port },
            Event::HostTxDone { node },
            Event::HostWake { node },
            Event::CpTimer { node, port },
            Event::HostCcTimer {
                node,
                flow,
                token: 3,
            },
            Event::FlowStart { idx: 12 },
            Event::FlowStop { flow },
            Event::Sample,
        ];
        events.extend(feedback.map(|fb| Event::Feedback { node, flow, fb }));
        events.extend(faults.map(Event::Fault));
        let sim_events = [
            SimEvent::Drop {
                t,
                node,
                flow,
                cause: DropCause::HostDown,
            },
            SimEvent::Pfc {
                t,
                node,
                port,
                pause: true,
            },
            SimEvent::CnpEmit {
                t,
                cp,
                flow,
                fair_rate_units: 9,
            },
            SimEvent::CpDecision {
                t,
                cp,
                kind: CpDecisionKind::Pi,
                fair_rate_units: 9,
                alpha: 0.25,
                beta: -1.5,
                region: 2,
                qlen_bytes: 150_000,
            },
            SimEvent::RpTransition {
                t,
                node,
                flow,
                kind: RpTransitionKind::CpSwitch,
                rate_bps: 1_000_000,
                cp: None,
            },
            SimEvent::RpTransition {
                t,
                node,
                flow,
                kind: RpTransitionKind::Uninstall,
                rate_bps: 1_000_000,
                cp: Some(cp),
            },
            SimEvent::Fault {
                t,
                fault: faults[3],
            },
            SimEvent::PauseEdge {
                t,
                from: cp,
                to: CpId { node, port },
            },
            SimEvent::Verdict {
                t,
                kind: VerdictKind::WallClockExceeded,
                cycle_len: 3,
            },
            SimEvent::SchedClamp {
                t,
                requested: SimTime::from_nanos(5),
                total: 2,
            },
        ];
        let rows = [
            MetricRow::Queue {
                t,
                node,
                port,
                bytes: 10,
            },
            MetricRow::Cp {
                t,
                cp,
                fair_rate_units: 1,
                region: 2,
                alpha: 0.5,
                beta: 0.75,
            },
            MetricRow::Flow {
                t,
                flow,
                rp_bps: 3,
                goodput_bps: 4,
            },
            MetricRow::Pfc { t, cum_pause_ns: 5 },
        ];

        for p in &packets {
            roundtrips(p);
            truncations_fail(p);
        }
        for ev in &events {
            roundtrips(ev);
            truncations_fail(ev);
        }
        feedback.iter().for_each(roundtrips);
        faults.iter().for_each(roundtrips);
        sim_events.iter().for_each(roundtrips);
        rows.iter().for_each(roundtrips);
        roundtrips(&Sample { t, v: 1e9 });
        roundtrips(&FctRecord {
            flow,
            size: 1,
            start: t,
            end: t,
        });
        roundtrips(&PfcEvent { t, node, port });
        for cause in [
            DropCause::Congestion,
            DropCause::Unroutable,
            DropCause::FaultLoss,
            DropCause::FaultCorrupt,
            DropCause::LinkDown,
            DropCause::HostDown,
        ] {
            roundtrips(&cause);
        }
        for kind in [
            CpDecisionKind::MdToMin,
            CpDecisionKind::MdHalve,
            CpDecisionKind::Pi,
        ] {
            roundtrips(&kind);
        }
        for kind in [
            RpTransitionKind::Install,
            RpTransitionKind::RateUpdate,
            RpTransitionKind::CpSwitch,
            RpTransitionKind::RecoveryDouble,
            RpTransitionKind::Uninstall,
        ] {
            roundtrips(&kind);
        }
        for kind in [
            VerdictKind::PfcDeadlock,
            VerdictKind::InvariantViolation,
            VerdictKind::DeadlineExceeded,
            VerdictKind::Drained,
            VerdictKind::BudgetExhausted,
            VerdictKind::Stalled,
            VerdictKind::WallClockExceeded,
        ] {
            roundtrips(&kind);
        }

        // Out-of-range tags. A packet's kind tag follows its flow, src and
        // dst words, so it is checked through `PacketKind` itself.
        unknown_tags_are_malformed(&kinds[0], 9);
        unknown_tags_are_malformed(&feedback[0], 4);
        unknown_tags_are_malformed(&faults[0], 5);
        unknown_tags_are_malformed(&events[0], 11);
        unknown_tags_are_malformed(&sim_events[0], 9);
        unknown_tags_are_malformed(&rows[0], 4);
        unknown_tags_are_malformed(&DropCause::Congestion, 6);
        unknown_tags_are_malformed(&CpDecisionKind::Pi, 3);
        unknown_tags_are_malformed(&RpTransitionKind::Install, 5);
        unknown_tags_are_malformed(&VerdictKind::Drained, 7);

        // The INT hop count is bounded by the stack's capacity.
        let mut deep = encode(&int);
        deep[0] = crate::packet::MAX_INT_HOPS as u8 + 1;
        assert_eq!(
            decode::<IntStack>(&deep),
            Err(SnapshotError::Malformed("int stack length"))
        );
    }
}
