//! Snapshot/restore round-trip fidelity on the chaos scenario.
//!
//! The property behind sub-cell crash recovery: for ANY event index `k`
//! of a faulted run, `restore(snapshot(sim at k))` into an identically
//! rebuilt sim, run to completion, must reproduce the uninterrupted
//! run's fingerprint bit for bit — event counts, FCT nanoseconds,
//! drop/retransmit/control counters, fault-injection counters — and the
//! same clean sanitizer verdict. The scenario is the same 6-sender
//! incast with data loss, CNP loss and a link flap that pins the golden
//! engine fingerprints, across the golden seeds 1/7/42.

use proptest::prelude::*;
use rocc_core::{RoccHostCcFactory, RoccSwitchCcFactory};
use rocc_sim::prelude::*;
use rocc_sim::snapshot;

fn dumbbell(n: usize, gbps: u64) -> (Topology, Vec<NodeId>, NodeId) {
    let mut b = TopologyBuilder::new();
    let sw = b.add_switch("sw", NodeRole::Switch);
    let dst = b.add_host("dst");
    b.connect(sw, dst, BitRate::from_gbps(gbps), SimDuration::from_micros(1));
    let mut srcs = Vec::new();
    for i in 0..n {
        let h = b.add_host(format!("s{i}"));
        b.connect(h, sw, BitRate::from_gbps(gbps), SimDuration::from_micros(1));
        srcs.push(h);
    }
    (b.build(), srcs, dst)
}

/// The golden chaos incast, built but not run. The restore protocol
/// requires the caller to rebuild the sim identically before restoring,
/// so both the snapshot side and the restore side call this.
fn build_chaos(seed: u64) -> Sim {
    let (topo, srcs, dst) = dumbbell(6, 40);
    let cfg = SimConfig {
        seed,
        fault_plan: FaultPlan::default()
            .with_loss(FaultTarget::Data, 0.004)
            .with_loss(FaultTarget::Cnp, 0.01)
            .with_flap(
                LinkId(3),
                SimTime::from_micros(400),
                SimTime::from_micros(900),
            ),
        ..SimConfig::default()
    };
    let mut sim = Sim::new(
        topo,
        cfg,
        Box::new(RoccHostCcFactory::new()),
        Box::new(RoccSwitchCcFactory::new()),
    );
    for (i, &s) in srcs.iter().enumerate() {
        sim.add_flow(FlowSpec {
            id: FlowId(i as u64),
            src: s,
            dst,
            size: 1_000_000,
            start: SimTime::ZERO,
            offered: None,
        });
    }
    sim
}

/// Everything simulation-visible a finished run produced.
#[derive(Debug, PartialEq)]
struct Fingerprint {
    events: u64,
    fcts: Vec<(u64, u64)>,
    drops: u64,
    retx: u64,
    ctrl_emitted: u64,
    injected_drops: u64,
}

fn fingerprint(sim: &Sim) -> Fingerprint {
    Fingerprint {
        events: sim.events_processed(),
        fcts: sim
            .trace
            .fcts
            .iter()
            .map(|r| (r.flow.0, r.end.as_nanos()))
            .collect(),
        drops: sim.trace.drops,
        retx: sim.trace.retx_bytes,
        ctrl_emitted: sim.trace.ctrl_emitted,
        injected_drops: sim.trace.faults.data_lost + sim.trace.faults.ctrl_lost,
    }
}

const HORIZON: SimTime = SimTime::from_millis(100);

/// Uninterrupted reference run: fingerprint plus total event count (the
/// proptest draws its cut points from the latter).
fn reference(seed: u64) -> (Fingerprint, u64) {
    let mut sim = build_chaos(seed);
    let verdict = sim.run_until_flows_done(HORIZON);
    assert!(verdict.is_complete(), "reference must finish: {verdict:?}");
    let f = fingerprint(&sim);
    let events = f.events;
    (f, events)
}

/// Step to event `k`, snapshot, restore into a fresh identically built
/// sim, run to completion; return its fingerprint and the snapshot.
fn roundtrip(seed: u64, k: u64) -> (Fingerprint, Vec<u8>) {
    let mut donor = build_chaos(seed);
    while donor.events_processed() < k && donor.step() {}
    let bytes = donor.snapshot();

    let mut resumed = build_chaos(seed);
    resumed
        .restore(&bytes)
        .expect("snapshot of an identically built sim must restore");
    assert_eq!(resumed.events_processed(), donor.events_processed());
    let verdict = resumed.run_until_flows_done(HORIZON);
    assert!(verdict.is_complete(), "resumed run must finish: {verdict:?}");
    (fingerprint(&resumed), bytes)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Bit-identical resume from an arbitrary cut point of any golden
    /// seed's faulted run.
    #[test]
    fn restore_at_any_event_index_is_bit_identical(
        seed_idx in 0usize..3,
        frac in 0.0f64..1.0,
    ) {
        let seed = [1u64, 7, 42][seed_idx];
        let (want, total) = reference(seed);
        let k = (frac * total as f64) as u64;
        let (got, bytes) = roundtrip(seed, k);
        prop_assert_eq!(got, want, "resume from event {} of seed {}", k, seed);

        // The container header tells the truth about the cut point.
        let info = snapshot::inspect(&bytes).expect("snapshot inspects clean");
        prop_assert_eq!(info.seed, seed);
        prop_assert_eq!(info.events_processed, k.min(total));
    }
}

/// Event indices `k` of a seed's uninterrupted run at which the next
/// dispatch forwards a host timer: the step pops one event and queues one
/// under a previously reserved seq, so neither the pending count nor the
/// issued seqs move (any other event either queues nothing or issues a
/// fresh seq per push).
fn forwarding_cut_points(seed: u64) -> Vec<u64> {
    let mut sim = build_chaos(seed);
    let mut cuts = Vec::new();
    while sim.trace.fcts.len() < 6 {
        let (k, pending, pushes) = (
            sim.events_processed(),
            sim.kernel.pending(),
            sim.profiled_pushes(),
        );
        assert!(sim.step(), "run drained before its flows finished");
        if sim.kernel.pending() == pending && sim.profiled_pushes() == pushes {
            cuts.push(k);
        }
    }
    cuts
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Seed 1 recovers its last two flows by live go-back-N timeouts
    /// (FCTs of 6.7 and 10.1 ms against a 4 ms RTO), and every data
    /// packet and advancing ACK re-arms the RTO slot. Cutting just before
    /// a timer event is forwarded to its re-armed deadline, or just
    /// after, must resume bit-identically: the slot's armed and queued
    /// keys round-trip with the scheduler entry they describe.
    #[test]
    fn restore_while_a_timer_is_being_forwarded_is_bit_identical(
        pick in 0.0f64..1.0,
        after in 0u64..2,
    ) {
        static CUTS: std::sync::OnceLock<Vec<u64>> = std::sync::OnceLock::new();
        let seed = 1;
        let (want, _) = reference(seed);
        let cuts = CUTS.get_or_init(|| forwarding_cut_points(seed));
        prop_assert!(cuts.len() >= 20, "only {} forwards on seed {}", cuts.len(), seed);
        let k = cuts[(pick * cuts.len() as f64) as usize] + after;
        let (got, _) = roundtrip(seed, k);
        prop_assert_eq!(got, want, "resume from event {} of seed {}", k, seed);
    }
}

/// The degenerate cut points: before the first event and after the last.
#[test]
fn restore_at_boundaries_is_bit_identical() {
    for seed in [1u64, 7, 42] {
        let (want, total) = reference(seed);
        let (at_start, _) = roundtrip(seed, 0);
        assert_eq!(at_start, want, "resume from event 0 of seed {seed}");
        let (at_end, _) = roundtrip(seed, total);
        assert_eq!(at_end, want, "resume from final event of seed {seed}");
    }
}

/// A snapshot taken under one config must refuse to restore into a sim
/// built with another (different seed ⇒ different config digest input),
/// and the error must identify the mismatch.
#[test]
fn restore_rejects_mismatched_seed() {
    let mut donor = build_chaos(7);
    while donor.events_processed() < 1000 && donor.step() {}
    let bytes = donor.snapshot();
    let mut other = build_chaos(42);
    match other.restore(&bytes) {
        Err(snapshot::SnapshotError::ConfigMismatch { .. }) => {}
        other => panic!("expected ConfigMismatch, got {other:?}"),
    }
}

/// Prints the checkpoint cost table for EXPERIMENTS.md: snapshot size,
/// save/restore latency at mid-run, and whole-run wall time at several
/// auto-checkpoint strides (vs disabled). Run with:
///
/// ```text
/// cargo test --release -p rocc-sim --test snapshot_roundtrip -- --ignored --nocapture
/// ```
#[test]
#[ignore]
fn measure_checkpoint_costs() {
    let (_, total) = reference(7);
    // One-shot save/restore latency and size at the run's midpoint.
    let mut donor = build_chaos(7);
    while donor.events_processed() < total / 2 && donor.step() {}
    let t0 = std::time::Instant::now();
    let bytes = donor.snapshot();
    let save_us = t0.elapsed().as_micros();
    let mut target = build_chaos(7);
    let t1 = std::time::Instant::now();
    target.restore(&bytes).unwrap();
    let restore_us = t1.elapsed().as_micros();
    println!(
        "mid-run snapshot ({} events): {} bytes, save {save_us} us, restore {restore_us} us",
        total / 2,
        bytes.len()
    );

    // Whole-run wall time vs stride (0 = checkpointing disabled). The
    // sink only counts — the journaling I/O cost is the store's, not
    // the engine's.
    for stride in [0u64, 50_000, 20_000, 5_000, 1_000] {
        let mut best = f64::MAX;
        let saves = std::rc::Rc::new(std::cell::Cell::new(0u64));
        for _ in 0..5 {
            let mut sim = build_chaos(7);
            if stride > 0 {
                saves.set(0);
                let counter = saves.clone();
                sim.enable_auto_checkpoint(
                    stride,
                    Box::new(move |_ev, b| {
                        assert!(!b.is_empty());
                        counter.set(counter.get() + 1);
                    }),
                );
            }
            let t = std::time::Instant::now();
            sim.run_until_flows_done(HORIZON).assert_complete();
            best = best.min(t.elapsed().as_secs_f64() * 1e3);
        }
        println!(
            "stride {stride:>6}: {} checkpoints, best wall {best:.2} ms",
            saves.get()
        );
    }
}

/// Flipping any single byte of the container must be caught by the
/// digest (or structural) checks — never silently restored.
#[test]
fn restore_rejects_corrupt_container() {
    let mut donor = build_chaos(7);
    while donor.events_processed() < 1000 && donor.step() {}
    let bytes = donor.snapshot();
    let mut rng_state = 0x9e37_79b9u64;
    for _ in 0..32 {
        // Cheap LCG over byte positions; determinism keeps the test stable.
        rng_state = rng_state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        let pos = (rng_state >> 33) as usize % bytes.len();
        let mut corrupt = bytes.clone();
        corrupt[pos] ^= 0x40;
        let mut sim = build_chaos(7);
        assert!(
            sim.restore(&corrupt).is_err(),
            "byte flip at {pos} restored silently"
        );
    }
}

/// The host timer words changed with `rocc-snapshot/v2`, and the body
/// became named, length-framed sections with `rocc-snapshot/v3`; a file
/// written under either older magic is refused by magic before any
/// decoding.
#[test]
fn a_v1_snapshot_is_refused_by_magic() {
    assert_eq!(snapshot::SNAPSHOT_MAGIC, b"rocc-snapshot/v3");
    let mut donor = build_chaos(7);
    while donor.events_processed() < 1000 && donor.step() {}
    for old in [b"rocc-snapshot/v1", b"rocc-snapshot/v2"] {
        let mut bytes = donor.snapshot();
        bytes[..16].copy_from_slice(old);
        assert_eq!(snapshot::inspect(&bytes), Err(snapshot::SnapshotError::BadMagic));
        let mut sim = build_chaos(7);
        assert_eq!(sim.restore(&bytes), Err(snapshot::SnapshotError::BadMagic));
    }
}
