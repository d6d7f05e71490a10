//! Golden-run pinning for the event-queue/slab refactor.
//!
//! The indexed event queue (packet slab + compact heap keys) must be a
//! pure representation change: every simulation-visible output — event
//! counts, FCT nanoseconds, drop/retransmit/control counters, fault
//! counters — must be bit-identical to the seed engine that sifted full
//! `Packet`s through the heap. The constants below were captured from
//! the pre-refactor engine (commit 7d7e222) on the chaos scenario used
//! by the observer-effect suite: a 6-sender incast with data loss, CNP
//! loss and a link flap all active, across three seeds.
//!
//! The `events` column was re-pinned once, deliberately, when per-flow
//! host timers were coalesced to one queued event per (flow, slot) (was
//! 90689 / 66614 / 66837 for seeds 1 / 7 / 42). A re-armed RTO or CC
//! timer used to push a fresh event and leave the old one queued to pop
//! as a no-op; those pops are gone, while every live timer still fires at
//! the same `(at, seq)`. So the FCTs and every counter other than
//! `events` kept their values. Seed 1 runs past the 4 ms RTO of its
//! early packets and lost 13,434 no-op pops; seeds 7 and 42 finish first
//! and lost only the RP timer's 18–19.
//!
//! To regenerate after an *intentional* behavior change, run:
//!
//! ```text
//! cargo test --test golden_engine -- --ignored --nocapture
//! ```
//!
//! and paste the printed table over `GOLDEN`.

use rocc_core::{RoccHostCcFactory, RoccSwitchCcFactory};
use rocc_sim::prelude::*;

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

/// Everything simulation-visible a run produces.
#[derive(Debug, PartialEq)]
struct RunFingerprint {
    events: u64,
    fcts: Vec<(u64, u64)>,
    drops: u64,
    unroutable: u64,
    retx: u64,
    ctrl_emitted: u64,
    injected_drops: u64,
}

/// Where divergence artifacts land when a golden assertion fails (CI
/// uploads this directory).
fn diverge_dir() -> String {
    std::env::var("ROCC_DIVERGE_DIR").unwrap_or_else(|_| "target/diverge".to_string())
}

/// The same faulted incast the chaos/observer suites exercise: loss on
/// data and CNPs plus a mid-run link flap, RoCC end to end. The run
/// records the strided digest ledger (pure observation — `observer_effect`
/// pins that recording is bit-identical to not recording) so a
/// fingerprint mismatch can be localized offline.
fn chaos_incast(seed: u64) -> (RunFingerprint, DigestLedger) {
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
    sim.enable_digest_ledger(4096);
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
    let verdict = sim.run_until_flows_done(SimTime::from_millis(100));
    assert!(verdict.is_complete(), "chaos incast must finish: {verdict:?}");
    // Healthy schemes never schedule into the past; a nonzero clamp count
    // on a golden seed means a node handler regressed (see
    // `Kernel::past_due_clamps`).
    assert_eq!(
        sim.kernel.past_due_clamps(),
        0,
        "golden seed {seed} produced past-due schedule clamps"
    );
    let fp = RunFingerprint {
        events: sim.events_processed(),
        fcts: sim
            .trace
            .fcts
            .iter()
            .map(|r| (r.flow.0, r.end.as_nanos()))
            .collect(),
        drops: sim.trace.drops,
        unroutable: sim.trace.unroutable_drops,
        retx: sim.trace.retx_bytes,
        ctrl_emitted: sim.trace.ctrl_emitted,
        injected_drops: sim.trace.faults.data_lost + sim.trace.faults.ctrl_lost,
    };
    let ledger = sim.take_digest_ledger().expect("ledger enabled above");
    (fp, ledger)
}

/// Golden fingerprints captured from the pre-refactor (full-`Packet`
/// heap) engine, with `events` re-pinned for timer coalescing (see the
/// module docs). Seeds chosen to hit distinct loss/flap interleavings.
const GOLDEN: &[(u64, u64, &[(u64, u64)], u64, u64, u64, u64, u64)] = &[
    // (seed, events, fcts, drops, unroutable, retx, ctrl_emitted, injected)
    (1, 77255, &[(2, 2339013), (5, 2396585), (3, 2478577), (1, 2623852), (4, 6706250), (0, 10119843)], 0, 0, 2922000, 90, 74),
    (7, 66595, &[(5, 2283643), (4, 2555433), (1, 2559048), (3, 2604450), (2, 2655552), (0, 2881297)], 0, 0, 1687000, 96, 70),
    (42, 66819, &[(4, 2214717), (5, 2356143), (2, 2367213), (1, 2391653), (3, 2399267), (0, 2498173)], 0, 0, 1733000, 82, 77),
];

#[test]
fn slab_queue_is_bit_identical_to_seed_engine() {
    for &(seed, events, fcts, drops, unroutable, retx, ctrl, injected) in GOLDEN {
        let (got, ledger) = chaos_incast(seed);
        let want = RunFingerprint {
            events,
            fcts: fcts.to_vec(),
            drops,
            unroutable,
            retx,
            ctrl_emitted: ctrl,
            injected_drops: injected,
        };
        if got != want {
            // Pinned constants can't be bisected live (the reference
            // build is gone) — dump the run's per-component digest
            // ledger so the mismatch can be localized offline against a
            // known-good build: `repro diverge ledgers <good> <this>`.
            let path = format!("{}/golden_seed{seed}_digest_ledger.jsonl", diverge_dir());
            let wrote = write_artifact(&path, &ledger.to_jsonl())
                .map(|()| path)
                .unwrap_or_else(|e| format!("<failed to write ledger: {e}>"));
            panic!(
                "engine diverged from golden run at seed {seed}:\n  got: {got:?}\n want: {want:?}\n\
                 digest ledger written to {wrote}; diff against a known-good\n\
                 build's ledger with `repro diverge ledgers <good.jsonl> {wrote}`"
            );
        }
    }
}

/// Prints the golden table for the seeds above; used to (re)capture the
/// constants when a deliberate behavior change lands.
#[test]
#[ignore]
fn capture_golden_fingerprints() {
    for seed in [1u64, 7, 42] {
        let (f, _) = chaos_incast(seed);
        println!(
            "    ({seed}, {}, &{:?}, {}, {}, {}, {}, {}),",
            f.events, f.fcts, f.drops, f.unroutable, f.retx, f.ctrl_emitted, f.injected_drops
        );
    }
}
