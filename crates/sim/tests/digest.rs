//! Divergence-observatory integration suite (see DESIGN.md §3k).
//!
//! Pins the bisector's headline contract on the golden chaos scenario:
//! injecting a single RP rate-word bit flip after event `k` of a faulted
//! run must be traced back to exactly event `k` and attributed to a host
//! CC component — across the golden seeds 1/7/42. Also pins the
//! digest/words coupling (a component digest changes iff that
//! component's snapshot words change) and tolerant parsing of torn
//! digest-ledger tails as produced by a crashed run-loop writer.

use proptest::prelude::*;
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

/// The golden chaos incast: 6-sender incast with data loss, CNP loss and
/// a mid-run link flap, RoCC end to end — the same scenario the
/// golden-engine and scheduler-differential suites pin.
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

/// The acceptance bar for the whole observatory: a single bit flipped in
/// one host's CC state after event `k` is localized to exactly event `k`
/// and charged to a `host/…` component, on every faulted golden seed.
#[test]
fn bisector_finds_the_exact_flip_event_on_faulted_seeds() {
    for seed in [1u64, 7, 42] {
        let flip_at = 10_000u64;
        let mut a = build_chaos(seed);
        let mut b = build_chaos(seed);
        let opts = BisectOptions {
            scan_stride: 2048,
            max_events: 30_000,
            perturb_b_at: Some(flip_at),
        };
        match bisect_divergence(&mut a, &mut b, &opts) {
            BisectOutcome::Diverged(rep) => {
                assert_eq!(
                    rep.first_divergent_event, flip_at,
                    "seed {seed}: bisected to the wrong event"
                );
                assert!(
                    rep.component.starts_with("host/"),
                    "seed {seed}: flip charged to {} — expected a host CC component",
                    rep.component
                );
                assert_ne!(rep.digest_a, rep.digest_b);
                // The perturbation is one bit of one rate word: the
                // word-level diff must be exactly one word, one bit.
                assert_eq!(
                    rep.word_diff.len(),
                    1,
                    "seed {seed}: expected one differing word, got {:?}",
                    rep.word_diff
                );
                let d = &rep.word_diff[0];
                assert_eq!(
                    (d.a ^ d.b).count_ones(),
                    1,
                    "seed {seed}: expected a single-bit flip, got {:016x} vs {:016x}",
                    d.a,
                    d.b
                );
                // At the flip event both runs still agree on what happens
                // next — only state diverged, not the schedule (yet).
                assert!(rep.event_a.is_some());
                assert_eq!(rep.event_a, rep.event_b, "seed {seed}");
            }
            BisectOutcome::Identical { events } => panic!(
                "seed {seed}: injected flip never diverged through {events} events"
            ),
        }
    }
}

/// Two identically built runs never diverge: the bisector scans to its
/// event cap and says so, on every golden seed.
#[test]
fn identical_runs_bisect_to_identical() {
    for seed in [1u64, 7, 42] {
        let mut a = build_chaos(seed);
        let mut b = build_chaos(seed);
        let opts = BisectOptions {
            scan_stride: 2048,
            max_events: 12_000,
            perturb_b_at: None,
        };
        match bisect_divergence(&mut a, &mut b, &opts) {
            BisectOutcome::Identical { events } => {
                assert_eq!(events, 12_000, "seed {seed}: scan stopped early")
            }
            BisectOutcome::Diverged(rep) => panic!(
                "seed {seed}: identical runs reported divergent: {}",
                rep.summary()
            ),
        }
    }
}

/// A ledger recorded by the real run loop, torn mid-line as a crashed
/// writer would leave it, still parses: every complete row survives, the
/// torn tail is flagged, and the truncated ledger agrees with the full
/// one on every comparable row.
#[test]
fn run_loop_ledger_tolerates_a_torn_tail() {
    let mut sim = build_chaos(7);
    sim.enable_digest_ledger(1024);
    sim.run_until_flows_done(SimTime::from_millis(100))
        .assert_complete();
    let ledger = sim.take_digest_ledger().expect("ledger enabled above");
    assert!(
        ledger.entries().len() >= 8,
        "run too short to exercise the ledger: {} rows",
        ledger.entries().len()
    );
    let text = ledger.to_jsonl();

    // The intact file parses clean and round-trips every row.
    let full = parse_ledger_jsonl(&text);
    assert!(!full.torn_tail);
    assert_eq!(full.entries.len(), ledger.entries().len());
    assert_eq!(&full.entries, ledger.entries());

    // Tear the final line mid-digest, as a crash mid-write would.
    let last_line_start = text.trim_end().rfind('\n').expect("multi-row ledger") + 1;
    let torn_text = &text[..last_line_start + 40];
    let torn = parse_ledger_jsonl(torn_text);
    assert!(torn.torn_tail, "truncated tail not flagged");
    assert_eq!(torn.entries.len(), full.entries.len() - 1);
    assert_eq!(
        first_ledger_divergence(&torn.entries, &full.entries),
        None,
        "comparable rows must agree"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// The digest/words contract, at an arbitrary cut point of a faulted
    /// run: perturbing one host's CC state changes that component's
    /// snapshot words and digest, and *only* that component's — every
    /// component whose words are untouched keeps its digest bit for bit.
    #[test]
    fn component_digest_changes_iff_its_words_change(
        seed_idx in 0usize..3,
        frac in 0.0f64..1.0,
    ) {
        let seed = [1u64, 7, 42][seed_idx];
        let k = (frac * 20_000.0) as u64;
        let mut sim = build_chaos(seed);
        while sim.events_processed() < k && sim.step() {}

        let before_states = sim.component_states();
        let before = sim.state_digest();
        prop_assert!(sim.inject_rp_perturbation(), "no host CC state to perturb");
        let after_states = sim.component_states();
        let after = sim.state_digest();

        // Same component set, same order, on both sides.
        prop_assert_eq!(before.len(), after.len());
        let mut changed = Vec::new();
        for (b, a) in before_states.iter().zip(after_states.iter()) {
            prop_assert_eq!(&b.name, &a.name);
            let words_differ = b.bytes != a.bytes;
            let digests_differ =
                before.get(&b.name).expect("named") != after.get(&a.name).expect("named");
            prop_assert_eq!(
                words_differ, digests_differ,
                "component {}: words_differ={} but digests_differ={}",
                b.name, words_differ, digests_differ
            );
            if words_differ {
                changed.push(b.name.clone());
            }
        }
        // The flip touches exactly one host component and nothing else.
        prop_assert_eq!(changed.len(), 1, "changed: {:?}", &changed);
        prop_assert!(changed[0].starts_with("host/"), "changed: {:?}", &changed);
    }
}

/// Stepping the sim changes the kernel digest (time and the event cursor
/// advance), so two different cut points of the same run never share a
/// combined digest — the ledger can't silently alias distinct states.
#[test]
fn distinct_cut_points_have_distinct_digests() {
    let mut sim = build_chaos(7);
    let mut seen = std::collections::HashSet::new();
    for _ in 0..64 {
        let d = rocc_sim::digest::combined_digest(&sim.state_digest());
        assert!(seen.insert(d), "combined digest repeated mid-run");
        assert!(sim.step(), "run drained before 64 events");
    }
}

/// `step()` and `run_until` drive the same run loop, so a ledger recorded
/// by stepping to N events equals one recorded by `run_until` up to the
/// same point, row for row.
#[test]
fn stepped_ledger_equals_run_until_ledger() {
    let mut run = build_chaos(7);
    run.enable_digest_ledger(1024);
    run.run_until(SimTime::from_micros(600));
    let n = run.events_processed();
    let mut stepped = build_chaos(7);
    stepped.enable_digest_ledger(1024);
    while stepped.events_processed() < n && stepped.step() {}
    assert_eq!(stepped.events_processed(), n);
    let (a, b) = (run.digest_ledger().unwrap(), stepped.digest_ledger().unwrap());
    assert!(a.entries().len() >= 4, "too few rows: {}", a.entries().len());
    assert_eq!(a.entries(), b.entries());
    assert_eq!(a.to_jsonl(), b.to_jsonl());
}
