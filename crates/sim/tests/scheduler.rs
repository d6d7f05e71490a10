//! Scheduler-backend differential suite: the binary heap is kept as an
//! oracle for the hierarchical timing wheel (see DESIGN.md §3j). Both
//! backends implement the same `(at, seq)` total order, so a full
//! chaos-grade simulation — loss, CNP loss, a link flap, RoCC end to
//! end — must produce bit-identical outputs under either one.
//!
//! The backend is forced per-`Sim` with [`Sim::set_scheduler_backend`]
//! rather than via the `ROCC_SCHEDULER` env override: tests run on
//! parallel threads and the env var is process-global.

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

/// Everything simulation-visible a run produces, plus the scheduler
/// watermark (the queues must agree on *accounting*, not just outputs).
#[derive(Debug, PartialEq)]
struct RunFingerprint {
    events: u64,
    fcts: Vec<(u64, u64)>,
    drops: u64,
    retx: u64,
    ctrl_emitted: u64,
    injected_drops: u64,
    peak_pending: usize,
    clamps: u64,
}

/// The chaos incast from the golden-engine suite, built (not run) on an
/// explicit scheduler backend. Separate from the runner so a divergence
/// can be bisected on freshly built sims.
fn build_chaos(seed: u64, backend: Backend) -> Sim {
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
    sim.set_scheduler_backend(backend);
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

/// Run the chaos incast on an explicit backend and fingerprint it.
fn chaos_incast(seed: u64, backend: Backend) -> RunFingerprint {
    let mut sim = build_chaos(seed, backend);
    let verdict = sim.run_until_flows_done(SimTime::from_millis(100));
    assert!(verdict.is_complete(), "chaos incast must finish: {verdict:?}");
    assert_eq!(sim.kernel.scheduler_backend(), backend);
    fingerprint(&sim)
}

fn fingerprint(sim: &Sim) -> RunFingerprint {
    RunFingerprint {
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
        peak_pending: sim.kernel.peak_pending(),
        clamps: sim.kernel.past_due_clamps(),
    }
}

#[test]
fn wheel_is_bit_identical_to_the_heap_oracle() {
    for seed in [1u64, 7, 42] {
        let heap = chaos_incast(seed, Backend::Heap);
        let wheel = chaos_incast(seed, Backend::Wheel);
        if heap != wheel {
            // Unlike the pinned golden constants, both sides of this
            // differential are reproducible here — bisect fresh sims to
            // the exact first divergent event and write the full
            // `rocc-divergence-report/v1` before failing (CI uploads it).
            let dir = std::env::var("ROCC_DIVERGE_DIR")
                .unwrap_or_else(|_| "target/diverge".to_string());
            let path = format!("{dir}/scheduler_seed{seed}_divergence.json");
            let mut a = build_chaos(seed, Backend::Heap);
            let mut b = build_chaos(seed, Backend::Wheel);
            let opts = BisectOptions {
                scan_stride: 2048,
                max_events: 400_000,
                perturb_b_at: None,
            };
            match bisect_divergence(&mut a, &mut b, &opts) {
                BisectOutcome::Diverged(rep) => {
                    let wrote = write_artifact(&path, &rep.to_json())
                        .map(|()| path)
                        .unwrap_or_else(|e| format!("<failed to write report: {e}>"));
                    panic!(
                        "scheduler backends diverged on chaos seed {seed} \
                         (heap=a, wheel=b): {}\nreport written to {wrote}",
                        rep.summary()
                    );
                }
                BisectOutcome::Identical { events } => panic!(
                    "scheduler fingerprints differ on chaos seed {seed} but per-event \
                     states matched through {events} events:\nheap:  {heap:?}\nwheel: {wheel:?}"
                ),
            }
        }
    }
}

/// A 4-sender incast run in `run_until` chunks. After each chunk the run
/// loop has popped and requeued the first event past the deadline, which
/// moved the wheel's clock there; a flow added to start 1 ns after the
/// deadline lands below that clock, so the wheel must rebase.
fn chunked_incast_with_late_flows(backend: Backend) -> (RunFingerprint, u64) {
    let (topo, srcs, dst) = dumbbell(4, 40);
    let mut sim = Sim::new(
        topo,
        SimConfig::default(),
        Box::new(RoccHostCcFactory::new()),
        Box::new(RoccSwitchCcFactory::new()),
    );
    sim.set_scheduler_backend(backend);
    let flow = |id: u64, src: NodeId, start: SimTime| FlowSpec {
        id: FlowId(id),
        src,
        dst,
        size: 200_000,
        start,
        offered: None,
    };
    for (i, &s) in srcs.iter().enumerate() {
        sim.add_flow(flow(i as u64, s, SimTime::ZERO));
    }
    let mut deadline = SimTime::ZERO;
    for k in 0..12u64 {
        deadline = deadline + SimDuration::from_nanos(37_013);
        sim.run_until(deadline);
        let src = srcs[k as usize % srcs.len()];
        sim.add_flow(flow(100 + k, src, deadline + SimDuration::from_nanos(1)));
    }
    sim.run_until_flows_done(SimTime::from_millis(100)).assert_complete();
    assert_eq!(sim.trace.fcts.len(), srcs.len() + 12);
    (fingerprint(&sim), sim.kernel.scheduler_stats().rebases)
}

#[test]
fn wheel_rebases_match_the_heap_in_a_full_sim() {
    let (heap, _) = chunked_incast_with_late_flows(Backend::Heap);
    let (wheel, rebases) = chunked_incast_with_late_flows(Backend::Wheel);
    assert_eq!(heap, wheel);
    assert_eq!(wheel.clamps, 0, "every late flow starts at or after the kernel clock");
    assert!(rebases > 0, "no late flow landed below the wheel clock");
}

#[test]
fn wheel_actually_cascades_on_a_real_workload() {
    // Guard against a degenerate wheel that keeps everything in level 0:
    // a real run schedules timers far enough out (CP ticks, CC timers,
    // retransmit deadlines) that upper levels must see traffic.
    let f = chaos_incast(1, Backend::Wheel);
    assert!(f.events > 0);
    let (topo, srcs, dst) = dumbbell(6, 40);
    let mut sim = Sim::new(
        topo,
        SimConfig::default(),
        Box::new(RoccHostCcFactory::new()),
        Box::new(RoccSwitchCcFactory::new()),
    );
    sim.set_scheduler_backend(Backend::Wheel);
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
    sim.run_until_flows_done(SimTime::from_millis(100)).assert_complete();
    let stats = sim.kernel.scheduler_stats();
    assert!(
        stats.cascades > 0,
        "wheel never cascaded — everything landed in level 0?"
    );
    assert!(stats.cascaded_events >= stats.cascades);
    assert!(
        stats.max_level >= 1,
        "no event ever reached an overflow level"
    );
}

#[test]
fn heap_oracle_reports_no_wheel_stats() {
    let (topo, _, _) = dumbbell(2, 40);
    let mut sim = Sim::new(
        topo,
        SimConfig::default(),
        Box::new(RoccHostCcFactory::new()),
        Box::new(RoccSwitchCcFactory::new()),
    );
    sim.set_scheduler_backend(Backend::Heap);
    let stats = sim.kernel.scheduler_stats();
    assert_eq!(stats.cascades, 0);
    assert_eq!(stats.rebases, 0);
    assert_eq!(stats.max_level, 0);
}
