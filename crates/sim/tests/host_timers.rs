//! Per-flow host timers through the whole engine: one queued event per
//! (flow, slot) keeps the scheduler shallow, a crash kills every armed
//! timer, and a host pause only delays them (the engine replays a live
//! timer every 100 µs while its host is down).

use rocc_core::{RoccHostCcFactory, RoccSwitchCcFactory};
use rocc_sim::cc::{AckEvent, HostCc, HostCcCtx, HostCcFactory, NullSwitchCcFactory, RateDecision};
use rocc_sim::prelude::*;
use std::cell::RefCell;
use std::rc::Rc;

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

/// One 10 MB flow at 40 Gb/s re-arms its 4 ms RTO on each of ~10K data
/// packets and each advancing ACK. With one queued event per slot the
/// scheduler stays a few dozen deep; one event per arm would queue
/// thousands of dead RTOs.
#[test]
fn one_long_flow_keeps_the_scheduler_shallow() {
    let (topo, srcs, dst) = dumbbell(1, 40);
    let mut sim = Sim::new(
        topo,
        SimConfig::default(),
        Box::new(RoccHostCcFactory::new()),
        Box::new(RoccSwitchCcFactory::new()),
    );
    sim.add_flow(FlowSpec {
        id: FlowId(0),
        src: srcs[0],
        dst,
        size: 10_000_000,
        start: SimTime::ZERO,
        offered: None,
    });
    sim.run_until_flows_done(SimTime::from_millis(20))
        .assert_complete();
    assert!(
        sim.kernel.peak_pending() <= 64,
        "peak pending events {} for a single flow",
        sim.kernel.peak_pending()
    );
}

/// Line-rate sender whose token-0 timer is a self-re-arming chain, like
/// RoCC's RP recovery timer (Alg. 2): the first ACK arms it, and every
/// firing records the instant and re-arms it.
struct ChainCc {
    rate: BitRate,
    started: bool,
    fires: Rc<RefCell<Vec<SimTime>>>,
}

const CHAIN_PERIOD: SimDuration = SimDuration::from_micros(30);

impl HostCc for ChainCc {
    fn decision(&self) -> RateDecision {
        RateDecision::line_rate(self.rate)
    }

    fn on_ack(&mut self, ctx: &mut HostCcCtx, _ack: AckEvent) {
        if !self.started {
            self.started = true;
            ctx.set_timer(0, CHAIN_PERIOD);
        }
    }

    fn on_timer(&mut self, ctx: &mut HostCcCtx, token: u8) {
        assert_eq!(token, 0);
        self.fires.borrow_mut().push(ctx.now);
        ctx.set_timer(0, CHAIN_PERIOD);
    }
}

struct ChainFactory(Rc<RefCell<Vec<SimTime>>>);

impl HostCcFactory for ChainFactory {
    fn make(&self, _flow: FlowId, link_rate: BitRate) -> Box<dyn HostCc> {
        Box::new(ChainCc {
            rate: link_rate,
            started: false,
            fires: self.0.clone(),
        })
    }
}

const DOWN_AT: SimTime = SimTime::from_micros(200);
const UP_AT: SimTime = SimTime::from_micros(500);

/// Run one open-ended chain-timer flow with `plan` applied to its sender
/// until 1 ms; return the chain's fire instants.
fn chain_fires(plan: impl FnOnce(NodeId) -> FaultPlan) -> Vec<SimTime> {
    let (topo, srcs, dst) = dumbbell(1, 40);
    let fires = Rc::new(RefCell::new(Vec::new()));
    let cfg = SimConfig {
        fault_plan: plan(srcs[0]),
        ..SimConfig::default()
    };
    let mut sim = Sim::new(
        topo,
        cfg,
        Box::new(ChainFactory(fires.clone())),
        Box::new(NullSwitchCcFactory),
    );
    sim.add_flow(FlowSpec {
        id: FlowId(0),
        src: srcs[0],
        dst,
        size: u64::MAX,
        start: SimTime::ZERO,
        offered: Some(BitRate::from_gbps(10)),
    });
    sim.run_until(SimTime::from_millis(1));
    let v = fires.borrow().clone();
    v
}

#[test]
fn a_crash_kills_every_armed_timer() {
    let fires = chain_fires(|h| FaultPlan::default().with_host_crash(h, DOWN_AT, UP_AT));
    assert!(fires.len() >= 5, "chain ran before the crash: {fires:?}");
    assert!(
        fires.iter().all(|&t| t < DOWN_AT),
        "a timer armed before the crash fired after it: {fires:?}"
    );
}

#[test]
fn a_pause_keeps_a_timer_chain_alive_through_host_down_replay() {
    let fires = chain_fires(|h| FaultPlan::default().with_host_pause(h, DOWN_AT, UP_AT));
    let before = fires.iter().filter(|&&t| t < DOWN_AT).count();
    assert!(before >= 5, "chain ran before the pause: {fires:?}");
    assert!(
        !fires.iter().any(|&t| t >= DOWN_AT && t < UP_AT),
        "a timer fired while its host was paused: {fires:?}"
    );
    // The frozen timer is replayed every 100 µs while the host is down and
    // fires at the first replay after the resume; the chain then goes on
    // at its own period.
    let after: Vec<SimTime> = fires.iter().copied().filter(|&t| t >= UP_AT).collect();
    assert!(
        after[0] < UP_AT + SimDuration::from_micros(100),
        "first post-pause fire at {:?}",
        after[0]
    );
    assert!(after.len() >= 10, "chain died after the pause: {fires:?}");
    for w in after.windows(2) {
        assert_eq!(w[1].saturating_since(w[0]), CHAIN_PERIOD);
    }
}

const ROCC_DOWN_AT: SimTime = SimTime::from_micros(600);
const ROCC_UP_AT: SimTime = SimTime::from_micros(900);

/// RoCC end to end: a sender paused mid-incast keeps its RP recovery-timer
/// chain (Alg. 2 fast recovery) across the pause, so its rate limiter
/// goes on doubling after the resume; a crash instead drops the chain.
#[test]
fn a_pause_keeps_the_rocc_recovery_chain_alive() {
    let recoveries_after_resume = |plan: fn(NodeId) -> FaultPlan| {
        let (topo, srcs, dst) = dumbbell(4, 40);
        let cfg = SimConfig {
            fault_plan: plan(srcs[0]),
            ..SimConfig::default()
        };
        let mut sim = Sim::new(
            topo,
            cfg,
            Box::new(RoccHostCcFactory::new()),
            Box::new(RoccSwitchCcFactory::new()),
        );
        sim.trace.telemetry.collect(EventMask::RP_TRANSITION);
        for (i, &s) in srcs.iter().enumerate() {
            sim.add_flow(FlowSpec {
                id: FlowId(i as u64),
                src: s,
                dst,
                size: u64::MAX,
                start: SimTime::ZERO,
                offered: None,
            });
        }
        sim.run_until(ROCC_UP_AT + SimDuration::from_micros(150));
        let paused = srcs[0];
        sim.trace
            .telemetry
            .events
            .iter()
            .filter(|e| {
                matches!(e, SimEvent::RpTransition { t, node, kind: RpTransitionKind::RecoveryDouble, .. }
                    if *node == paused && *t >= ROCC_UP_AT)
            })
            .count()
    };
    let paused = recoveries_after_resume(|h| {
        FaultPlan::default().with_host_pause(h, ROCC_DOWN_AT, ROCC_UP_AT)
    });
    let crashed = recoveries_after_resume(|h| {
        FaultPlan::default().with_host_crash(h, ROCC_DOWN_AT, ROCC_UP_AT)
    });
    assert!(paused > 0, "recovery chain died across the pause");
    assert_eq!(crashed, 0, "recovery timer survived a crash");
}
