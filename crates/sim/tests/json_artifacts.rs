//! Writer/reader agreement: every JSON artifact the simulator writes
//! parses under the strict reader in `rocc_sim::json` — verdicts, timeline
//! events, metric rows, the telemetry and profiler reports, the divergence
//! report and the digest ledger.

use rocc_core::{RoccHostCcFactory, RoccSwitchCcFactory};
use rocc_sim::json::{self, Value};
use rocc_sim::prelude::*;

fn strict(doc: &str) -> Value {
    json::parse(doc).unwrap_or_else(|e| panic!("{e}\n{doc}"))
}

/// A small faulted incast with every observer on: full telemetry, the
/// observatory, the profiler, the sanitizer and the digest ledger.
fn observed_run() -> Sim {
    let mut b = TopologyBuilder::new();
    let sw = b.add_switch("sw", NodeRole::Switch);
    let dst = b.add_host("dst");
    b.connect(sw, dst, BitRate::from_gbps(40), SimDuration::from_micros(1));
    let mut srcs = Vec::new();
    for i in 0..4 {
        let h = b.add_host(format!("s{i}"));
        b.connect(h, sw, BitRate::from_gbps(40), SimDuration::from_micros(1));
        srcs.push(h);
    }
    let cfg = SimConfig {
        seed: 3,
        fault_plan: FaultPlan::default().with_loss(FaultTarget::Data, 0.004),
        ..SimConfig::default()
    };
    let mut sim = Sim::new(
        b.build(),
        cfg,
        Box::new(RoccHostCcFactory::new()),
        Box::new(RoccSwitchCcFactory::new()),
    );
    sim.trace.telemetry.collect(EventMask::ALL);
    sim.trace.observatory.enable();
    sim.trace.sample_period = Some(SimDuration::from_micros(10));
    sim.trace.watch_queue(sw, PortId(0));
    sim.enable_profiler_with_stride(1);
    sim.enable_sanitizer();
    sim.enable_digest_ledger(512);
    for (i, &s) in srcs.iter().enumerate() {
        sim.trace.watch_flow_rate(FlowId(i as u64));
        sim.add_flow(FlowSpec {
            id: FlowId(i as u64),
            src: s,
            dst,
            size: 300_000,
            start: SimTime::ZERO,
            offered: None,
        });
    }
    sim.run_until_flows_done(SimTime::from_millis(50)).assert_complete();
    sim
}

#[test]
fn run_artifacts_parse_strictly() {
    let sim = observed_run();
    assert!(!sim.trace.telemetry.events.is_empty());
    for e in &sim.trace.telemetry.events {
        strict(&e.to_json());
    }
    let rows: Vec<()> = json::parse_jsonl(&sim.trace.observatory.to_jsonl(), |_| Ok(()))
        .collect::<Result<_, _>>()
        .expect("metrics JSONL parses");
    assert!(!rows.is_empty());
    strict(&sim.trace.telemetry.metrics_json());
    strict(&sim.profile().to_json());
    let profile = strict(&sim.perf_profile_json());
    assert!(profile.path("schema").is_some());
    strict(&export_chrome_trace(&sim));
    let ledger = sim.digest_ledger().expect("ledger enabled").to_jsonl();
    let parsed = parse_ledger_jsonl(&ledger);
    assert!(!parsed.torn_tail);
    assert_eq!(&parsed.entries, sim.digest_ledger().unwrap().entries());
}

#[test]
fn every_verdict_and_event_variant_parses() {
    let t = SimTime::from_nanos(1_234);
    let cp = CpId { node: NodeId(1), port: PortId(2) };
    let errors = vec![
        SimError::PfcDeadlock {
            detected_at: t,
            cycle: vec![PauseCycleNode {
                node: NodeId(1),
                port: PortId(0),
                qlen_bytes: 9,
                ingress_buffered: 10,
            }],
            victims: vec![FlowId(4), FlowId(u64::MAX)],
        },
        SimError::DeadlineExceeded { at: t, incomplete_flows: 2, paused_ports: 1 },
        SimError::Drained { at: t, incomplete_flows: 3 },
        SimError::InvariantViolation {
            at: t,
            violations: vec!["queue \"p0\" went\nnegative \\ \u{1}".into(), String::new()],
        },
        SimError::BudgetExhausted { at: t, events: 5, limit: 5, incomplete_flows: 1 },
        SimError::Stalled { at: t, events_at_instant: 7, incomplete_flows: 1 },
        SimError::WallClockExceeded { at: t, wall_ms: 9, limit_ms: 8, incomplete_flows: 1 },
    ];
    for e in &errors {
        let v = strict(&e.to_json());
        assert_eq!(v.as_object().unwrap().u64("t_ns"), Ok(1_234), "{e:?}");
        strict(&RunVerdict::Failed(e.clone()).to_json());
    }
    let violation = strict(&errors[3].to_json());
    let first = &violation.path("violations").unwrap().value.as_array().unwrap()[0];
    assert_eq!(first.as_str(), Some("queue \"p0\" went\nnegative \\ \u{1}"));
    strict(&RunVerdict::Completed { flows: 3 }.to_json());

    let events = [
        SimEvent::Drop { t, node: NodeId(1), flow: FlowId(2), cause: DropCause::FaultCorrupt },
        SimEvent::Pfc { t, node: NodeId(1), port: PortId(0), pause: true },
        SimEvent::CnpEmit { t, cp, flow: FlowId(2), fair_rate_units: 3 },
        SimEvent::CpDecision {
            t,
            cp,
            kind: CpDecisionKind::Pi,
            fair_rate_units: 3,
            alpha: f64::NAN,
            beta: 0.25,
            region: 2,
            qlen_bytes: 100,
        },
        SimEvent::RpTransition {
            t,
            node: NodeId(3),
            flow: FlowId(2),
            kind: RpTransitionKind::CpSwitch,
            rate_bps: 40_000_000_000,
            cp: Some(cp),
        },
        SimEvent::RpTransition {
            t,
            node: NodeId(3),
            flow: FlowId(2),
            kind: RpTransitionKind::Uninstall,
            rate_bps: 0,
            cp: None,
        },
        SimEvent::Fault { t, fault: FaultEvent::HostCrash(NodeId(3)) },
        SimEvent::PauseEdge { t, from: cp, to: CpId { node: NodeId(0), port: PortId(1) } },
        SimEvent::Verdict { t, kind: VerdictKind::WallClockExceeded, cycle_len: 0 },
        SimEvent::SchedClamp { t, requested: SimTime::from_nanos(5), total: 1 },
    ];
    for e in &events {
        let v = strict(&e.to_json());
        assert_eq!(v.as_object().unwrap().u64("t_ns"), Ok(1_234), "{e:?}");
    }

    let rows = [
        MetricRow::Queue { t, node: NodeId(1), port: PortId(0), bytes: u64::MAX },
        MetricRow::Cp { t, cp, fair_rate_units: 3, region: 1, alpha: f64::INFINITY, beta: 1.5 },
        MetricRow::Flow { t, flow: FlowId(0), rp_bps: 1, goodput_bps: 2 },
        MetricRow::Pfc { t, cum_pause_ns: 77 },
    ];
    for r in &rows {
        strict(&r.to_json());
    }
    let queue = strict(&rows[0].to_json());
    assert_eq!(queue.as_object().unwrap().u64("bytes"), Ok(u64::MAX));
}

#[test]
fn divergence_report_parses() {
    let r = DivergenceReport {
        first_divergent_event: 40_000,
        t_ns_a: 1,
        t_ns_b: 2,
        component: "host/\"2\"".into(),
        digest_a: "0000000000000001".into(),
        digest_b: "0000000000000002".into(),
        differing_components: vec!["host/2".into(), "sched".into()],
        event_a: Some("[at 10 ns, seq 3] SwitchTxDone { node: NodeId(0) }".into()),
        event_b: None,
        word_diff: vec![WordDiff { index: 0, a: 1, b: u64::MAX }],
        words_a: 5,
        words_b: 5,
        probes: 11,
        events_scanned: 4096,
    };
    let o = json::parse_object(&r.to_json()).expect("report parses");
    assert_eq!(o.u64("first_divergent_event"), Ok(40_000));
    assert_eq!(o.str("component"), Ok("host/\"2\""));
    assert_eq!(o.member("event_b").map(|m| &m.value), Some(&Value::Null));
    let empty = DivergenceReport { word_diff: Vec::new(), differing_components: Vec::new(), ..r };
    strict(&empty.to_json());
}
