//! Chrome-trace / Perfetto export: renders a finished run as a JSON trace
//! that loads directly in `ui.perfetto.dev` (or `chrome://tracing`).
//!
//! Track layout:
//!
//! * **Process 1 — flows.** One thread per flow. The flow's lifetime is a
//!   slice (start → completion, or run end if unfinished); RP transitions
//!   are instant events on the flow's track; the RP rate limiter is a
//!   per-flow counter.
//! * **Process 100+n — each switch n.** One thread per egress port. PFC
//!   pause→resume windows are slices; CNP emissions are instants; sampled
//!   queue depth and the CP fair rate are counters.
//! * **CNP causality.** Every CNP emission opens a flow arrow (`ph:"s"`)
//!   on the congestion point's track, finished (`ph:"f"`) at the next RP
//!   transition of the steered flow — the per-hop feedback path is visible
//!   as arrows from switch to sender.
//! * **Process 999 — engine.** Present only when the phase profiler was
//!   enabled for the run: event-heap depth and live wire-packet slab
//!   occupancy as counter tracks, sampled at the profiler's heap stride.
//!
//! Timestamps are microseconds (the Chrome trace convention); the exporter
//! is a pure read over the collected [`crate::trace::Trace`], so exporting
//! cannot perturb a run.

use crate::engine::Sim;
use crate::packet::FlowId;
use crate::telemetry::SimEvent;
use crate::fastmap::FxHashMap;
use crate::time::SimTime;
use rocc_stats::json::escape;

/// Process id of the flow tracks.
const FLOW_PID: u64 = 1;
/// Process-id base for switches: switch n gets pid `SWITCH_PID_BASE + n`.
const SWITCH_PID_BASE: u64 = 100;
/// Process id of the engine-internals tracks (profiler counters).
const ENGINE_PID: u64 = 999;

fn us(t: SimTime) -> f64 {
    t.as_nanos() as f64 / 1000.0
}

fn meta_process(out: &mut Vec<String>, pid: u64, name: &str) {
    out.push(format!(
        "{{\"ph\":\"M\",\"pid\":{pid},\"tid\":0,\"name\":\"process_name\",\"args\":{{\"name\":\"{}\"}}}}",
        escape(name)
    ));
}

fn meta_thread(out: &mut Vec<String>, pid: u64, tid: u64, name: &str) {
    out.push(format!(
        "{{\"ph\":\"M\",\"pid\":{pid},\"tid\":{tid},\"name\":\"thread_name\",\"args\":{{\"name\":\"{}\"}}}}",
        escape(name)
    ));
}

/// Export the run as a Chrome-trace JSON document.
pub fn export_chrome_trace(sim: &Sim) -> String {
    let mut ev: Vec<String> = Vec::new();
    let end = sim.kernel.now;

    // ---- flow process: metadata, lifetime slices, completion map.
    meta_process(&mut ev, FLOW_PID, "flows");
    let mut fct_end: FxHashMap<FlowId, SimTime> = FxHashMap::default();
    for r in &sim.trace.fcts {
        fct_end.insert(r.flow, r.end);
    }
    for spec in sim.flows() {
        let tid = spec.id.0;
        meta_thread(&mut ev, FLOW_PID, tid, &format!("flow {}", spec.id.0));
        let done = fct_end.get(&spec.id).copied();
        let stop = done.unwrap_or(end);
        let dur = (us(stop) - us(spec.start)).max(0.0);
        let name = if done.is_some() {
            format!("flow {} ({} B)", spec.id.0, spec.size)
        } else {
            format!("flow {} ({} B, unfinished)", spec.id.0, spec.size)
        };
        ev.push(format!(
            "{{\"ph\":\"X\",\"pid\":{FLOW_PID},\"tid\":{tid},\"ts\":{},\"dur\":{},\"name\":\"{}\",\"cat\":\"flow\"}}",
            us(spec.start),
            dur,
            escape(&name)
        ));
    }

    // ---- switch processes: metadata for every switch that appears.
    let mut switch_named: Vec<bool> = vec![false; sim.topo().nodes().len()];
    let mut name_switch = |ev: &mut Vec<String>, node: usize| {
        if !switch_named[node] {
            switch_named[node] = true;
            meta_process(ev, SWITCH_PID_BASE + node as u64, &format!("switch {node}"));
        }
    };

    // ---- telemetry event pass: PFC slices, CNP arrows, RP instants,
    // fair-rate and RP-rate counters.
    let mut pause_open: FxHashMap<(usize, usize), SimTime> = FxHashMap::default();
    // CNP arrows pending per flow: (arrow id, emit time).
    let mut pending_cnp: FxHashMap<FlowId, Vec<u64>> = FxHashMap::default();
    let mut arrow_id: u64 = 0;
    for e in &sim.trace.telemetry.events {
        match *e {
            SimEvent::Pfc {
                t,
                node,
                port,
                pause,
            } => {
                name_switch(&mut ev, node.0);
                let pid = SWITCH_PID_BASE + node.0 as u64;
                if pause {
                    pause_open.entry((node.0, port.0)).or_insert(t);
                } else if let Some(start) = pause_open.remove(&(node.0, port.0)) {
                    ev.push(format!(
                        "{{\"ph\":\"X\",\"pid\":{pid},\"tid\":{},\"ts\":{},\"dur\":{},\"name\":\"PFC paused\",\"cat\":\"pfc\"}}",
                        port.0,
                        us(start),
                        (us(t) - us(start)).max(0.0)
                    ));
                }
            }
            SimEvent::CnpEmit {
                t,
                cp,
                flow,
                fair_rate_units,
            } => {
                name_switch(&mut ev, cp.node.0);
                let pid = SWITCH_PID_BASE + cp.node.0 as u64;
                arrow_id += 1;
                ev.push(format!(
                    "{{\"ph\":\"s\",\"pid\":{pid},\"tid\":{},\"ts\":{},\"id\":{arrow_id},\"name\":\"cnp\",\"cat\":\"cnp\",\"args\":{{\"flow\":{},\"fair_rate_units\":{fair_rate_units}}}}}",
                    cp.port.0,
                    us(t),
                    flow.0
                ));
                pending_cnp.entry(flow).or_default().push(arrow_id);
            }
            SimEvent::RpTransition {
                t,
                flow,
                kind,
                rate_bps,
                ..
            } => {
                ev.push(format!(
                    "{{\"ph\":\"i\",\"pid\":{FLOW_PID},\"tid\":{},\"ts\":{},\"s\":\"t\",\"name\":\"rp {}\",\"cat\":\"rp\",\"args\":{{\"rate_bps\":{rate_bps}}}}}",
                    flow.0,
                    us(t),
                    kind.as_str()
                ));
                ev.push(format!(
                    "{{\"ph\":\"C\",\"pid\":{FLOW_PID},\"tid\":{},\"ts\":{},\"name\":\"rp Mbps flow {}\",\"args\":{{\"mbps\":{}}}}}",
                    flow.0,
                    us(t),
                    flow.0,
                    rate_bps / 1_000_000
                ));
                // A CNP-driven transition closes the oldest pending arrow
                // for this flow (recovery doublings are timer-driven).
                if kind != crate::telemetry::RpTransitionKind::RecoveryDouble {
                    if let Some(ids) = pending_cnp.get_mut(&flow) {
                        if !ids.is_empty() {
                            let id = ids.remove(0);
                            ev.push(format!(
                                "{{\"ph\":\"f\",\"bp\":\"e\",\"pid\":{FLOW_PID},\"tid\":{},\"ts\":{},\"id\":{id},\"name\":\"cnp\",\"cat\":\"cnp\"}}",
                                flow.0,
                                us(t)
                            ));
                        }
                    }
                }
            }
            SimEvent::CpDecision {
                t,
                cp,
                fair_rate_units,
                ..
            } => {
                name_switch(&mut ev, cp.node.0);
                let pid = SWITCH_PID_BASE + cp.node.0 as u64;
                ev.push(format!(
                    "{{\"ph\":\"C\",\"pid\":{pid},\"tid\":{},\"ts\":{},\"name\":\"fair_rate_units p{}\",\"args\":{{\"units\":{fair_rate_units}}}}}",
                    cp.port.0,
                    us(t),
                    cp.port.0
                ));
            }
            _ => {}
        }
    }
    // Pauses still open at run end render as slices ending at `now`.
    let mut open: Vec<((usize, usize), SimTime)> = pause_open.into_iter().collect();
    open.sort();
    for ((node, port), start) in open {
        let pid = SWITCH_PID_BASE + node as u64;
        name_switch(&mut ev, node);
        ev.push(format!(
            "{{\"ph\":\"X\",\"pid\":{pid},\"tid\":{port},\"ts\":{},\"dur\":{},\"name\":\"PFC paused (open)\",\"cat\":\"pfc\"}}",
            us(start),
            (us(end) - us(start)).max(0.0)
        ));
    }

    // ---- sampled queue-depth counters from the classic trace series.
    for (i, &(node, port)) in sim.trace.watched_queues().iter().enumerate() {
        name_switch(&mut ev, node.0);
        let pid = SWITCH_PID_BASE + node.0 as u64;
        for s in &sim.trace.queue_series[i] {
            ev.push(format!(
                "{{\"ph\":\"C\",\"pid\":{pid},\"tid\":{},\"ts\":{},\"name\":\"queue bytes p{}\",\"args\":{{\"bytes\":{}}}}}",
                port.0,
                us(s.t),
                port.0,
                s.v as u64
            ));
        }
    }

    // ---- engine internals: heap-depth / slab-occupancy counters from the
    // phase profiler, when it was enabled for this run.
    if sim.kernel.prof.is_enabled() && !sim.kernel.prof.heap_series().is_empty() {
        meta_process(&mut ev, ENGINE_PID, "engine");
        meta_thread(&mut ev, ENGINE_PID, 0, "scheduler");
        for s in sim.kernel.prof.heap_series() {
            let ts = us(SimTime::from_nanos(s.t_ns));
            ev.push(format!(
                "{{\"ph\":\"C\",\"pid\":{ENGINE_PID},\"tid\":0,\"ts\":{ts},\"name\":\"event heap depth\",\"args\":{{\"events\":{}}}}}",
                s.heap
            ));
            ev.push(format!(
                "{{\"ph\":\"C\",\"pid\":{ENGINE_PID},\"tid\":0,\"ts\":{ts},\"name\":\"slab live packets\",\"args\":{{\"packets\":{}}}}}",
                s.slab_live
            ));
        }
    }

    format!(
        "{{\"displayTimeUnit\":\"ns\",\"traceEvents\":[{}]}}",
        ev.join(",\n")
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cc::{NullHostCcFactory, NullSwitchCcFactory};
    use crate::config::SimConfig;
    use crate::engine::FlowSpec;
    use crate::telemetry::EventMask;
    use crate::time::SimDuration;
    use crate::topology::{NodeRole, TopologyBuilder};
    use crate::units::BitRate;

    #[test]
    fn trace_covers_flows_pfc_and_queues() {
        let mut b = TopologyBuilder::new();
        // A name that needs escaping: the trace must still parse strictly.
        let sw = b.add_switch("sw\"1\n", NodeRole::Switch);
        let d = b.add_host("d");
        b.connect(d, sw, BitRate::from_gbps(10), SimDuration::from_micros(1));
        let mut srcs = Vec::new();
        for i in 0..4 {
            let h = b.add_host(format!("s{i}"));
            b.connect(h, sw, BitRate::from_gbps(10), SimDuration::from_micros(1));
            srcs.push(h);
        }
        let mut sim = Sim::new(
            b.build(),
            SimConfig::default(),
            Box::new(NullHostCcFactory),
            Box::new(NullSwitchCcFactory),
        );
        sim.trace.telemetry.collect(EventMask::ALL);
        sim.trace.sample_period = Some(SimDuration::from_micros(20));
        sim.trace.watch_queue(sw, crate::topology::PortId(0));
        for (i, &s) in srcs.iter().enumerate() {
            sim.add_flow(FlowSpec {
                id: FlowId(i as u64),
                src: s,
                dst: d,
                size: 1_000_000,
                start: SimTime::ZERO,
                offered: None,
            });
        }
        sim.run_until_flows_done(SimTime::from_millis(100))
            .assert_complete();
        let json = export_chrome_trace(&sim);
        assert!(json.starts_with("{\"displayTimeUnit\":\"ns\",\"traceEvents\":["));
        assert!(json.ends_with("]}"));
        rocc_stats::json::parse(&json).expect("trace parses strictly");
        // Flow lifetime slices, process metadata, PFC slices, queue counters.
        assert!(json.contains("\"name\":\"process_name\""));
        assert!(json.contains("\"name\":\"flows\""));
        assert!(json.contains("\"cat\":\"flow\""));
        assert!(json.contains("\"name\":\"PFC paused\""));
        assert!(json.contains("queue bytes p0"));
        // Every slice has non-negative duration and balanced braces.
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert!(!json.contains("\"dur\":-"));
        // Profiler was off: no engine-internals process in the trace.
        assert!(!json.contains("event heap depth"));
    }

    #[test]
    fn profiler_adds_engine_counter_tracks() {
        let mut b = TopologyBuilder::new();
        let sw = b.add_switch("sw", NodeRole::Switch);
        let d = b.add_host("d");
        b.connect(d, sw, BitRate::from_gbps(10), SimDuration::from_micros(1));
        let s = b.add_host("s");
        b.connect(s, sw, BitRate::from_gbps(10), SimDuration::from_micros(1));
        let mut sim = Sim::new(
            b.build(),
            SimConfig::default(),
            Box::new(NullHostCcFactory),
            Box::new(NullSwitchCcFactory),
        );
        sim.enable_profiler();
        sim.add_flow(FlowSpec {
            id: FlowId(0),
            src: s,
            dst: d,
            size: 500_000,
            start: SimTime::ZERO,
            offered: None,
        });
        sim.run_until_flows_done(SimTime::from_millis(100))
            .assert_complete();
        let json = export_chrome_trace(&sim);
        assert!(json.contains("\"name\":\"engine\""));
        assert!(json.contains("event heap depth"));
        assert!(json.contains("slab live packets"));
        assert_eq!(json.matches('{').count(), json.matches('}').count());
    }
}
