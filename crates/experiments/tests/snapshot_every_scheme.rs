//! Snapshot/restore fidelity for every congestion-control scheme.
//!
//! The host snapshot carries each sender's CC state as the scheme's own
//! word stream (`HostCc::snapshot_state`), and each switch port carries
//! its `SwitchCc` words. The `rocc-sim` round-trip suite exercises only
//! RoCC's codecs; this suite drives every [`Scheme`] variant through the
//! same property on the faulted 6-sender chaos incast (data loss, CNP
//! loss, a mid-run link flap) over the golden seeds 1/7/42:
//!
//! * `restore(snapshot(sim at k))` into an identically rebuilt sim runs
//!   to the uninterrupted run's fingerprint — events, FCTs, drops,
//!   retransmitted bytes, feedback packets — for cut points at 13%, 50%
//!   and 91% of the run;
//! * a snapshot taken right after `restore` reproduces the restored bytes
//!   exactly, so decoding loses nothing the encoder wrote.

use rocc_experiments::schemes::Scheme;
use rocc_sim::prelude::*;

const SEEDS: [u64; 3] = [1, 7, 42];

/// Cut points, as per-mille of the uninterrupted run's event count.
const CUTS_PER_MILLE: [u64; 3] = [130, 500, 910];

const HORIZON: SimTime = SimTime::from_millis(100);

/// The faulted chaos incast under `scheme`, built but not run.
fn build(scheme: Scheme, seed: u64) -> Sim {
    let mut b = TopologyBuilder::new();
    let sw = b.add_switch("sw", NodeRole::Switch);
    let dst = b.add_host("dst");
    b.connect(sw, dst, BitRate::from_gbps(40), SimDuration::from_micros(1));
    let mut srcs = Vec::new();
    for i in 0..6 {
        let h = b.add_host(format!("s{i}"));
        b.connect(h, sw, BitRate::from_gbps(40), SimDuration::from_micros(1));
        srcs.push(h);
    }
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
    let (host_cc, switch_cc) = scheme.factories(SimDuration::from_micros(8));
    let mut sim = Sim::new(b.build(), cfg, host_cc, switch_cc);
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
    verdict: String,
    events: u64,
    fcts: Vec<(u64, u64)>,
    drops: u64,
    retx: u64,
    ctrl_emitted: u64,
}

fn finish(sim: &mut Sim) -> Fingerprint {
    let verdict = format!("{:?}", sim.run_until_flows_done(HORIZON));
    Fingerprint {
        verdict,
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
    }
}

fn check_scheme(scheme: Scheme) {
    for seed in SEEDS {
        let want = finish(&mut build(scheme, seed));
        for per_mille in CUTS_PER_MILLE {
            let k = want.events * per_mille / 1000;
            let mut donor = build(scheme, seed);
            while donor.events_processed() < k && donor.step() {}
            let bytes = donor.snapshot();

            let mut resumed = build(scheme, seed);
            resumed.restore(&bytes).unwrap_or_else(|e| {
                panic!(
                    "{} seed {seed}: restore at event {k} failed: {e}",
                    scheme.name()
                )
            });
            assert!(
                resumed.snapshot() == bytes,
                "{} seed {seed}: snapshot after restore at event {k} differs from the restored bytes",
                scheme.name()
            );
            assert_eq!(
                finish(&mut resumed),
                want,
                "{} seed {seed}: resume from event {k}",
                scheme.name()
            );
        }
    }
}

#[test]
fn rocc_resumes_bit_identically() {
    check_scheme(Scheme::Rocc);
}

#[test]
fn dcqcn_resumes_bit_identically() {
    check_scheme(Scheme::Dcqcn);
}

#[test]
fn dcqcn_pi_resumes_bit_identically() {
    check_scheme(Scheme::DcqcnPi);
}

#[test]
fn qcn_resumes_bit_identically() {
    check_scheme(Scheme::Qcn);
}

#[test]
fn timely_resumes_bit_identically() {
    check_scheme(Scheme::Timely);
}

#[test]
fn timely_patched_resumes_bit_identically() {
    check_scheme(Scheme::TimelyPatched);
}

#[test]
fn hpcc_resumes_bit_identically() {
    check_scheme(Scheme::Hpcc);
}

#[test]
fn uncontrolled_resumes_bit_identically() {
    check_scheme(Scheme::None);
}
