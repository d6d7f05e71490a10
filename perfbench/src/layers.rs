//! Layer microbenchmarks, each sized from what a traced pass of the
//! workload measured rather than from fixed constants: the scheduler at
//! the workload's peak pending depth, the packet slab at its peak live
//! count, and CP Alg. 1 over a queue series the workload produced.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rocc_core::{CpParams, FairRateCalculator};
use rocc_sim::prelude::*;
use std::collections::VecDeque;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Operations timed together; per-operation cost is the median over
/// batches.
const BATCH: usize = 1024;

fn median(mut v: Vec<f64>) -> f64 {
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

fn ns_per_op(d: Duration, ops: usize) -> f64 {
    d.as_nanos() as f64 / ops as f64
}

/// Result of the scheduler hold benchmark.
#[derive(Debug, Clone, Copy)]
pub struct SchedBench {
    /// Median ns per push.
    pub push_ns: f64,
    /// Median ns per pop.
    pub pop_ns: f64,
    /// Events held in the wheel (the workload's peak pending).
    pub depth: usize,
    /// Mean time an event waits in the queue, ns (Little's law on the
    /// workload's peak depth and push rate).
    pub mean_wait_ns: f64,
}

/// Hold model on a `TimingWheel` through the public `Scheduler` trait:
/// fill to `depth`, then repeatedly pop a batch and push as many events
/// back, each due an exponential wait of mean `mean_wait_ns` after the
/// latest pop, so the depth stays at `depth` throughout.
pub fn sched_hold(depth: usize, mean_wait_ns: f64, budget: Duration) -> SchedBench {
    let mut rng = StdRng::seed_from_u64(depth as u64);
    let mut wait =
        move || (-rng.gen_range(f64::MIN_POSITIVE..1.0f64).ln() * mean_wait_ns) as u64 + 1;
    let mut wheel = TimingWheel::default();
    let mut seq = 0u64;
    for _ in 0..depth {
        seq += 1;
        wheel.push(Scheduled {
            at: SimTime::from_nanos(wait()),
            seq,
            ev: Event::HostWake {
                node: NodeId(seq as usize % 64),
            },
        });
    }
    let batch = BATCH.min(depth.max(1));
    let mut popped: Vec<Scheduled> = Vec::with_capacity(batch);
    let mut refill: Vec<Scheduled> = Vec::with_capacity(batch);
    let (mut push, mut pop) = (Vec::new(), Vec::new());
    let started = Instant::now();
    while started.elapsed() < budget || push.len() < 16 {
        let t = Instant::now();
        for _ in 0..batch {
            popped.push(wheel.pop().expect("the wheel holds `depth` events"));
        }
        pop.push(ns_per_op(t.elapsed(), batch));
        // As in the engine, new events are due no earlier than the clock:
        // the time of the latest pop.
        let now = popped.last().map_or(0, |s| s.at.as_nanos());
        for s in popped.drain(..) {
            seq += 1;
            refill.push(Scheduled {
                at: SimTime::from_nanos(now + wait()),
                seq,
                ev: black_box(s.ev),
            });
        }
        let t = Instant::now();
        for s in refill.drain(..) {
            wheel.push(s);
        }
        push.push(ns_per_op(t.elapsed(), batch));
    }
    assert_eq!(wheel.len(), depth, "hold model must keep the depth");
    SchedBench {
        push_ns: median(push),
        pop_ns: median(pop),
        depth,
        mean_wait_ns,
    }
}

/// Median ns per alloc+take pair on a `PacketSlab` holding `live`
/// packets: packets leave in the order they entered, as on a link.
pub fn slab_ring(live: usize, budget: Duration) -> f64 {
    let pkt = |i: u64| Packet {
        flow: FlowId(i),
        src: NodeId(0),
        dst: NodeId(1),
        kind: PacketKind::Data {
            seq: i * 1000,
            payload: 1000,
            last: false,
        },
        ecn: false,
        int: IntStack::default(),
        sent_at: SimTime::ZERO,
    };
    let live = live.max(1);
    let mut slab = PacketSlab::new();
    let mut ring: VecDeque<PacketRef> = (0..live as u64).map(|i| slab.alloc(pkt(i))).collect();
    let mut next = live as u64;
    let mut per_op = Vec::new();
    let started = Instant::now();
    while started.elapsed() < budget || per_op.len() < 16 {
        let t = Instant::now();
        for _ in 0..BATCH {
            let oldest = ring.pop_front().expect("the ring holds `live` packets");
            black_box(slab.take(oldest));
            ring.push_back(slab.alloc(pkt(next)));
            next += 1;
        }
        per_op.push(ns_per_op(t.elapsed(), BATCH));
    }
    assert_eq!(slab.live(), live);
    median(per_op)
}

/// Median ns per `FairRateCalculator::update` over `queue` (bytes),
/// replayed in order and cycled, with the parameters of a port of `rate`.
pub fn cp_update(queue: &[u64], rate: BitRate, budget: Duration) -> f64 {
    let series: &[u64] = if queue.is_empty() { &[0] } else { queue };
    let mut cp = FairRateCalculator::new(CpParams::for_link_rate(rate));
    let mut it = series.iter().cycle();
    let mut per_op = Vec::new();
    let started = Instant::now();
    while started.elapsed() < budget || per_op.len() < 16 {
        let t = Instant::now();
        for _ in 0..BATCH {
            let q = *it.next().expect("cycled series is endless");
            black_box(cp.update(black_box(q)));
        }
        per_op.push(ns_per_op(t.elapsed(), BATCH));
    }
    median(per_op)
}
