//! Heap-vs-wheel differential on the deepest event queue the simulator's
//! benchmark runs: the quick FB_Hadoop fat-tree cell at 70% load, where
//! thousands of events are pending at once and most host timers are
//! forwarded to reserved seqs. `crates/sim/tests/scheduler.rs` compares
//! the backends only on a small incast.
//!
//! Each cell is built by `fct::build_fat_tree`, the set-up
//! `fct::run_fat_tree_verdict` runs, and simulated for its first
//! millisecond under each backend; every component's state must digest
//! identically.

use rocc_experiments::fct::{build_fat_tree, BufferRegime, FatTreeConfig, Workload};
use rocc_experiments::{Scale, Scheme};
use rocc_sim::prelude::*;

/// The first `fig14 quick` repetition's seed and load.
const SEED: u64 = 1000;
const LOAD: f64 = 0.7;

/// Component digests after 1 ms of simulated time, and the peak pending
/// event count.
fn run_first_millisecond(scheme: Scheme, backend: Backend) -> (Vec<(String, u64)>, usize) {
    let cfg = FatTreeConfig::for_scale(Scale::Quick);
    let (mut sim, _, _) =
        build_fat_tree(scheme, Workload::FbHadoop, LOAD, &cfg, BufferRegime::Pfc, SEED);
    sim.set_scheduler_backend(backend);
    sim.run_until(SimTime::from_millis(1));
    assert_eq!(sim.kernel.scheduler_backend(), backend);
    let digests = sim
        .component_states()
        .iter()
        .map(|c| (c.name.clone(), c.digest()))
        .collect();
    (digests, sim.kernel.peak_pending())
}

#[test]
fn wheel_matches_the_heap_on_the_fb_hadoop_fat_tree() {
    for scheme in [Scheme::Dcqcn, Scheme::Hpcc, Scheme::Rocc] {
        let (heap, heap_peak) = run_first_millisecond(scheme, Backend::Heap);
        let (wheel, wheel_peak) = run_first_millisecond(scheme, Backend::Wheel);
        assert_eq!(heap_peak, wheel_peak, "{scheme:?}");
        assert!(
            wheel_peak > 4096,
            "{scheme:?}: the queue should be deep ({wheel_peak} pending)"
        );
        for (h, w) in heap.iter().zip(&wheel) {
            assert_eq!(h, w, "{scheme:?}: component {} diverged", h.0);
        }
        assert_eq!(heap.len(), wheel.len());
    }
}
