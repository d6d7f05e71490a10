//! The benchmark's workloads and the cells they are made of.
//!
//! A cell is one simulation, built and run through the public API of
//! `rocc-experiments`, `rocc-workloads` and `rocc-sim` exactly as the
//! paper's experiments build and run it. The only difference is that the
//! benchmark times the calls into each layer from outside: set-up is
//! split at the boundaries of topology construction, workload
//! generation, `Sim::new` and `Sim::add_flow`, and the run at the
//! boundary of `run_until*`. Fine-grained spans and the engine's phase
//! profiler are switched on only in traced passes.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rocc_core::digest::Fnv64;
use rocc_experiments::fct::{self, BufferRegime, FatTreeConfig, RunOutput, Workload as Dist};
use rocc_experiments::micro::{sim_with, tail_stats};
use rocc_experiments::parallel::{self, ExecMode};
use rocc_experiments::{scenarios, Scale, Scheme};
use rocc_sim::prelude::*;
use rocc_workloads::PoissonWorkload;
use std::time::{Duration, Instant};

/// Offered load of the fat-tree workloads (§6.3, Figs. 14–17).
pub const FAT_TREE_LOAD: f64 = 0.7;
/// Seed of the fat-tree flow realization: the first repetition of
/// `repro fig14 quick`. Flow sizes and start times always come from it
/// (and from `REFERENCE_SEED + 1` for a second repetition); the run's
/// seed places the flows on hosts and seeds the simulator.
pub const REFERENCE_SEED: u64 = 1000;
/// Fig. 11: long-lived flows sharing the bottleneck.
const FIG11_FLOWS: usize = 10;
/// Fig. 11 quick horizon; goodput and queue statistics cover its second half.
const FIG11_HORIZON_MS: u64 = 24;
/// Flow starts in the Fig. 11 workload are spread over this many ns.
const FIG11_START_SPREAD_NS: u64 = 1_000;

/// One named benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Quick §6.3 fat-tree, WebSearch at 70%, three schemes, serial.
    FattreeWebsearch,
    /// Quick §6.3 fat-tree, FB_Hadoop at 70%, three schemes × two seeds,
    /// fanned out in parallel as `repro fig14 quick` runs it.
    FattreeFbhadoop,
    /// Fig. 11 dumbbell, six schemes, fixed horizon, serial.
    Fig11Dumbbell,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 3] = [
        Workload::FattreeWebsearch,
        Workload::FattreeFbhadoop,
        Workload::Fig11Dumbbell,
    ];

    /// Parse a `--workload` argument.
    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }

    /// The name used on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::FattreeWebsearch => "fattree_websearch",
            Workload::FattreeFbhadoop => "fattree_fbhadoop",
            Workload::Fig11Dumbbell => "fig11_dumbbell",
        }
    }

    /// The default seed: the one `repro fig14 quick` runs first for the
    /// fat-trees, and `SimConfig::default()`'s seed for Fig. 11.
    pub fn default_seed(self) -> u64 {
        match self {
            Workload::FattreeWebsearch | Workload::FattreeFbhadoop => REFERENCE_SEED,
            Workload::Fig11Dumbbell => 1,
        }
    }

    /// How the cells are executed.
    pub fn mode(self) -> ExecMode {
        match self {
            Workload::FattreeFbhadoop => ExecMode::Parallel,
            _ => ExecMode::Serial,
        }
    }

    /// The cells of one pass, in the order their results aggregate.
    pub fn cells(self, seed: u64) -> Vec<Cell> {
        match self {
            Workload::FattreeWebsearch => Scheme::large_scale_set()
                .into_iter()
                .map(|scheme| Cell {
                    scheme,
                    seed,
                    reference_seed: REFERENCE_SEED,
                    kind: Kind::FatTree(Dist::WebSearch),
                })
                .collect(),
            // Scheme-major, two repetitions per scheme, like `fct_grid`.
            Workload::FattreeFbhadoop => Scheme::large_scale_set()
                .into_iter()
                .flat_map(|scheme| {
                    (0..2).map(move |rep| Cell {
                        scheme,
                        seed: seed.wrapping_add(rep),
                        reference_seed: REFERENCE_SEED + rep,
                        kind: Kind::FatTree(Dist::FbHadoop),
                    })
                })
                .collect(),
            Workload::Fig11Dumbbell => Scheme::comparison_set()
                .into_iter()
                .map(|scheme| Cell {
                    scheme,
                    seed,
                    reference_seed: seed,
                    kind: Kind::Dumbbell,
                })
                .collect(),
        }
    }

    /// The fat-tree dimensions the workload's cells aggregate with.
    fn fat_tree_dims(self) -> FatTreeConfig {
        let mut cfg = FatTreeConfig::for_scale(Scale::Quick);
        cfg.reps = if self == Workload::FattreeFbhadoop {
            2
        } else {
            1
        };
        cfg
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    FatTree(Dist),
    Dumbbell,
}

/// One simulation of a workload.
#[derive(Debug, Clone, Copy)]
pub struct Cell {
    /// Congestion-control scheme.
    pub scheme: Scheme,
    /// Seed of the flow placement and of the cell's `SimConfig`.
    pub seed: u64,
    /// Seed of the fat-tree flow sizes and start times.
    reference_seed: u64,
    kind: Kind,
}

/// A timed interval at a layer boundary, relative to the process epoch.
#[derive(Debug, Clone)]
pub struct Span {
    /// `<layer>.<call>` name.
    pub name: &'static str,
    /// Start, ns since the epoch.
    pub start_ns: u64,
    /// End, ns since the epoch.
    pub end_ns: u64,
}

impl Span {
    /// Duration in seconds.
    pub fn secs(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e9
    }
}

/// Records spans when on; when off, runs the timed code untouched.
struct Spans {
    epoch: Instant,
    list: Option<Vec<Span>>,
}

impl Spans {
    fn time<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let Some(list) = self.list.as_mut() else {
            return f();
        };
        let start = self.epoch.elapsed();
        let r = f();
        let end = self.epoch.elapsed();
        list.push(Span {
            name,
            start_ns: start.as_nanos() as u64,
            end_ns: end.as_nanos() as u64,
        });
        r
    }
}

/// Exact work counters of one cell. For a fixed seed and program they
/// repeat exactly, traced or not.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Work {
    /// Events dispatched.
    pub events: u64,
    /// Scheduler pushes.
    pub pushes: u64,
    /// Peak pending events.
    pub peak_pending: u64,
    /// Timing-wheel cascades.
    pub cascades: u64,
    /// Timing-wheel rebases.
    pub rebases: u64,
    /// Peak live packets in the slab.
    pub peak_live: u64,
    /// Schedule calls clamped from the past.
    pub past_due_clamps: u64,
}

/// What the phase profiler saw in one traced cell.
#[derive(Debug, Clone)]
pub struct Profile {
    /// `(phase, share)` in `PHASE_NAMES` order.
    pub shares: Vec<(&'static str, f64)>,
    /// `(event kind, dispatches)` in `EVENT_KIND_NAMES` order.
    pub mix: Vec<(&'static str, u64)>,
    /// Run wall time the shares apply to, s.
    pub wall_s: f64,
    /// A queue-depth series (bytes) at one congestion point, and the
    /// line rate of its port; sizes the CP Alg. 1 microbenchmark.
    pub queue: Vec<u64>,
    /// Line rate of the port the queue series was taken at.
    pub queue_rate: BitRate,
}

/// Everything one cell reports.
#[derive(Debug)]
pub struct CellOut {
    /// The cell that ran.
    pub cell: Cell,
    /// Host time inside `run_until*`.
    pub run: Duration,
    /// Host time of the whole cell: set-up, run and output collection.
    pub total: Duration,
    /// Simulated time the run advanced, ns.
    pub sim_ns: u64,
    /// Flows registered.
    pub flows: usize,
    /// Exact work counters.
    pub work: Work,
    /// Digest of the simulated outcome.
    pub digest: u64,
    /// Whether the run finished the way the experiment requires.
    pub complete: bool,
    /// The fat-tree measurements, for aggregation (fat-tree cells only).
    pub fct: Option<RunOutput>,
    /// Flow completion times, µs.
    pub fcts_us: Vec<f64>,
    /// PFC pause frames sent.
    pub pfc_pauses: u64,
    /// Profiler readout (traced cells only).
    pub profile: Option<Profile>,
    /// Layer-boundary spans (traced cells only).
    pub spans: Vec<Span>,
}

/// The Fig. 11 dumbbell's sender start times, ns: the seed's only
/// influence on that workload besides `SimConfig::seed`.
fn fig11_starts(seed: u64) -> Vec<u64> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0xf11);
    (0..FIG11_FLOWS)
        .map(|_| rng.gen_range(0..FIG11_START_SPREAD_NS))
        .collect()
}

fn work_of(sim: &Sim) -> Work {
    let s = sim.kernel.scheduler_stats();
    Work {
        events: sim.events_processed(),
        pushes: sim.profiled_pushes(),
        peak_pending: sim.kernel.peak_pending() as u64,
        cascades: s.cascades,
        rebases: s.rebases,
        peak_live: sim.kernel.packets.peak_live() as u64,
        past_due_clamps: sim.kernel.past_due_clamps(),
    }
}

fn profile_of(sim: &Sim, queue: Vec<u64>, queue_rate: BitRate) -> Profile {
    let prof = &sim.kernel.prof;
    Profile {
        shares: prof
            .phase_shares(sim.profiled_pushes())
            .into_iter()
            .map(|(n, s, _)| (n, s))
            .collect(),
        mix: prof.dispatch_mix(),
        wall_s: sim.profile().wall_seconds,
        queue,
        queue_rate,
    }
}

/// Digest of a fat-tree cell's outcome: FCT list, PFC counts by class,
/// queue averages, retransmitted and transmitted bytes, drops and
/// completion, as the run's canonical JSON renders them.
pub fn fat_tree_digest(out: &RunOutput) -> u64 {
    rocc_core::digest::fnv1a_64(out.to_json().as_bytes())
}

impl Cell {
    /// Display label, e.g. `RoCC/1000`.
    pub fn label(&self) -> String {
        format!("{}/{}", self.scheme.name(), self.seed)
    }

    /// Build and run the cell. `traced` switches on the layer-boundary
    /// spans and the engine's phase profiler.
    pub fn run(&self, traced: bool, epoch: Instant) -> CellOut {
        let started = Instant::now();
        let mut spans = Spans {
            epoch,
            list: traced.then(Vec::new),
        };
        let mut out = match self.kind {
            Kind::FatTree(dist) => self.run_fat_tree(dist, traced, &mut spans),
            Kind::Dumbbell => self.run_dumbbell(traced, &mut spans),
        };
        out.total = started.elapsed();
        out.spans = spans.list.unwrap_or_default();
        out
    }

    /// `hosts` in the order flow endpoints index them: as built when the
    /// cell runs the reference realization unpermuted, otherwise shuffled
    /// by the seed. `role` keeps sender and receiver shuffles independent.
    fn placement(&self, hosts: &[NodeId], role: u64) -> Vec<NodeId> {
        let mut hosts = hosts.to_vec();
        if self.seed != self.reference_seed {
            let mut rng = StdRng::seed_from_u64(self.seed ^ (role << 56) ^ 0x91ace);
            for i in (1..hosts.len()).rev() {
                hosts.swap(i, rng.gen_range(0..=i));
            }
        }
        hosts
    }

    /// Set the cell up without running it; returns the set-up time.
    pub fn setup_only(&self) -> Duration {
        let started = Instant::now();
        let sim = match self.kind {
            Kind::FatTree(dist) => {
                self.build_fat_tree(
                    dist,
                    false,
                    &mut Spans {
                        epoch: started,
                        list: None,
                    },
                )
                .0
            }
            Kind::Dumbbell => self.build_dumbbell(&mut Spans {
                epoch: started,
                list: None,
            }),
        };
        let elapsed = started.elapsed();
        drop(std::hint::black_box(sim));
        elapsed
    }

    /// The fat-tree set-up of `fct::run_fat_tree_verdict`, call for call.
    fn build_fat_tree(
        &self,
        dist: Dist,
        traced: bool,
        spans: &mut Spans,
    ) -> (Sim, scenarios::FatTree, usize) {
        let cfg = FatTreeConfig::for_scale(Scale::Quick);
        let ft = spans.time("topology.build", || {
            scenarios::fat_tree(cfg.hosts_per_edge, cfg.trunks)
        });
        let sim_cfg = fct::fat_tree_sim_config(BufferRegime::Pfc, self.seed);
        let mut sim = spans.time("engine.sim_new", || {
            sim_with(ft.topo.clone(), self.scheme, 13, sim_cfg)
        });
        sim.trace.sample_period = Some(SimDuration::from_micros(200));
        sim.trace.avg_until = Some(SimTime::ZERO + cfg.window);
        for &(n, p) in ft
            .core_cp_ports
            .iter()
            .chain(&ft.ingress_cp_ports)
            .chain(&ft.egress_cp_ports)
        {
            sim.trace.watch_queue_avg(n, p);
        }
        if traced {
            sim.enable_profiler();
            let (n, p) = ft.core_cp_ports[0];
            sim.trace.watch_queue(n, p);
        }
        let gen = spans.time("workloads.generate", || {
            let wl = PoissonWorkload {
                dist: dist.dist(),
                load: FAT_TREE_LOAD,
                link_bps: 40_000_000_000,
                duration_ns: cfg.window.as_nanos(),
            };
            let mut rng = StdRng::seed_from_u64(self.reference_seed ^ 0x9e37);
            let mut gen = Vec::new();
            wl.generate(
                &mut rng,
                ft.senders.len(),
                ft.receivers.len(),
                false,
                &mut gen,
            );
            gen
        });
        let (senders, receivers) = spans.time("workloads.generate", || {
            (
                self.placement(&ft.senders, 1),
                self.placement(&ft.receivers, 2),
            )
        });
        spans.time("engine.add_flow", || {
            for (i, g) in gen.iter().enumerate() {
                sim.add_flow(FlowSpec {
                    id: FlowId(i as u64),
                    src: senders[g.src_idx],
                    dst: receivers[g.dst_idx],
                    size: g.size,
                    start: SimTime::from_nanos(g.start_ns),
                    offered: None,
                });
            }
        });
        (sim, ft, gen.len())
    }

    fn run_fat_tree(&self, dist: Dist, traced: bool, spans: &mut Spans) -> CellOut {
        let cfg = FatTreeConfig::for_scale(Scale::Quick);
        let (mut sim, ft, offered_flows) = self.build_fat_tree(dist, traced, spans);
        let t1 = Instant::now();
        let verdict = spans.time("engine.run", || {
            sim.run_until_flows_done(SimTime::ZERO + cfg.window + cfg.max_drain)
        });
        let run = t1.elapsed();

        // Output collection, as in `fct::run_fat_tree_verdict`.
        let (mut pfc_core, mut pfc_ingress, mut pfc_egress) = (0u64, 0u64, 0u64);
        for e in &sim.trace.pfc_events {
            if ft.cores.contains(&e.node) {
                pfc_core += 1;
            } else if e.node == ft.edges[2] {
                pfc_egress += 1;
            } else {
                pfc_ingress += 1;
            }
        }
        let class_avg = |ports: &[(NodeId, PortId)]| {
            let vals: Vec<f64> = ports
                .iter()
                .filter_map(|&(n, p)| sim.trace.queue_avg(n, p))
                .collect();
            if vals.is_empty() {
                0.0
            } else {
                vals.iter().sum::<f64>() / vals.len() as f64
            }
        };
        let out = RunOutput {
            fcts: sim
                .trace
                .fcts
                .iter()
                .map(|r| (r.size, r.fct().as_secs_f64()))
                .collect(),
            pfc_core,
            pfc_ingress,
            pfc_egress,
            q_core: class_avg(&ft.core_cp_ports),
            q_ingress: class_avg(&ft.ingress_cp_ports),
            q_egress: class_avg(&ft.egress_cp_ports),
            retx_bytes: sim.trace.retx_bytes,
            tx_data_bytes: sim.trace.tx_data_bytes,
            drops: sim.trace.drops,
            offered_flows,
            all_completed: verdict.is_complete(),
        };
        let profile = traced.then(|| {
            let queue = sim.trace.queue_series[0]
                .iter()
                .map(|s| s.v as u64)
                .collect();
            profile_of(&sim, queue, BitRate::from_gbps(100))
        });
        CellOut {
            cell: *self,
            run,
            total: Duration::ZERO,
            sim_ns: sim.kernel.now.as_nanos(),
            flows: offered_flows,
            work: work_of(&sim),
            digest: fat_tree_digest(&out),
            complete: out.all_completed && out.fcts.len() == offered_flows,
            fcts_us: out.fcts.iter().map(|&(_, s)| s * 1e6).collect(),
            pfc_pauses: pfc_core + pfc_ingress + pfc_egress,
            fct: Some(out),
            profile,
            spans: Vec::new(),
        }
    }

    /// The set-up of `micro::fig11` for one scheme, with seeded starts.
    fn build_dumbbell(&self, spans: &mut Spans) -> Sim {
        let scenarios::Dumbbell {
            topo,
            senders,
            receiver,
            switch,
            bottleneck_port,
        } = spans.time("topology.build", || {
            scenarios::dumbbell(FIG11_FLOWS, BitRate::from_gbps(40))
        });
        let cfg = SimConfig {
            seed: self.seed,
            ..SimConfig::default()
        };
        let mut sim = spans.time("engine.sim_new", || sim_with(topo, self.scheme, 7, cfg));
        sim.trace.sample_period = Some(SimDuration::from_micros(100));
        sim.trace.watch_queue(switch, bottleneck_port);
        sim.trace.watch_port_tput(switch, bottleneck_port);
        let starts = spans.time("workloads.generate", || fig11_starts(self.seed));
        let offered = BitRate::from_gbps(40).scale(0.9);
        spans.time("engine.add_flow", || {
            for (i, (&s, &start)) in senders.iter().zip(&starts).enumerate() {
                sim.add_flow(FlowSpec {
                    id: FlowId(i as u64),
                    src: s,
                    dst: receiver,
                    size: u64::MAX,
                    start: SimTime::from_nanos(start),
                    offered: Some(offered),
                });
            }
        });
        sim
    }

    fn run_dumbbell(&self, traced: bool, spans: &mut Spans) -> CellOut {
        let mut sim = self.build_dumbbell(spans);
        if traced {
            sim.enable_profiler();
        }
        let horizon = SimTime::from_millis(FIG11_HORIZON_MS);
        let measure_from = SimTime::from_nanos(horizon.as_nanos() / 2);
        let t1 = Instant::now();
        let base = spans.time("engine.run", || {
            sim.run_until(measure_from);
            let base: Vec<u64> = (0..FIG11_FLOWS)
                .map(|i| sim.trace.delivered_bytes(FlowId(i as u64)))
                .collect();
            sim.run_until(horizon);
            base
        });
        let run = t1.elapsed();

        let (rates, q_mean, q_sd, util_raw) = spans.time("stats.aggregate", || {
            let w = horizon.saturating_since(measure_from).as_secs_f64();
            let rates: Vec<f64> = (0..FIG11_FLOWS)
                .map(|i| (sim.trace.delivered_bytes(FlowId(i as u64)) - base[i]) as f64 * 8.0 / w)
                .collect();
            let (q_mean, q_sd) = tail_stats(&sim.trace.queue_series[0], measure_from);
            let (util_raw, _) = tail_stats(&sim.trace.port_tput_series[0], measure_from);
            (rates, q_mean, q_sd, util_raw)
        });
        let mut h = Fnv64::new();
        for r in &rates {
            h.write_u64(r.to_bits());
        }
        for v in [q_mean, q_sd, util_raw] {
            h.write_u64(v.to_bits());
        }
        for s in sim.trace.queue_series[0]
            .iter()
            .chain(&sim.trace.port_tput_series[0])
        {
            h.write_u64(s.t.as_nanos());
            h.write_u64(s.v.to_bits());
        }
        for v in [
            sim.trace.pfc_events.len() as u64,
            sim.trace.drops,
            sim.trace.retx_bytes,
            sim.trace.tx_data_bytes,
        ] {
            h.write_u64(v);
        }
        let complete = sim.budget_failure().is_none()
            && sim.kernel.now == horizon
            && rates.iter().all(|&r| r > 0.0);
        let profile = traced.then(|| {
            let queue = sim.trace.queue_series[0]
                .iter()
                .map(|s| s.v as u64)
                .collect();
            profile_of(&sim, queue, BitRate::from_gbps(40))
        });
        CellOut {
            cell: *self,
            run,
            total: Duration::ZERO,
            sim_ns: sim.kernel.now.as_nanos(),
            flows: FIG11_FLOWS,
            work: work_of(&sim),
            digest: h.finish(),
            complete,
            fct: None,
            fcts_us: Vec::new(),
            pfc_pauses: sim.trace.pfc_events.len() as u64,
            profile,
            spans: Vec::new(),
        }
    }

    /// The library's own run of this fat-tree cell
    /// (`fct::run_fat_tree_verdict`, the function `repro fig14 quick`
    /// fans out), as an outcome digest. `None` for the dumbbell and for
    /// a placement the library cannot express.
    pub fn library_digest(&self) -> Option<u64> {
        let Kind::FatTree(dist) = self.kind else {
            return None;
        };
        if self.seed != self.reference_seed {
            return None;
        }
        let (out, _) = fct::run_fat_tree_verdict(
            self.scheme,
            dist,
            FAT_TREE_LOAD,
            &FatTreeConfig::for_scale(Scale::Quick),
            BufferRegime::Pfc,
            self.seed,
        );
        Some(fat_tree_digest(&out))
    }
}

/// One execution of every cell of a workload, with its aggregation.
#[derive(Debug)]
pub struct Pass {
    /// Makespan: first set-up call to the end of aggregation.
    pub wall: Duration,
    /// Cell results in cell order; `Err` holds a panic message.
    pub cells: Vec<Result<CellOut, String>>,
    /// Worker threads the cells ran on.
    pub threads: usize,
    /// Aggregation span (fat-tree workloads; traced passes only).
    pub aggregate: Vec<Span>,
    /// Digest of the aggregated per-scheme rows (fat-tree workloads).
    pub aggregate_digest: Option<u64>,
}

impl Pass {
    /// The cells that ran to the end without panicking.
    pub fn ok_cells(&self) -> impl Iterator<Item = &CellOut> {
        self.cells.iter().filter_map(|c| c.as_ref().ok())
    }
}

/// Run every cell of `w` at `seed`, then aggregate the fat-tree outputs
/// with `fct::aggregate_outputs` the way the figure does.
pub fn run_pass(w: Workload, seed: u64, traced: bool, epoch: Instant) -> Pass {
    let cells = w.cells(seed);
    let threads = parallel::worker_threads(w.mode(), cells.len());
    let started = Instant::now();
    let mut results = parallel::map_cells(w.mode(), cells, |c| {
        parallel::run_isolated(|| c.run(traced, epoch)).map_err(|p| p.message)
    });
    let mut spans = Spans {
        epoch,
        list: traced.then(Vec::new),
    };
    let mut aggregate_digest = None;
    if w != Workload::Fig11Dumbbell {
        let mut h = Fnv64::new();
        let dims = w.fat_tree_dims();
        let Kind::FatTree(dist) = w.cells(seed)[0].kind else {
            unreachable!("fat-tree workload with a dumbbell cell")
        };
        spans.time("stats.aggregate", || {
            for chunk in results.chunks_mut(dims.reps) {
                let outs: Vec<RunOutput> = chunk
                    .iter_mut()
                    .filter_map(|c| c.as_mut().ok().and_then(|c| c.fct.take()))
                    .collect();
                let Some(scheme) = chunk.iter().find_map(|c| c.as_ref().ok()) else {
                    continue;
                };
                let row = fct::aggregate_outputs(scheme.cell.scheme, dist, &dims, &outs);
                h.write(row.to_json().as_bytes());
            }
        });
        aggregate_digest = Some(h.finish());
    }
    Pass {
        wall: started.elapsed(),
        cells: results,
        threads,
        aggregate: spans.list.unwrap_or_default(),
        aggregate_digest,
    }
}
