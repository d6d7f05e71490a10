//! End-to-end and per-layer benchmark of the RoCC simulator.
//!
//! ```text
//! rocc-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//!                [--rustc <version>] [--state-dir <dir>]
//! rocc-perfbench --pin
//! ```
//!
//! `perfbench/run.py` builds this program and runs it; see
//! `perfbench/WORKLOADS.md` for the workloads, the metrics and what each
//! layer metric is predicted to move. The last line of standard output is
//! the result object; the lines before it give the run's provenance and a
//! summary with sample counts. Every cell's simulated outcome is checked:
//! repeated passes and traced passes must reproduce the first pass's
//! outcome digest and exact work counters, the default seed must
//! reproduce the pinned digests in `perfbench/pins.txt`, and there the
//! benchmark's own fat-tree cells must match `fct::run_fat_tree_verdict`.

mod cells;
mod layers;

use cells::{run_pass, CellOut, Pass, Workload};
use rocc_core::digest::fnv1a_64;
use rocc_experiments::fct::{self, BufferRegime, Workload as Dist};
use rocc_experiments::parallel::{self, ExecMode};
use rocc_experiments::{Scale, Scheme};
use rocc_sim::prelude::Backend;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::{Duration, Instant};

/// Digests of the simulated outcomes at each workload's default seed.
const PINS: &str = include_str!("../pins.txt");
/// Fewest passes a run measures, however short `--seconds` is.
const MIN_PASSES: usize = 3;
/// Set-ups per cell behind `setup_s`.
const SETUP_REPS: usize = 21;
/// Time given to each layer microbenchmark.
const LAYER_BUDGET: Duration = Duration::from_millis(300);
/// The phase profiler's own tolerance on the sum of its shares.
const SHARE_TOLERANCE: f64 = 0.05;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
    rustc: String,
    state_dir: Option<PathBuf>,
    pin: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: Workload::FattreeWebsearch,
        seed: 0,
        seconds: 0,
        trace: false,
        rustc: "unknown".into(),
        state_dir: None,
        pin: false,
    };
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--pin" {
            args.pin = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload {value:?}"))?,
                )
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value:?}"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<u64>()
                        .ok()
                        .filter(|&s| s > 0)
                        .ok_or_else(|| format!("bad seconds {value:?}"))?,
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad trace {value:?}")),
                })
            }
            "--rustc" => args.rustc = value,
            "--state-dir" => args.state_dir = Some(PathBuf::from(value)),
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    if args.pin {
        return Ok(args);
    }
    args.workload = workload.ok_or("--workload is required")?;
    args.seed = seed.ok_or("--seed is required")?;
    args.seconds = seconds.ok_or("--seconds is required")?;
    args.trace = trace.ok_or("--trace is required")?;
    Ok(args)
}

/// Settings under which the benchmark would measure a different program.
fn refuse_other_programs() -> Result<(), String> {
    if cfg!(debug_assertions) {
        return Err("refusing to measure a debug build".into());
    }
    if Backend::from_env() == Backend::Heap {
        return Err("refusing to measure with ROCC_SCHEDULER=heap".into());
    }
    if std::env::var_os("ROCC_SANITIZE").is_some() {
        return Err("refusing to measure with ROCC_SANITIZE set".into());
    }
    Ok(())
}

fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into())
}

/// Digest of this executable, naming the program under measurement.
fn exe_digest() -> String {
    std::env::current_exe()
        .and_then(std::fs::read)
        .map(|b| format!("{:016x}", fnv1a_64(&b)))
        .unwrap_or_else(|_| "unknown".into())
}

fn provenance(args: &Args, exe: &str) -> String {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let env: Vec<String> = std::env::vars()
        .filter(|(k, _)| k.starts_with("ROCC_") || k == "RAYON_NUM_THREADS")
        .map(|(k, v)| format!("{}:{}", json_str(&k), json_str(&v)))
        .collect();
    format!(
        "{{\"provenance\":{{\"workload\":{},\"seed\":{},\"seconds\":{},\"trace\":{},\
         \"nproc\":{nproc},\"cpu\":{},\"rustc\":{},\"profile\":\"release\",\
         \"scheduler\":{},\"env\":{{{}}},\"exe\":{}}}}}",
        json_str(args.workload.name()),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        json_str(&cpu_model()),
        json_str(&args.rustc),
        json_str(Backend::from_env().name()),
        env.join(","),
        json_str(exe),
    )
}

fn median(v: &[f64]) -> f64 {
    let mut v = v.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n == 0 {
        f64::NAN
    } else if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Nearest-rank percentile of sorted, non-empty values.
fn percentile(sorted: &[f64], q: f64) -> f64 {
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// What the first pass saw of one cell; later passes must repeat it.
#[derive(Clone)]
struct Reference {
    label: String,
    digest: u64,
    work: cells::Work,
    /// Dispatch counts by event kind, once a traced pass has run.
    mix: Option<Vec<u64>>,
}

/// The outcome check behind `attempted`, `failed` and `correct`. Every
/// check is one attempted item.
struct Checker {
    /// By cell index.
    reference: BTreeMap<usize, Reference>,
    aggregate: Option<u64>,
    /// Pinned digests for this workload and seed, by cell label.
    pins: BTreeMap<String, u64>,
    attempted: u64,
    failed: u64,
    reasons: Vec<String>,
}

impl Checker {
    fn new(w: Workload, seed: u64) -> Checker {
        let pins = PINS
            .lines()
            .filter(|l| !l.trim().is_empty() && !l.starts_with('#'))
            .filter_map(|l| {
                let f: Vec<&str> = l.split_whitespace().collect();
                (f.len() == 4 && f[0] == w.name() && f[1] == seed.to_string())
                    .then(|| Some((f[2].to_string(), u64::from_str_radix(f[3], 16).ok()?)))?
            })
            .collect();
        Checker {
            reference: BTreeMap::new(),
            aggregate: None,
            pins,
            attempted: 0,
            failed: 0,
            reasons: Vec::new(),
        }
    }

    /// Count one checked item, failed when `failure` holds a reason.
    fn item(&mut self, failure: Option<String>) {
        self.attempted += 1;
        if let Some(why) = failure {
            self.failed += 1;
            if self.reasons.len() < 20 {
                self.reasons.push(why);
            }
        }
    }

    /// Check every cell of `pass`, and its aggregate.
    fn check(&mut self, pass: &Pass) {
        for (i, c) in pass.cells.iter().enumerate() {
            let why = match c {
                Err(panic) => Some(format!("cell {i} panicked: {panic}")),
                Ok(c) => self.check_cell(i, c),
            };
            self.item(why);
        }
        if let Some(digest) = pass.aggregate_digest {
            let expect = *self
                .pins
                .get("aggregate")
                .or(self.aggregate.as_ref())
                .unwrap_or(&digest);
            self.aggregate.get_or_insert(digest);
            self.item(
                (digest != expect).then(|| format!("aggregate {digest:016x} != {expect:016x}")),
            );
        }
    }

    fn check_cell(&mut self, i: usize, c: &CellOut) -> Option<String> {
        let label = c.cell.label();
        let mix: Option<Vec<u64>> = c
            .profile
            .as_ref()
            .map(|p| p.mix.iter().map(|m| m.1).collect());
        let r = self.reference.entry(i).or_insert_with(|| Reference {
            label: label.clone(),
            digest: c.digest,
            work: c.work,
            mix: None,
        });
        if r.mix.is_none() {
            r.mix.clone_from(&mix);
        }
        if !c.complete {
            return Some(format!("{label}: run incomplete"));
        }
        if c.work.past_due_clamps != 0 {
            return Some(format!(
                "{label}: {} past-due schedule clamps",
                c.work.past_due_clamps
            ));
        }
        if let Some(&pin) = self.pins.get(&label) {
            if c.digest != pin {
                return Some(format!(
                    "{label}: digest {:016x} != pinned {pin:016x}",
                    c.digest
                ));
            }
        }
        if c.digest != r.digest {
            return Some(format!(
                "{label}: digest {:016x} != first pass {:016x}",
                c.digest, r.digest
            ));
        }
        if c.work != r.work {
            return Some(format!(
                "{label}: work {:?} != first pass {:?}",
                c.work, r.work
            ));
        }
        match (&r.mix, &mix) {
            (Some(first), Some(mix)) if first != mix => Some(format!(
                "{label}: dispatch mix {mix:?} != first traced pass {first:?}"
            )),
            _ => None,
        }
    }

    /// The benchmark's fat-tree cells must reproduce the library's own
    /// runs of the same cells, the ones `repro fig14 quick` fans out.
    fn check_library(&mut self, w: Workload, seed: u64) {
        if w == Workload::Fig11Dumbbell {
            return;
        }
        let library = parallel::map_cells(w.mode(), w.cells(seed), |c| {
            parallel::run_isolated(|| c.library_digest())
        });
        for (i, lib) in library.into_iter().enumerate() {
            let why = match (self.reference.get(&i), lib) {
                (Some(r), Ok(Some(lib))) if lib == r.digest => None,
                (Some(r), Ok(Some(lib))) => Some(format!(
                    "{}: benchmark cell {:016x} != library {lib:016x}",
                    r.label, r.digest
                )),
                (Some(r), other) => Some(format!("{}: library run gave {other:?}", r.label)),
                (None, _) => Some(format!("cell {i}: no benchmark outcome to compare")),
            };
            self.item(why);
        }
    }

    /// Work counters must repeat across runs of the same build: the first
    /// run of each workload and seed records them, later runs compare.
    /// Dispatch counts, which only traced runs see, have a record of
    /// their own.
    fn check_across_runs(&mut self, dir: &Path, w: Workload, seed: u64) {
        let work: String = self
            .reference
            .values()
            .map(|r| format!("{} {:016x} {:?}\n", r.label, r.digest, r.work))
            .collect();
        self.record_or_compare(&dir.join(format!("{}-{seed}.work", w.name())), &work);
        if self.reference.values().all(|r| r.mix.is_some()) {
            let mix: String = self
                .reference
                .values()
                .map(|r| format!("{} {:?}\n", r.label, r.mix))
                .collect();
            self.record_or_compare(&dir.join(format!("{}-{seed}.mix", w.name())), &mix);
        }
    }

    fn record_or_compare(&mut self, path: &Path, text: &str) {
        match std::fs::read_to_string(path) {
            Ok(earlier) => self.item((earlier != text).then(|| {
                format!(
                    "counters differ from an earlier run of this build ({})",
                    path.display()
                )
            })),
            Err(_) => {
                let tmp = path.with_extension(format!("tmp{}", std::process::id()));
                let written = path
                    .parent()
                    .map_or(Ok(()), std::fs::create_dir_all)
                    .and_then(|_| std::fs::write(&tmp, text))
                    .and_then(|_| std::fs::rename(&tmp, path));
                if let Err(e) = written {
                    eprintln!(
                        "perfbench: could not record counters at {}: {e}",
                        path.display()
                    );
                }
            }
        }
    }
}

struct Metric {
    name: &'static str,
    unit: &'static str,
    value: f64,
}

fn metric(name: &'static str, unit: &'static str, value: f64) -> Metric {
    Metric { name, unit, value }
}

/// Set-up times of every cell, sampled in rounds of one serial set-up
/// per cell. Rounds are spread over the run, so `setup_s` sees the same
/// host conditions as the timed passes.
struct SetupSampler {
    cells: Vec<cells::Cell>,
    per_cell: Vec<Vec<f64>>,
}

impl SetupSampler {
    fn new(w: Workload, seed: u64) -> SetupSampler {
        let cells = w.cells(seed);
        let per_cell = vec![Vec::new(); cells.len()];
        SetupSampler { cells, per_cell }
    }

    fn rounds(&self) -> usize {
        self.per_cell[0].len()
    }

    fn round(&mut self) {
        for (c, samples) in self.cells.iter().zip(&mut self.per_cell) {
            samples.push(c.setup_only().as_secs_f64());
        }
    }

    /// Host seconds of set-up summed over cells, each cell's figure being
    /// the median of its samples.
    fn seconds(&self) -> f64 {
        self.per_cell.iter().map(|v| median(v)).sum()
    }
}

fn end_to_end(args: &Args, checker: &mut Checker, epoch: Instant) -> Vec<Metric> {
    let started = Instant::now();
    let budget = Duration::from_secs(args.seconds);
    let (mut walls, mut speeds) = (Vec::new(), Vec::new());
    let mut setup = SetupSampler::new(args.workload, args.seed);
    while started.elapsed() < budget || walls.len() < MIN_PASSES {
        let pass = run_pass(args.workload, args.seed, false, epoch);
        checker.check(&pass);
        let sim_us: f64 = pass.ok_cells().map(|c| c.sim_ns as f64 / 1e3).sum();
        let run_s: f64 = pass.ok_cells().map(|c| c.run.as_secs_f64()).sum();
        walls.push(pass.wall.as_secs_f64());
        speeds.push(sim_us / run_s);
        let due = SETUP_REPS as f64 * started.elapsed().as_secs_f64() / budget.as_secs_f64();
        while (setup.rounds() as f64) < due.min(SETUP_REPS as f64) {
            setup.round();
        }
    }
    while setup.rounds() < SETUP_REPS {
        setup.round();
    }
    let min = |v: &[f64]| v.iter().copied().fold(f64::INFINITY, f64::min);
    let max = |v: &[f64]| v.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    println!(
        "{{\"summary\":{{\"passes\":{},\"wall_s\":{{\"median\":{},\"min\":{},\"max\":{}}},\
         \"sim_us_per_s\":{{\"median\":{},\"min\":{},\"max\":{}}},\"setup_rounds\":{}}}}}",
        walls.len(),
        median(&walls),
        min(&walls),
        max(&walls),
        median(&speeds),
        min(&speeds),
        max(&speeds),
        setup.rounds(),
    );
    vec![
        metric("wall_s", "s", median(&walls)),
        metric("setup_s", "s", setup.seconds()),
        metric("sim_us_per_s", "us/s", median(&speeds)),
        metric("peak_rss_mb", "MB", peak_rss_mb()),
    ]
}

/// Layer figures of one traced pass.
fn traced_figures(p: &Pass) -> BTreeMap<String, f64> {
    let mut f: BTreeMap<String, f64> = BTreeMap::new();
    let mut add = |k: &str, v: f64| *f.entry(k.to_string()).or_default() += v;
    for c in p.ok_cells() {
        for s in &c.spans {
            add(&format!("{}_s", s.name), s.secs());
        }
        let scheme = match c.cell.scheme {
            Scheme::Dcqcn => "dcqcn",
            Scheme::Hpcc => "hpcc",
            Scheme::Rocc => "rocc",
            _ => "others",
        };
        add(&format!("cell.{scheme}.run_s"), c.total.as_secs_f64());
        add("cells_total_s", c.total.as_secs_f64());
    }
    for s in &p.aggregate {
        add(&format!("{}_s", s.name), s.secs());
    }
    f
}

/// Wall-weighted profiler shares over the traced cells of a pass.
fn weighted_shares(p: &Pass) -> BTreeMap<&'static str, f64> {
    let mut acc: BTreeMap<&'static str, f64> = BTreeMap::new();
    let mut total = 0.0;
    for c in p.ok_cells() {
        let prof = c.profile.as_ref().expect("traced cell has a profile");
        for &(name, share) in &prof.shares {
            *acc.entry(name).or_default() += share * prof.wall_s;
        }
        total += prof.wall_s;
    }
    acc.values_mut().for_each(|v| *v /= total);
    acc
}

fn per_layer(args: &Args, checker: &mut Checker, epoch: Instant) -> Vec<Metric> {
    let started = Instant::now();
    let budget = Duration::from_secs(args.seconds);
    let (mut untraced, mut traced): (Vec<f64>, Vec<Pass>) = (Vec::new(), Vec::new());
    let mut pair = 0;
    while started.elapsed() < budget || traced.len() < 2 {
        // Alternate which side of a pair runs first.
        for trace_it in [pair % 2 == 1, pair % 2 == 0] {
            let pass = run_pass(args.workload, args.seed, trace_it, epoch);
            checker.check(&pass);
            if trace_it {
                traced.push(pass);
            } else {
                untraced.push(pass.wall.as_secs_f64());
            }
        }
        pair += 1;
    }

    // Every traced cell's phase shares must sum to 1 within the
    // profiler's own tolerance.
    for c in traced.iter().flat_map(|p| p.ok_cells()) {
        let sum: f64 = c
            .profile
            .as_ref()
            .map_or(0.0, |p| p.shares.iter().map(|s| s.1).sum());
        checker.item(
            ((sum - 1.0).abs() > SHARE_TOLERANCE)
                .then(|| format!("{}: phase shares sum to {sum}", c.cell.label())),
        );
    }

    let figures: Vec<BTreeMap<String, f64>> = traced.iter().map(traced_figures).collect();
    let med = |k: &str| {
        median(
            &figures
                .iter()
                .map(|f| f.get(k).copied().unwrap_or(0.0))
                .collect::<Vec<_>>(),
        )
    };
    let shares: Vec<BTreeMap<&str, f64>> = traced.iter().map(weighted_shares).collect();
    let share = |k: &str| {
        median(
            &shares
                .iter()
                .map(|s| s.get(k).copied().unwrap_or(0.0))
                .collect::<Vec<_>>(),
        )
    };

    // Exact counts: identical in every pass (checked), read off the first.
    let first = &traced[0];
    let cells: Vec<&CellOut> = first.ok_cells().collect();
    let sum = |f: &dyn Fn(&CellOut) -> u64| cells.iter().map(|c| f(c)).sum::<u64>() as f64;
    let mix = |c: &CellOut, kind: &str| -> u64 {
        c.profile
            .as_ref()
            .and_then(|p| p.mix.iter().find(|m| m.0 == kind))
            .map_or(0, |m| m.1)
    };
    let events = sum(&|c| c.work.events);
    let run_s = med("engine.run_s");
    let deepest = cells
        .iter()
        .max_by_key(|c| c.work.peak_pending)
        .expect("a traced pass has cells");
    let peak_live = cells.iter().map(|c| c.work.peak_live).max().unwrap_or(0);
    let cp_source = cells
        .iter()
        .find(|c| c.cell.scheme == Scheme::Rocc)
        .and_then(|c| c.profile.as_ref())
        .expect("every workload runs RoCC");
    let mut fcts: Vec<f64> = cells
        .iter()
        .flat_map(|c| c.fcts_us.iter().copied())
        .collect();
    fcts.sort_by(f64::total_cmp);
    let fct_at = |q: f64| {
        if fcts.is_empty() {
            0.0
        } else {
            percentile(&fcts, q)
        }
    };

    // Microbenchmarks sized from the traced pass.
    let mean_wait_ns =
        deepest.work.peak_pending as f64 * deepest.sim_ns as f64 / deepest.work.pushes as f64;
    let sched = layers::sched_hold(
        deepest.work.peak_pending as usize,
        mean_wait_ns,
        LAYER_BUDGET,
    );
    let slab_ns = layers::slab_ring(peak_live as usize, LAYER_BUDGET);
    let cp_ns = layers::cp_update(&cp_source.queue, cp_source.queue_rate, LAYER_BUDGET);
    eprintln!(
        "layers: sched hold at depth {} (mean wait {:.0} ns) push {:.1} ns pop {:.1} ns; \
         slab ring at {peak_live} live {slab_ns:.1} ns; CP update over {} samples at {} Gb/s {cp_ns:.1} ns",
        sched.depth,
        sched.mean_wait_ns,
        sched.push_ns,
        sched.pop_ns,
        cp_source.queue.len(),
        cp_source.queue_rate.as_gbps_f64(),
    );

    let efficiency: Vec<f64> = traced
        .iter()
        .zip(&figures)
        .map(|(p, f)| f["cells_total_s"] / (p.threads as f64 * p.wall.as_secs_f64()))
        .collect();
    let traced_walls: Vec<f64> = traced.iter().map(|p| p.wall.as_secs_f64()).collect();
    if let Some(dir) = &args.state_dir {
        write_spans(dir, args, &traced);
    }

    vec![
        metric("topology.build_s", "s", med("topology.build_s")),
        metric("workloads.generate_s", "s", med("workloads.generate_s")),
        metric("workloads.flows", "count", sum(&|c| c.flows as u64)),
        metric("engine.sim_new_s", "s", med("engine.sim_new_s")),
        metric("engine.add_flow_s", "s", med("engine.add_flow_s")),
        metric("engine.run_s", "s", run_s),
        metric("engine.events", "count", events),
        metric("engine.pushes", "count", sum(&|c| c.work.pushes)),
        metric(
            "engine.peak_pending",
            "count",
            deepest.work.peak_pending as f64,
        ),
        metric("engine.events_per_s", "1/s", events / run_s),
        metric("sched.pop_share", "ratio", share("sched_pop")),
        metric("sched.push_share", "ratio", share("sched_push")),
        metric("sched.cascades", "count", sum(&|c| c.work.cascades)),
        metric("sched.rebases", "count", sum(&|c| c.work.rebases)),
        metric("sched.push_ns", "ns", sched.push_ns),
        metric("sched.pop_ns", "ns", sched.pop_ns),
        metric("sched.bench_wait_ns", "ns", sched.mean_wait_ns),
        metric("slab.alloc_take_ns", "ns", slab_ns),
        metric("slab.peak_live", "count", peak_live as f64),
        metric("switch.forward_share", "ratio", share("switch_forward")),
        metric(
            "switch.events",
            "count",
            sum(&|c| mix(c, "arrive") + mix(c, "switch_tx_done")),
        ),
        metric("host.compute_share", "ratio", share("host_compute")),
        metric(
            "host.cc_timer_events",
            "count",
            sum(&|c| mix(c, "host_cc_timer")),
        ),
        metric("host.wake_events", "count", sum(&|c| mix(c, "host_wake"))),
        metric("dispatch.share", "ratio", share("dispatch")),
        metric("cp.tick_share", "ratio", share("cp_tick")),
        metric("cp.ticks", "count", sum(&|c| mix(c, "cp_timer"))),
        metric("rp.feedback_events", "count", sum(&|c| mix(c, "feedback"))),
        metric("cp.update_ns", "ns", cp_ns),
        metric("cp.bench_samples", "count", cp_source.queue.len() as f64),
        metric("cell.dcqcn.run_s", "s", med("cell.dcqcn.run_s")),
        metric("cell.hpcc.run_s", "s", med("cell.hpcc.run_s")),
        metric("cell.rocc.run_s", "s", med("cell.rocc.run_s")),
        metric("cell.others.run_s", "s", med("cell.others.run_s")),
        metric("stats.aggregate_s", "s", med("stats.aggregate_s")),
        metric("parallel.threads", "count", first.threads as f64),
        metric("parallel.efficiency", "ratio", median(&efficiency)),
        metric(
            "trace.overhead",
            "ratio",
            median(&traced_walls) / median(&untraced) - 1.0,
        ),
        metric("model.fct_p50_us", "us", fct_at(0.5)),
        metric("model.fct_p99_us", "us", fct_at(0.99)),
        metric("model.pfc_pauses", "count", sum(&|c| c.pfc_pauses)),
        metric(
            "model.sim_end_ms",
            "ms",
            cells.iter().map(|c| c.sim_ns).max().unwrap_or(0) as f64 / 1e6,
        ),
    ]
}

/// Keep the traced passes' layer spans as JSON lines next to the build.
fn write_spans(dir: &Path, args: &Args, traced: &[Pass]) {
    let mut out = String::new();
    for (pi, p) in traced.iter().enumerate() {
        for c in p.ok_cells() {
            for s in &c.spans {
                out.push_str(&format!(
                    "{{\"pass\":{pi},\"cell\":{},\"span\":{},\"start_ns\":{},\"end_ns\":{}}}\n",
                    json_str(&c.cell.label()),
                    json_str(s.name),
                    s.start_ns,
                    s.end_ns
                ));
            }
        }
        for s in &p.aggregate {
            out.push_str(&format!(
                "{{\"pass\":{pi},\"cell\":null,\"span\":{},\"start_ns\":{},\"end_ns\":{}}}\n",
                json_str(s.name),
                s.start_ns,
                s.end_ns
            ));
        }
    }
    let path = dir.join(format!(
        "spans-{}-{}.jsonl",
        args.workload.name(),
        args.seed
    ));
    if let Err(e) = std::fs::create_dir_all(dir).and_then(|_| std::fs::write(&path, out)) {
        eprintln!("perfbench: could not write spans: {e}");
    }
}

/// Print the pinned outcome digests of every workload at its default
/// seed; fat-tree cells and the FB_Hadoop aggregate come from the
/// library's own experiment functions.
fn print_pins(epoch: Instant) {
    for w in Workload::ALL {
        let seed = w.default_seed();
        for c in w.cells(seed) {
            let digest = c.library_digest().unwrap_or_else(|| {
                let p = c.run(false, epoch);
                assert!(p.complete, "{} incomplete", c.label());
                p.digest
            });
            println!("{} {seed} {} {digest:016x}", w.name(), c.label());
        }
        if w == Workload::FattreeFbhadoop {
            let rows = fct::fct_comparison_with(
                Dist::FbHadoop,
                cells::FAT_TREE_LOAD,
                Scale::Quick,
                BufferRegime::Pfc,
                ExecMode::Parallel,
            );
            let mut h = rocc_core::digest::Fnv64::new();
            for r in &rows {
                h.write(r.to_json().as_bytes());
            }
            println!("{} {seed} aggregate {:016x}", w.name(), h.finish());
        }
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    if let Err(e) = refuse_other_programs() {
        eprintln!("perfbench: {e}");
        return ExitCode::from(3);
    }
    let epoch = Instant::now();
    if args.pin {
        print_pins(epoch);
        return ExitCode::SUCCESS;
    }
    let exe = exe_digest();
    println!("{}", provenance(&args, &exe));

    let mut checker = Checker::new(args.workload, args.seed);
    let metrics = if args.trace {
        per_layer(&args, &mut checker, epoch)
    } else {
        end_to_end(&args, &mut checker, epoch)
    };
    if args.seed == args.workload.default_seed() {
        checker.check_library(args.workload, args.seed);
    }
    if let Some(dir) = &args.state_dir {
        checker.check_across_runs(&dir.join(&exe), args.workload, args.seed);
    }
    for m in &metrics {
        checker.item((!m.value.is_finite()).then(|| format!("metric {} is not finite", m.name)));
    }
    for why in &checker.reasons {
        eprintln!("perfbench: FAILED {why}");
    }
    let rendered: Vec<String> = metrics
        .iter()
        .map(|m| {
            let v = if m.value.is_finite() { m.value } else { 0.0 };
            format!(
                "{}:{{\"value\":{v},\"unit\":{}}}",
                json_str(m.name),
                json_str(m.unit)
            )
        })
        .collect();
    eprintln!(
        "perfbench: {} cells attempted, {} failed, fail_ratio {}",
        checker.attempted,
        checker.failed,
        checker.failed as f64 / checker.attempted.max(1) as f64
    );
    println!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        checker.failed == 0,
        checker.attempted,
        checker.failed,
        rendered.join(",")
    );
    ExitCode::SUCCESS
}
