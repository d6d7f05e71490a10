//! Multi-metric performance ratchet over `BENCH_sim.json` (schema v2).
//!
//! A ratchet is a committed baseline that only moves in the *good*
//! direction: [`check`] fails when a fresh benchmark regresses past a
//! metric's tolerance against the baseline, and [`advance`] folds a fresh
//! run into the baseline by keeping, per metric, the better of the two
//! values — so improvements tighten the gate automatically while noise
//! within tolerance never loosens it.
//!
//! The JSON is hand-rolled on the write side and read here through the
//! strict parser in `rocc_stats::json`; each metric is addressed by its
//! dotted path (`engine.events_per_sec`), and a malformed document is a
//! typed error rather than a missing metric.

use rocc_sim::json::{self, JsonError, Value};

/// Which way is better for a metric.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Direction {
    /// Bigger is better (throughput).
    Higher,
    /// Smaller is better (wall-clock, overhead).
    Lower,
}

/// How much a fresh value may regress before [`check`] fails.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Tolerance {
    /// Fractional slack against the baseline: `Relative(0.2)` on a
    /// [`Direction::Higher`] metric fails below 80% of the baseline, on a
    /// [`Direction::Lower`] metric above 120%.
    Relative(f64),
    /// A fixed ceiling, independent of any baseline (the fresh value
    /// itself must not exceed it). The metric is not ratcheted.
    AbsoluteMax(f64),
}

/// One gated metric of the v2 benchmark document.
#[derive(Debug, Clone, Copy)]
pub struct Metric {
    /// Dotted path of the metric in the document.
    pub path: &'static str,
    /// Which way improvement points.
    pub direction: Direction,
    /// Allowed regression before the gate trips.
    pub tolerance: Tolerance,
    /// Dotted path of the exact work count (events) the metric was
    /// measured over, when it is a rate or a wall time. Two runs over
    /// different amounts of work are not comparable, so [`check`] fails
    /// when the counts differ and [`advance`] re-seeds the metric.
    pub work: Option<&'static str>,
}

/// The ratcheted metric set for `BENCH_sim.json` v2.
///
/// Throughput gets the historical 20% slack (single-run noise on shared
/// CI hosts), wall-clock sweeps 25% (shorter, noisier), and profiler
/// overhead is an absolute gate on the *percentage* cost of the phase
/// profiler against the gated-off engine. The ceiling was 3% when the
/// engine ran at 4.5M events/sec; the timing-wheel engine is ~2x faster,
/// so the same absolute per-event profiler cost (a few ns of counter
/// bumps and sampled clock reads) is ~2x the percentage — the ceiling is
/// recalibrated to 5% to keep gating the same absolute budget.
pub const METRICS: &[Metric] = &[
    Metric {
        path: "engine.events_per_sec",
        direction: Direction::Higher,
        tolerance: Tolerance::Relative(0.20),
        work: Some("engine.engine_events"),
    },
    Metric {
        path: "sweep.serial_wall_seconds",
        direction: Direction::Lower,
        tolerance: Tolerance::Relative(0.25),
        work: Some("sweep.events_total"),
    },
    Metric {
        path: "sweep.parallel_wall_seconds",
        direction: Direction::Lower,
        tolerance: Tolerance::Relative(0.25),
        work: Some("sweep.events_total"),
    },
    Metric {
        path: "profiler.profiler_overhead_pct",
        direction: Direction::Lower,
        tolerance: Tolerance::AbsoluteMax(5.0),
        work: None,
    },
];

/// Improvement ratio of a fresh benchmark value over the recorded
/// previous ratchet entry: pass `(fresh, base)` for higher-is-better
/// metrics (throughput) and `(base, fresh)` for lower-is-better ones
/// (wall-clock), so the result reads "Nx better" either way. Degenerate
/// inputs (absent baseline, zero denominators) report 1.0 — "no measured
/// change" — rather than poisoning the document with inf/NaN.
pub fn speedup(numer: Option<f64>, denom: Option<f64>) -> f64 {
    match (numer, denom) {
        (Some(n), Some(d)) if n > 0.0 && d > 0.0 => n / d,
        _ => 1.0,
    }
}

/// The number at dotted `path` in a parsed benchmark document, or `None`
/// if it is absent or not a number.
pub fn metric(doc: &Value, path: &str) -> Option<f64> {
    doc.path(path)?.value.as_f64()
}

/// One metric's verdict from [`check`].
#[derive(Debug, Clone, PartialEq)]
pub enum Verdict {
    /// Within tolerance (the human-readable line says by how much).
    Pass(String),
    /// Regressed past tolerance.
    Fail(String),
    /// Metric absent from the baseline (fresh schema is newer): passes,
    /// flagged so the log shows the gate was vacuous.
    NoBaseline(String),
}

impl Verdict {
    /// Whether this verdict trips the gate.
    pub fn failed(&self) -> bool {
        matches!(self, Verdict::Fail(_))
    }

    /// The human-readable line.
    pub fn line(&self) -> &str {
        match self {
            Verdict::Pass(s) | Verdict::Fail(s) | Verdict::NoBaseline(s) => s,
        }
    }
}

/// Gate a fresh benchmark document against the committed ratchet: one
/// verdict per metric in [`METRICS`]. A metric missing from the *fresh*
/// document is a hard failure (the benchmark should always emit the full
/// schema); missing from the *baseline* it passes as [`Verdict::NoBaseline`]
/// so a schema upgrade can land before its first ratchet advance. A
/// metric whose work count ([`Metric::work`]) is missing from the fresh
/// document, or differs from the baseline's, fails: its value measures a
/// different amount of work. Either document failing to parse is an
/// error.
pub fn check(fresh: &str, base: &str) -> Result<Vec<Verdict>, JsonError> {
    let (fresh, base) = (json::parse(fresh)?, json::parse(base)?);
    let verdicts = METRICS
        .iter()
        .map(|m| {
            let Some(f) = metric(&fresh, m.path) else {
                return Verdict::Fail(format!("{}: missing from fresh benchmark", m.path));
            };
            match m.tolerance {
                Tolerance::AbsoluteMax(max) => {
                    if f > max {
                        Verdict::Fail(format!("{}: {f:.3} exceeds absolute ceiling {max}", m.path))
                    } else {
                        Verdict::Pass(format!("{}: {f:.3} <= ceiling {max}", m.path))
                    }
                }
                Tolerance::Relative(tol) => {
                    let Some(b) = metric(&base, m.path) else {
                        return Verdict::NoBaseline(format!(
                            "{}: no baseline yet (fresh {f:.3})",
                            m.path
                        ));
                    };
                    if let Some(w) = m.work {
                        match (metric(&fresh, w), metric(&base, w)) {
                            (None, _) => {
                                return Verdict::Fail(format!(
                                    "{}: fresh benchmark lacks its work count {w}",
                                    m.path
                                ))
                            }
                            (Some(fw), Some(bw)) if fw != bw => {
                                return Verdict::Fail(format!(
                                    "WORK CHANGED {}: {w} is {fw:.0} fresh vs {bw:.0} in the baseline, \
                                     so fresh {f:.3} and ratchet {b:.3} are not comparable; \
                                     re-record the baseline",
                                    m.path
                                ))
                            }
                            _ => {}
                        }
                    }
                    let (bad, bound) = match m.direction {
                        Direction::Higher => (f < (1.0 - tol) * b, (1.0 - tol) * b),
                        Direction::Lower => (f > (1.0 + tol) * b, (1.0 + tol) * b),
                    };
                    let line = format!(
                        "{}: fresh {f:.3} vs ratchet {b:.3} (bound {bound:.3})",
                        m.path
                    );
                    if bad {
                        Verdict::Fail(format!("REGRESSION {line}"))
                    } else {
                        Verdict::Pass(line)
                    }
                }
            }
        })
        .collect();
    Ok(verdicts)
}

/// Fold a fresh run into the ratchet: start from the fresh document (so
/// context fields — event counts, speedups, phase breakdown — describe
/// the latest run) and, for each relatively-gated metric where the old
/// baseline is still better, keep the baseline's value. Returns the new
/// ratchet document and a log line per retained/advanced metric.
/// Absolute-ceiling metrics always carry the fresh value: their gate does
/// not move. So does a metric whose work count changed: the old value
/// measured other work. Kept values are spliced over the fresh number's
/// source text, so every other byte of the fresh document carries over
/// unchanged.
pub fn advance(fresh: &str, base: &str) -> Result<(String, Vec<String>), JsonError> {
    let (fresh_doc, base_doc) = (json::parse(fresh)?, json::parse(base)?);
    let mut kept = Vec::new();
    let mut log = Vec::new();
    for m in METRICS {
        let Tolerance::Relative(_) = m.tolerance else {
            continue;
        };
        let Some(f) = metric(&fresh_doc, m.path) else {
            continue;
        };
        let Some(b) = metric(&base_doc, m.path) else {
            log.push(format!("{}: seeded at {f:.3}", m.path));
            continue;
        };
        if let Some(w) = m.work {
            if metric(&fresh_doc, w) != metric(&base_doc, w) {
                log.push(format!("{}: re-seeded at {f:.3} ({w} changed)", m.path));
                continue;
            }
        }
        let base_better = match m.direction {
            Direction::Higher => b > f,
            Direction::Lower => b < f,
        };
        if base_better {
            let span = fresh_doc.path(m.path).expect("metric just read").span.clone();
            kept.push((span, b));
            log.push(format!("{}: kept ratchet {b:.3} (fresh {f:.3})", m.path));
        } else {
            log.push(format!("{}: advanced {b:.3} -> {f:.3}", m.path));
        }
    }
    let mut doc = fresh.to_string();
    kept.sort_by_key(|(span, _)| std::cmp::Reverse(span.start));
    for (span, b) in kept {
        doc.replace_range(span, &b.to_string());
    }
    Ok((doc, log))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn num(doc: &str, path: &str) -> Option<f64> {
        metric(&json::parse(doc).expect("document parses"), path)
    }

    fn v2_doc(eps: f64, serial: f64, parallel: f64, overhead: f64) -> String {
        v2_doc_over(443_812, 815_641, eps, serial, parallel, overhead)
    }

    /// A v2 document whose engine and sweep ran `engine_events` and
    /// `sweep_events` events.
    fn v2_doc_over(
        engine_events: u64,
        sweep_events: u64,
        eps: f64,
        serial: f64,
        parallel: f64,
        overhead: f64,
    ) -> String {
        format!(
            "{{\"schema\":\"rocc-bench/v2\",\
             \"engine\":{{\"engine_events\":{engine_events},\"events_per_sec\":{eps}}},\
             \"profiler\":{{\"profiler_overhead_pct\":{overhead}}},\
             \"sweep\":{{\"serial_wall_seconds\":{serial},\"parallel_wall_seconds\":{parallel},\
             \"events_total\":{sweep_events}}}}}"
        )
    }

    #[test]
    fn identical_rerun_passes_check() {
        let doc = v2_doc(5.0e6, 0.14, 0.10, 1.2);
        let verdicts = check(&doc, &doc).unwrap();
        assert_eq!(verdicts.len(), METRICS.len());
        assert!(verdicts.iter().all(|v| !v.failed()), "{verdicts:?}");
    }

    #[test]
    fn degraded_run_fails_each_gated_metric() {
        let base = v2_doc(5.0e6, 0.14, 0.10, 1.2);
        // Throughput down 30% (> 20% slack).
        let slow = v2_doc(3.5e6, 0.14, 0.10, 1.2);
        assert!(check(&slow, &base).unwrap().iter().any(|v| v.failed()));
        // Serial sweep up 50% (> 25% slack).
        let sweepy = v2_doc(5.0e6, 0.21, 0.10, 1.2);
        assert!(check(&sweepy, &base).unwrap().iter().any(|v| v.failed()));
        // Profiler overhead above the absolute 5% ceiling — fails even
        // though the baseline's overhead was worse (no ratchet for it).
        let heavy = v2_doc(5.0e6, 0.14, 0.10, 5.4);
        let base_heavy = v2_doc(5.0e6, 0.14, 0.10, 7.0);
        assert!(check(&heavy, &base_heavy).unwrap().iter().any(|v| v.failed()));
    }

    #[test]
    fn noise_within_tolerance_passes() {
        let base = v2_doc(5.0e6, 0.14, 0.10, 1.2);
        let noisy = v2_doc(4.2e6, 0.17, 0.12, 2.9);
        assert!(check(&noisy, &base).unwrap().iter().all(|v| !v.failed()));
    }

    #[test]
    fn check_fails_when_the_work_count_changes() {
        // The same figures over less work are not comparable: each gated
        // rate or wall fails, naming both counts, and advance re-seeds it.
        let base = v2_doc_over(502_590, 830_450, 8.8e6, 0.108, 0.108, 3.4);
        let fresh = v2_doc_over(443_812, 830_450, 8.8e6, 0.108, 0.108, 3.4);
        let failed: Vec<_> = check(&fresh, &base)
            .unwrap()
            .into_iter()
            .filter(|v| v.failed())
            .collect();
        assert_eq!(failed.len(), 1, "{failed:?}");
        let line = failed[0].line();
        assert!(line.contains("engine.events_per_sec"), "{line}");
        assert!(line.contains("443812") && line.contains("502590"), "{line}");
        let fresh = v2_doc_over(502_590, 815_641, 8.8e6, 0.108, 0.108, 3.4);
        let failed: Vec<_> = check(&fresh, &base)
            .unwrap()
            .into_iter()
            .filter(|v| v.failed())
            .collect();
        assert_eq!(failed.len(), 2, "both sweep walls: {failed:?}");
        assert!(failed
            .iter()
            .all(|v| v.line().contains("815641") && v.line().contains("830450")));
        // A fresh document without its work count fails outright.
        let bare = "{\"engine\":{\"events_per_sec\":8.8e6}}";
        assert!(check(bare, &base).unwrap().iter().any(|v| v.failed()));
        // Advance takes the fresh (worse) walls instead of keeping the
        // baseline's better ones measured over other work.
        let slower = v2_doc_over(502_590, 815_641, 8.8e6, 0.2, 0.2, 3.4);
        let (next, _) = advance(&slower, &base).unwrap();
        assert_eq!(num(&next, "sweep.serial_wall_seconds"), Some(0.2));
        assert!(check(&slower, &next).unwrap().iter().all(|v| !v.failed()));
    }

    #[test]
    fn advance_keeps_the_better_value_per_metric() {
        let base = v2_doc(5.0e6, 0.14, 0.10, 1.2);
        // Faster engine, slower sweep: the ratchet should take fresh eps
        // and keep the baseline sweep numbers.
        let fresh = v2_doc(6.0e6, 0.16, 0.12, 2.0);
        let (next, log) = advance(&fresh, &base).unwrap();
        assert_eq!(num(&next, "engine.events_per_sec"), Some(6.0e6));
        assert_eq!(num(&next, "sweep.serial_wall_seconds"), Some(0.14));
        assert_eq!(num(&next, "sweep.parallel_wall_seconds"), Some(0.10));
        // Overhead is ceiling-gated, not ratcheted: fresh value carries.
        assert_eq!(num(&next, "profiler.profiler_overhead_pct"), Some(2.0));
        assert_eq!(log.len(), 3);
        // The advanced ratchet still passes a check against itself and
        // against the run that produced it.
        assert!(check(&next, &next).unwrap().iter().all(|v| !v.failed()));
        assert!(check(&fresh, &next).unwrap().iter().all(|v| !v.failed()));
    }

    #[test]
    fn advance_over_v1_baseline_seeds_missing_metrics() {
        // v1 had only events_per_sec (plus sweep seconds under the same
        // keys); a fresh v2 doc against a baseline missing the overhead
        // metric must not fail the check and must seed on advance.
        let v1 = "{\"engine\":{\"events_per_sec\":5000000}}";
        let fresh = v2_doc(4.9e6, 0.14, 0.10, 1.0);
        assert!(check(&fresh, v1).unwrap().iter().all(|v| !v.failed()));
        let (next, _) = advance(&fresh, v1).unwrap();
        assert_eq!(num(&next, "sweep.serial_wall_seconds"), Some(0.14));
        assert!(check(&fresh, &next).unwrap().iter().all(|v| !v.failed()));
    }

    #[test]
    fn speedup_is_vs_the_previous_ratchet_entry_not_a_constant() {
        // Higher-is-better: fresh/base.
        assert_eq!(speedup(Some(9.0e6), Some(4.5e6)), 2.0);
        // Lower-is-better callers flip the operands: base/fresh.
        assert_eq!(speedup(Some(0.30), Some(0.15)), 2.0);
        // Degenerate inputs (no baseline yet, zeroed wall) read as 1.0.
        assert_eq!(speedup(None, Some(4.5e6)), 1.0);
        assert_eq!(speedup(Some(4.5e6), None), 1.0);
        assert_eq!(speedup(Some(0.0), Some(1.0)), 1.0);
        assert_eq!(speedup(Some(1.0), Some(0.0)), 1.0);
    }

    #[test]
    fn metric_paths_respect_key_boundaries() {
        let doc = "{\"profiled_events_per_sec\":1.0,\"engine\":{\"events_per_sec\":2.0}}";
        assert_eq!(num(doc, "engine.events_per_sec"), Some(2.0));
        assert_eq!(num(doc, "profiled_events_per_sec"), Some(1.0));
        assert_eq!(num(doc, "events_per_sec"), None);
        assert_eq!(num(doc, "absent"), None);
        assert_eq!(num("{\"x\":3.5e-2}", "x"), Some(0.035));
    }

    #[test]
    fn advance_splices_kept_values_and_rejects_malformed_docs() {
        let base = v2_doc(5.0e6, 0.14, 0.10, 1.2);
        let fresh = v2_doc(6.0e6, 0.16, 0.12, 2.0);
        let (next, _) = advance(&fresh, &base).unwrap();
        let expect = fresh
            .replace("\"serial_wall_seconds\":0.16", "\"serial_wall_seconds\":0.14")
            .replace("\"parallel_wall_seconds\":0.12", "\"parallel_wall_seconds\":0.1");
        assert_eq!(next, expect, "only the kept numbers change");
        let torn = &fresh[..fresh.len() - 2];
        assert!(check(torn, &base).is_err());
        assert!(check(&fresh, torn).is_err());
        assert!(advance(&fresh, "{\"engine\":{\"events_per_sec\":NaN}}").is_err());
    }
}
