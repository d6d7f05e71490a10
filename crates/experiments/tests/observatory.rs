//! End-to-end shape of the run observatory: `observe` produces a
//! Perfetto-loadable trace, a metrics JSONL, and a manifest whose digests
//! match the artifacts; two seeds of the same config pass the cross-run
//! fidelity gate; and runs are reproducible digest-for-digest.

use rocc_experiments::observatory::{
    compare, digest, golden_json, incast, observe, summarize_metrics, GOLDEN_SEED,
};
use rocc_experiments::Scale;
use rocc_stats::json;

fn tmp_dir(name: &str) -> String {
    let d = std::env::temp_dir().join(format!("rocc_obs_{name}_{}", std::process::id()));
    d.to_str().unwrap().to_string()
}

#[test]
fn observe_produces_all_three_artifacts() {
    let run = observe("incast", Scale::Quick, GOLDEN_SEED).expect("incast is a known scenario");
    assert!(observe("nope", Scale::Quick, 1).is_none());
    assert_eq!(run.completed, run.flows, "quick incast must finish");

    // Metrics JSONL covers all four row types.
    for ty in ["queue", "cp", "flow", "pfc"] {
        assert!(
            run.metrics_jsonl.contains(&format!("\"type\":\"{ty}\"")),
            "metrics missing {ty} rows"
        );
    }

    // Perfetto export is a chrome trace with flow tracks and counters.
    assert!(run.perfetto_json.starts_with("{\"displayTimeUnit\":\"ns\""));
    assert!(run.perfetto_json.ends_with("]}"));
    assert!(run.perfetto_json.contains("\"process_name\""));
    assert!(run.perfetto_json.contains("flow 0"));

    // Manifest digests match the artifacts they describe.
    let manifest = run.manifest_json();
    assert!(manifest.contains("\"schema\":\"rocc-run-manifest/v1\""));
    assert!(manifest.contains(&format!("\"seed\":{GOLDEN_SEED}")));
    assert!(manifest.contains(&format!(
        "\"metrics_digest\":\"{}\"",
        digest(&run.metrics_jsonl)
    )));
    assert!(manifest.contains(&format!(
        "\"perfetto_digest\":\"{}\"",
        digest(&run.perfetto_json)
    )));

    // write_artifacts creates the directory chain and all three files.
    let dir = tmp_dir("artifacts");
    let nested = format!("{dir}/a/b");
    let paths = run.write_artifacts(&nested).expect("write artifacts");
    assert_eq!(paths.len(), 3);
    for p in &paths {
        let meta = std::fs::metadata(p).expect("artifact exists");
        assert!(meta.len() > 0, "{p} is empty");
    }
    std::fs::remove_dir_all(&dir).ok();

    // Every artifact parses strictly.
    let rows: Vec<()> = json::parse_jsonl(&run.metrics_jsonl, |_| Ok(()))
        .collect::<Result<_, _>>()
        .expect("metrics JSONL parses");
    assert_eq!(rows.len(), run.metrics_jsonl.lines().count());
    json::parse(&run.perfetto_json).expect("perfetto trace parses");
    let m = json::parse_object(&manifest).expect("manifest parses");
    assert_eq!(m.u64("seed"), Ok(GOLDEN_SEED));
}

#[test]
fn manifest_escapes_env_override_keys_and_values() {
    let mut run = observe("incast", Scale::Quick, GOLDEN_SEED).unwrap();
    run.env_overrides = vec![
        ("ROCC_\"ODD\\".to_string(), "two\nlines\t\u{1}".to_string()),
        ("ROCC_SCHEDULER".to_string(), "wheel".to_string()),
    ];
    let manifest = run.manifest_json();
    let m = json::parse_object(&manifest).expect("manifest with odd env overrides parses");
    let env = m.read("env_overrides", "object", json::Value::as_object).unwrap();
    assert_eq!(env.str("ROCC_\"ODD\\"), Ok("two\nlines\t\u{1}"));
    assert_eq!(env.str("ROCC_SCHEDULER"), Ok("wheel"));
}

#[test]
fn two_seeds_of_the_same_config_pass_the_fidelity_gate() {
    let a = incast(Scale::Quick, 7);
    let b = incast(Scale::Quick, 8);
    // Different seeds genuinely produce different runs...
    assert_ne!(
        digest(&a.metrics_jsonl),
        digest(&b.metrics_jsonl),
        "seeds 7 and 8 produced identical time series"
    );
    // ...but the same config shares one config hash,
    assert_eq!(a.config_debug, b.config_debug);
    // and their fidelity metrics agree within the gate's thresholds.
    let report = compare(
        &summarize_metrics(&a.metrics_jsonl).unwrap(),
        &summarize_metrics(&b.metrics_jsonl).unwrap(),
    );
    assert!(report.pass(), "fidelity gate failed:\n{}", report.render());
}

#[test]
fn observed_runs_are_reproducible() {
    let a = incast(Scale::Quick, GOLDEN_SEED);
    let b = incast(Scale::Quick, GOLDEN_SEED);
    assert_eq!(digest(&a.metrics_jsonl), digest(&b.metrics_jsonl));
    assert_eq!(digest(&a.perfetto_json), digest(&b.perfetto_json));
    // The golden document is a pure function of the run.
    let g = golden_json(&a);
    assert_eq!(g, golden_json(&b));
    assert!(g.contains("\"schema\":\"rocc-observatory-golden/v1\""));
    assert!(g.contains("\"metrics_digest\""));
}
