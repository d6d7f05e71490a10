//! Writer/reader round trips for the campaign result codecs: whatever
//! `to_json` writes, the strict `from_json` reads back exactly — `u64`
//! counters up to `u64::MAX` and `f64` values at every magnitude.

use proptest::prelude::*;
use rocc_experiments::fct::RunOutput;
use rocc_experiments::observatory::SweepCellSummary;

/// A finite `f64` spread over many magnitudes (so both plain and
/// exponent `{:?}` renderings occur), with either sign.
fn spread(mantissa: f64, exp: i32) -> f64 {
    mantissa * 10f64.powi(exp)
}

fn hex16(x: u64) -> String {
    format!("{x:016x}")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn run_output_round_trips(
        fcts in proptest::collection::vec((0u64..=u64::MAX, (0.0f64..10.0, -12i32..4)), 0..6),
        counters in (0u64..=u64::MAX, 0u64..=u64::MAX, 0u64..=u64::MAX),
        qs in ((-1.0f64..1.0, -3i32..12), (0.0f64..1.0, -3i32..12), (0.0f64..1.0, -300i32..300)),
        more in (0u64..=u64::MAX, 0u64..=u64::MAX, 0u64..=u64::MAX),
        flags in (0usize..=usize::MAX, 0u8..2),
    ) {
        let out = RunOutput {
            fcts: fcts.into_iter().map(|(size, (m, e))| (size, spread(m, e))).collect(),
            pfc_core: counters.0,
            pfc_ingress: counters.1,
            pfc_egress: counters.2,
            q_core: spread((qs.0).0, (qs.0).1),
            q_ingress: spread((qs.1).0, (qs.1).1),
            q_egress: spread((qs.2).0, (qs.2).1),
            retx_bytes: more.0,
            tx_data_bytes: more.1,
            drops: more.2,
            offered_flows: flags.0,
            all_completed: flags.1 == 1,
        };
        let json = out.to_json();
        let back = RunOutput::from_json(&json).unwrap_or_else(|e| panic!("{e}: {json}"));
        prop_assert_eq!(&back, &out);
        prop_assert_eq!(back.to_json(), json);
    }

    #[test]
    fn sweep_cell_summary_round_trips(
        ids in (0u64..=u64::MAX, 0u64..=u64::MAX, 0u64..=u64::MAX),
        digests in (0u64..=u64::MAX, 0u64..=u64::MAX),
    ) {
        let c = SweepCellSummary {
            seed: ids.0,
            flows: ids.1,
            completed: ids.2,
            metrics_digest: hex16(digests.0),
            config_hash: hex16(digests.1),
        };
        let json = c.to_json();
        prop_assert_eq!(SweepCellSummary::from_json(&json), Ok(c));
        // Any strict prefix is torn and rejected.
        let cut = (digests.0 % json.len() as u64) as usize;
        prop_assert!(SweepCellSummary::from_json(&json[..cut]).is_err());
    }
}

#[test]
fn empty_run_output_round_trips() {
    let out = RunOutput {
        fcts: Vec::new(),
        pfc_core: 0,
        pfc_ingress: 0,
        pfc_egress: 0,
        q_core: 0.0,
        q_ingress: -0.0,
        q_egress: 1e-300,
        retx_bytes: 0,
        tx_data_bytes: 0,
        drops: 0,
        offered_flows: 0,
        all_completed: false,
    };
    let json = out.to_json();
    assert!(json.starts_with("{\"fcts\":[],"), "{json}");
    assert_eq!(RunOutput::from_json(&json).unwrap(), out);
}
