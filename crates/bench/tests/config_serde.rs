//! Experiment configurations are serde round-trippable (C-SERDE): runs can
//! be described, archived and replayed as JSON.

use ev_core::TimeDelta;
use ev_edge::dsfa::{CMode, DsfaConfig};
use ev_edge::e2sf::{E2sfConfig, FrameRepresentation};
use ev_edge::nmp::evolution::NmpConfig;
use ev_edge::pipeline::PipelineVariant;

fn round_trip<T>(value: &T) -> T
where
    T: serde::Serialize + serde::de::DeserializeOwned,
{
    let json = serde_json::to_string_pretty(value).expect("serializes");
    serde_json::from_str(&json).expect("deserializes")
}

#[test]
fn dsfa_config_round_trips() {
    let config = DsfaConfig {
        ebuf_size: 12,
        mb_size: 3,
        mt_th: TimeDelta::from_millis(7),
        md_th: 0.35,
        cmode: CMode::CAverage,
    };
    assert_eq!(round_trip(&config), config);
}

#[test]
fn e2sf_config_round_trips() {
    let config = E2sfConfig::new(16).with_representation(FrameRepresentation::CountsAndTimestamps);
    assert_eq!(round_trip(&config), config);
}

#[test]
fn nmp_config_round_trips() {
    let config = NmpConfig {
        population: 48,
        generations: 77,
        mutation_layers: 3,
        elite_fraction: 0.33,
        seed: 1234,
        fp_only: true,
        seed_baselines: false,
        workers: 4,
    };
    assert_eq!(round_trip(&config), config);
}

#[test]
fn pipeline_variant_round_trips() {
    for variant in [
        PipelineVariant::DenseAllGpu,
        PipelineVariant::E2sf,
        PipelineVariant::E2sfDsfa,
        PipelineVariant::E2sfDsfaNmp,
    ] {
        assert_eq!(round_trip(&variant), variant);
    }
}

#[test]
fn event_types_round_trip() {
    use ev_core::event::{Event, Polarity, SensorGeometry};
    use ev_core::Timestamp;
    let ev = Event::new(12, 34, Timestamp::from_micros(5678), Polarity::Off);
    assert_eq!(round_trip(&ev), ev);
    let g = SensorGeometry::DAVIS346;
    assert_eq!(round_trip(&g), g);
}

#[test]
fn zoo_config_round_trips() {
    use ev_nn::zoo::{NetworkId, ZooConfig};
    let cfg = ZooConfig::mvsec();
    assert_eq!(round_trip(&cfg), cfg);
    assert_eq!(round_trip(&NetworkId::Halsie), NetworkId::Halsie);
}

#[test]
fn sweep_spec_round_trips() {
    use ev_edge::nmp::sweep::{PlatformPreset, SearchAlgorithm, SweepSpec, TaskMix, ZooPreset};
    use ev_nn::zoo::NetworkId;
    let spec = SweepSpec {
        base_seed: 0xABCD_EF01_2345,
        populations: vec![8, 16, 32],
        generations: vec![5, 20],
        mutation_layers: vec![1, 3],
        elite_fractions: vec![0.125, 0.5],
        queue_capacities: vec![1, 2, 8],
        platforms: vec![PlatformPreset::OrinLike, PlatformPreset::NanoLike],
        task_mixes: vec![
            TaskMix::AllAnn,
            TaskMix::Custom {
                networks: vec![NetworkId::Dotie, NetworkId::Halsie],
                delta_scale: 0.75,
            },
        ],
        algorithms: vec![SearchAlgorithm::Evolutionary, SearchAlgorithm::Random],
        zoo: ZooPreset::Small,
        runtime_window_ms: 17,
        keep_history: true,
    };
    assert_eq!(round_trip(&spec), spec);
}

// The two derive shapes added for `SweepSpec`: struct-variant enums
// (externally tagged) and multi-field tuple structs (arrays).
#[test]
fn struct_variant_enums_round_trip_and_tag_externally() {
    use ev_edge::nmp::sweep::TaskMix;
    use ev_nn::zoo::NetworkId;
    let unit = TaskMix::MixedSnnAnn;
    assert_eq!(round_trip(&unit), unit);
    assert_eq!(
        serde_json::to_string(&unit).unwrap(),
        "\"MixedSnnAnn\"",
        "unit variants stay bare strings"
    );
    let custom = TaskMix::Custom {
        networks: vec![NetworkId::EvFlowNet],
        delta_scale: 2.5,
    };
    assert_eq!(round_trip(&custom), custom);
    let json = serde_json::to_string(&custom).unwrap();
    assert_eq!(
        json, "{\"Custom\":{\"networks\":[\"EvFlowNet\"],\"delta_scale\":2.5}}",
        "struct variants are single-key objects"
    );
    // Unknown variants and malformed bodies are rejected, not defaulted.
    assert!(serde_json::from_str::<TaskMix>("\"NoSuchMix\"").is_err());
    assert!(serde_json::from_str::<TaskMix>("{\"Custom\":{}}").is_err());
}

#[test]
fn multi_field_tuple_structs_round_trip_as_arrays() {
    use ev_edge::nmp::sweep::CellCoords;
    let coords = CellCoords(1, 2, 3, 4, 5, 6, 7, 8);
    assert_eq!(round_trip(&coords), coords);
    assert_eq!(serde_json::to_string(&coords).unwrap(), "[1,2,3,4,5,6,7,8]");
    // Arity is enforced on the way back in.
    assert!(serde_json::from_str::<CellCoords>("[1,2,3]").is_err());
}

// The derive shape added for the conformance spec schema: tuple enum
// variants. Newtype (arity-1) variants collapse to `{"Variant": value}`;
// wider variants become `{"Variant": [values]}`.
#[test]
fn tuple_enum_variants_round_trip() {
    use ev_bench::conformance::Assertion;
    let newtype = Assertion::StdoutContains("Figure 8".to_string());
    assert_eq!(round_trip(&newtype), newtype);
    assert_eq!(
        serde_json::to_string(&newtype).unwrap(),
        "{\"StdoutContains\":\"Figure 8\"}",
        "newtype tuple variants collapse the one-element array"
    );
    let pair = Assertion::FieldBits("$.rows[0].mean_fill_pct".to_string(), 0.1 + 0.2);
    assert_eq!(round_trip(&pair), pair);
    assert_eq!(
        serde_json::to_string(&pair).unwrap(),
        "{\"FieldBits\":[\"$.rows[0].mean_fill_pct\",0.30000000000000004]}",
        "multi-field tuple variants serialize their fields as an array"
    );
    // The f64 payload survives with its exact bit pattern.
    let Assertion::FieldBits(_, back) = round_trip(&pair) else {
        panic!("variant changed across round trip");
    };
    assert_eq!(back.to_bits(), (0.1_f64 + 0.2).to_bits());
    // Arity and variant names are enforced on the way back in.
    assert!(serde_json::from_str::<Assertion>("{\"FieldBits\":[\"$.x\"]}").is_err());
    assert!(serde_json::from_str::<Assertion>("{\"FieldBits\":[\"$.x\",1.0,2.0]}").is_err());
    assert!(serde_json::from_str::<Assertion>("{\"NoSuchAssertion\":\"x\"}").is_err());
}

#[test]
fn sweep_report_round_trips() {
    use ev_edge::nmp::sweep::{
        run_sweep, SearchAlgorithm, SweepReport, SweepSpec, TaskMix, ZooPreset,
    };
    let spec = SweepSpec {
        populations: vec![3],
        generations: vec![2],
        task_mixes: vec![TaskMix::AllSnn],
        algorithms: vec![SearchAlgorithm::Evolutionary, SearchAlgorithm::Random],
        zoo: ZooPreset::Small,
        runtime_window_ms: 5,
        ..SweepSpec::default()
    };
    let report = run_sweep(&spec, 0).expect("sweep runs");
    let back: SweepReport = round_trip(&report);
    assert_eq!(back, report);
}
