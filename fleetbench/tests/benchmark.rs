//! The benchmark's own checks, on tiny workload sizes.

use std::time::Duration;

use fleetbench::energy::{pj_per_delivered_bit, role_energy_pj};
use fleetbench::replay::{parse, replay, Reference};
use fleetbench::run::{run, Outcome};
use fleetbench::workloads::{sensor_prefix, WorkloadKind};
use mbus_core::{
    fleet_digest, Address, BusConfig, EngineKind, Fleet, FleetNodeId, FleetSchedule, FleetWorkload,
    FuId, Message, ShortPrefix,
};
use mbus_power::mbus_model::{message_energy, Calibration};

fn tiny(kind: WorkloadKind, seed: u64) -> String {
    kind.generate(kind.tiny_size(), seed)
}

#[test]
fn generators_are_deterministic_per_seed() {
    for kind in WorkloadKind::ALL {
        assert_eq!(tiny(kind, 7), tiny(kind, 7), "{}", kind.name());
        assert_ne!(tiny(kind, 7), tiny(kind, 8), "{}", kind.name());
    }
}

#[test]
fn generated_traces_round_trip_to_the_same_digest() {
    for kind in WorkloadKind::ALL {
        let built = kind.build(kind.tiny_size(), 3);
        let direct = fleet_digest(
            &built
                .run_scheduled_on(kind.engine(), FleetSchedule::Batched)
                .signature(),
        );
        let text = tiny(kind, 3);
        let parsed = parse(&text).expect("generated trace parses");
        assert_eq!(parsed.engine(), kind.engine());
        assert_eq!(parsed.shards(), 2);
        assert_eq!(Reference::compute(&text).unwrap().digest, direct);
        assert_eq!(replay(&text).unwrap().digest, direct, "{}", kind.name());
    }
}

#[test]
fn sensor_prefix_matches_the_fleet() {
    let fleet = WorkloadKind::DutyClosed
        .build(WorkloadKind::DutyClosed.tiny_size(), 1)
        .instantiate(EngineKind::Analytic);
    for c in 0..fleet.cluster_count() {
        let id = FleetNodeId::new(c, 1);
        assert_eq!(fleet.spec(id).full_prefix(), sensor_prefix(c, 1));
    }
}

fn run_tiny(kind: WorkloadKind, traced: bool) -> Outcome {
    run(&tiny(kind, 5), Duration::ZERO, traced).expect("reference run")
}

#[test]
fn tiny_runs_of_every_workload_have_no_errors() {
    for kind in WorkloadKind::ALL {
        for traced in [false, true] {
            let outcome = run_tiny(kind, traced);
            assert!(outcome.attempted >= 1);
            assert_eq!(outcome.error_rate(), 0.0, "{} traced={traced}", kind.name());
        }
    }
}

#[test]
fn traced_spans_nest_under_their_operation() {
    let outcome = run_tiny(WorkloadKind::DutyClosed, true);
    let spans = outcome.spans.expect("traced runs keep spans");
    let self_ns = spans.self_ns();
    for s in spans.spans() {
        assert!(s.start_ns <= s.end_ns, "{s:?}");
        if let Some(p) = s.parent {
            let parent = &spans.spans()[p as usize];
            assert!(p < s.id && parent.op == s.op, "{s:?}");
            assert!(parent.start_ns <= s.start_ns && s.end_ns <= parent.end_ns);
        }
    }
    let root = spans.spans().iter().find(|s| s.name == "replay").unwrap();
    assert!(self_ns[root.id as usize] < root.end_ns - root.start_ns);
}

/// The `"name"` values of one section of `BENCHMARK.json`.
fn declared_names(section: &str) -> Vec<String> {
    section
        .split("\"name\":")
        .skip(1)
        .map(|rest| rest.split('"').nth(1).unwrap_or_default().to_string())
        .collect()
}

#[test]
fn emitted_metrics_are_declared_in_benchmark_json() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let json = std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark");
    let e2e_at = json.find("\"end_to_end\"").expect("end_to_end section");
    let layer_at = json.find("\"per_layer\"").expect("per_layer section");
    assert!(e2e_at < layer_at);
    let e2e = declared_names(&json[e2e_at..layer_at]);
    let layers = declared_names(&json[layer_at..]);
    let valid = |n: &str| {
        !n.is_empty()
            && n.chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
    };
    for (traced, declared) in [(false, &e2e), (true, &layers)] {
        let outcome = run_tiny(WorkloadKind::StormOpen, traced);
        let emitted: Vec<&str> = outcome.metrics.iter().map(|m| m.name).collect();
        assert!(emitted.iter().all(|n| valid(n)), "{emitted:?}");
        assert_eq!(&emitted, declared, "traced={traced}");
        let json = outcome.to_json();
        for name in &emitted {
            assert!(
                json.contains(&format!("\"{name}\": {{\"value\": ")),
                "{name}"
            );
        }
    }
}

#[test]
fn role_energy_matches_the_section_6_3_1_message() {
    // §6.3.1: an 8-byte message on the 3-chip stack costs ≈5.6 nJ.
    let mut fleet = Fleet::new(EngineKind::Analytic, BusConfig::default());
    let c = fleet.add_cluster();
    let src = fleet.add_sensor(c, false);
    fleet.add_sensor(c, false);
    let msg = Message::new(
        Address::short(ShortPrefix::new(0x3).unwrap(), FuId::ZERO),
        vec![0x5A; 8],
    );
    fleet.queue(src, msg.clone()).unwrap();
    fleet.run_until_quiescent();
    let expected = message_energy(&msg, 3, Calibration::Measured).as_pj();
    let modelled = role_energy_pj(&[fleet.stats(c)]);
    assert!(
        (modelled - expected).abs() < 1e-9 * expected,
        "{modelled} vs {expected}"
    );
    assert!((modelled / 1000.0 - 5.62).abs() < 0.03, "{modelled} pJ");
}

#[test]
fn storm_energy_per_bit_is_engine_independent() {
    let w: FleetWorkload = WorkloadKind::StormOpen.build(WorkloadKind::StormOpen.tiny_size(), 9);
    let analytic = pj_per_delivered_bit(&w.run_on(EngineKind::Analytic));
    let wire = pj_per_delivered_bit(&w.run_on(EngineKind::Wire));
    assert!(analytic > 0.0);
    assert_eq!(analytic.to_bits(), wire.to_bits(), "{analytic} vs {wire}");
}
