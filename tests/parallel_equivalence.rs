//! Exhaustive serial-vs-parallel equality: every propagation backend on several
//! seeded sweep graphs at 1, 2, and 4 threads must produce **bit-identical** belief
//! matrices (`assert_eq!` on the raw `f64` data, no tolerance). The parallel layer
//! assigns each worker a disjoint row range of the output, so no floating-point
//! accumulation is ever reordered — any mismatch here is a real bug in the
//! partitioning or stitching, never rounding noise.

use fg_core::prelude::*;
use fg_propagation::{PropagatorOptions, PROPAGATORS};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// The seeded graph family the sweeps run on (`GeneratorConfig::balanced`, varying
/// size / degree / classes / skew / seed).
fn sweep_graphs() -> Vec<fg_graph::SyntheticGraph> {
    [
        (400usize, 10.0f64, 3usize, 3.0f64, 1u64),
        (300, 8.0, 3, 3.0, 3),
        (250, 6.0, 2, 8.0, 5),
    ]
    .iter()
    .map(|&(n, d, k, h, seed)| {
        let cfg = GeneratorConfig::balanced(n, d, k, h).unwrap();
        let mut rng = StdRng::seed_from_u64(seed);
        generate(&cfg, &mut rng).unwrap()
    })
    .collect()
}

#[test]
fn all_backends_are_bit_identical_at_1_2_and_4_threads() {
    for (gi, syn) in sweep_graphs().iter().enumerate() {
        let mut rng = StdRng::seed_from_u64(17 + gi as u64);
        let seeds = syn.labeling.stratified_sample(0.1, &mut rng);
        let h = syn.planted_h.as_dense();
        for backend in PROPAGATORS.build_all(&PropagatorOptions::default()) {
            let name = backend.name();
            let serial = backend.propagate(&syn.graph, &seeds, h).unwrap();
            for workers in [1usize, 2, 4] {
                let threaded = backend
                    .with_threads(Threads::Fixed(workers))
                    .propagate(&syn.graph, &seeds, h)
                    .unwrap();
                assert_eq!(
                    serial.beliefs.data(),
                    threaded.beliefs.data(),
                    "graph {gi}, backend {name}, {workers} threads"
                );
                assert_eq!(
                    serial.predictions, threaded.predictions,
                    "graph {gi}, backend {name}, {workers} threads"
                );
                assert_eq!(
                    serial.iterations, threaded.iterations,
                    "graph {gi}, backend {name}, {workers} threads"
                );
                assert_eq!(serial.converged, threaded.converged);
            }
        }
    }
}

#[test]
fn pipeline_threads_policy_is_bit_identical_end_to_end() {
    let syn = &sweep_graphs()[0];
    let mut rng = StdRng::seed_from_u64(41);
    let seeds = syn.labeling.stratified_sample(0.05, &mut rng);
    let serial = Pipeline::on(&syn.graph)
        .seeds(&seeds)
        .estimator(DceWithRestarts::default())
        .run()
        .unwrap();
    for workers in [2usize, 4] {
        let threaded = Pipeline::on(&syn.graph)
            .seeds(&seeds)
            .estimator(DceWithRestarts::default())
            .threads(Threads::Fixed(workers))
            .run()
            .unwrap();
        assert_eq!(
            serial.outcome.beliefs.data(),
            threaded.outcome.beliefs.data(),
            "{workers} threads"
        );
        assert_eq!(serial.estimated_h.data(), threaded.estimated_h.data());
    }
}

#[test]
fn auto_threads_matches_serial_too() {
    let syn = &sweep_graphs()[1];
    let mut rng = StdRng::seed_from_u64(43);
    let seeds = syn.labeling.stratified_sample(0.1, &mut rng);
    let h = syn.planted_h.as_dense();
    for backend in PROPAGATORS.build_all(&PropagatorOptions::default()) {
        let serial = backend.propagate(&syn.graph, &seeds, h).unwrap();
        let auto = backend
            .with_threads(Threads::Auto)
            .propagate(&syn.graph, &seeds, h)
            .unwrap();
        assert_eq!(
            serial.beliefs.data(),
            auto.beliefs.data(),
            "{}",
            backend.name()
        );
    }
}
