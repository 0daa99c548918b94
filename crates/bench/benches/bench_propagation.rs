//! Bench: label-propagation backends (LinBP, loopy BP, harmonic functions, random
//! walks) on the same generated graph, all driven through the `Propagator` trait —
//! the denominator of the paper's "estimation is cheaper than propagation" claim.
//!
//! LinBP is additionally measured through a direct (statically dispatched) call, so
//! the overhead of the trait's dynamic dispatch stays visible in the perf trajectory
//! (it should be noise: one virtual call per propagation run).

use fg_bench::run_bench;
use fg_core::prelude::*;
use fg_propagation::{BpConfig, PropagatorOptions, PROPAGATORS};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn setup() -> (Graph, SeedLabels, fg_sparse::DenseMatrix) {
    let cfg = GeneratorConfig::balanced(5_000, 15.0, 3, 8.0).expect("valid config");
    let mut rng = StdRng::seed_from_u64(3);
    let syn = generate(&cfg, &mut rng).expect("generation");
    let seeds = syn.labeling.stratified_sample(0.01, &mut rng);
    let h = syn.planted_h.as_dense().clone();
    (syn.graph, seeds, h)
}

fn main() {
    let (graph, seeds, h) = setup();
    println!(
        "== propagation (n = {}, m = {}, 10 iterations) ==",
        graph.num_nodes(),
        graph.num_edges()
    );

    // All four backends through the trait, built via the by-name registry exactly as
    // the CLI and the sweeps build them.
    let opts = PropagatorOptions {
        max_iterations: Some(10),
        tolerance: Some(0.0),
        ..PropagatorOptions::default()
    };
    for name in PROPAGATORS.names() {
        let backend = PROPAGATORS.build(name, &opts).expect("registered backend");
        let label = format!("{}_10_iterations_dyn", backend.name());
        run_bench(&label, || {
            backend.propagate(&graph, &seeds, &h).expect("propagation")
        });
    }

    // Static-dispatch baselines for the two compatibility-aware backends, to expose
    // any overhead the `dyn Propagator` indirection adds.
    let lin_cfg = LinBpConfig {
        max_iterations: 10,
        tolerance: Some(0.0),
        ..LinBpConfig::default()
    };
    run_bench("LinBP_10_iterations_direct", || {
        propagate(&graph, &seeds, &h, &lin_cfg).expect("LinBP")
    });
    let bp_cfg = BpConfig {
        max_iterations: 10,
        tolerance: 0.0,
        ..BpConfig::default()
    };
    run_bench("LoopyBP_10_iterations_direct", || {
        fg_propagation::propagate_bp(&graph, &seeds, &h, &bp_cfg).expect("BP")
    });
}
