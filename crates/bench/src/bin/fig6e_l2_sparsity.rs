//! Fig. 6e: L2 distance of the MCE / DCE / DCEr estimates from the gold standard as the
//! label fraction shrinks (n = 10k, d = 25, h = 8).
//!
//! The paper's message: all three coincide when labels are plentiful; as `f` drops MCE
//! degrades first, single-start DCE gets trapped in local optima, and DCEr stays close
//! to the gold standard the longest.

use fg_bench::{accuracy_vs_sparsity, outcomes_to_table, scaled_n, EstimatorKind};
use fg_core::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    let n = scaled_n(10_000);
    let config = GeneratorConfig::balanced(n, 25.0, 3, 8.0).expect("valid config");
    let mut rng = StdRng::seed_from_u64(31);
    let syn = generate(&config, &mut rng).expect("generation succeeds");
    println!(
        "fig6e: L2 error vs label sparsity (n = {}, d = 25, h = 8)",
        syn.graph.num_nodes()
    );

    let fractions = [0.001, 0.003, 0.01, 0.03, 0.1, 0.3, 1.0];
    let kinds = [EstimatorKind::Mce, EstimatorKind::Dce, EstimatorKind::Dcer];
    let outcomes = accuracy_vs_sparsity(&syn.graph, &syn.labeling, &fractions, &kinds, 3, 13)
        .expect("sweep succeeds");
    let table = outcomes_to_table("fig6e_l2_sparsity", &outcomes, &kinds, |o| o.l2_error);
    table.print_and_save();
    println!("\nExpected shape (paper Fig. 6e): L2(MCE) >= L2(DCE) >= L2(DCEr) once f");
    println!("drops below a few percent; all three converge for f close to 1.");
}
