//! Fig. 14: L2 distance between the estimated compatibility matrices and the measured
//! gold standard on the 8 real-world dataset substitutes, as a function of the label
//! fraction.

use fg_bench::{accuracy_vs_sparsity, outcomes_to_table, EstimatorKind};
use fg_datasets::{synthesize, DatasetId};

fn main() {
    println!("fig14: L2 distance from the gold standard on the dataset substitutes");
    let kinds = [
        EstimatorKind::Lce,
        EstimatorKind::Mce,
        EstimatorKind::Dce,
        EstimatorKind::Dcer,
    ];
    let fractions = [0.001, 0.01, 0.1, 0.5];
    for id in DatasetId::all() {
        let scale = match id {
            DatasetId::Cora | DatasetId::Citeseer => 1.0,
            DatasetId::PokecGender | DatasetId::Flickr => 0.002,
            _ => 0.05,
        };
        let instance = synthesize(id, scale, 51).expect("synthesis");
        println!(
            "\n### {} (substitute: n = {}, m = {})",
            id.name(),
            instance.graph.num_nodes(),
            instance.graph.num_edges()
        );
        let outcomes = accuracy_vs_sparsity(
            &instance.graph,
            &instance.labeling,
            &fractions,
            &kinds,
            2,
            37,
        )
        .expect("sweep succeeds");
        let table = outcomes_to_table(
            &format!("fig14_l2_{}", id.name().to_lowercase().replace('-', "_")),
            &outcomes,
            &kinds,
            |o| o.l2_error,
        );
        table.print_and_save();
    }
    println!("\nExpected shape (paper Fig. 14): DCEr gives the smallest (or near-smallest)");
    println!("L2 distance at sparse labelings on nearly every dataset; MCE and LCE need");
    println!("much denser labels to close the gap.");
}
