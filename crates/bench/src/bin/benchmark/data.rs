//! Generated inputs: planted-compatibility graphs and their seed files.

use fg_core::prelude::*;
use fg_core::SummaryCache;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// Size and compatibility structure of a generated graph.
pub struct GraphShape {
    pub nodes: usize,
    pub degree: f64,
    pub classes: usize,
    pub h_skew: f64,
    /// Share of nodes whose label is observed.
    pub seed_fraction: f64,
}

/// A generated graph with observed seed labels, on disk and in memory.
pub struct Planted {
    pub nodes: usize,
    pub classes: usize,
    pub seed_fraction: f64,
    pub edges: PathBuf,
    pub labels: PathBuf,
    pub graph: Graph,
    pub seeds: SeedLabels,
    pub truth: Labeling,
}

impl Planted {
    /// Generate the graph from `graph_seed` and sample its seeds from
    /// `label_seed`, writing both files into `dir` under `name`.
    ///
    /// Workloads pass a fixed `graph_seed`: on the paper's power-law degrees,
    /// LinBP's power iteration for the spectral radius takes from 86 to 167
    /// SpMVs depending on the random hubs, so graphs drawn per run seed would
    /// move propagation cost by a quarter between seeds.
    pub fn generate(
        shape: &GraphShape,
        name: &str,
        graph_seed: u64,
        label_seed: u64,
        dir: &Path,
    ) -> Result<Planted, String> {
        let config =
            GeneratorConfig::balanced(shape.nodes, shape.degree, shape.classes, shape.h_skew)
                .map_err(|e| e.to_string())?;
        let synthetic =
            generate(&config, &mut StdRng::seed_from_u64(graph_seed)).map_err(|e| e.to_string())?;
        let seeds = synthetic
            .labeling
            .stratified_sample(shape.seed_fraction, &mut StdRng::seed_from_u64(label_seed));
        let edges = dir.join(format!("{name}_edges.tsv"));
        let labels = dir.join(format!("{name}_seeds.tsv"));
        fg_datasets::write_edge_list(&edges, &synthetic.graph).map_err(|e| e.to_string())?;
        let mut lines = String::new();
        for node in seeds.labeled_nodes() {
            let class = seeds.get(node).expect("labeled node");
            lines.push_str(&format!("{node}\t{class}\n"));
        }
        std::fs::write(&labels, lines).map_err(|e| e.to_string())?;
        Ok(Planted {
            nodes: shape.nodes,
            classes: shape.classes,
            seed_fraction: shape.seed_fraction,
            edges,
            labels,
            graph: synthetic.graph,
            seeds,
            truth: synthetic.labeling,
        })
    }

    /// A serial `Pipeline` run (DCEr + LinBP) on the in-memory inputs.
    pub fn pipeline(&self, seeds: &SeedLabels) -> Result<PipelineReport, String> {
        Pipeline::on(&self.graph)
            .seeds(seeds)
            .estimator(DceWithRestarts::default())
            .propagator(LinBp::default())
            .run()
            .map_err(|e| e.to_string())
    }

    /// `panel_accuracy` on this graph at its seed fraction.
    pub fn panel_accuracy(
        &self,
        estimator: &dyn CompatibilityEstimator,
        draws: u64,
    ) -> Result<f64, String> {
        panel_accuracy(
            &self.graph,
            &self.truth,
            self.seed_fraction,
            estimator,
            draws,
        )
    }
}

/// Stream of the accuracy panel's seed samples and graphs.
pub const PANEL_STREAM: u64 = 0xACC;

/// Mean macro accuracy on unlabeled nodes of `estimator` + LinBP over `draws`
/// seed samples of `truth` at `fraction`.
///
/// The samples are fixed, not drawn from the run seed. A run's accuracy then
/// reads the same on every seed and every rerun, so any change in it is a
/// change in the program's answers. DCEr lands in a wrong minimum on some
/// samples (on the low-rank blobs, about one in seven, costing 0.28); a
/// panel mean of many samples keeps one such flip small. The samples share one
/// summary cache, so a low-rank factor is computed once per graph.
pub fn panel_accuracy(
    graph: &Graph,
    truth: &Labeling,
    fraction: f64,
    estimator: &dyn CompatibilityEstimator,
    draws: u64,
) -> Result<f64, String> {
    let cache = SummaryCache::shared();
    let mut total = 0.0;
    for draw in 0..draws {
        let mut rng = StdRng::seed_from_u64(crate::stream_seed(PANEL_STREAM, draw));
        let seeds = truth.stratified_sample(fraction, &mut rng);
        let ctx = EstimationContext::with_cache(graph, &seeds, Arc::clone(&cache));
        let h = estimator
            .estimate_with_context(&ctx)
            .map_err(|e| e.to_string())?;
        let outcome = LinBp::default()
            .propagate(graph, &seeds, &h)
            .map_err(|e| e.to_string())?;
        total += outcome.accuracy(truth, &seeds);
    }
    Ok(total / draws as f64)
}
