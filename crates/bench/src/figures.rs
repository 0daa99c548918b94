//! The paper's evaluation as one table: one [`Row`] per figure panel, with the
//! run that builds the panel's tables and the bounds its claim sets on them.
//!
//! There is one scale, the size at which each claim is meant to hold, and every
//! accuracy or L2 number is an exact function of the row's seeds. A timing
//! claim is checked only as a ratio whose threshold is at most a third of the
//! margin measured on a 2-vCPU host; a claim about the *shape* of timing growth
//! ("linear in m") is printed [`UNCHECKED`] until work counts replace wall
//! clocks. Claims that fail at this scale are listed in [`DEVIATIONS`] with
//! their numbers; [`judge`] fails an unlisted failing claim, and a listed one
//! that holds, so the list cannot go stale.

use crate::harness::{time_it, ExperimentTable};
use crate::sweeps::{
    backend_table, construction_table, estimator, sparsity_table, Metric, STANDARD_SET,
};
use fg_core::prelude::*;
use fg_core::{explicit_adjacency_power, matrix_to_free, Result};
use fg_datasets::{synthesize, BlobConfig, DatasetId};
use fg_graph::SyntheticGraph;
use fg_propagation::{convergence_epsilon, PropagationResult};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::ops::Index;
use std::time::Instant;

/// One table row as a [`Measure`] reads it: its table's name, its first cell
/// as a number (`f`), and every cell by header (`line["DCEr"]`) or in order;
/// a missing or non-numeric cell reads NaN.
struct Line<'t> {
    table: &'t str,
    f: f64,
    values: Vec<f64>,
    headers: &'t [String],
}

impl Index<&str> for Line<'_> {
    type Output = f64;

    fn index(&self, header: &str) -> &f64 {
        let column = self.headers.iter().position(|h| h == header);
        column.map_or(&f64::NAN, |i| &self.values[i])
    }
}

/// A row's number for a claim, or `None` for a row the claim does not cover.
type Measure = fn(&Line) -> Option<f64>;

/// Whether a claim holds, and our numbers beside it.
type Finding = (bool, String);

/// One condition of a row's claim.
enum Bound {
    /// The largest measure over every table's covered rows is at most this.
    AtMost(f64, Measure),
    /// The smallest measure over every table's covered rows is at least this.
    AtLeast(f64, Measure),
    /// A predicate over the whole tables.
    Custom(fn(&[ExperimentTable]) -> Finding),
}

impl Bound {
    fn check(&self, tables: &[ExperimentTable]) -> Finding {
        let (limit, measure, largest) = match *self {
            Bound::AtMost(limit, measure) => (limit, measure, true),
            Bound::AtLeast(limit, measure) => (limit, measure, false),
            Bound::Custom(check) => return check(tables),
        };
        let (v, at) = extreme(tables, measure, largest);
        let (holds, sign) = if largest {
            (v <= limit, "≤")
        } else {
            (v >= limit, "≥")
        };
        (holds, format!("{v:.4} at {at} (bound {sign} {limit})"))
    }
}

/// One figure panel: its run and its claim.
pub struct Row {
    /// Row id, as `reproduce` takes it on the command line.
    pub id: &'static str,
    /// The claim, quoted from the panel's description.
    pub claim: &'static str,
    /// Build the panel's tables.
    pub run: fn() -> Result<Vec<ExperimentTable>>,
    /// The claim holds when every bound does.
    bounds: &'static [Bound],
}

/// The verdict on a row's claim, mildest first: `reproduce` exits non-zero
/// from [`Verdict::Fail`] on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Verdict {
    /// The claim holds and is not listed.
    Pass,
    /// The claim fails and is listed in [`DEVIATIONS`].
    Deviation,
    /// The claim fails and is not listed.
    Fail,
    /// The claim holds but is listed: the list is stale.
    Stale,
}

/// The extreme measure over every covered row of every table (the largest, or
/// with `largest` false the smallest), and where it is. NaN wins, and no
/// covered row reads NaN, so missing data fails any bound.
fn extreme(tables: &[ExperimentTable], measure: Measure, largest: bool) -> (f64, String) {
    let covered = tables.iter().flat_map(|t| {
        t.rows.iter().filter_map(move |row| {
            let values: Vec<f64> = row.iter().map(|c| c.parse().unwrap_or(f64::NAN)).collect();
            let (table, f, headers) = (t.name.as_str(), values[0], &t.headers);
            let v = measure(&Line {
                table,
                f,
                values,
                headers,
            })?;
            Some((v, format!("{} {} = {}", t.name, t.headers[0], row[0])))
        })
    });
    let sign = if largest { 1.0 } else { -1.0 };
    let worst = covered.reduce(|a, b| {
        if a.0.is_nan() || sign * a.0 >= sign * b.0 {
            a
        } else {
            b
        }
    });
    worst.unwrap_or((f64::NAN, "no row".into()))
}

/// Judge a row's tables against its bounds and the deviation list (`(row id,
/// measured numbers)` pairs): the verdict and our numbers.
pub fn judge(
    row: &Row,
    tables: &[ExperimentTable],
    deviations: &[(&str, &str)],
) -> (Verdict, String) {
    let findings: Vec<Finding> = row.bounds.iter().map(|b| b.check(tables)).collect();
    let holds = findings.iter().all(|(holds, _)| *holds);
    let listed = deviations.iter().any(|(id, _)| *id == row.id);
    let verdict = match (holds, listed) {
        (true, false) => Verdict::Pass,
        (false, true) => Verdict::Deviation,
        (false, false) => Verdict::Fail,
        (true, true) => Verdict::Stale,
    };
    let ours: Vec<String> = findings.into_iter().map(|(_, ours)| ours).collect();
    (verdict, ours.join("; "))
}

/// The report of one judged row: its verdict line, the claim and our numbers
/// unless it passed, and its [`UNCHECKED`] timing claims.
pub fn report(row: &Row, (verdict, ours): &(Verdict, String)) -> String {
    let mut out = format!("{:<13}{}\n", row.id, format!("{verdict:?}").to_uppercase());
    if *verdict != Verdict::Pass {
        out += &format!("  claim: {}\n  ours:  {ours}\n", row.claim);
    }
    for (_, claim) in UNCHECKED.iter().filter(|(id, _)| *id == row.id) {
        out += &format!("  UNCHECKED {claim} (timing; needs work counts, ROADMAP direction 2)\n");
    }
    out
}

/// "Tracks", "matches" or "competes with": within this much accuracy (the
/// ±0.01–0.03 of the Fig. 7 claim).
const TRACKS: f64 = 0.03;
/// "Well below", "far behind" or "much less accurate": at least this much lower.
const WELL_BELOW: f64 = 0.05;
/// A strict inequality between numbers printed to 4 decimals.
const STRICT: f64 = 0.0001;
/// Node count of the synthetic panels.
const N: usize = 10_000;
/// The λ grid of Fig. 6b–d.
const LAMBDAS: [f64; 7] = [0.1, 0.3, 1.0, 3.0, 10.0, 30.0, 100.0];

type Tables = Result<Vec<ExperimentTable>>;

/// A generated graph and the generator's RNG, for the seed draws that follow.
fn synthetic(config: GeneratorConfig, seed: u64) -> Result<(SyntheticGraph, StdRng)> {
    let mut rng = StdRng::seed_from_u64(seed);
    Ok((generate(&config, &mut rng)?, rng))
}

/// The substitute scale at which each dataset's claims are meant to hold
/// (Figs. 7, 8 and 14): the citation graphs whole, the two largest at 0.2%,
/// the rest at 5%.
fn dataset_scale(id: DatasetId) -> f64 {
    match id {
        DatasetId::Cora | DatasetId::Citeseer => 1.0,
        DatasetId::PokecGender | DatasetId::Flickr => 0.002,
        _ => 0.05,
    }
}

/// One sparsity table per dataset (`{prefix}_{dataset}`) over the fractions
/// 0.001–0.5, two draws each (seeded `sweep_seed`); each substitute is
/// synthesized from `seed` at `scale(id)`.
fn dataset_sweeps(
    prefix: &str,
    ids: &[DatasetId],
    scale: impl Fn(DatasetId) -> f64,
    seed: u64,
    columns: &[&str],
    sweep_seed: u64,
    metric: Metric,
) -> Tables {
    let fractions = [0.001, 0.01, 0.1, 0.5];
    let tables = ids.iter().map(|&id| {
        let (d, id_name) = (synthesize(id, scale(id), seed)?, id.name().to_lowercase());
        let name = format!("{prefix}_{}", id_name.replace('-', "_"));
        let (g, lab) = (&d.graph, &d.labeling);
        sparsity_table(&name, g, lab, &fractions, columns, 2, sweep_seed, metric)
    });
    tables.collect()
}

/// Seconds (3 decimals) of each step in turn on one seeded graph: a registry
/// estimator spec, or `"propagate"` for 10 LinBP iterations (no early stop)
/// with the estimate before it.
fn seconds(graph: &Graph, seeds: &SeedLabels, steps: &[&str]) -> Result<Vec<String>> {
    let ten_iterations = LinBpConfig {
        max_iterations: 10,
        tolerance: None,
        ..LinBpConfig::default()
    };
    let mut h = DenseMatrix::zeros(0, 0);
    let mut cells = Vec::new();
    for step in steps {
        let start = Instant::now();
        match *step {
            "propagate" => drop(propagate(graph, seeds, &h, &ten_iterations)?),
            spec => h = estimator(spec)?.estimate(graph, seeds)?,
        }
        cells.push(format!("{:.3}", start.elapsed().as_secs_f64()));
    }
    Ok(cells)
}

/// Mean L2 distance (4 decimals) from the gold standard, laid out as a grid
/// (Fig. 6a/6b): `spec(row, column)` names each cell's estimator, averaged
/// over three stratified draws at fraction `f` (draw `r` seeded `seed + r`).
/// Headers are the corner, then `{column_key}{column}_L2`.
fn l2_grid(
    name: &str,
    (corner, rows): (&str, &[String]),
    (column_key, columns): (&str, &[&str]),
    syn: &SyntheticGraph,
    (f, seed): (f64, u64),
    spec: impl Fn(&str, &str) -> String,
) -> Tables {
    let gold = measure_compatibilities(&syn.graph, &syn.labeling)?;
    let headers: Vec<String> = columns
        .iter()
        .map(|c| format!("{column_key}{c}_L2"))
        .collect();
    let mut table = ExperimentTable::new(name, &format!("{corner},{}", headers.join(",")));
    for row in rows {
        let mut cells = vec![row.clone()];
        for column in columns {
            let est = estimator(&spec(row, column))?;
            let mut total = 0.0;
            for rep in 0..3 {
                let mut rng = StdRng::seed_from_u64(seed + rep);
                let seeds = syn.labeling.stratified_sample(f, &mut rng);
                total += gold.frobenius_distance(&est.estimate(&syn.graph, &seeds)?)?;
            }
            cells.push(format!("{:.4}", total / 3.0));
        }
        table.push_row(cells);
    }
    Ok(vec![table])
}

/// The cells `[best λ, its L2, the L2 at λ = 10]` of DCEr (ℓmax = 5) over
/// [`LAMBDAS`] on one seed set (Fig. 6c/6d).
fn best_lambda(graph: &Graph, seeds: &SeedLabels, gold: &DenseMatrix) -> Result<[String; 3]> {
    let mut best = (f64::NAN, f64::INFINITY);
    let mut at_ten = f64::NAN;
    for lambda in LAMBDAS {
        let h = estimator(&format!("dcer(l=5,lambda={lambda})"))?.estimate(graph, seeds)?;
        let err = gold.frobenius_distance(&h)?;
        if err < best.1 {
            best = (lambda, err);
        }
        if lambda == 10.0 {
            at_ten = err;
        }
    }
    let (lambda, l2) = best;
    Ok([
        lambda.to_string(),
        format!("{l2:.4}"),
        format!("{at_ten:.4}"),
    ])
}

fn fig3a() -> Tables {
    let (syn, _) = synthetic(GeneratorConfig::balanced(N, 25.0, 3, 3.0)?, 42)?;
    let fractions = [0.0001, 0.0003, 0.001, 0.003, 0.01, 0.03, 0.1, 0.3, 1.0];
    let (g, lab, accuracy) = (&syn.graph, &syn.labeling, Metric::Accuracy);
    let t = sparsity_table(
        "fig3a_sparsity",
        g,
        lab,
        &fractions,
        &STANDARD_SET,
        3,
        7,
        accuracy,
    );
    Ok(vec![t?])
}

fn fig3b() -> Tables {
    let header = "n,m,MCE_s,LCE_s,DCE_s,DCEr_s,Propagation_s,Holdout_s";
    let mut table = ExperimentTable::new("fig3b_scalability", header);
    for n in [2_000, 10_000, 50_000, 200_000] {
        let (syn, mut rng) = synthetic(GeneratorConfig::balanced(n, 5.0, 3, 8.0)?, 3)?;
        let (g, seeds) = (&syn.graph, syn.labeling.stratified_sample(0.01, &mut rng));
        let mut row = vec![n.to_string(), g.num_edges().to_string()];
        row.extend(seconds(
            g,
            &seeds,
            &["mce", "lce", "dce", "dcer", "propagate"],
        )?);
        match n <= 10_000 {
            true => row.extend(seconds(g, &seeds, &["holdout"])?),
            false => row.push("-".into()),
        }
        table.push_row(row);
    }
    Ok(vec![table])
}

fn fig5a() -> Tables {
    let (syn, mut rng) = synthetic(GeneratorConfig::balanced_uniform(N, 20.0, 3, 3.0)?, 11)?;
    let seeds = syn.labeling.stratified_sample(0.1, &mut rng);
    let [nb, full] = [true, false].map(|non_backtracking| {
        let config = SummaryConfig {
            max_length: 5,
            non_backtracking,
            variant: NormalizationVariant::RowStochastic,
            ..SummaryConfig::default()
        };
        summarize(&syn.graph, &seeds, &config)
    });
    let (nb, full) = (nb?, full?);
    let header = "l,H^l[0][1],P_full[0][1],P_NB[0][1],L2(full),L2(NB)";
    let mut table = ExperimentTable::new("fig5a_consistency", header);
    for ell in 1..=5 {
        let h_pow = syn.planted_h.pow(ell);
        let [p_full, p_nb] = [&full, &nb].map(|s| s.statistic(ell).expect("summarized to 5"));
        table.push_row(vec![
            ell.to_string(),
            format!("{:.4}", h_pow.get(0, 1)),
            format!("{:.4}", p_full.get(0, 1)),
            format!("{:.4}", p_nb.get(0, 1)),
            format!("{:.4}", h_pow.frobenius_distance(p_full)?),
            format!("{:.4}", h_pow.frobenius_distance(p_nb)?),
        ]);
    }
    Ok(vec![table])
}

fn fig5b() -> Tables {
    let (syn, mut rng) = synthetic(GeneratorConfig::balanced(N, 20.0, 3, 3.0)?, 13)?;
    let seeds = syn.labeling.stratified_sample(0.1, &mut rng);
    let header = "l,explicit_W^l_s,explicit_nnz,factorized_P_NB_s,factorized_par4_s";
    let mut table = ExperimentTable::new("fig5b_factorized_time", header);
    let mut identity = ExperimentTable::new("fig5b_par4_identity", "l,differing_lengths");
    for ell in 1..=8 {
        // Explicit powers explode in density: W^3 already holds 60M entries.
        let (explicit_s, nnz) = match ell <= 3 {
            true => {
                let (power, t) = time_it(|| explicit_adjacency_power(&syn.graph, ell));
                (format!("{:.4}", t.as_secs_f64()), power?.nnz().to_string())
            }
            false => ("-".to_string(), "-".to_string()),
        };
        let config = SummaryConfig::with_max_length(ell);
        let (serial, serial_t) = time_it(|| summarize(&syn.graph, &seeds, &config));
        let four = Threads::Fixed(4);
        let (parallel, parallel_t) = time_it(|| summarize_with(&syn.graph, &seeds, &config, four));
        let (serial, parallel) = (serial?, parallel?);
        let differing = (1..=ell).filter(|&l| {
            let (a, b) = (serial.statistic(l), parallel.statistic(l));
            !matches!((a, b), (Some(a), Some(b)) if a.data() == b.data())
        });
        identity.push_row(vec![ell.to_string(), differing.count().to_string()]);
        let [serial_s, parallel_s] =
            [serial_t, parallel_t].map(|t| format!("{:.4}", t.as_secs_f64()));
        table.push_row(vec![ell.to_string(), explicit_s, nnz, serial_s, parallel_s]);
    }
    Ok(vec![table, identity])
}

fn fig6a() -> Tables {
    let (syn, _) = synthetic(GeneratorConfig::balanced(N, 25.0, 3, 8.0)?, 17)?;
    let lmaxes = ["1", "2", "3", "4", "5"].map(String::from);
    let spec = |l: &str, v: &str| format!("dcer(l={l},lambda=10,variant={v})");
    let variants = ("variant", &["1", "2", "3"][..]);
    l2_grid(
        "fig6a_variants",
        ("lmax", &lmaxes),
        variants,
        &syn,
        (0.05, 100),
        spec,
    )
}

fn fig6b() -> Tables {
    let (syn, _) = synthetic(GeneratorConfig::balanced(N, 25.0, 3, 8.0)?, 19)?;
    let lambdas = LAMBDAS.map(|l| l.to_string());
    let spec = |lambda: &str, l: &str| format!("dcer(l={l},lambda={lambda})");
    let lmaxes = ("lmax", &["1", "2", "3", "4", "5"][..]);
    l2_grid(
        "fig6b_lambda",
        ("lambda", &lambdas),
        lmaxes,
        &syn,
        (0.001, 500),
        spec,
    )
}

fn fig6c() -> Tables {
    let (syn, _) = synthetic(GeneratorConfig::balanced(N, 25.0, 3, 8.0)?, 23)?;
    let gold = measure_compatibilities(&syn.graph, &syn.labeling)?;
    let mut table = ExperimentTable::new(
        "fig6c_lambda_robust_f",
        "f,best_lambda,best_L2,L2_at_lambda10",
    );
    for (i, f) in [0.001, 0.003, 0.01, 0.03, 0.1, 0.3, 1.0]
        .into_iter()
        .enumerate()
    {
        let mut rng = StdRng::seed_from_u64(900 + i as u64);
        let seeds = syn.labeling.stratified_sample(f, &mut rng);
        let mut row = vec![f.to_string()];
        row.extend(best_lambda(&syn.graph, &seeds, &gold)?);
        table.push_row(row);
    }
    Ok(vec![table])
}

fn fig6d() -> Tables {
    let mut table = ExperimentTable::new(
        "fig6d_lambda_robust_d",
        "d,best_lambda,best_L2,L2_at_lambda10",
    );
    for (i, d) in [3.0, 5.0, 10.0, 30.0, 100.0].into_iter().enumerate() {
        let (syn, mut rng) = synthetic(GeneratorConfig::balanced(N, d, 3, 8.0)?, 29 + i as u64)?;
        let gold = measure_compatibilities(&syn.graph, &syn.labeling)?;
        let seeds = syn.labeling.stratified_sample(0.1, &mut rng);
        let mut row = vec![d.to_string()];
        row.extend(best_lambda(&syn.graph, &seeds, &gold)?);
        table.push_row(row);
    }
    Ok(vec![table])
}

fn fig6e() -> Tables {
    let (syn, _) = synthetic(GeneratorConfig::balanced(N, 25.0, 3, 8.0)?, 31)?;
    let fractions = [0.001, 0.003, 0.01, 0.03, 0.1, 0.3, 1.0];
    let (g, lab, columns) = (&syn.graph, &syn.labeling, ["MCE", "DCE", "DCEr"]);
    let t = sparsity_table(
        "fig6e_l2_sparsity",
        g,
        lab,
        &fractions,
        &columns,
        3,
        13,
        Metric::L2,
    );
    Ok(vec![t?])
}

fn fig6f() -> Tables {
    let (syn, mut rng) = synthetic(GeneratorConfig::balanced(N, 25.0, 3, 3.0)?, 37)?;
    let seeds = syn.labeling.stratified_sample(0.003, &mut rng);
    let gold = measure_compatibilities(&syn.graph, &syn.labeling)?;
    let mut table = ExperimentTable::new("fig6f_accuracy_time", "method,estimation_s,accuracy");
    let pipeline = || Pipeline::on(&syn.graph).seeds(&seeds);
    let gs = pipeline().compatibilities("GS", &gold).run()?;
    let gs_accuracy = format!("{:.3}", gs.accuracy(&syn.labeling, &seeds));
    table.push_row(vec!["GS".into(), "0.000".into(), gs_accuracy]);
    let holdouts = [1, 2, 4].map(|b| (format!("Holdout b={b}"), format!("holdout(b={b})")));
    let methods = ["MCE", "LCE", "DCE", "DCEr"].map(|m| (m.to_string(), m.to_string()));
    for (label, spec) in methods.into_iter().chain(holdouts) {
        let report = pipeline()
            .estimator(estimator(&spec)?)
            .estimator_label(&label)
            .run()?;
        table.push_row(vec![
            label,
            format!("{:.3}", report.estimation_time.as_secs_f64()),
            format!("{:.3}", report.accuracy(&syn.labeling, &seeds)),
        ]);
    }
    Ok(vec![table])
}

fn fig6g() -> Tables {
    let mut table = ExperimentTable::new("fig6g_classes", "k,GS,LCE,MCE,DCE,DCEr,Random");
    for k in 2..=8 {
        let (syn, _) = synthetic(GeneratorConfig::balanced(N, 25.0, k, 3.0)?, 41 + k as u64)?;
        let (g, lab) = (&syn.graph, &syn.labeling);
        let t = sparsity_table("", g, lab, &[0.01], &STANDARD_SET, 2, 17, Metric::Accuracy)?;
        let mut row = t.rows[0].clone();
        row[0] = k.to_string();
        row.push(format!("{:.3}", 1.0 / k as f64));
        table.push_row(row);
    }
    Ok(vec![table])
}

fn fig6h() -> Tables {
    let restarts = [1, 2, 3, 4, 5, 10];
    let header: Vec<String> = restarts.iter().map(|r| format!("r{r}_rel_acc")).collect();
    let mut table = ExperimentTable::new("fig6h_restarts", &format!("k,{}", header.join(",")));
    for k in 3..=7 {
        let (syn, mut rng) = synthetic(GeneratorConfig::balanced(N, 15.0, k, 8.0)?, 51 + k as u64)?;
        let seeds = syn.labeling.stratified_sample(0.09, &mut rng);
        let gold = measure_compatibilities(&syn.graph, &syn.labeling)?;
        let ctx = EstimationContext::new(&syn.graph, &seeds);
        let pipeline = || Pipeline::on(&syn.graph).seeds(&seeds).context(&ctx);
        // The global-minimum baseline: DCE started at the gold standard.
        let dce = DistantCompatibilityEstimation::default();
        let summary = ctx.summary(&dce.config.summary_config())?;
        let start = matrix_to_free(&gold)?;
        let (global_h, _) = dce.estimate_from_summary_with_start(&summary, &start)?;
        let global = pipeline().compatibilities("global", &global_h).run()?;
        let global = global.accuracy(&syn.labeling, &seeds);
        let mut row = vec![k.to_string()];
        for r in restarts {
            let dcer = estimator(&format!("dcer(r={r})"))?;
            let accuracy = pipeline()
                .estimator(dcer)
                .run()?
                .accuracy(&syn.labeling, &seeds);
            row.push(format!("{:.3}", accuracy / global));
        }
        table.push_row(row);
    }
    Ok(vec![table])
}

fn fig6i() -> Tables {
    let (syn, _) = synthetic(GeneratorConfig::balanced(N, 15.0, 3, 3.0)?, 61)?;
    let (g, lab) = (&syn.graph, &syn.labeling);
    let fractions = [0.001, 0.003, 0.01, 0.03, 0.1, 0.3, 1.0];
    let backends = ["linbp", "harmonic", "rw"];
    let mut table = backend_table("fig6i_homophily", g, lab, &fractions, &backends, 700)?;
    // Beside the backends on the gold standard, LinBP with an estimated H, on
    // the same seed draws.
    table.headers.push("DCEr+LinBP".to_string());
    for (i, (&f, row)) in fractions.iter().zip(&mut table.rows).enumerate() {
        let mut rng = StdRng::seed_from_u64(700 ^ ((i as u64) << 32));
        let seeds = lab.stratified_sample(f, &mut rng);
        let dcer = Pipeline::on(g).seeds(&seeds).estimator(estimator("dcer")?);
        let report = dcer.propagator(LinBp::default()).run()?;
        row.push(format!("{:.3}", report.accuracy(lab, &seeds)));
    }
    Ok(vec![table])
}

fn fig6j() -> Tables {
    let h = [[0.2, 0.6, 0.2], [0.6, 0.1, 0.3], [0.2, 0.3, 0.5]].map(Vec::from);
    let config = GeneratorConfig {
        n: N,
        m: (N as f64 * 25.0 / 2.0) as usize,
        alpha: vec![1.0 / 6.0, 1.0 / 3.0, 1.0 / 2.0],
        h: CompatibilityMatrix::from_rows(&h)?,
        distribution: DegreeDistribution::paper_power_law(),
    };
    let (syn, _) = synthetic(config, 67)?;
    let fractions = [0.0001, 0.001, 0.01, 0.1, 1.0];
    let (g, lab, accuracy) = (&syn.graph, &syn.labeling, Metric::Accuracy);
    let t = sparsity_table(
        "fig6j_imbalance",
        g,
        lab,
        &fractions,
        &STANDARD_SET,
        3,
        19,
        accuracy,
    );
    Ok(vec![t?])
}

fn fig6k() -> Tables {
    let mut table = ExperimentTable::new("fig6k_scalability", "m,MCE_s,LCE_s,DCE_s,DCEr_s,prop_s");
    for n in [1_000, 4_000, 16_000, 64_000, 256_000] {
        let (syn, mut rng) = synthetic(GeneratorConfig::balanced(n, 5.0, 3, 8.0)?, 71)?;
        let (g, seeds) = (&syn.graph, syn.labeling.stratified_sample(0.01, &mut rng));
        let mut row = vec![g.num_edges().to_string()];
        row.extend(seconds(
            g,
            &seeds,
            &["mce", "lce", "dce", "dcer", "propagate"],
        )?);
        table.push_row(row);
    }
    Ok(vec![table])
}

fn fig6l() -> Tables {
    let mut table =
        ExperimentTable::new("fig6l_classes_time", "k,LCE_s,MCE_s,DCE_s,DCEr_s,Holdout_s");
    for k in 2..=7 {
        let (syn, mut rng) = synthetic(GeneratorConfig::balanced(N, 25.0, k, 3.0)?, 79 + k as u64)?;
        let seeds = syn.labeling.stratified_sample(0.01, &mut rng);
        let mut row = vec![k.to_string()];
        row.extend(seconds(
            &syn.graph,
            &seeds,
            &["lce", "mce", "dce", "dcer", "holdout"],
        )?);
        table.push_row(row);
    }
    Ok(vec![table])
}

fn fig7() -> Tables {
    let (ids, accuracy) = (DatasetId::all(), Metric::Accuracy);
    dataset_sweeps("fig7", &ids, dataset_scale, 7, &STANDARD_SET, 23, accuracy)
}

fn fig8() -> Tables {
    let header = "dataset,n_paper,m_paper,k,n_substitute,m_substitute,d,DCEr_s";
    let mut table = ExperimentTable::new("fig8_dataset_table", header);
    for id in DatasetId::all() {
        let d = synthesize(id, dataset_scale(id), 31)?;
        let seeds = d
            .labeling
            .stratified_sample(0.01, &mut StdRng::seed_from_u64(32));
        let (spec, g) = (&d.spec, &d.graph);
        let mut row = vec![id.name().to_string()];
        let counts = [spec.n, spec.m, spec.k, g.num_nodes(), g.num_edges()];
        row.extend(counts.map(|c| c.to_string()));
        row.push(format!("{:.1}", g.average_degree()));
        row.extend(seconds(g, &seeds, &["dcer"])?);
        table.push_row(row);
    }
    Ok(vec![table])
}

/// Example C.1's setting: the h = 8 compatibility matrix on a 1,000-node graph
/// with 5% seeds. The centered version sits at s = 0.95 of the convergence
/// boundary; the same ε puts the uncentered version slightly above it.
fn example_c1() -> Result<(SyntheticGraph, SeedLabels, CompatibilityMatrix, f64)> {
    let h = [[0.1, 0.8, 0.1], [0.8, 0.1, 0.1], [0.1, 0.1, 0.8]].map(Vec::from);
    let h = CompatibilityMatrix::from_rows(&h)?;
    let (syn, mut rng) = synthetic(GeneratorConfig::balanced(1_000, 10.0, 3, 8.0)?, 83)?;
    let seeds = syn.labeling.stratified_sample(0.05, &mut rng);
    let eps = convergence_epsilon(&syn.graph, h.as_dense(), 0.95)?;
    Ok((syn, seeds, h, eps))
}

/// The centered and the uncentered LinBP runs of [`example_c1`] after
/// `iterations` steps.
fn example_c1_runs(iterations: usize) -> Result<[PropagationResult; 2]> {
    let (syn, seeds, h, eps) = example_c1()?;
    let [centered, uncentered] = [true, false].map(|centered| {
        let config = LinBpConfig {
            explicit_epsilon: Some(eps),
            tolerance: None,
            max_iterations: iterations,
            centered,
            ..LinBpConfig::default()
        };
        propagate(&syn.graph, &seeds, h.as_dense(), &config)
    });
    Ok([centered?, uncentered?])
}

fn fig10() -> Tables {
    let header = "iteration,max_abs_centered,max_abs_uncentered,label_agreement";
    let mut table = ExperimentTable::new("fig10_convergence", header);
    for iterations in FIG10_ITERATIONS {
        let [centered, uncentered] = example_c1_runs(iterations)?;
        let (a, b) = (&centered.predictions, &uncentered.predictions);
        let agreeing = a.iter().zip(b).filter(|(a, b)| a == b).count();
        table.push_row(vec![
            iterations.to_string(),
            format!("{:.3e}", centered.beliefs.max_abs()),
            format!("{:.3e}", uncentered.beliefs.max_abs()),
            format!("{:.3}", agreeing as f64 / a.len() as f64),
        ]);
    }
    Ok(vec![table])
}

const FIG10_ITERATIONS: [usize; 9] = [1, 2, 4, 8, 12, 16, 20, 25, 30];

fn fig12() -> Tables {
    let columns = ["GS", "MCE", "DCE", "DCEr", "Heuristic"];
    let ids = [DatasetId::MovieLens, DatasetId::Prop37];
    dataset_sweeps(
        "fig12_heuristic",
        &ids,
        |_| 0.05,
        41,
        &columns,
        29,
        Metric::Accuracy,
    )
}

fn fig14() -> Tables {
    let (ids, columns) = (DatasetId::all(), ["LCE", "MCE", "DCE", "DCEr"]);
    dataset_sweeps(
        "fig14_l2",
        &ids,
        dataset_scale,
        51,
        &columns,
        37,
        Metric::L2,
    )
}

fn construction() -> Tables {
    // Heteroscedastic blobs: the last class is three times noisier than the
    // first, so its neighbor lists reach into the tight clusters, the asymmetry
    // mutual-kNN pruning and distance-aware weightings exist for.
    let config = BlobConfig {
        nodes: 900,
        classes: 3,
        dims: 4,
        spread: 1.0,
        spread_skew: 3.0,
        seed: 7,
    };
    let (features, labeling) = fg_datasets::synthesize_blobs(&config)?;
    // The first spec is the baseline: binary weighting, euclidean, union.
    let specs = [
        "Knn(k=10)",
        "Knn(k=5)",
        "Knn(k=10,weighting=heat)",
        "Knn(k=10,weighting=inverse)",
        "Knn(k=10,sym=mutual)",
        "Knn(k=15,sym=mutual)",
        "SparseReg(k=10,alpha=0.05)",
    ];
    let name = "accuracy_vs_construction";
    let t = construction_table(name, &features, &labeling, &specs, "DCEr", 0.08, 5, 13);
    Ok(vec![t?])
}

/// Whether every column of `headers` falls strictly down the rows (`rising`:
/// never falls).
fn monotone(t: &ExperimentTable, headers: &[&str], rising: bool) -> Finding {
    let holds = |h: &&str| {
        let column = t.column(h);
        column
            .windows(2)
            .all(|w| if rising { w[1] >= w[0] } else { w[1] < w[0] })
    };
    let broken: Vec<&str> = headers.iter().copied().filter(|h| !holds(h)).collect();
    (broken.is_empty(), format!("not monotone: {broken:?}"))
}

/// Whether the table's smallest number sits under `header` in a row keyed by
/// one of `keys` (Fig. 6a/6b).
fn smallest_at(t: &ExperimentTable, header: &str, keys: &[&str]) -> Finding {
    let mut best = (f64::INFINITY, "", "");
    for h in &t.headers[1..] {
        for (row, v) in t.rows.iter().zip(t.column(h)) {
            if v < best.0 {
                best = (v, h, &row[0]);
            }
        }
    }
    let (v, at, key) = best;
    let ours = format!("smallest L2 {v:.4} under {at} at {} = {key}", t.headers[0]);
    (at == header && keys.contains(&key), ours)
}

fn fig6f_claim(t: &[ExperimentTable]) -> Finding {
    let (a, s) = (|m| t[0].get(m, "accuracy"), |m| t[0].get(m, "estimation_s"));
    let (gs, dcer, other) = (a("GS"), a("DCEr"), a("MCE").max(a("LCE")));
    let holdout = ["Holdout b=1", "Holdout b=2", "Holdout b=4"].map(s);
    let ratio = holdout
        .iter()
        .fold(f64::INFINITY, |r, h| r.min(h / s("DCEr")));
    let holds = (gs - dcer).abs() <= TRACKS && other <= dcer - WELL_BELOW && ratio >= 5.0;
    let ours =
        format!("GS {gs:.3}, DCEr {dcer:.3}, MCE/LCE {other:.3}; Holdout ≥ {ratio:.0}x DCEr");
    (holds, ours)
}

fn fig14_dcer_smallest(t: &[ExperimentTable]) -> Finding {
    let excess: Measure = |l| (l.f <= 0.01).then(|| l["DCEr"] - min_of(l, &["LCE", "MCE", "DCE"]));
    let misses: Vec<String> = t
        .iter()
        .map(|t| extreme(std::slice::from_ref(t), excess, true))
        .filter(|(v, _)| v.is_nan() || *v > WELL_BELOW)
        .map(|(v, at)| format!("+{v:.3} at {at}"))
        .collect();
    (
        misses.len() <= 1,
        format!("DCEr above the smallest L2 by {}", misses.join(", ")),
    )
}

fn construction_ranking(t: &[ExperimentTable]) -> Finding {
    let accuracy = t[0].column("accuracy");
    let best = accuracy[1..]
        .iter()
        .fold(f64::NEG_INFINITY, |a, &b| a.max(b));
    (
        best > accuracy[0],
        format!("best tuned {best:.3} vs baseline {:.3}", accuracy[0]),
    )
}

fn min_of(l: &Line, headers: &[&str]) -> f64 {
    headers.iter().map(|h| l[h]).fold(f64::INFINITY, f64::min)
}

use Bound::{AtLeast, AtMost, Custom};

/// Every figure panel, in the paper's order.
pub static ROWS: &[Row] = &[
    Row {
        id: "fig3a",
        claim: "DCEr tracks GS down to f ≈ 0.1%, while MCE and LCE only catch up once f exceeds \
                roughly 1%",
        run: fig3a,
        bounds: &[
            AtMost(TRACKS, |l| {
                (l.f >= 0.001).then(|| (l["DCEr"] - l["GS"]).abs())
            }),
            AtMost(-WELL_BELOW, |l| {
                (l.f < 0.01).then(|| l["MCE"].max(l["LCE"]) - l["GS"])
            }),
            AtMost(TRACKS, |l| {
                (l.f > 0.01).then(|| l["GS"] - l["MCE"].min(l["LCE"]))
            }),
        ],
    },
    Row {
        id: "fig3b",
        claim: "10-iteration propagation costs more than DCEr; Holdout is orders of magnitude \
                slower still",
        run: fig3b,
        bounds: &[
            AtLeast(1.5, |l| {
                (l.f == 200_000.0).then(|| l["Propagation_s"] / l["DCEr_s"])
            }),
            AtLeast(5.0, |l| {
                (l.f <= 10_000.0).then(|| l["Holdout_s"] / l["DCEr_s"])
            }),
        ],
    },
    Row {
        id: "fig5a",
        claim: "the NB statistics match H^l closely while the full-path statistics drift",
        run: fig5a,
        bounds: &[
            AtMost(-STRICT, |l| {
                (l.f >= 2.0).then(|| l["L2(NB)"] - l["L2(full)"])
            }),
            AtMost(0.02, |l| (l.f >= 2.0).then(|| l["L2(NB)"])),
        ],
    },
    Row {
        id: "fig5b",
        claim: "the 4-thread summaries are bit-identical to the serial ones; explicit W^l \
                becomes infeasible while the factorized summaries take milliseconds",
        run: fig5b,
        bounds: &[
            AtMost(0.0, |l| {
                l.table
                    .ends_with("identity")
                    .then(|| l["differing_lengths"])
            }),
            AtLeast(100.0, |l| {
                let timed = l.f == 3.0 && l.table.ends_with("time");
                timed.then(|| l["explicit_W^l_s"] / l["factorized_P_NB_s"])
            }),
        ],
    },
    Row {
        id: "fig6a",
        claim: "variant 1 with lmax = 5 is optimal; variant 3 is consistently worse",
        run: fig6a,
        bounds: &[
            Custom(|t| smallest_at(&t[0], "variant1_L2", &["5"])),
            AtLeast(STRICT, |l| {
                Some(l["variant3_L2"] - l["variant1_L2"].max(l["variant2_L2"]))
            }),
        ],
    },
    Row {
        id: "fig6b",
        claim: "lmax = 5 with lambda around 10 gives the lowest L2 norm; even lmax (2, 4) is \
                weaker than odd, longer lengths",
        run: fig6b,
        bounds: &[
            Custom(|t| smallest_at(&t[0], "lmax5_L2", &["3", "10", "30"])),
            AtLeast(STRICT, |l| {
                let weaker = (l["lmax2_L2"] - l["lmax3_L2"]).min(l["lmax4_L2"] - l["lmax5_L2"]);
                (l.f == 10.0).then_some(weaker)
            }),
        ],
    },
    Row {
        id: "fig6c",
        claim: "for sparse labels (f ≤ 0.1) L2 at lambda = 10 is within ~10% of the optimum; for \
                f close to 1 small lambda values become optimal",
        run: fig6c,
        bounds: &[
            AtMost(1.1, |l| {
                (l.f <= 0.1).then(|| l["L2_at_lambda10"] / l["best_L2"])
            }),
            AtMost(3.0, |l| (l.f == 1.0).then(|| l["best_lambda"])),
        ],
    },
    Row {
        id: "fig6d",
        claim: "lambda = 10 stays within roughly 10% of the optimal choice for every degree",
        run: fig6d,
        bounds: &[AtMost(1.1, |l| Some(l["L2_at_lambda10"] / l["best_L2"]))],
    },
    Row {
        id: "fig6e",
        claim: "L2(MCE) >= L2(DCE) >= L2(DCEr) once f drops below a few percent; all three \
                converge for f close to 1",
        run: fig6e,
        bounds: &[
            AtMost(0.0, |l| {
                let disorder = (l["DCE"] - l["MCE"]).max(l["DCEr"] - l["DCE"]);
                (l.f < 0.03).then_some(disorder)
            }),
            AtMost(TRACKS, |l| {
                let [a, b, c] = ["MCE", "DCE", "DCEr"].map(|h| l[h]);
                (l.f == 1.0).then_some(a.max(b).max(c) - a.min(b).min(c))
            }),
        ],
    },
    Row {
        id: "fig6f",
        claim: "DCEr reaches GS-level accuracy orders of magnitude faster than the Holdout \
                variants; MCE/LCE are much less accurate at this sparsity",
        run: fig6f,
        bounds: &[Custom(fig6f_claim)],
    },
    Row {
        id: "fig6g",
        claim: "accuracy decreases with k for every method, DCEr stays closest to GS throughout, \
                and all informative methods remain above the 1/k random baseline",
        run: fig6g,
        bounds: &[
            Custom(|t| monotone(&t[0], &["GS", "LCE", "MCE", "DCE", "DCEr"], false)),
            AtMost(0.0, |l| {
                let gap = |h: &str| (l["GS"] - l[h]).abs();
                Some(gap("DCEr") - gap("LCE").min(gap("MCE")).min(gap("DCE")))
            }),
            AtLeast(STRICT, |l| Some(min_of(l, &STANDARD_SET) - l["Random"])),
        ],
    },
    Row {
        id: "fig6h",
        claim: "relative accuracy rises with the number of restarts and reaches ~1.0 by r = 10",
        run: fig6h,
        bounds: &[
            AtMost(0.0, |l| {
                l.values[1..]
                    .windows(2)
                    .map(|w| w[0] - w[1])
                    .reduce(f64::max)
            }),
            AtLeast(1.0 - TRACKS, |l| Some(l["r10_rel_acc"])),
        ],
    },
    Row {
        id: "fig6i",
        claim: "GS-LinBP and DCEr+LinBP climb toward high accuracy with f, while harmonic \
                functions and random walks fall far behind as soon as any labels are available",
        run: fig6i,
        bounds: &[
            Custom(|t| monotone(&t[0], &["LinBP", "DCEr+LinBP"], true)),
            AtLeast(WELL_BELOW, |l| {
                let lead = l["LinBP"].min(l["DCEr+LinBP"]) - l["Harmonic"].max(l["RandomWalk"]);
                (l.f < 1.0).then_some(lead)
            }),
        ],
    },
    Row {
        id: "fig6j",
        claim: "DCEr tracks GS across the whole sparsity range despite the imbalance; MCE/LCE \
                need much denser labels",
        run: fig6j,
        bounds: &[
            AtMost(TRACKS, |l| Some((l["DCEr"] - l["GS"]).abs())),
            AtMost(-WELL_BELOW, |l| {
                (l.f < 0.01).then(|| l["MCE"].max(l["LCE"]) - l["GS"])
            }),
        ],
    },
    Row {
        id: "fig6k",
        claim: "10-iteration propagation costs more than DCEr",
        run: fig6k,
        bounds: &[AtLeast(1.5, |l| {
            (l.f == 640_000.0).then(|| l["prop_s"] / l["DCEr_s"])
        })],
    },
    Row {
        id: "fig6l",
        claim: "Holdout dwarfs all",
        run: fig6l,
        bounds: &[AtLeast(5.0, |l| Some(l["Holdout_s"] / l["DCEr_s"]))],
    },
    Row {
        id: "fig7",
        claim: "DCEr stays within ±0.01-0.03 of GS across datasets and sparsity levels; MCE/LCE \
                only compete when labels are dense",
        run: fig7,
        bounds: &[
            AtMost(TRACKS, |l| Some((l["DCEr"] - l["GS"]).abs())),
            AtMost(TRACKS, |l| {
                (l.f == 0.5).then(|| l["GS"] - l["MCE"].max(l["LCE"]))
            }),
            AtMost(-WELL_BELOW, |l| {
                (l.f == 0.001).then(|| l["MCE"].max(l["LCE"]) - l["GS"])
            }),
        ],
    },
    Row {
        id: "fig8",
        claim: "the substitutes reproduce the published columns (average degree d = 2m/n)",
        run: fig8,
        bounds: &[AtMost(0.05, |l| {
            Some((l["d"] * l["n_paper"] / (2.0 * l["m_paper"]) - 1.0).abs())
        })],
    },
    Row {
        id: "fig10",
        claim: "the uncentered belief magnitudes grow without bound while the centered ones stay \
                bounded, yet the label agreement stays at (or extremely close to) 1.0",
        run: fig10,
        bounds: &[
            AtLeast(100.0, |l| {
                (l.f == 30.0).then(|| l["max_abs_uncentered"] / l["max_abs_centered"])
            }),
            AtLeast(0.99, |l| Some(l["label_agreement"])),
        ],
    },
    Row {
        id: "fig12",
        claim: "on MovieLens the heuristic is competitive with GS/DCEr; on Prop-37 it falls well \
                below DCEr",
        run: fig12,
        bounds: &[
            AtLeast(-TRACKS, |l| {
                l.table
                    .ends_with("movielens")
                    .then(|| l["Heuristic"] - l["DCEr"])
            }),
            AtMost(-WELL_BELOW, |l| {
                l.table
                    .ends_with("prop_37")
                    .then(|| l["Heuristic"] - l["DCEr"])
            }),
        ],
    },
    Row {
        id: "fig14",
        claim: "DCEr gives the smallest (or near-smallest) L2 distance at sparse labelings on \
                nearly every dataset; MCE and LCE need much denser labels to close the gap",
        run: fig14,
        bounds: &[
            Custom(fig14_dcer_smallest),
            AtMost(WELL_BELOW, |l| {
                (l.f == 0.5).then(|| l["MCE"].min(l["LCE"]) - l["DCEr"])
            }),
        ],
    },
    Row {
        id: "construction",
        claim: "at least one tuned configuration (k, weighting or symmetrization) scores \
                strictly above the binary union-kNN baseline",
        run: construction,
        bounds: &[Custom(construction_ranking)],
    },
];

/// Claims about the shape of timing growth, by row: printed, not checked,
/// because wall-clock growth on a shared host cannot settle them.
pub static UNCHECKED: &[(&str, &str)] = &[
    ("fig3b", "every estimator scales linearly in m"),
    ("fig5b", "the factorized summaries stay linear in l"),
    ("fig6k", "every column grows linearly in m"),
    ("fig6l", "the sketch-based estimators grow mildly with k"),
    (
        "fig8",
        "DCEr runtime grows linearly with the substitute's edge count and with k",
    ),
];

/// The rows whose claim fails at the one scale, with the numbers it fails by.
/// Fixing them is estimator work (ROADMAP direction 8); `reproduce` fails when
/// one starts to hold, so the list stays exact.
pub static DEVIATIONS: &[(&str, &str)] = &[
    ("fig3a", "at f = 0.001 DCEr reads 0.402 vs GS 0.476"),
    (
        "fig6c",
        "L2 at λ = 10 is 16% above the best at f = 0.003, 27% above at f = 0.1",
    ),
    (
        "fig6d",
        "L2 at λ = 10 is 2.2x the best at d = 3 (0.0743 vs 0.0334)",
    ),
    (
        "fig6e",
        "single-start DCE at f = 1 reads 0.561, MCE 0.000, DCEr 0.008",
    ),
    (
        "fig6h",
        "k = 5: 0.713 at r = 2, 0.615 at r = 10; k = 7: 0.592 at r = 4, 0.468 at r = 5",
    ),
    (
        "fig6i",
        "at f = 0.001 DCEr+LinBP reads 0.337, below RandomWalk's 0.391",
    ),
    ("fig6j", "at f = 0.0001 DCEr reads 0.428 vs GS 0.460"),
    (
        "fig7",
        "DCEr vs GS at f = 0.5: Cora 0.370/0.832, Citeseer 0.277/0.682, Hep-Th 0.177/0.316",
    ),
    (
        "fig10",
        "label agreement 0.968 at iteration 2: all 32 disagreeing nodes tie two classes \
         exactly, within 0.28 ulp of their uncentered row, so rounding breaks the tie \
         differently in the two modes (no violation of Theorem 3.1)",
    ),
    (
        "fig12",
        "on Prop-37 the heuristic reads at or above DCEr at every f (0.753/0.684 at 0.5)",
    ),
    (
        "fig14",
        "DCEr's L2 ≥ MCE's at every f on Cora, Citeseer (1.760 vs 0.477 at 0.1, Cora)",
    ),
];

#[cfg(test)]
mod tests {
    use super::*;

    fn table(name: &str, header: &str, rows: &[&[&str]]) -> ExperimentTable {
        let mut t = ExperimentTable::new(name, header);
        for row in rows {
            t.push_row(row.iter().map(|c| c.to_string()).collect());
        }
        t
    }

    fn holds(id: &str, tables: &[ExperimentTable]) -> bool {
        let row = ROWS.iter().find(|r| r.id == id).unwrap();
        judge(row, tables, &[]).0 == Verdict::Pass
    }

    #[test]
    fn ids_are_unique_every_row_checks_and_deviations_name_rows() {
        for (i, row) in ROWS.iter().enumerate() {
            assert!(
                ROWS[..i].iter().all(|r| r.id != row.id),
                "duplicate row {}",
                row.id
            );
            assert!(!row.bounds.is_empty(), "{} checks nothing", row.id);
        }
        for list in [DEVIATIONS, UNCHECKED] {
            for (i, (id, _)) in list.iter().enumerate() {
                assert!(ROWS.iter().any(|r| r.id == *id), "no row {id}");
                assert!(list[..i].iter().all(|(other, _)| other != id), "{id} twice");
            }
        }
    }

    #[test]
    fn predicates_pass_their_claim_and_fail_its_breach() {
        // fig5a on its own numbers, with an NB error above 0.02, and with the NB
        // column missing: missing data fails, it never passes.
        let header = "l,H^l[0][1],P_full[0][1],P_NB[0][1],L2(full),L2(NB)";
        let fig5a = |nb: &str| {
            let first = ["1", "0.6", "0.59", "0.59", "0.0307", "0.0307"];
            [table(
                "fig5a",
                header,
                &[&first, &["2", "0.28", "0.19", "0.28", "0.3898", nb]],
            )]
        };
        assert!(holds("fig5a", &fig5a("0.0164")));
        assert!(!holds("fig5a", &fig5a("0.0210")));
        assert!(!holds("fig5a", &fig5a("-")));
        assert!(!holds("fig5a", &[table("fig5a", "l", &[])]));

        // A timing ratio: Holdout at 4x DCEr does not dwarf it.
        let header = "k,LCE_s,MCE_s,DCE_s,DCEr_s,Holdout_s";
        let fig6l = |holdout: &str| {
            [table(
                "l",
                header,
                &[&["2", "0.1", "0", "0.1", "0.010", holdout]],
            )]
        };
        assert!(holds("fig6l", &fig6l("0.406")));
        assert!(!holds("fig6l", &fig6l("0.040")));

        // The construction ranking.
        let header = "builder,nodes,edges,accuracy,construct_s";
        let ranked = |a: &str, b: &str| {
            [table(
                "c",
                header,
                &[&["base", "9", "9", a, "0"], &["tuned", "9", "9", b, "0"]],
            )]
        };
        assert!(holds("construction", &ranked("0.722", "0.781")));
        assert!(!holds("construction", &ranked("0.722", "0.722")));

        // fig6h: relative accuracy may not fall along a row.
        let fig6h = |r2: &str| {
            [table(
                "h",
                "k,r1_rel_acc,r2_rel_acc,r10_rel_acc",
                &[&["3", "0.97", r2, "1.0"]],
            )]
        };
        assert!(holds("fig6h", &fig6h("0.98")));
        assert!(!holds("fig6h", &fig6h("0.96")));
    }

    #[test]
    fn construction_row_runs_seven_builders_and_holds_its_ranking() {
        let tables = construction().unwrap();
        let t = &tables[0];
        assert_eq!(t.rows.len(), 7);
        assert!(t.rows[0][0].starts_with("Knn(k=10,"), "{}", t.rows[0][0]);
        assert!(t.column("accuracy").iter().all(|v| (0.0..=1.0).contains(v)));
        assert!(t.column("edges").iter().all(|v| *v > 0.0));
        assert!(t.column("nodes").iter().all(|v| *v == 900.0));
        assert!(holds("construction", &tables));
    }

    #[test]
    fn verdicts_fail_on_unlisted_failures_and_on_stale_deviations() {
        static ROW: Row = Row {
            id: "synthetic",
            claim: "v is positive",
            run: || Ok(Vec::new()),
            bounds: &[AtLeast(STRICT, |l| Some(l["v"]))],
        };
        let listed = [("synthetic", "v reads -1")];
        let positive = [table("t", "k,v", &[&["1", "1"]])];
        let negative = [table("t", "k,v", &[&["1", "-1"]])];
        let verdict = |tables: &[ExperimentTable], deviations| judge(&ROW, tables, deviations).0;
        assert_eq!(verdict(&positive, &[]), Verdict::Pass);
        assert_eq!(verdict(&negative, &listed), Verdict::Deviation);
        assert_eq!(verdict(&negative, &[]), Verdict::Fail);
        assert_eq!(verdict(&positive, &listed), Verdict::Stale);
        // `reproduce` exits non-zero from `Fail` on: the unlisted failure and
        // the stale listing, never a pass or a listed deviation.
        assert!(Verdict::Pass < Verdict::Fail && Verdict::Deviation < Verdict::Fail);
        assert!(Verdict::Stale > Verdict::Fail);

        let text = report(&ROW, &judge(&ROW, &negative, &[]));
        let ours = "-1.0000 at t k = 1 (bound ≥ 0.0001)";
        assert_eq!(
            text,
            format!("synthetic    FAIL\n  claim: v is positive\n  ours:  {ours}\n")
        );
        assert_eq!(
            report(&ROW, &judge(&ROW, &positive, &[])),
            "synthetic    PASS\n"
        );
        // A row's timing-shape claims print as unchecked lines under any verdict.
        let fig6l = ROWS.iter().find(|r| r.id == "fig6l").unwrap();
        let unchecked = "  UNCHECKED the sketch-based estimators grow mildly with k (timing; \
                         needs work counts, ROADMAP direction 2)\n";
        let timed = report(fig6l, &(Verdict::Pass, String::new()));
        assert_eq!(timed, format!("fig6l        PASS\n{unchecked}"));
    }

    /// fig10's disagreements are ties, not violations of Theorem 3.1: at every
    /// node where the centered and uncentered labels differ, the gap between the
    /// two largest centered beliefs is below one ulp of the uncentered row's
    /// magnitude, so rounding alone picks each mode's winner.
    #[test]
    fn fig10_disagreements_are_ties_that_rounding_breaks() {
        let mut disagreeing = Vec::new();
        for iterations in FIG10_ITERATIONS.into_iter().take(4) {
            let [centered, uncentered] = example_c1_runs(iterations).unwrap();
            let (a, b) = (&centered.predictions, &uncentered.predictions);
            for node in (0..a.len()).filter(|&i| a[i] != b[i]) {
                let mut row = centered.beliefs.row(node).to_vec();
                row.sort_by(|x, y| y.total_cmp(x));
                let gap = row[0] - row[1];
                let magnitude = uncentered.beliefs.row(node).iter().map(|v| v.abs());
                let ulp = magnitude.fold(0.0, f64::max) * f64::EPSILON;
                assert!(
                    gap < ulp,
                    "iteration {iterations}, node {node}: gap {gap:e}"
                );
                disagreeing.push(iterations);
            }
        }
        assert_eq!(disagreeing, vec![2; 32]);
    }
}
