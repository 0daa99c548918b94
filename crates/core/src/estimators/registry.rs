//! By-name lookup of compatibility estimators, for CLIs, benchmarks, and config
//! files — the estimation-side mirror of `fg_propagation::registry`.
//!
//! Estimators are addressed by a canonical lowercase name (`"dcer"`) or by a
//! parameterized spec string in exactly the format [`CompatibilityEstimator::name`]
//! renders, e.g. `"DCEr(r=10,l=5,lambda=0.1)"` — so every name an estimator prints
//! can be parsed back into an equivalent estimator (the round-trip property the
//! registry tests assert). Generic defaults are supplied through
//! [`EstimatorOptions`]; keys in the spec string override them. The grammar and
//! the lookup are `fg_graph::spec`'s, shared with the graph-builder registry.

use super::{
    CompatibilityEstimator, DceConfig, DceWithRestarts, DistantCompatibilityEstimation,
    HoldoutEstimation, LinearCompatibilityEstimation, MyopicCompatibilityEstimation,
};
use crate::normalization::NormalizationVariant;
use crate::paths::{CountingBackend, DEFAULT_LOWRANK_RANK};
use fg_graph::spec::{
    parse, parse_non_negative, put, Entry, Key, Kind, ParamError, Registry, SpecOptions,
};
use fg_graph::FactorConfig;
use fg_sparse::Threads;

/// Estimator-agnostic configuration overrides understood by every registered
/// estimator. `None` fields keep the estimator's default; keys an estimator has no
/// use for are ignored (mirroring how `PropagatorOptions.damping` is ignored by
/// backends without such a knob). Every field but `threads` is set by key through
/// the table [`SpecOptions::KEYS`].
#[derive(Debug, Clone, Copy, Default)]
pub struct EstimatorOptions {
    /// Maximum path length `ℓmax` (key `l` / `lmax`; DCE and DCEr).
    pub max_length: Option<usize>,
    /// Distance scaling factor `λ` (key `lambda`; DCE and DCEr).
    pub lambda: Option<f64>,
    /// Number of optimization restarts (key `r` / `restarts`; DCEr).
    pub restarts: Option<usize>,
    /// Number of seed/holdout splits (key `b` / `splits`; Holdout).
    pub splits: Option<usize>,
    /// Normalization variant, by paper number 1–3 (key `variant`; MCE, DCE, DCEr).
    pub variant: Option<NormalizationVariant>,
    /// Counting mode: non-backtracking paths when `true` (key `nb`; DCE, DCEr).
    pub non_backtracking: Option<bool>,
    /// Counting backend (key `mode`, values `exact` / `lowrank`; DCE, DCEr). When
    /// unset, a set [`rank`](Self::rank) implies the low-rank backend.
    pub lowrank: Option<bool>,
    /// Factor rank for the low-rank counting backend (key `rank`; DCE, DCEr).
    /// Setting a rank without an explicit `mode` selects the low-rank backend;
    /// `mode=lowrank` without a rank uses [`DEFAULT_LOWRANK_RANK`].
    pub rank: Option<usize>,
    /// Thread policy for the estimator's parallel kernels. All estimators honor it;
    /// results are bit-identical at any thread count.
    pub threads: Option<Threads>,
}

impl EstimatorOptions {
    /// The counting backend these options select: the low-rank backend when
    /// `mode=lowrank` was given (or a `rank` without an explicit `mode=exact`),
    /// the exact backend otherwise. An explicit `mode=exact` wins over a set
    /// rank, mirroring how other inapplicable keys are ignored.
    pub fn backend(&self) -> CountingBackend {
        match (self.lowrank, self.rank) {
            (Some(false), _) | (None, None) => CountingBackend::Exact,
            (_, rank) => CountingBackend::LowRank(FactorConfig::with_rank(
                rank.unwrap_or(DEFAULT_LOWRANK_RANK),
            )),
        }
    }
}

fn dce_config(opts: &EstimatorOptions) -> DceConfig {
    let mut config = DceConfig::default();
    if let Some(l) = opts.max_length {
        config.max_length = l;
    }
    if let Some(lambda) = opts.lambda {
        config.lambda = lambda;
    }
    if let Some(variant) = opts.variant {
        config.variant = variant;
    }
    if let Some(nb) = opts.non_backtracking {
        config.non_backtracking = nb;
    }
    if let Some(threads) = opts.threads {
        config.threads = threads;
    }
    config.backend = opts.backend();
    config
}

fn build_mce(opts: &EstimatorOptions) -> Box<dyn CompatibilityEstimator> {
    let mut est = MyopicCompatibilityEstimation::default();
    if let Some(variant) = opts.variant {
        est.variant = variant;
    }
    if let Some(threads) = opts.threads {
        est.threads = threads;
    }
    Box::new(est)
}

fn build_lce(opts: &EstimatorOptions) -> Box<dyn CompatibilityEstimator> {
    let mut est = LinearCompatibilityEstimation::default();
    if let Some(threads) = opts.threads {
        est.threads = threads;
    }
    Box::new(est)
}

fn build_dce(opts: &EstimatorOptions) -> Box<dyn CompatibilityEstimator> {
    Box::new(DistantCompatibilityEstimation::new(dce_config(opts)))
}

fn build_dcer(opts: &EstimatorOptions) -> Box<dyn CompatibilityEstimator> {
    let mut est = DceWithRestarts::new(dce_config(opts), DceWithRestarts::default().restarts);
    if let Some(r) = opts.restarts {
        est.restarts = r;
    }
    Box::new(est)
}

fn build_holdout(opts: &EstimatorOptions) -> Box<dyn CompatibilityEstimator> {
    let est = HoldoutEstimation::with_splits(opts.splits.unwrap_or(1));
    match opts.threads {
        Some(threads) => est.with_threads(threads),
        None => Box::new(est),
    }
}

/// Every compatibility estimator, by name, alias or parameterized spec.
pub static ESTIMATORS: Registry<dyn CompatibilityEstimator, EstimatorOptions> = Registry::new(
    "estimation",
    "estimator",
    &[
        Entry {
            name: "mce",
            aliases: &["myopic"],
            description: "Myopic Compatibility Estimation from neighbor statistics (Eq. 12)",
            build: build_mce,
        },
        Entry {
            name: "lce",
            aliases: &["linear"],
            description: "Linear Compatibility Estimation from the LinBP energy (Eq. 8)",
            build: build_lce,
        },
        Entry {
            name: "dce",
            aliases: &["distant"],
            description:
                "Distant Compatibility Estimation from length-l path statistics (Eq. 13/14)",
            build: build_dce,
        },
        Entry {
            name: "dcer",
            aliases: &["dce-r", "dce_r"],
            description: "DCE with restarts — the paper's recommended method (Section 4.8)",
            build: build_dcer,
        },
        Entry {
            name: "holdout",
            aliases: &["hold-out"],
            description: "Holdout baseline: black-box propagation inside a search (Eq. 7)",
            build: build_holdout,
        },
    ],
);

/// The estimator key table: spec keys, CLI flags, serve request fields and
/// manifest keys alike.
impl SpecOptions for EstimatorOptions {
    const KEYS: &'static [Key<EstimatorOptions>] = &[
        Key {
            name: "restarts",
            aliases: &["r"],
            kind: Kind::Count,
            help: "optimization restarts (DCEr)",
            set: |o, v| put(&mut o.restarts, parse(v, "count")),
        },
        Key {
            name: "lmax",
            aliases: &["l"],
            kind: Kind::Count,
            help: "maximum path length (DCE, DCEr)",
            set: |o, v| put(&mut o.max_length, parse(v, "length")),
        },
        Key {
            name: "lambda",
            aliases: &[],
            kind: Kind::Number,
            help: "distance scaling factor (DCE, DCEr)",
            set: |o, v| put(&mut o.lambda, parse_non_negative(v)),
        },
        Key {
            name: "splits",
            aliases: &["b"],
            kind: Kind::Count,
            help: "seed/holdout splits (Holdout)",
            set: |o, v| put(&mut o.splits, parse(v, "count")),
        },
        Key {
            name: "variant",
            aliases: &[],
            kind: Kind::Count,
            help: "normalization variant 1, 2 or 3 (MCE, DCE, DCEr)",
            set: |o, v| {
                let variant = parse(v, "variant number").map(NormalizationVariant::from_index);
                let invalid = ParamError::Invalid("variant number", Some("1-3"));
                put(&mut o.variant, variant?.ok_or(invalid))
            },
        },
        Key {
            name: "nb",
            aliases: &[],
            kind: Kind::Flag,
            help: "count non-backtracking paths only (DCE, DCEr)",
            set: |o, v| {
                let flag = match v.to_ascii_lowercase().as_str() {
                    "true" | "1" => Ok(true),
                    "false" | "0" => Ok(false),
                    _ => Err(ParamError::Invalid("flag", Some("true or false"))),
                };
                put(&mut o.non_backtracking, flag)
            },
        },
        Key {
            name: "mode",
            aliases: &[],
            kind: Kind::Choice(&["exact", "lowrank"]),
            help: "path-counting backend (DCE, DCEr)",
            set: |o, v| {
                let lowrank = match v.to_ascii_lowercase().as_str() {
                    "lowrank" => Ok(true),
                    "exact" => Ok(false),
                    _ => Err(ParamError::Invalid("backend", Some("exact or lowrank"))),
                };
                put(&mut o.lowrank, lowrank)
            },
        },
        Key {
            name: "rank",
            aliases: &[],
            kind: Kind::Count,
            help: "low-rank factor rank; implies mode lowrank (DCE, DCEr)",
            set: |o, v| put(&mut o.rank, parse(v, "rank")),
        },
    ];
}

/// Build an estimator from a name or parameterized spec string (e.g. `"mce"`,
/// `"DCEr(r=10,l=5,lambda=0.1)"`) with default options.
pub fn estimator_by_name(spec: &str) -> Result<Box<dyn CompatibilityEstimator>, String> {
    estimator_by_name_with(spec, &EstimatorOptions::default())
}

/// Build an estimator from a name or parameterized spec string, applying the given
/// option defaults; keys in the spec string take precedence.
pub fn estimator_by_name_with(
    spec: &str,
    defaults: &EstimatorOptions,
) -> Result<Box<dyn CompatibilityEstimator>, String> {
    ESTIMATORS.by_spec(spec, defaults)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn canonical_names_and_aliases_resolve() {
        let canonical = |name| ESTIMATORS.canonical(name);
        assert_eq!(canonical("dcer"), Some("dcer"));
        assert_eq!(canonical("DCEr"), Some("dcer"));
        assert_eq!(canonical("dce-r"), Some("dcer"));
        assert_eq!(canonical("Myopic"), Some("mce"));
        assert_eq!(canonical("hold-out"), Some("holdout"));
        assert_eq!(canonical("nope"), None);
    }

    #[test]
    fn every_built_in_name_round_trips() {
        // The acceptance property: parse every built-in estimator's rendered name and
        // get an estimator with the identical name back.
        for est in ESTIMATORS.build_all(&EstimatorOptions::default()) {
            let name = est.name();
            let rebuilt = estimator_by_name(&name)
                .unwrap_or_else(|e| panic!("name '{name}' failed to parse: {e}"));
            assert_eq!(rebuilt.name(), name, "round trip changed the estimator");
        }
    }

    #[test]
    fn parameterized_specs_apply_overrides() {
        let est = estimator_by_name("DCEr(r=7,l=3,lambda=0.1)").unwrap();
        assert_eq!(est.name(), "DCEr(r=7,l=3,lambda=0.1)");
        let est = estimator_by_name("dce(l=2,lambda=5,nb=false,variant=3)").unwrap();
        assert_eq!(est.name(), "DCE(l=2,lambda=5,nb=false,variant=3)");
        let est = estimator_by_name("holdout(b=4)").unwrap();
        assert_eq!(est.name(), "Holdout(b=4)");
        let est = estimator_by_name("MCE(variant=2)").unwrap();
        assert_eq!(est.name(), "MCE(variant=2)");
    }

    #[test]
    fn defaults_fill_unspecified_keys() {
        let defaults = EstimatorOptions {
            restarts: Some(5),
            lambda: Some(2.0),
            ..EstimatorOptions::default()
        };
        // Spec keys win over defaults; unset keys fall back to the defaults.
        let est = estimator_by_name_with("dcer(r=9)", &defaults).unwrap();
        assert_eq!(est.name(), "DCEr(r=9,l=5,lambda=2)");
    }

    #[test]
    fn threads_option_reaches_estimators() {
        // A threaded build must produce exactly the serial estimate (the parallel
        // kernels are bit-identical).
        use fg_graph::{generate, GeneratorConfig};
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        let cfg = GeneratorConfig::balanced(300, 8.0, 3, 3.0).unwrap();
        let mut rng = StdRng::seed_from_u64(3);
        let syn = generate(&cfg, &mut rng).unwrap();
        let seeds = syn.labeling.stratified_sample(0.1, &mut rng);
        let threaded_opts = EstimatorOptions {
            threads: Some(Threads::Fixed(4)),
            ..EstimatorOptions::default()
        };
        for name in ESTIMATORS.names() {
            let serial = estimator_by_name(name)
                .unwrap()
                .estimate(&syn.graph, &seeds)
                .unwrap();
            let threaded = estimator_by_name_with(name, &threaded_opts)
                .unwrap()
                .estimate(&syn.graph, &seeds)
                .unwrap();
            assert_eq!(serial.data(), threaded.data(), "{name}");
        }
    }

    #[test]
    fn lowrank_mode_and_rank_keys_select_the_backend() {
        // `mode=lowrank` with an explicit rank round-trips through the name.
        let est = estimator_by_name("dce(mode=lowrank,rank=16)").unwrap();
        assert_eq!(est.name(), "DCE(l=5,lambda=10,mode=lowrank,rank=16)");
        let rebuilt = estimator_by_name(&est.name()).unwrap();
        assert_eq!(rebuilt.name(), est.name());
        // A rank alone implies the low-rank backend.
        let est = estimator_by_name("dcer(r=3,rank=8)").unwrap();
        assert_eq!(est.name(), "DCEr(r=3,l=5,lambda=10,mode=lowrank,rank=8)");
        // `mode=lowrank` without a rank uses the default rank.
        let est = estimator_by_name("dce(mode=lowrank)").unwrap();
        assert_eq!(
            est.name(),
            format!("DCE(l=5,lambda=10,mode=lowrank,rank={DEFAULT_LOWRANK_RANK})")
        );
        // An explicit `mode=exact` wins over a set rank (inapplicable keys are
        // ignored, not errors).
        let est = estimator_by_name("dce(mode=exact,rank=8)").unwrap();
        assert_eq!(est.name(), "DCE(l=5,lambda=10)");
        // Defaults merge under spec keys like every other option.
        let defaults = EstimatorOptions {
            rank: Some(32),
            ..EstimatorOptions::default()
        };
        let est = estimator_by_name_with("dce", &defaults).unwrap();
        assert_eq!(est.name(), "DCE(l=5,lambda=10,mode=lowrank,rank=32)");
    }

    #[test]
    fn malformed_specs_are_rejected_with_messages() {
        let err_of = |spec: &str| estimator_by_name(spec).map(|_| ()).unwrap_err();
        assert!(err_of("nope").contains("unknown"));
        assert!(err_of("dcer(r=10").contains("unterminated"));
        assert!(err_of("dcer(r)").contains("key=value"));
        assert!(err_of("dcer(r=many)").contains("invalid"));
        assert!(err_of("dcer(frobs=1)").contains("unknown estimator parameter"));
        assert!(err_of("mce(variant=9)").contains("variant"));
        assert!(err_of("dce(nb=perhaps)").contains("flag"));
        assert!(err_of("dce(mode=spectral)").contains("exact or lowrank"));
        assert!(err_of("dce(rank=lots)").contains("invalid rank"));
        // Value errors name the value before the accepted values.
        assert_eq!(
            err_of("mce(variant=0)"),
            "estimator parameter 'variant' has invalid variant number '0' (expected 1-3)"
        );
        assert_eq!(
            err_of("dce(nb=perhaps)"),
            "estimator parameter 'nb' has invalid flag 'perhaps' (expected true or false)"
        );
    }

    #[test]
    fn registry_lists_all_estimators() {
        assert_eq!(
            ESTIMATORS.names(),
            vec!["mce", "lce", "dce", "dcer", "holdout"]
        );
        let all = ESTIMATORS.build_all(&EstimatorOptions::default());
        assert_eq!(all.len(), ESTIMATORS.entries().len());
        for spec in ESTIMATORS.entries() {
            assert!(!spec.description.is_empty());
        }
    }
}
