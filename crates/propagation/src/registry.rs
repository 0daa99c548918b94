//! By-name lookup of propagation backends, for CLIs, benchmarks, and config files.
//!
//! Every [`Propagator`] implementation registers a canonical name plus aliases in
//! [`PROPAGATORS`], and a constructor that accepts generic [`PropagatorOptions`]
//! overrides, so callers can build `fg propagate --method bp --iterations 30` style
//! invocations without knowing the concrete config types. Propagators are addressed
//! by name only: `PROPAGATORS.build(name, &opts)`.

use crate::bp::BpConfig;
use crate::harmonic::HarmonicConfig;
use crate::linbp::LinBpConfig;
use crate::propagator::{Harmonic, LinBp, LoopyBp, Propagator, RandomWalk};
use crate::random_walk::RandomWalkConfig;
use fg_graph::spec::{parse, parse_non_negative, put, Entry, Key, Kind, Registry, SpecOptions};
use fg_sparse::Threads;

/// Backend-agnostic configuration overrides understood by every registered backend.
/// `None` fields keep the backend's default. Every field but `threads` is set by
/// key through the table [`SpecOptions::KEYS`]; propagators themselves are
/// addressed by name only.
#[derive(Debug, Clone, Default)]
pub struct PropagatorOptions {
    /// Maximum number of iterations.
    pub max_iterations: Option<usize>,
    /// Early-stopping tolerance (interpreted per backend).
    pub tolerance: Option<f64>,
    /// Continuation probability for random walks / damping factor for loopy BP.
    /// Ignored by backends without such a knob.
    pub damping: Option<f64>,
    /// Thread policy for the backend's parallel kernels (`fg --threads N`). All
    /// backends honor it; results are bit-identical at any thread count.
    pub threads: Option<Threads>,
}

/// The propagator key table: CLI flags, serve request fields and manifest keys.
impl SpecOptions for PropagatorOptions {
    const KEYS: &'static [Key<PropagatorOptions>] = &[
        Key {
            name: "iterations",
            aliases: &[],
            kind: Kind::Count,
            help: "maximum iterations",
            set: |o, v| put(&mut o.max_iterations, parse(v, "count")),
        },
        Key {
            name: "tolerance",
            aliases: &[],
            kind: Kind::Number,
            help: "early-stopping tolerance",
            set: |o, v| put(&mut o.tolerance, parse_non_negative(v)),
        },
        Key {
            name: "damping",
            aliases: &[],
            kind: Kind::Number,
            help: "random-walk continuation / BP damping (rw, bp)",
            set: |o, v| put(&mut o.damping, parse_non_negative(v)),
        },
    ];
}

fn build_linbp(opts: &PropagatorOptions) -> Box<dyn Propagator> {
    let mut config = LinBpConfig::default();
    if let Some(it) = opts.max_iterations {
        config.max_iterations = it;
    }
    if let Some(tol) = opts.tolerance {
        config.tolerance = Some(tol);
    }
    if let Some(threads) = opts.threads {
        config.threads = threads;
    }
    Box::new(LinBp::new(config))
}

fn build_bp(opts: &PropagatorOptions) -> Box<dyn Propagator> {
    let mut config = BpConfig::default();
    if let Some(it) = opts.max_iterations {
        config.max_iterations = it;
    }
    if let Some(tol) = opts.tolerance {
        config.tolerance = tol;
    }
    if let Some(d) = opts.damping {
        config.damping = d;
    }
    if let Some(threads) = opts.threads {
        config.threads = threads;
    }
    Box::new(LoopyBp::new(config))
}

fn build_harmonic(opts: &PropagatorOptions) -> Box<dyn Propagator> {
    let mut config = HarmonicConfig::default();
    if let Some(it) = opts.max_iterations {
        config.max_iterations = it;
    }
    if let Some(tol) = opts.tolerance {
        config.tolerance = tol;
    }
    if let Some(threads) = opts.threads {
        config.threads = threads;
    }
    Box::new(Harmonic::new(config))
}

fn build_rw(opts: &PropagatorOptions) -> Box<dyn Propagator> {
    let mut config = RandomWalkConfig::default();
    if let Some(it) = opts.max_iterations {
        config.max_iterations = it;
    }
    if let Some(tol) = opts.tolerance {
        config.tolerance = tol;
    }
    if let Some(d) = opts.damping {
        config.damping = d;
    }
    if let Some(threads) = opts.threads {
        config.threads = threads;
    }
    Box::new(RandomWalk::new(config))
}

/// Every propagation backend, by name or alias.
pub static PROPAGATORS: Registry<dyn Propagator, PropagatorOptions> = Registry::new(
    "propagation",
    "propagator",
    &[
        Entry {
            name: "linbp",
            aliases: &["linearized-bp", "linearized_bp"],
            description: "Linearized Belief Propagation (the paper's method; uses H)",
            build: build_linbp,
        },
        Entry {
            name: "bp",
            aliases: &["loopybp", "loopy-bp", "loopy_bp"],
            description: "Full loopy Belief Propagation (reference method; uses H)",
            build: build_bp,
        },
        Entry {
            name: "harmonic",
            aliases: &["harmonic-functions", "homophily"],
            description: "Harmonic-functions label propagation (homophily baseline; ignores H)",
            build: build_harmonic,
        },
        Entry {
            name: "rw",
            aliases: &["randomwalk", "random-walk", "random_walk", "mrw"],
            description: "MultiRankWalk random walks with restarts (homophily baseline; ignores H)",
            build: build_rw,
        },
    ],
);

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn canonical_names_and_aliases_resolve() {
        let canonical = |name| PROPAGATORS.canonical(name);
        assert_eq!(canonical("linbp"), Some("linbp"));
        assert_eq!(canonical("LinBP"), Some("linbp"));
        assert_eq!(canonical(" linbp"), Some("linbp"));
        assert_eq!(canonical("loopy-bp"), Some("bp"));
        assert_eq!(canonical("RandomWalk"), Some("rw"));
        assert_eq!(canonical("homophily"), Some("harmonic"));
        assert_eq!(canonical("nope"), None);
        // Names are trimmed and case-insensitive when building too.
        let defaults = PropagatorOptions::default();
        for name in [" linbp", "LinBP"] {
            assert_eq!(PROPAGATORS.build(name, &defaults).unwrap().name(), "LinBP");
        }
    }

    #[test]
    fn by_name_builds_every_backend() {
        let defaults = PropagatorOptions::default();
        for name in PROPAGATORS.names() {
            let p = PROPAGATORS.build(name, &defaults).unwrap();
            assert!(!p.name().is_empty());
        }
        assert_eq!(
            PROPAGATORS
                .build("unknown", &defaults)
                .map(|_| ())
                .unwrap_err(),
            "unknown propagation method 'unknown' (expected one of linbp, bp, harmonic, rw)"
        );
        assert_eq!(PROPAGATORS.names().len(), 4);
    }

    #[test]
    fn options_are_applied() {
        let opts = PropagatorOptions {
            max_iterations: Some(3),
            ..PropagatorOptions::default()
        };
        // Smoke test: a 3-iteration LinBP on a tiny graph reports <= 3 iterations.
        let p = PROPAGATORS.build("linbp", &opts).unwrap();
        let graph = fg_graph::Graph::from_edges(4, &[(0, 1), (1, 2), (2, 3)]).unwrap();
        let seeds = fg_graph::SeedLabels::new(vec![Some(0), None, None, Some(1)], 2).unwrap();
        let h = fg_sparse::DenseMatrix::from_rows(&[vec![0.3, 0.7], vec![0.7, 0.3]]).unwrap();
        let outcome = p.propagate(&graph, &seeds, &h).unwrap();
        assert!(outcome.iterations <= 3);
    }

    #[test]
    fn threads_option_reaches_every_backend() {
        // A 4-thread build must produce exactly the serial outcome on every backend
        // (the parallel kernels are bit-identical).
        let graph =
            fg_graph::Graph::from_edges(6, &[(0, 1), (1, 2), (2, 3), (3, 4), (4, 5)]).unwrap();
        let seeds =
            fg_graph::SeedLabels::new(vec![Some(0), None, None, None, None, Some(1)], 2).unwrap();
        let h = fg_sparse::DenseMatrix::from_rows(&[vec![0.8, 0.2], vec![0.2, 0.8]]).unwrap();
        let threaded = PropagatorOptions {
            threads: Some(Threads::Fixed(4)),
            ..PropagatorOptions::default()
        };
        for name in PROPAGATORS.names() {
            let serial = PROPAGATORS
                .build(name, &PropagatorOptions::default())
                .unwrap()
                .propagate(&graph, &seeds, &h)
                .unwrap();
            let parallel = PROPAGATORS
                .build(name, &threaded)
                .unwrap()
                .propagate(&graph, &seeds, &h)
                .unwrap();
            assert_eq!(serial.beliefs.data(), parallel.beliefs.data(), "{name}");
            assert_eq!(serial.predictions, parallel.predictions, "{name}");
            assert_eq!(serial.iterations, parallel.iterations, "{name}");
        }
    }

    #[test]
    fn all_propagators_covers_registry() {
        let all = PROPAGATORS.build_all(&PropagatorOptions::default());
        assert_eq!(all.len(), PROPAGATORS.entries().len());
        let names: Vec<String> = all.iter().map(|p| p.name()).collect();
        assert!(names.contains(&"LinBP".to_string()));
        assert!(names.contains(&"LoopyBP".to_string()));
        assert!(names.contains(&"Harmonic".to_string()));
        assert!(names.contains(&"RandomWalk".to_string()));
    }
}
