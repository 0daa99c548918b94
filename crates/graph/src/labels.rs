//! Node labels, seed sets, and label matrices.
//!
//! The estimation pipeline sees labels in two forms: the (unknown) ground-truth labeling
//! of every node, and the *observed* partial labeling of a small seed fraction `f`.
//! The observed labels are encoded as the explicit-belief matrix `X` (`n x k`, one-hot
//! rows for labeled nodes, zero rows otherwise) used by both LinBP and the estimators.

use crate::error::{GraphError, Result};
use crate::fingerprint::{Fingerprint, FingerprintBuilder, RollingFingerprint};
use fg_sparse::DenseMatrix;
use rand::seq::SliceRandom;
use rand::Rng;

/// A complete ground-truth labeling: every node has exactly one class in `0..k`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Labeling {
    labels: Vec<usize>,
    k: usize,
}

impl Labeling {
    /// Create a labeling, validating that every label is `< k`.
    pub fn new(labels: Vec<usize>, k: usize) -> Result<Self> {
        if k == 0 {
            return Err(GraphError::InvalidLabels("k must be positive".into()));
        }
        if let Some(&bad) = labels.iter().find(|&&c| c >= k) {
            return Err(GraphError::InvalidLabels(format!(
                "label {bad} out of range for k = {k}"
            )));
        }
        Ok(Labeling { labels, k })
    }

    /// Number of nodes.
    pub fn n(&self) -> usize {
        self.labels.len()
    }

    /// Number of classes.
    pub fn k(&self) -> usize {
        self.k
    }

    /// The class of node `i`.
    pub fn class_of(&self, i: usize) -> usize {
        self.labels[i]
    }

    /// Borrow the label vector.
    pub fn as_slice(&self) -> &[usize] {
        &self.labels
    }

    /// Count of nodes per class.
    pub fn class_counts(&self) -> Vec<usize> {
        let mut counts = vec![0usize; self.k];
        for &c in &self.labels {
            counts[c] += 1;
        }
        counts
    }

    /// Fraction of nodes per class (the paper's `α`).
    pub fn class_distribution(&self) -> Vec<f64> {
        let n = self.n().max(1) as f64;
        self.class_counts().iter().map(|&c| c as f64 / n).collect()
    }

    /// Indices of all nodes of a given class.
    pub fn nodes_of_class(&self, class: usize) -> Vec<usize> {
        self.labels
            .iter()
            .enumerate()
            .filter(|(_, &c)| c == class)
            .map(|(i, _)| i)
            .collect()
    }

    /// Build the fully-labeled one-hot matrix (every row one-hot). This is what the gold
    /// standard measurement uses.
    pub fn to_full_matrix(&self) -> DenseMatrix {
        let mut x = DenseMatrix::zeros(self.n(), self.k);
        for (i, &c) in self.labels.iter().enumerate() {
            x.set(i, c, 1.0);
        }
        x
    }

    /// Draw a stratified random seed set with overall label fraction `f`: classes are
    /// sampled in proportion to their frequencies (Section 5, "Quality assessment").
    /// At least one node per class is kept whenever the class is non-empty and
    /// `f > 0`, so the estimators always see every class at least once.
    pub fn stratified_sample<R: Rng + ?Sized>(&self, f: f64, rng: &mut R) -> SeedLabels {
        let mut observed = vec![None; self.n()];
        if f <= 0.0 {
            return SeedLabels::new(observed, self.k).expect("valid by construction");
        }
        for class in 0..self.k {
            let mut members = self.nodes_of_class(class);
            if members.is_empty() {
                continue;
            }
            members.shuffle(rng);
            let take = ((members.len() as f64 * f).round() as usize)
                .max(1)
                .min(members.len());
            for &node in members.iter().take(take) {
                observed[node] = Some(class);
            }
        }
        SeedLabels::new(observed, self.k).expect("valid by construction")
    }
}

/// Hash one `(node, label)` seed observation into an independent element
/// [`Fingerprint`] for the commutative rolling reduction (domain tag
/// `fg-seed-pair-v2`).
fn seed_pair_hash(node: usize, label: usize) -> Fingerprint {
    let mut h = FingerprintBuilder::new(b"fg-seed-pair-v2");
    h.write_usize(node);
    h.write_usize(label);
    h.finish()
}

/// Accumulate every labeled `(node, label)` pair of `observed` into a fresh rolling
/// accumulator — the O(n) from-scratch derivation the rolling scheme avoids on the
/// warm path.
fn rolling_from_observed(observed: &[Option<usize>]) -> RollingFingerprint {
    let mut rolling = RollingFingerprint::new();
    for (node, observed) in observed.iter().enumerate() {
        if let Some(c) = observed {
            rolling.add(seed_pair_hash(node, *c));
        }
    }
    rolling
}

/// A partial labeling: the seed labels visible to the estimation and propagation steps.
///
/// The seed-set [`fingerprint`](Self::fingerprint) is maintained *rolling*: a
/// commutative [`RollingFingerprint`] over per-`(node, label)` hashes is updated in
/// O(1) by every [`set_label`](Self::set_label) call, so serving layers that
/// fingerprint the seed set on every request never pay the O(n) re-derivation.
/// Equality compares the observations (the rolling state is a pure function of
/// them).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SeedLabels {
    observed: Vec<Option<usize>>,
    k: usize,
    /// Commutative accumulator over `seed_pair_hash(node, label)` for every labeled
    /// node — always equal to `rolling_from_observed(&self.observed)`.
    rolling: RollingFingerprint,
}

impl SeedLabels {
    /// Create a seed set, validating that every present label is `< k`.
    pub fn new(observed: Vec<Option<usize>>, k: usize) -> Result<Self> {
        if k == 0 {
            return Err(GraphError::InvalidLabels("k must be positive".into()));
        }
        if let Some(bad) = observed.iter().flatten().find(|&&c| c >= k) {
            return Err(GraphError::InvalidLabels(format!(
                "seed label {bad} out of range for k = {k}"
            )));
        }
        Ok(Self::from_observed(observed, k))
    }

    /// Build from observations already known to be valid, initializing the rolling
    /// fingerprint state (the one O(n) pass a seed set ever needs).
    fn from_observed(observed: Vec<Option<usize>>, k: usize) -> Self {
        let rolling = rolling_from_observed(&observed);
        SeedLabels {
            observed,
            k,
            rolling,
        }
    }

    /// Create a seed set that reveals every label of a full labeling (f = 1).
    pub fn fully_labeled(labeling: &Labeling) -> Self {
        Self::from_observed(
            labeling.as_slice().iter().map(|&c| Some(c)).collect(),
            labeling.k(),
        )
    }

    /// Number of nodes.
    pub fn n(&self) -> usize {
        self.observed.len()
    }

    /// Number of classes.
    pub fn k(&self) -> usize {
        self.k
    }

    /// The observed class of node `i`, if labeled.
    pub fn get(&self, i: usize) -> Option<usize> {
        self.observed[i]
    }

    /// Borrow the observation vector.
    pub fn as_slice(&self) -> &[Option<usize>] {
        &self.observed
    }

    /// Number of labeled nodes.
    pub fn num_labeled(&self) -> usize {
        self.observed.iter().filter(|o| o.is_some()).count()
    }

    /// The realized label fraction `f`.
    pub fn label_fraction(&self) -> f64 {
        if self.observed.is_empty() {
            0.0
        } else {
            self.num_labeled() as f64 / self.observed.len() as f64
        }
    }

    /// Indices of labeled nodes.
    pub fn labeled_nodes(&self) -> Vec<usize> {
        self.observed
            .iter()
            .enumerate()
            .filter(|(_, o)| o.is_some())
            .map(|(i, _)| i)
            .collect()
    }

    /// Indices of unlabeled nodes.
    pub fn unlabeled_nodes(&self) -> Vec<usize> {
        self.observed
            .iter()
            .enumerate()
            .filter(|(_, o)| o.is_none())
            .map(|(i, _)| i)
            .collect()
    }

    /// Per-class counts over the labeled nodes only.
    pub fn class_counts(&self) -> Vec<usize> {
        let mut counts = vec![0usize; self.k];
        for c in self.observed.iter().flatten() {
            counts[*c] += 1;
        }
        counts
    }

    /// Build the explicit-belief matrix `X` (`n x k`): one-hot rows for labeled nodes,
    /// all-zero rows for unlabeled nodes.
    pub fn to_matrix(&self) -> DenseMatrix {
        let mut x = DenseMatrix::zeros(self.n(), self.k);
        for (i, o) in self.observed.iter().enumerate() {
            if let Some(c) = o {
                x.set(i, *c, 1.0);
            }
        }
        x
    }

    /// Split the labeled nodes into `b` (seed, holdout) partitions for the Holdout
    /// baseline (Section 4.1). The labeled nodes are divided into `max(b, 2)` folds;
    /// partition `q` holds out fold `q` and keeps the remaining folds as seeds, so even
    /// `b = 1` produces a proper split rather than an empty seed set.
    pub fn holdout_partitions(&self, b: usize) -> Vec<(SeedLabels, SeedLabels)> {
        let b = b.max(1);
        let folds = b.max(2);
        let labeled = self.labeled_nodes();
        let mut partitions = Vec::with_capacity(b);
        for q in 0..b {
            let mut seed = vec![None; self.n()];
            let mut holdout = vec![None; self.n()];
            for (pos, &node) in labeled.iter().enumerate() {
                let class = self.observed[node];
                if pos % folds == q {
                    holdout[node] = class;
                } else {
                    seed[node] = class;
                }
            }
            partitions.push((
                SeedLabels::new(seed, self.k).expect("valid by construction"),
                SeedLabels::new(holdout, self.k).expect("valid by construction"),
            ));
        }
        partitions
    }

    /// Deterministic [`Fingerprint`] of this seed set: a 128-bit content hash over
    /// `n`, `k`, and the order-independent commutative reduction of every
    /// `(node id, observed label)` pair hash (domain tag `fg-seed-labels-v2`).
    ///
    /// Two independently loaded copies of the same seed file share one fingerprint;
    /// adding, removing, moving, or relabeling any seed changes it (up to 128-bit
    /// hash collisions). **O(1)**: the pair-hash reduction is maintained rolling by
    /// [`set_label`](Self::set_label), so per-request fingerprinting in the serving
    /// layer costs a constant-size finishing hash, never an O(n) scan.
    /// [`fingerprint_from_scratch`](Self::fingerprint_from_scratch) is the O(n)
    /// re-derivation the property tests check this against.
    pub fn fingerprint(&self) -> Fingerprint {
        Self::finish_fingerprint(self.n(), self.k, self.rolling)
    }

    /// The same fingerprint as [`fingerprint`](Self::fingerprint), re-derived with a
    /// full O(n) pass over the observations instead of the maintained rolling state.
    ///
    /// Exists as the equality oracle for the rolling scheme: after *any* interleaving
    /// of [`set_label`](Self::set_label) mutations, both methods return identical
    /// fingerprints.
    pub fn fingerprint_from_scratch(&self) -> Fingerprint {
        Self::finish_fingerprint(self.n(), self.k, rolling_from_observed(&self.observed))
    }

    /// Finish a seed-set fingerprint from its maintained (or re-derived) rolling
    /// state: a constant-size domain-tagged stream over `n`, `k`, and the
    /// accumulator's `(count, sum)`.
    fn finish_fingerprint(n: usize, k: usize, rolling: RollingFingerprint) -> Fingerprint {
        let mut h = FingerprintBuilder::new(b"fg-seed-labels-v2");
        // An always-empty key field, kept so fingerprints (and the store file
        // names derived from them) stay unchanged.
        h.write_usize(0);
        h.write_usize(n);
        h.write_usize(k);
        h.write_u64(rolling.len());
        let sum = rolling.value();
        h.write_u64(sum as u64);
        h.write_u64((sum >> 64) as u64);
        h.finish()
    }

    /// Set (or clear) the observed label of one node, returning the previous value.
    ///
    /// This is the mutation primitive behind the online-serving layer: streaming
    /// workloads adjust a handful of seeds between queries instead of rebuilding the
    /// whole seed set. The rolling [`fingerprint`](Self::fingerprint) state is
    /// updated in **O(1)** — the old pair hash is subtracted and the new one added
    /// under the commutative reduction — so after any sequence of `set_label` calls
    /// the fingerprint equals that of a seed set freshly constructed with the same
    /// observations.
    pub fn set_label(&mut self, node: usize, label: Option<usize>) -> Result<Option<usize>> {
        if node >= self.observed.len() {
            return Err(GraphError::InvalidLabels(format!(
                "node {node} out of range for n = {}",
                self.observed.len()
            )));
        }
        if let Some(c) = label {
            if c >= self.k {
                return Err(GraphError::InvalidLabels(format!(
                    "seed label {c} out of range for k = {}",
                    self.k
                )));
            }
        }
        let previous = std::mem::replace(&mut self.observed[node], label);
        if let Some(c) = previous {
            self.rolling.remove(seed_pair_hash(node, c));
        }
        if let Some(c) = label {
            self.rolling.add(seed_pair_hash(node, c));
        }
        Ok(previous)
    }

    /// Restrict this seed set to a subset of nodes (everything else becomes unlabeled).
    pub fn restricted_to(&self, nodes: &[usize]) -> SeedLabels {
        let mut observed = vec![None; self.n()];
        for &i in nodes {
            observed[i] = self.observed[i];
        }
        Self::from_observed(observed, self.k)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn sample_labeling() -> Labeling {
        Labeling::new(vec![0, 0, 1, 1, 2, 2, 0, 1, 2, 0], 3).unwrap()
    }

    #[test]
    fn labeling_validation() {
        assert!(Labeling::new(vec![0, 1, 2], 3).is_ok());
        assert!(Labeling::new(vec![0, 3], 3).is_err());
        assert!(Labeling::new(vec![], 0).is_err());
    }

    #[test]
    fn class_counts_and_distribution() {
        let l = sample_labeling();
        assert_eq!(l.class_counts(), vec![4, 3, 3]);
        let dist = l.class_distribution();
        assert!((dist[0] - 0.4).abs() < 1e-12);
        assert!((dist.iter().sum::<f64>() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn nodes_of_class_returns_members() {
        let l = sample_labeling();
        assert_eq!(l.nodes_of_class(2), vec![4, 5, 8]);
    }

    #[test]
    fn full_matrix_is_one_hot() {
        let l = sample_labeling();
        let x = l.to_full_matrix();
        assert_eq!(x.shape(), (10, 3));
        for i in 0..10 {
            assert!((x.row(i).iter().sum::<f64>() - 1.0).abs() < 1e-12);
            assert_eq!(x.get(i, l.class_of(i)), 1.0);
        }
    }

    #[test]
    fn stratified_sample_respects_fraction_and_classes() {
        let l = sample_labeling();
        let mut rng = StdRng::seed_from_u64(42);
        let seeds = l.stratified_sample(0.5, &mut rng);
        // roughly half per class (rounded), and at least one per class
        let counts = seeds.class_counts();
        assert!(counts.iter().all(|&c| c >= 1));
        assert_eq!(seeds.num_labeled(), counts.iter().sum::<usize>());
        assert!(seeds.label_fraction() > 0.3 && seeds.label_fraction() < 0.7);
        // all observed labels agree with the ground truth
        for (i, o) in seeds.as_slice().iter().enumerate() {
            if let Some(c) = o {
                assert_eq!(*c, l.class_of(i));
            }
        }
    }

    #[test]
    fn stratified_sample_zero_fraction_is_empty() {
        let l = sample_labeling();
        let mut rng = StdRng::seed_from_u64(1);
        let seeds = l.stratified_sample(0.0, &mut rng);
        assert_eq!(seeds.num_labeled(), 0);
    }

    #[test]
    fn stratified_sample_keeps_at_least_one_per_class() {
        let l = sample_labeling();
        let mut rng = StdRng::seed_from_u64(7);
        let seeds = l.stratified_sample(0.01, &mut rng);
        assert_eq!(seeds.num_labeled(), 3); // one per class
    }

    #[test]
    fn seed_labels_validation() {
        assert!(SeedLabels::new(vec![Some(0), None], 1).is_ok());
        assert!(SeedLabels::new(vec![Some(1)], 1).is_err());
        assert!(SeedLabels::new(vec![], 0).is_err());
    }

    #[test]
    fn fully_labeled_matches_ground_truth() {
        let l = sample_labeling();
        let seeds = SeedLabels::fully_labeled(&l);
        assert_eq!(seeds.num_labeled(), l.n());
        assert!((seeds.label_fraction() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn to_matrix_has_zero_rows_for_unlabeled() {
        let seeds = SeedLabels::new(vec![Some(1), None, Some(0)], 2).unwrap();
        let x = seeds.to_matrix();
        assert_eq!(x.get(0, 1), 1.0);
        assert_eq!(x.row(1), &[0.0, 0.0]);
        assert_eq!(x.get(2, 0), 1.0);
    }

    #[test]
    fn labeled_and_unlabeled_partition() {
        let seeds = SeedLabels::new(vec![Some(1), None, Some(0), None], 2).unwrap();
        assert_eq!(seeds.labeled_nodes(), vec![0, 2]);
        assert_eq!(seeds.unlabeled_nodes(), vec![1, 3]);
    }

    #[test]
    fn holdout_partitions_are_disjoint_and_cover() {
        let l = sample_labeling();
        let seeds = SeedLabels::fully_labeled(&l);
        let parts = seeds.holdout_partitions(3);
        assert_eq!(parts.len(), 3);
        for (seed, holdout) in &parts {
            // disjoint
            for i in 0..seeds.n() {
                assert!(!(seed.get(i).is_some() && holdout.get(i).is_some()));
            }
            // together they cover all labeled nodes
            assert_eq!(
                seed.num_labeled() + holdout.num_labeled(),
                seeds.num_labeled()
            );
            assert!(holdout.num_labeled() > 0);
        }
    }

    #[test]
    fn holdout_partition_b1_is_a_proper_split() {
        let l = sample_labeling();
        let seeds = SeedLabels::fully_labeled(&l);
        let parts = seeds.holdout_partitions(1);
        assert_eq!(parts.len(), 1);
        let (seed, holdout) = &parts[0];
        assert!(seed.num_labeled() > 0);
        assert!(holdout.num_labeled() > 0);
        assert_eq!(
            seed.num_labeled() + holdout.num_labeled(),
            seeds.num_labeled()
        );
    }

    #[test]
    fn seed_fingerprints_follow_content_not_identity() {
        let a = SeedLabels::new(vec![Some(1), None, Some(0)], 2).unwrap();
        let b = SeedLabels::new(vec![Some(1), None, Some(0)], 2).unwrap();
        assert_eq!(a.fingerprint(), b.fingerprint());
        // Relabeling, moving, or dropping a seed changes the fingerprint.
        let relabeled = SeedLabels::new(vec![Some(0), None, Some(0)], 2).unwrap();
        assert_ne!(relabeled.fingerprint(), a.fingerprint());
        let moved = SeedLabels::new(vec![None, Some(1), Some(0)], 2).unwrap();
        assert_ne!(moved.fingerprint(), a.fingerprint());
        let dropped = SeedLabels::new(vec![Some(1), None, None], 2).unwrap();
        assert_ne!(dropped.fingerprint(), a.fingerprint());
        // Same observations under a different k are a different seed set.
        let wider = SeedLabels::new(vec![Some(1), None, Some(0)], 3).unwrap();
        assert_ne!(wider.fingerprint(), a.fingerprint());
        // n matters even when the extra nodes are unlabeled.
        let longer = SeedLabels::new(vec![Some(1), None, Some(0), None], 2).unwrap();
        assert_ne!(longer.fingerprint(), a.fingerprint());
    }

    #[test]
    fn set_label_mutates_and_tracks_fingerprint() {
        let mut seeds = SeedLabels::new(vec![Some(1), None, Some(0)], 2).unwrap();
        assert_eq!(seeds.set_label(1, Some(0)).unwrap(), None);
        assert_eq!(seeds.get(1), Some(0));
        assert_eq!(seeds.set_label(0, None).unwrap(), Some(1));
        assert_eq!(seeds.num_labeled(), 2);
        // The mutated set fingerprints exactly like a freshly built equal set.
        let rebuilt = SeedLabels::new(vec![None, Some(0), Some(0)], 2).unwrap();
        assert_eq!(seeds.fingerprint(), rebuilt.fingerprint());
        // Bounds and label ranges are validated; errors leave the set unchanged.
        assert!(seeds.set_label(9, Some(0)).is_err());
        assert!(seeds.set_label(0, Some(5)).is_err());
        assert_eq!(seeds.fingerprint(), rebuilt.fingerprint());
    }

    #[test]
    fn rolling_fingerprint_matches_from_scratch_under_random_interleavings() {
        // Property-style: arbitrary interleavings of add / remove / relabel keep the
        // O(1) rolling fingerprint equal to the O(n) from-scratch derivation and to
        // the fingerprint of a freshly constructed equal seed set.
        let n = 64;
        let k = 4;
        for trial in 0..20u64 {
            let mut rng = StdRng::seed_from_u64(1000 + trial);
            let mut seeds = SeedLabels::new(vec![None; n], k).unwrap();
            for _ in 0..200 {
                let node = rng.gen_index(n);
                // ~1/3 removals, ~2/3 adds/relabels (including no-op rewrites).
                let label = match rng.gen_index(3) {
                    0 => None,
                    _ => Some(rng.gen_index(k)),
                };
                seeds.set_label(node, label).unwrap();
                assert_eq!(seeds.fingerprint(), seeds.fingerprint_from_scratch());
            }
            let rebuilt = SeedLabels::new(seeds.as_slice().to_vec(), k).unwrap();
            assert_eq!(seeds.fingerprint(), rebuilt.fingerprint());
        }
    }

    #[test]
    fn restricted_to_subset() {
        let seeds = SeedLabels::new(vec![Some(1), Some(0), Some(1)], 2).unwrap();
        let r = seeds.restricted_to(&[0, 2]);
        assert_eq!(r.get(0), Some(1));
        assert_eq!(r.get(1), None);
        assert_eq!(r.get(2), Some(1));
    }
}
