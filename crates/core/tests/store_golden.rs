//! Golden store records, one per record kind, committed under `tests/golden/`
//! and written by the store code that predates the shared record codec. They
//! pin the on-disk format: each must load bit-exactly through the public API,
//! re-save byte-identically, and reject every truncation and every single-byte
//! corruption with [`CoreError::Store`] — never a panic, never a silent accept.

use fg_core::{CoreError, EstimateKey, FactorKey, GraphKey, Record, SummaryKey, SummaryStore};
use fg_graph::{FactorConfig, Fingerprint, Graph, LowRankFactor};
use fg_sparse::Threads;
use std::fs;

const SUMMARY: &[u8] = include_bytes!("golden/summary.fgsum");
const ESTIMATE: &[u8] = include_bytes!("golden/h.fgh");
const GRAPH: &[u8] = include_bytes!("golden/graph.fgg");
const FACTOR: &[u8] = include_bytes!("golden/factor.fgv");

const GRAPH_SPEC: &str = "Knn(k=2,metric=euclidean,weighting=heat,sym=union)";

fn fresh_store(name: &str) -> SummaryStore {
    let dir = std::env::temp_dir().join(format!("fg_store_golden_{name}"));
    fs::remove_dir_all(&dir).ok();
    SummaryStore::open(dir).unwrap()
}

fn summary_key() -> SummaryKey {
    SummaryKey(
        Fingerprint::from_u128(0xabcd_1234),
        Fingerprint::from_u128(0x5678_def0),
        true,
    )
}

fn estimate_key() -> EstimateKey<'static> {
    EstimateKey(
        Fingerprint::from_u128(0xabcd_1234),
        Fingerprint::from_u128(0x5678_def0),
        "Holdout(b=3)",
    )
}

fn graph_key() -> GraphKey<'static> {
    GraphKey(Fingerprint::from_u128(0xfeed_beef), GRAPH_SPEC, 5)
}

fn factor_graph() -> Graph {
    Graph::from_edges(6, &[(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0), (0, 3)]).unwrap()
}

fn factor_key() -> FactorKey {
    FactorKey(factor_graph().fingerprint(), FactorConfig::with_rank(4))
}

fn bits(values: &[f64]) -> Vec<u64> {
    values.iter().map(|v| v.to_bits()).collect()
}

/// Place `golden` where `key` is stored and load it through the public API.
fn load_golden<R: Record>(store: &SummaryStore, key: &R, golden: &[u8]) -> R::Loaded {
    fs::write(store.path(key), golden).unwrap();
    store.load(key).unwrap().expect("golden record is present")
}

/// Re-save a decoded value into an emptied store; the file must equal the golden.
fn assert_resaves<R: Record>(store: &SummaryStore, key: &R, value: &R::Value, golden: &[u8]) {
    store.clear().unwrap();
    let path = store.save(key, value).unwrap();
    assert!(fs::read(path).unwrap() == golden, "re-saved bytes differ");
}

/// Every truncation and every single-byte XOR flip (each single bit, and all
/// eight at once) must be rejected. FNV-1a changes under any single-byte change,
/// so no flip can slip past the checksum.
fn assert_rejects_every_damage<R: Record>(name: &str, key: &R, golden: &[u8]) {
    let store = fresh_store(name);
    let path = store.path(key);
    let rejected = |bytes: &[u8]| {
        fs::write(&path, bytes).unwrap();
        matches!(store.load(key), Err(CoreError::Store(_)))
    };
    assert!(!rejected(golden), "the intact golden must load");
    for len in 0..golden.len() {
        assert!(
            rejected(&golden[..len]),
            "truncation to {len} bytes accepted"
        );
    }
    let mut damaged = golden.to_vec();
    for at in 0..golden.len() {
        for mask in (0..8).map(|bit| 1u8 << bit).chain([0xff]) {
            damaged[at] ^= mask;
            assert!(rejected(&damaged), "byte {at} ^ {mask:#04x} accepted");
            damaged[at] ^= mask;
        }
    }
    fs::remove_dir_all(store.dir()).ok();
}

#[test]
fn golden_summary_loads_bit_exactly_and_resaves_identically() {
    let store = fresh_store("summary");
    let counts = load_golden(&store, &summary_key(), SUMMARY);
    let expected = [
        vec![1.0, 2.5, 2.5, 0.125],
        vec![-0.0, 1e-300, 3.0, f64::MAX],
    ];
    assert_eq!(counts.len(), expected.len());
    for (m, want) in counts.iter().zip(&expected) {
        assert_eq!(m.shape(), (2, 2));
        assert_eq!(bits(m.data()), bits(want));
    }
    assert_resaves(&store, &summary_key(), &counts, SUMMARY);
    fs::remove_dir_all(store.dir()).ok();
}

#[test]
fn golden_estimate_loads_bit_exactly_and_resaves_identically() {
    let store = fresh_store("estimate");
    let h = load_golden(&store, &estimate_key(), ESTIMATE);
    assert_eq!(h.shape(), (2, 2));
    assert_eq!(bits(h.data()), bits(&[0.75, 0.25, 0.25, 0.75]));
    assert_resaves(&store, &estimate_key(), &h, ESTIMATE);
    fs::remove_dir_all(store.dir()).ok();
}

#[test]
fn golden_graph_loads_bit_exactly_and_resaves_identically() {
    let store = fresh_store("graph");
    let graph = load_golden(&store, &graph_key(), GRAPH);
    let edges = [(0, 1, 0.5), (1, 2, 1.0), (2, 3, 0.125), (3, 4, 1e-300)];
    let built = Graph::from_weighted_edges(5, &edges).unwrap();
    assert_eq!(graph.num_nodes(), 5);
    assert_eq!(graph.num_edges(), 4);
    assert_eq!(graph.fingerprint(), built.fingerprint());
    assert_resaves(&store, &graph_key(), &graph, GRAPH);
    fs::remove_dir_all(store.dir()).ok();
}

#[test]
fn golden_factor_loads_bit_exactly_and_resaves_identically() {
    let store = fresh_store("factor");
    let factor = load_golden(&store, &factor_key(), FACTOR);
    let graph = factor_graph();
    assert_eq!((factor.num_nodes(), factor.rank()), (6, 4));
    assert_eq!(factor.graph_fingerprint(), graph.fingerprint());
    assert_eq!(factor.iterations(), 1);
    assert_eq!(bits(factor.degrees()), bits(&graph.degrees()));
    // The stored eigenvalues agree with a fresh solve.
    let fresh =
        LowRankFactor::compute(&graph, &FactorConfig::with_rank(4), Threads::Serial).unwrap();
    for (stored, solved) in factor.lambda().iter().zip(fresh.lambda()) {
        assert!((stored - solved).abs() < 1e-9, "{stored} vs {solved}");
    }
    assert_eq!(factor.v().shape(), (6, 4));
    assert_resaves(&store, &FactorKey::of(&factor), &factor, FACTOR);
    fs::remove_dir_all(store.dir()).ok();
}

#[test]
fn damaged_golden_records_are_always_rejected() {
    assert_rejects_every_damage("damage_summary", &summary_key(), SUMMARY);
    assert_rejects_every_damage("damage_estimate", &estimate_key(), ESTIMATE);
    assert_rejects_every_damage("damage_graph", &graph_key(), GRAPH);
    assert_rejects_every_damage("damage_factor", &factor_key(), FACTOR);
}
