//! Persistent, content-addressed storage for factorized graph summaries.
//!
//! The raw path-count matrices (`k x k` per length, ℓmax of them) are tiny compared
//! to the `O(m·k·ℓmax)` work of computing them, so the [`SummaryStore`] persists them
//! to disk keyed by the *content* of their inputs — the
//! [`Fingerprint`]s of the graph and seed set plus the counting mode. A second
//! process (or a later `fg` invocation) that loads the same dataset recomputes the
//! fingerprints, finds the file, and skips summarization entirely; the
//! [`EstimationContext`](crate::EstimationContext) uses the store as a
//! read-through / write-back tier below its in-memory cache. The same directory
//! also holds estimated `H` matrices, constructed graphs and low-rank factors.
//!
//! # Record envelope (version 1)
//!
//! Every record is one file, framed the same way; integers and floats are
//! little-endian and every `f64` is stored as its exact bit pattern, so a loaded
//! record is **bit-identical** to the value that was saved — the store never
//! changes a result, only whether it is recomputed.
//!
//! | field    | size     | content                                              |
//! |----------|----------|------------------------------------------------------|
//! | magic    | 6 bytes  | the kind's magic (table below)                       |
//! | version  | `u16`    | `1`                                                  |
//! | header   | per kind | the kind's key and shape fields                      |
//! | payload  | per kind | the kind's values; the header fixes its length       |
//! | checksum | `u128`   | FNV-1a 128 over every preceding byte, seeded with the kind's domain tag |
//!
//! | kind     | magic    | file name                                    | checksum domain       |
//! |----------|----------|----------------------------------------------|-----------------------|
//! | summary  | `FGSUMM` | `<graph_fp>-<seed_fp>-<nb or all>.fgsum`     | `fg-summary-store-v1` |
//! | `H`      | `FGHEST` | `<graph_fp>-<seed_fp>-<name digest>.fgh`     | `fg-h-store-v1`       |
//! | graph    | `FGGRPH` | `<features_fp>-<spec digest>.fgg`            | `fg-graph-store-v1`   |
//! | factor   | `FGVFAC` | `<graph_fp>-<factor_fp>.fgv`                 | `fg-v-store-v1`       |
//!
//! Names and specs carry characters that are awkward in file names, so the file
//! name holds only a digest; the full string is embedded in the header and
//! validated on load. Each kind's header and payload, in order:
//!
//! **Summary** (`.fgsum`, one per `(graph, seeds, counting mode)`):
//!
//! | field    | size          | content                                          |
//! |----------|---------------|--------------------------------------------------|
//! | graph_fp | `u128`        | [`Graph::fingerprint`]                           |
//! | seed_fp  | `u128`        | [`SeedLabels::fingerprint`](fg_graph::SeedLabels::fingerprint) |
//! | mode     | `u8`          | `1` = non-backtracking counts, `0` = plain paths |
//! | k        | `u32`         | number of classes                                |
//! | lmax     | `u32`         | number of stored lengths                         |
//! | counts   | `lmax·k²` f64 | `M(1)..M(lmax)`, row-major                       |
//!
//! **Estimated `H`** (`.fgh`, one per `(graph, seeds, estimator name)`):
//!
//! | field    | size       | content                                        |
//! |----------|------------|------------------------------------------------|
//! | graph_fp | `u128`     | graph fingerprint                              |
//! | seed_fp  | `u128`     | seed-set fingerprint                           |
//! | name_len | `u32`      | byte length of the estimator name              |
//! | k        | `u32`      | number of classes                              |
//! | name     | `name_len` | the parameterized estimator name, UTF-8        |
//! | h        | `k²` f64   | the estimate, row-major                        |
//!
//! **Constructed graph** (`.fgg`, one per `(feature matrix, builder spec)`):
//!
//! | field       | size         | content                                       |
//! |-------------|--------------|-----------------------------------------------|
//! | features_fp | `u128`       | the feature matrix's content fingerprint      |
//! | name_len    | `u32`        | byte length of the builder spec               |
//! | nodes       | `u64`        | node count                                    |
//! | edges       | `u64`        | undirected edge count `m`                     |
//! | spec        | `name_len`   | the parameterized builder spec, UTF-8         |
//! | edge list   | `m·24` bytes | sorted `(u: u64, v: u64, weight: f64)` triples |
//!
//! **Low-rank factor** (`.fgv`, one per `(graph, factor config)`; the factor
//! fingerprint folds in the rank and every solver parameter):
//!
//! | field      | size      | content                                       |
//! |------------|-----------|-----------------------------------------------|
//! | graph_fp   | `u128`    | graph fingerprint                             |
//! | factor_fp  | `u128`    | [`fg_graph::factor_fingerprint`]              |
//! | rank       | `u32`     | retained rank `r`                             |
//! | max_iter   | `u64`     | eigensolver iteration budget                  |
//! | tol        | `f64`     | eigensolver tolerance                         |
//! | seed       | `u64`     | eigensolver starting-block seed               |
//! | nodes      | `u64`     | node count `n`                                |
//! | iterations | `u64`     | subspace-iteration rounds the solve used      |
//! | V          | `n·r` f64 | eigenvector block, row-major                  |
//! | lambda     | `r` f64   | eigenvalues, magnitude-descending             |
//! | G          | `r²` f64  | projected degree correction `Vᵀ(D−I)V`        |
//! | degrees    | `n` f64   | per-node weighted degrees                     |
//!
//! # Failure policy
//!
//! Corrupt or mismatched files (wrong magic or version, a payload length that
//! disagrees with — or overflows — the header, failed checksum, embedded key
//! fields that disagree with the request) are *rejected loudly*:
//! [`SummaryStore::load`] returns [`CoreError::Store`] instead of silently serving
//! bad data. The [`EstimationContext`](crate::EstimationContext) reacts by warning
//! on stderr, recomputing from scratch, and overwriting the bad file — a damaged
//! cache can cost time, never correctness.

use crate::error::{CoreError, Result};
use fg_graph::{
    factor_fingerprint, FactorConfig, Fingerprint, FingerprintBuilder, Graph, LowRankFactor,
};
use fg_sparse::DenseMatrix;
use std::fs;
use std::io::ErrorKind;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

/// Trailing checksum size.
const CHECKSUM_LEN: usize = 16;
/// Per-process counter disambiguating concurrent temp-file writes (see
/// [`SummaryStore::save`]).
static TMP_COUNTER: AtomicU64 = AtomicU64::new(0);

/// The framing of one record kind: what the shared envelope writes around the
/// kind's header and payload.
#[derive(Debug)]
pub struct RecordKind {
    magic: &'static [u8; 6],
    version: u16,
    /// File extension, without the dot.
    extension: &'static str,
    /// Domain tag of the checksum, separating it from every other hash.
    domain: &'static [u8],
}

impl RecordKind {
    const fn v1(magic: &'static [u8; 6], extension: &'static str, domain: &'static [u8]) -> Self {
        RecordKind {
            magic,
            version: 1,
            extension,
            domain,
        }
    }

    fn checksum(&self, bytes: &[u8]) -> [u8; CHECKSUM_LEN] {
        FingerprintBuilder::new(self.domain)
            .write_bytes(bytes)
            .finish()
            .as_u128()
            .to_le_bytes()
    }
}

/// One record kind of the store, implemented on the kind's lookup key. An impl
/// encodes and decodes only its own header and payload and checks its own
/// embedded key; [`SummaryStore::save`] / [`load`](SummaryStore::load) /
/// [`remove`](SummaryStore::remove) do the rest.
pub trait Record {
    /// What [`SummaryStore::save`] persists under this key.
    type Value: ?Sized;
    /// What [`SummaryStore::load`] returns for this key.
    type Loaded;
    /// The kind's parsed header.
    type Meta;
    /// The kind's framing.
    const KIND: RecordKind;
    /// How [`SummaryStore::entries`] lists the kind's header.
    const ENTRY: fn(Self::Meta) -> EntryMeta;

    /// File name of this key's record, without directory or extension.
    fn file_stem(&self) -> String;

    /// Append this key's header fields and `value`'s payload (the envelope adds
    /// magic, version and checksum), or refuse a value that cannot be persisted.
    fn encode(&self, value: &Self::Value, out: &mut Vec<u8>) -> Result<()>;

    /// Read the kind's header fields; returns them with the payload byte length
    /// they declare.
    fn read_header(r: &mut HeaderReader<'_>) -> HeaderResult<Self::Meta>;

    /// Check a checksum-verified header against this key, then decode the payload
    /// (already known to have the declared length).
    fn decode(&self, meta: Self::Meta, payload: &[u8]) -> DecodeResult<Self::Loaded>;
}

/// A parsed header plus the payload length it declares, or why it is corrupt.
pub type HeaderResult<M> = std::result::Result<(M, usize), &'static str>;
/// A decoded record, or why it is rejected.
pub type DecodeResult<T> = std::result::Result<T, String>;

/// Bounds-checked cursor over a record's bytes: a short file is an error, never
/// a panic.
#[derive(Debug)]
pub struct HeaderReader<'a> {
    bytes: &'a [u8],
    at: usize,
}

impl<'a> HeaderReader<'a> {
    fn take(&mut self, n: usize) -> std::result::Result<&'a [u8], &'static str> {
        let end = self
            .at
            .checked_add(n)
            .filter(|&end| end <= self.bytes.len())
            .ok_or("file too short for its header")?;
        let out = &self.bytes[self.at..end];
        self.at = end;
        Ok(out)
    }

    fn array<const N: usize>(&mut self) -> std::result::Result<[u8; N], &'static str> {
        Ok(self.take(N)?.try_into().expect("N bytes"))
    }

    fn u32(&mut self) -> std::result::Result<usize, &'static str> {
        Ok(u32::from_le_bytes(self.array()?) as usize)
    }

    fn u64(&mut self) -> std::result::Result<usize, &'static str> {
        Ok(u64::from_le_bytes(self.array()?) as usize)
    }

    fn fingerprint(&mut self) -> std::result::Result<Fingerprint, &'static str> {
        Ok(Fingerprint::from_u128(u128::from_le_bytes(self.array()?)))
    }

    fn utf8(&mut self, len: usize) -> std::result::Result<String, &'static str> {
        let bytes = self.take(len)?;
        std::str::from_utf8(bytes)
            .map(str::to_owned)
            .map_err(|_| "embedded name is not valid UTF-8")
    }
}

/// Byte length of a payload of `width`-byte items, one term per product of
/// dimensions, checked so a crafted header can never wrap it.
fn payload_bytes(width: usize, terms: &[&[usize]]) -> std::result::Result<usize, &'static str> {
    terms
        .iter()
        .try_fold(0usize, |sum, dims| {
            let term = dims.iter().try_fold(width, |acc, &d| acc.checked_mul(d))?;
            sum.checked_add(term)
        })
        .ok_or("header declares an oversized payload")
}

fn put_fingerprint(out: &mut Vec<u8>, fp: Fingerprint) {
    out.extend_from_slice(&fp.as_u128().to_le_bytes());
}

fn put_f64s(out: &mut Vec<u8>, values: &[f64]) {
    for v in values {
        out.extend_from_slice(&v.to_bits().to_le_bytes());
    }
}

fn f64_at(bytes: &[u8]) -> f64 {
    f64::from_bits(u64::from_le_bytes(bytes[..8].try_into().expect("8 bytes")))
}

fn f64s(payload: &[u8]) -> Vec<f64> {
    payload.chunks_exact(8).map(f64_at).collect()
}

/// The `u32` length field of an embedded key name, which must be non-empty.
fn name_len(name: &str, what: &str) -> Result<u32> {
    u32::try_from(name.len())
        .ok()
        .filter(|&len| len > 0)
        .ok_or_else(|| {
            CoreError::Store(format!("{what} must be non-empty to key a persisted entry"))
        })
}

/// Hex digest of an estimator name or builder spec, used only for file naming
/// (the authoritative name is embedded in the entry and validated on load).
fn name_digest(name: &str) -> String {
    FingerprintBuilder::new(b"fg-h-store-name-v1")
        .write_bytes(name.as_bytes())
        .finish()
        .to_hex()
}

/// Parse a record's framing and header: returns the header and the payload.
/// The checksum is not verified here (listings read headers only).
fn open_envelope<R: Record>(bytes: &[u8]) -> std::result::Result<(R::Meta, &[u8]), &'static str> {
    let body = &bytes[..bytes.len().saturating_sub(CHECKSUM_LEN)];
    let mut r = HeaderReader { bytes: body, at: 0 };
    if r.take(6)? != R::KIND.magic {
        return Err("bad magic bytes");
    }
    if u16::from_le_bytes(r.array()?) != R::KIND.version {
        return Err("unsupported format version");
    }
    let (meta, payload_len) = R::read_header(&mut r)?;
    let payload = &body[r.at..];
    if payload.len() != payload_len {
        return Err("payload length disagrees with header");
    }
    Ok((meta, payload))
}

fn decode_record<R: Record>(key: &R, bytes: &[u8]) -> DecodeResult<R::Loaded> {
    let (meta, payload) = open_envelope::<R>(bytes)?;
    let (body, checksum) = bytes.split_at(bytes.len() - CHECKSUM_LEN);
    if R::KIND.checksum(body) != checksum {
        return Err("checksum mismatch".into());
    }
    key.decode(meta, payload)
}

fn list_meta<R: Record>(bytes: &[u8]) -> Option<EntryMeta> {
    open_envelope::<R>(bytes)
        .ok()
        .map(|(meta, _)| R::ENTRY(meta))
}

/// Parses one kind's header for [`SummaryStore::entries`].
type ListHeader = fn(&[u8]) -> Option<EntryMeta>;

/// Every record kind: its file extension and how to list its header.
const KINDS: [(&str, ListHeader); 4] = [
    (SummaryKey::KIND.extension, list_meta::<SummaryKey>),
    (EstimateKey::KIND.extension, list_meta::<EstimateKey>),
    (GraphKey::KIND.extension, list_meta::<GraphKey>),
    (FactorKey::KIND.extension, list_meta::<FactorKey>),
];

/// Key of a persisted summary, `SummaryKey(graph_fp, seed_fp, non_backtracking)`:
/// the raw counts of one graph under one seed set in one counting mode.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SummaryKey(pub Fingerprint, pub Fingerprint, pub bool);

/// Parsed header of a stored summary.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SummaryMeta {
    /// Fingerprint of the summarized graph.
    pub graph_fp: Fingerprint,
    /// Fingerprint of the seed set.
    pub seed_fp: Fingerprint,
    /// Whether the counts are non-backtracking.
    pub non_backtracking: bool,
    /// Number of classes.
    pub k: usize,
    /// Number of stored path lengths.
    pub max_length: usize,
}

impl Record for SummaryKey {
    /// The count matrices `M(1)..M(lmax)`, all `k x k`.
    type Value = [DenseMatrix];
    type Loaded = Vec<DenseMatrix>;
    type Meta = SummaryMeta;
    const KIND: RecordKind = RecordKind::v1(b"FGSUMM", "fgsum", b"fg-summary-store-v1");
    const ENTRY: fn(SummaryMeta) -> EntryMeta = EntryMeta::Summary;

    fn file_stem(&self) -> String {
        let mode = if self.2 { "nb" } else { "all" };
        format!("{}-{}-{mode}", self.0.to_hex(), self.1.to_hex())
    }

    fn encode(&self, counts: &[DenseMatrix], out: &mut Vec<u8>) -> Result<()> {
        let k = counts.first().map_or(0, DenseMatrix::rows);
        if k == 0 || counts.iter().any(|m| m.shape() != (k, k)) {
            return Err(CoreError::Store(
                "refusing to persist an empty or non-square summary".into(),
            ));
        }
        put_fingerprint(out, self.0);
        put_fingerprint(out, self.1);
        out.push(u8::from(self.2));
        out.extend_from_slice(&(k as u32).to_le_bytes());
        out.extend_from_slice(&(counts.len() as u32).to_le_bytes());
        for m in counts {
            put_f64s(out, m.data());
        }
        Ok(())
    }

    fn read_header(r: &mut HeaderReader<'_>) -> HeaderResult<SummaryMeta> {
        let graph_fp = r.fingerprint()?;
        let seed_fp = r.fingerprint()?;
        let non_backtracking = match r.array::<1>()? {
            [0] => false,
            [1] => true,
            _ => return Err("invalid counting-mode byte"),
        };
        let k = r.u32()?;
        let max_length = r.u32()?;
        if k == 0 || max_length == 0 {
            return Err("header declares an empty summary");
        }
        let payload = payload_bytes(8, &[&[max_length, k, k]])?;
        let meta = SummaryMeta {
            graph_fp,
            seed_fp,
            non_backtracking,
            k,
            max_length,
        };
        Ok((meta, payload))
    }

    fn decode(&self, meta: SummaryMeta, payload: &[u8]) -> DecodeResult<Vec<DenseMatrix>> {
        if meta.graph_fp != self.0 || meta.seed_fp != self.1 {
            return Err("embedded fingerprints do not match the requested graph/seeds".into());
        }
        if meta.non_backtracking != self.2 {
            return Err("embedded counting mode does not match".into());
        }
        let k = meta.k;
        payload
            .chunks_exact(k * k * 8)
            .map(|m| {
                DenseMatrix::from_vec(k, k, f64s(m)).map_err(|e| format!("invalid matrix: {e}"))
            })
            .collect()
    }
}

/// Key of a persisted *estimated compatibility matrix*,
/// `EstimateKey(graph_fp, seed_fp, estimator)`. The parameterized estimator name
/// (e.g. `DCEr(r=10,l=5,lambda=10)`) is part of the key, since different
/// estimators yield different matrices.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EstimateKey<'a>(pub Fingerprint, pub Fingerprint, pub &'a str);

/// Parsed header of a persisted `H` estimate.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EstimateMeta {
    /// Fingerprint of the graph the estimate was computed on.
    pub graph_fp: Fingerprint,
    /// Fingerprint of the seed set the estimate was computed from.
    pub seed_fp: Fingerprint,
    /// The parameterized estimator name.
    pub estimator: String,
    /// Number of classes (`H` is `k x k`).
    pub k: usize,
}

impl Record for EstimateKey<'_> {
    /// The estimate `H`, square and non-empty.
    type Value = DenseMatrix;
    type Loaded = DenseMatrix;
    type Meta = EstimateMeta;
    const KIND: RecordKind = RecordKind::v1(b"FGHEST", "fgh", b"fg-h-store-v1");
    const ENTRY: fn(EstimateMeta) -> EntryMeta = EntryMeta::Estimate;

    fn file_stem(&self) -> String {
        format!(
            "{}-{}-{}",
            self.0.to_hex(),
            self.1.to_hex(),
            name_digest(self.2)
        )
    }

    fn encode(&self, h: &DenseMatrix, out: &mut Vec<u8>) -> Result<()> {
        let k = h.rows();
        if k == 0 || h.cols() != k {
            return Err(CoreError::Store(format!(
                "refusing to persist a {}x{} estimate (H must be square and non-empty)",
                h.rows(),
                h.cols()
            )));
        }
        let len = name_len(self.2, "estimator name")?;
        put_fingerprint(out, self.0);
        put_fingerprint(out, self.1);
        out.extend_from_slice(&len.to_le_bytes());
        out.extend_from_slice(&(k as u32).to_le_bytes());
        out.extend_from_slice(self.2.as_bytes());
        put_f64s(out, h.data());
        Ok(())
    }

    fn read_header(r: &mut HeaderReader<'_>) -> HeaderResult<EstimateMeta> {
        let graph_fp = r.fingerprint()?;
        let seed_fp = r.fingerprint()?;
        let name_len = r.u32()?;
        let k = r.u32()?;
        if k == 0 || name_len == 0 {
            return Err("header declares an empty estimate");
        }
        let estimator = r.utf8(name_len)?;
        let payload = payload_bytes(8, &[&[k, k]])?;
        let meta = EstimateMeta {
            graph_fp,
            seed_fp,
            estimator,
            k,
        };
        Ok((meta, payload))
    }

    fn decode(&self, meta: EstimateMeta, payload: &[u8]) -> DecodeResult<DenseMatrix> {
        if meta.graph_fp != self.0 || meta.seed_fp != self.1 {
            return Err("embedded fingerprints do not match the requested graph/seeds".into());
        }
        if meta.estimator != self.2 {
            return Err("embedded estimator name does not match the request".into());
        }
        DenseMatrix::from_vec(meta.k, meta.k, f64s(payload))
            .map_err(|e| format!("invalid matrix: {e}"))
    }
}

/// Key of a persisted *constructed graph*, `GraphKey(features_fp, builder, nodes)`.
/// The parameterized builder spec (e.g. `Knn(k=10,metric=euclidean,...)`) is part
/// of the key, since different builders yield different graphs. `nodes` is the
/// node count the caller expects (the feature matrix's row count); it is not
/// part of the file name, but a record whose header declares another count is
/// rejected before its edges are decoded, so a crafted header cannot force a
/// huge allocation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GraphKey<'a>(pub Fingerprint, pub &'a str, pub usize);

/// Parsed header of a persisted constructed graph.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GraphMeta {
    /// Fingerprint of the feature matrix the graph was constructed from.
    pub features_fp: Fingerprint,
    /// The parameterized builder spec.
    pub builder: String,
    /// Number of nodes.
    pub nodes: usize,
    /// Number of undirected edges.
    pub edges: usize,
}

impl Record for GraphKey<'_> {
    type Value = Graph;
    type Loaded = Graph;
    type Meta = GraphMeta;
    const KIND: RecordKind = RecordKind::v1(b"FGGRPH", "fgg", b"fg-graph-store-v1");
    const ENTRY: fn(GraphMeta) -> EntryMeta = EntryMeta::Graph;

    fn file_stem(&self) -> String {
        format!("{}-{}", self.0.to_hex(), name_digest(self.1))
    }

    fn encode(&self, graph: &Graph, out: &mut Vec<u8>) -> Result<()> {
        let len = name_len(self.1, "builder spec")?;
        if graph.num_nodes() != self.2 {
            return Err(CoreError::Store(format!(
                "refusing to persist a {}-node graph under a {}-node key",
                graph.num_nodes(),
                self.2
            )));
        }
        let edges: Vec<(usize, usize, f64)> = graph.edges().collect();
        put_fingerprint(out, self.0);
        out.extend_from_slice(&len.to_le_bytes());
        out.extend_from_slice(&(graph.num_nodes() as u64).to_le_bytes());
        out.extend_from_slice(&(edges.len() as u64).to_le_bytes());
        out.extend_from_slice(self.1.as_bytes());
        for (u, v, w) in edges {
            out.extend_from_slice(&(u as u64).to_le_bytes());
            out.extend_from_slice(&(v as u64).to_le_bytes());
            out.extend_from_slice(&w.to_bits().to_le_bytes());
        }
        Ok(())
    }

    fn read_header(r: &mut HeaderReader<'_>) -> HeaderResult<GraphMeta> {
        let features_fp = r.fingerprint()?;
        let name_len = r.u32()?;
        let nodes = r.u64()?;
        let edges = r.u64()?;
        if name_len == 0 {
            return Err("header declares an empty builder spec");
        }
        let builder = r.utf8(name_len)?;
        let payload = payload_bytes(24, &[&[edges]])?;
        let meta = GraphMeta {
            features_fp,
            builder,
            nodes,
            edges,
        };
        Ok((meta, payload))
    }

    fn decode(&self, meta: GraphMeta, payload: &[u8]) -> DecodeResult<Graph> {
        if meta.features_fp != self.0 {
            return Err("embedded fingerprints do not match the requested features".into());
        }
        if meta.builder != self.1 {
            return Err("embedded builder spec does not match".into());
        }
        if meta.nodes != self.2 {
            return Err(format!(
                "embedded node count {} does not match the expected {}",
                meta.nodes, self.2
            ));
        }
        let index = |bytes: &[u8]| u64::from_le_bytes(bytes.try_into().expect("8 bytes")) as usize;
        let edges: Vec<(usize, usize, f64)> = payload
            .chunks_exact(24)
            .map(|e| (index(&e[0..8]), index(&e[8..16]), f64_at(&e[16..])))
            .collect();
        Graph::from_weighted_edges(meta.nodes, &edges).map_err(|e| format!("invalid graph: {e}"))
    }
}

/// Key of a persisted *low-rank factor*, `FactorKey(graph_fp, config)`. All
/// solver parameters enter the factor fingerprint, so a stored factor can never
/// be served to a differently configured solve.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FactorKey(pub Fingerprint, pub FactorConfig);

impl FactorKey {
    /// The key `factor` is stored under.
    pub fn of(factor: &LowRankFactor) -> Self {
        FactorKey(factor.graph_fingerprint(), *factor.config())
    }
}

/// Parsed header of a persisted low-rank factor.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FactorMeta {
    /// Fingerprint of the graph the factor was computed from.
    pub graph_fp: Fingerprint,
    /// The factor's own fingerprint, derived from `(graph, rank, solver params)`.
    pub factor_fp: Fingerprint,
    /// Retained rank `r`.
    pub rank: usize,
    /// Number of graph nodes `n`.
    pub nodes: usize,
    /// Subspace-iteration rounds the eigensolve used.
    pub iterations: usize,
}

impl Record for FactorKey {
    type Value = LowRankFactor;
    type Loaded = LowRankFactor;
    type Meta = FactorMeta;
    const KIND: RecordKind = RecordKind::v1(b"FGVFAC", "fgv", b"fg-v-store-v1");
    const ENTRY: fn(FactorMeta) -> EntryMeta = EntryMeta::Factor;

    fn file_stem(&self) -> String {
        format!(
            "{}-{}",
            self.0.to_hex(),
            factor_fingerprint(self.0, &self.1).to_hex()
        )
    }

    fn encode(&self, factor: &LowRankFactor, out: &mut Vec<u8>) -> Result<()> {
        if FactorKey::of(factor) != *self {
            return Err(CoreError::Store(
                "refusing to persist a factor under another graph's or config's key".into(),
            ));
        }
        put_fingerprint(out, self.0);
        put_fingerprint(out, factor.fingerprint());
        out.extend_from_slice(&(factor.rank() as u32).to_le_bytes());
        out.extend_from_slice(&(self.1.max_iter as u64).to_le_bytes());
        out.extend_from_slice(&self.1.tol.to_bits().to_le_bytes());
        out.extend_from_slice(&self.1.seed.to_le_bytes());
        out.extend_from_slice(&(factor.num_nodes() as u64).to_le_bytes());
        out.extend_from_slice(&(factor.iterations() as u64).to_le_bytes());
        put_f64s(out, factor.v().data());
        put_f64s(out, factor.lambda());
        put_f64s(out, factor.g().data());
        put_f64s(out, factor.degrees());
        Ok(())
    }

    fn read_header(r: &mut HeaderReader<'_>) -> HeaderResult<FactorMeta> {
        let graph_fp = r.fingerprint()?;
        let factor_fp = r.fingerprint()?;
        let rank = r.u32()?;
        // max_iter, tol and seed are validated through the factor fingerprint.
        r.take(24)?;
        let nodes = r.u64()?;
        let iterations = r.u64()?;
        if rank == 0 || nodes == 0 || rank > nodes {
            return Err("header declares an impossible rank/node combination");
        }
        let payload = payload_bytes(8, &[&[nodes, rank], &[rank], &[rank, rank], &[nodes]])?;
        let meta = FactorMeta {
            graph_fp,
            factor_fp,
            rank,
            nodes,
            iterations,
        };
        Ok((meta, payload))
    }

    fn decode(&self, meta: FactorMeta, payload: &[u8]) -> DecodeResult<LowRankFactor> {
        if meta.graph_fp != self.0 {
            return Err("embedded fingerprint does not match the requested graph".into());
        }
        if meta.factor_fp != factor_fingerprint(self.0, &self.1) {
            return Err(
                "embedded factor fingerprint does not match the requested solver config".into(),
            );
        }
        let (n, r) = (meta.nodes, meta.rank);
        let mut rest = f64s(payload);
        let degrees = rest.split_off(n * r + r + r * r);
        let g_data = rest.split_off(n * r + r);
        let lambda = rest.split_off(n * r);
        let v = DenseMatrix::from_vec(n, r, rest).map_err(|e| format!("invalid V matrix: {e}"))?;
        let g =
            DenseMatrix::from_vec(r, r, g_data).map_err(|e| format!("invalid G matrix: {e}"))?;
        LowRankFactor::from_parts(v, lambda, g, degrees, self.0, self.1, meta.iterations)
            .map_err(|e| format!("invalid factor: {e}"))
    }
}

/// A directory of persisted graph summaries (see the [module docs](self) for the
/// format and failure policy).
#[derive(Debug, Clone)]
pub struct SummaryStore {
    dir: PathBuf,
}

/// The parsed header of one listed store file.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EntryMeta {
    /// A summary (`.fgsum`).
    Summary(SummaryMeta),
    /// An estimated `H` (`.fgh`).
    Estimate(EstimateMeta),
    /// A constructed graph (`.fgg`).
    Graph(GraphMeta),
    /// A low-rank factor (`.fgv`).
    Factor(FactorMeta),
}

/// What a [`SummaryStore::gc`] pass did.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct GcOutcome {
    /// Files deleted.
    pub removed: usize,
    /// Files kept.
    pub kept: usize,
    /// Bytes freed by the deletions.
    pub bytes_removed: u64,
    /// Bytes still in the store after the pass.
    pub bytes_kept: u64,
}

/// One file in the store directory, with its header if it parses.
#[derive(Debug, Clone)]
pub struct StoreEntry {
    /// File name (not the full path).
    pub file: String,
    /// File size in bytes.
    pub bytes: u64,
    /// The parsed header, or `None` when the file is unreadable, corrupt, or a
    /// temporary file stranded by an interrupted write.
    pub meta: Option<EntryMeta>,
}

fn io_err(action: &str, path: &Path, e: std::io::Error) -> CoreError {
    CoreError::Store(format!("cannot {action} {}: {e}", path.display()))
}

/// Delete `path`, returning whether it existed.
fn remove_file(path: &Path) -> Result<bool> {
    match fs::remove_file(path) {
        Ok(()) => Ok(true),
        Err(e) if e.kind() == ErrorKind::NotFound => Ok(false),
        Err(e) => Err(io_err("remove", path, e)),
    }
}

fn corrupt(path: &Path, reason: &str) -> CoreError {
    CoreError::Store(format!(
        "rejecting corrupt summary file {}: {reason}",
        path.display()
    ))
}

impl SummaryStore {
    /// Open (creating if necessary) a store rooted at `dir`.
    pub fn open(dir: impl Into<PathBuf>) -> Result<SummaryStore> {
        let dir = dir.into();
        fs::create_dir_all(&dir).map_err(|e| io_err("create store directory", &dir, e))?;
        Ok(SummaryStore { dir })
    }

    /// The default store location used by the CLI when `--summary-cache` is given
    /// without a directory: `target/experiments/summaries`.
    pub fn default_dir() -> PathBuf {
        PathBuf::from("target/experiments/summaries")
    }

    /// The store's root directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The file path `key`'s record is stored under.
    pub fn path<R: Record>(&self, key: &R) -> PathBuf {
        self.dir
            .join(format!("{}.{}", key.file_stem(), R::KIND.extension))
    }

    /// Persist `value` under `key`, overwriting any existing record. The file is
    /// written via a temporary file + rename so readers never observe a partial
    /// write.
    pub fn save<R: Record>(&self, key: &R, value: &R::Value) -> Result<PathBuf> {
        let kind = &R::KIND;
        let mut bytes = Vec::new();
        bytes.extend_from_slice(kind.magic);
        bytes.extend_from_slice(&kind.version.to_le_bytes());
        key.encode(value, &mut bytes)?;
        bytes.extend_from_slice(&kind.checksum(&bytes));

        let path = self.path(key);
        // The temporary name is unique per (process, save call): two writers racing
        // to upgrade the same key — e.g. sessions extending a stored prefix to
        // different lmax — each write their own temp file and the atomic renames
        // land whole files in either order, so readers only ever observe a valid
        // record (one of the two, never an interleaving).
        let tmp = path.with_extension(format!(
            "{}.{}-{}.tmp",
            kind.extension,
            std::process::id(),
            TMP_COUNTER.fetch_add(1, Ordering::Relaxed)
        ));
        fs::write(&tmp, &bytes).map_err(|e| io_err("write", &tmp, e))?;
        fs::rename(&tmp, &path).map_err(|e| io_err("rename", &tmp, e))?;
        Ok(path)
    }

    /// Load the record stored under `key`.
    ///
    /// Returns `Ok(None)` when no file exists, `Ok(Some(..))` with the bit-exact
    /// stored value, and [`CoreError::Store`] when the file exists but is corrupt
    /// or keyed to different inputs than requested (the loud-rejection policy).
    pub fn load<R: Record>(&self, key: &R) -> Result<Option<R::Loaded>> {
        let path = self.path(key);
        match fs::read(&path) {
            Ok(bytes) => decode_record(key, &bytes)
                .map(Some)
                .map_err(|reason| corrupt(&path, &reason)),
            Err(e) if e.kind() == ErrorKind::NotFound => Ok(None),
            Err(e) => Err(io_err("read", &path, e)),
        }
    }

    /// Delete the record stored under `key`, returning whether a file was
    /// removed. Long-lived sessions use this to prune the entries of superseded
    /// seed sets, whose fingerprints will never be requested again.
    pub fn remove<R: Record>(&self, key: &R) -> Result<bool> {
        remove_file(&self.path(key))
    }

    /// List every store file — `.fgsum` summaries, `.fgh` persisted `H` estimates,
    /// `.fgg` constructed graphs, `.fgv` low-rank factors, plus any `.tmp`
    /// leftovers of interrupted writes — with its parsed header (`meta: None`
    /// marks unreadable / corrupt / stale-temporary files). Sorted by file name
    /// for stable output.
    pub fn entries(&self) -> Result<Vec<StoreEntry>> {
        let mut entries = Vec::new();
        let dir_iter = match fs::read_dir(&self.dir) {
            Ok(iter) => iter,
            Err(e) if e.kind() == ErrorKind::NotFound => return Ok(entries),
            Err(e) => return Err(io_err("read store directory", &self.dir, e)),
        };
        for item in dir_iter {
            let item = item.map_err(|e| io_err("read store directory", &self.dir, e))?;
            let file = item.file_name().to_string_lossy().into_owned();
            let kind = KINDS
                .iter()
                .find(|(ext, _)| file.ends_with(&format!(".{ext}")));
            // A crash between `fs::write` and `fs::rename` strands a temp file
            // (`*.<ext>.<pid>-<seq>.tmp`, or the pre-unique `*.fgsum.tmp`
            // spelling); listing it (always as corrupt) keeps it visible and
            // clearable.
            let stranded = file.ends_with(".tmp")
                && KINDS
                    .iter()
                    .any(|(ext, _)| file.contains(&format!(".{ext}.")));
            if kind.is_none() && !stranded {
                continue;
            }
            let bytes = item.metadata().map(|m| m.len()).unwrap_or(0);
            let meta = kind.and_then(|(_, list)| fs::read(item.path()).ok().and_then(|b| list(&b)));
            entries.push(StoreEntry { file, bytes, meta });
        }
        entries.sort_by(|a, b| a.file.cmp(&b.file));
        Ok(entries)
    }

    /// Delete every store file of every kind, including temporary files stranded
    /// by interrupted writes, returning how many were removed.
    pub fn clear(&self) -> Result<usize> {
        let mut removed = 0;
        for entry in self.entries()? {
            let path = self.dir.join(&entry.file);
            fs::remove_file(&path).map_err(|e| io_err("remove", &path, e))?;
            removed += 1;
        }
        Ok(removed)
    }

    /// Garbage-collect the store: drop every file older than `max_age` (by
    /// modification time), then — least-recently-modified first — drop files until
    /// the directory total is at or below `max_bytes`. Recently used summaries
    /// survive because every load refreshes nothing but every *save* refreshes the
    /// mtime; the eviction order is therefore LRU-by-write, with stale temp files
    /// aging out like any other file. At least one bound must be given. Files that
    /// vanish mid-collection (a concurrent `clear` or gc) are counted as removed.
    pub fn gc(
        &self,
        max_bytes: Option<u64>,
        max_age: Option<std::time::Duration>,
    ) -> Result<GcOutcome> {
        if max_bytes.is_none() && max_age.is_none() {
            return Err(CoreError::Store(
                "gc needs at least one bound (max_bytes or max_age)".into(),
            ));
        }
        let now = std::time::SystemTime::now();
        // Collect (mtime, name, bytes); unreadable metadata sorts oldest so broken
        // files are evicted first. Ties break on the file name for determinism.
        let mut files: Vec<(std::time::SystemTime, String, u64)> = self
            .entries()?
            .into_iter()
            .map(|entry| {
                let mtime = fs::metadata(self.dir.join(&entry.file))
                    .and_then(|m| m.modified())
                    .unwrap_or(std::time::UNIX_EPOCH);
                (mtime, entry.file, entry.bytes)
            })
            .collect();
        files.sort_by(|a, b| a.0.cmp(&b.0).then_with(|| a.1.cmp(&b.1)));

        // Expired files are the oldest, so they all come first: by the time the
        // size cap is consulted, `total` counts only the files that survived age.
        let mut total: u64 = files.iter().map(|f| f.2).sum();
        let mut outcome = GcOutcome::default();
        for (mtime, file, bytes) in files {
            let expired =
                max_age.is_some_and(|age| now.duration_since(mtime).is_ok_and(|d| d > age));
            if expired || max_bytes.is_some_and(|cap| total > cap) {
                // A file deleted by a concurrent clear/gc still counts as removed.
                remove_file(&self.dir.join(&file))?;
                outcome.removed += 1;
                outcome.bytes_removed += bytes;
                total -= bytes;
            } else {
                outcome.kept += 1;
                outcome.bytes_kept += bytes;
            }
        }
        Ok(outcome)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_store(name: &str) -> SummaryStore {
        let dir = std::env::temp_dir().join(format!("fg_summary_store_{name}"));
        std::fs::remove_dir_all(&dir).ok();
        SummaryStore::open(dir).unwrap()
    }

    fn sample_counts() -> Vec<DenseMatrix> {
        vec![
            DenseMatrix::from_rows(&[vec![1.0, 2.5], vec![2.5, 0.125]]).unwrap(),
            DenseMatrix::from_rows(&[vec![-0.0, 1e-300], vec![3.0, f64::MAX]]).unwrap(),
        ]
    }

    fn fps() -> (Fingerprint, Fingerprint) {
        (
            Fingerprint::from_u128(0xabcd_1234),
            Fingerprint::from_u128(0x5678_def0),
        )
    }

    fn bits(m: &DenseMatrix) -> Vec<u64> {
        m.data().iter().map(|v| v.to_bits()).collect()
    }

    #[test]
    fn save_load_round_trip_is_bit_exact() {
        let store = temp_store("round_trip");
        let (g, s) = fps();
        let counts = sample_counts();
        store.save(&SummaryKey(g, s, true), &counts).unwrap();
        let loaded = store.load(&SummaryKey(g, s, true)).unwrap().unwrap();
        assert_eq!(loaded.len(), 2);
        for (a, b) in counts.iter().zip(&loaded) {
            // Bit-exact: compare raw bit patterns, not approximate values.
            assert_eq!(bits(a), bits(b));
        }
        // The other counting mode is a separate (absent) file.
        assert!(store.load(&SummaryKey(g, s, false)).unwrap().is_none());
        std::fs::remove_dir_all(store.dir()).ok();
    }

    #[test]
    fn missing_file_is_none_not_error() {
        let store = temp_store("missing");
        let (g, s) = fps();
        assert!(store.load(&SummaryKey(g, s, true)).unwrap().is_none());
        std::fs::remove_dir_all(store.dir()).ok();
    }

    #[test]
    fn corrupt_files_are_rejected_loudly() {
        let store = temp_store("corrupt");
        let (g, s) = fps();
        let key = SummaryKey(g, s, true);
        let path = store.save(&key, &sample_counts()).unwrap();

        // Flip one payload byte: checksum must catch it.
        let mut bytes = std::fs::read(&path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xff;
        std::fs::write(&path, &bytes).unwrap();
        let err = store.load(&key).unwrap_err();
        assert!(err.to_string().contains("checksum"), "{err}");

        // Truncation is caught.
        let good = {
            store.save(&key, &sample_counts()).unwrap();
            std::fs::read(&path).unwrap()
        };
        std::fs::write(&path, &good[..good.len() - 7]).unwrap();
        assert!(store.load(&key).is_err());

        // Wrong magic is caught.
        let mut bad_magic = good.clone();
        bad_magic[0] = b'X';
        std::fs::write(&path, &bad_magic).unwrap();
        let err = store.load(&key).unwrap_err();
        assert!(err.to_string().contains("magic"), "{err}");

        // A file copied under the wrong name (mismatched fingerprints) is caught.
        std::fs::write(&path, &good).unwrap();
        let other = SummaryKey(g, Fingerprint::from_u128(0x9999), true);
        std::fs::copy(&path, store.path(&other)).unwrap();
        let err = store.load(&other).unwrap_err();
        assert!(err.to_string().contains("fingerprints"), "{err}");
        std::fs::remove_dir_all(store.dir()).ok();
    }

    #[test]
    fn save_validates_shapes() {
        let store = temp_store("shapes");
        let (g, s) = fps();
        let key = SummaryKey(g, s, true);
        assert!(store.save(&key, &[]).is_err());
        assert!(store.save(&key, &[DenseMatrix::zeros(2, 3)]).is_err());
        let mixed = [DenseMatrix::zeros(2, 2), DenseMatrix::zeros(3, 3)];
        assert!(store.save(&key, &mixed).is_err());
        std::fs::remove_dir_all(store.dir()).ok();
    }

    #[test]
    fn gc_enforces_age_then_lru_size_cap() {
        let store = temp_store("gc");
        let (g, s) = fps();
        // Three files with distinct mtimes (oldest first).
        let p1 = store
            .save(&SummaryKey(g, s, false), &sample_counts())
            .unwrap();
        let p2 = store
            .save(&SummaryKey(g, s, true), &sample_counts())
            .unwrap();
        let other = SummaryKey(g, Fingerprint::from_u128(0x77), true);
        let p3 = store.save(&other, &sample_counts()).unwrap();
        let hour = std::time::Duration::from_secs(3600);
        let old = std::time::SystemTime::now() - 10 * hour;
        set_mtime(&p1, old);
        set_mtime(&p2, old + hour);
        let bytes = std::fs::metadata(&p3).unwrap().len();

        // Age bound alone: the two back-dated files expire, the fresh one stays.
        let outcome = store.gc(None, Some(2 * hour)).unwrap();
        assert_eq!(outcome.removed, 2);
        assert_eq!(outcome.kept, 1);
        assert_eq!(outcome.bytes_kept, bytes);
        assert!(store.load(&other).unwrap().is_some());

        // Size cap alone: rebuild two files, cap to one file's size — the older
        // (least recently written) one goes.
        let p1 = store
            .save(&SummaryKey(g, s, true), &sample_counts())
            .unwrap();
        set_mtime(&p1, old);
        let outcome = store.gc(Some(bytes), None).unwrap();
        assert_eq!(outcome.removed, 1);
        assert_eq!(outcome.kept, 1);
        assert!(!p1.exists());
        assert!(p3.exists());

        // max-bytes 0 empties the store; no bounds at all is an error.
        let outcome = store.gc(Some(0), None).unwrap();
        assert_eq!(outcome.kept, 0);
        assert!(store.entries().unwrap().is_empty());
        assert!(store.gc(None, None).is_err());
        std::fs::remove_dir_all(store.dir()).ok();
    }

    /// Backdate a file's mtime (best-effort via filetime-free std APIs: rewrite the
    /// file then set the time with `File::set_modified`).
    fn set_mtime(path: &std::path::Path, to: std::time::SystemTime) {
        let f = std::fs::OpenOptions::new().write(true).open(path).unwrap();
        f.set_modified(to).unwrap();
    }

    #[test]
    fn concurrent_prefix_upgrades_leave_a_valid_file() {
        // Two writers repeatedly persist the same key with different lmax (the
        // "two sessions extend the same stored summary" race). Unique temp names +
        // atomic renames mean a reader must always see one of the two valid files,
        // never an interleaving.
        let store = std::sync::Arc::new(temp_store("race"));
        let (g, s) = fps();
        let key = SummaryKey(g, s, true);
        let short = sample_counts();
        let long: Vec<DenseMatrix> = short
            .iter()
            .cloned()
            .chain(std::iter::once(
                DenseMatrix::from_rows(&[vec![9.0, 8.0], vec![7.0, 6.0]]).unwrap(),
            ))
            .collect();
        let rounds = 60;
        std::thread::scope(|scope| {
            let writer = |counts: Vec<DenseMatrix>| {
                let store = std::sync::Arc::clone(&store);
                scope.spawn(move || {
                    for _ in 0..rounds {
                        store.save(&key, &counts).unwrap();
                    }
                })
            };
            let a = writer(short.clone());
            let b = writer(long.clone());
            // A concurrent reader must never observe corruption (absent is fine
            // in the first instants).
            for _ in 0..rounds {
                if let Some(loaded) = store.load(&key).unwrap() {
                    assert!(loaded.len() == 2 || loaded.len() == 3);
                }
            }
            a.join().unwrap();
            b.join().unwrap();
        });
        let final_counts = store.load(&key).unwrap().unwrap();
        let reference = match final_counts.len() {
            2 => &short,
            3 => &long,
            n => panic!("{n} stored lengths"),
        };
        for (a, b) in reference.iter().zip(&final_counts) {
            assert_eq!(bits(a), bits(b));
        }
        // No temp files were stranded by the race.
        assert!(store
            .entries()
            .unwrap()
            .iter()
            .all(|e| !e.file.ends_with(".tmp")));
        std::fs::remove_dir_all(store.dir()).ok();
    }

    #[test]
    fn h_save_load_round_trip_is_bit_exact() {
        let store = temp_store("h_round_trip");
        let (g, s) = fps();
        let key = EstimateKey(g, s, "Holdout(b=3)");
        let h = DenseMatrix::from_rows(&[vec![0.75, 0.25], vec![0.25, 0.75]]).unwrap();
        store.save(&key, &h).unwrap();
        assert_eq!(bits(&h), bits(&store.load(&key).unwrap().unwrap()));
        // A differently parameterized estimator is a separate (absent) entry.
        let other = EstimateKey(g, s, "Holdout(b=5)");
        assert!(store.load(&other).unwrap().is_none());
        // Overwrites replace the entry in place.
        let h2 = DenseMatrix::from_rows(&[vec![0.5, 0.5], vec![0.5, 0.5]]).unwrap();
        store.save(&key, &h2).unwrap();
        assert_eq!(bits(&h2), bits(&store.load(&key).unwrap().unwrap()));
        // remove deletes exactly the requested entry.
        assert!(store.remove(&key).unwrap());
        assert!(!store.remove(&key).unwrap());
        assert!(store.load(&key).unwrap().is_none());
        std::fs::remove_dir_all(store.dir()).ok();
    }

    #[test]
    fn h_entries_are_validated_loudly() {
        let store = temp_store("h_corrupt");
        let (g, s) = fps();
        let key = EstimateKey(g, s, "DCE(l=5)");
        let h = DenseMatrix::from_rows(&[vec![0.9, 0.1], vec![0.1, 0.9]]).unwrap();
        let path = store.save(&key, &h).unwrap();
        let good = std::fs::read(&path).unwrap();

        // Flipped payload byte (inside the matrix data, past the embedded name so
        // the UTF-8 check cannot fire first): checksum catches it.
        let mut bad = good.clone();
        let idx = bad.len() - CHECKSUM_LEN - 4;
        bad[idx] ^= 0xff;
        std::fs::write(&path, &bad).unwrap();
        let err = store.load(&key).unwrap_err();
        assert!(err.to_string().contains("checksum"), "{err}");

        // Truncation is caught.
        std::fs::write(&path, &good[..good.len() - 5]).unwrap();
        assert!(store.load(&key).is_err());

        // Wrong magic is caught.
        let mut bad_magic = good.clone();
        bad_magic[0] = b'X';
        std::fs::write(&path, &bad_magic).unwrap();
        let err = store.load(&key).unwrap_err();
        assert!(err.to_string().contains("magic"), "{err}");

        // A file copied under another key's name (mismatched fingerprints) is caught.
        std::fs::write(&path, &good).unwrap();
        let other = EstimateKey(g, Fingerprint::from_u128(0x4242), "DCE(l=5)");
        std::fs::copy(&path, store.path(&other)).unwrap();
        let err = store.load(&other).unwrap_err();
        assert!(err.to_string().contains("fingerprints"), "{err}");

        // A file copied under another estimator's name is caught by the embedded name.
        let renamed = EstimateKey(g, s, "DCEr(r=10)");
        std::fs::copy(&path, store.path(&renamed)).unwrap();
        let err = store.load(&renamed).unwrap_err();
        assert!(err.to_string().contains("estimator name"), "{err}");

        // Shape / key validation on save.
        assert!(store.save(&key, &DenseMatrix::zeros(2, 3)).is_err());
        let unnamed = EstimateKey(g, s, "");
        assert!(store.save(&unnamed, &DenseMatrix::zeros(2, 2)).is_err());
        std::fs::remove_dir_all(store.dir()).ok();
    }

    #[test]
    fn graph_save_load_round_trip_preserves_the_fingerprint() {
        let store = temp_store("graph_round_trip");
        let features_fp = Fingerprint::from_u128(0xfeed_beef);
        let key = GraphKey(
            features_fp,
            "Knn(k=2,metric=euclidean,weighting=heat,sym=union)",
            5,
        );
        let graph = Graph::from_weighted_edges(
            5,
            &[(0, 1, 0.5), (1, 2, 1.0), (2, 3, 0.125), (3, 4, 1e-300)],
        )
        .unwrap();
        store.save(&key, &graph).unwrap();
        let loaded = store.load(&key).unwrap().unwrap();
        // Content fingerprints match: the stored graph is the built graph.
        assert_eq!(loaded.fingerprint(), graph.fingerprint());
        assert_eq!(loaded.num_nodes(), 5);
        assert_eq!(loaded.num_edges(), 4);
        // A different builder spec is a separate (absent) entry.
        let other = GraphKey(features_fp, "Knn(k=3)", 5);
        assert!(store.load(&other).unwrap().is_none());
        // remove deletes exactly the requested entry.
        assert!(store.remove(&key).unwrap());
        assert!(!store.remove(&key).unwrap());
        std::fs::remove_dir_all(store.dir()).ok();
    }

    #[test]
    fn graph_entries_are_validated_listed_and_cleared() {
        let store = temp_store("graph_corrupt");
        let features_fp = Fingerprint::from_u128(0xc0ffee);
        let spec = "SparseReg(k=4,alpha=0.1,iters=50,sym=union)";
        let key = GraphKey(features_fp, spec, 3);
        let graph = Graph::from_weighted_edges(3, &[(0, 1, 1.0), (1, 2, 2.0)]).unwrap();
        let path = store.save(&key, &graph).unwrap();
        let good = std::fs::read(&path).unwrap();

        // Flipped payload byte (past the embedded spec): checksum catches it.
        let mut bad = good.clone();
        let idx = bad.len() - CHECKSUM_LEN - 4;
        bad[idx] ^= 0xff;
        std::fs::write(&path, &bad).unwrap();
        let err = store.load(&key).unwrap_err();
        assert!(err.to_string().contains("checksum"), "{err}");

        // A file copied under another key's name is caught.
        std::fs::write(&path, &good).unwrap();
        let other = GraphKey(Fingerprint::from_u128(0xdead), spec, 3);
        std::fs::copy(&path, store.path(&other)).unwrap();
        let err = store.load(&other).unwrap_err();
        assert!(err.to_string().contains("fingerprints"), "{err}");

        // Entries list the graph with its parsed metadata; clear removes it.
        let entries = store.entries().unwrap();
        let meta = entries
            .iter()
            .find_map(|e| match &e.meta {
                Some(EntryMeta::Graph(meta)) if meta.features_fp == features_fp => Some(meta),
                _ => None,
            })
            .unwrap();
        assert_eq!(meta.builder, spec);
        assert_eq!(meta.nodes, 3);
        assert_eq!(meta.edges, 2);
        assert_eq!(store.clear().unwrap(), 2);
        assert!(store.entries().unwrap().is_empty());
        // Empty builder specs are rejected on save.
        assert!(store.save(&GraphKey(features_fp, "", 3), &graph).is_err());
        // So is a graph whose node count disagrees with its key.
        assert!(store.save(&GraphKey(features_fp, spec, 4), &graph).is_err());
        std::fs::remove_dir_all(store.dir()).ok();
    }

    #[test]
    fn h_entries_are_listed_cleared_and_gced() {
        let store = temp_store("h_entries");
        let (g, s) = fps();
        store
            .save(&SummaryKey(g, s, true), &sample_counts())
            .unwrap();
        let h = DenseMatrix::from_rows(&[vec![0.6, 0.4], vec![0.4, 0.6]]).unwrap();
        store.save(&EstimateKey(g, s, "LCE(l=3)"), &h).unwrap();
        // A stranded `.fgh` temp file is listed (as corrupt) and clearable.
        std::fs::write(store.dir().join("stale.fgh.7-0.tmp"), b"half a write").unwrap();

        let entries = store.entries().unwrap();
        assert_eq!(entries.len(), 3);
        let h_entry = entries.iter().find(|e| e.file.ends_with(".fgh")).unwrap();
        let expected = EstimateMeta {
            graph_fp: g,
            seed_fp: s,
            estimator: "LCE(l=3)".into(),
            k: 2,
        };
        assert_eq!(h_entry.meta, Some(EntryMeta::Estimate(expected)));

        // gc with max-bytes 0 removes `.fgh` files alongside `.fgsum`.
        let outcome = store.gc(Some(0), None).unwrap();
        assert_eq!(outcome.kept, 0);
        assert!(store.entries().unwrap().is_empty());
        std::fs::remove_dir_all(store.dir()).ok();
    }

    #[test]
    fn factor_save_load_round_trip_is_bit_exact() {
        let store = temp_store("factor_round_trip");
        let graph = Graph::from_edges(6, &[(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0), (0, 3)])
            .unwrap();
        let config = FactorConfig::with_rank(4);
        let factor = LowRankFactor::compute(&graph, &config, fg_sparse::Threads::Serial).unwrap();
        let key = FactorKey::of(&factor);
        assert_eq!(key, FactorKey(graph.fingerprint(), config));
        store.save(&key, &factor).unwrap();
        let loaded = store.load(&key).unwrap().unwrap();
        assert_eq!(bits(factor.v()), bits(loaded.v()));
        assert_eq!(bits(factor.g()), bits(loaded.g()));
        let fbits = |s: &[f64]| s.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        assert_eq!(fbits(factor.lambda()), fbits(loaded.lambda()));
        assert_eq!(fbits(factor.degrees()), fbits(loaded.degrees()));
        assert_eq!(factor.iterations(), loaded.iterations());
        assert_eq!(factor.fingerprint(), loaded.fingerprint());
        // A different rank is a separate (absent) entry.
        let rank3 = FactorKey(graph.fingerprint(), FactorConfig::with_rank(3));
        assert!(store.load(&rank3).unwrap().is_none());
        // A factor is only ever saved under its own key.
        assert!(store.save(&rank3, &factor).is_err());
        // remove deletes exactly the requested entry.
        assert!(store.remove(&key).unwrap());
        assert!(!store.remove(&key).unwrap());
        assert!(store.load(&key).unwrap().is_none());
        std::fs::remove_dir_all(store.dir()).ok();
    }

    #[test]
    fn factor_entries_are_validated_listed_and_cleared() {
        let store = temp_store("factor_corrupt");
        let graph = Graph::from_edges(5, &[(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)]).unwrap();
        let config = FactorConfig::with_rank(3);
        let factor = LowRankFactor::compute(&graph, &config, fg_sparse::Threads::Serial).unwrap();
        let key = FactorKey::of(&factor);
        let path = store.save(&key, &factor).unwrap();
        let good = std::fs::read(&path).unwrap();

        // Flipped payload byte: checksum catches it.
        let mut bad = good.clone();
        let idx = bad.len() - CHECKSUM_LEN - 4;
        bad[idx] ^= 0xff;
        std::fs::write(&path, &bad).unwrap();
        let err = store.load(&key).unwrap_err();
        assert!(err.to_string().contains("checksum"), "{err}");

        // Truncation is caught.
        std::fs::write(&path, &good[..good.len() - 5]).unwrap();
        assert!(store.load(&key).is_err());

        // Wrong magic is caught.
        let mut bad_magic = good.clone();
        bad_magic[0] = b'X';
        std::fs::write(&path, &bad_magic).unwrap();
        let err = store.load(&key).unwrap_err();
        assert!(err.to_string().contains("magic"), "{err}");

        // A file copied under another solver config's name is caught by the
        // embedded factor fingerprint.
        std::fs::write(&path, &good).unwrap();
        let other = FactorKey(
            graph.fingerprint(),
            FactorConfig {
                seed: 0x1234,
                ..config
            },
        );
        std::fs::copy(&path, store.path(&other)).unwrap();
        let err = store.load(&other).unwrap_err();
        assert!(err.to_string().contains("factor fingerprint"), "{err}");

        // Entries list the factor with its parsed metadata; clear removes it.
        let entries = store.entries().unwrap();
        let meta = entries
            .iter()
            .find_map(|e| match &e.meta {
                Some(EntryMeta::Factor(meta)) => Some(meta),
                _ => None,
            })
            .unwrap();
        assert_eq!(meta.graph_fp, graph.fingerprint());
        assert_eq!(meta.factor_fp, factor.fingerprint());
        assert_eq!(meta.rank, 3);
        assert_eq!(meta.nodes, 5);
        assert!(store.clear().unwrap() >= 2);
        assert!(store.entries().unwrap().is_empty());
        std::fs::remove_dir_all(store.dir()).ok();
    }

    #[test]
    fn entries_and_clear() {
        let store = temp_store("entries");
        let (g, s) = fps();
        store
            .save(&SummaryKey(g, s, true), &sample_counts())
            .unwrap();
        store
            .save(&SummaryKey(g, s, false), &sample_counts())
            .unwrap();
        // A stray corrupt file is listed with meta = None and still cleared.
        std::fs::write(store.dir().join("junk.fgsum"), b"nope").unwrap();
        // So is a temp file stranded by an interrupted save.
        std::fs::write(store.dir().join("stale.fgsum.tmp"), b"half a write").unwrap();
        // Non-store files are ignored.
        std::fs::write(store.dir().join("README.txt"), b"not a summary").unwrap();

        let entries = store.entries().unwrap();
        assert_eq!(entries.len(), 4);
        let parsed: Vec<&SummaryMeta> = entries
            .iter()
            .filter_map(|e| match &e.meta {
                Some(EntryMeta::Summary(meta)) => Some(meta),
                _ => None,
            })
            .collect();
        assert_eq!(parsed.len(), 2);
        for meta in parsed {
            assert_eq!(meta.graph_fp, g);
            assert_eq!(meta.seed_fp, s);
            assert_eq!(meta.k, 2);
            assert_eq!(meta.max_length, 2);
        }
        assert_eq!(store.clear().unwrap(), 4);
        assert!(store.entries().unwrap().is_empty());
        // The non-store file survives a clear.
        assert!(store.dir().join("README.txt").exists());
        std::fs::remove_dir_all(store.dir()).ok();
    }

    /// Write a crafted record under `key`: the kind's header `fields`, no
    /// payload, and a valid checksum — so only the header's sizes are wrong.
    /// The rejection must name `reason`.
    fn assert_crafted_header_is_rejected<R: Record>(
        name: &str,
        key: &R,
        fields: &[&[u8]],
        reason: &str,
    ) {
        let store = temp_store(name);
        let mut bytes = R::KIND.magic.to_vec();
        bytes.extend_from_slice(&R::KIND.version.to_le_bytes());
        for field in fields {
            bytes.extend_from_slice(field);
        }
        bytes.extend_from_slice(&R::KIND.checksum(&bytes));
        std::fs::write(store.path(key), &bytes).unwrap();
        match store.load(key) {
            Err(CoreError::Store(message)) => assert!(message.contains(reason), "{message}"),
            Err(other) => panic!("unexpected error kind: {other}"),
            Ok(_) => panic!("crafted record was accepted"),
        }
        std::fs::remove_dir_all(store.dir()).ok();
    }

    #[test]
    fn summary_with_overflowing_size_is_rejected() {
        let (g, s) = fps();
        let fields: [&[u8]; 5] = [
            &g.as_u128().to_le_bytes(),
            &s.as_u128().to_le_bytes(),
            &[1],
            &(1u32 << 31).to_le_bytes(),
            &4u32.to_le_bytes(),
        ];
        let key = SummaryKey(g, s, true);
        assert_crafted_header_is_rejected("crafted_summary", &key, &fields, "oversized");
    }

    #[test]
    fn estimate_with_overflowing_size_is_rejected() {
        let (g, s) = fps();
        let fields: [&[u8]; 5] = [
            &g.as_u128().to_le_bytes(),
            &s.as_u128().to_le_bytes(),
            &3u32.to_le_bytes(),
            &u32::MAX.to_le_bytes(),
            b"MCE",
        ];
        let key = EstimateKey(g, s, "MCE");
        assert_crafted_header_is_rejected("crafted_h", &key, &fields, "oversized");
    }

    #[test]
    fn graph_with_overflowing_size_is_rejected() {
        let features_fp = Fingerprint::from_u128(0xfeed);
        let fields: [&[u8]; 5] = [
            &features_fp.as_u128().to_le_bytes(),
            &3u32.to_le_bytes(),
            &5u64.to_le_bytes(),
            &(1u64 << 62).to_le_bytes(),
            b"Knn",
        ];
        let key = GraphKey(features_fp, "Knn", 5);
        assert_crafted_header_is_rejected("crafted_graph", &key, &fields, "oversized");
    }

    #[test]
    fn graph_with_overflowing_node_count_is_rejected() {
        // An empty edge list keeps the payload valid; only the node count is
        // crafted, and decoding it would allocate 2^40 CSR rows.
        let features_fp = Fingerprint::from_u128(0xfeed);
        let fields: [&[u8]; 5] = [
            &features_fp.as_u128().to_le_bytes(),
            &3u32.to_le_bytes(),
            &(1u64 << 40).to_le_bytes(),
            &0u64.to_le_bytes(),
            b"Knn",
        ];
        let key = GraphKey(features_fp, "Knn", 5);
        assert_crafted_header_is_rejected("crafted_graph_nodes", &key, &fields, "node count");
    }

    #[test]
    fn factor_with_overflowing_size_is_rejected() {
        let config = FactorConfig::with_rank(u32::MAX as usize);
        let graph_fp = Fingerprint::from_u128(0xabc);
        let fields: [&[u8]; 8] = [
            &graph_fp.as_u128().to_le_bytes(),
            &factor_fingerprint(graph_fp, &config)
                .as_u128()
                .to_le_bytes(),
            &u32::MAX.to_le_bytes(),
            &(config.max_iter as u64).to_le_bytes(),
            &config.tol.to_bits().to_le_bytes(),
            &config.seed.to_le_bytes(),
            &(1u64 << 40).to_le_bytes(),
            &1u64.to_le_bytes(),
        ];
        let key = FactorKey(graph_fp, config);
        assert_crafted_header_is_rejected("crafted_factor", &key, &fields, "oversized");
    }
}
