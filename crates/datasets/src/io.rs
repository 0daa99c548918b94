//! Plain-text graph and label IO.
//!
//! A minimal, dependency-free interchange format so users can run the estimators on
//! their own graphs:
//!
//! * **Edge list** — one undirected edge per line, `u<TAB>v` or `u<TAB>v<TAB>weight`,
//!   with `#`-prefixed comment lines (the SNAP convention used by Pokec et al.).
//! * **Label file** — one `node<TAB>class` pair per line; nodes missing from the file
//!   are unlabeled.
//!
//! # Edge-list grammar
//!
//! Lines end at `\n`. Each line is trimmed of Unicode whitespace (so `\r\n` line
//! ends, leading spaces and NBSP are fine); a line that is then empty or starts with
//! `#` is skipped. Any other line holds at least two whitespace-separated fields:
//! the endpoints `u` and `v` (`usize` literals, a leading `+` allowed), then an
//! optional weight (any `f64` literal: `2`, `-0.5`, `1e-3`; default `1`). Further
//! fields are ignored. A line is an error, reported with its 1-based line number, if
//! a field does not parse, if the weight is not finite (`nan`, `inf`), if an
//! endpoint is not smaller than the node count, or if `u == v`. The first error in
//! file order wins.
//!
//! The parser scans the bytes once. A line of the canonical shape
//! `digits TAB digits [TAB digits] LF` — fields of at most 15 digits, nothing else
//! on the line — is converted without tokenizing; 15-digit integers are exact as
//! `f64`, so the result is the one the general route gives. Every other line
//! (comments, blank lines, `\r`, spaces, signs, fractional or exponent weights,
//! long ids, malformed input) takes the general route.
//!
//! Copies of one edge, in either orientation, merge into one edge whose weight is
//! their sum, added in file order; copies that sum to exactly zero leave no edge.
//! For two copies the order cannot matter. With three or more copies whose
//! rounded sum depends on the order, file order decides it; earlier versions summed
//! such copies in an unspecified order, so their last bit can differ.
//!
//! Endpoints are kept as `u32` and no weight is stored while every weight read is
//! exactly 1, so `u v`, `u v 1` and `u v 1.0` load the same unweighted graph, the
//! 4-bytes-per-entry CSR layout of [`fg_sparse::CsrMatrix`]. The node count must
//! not exceed [`fg_graph::MAX_NODES`]; a larger one is an error before the file is
//! read.

use fg_graph::{check_node_count, Graph, GraphError, Labeling, Result, SeedLabels};
use fg_sparse::DenseMatrix;
use std::fs;
use std::io::Write;
use std::path::Path;

/// Build a [`GraphError::Parse`] for the given zero-based line index.
fn parse_err(line_no: usize, message: impl Into<String>) -> GraphError {
    GraphError::Parse {
        line: line_no + 1,
        message: message.into(),
    }
}

/// Longest digit run the fast path converts: 15 decimal digits stay below 2^53, so
/// such an integer weight is exact as an `f64`, as `str::parse` would produce it.
const FAST_MAX_DIGITS: usize = 15;

/// Parse an edge list from a string (the grammar is in the module documentation).
/// Node ids must be zero-based integers smaller than `n`. Lines that are empty or
/// start with `#` are ignored. Malformed lines, non-finite weights, out-of-bounds
/// endpoints and self-loops are reported as [`GraphError::Parse`] with their 1-based
/// line number; the first such line wins. A node count above
/// [`fg_graph::MAX_NODES`] is rejected before the content is read.
pub fn parse_edge_list(n: usize, content: &str) -> Result<Graph> {
    check_node_count(n)?;
    parse_edges(n, content)?.into_graph(n)
}

/// The edges of an edge list, endpoints as `u32`: bare pairs while every weight
/// read is 1, weighted records from the first line whose weight is not.
enum EdgeBuffer {
    Unit(Vec<(u32, u32)>),
    Weighted(Vec<(u32, u32, f64)>),
}

impl EdgeBuffer {
    fn push(&mut self, u: u32, v: u32, w: f64) {
        match self {
            EdgeBuffer::Unit(pairs) if w == 1.0 => pairs.push((u, v)),
            EdgeBuffer::Unit(pairs) => {
                let mut edges = Vec::with_capacity(pairs.capacity());
                edges.extend(pairs.iter().map(|&(a, b)| (a, b, 1.0)));
                edges.push((u, v, w));
                *self = EdgeBuffer::Weighted(edges);
            }
            EdgeBuffer::Weighted(edges) => edges.push((u, v, w)),
        }
    }

    fn into_graph(self, n: usize) -> Result<Graph> {
        match self {
            EdgeBuffer::Unit(pairs) => Graph::from_edge_list(n, &pairs),
            EdgeBuffer::Weighted(edges) => Graph::from_edge_list(n, &edges),
        }
    }
}

/// The edges of an edge list, checked line by line (see [`parse_edge_list`]);
/// `n` is at most [`fg_graph::MAX_NODES`], so every endpoint fits a `u32`.
fn parse_edges(n: usize, content: &str) -> Result<EdgeBuffer> {
    let bytes = content.as_bytes();
    let mut edges = EdgeBuffer::Unit(Vec::with_capacity(
        bytes.iter().filter(|&&b| b == b'\n').count() + 1,
    ));
    let mut start = 0;
    let mut line_no = 0;
    while start < bytes.len() {
        let (edge, end) = match fast_edge(&bytes[start..]) {
            Some((edge, len)) => (Some(edge), start + len),
            None => {
                let end = bytes[start..]
                    .iter()
                    .position(|&b| b == b'\n')
                    .map_or(bytes.len(), |p| start + p);
                // `end` is a newline position or the end of the content, so both
                // ends of the slice are character boundaries.
                (general_edge(&content[start..end], line_no)?, end)
            }
        };
        if let Some((u, v, w)) = edge {
            for node in [u, v] {
                if node >= n {
                    return Err(parse_err(
                        line_no,
                        format!("node {node} out of bounds for graph with {n} nodes"),
                    ));
                }
            }
            if u == v {
                return Err(parse_err(
                    line_no,
                    format!("self-loop on node {u} is not allowed"),
                ));
            }
            edges.push(u as u32, v as u32, w);
        }
        start = end + 1;
        line_no += 1;
    }
    Ok(edges)
}

/// The fast path: a line `digits TAB digits [TAB digits]` at the start of `rest`,
/// ended by a newline or the end of the content, as the edge and the line's length
/// without its newline; `None` for any other line.
fn fast_edge(rest: &[u8]) -> Option<((usize, usize, f64), usize)> {
    let (u, tail) = fast_digits(rest)?;
    let (v, tail) = fast_digits(tail.strip_prefix(b"\t")?)?;
    let (w, tail) = match tail {
        [b'\t', weight @ ..] => {
            let (w, tail) = fast_digits(weight)?;
            (w as f64, tail)
        }
        _ => (1.0, tail),
    };
    if !matches!(tail, [] | [b'\n', ..]) {
        return None;
    }
    let edge = (usize::try_from(u).ok()?, usize::try_from(v).ok()?, w);
    Some((edge, rest.len() - tail.len()))
}

/// A leading run of 1 to [`FAST_MAX_DIGITS`] ASCII digits and the bytes after it.
fn fast_digits(s: &[u8]) -> Option<(u64, &[u8])> {
    let (mut value, mut len) = (0u64, 0);
    for &b in s.iter().take(FAST_MAX_DIGITS + 1) {
        if !b.is_ascii_digit() {
            break;
        }
        value = value * 10 + u64::from(b - b'0');
        len += 1;
    }
    (1..=FAST_MAX_DIGITS)
        .contains(&len)
        .then(|| (value, &s[len..]))
}

/// The general path for one line: `Ok(None)` for blank and comment lines.
fn general_edge(line: &str, line_no: usize) -> Result<Option<(usize, usize, f64)>> {
    let trimmed = line.trim();
    if trimmed.is_empty() || trimmed.starts_with('#') {
        return Ok(None);
    }
    let mut parts = trimmed.split_whitespace();
    let u = parse_node(parts.next(), line_no)?;
    let v = parse_node(parts.next(), line_no)?;
    let w = match parts.next() {
        Some(tok) => {
            let w = tok
                .parse::<f64>()
                .map_err(|_| parse_err(line_no, format!("invalid edge weight '{tok}'")))?;
            if !w.is_finite() {
                return Err(parse_err(
                    line_no,
                    format!("non-finite edge weight '{tok}'"),
                ));
            }
            w
        }
        None => 1.0,
    };
    Ok(Some((u, v, w)))
}

fn parse_node(token: Option<&str>, line_no: usize) -> Result<usize> {
    let tok = token.ok_or_else(|| parse_err(line_no, "missing node id"))?;
    tok.parse::<usize>()
        .map_err(|_| parse_err(line_no, format!("invalid node id '{tok}'")))
}

/// Serialize a graph as an edge list (each undirected edge once, `u<TAB>v<TAB>weight`).
pub fn format_edge_list(graph: &Graph) -> String {
    let mut out = String::new();
    out.push_str("# undirected edge list: u\tv\tweight\n");
    for (u, v, w) in graph.edges() {
        out.push_str(&format!("{u}\t{v}\t{w}\n"));
    }
    out
}

/// Parse a label file into a seed set over `n` nodes with `k` classes. Malformed or
/// out-of-range lines are reported as [`GraphError::Parse`] with their 1-based line
/// number.
pub fn parse_labels(n: usize, k: usize, content: &str) -> Result<SeedLabels> {
    check_node_count(n)?;
    let mut observed = vec![None; n];
    for (line_no, line) in content.lines().enumerate() {
        let trimmed = line.trim();
        if trimmed.is_empty() || trimmed.starts_with('#') {
            continue;
        }
        let mut parts = trimmed.split_whitespace();
        let node = parse_node(parts.next(), line_no)?;
        let class = parse_node(parts.next(), line_no)?;
        if node >= n {
            return Err(parse_err(
                line_no,
                format!("node {node} out of bounds for graph with {n} nodes"),
            ));
        }
        if class >= k {
            return Err(parse_err(
                line_no,
                format!("class {class} out of range for k = {k}"),
            ));
        }
        observed[node] = Some(class);
    }
    SeedLabels::new(observed, k)
}

/// Serialize a full labeling as a label file.
pub fn format_labels(labeling: &Labeling) -> String {
    let mut out = String::new();
    out.push_str("# node\tclass\n");
    for (i, &c) in labeling.as_slice().iter().enumerate() {
        out.push_str(&format!("{i}\t{c}\n"));
    }
    out
}

/// Read a graph from an edge-list file (see [`parse_edge_list`] for the format).
pub fn read_edge_list(path: &Path, n: usize) -> Result<Graph> {
    check_node_count(n)?;
    let content = fs::read_to_string(path)
        .map_err(|e| GraphError::Io(format!("cannot read {path:?}: {e}")))?;
    let edges = parse_edges(n, &content)?;
    // The text is no longer needed; free it before the CSR arrays are allocated.
    drop(content);
    edges.into_graph(n)
}

/// Write a graph to an edge-list file.
pub fn write_edge_list(path: &Path, graph: &Graph) -> Result<()> {
    let mut file = fs::File::create(path)
        .map_err(|e| GraphError::Io(format!("cannot create {path:?}: {e}")))?;
    file.write_all(format_edge_list(graph).as_bytes())
        .map_err(|e| GraphError::Io(format!("cannot write {path:?}: {e}")))
}

/// Read a seed-label file.
pub fn read_labels(path: &Path, n: usize, k: usize) -> Result<SeedLabels> {
    check_node_count(n)?;
    let content = fs::read_to_string(path)
        .map_err(|e| GraphError::Io(format!("cannot read {path:?}: {e}")))?;
    parse_labels(n, k, &content)
}

/// A parsed feature file: one node per row, its feature vector followed by a class
/// label in the last column (`?` marks an unlabeled node).
#[derive(Debug, Clone)]
pub struct FeatureData {
    /// Dense `n x d` feature matrix (labels column excluded).
    pub features: DenseMatrix,
    /// Per-node observed class, `None` where the label column was `?`.
    pub labels: Vec<Option<usize>>,
    /// `1 + max(observed class)`, or 0 when every node is unlabeled.
    pub num_classes: usize,
}

impl FeatureData {
    /// The full ground-truth labeling, when **every** node is labeled.
    pub fn truth(&self) -> Option<Labeling> {
        let labels: Option<Vec<usize>> = self.labels.iter().copied().collect();
        Labeling::new(labels?, self.num_classes.max(1)).ok()
    }

    /// The observed labels as a seed set over `k` classes (defaults to the
    /// inferred [`FeatureData::num_classes`] when `k` is `None`).
    pub fn seed_labels(&self, k: Option<usize>) -> Result<SeedLabels> {
        SeedLabels::new(self.labels.clone(), k.unwrap_or(self.num_classes))
    }
}

/// Parse a dense feature matrix with a trailing labels column. Values are separated
/// by commas and/or whitespace (so both CSV and TSV work); lines that are empty or
/// start with `#` are ignored. Ragged rows, non-finite feature values, and malformed
/// labels are rejected as [`GraphError::Parse`] with their 1-based line number.
pub fn parse_features(content: &str) -> Result<FeatureData> {
    let mut rows: Vec<Vec<f64>> = Vec::new();
    let mut labels: Vec<Option<usize>> = Vec::new();
    let mut width = None;
    for (line_no, line) in content.lines().enumerate() {
        let trimmed = line.trim();
        if trimmed.is_empty() || trimmed.starts_with('#') {
            continue;
        }
        let tokens: Vec<&str> = trimmed
            .split(|c: char| c == ',' || c.is_whitespace())
            .filter(|t| !t.is_empty())
            .collect();
        if tokens.len() < 2 {
            return Err(parse_err(
                line_no,
                "feature row needs at least one feature and a label column",
            ));
        }
        let expected = *width.get_or_insert(tokens.len());
        if tokens.len() != expected {
            return Err(parse_err(
                line_no,
                format!(
                    "ragged row: expected {expected} columns, got {}",
                    tokens.len()
                ),
            ));
        }
        let mut row = Vec::with_capacity(tokens.len() - 1);
        for tok in &tokens[..tokens.len() - 1] {
            let value = tok
                .parse::<f64>()
                .map_err(|_| parse_err(line_no, format!("invalid feature value '{tok}'")))?;
            if !value.is_finite() {
                return Err(parse_err(
                    line_no,
                    format!("non-finite feature value '{tok}'"),
                ));
            }
            row.push(value);
        }
        let label_tok = tokens[tokens.len() - 1];
        labels.push(if label_tok == "?" {
            None
        } else {
            Some(
                label_tok.parse::<usize>().map_err(|_| {
                    parse_err(line_no, format!("invalid class label '{label_tok}'"))
                })?,
            )
        });
        rows.push(row);
    }
    if rows.is_empty() {
        return Err(parse_err(0, "feature file contains no data rows"));
    }
    let num_classes = labels.iter().flatten().max().map_or(0, |&c| c + 1);
    Ok(FeatureData {
        features: DenseMatrix::from_rows(&rows)?,
        labels,
        num_classes,
    })
}

/// Serialize a feature matrix with its labels column (`?` for unlabeled nodes) in
/// the format [`parse_features`] reads.
pub fn format_features(features: &DenseMatrix, labels: &[Option<usize>]) -> String {
    let mut out = String::new();
    out.push_str("# features: f_1,...,f_d,label ('?' = unlabeled)\n");
    for i in 0..features.rows() {
        for v in features.row(i) {
            out.push_str(&format!("{v},"));
        }
        match labels.get(i).copied().flatten() {
            Some(c) => out.push_str(&format!("{c}\n")),
            None => out.push_str("?\n"),
        }
    }
    out
}

/// Read a feature file (see [`parse_features`] for the format).
pub fn read_features(path: &Path) -> Result<FeatureData> {
    let content = fs::read_to_string(path)
        .map_err(|e| GraphError::Io(format!("cannot read {path:?}: {e}")))?;
    parse_features(&content)
}

/// Write a feature matrix with its labels column to a file.
pub fn write_features(path: &Path, features: &DenseMatrix, labels: &[Option<usize>]) -> Result<()> {
    let mut file = fs::File::create(path)
        .map_err(|e| GraphError::Io(format!("cannot create {path:?}: {e}")))?;
    file.write_all(format_features(features, labels).as_bytes())
        .map_err(|e| GraphError::Io(format!("cannot write {path:?}: {e}")))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn edge_list_roundtrip() {
        let graph = Graph::from_edges(4, &[(0, 1), (1, 2), (2, 3)]).unwrap();
        let text = format_edge_list(&graph);
        let parsed = parse_edge_list(4, &text).unwrap();
        assert_eq!(parsed.num_edges(), 3);
        assert!(parsed.has_edge(1, 2));
    }

    #[test]
    fn edge_list_with_weights_and_comments() {
        let text = "# comment\n0\t1\t2.5\n\n1 2 0.5\n";
        let g = parse_edge_list(3, text).unwrap();
        assert_eq!(g.adjacency().get(0, 1), 2.5);
        assert_eq!(g.adjacency().get(2, 1), 0.5);
    }

    #[test]
    fn malformed_edge_lines_rejected() {
        assert!(parse_edge_list(3, "0\n").is_err());
        assert!(parse_edge_list(3, "0\tx\n").is_err());
        assert!(parse_edge_list(3, "0\t1\tabc\n").is_err());
        assert!(parse_edge_list(2, "0\t5\n").is_err());
    }

    #[test]
    fn parse_errors_carry_the_line_number() {
        // The comment and blank lines still count toward the reported line number.
        let err = parse_edge_list(3, "# header\n0\t1\n\n0\tx\n").unwrap_err();
        assert_eq!(
            err,
            GraphError::Parse {
                line: 4,
                message: "invalid node id 'x'".into()
            }
        );
        let err = parse_edge_list(3, "0\t1\t2.5\n1\t2\theavy\n").unwrap_err();
        assert!(matches!(err, GraphError::Parse { line: 2, .. }), "{err}");
        let err = parse_labels(5, 2, "0\t1\n3\t9\n").unwrap_err();
        assert!(matches!(err, GraphError::Parse { line: 2, .. }), "{err}");
        let err = parse_labels(2, 2, "5\t0\n").unwrap_err();
        assert!(matches!(err, GraphError::Parse { line: 1, .. }), "{err}");
    }

    #[test]
    fn edge_checks_are_positioned_and_in_file_order() {
        let err = |n, text| parse_edge_list(n, text).unwrap_err().to_string();
        // Endpoint bounds and self-loops carry their line, like label-file errors.
        assert_eq!(
            err(200, "# header\n0\t1\n5\t200\n"),
            "parse error at line 3: node 200 out of bounds for graph with 200 nodes"
        );
        assert_eq!(
            err(200, "0\t1\n\n7 7\n"),
            "parse error at line 3: self-loop on node 7 is not allowed"
        );
        // The first offending line wins, whatever kind its error is.
        assert_eq!(
            err(3, "0\t3\n0\tx\n"),
            "parse error at line 1: node 3 out of bounds for graph with 3 nodes"
        );
        assert_eq!(
            err(3, "0\tx\n0\t3\n"),
            "parse error at line 1: invalid node id 'x'"
        );
        // Within a line, the fields parse before the node checks run.
        assert_eq!(
            err(3, "9\t9\tbad\n"),
            "parse error at line 1: invalid edge weight 'bad'"
        );
    }

    #[test]
    fn non_finite_edge_weights_rejected() {
        for (tok, line) in [("nan", 1), ("inf", 2), ("-infinity", 2), ("1e999", 2)] {
            let text = if line == 1 {
                format!("0 1 {tok}\n")
            } else {
                format!("0\t1\t2\n1\t2\t{tok}\n")
            };
            assert_eq!(
                parse_edge_list(3, &text).unwrap_err().to_string(),
                format!("parse error at line {line}: non-finite edge weight '{tok}'")
            );
        }
    }

    #[test]
    fn fast_and_general_lines_agree() {
        // The canonical lines take the fast path; the others spell the same edges.
        let fast = parse_edge_list(4, "0\t1\n1\t2\t3\n000000000000002\t3\t5\n").unwrap();
        let general =
            parse_edge_list(4, " 0 1\r\n1\t2\t3.0\n# c\n0000000000000002\t+3\t5e0").unwrap();
        assert_eq!(fast.fingerprint(), general.fingerprint());
        assert_eq!(fast.adjacency().get(2, 3), 5.0);
        // A 16-digit weight is beyond the fast path but still parses.
        let long = parse_edge_list(2, "0\t1\t1234567890123456\n").unwrap();
        assert_eq!(long.adjacency().get(1, 0), 1234567890123456.0);
    }

    #[test]
    fn unit_weight_spellings_load_one_unweighted_graph() {
        // `u v`, `u v 1` and `u v 1.0` (and a mix, in either orientation) are the
        // same graph: same matrix and layout, fingerprint and degrees.
        let edges = [(0, 1), (1, 2), (3, 1), (2, 4)];
        let spell = |weight: &str| -> String {
            edges
                .iter()
                .map(|(u, v)| format!("{u}\t{v}{weight}\n"))
                .collect()
        };
        let bare = parse_edge_list(5, &spell("")).unwrap();
        assert_eq!(bare.adjacency().entry_bytes(), 4);
        for content in [
            spell("\t1"),
            spell("\t1.0"),
            "1\t0\t1.0\n1 2\n3\t1\t1\n# comment\n2\t4\t1e0".to_string(),
        ] {
            let g = parse_edge_list(5, &content).unwrap();
            assert_eq!(g.adjacency(), bare.adjacency(), "{content:?}");
            assert_eq!(g.fingerprint(), bare.fingerprint(), "{content:?}");
            assert_eq!(g.degrees(), bare.degrees(), "{content:?}");
        }
        let built = Graph::from_edges(5, &edges).unwrap();
        assert_eq!(built.adjacency(), bare.adjacency());
        assert_eq!(built.fingerprint(), bare.fingerprint());
    }

    #[test]
    fn weights_other_than_one_load_the_weighted_layout() {
        // One weight that is not 1, even on the last line, keeps every weight.
        let g = parse_edge_list(4, "0\t1\n1\t2\n2\t3\t2.5\n").unwrap();
        assert_eq!(g.adjacency().entry_bytes(), 12);
        assert_eq!(g.degrees(), vec![1.0, 2.0, 3.5, 2.5]);
        let same = Graph::from_weighted_edges(4, &[(0, 1, 1.0), (1, 2, 1.0), (2, 3, 2.5)]);
        assert_eq!(g.fingerprint(), same.unwrap().fingerprint());
        // A duplicated unit edge sums to 2.0, which is not 1: weighted as well.
        let dup = parse_edge_list(3, "0\t1\n1\t2\n1\t0\n").unwrap();
        assert_eq!(dup.adjacency().entry_bytes(), 12);
        assert_eq!(dup.adjacency().get(0, 1), 2.0);
        assert_eq!(dup.adjacency().get(1, 2), 1.0);
        assert_eq!(dup.num_edges(), 2);
    }

    #[test]
    fn node_counts_beyond_u32_ids_are_rejected_before_reading() {
        let n = fg_graph::MAX_NODES + 1;
        let expected = format!("node count {n} exceeds the limit of 4294967295 nodes");
        assert_eq!(
            parse_edge_list(n, "0\t1\n").unwrap_err().to_string(),
            expected
        );
        assert_eq!(
            parse_labels(n, 2, "0\t1\n").unwrap_err().to_string(),
            expected
        );
        // The path does not exist: the count is checked before the file is opened.
        let missing = Path::new("/nonexistent/edges.tsv");
        assert_eq!(
            read_edge_list(missing, n).unwrap_err().to_string(),
            expected
        );
        assert_eq!(
            read_labels(missing, n, 2).unwrap_err().to_string(),
            expected
        );
    }

    #[test]
    fn label_roundtrip() {
        let labeling = Labeling::new(vec![0, 2, 1, 0], 3).unwrap();
        let text = format_labels(&labeling);
        let seeds = parse_labels(4, 3, &text).unwrap();
        assert_eq!(seeds.num_labeled(), 4);
        assert_eq!(seeds.get(1), Some(2));
    }

    #[test]
    fn partial_labels_parse() {
        let seeds = parse_labels(5, 2, "0\t1\n3\t0\n").unwrap();
        assert_eq!(seeds.num_labeled(), 2);
        assert_eq!(seeds.get(4), None);
    }

    #[test]
    fn label_validation() {
        assert!(parse_labels(2, 2, "5\t0\n").is_err());
        assert!(parse_labels(2, 2, "0\t7\n").is_err());
        assert!(parse_labels(2, 2, "0\n").is_err());
    }

    #[test]
    fn feature_file_roundtrip() {
        let text = "# header\n0.5, 1.0, 0\n-1.25\t2.5\t1\n0.0, 0.0, ?\n";
        let data = parse_features(text).unwrap();
        assert_eq!(data.features.shape(), (3, 2));
        assert_eq!(data.features.get(1, 0), -1.25);
        assert_eq!(data.labels, vec![Some(0), Some(1), None]);
        assert_eq!(data.num_classes, 2);
        assert!(data.truth().is_none());
        assert_eq!(data.seed_labels(None).unwrap().num_labeled(), 2);
        // Round trip through the formatter.
        let again = parse_features(&format_features(&data.features, &data.labels)).unwrap();
        assert_eq!(again.features.data(), data.features.data());
        assert_eq!(again.labels, data.labels);
        // Fully labeled data exposes a ground-truth labeling.
        let full = parse_features("1,0\n2,1\n3,0\n").unwrap();
        assert_eq!(full.truth().unwrap().as_slice(), &[0, 1, 0]);
    }

    #[test]
    fn feature_parse_errors_carry_the_line_number() {
        // Ragged row (comment still counts toward the line number).
        let err = parse_features("# header\n1,2,0\n1,2,3,0\n").unwrap_err();
        assert!(matches!(err, GraphError::Parse { line: 3, .. }), "{err}");
        assert!(err.to_string().contains("ragged"), "{err}");
        // NaN / non-finite feature values.
        let err = parse_features("1,2,0\n1,NaN,1\n").unwrap_err();
        assert!(matches!(err, GraphError::Parse { line: 2, .. }), "{err}");
        assert!(err.to_string().contains("non-finite"), "{err}");
        let err = parse_features("1,inf,0\n").unwrap_err();
        assert!(matches!(err, GraphError::Parse { line: 1, .. }), "{err}");
        // Garbage feature values, bad labels, missing columns, empty files.
        let err = parse_features("1,x,0\n").unwrap_err();
        assert!(matches!(err, GraphError::Parse { line: 1, .. }), "{err}");
        let err = parse_features("1,2,maybe\n").unwrap_err();
        assert!(err.to_string().contains("invalid class label"), "{err}");
        assert!(parse_features("7\n").is_err());
        assert!(parse_features("# only comments\n").is_err());
    }

    #[test]
    fn feature_file_io() {
        let dir = std::env::temp_dir().join("fg_datasets_feature_io_test");
        fs::create_dir_all(&dir).unwrap();
        let path = dir.join("features.csv");
        let features = DenseMatrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]]).unwrap();
        write_features(&path, &features, &[Some(1), None]).unwrap();
        let read = read_features(&path).unwrap();
        assert_eq!(read.features.data(), features.data());
        assert_eq!(read.labels, vec![Some(1), None]);
        let missing = read_features(Path::new("/nonexistent/file")).unwrap_err();
        assert!(matches!(missing, GraphError::Io(_)), "{missing}");
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn file_roundtrip() {
        let dir = std::env::temp_dir().join("fg_datasets_io_test");
        fs::create_dir_all(&dir).unwrap();
        let path = dir.join("graph.tsv");
        let graph = Graph::from_edges(3, &[(0, 1), (1, 2)]).unwrap();
        write_edge_list(&path, &graph).unwrap();
        let read = read_edge_list(&path, 3).unwrap();
        assert_eq!(read.num_edges(), 2);
        // Unreadable files surface as the dedicated Io variant.
        let missing = read_edge_list(Path::new("/nonexistent/file"), 3).unwrap_err();
        assert!(matches!(missing, GraphError::Io(_)), "{missing}");
        let missing = read_labels(Path::new("/nonexistent/file"), 3, 2).unwrap_err();
        assert!(matches!(missing, GraphError::Io(_)), "{missing}");
        fs::remove_dir_all(&dir).ok();
    }
}
