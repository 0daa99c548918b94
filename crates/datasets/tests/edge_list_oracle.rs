//! Differential oracle for the edge-list parser.
//!
//! `parse_edge_list` scans bytes and converts canonical `digits TAB digits [TAB
//! digits]` lines without tokenizing. The oracle below is the plain `str` route:
//! `lines()`, `trim`, `split_whitespace`, `str::parse`, the same line checks, and a
//! map that sums the copies of each edge in file order. Over a seeded corpus of
//! mutated files, every `Ok` graph must match the oracle's bit for bit (fingerprint,
//! structure and value bits) and every `Err` must display the same text.

use fg_datasets::parse_edge_list;
use fg_graph::{Graph, GraphError, Result};
use fg_sparse::CsrMatrix;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeMap;

/// Nodes in every corpus graph.
const NODES: usize = 12;

fn parse_err(line_no: usize, message: String) -> GraphError {
    GraphError::Parse {
        line: line_no + 1,
        message,
    }
}

fn oracle_node(token: Option<&str>, line_no: usize) -> Result<usize> {
    let tok = token.ok_or_else(|| parse_err(line_no, "missing node id".into()))?;
    tok.parse::<usize>()
        .map_err(|_| parse_err(line_no, format!("invalid node id '{tok}'")))
}

fn oracle(n: usize, content: &str) -> Result<Graph> {
    let mut sums: BTreeMap<(usize, usize), f64> = BTreeMap::new();
    for (line_no, line) in content.lines().enumerate() {
        let trimmed = line.trim();
        if trimmed.is_empty() || trimmed.starts_with('#') {
            continue;
        }
        let mut parts = trimmed.split_whitespace();
        let u = oracle_node(parts.next(), line_no)?;
        let v = oracle_node(parts.next(), line_no)?;
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
        *sums.entry((u, v)).or_insert(0.0) += w;
        *sums.entry((v, u)).or_insert(0.0) += w;
    }
    let triplets: Vec<(usize, usize, f64)> = sums
        .into_iter()
        .filter(|&(_, w)| w != 0.0)
        .map(|((u, v), w)| (u, v, w))
        .collect();
    Graph::from_adjacency(CsrMatrix::from_triplets(n, n, &triplets))
}

fn pick<'a>(rng: &mut StdRng, options: &[&'a str]) -> &'a str {
    options[rng.gen_index(options.len())]
}

/// One node-id spelling of `id`; rarely an invalid or out-of-range one.
fn id_token(rng: &mut StdRng, id: usize) -> String {
    match rng.gen_index(120) {
        0 => format!("{id:015}"),           // 15 digits: still the fast path
        1 => format!("{id:016}"),           // 16 digits: the general path
        2 => format!("{id:020}"),           // 20 digits, still fits usize
        3 => format!("+{id}"),              // sign: the general path
        4 => format!("-{id}"),              // invalid
        5 => "123456789012345".to_string(), // out of bounds, fast path
        6 => "12345678901234567890123".to_string(), // overflows usize
        7 => format!("{}", NODES + rng.gen_index(3)), // out of bounds
        8 => "x".to_string(),
        _ => id.to_string(),
    }
}

/// One weight column (including its separator), or none.
fn weight_token(rng: &mut StdRng, sep: &str) -> String {
    let w = match rng.gen_index(60) {
        0..=11 => return String::new(),
        12 => "1e0",
        13 => "1.0",
        14 => "-0",
        15 => "0",
        16 => "0.1",
        17 => "-0.3",
        18 => "2.5e-1",
        19 => "+2",
        20 => "100000000000000",  // 15 digits, exact
        21 => "1234567890123456", // 16 digits, general path
        22 => "99999999999999999999",
        23 => "nan",
        24 => "inf",
        25 => "-inf",
        26 => "1e400",
        27 => "heavy",
        28 => "3",
        29 => "0007",
        _ => "1",
    };
    format!("{sep}{w}")
}

/// A random corpus file: edges over `NODES` nodes, each line spelled in one of many
/// ways, plus comments, blank lines and duplicated edges.
fn corpus_file(rng: &mut StdRng) -> String {
    let mut out = String::new();
    let lines = 1 + rng.gen_index(14);
    let mut previous: Vec<(usize, usize)> = Vec::new();
    for _ in 0..lines {
        let eol = pick(rng, &["\n", "\n", "\n", "\r\n"]);
        match rng.gen_index(20) {
            0 => {
                out.push_str(pick(rng, &["# comment", "  # indented", "#", "#1\t2"]));
                out.push_str(eol);
                continue;
            }
            1 => {
                out.push_str(pick(rng, &["", " ", "\t", "\u{a0}", "\u{2003}"]));
                out.push_str(eol);
                continue;
            }
            2 => {
                // A line with one field, or three fields and trailing junk.
                out.push_str(pick(rng, &["3", "1\t2\t1\textra", "4 5 6 7"]));
                out.push_str(eol);
                continue;
            }
            _ => {}
        }
        let (u, v) = if !previous.is_empty() && rng.gen_index(4) == 0 {
            // Repeat an earlier edge, in either orientation.
            let (a, b) = previous[rng.gen_index(previous.len())];
            if rng.gen_index(2) == 0 {
                (a, b)
            } else {
                (b, a)
            }
        } else {
            let u = rng.gen_index(NODES);
            let mut v = rng.gen_index(NODES);
            if v == u && rng.gen_index(8) != 0 {
                v = (v + 1) % NODES;
            }
            (u, v)
        };
        previous.push((u, v));
        let canonical = rng.gen_index(3) == 0;
        let sep = if canonical {
            "\t"
        } else {
            pick(rng, &["\t", " ", "  ", " \t", "\u{a0}", "\u{2003}"])
        };
        let lead = if canonical {
            ""
        } else {
            pick(rng, &["", " ", "\t", "\u{a0}"])
        };
        let trail = if canonical {
            ""
        } else {
            pick(rng, &["", " ", "\t", "\u{2003}"])
        };
        let (ut, vt) = if canonical {
            (u.to_string(), v.to_string())
        } else {
            (id_token(rng, u), id_token(rng, v))
        };
        let weight = weight_token(rng, sep);
        let copies = match rng.gen_index(10) {
            0 => 2,
            1 => 3,
            _ => 1,
        };
        for copy in 0..copies {
            // Copies that cancel: the last one undoes the earlier ones.
            let weight = if copies > 1 && copy + 1 == copies && rng.gen_index(2) == 0 {
                format!("{sep}-{}", copy)
            } else {
                weight.clone()
            };
            out.push_str(&format!("{lead}{ut}{sep}{vt}{weight}{trail}{eol}"));
        }
    }
    if rng.gen_index(4) == 0 {
        // No trailing line feed.
        while out.ends_with('\n') || out.ends_with('\r') {
            out.pop();
        }
    }
    out
}

fn value_bits(g: &Graph) -> Vec<u64> {
    g.adjacency().iter().map(|(_, _, v)| v.to_bits()).collect()
}

fn assert_same(content: &str, case: &str) -> bool {
    let got = parse_edge_list(NODES, content);
    let want = oracle(NODES, content);
    match (&got, &want) {
        (Ok(g), Ok(w)) => {
            assert_eq!(g.fingerprint(), w.fingerprint(), "{case}: {content:?}");
            assert_eq!(g.adjacency().indptr(), w.adjacency().indptr(), "{case}");
            assert_eq!(g.adjacency().indices(), w.adjacency().indices(), "{case}");
            assert_eq!(value_bits(g), value_bits(w), "{case}: {content:?}");
            // Both builds pick the same (canonical) layout.
            assert_eq!(
                g.adjacency().entry_bytes(),
                w.adjacency().entry_bytes(),
                "{case}: {content:?}"
            );
            assert_eq!(g.num_edges(), w.num_edges(), "{case}");
            true
        }
        (Err(g), Err(w)) => {
            assert_eq!(g.to_string(), w.to_string(), "{case}: {content:?}");
            false
        }
        _ => panic!("{case}: parser {got:?} vs oracle {want:?} on {content:?}"),
    }
}

#[test]
fn parser_matches_the_str_oracle_on_a_mutated_corpus() {
    let mut rng = StdRng::seed_from_u64(0x0ed6e);
    let mut accepted = 0;
    let files = 6000;
    for file in 0..files {
        let content = corpus_file(&mut rng);
        if assert_same(&content, &format!("file {file}")) {
            accepted += 1;
        }
    }
    // Both outcomes are well represented.
    assert!(
        accepted > files / 5 && accepted < files * 4 / 5,
        "{accepted} of {files} parsed"
    );
}

#[test]
fn parser_matches_the_oracle_on_hand_picked_lines() {
    let cases = [
        "",
        "\n\n",
        "0\t1",
        "0\t1\n",
        "0\t1\r\n1\t2\r\n",
        "0\t1\t\n",
        "0\t\t1\n",
        "\t0\t1\n",
        "0\t1\t2\t\n",
        "0\t1\t2\t3\n",
        "0 1 2\n",
        "0\u{a0}1\u{2003}2\n",
        "000000000000001\t000000000000002\t000000000000003\n",
        "0000000000000001\t2\n",
        "99999999999999999999\t1\n",
        "0\t1\tnan\n",
        "0\t1\tNaN\n",
        "0\t1\tinfinity\n",
        "0\t1\t-0\n",
        "0\t1\t1\n1\t0\t-1\n",
        "0\t1\t0.1\n0\t1\t0.2\n1\t0\t0.3\n",
        "0\t1\t1e16\n0\t1\t1\n0\t1\t-1e16\n",
        "0\t1\n0\t12\n",
        "0\t12\n0\tx\n",
        "0\tx\n0\t12\n",
        "5\t5\n",
        "5\t5\t1\n0\tq\n",
        "# only a comment",
        "0\t1\n#\n\n2\t3\t7",
        "\u{feff}0\t1\n",
    ];
    for (i, content) in cases.iter().enumerate() {
        assert_same(content, &format!("case {i}"));
    }
}
