//! Error type for graph construction and generation.

use std::fmt;

/// Errors produced while building graphs, labels, or compatibility matrices.
#[derive(Debug, Clone, PartialEq)]
pub enum GraphError {
    /// A compatibility matrix failed validation (not square / symmetric / stochastic).
    InvalidCompatibility(String),
    /// The label vector or label matrix is inconsistent with the graph or class count.
    InvalidLabels(String),
    /// The generator was asked for an impossible configuration.
    InvalidGeneratorConfig(String),
    /// A builder or propagator was given an out-of-range parameter.
    InvalidParameter(String),
    /// An edge of an edge list is a self-loop or has a non-finite weight.
    InvalidEdge(String),
    /// An adjacency matrix is not square, not symmetric, or has a self-loop.
    InvalidAdjacency(String),
    /// A node count does not fit the `u32` node ids.
    TooManyNodes {
        /// The requested node count.
        n: usize,
    },
    /// An edge references a node outside the graph.
    NodeOutOfBounds {
        /// The offending node id.
        node: usize,
        /// Number of nodes in the graph.
        n: usize,
    },
    /// A text input (edge list / label file) failed to parse.
    Parse {
        /// 1-based line number of the offending line.
        line: usize,
        /// What was wrong with the line.
        message: String,
    },
    /// A file could not be read or written.
    Io(String),
    /// Error bubbled up from the linear-algebra layer.
    Sparse(fg_sparse::SparseError),
}

impl fmt::Display for GraphError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GraphError::InvalidCompatibility(msg) => {
                write!(f, "invalid compatibility matrix: {msg}")
            }
            GraphError::InvalidLabels(msg) => write!(f, "invalid labels: {msg}"),
            GraphError::InvalidGeneratorConfig(msg) => write!(f, "invalid generator config: {msg}"),
            GraphError::InvalidParameter(msg) => write!(f, "invalid parameter: {msg}"),
            GraphError::InvalidEdge(msg) => write!(f, "invalid edge: {msg}"),
            GraphError::InvalidAdjacency(msg) => write!(f, "invalid adjacency matrix: {msg}"),
            GraphError::TooManyNodes { n } => write!(
                f,
                "node count {n} exceeds the limit of {} nodes",
                crate::MAX_NODES
            ),
            GraphError::NodeOutOfBounds { node, n } => {
                write!(f, "node {node} out of bounds for graph with {n} nodes")
            }
            GraphError::Parse { line, message } => {
                write!(f, "parse error at line {line}: {message}")
            }
            GraphError::Io(msg) => write!(f, "io error: {msg}"),
            GraphError::Sparse(e) => write!(f, "linear algebra error: {e}"),
        }
    }
}

impl std::error::Error for GraphError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            GraphError::Sparse(e) => Some(e),
            _ => None,
        }
    }
}

impl From<fg_sparse::SparseError> for GraphError {
    fn from(e: fg_sparse::SparseError) -> Self {
        GraphError::Sparse(e)
    }
}

/// Convenience result alias.
pub type Result<T> = std::result::Result<T, GraphError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_variants() {
        assert!(GraphError::InvalidCompatibility("x".into())
            .to_string()
            .contains("compatibility"));
        assert!(GraphError::InvalidLabels("y".into())
            .to_string()
            .contains("labels"));
        assert!(GraphError::InvalidGeneratorConfig("z".into())
            .to_string()
            .contains("generator"));
        assert_eq!(
            GraphError::InvalidParameter("k must be >= 1".into()).to_string(),
            "invalid parameter: k must be >= 1"
        );
        assert!(GraphError::NodeOutOfBounds { node: 5, n: 3 }
            .to_string()
            .contains('5'));
        let parse = GraphError::Parse {
            line: 7,
            message: "invalid node id 'x'".into(),
        };
        assert_eq!(
            parse.to_string(),
            "parse error at line 7: invalid node id 'x'"
        );
        assert!(GraphError::Io("cannot read file".into())
            .to_string()
            .starts_with("io error"));
    }

    #[test]
    fn from_sparse_error() {
        let e: GraphError = fg_sparse::SparseError::NotSquare { rows: 1, cols: 2 }.into();
        assert!(e.to_string().contains("linear algebra"));
        assert!(std::error::Error::source(&e).is_some());
    }
}
