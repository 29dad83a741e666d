//! The workspace-level error type threaded through the query engine.
//!
//! Query processing used to panic (or carry a facade-private
//! `QueryError`) on bad input; every fallible engine entry point now
//! returns a [`VkgError`] instead. Panics remain only for *invariant
//! violations* — broken internal state that no caller input can produce —
//! and their messages name the invariant.

use std::fmt;

use vkg_kg::KgError;

/// Convenience alias for results produced by the engine layer.
pub type VkgResult<T> = Result<T, VkgError>;

/// Errors raised when assembling or querying a virtual knowledge graph.
#[derive(Debug, Clone, PartialEq)]
pub enum VkgError {
    /// The query entity id is out of range.
    UnknownEntity(u32),
    /// The relation id is out of range.
    UnknownRelation(u32),
    /// The aggregate references an attribute that does not exist.
    UnknownAttribute(String),
    /// An attribute aggregate was requested without naming an attribute.
    MissingAttribute,
    /// A caller-supplied parameter is outside its valid range (e.g.
    /// `k = 0`, `ε ≤ 0`, a probability threshold outside `(0, 1]`).
    InvalidParameter(String),
    /// Two components that must agree on a size do not (e.g. the
    /// embedding store and graph disagree on the entity count).
    Mismatch {
        /// What disagreed (human-readable, e.g. `"entity count"`).
        what: &'static str,
        /// The size the graph/configuration expected.
        expected: usize,
        /// The size actually found.
        found: usize,
    },
    /// The engine does not implement the requested operation (e.g.
    /// aggregates on a baseline without element summaries).
    Unsupported {
        /// `QueryEngine::name()` of the refusing engine.
        engine: String,
        /// The operation that is not supported.
        operation: &'static str,
    },
    /// An underlying knowledge-graph operation failed (rendered message;
    /// the original [`KgError`] may wrap a non-clonable I/O error).
    Graph(String),
    /// The durability layer refused or failed the write: the WAL append
    /// or flush did not complete, so the write was **not** applied and
    /// **not** acked (rendered [`crate::wal::WalError`]).
    Durability(String),
}

impl fmt::Display for VkgError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            VkgError::UnknownEntity(id) => write!(f, "unknown entity id {id}"),
            VkgError::UnknownRelation(id) => write!(f, "unknown relation id {id}"),
            VkgError::UnknownAttribute(a) => write!(f, "unknown attribute {a:?}"),
            VkgError::MissingAttribute => {
                write!(f, "aggregate kind requires an attribute name")
            }
            VkgError::InvalidParameter(what) => write!(f, "invalid parameter: {what}"),
            VkgError::Mismatch {
                what,
                expected,
                found,
            } => {
                write!(f, "{what} mismatch: expected {expected}, found {found}")
            }
            VkgError::Unsupported { engine, operation } => {
                write!(f, "engine {engine:?} does not support {operation}")
            }
            VkgError::Graph(e) => write!(f, "knowledge graph error: {e}"),
            VkgError::Durability(e) => write!(f, "durability error: {e}"),
        }
    }
}

impl std::error::Error for VkgError {}

impl From<crate::wal::WalError> for VkgError {
    fn from(e: crate::wal::WalError) -> Self {
        VkgError::Durability(e.to_string())
    }
}

impl From<KgError> for VkgError {
    fn from(e: KgError) -> Self {
        match e {
            KgError::UnknownEntity(id) => VkgError::UnknownEntity(id),
            KgError::UnknownRelation(id) => VkgError::UnknownRelation(id),
            KgError::UnknownAttribute(a) => VkgError::UnknownAttribute(a),
            other => VkgError::Graph(other.to_string()),
        }
    }
}

/// Refuses a value that is not finite: NaN and ±∞ must not reach an
/// embedding row, an index point or an attribute column (a NaN
/// coordinate turns into a NaN ball radius at the next query over it).
pub(crate) fn check_finite(what: &'static str, values: &[f64]) -> VkgResult<()> {
    match values.iter().find(|v| !v.is_finite()) {
        Some(v) => Err(VkgError::InvalidParameter(format!(
            "{what} must be finite, found {v}"
        ))),
        None => Ok(()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        assert_eq!(
            VkgError::UnknownEntity(7).to_string(),
            "unknown entity id 7"
        );
        assert!(VkgError::UnknownAttribute("year".into())
            .to_string()
            .contains("year"));
        let m = VkgError::Mismatch {
            what: "entity count",
            expected: 10,
            found: 9,
        };
        assert!(m.to_string().contains("entity count"));
        let u = VkgError::Unsupported {
            engine: "ph-tree".into(),
            operation: "aggregate",
        };
        assert!(u.to_string().contains("aggregate"));
    }

    #[test]
    fn kg_errors_map_to_matching_variants() {
        assert_eq!(
            VkgError::from(KgError::UnknownEntity(3)),
            VkgError::UnknownEntity(3)
        );
        assert_eq!(
            VkgError::from(KgError::UnknownRelation(5)),
            VkgError::UnknownRelation(5)
        );
        assert!(matches!(
            VkgError::from(KgError::UnknownAttribute("x".into())),
            VkgError::UnknownAttribute(_)
        ));
    }
}
