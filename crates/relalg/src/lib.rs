//! # vqs-relalg — minimal in-memory relational engine
//!
//! Execution substrate for the voice-query summarization reproduction.
//! The paper ("Optimally Summarizing Data by Small Fact Sets for Concise
//! Answers to Voice Queries", ICDE 2021) runs its algorithms *inside* a
//! relational DBMS, "executed as a series of relational operators". This
//! crate provides that substrate: columnar [`table::Table`]s with
//! dictionary-encoded strings, a scalar [`expr::Expr`] language with SQL
//! NULL semantics, the operator set used by the paper's pseudo-code
//! (σ, Π, Γ, ⋊⋉, ×) including the fact-scope join, composable
//! [`plan::Plan`]s and the [`cost::CostModel`] consumed by the pruning
//! optimizer.
//!
//! ```
//! use vqs_relalg::prelude::*;
//!
//! let schema = Schema::new(vec![
//!     Field::required("season", ColumnType::Str),
//!     Field::required("delay", ColumnType::Float),
//! ]).unwrap();
//! let table = Table::from_rows(schema, vec![
//!     vec!["Winter".into(), 20.0.into()],
//!     vec!["Winter".into(), 10.0.into()],
//!     vec!["Summer".into(), 20.0.into()],
//! ]).unwrap();
//!
//! let averages = Plan::values(table)
//!     .aggregate(
//!         vec![Expr::col(0)],
//!         vec!["season".into()],
//!         vec![AggItem::new(AggFunc::Avg, Expr::col(1), "avg_delay")],
//!     )
//!     .execute()
//!     .unwrap();
//! assert_eq!(averages.len(), 2);
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod cost;
pub mod error;
pub mod expr;
pub mod hash;
pub mod ops;
pub mod plan;
pub mod schema;
pub mod table;
pub mod value;

/// Convenient glob-import surface.
pub mod prelude {
    pub use crate::cost::CostModel;
    pub use crate::error::{RelalgError, Result};
    pub use crate::expr::{BinOp, Expr, UnOp};
    pub use crate::hash::{FxHashMap, FxHashSet};
    pub use crate::ops::aggregate::{AggFunc, AggItem};
    pub use crate::ops::join::JoinType;
    pub use crate::ops::ProjectItem;
    pub use crate::plan::Plan;
    pub use crate::schema::{Field, Schema};
    pub use crate::table::{ColumnData, Dictionary, Table};
    pub use crate::value::{ColumnType, Value};
}
