//! # vqs-core — optimal fact-set summarization for voice output
//!
//! Rust reproduction of *"Optimally Summarizing Data by Small Fact Sets
//! for Concise Answers to Voice Queries"* (Trummer & Anderson, ICDE 2021).
//!
//! Given a relation with dimension columns and one numeric target column,
//! the library selects a bounded set of *facts* — scoped averages such as
//! "the average delay in Winter is 15 minutes" — that minimizes the
//! deviation between a listener's induced expectations and the actual
//! data (§II). Solvers:
//!
//! * [`algorithms::ExactSummarizer`] — guaranteed optimal (Algorithm 1),
//! * [`algorithms::GreedySummarizer`] — `(1−1/e)`-approximate (Algorithm 2)
//!   with optional fact-group pruning (Algorithm 3) and a cost-based
//!   pruning-plan optimizer (Algorithm 4),
//! * [`algorithms::BruteForceSummarizer`] — reference enumeration.
//!
//! ```
//! use vqs_core::prelude::*;
//!
//! // Average flight delays by season and region (the paper's Fig. 1).
//! let relation = EncodedRelation::from_rows(
//!     &["season", "region"],
//!     "delay",
//!     vec![
//!         (vec!["Winter", "East"], 20.0),
//!         (vec!["Winter", "South"], 10.0),
//!         (vec!["Summer", "South"], 20.0),
//!         (vec!["Summer", "East"], 0.0),
//!     ],
//!     Prior::Constant(0.0),
//! ).unwrap();
//!
//! // All facts restricting at most two dimensions.
//! let catalog = FactCatalog::build(&relation, &[0, 1], 2).unwrap();
//! let problem = Problem::new(&relation, &catalog, 2).unwrap();
//!
//! let summary = GreedySummarizer::with_optimized_pruning()
//!     .summarize(&problem)
//!     .unwrap();
//! assert!(summary.utility > 0.0);
//! println!("{}", summary.speech.describe(&relation));
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod algorithms;
pub mod complexity;
pub mod delta;
pub mod enumeration;
pub mod error;
pub mod instrument;
pub mod model;
pub mod relational;

/// Convenient glob-import surface.
pub mod prelude {
    pub use crate::algorithms::{
        BruteForceSummarizer, ExactSummarizer, FactPruning, GreedySummarizer, Problem,
        PruneOptimizerConfig, Summarizer, Summary,
    };
    pub use crate::delta::{mask_dims, subset_masks};
    pub use crate::enumeration::{FactCatalog, FactGroup, RowPartition};
    pub use crate::error::{CoreError, Result};
    pub use crate::instrument::Instrumentation;
    pub use crate::model::{
        base_error, speech_error, speech_error_under, utility, Dimension, EncodedRelation,
        ExpectationModel, Fact, FactId, Prior, ResidualState, Scope, Speech, UndoArena,
    };
}
