//! Workload metrics: response times, execution times, and report tables.
//!
//! The paper's evaluation reports, per scheduling policy and application
//! class, the **average response time** ("the period of time that starts
//! when the application is submitted and finishes when the application
//! completes") and the **average execution time** (start to completion),
//! plus workload-level quantities: makespan, utilization, and the
//! multiprogramming-level history of Fig. 8.

pub mod outcome;
pub mod summary;
pub mod table;

pub use outcome::JobOutcome;
pub use summary::{nearest_rank, ClassAverages, Summary};
pub use table::{format_row, improvement_pct, TableBuilder};
