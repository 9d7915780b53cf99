//! Typed experiment-result layer of the SMART workspace.
//!
//! Every experiment in `smart-bench` *produces data*, not text: a
//! [`ResultTable`] of labelled rows whose cells are typed [`Value`]s
//! (counts, dimensionless numbers, percentages, and unit-carrying physical
//! quantities from [`smart_units`]). Renderers derive the human-readable
//! output from the data — [`ResultTable::to_text`] reproduces the paper's
//! fixed-width figure layout, [`ResultTable::to_csv`] and
//! [`ResultTable::to_json`] feed scripts and plots — so the data can be
//! asserted in tests instead of string-matched.
//!
//! Three things live here:
//!
//! * [`table`] — [`ResultTable`], [`ColumnSpec`], and the typed [`Value`] /
//!   [`Unit`] cell model with the three renderers,
//! * [`scenario`] — [`Scenario`], a named sweep over typed points that runs
//!   its points through a worker pool,
//! * [`pool`] — [`parallel_map`], an order-preserving `std::thread::scope`
//!   worker pool whose nested maps share one worker budget (no
//!   dependencies, no unsafe).
//!
//! # Examples
//!
//! ```
//! use smart_report::{Align, ColumnSpec, ResultTable, Unit, Value};
//! use smart_units::Time;
//!
//! let mut t = ResultTable::new("demo", "Demo: a latency table");
//! t.columns = vec![
//!     ColumnSpec::left("stage", 8),
//!     ColumnSpec::right("latency", 12),
//! ];
//! t.push_row(vec![
//!     Value::text("decode"),
//!     Value::time(Time::from_ps(103.02), Unit::Ps, 2),
//! ]);
//! assert!(t.to_text().contains("103.02"));
//! assert!(t.non_finite_cells().is_empty());
//! ```

#![warn(missing_docs)]
#![warn(clippy::all)]

pub mod pool;
pub mod scenario;
pub mod table;

pub use pool::parallel_map;
pub use scenario::Scenario;
pub use table::{Align, ColumnSpec, ResultTable, Unit, Value};
