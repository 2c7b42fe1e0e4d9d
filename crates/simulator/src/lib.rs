//! Discrete-event execution simulator.
//!
//! Replays a [`Schedule`](hsched_core::Schedule) as a stream of start/stop events on machine
//! timelines — an *independent* implementation of the validity predicate
//! (the paper's Section II definition) used to cross-check the analytic
//! validator in `hsched-core`, and the source of execution statistics
//! (utilization, context switches, migrations) for the experiments. The
//! venue's evaluations are simulation-based; this is the corresponding
//! substrate (see DESIGN.md §3). The event list is built once and put
//! in replay order (time, stops before starts, segment order) by one
//! stable sort.

mod engine;
mod report;

pub use engine::{simulate, SimError};
pub use report::{SimReport, TraceEvent, TraceEventKind};
