//! Hierarchical and semi-partitioned parallel scheduling.
//!
//! This crate implements the primary contribution of *"Algorithms for
//! hierarchical and semi-partitioned parallel scheduling"* (Bonifaci,
//! D'Angelo, Marchetti-Spaccamela, IPDPS 2017): preemptive makespan
//! minimization when each job must be assigned an *affinity mask* drawn
//! from a laminar family of machine sets, with set-dependent processing
//! times modelling migration overheads.
//!
//! Map from the paper to the modules:
//!
//! | paper | module |
//! |---|---|
//! | Section II model, Example II.1 | [`instance`], [`assignment`], [`schedule`] |
//! | (IP-1)/(IP-2)/(IP-3) ILPs | [`formulations`] |
//! | Algorithm 1 (Thm III.1, Prop III.2) | [`semi`] |
//! | Algorithms 2+3 (Lemmas IV.1–IV.2, Thm IV.3) | [`hier`] |
//! | Lemma V.1 push-down | [`pushdown`] |
//! | Lenstra–Shmoys–Tardos rounding | [`lst`] |
//! | Theorem V.2 (2-approximation), Section II 8-approx | [`approx`] |
//! | exact optimum (for ratio experiments) | [`exact`] |
//! | Section VI memory Models 1 & 2 (Thm VI.1, Lemma VI.2, Thm VI.3) | [`memory`] |
//!
//! All quantities are exact rationals ([`numeric::Q`]); schedules are
//! validated structurally (no machine conflict, no job self-parallelism,
//! exact processing amounts) by [`schedule::Schedule::validate`].

pub mod approx;
pub mod assignment;
pub mod exact;
pub mod formulations;
pub mod gantt;
pub mod hier;
pub mod instance;
pub mod lst;
pub mod memory;
#[cfg(test)]
mod oracle;
pub mod pushdown;
pub mod schedule;
pub mod semi;
mod stream;

pub use assignment::Assignment;
pub use instance::{Instance, InstanceError, RestrictedInstance};
pub use schedule::{Schedule, ScheduleError, Segment};
pub use stream::PlaceError;
