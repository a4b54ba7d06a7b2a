//! # gomil-arith — multiplier front-end substrate
//!
//! Everything between a multiplier's operands and its final two-row matrix:
//!
//! * [`Bcv`] — bit count vectors, the abstraction the paper's CT ILP works
//!   on, plus the Wallace stage-count sequence 2, 3, 4, 6, 9, 13, …;
//! * [`BitMatrix`] — the symbolic matrix of actual wires;
//! * partial product generators: unsigned [AND arrays](and_ppg) and signed
//!   [radix-4 modified Booth](booth4_ppg) with sign-extension elimination;
//! * [`CompressionSchedule`] — per-stage/per-column 3:2 and 2:2 compressor
//!   counts (the `f`/`h` unknowns of the CT ILP) with validation;
//! * [Wallace](wallace_schedule) and [Dadda](dadda_schedule) schedule
//!   generators (the baselines, and the ILP warm start);
//! * [`realize_schedule`] — turns a schedule into gates, earliest-arrival
//!   first.
//!
//! ## Example: a verified 4-bit Wallace reduction
//!
//! ```
//! use gomil_arith::{and_ppg, realize_schedule, wallace_schedule};
//! use gomil_netlist::Netlist;
//!
//! # fn main() -> Result<(), gomil_arith::ScheduleError> {
//! let mut nl = Netlist::new("mul4");
//! let a = nl.add_input("a", 4);
//! let b = nl.add_input("b", 4);
//! let pp = and_ppg(&mut nl, &a, &b);
//! let sched = wallace_schedule(&pp.heights());
//! let reduced = realize_schedule(&mut nl, &pp, &sched)?;
//! assert!(reduced.heights().is_reduced());
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod baugh_wooley;
mod bcv;
mod bitmatrix;
mod booth8;
mod dadda;
mod ppg;
mod realize;
mod schedule;
mod steer;
mod wallace;

pub use baugh_wooley::baugh_wooley_ppg;
pub use bcv::{min_stages, wallace_height_bound, Bcv};
pub use bitmatrix::BitMatrix;
pub use booth8::booth8_ppg;
pub use dadda::dadda_schedule;
pub use ppg::{and_ppg, booth4_ppg, PpgKind};
pub use realize::realize_schedule;
pub use schedule::{CompressionSchedule, ScheduleError, StageCounts};
pub use steer::{
    required_stages, required_stages_modular, schedule_toward_target,
    schedule_toward_target_modular, try_required_stages, Steered, Steerer,
};
pub use wallace::{wallace_schedule, wallace_stages_for};
