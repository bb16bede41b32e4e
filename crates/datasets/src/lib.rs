//! # ev-datasets — synthetic datasets for the Ev-Edge reproduction
//!
//! Stands in for the MVSEC and DENSE datasets of the paper's evaluation
//! (§5): calibrated statistical sequences ([`mvsec`]) and per-network
//! input representations explaining the Figure 3 density spread
//! ([`representation`]).
//!
//! ## Example
//!
//! ```
//! use ev_datasets::mvsec::{SequenceId, default_window};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let seq = SequenceId::IndoorFlying2.sequence();
//! let events = seq.generate(default_window())?;
//! assert!(events.len() > 10_000); // a busy flying sequence
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod mvsec;
pub mod representation;

pub use mvsec::{Sequence, SequenceId};
pub use representation::{representation_for, InputRepresentation};
