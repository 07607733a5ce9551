//! Performance-Driven Processor Allocation (PDPA).
//!
//! This crate is the paper's primary contribution: a coordinated scheduling
//! policy that decides both the **processor allocation** and the
//! **multiprogramming level** from application performance measured at
//! runtime (§4).
//!
//! - The *allocation policy* runs a per-application search for the largest
//!   allocation whose efficiency still clears a **target efficiency**,
//!   using the state machine of Fig. 2 (`NO_REF → INC/DEC/STABLE`).
//! - The *multiprogramming-level policy* admits a new job when free
//!   processors exist and every running job's allocation is settled, or
//!   when some job shows bad performance (its processors are about to be
//!   returned).
//!
//! The public entry point is [`Pdpa`], which implements
//! [`pdpa_policies::SchedulingPolicy`] and can be handed to the execution
//! engine exactly like any baseline policy. [`ROSTER`] lists it with every
//! baseline under the stable names the tools select policies by.
//!
//! # Example
//!
//! ```
//! use pdpa_core::{Pdpa, PdpaParams};
//! use pdpa_policies::SchedulingPolicy;
//!
//! let pdpa = Pdpa::new(PdpaParams::default());
//! assert_eq!(pdpa.name(), "PDPA");
//! assert_eq!(pdpa.params().target_eff, 0.7);
//! ```

pub mod mlevel;
pub mod params;
pub mod pdpa;
pub mod roster;
pub mod state;

pub use mlevel::{ml_allows_start, MlSnapshot};
pub use params::{PdpaParams, TargetMode};
pub use pdpa::Pdpa;
pub use roster::{by_slug, RosterEntry, ROSTER};
pub use state::{evaluate, AppState, Transition};
