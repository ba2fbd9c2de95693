//! # gfc-experiments — the paper's evaluation, regenerated
//!
//! One module per table/figure of the GFC paper (SIGCOMM'19). Each module
//! exposes a `Params` struct (with sensible `Default`s at bench scale), a
//! `run(params) -> Result` entry point, and a `report()` that prints
//! paper-vs-measured rows. See EXPERIMENTS.md for the recorded outcomes
//! and DESIGN.md §8 for the switch-discipline notes.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod ablation;
pub mod blame;
pub mod common;
pub mod fig05;
pub mod fig09;
pub mod fig10;
pub mod fig12;
pub mod fig13;
pub mod fig14;
pub mod fig18;
pub mod fig19;
pub mod fig20;
pub mod perf;
pub mod preflight_corpus;
pub mod shootout;
pub mod table1;

pub use common::{Scale, Scheme};
