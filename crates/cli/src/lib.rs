//! Library surface of the `cps` command-line tool (separated from the
//! binary so the argument parser and command plumbing are testable).

#![deny(missing_docs)]
#![cfg_attr(not(test), deny(clippy::unwrap_used))]
#![forbid(unsafe_code)]

pub mod args;
pub mod commands;
