//! Integration test support crate (tests live in `tests/tests/`).

pub mod golden;
