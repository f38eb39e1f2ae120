//! Bad fixture: a crate root outside `crates/hash/src` that denies
//! instead of forbidding unsafe code.

#![deny(unsafe_code)]

pub fn answer() -> u32 {
    42
}
