//! Bad fixture: the audited crate (its path mirrors `crates/hash/src`)
//! may deny instead of forbid, but it holds a second allow site.

#![deny(unsafe_code)]

#[allow(unsafe_code)]
pub fn first(bytes: &[u8]) -> u8 {
    assert!(!bytes.is_empty());
    // SAFETY: the assertion above guarantees the slice is non-empty, so
    // the pointer read stays in bounds.
    unsafe { *bytes.as_ptr() }
}

/// Trips rule 2: the cap is one `#[allow(unsafe_code)]` site per run.
/// Its `unsafe` carries a proof, so nothing else trips.
#[allow(unsafe_code)]
pub fn second(bytes: &[u8]) -> u8 {
    assert!(bytes.len() > 1);
    // SAFETY: the assertion above guarantees index 1 is in bounds.
    unsafe { *bytes.as_ptr().add(1) }
}
