//! Bad fixture: the audited crate (its path mirrors `crates/hash/src`)
//! holds its one allow site, then opens a second one spelled `expect`.

#![deny(unsafe_code)]

#[allow(unsafe_code)]
pub fn first(bytes: &[u8]) -> u8 {
    assert!(!bytes.is_empty());
    // SAFETY: the assertion above guarantees the slice is non-empty, so
    // the pointer read stays in bounds.
    unsafe { *bytes.as_ptr() }
}

/// Trips rule 2: `expect` silences `unsafe_code` as `allow` does, so it
/// counts toward the same one-site cap.
#[expect(unsafe_code)]
pub fn second(bytes: &[u8]) -> u8 {
    assert!(bytes.len() > 1);
    // SAFETY: the assertion above guarantees index 1 is in bounds.
    unsafe { *bytes.as_ptr().add(1) }
}
