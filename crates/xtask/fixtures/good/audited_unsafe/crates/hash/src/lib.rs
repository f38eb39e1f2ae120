//! Good fixture: the audited crate (its path mirrors `crates/hash/src`)
//! denies unsafe code and opts back in at exactly one proven site.

#![deny(unsafe_code)]

#[allow(unsafe_code)]
pub fn read_first(bytes: &[u8]) -> u8 {
    assert!(!bytes.is_empty());
    // SAFETY: the assertion above guarantees the slice is non-empty, so
    // the pointer read stays in bounds.
    unsafe { *bytes.as_ptr() }
}
