//! Synchronization-primitive indirection for model checking.
//!
//! Production builds (the default) re-export `std::sync` directly — the
//! abstraction costs nothing, `crate::sync::atomic::AtomicU64` *is*
//! `std::sync::atomic::AtomicU64`.  With the `loom-lite` cargo feature
//! the same names resolve to the modeled primitives of the `loom_lite`
//! crate, whose deterministic scheduler exhaustively explores bounded
//! thread interleavings, so the shared-state protocols in this crate
//! (epoch/progress publication, the snapshot cache, the rescale seal
//! window) can be compiled into interleaving models unchanged.
//!
//! The channels (`std::sync::mpsc`) stay on std in both configurations:
//! the protocols under check are the lock/atomic ones, and the FIFO
//! property the pipeline relies on holds by construction.

#[cfg(feature = "loom-lite")]
pub use loom_lite::sync::{atomic, Arc, Mutex, RwLock};

#[cfg(not(feature = "loom-lite"))]
pub use std::sync::{atomic, Arc, Mutex, RwLock};
