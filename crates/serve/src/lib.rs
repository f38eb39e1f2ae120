//! # salsa-serve — a network query frontend for the SALSA pipeline
//!
//! The pipeline crates turn SALSA's self-adjusting sketches (PAPER.md)
//! into a sharded, elastic, fault-tolerant ingest path; this crate is the
//! "millions of users" story on top of it: a dependency-free TCP query
//! service over `std::net`, fronting any
//! [`SnapshotSource`](salsa_pipeline::SnapshotSource) (a `LiveHandle`,
//! which keeps serving across shard restarts and rescales, or anything
//! custom).  Four layers:
//!
//! 1. **Wire protocol** ([`wire`]): length-delimited frames carrying
//!    point queries, candidate-set top-k, subscriptions and stats, with
//!    every data response stamped with the answering view's epoch and
//!    coverage.  Decoding is total — garbage becomes a typed
//!    [`WireError`], never a panic.
//! 2. **Request coalescing** ([`coalesce`]): concurrent queries inside a
//!    coalescing window share one snapshot fetch through a
//!    [`CachedSnapshots`](salsa_pipeline::CachedSnapshots) layer, keeping
//!    the steady-state serve path allocation-free (the PR 9 arena
//!    discipline end to end).
//! 3. **Top-k subscriptions** ([`server`]): the server pushes a refreshed
//!    top-k at a client-chosen cadence, degrading to latest-only (skipped
//!    ticks, visible as `seq` gaps) for slow consumers.
//! 4. **Admission control** ([`shed`]): requests are admitted against an
//!    in-flight cap *and* the ingest path's published load gauges, and
//!    refused with typed `Overloaded` responses instead of queueing —
//!    measured load, not static watermarks.
//!
//! Serving metrics land in [`salsa_metrics::ServeCounters`] /
//! [`salsa_metrics::CacheGauges`]; end-to-end throughput is benchmarked by
//! `fig_serve` (real loopback sockets) and gated in CI.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod client;
pub mod coalesce;
pub mod server;
pub mod shed;
pub mod wire;

pub use client::{ClientError, PointAnswer, QueryClient, Subscription, TopKAnswer, Update};
pub use coalesce::Coalescer;
pub use server::{serve, ServeConfig, ServerHandle};
pub use shed::{Admission, AdmissionConfig, Permit, Shed};
pub use wire::{ErrorCode, Request, Response, WireError, WireMeta, WireStats};
