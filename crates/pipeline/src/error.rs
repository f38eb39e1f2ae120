//! Typed errors for the pipeline's snapshot and drain paths.
//!
//! Before the fault-tolerance layer, every liveness assumption on these
//! paths was an `expect()`: a single shard-worker panic poisoned the whole
//! pipeline at the next query.  Snapshots now return a [`PipelineError`]
//! when no view can be served, and [`try_drain`] when its barrier misses
//! a deadline.  Ingest never fails: a batch that cannot be delivered is
//! counted as lost, and [`finish`] reports lost items and dead shards in
//! its [`PipelineOutput`] instead.
//!
//! [`try_drain`]: crate::ShardedPipeline::try_drain
//! [`finish`]: crate::ShardedPipeline::finish
//! [`PipelineOutput`]: crate::PipelineOutput

use std::fmt;
use std::time::Duration;

/// What went wrong on a pipeline operation.
///
/// Shard death is usually *not* fatal: snapshot and drain degrade to the
/// surviving shards (see the coverage metadata on
/// [`SnapshotView`](crate::SnapshotView)), so only total failure and
/// exhausted deadlines surface as errors.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum PipelineError {
    /// The pipeline has been finished (or dropped): the workers are gone by
    /// design and no further operation can succeed.
    Finished,
    /// Every live shard worker is dead: there is nothing left to merge a
    /// view from.
    AllShardsDown,
    /// A bounded wait (a snapshot or drain reply, a rescale's seal window)
    /// hit its deadline.
    Timeout {
        /// Which edge timed out (e.g. `"snapshot"`, `"drain"`).
        operation: &'static str,
        /// How long the operation waited before giving up.
        waited: Duration,
    },
}

impl fmt::Display for PipelineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PipelineError::Finished => write!(f, "pipeline already finished"),
            PipelineError::AllShardsDown => write!(f, "every shard worker is down"),
            PipelineError::Timeout { operation, waited } => {
                write!(f, "{operation} timed out after {waited:?}")
            }
        }
    }
}

impl std::error::Error for PipelineError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn displays_name_the_failure() {
        assert!(PipelineError::Timeout {
            operation: "drain",
            waited: Duration::from_millis(250),
        }
        .to_string()
        .starts_with("drain timed out after "));
        assert_eq!(
            PipelineError::Finished.to_string(),
            "pipeline already finished"
        );
        assert_eq!(
            PipelineError::AllShardsDown.to_string(),
            "every shard worker is down"
        );
    }

    #[test]
    fn is_a_std_error() {
        fn takes_error(_: &dyn std::error::Error) {}
        takes_error(&PipelineError::AllShardsDown);
    }
}
