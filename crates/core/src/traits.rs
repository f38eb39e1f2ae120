//! Row traits: the interface between counter arrays and sketches.
//!
//! Every sketch in `salsa-sketches` is generic over a row type.  Plugging in
//! a [`crate::fixed::FixedRow`] gives the vanilla (baseline) sketch, a
//! [`crate::row::SalsaRow`] gives the SALSA variant, a
//! [`crate::tango::TangoRow`] gives the Tango variant, and so on — exactly
//! how the paper "SALSA-fies" existing sketches without changing their
//! update/query logic.

/// A row of non-negative counters (used by CMS, CUS, Cold Filter, AEE).
pub trait Row {
    /// Number of *base* counter slots in the row.
    fn width(&self) -> usize;

    /// Current value of the counter containing base slot `idx`.
    fn read(&self, idx: usize) -> u64;

    /// Adds `value` to the counter containing base slot `idx` (Count-Min
    /// update), merging / saturating on overflow as the row dictates.
    fn add(&mut self, idx: usize, value: u64);

    /// Raises the counter containing `idx` to at least `target`
    /// (conservative-update style); does nothing if it is already ≥ `target`.
    fn raise_to(&mut self, idx: usize, target: u64);

    /// Memory consumed by the row in bytes, **including** any merge-encoding
    /// overhead (the paper's memory axes include this overhead).
    fn size_bytes(&self) -> usize;

    /// Adds 1 to the counter containing each base slot in `buckets` — the
    /// unit-weight batched hot path used by the sharded pipeline.
    ///
    /// The provided implementation simply loops over [`Row::add`]; row types
    /// with cheaper unit-increment paths override it, and every override
    /// leaves the row exactly as that loop would:
    ///
    /// * [`crate::fixed::FixedRow`] bumps each counter below capacity;
    /// * [`crate::row::SalsaRow`] adds word-locally: it decodes the
    ///   counter's level from the merge markers of its own storage word
    ///   ([`crate::encoding::MergeEncoding::word_markers`]) and bumps the
    ///   counter's bit field in place.  Only a full counter falls back to
    ///   [`Row::add`]'s own handling: it stays saturated at the maximum
    ///   level, or merges up and then takes the unit.
    ///
    /// Processing a whole batch against one row at a time keeps that row's
    /// storage hot in cache, which is where the batched update loop gets
    /// its speed.
    #[inline]
    fn add_unit_batch(&mut self, buckets: &[usize]) {
        for &bucket in buckets {
            self.add(bucket, 1);
        }
    }

    /// Estimated number of base counter slots that are still zero, used by
    /// the Linear Counting distinct-count estimator.
    ///
    /// For fixed-width rows this is exact; for SALSA rows it applies the
    /// paper's heuristic (Section V, "Count Distinct"): merged counters are
    /// assumed to hide zero sub-slots at the same rate `f` observed among
    /// unmerged slots.
    fn estimated_zero_base_slots(&self) -> f64;

    /// Bytes that must be copied to clone this row for a point-in-time
    /// snapshot (the live-query path clones every row of a shard's sketch
    /// on demand).
    ///
    /// Defaults to [`Row::size_bytes`]: a row's clone copies exactly its
    /// counter storage plus its merge-encoding metadata.  Row types that
    /// carry extra transient state (scratch buffers, caches) override this
    /// to account for it, so snapshot budgeting stays honest.
    fn clone_cost_bytes(&self) -> usize {
        self.size_bytes()
    }

    /// Overwrites this row with `src`'s contents **without allocating**:
    /// the buffer-reusing counterpart of `Clone`, used by the
    /// zero-allocation snapshot/merge hot path to refresh a warm row in
    /// place.  Both rows must have the same shape (width, counter sizes).
    fn copy_from(&mut self, src: &Self);

    /// Resets every counter to zero without deallocating.
    fn reset(&mut self);
}

/// A row of signed counters (used by the Count Sketch).
pub trait SignedRow {
    /// Number of *base* counter slots in the row.
    fn width(&self) -> usize;

    /// Current (signed) value of the counter containing base slot `idx`.
    fn read(&self, idx: usize) -> i64;

    /// Adds `value` (possibly negative) to the counter containing `idx`.
    fn add(&mut self, idx: usize, value: i64);

    /// Memory consumed by the row in bytes, including encoding overhead.
    fn size_bytes(&self) -> usize;

    /// Bytes that must be copied to clone this row for a point-in-time
    /// snapshot; defaults to [`SignedRow::size_bytes`] (see
    /// [`Row::clone_cost_bytes`]).
    fn clone_cost_bytes(&self) -> usize {
        self.size_bytes()
    }

    /// Overwrites this row with `src`'s contents **without allocating**
    /// (see [`Row::copy_from`]).
    fn copy_from(&mut self, src: &Self);

    /// Resets every counter to zero without deallocating.
    fn reset(&mut self);
}

/// How two counters combine when SALSA merges them.
///
/// * `Sum` is correct in the (Strict) Turnstile model and is what the Count
///   Sketch must use.
/// * `Max` is tighter in the Cash Register model (Theorem V.2) and is what
///   SALSA CUS must use (Theorem V.3).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum MergeOp {
    /// Merged value = sum of the merged counters.
    Sum,
    /// Merged value = maximum of the merged counters.
    #[default]
    Max,
}

impl MergeOp {
    /// Combines two counter values under this merge operation (saturating).
    #[inline(always)]
    pub fn combine(self, a: u64, b: u64) -> u64 {
        match self {
            MergeOp::Sum => a.saturating_add(b),
            MergeOp::Max => a.max(b),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rows_are_send() {
        // The sharded pipeline moves rows (inside sketches) onto worker
        // threads; this pins down that every row type stays `Send`.
        fn assert_send<T: Send + 'static>() {}
        assert_send::<crate::fixed::FixedRow>();
        assert_send::<crate::fixed::FixedSignedRow>();
        assert_send::<crate::row::SimpleSalsaRow>();
        assert_send::<crate::row::CompactSalsaRow>();
        assert_send::<crate::row::SimpleSalsaSignedRow>();
        assert_send::<crate::row::CompactSalsaSignedRow>();
        assert_send::<crate::tango::TangoRow>();
    }

    #[test]
    fn add_unit_batch_default_matches_adds() {
        let mut a = crate::row::SimpleSalsaRow::new(16, 8, MergeOp::Sum);
        let mut b = a.clone();
        let buckets: Vec<usize> = (0..400).map(|i| (i * 7) % 16).collect();
        a.add_unit_batch(&buckets);
        for &bucket in &buckets {
            b.add(bucket, 1);
        }
        for i in 0..16 {
            assert_eq!(a.read(i), b.read(i), "slot {i}");
            assert_eq!(a.level_of(i), b.level_of(i), "slot {i}");
        }
        // `TangoRow` runs the provided default itself.
        let mut a = crate::tango::TangoRow::new(16, 8, MergeOp::Sum);
        let mut b = a.clone();
        a.add_unit_batch(&buckets);
        for &bucket in &buckets {
            b.add(bucket, 1);
        }
        for i in 0..16 {
            assert_eq!(a.read(i), b.read(i), "tango slot {i}");
            assert_eq!(a.span_of(i), b.span_of(i), "tango slot {i}");
        }
        assert_eq!(a.merge_events(), b.merge_events());
    }

    #[test]
    fn clone_cost_defaults_to_size_bytes() {
        // Snapshot budgeting: cloning a row copies its counters + encoding,
        // which is exactly what size_bytes reports for every stock row.
        let fixed = crate::fixed::FixedRow::new(128, 32);
        assert_eq!(Row::clone_cost_bytes(&fixed), Row::size_bytes(&fixed));
        let salsa = crate::row::SimpleSalsaRow::new(128, 8, MergeOp::Sum);
        assert_eq!(Row::clone_cost_bytes(&salsa), Row::size_bytes(&salsa));
        let signed = crate::fixed::FixedSignedRow::new(128, 32);
        assert_eq!(
            SignedRow::clone_cost_bytes(&signed),
            SignedRow::size_bytes(&signed)
        );
    }

    #[test]
    fn copy_from_refreshes_a_warm_row_in_place() {
        // The zero-allocation snapshot path overwrites warm buffers instead
        // of cloning; the result must be indistinguishable from a clone.
        let mut src = crate::row::SimpleSalsaRow::new(32, 8, MergeOp::Sum);
        for i in 0..2_000u64 {
            src.add((i % 32) as usize, i % 300);
        }
        let mut dst = crate::row::SimpleSalsaRow::new(32, 8, MergeOp::Sum);
        dst.add(3, 999); // stale state that must be fully overwritten
        dst.copy_from(&src);
        for i in 0..32 {
            assert_eq!(dst.read(i), src.read(i), "slot {i}");
            assert_eq!(dst.level_of(i), src.level_of(i), "slot {i}");
        }
        assert_eq!(dst.merge_events(), src.merge_events());

        let mut tsrc = crate::tango::TangoRow::new(16, 8, MergeOp::Max);
        tsrc.add(9, 300);
        let mut tdst = crate::tango::TangoRow::new(16, 8, MergeOp::Max);
        tdst.copy_from(&tsrc);
        assert_eq!(tdst.read(9), tsrc.read(9));
        assert_eq!(tdst.span_of(9), tsrc.span_of(9));

        let mut fsrc = crate::fixed::FixedRow::new(16, 8);
        fsrc.add(2, 77);
        let mut fdst = crate::fixed::FixedRow::new(16, 8);
        fdst.copy_from(&fsrc);
        assert_eq!(fdst.read(2), 77);

        let mut ssrc = crate::row::SimpleSalsaSignedRow::new(16, 8);
        ssrc.add(5, -200);
        let mut sdst = crate::row::SimpleSalsaSignedRow::new(16, 8);
        sdst.copy_from(&ssrc);
        assert_eq!(sdst.read(5), -200);
    }

    #[test]
    fn merge_op_combines() {
        assert_eq!(MergeOp::Sum.combine(3, 4), 7);
        assert_eq!(MergeOp::Max.combine(3, 4), 4);
        assert_eq!(MergeOp::Sum.combine(u64::MAX, 1), u64::MAX);
        assert_eq!(MergeOp::Max.combine(u64::MAX, 1), u64::MAX);
    }

    #[test]
    fn default_merge_op_is_max() {
        // The evaluation (Fig. 5) concludes max-merging is the better default
        // for cash-register streams, which is the default stream model here.
        assert_eq!(MergeOp::default(), MergeOp::Max);
    }
}
