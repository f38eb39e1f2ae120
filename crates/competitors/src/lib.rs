//! # salsa-competitors — variable-counter-size baselines
//!
//! The SALSA evaluation (Fig. 8 and Fig. 9) compares against the two prior
//! schemes that also vary counter sizes on the fly:
//!
//! * [`pyramid::PyramidSketch`] — Pyramid Sketch (Yang et al., VLDB'17):
//!   pre-allocated layers of progressively fewer counters; overflowing
//!   counters carry into their (shared) parent, so heavy items share their
//!   most significant bits with neighbours.
//! * [`abc::AbcSketch`] — ABC (Gong et al., IEEE BigData'17): an
//!   overflowing 8-bit counter "borrows" bits from its right neighbour; the
//!   combined counter spends 3 bits on bookkeeping (counting to `2^13 − 1`)
//!   and cannot combine again.
//!
//! Both are re-implemented from their papers' descriptions with the
//! configurations the SALSA paper says it used, and both implement
//! [`salsa_sketches::estimator::FrequencyEstimator`] (with its supertrait
//! [`salsa_sketches::summary::FrequencyQueries`]) so the experiment harness
//! can drive them interchangeably with CMS/SALSA.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod abc;
pub mod pyramid;

pub use abc::AbcSketch;
pub use pyramid::PyramidSketch;
