//! # acd-sfc — space filling curve substrate
//!
//! This crate implements everything the covering-detection index in
//! [`acd-covering`](../acd_covering/index.html) needs from a space filling
//! curve (SFC) library, built from scratch:
//!
//! * [`Universe`] — a `d`-dimensional grid of `2^k × … × 2^k` cells, and
//!   [`Point`]s inside it.
//! * [`Key`] — arbitrary-precision (`d·k`-bit) SFC keys with total ordering.
//! * [`SpaceFillingCurve`] — a trait implemented by the [`ZCurve`] (Morton
//!   order), the [`HilbertCurve`] and the [`GrayCurve`]; all three are based
//!   on recursive bisection of the universe, so a *standard cube* is always a
//!   single contiguous run of keys (Fact 2.1 of the paper).
//! * [`Rect`] / [`ExtremalRect`] — axis-aligned query rectangles, including
//!   the *extremal* rectangles (anchored at the universe's top corner) that
//!   arise from point-dominance queries, together with the bit-truncation
//!   operators `t(ℓ, m)` and `S_i(ℓ)` from the paper.
//! * [`decompose`] / [`extremal`] — greedy decomposition of a region into a
//!   minimum number of standard cubes: a generic top-down algorithm for
//!   arbitrary rectangles and the paper's specialized, lazily-evaluated
//!   per-level enumeration for extremal rectangles (Lemma 3.4, Algorithms
//!   1–3).
//! * [`runs`] — merging cube key-ranges into runs and counting them
//!   (`runs(T) ≤ cubes(T)`, Lemma 3.1).
//! * [`OrthantSeeker`] / [`OrthantWordSeeker`] — the Z curve's closed-form
//!   seek to the next key inside a dominance orthant, on packed keys of at
//!   most 128 bits and on the big-endian words of wider keys; the
//!   populated-key query sweep's gap jumps.
//! * [`SfcArray`] — the one-dimensional sorted array of keys that backs the
//!   index, with efficient range probes; it stores each cell as its key and
//!   each entry as its value alone.
//! * [`analysis`] — analytic calculators for the paper's Theorem 3.1 upper
//!   bound, Theorem 4.1 lower bound and Lemma 3.2 volume guarantee.
//!
//! ## Example
//!
//! ```
//! use acd_sfc::{Universe, Point, ZCurve, SpaceFillingCurve};
//!
//! # fn main() -> Result<(), acd_sfc::SfcError> {
//! let universe = Universe::new(2, 8)?; // 2 dimensions, 256 x 256 cells
//! let curve = ZCurve::new(universe.clone());
//! let p = Point::new(vec![3, 5])?;
//! let key = curve.key_of_point(&p)?;
//! assert_eq!(curve.point_of_key(&key)?, p);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
// No hand-made panics outside tests; a waiver is a reasoned `#[expect]`.
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::panic))]
#![cfg_attr(not(test), deny(clippy::unreachable, clippy::todo))]
#![cfg_attr(not(test), deny(clippy::unimplemented))]
#![warn(missing_debug_implementations)]

pub mod analysis;
pub mod appendix_a;
pub mod array;
pub mod bits;
pub mod cube;
pub mod curve;
pub mod decompose;
mod error;
pub mod extremal;
pub mod gray;
pub mod hilbert;
pub mod key;
pub mod rect;
pub mod runs;
pub mod simd;
pub mod universe;
pub mod zorder;

pub use array::{SfcArray, SweepCursor};
pub use cube::StandardCube;
pub use curve::{CurveKind, RegionSeeker, SpaceFillingCurve};
pub use error::SfcError;
pub use extremal::{ExtremalCubes, LevelCubes};
pub use gray::GrayCurve;
pub use hilbert::HilbertCurve;
pub use key::{Key, KeyRange};
pub use rect::{ExtremalRect, Rect};
pub use runs::Run;
pub use universe::{Point, Universe};
pub use zorder::{OrthantSeeker, OrthantWordSeeker, ZCurve};

/// Convenience result alias used throughout the crate.
pub type Result<T, E = SfcError> = std::result::Result<T, E>;
