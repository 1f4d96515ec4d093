//! The [`SpaceFillingCurve`] trait shared by the Z-order, Hilbert and
//! Gray-code curves.
//!
//! All supported curves recursively bisect the universe, which gives them the
//! crucial property the paper relies on (Fact 2.1): every standard cube is a
//! single contiguous run of keys, and that run is exactly the set of keys that
//! share the cube's `d·ℓ`-bit prefix. The trait therefore provides a generic
//! [`cube_key_range`](SpaceFillingCurve::cube_key_range) built on top of each
//! curve's point encoder.

use std::fmt;

use crate::cube::StandardCube;
use crate::key::{Key, KeyRange};
use crate::rect::Rect;
use crate::universe::{Point, Universe};
use crate::zorder::{OrthantSeeker, OrthantWordSeeker};
use crate::Result;

/// A space filling curve over a fixed [`Universe`].
///
/// Implementations must be *recursive* curves: the key of a cell inside a
/// standard cube at level `ℓ` must share its most significant `d·ℓ` bits with
/// every other cell of that cube. The Z-order, Hilbert and Gray-code curves
/// all have this property.
pub trait SpaceFillingCurve: fmt::Debug + Send + Sync {
    /// The universe this curve is defined over.
    fn universe(&self) -> &Universe;

    /// Which member of the curve family this is.
    fn kind(&self) -> CurveKind;

    /// Encodes a cell into its `d·k`-bit key.
    ///
    /// # Errors
    ///
    /// Returns an error if the point does not belong to the universe.
    fn key_of_point(&self, point: &Point) -> Result<Key>;

    /// Decodes a key back into the cell it names.
    ///
    /// # Errors
    ///
    /// Returns an error if the key has the wrong bit width for the universe.
    fn point_of_key(&self, key: &Key) -> Result<Point>;

    /// The contiguous key range occupied by a standard cube (Fact 2.1).
    ///
    /// The default implementation encodes the cube's lower corner and derives
    /// the range from the shared `d·level` bit prefix; this is correct for
    /// every recursive curve.
    ///
    /// # Errors
    ///
    /// Returns an error if the cube does not belong to the universe.
    fn cube_key_range(&self, cube: &StandardCube) -> Result<KeyRange> {
        let low_bits = cube.side_exp() * self.universe().dims() as u32;
        let corner_key = self.key_of_point(&cube.corner_point())?;
        let lo = corner_key.with_low_bits_cleared(low_bits);
        let hi = corner_key.with_low_bits_set(low_bits);
        KeyRange::new(lo, hi)
    }

    /// Curve-specific accelerated region seeking: returns a reusable
    /// [`RegionSeeker`] for `rect`, or `None` when this curve has no
    /// arithmetic fast path for it.
    ///
    /// Only the Z curve overrides this, and only for orthants: a rectangle
    /// whose upper corner is the universe's top corner (every dominance
    /// region), with keys of at most 128 bits, gets its
    /// [`orthant_seeker`](Self::orthant_seeker). Any other rectangle gets
    /// `None`; the query sweep calls the orthant seekers directly.
    fn region_seeker(&self, rect: &Rect) -> Option<Box<dyn RegionSeeker + '_>> {
        let _ = rect;
        None
    }

    /// The closed-form seeker into the dominance orthant `[corner, top]^d`
    /// on packed keys, the engine behind the populated-key query sweep's
    /// gap jumps. Only the Z curve has one, for keys of at most 128 bits;
    /// every other curve returns `None`, as does a corner outside the
    /// universe.
    fn orthant_seeker(&self, corner: &Point) -> Option<OrthantSeeker<'_>> {
        let _ = corner;
        None
    }

    /// The same closed-form seeker on a key's big-endian words, for keys
    /// over 128 bits, where [`orthant_seeker`](Self::orthant_seeker) has
    /// none. Only the Z curve has one; every other curve, narrower keys and
    /// a corner outside the universe get `None`. Between them the two
    /// methods give the Z curve an orthant seeker at every key width.
    fn orthant_word_seeker(&self, corner: &Point) -> Option<OrthantWordSeeker<'_>> {
        let _ = corner;
        None
    }

    /// Human readable name of the curve.
    fn name(&self) -> &'static str {
        self.kind().name()
    }
}

/// A curve chosen at run time ([`CurveKind::build`]) is a curve: every
/// method, the defaulted ones included, forwards to the boxed one, so the
/// Z curve's orthant seekers survive the boxing.
impl SpaceFillingCurve for Box<dyn SpaceFillingCurve> {
    fn universe(&self) -> &Universe {
        (**self).universe()
    }

    fn kind(&self) -> CurveKind {
        (**self).kind()
    }

    fn key_of_point(&self, point: &Point) -> Result<Key> {
        (**self).key_of_point(point)
    }

    fn point_of_key(&self, key: &Key) -> Result<Point> {
        (**self).point_of_key(key)
    }

    fn cube_key_range(&self, cube: &StandardCube) -> Result<KeyRange> {
        (**self).cube_key_range(cube)
    }

    fn region_seeker(&self, rect: &Rect) -> Option<Box<dyn RegionSeeker + '_>> {
        (**self).region_seeker(rect)
    }

    fn orthant_seeker(&self, corner: &Point) -> Option<OrthantSeeker<'_>> {
        (**self).orthant_seeker(corner)
    }

    fn orthant_word_seeker(&self, corner: &Point) -> Option<OrthantWordSeeker<'_>> {
        (**self).orthant_word_seeker(corner)
    }

    fn name(&self) -> &'static str {
        (**self).name()
    }
}

/// A reusable handle answering "what is the smallest key at-or-after `key`
/// whose cell lies inside the rectangle this seeker was built for?" —
/// created once per query region via
/// [`SpaceFillingCurve::region_seeker`] so that any per-region
/// precomputation is paid once, not per seek.
pub trait RegionSeeker: fmt::Debug {
    /// The smallest in-region key at-or-after `key`, or `None` if no such
    /// key exists. The result equals `key` exactly when `key`'s own cell
    /// lies inside the region.
    fn seek(&self, key: &Key) -> Option<Key>;
}

/// Identifies one of the supported curve families.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CurveKind {
    /// The Z-order (Morton) curve: bit interleaving.
    Z,
    /// The Hilbert curve.
    Hilbert,
    /// The Gray-code curve.
    Gray,
}

impl CurveKind {
    /// Human readable name.
    pub fn name(self) -> &'static str {
        match self {
            CurveKind::Z => "z-order",
            CurveKind::Hilbert => "hilbert",
            CurveKind::Gray => "gray-code",
        }
    }

    /// All supported curve kinds.
    pub fn all() -> [CurveKind; 3] {
        [CurveKind::Z, CurveKind::Hilbert, CurveKind::Gray]
    }

    /// Constructs a boxed curve of this kind over `universe`.
    pub fn build(self, universe: Universe) -> Box<dyn SpaceFillingCurve> {
        match self {
            CurveKind::Z => Box::new(crate::zorder::ZCurve::new(universe)),
            CurveKind::Hilbert => Box::new(crate::hilbert::HilbertCurve::new(universe)),
            CurveKind::Gray => Box::new(crate::gray::GrayCurve::new(universe)),
        }
    }
}

impl fmt::Display for CurveKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

impl std::str::FromStr for CurveKind {
    type Err = String;

    fn from_str(s: &str) -> std::result::Result<Self, Self::Err> {
        match s.to_ascii_lowercase().as_str() {
            "z" | "z-order" | "morton" | "zorder" => Ok(CurveKind::Z),
            "hilbert" => Ok(CurveKind::Hilbert),
            "gray" | "gray-code" | "graycode" => Ok(CurveKind::Gray),
            other => Err(format!("unknown curve kind: {other}")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn curve_kind_parsing_and_display() {
        assert_eq!("z".parse::<CurveKind>().unwrap(), CurveKind::Z);
        assert_eq!("Morton".parse::<CurveKind>().unwrap(), CurveKind::Z);
        assert_eq!("hilbert".parse::<CurveKind>().unwrap(), CurveKind::Hilbert);
        assert_eq!("gray".parse::<CurveKind>().unwrap(), CurveKind::Gray);
        assert!("peano".parse::<CurveKind>().is_err());
        assert_eq!(CurveKind::Hilbert.to_string(), "hilbert");
        assert_eq!(CurveKind::all().len(), 3);
    }

    #[test]
    fn build_produces_matching_kind() {
        let u = Universe::new(2, 4).unwrap();
        for kind in CurveKind::all() {
            let curve = kind.build(u.clone());
            assert_eq!(curve.kind(), kind);
            assert_eq!(curve.universe(), &u);
            assert_eq!(curve.name(), kind.name());
        }
    }

    /// Everything a caller can observe of a curve through the trait.
    #[derive(Debug, PartialEq)]
    struct Observed {
        kind: CurveKind,
        name: &'static str,
        keys: Vec<Key>,
        points: Vec<Point>,
        ranges: Vec<KeyRange>,
        region_seeker: bool,
        orthant_seeker: bool,
        orthant_word_seeker: bool,
    }

    fn observe<C: SpaceFillingCurve>(curve: &C) -> Observed {
        let u = curve.universe();
        let (dims, side) = (u.dims(), 1u64 << u.bits_per_dim());
        let point = |i: u64| Point::new((0..dims as u64).map(|d| (i * 7 + d * 3) % side).collect());
        let points: Vec<Point> = (0..16).map(|i| point(i).unwrap()).collect();
        let keys: Vec<Key> = points
            .iter()
            .map(|p| curve.key_of_point(p).unwrap())
            .collect();
        let cube = |side_exp: u32| {
            let corner = (side >> 1) & !((1 << side_exp) - 1);
            StandardCube::new(u, vec![corner; dims], side_exp).unwrap()
        };
        let orthant = &points[3];
        let region = Rect::new(orthant.coords().to_vec(), vec![side - 1; dims]).unwrap();
        Observed {
            kind: curve.kind(),
            name: curve.name(),
            points: keys
                .iter()
                .map(|k| curve.point_of_key(k).unwrap())
                .collect(),
            keys,
            ranges: (0..=2)
                .map(|e| curve.cube_key_range(&cube(e)).unwrap())
                .collect(),
            region_seeker: curve.region_seeker(&region).is_some(),
            orthant_seeker: curve.orthant_seeker(orthant).is_some(),
            orthant_word_seeker: curve.orthant_word_seeker(orthant).is_some(),
        }
    }

    #[test]
    fn a_boxed_curve_forwards_every_method() {
        use crate::{GrayCurve, HilbertCurve, ZCurve};
        // 2 × 8 = 16-bit keys take the packed seeker, 9 × 16 = 144-bit keys
        // the word seeker; only the Z curve has either.
        for (dims, bits) in [(2, 8), (9, 16)] {
            let u = Universe::new(dims, bits).unwrap();
            for kind in CurveKind::all() {
                let concrete = match kind {
                    CurveKind::Z => observe(&ZCurve::new(u.clone())),
                    CurveKind::Hilbert => observe(&HilbertCurve::new(u.clone())),
                    CurveKind::Gray => observe(&GrayCurve::new(u.clone())),
                };
                let boxed = observe(&kind.build(u.clone()));
                assert_eq!(boxed, concrete, "{kind:?} over {dims}x{bits} bits");
                let wide = u.key_bits() > 128;
                let z = kind == CurveKind::Z;
                assert_eq!(boxed.orthant_seeker, z && !wide, "{kind:?}");
                assert_eq!(boxed.orthant_word_seeker, z && wide, "{kind:?}");
                assert_eq!(boxed.region_seeker, z && !wide, "{kind:?}");
            }
        }
    }
}
