//! ULP-bounded float comparison.
//!
//! Differential checks compare backends that sum the same neighbor terms
//! in different orders, so exact equality is wrong but a fixed absolute
//! tolerance is either too loose for small values or too tight for large
//! ones. A pair passes if it is within a small absolute epsilon (covers
//! the region near zero where ULP spacing collapses) **or** within a
//! bounded number of representable floats of each other (scale-free
//! relative error everywhere else).

/// Default tolerance used by the fuzzer and regression replay.
#[derive(Debug, Clone, Copy)]
pub struct Tolerance {
    /// Pass when `|a - b|` is at or below this, regardless of ULPs.
    pub abs_tol: f32,
    /// Otherwise pass when the values are within this many ULPs.
    pub max_ulps: u32,
}

impl Default for Tolerance {
    fn default() -> Self {
        // Reordering a k-term f32 sum perturbs the result by O(k · ε_mach)
        // relative; fuzz graphs keep degree ≲ 10³, so 4096 ULPs (≈ 5e-4
        // relative) has wide margin while still flagging any dropped or
        // mis-scaled term, which shifts a value by millions of ULPs.
        Tolerance {
            abs_tol: 1e-5,
            max_ulps: 4096,
        }
    }
}

/// Distance between two floats in units of representable values
/// (`u32::MAX` for NaN or differing signs, so those always fail the ULP
/// branch).
fn ulp_distance(a: f32, b: f32) -> u32 {
    if a.is_nan() || b.is_nan() {
        return u32::MAX;
    }
    // Map the float line monotonically onto i32 (sign-magnitude → two's
    // complement), after which ULP distance is integer distance.
    fn key(x: f32) -> i32 {
        let bits = x.to_bits() as i32;
        if bits < 0 {
            i32::MIN.wrapping_sub(bits)
        } else {
            bits
        }
    }
    let d = (key(a) as i64) - (key(b) as i64);
    d.unsigned_abs().min(u32::MAX as u64) as u32
}

impl Tolerance {
    /// Whether a single pair of values matches.
    pub fn matches(&self, a: f32, b: f32) -> bool {
        if a == b {
            return true;
        }
        if a.is_nan() || b.is_nan() {
            return false;
        }
        (a - b).abs() <= self.abs_tol || ulp_distance(a, b) <= self.max_ulps
    }

    /// Compare two equally-shaped value slices; returns the index, values
    /// and ULP distance of the worst mismatch, or `None` when conformant.
    pub fn compare(&self, got: &[f32], want: &[f32]) -> Option<Mismatch> {
        assert_eq!(got.len(), want.len(), "shape mismatch");
        let mut worst: Option<Mismatch> = None;
        for (i, (&a, &b)) in got.iter().zip(want).enumerate() {
            if !self.matches(a, b) {
                let m = Mismatch {
                    index: i,
                    got: a,
                    want: b,
                    ulps: ulp_distance(a, b),
                };
                if worst.as_ref().is_none_or(|w| m.abs_diff() > w.abs_diff()) {
                    worst = Some(m);
                }
            }
        }
        worst
    }
}

/// The worst offending element of a failed comparison.
#[derive(Debug, Clone, Copy)]
pub struct Mismatch {
    /// Flat element index.
    pub index: usize,
    /// Value produced by the backend under test.
    pub got: f32,
    /// Reference value.
    pub want: f32,
    /// ULP distance between them.
    pub ulps: u32,
}

impl Mismatch {
    /// Absolute difference (NaN-safe: NaN compares as infinite).
    fn abs_diff(&self) -> f32 {
        let d = (self.got - self.want).abs();
        if d.is_nan() {
            f32::INFINITY
        } else {
            d
        }
    }
}

impl std::fmt::Display for Mismatch {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "element {}: got {:e}, want {:e} ({} ulps apart)",
            self.index, self.got, self.want, self.ulps
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn adjacent_floats_are_one_ulp() {
        let a = 1.0f32;
        let b = f32::from_bits(a.to_bits() + 1);
        assert_eq!(ulp_distance(a, b), 1);
        assert!(Tolerance::default().matches(a, b));
    }

    #[test]
    fn distance_spans_zero() {
        // -0.0 and +0.0 are 0 apart; smallest positive and negative
        // subnormals are 2 apart.
        assert_eq!(ulp_distance(-0.0, 0.0), 0);
        let tiny = f32::from_bits(1);
        assert_eq!(ulp_distance(-tiny, tiny), 2);
    }

    #[test]
    fn near_zero_uses_abs_branch() {
        // 1e-6 vs 0.0 is astronomically many ULPs but passes on abs_tol.
        let t = Tolerance::default();
        assert!(t.matches(1e-6, 0.0));
        assert!(!t.matches(1e-2, 0.0));
    }

    #[test]
    fn dropped_term_is_caught() {
        // A missing self-loop term at typical magnitudes is far outside
        // both branches.
        let t = Tolerance::default();
        assert!(!t.matches(0.5, 0.515));
    }

    #[test]
    fn nan_never_matches() {
        let t = Tolerance::default();
        assert!(!t.matches(f32::NAN, 0.0));
        assert!(!t.matches(0.0, f32::NAN));
        assert!(t.compare(&[f32::NAN], &[0.0]).is_some());
    }

    #[test]
    fn compare_reports_worst() {
        let t = Tolerance {
            abs_tol: 0.0,
            max_ulps: 0,
        };
        let m = t.compare(&[1.0, 2.0, 3.0], &[1.1, 2.5, 3.0]).unwrap();
        assert_eq!(m.index, 1);
    }
}
