//! 160-bit P2P addresses and ring arithmetic.
//!
//! Brunet orders nodes on a ring by 160-bit address. Greedy routing needs
//! ring distances; the far-connection overlord needs to sample targets at
//! log-uniform distances (the small-world distribution of Kleinberg that
//! the paper cites for its O((1/k)·log²n) hop bound).

use std::cmp::Ordering;
use std::fmt;

use rand::Rng;

/// A 160-bit overlay address, big-endian.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct Address(pub [u8; 20]);

/// Orders as the 160-bit integer — three limb compares instead of the
/// `memcmp` a derived byte-array order calls. Big-endian limbs make this
/// exactly the order of the bytes, so every sorted table, ordered set and
/// tie-break is unchanged.
impl Ord for Address {
    fn cmp(&self, other: &Self) -> Ordering {
        U160::from(*self).cmp(&U160::from(*other))
    }
}

impl PartialOrd for Address {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Address {
    /// The zero address.
    pub const ZERO: Address = Address([0; 20]);

    /// A uniformly random address.
    pub fn random(rng: &mut impl Rng) -> Address {
        let mut b = [0u8; 20];
        rng.fill(&mut b[..]);
        Address(b)
    }

    /// A deterministic address derived from arbitrary bytes with an
    /// FNV-1a-then-spread construction. Not cryptographic — it only needs to
    /// spread virtual IPs uniformly around the ring and be stable across
    /// runs, so a migrated node keeps its ring position.
    pub fn from_seed_bytes(bytes: &[u8]) -> Address {
        // Five rounds of 64-bit FNV-1a with different basis offsets fill the
        // 160 bits; each round also mixes the round index so the words
        // differ even for empty input.
        let mut out = [0u8; 20];
        for round in 0u64..5 {
            let mut h: u64 = 0xcbf2_9ce4_8422_2325 ^ (round.wrapping_mul(0x9E37_79B9_7F4A_7C15));
            for &b in bytes {
                h ^= u64::from(b);
                h = h.wrapping_mul(0x100_0000_01b3);
            }
            h ^= h >> 33;
            h = h.wrapping_mul(0xff51_afd7_ed55_8ccd);
            h ^= h >> 33;
            let w = h.to_be_bytes();
            let start = (round * 4) as usize;
            out[start..start + 4].copy_from_slice(&w[..4]);
        }
        Address(out)
    }

    /// Clockwise distance from `self` to `other`: `(other − self) mod 2^160`.
    pub fn dist_cw(self, other: Address) -> U160 {
        U160::from(other).wrapping_sub(U160::from(self))
    }

    /// Ring distance: the shorter way around.
    pub fn ring_dist(self, other: Address) -> U160 {
        let cw = self.dist_cw(other);
        let ccw = other.dist_cw(self);
        if cw <= ccw {
            cw
        } else {
            ccw
        }
    }

    /// The address `self + delta (mod 2^160)`.
    pub fn wrapping_add(self, delta: U160) -> Address {
        U160::from(self).wrapping_add(delta).into()
    }

    /// True if `x` lies strictly inside the clockwise arc from `self` to
    /// `end` (exclusive at both ends).
    pub fn between_cw(self, x: Address, end: Address) -> bool {
        let to_x = self.dist_cw(x);
        let to_end = self.dist_cw(end);
        to_x > U160::ZERO && to_x < to_end
    }

    /// Short hex prefix for logs.
    pub fn short(&self) -> String {
        format!(
            "{:02x}{:02x}{:02x}{:02x}",
            self.0[0], self.0[1], self.0[2], self.0[3]
        )
    }
}

impl fmt::Debug for Address {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "addr:{}", self.short())
    }
}

impl fmt::Display for Address {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for b in &self.0 {
            write!(f, "{b:02x}")?;
        }
        Ok(())
    }
}

/// An unsigned 160-bit integer in three limbs: bits 159..96 in `hi`,
/// 95..32 in `mid`, 31..0 in `lo`. Supports just the operations ring
/// arithmetic needs.
///
/// The limb split keeps `ring_dist`/`dist_cw`/`between_cw` — the
/// per-candidate inner loop of `ConnTable::next_hop` — at two 64-bit
/// borrow chains and one 32-bit op instead of five 32-bit limb steps.
/// Derived `Ord` on declaration order (`hi`, `mid`, `lo`) is numeric
/// order, so comparisons are branch-light field compares.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct U160 {
    hi: u64,
    mid: u64,
    lo: u32,
}

impl U160 {
    /// Zero.
    pub const ZERO: U160 = U160 {
        hi: 0,
        mid: 0,
        lo: 0,
    };
    /// The maximum value, 2^160 − 1.
    pub const MAX: U160 = U160 {
        hi: u64::MAX,
        mid: u64::MAX,
        lo: u32::MAX,
    };

    /// One.
    pub fn one() -> U160 {
        U160 {
            hi: 0,
            mid: 0,
            lo: 1,
        }
    }

    /// `2^exp`, for `exp < 160`.
    pub fn pow2(exp: u32) -> U160 {
        assert!(exp < 160, "exponent out of range");
        if exp < 32 {
            U160 {
                hi: 0,
                mid: 0,
                lo: 1u32 << exp,
            }
        } else if exp < 96 {
            U160 {
                hi: 0,
                mid: 1u64 << (exp - 32),
                lo: 0,
            }
        } else {
            U160 {
                hi: 1u64 << (exp - 96),
                mid: 0,
                lo: 0,
            }
        }
    }

    /// Wrapping addition mod 2^160.
    pub fn wrapping_add(self, other: U160) -> U160 {
        let (lo, c0) = self.lo.overflowing_add(other.lo);
        let (mid, c1) = self.mid.overflowing_add(other.mid);
        let (mid, c2) = mid.overflowing_add(u64::from(c0));
        let hi = self
            .hi
            .wrapping_add(other.hi)
            .wrapping_add(u64::from(c1) | u64::from(c2));
        U160 { hi, mid, lo }
    }

    /// Wrapping subtraction mod 2^160.
    pub fn wrapping_sub(self, other: U160) -> U160 {
        let (lo, b0) = self.lo.overflowing_sub(other.lo);
        let (mid, b1) = self.mid.overflowing_sub(other.mid);
        let (mid, b2) = mid.overflowing_sub(u64::from(b0));
        let hi = self
            .hi
            .wrapping_sub(other.hi)
            .wrapping_sub(u64::from(b1) | u64::from(b2));
        U160 { hi, mid, lo }
    }

    /// Position of the highest set bit (0-based), or `None` for zero.
    /// `bit_len() - 1` is the integer log2.
    pub fn highest_bit(self) -> Option<u32> {
        if self.hi != 0 {
            Some(96 + 63 - self.hi.leading_zeros())
        } else if self.mid != 0 {
            Some(32 + 63 - self.mid.leading_zeros())
        } else if self.lo != 0 {
            Some(31 - self.lo.leading_zeros())
        } else {
            None
        }
    }

    /// A uniformly random value strictly below `2^exp` (for `exp ≤ 160`).
    ///
    /// Draws exactly five `u32`s most-significant-word first regardless of
    /// `exp` — the same RNG consumption pattern as the original `[u32; 5]`
    /// representation, so seeded experiment streams replay identically.
    pub fn random_below_pow2(rng: &mut impl Rng, exp: u32) -> U160 {
        assert!(exp <= 160);
        if exp == 0 {
            return U160::ZERO;
        }
        let mut words = [0u32; 5];
        for w in &mut words {
            *w = rng.gen();
        }
        let mut v = U160 {
            hi: (u64::from(words[0]) << 32) | u64::from(words[1]),
            mid: (u64::from(words[2]) << 32) | u64::from(words[3]),
            lo: words[4],
        };
        // Mask off bits at and above `exp`. Each limb keeps the bits of its
        // span `[base, base+width)` that fall below `exp`.
        fn mask64(limb: u64, base: u32, exp: u32) -> u64 {
            let keep = exp.saturating_sub(base).min(64);
            if keep == 64 {
                limb
            } else {
                limb & ((1u64 << keep) - 1)
            }
        }
        v.hi = mask64(v.hi, 96, exp);
        v.mid = mask64(v.mid, 32, exp);
        v.lo = mask64(u64::from(v.lo), 0, exp) as u32;
        v
    }
}

impl From<Address> for U160 {
    fn from(a: Address) -> U160 {
        U160 {
            hi: u64::from_be_bytes(a.0[0..8].try_into().expect("8 bytes")),
            mid: u64::from_be_bytes(a.0[8..16].try_into().expect("8 bytes")),
            lo: u32::from_be_bytes(a.0[16..20].try_into().expect("4 bytes")),
        }
    }
}

impl From<U160> for Address {
    fn from(v: U160) -> Address {
        let mut b = [0u8; 20];
        b[0..8].copy_from_slice(&v.hi.to_be_bytes());
        b[8..16].copy_from_slice(&v.mid.to_be_bytes());
        b[16..20].copy_from_slice(&v.lo.to_be_bytes());
        Address(b)
    }
}

impl From<u64> for U160 {
    fn from(v: u64) -> U160 {
        U160 {
            hi: 0,
            mid: v >> 32,
            lo: v as u32,
        }
    }
}

impl fmt::Debug for U160 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "u160:{:016x}{:016x}{:08x}", self.hi, self.mid, self.lo)
    }
}

/// Sample a far-connection target: `base + 2^e + mantissa`, where `e` is
/// uniform over `[min_exp, 160)` and the mantissa is uniform below `2^e`.
/// This makes the clockwise distance log-uniform — the harmonic small-world
/// distribution that yields the paper's O((1/k)·log²n) expected hop count.
pub fn sample_far_target(rng: &mut impl Rng, base: Address, min_exp: u32) -> Address {
    debug_assert!(min_exp < 159);
    let e = rng.gen_range(min_exp..159);
    let dist = U160::pow2(e).wrapping_add(U160::random_below_pow2(rng, e));
    base.wrapping_add(dist)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn a(v: u64) -> Address {
        Address::from(U160::from(v))
    }

    #[test]
    fn u160_add_sub_roundtrip() {
        let x = U160::from(u64::MAX);
        let y = U160::from(12345u64);
        assert_eq!(x.wrapping_add(y).wrapping_sub(y), x);
        assert_eq!(x.wrapping_sub(x), U160::ZERO);
    }

    #[test]
    fn u160_wraps_at_2_160() {
        assert_eq!(U160::MAX.wrapping_add(U160::one()), U160::ZERO);
        assert_eq!(U160::ZERO.wrapping_sub(U160::one()), U160::MAX);
    }

    #[test]
    fn pow2_and_highest_bit() {
        for e in [0u32, 1, 31, 32, 63, 64, 100, 159] {
            assert_eq!(U160::pow2(e).highest_bit(), Some(e));
        }
        assert_eq!(U160::ZERO.highest_bit(), None);
        assert_eq!(U160::MAX.highest_bit(), Some(159));
    }

    #[test]
    fn ring_distance_is_symmetric_and_short_way() {
        let x = a(10);
        let y = a(30);
        assert_eq!(x.ring_dist(y), U160::from(20u64));
        assert_eq!(y.ring_dist(x), U160::from(20u64));
        // Near-antipodal pair wraps.
        let far = x.wrapping_add(U160::pow2(159).wrapping_add(U160::from(5u64)));
        let d = x.ring_dist(far);
        assert_eq!(d, U160::pow2(159).wrapping_sub(U160::from(5u64)));
    }

    #[test]
    fn dist_cw_directionality() {
        let x = a(100);
        let y = a(40);
        assert_eq!(y.dist_cw(x), U160::from(60u64));
        // Going the other way wraps almost all the way around.
        assert_eq!(x.dist_cw(y), U160::ZERO.wrapping_sub(U160::from(60u64)));
    }

    #[test]
    fn between_cw_basic_and_wrapping() {
        assert!(a(10).between_cw(a(20), a(30)));
        assert!(!a(10).between_cw(a(30), a(20)));
        assert!(!a(10).between_cw(a(10), a(30)), "exclusive at start");
        assert!(!a(10).between_cw(a(30), a(30)), "exclusive at end");
        // Wrapping arc: from MAX-10 to 10 crosses zero.
        let hi = Address::from(U160::MAX.wrapping_sub(U160::from(10u64)));
        assert!(hi.between_cw(a(3), a(10)));
        assert!(!hi.between_cw(a(11), a(10)));
    }

    #[test]
    fn from_seed_bytes_is_stable_and_spread() {
        let x = Address::from_seed_bytes(b"172.16.1.2");
        let y = Address::from_seed_bytes(b"172.16.1.2");
        let z = Address::from_seed_bytes(b"172.16.1.3");
        assert_eq!(x, y);
        assert_ne!(x, z);
        // Spread: consecutive IPs should not be ring-adjacent; require the
        // distance to have a high bit set (top quarter of bit range).
        let d = x.ring_dist(z);
        assert!(d.highest_bit().unwrap() > 120, "poor spread: {d:?}");
    }

    #[test]
    fn random_below_pow2_respects_bound() {
        let mut rng = SmallRng::seed_from_u64(9);
        for e in [1u32, 5, 31, 32, 33, 64, 100, 159, 160] {
            for _ in 0..50 {
                let v = U160::random_below_pow2(&mut rng, e);
                if e < 160 {
                    assert!(v < U160::pow2(e), "e={e} v={v:?}");
                }
            }
        }
        assert_eq!(U160::random_below_pow2(&mut rng, 0), U160::ZERO);
    }

    #[test]
    fn far_target_distances_are_log_spread() {
        let mut rng = SmallRng::seed_from_u64(10);
        let base = Address::random(&mut rng);
        let mut exps = Vec::new();
        for _ in 0..2000 {
            let t = sample_far_target(&mut rng, base, 0);
            let d = base.dist_cw(t);
            exps.push(d.highest_bit().unwrap());
        }
        // Log-uniform: exponents should cover the range broadly.
        let lo = exps.iter().filter(|&&e| e < 53).count();
        let mid = exps.iter().filter(|&&e| (53..106).contains(&e)).count();
        let hi = exps.iter().filter(|&&e| e >= 106).count();
        for (name, n) in [("lo", lo), ("mid", mid), ("hi", hi)] {
            let frac = n as f64 / 2000.0;
            assert!(
                (0.2..0.5).contains(&frac),
                "{name} third has fraction {frac}"
            );
        }
    }

    #[test]
    fn address_display_roundtrip_width() {
        let mut rng = SmallRng::seed_from_u64(11);
        let x = Address::random(&mut rng);
        assert_eq!(x.to_string().len(), 40);
    }
}
