//! The benchmark's own input generator: SplitMix64 streams keyed by the
//! workload seed and a purpose label. Inputs never come from the program's
//! RNGs, so a change to those cannot change what the benchmark feeds in.

/// A SplitMix64 stream.
#[derive(Clone, Debug)]
pub struct SeedRng(u64);

impl SeedRng {
    /// The stream for `purpose` under workload seed `seed`: distinct labels
    /// give unrelated streams from the same seed.
    pub fn new(seed: u64, purpose: &str) -> SeedRng {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for b in purpose.bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
        let mut rng = SeedRng(seed ^ h);
        rng.next_u64();
        rng
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform in `lo..=hi`.
    pub fn range(&mut self, lo: u64, hi: u64) -> u64 {
        assert!(lo <= hi, "empty range {lo}..={hi}");
        let span = hi - lo + 1;
        lo + ((u128::from(self.next_u64()) * u128::from(span)) >> 64) as u64
    }

    /// Exponential with the given mean (Poisson inter-arrival gaps).
    pub fn exp(&mut self, mean: f64) -> f64 {
        -mean * (1.0 - self.unit()).ln()
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            let j = self.range(0, i as u64) as usize;
            v.swap(i, j);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn streams_repeat_per_seed_and_purpose() {
        let a: Vec<u64> = (0..4)
            .map({
                let mut r = SeedRng::new(7, "serve");
                move |_| r.next_u64()
            })
            .collect();
        let mut r = SeedRng::new(7, "serve");
        assert_eq!(a, (0..4).map(|_| r.next_u64()).collect::<Vec<_>>());
        assert_ne!(SeedRng::new(7, "batch").next_u64(), a[0]);
        assert_ne!(SeedRng::new(8, "serve").next_u64(), a[0]);
    }

    #[test]
    fn range_stays_inside_its_bounds() {
        let mut r = SeedRng::new(1, "range");
        for _ in 0..10_000 {
            let x = r.range(3, 5);
            assert!((3..=5).contains(&x));
        }
        assert_eq!(r.range(9, 9), 9);
    }
}
