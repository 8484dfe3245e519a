//! Sample statistics and seeded request schedules.
//!
//! Percentiles are nearest-rank over the raw samples, with a failed or
//! refused request recorded as `+∞` so it counts as missing every latency
//! limit. Quartiles follow Python's `statistics.quantiles(values, n=4)`
//! (the "exclusive" method) so that `dsvbench compare` and any external
//! check of the same runs agree on the spread.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// The sample a failed or refused request contributes to a latency
/// distribution.
pub const FAILED: f64 = f64::INFINITY;
/// Ids per stratified block of [`zipf_schedule`].
pub const ZIPF_BLOCK: usize = 100;

/// Nearest-rank `p`-th percentile (`0 < p <= 1`) of `samples`: the
/// smallest value with at least `p·n` samples at or below it. Returns `None`
/// for an empty sample.
pub fn percentile(samples: &[f64], p: f64) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    Some(sorted[rank(sorted.len(), p) - 1])
}

/// 1-based nearest rank of the `p`-th percentile in a sample of `n`.
fn rank(n: usize, p: f64) -> usize {
    ((p * n as f64).ceil() as usize).clamp(1, n)
}

/// The highest of p50, p90, p99, p99.9 that has at least ten samples
/// strictly beyond its rank in a sample of `n` — the tail a sample of that
/// size can support. `None` when not even the median has ten beyond it.
pub fn supported_tail(n: usize) -> Option<f64> {
    [0.999, 0.99, 0.9, 0.5]
        .into_iter()
        .find(|&p| n >= 10 && n - rank(n, p) >= 10)
}

/// Median as `statistics.median` computes it (mean of the middle pair for
/// an even count).
pub fn median(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    Some(if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    })
}

/// First and third quartile as `statistics.quantiles(values, n=4)`
/// computes them (exclusive method); `None` below two values.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64)> {
    let ld = values.len();
    if ld < 2 {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let m = ld + 1;
    let q = |i: usize| {
        let j = (i * m / 4).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    Some((q(1), q(3)))
}

/// Fisher–Yates shuffle of `xs`.
fn shuffle<T>(xs: &mut [T], rng: &mut SmallRng) {
    for i in (1..xs.len()).rev() {
        xs.swap(i, rng.gen_range(0..=i));
    }
}

/// A seeded uniform permutation of `0..n`.
pub fn permutation(n: usize, seed: u64) -> Vec<u32> {
    let mut perm: Vec<u32> = (0..n as u32).collect();
    shuffle(&mut perm, &mut SmallRng::seed_from_u64(seed));
    perm
}

/// `len` ids from `order` (most popular first) with Zipf(`exponent`) rank
/// frequencies, stratified: every run of [`ZIPF_BLOCK`] consecutive ids
/// holds each id in proportion to its rank probability (largest-remainder
/// rounding), shuffled by the seed. Every block has the same mix, so a run
/// that completes a few blocks samples the distribution evenly whatever
/// the seed; the seed picks the order. The same arguments always give the
/// same ids.
pub fn zipf_schedule(order: &[u32], len: usize, exponent: f64, seed: u64) -> Vec<u32> {
    assert!(!order.is_empty(), "zipf over an empty id range");
    let weights: Vec<f64> = (0..order.len())
        .map(|i| 1.0 / ((i + 1) as f64).powf(exponent))
        .collect();
    let total: f64 = weights.iter().sum();
    let shares: Vec<f64> = weights
        .iter()
        .map(|w| w / total * ZIPF_BLOCK as f64)
        .collect();
    let mut counts: Vec<usize> = shares.iter().map(|s| s.floor() as usize).collect();
    let mut by_remainder: Vec<usize> = (0..order.len()).collect();
    by_remainder.sort_by(|&a, &b| {
        (shares[b] - shares[b].floor()).total_cmp(&(shares[a] - shares[a].floor()))
    });
    let short = ZIPF_BLOCK - counts.iter().sum::<usize>();
    for &i in by_remainder.iter().take(short) {
        counts[i] += 1;
    }
    let block: Vec<u32> = order
        .iter()
        .zip(&counts)
        .flat_map(|(&id, &c)| std::iter::repeat_n(id, c))
        .collect();
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut out = Vec::with_capacity(len + block.len());
    while out.len() < len {
        let mut b = block.clone();
        shuffle(&mut b, &mut rng);
        out.extend(b);
    }
    out.truncate(len);
    out
}

/// Arrival offsets (seconds from the start) of a Poisson process at
/// `rate` per second over `[0, horizon)`: exponential inter-arrival gaps
/// from a seeded generator. The same arguments always give the same
/// offsets.
pub fn poisson_schedule(rate: f64, horizon: f64, seed: u64) -> Vec<f64> {
    assert!(rate > 0.0, "poisson rate must be positive");
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut t = 0.0;
    let mut out = Vec::new();
    loop {
        // 1 - U lies in (0, 1], so the logarithm is finite.
        let u: f64 = rng.gen_range(0.0..1.0);
        t += -(1.0 - u).ln() / rate;
        if t >= horizon {
            return out;
        }
        out.push(t);
    }
}

/// Whether `name` is a valid metric name: 1 to 64 characters from
/// `[A-Za-z0-9_.-]`, starting with a letter or digit.
pub fn valid_metric_name(name: &str) -> bool {
    let mut chars = name.chars();
    matches!(chars.next(), Some(c) if c.is_ascii_alphanumeric())
        && name.len() <= 64
        && chars.all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&xs, 0.5), Some(50.0));
        assert_eq!(percentile(&xs, 0.9), Some(90.0));
        assert_eq!(percentile(&xs, 0.99), Some(99.0));
        assert_eq!(percentile(&xs, 1.0), Some(100.0));
        assert_eq!(percentile(&[7.0], 0.99), Some(7.0));
        assert_eq!(percentile(&[3.0, 1.0, 2.0], 0.5), Some(2.0));
        assert_eq!(percentile(&[], 0.5), None);
    }

    #[test]
    fn failures_count_as_infinite_latency() {
        let mut xs: Vec<f64> = (1..=100).map(f64::from).collect();
        // Two failures push the p99 past every served latency.
        xs[3] = FAILED;
        xs[40] = FAILED;
        assert_eq!(percentile(&xs, 0.99), Some(FAILED));
        assert_eq!(percentile(&xs, 0.5), Some(52.0));
    }

    #[test]
    fn supported_tail_needs_ten_beyond() {
        assert_eq!(supported_tail(0), None);
        assert_eq!(supported_tail(19), None);
        assert_eq!(supported_tail(20), Some(0.5));
        assert_eq!(supported_tail(99), Some(0.5));
        assert_eq!(supported_tail(100), Some(0.9));
        assert_eq!(supported_tail(999), Some(0.9));
        assert_eq!(supported_tail(1000), Some(0.99));
        assert_eq!(supported_tail(10_000), Some(0.999));
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&xs), Some((2.75, 8.25)));
        // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&[5.0, 1.0, 4.0, 2.0, 3.0]), Some((1.5, 4.5)));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), Some((0.75, 2.25)));
        assert_eq!(quartiles(&[1.0]), None);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[4.0, 1.0, 3.0]), Some(3.0));
    }

    fn bytes_of<T: Copy>(xs: &[T], f: impl Fn(T) -> [u8; 8]) -> Vec<u8> {
        xs.iter().flat_map(|&x| f(x)).collect()
    }

    #[test]
    fn zipf_schedule_is_byte_stable_and_skewed() {
        let order = permutation(49, 3);
        assert_eq!(order, permutation(49, 3));
        let mut sorted = order.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..49).collect::<Vec<u32>>());
        let a = zipf_schedule(&order, 2_000, 1.1, 2024);
        let b = zipf_schedule(&order, 2_000, 1.1, 2024);
        let enc = |x: u32| u64::from(x).to_le_bytes();
        assert_eq!(bytes_of(&a, enc), bytes_of(&b, enc));
        assert_ne!(a, zipf_schedule(&order, 2_000, 1.1, 2025));
        // The first id of `order` is the hottest, far above a uniform share.
        let hottest = a.iter().filter(|&&v| v == order[0]).count();
        assert!(hottest > 2_000 / 49 * 4, "{hottest}");
        // Every block has the same mix, and every id appears in it.
        let mix = |block: &[u32]| {
            let mut b = block.to_vec();
            b.sort_unstable();
            b
        };
        let blocks: Vec<&[u32]> = a.chunks(ZIPF_BLOCK).collect();
        assert_eq!(blocks.len(), 2_000 / ZIPF_BLOCK);
        assert!(blocks.iter().all(|b| mix(b) == mix(blocks[0])));
        assert!(blocks[0].iter().all(|v| order.contains(v)));
        let flat = zipf_schedule(&order, 2_000, 0.5, 2024);
        let mut ids = mix(&flat[..ZIPF_BLOCK]);
        ids.dedup();
        assert_eq!(ids.len(), 49);
        assert_ne!(a[..ZIPF_BLOCK], a[ZIPF_BLOCK..2 * ZIPF_BLOCK]);
        // Pinned prefixes: a change to either generator changes every
        // benchmark input, so it must be deliberate.
        assert_eq!(&order[..8], PERMUTATION_SEED3_PREFIX);
        assert_eq!(
            &zipf_schedule(&order, 2_000, 1.1, 7)[..8],
            ZIPF_SEED7_PREFIX
        );
    }

    #[test]
    fn poisson_schedule_is_byte_stable_and_paced() {
        let a = poisson_schedule(1_000.0, 5.0, 2024);
        let b = poisson_schedule(1_000.0, 5.0, 2024);
        let enc = |x: f64| x.to_bits().to_le_bytes();
        assert_eq!(bytes_of(&a, enc), bytes_of(&b, enc));
        assert_ne!(a, poisson_schedule(1_000.0, 5.0, 2025));
        assert!(a.windows(2).all(|w| w[0] < w[1]));
        assert!(a.iter().all(|&t| (0.0..5.0).contains(&t)));
        // 5000 expected arrivals; a Poisson count is within 5 sigma.
        assert!((4_650..5_350).contains(&a.len()), "{} arrivals", a.len());
        assert_eq!(
            bytes_of(&poisson_schedule(10.0, 1.0, 7), enc),
            bytes_of(POISSON_SEED7, enc)
        );
    }

    #[test]
    fn metric_names_are_validated() {
        for ok in ["setup_s", "checkout.serve_ms.p99", "a-b_c.9", "9x"] {
            assert!(valid_metric_name(ok), "{ok}");
        }
        for bad in ["", ".x", "-x", "_x", "a b", "a/b", "ü", &"x".repeat(65)] {
            assert!(!valid_metric_name(bad), "{bad}");
        }
    }

    const PERMUTATION_SEED3_PREFIX: &[u32] = &[39, 0, 44, 19, 11, 30, 7, 32];
    const ZIPF_SEED7_PREFIX: &[u32] = &[39, 12, 0, 40, 36, 32, 39, 39];
    const POISSON_SEED7: &[f64] = &[
        0.049401725975830243,
        0.051094807507550945,
        0.28211690534486505,
        0.3695670961599953,
        0.42979576566896593,
        0.4584882045966171,
        0.5215905501581299,
        0.5613516641728467,
        0.5757685323160933,
        0.6290656692792865,
        0.6399980549169734,
        0.9615713233211776,
    ];
}
