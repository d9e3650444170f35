//! Traffic replay: Zipf-skewed synthetic request streams.
//!
//! Real ER serving traffic is heavily skewed — a small set of contested
//! pairs (popular products, prolific authors) is re-scored far more often
//! than the long tail — so the generator draws pairs from a Zipf
//! distribution over a seeded permutation of the pool. `perfbench` and the
//! socket-replay tests replay these streams.

use crate::engine::ScoreRequest;
use rand::prelude::*;
use serde::{Deserialize, Serialize};

/// Shape of a synthetic request stream.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct ReplayConfig {
    /// Number of requests to generate.
    pub requests: usize,
    /// Zipf exponent `s` (popularity of rank `r` ∝ `1/r^s`); 0 is uniform,
    /// ~1 matches typical web-workload skew.
    pub zipf_exponent: f64,
    /// Seed of the popularity permutation and the draw stream.
    pub seed: u64,
}

/// Generates a Zipf-skewed stream of requests drawn from `pool`.
///
/// Popularity ranks are assigned by a seeded permutation of the pool, so two
/// streams with the same seed hit the same hot pairs. Panics if the pool is
/// empty.
pub fn zipf_stream(pool: &[ScoreRequest], config: &ReplayConfig) -> Vec<ScoreRequest> {
    assert!(!pool.is_empty(), "cannot generate traffic from an empty pool");
    let mut rng = StdRng::seed_from_u64(config.seed);

    // Rank → pool index, via a seeded shuffle.
    let mut ranked: Vec<usize> = (0..pool.len()).collect();
    ranked.shuffle(&mut rng);

    // Cumulative popularity mass of 1/(rank+1)^s.
    let mut cdf = Vec::with_capacity(pool.len());
    let mut total = 0.0f64;
    for rank in 0..pool.len() {
        total += 1.0 / ((rank + 1) as f64).powf(config.zipf_exponent);
        cdf.push(total);
    }

    (0..config.requests)
        .map(|_| {
            let u: f64 = rng.gen::<f64>() * total;
            let rank = cdf.partition_point(|&c| c < u).min(pool.len() - 1);
            pool[ranked[rank]].clone()
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pool(n: usize) -> Vec<ScoreRequest> {
        (0..n)
            .map(|i| {
                let x = (i as f64 * 0.61).fract();
                ScoreRequest {
                    pair_id: i as u64,
                    metric_row: vec![x, 1.0 - x],
                    classifier_output: x,
                    machine_says_match: x >= 0.5,
                }
            })
            .collect()
    }

    #[test]
    fn streams_are_deterministic_per_seed_and_skewed() {
        let pool = pool(200);
        let config = ReplayConfig {
            requests: 5_000,
            zipf_exponent: 1.2,
            seed: 7,
        };
        let a = zipf_stream(&pool, &config);
        let b = zipf_stream(&pool, &config);
        assert_eq!(a.len(), 5_000);
        assert!(
            a.iter().zip(&b).all(|(x, y)| x.pair_id == y.pair_id),
            "same seed, same stream"
        );
        let c = zipf_stream(&pool, &ReplayConfig { seed: 8, ..config });
        assert!(
            a.iter().zip(&c).any(|(x, y)| x.pair_id != y.pair_id),
            "different seed differs"
        );

        // Skew: the most popular pair dominates a uniform share by a wide
        // margin.
        let mut counts = vec![0usize; 200];
        for r in &a {
            counts[r.pair_id as usize] += 1;
        }
        let max = *counts.iter().max().expect("non-empty");
        assert!(max > 5_000 / 200 * 10, "hot pair only drew {max} of 5000");
    }

    #[test]
    fn zipf_exponent_zero_is_roughly_uniform() {
        let pool = pool(10);
        let stream = zipf_stream(
            &pool,
            &ReplayConfig {
                requests: 10_000,
                zipf_exponent: 0.0,
                seed: 3,
            },
        );
        let mut counts = [0usize; 10];
        for r in &stream {
            counts[r.pair_id as usize] += 1;
        }
        for (i, &c) in counts.iter().enumerate() {
            assert!((700..1300).contains(&c), "pair {i} drew {c} of 10000");
        }
    }
}
