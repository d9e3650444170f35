//! Pair → feature-vector extraction for the machine classifiers.
//!
//! The DeepMatcher substitute consumes the same similarity signals that a deep
//! matcher would learn internally: one feature per basic metric of the
//! [`MetricEvaluator`], standardized to zero mean / unit variance on the
//! training split.

use er_base::Pair;
use er_similarity::MetricEvaluator;
use serde::{Deserialize, Serialize};

/// Standardization parameters learned on training data.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Standardizer {
    /// Per-feature means.
    pub means: Vec<f64>,
    /// Per-feature standard deviations (floored at a small epsilon).
    pub stds: Vec<f64>,
}

impl Standardizer {
    /// Fits the standardizer on a feature matrix (rows = examples).
    pub fn fit(rows: &[Vec<f64>]) -> Self {
        assert!(!rows.is_empty(), "cannot fit a standardizer on no rows");
        let dim = rows[0].len();
        let n = rows.len() as f64;
        let mut means = vec![0.0; dim];
        for row in rows {
            for (m, &x) in means.iter_mut().zip(row) {
                *m += x;
            }
        }
        means.iter_mut().for_each(|m| *m /= n);
        let mut vars = vec![0.0; dim];
        for row in rows {
            for ((v, &x), &m) in vars.iter_mut().zip(row).zip(&means) {
                *v += (x - m).powi(2);
            }
        }
        let stds = vars.into_iter().map(|v| (v / n).sqrt().max(1e-6)).collect();
        Standardizer { means, stds }
    }

    /// Applies the transformation to one row in place.
    pub fn transform_row(&self, row: &mut [f64]) {
        for ((x, &m), &s) in row.iter_mut().zip(&self.means).zip(&self.stds) {
            *x = (*x - m) / s;
        }
    }

    /// Applies the transformation to a whole matrix, returning a new matrix.
    pub fn transform(&self, rows: &[Vec<f64>]) -> Vec<Vec<f64>> {
        rows.iter()
            .map(|r| {
                let mut row = r.clone();
                self.transform_row(&mut row);
                row
            })
            .collect()
    }
}

/// A featurizer: metric evaluation plus standardization.
#[derive(Debug, Clone)]
pub struct PairFeaturizer {
    evaluator: MetricEvaluator,
    standardizer: Option<Standardizer>,
}

impl PairFeaturizer {
    /// Creates a featurizer over an existing metric evaluator; the
    /// standardizer is fitted lazily by [`PairFeaturizer::fit`].
    pub fn new(evaluator: MetricEvaluator) -> Self {
        Self {
            evaluator,
            standardizer: None,
        }
    }

    /// Number of features produced per pair.
    pub fn dim(&self) -> usize {
        self.evaluator.len()
    }

    /// The underlying metric evaluator.
    pub fn evaluator(&self) -> &MetricEvaluator {
        &self.evaluator
    }

    /// Fits the standardizer on the training pairs and returns the
    /// standardized training matrix.
    pub fn fit(&mut self, train: &[Pair]) -> Vec<Vec<f64>> {
        self.fit_rows(&self.evaluator.eval_pairs(train))
    }

    /// Fits the standardizer on raw basic-metric rows (one per training pair,
    /// as [`MetricEvaluator::eval_pairs`] produces them) and returns the
    /// standardized training matrix.
    pub fn fit_rows(&mut self, raw: &[Vec<f64>]) -> Vec<Vec<f64>> {
        let std = Standardizer::fit(raw);
        let out = std.transform(raw);
        self.standardizer = Some(std);
        out
    }

    /// Featurizes pairs using the fitted standardizer (or raw metric values if
    /// [`PairFeaturizer::fit`] has not been called).
    pub fn features(&self, pairs: &[Pair]) -> Vec<Vec<f64>> {
        self.standardize(&self.evaluator.eval_pairs(pairs))
    }

    /// Featurizes raw basic-metric rows: standardized if a standardizer has
    /// been fitted, copied unchanged otherwise.
    pub fn standardize(&self, raw: &[Vec<f64>]) -> Vec<Vec<f64>> {
        match &self.standardizer {
            Some(s) => s.transform(raw),
            None => raw.to_vec(),
        }
    }

    /// Featurizes a single pair.
    pub fn features_one(&self, pair: &Pair) -> Vec<f64> {
        let mut row = self.evaluator.eval_all(&pair.left, &pair.right);
        if let Some(s) = &self.standardizer {
            s.transform_row(&mut row);
        }
        row
    }
}

/// Extracts the binary class targets (1.0 = equivalent) of a pair slice.
pub fn targets(pairs: &[Pair]) -> Vec<f64> {
    pairs.iter().map(|p| p.truth.as_f64()).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use er_base::{AttrDef, AttrType, AttrValue, Label, PairId, Record, RecordId, Schema};
    use std::sync::Arc;

    fn pairs() -> (Arc<Schema>, Vec<Pair>) {
        let schema = Arc::new(Schema::new(vec![
            AttrDef::new("name", AttrType::Text),
            AttrDef::new("year", AttrType::Numeric),
        ]));
        let rec = |id: u32, name: &str, year: f64| {
            Arc::new(Record::new(
                RecordId(id),
                vec![AttrValue::from(name), AttrValue::Num(year)],
            ))
        };
        let ps = vec![
            Pair::new(
                PairId(0),
                rec(0, "deep learning for matching", 2018.0),
                rec(1, "deep learning for matching", 2018.0),
                Label::Equivalent,
            ),
            Pair::new(
                PairId(1),
                rec(2, "spatial join processing", 1993.0),
                rec(3, "graph mining at scale", 2009.0),
                Label::Inequivalent,
            ),
            Pair::new(
                PairId(2),
                rec(4, "query optimization", 1988.0),
                rec(5, "query optimization revisited", 1989.0),
                Label::Inequivalent,
            ),
        ];
        (schema, ps)
    }

    #[test]
    fn standardizer_zero_mean_unit_variance() {
        let rows = vec![vec![1.0, 10.0], vec![3.0, 20.0], vec![5.0, 30.0]];
        let s = Standardizer::fit(&rows);
        let t = s.transform(&rows);
        for col in 0..2 {
            let mean: f64 = t.iter().map(|r| r[col]).sum::<f64>() / 3.0;
            let var: f64 = t.iter().map(|r| (r[col] - mean).powi(2)).sum::<f64>() / 3.0;
            assert!(mean.abs() < 1e-9);
            assert!((var - 1.0).abs() < 1e-9);
        }
    }

    #[test]
    fn constant_features_do_not_blow_up() {
        let rows = vec![vec![5.0], vec![5.0], vec![5.0]];
        let s = Standardizer::fit(&rows);
        let t = s.transform(&rows);
        assert!(t.iter().all(|r| r[0].abs() < 1e-6));
    }

    #[test]
    fn featurizer_produces_fixed_width_rows() {
        let (schema, ps) = pairs();
        let evaluator = MetricEvaluator::from_pairs(schema, &ps);
        let mut f = PairFeaturizer::new(evaluator);
        let train = f.fit(&ps);
        assert_eq!(train.len(), 3);
        assert!(train.iter().all(|r| r.len() == f.dim()));
        let one = f.features_one(&ps[0]);
        assert_eq!(one.len(), f.dim());
        assert_eq!(f.features(&ps).len(), 3);
    }

    #[test]
    fn targets_encode_labels() {
        let (_, ps) = pairs();
        assert_eq!(targets(&ps), vec![1.0, 0.0, 0.0]);
    }

    #[test]
    #[should_panic(expected = "cannot fit")]
    fn empty_fit_panics() {
        Standardizer::fit(&[]);
    }
}
