//! The scoring engine: a trained model plus its compiled rule index.
//!
//! [`ScoringEngine::score_request`] resolves which rules fire on a raw
//! basic-metric row through the [`CompiledRuleIndex`], then scores through
//! the exact same [`LearnRiskModel::risk_score`] code path the batch
//! pipeline uses — the fired-rule list is produced in the same (ascending)
//! order the offline linear scan yields, so online scores are bit-identical
//! to offline ones. This is what makes the artifact round-trip property
//! (train → save → load → serve) testable to full `f64` precision.

use crate::index::{CompiledRuleIndex, MatchScratch, RowLengthError};
use learnrisk_core::{ComponentBlock, LearnRiskModel, PairRiskInput, PortfolioError};
use serde::json::Reader;
use serde::{Deserialize, Serialize};
use std::fmt::{self, Write};

/// One scoring request: a candidate pair reduced to its serving inputs.
///
/// The caller (feature service / classifier front-end) supplies the pair's
/// basic-metric row and the classifier decision; the engine resolves rule
/// coverage and the risk score.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ScoreRequest {
    /// Caller-assigned pair identity, used as the cache key for repeated
    /// traffic. Requests with equal ids must describe the same pair.
    pub pair_id: u64,
    /// The pair's basic-metric row (same layout the rules were trained on).
    pub metric_row: Vec<f64>,
    /// Classifier equivalence-probability output.
    pub classifier_output: f64,
    /// Whether the classifier labeled the pair as matching.
    pub machine_says_match: bool,
}

/// A decode step's outcome: the outer `Err` is a JSON syntax error, an inner
/// `Err` a well-formed value that does not fit (the message `from_value`
/// would give).
type Decoded<T> = Result<Result<T, String>, serde::Error>;

/// Decodes a `POST /score` body — one [`ScoreRequest`] object or an array of
/// them — straight off the JSON text with [`serde::json::Reader`], building
/// no [`serde::Value`] tree.
///
/// The result, error text included, is the one `serde::json::parse`
/// followed by `from_value` gives for every body:
/// - a JSON syntax error anywhere in the body wins, as
///   `malformed JSON body: {error}`;
/// - a scalar top level is `expected a request object or array, found {kind}`;
/// - otherwise the first failing array element wins (`[i]: ..`), and within
///   a request the first failing field in declaration order (`pair_id`,
///   `metric_row`, `classifier_output`, `machine_says_match`);
/// - unknown keys are skipped but still validated, the first of duplicate
///   keys wins, and integer tokens are read into float fields (`-0` as
///   `+0.0`).
pub fn decode_score_body(body: &str) -> Result<Vec<ScoreRequest>, String> {
    let mut reader = Reader::new(body);
    // One scratch row for the whole body, each request's copied out at its
    // exact length.
    let mut row = Vec::new();
    let decoded = decode_requests(&mut reader, &mut row);
    match decoded.and_then(|requests| reader.finish().map(|()| requests)) {
        Ok(requests) => requests,
        Err(syntax) => Err(format!("malformed JSON body: {syntax}")),
    }
}

fn decode_requests(reader: &mut Reader<'_>, row: &mut Vec<f64>) -> Decoded<Vec<ScoreRequest>> {
    if reader.peek() == Some(b'{') {
        return Ok(decode_request(reader, row)?.map(|request| vec![request]));
    }
    if let Err(kind) = reader.enter_seq()? {
        return Ok(Err(format!("expected a request object or array, found {kind}")));
    }
    let mut requests = Vec::new();
    let mut failure = None;
    while reader.next_element()? {
        if failure.is_some() {
            reader.skip()?;
            continue;
        }
        match decode_request(reader, row)? {
            Ok(request) => requests.push(request),
            Err(e) => failure = Some(format!("[{}]: {e}", requests.len())),
        }
    }
    Ok(failure.map_or(Ok(requests), Err))
}

fn decode_request(reader: &mut Reader<'_>, row: &mut Vec<f64>) -> Decoded<ScoreRequest> {
    if let Err(kind) = reader.enter_map()? {
        return Ok(Err(format!("expected map for struct ScoreRequest, found {kind}")));
    }
    let mismatch = |expected: &'static str| move |kind| format!("expected {expected}, found {kind}");
    let (mut pair_id, mut metric_row, mut classifier_output, mut machine_says_match) = (None, None, None, None);
    while let Some(key) = reader.next_key()? {
        match &*key {
            "pair_id" if pair_id.is_none() => pair_id = Some(reader.u64()?.map_err(mismatch("unsigned integer"))),
            "metric_row" if metric_row.is_none() => metric_row = Some(decode_row(reader, row)?),
            "classifier_output" if classifier_output.is_none() => {
                classifier_output = Some(reader.f64()?.map_err(mismatch("number")))
            }
            "machine_says_match" if machine_says_match.is_none() => {
                machine_says_match = Some(reader.bool()?.map_err(mismatch("bool")))
            }
            _ => {
                reader.skip()?;
            }
        }
    }
    // Struct fields evaluate in source order: the first failing field in
    // declaration order names the error.
    Ok((|| {
        Ok(ScoreRequest {
            pair_id: field(pair_id, "pair_id")?,
            metric_row: field(metric_row, "metric_row")?,
            classifier_output: field(classifier_output, "classifier_output")?,
            machine_says_match: field(machine_says_match, "machine_says_match")?,
        })
    })())
}

/// One field's first occurrence, with the derived `Deserialize`'s context.
fn field<T>(slot: Option<Result<T, String>>, key: &str) -> Result<T, String> {
    match slot {
        Some(value) => value.map_err(|e| format!("ScoreRequest.{key}: {e}")),
        None => Err(format!("ScoreRequest: missing field `{key}`")),
    }
}

fn decode_row(reader: &mut Reader<'_>, row: &mut Vec<f64>) -> Decoded<Vec<f64>> {
    if let Err(kind) = reader.enter_seq()? {
        return Ok(Err(format!("expected sequence, found {kind}")));
    }
    row.clear();
    let mut failure = None;
    while reader.next_element()? {
        if failure.is_some() {
            reader.skip()?;
            continue;
        }
        match reader.f64()? {
            Ok(x) => row.push(x),
            Err(kind) => failure = Some(format!("[{}]: expected number, found {kind}", row.len())),
        }
    }
    Ok(failure.map_or_else(|| Ok(row.to_vec()), Err))
}

/// Encodes the `{"model_version":v,"scores":[..]}` body of a successful
/// `POST /score`, byte for byte what `serde::json::to_string` writes for it,
/// with no [`serde::Value`] tree and no per-score allocation.
pub fn encode_score_response(model_version: u64, scores: &[f64]) -> String {
    // `{"model_version":` + 20 digits + `,"scores":[]}`, then at most 24
    // bytes per score and its comma.
    let mut body = String::with_capacity(64 + 25 * scores.len());
    body.push_str("{\"model_version\":");
    // Writing into a `String` cannot fail.
    let _ = write!(body, "{model_version}");
    body.push_str(",\"scores\":[");
    for (i, &score) in scores.iter().enumerate() {
        if i > 0 {
            body.push(',');
        }
        serde::json::write_float(&mut body, score);
    }
    body.push_str("]}");
    body
}

/// Why a request could not be scored — the error the fallible serving path
/// returns instead of panicking, so one malformed artifact or request
/// degrades to an error response rather than killing a worker thread.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ScoreError {
    /// The request's metric row is shorter than the rule set requires.
    Row(RowLengthError),
    /// The request's `classifier_output` is NaN, which has no place on the
    /// probability scale (infinities and other values outside `[0, 1]` are
    /// clamped and score).
    NanClassifierOutput,
    /// The pair's portfolio could not be aggregated (e.g. a corrupt artifact
    /// producing a non-positive total weight).
    Portfolio(PortfolioError),
}

impl fmt::Display for ScoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ScoreError::Row(e) => write!(f, "{e}"),
            ScoreError::NanClassifierOutput => write!(f, "classifier_output is NaN, not a probability"),
            ScoreError::Portfolio(e) => write!(f, "cannot aggregate the pair's portfolio: {e}"),
        }
    }
}

impl std::error::Error for ScoreError {}

/// Reusable per-worker scratch for the engine (the rule index's
/// violated-rule bitset, the assembled [`PairRiskInput`], and the SoA
/// portfolio block the model aggregates through); create one per thread via
/// [`ScoringEngine::scratch`].
#[derive(Debug, Clone)]
pub struct EngineScratch {
    matcher: MatchScratch,
    input: PairRiskInput,
    components: ComponentBlock,
}

/// A servable risk model: the trained state plus the compiled rule index.
#[derive(Debug, Clone)]
pub struct ScoringEngine {
    model: LearnRiskModel,
    index: CompiledRuleIndex,
}

impl ScoringEngine {
    /// Compiles the rule index and wraps the model for serving.
    ///
    /// # Panics
    /// Panics if the model fails [`LearnRiskModel::validate`]; load models
    /// from artifacts (which validate on load) or pass freshly trained ones.
    pub fn new(model: LearnRiskModel) -> Self {
        if let Err(why) = model.validate() {
            panic!("refusing to serve an invalid model: {why}");
        }
        let index = CompiledRuleIndex::compile(&model.features.rules);
        Self { model, index }
    }

    /// The underlying trained model.
    pub fn model(&self) -> &LearnRiskModel {
        &self.model
    }

    /// The compiled rule index.
    pub fn index(&self) -> &CompiledRuleIndex {
        &self.index
    }

    /// Shortest metric row this engine can score (delegates to the index);
    /// the serving front-end uses this to turn short rows into 422 responses
    /// instead of worker panics.
    pub fn required_row_len(&self) -> usize {
        self.index.required_row_len()
    }

    /// Creates scratch state sized for this engine.
    pub fn scratch(&self) -> EngineScratch {
        EngineScratch {
            matcher: self.index.scratch(),
            input: PairRiskInput {
                rule_indices: Vec::with_capacity(16),
                classifier_output: 0.0,
                machine_says_match: false,
                risk_label: 0,
            },
            components: ComponentBlock::with_capacity(17),
        }
    }

    /// Scores one request, reusing `scratch` (no per-request allocation once
    /// the scratch vectors have warmed up).
    ///
    /// # Panics
    /// Panics on a malformed request or artifact (short metric row,
    /// un-aggregatable portfolio); [`Self::try_score_request`] is the
    /// non-panicking form the executor's request path uses.
    pub fn score_request(&self, request: &ScoreRequest, scratch: &mut EngineScratch) -> f64 {
        self.try_score_request(request, scratch)
            .unwrap_or_else(|e| panic!("{e}"))
    }

    /// Fallible [`Self::score_request`]: a malformed request (metric row
    /// shorter than the rule set requires, NaN classifier output) or a
    /// degenerate portfolio from a corrupt artifact becomes a [`ScoreError`]
    /// instead of a panic.
    pub fn try_score_request(&self, request: &ScoreRequest, scratch: &mut EngineScratch) -> Result<f64, ScoreError> {
        self.index
            .try_matching_rules_into(
                &request.metric_row,
                &mut scratch.matcher,
                &mut scratch.input.rule_indices,
            )
            .map_err(ScoreError::Row)?;
        if request.classifier_output.is_nan() {
            return Err(ScoreError::NanClassifierOutput);
        }
        scratch.input.classifier_output = request.classifier_output;
        scratch.input.machine_says_match = request.machine_says_match;
        self.model
            .try_risk_score_with(&scratch.input, &mut scratch.components)
            .map_err(ScoreError::Portfolio)
    }

    /// Scores a pre-resolved risk input (rule coverage already known), e.g.
    /// when replaying batch-pipeline outputs.
    pub fn score_pair(&self, input: &PairRiskInput) -> f64 {
        self.model.risk_score(input)
    }

    /// Scores a batch sequentially. For multi-threaded batches with caching,
    /// wrap the engine in a [`crate::ShardedExecutor`].
    pub fn score_batch(&self, requests: &[ScoreRequest]) -> Vec<f64> {
        let mut scratch = self.scratch();
        requests.iter().map(|r| self.score_request(r, &mut scratch)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use er_base::{Decision, Label, LabeledPair, Pair, PairId, Record, RecordId};
    use er_rulegen::{CmpOp, Condition, Rule};
    use learnrisk_core::{build_input_from_row, RiskFeatureSet, RiskModelConfig};
    use std::sync::Arc;

    fn model() -> LearnRiskModel {
        let rules = vec![
            Rule::new(vec![Condition::new(0, CmpOp::Gt, 0.5)], Label::Inequivalent, 20, 0.97),
            Rule::new(
                vec![Condition::new(1, CmpOp::Le, 0.3), Condition::new(2, CmpOp::Gt, 0.6)],
                Label::Equivalent,
                15,
                0.93,
            ),
            Rule::new(vec![Condition::new(2, CmpOp::Le, 0.2)], Label::Inequivalent, 9, 0.9),
        ];
        let fs = RiskFeatureSet {
            rules,
            metrics: vec![],
            expectations: vec![0.05, 0.92, 0.1],
            support: vec![20, 15, 9],
        };
        let mut m = LearnRiskModel::new(fs, RiskModelConfig::default());
        m.rule_weights = vec![1.3, 0.7, 2.1];
        m.rule_rsd = vec![0.25, 0.4, 0.31];
        m
    }

    fn offline_score(model: &LearnRiskModel, req: &ScoreRequest) -> f64 {
        // The batch path: linear-scan rule resolution via build_input_from_row.
        let rec = |id| Arc::new(Record::new(RecordId(id), vec![]));
        let lp = LabeledPair::new(
            Pair::new(PairId(req.pair_id as u32), rec(0), rec(1), Label::Equivalent),
            Decision::from_probability(req.classifier_output),
        );
        let input = build_input_from_row(&model.features, &req.metric_row, &lp);
        model.risk_score(&input)
    }

    fn request(pair_id: u64, row: Vec<f64>, p: f64) -> ScoreRequest {
        ScoreRequest {
            pair_id,
            metric_row: row,
            classifier_output: p,
            machine_says_match: p >= 0.5,
        }
    }

    #[test]
    fn online_scores_are_bit_identical_to_the_offline_path() {
        let model = model();
        let engine = ScoringEngine::new(model.clone());
        let mut scratch = engine.scratch();
        for (i, row) in [
            vec![0.9, 0.1, 0.8],
            vec![0.2, 0.9, 0.1],
            vec![0.51, 0.3, 0.61],
            vec![0.0, 0.0, 0.0],
            vec![1.0, 1.0, 1.0],
        ]
        .into_iter()
        .enumerate()
        {
            for p in [0.03, 0.49, 0.5, 0.97] {
                let req = request(i as u64, row.clone(), p);
                let online = engine.score_request(&req, &mut scratch);
                let offline = offline_score(&model, &req);
                assert_eq!(online.to_bits(), offline.to_bits(), "row {row:?} p {p}");
            }
        }
    }

    #[test]
    fn score_batch_matches_per_request_scoring() {
        let engine = ScoringEngine::new(model());
        let reqs: Vec<ScoreRequest> = (0..20)
            .map(|i| {
                let x = i as f64 / 20.0;
                request(i, vec![x, 1.0 - x, (x * 7.0).fract()], x)
            })
            .collect();
        let batch = engine.score_batch(&reqs);
        let mut scratch = engine.scratch();
        for (req, &score) in reqs.iter().zip(&batch) {
            assert_eq!(engine.score_request(req, &mut scratch).to_bits(), score.to_bits());
        }
    }

    #[test]
    fn score_pair_delegates_to_the_model() {
        let model = model();
        let engine = ScoringEngine::new(model.clone());
        let input = PairRiskInput {
            rule_indices: vec![0, 2],
            classifier_output: 0.8,
            machine_says_match: true,
            risk_label: 0,
        };
        assert_eq!(engine.score_pair(&input).to_bits(), model.risk_score(&input).to_bits());
    }

    #[test]
    #[should_panic(expected = "refusing to serve an invalid model")]
    fn invalid_models_are_refused() {
        let mut bad = model();
        bad.rule_weights.pop();
        ScoringEngine::new(bad);
    }

    #[test]
    fn malformed_requests_degrade_to_errors_on_the_fallible_path() {
        let engine = ScoringEngine::new(model());
        let mut scratch = engine.scratch();
        // Well-formed request: the fallible path returns the identical score.
        let ok = request(0, vec![0.9, 0.1, 0.8], 0.7);
        let plain = engine.score_request(&ok, &mut scratch);
        let fallible = engine.try_score_request(&ok, &mut scratch).expect("well-formed");
        assert_eq!(plain.to_bits(), fallible.to_bits());
        // Short metric row: an error, not a panic — and the scratch survives.
        let short = request(1, vec![0.9], 0.7);
        let err = engine.try_score_request(&short, &mut scratch).unwrap_err();
        assert!(matches!(err, ScoreError::Row(_)), "{err}");
        assert!(err.to_string().contains("metric row has 1 entries"));
        let after = engine.try_score_request(&ok, &mut scratch).expect("scratch reusable");
        assert_eq!(plain.to_bits(), after.to_bits());
    }

    #[test]
    fn nan_classifier_outputs_are_errors_and_out_of_range_ones_clamp() {
        let model = model();
        let engine = ScoringEngine::new(model.clone());
        let mut scratch = engine.scratch();
        let row = vec![0.9, 0.1, 0.8];
        let nan = request(0, row.clone(), f64::NAN);
        let err = engine.try_score_request(&nan, &mut scratch).unwrap_err();
        assert_eq!(err, ScoreError::NanClassifierOutput);
        assert!(err.to_string().contains("classifier_output is NaN"), "{err}");
        // Infinities and values outside [0, 1] clamp to the nearest bound.
        for (p, clamped) in [(f64::INFINITY, 1.0), (1.5, 1.0), (f64::NEG_INFINITY, 0.0), (-0.25, 0.0)] {
            let out_of_range = request(1, row.clone(), p);
            let score = engine
                .try_score_request(&out_of_range, &mut scratch)
                .expect("out-of-range outputs score");
            let bound = ScoreRequest {
                classifier_output: clamped,
                ..out_of_range.clone()
            };
            assert_eq!(
                score.to_bits(),
                engine.score_request(&bound, &mut scratch).to_bits(),
                "p = {p}"
            );
        }
        // The scratch keeps serving well-formed requests afterwards.
        let ok = request(2, row, 0.7);
        assert_eq!(
            engine
                .try_score_request(&ok, &mut scratch)
                .expect("well-formed")
                .to_bits(),
            offline_score(&model, &ok).to_bits()
        );
    }
}
