//! Quickstart: run the full LearnRisk pipeline on a small synthetic
//! DBLP-Scholar-style workload, print the AUROC of every risk method, and
//! export the trained model as the serving artifact `out/serve_model.json`
//! that `er-serve --artifact` boots from.
//!
//! ```bash
//! cargo run --release --example quickstart
//! ```

use learnrisk_repro::base::SplitRatio;
use learnrisk_repro::datasets::{generate_benchmark, BenchmarkId};
use learnrisk_repro::eval::{
    build_score_requests, export_and_load_engine, run_pipeline, verify_round_trip, PipelineConfig,
};

fn main() {
    // 1. Generate a candidate-pair workload emulating DBLP-Scholar
    //    (schema, dirtiness and class imbalance follow the paper's Table 2).
    let dataset = generate_benchmark(BenchmarkId::DblpScholar, 0.03, 42);
    let workload = &dataset.workload;
    println!(
        "Workload {}: {} candidate pairs, {} matches, {} attributes",
        workload.name,
        workload.len(),
        workload.match_count(),
        workload.attribute_count()
    );

    // 2. Run the end-to-end pipeline at the paper's 3:2:5 split:
    //    train the classifier, generate risk features, train the risk model,
    //    and score the test pairs with LearnRisk and all baselines.
    let config = PipelineConfig::default();
    let (result, artifacts) = run_pipeline(workload, SplitRatio::new(3, 2, 5), &config);

    println!("\nClassifier F1 on the test split: {:.3}", result.classifier_f1);
    println!(
        "Mislabeled test pairs: {} / {}",
        result.test_mislabeled, result.test_size
    );
    println!("Generated risk features (rules): {}\n", result.rule_count);

    println!("{:<14} {:>8}", "Method", "AUROC");
    for method in &result.methods {
        println!("{:<14} {:>8.3}", method.method, method.auroc);
    }

    // 3. Inspect the interpretable explanation of the riskiest test pair.
    let learnrisk = result
        .methods
        .iter()
        .find(|m| m.method == "LearnRisk")
        .expect("LearnRisk result");
    let riskiest = learnrisk
        .scores
        .iter()
        .enumerate()
        .max_by(|a, b| a.1.partial_cmp(b.1).unwrap())
        .map(|(i, _)| i)
        .expect("non-empty test split");
    println!(
        "\nRiskiest test pair (risk = {:.3}) — feature contributions:",
        learnrisk.scores[riskiest]
    );
    for contribution in artifacts.risk_model.explain(&artifacts.test_inputs[riskiest]) {
        println!(
            "  w={:<6.2} mu={:<5.2} sigma={:<5.2}  {}",
            contribution.weight, contribution.expectation, contribution.std, contribution.description
        );
    }

    // 4. Export the trained model as a serving artifact, load it back, and
    //    check that the compiled engine scores every workload pair bit for
    //    bit like the in-memory model.
    let path = "out/serve_model.json";
    std::fs::create_dir_all("out").expect("create out/");
    let (_, engine) = export_and_load_engine(&artifacts, path).expect("export and load the artifact");
    let pool = build_score_requests(&artifacts.evaluator, &artifacts.matcher, workload.pairs());
    verify_round_trip(&artifacts.risk_model, &engine, &pool).expect("served scores match the model bit for bit");
    println!(
        "\nServing artifact written to {path}; {} pairs score bit-exactly after the round trip",
        pool.len()
    );
}
