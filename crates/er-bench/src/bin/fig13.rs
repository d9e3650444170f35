//! Regenerates Figure 13: the runtime of rule generation and of risk training
//! as the training data grows, with risk training also timed at each
//! `--threads` entry.
use er_eval::{render_scalability, run_fig13};

fn main() {
    let args = er_bench::parse_args(0.05);
    let sizes = [500, 1000, 2000, 3000, 4000, 6000];
    println!(
        "{}",
        render_scalability(&run_fig13(&args.config, &sizes, &args.threads))
    );
}
