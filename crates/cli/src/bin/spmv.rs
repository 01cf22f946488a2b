//! Artifact-style SpMV binary: computes `y = A^T x` with `x[i] = 1/(i+1)`.

use blaze_cli::or_exit;

fn main() {
    let cli = blaze_cli::parse_or_exit("spmv");
    let engine = or_exit("spmv", blaze_cli::open_engine(&cli, &cli.index, &cli.adj));
    let x: Vec<f64> = (0..engine.graph().num_vertices())
        .map(|i| 1.0 / (i + 1) as f64)
        .collect();
    let t0 = std::time::Instant::now();
    let y = or_exit("spmv", blaze_algorithms::spmv(&engine, &x, cli.mode));
    let wall = t0.elapsed();
    blaze_cli::print_run_summary("spmv", &engine, wall);
    let norm: f64 = (0..y.len()).map(|v| y.get(v) * y.get(v)).sum();
    println!("|y|_2 = {:.6}", norm.sqrt());
}
