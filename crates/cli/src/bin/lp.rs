//! Artifact-style forward label-propagation binary: every vertex converges
//! to the minimum original id among itself and its directed ancestors.
//! `-mode binned|sync|async` picks the execution mode.

use blaze_cli::or_exit;

fn main() {
    let cli = blaze_cli::parse_or_exit("lp");
    let engine = or_exit("lp", blaze_cli::open_engine(&cli, &cli.index, &cli.adj));
    let t0 = std::time::Instant::now();
    let labels = or_exit("lp", blaze_algorithms::label_propagation(&engine, cli.mode));
    let wall = t0.elapsed();
    blaze_cli::print_run_summary("lp", &engine, wall);
    let mut distinct: Vec<u32> = (0..labels.len()).map(|v| labels.get(v)).collect();
    distinct.sort_unstable();
    distinct.dedup();
    println!("{} distinct propagation labels", distinct.len());
}
