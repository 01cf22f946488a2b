//! Artifact-style betweenness-centrality binary. Requires the transpose
//! via `-inIndexFilename` / `-inAdjFilenames` (as in the paper's appendix).

use blaze_cli::or_exit;

fn main() {
    let cli = blaze_cli::parse_or_exit("bc");
    let Some(in_index) = cli.in_index.clone() else {
        eprintln!("bc: the transpose graph is required (-inIndexFilename / -inAdjFilenames)");
        std::process::exit(2);
    };
    let out_engine = or_exit("bc", blaze_cli::open_engine(&cli, &cli.index, &cli.adj));
    let in_engine = or_exit("bc", blaze_cli::open_engine(&cli, &in_index, &cli.in_adj));
    let t0 = std::time::Instant::now();
    let scores = or_exit(
        "bc",
        blaze_algorithms::bc(&out_engine, &in_engine, cli.start_node, cli.mode),
    );
    let wall = t0.elapsed();
    blaze_cli::print_run_summary("bc", &out_engine, wall);
    let top = (0..scores.len())
        .max_by(|&a, &b| scores.get(a).total_cmp(&scores.get(b)))
        .unwrap_or(0);
    println!("top broker: vertex {top} (score {:.2})", scores.get(top));
}
