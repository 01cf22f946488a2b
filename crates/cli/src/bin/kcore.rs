//! Artifact-style k-core binary. Requires the transpose via
//! `-inIndexFilename` / `-inAdjFilenames` (degrees and peeling run over
//! the undirected view). `-k N` sets the core threshold (default 2);
//! `-mode binned|sync|async` picks the execution mode.

use blaze_cli::or_exit;

fn main() {
    let cli = blaze_cli::parse_or_exit("kcore");
    let Some(in_index) = cli.in_index.clone() else {
        eprintln!("kcore: the transpose graph is required (-inIndexFilename / -inAdjFilenames)");
        std::process::exit(2);
    };
    let out_engine = or_exit("kcore", blaze_cli::open_engine(&cli, &cli.index, &cli.adj));
    let in_engine = or_exit(
        "kcore",
        blaze_cli::open_engine(&cli, &in_index, &cli.in_adj),
    );
    let t0 = std::time::Instant::now();
    let alive = or_exit(
        "kcore",
        blaze_algorithms::kcore(&out_engine, &in_engine, cli.k, cli.mode),
    );
    let wall = t0.elapsed();
    blaze_cli::print_run_summary("kcore", &out_engine, wall);
    let survivors = (0..alive.len()).filter(|&v| alive.get(v) == 1).count();
    println!("{survivors} vertices in the {}-core", cli.k);
}
