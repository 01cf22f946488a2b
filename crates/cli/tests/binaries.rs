//! End-to-end tests of the artifact-style binaries: generate a graph with
//! `gengraph`, then run every query binary against the produced files,
//! exactly as the paper's appendix describes.

use std::path::Path;
use std::process::Command;

fn run(bin: &str, args: &[&str]) -> (bool, String) {
    let out = Command::new(bin).args(args).output().expect("spawn binary");
    let text = format!(
        "{}{}",
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr)
    );
    (out.status.success(), text)
}

fn gen_graph(dir: &Path) -> (String, String, String, String) {
    let (ok, text) = run(
        env!("CARGO_BIN_EXE_gengraph"),
        &[
            "rmat27",
            dir.to_str().unwrap(),
            "--scale",
            "tiny",
            "--stripes",
            "2",
        ],
    );
    assert!(ok, "gengraph failed: {text}");
    let p = |name: &str| dir.join(name).to_str().unwrap().to_string();
    (
        p("rmat27.gr.index"),
        p("rmat27.gr.adj.0"),
        p("rmat27.gr.adj.1"),
        p("rmat27.tgr.index"),
    )
}

#[test]
fn gengraph_then_bfs() {
    let dir = tempfile::tempdir().unwrap();
    let (index, adj0, adj1, _) = gen_graph(dir.path());
    let (ok, text) = run(
        env!("CARGO_BIN_EXE_bfs"),
        &[
            "-computeWorkers",
            "4",
            "-startNode",
            "0",
            &index,
            &adj0,
            &adj1,
        ],
    );
    assert!(ok, "bfs failed: {text}");
    assert!(text.contains("reached"), "{text}");
    assert!(text.contains("io:"), "{text}");
}

#[test]
fn pr_with_binning_flags() {
    let dir = tempfile::tempdir().unwrap();
    let (index, adj0, adj1, _) = gen_graph(dir.path());
    let (ok, text) = run(
        env!("CARGO_BIN_EXE_pr"),
        &[
            "-computeWorkers",
            "4",
            "-binSpace",
            "4",
            "-binningRatio",
            "0.5",
            "-binCount",
            "256",
            "-maxIters",
            "10",
            &index,
            &adj0,
            &adj1,
        ],
    );
    assert!(ok, "pr failed: {text}");
    assert!(text.contains("top-ranked vertex"), "{text}");
}

#[test]
fn wcc_requires_and_uses_transpose() {
    let dir = tempfile::tempdir().unwrap();
    let (index, adj0, adj1, tindex) = gen_graph(dir.path());
    // Without the transpose: usage error.
    let (ok, _) = run(env!("CARGO_BIN_EXE_wcc"), &[&index, &adj0, &adj1]);
    assert!(!ok, "wcc must demand the transpose");
    // With it: success.
    let tadj0 = dir
        .path()
        .join("rmat27.tgr.adj.0")
        .to_str()
        .unwrap()
        .to_string();
    let tadj1 = dir
        .path()
        .join("rmat27.tgr.adj.1")
        .to_str()
        .unwrap()
        .to_string();
    let (ok, text) = run(
        env!("CARGO_BIN_EXE_wcc"),
        &[
            &index,
            &adj0,
            &adj1,
            "-inIndexFilename",
            &tindex,
            "-inAdjFilenames",
            &format!("{tadj0},{tadj1}"),
        ],
    );
    assert!(ok, "wcc failed: {text}");
    assert!(text.contains("weakly connected components"), "{text}");
}

#[test]
fn spmv_and_bc_run() {
    let dir = tempfile::tempdir().unwrap();
    let (index, adj0, adj1, tindex) = gen_graph(dir.path());
    let (ok, text) = run(env!("CARGO_BIN_EXE_spmv"), &[&index, &adj0, &adj1]);
    assert!(ok, "spmv failed: {text}");
    assert!(text.contains("|y|_2"), "{text}");
    let tadj0 = dir
        .path()
        .join("rmat27.tgr.adj.0")
        .to_str()
        .unwrap()
        .to_string();
    let tadj1 = dir
        .path()
        .join("rmat27.tgr.adj.1")
        .to_str()
        .unwrap()
        .to_string();
    let (ok, text) = run(
        env!("CARGO_BIN_EXE_bc"),
        &[
            "-startNode",
            "0",
            &index,
            &adj0,
            &adj1,
            "-inIndexFilename",
            &tindex,
            "-inAdjFilenames",
            &format!("{tadj0},{tadj1}"),
        ],
    );
    assert!(ok, "bc failed: {text}");
    assert!(text.contains("top broker"), "{text}");
}

#[test]
fn bad_flags_exit_nonzero() {
    let (ok, text) = run(env!("CARGO_BIN_EXE_bfs"), &["-bogusFlag", "1"]);
    assert!(!ok);
    assert!(text.contains("unknown flag"), "{text}");
    let (ok, _) = run(
        env!("CARGO_BIN_EXE_bfs"),
        &["/does/not/exist.index", "/nope.adj.0"],
    );
    assert!(!ok);
}

/// The monotone queries give identical result lines in every execution
/// mode — async included — and the async runs advertise their rounds.
#[test]
fn async_mode_matches_binned_for_monotone_binaries() {
    let dir = tempfile::tempdir().unwrap();
    let (index, adj0, adj1, tindex) = gen_graph(dir.path());
    let tadj = format!(
        "{},{}",
        dir.path().join("rmat27.tgr.adj.0").to_str().unwrap(),
        dir.path().join("rmat27.tgr.adj.1").to_str().unwrap()
    );
    for (bin, key, extra) in [
        (env!("CARGO_BIN_EXE_bfs"), "reached", false),
        (env!("CARGO_BIN_EXE_sssp"), "settled", false),
        (
            env!("CARGO_BIN_EXE_lp"),
            "distinct propagation labels",
            false,
        ),
        (
            env!("CARGO_BIN_EXE_wcc"),
            "weakly connected components",
            true,
        ),
        (env!("CARGO_BIN_EXE_kcore"), "-core", true),
    ] {
        let mut results = Vec::new();
        for mode in ["binned", "sync", "async"] {
            let mut args = vec!["-mode", mode, &index, &adj0, &adj1];
            if extra {
                args.extend(["-inIndexFilename", &tindex, "-inAdjFilenames", &tadj]);
            }
            let (ok, text) = run(bin, &args);
            assert!(ok, "{bin} -mode {mode} failed: {text}");
            if mode == "async" {
                assert!(text.contains("async:"), "{bin} async summary line: {text}");
            }
            results.push(result_line(&text, key));
        }
        assert_eq!(results[0], results[1], "{bin}: sync differs from binned");
        assert_eq!(results[0], results[2], "{bin}: async differs from binned");
    }
}

/// Non-monotone queries refuse -mode async with a clear diagnostic.
#[test]
fn async_mode_is_rejected_by_non_monotone_binaries() {
    let dir = tempfile::tempdir().unwrap();
    let (index, adj0, adj1, _) = gen_graph(dir.path());
    for bin in [env!("CARGO_BIN_EXE_pr"), env!("CARGO_BIN_EXE_spmv")] {
        let (ok, text) = run(bin, &["-mode", "async", &index, &adj0, &adj1]);
        assert!(!ok, "{bin} must reject -mode async");
        assert!(text.contains("not monotone"), "{text}");
    }
    let (ok, text) = run(
        env!("CARGO_BIN_EXE_bfs"),
        &["-mode", "turbo", &index, &adj0],
    );
    assert!(!ok);
    assert!(text.contains("expected binned|sync|async"), "{text}");
}

/// Repeated value-taking flags are a usage error (exit 2) for both dataset
/// tools, with one shared diagnostic.
#[test]
fn duplicate_tool_flags_exit_two() {
    let dir = tempfile::tempdir().unwrap();
    let input = dir.path().join("e.txt");
    std::fs::write(&input, "0 1\n").unwrap();
    let out = dir.path().join("x");
    for dup in [
        ["--stripes", "2", "--stripes", "4"],
        ["--layout", "degree", "--layout", "none"],
    ] {
        let mut args = vec![input.to_str().unwrap(), out.to_str().unwrap()];
        args.extend(dup);
        let (ok, text) = run(env!("CARGO_BIN_EXE_convert"), &args);
        assert!(!ok, "convert must reject {dup:?}");
        assert!(text.contains("duplicate flag"), "{text}");
        let mut args = vec!["rmat27", dir.path().to_str().unwrap()];
        args.extend(dup);
        let (ok, text) = run(env!("CARGO_BIN_EXE_gengraph"), &args);
        assert!(!ok, "gengraph must reject {dup:?}");
        assert!(text.contains("duplicate flag"), "{text}");
    }
    let (ok, text) = run(
        env!("CARGO_BIN_EXE_gengraph"),
        &["rmat27", dir.path().to_str().unwrap(), "--stripes", "0"],
    );
    assert!(!ok, "gengraph must reject --stripes 0");
    assert!(text.contains("bad --stripes"), "{text}");
}

/// The result line each query binary prints, for cross-layout comparison.
fn result_line(text: &str, key: &str) -> String {
    text.lines()
        .find(|l| l.contains(key))
        .unwrap_or_else(|| panic!("no line containing {key:?} in: {text}"))
        .to_string()
}

/// Convert the same edge list under `--layout none` and `--layout degree`,
/// run every query binary against both file sets, and demand identical
/// result lines: the physical reordering must be invisible at the API.
#[test]
fn degree_layout_matches_unordered_results_for_every_binary() {
    let dir = tempfile::tempdir().unwrap();
    // Hub-heavy digraph: vertex 7 fans out to everything (so a degree
    // layout genuinely moves it), a chain adds depth, 9->7 closes the
    // weak component.
    let edges = "7 0\n7 1\n7 2\n7 3\n7 4\n7 5\n7 6\n7 8\n7 9\n\
                 0 1\n1 2\n2 3\n3 4\n4 5\n5 6\n8 9\n9 7\n";
    let input = dir.path().join("edges.txt");
    std::fs::write(&input, edges).unwrap();
    let mut outputs: Vec<Vec<String>> = Vec::new();
    for layout in ["none", "degree"] {
        let base = dir.path().join(layout).join("g");
        let (ok, text) = run(
            env!("CARGO_BIN_EXE_convert"),
            &[
                input.to_str().unwrap(),
                base.to_str().unwrap(),
                "--stripes",
                "2",
                "--layout",
                layout,
            ],
        );
        assert!(ok, "convert --layout {layout} failed: {text}");
        let p = |s: &str| {
            dir.path()
                .join(layout)
                .join(s)
                .to_str()
                .unwrap()
                .to_string()
        };
        let index = p("g.gr.index");
        let adj0 = p("g.gr.adj.0");
        let adj1 = p("g.gr.adj.1");
        let tindex = p("g.tgr.index");
        let tadj = format!("{},{}", p("g.tgr.adj.0"), p("g.tgr.adj.1"));
        let mut lines = Vec::new();
        let (ok, text) = run(
            env!("CARGO_BIN_EXE_bfs"),
            &["-startNode", "0", &index, &adj0, &adj1],
        );
        assert!(ok, "bfs ({layout}) failed: {text}");
        lines.push(result_line(&text, "reached"));
        let (ok, text) = run(env!("CARGO_BIN_EXE_pr"), &[&index, &adj0, &adj1]);
        assert!(ok, "pr ({layout}) failed: {text}");
        lines.push(result_line(&text, "top-ranked vertex"));
        let (ok, text) = run(
            env!("CARGO_BIN_EXE_wcc"),
            &[
                &index,
                &adj0,
                &adj1,
                "-inIndexFilename",
                &tindex,
                "-inAdjFilenames",
                &tadj,
            ],
        );
        assert!(ok, "wcc ({layout}) failed: {text}");
        lines.push(result_line(&text, "weakly connected components"));
        let (ok, text) = run(env!("CARGO_BIN_EXE_spmv"), &[&index, &adj0, &adj1]);
        assert!(ok, "spmv ({layout}) failed: {text}");
        lines.push(result_line(&text, "|y|_2"));
        let (ok, text) = run(
            env!("CARGO_BIN_EXE_bc"),
            &[
                "-startNode",
                "0",
                &index,
                &adj0,
                &adj1,
                "-inIndexFilename",
                &tindex,
                "-inAdjFilenames",
                &tadj,
            ],
        );
        assert!(ok, "bc ({layout}) failed: {text}");
        lines.push(result_line(&text, "top broker"));
        outputs.push(lines);
    }
    assert_eq!(
        outputs[0], outputs[1],
        "degree layout changed query results"
    );
}

#[test]
fn gengraph_hub_layout_then_bfs() {
    let dir = tempfile::tempdir().unwrap();
    let (ok, text) = run(
        env!("CARGO_BIN_EXE_gengraph"),
        &[
            "rmat27",
            dir.path().to_str().unwrap(),
            "--scale",
            "tiny",
            "--stripes",
            "2",
            "--layout",
            "hub",
        ],
    );
    assert!(ok, "gengraph --layout hub failed: {text}");
    let p = |name: &str| dir.path().join(name).to_str().unwrap().to_string();
    let (ok, text) = run(
        env!("CARGO_BIN_EXE_bfs"),
        &[
            "-startNode",
            "0",
            &p("rmat27.gr.index"),
            &p("rmat27.gr.adj.0"),
            &p("rmat27.gr.adj.1"),
        ],
    );
    assert!(ok, "bfs on hub-layout graph failed: {text}");
    assert!(text.contains("reached"), "{text}");
}

#[test]
fn bad_layout_flag_exits_nonzero_for_both_tools() {
    let dir = tempfile::tempdir().unwrap();
    let input = dir.path().join("e.txt");
    std::fs::write(&input, "0 1\n").unwrap();
    let (ok, text) = run(
        env!("CARGO_BIN_EXE_convert"),
        &[
            input.to_str().unwrap(),
            dir.path().join("x").to_str().unwrap(),
            "--layout",
            "zigzag",
        ],
    );
    assert!(!ok, "convert must reject --layout zigzag");
    assert!(text.contains("bad --layout"), "{text}");
    let (ok, text) = run(
        env!("CARGO_BIN_EXE_gengraph"),
        &["rmat27", dir.path().to_str().unwrap(), "--layout", "zigzag"],
    );
    assert!(!ok, "gengraph must reject --layout zigzag");
    assert!(text.contains("bad --layout"), "{text}");
}

/// `-shards N` runs the query as a concurrent destination-partitioned
/// cluster: the result line matches the single-engine run, and the summary
/// gains a `shards:` line with per-shard device bytes and exchange
/// traffic. A repeated `-shards` is a usage error with the dataset tools'
/// duplicate diagnostic.
#[test]
fn sharded_queries_match_single_engine_results() {
    let dir = tempfile::tempdir().unwrap();
    let (index, adj0, adj1, tindex) = gen_graph(dir.path());
    let tadj = format!(
        "{},{}",
        dir.path().join("rmat27.tgr.adj.0").to_str().unwrap(),
        dir.path().join("rmat27.tgr.adj.1").to_str().unwrap()
    );

    // BFS: identical "reached" line, sharded summary present.
    let (ok, text) = run(
        env!("CARGO_BIN_EXE_bfs"),
        &["-startNode", "0", &index, &adj0, &adj1],
    );
    assert!(ok, "bfs failed: {text}");
    let single = result_line(&text, "reached");
    let (ok, text) = run(
        env!("CARGO_BIN_EXE_bfs"),
        &["-startNode", "0", "-shards", "4", &index, &adj0, &adj1],
    );
    assert!(ok, "sharded bfs failed: {text}");
    assert_eq!(result_line(&text, "reached"), single);
    let shards_line = result_line(&text, "shards: 4");
    assert!(
        shards_line.contains("device bytes per shard") && shards_line.contains("exchange"),
        "{shards_line}"
    );

    // PageRank: the top-ranked vertex is stable (ranks agree to 1e-6;
    // the printed 6-decimal rank may wobble in the last digit).
    let (ok, text) = run(env!("CARGO_BIN_EXE_pr"), &[&index, &adj0, &adj1]);
    assert!(ok, "pr failed: {text}");
    let top = result_line(&text, "top-ranked vertex");
    let top_id = top.split(" (rank").next().unwrap().to_string();
    let (ok, text) = run(
        env!("CARGO_BIN_EXE_pr"),
        &["-shards", "2", &index, &adj0, &adj1],
    );
    assert!(ok, "sharded pr failed: {text}");
    assert!(
        result_line(&text, "top-ranked vertex").starts_with(&top_id),
        "{text}"
    );
    result_line(&text, "shards: 2");

    // WCC: identical component count across both sharded directions.
    let run_wcc = |extra: &[&str]| {
        let owned: Vec<String> = extra
            .iter()
            .map(|s| (*s).to_string())
            .chain([
                index.clone(),
                adj0.clone(),
                adj1.clone(),
                "-inIndexFilename".to_string(),
                tindex.clone(),
                "-inAdjFilenames".to_string(),
                tadj.clone(),
            ])
            .collect();
        let refs: Vec<&str> = owned.iter().map(String::as_str).collect();
        run(env!("CARGO_BIN_EXE_wcc"), &refs)
    };
    let (ok, text) = run_wcc(&[]);
    assert!(ok, "wcc failed: {text}");
    let components = result_line(&text, "weakly connected components");
    let (ok, text) = run_wcc(&["-shards", "3"]);
    assert!(ok, "sharded wcc failed: {text}");
    assert_eq!(
        result_line(&text, "weakly connected components"),
        components
    );
    result_line(&text, "shards: 3");

    // Duplicate -shards: usage error, shared diagnostic.
    let (ok, text) = run(
        env!("CARGO_BIN_EXE_bfs"),
        &["-shards", "2", "-shards", "4", &index, &adj0, &adj1],
    );
    assert!(!ok, "duplicate -shards must be rejected");
    assert!(text.contains("duplicate flag -shards"), "{text}");
}

#[test]
fn convert_text_edge_list_then_query() {
    let dir = tempfile::tempdir().unwrap();
    // A small ring + chords, with comments and duplicates.
    let edges = "# test graph\n0 1\n1 2\n2 3\n3 0\n0 2\n0 2\n";
    let input = dir.path().join("edges.txt");
    std::fs::write(&input, edges).unwrap();
    let base = dir.path().join("ring");
    let (ok, text) = run(
        env!("CARGO_BIN_EXE_convert"),
        &[
            input.to_str().unwrap(),
            base.to_str().unwrap(),
            "--dedup",
            "--stripes",
            "2",
        ],
    );
    assert!(ok, "convert failed: {text}");
    assert!(
        text.contains("5 edges"),
        "dedup should leave 5 edges: {text}"
    );
    let index = dir.path().join("ring.gr.index");
    let adj0 = dir.path().join("ring.gr.adj.0");
    let adj1 = dir.path().join("ring.gr.adj.1");
    let (ok, text) = run(
        env!("CARGO_BIN_EXE_bfs"),
        &[
            "-startNode",
            "0",
            index.to_str().unwrap(),
            adj0.to_str().unwrap(),
            adj1.to_str().unwrap(),
        ],
    );
    assert!(ok, "bfs on converted graph failed: {text}");
    assert!(text.contains("reached 4 vertices"), "{text}");
}

/// A corrupt adjacency page (every byte `0xFF`, so every decoded neighbor
/// id is out of range) makes the BFS job panic. The binary reports the
/// failed job and exits 1 instead of unwinding out of `main` (status 101).
#[test]
fn bfs_on_a_corrupt_page_fails_with_a_diagnostic() {
    let dir = tempfile::tempdir().unwrap();
    let (index, adj0, adj1, _) = gen_graph(dir.path());
    let mut bytes = std::fs::read(&adj0).unwrap();
    assert!(bytes.len() >= 2 * 4096, "stripe 0 holds at least two pages");
    bytes[4096..2 * 4096].fill(0xFF);
    std::fs::write(&adj0, bytes).unwrap();
    let out = Command::new(env!("CARGO_BIN_EXE_bfs"))
        .args(["-startNode", "0", &index, &adj0, &adj1])
        .output()
        .expect("spawn binary");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    assert!(stderr.contains("bfs: job panicked"), "{stderr}");
}
