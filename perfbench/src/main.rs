//! Blaze benchmark: seeded graphs on `FileDevice` stripes, four query
//! workloads run closed-loop against the public API, every answer checked
//! against `blaze_algorithms::reference`. `BENCHMARK.json` lists three of
//! the workloads; `NOTES.md` says why and what each metric should move.
//!
//! ```text
//! blaze-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! `--trace 0` measures the end-to-end metrics with no instrumentation.
//! `--trace 1` runs the workload twice, untraced then traced, each for half
//! the time, and reports the per-layer metrics plus the tracing overhead.
//! The last line of standard output is one JSON object; the lines before
//! it print every metric by name with its unit. See `NOTES.md`.

mod device;
mod layers;
mod stats;
mod workload;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

use device::SpanLog;
use stats::{median, percentile, ratio, RssSampler};
use workload::{Kind, Oracle, Setup, WORKLOADS};

/// Set-ups per untraced run; `setup_s` is their median.
const SETUP_REPS: usize = 3;
/// Windows the timed phase is split into for `queries_per_s`.
const THROUGHPUT_WINDOWS: usize = 5;
const MIB: f64 = (1u64 << 20) as f64;

/// End-to-end metrics, measured with tracing off: (name, unit).
pub const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("queries_per_s", "1/s"),
    ("query_p50_ms", "ms"),
    ("device_mib_per_query", "MiB"),
    ("peak_rss_mib", "MiB"),
];

/// Where graph files and span logs go.
pub fn out_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out")
}

struct Args {
    workload: String,
    kind: Kind,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> std::result::Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let value = |flag: &str| -> std::result::Result<&str, String> {
        let i = argv
            .iter()
            .position(|a| a == flag)
            .ok_or(format!("missing {flag}"))?;
        argv.get(i + 1)
            .map(String::as_str)
            .ok_or(format!("{flag} needs a value"))
    };
    let workload = value("--workload")?.to_string();
    let kind = Kind::from_name(&workload).ok_or_else(|| {
        let names: Vec<&str> = WORKLOADS.iter().map(|(n, _)| *n).collect();
        format!(
            "unknown workload {workload:?}; expected one of {}",
            names.join(", ")
        )
    })?;
    let number = |flag: &str| {
        value(flag)?
            .parse::<u64>()
            .map_err(|e| format!("{flag}: {e}"))
    };
    let seconds = number("--seconds")?;
    if seconds == 0 {
        return Err("--seconds must be at least 1".into());
    }
    let trace = match value("--trace")? {
        "0" => false,
        "1" => true,
        t => return Err(format!("--trace must be 0 or 1, got {t:?}")),
    };
    Ok(Args {
        workload,
        kind,
        seed: number("--seed")?,
        seconds: seconds as f64,
        trace,
    })
}

/// What one timed phase measured.
pub struct Phase {
    /// Every query that returned an answer, right or wrong.
    pub samples: Vec<Sample>,
    pub seconds: f64,
    pub attempted: u64,
    pub failed: u64,
    pub peak_rss_mib: f64,
    pub rss_growth_kib: f64,
    /// Share of the machine's CPU time the host stole during the phase.
    pub steal_pct: f64,
    pub device_bytes: u64,
    /// Records per bin summed over the traces taken (traced phase only).
    pub records_per_bin: Vec<u64>,
}

/// One answered query.
#[derive(Debug, Clone, Copy)]
pub struct Sample {
    pub query: &'static str,
    /// Start, in seconds since the timed phase began.
    pub start_s: f64,
    pub ms: f64,
}

impl Phase {
    pub fn queries(&self) -> usize {
        self.samples.len()
    }

    /// Client time spent inside query calls.
    pub fn total_ms(&self) -> f64 {
        self.samples.iter().map(|s| s.ms).sum()
    }

    /// Closed-loop throughput in queries per second of client time spent
    /// inside query calls (answer checks excluded): the median over
    /// [`THROUGHPUT_WINDOWS`] equal windows of the phase, so a slow spell
    /// of the machine that covers less than half the phase does not move it.
    fn queries_per_s(&self, clients: usize) -> f64 {
        let mut windows = [(0usize, 0.0f64); THROUGHPUT_WINDOWS];
        for s in &self.samples {
            let w = ((s.start_s / self.seconds * THROUGHPUT_WINDOWS as f64) as usize)
                .min(THROUGHPUT_WINDOWS - 1);
            windows[w].0 += 1;
            windows[w].1 += s.ms;
        }
        let rates: Vec<f64> = windows
            .iter()
            .filter(|(n, _)| *n > 0)
            .map(|&(n, ms)| ratio((n * clients) as f64 * 1e3, ms))
            .collect();
        median(&rates)
    }

    /// Ascending latencies of each query type.
    fn by_type(&self) -> BTreeMap<&'static str, Vec<f64>> {
        let mut types = BTreeMap::<_, Vec<f64>>::new();
        for s in &self.samples {
            types.entry(s.query).or_default().push(s.ms);
        }
        for v in types.values_mut() {
            v.sort_by(f64::total_cmp);
        }
        types
    }
}

/// Adds `counts` into `total` element-wise, growing it as needed.
fn add_counts(total: &mut Vec<u64>, counts: &[u64]) {
    total.resize(total.len().max(counts.len()), 0);
    for (t, c) in total.iter_mut().zip(counts) {
        *t += c;
    }
}

/// Counts one query outcome; reports the first few failures.
fn tally(
    outcome: blaze_types::Result<(Instant, Instant, bool)>,
    failed: &mut u64,
) -> Option<(Instant, Instant)> {
    let (start, end, ok) = match outcome {
        Ok(o) => o,
        Err(e) => {
            if *failed < 5 {
                eprintln!("perfbench: query failed: {e}");
            }
            *failed += 1;
            return None;
        }
    };
    if !ok {
        if *failed < 5 {
            eprintln!("perfbench: query answer differs from the reference");
        }
        *failed += 1;
    }
    Some((start, end))
}

/// Runs the workload's warm-up queries; returns (attempted, failed).
fn warm_up(setup: &Setup, oracle: &Oracle) -> (u64, u64) {
    let mut failed = 0;
    let queries = setup.kind.warmup();
    for &q in &queries {
        tally(setup.run(q, oracle), &mut failed);
    }
    (queries.len() as u64, failed)
}

/// Runs the workload's clients closed-loop for `seconds`. With `log`, each
/// query is a span under `run_span` and traces are taken after each query.
fn run_phase(
    setup: &Setup,
    oracle: &Oracle,
    seconds: f64,
    log: Option<&Arc<SpanLog>>,
    run_span: u64,
) -> Phase {
    let clients = setup.kind.clients();
    let sampler = RssSampler::start();
    let rss_start = stats::rss_kib();
    let steal_start = stats::cpu_steal_ticks();
    let bytes_start = setup.device_read_bytes();
    let phase_start = Instant::now();
    let deadline = phase_start + Duration::from_secs_f64(seconds);
    let per_client: Vec<(Vec<Sample>, u64, u64, Vec<u64>)> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..clients)
            .map(|c| {
                s.spawn(move || {
                    let (mut latencies, mut attempted, mut failed) = (Vec::new(), 0u64, 0u64);
                    let mut bins = Vec::<u64>::new();
                    for i in 0.. {
                        if Instant::now() >= deadline {
                            break;
                        }
                        let query = setup.kind.query(c, i);
                        let span = log.map(|l| l.new_id()).unwrap_or(0);
                        if let (Some(log), 1) = (log, clients) {
                            log.set_read_parent(span);
                        }
                        attempted += 1;
                        let Some((start, end)) = tally(setup.run(query, oracle), &mut failed)
                        else {
                            continue;
                        };
                        latencies.push(Sample {
                            query: query.span_name(),
                            start_s: (start - phase_start).as_secs_f64(),
                            ms: (end - start).as_secs_f64() * 1e3,
                        });
                        if let Some(log) = log {
                            log.record(span, run_span, query.span_name(), start, end, 0);
                            for trace in setup.all_engines().iter().flat_map(|e| e.take_traces()) {
                                add_counts(&mut bins, &trace.records_per_bin);
                            }
                        }
                    }
                    (latencies, attempted, failed, bins)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let rss_end = stats::rss_kib();
    let steal_end = stats::cpu_steal_ticks();
    let mut phase = Phase {
        samples: Vec::new(),
        seconds,
        attempted: 0,
        failed: 0,
        peak_rss_mib: sampler.finish(),
        rss_growth_kib: rss_end as f64 - rss_start as f64,
        steal_pct: ratio(
            (steal_end.0 - steal_start.0) as f64 * 100.0,
            (steal_end.1 - steal_start.1) as f64,
        ),
        device_bytes: setup.device_read_bytes() - bytes_start,
        records_per_bin: Vec::new(),
    };
    for (latencies, attempted, failed, bins) in per_client {
        phase.samples.extend(latencies);
        phase.attempted += attempted;
        phase.failed += failed;
        add_counts(&mut phase.records_per_bin, &bins);
    }
    phase
}

/// A set-up directory unique to this process.
fn setup_dir(args: &Args, tag: &str) -> PathBuf {
    out_dir().join(format!(
        "{}-{}-{}-{tag}",
        args.workload,
        args.seed,
        std::process::id()
    ))
}

struct Report {
    attempted: u64,
    failed: u64,
    /// Metric values by name; `main` prints them in their table's order.
    values: Vec<(&'static str, f64)>,
}

fn untraced(args: &Args) -> blaze_types::Result<Report> {
    let mut setup_s = Vec::new();
    let mut setup: Option<Setup> = None;
    for rep in 0..SETUP_REPS {
        // Drop the previous set-up first so only one holds memory.
        drop(setup.take());
        let start = Instant::now();
        let s = Setup::build(
            args.kind,
            args.seed,
            &setup_dir(args, &format!("s{rep}")),
            None,
            0,
        )?;
        setup_s.push(start.elapsed().as_secs_f64());
        setup = Some(s);
    }
    let setup = setup.expect("at least one set-up");
    let oracle = Oracle::compute(args.kind, &setup.graph, args.seed);
    let (warm_attempted, warm_failed) = warm_up(&setup, &oracle);
    let phase = run_phase(&setup, &oracle, args.seconds, None, 0);
    let n = phase.queries();
    println!(
        "# queries {n}, failed {}, clients {}, host steal {:.1}% of CPU time",
        phase.failed,
        args.kind.clients(),
        phase.steal_pct
    );
    // A mixed workload's latencies are one mode per query type, so its
    // p50 is the mean of the per-type medians: a pooled median would jump
    // between modes as their counts shift by one.
    let types = phase.by_type();
    let mut p50 = 0.0;
    for (name, sorted) in &types {
        p50 += percentile(sorted, 500) / types.len() as f64;
        let tail = match stats::tail_per_mille(sorted.len()) {
            Some(pm) if pm > 500 => {
                format!("p{} {:.3} ms", pm as f64 / 10.0, percentile(sorted, pm))
            }
            _ => format!(
                "no tail percentile with {} samples beyond it",
                stats::MIN_BEYOND
            ),
        };
        println!(
            "# {name}: {} samples, p50 {:.3} ms, {tail}",
            sorted.len(),
            percentile(sorted, 500)
        );
    }
    Ok(Report {
        attempted: warm_attempted + phase.attempted,
        failed: warm_failed + phase.failed,
        values: vec![
            ("setup_s", median(&setup_s)),
            ("queries_per_s", phase.queries_per_s(args.kind.clients())),
            ("query_p50_ms", p50),
            (
                "device_mib_per_query",
                ratio(phase.device_bytes as f64 / MIB, n as f64),
            ),
            ("peak_rss_mib", phase.peak_rss_mib),
        ],
    })
}

fn traced(args: &Args) -> blaze_types::Result<Report> {
    let half = args.seconds / 2.0;
    // Untraced half: plain FileDevices, traces never taken.
    let (oracle, untraced_qps, rss_growth, mut attempted, mut failed) = {
        let setup = Setup::build(args.kind, args.seed, &setup_dir(args, "u"), None, 0)?;
        let oracle = Oracle::compute(args.kind, &setup.graph, args.seed);
        let (a, f) = warm_up(&setup, &oracle);
        let phase = run_phase(&setup, &oracle, half, None, 0);
        let qps = phase.queries_per_s(args.kind.clients());
        let growth = ratio(phase.rss_growth_kib, phase.queries() as f64);
        (oracle, qps, growth, a + phase.attempted, f + phase.failed)
    };
    // Traced half: timing wrappers, spans, per-query stats and traces.
    let log = Arc::new(SpanLog::new());
    let run_span = log.new_id();
    // Device reads belong to the run: overlapping clients share the
    // devices. A single client's timed queries narrow this to the query.
    log.set_read_parent(run_span);
    let run_start = Instant::now();
    let setup = log.time(run_span, "setup", |id| {
        Setup::build(args.kind, args.seed, &setup_dir(args, "t"), Some(&log), id)
    })?;
    let (a, f) = warm_up(&setup, &oracle);
    for e in setup.all_engines() {
        e.take_traces();
    }
    let before = layers::Snapshot::take(&setup);
    let phase = run_phase(&setup, &oracle, half, Some(&log), run_span);
    let after = layers::Snapshot::take(&setup);
    log.record(run_span, 0, "run", run_start, Instant::now(), 0);
    attempted += a + phase.attempted;
    failed += f + phase.failed;

    let mut values = layers::metrics(&setup, &before, &after, &phase);
    let traced_qps = phase.queries_per_s(args.kind.clients());
    let spans_path = out_dir().join(format!("spans-{}-{}.jsonl", args.workload, args.seed));
    log.write_jsonl(&spans_path)?;
    println!(
        "# spans: {} written to {}, {} dropped",
        log.len(),
        spans_path.display(),
        log.dropped()
    );
    values.extend([
        ("core.rss_growth_kib_per_query", rss_growth),
        ("tracing.untraced_queries_per_s", untraced_qps),
        ("tracing.traced_queries_per_s", traced_qps),
        (
            "tracing.overhead_pct",
            ratio(untraced_qps - traced_qps, untraced_qps) * 100.0,
        ),
        ("tracing.spans", log.len() as f64),
    ]);
    Ok(Report {
        attempted,
        failed,
        values,
    })
}

fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".into()
    }
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: blaze-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>"
            );
            std::process::exit(2);
        }
    };
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!(
        "# workload {} seed {} seconds {} trace {} available_parallelism {threads}",
        args.workload, args.seed, args.seconds, args.trace as u8
    );
    if let Err(e) = std::fs::create_dir_all(out_dir()) {
        eprintln!("perfbench: cannot create {}: {e}", out_dir().display());
        std::process::exit(1);
    }
    let report = if args.trace {
        traced(&args)
    } else {
        untraced(&args)
    };
    let report = match report {
        Ok(r) => r,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    };
    // Print in the table's order, so every run lists the same metrics.
    let table: &[(&str, &str)] = if args.trace {
        &layers::PER_LAYER
    } else {
        &END_TO_END
    };
    let mut fields = Vec::new();
    for &(name, unit) in table {
        let &(_, value) = report
            .values
            .iter()
            .find(|(n, _)| *n == name)
            .unwrap_or_else(|| panic!("metric {name} was not measured"));
        let value = json_number(value);
        println!("{} {name} {value} {unit}", args.workload);
        fields.push(format!(
            r#""{name}": {{"value": {value}, "unit": "{unit}"}}"#
        ));
    }
    println!(
        "# failed_query_ratio {}",
        json_number(ratio(report.failed as f64, report.attempted as f64))
    );
    println!(
        r#"{{"correct": {}, "attempted": {}, "failed": {}, "metrics": {{{}}}}}"#,
        report.failed == 0,
        report.attempted,
        report.failed,
        fields.join(", ")
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Metric and workload names: a letter or digit, then up to 63 more
    /// letters, digits, `_`, `.` or `-`.
    fn is_name(s: &str) -> bool {
        (1..=64).contains(&s.len())
            && s.starts_with(|c: char| c.is_ascii_alphanumeric())
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    /// Units: up to 16 letters, digits, `_`, `/`, `%`, `.` or `-`.
    fn is_unit(s: &str) -> bool {
        (1..=16).contains(&s.len())
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
    }

    /// Every string value of `"key": "..."` in `json`, in file order.
    fn string_values(json: &str, key: &str) -> Vec<String> {
        json.split(&format!("\"{key}\""))
            .skip(1)
            .filter_map(|rest| {
                let rest = rest
                    .trim_start()
                    .strip_prefix(':')?
                    .trim_start()
                    .strip_prefix('"')?;
                Some(rest[..rest.find('"')?].to_string())
            })
            .collect()
    }

    fn benchmark_json() -> String {
        std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json")).unwrap()
    }

    #[test]
    fn grammar_accepts_and_rejects() {
        assert!(is_name("pr-rmat") && is_name("storage.read_mib") && is_name("9a"));
        assert!(
            !is_name("")
                && !is_name("-x")
                && !is_name(".x")
                && !is_name("a b")
                && !is_name(&"a".repeat(65))
        );
        assert!(is_unit("1/s") && is_unit("%") && is_unit("count/query"));
        assert!(!is_unit("") && !is_unit("ms per query") && !is_unit(&"s".repeat(17)));
    }

    #[test]
    fn emitted_names_follow_the_grammar_and_are_unique() {
        let names: Vec<&str> = WORKLOADS
            .iter()
            .map(|(n, _)| *n)
            .chain(END_TO_END.iter().chain(&layers::PER_LAYER).map(|(n, _)| *n))
            .collect();
        for n in &names {
            assert!(is_name(n), "bad name {n:?}");
        }
        for (n, u) in END_TO_END.iter().chain(&layers::PER_LAYER) {
            assert!(is_unit(u), "bad unit {u:?} of {n}");
        }
        let mut unique = names.clone();
        unique.sort_unstable();
        unique.dedup();
        assert_eq!(unique.len(), names.len(), "a name is used twice");
    }

    #[test]
    fn benchmark_json_declares_what_the_binary_emits() {
        let json = benchmark_json();
        let names = string_values(&json, "name");
        // Workloads come first; BENCHMARK.json may leave one out.
        let listed = names
            .iter()
            .take_while(|n| Kind::from_name(n).is_some())
            .count();
        assert!(listed >= 2, "fewer than two workloads listed");
        let metrics: Vec<&str> = END_TO_END
            .iter()
            .chain(&layers::PER_LAYER)
            .map(|(n, _)| *n)
            .collect();
        assert_eq!(names[listed..], metrics);
        let units: Vec<&str> = END_TO_END
            .iter()
            .chain(&layers::PER_LAYER)
            .map(|(_, u)| *u)
            .collect();
        assert_eq!(string_values(&json, "unit"), units);
        let bounds: Vec<f64> = json
            .split("\"bound\":")
            .skip(1)
            .map(|rest| {
                rest.trim_start()
                    .split([',', '}'])
                    .next()
                    .unwrap()
                    .trim()
                    .parse()
                    .unwrap()
            })
            .collect();
        assert_eq!(bounds.len(), END_TO_END.len());
        assert!(
            bounds.iter().all(|b| (0.0..=0.25).contains(b)),
            "bounds {bounds:?}"
        );
    }
}
