//! The CI perf gate: compares the counts the repository benchmark marks
//! `exact` — they repeat bit for bit for a seed — against a committed file.
//!
//! ```text
//! cargo run --release --offline --manifest-path benchmark/Cargo.toml -- --quick --seed 1 \
//!     | exact_gate perf/exact_counts.json [--bless]
//! ```
//!
//! The benchmark's stdout arrives on stdin. Every traced run (`trace=1` in
//! its `# <workload> seed=…` header) contributes the metrics whose text line
//! ends in ` exact`, at the full precision of the run's final JSON line.
//! The gate fails on a value whose bits differ from the file's, on a
//! committed key the output lacks, on an exact metric or workload the file
//! lacks (a new counter cannot go ungated), and on any run — traced or not —
//! that reports `correct:false` or failed requests. There is no tolerance.
//! After an intentional change `--bless` rewrites the file from a sound run;
//! its diff is then part of the review.

use std::collections::BTreeMap;
use std::error::Error;
use std::io::Read;
use std::process::ExitCode;

use serde::Deserialize;

/// `{workload: {metric: value}}`, as committed.
type Counts = BTreeMap<String, BTreeMap<String, f64>>;

/// What the gate reads of a run's final JSON line.
#[derive(Deserialize)]
struct ResultLine {
    correct: bool,
    failed: u64,
    metrics: BTreeMap<String, Metric>,
}

#[derive(Deserialize)]
struct Metric {
    value: f64,
}

/// The exact counts of every traced run in the suite's stdout, and
/// everything that makes the output unfit to gate on or bless from.
fn read_suite(stdout: &str) -> (Counts, Vec<String>) {
    let mut counts = Counts::new();
    let mut problems = Vec::new();
    // The run whose lines are being read: (workload, traced, exact names).
    let mut run: Option<(&str, bool, Vec<&str>)> = None;
    for line in stdout.lines() {
        let tokens: Vec<&str> = line.split_whitespace().collect();
        match tokens.as_slice() {
            ["#", workload, seed, trace, ..] if seed.starts_with("seed=") => {
                if let Some((unfinished, ..)) = run.take() {
                    problems.push(format!("{unfinished}: run ended without a result line"));
                }
                run = Some((workload, *trace == "trace=1", Vec::new()));
            }
            [first, ..] if first.starts_with('{') => {
                let Some((workload, traced, names)) = run.take() else {
                    problems.push("a result line outside any run".to_string());
                    continue;
                };
                let Ok(result) = serde_json::from_str::<ResultLine>(line) else {
                    problems.push(format!("{workload}: unreadable result line"));
                    continue;
                };
                if !result.correct || result.failed > 0 {
                    problems.push(format!(
                        "{workload} trace={}: correct={} failed={}",
                        u8::from(traced),
                        result.correct,
                        result.failed
                    ));
                }
                if !traced {
                    continue;
                }
                let mut exact = BTreeMap::new();
                for name in names {
                    match result.metrics.get(name) {
                        Some(metric) => {
                            exact.insert(name.to_string(), metric.value);
                        }
                        None => problems.push(format!("{workload} {name}: not in the result line")),
                    }
                }
                if counts.insert(workload.to_string(), exact).is_some() {
                    problems.push(format!("{workload}: more than one traced run"));
                }
            }
            [name, .., "exact"] => {
                if let Some((.., names)) = run.as_mut() {
                    names.push(name);
                }
            }
            _ => {}
        }
    }
    if let Some((unfinished, ..)) = run {
        problems.push(format!("{unfinished}: run ended without a result line"));
    }
    (counts, problems)
}

/// Every way `got` differs from `expected`; equality is `f64::to_bits`.
fn differences(expected: &Counts, got: &Counts) -> Vec<String> {
    let mut out = Vec::new();
    for (workload, metrics) in expected {
        let Some(run) = got.get(workload) else {
            out.push(format!("{workload}: committed, but has no traced run"));
            continue;
        };
        for (name, want) in metrics {
            match run.get(name) {
                None => out.push(format!("{workload} {name}: committed, but not emitted")),
                Some(value) if value.to_bits() != want.to_bits() => {
                    out.push(format!("{workload} {name}: expected {want}, got {value}"));
                }
                Some(_) => {}
            }
        }
    }
    for (workload, run) in got {
        let Some(metrics) = expected.get(workload) else {
            out.push(format!(
                "{workload}: has a traced run, but is not committed"
            ));
            continue;
        };
        for (name, value) in run {
            if !metrics.contains_key(name) {
                out.push(format!(
                    "{workload} {name}: emits {value}, but is not committed"
                ));
            }
        }
    }
    out
}

/// The committed form: one metric per line, so a bless reads as a diff.
fn render(counts: &Counts) -> Result<String, serde_json::Error> {
    let mut workloads = Vec::new();
    for (workload, metrics) in counts {
        let mut lines = Vec::new();
        for (name, value) in metrics {
            let (name, value) = (serde_json::to_string(name)?, serde_json::to_string(value)?);
            lines.push(format!("    {name}: {value}"));
        }
        let workload = serde_json::to_string(workload)?;
        workloads.push(format!("  {workload}: {{\n{}\n  }}", lines.join(",\n")));
    }
    Ok(format!("{{\n{}\n}}\n", workloads.join(",\n")))
}

fn load(path: &str) -> Result<Counts, Box<dyn Error>> {
    Ok(serde_json::from_str(&std::fs::read_to_string(path)?)?)
}

fn store(path: &str, counts: &Counts) -> Result<(), Box<dyn Error>> {
    Ok(std::fs::write(path, render(counts)?)?)
}

/// Checks the suite's stdout against the file at `path`, or with `bless`
/// rewrites that file from it; `Ok` is the number of counts that agree.
fn gate(path: &str, bless: bool, stdout: &str) -> Result<usize, Vec<String>> {
    let (got, mut problems) = read_suite(stdout);
    if bless {
        if got.is_empty() {
            problems.push("no traced run in the input".to_string());
        }
        if problems.is_empty() {
            problems.extend(store(path, &got).err().map(|e| format!("{path}: {e}")));
        }
    } else {
        match load(path) {
            Ok(expected) => problems.extend(differences(&expected, &got)),
            Err(e) => problems.push(format!("{path}: {e}")),
        }
    }
    if problems.is_empty() {
        Ok(got.values().map(BTreeMap::len).sum())
    } else {
        Err(problems)
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (path, bless) = match args.as_slice() {
        [path] if !path.starts_with('-') => (path, false),
        [path, flag] if flag == "--bless" && !path.starts_with('-') => (path, true),
        _ => {
            eprintln!("usage: <benchmark suite> | exact_gate <expected.json> [--bless]");
            return ExitCode::from(2);
        }
    };
    let mut stdout = String::new();
    if let Err(e) = std::io::stdin().read_to_string(&mut stdout) {
        eprintln!("exact_gate: cannot read stdin: {e}");
        return ExitCode::from(2);
    }
    match gate(path, bless, &stdout) {
        Ok(n) if bless => println!("exact_gate: wrote {n} exact counts to {path}"),
        Ok(n) => println!("exact_gate: {n} exact counts identical to {path}"),
        Err(problems) => {
            for problem in &problems {
                eprintln!("exact_gate: {problem}");
            }
            eprintln!("exact_gate: failed; if the change is intended, --bless and commit {path}");
            return ExitCode::FAILURE;
        }
    }
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Suite output as the benchmark prints it, cut down to an untraced and
    /// a traced run of one workload and a traced run of another.
    const SUITE: &str = r#"# subscription_churn seed=1 trace=0 quick=true | closed loop, 1 connection / 1 daemon worker, loopback TCP, available_parallelism=2, pinned to cpu 1
# in seconds: 27178.1 ops/s, 44.11 us CPU per op, one ref = 3.74 us (median)
setup_s                                                  0.0056 s      n=9
op_mean_ref                                              9.2878 ref    n=113
# attempted=9536 failed=0 oracle_checked=256 oracle_boundary=0 oracle_mismatches=0
{"correct":true,"attempted":9536,"failed":0,"metrics":{"setup_s":{"value":0.005568764,"unit":"s"},"op_mean_ref":{"value":9.287757499530528,"unit":"ref"}}}
# subscription_churn seed=1 trace=1 quick=true | closed loop, 1 connection / 1 daemon worker, loopback TCP, available_parallelism=2, pinned to cpu 1
# trace: 1028 spans in /root/repo/benchmark/out/trace-subscription_churn.json
client.subscribe_p50_us                                 21.2340 us     n=200
client.oracle_mismatches                                 0.0000 count  n=256 exact
network.subscription_messages_per_subscribe              3.3038 count  n=260 exact
network.suppression_ratio                                0.3263 ratio  n=260 exact
covering.probes_per_query                                8.7200 count  n=50 exact
# attempted=656 failed=0 oracle_checked=256 oracle_boundary=0 oracle_mismatches=0
{"correct":true,"attempted":656,"failed":0,"metrics":{"client.subscribe_p50_us":{"value":21.234,"unit":"us"},"client.oracle_mismatches":{"value":0.0,"unit":"count"},"network.subscription_messages_per_subscribe":{"value":3.3038461538461537,"unit":"count"},"network.suppression_ratio":{"value":0.3262745098039216,"unit":"ratio"},"covering.probes_per_query":{"value":8.72,"unit":"count"}}}
# pingpong seed=1 trace=1 quick=true | closed loop, 1 connection / 1 daemon worker, loopback TCP, available_parallelism=2, pinned to cpu 1
# trace: 854 spans in /root/repo/benchmark/out/trace-pingpong.json
client.publish_p50_us                                   12.1660 us     n=2048
storage.segment_bytes_per_sub                          138.2500 B      n=8 exact
trace.spans                                            854.0000 count  n=1 exact
# attempted=3328 failed=0 oracle_checked=448 oracle_boundary=0 oracle_mismatches=0
{"correct":true,"attempted":3328,"failed":0,"metrics":{"client.publish_p50_us":{"value":12.166,"unit":"us"},"storage.segment_bytes_per_sub":{"value":138.25,"unit":"B"},"trace.spans":{"value":854.0,"unit":"count"}}}
"#;

    fn sound(stdout: &str) -> Counts {
        let (counts, problems) = read_suite(stdout);
        assert_eq!(problems, Vec::<String>::new());
        counts
    }

    #[test]
    fn only_the_exact_metrics_of_traced_runs_are_read() {
        let counts = sound(SUITE);
        let names = |w: &str| counts[w].keys().map(String::as_str).collect::<Vec<_>>();
        assert_eq!(counts.len(), 2);
        assert_eq!(
            names("subscription_churn"),
            [
                "client.oracle_mismatches",
                "covering.probes_per_query",
                "network.subscription_messages_per_subscribe",
                "network.suppression_ratio"
            ]
        );
        assert_eq!(
            names("pingpong"),
            ["storage.segment_bytes_per_sub", "trace.spans"]
        );
        assert_eq!(
            counts["subscription_churn"]["network.suppression_ratio"],
            0.3262745098039216
        );
        assert_eq!(differences(&counts, &counts), Vec::<String>::new());
    }

    #[test]
    fn one_ulp_fails_and_the_message_names_workload_metric_and_both_values() {
        let moved = SUITE.replace(r#"{"value":8.72,"#, r#"{"value":8.720000000000002,"#);
        assert_eq!(
            differences(&sound(SUITE), &sound(&moved)),
            ["subscription_churn covering.probes_per_query: expected 8.72, got 8.720000000000002"]
        );
    }

    #[test]
    fn keys_on_one_side_only_fail_in_both_directions() {
        let full = sound(SUITE);
        let mut fewer_metrics = full.clone();
        fewer_metrics
            .get_mut("pingpong")
            .unwrap()
            .remove("trace.spans");
        let mut fewer_workloads = full.clone();
        fewer_workloads.remove("pingpong");
        assert_eq!(
            differences(&full, &fewer_metrics),
            ["pingpong trace.spans: committed, but not emitted"]
        );
        assert_eq!(
            differences(&fewer_metrics, &full),
            ["pingpong trace.spans: emits 854, but is not committed"]
        );
        assert_eq!(
            differences(&full, &fewer_workloads),
            ["pingpong: committed, but has no traced run"]
        );
        assert_eq!(
            differences(&fewer_workloads, &full),
            ["pingpong: has a traced run, but is not committed"]
        );
    }

    #[test]
    fn a_wrong_failed_or_cut_off_run_is_a_problem_traced_or_not() {
        let wrong = SUITE.replacen(r#""correct":true"#, r#""correct":false"#, 1);
        assert_eq!(
            read_suite(&wrong).1,
            ["subscription_churn trace=0: correct=false failed=0"]
        );
        let failed = SUITE.replace(
            r#""attempted":656,"failed":0"#,
            r#""attempted":656,"failed":1"#,
        );
        assert_eq!(
            read_suite(&failed).1,
            ["subscription_churn trace=1: correct=true failed=1"]
        );
        let cut_off = SUITE.trim_end().rsplit_once('\n').unwrap().0;
        assert_eq!(
            read_suite(cut_off).1,
            ["pingpong: run ended without a result line"]
        );
    }

    #[test]
    fn bless_then_check_round_trips_every_bit_through_the_file() {
        let path = std::env::temp_dir().join(format!("acd-exact-gate-{}.json", std::process::id()));
        let path = path.to_str().unwrap();
        assert_eq!(gate(path, true, SUITE), Ok(6));
        let text = std::fs::read_to_string(path).unwrap();
        assert!(
            text.contains("\"network.subscription_messages_per_subscribe\": 3.3038461538461537,\n")
        );
        assert!(text.contains("\"network.suppression_ratio\": 0.3262745098039216\n"));
        assert_eq!(gate(path, false, SUITE), Ok(6));
        // A digit of the file edited by hand fails the next check.
        std::fs::write(
            path,
            text.replace("3.3038461538461537", "3.3038461538461533"),
        )
        .unwrap();
        assert_eq!(gate(path, false, SUITE).unwrap_err().len(), 1);
        // An unsound run is not blessed.
        let failed = SUITE.replace(r#""failed":0"#, r#""failed":1"#);
        assert_eq!(gate(path, true, &failed).unwrap_err().len(), 3);
        std::fs::remove_file(path).unwrap();
    }

    /// Needs neither harness to run: a renamed workload or metric cannot
    /// leave a stale key behind in the committed file.
    #[test]
    fn committed_names_are_declared_in_benchmark_json() {
        #[derive(Deserialize)]
        struct Named {
            name: String,
        }
        #[derive(Deserialize)]
        struct Contract {
            workloads: Vec<Named>,
            per_layer: Vec<Named>,
        }
        let committed = include_str!("../../../../perf/exact_counts.json");
        let counts: Counts = serde_json::from_str(committed).unwrap();
        assert_eq!(render(&counts).unwrap(), committed, "not in --bless form");
        let contract: Contract =
            serde_json::from_str(include_str!("../../../../BENCHMARK.json")).unwrap();
        let declared = |list: &[Named], name: &str| list.iter().any(|n| n.name == name);
        for (workload, metrics) in &counts {
            assert!(declared(&contract.workloads, workload), "{workload}");
            for name in metrics.keys() {
                assert!(declared(&contract.per_layer, name), "{workload} {name}");
            }
        }
    }
}
