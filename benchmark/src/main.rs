//! `acd-benchmark` — the repo's benchmark. See README.md.
//!
//! One run (`--workload W --seed N --seconds S --trace 0|1`) prints the
//! metrics by name and unit and ends with one JSON result line; without
//! `--workload` every workload runs, untraced and traced, each in a process
//! of its own.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod daemon;
mod decl;
mod inputs;
mod layers;
mod oracle;
mod reference;
mod stats;
mod trace;

use std::error::Error;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;

use serde::Value;

use daemon::{Budget, Driver, Phase, Served, Tally};
use decl::{
    Kind, Metric, Workload, END_TO_END, PER_LAYER, REPLAY_REQUESTS, RUN_SECONDS, WORKLOADS,
};
use inputs::{Inputs, QUICK_DIVISOR};
use reference::Reference;
use stats::{median, percentile, sorted};
use trace::Tracer;

/// An untraced run sets up again and again until its set-ups have taken
/// this long together (at most [`MAX_SETUPS`] times); `setup_s` is their
/// median: five to nine set-ups for the 7-200 ms the workloads take.
const SETUP_SECONDS: f64 = 1.0;

/// See [`SETUP_SECONDS`].
const MAX_SETUPS: usize = 9;

/// Share of a phase spent warming up before anything is timed.
const WARM_UP: f64 = 0.02;

const USAGE: &str = "usage: acd-benchmark [--workload NAME] [--seed N] [--seconds S] [--trace 0|1]
                     [--quick] [--data-root DIR] [--emit-benchmark-json]
  --workload NAME        run one workload and end with one JSON result line;
                         without it, run every workload untraced and traced
  --seed N               input seed (default 1)
  --seconds S            seconds the untraced run measures (default 10)
  --trace 0|1            0: end-to-end metrics from the untraced daemon run;
                         1: per-layer metrics from the traced run
  --quick                1/50 scale, for a smoke test of the whole suite
  --data-root DIR        where durable data and scratch files go, in a
                         per-pid directory removed on exit (default: out/)
  --emit-benchmark-json  print BENCHMARK.json as the declaration table has it";

#[derive(Debug)]
struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: Option<f64>,
    trace: bool,
    quick: bool,
    data_root: PathBuf,
    emit: bool,
}

impl Args {
    fn parse(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
        let mut args = Args {
            workload: None,
            seed: 1,
            seconds: None,
            trace: false,
            quick: false,
            data_root: out_dir(),
            emit: false,
        };
        while let Some(flag) = argv.next() {
            let mut value = |what: &str| argv.next().ok_or(format!("{flag} needs {what}"));
            match flag.as_str() {
                "--workload" => args.workload = Some(value("a workload name")?),
                "--seed" => {
                    args.seed = value("a number")?
                        .parse()
                        .map_err(|e| format!("--seed: {e}"))?
                }
                "--seconds" => {
                    let seconds: f64 = value("a number")?
                        .parse()
                        .map_err(|e| format!("--seconds: {e}"))?;
                    if !(seconds > 0.0 && seconds <= 600.0) {
                        return Err("--seconds must be in (0, 600]".into());
                    }
                    args.seconds = Some(seconds);
                }
                "--trace" => {
                    args.trace = match value("0 or 1")?.as_str() {
                        "0" => false,
                        "1" => true,
                        other => return Err(format!("--trace takes 0 or 1, not {other}")),
                    }
                }
                "--quick" => args.quick = true,
                "--data-root" => args.data_root = PathBuf::from(value("a directory")?),
                "--emit-benchmark-json" => args.emit = true,
                other => return Err(format!("unknown argument {other}")),
            }
        }
        Ok(args)
    }

    /// Seconds the untraced run measures; `--quick` shrinks the default.
    fn seconds(&self) -> f64 {
        self.seconds.unwrap_or(if self.quick {
            RUN_SECONDS as f64 / QUICK_DIVISOR as f64
        } else {
            RUN_SECONDS as f64
        })
    }

    /// A fixed request count of the traced run, scaled like the untraced
    /// run's time so both modes answer to `--seconds` and `--quick`.
    fn scaled(&self, requests: usize) -> usize {
        let seconds = self.seconds.unwrap_or(RUN_SECONDS as f64);
        let divisor = if self.quick { QUICK_DIVISOR } else { 1 };
        ((requests as f64 * seconds / RUN_SECONDS as f64) as usize / divisor).max(20)
    }
}

/// The benchmark's output directory, `out/` beside its manifest.
fn out_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// A per-pid directory under `--data-root`, removed when dropped — on
/// return and on unwinding alike.
#[derive(Debug)]
struct Scratch(PathBuf);

impl Scratch {
    fn create(root: &Path) -> std::io::Result<Scratch> {
        let dir = root.join(format!("run-{}", std::process::id()));
        std::fs::create_dir_all(&dir)?;
        Ok(Scratch(dir))
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Metrics in emission order.
type Report = Vec<(&'static str, f64)>;

/// What one run found.
struct RunResult {
    report: Report,
    tally: Tally,
    /// Whether every check besides the per-request ones held.
    sound: bool,
}

fn main() -> ExitCode {
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(message) => {
            eprintln!("acd-benchmark: {message}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if args.emit {
        println!("{}", pretty(&decl::benchmark_json(), 0));
        return ExitCode::SUCCESS;
    }
    let Some(name) = &args.workload else {
        return suite(&args);
    };
    let Some(workload) = decl::workload(name) else {
        eprintln!("acd-benchmark: unknown workload {name}\n{USAGE}");
        return ExitCode::from(2);
    };
    match run(workload, &args) {
        Ok(correct) if correct => ExitCode::SUCCESS,
        Ok(_) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("acd-benchmark: {name}: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Runs every workload untraced and traced, each in its own process so no
/// run inherits another's heap, page cache footprint or peak RSS.
fn suite(args: &Args) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => {
            eprintln!("acd-benchmark: cannot find its own executable: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut failed = Vec::new();
    for workload in WORKLOADS {
        for trace in ["0", "1"] {
            let mut command = std::process::Command::new(&exe);
            command
                .args(["--workload", workload.name, "--trace", trace])
                .args(["--seed", &args.seed.to_string()])
                .arg("--data-root")
                .arg(&args.data_root);
            if let Some(seconds) = args.seconds {
                command.args(["--seconds", &seconds.to_string()]);
            }
            if args.quick {
                command.arg("--quick");
            }
            if !command.status().is_ok_and(|status| status.success()) {
                failed.push(format!("{} --trace {trace}", workload.name));
            }
        }
    }
    if failed.is_empty() {
        ExitCode::SUCCESS
    } else {
        eprintln!("acd-benchmark: failed: {}", failed.join(", "));
        ExitCode::FAILURE
    }
}

/// One run of one workload; `Ok(correct)`.
fn run(workload: &Workload, args: &Args) -> Result<bool, Box<dyn Error>> {
    let scratch = Scratch::create(&args.data_root)?;
    let parallelism = std::thread::available_parallelism().map_or(0, usize::from);
    let pinned =
        stats::pin_to_one_cpu().map_or("unpinned".into(), |cpu| format!("pinned to cpu {cpu}"));
    println!(
        "# {} seed={} trace={} quick={} | closed loop, 1 connection / 1 daemon worker, loopback TCP, \
         available_parallelism={parallelism}, {pinned}",
        workload.name,
        args.seed,
        u8::from(args.trace),
        args.quick,
    );
    let (declared, result) = if args.trace {
        (PER_LAYER, traced(workload, args, &scratch.0)?)
    } else {
        (END_TO_END, untraced(workload, args, &scratch.0)?)
    };
    check_names(declared, &result.report)?;
    let tally = result.tally;
    let correct = result.sound && tally.failed == 0 && tally.mismatches == 0;
    println!(
        "# attempted={} failed={} oracle_checked={} oracle_boundary={} oracle_mismatches={}",
        tally.attempted, tally.failed, tally.checked, tally.boundary, tally.mismatches
    );
    println!(
        "{}",
        result_line(declared, &result.report, correct, &tally)?
    );
    Ok(correct)
}

/// A run must emit exactly the declared metrics, in the declared order.
fn check_names(declared: &[Metric], report: &Report) -> Result<(), String> {
    let emitted: Vec<&str> = report.iter().map(|(name, _)| *name).collect();
    let expected: Vec<&str> = declared.iter().map(|m| m.name).collect();
    if emitted == expected {
        Ok(())
    } else {
        Err(format!(
            "emitted metrics {emitted:?} differ from the declared {expected:?}"
        ))
    }
}

/// The last line of a run: one JSON object with exactly the contract's keys.
fn result_line(
    declared: &[Metric],
    report: &Report,
    correct: bool,
    tally: &Tally,
) -> Result<String, Box<dyn Error>> {
    let metrics = declared
        .iter()
        .zip(report)
        .map(|(metric, (name, value))| {
            let value = if value.is_finite() { *value } else { 0.0 };
            let entry = Value::Map(vec![
                ("value".into(), Value::F64(value)),
                ("unit".into(), Value::Str(metric.unit.into())),
            ]);
            (name.to_string(), entry)
        })
        .collect();
    let line = Value::Map(vec![
        ("correct".into(), Value::Bool(correct)),
        ("attempted".into(), Value::U64(tally.attempted.max(1))),
        ("failed".into(), Value::U64(tally.failed)),
        ("metrics".into(), Value::Map(metrics)),
    ]);
    Ok(serde_json::to_string(&line)?)
}

/// Prints one metric by name and unit, with the samples behind it; a count
/// that repeats bit for bit for a seed is marked `exact`.
fn emit(report: &mut Report, name: &'static str, value: f64, samples: usize) {
    let declared = END_TO_END.iter().chain(PER_LAYER).find(|m| m.name == name);
    let unit = declared.map_or("?", |m| m.unit);
    let exact = if declared.is_some_and(|m| m.exact) {
        " exact"
    } else {
        ""
    };
    println!("{name:<46} {value:>16.4} {unit:<6} n={samples}{exact}");
    report.push((name, value));
}

/// Nanosecond samples to a percentile in microseconds.
fn us(sorted_ns: &[u32], q: f64) -> f64 {
    f64::from(percentile(sorted_ns, q)) / 1e3
}

/// One set-up: generate the inputs, start the daemon, install the standing
/// set — through the socket, or, for a journalling daemon, by recovery from
/// a data directory that holds it. Returns how long that took.
fn set_up(
    workload: &Workload,
    args: &Args,
    data_dir: Option<PathBuf>,
) -> Result<(Inputs, Served, f64), Box<dyn Error>> {
    let started = Instant::now();
    let inputs = Inputs::generate(workload, args.seed, args.quick);
    let served = match data_dir {
        Some(dir) => Served::start_recovered(&inputs, dir)?,
        None => {
            let mut served = Served::start(&inputs, None)?;
            served.install(&inputs)?;
            served
        }
    };
    Ok((inputs, served, started.elapsed().as_secs_f64()))
}

/// The reference op of a run of `workload` (see `reference`).
fn reference_for(workload: &Workload, scratch: &Path) -> std::io::Result<Reference> {
    let disk_file = workload.durable.then(|| scratch.join("reference.probe"));
    Reference::new(disk_file.as_deref())
}

/// What a phase measured, in reference ops.
struct Steady {
    op_mean_ref: f64,
    cpu_per_op_ref: f64,
    p50_ref: f64,
    p90_ref: f64,
    p99_ref: f64,
    /// Fewest passes any segment got.
    repeats: usize,
    /// Distinct primary requests of the cycle that were measured.
    items: usize,
}

/// The end-to-end numbers of a phase.
///
/// Every segment pass is followed by one measurement of the reference op,
/// and everything the pass timed — its wall time, its CPU time, each of its
/// requests' latencies — is divided by that measurement, so a stretch in
/// which the shared machine runs slow cancels out (see `reference`).
///
/// The stream is cyclic, so every segment of it, and every request in it,
/// comes round again with exactly the same work. A piece of work costs the
/// median of its repeats. The cost of an op is one cycle's segments over one
/// cycle's ops; the latency percentiles are taken over the cycle's requests,
/// each at its median latency — so `op_p90_ref` is the cost of the dearest
/// requests of the mix, not the machine's worst moment (those tails are in
/// the client layer of the traced run, in microseconds).
fn steady(phase: &Phase, driver: &Driver) -> Steady {
    let mid = |repeats: &mut Vec<f64>| median(repeats);
    let segments = driver.cycle / driver.segment;
    let mut wall = vec![Vec::new(); segments];
    let mut cpu = vec![Vec::new(); segments];
    let mut latencies = vec![Vec::new(); driver.cycle];
    for pass in &phase.passes {
        wall[pass.index].push(pass.seconds / pass.ref_s);
        cpu[pass.index].push(pass.cpu_s / pass.ref_s);
        for k in pass.samples.clone() {
            let ns = f64::from(phase.primary[k]);
            latencies[(phase.first_position + k) % driver.cycle].push(ns / 1e9 / pass.ref_s);
        }
    }
    // A `--quick` phase can end before it has been round the whole cycle:
    // what it did not reach is left out on both sides of every ratio.
    wall.retain(|repeats| !repeats.is_empty());
    cpu.retain(|repeats| !repeats.is_empty());
    latencies.retain(|repeats| !repeats.is_empty());
    let ops = (wall.len() * driver.segment * driver.ops_per_sample()) as f64;
    let repeats = wall.iter().map(Vec::len).min().unwrap_or(0);
    let mut items: Vec<f64> = latencies.iter_mut().map(mid).collect();
    items.sort_by(f64::total_cmp);
    Steady {
        op_mean_ref: wall.iter_mut().map(mid).sum::<f64>() / ops,
        cpu_per_op_ref: cpu.iter_mut().map(mid).sum::<f64>() / ops,
        p50_ref: percentile(&items, 0.5),
        p90_ref: percentile(&items, 0.9),
        p99_ref: percentile(&items, 0.99),
        repeats,
        items: items.len(),
    }
}

/// The same phase in seconds, over everything it timed.
struct Plain {
    ops_per_s: f64,
    cpu_us_per_op: f64,
    ref_p50_us: f64,
}

fn plain(phase: &Phase, driver: &Driver) -> Plain {
    let ops = (phase.passes.len() * driver.segment * driver.ops_per_sample()) as f64;
    let mut refs: Vec<f64> = phase.passes.iter().map(|p| p.ref_s).collect();
    Plain {
        ops_per_s: ops / phase.passes.iter().map(|p| p.seconds).sum::<f64>(),
        cpu_us_per_op: phase.passes.iter().map(|p| p.cpu_s).sum::<f64>() * 1e6 / ops,
        ref_p50_us: median(&mut refs) * 1e6,
    }
}

/// The untraced run: the end-to-end metrics, through the socket.
fn untraced(workload: &Workload, args: &Args, scratch: &Path) -> Result<RunResult, Box<dyn Error>> {
    let data_dir = |k: usize| workload.durable.then(|| scratch.join(format!("data-{k}")));
    let (inputs, mut served, first_setup) = set_up(workload, args, data_dir(0))?;
    let mut reference = reference_for(workload, scratch)?;
    let mut driver = Driver::new(workload, &inputs);
    let seconds = args.seconds();
    driver.phase(
        &mut served.client,
        &mut reference,
        Budget::Seconds(seconds * WARM_UP),
    )?;
    let phase = driver.phase(&mut served.client, &mut reference, Budget::Seconds(seconds))?;
    driver.probe(&mut served.client)?;
    let peak_rss_mb = stats::peak_rss_mb();

    // Set up again until the set-ups have taken SETUP_SECONDS together, and
    // report their median. This happens after everything else was measured,
    // and the daemons are left running: retracting 10 000 subscriptions to
    // tear one down costs several set-ups' worth of time, and the process
    // ends here anyway.
    std::mem::forget(served);
    let mut setups = vec![first_setup];
    while setups.len() < MAX_SETUPS && setups.iter().sum::<f64>() < SETUP_SECONDS {
        let (_, again, seconds) = set_up(workload, args, data_dir(setups.len()))?;
        std::mem::forget(again);
        setups.push(seconds);
    }

    let in_refs = steady(&phase, &driver);
    let in_seconds = plain(&phase, &driver);
    println!(
        "# in seconds: {:.1} ops/s, {:.2} us CPU per op, one ref = {:.2} us (median)",
        in_seconds.ops_per_s, in_seconds.cpu_us_per_op, in_seconds.ref_p50_us
    );
    let mut report = Report::new();
    emit(&mut report, "setup_s", median(&mut setups), setups.len());
    emit(
        &mut report,
        "op_mean_ref",
        in_refs.op_mean_ref,
        in_refs.repeats,
    );
    emit(
        &mut report,
        "cpu_per_op_ref",
        in_refs.cpu_per_op_ref,
        in_refs.repeats,
    );
    emit(&mut report, "op_p50_ref", in_refs.p50_ref, in_refs.items);
    emit(&mut report, "op_p90_ref", in_refs.p90_ref, in_refs.items);
    emit(&mut report, "peak_rss_mb", peak_rss_mb, 1);
    Ok(RunResult {
        report,
        tally: driver.tally,
        sound: true,
    })
}

/// The traced run: the per-layer metrics. Its daemon phase sends a fixed
/// number of requests and its replay a fixed prefix of the stream, so every
/// count it reports repeats exactly for a seed.
fn traced(workload: &Workload, args: &Args, scratch: &Path) -> Result<RunResult, Box<dyn Error>> {
    let inputs = Inputs::generate(workload, args.seed, args.quick);
    let data_dir = workload.durable.then(|| scratch.join("data"));
    let mut served = Served::start(&inputs, data_dir.clone())?;
    served.install(&inputs)?;

    // The daemon from outside: the client layer.
    let mut reference = reference_for(workload, scratch)?;
    let mut driver = Driver::new(workload, &inputs);
    let samples = driver.samples_for(args.scaled(workload.traced_daemon_ops));
    let warm_up = ((samples as f64 * WARM_UP) as usize).max(1);
    driver.phase(&mut served.client, &mut reference, Budget::Samples(warm_up))?;
    let phase = driver.phase(&mut served.client, &mut reference, Budget::Samples(samples))?;
    let in_seconds = plain(&phase, &driver);
    driver.probe(&mut served.client)?;
    let recovery = match &data_dir {
        Some(dir) => Some(daemon::recover(&inputs, &driver.live(), dir, scratch)?),
        None => None,
    };
    let counters = served.daemon.network().metrics();
    let started = Instant::now();
    served.daemon.shutdown();
    let shutdown_s = started.elapsed().as_secs_f64();
    drop(served);

    // The same stream without the socket: once untraced, once traced.
    let requests = args.scaled(REPLAY_REQUESTS);
    let journal = workload.durable.then(|| scratch.join("replay.journal"));
    let untraced_replay = layers::replay(
        workload,
        &inputs,
        requests,
        journal.as_deref(),
        &mut Tracer::new(false),
    )?;
    let mut tracer = Tracer::new(true);
    let replayed = layers::replay(workload, &inputs, requests, journal.as_deref(), &mut tracer)?;
    let probed = layers::probes(&inputs, &scratch.join("probe"), &mut tracer)?;
    let trace_file = out_dir().join(format!("trace-{}.json", workload.name));
    tracer.write(&trace_file, workload.name, args.seed)?;
    println!(
        "# trace: {} spans in {}",
        tracer.spans.len(),
        trace_file.display()
    );

    let tally = driver.tally;
    let publishes = match workload.kind {
        Kind::Publish => sorted(&phase.primary),
        Kind::PublishBatch | Kind::Churn => sorted(&driver.probe_publish),
    };
    let bursts = match workload.kind {
        Kind::PublishBatch => sorted(&phase.primary),
        Kind::Publish | Kind::Churn => Vec::new(),
    };
    let subscribes = sorted(&phase.subscribe);
    let unsubscribes = sorted(&phase.unsubscribe);
    let ratio = |a: u64, b: u64| if b == 0 { 0.0 } else { a as f64 / b as f64 };
    // A percentile, in nanoseconds per call, of every span called `name`.
    let span = |name: &str, q: f64| percentile(&tracer.durations(name, None), q);
    let mean = |name: &str| {
        let all = tracer.durations(name, None);
        if all.is_empty() {
            0.0
        } else {
            all.iter().sum::<f64>() / all.len() as f64
        }
    };
    let count = |name: &str| tracer.durations(name, None).len();
    // End-to-end p50 minus the traced pipeline children's p50s: the socket,
    // the session lock, the flush and the scheduler — the daemon's self time,
    // which cannot be seen from outside.
    let overhead = |client_p50_us: f64, root: &str| {
        let children: f64 = PIPELINE
            .iter()
            .map(|name| percentile(&tracer.durations(name, Some(root)), 0.5))
            .sum();
        if tracer.durations(root, None).is_empty() {
            0.0
        } else {
            client_p50_us - children / 1e3
        }
    };
    // Every pass does a segment's worth of ops, so the rates' spread is the
    // pass lengths'.
    let lengths = || phase.passes.iter().map(|pass| pass.seconds);
    let spread = lengths().fold(0.0, f64::max) / lengths().fold(f64::INFINITY, f64::min);
    let d = |f: fn(&acd_broker::NetworkMetrics) -> u64| f(&replayed.after) - f(&replayed.before);
    let network_op_mean = {
        let (s, u) = (count("network.subscribe"), count("network.unsubscribe"));
        if s + u == 0 {
            0.0
        } else {
            (mean("network.subscribe") * s as f64 + mean("network.unsubscribe") * u as f64)
                / (s + u) as f64
        }
    };
    let covering_queries_per_op = ratio(d(|m| m.covering_queries), replayed.requests as u64);
    let mb_per_s = |name: &str| match span(name, 0.5) {
        ns_per_byte if ns_per_byte > 0.0 => 1e3 / ns_per_byte,
        _ => 0.0,
    };

    let mut report = Report::new();
    let mut put = |name: &'static str, value: f64, n: usize| emit(&mut report, name, value, n);
    put(
        "client.publish_p50_us",
        us(&publishes, 0.5),
        publishes.len(),
    );
    put(
        "client.publish_p99_us",
        us(&publishes, 0.99),
        publishes.len(),
    );
    put(
        "client.publish_p999_us",
        us(&publishes, 0.999),
        publishes.len(),
    );
    put(
        "client.publish_batch_p50_us",
        us(&bursts, 0.5),
        bursts.len(),
    );
    put(
        "client.subscribe_p50_us",
        us(&subscribes, 0.5),
        subscribes.len(),
    );
    put(
        "client.subscribe_p99_us",
        us(&subscribes, 0.99),
        subscribes.len(),
    );
    put(
        "client.subscribe_p999_us",
        us(&subscribes, 0.999),
        subscribes.len(),
    );
    put(
        "client.unsubscribe_p50_us",
        us(&unsubscribes, 0.5),
        unsubscribes.len(),
    );
    put(
        "client.unsubscribe_p99_us",
        us(&unsubscribes, 0.99),
        unsubscribes.len(),
    );
    put(
        "client.unsubscribe_p999_us",
        us(&unsubscribes, 0.999),
        unsubscribes.len(),
    );
    put("client.ops_per_s", in_seconds.ops_per_s, phase.passes.len());
    put(
        "client.cpu_us_per_op",
        in_seconds.cpu_us_per_op,
        phase.passes.len(),
    );
    put(
        "client.ref_p50_us",
        in_seconds.ref_p50_us,
        phase.passes.len(),
    );
    let in_refs = steady(&phase, &driver);
    put("client.op_p99_ref", in_refs.p99_ref, in_refs.items);
    put("client.round_spread_ratio", spread, phase.passes.len());
    put(
        "client.deliveries_per_event",
        ratio(tally.deliveries, tally.events),
        tally.events as usize,
    );
    put(
        "client.request_bytes_per_op",
        ratio(tally.request_bytes, tally.attempted),
        tally.attempted as usize,
    );
    put(
        "client.response_bytes_per_op",
        ratio(tally.response_bytes, tally.attempted),
        tally.attempted as usize,
    );
    put(
        "client.oracle_checked",
        tally.checked as f64,
        tally.checked as usize,
    );
    put(
        "client.oracle_boundary",
        tally.boundary as f64,
        tally.checked as usize,
    );
    put(
        "client.oracle_mismatches",
        tally.mismatches as f64,
        tally.checked as usize,
    );
    put(
        "client.failed_ops_ratio",
        ratio(tally.failed, tally.attempted),
        tally.attempted as usize,
    );

    put(
        "service.overhead_publish_p50_us",
        overhead(us(&publishes, 0.5), "op.publish"),
        count("op.publish"),
    );
    put(
        "service.overhead_subscribe_p50_us",
        overhead(us(&subscribes, 0.5), "op.subscribe"),
        count("op.subscribe"),
    );
    put("service.shutdown_s", shutdown_s, 1);
    put(
        "service.recovery_s",
        recovery.map_or(0.0, |r| r.recovery_s),
        5,
    );
    put(
        "service.recovered_subs_per_s",
        recovery.map_or(0.0, |r| inputs.installed().count() as f64 / r.recovery_s),
        5,
    );
    put(
        "service.rejected_total",
        counters.connections_rejected as f64,
        1,
    );
    put(
        "service.corrupt_frames_total",
        counters.frames_corrupt as f64,
        1,
    );

    put(
        "wire.encode_request_p50_us",
        span("wire.encode_request", 0.5) / 1e3,
        count("wire.encode_request"),
    );
    put(
        "wire.decode_request_p50_us",
        span("wire.decode_request", 0.5) / 1e3,
        count("wire.decode_request"),
    );
    put(
        "wire.encode_response_p50_us",
        span("wire.encode_response", 0.5) / 1e3,
        count("wire.encode_response"),
    );
    put(
        "wire.decode_response_p50_us",
        span("wire.decode_response", 0.5) / 1e3,
        count("wire.decode_response"),
    );
    put(
        "wire.response_bytes_mean",
        ratio(replayed.responses.1, replayed.responses.0),
        replayed.responses.0 as usize,
    );
    put(
        "wire.crc32_mb_per_s",
        mb_per_s("wire.crc32"),
        count("wire.crc32"),
    );

    put(
        "network.publish_p50_us",
        span("network.publish", 0.5) / 1e3,
        count("network.publish"),
    );
    put(
        "network.publish_p99_us",
        span("network.publish", 0.99) / 1e3,
        count("network.publish"),
    );
    put(
        "network.publish_batch_us_per_event",
        span("network.publish_batch", 0.5) / 1e3,
        count("network.publish_batch"),
    );
    put(
        "network.subscribe_p50_us",
        span("network.subscribe", 0.5) / 1e3,
        count("network.subscribe"),
    );
    put(
        "network.subscribe_p99_us",
        span("network.subscribe", 0.99) / 1e3,
        count("network.subscribe"),
    );
    put(
        "network.unsubscribe_p50_us",
        span("network.unsubscribe", 0.5) / 1e3,
        count("network.unsubscribe"),
    );
    put(
        "network.unsubscribe_p99_us",
        span("network.unsubscribe", 0.99) / 1e3,
        count("network.unsubscribe"),
    );
    put(
        "network.event_messages_per_event",
        ratio(d(|m| m.event_messages), d(|m| m.events_published)),
        d(|m| m.events_published) as usize,
    );
    put(
        "network.subscription_messages_per_subscribe",
        replayed.after.messages_per_subscription(),
        replayed.after.subscriptions_registered as usize,
    );
    put(
        "network.suppression_ratio",
        replayed.after.suppression_ratio(),
        replayed.after.subscriptions_registered as usize,
    );
    put(
        "network.covering_queries_per_op",
        covering_queries_per_op,
        replayed.requests,
    );
    put(
        "network.covering_runs_probed_per_op",
        ratio(d(|m| m.covering_runs_probed), replayed.requests as u64),
        replayed.requests,
    );
    put(
        "network.routing_table_entries",
        replayed.after.routing_table_entries as f64,
        1,
    );

    let shadow = replayed.shadow;
    put(
        "covering.find_covering_p50_us",
        span("covering.find_covering", 0.5) / 1e3,
        count("covering.find_covering"),
    );
    put(
        "covering.find_covering_p99_us",
        span("covering.find_covering", 0.99) / 1e3,
        count("covering.find_covering"),
    );
    put(
        "covering.find_covering_batch_us_per_query",
        span("covering.find_covering_batch", 0.5) / 1e3,
        count("covering.find_covering_batch"),
    );
    put(
        "covering.insert_p50_us",
        span("covering.insert", 0.5) / 1e3,
        count("covering.insert"),
    );
    put(
        "covering.remove_p50_us",
        span("covering.remove", 0.5) / 1e3,
        count("covering.remove"),
    );
    put(
        "covering.probes_per_query",
        ratio(shadow.probes, shadow.queries),
        shadow.queries as usize,
    );
    put(
        "covering.runs_probed_per_query",
        ratio(shadow.runs_probed, shadow.queries),
        shadow.queries as usize,
    );
    put(
        "covering.covered_ratio",
        ratio(shadow.covered, shadow.queries),
        shadow.queries as usize,
    );
    put(
        "covering.build_from_subs_per_s",
        match span("covering.build_from", 0.5) {
            ns_per_sub if ns_per_sub > 0.0 => 1e9 / ns_per_sub,
            _ => 0.0,
        },
        inputs.standing.len(),
    );
    put(
        "covering.approx_find_covering_p50_us",
        span("covering.approx_find_covering", 0.5) / 1e3,
        count("covering.approx_find_covering"),
    );
    put(
        "covering.approx_detection_ratio",
        probed.approx_detection_ratio,
        count("covering.approx_find_covering"),
    );
    put(
        "covering.share_of_network_est",
        if network_op_mean > 0.0 {
            covering_queries_per_op * mean("covering.find_covering") / network_op_mean
        } else {
            0.0
        },
        count("covering.find_covering"),
    );

    put(
        "sfc.key_of_point_p50_ns",
        span("sfc.key_of_point", 0.5),
        count("sfc.key_of_point"),
    );
    put(
        "sfc.bigmin_seek_p50_ns",
        span("sfc.bigmin_seek", 0.5),
        count("sfc.bigmin_seek"),
    );
    put(
        "sfc.array_seek_p50_ns",
        span("sfc.array_seek", 0.5),
        count("sfc.array_seek"),
    );

    put(
        "subscription.build_p50_us",
        span("subscription.build", 0.5) / 1e3,
        count("subscription.build"),
    );
    put(
        "subscription.event_new_p50_us",
        span("subscription.event_new", 0.5) / 1e3,
        count("subscription.event_new"),
    );
    put(
        "subscription.matches_ns",
        span("subscription.matches", 0.5),
        count("subscription.matches"),
    );
    put(
        "subscription.dominance_point_ns",
        span("subscription.dominance_point", 0.5),
        count("subscription.dominance_point"),
    );

    put(
        "storage.journal_append_p50_us",
        span("storage.journal_append", 0.5) / 1e3,
        count("storage.journal_append"),
    );
    put(
        "storage.journal_append_p99_us",
        span("storage.journal_append", 0.99) / 1e3,
        count("storage.journal_append"),
    );
    put(
        "storage.fdatasync_probe_p50_us",
        span("storage.fdatasync_probe", 0.5) / 1e3,
        count("storage.fdatasync_probe"),
    );
    put(
        "storage.journal_bytes_per_op",
        ratio(replayed.journal_bytes, replayed.requests as u64),
        replayed.requests,
    );
    put(
        "storage.journal_replay_records_per_s",
        recovery.map_or(0.0, |r| r.journal_replay_records_per_s),
        1,
    );
    put(
        "storage.snapshot_write_ms",
        span("storage.snapshot_write", 0.5) / 1e6,
        1,
    );
    put(
        "storage.save_segments_ms",
        span("storage.save_segments", 0.5) / 1e6,
        1,
    );
    put(
        "storage.open_segments_ms",
        span("storage.open_segments", 0.5) / 1e6,
        1,
    );
    put(
        "storage.segment_bytes_per_sub",
        probed.segment_bytes_per_sub,
        inputs.standing.len(),
    );
    put(
        "storage.crc32_mb_per_s",
        mb_per_s("storage.crc32"),
        count("storage.crc32"),
    );

    put("workload.generate_s", inputs.generate_s, 1);
    put("trace.spans", tracer.spans.len() as f64, 1);
    put(
        "trace.overhead_ratio",
        replayed.seconds / untraced_replay.seconds,
        1,
    );

    Ok(RunResult {
        report,
        tally,
        sound: recovery.is_none_or(|r| r.exact),
    })
}

/// The spans of the request pipeline, in order — everything a traced op
/// does that the daemon also does (the shadow `covering.*` spans are not).
const PIPELINE: &[&str] = &[
    "wire.encode_request",
    "wire.decode_request",
    "subscription.build",
    "subscription.event_new",
    "network.subscribe",
    "network.publish",
    "storage.journal_append",
    "wire.encode_response",
    "wire.decode_response",
];

/// Renders `value` as indented JSON (the vendored `serde_json` only writes
/// one line), for `--emit-benchmark-json`.
fn pretty(value: &Value, depth: usize) -> String {
    let pad = "  ".repeat(depth + 1);
    let close = "  ".repeat(depth);
    match value {
        Value::Seq(items) if items.iter().all(|i| matches!(i, Value::Str(_))) => {
            serde_json::to_string(value).unwrap_or_default()
        }
        Value::Seq(items) => {
            let body: Vec<String> = items
                .iter()
                .map(|item| format!("{pad}{}", serde_json::to_string(item).unwrap_or_default()))
                .collect();
            format!("[\n{}\n{close}]", body.join(",\n"))
        }
        Value::Map(entries) => {
            let body: Vec<String> = entries
                .iter()
                .map(|(key, item)| format!("{pad}\"{key}\": {}", pretty(item, depth + 1)))
                .collect();
            format!("{{\n{}\n{close}}}", body.join(",\n"))
        }
        scalar => serde_json::to_string(scalar).unwrap_or_default(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn benchmark_json_is_rendered_from_the_declaration_table() {
        let committed = include_str!("../../BENCHMARK.json");
        assert_eq!(
            committed.trim_end(),
            pretty(&decl::benchmark_json(), 0),
            "regenerate it: cargo run --release -- --emit-benchmark-json > ../BENCHMARK.json"
        );
    }

    /// The limits of the driver's contract that a table edit could break.
    #[test]
    fn declaration_stays_within_the_contract() {
        let name_ok = |name: &str| {
            let tail_ok = name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c));
            (1..=64).contains(&name.len())
                && name.starts_with(|c: char| c.is_ascii_alphanumeric())
                && tail_ok
        };
        let unit_ok = |unit: &str| {
            (1..=16).contains(&unit.len())
                && unit
                    .chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
        };
        assert!((2..=8).contains(&WORKLOADS.len()));
        assert!((1..=16).contains(&END_TO_END.len()));
        assert!((1..=128).contains(&PER_LAYER.len()));
        assert!((1..=60).contains(&RUN_SECONDS));
        assert!(decl::COMMAND.len() <= 32 && decl::COMMAND.iter().all(|a| a.len() <= 200));
        assert!(decl::PATHS
            .iter()
            .all(|p| !p.starts_with('/') && !p.contains("..")));
        let mut names = HashSet::new();
        for workload in WORKLOADS {
            assert!(name_ok(workload.name), "{}", workload.name);
            assert!(
                workload.why.len() <= 200 && !workload.why.contains('\n'),
                "{}",
                workload.name
            );
            assert!(
                names.insert(workload.name),
                "{} is used twice",
                workload.name
            );
        }
        for metric in END_TO_END.iter().chain(PER_LAYER) {
            assert!(name_ok(metric.name), "{}", metric.name);
            assert!(unit_ok(metric.unit), "{}", metric.name);
            assert!(
                ["lower", "higher"].contains(&metric.better),
                "{}",
                metric.name
            );
            assert!(names.insert(metric.name), "{} is used twice", metric.name);
        }
        for metric in END_TO_END {
            assert!(
                metric.bound > 0.0 && metric.bound <= 0.25,
                "{}",
                metric.name
            );
        }
        let setup = END_TO_END
            .iter()
            .find(|m| m.name == "setup_s")
            .expect("setup_s is required");
        assert_eq!((setup.unit, setup.better), ("s", "lower"));
        // A driver of twenty-six runs per workload must fit its time limit.
        let runs = 4 + 22 * WORKLOADS.len() as u64;
        assert!(runs * (RUN_SECONDS + 8) + 2 * 300 < 3420);
    }

    fn quick(workload: &Workload, trace: bool, root: &Path) -> RunResult {
        let args = Args {
            workload: Some(workload.name.into()),
            seed: 5,
            seconds: None,
            trace,
            quick: true,
            data_root: root.to_owned(),
            emit: false,
        };
        let scratch = Scratch::create(root).expect("the scratch directory can be made");
        let result = if trace {
            traced(workload, &args, &scratch.0)
        } else {
            untraced(workload, &args, &scratch.0)
        };
        result.unwrap_or_else(|e| panic!("{} --trace {}: {e}", workload.name, u8::from(trace)))
    }

    /// Every workload, untraced and traced at `--quick` scale: the emitted
    /// names are the declared ones, nothing fails or mismatches, and two
    /// same-seed traced runs agree bit for bit on every exact metric.
    #[test]
    fn every_declared_metric_is_emitted_and_exact_ones_repeat() {
        let root = out_dir().join("test");
        for workload in WORKLOADS {
            let end_to_end = quick(workload, false, &root);
            check_names(END_TO_END, &end_to_end.report).unwrap();
            for (name, value) in &end_to_end.report {
                assert!(
                    value.is_finite() && *value > 0.0,
                    "{} {name} = {value}",
                    workload.name
                );
            }
            let first = quick(workload, true, &root);
            let second = quick(workload, true, &root);
            check_names(PER_LAYER, &first.report).unwrap();
            for result in [&end_to_end, &first, &second] {
                assert!(result.sound, "{}", workload.name);
                assert_eq!(
                    (result.tally.failed, result.tally.mismatches),
                    (0, 0),
                    "{}",
                    workload.name
                );
            }
            for ((metric, a), b) in PER_LAYER.iter().zip(&first.report).zip(&second.report) {
                assert!(
                    a.1.is_finite(),
                    "{} {} = {}",
                    workload.name,
                    metric.name,
                    a.1
                );
                if metric.exact {
                    assert_eq!(
                        a.1.to_bits(),
                        b.1.to_bits(),
                        "{} {}",
                        workload.name,
                        metric.name
                    );
                }
            }
        }
        let _ = std::fs::remove_dir(&root);
    }
}
