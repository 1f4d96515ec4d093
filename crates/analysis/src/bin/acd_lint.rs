//! `acd-lint` — the workspace invariant checker.
//!
//! ```text
//! acd-lint --workspace [--root DIR] [--json] [--strict-indexing]
//! acd-lint [--json] [--strict-indexing] PATH...
//! ```
//!
//! Exit codes: 0 clean, 1 violations found, 2 usage or I/O error.

use std::env;
use std::path::PathBuf;
use std::process::ExitCode;

use acd_analysis::{lint_paths, lint_workspace, render_json, Config, Report};

const USAGE: &str = "\
acd-lint: zero-dependency invariant checker (hot-path-alloc, panic-hygiene,
vendor-discipline)

USAGE:
    acd-lint --workspace [OPTIONS]     lint the whole workspace
    acd-lint [OPTIONS] PATH...         lint specific files/directories

OPTIONS:
    --root DIR          workspace root (default: current directory)
    --json              emit diagnostics as a JSON array
    --strict-indexing   also flag slice/array indexing in library code
    -h, --help          show this help
";

struct Options {
    workspace: bool,
    json: bool,
    strict_indexing: bool,
    root: PathBuf,
    paths: Vec<PathBuf>,
}

fn parse_args() -> Result<Options, String> {
    let mut opts = Options {
        workspace: false,
        json: false,
        strict_indexing: false,
        root: PathBuf::from("."),
        paths: Vec::new(),
    };
    let mut args = env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--workspace" => opts.workspace = true,
            "--json" => opts.json = true,
            "--strict-indexing" => opts.strict_indexing = true,
            "--root" => {
                let dir = args.next().ok_or("--root requires a directory")?;
                opts.root = PathBuf::from(dir);
            }
            "-h" | "--help" => return Err(String::new()),
            other if other.starts_with('-') => {
                return Err(format!("unknown option `{other}`"));
            }
            path => opts.paths.push(PathBuf::from(path)),
        }
    }
    if !opts.workspace && opts.paths.is_empty() {
        return Err("nothing to lint: pass --workspace or explicit paths".to_string());
    }
    Ok(opts)
}

fn main() -> ExitCode {
    let opts = match parse_args() {
        Ok(opts) => opts,
        Err(msg) => {
            if msg.is_empty() {
                print!("{USAGE}");
                return ExitCode::SUCCESS;
            }
            eprintln!("acd-lint: {msg}");
            eprint!("{USAGE}");
            return ExitCode::from(2);
        }
    };

    let config = Config {
        root: opts.root.clone(),
        strict_indexing: opts.strict_indexing,
    };
    let result = if opts.workspace {
        lint_workspace(&config)
    } else {
        lint_paths(&config, &opts.paths)
    };
    let report: Report = match result {
        Ok(report) => report,
        Err(err) => {
            eprintln!("acd-lint: i/o error: {err}");
            return ExitCode::from(2);
        }
    };

    if opts.json {
        print!("{}", render_json(&report.diagnostics));
    } else {
        for d in &report.diagnostics {
            print!("{}", d.render());
        }
        eprintln!(
            "acd-lint: {} violation(s), {} suppressed — {} source file(s), {} manifest(s) checked",
            report.diagnostics.len(),
            report.suppressed,
            report.sources,
            report.manifests,
        );
    }
    if report.is_clean() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
