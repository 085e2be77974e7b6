//! The `perfbench` benchmark of streamed, served and offline SeqPoint selection.
//!
//! One invocation runs one workload for a fixed list of jobs derived
//! from `--seed`, checks the outputs, and prints one JSON object as its
//! last stdout line: the end-to-end metrics with `--trace 0`, the
//! per-layer metrics of a traced run with `--trace 1`. See README.md.

mod epoch_ds2;
mod host;
mod jobs;
mod layers;
mod report;
mod serve_gnmt;
mod stats;
mod stream_gnmt;
mod trace;

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

use report::{LayerTally, Metric, Outcome};

const USAGE: &str = "usage: perfbench --workload <stream-gnmt|serve-gnmt|epoch-ds2> \
--seed N --seconds S --trace <0|1> --seqpoint PATH --work-dir DIR";

/// Command-line arguments.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    /// Nominal measuring time; it sizes the job list, which then runs to
    /// the end whatever the clock says.
    pub seconds: u64,
    pub trace: bool,
    /// The `seqpoint` binary serve-gnmt starts as its daemon.
    pub seqpoint: PathBuf,
    /// Where runs keep daemon state, sockets and span dumps.
    pub work_dir: PathBuf,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let value = |flag: &str| -> Result<String, String> {
        let at = argv
            .iter()
            .position(|a| a == flag)
            .ok_or_else(|| format!("missing {flag}"))?;
        argv.get(at + 1)
            .cloned()
            .ok_or_else(|| format!("{flag} needs a value"))
    };
    let number = |flag: &str, text: String| -> Result<u64, String> {
        text.parse()
            .map_err(|_| format!("{flag} must be a whole number, not `{text}`"))
    };
    let args = Args {
        workload: value("--workload")?,
        seed: number("--seed", value("--seed")?)?,
        seconds: number("--seconds", value("--seconds")?)?,
        trace: match value("--trace")?.as_str() {
            "0" => false,
            "1" => true,
            other => return Err(format!("--trace must be 0 or 1, not `{other}`")),
        },
        seqpoint: value("--seqpoint")?.into(),
        work_dir: value("--work-dir")?.into(),
    };
    if argv.len() != 12 {
        return Err("unexpected arguments".to_owned());
    }
    if !(1..=600).contains(&args.seconds) {
        return Err("--seconds must be within 1..=600".to_owned());
    }
    Ok(args)
}

/// What a workload hands back to `main`.
pub struct Run {
    /// Every determinism guard held.
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    /// End-to-end metrics (timed runs).
    pub end_to_end: Vec<Metric>,
    /// Per-layer totals (traced runs).
    pub tally: LayerTally,
    /// CPU time of processes the workload started, read before they
    /// exited.
    pub child_cpu_s: f64,
    /// Spans of the traced pass.
    pub spans: Vec<trace::Span>,
    /// The timed pass, its per-job wall times in list order.
    pub pass: report::TimedPass,
}

/// Milliseconds since `start`.
pub fn ms_since(start: Instant) -> f64 {
    start.elapsed().as_secs_f64() * 1e3
}

/// Run `make` and return its result with the seconds it took.
pub fn time_s<T>(make: impl FnOnce() -> T) -> (T, f64) {
    let start = Instant::now();
    let made = std::hint::black_box(make());
    (made, start.elapsed().as_secs_f64())
}

/// Job count for a run: `jobs_per_s × seconds`, at least `min`. Derived
/// from the arguments only, so equal arguments give equal job lists.
pub fn job_count(seconds: u64, jobs_per_s: f64, min: usize) -> usize {
    ((seconds as f64 * jobs_per_s).round() as usize).max(min)
}

/// `(traced ÷ untraced − 1)` in percent, over job-latency medians.
pub fn overhead_pct(traced_ms: &[f64], untraced_ms: &[f64]) -> f64 {
    (stats::median(traced_ms) / stats::median(untraced_ms) - 1.0) * 100.0
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if let Err(e) = std::fs::create_dir_all(&args.work_dir) {
        eprintln!("perfbench: creating {}: {e}", args.work_dir.display());
        return ExitCode::FAILURE;
    }
    let steal_start = host::steal_s();
    let result = match args.workload.as_str() {
        "stream-gnmt" => stream_gnmt::run(&args),
        "serve-gnmt" => serve_gnmt::run(&args),
        "epoch-ds2" => epoch_ds2::run(&args),
        other => Err(format!("unknown workload `{other}`\n{USAGE}")),
    };
    let mut run = match result {
        Ok(run) => run,
        Err(e) => {
            eprintln!("perfbench: {}: {e}", args.workload);
            return ExitCode::FAILURE;
        }
    };
    run.tally.steal_s = host::steal_s() - steal_start;
    run.tally.cpu_s = host::cpu_s(std::process::id()) + run.child_cpu_s;
    // Host noise goes with every run, traced or not, so a slow run can
    // be told apart from a regression.
    println!(
        "# {} seed {}: host.steal_s {:.2}, host.cpu_s {:.2}, steal share of the timed jobs {:.4}, selection_error_pct {}, {} jobs, {} failed",
        args.workload,
        args.seed,
        run.tally.steal_s,
        run.tally.cpu_s,
        run.pass.steal_share(),
        run.tally.selection_error_pct,
        run.attempted,
        run.failed
    );
    let latencies: String = run.pass.job_ms.iter().map(|ms| format!("{ms}\n")).collect();
    let path = args
        .work_dir
        .join(format!("job-ms-{}-{}.txt", args.workload, args.seed));
    if let Err(e) = std::fs::write(&path, latencies) {
        eprintln!("perfbench: writing {}: {e}", path.display());
        return ExitCode::FAILURE;
    }
    if args.trace {
        let path = args
            .work_dir
            .join(format!("spans-{}-{}.jsonl", args.workload, args.seed));
        match trace::write_jsonl(&run.spans, &path) {
            Ok(()) => println!("# spans written to {}", path.display()),
            Err(e) => {
                eprintln!("perfbench: writing {}: {e}", path.display());
                return ExitCode::FAILURE;
            }
        }
    }
    if !run.correct {
        eprintln!("perfbench: determinism guard failed: the timed pass disagrees with the verification pass");
    }
    let metrics = if args.trace {
        report::per_layer(&run.tally)
    } else {
        run.end_to_end
    };
    if let Some(bad) = metrics.iter().find(|m| !m.value.is_finite()) {
        eprintln!("perfbench: metric {} is not finite", bad.name);
        return ExitCode::FAILURE;
    }
    let outcome = Outcome {
        correct: run.correct,
        attempted: run.attempted,
        failed: run.failed,
        metrics,
    };
    println!("{}", outcome.to_json());
    if outcome.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(text: &str) -> Vec<String> {
        text.split_whitespace().map(str::to_owned).collect()
    }

    #[test]
    fn arguments_are_checked() {
        let ok =
            argv("--workload epoch-ds2 --seed 3 --seconds 10 --trace 1 --seqpoint b --work-dir w");
        let args = parse_args(&ok).unwrap();
        assert_eq!((args.seed, args.seconds, args.trace), (3, 10, true));
        for bad in [
            "--workload epoch-ds2 --seed x --seconds 10 --trace 1 --seqpoint b --work-dir w",
            "--workload epoch-ds2 --seed 3 --seconds 0 --trace 1 --seqpoint b --work-dir w",
            "--workload epoch-ds2 --seed 3 --seconds 10 --trace 2 --seqpoint b --work-dir w",
            "--workload epoch-ds2 --seed 3 --seconds 10 --trace 1 --seqpoint b",
            "--workload epoch-ds2 --seed 3 --seconds 10 --trace 1 --seqpoint b --work-dir w --x 1",
        ] {
            assert!(parse_args(&argv(bad)).is_err(), "{bad}");
        }
    }

    #[test]
    fn job_count_follows_the_arguments_only() {
        assert_eq!(job_count(10, 1.6, 8), 16);
        assert_eq!(job_count(1, 1.6, 8), 8);
        assert_eq!(job_count(10, 12.0, 100), 120);
    }
}
