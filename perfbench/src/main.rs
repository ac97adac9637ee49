//! `perfbench` — runs one benchmark workload and prints its metrics.
//!
//! ```text
//! perfbench --workload NAME --seed N --seconds S --trace 0|1
//! perfbench --workload NAME --seed N --counters
//! perfbench --workload all --seed N --seconds S --trace 0|1
//! ```
//!
//! Prints a human-readable report, then, as the last line of stdout, one
//! JSON object `{"correct", "attempted", "failed", "metrics"}`: the
//! end-to-end metrics with `--trace 0`, the per-layer metrics with
//! `--trace 1`. Exits 0 only when every output checked correct; 1 when a
//! check failed; 2 on a usage or run error (no result line).

use perfbench::stats::result_line;
use perfbench::{Mode, WORKLOADS};
use std::path::PathBuf;
use std::process::{Command, ExitCode};

const USAGE: &str = "usage: perfbench --workload NAME|all --seed N \
                     (--seconds S --trace 0|1 | --counters)";

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    mode: Mode,
    counters: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut mode = None;
    let mut counters = false;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        if flag == "--counters" {
            counters = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad --seed {value}"))?),
            "--seconds" => {
                let s: f64 = value
                    .parse()
                    .map_err(|_| format!("bad --seconds {value}"))?;
                if !(s > 0.0 && s.is_finite()) {
                    return Err(format!("--seconds must be positive, got {value}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                mode = Some(match value.as_str() {
                    "0" => Mode::Untraced,
                    "1" => Mode::Traced,
                    _ => return Err(format!("--trace takes 0 or 1, got {value}")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if workload != "all" && !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload:?}; one of {}",
            WORKLOADS.join(", ")
        ));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: if counters {
            0.0
        } else {
            seconds.ok_or("--seconds is required")?
        },
        mode: if counters {
            Mode::Untraced
        } else {
            mode.ok_or("--trace is required")?
        },
        counters,
    })
}

/// Runs every workload, each in a child process of its own (peak RSS is
/// per process), one after the other.
fn run_all(argv: &[String]) -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut all_ok = true;
    for name in WORKLOADS {
        let mut args: Vec<String> = argv.to_vec();
        let at = args
            .iter()
            .position(|a| a == "--workload")
            .ok_or("--workload is required")?;
        args[at + 1] = name.to_string();
        println!("== {name}");
        let status = Command::new(&exe)
            .args(&args)
            .status()
            .map_err(|e| e.to_string())?;
        all_ok &= status.success();
    }
    Ok(all_ok)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if args.workload == "all" {
        return match run_all(&argv) {
            Ok(true) => ExitCode::SUCCESS,
            Ok(false) => ExitCode::from(1),
            Err(e) => {
                eprintln!("perfbench: {e}");
                ExitCode::from(2)
            }
        };
    }

    let work = PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/.work")).join(format!(
        "{}-{}",
        args.workload,
        std::process::id()
    ));
    if let Err(e) = std::fs::create_dir_all(&work) {
        eprintln!("perfbench: cannot create {}: {e}", work.display());
        return ExitCode::from(2);
    }
    let result = if args.counters {
        perfbench::counters(&args.workload, args.seed, &work).map(|counts| {
            println!(
                "{}",
                perfbench::render_counters(&args.workload, args.seed, &counts)
            );
            None
        })
    } else {
        perfbench::run(&args.workload, args.seed, args.seconds, args.mode, &work).map(Some)
    };
    std::fs::remove_dir_all(&work).ok();

    let out = match result {
        Ok(Some(out)) => out,
        Ok(None) => return ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perfbench: {}: {e}", args.workload);
            return ExitCode::from(2);
        }
    };
    let kind = match args.mode {
        Mode::Untraced => "end-to-end",
        Mode::Traced => "per-layer",
    };
    println!(
        "perfbench {} seed {} ({kind}, {} s)",
        args.workload, args.seed, args.seconds
    );
    for m in out.metrics.iter().chain(&out.report) {
        println!("  {:<26} {:>14.4} {}", m.name, m.value, m.unit);
    }
    for f in &out.failures {
        println!("  FAILED: {f}");
    }
    let failed = out.failures.len() as u64;
    let attempted = out.attempted.max(failed).max(1);
    let correct = failed == 0;
    println!(
        "  failed_frac                {:>14.4}",
        failed as f64 / attempted as f64
    );
    println!("{}", result_line(correct, attempted, failed, &out.metrics));
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
