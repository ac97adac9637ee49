//! Regenerates every simulator figure of `results/` from the shipped
//! `.scn` scenarios (see `tagger_bench::figures` for the table of
//! result file → scenarios → layout).
//!
//! ```text
//! figures DIR
//! ```
//!
//! Writes the 11 files into `DIR` (`results` to refresh the committed
//! copies); every file is byte-stable across runs.

use std::path::Path;
use std::process::ExitCode;
use tagger_bench::figures::{render, FIGURES};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let [dir] = args.as_slice() else {
        eprintln!("usage: figures DIR");
        return ExitCode::from(2);
    };
    for fig in FIGURES {
        let path = Path::new(dir).join(fig.file);
        let text = match render(fig) {
            Ok(text) => text,
            Err(e) => {
                eprintln!("figures: {}: {e}", fig.file);
                return ExitCode::from(1);
            }
        };
        if let Err(e) = std::fs::write(&path, text) {
            eprintln!("figures: cannot write {}: {e}", path.display());
            return ExitCode::from(2);
        }
        println!("wrote {}", path.display());
    }
    ExitCode::SUCCESS
}
