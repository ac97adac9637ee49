//! # tagger-bench — the experiment harness
//!
//! Shared fixtures and runners behind the binaries that regenerate every
//! table and figure of the paper (see `DESIGN.md` for the experiment
//! index and `EXPERIMENTS.md` for recorded results):
//!
//! | paper artifact | binary |
//! |---|---|
//! | Table 1 (reroute probability) | `table1_reroute` |
//! | Tables 3/4 + Fig. 5 (walk-through rules) | `table34_rules` |
//! | Table 5 (Jellyfish scalability) | `table5_jellyfish` |
//! | §4.4 optimality | `clos_optimality` |
//! | §5.3 BCube tag count | `bcube_tags` |
//! | §7 rule compression | `rule_compression` |
//! | §6 multi-class sharing | `multiclass_tags` |
//! | Figs. 8, 10, 11, 12, §8 performance penalty, and the simulator extensions (BCube ring, DCQCN, recovery, transient failure, queue dynamics, failure sweep) | `figures DIR`, from `examples/scenarios/*.scn` (see [`figures`]) |
#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(clippy::unwrap_used)]

pub mod fig5;
pub mod figures;
pub mod table5;

/// A TSV table with an echoed title comment, the common output format
/// of the experiment binaries.
pub fn table(title: &str, header: &[&str], rows: &[Vec<String>]) -> String {
    let mut out = format!("# {title}\n{}\n", header.join("\t"));
    for row in rows {
        out.push_str(&row.join("\t"));
        out.push('\n');
    }
    out.push('\n');
    out
}

/// Prints a [`table`].
pub fn print_table(title: &str, header: &[&str], rows: &[Vec<String>]) {
    print!("{}", table(title, header, rows));
}
