//! Shared infrastructure for the per-figure/per-table reproduction
//! binaries: one `figN_*`/`table2_*` binary per paper figure or table,
//! plus `ext_*` binaries for experiments beyond the paper.
//!
//! Every binary follows the same conventions:
//!
//! * `--runs N` — number of simulation runs (each binary has a laptop
//!   -friendly default; `--full` switches to the paper's run counts);
//! * `--seed N` — base RNG seed (default 42; results are deterministic
//!   for a given seed, independent of thread count);
//! * `--threads N` — worker threads (default: all cores);
//! * `--csv DIR` — additionally write the printed series as CSV files.
//!
//! Output is printed as aligned text tables whose rows correspond to the
//! series of the paper's figure or the rows of its table.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::path::PathBuf;

/// Why argument parsing stopped without producing parameters.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ArgsError {
    /// The arguments were malformed; the message explains how.
    Usage(String),
    /// The user asked for `--help`/`-h`.
    HelpRequested,
}

impl std::fmt::Display for ArgsError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ArgsError::Usage(msg) => write!(f, "usage error: {msg}"),
            ArgsError::HelpRequested => write!(f, "help requested"),
        }
    }
}

impl std::error::Error for ArgsError {}

/// The option synopsis shared by every reproduction binary.
pub const USAGE: &str = "options: [--runs N] [--seed N] [--threads N] [--csv DIR] [--full]";

/// Common command-line parameters of the reproduction binaries.
#[derive(Debug, Clone)]
pub struct RunParams {
    /// Number of simulation runs.
    pub runs: usize,
    /// Base RNG seed.
    pub seed: u64,
    /// Worker threads (0 = all available).
    pub threads: usize,
    /// Paper-fidelity mode (full run counts; hours of CPU time).
    pub full: bool,
    /// Optional CSV output directory.
    pub csv_dir: Option<PathBuf>,
}

impl RunParams {
    /// Parses an argument list (without the program name), using
    /// `default_runs` when `--runs` is absent and `full_runs` when
    /// `--full` is given. `env_runs` carries the `ELL_REPRO_RUNS`
    /// override (ignored when `--runs` is explicit).
    ///
    /// # Errors
    ///
    /// [`ArgsError::Usage`] on malformed flags and
    /// [`ArgsError::HelpRequested`] on `--help`/`-h` — no panics, so
    /// callers decide how to exit.
    pub fn try_parse(
        args: &[String],
        default_runs: usize,
        full_runs: usize,
        env_runs: Option<&str>,
    ) -> Result<Self, ArgsError> {
        let mut params = RunParams {
            runs: default_runs,
            seed: 42,
            threads: 0,
            full: false,
            csv_dir: None,
        };
        let mut explicit_runs = None;
        let mut i = 0;
        let usage = |msg: String| ArgsError::Usage(msg);
        let parse_int = |value: &str, flag: &str| -> Result<u64, ArgsError> {
            value
                .parse()
                .map_err(|_| usage(format!("{flag} expects an integer, got {value:?}")))
        };
        while i < args.len() {
            let need_value = |i: usize| -> Result<&String, ArgsError> {
                args.get(i + 1)
                    .ok_or_else(|| usage(format!("missing value after {}", args[i])))
            };
            match args[i].as_str() {
                "--runs" => {
                    explicit_runs = Some(parse_int(need_value(i)?, "--runs")? as usize);
                    i += 2;
                }
                "--seed" => {
                    params.seed = parse_int(need_value(i)?, "--seed")?;
                    i += 2;
                }
                "--threads" => {
                    params.threads = parse_int(need_value(i)?, "--threads")? as usize;
                    i += 2;
                }
                "--csv" => {
                    params.csv_dir = Some(PathBuf::from(need_value(i)?));
                    i += 2;
                }
                "--full" => {
                    params.full = true;
                    i += 1;
                }
                "--help" | "-h" => return Err(ArgsError::HelpRequested),
                other => return Err(usage(format!("unknown argument {other}; try --help"))),
            }
        }
        params.runs = explicit_runs.unwrap_or(if params.full { full_runs } else { default_runs });
        if let (Some(env), None) = (env_runs, explicit_runs) {
            params.runs = parse_int(env, "ELL_REPRO_RUNS")? as usize;
        }
        Ok(params)
    }

    /// Parses `std::env::args`, exiting the process cleanly (usage
    /// message on stderr, exit code 2) on malformed arguments and with
    /// code 0 on `--help` — the front door of every repro binary.
    #[must_use]
    pub fn parse(default_runs: usize, full_runs: usize) -> Self {
        let args: Vec<String> = std::env::args().skip(1).collect();
        let env_runs = std::env::var("ELL_REPRO_RUNS").ok();
        match Self::try_parse(&args, default_runs, full_runs, env_runs.as_deref()) {
            Ok(params) => params,
            Err(ArgsError::HelpRequested) => {
                eprintln!("{USAGE}");
                std::process::exit(0);
            }
            Err(ArgsError::Usage(msg)) => {
                eprintln!("{msg}");
                eprintln!("{USAGE}");
                std::process::exit(2);
            }
        }
    }
}

/// A simple aligned text table that can also be dumped as CSV.
#[derive(Debug, Clone, Default)]
pub struct Table {
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with the given column headers.
    #[must_use]
    pub fn new(headers: &[&str]) -> Self {
        Table {
            headers: headers.iter().map(|s| (*s).to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row (must match the header count).
    pub fn row(&mut self, cells: Vec<String>) {
        assert_eq!(cells.len(), self.headers.len(), "column count mismatch");
        self.rows.push(cells);
    }

    /// Prints the table with aligned columns to stdout.
    pub fn print(&self) {
        let mut widths: Vec<usize> = self.headers.iter().map(String::len).collect();
        for row in &self.rows {
            for (w, cell) in widths.iter_mut().zip(row) {
                *w = (*w).max(cell.len());
            }
        }
        let print_row = |cells: &[String]| {
            let line: Vec<String> = cells
                .iter()
                .zip(&widths)
                .map(|(c, w)| format!("{c:>w$}", w = w))
                .collect();
            println!("{}", line.join("  "));
        };
        print_row(&self.headers);
        let total: usize = widths.iter().sum::<usize>() + 2 * (widths.len() - 1);
        println!("{}", "-".repeat(total));
        for row in &self.rows {
            print_row(row);
        }
    }

    /// Writes the table as CSV to `dir/name.csv` (creating `dir`).
    ///
    /// # Errors
    ///
    /// Returns any I/O error from creating the directory or writing.
    pub fn write_csv(&self, dir: &std::path::Path, name: &str) -> std::io::Result<()> {
        std::fs::create_dir_all(dir)?;
        let mut out = String::new();
        out.push_str(&self.headers.join(","));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&row.join(","));
            out.push('\n');
        }
        std::fs::write(dir.join(format!("{name}.csv")), out)
    }

    /// Prints the table and, when `csv_dir` is set, also writes the CSV.
    pub fn emit(&self, params: &RunParams, name: &str) {
        self.print();
        if let Some(dir) = &params.csv_dir {
            self.write_csv(dir, name)
                .unwrap_or_else(|e| eprintln!("warning: CSV write failed: {e}"));
        }
    }
}

/// Formats a float with engineering-friendly precision.
#[must_use]
pub fn fmt_f(v: f64, digits: usize) -> String {
    if v.is_nan() {
        "n/a".to_string()
    } else if v == f64::INFINITY {
        "inf".to_string()
    } else {
        format!("{v:.digits$}")
    }
}

/// Formats a number in scientific notation (for distinct-count columns
/// spanning 10^0 … 10^21).
#[must_use]
pub fn fmt_sci(v: f64) -> String {
    if v == 0.0 {
        "0".to_string()
    } else if v.abs() < 1e6 && v.fract() == 0.0 {
        format!("{v}")
    } else {
        format!("{v:.2e}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn strs(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| (*s).to_string()).collect()
    }

    #[test]
    fn try_parse_accepts_well_formed_arguments() {
        let p = RunParams::try_parse(
            &strs(&[
                "--runs",
                "7",
                "--seed",
                "9",
                "--threads",
                "2",
                "--csv",
                "/tmp/x",
            ]),
            30,
            1000,
            None,
        )
        .unwrap();
        assert_eq!((p.runs, p.seed, p.threads, p.full), (7, 9, 2, false));
        assert_eq!(p.csv_dir.as_deref(), Some(std::path::Path::new("/tmp/x")));
        // --full switches the default run count; explicit --runs wins.
        let p = RunParams::try_parse(&strs(&["--full"]), 30, 1000, None).unwrap();
        assert!(p.full);
        assert_eq!(p.runs, 1000);
        let p = RunParams::try_parse(&strs(&["--full", "--runs", "5"]), 30, 1000, None).unwrap();
        assert_eq!(p.runs, 5);
        // The env override applies only without an explicit --runs.
        let p = RunParams::try_parse(&[], 30, 1000, Some("64")).unwrap();
        assert_eq!(p.runs, 64);
        let p = RunParams::try_parse(&strs(&["--runs", "5"]), 30, 1000, Some("64")).unwrap();
        assert_eq!(p.runs, 5);
    }

    #[test]
    fn try_parse_returns_errors_instead_of_panicking() {
        for bad in [
            vec!["--runs"],                // missing value
            vec!["--runs", "many"],        // non-integer
            vec!["--seed", "-3"],          // negative
            vec!["--frobnicate"],          // unknown flag
            vec!["--threads", "2", "--x"], // unknown after valid
        ] {
            let err = RunParams::try_parse(&strs(&bad), 30, 1000, None).unwrap_err();
            assert!(
                matches!(err, ArgsError::Usage(_)),
                "{bad:?} should be a usage error, got {err:?}"
            );
            assert!(!err.to_string().is_empty());
        }
        // Bad env override is a usage error too.
        let err = RunParams::try_parse(&[], 30, 1000, Some("lots")).unwrap_err();
        assert!(matches!(err, ArgsError::Usage(_)));
        // --help is reported distinctly so the caller can exit 0.
        let err = RunParams::try_parse(&strs(&["--help"]), 30, 1000, None).unwrap_err();
        assert_eq!(err, ArgsError::HelpRequested);
        let err = RunParams::try_parse(&strs(&["-h"]), 30, 1000, None).unwrap_err();
        assert_eq!(err, ArgsError::HelpRequested);
    }

    #[test]
    fn table_formatting_roundtrip() {
        let mut t = Table::new(&["n", "rmse"]);
        t.row(vec!["100".into(), "0.0226".into()]);
        t.row(vec!["1000000".into(), "0.0231".into()]);
        let dir = std::env::temp_dir().join("ell_repro_test_csv");
        t.write_csv(&dir, "unit").unwrap();
        let content = std::fs::read_to_string(dir.join("unit.csv")).unwrap();
        assert_eq!(content, "n,rmse\n100,0.0226\n1000000,0.0231\n");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    #[should_panic(expected = "column count mismatch")]
    fn row_width_checked() {
        let mut t = Table::new(&["a", "b"]);
        t.row(vec!["1".into()]);
    }

    #[test]
    fn float_formatting() {
        assert_eq!(fmt_f(0.12345, 3), "0.123");
        assert_eq!(fmt_f(f64::NAN, 3), "n/a");
        assert_eq!(fmt_f(f64::INFINITY, 3), "inf");
        assert_eq!(fmt_sci(1e21), "1.00e21");
        assert_eq!(fmt_sci(100.0), "100");
    }
}
