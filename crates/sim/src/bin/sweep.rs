//! `sweep` — parallel regeneration of the paper's evaluation.
//!
//! Two modes:
//!
//! * **figures** (default): regenerate every table and figure (or a
//!   `--figure` subset) on `--jobs` workers. The numeric renditions go to
//!   stdout; wall-clock timings go to stderr (and `--timings CSV`), so
//!   stdout is byte-identical across worker counts:
//!
//!   ```sh
//!   cargo run --release -p nvr_sim --bin sweep -- --jobs 4
//!   cargo run --release -p nvr_sim --bin sweep -- --figure fig5 --figure headline
//!   ```
//!
//! * **grid** (`--grid`): a raw workloads x systems x scales x orders x
//!   widths x seeds cartesian sweep with repeatable axis filters and CSV
//!   output:
//!
//!   ```sh
//!   cargo run --release -p nvr_sim --bin sweep -- --grid --workload DS --system NVR \
//!       --scale tiny --scale default --seed 1 --seed 2 --csv -
//!   ```

use std::io::Write as _;
use std::process::ExitCode;
use std::time::Instant;

use nvr_common::DataWidth;
use nvr_sim::figures::{fig9, FigureId};
use nvr_sim::sweep::{pool, run_sweep, SweepSpec, DEFAULT_SEED};
use nvr_sim::{Lab, SystemKind};
use nvr_workloads::{Scale, TileOrder, WorkloadId};

const USAGE: &str = "\
sweep — regenerate the paper's evaluation in parallel

USAGE (figures mode, default):
  sweep [--jobs N] [--scale SCALE] [--seed S] [--figure NAME]... [--timings PATH]

USAGE (grid mode):
  sweep --grid [--jobs N] [--workload W]... [--system S]... [--scale SCALE]...
        [--order O]... [--width X]... [--seed S]... [--channels N]
        [--csv PATH|-] [--timings PATH]

OPTIONS:
  --jobs N        worker threads (default: available parallelism)
  --figure NAME   fig1b|fig5|fig6|fig6b|fig7|fig7b|fig8|fig9|headline|table1|table2|ablations
                  (repeatable)
  --workload W    DS|GAT|GCN|GSABT|H2O|MK|SCN|ST (repeatable; grid mode)
  --system S      InO|OoO|Stream|IMP|DVR|NVR|NVR+NSB (repeatable; grid mode)
  --scale SCALE   tiny|default|large (repeatable in grid mode)
  --order O       natural|degree|clustered tile order (repeatable; grid mode)
  --width X       int8|fp16|int32 (repeatable; grid mode)
  --seed S        u64 seed (repeatable in grid mode)
  --channels N    DRAM channel count of the grid's memory system (grid mode)
  --csv PATH      grid mode: write the deterministic result CSV (`-` = stdout);
                  figures mode with fig9: write the retention-policy study CSV
  --timings PATH  write wall-clock CSV (figures: per figure; grid: per cell)
  --help          this text

A repeatable flag takes each value once, and any other flag at most once.
Numeric output is identical for every --jobs value; timings go to stderr.";

struct Args {
    jobs: usize,
    grid: bool,
    figures: Vec<FigureId>,
    workloads: Vec<WorkloadId>,
    systems: Vec<SystemKind>,
    scales: Vec<Scale>,
    orders: Vec<TileOrder>,
    widths: Vec<DataWidth>,
    seeds: Vec<u64>,
    channels: Option<usize>,
    csv: Option<String>,
    timings: Option<String>,
}

/// Appends `value` (given as `raw`) to a repeatable flag's list. A value
/// given twice is an error: the sweep would run its cells twice and count
/// both runs in the seed aggregate.
fn push_once<T: PartialEq>(
    list: &mut Vec<T>,
    value: T,
    flag: &str,
    raw: &str,
) -> Result<(), String> {
    if list.contains(&value) {
        return Err(format!("{flag} `{raw}` given twice"));
    }
    list.push(value);
    Ok(())
}

/// Sets a single-valued flag. A second value is an error rather than
/// silently replacing the first.
fn set_once<T>(slot: &mut Option<T>, value: T, flag: &str) -> Result<(), String> {
    let old = slot.replace(value);
    old.map_or(Ok(()), |_| Err(format!("{flag} given twice")))
}

/// Parses the command line, `argv` without the program name.
fn parse_args(argv: impl IntoIterator<Item = String>) -> Result<Args, String> {
    let mut jobs = None;
    let mut args = Args {
        jobs: 0,
        grid: false,
        figures: Vec::new(),
        workloads: Vec::new(),
        systems: Vec::new(),
        scales: Vec::new(),
        orders: Vec::new(),
        widths: Vec::new(),
        seeds: Vec::new(),
        channels: None,
        csv: None,
        timings: None,
    };
    let mut it = argv.into_iter();
    while let Some(arg) = it.next() {
        let mut value = |name: &str| it.next().ok_or_else(|| format!("{name} needs a value"));
        match arg.as_str() {
            "--help" | "-h" => return Err(String::new()),
            "--grid" => args.grid = true,
            "--jobs" => {
                let n = value("--jobs")?
                    .parse()
                    .map_err(|e| format!("--jobs: {e}"))?;
                set_once(&mut jobs, n, "--jobs")?;
            }
            "--figure" => {
                let v = value("--figure")?;
                let id = FigureId::from_name(&v).ok_or_else(|| format!("unknown figure `{v}`"))?;
                push_once(&mut args.figures, id, "--figure", &v)?;
            }
            "--workload" => {
                let v = value("--workload")?;
                let id =
                    WorkloadId::from_short(&v).ok_or_else(|| format!("unknown workload `{v}`"))?;
                push_once(&mut args.workloads, id, "--workload", &v)?;
            }
            "--system" => {
                let v = value("--system")?;
                let kind =
                    SystemKind::from_label(&v).ok_or_else(|| format!("unknown system `{v}`"))?;
                push_once(&mut args.systems, kind, "--system", &v)?;
            }
            "--scale" => {
                let v = value("--scale")?;
                let scale = v.parse().map_err(|e| format!("{e}"))?;
                push_once(&mut args.scales, scale, "--scale", &v)?;
            }
            "--order" => {
                let v = value("--order")?;
                let order = v.parse().map_err(|e| format!("{e}"))?;
                push_once(&mut args.orders, order, "--order", &v)?;
            }
            "--width" => {
                let v = value("--width")?;
                let width = v.parse().map_err(|e| format!("{e}"))?;
                push_once(&mut args.widths, width, "--width", &v)?;
            }
            "--seed" => {
                let v = value("--seed")?;
                let seed = v.parse().map_err(|e| format!("--seed: {e}"))?;
                push_once(&mut args.seeds, seed, "--seed", &v)?;
            }
            "--channels" => {
                let n: usize = value("--channels")?
                    .parse()
                    .map_err(|e| format!("--channels: {e}"))?;
                if n == 0 {
                    return Err("--channels must be at least 1".into());
                }
                set_once(&mut args.channels, n, "--channels")?;
            }
            "--csv" => set_once(&mut args.csv, value("--csv")?, "--csv")?,
            "--timings" => set_once(&mut args.timings, value("--timings")?, "--timings")?,
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    args.jobs = jobs.unwrap_or_else(pool::default_workers);
    if args.jobs == 0 {
        return Err("--jobs must be at least 1".into());
    }
    // Reject flags that the selected mode would silently ignore.
    if args.grid {
        if !args.figures.is_empty() {
            return Err("--figure only applies to figures mode (drop --grid)".into());
        }
    } else {
        if !args.workloads.is_empty()
            || !args.systems.is_empty()
            || !args.widths.is_empty()
            || !args.orders.is_empty()
        {
            return Err(
                "--workload/--system/--width/--order only apply to grid mode (add --grid)".into(),
            );
        }
        if args.csv.is_some()
            && !(args.figures.contains(&FigureId::Fig9) || args.figures.is_empty())
        {
            return Err(
                "--csv in figures mode writes the fig9 policy-study CSV; include --figure fig9"
                    .into(),
            );
        }
        if args.channels.is_some() {
            return Err(
                "--channels only applies to grid mode (the fig7b driver sweeps channels)".into(),
            );
        }
        if args.scales.len() > 1 || args.seeds.len() > 1 {
            return Err(
                "figures mode takes a single --scale and --seed (repeat them in --grid mode)"
                    .into(),
            );
        }
    }
    Ok(args)
}

fn write_file(path: &str, contents: &str) -> Result<(), String> {
    std::fs::write(path, contents).map_err(|e| format!("writing {path}: {e}"))
}

fn run_figures(args: &Args) -> Result<(), String> {
    let figures = if args.figures.is_empty() {
        FigureId::ALL.to_vec()
    } else {
        args.figures.clone()
    };
    let scale = args.scales.first().copied().unwrap_or_default();
    let seed = args.seeds.first().copied().unwrap_or(DEFAULT_SEED);
    let mut timing_csv = String::from("figure,wall_ms\n");
    let mut lab = Lab::new(args.jobs);
    #[expect(
        clippy::disallowed_methods,
        reason = "end-to-end timing goes to stderr and --timings CSV only; stdout stays byte-identical"
    )]
    let t0 = Instant::now();
    for fig in &figures {
        #[expect(
            clippy::disallowed_methods,
            reason = "per-figure timing goes to stderr and --timings CSV only; stdout stays byte-identical"
        )]
        let fig_t0 = Instant::now();
        let rendition = fig.regenerate(&mut lab, scale, seed);
        let wall = fig_t0.elapsed();
        println!("{rendition}");
        eprintln!(
            "[sweep] {:<8} {:>8.1} ms",
            fig.name(),
            wall.as_secs_f64() * 1e3
        );
        timing_csv.push_str(&format!("{},{:.3}\n", fig.name(), wall.as_secs_f64() * 1e3));
    }
    let total = t0.elapsed();
    eprintln!(
        "[sweep] total    {:>8.1} ms ({} figures, {} jobs, scale {scale})",
        total.as_secs_f64() * 1e3,
        figures.len(),
        args.jobs
    );
    timing_csv.push_str(&format!("total,{:.3}\n", total.as_secs_f64() * 1e3));
    if let Some(path) = &args.timings {
        write_file(path, &timing_csv)?;
    }
    if let Some(path) = &args.csv {
        // The fig9 retention-policy study printed above, as a
        // deterministic CSV (the CI artifact); its cells are in the lab.
        let csv = fig9::policy_csv(&fig9::policy_sweep(&mut lab, scale, seed));
        match path.as_str() {
            "-" => print!("{csv}"),
            _ => write_file(path, &csv)?,
        }
    }
    Ok(())
}

fn run_grid(args: &Args) -> Result<(), String> {
    fn pick<T: Clone>(chosen: &[T], default: Vec<T>) -> Vec<T> {
        if chosen.is_empty() {
            default
        } else {
            chosen.to_vec()
        }
    }
    let defaults = SweepSpec::default();
    let mut mem_cfg = defaults.mem_cfg;
    if let Some(channels) = args.channels {
        mem_cfg.dram.channels = channels;
    }
    let spec = SweepSpec {
        workloads: pick(&args.workloads, defaults.workloads),
        systems: pick(&args.systems, defaults.systems),
        scales: pick(&args.scales, defaults.scales),
        orders: pick(&args.orders, defaults.orders),
        widths: pick(&args.widths, defaults.widths),
        seeds: pick(&args.seeds, defaults.seeds),
        mem_cfg,
    };
    let results = run_sweep(&spec, args.jobs);
    match args.csv.as_deref() {
        Some("-") => print!("{}", results.to_csv()),
        Some(path) => {
            write_file(path, &results.to_csv())?;
            println!("{results}");
        }
        None => println!("{results}"),
    }
    eprintln!(
        "[sweep] {} cells in {:.1} ms ({} jobs)",
        results.cells.len(),
        results.wall.as_secs_f64() * 1e3,
        args.jobs
    );
    if let Some(path) = &args.timings {
        write_file(path, &results.timing_csv())?;
    }
    Ok(())
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(msg) => {
            let mut err = std::io::stderr().lock();
            if msg.is_empty() {
                let _ = writeln!(err, "{USAGE}");
                return ExitCode::SUCCESS;
            }
            let _ = writeln!(err, "error: {msg}\n\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let outcome = if args.grid {
        run_grid(&args)
    } else {
        run_figures(&args)
    };
    match outcome {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("error: {msg}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(argv: &[&str]) -> Result<Args, String> {
        parse_args(argv.iter().map(|a| (*a).to_owned()))
    }

    #[test]
    fn repeated_axis_values_are_rejected() {
        for (flag, value, grid) in [
            ("--figure", "fig5", false),
            ("--workload", "GCN", true),
            ("--system", "NVR", true),
            ("--scale", "tiny", true),
            ("--order", "natural", true),
            ("--width", "fp16", true),
            ("--seed", "1", true),
        ] {
            let mut argv = if grid { vec!["--grid"] } else { Vec::new() };
            argv.extend([flag, value, flag, value]);
            let err = parse(&argv).err().unwrap_or_default();
            assert_eq!(err, format!("{flag} `{value}` given twice"), "{argv:?}");
        }
        // Values compare parsed: the same seed spelled two ways repeats.
        let err = parse(&["--grid", "--seed", "1", "--seed", "01"]).err();
        assert_eq!(err.as_deref(), Some("--seed `01` given twice"));
        let args =
            parse(&["--grid", "--seed", "2", "--seed", "1"]).unwrap_or_else(|e| panic!("{e}"));
        assert_eq!(args.seeds, [2, 1]);
    }

    #[test]
    fn repeated_single_valued_flags_are_rejected() {
        for (flag, first, second) in [
            ("--jobs", "1", "2"),
            ("--channels", "2", "4"),
            ("--csv", "-", "out.csv"),
            ("--timings", "a.csv", "a.csv"),
        ] {
            let err = parse(&["--grid", flag, first, flag, second]).err();
            assert_eq!(err, Some(format!("{flag} given twice")), "{flag}");
        }
    }
}
