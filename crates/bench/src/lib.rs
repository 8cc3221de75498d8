//! The benchmark front end: every table, figure and ablation of the paper
//! behind one `bench` binary.
//!
//! [`experiments::REGISTRY`] lists the experiments (see DESIGN.md §8 for
//! the index); `bench <name> [flags]` runs one.  Each entry declares the
//! [`Flag`]s it honours with their defaults, so [`Options::parse`]
//! rejects any other flag instead of silently ignoring or replacing it.
//! This library also holds the `bench` subcommands' support modules
//! (`diff`, `report`, `watch`) and the shared trace builder.

#![warn(missing_docs)]

pub mod diff;
pub mod experiments;
pub mod pacing;
pub mod report;
pub mod watch;

use ascoma::parallel::{effective_jobs, run_indexed};
use ascoma::SimConfig;
use ascoma_workloads::trace::Trace;
use ascoma_workloads::{App, SizeClass};
use std::fmt::Write as _;

/// A command-line flag an experiment honours, with its default.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Flag {
    /// `--app a,b`: the applications to run.
    Apps(&'static [App]),
    /// `--pressure p,q`: the memory pressures to run.
    Pressures(&'static [f64]),
    /// `--size tiny|default|paper`: the problem-size class.
    Size(SizeClass),
    /// `--jobs N`: worker threads (default `ASCOMA_JOBS`, else the
    /// machine's available parallelism).
    Jobs,
    /// `--csv`: emit CSV instead of text tables.
    Csv,
    /// `--chart`: emit ASCII charts instead of text tables.
    Chart,
}

impl Flag {
    /// The spellings this flag accepts, canonical first.
    fn names(self) -> &'static [&'static str] {
        match self {
            Flag::Apps(_) => &["--app", "--apps"],
            Flag::Pressures(_) => &["--pressure", "--pressures"],
            Flag::Size(_) => &["--size"],
            Flag::Jobs => &["--jobs", "-j"],
            Flag::Csv => &["--csv"],
            Flag::Chart => &["--chart"],
        }
    }

    /// One usage line: the flag, its argument and its default.
    pub fn usage(self) -> String {
        let list = |v: Vec<String>| v.join(",");
        match self {
            Flag::Apps(d) => format!(
                "--app a,b,..        applications (default {})",
                list(d.iter().map(|a| a.name().to_string()).collect())
            ),
            Flag::Pressures(d) => format!(
                "--pressure p,q,..   memory pressures in [0.001,1] (default {})",
                list(d.iter().map(|p| p.to_string()).collect())
            ),
            Flag::Size(d) => format!("--size tiny|default|paper (default {})", d.name()),
            Flag::Jobs => {
                "--jobs N            worker threads (default ASCOMA_JOBS, else host cores)"
                    .to_string()
            }
            Flag::Csv => "--csv               emit CSV".to_string(),
            Flag::Chart => "--chart             emit ASCII charts".to_string(),
        }
    }
}

/// The options of one experiment run, parsed against the [`Flag`]s the
/// experiment honours.
#[derive(Debug, Clone, PartialEq)]
pub struct Options {
    /// Applications to run.
    pub apps: Vec<App>,
    /// Memory pressures.
    pub pressures: Vec<f64>,
    /// Problem-size class.
    pub size: SizeClass,
    /// Emit CSV instead of text tables.
    pub csv: bool,
    /// Emit ASCII charts instead of text tables.
    pub chart: bool,
    /// Worker threads (`--jobs N`); `None` defers to `ASCOMA_JOBS` or
    /// the machine's available parallelism.
    pub jobs: Option<usize>,
}

impl Options {
    /// The options before any argument: each flag's declared default;
    /// all six apps, the paper pressures and the Default size where the
    /// experiment declares none.
    pub fn defaults(flags: &[Flag]) -> Options {
        let mut o = Options {
            apps: App::ALL.to_vec(),
            pressures: ascoma::experiments::PAPER_PRESSURES.to_vec(),
            size: SizeClass::Default,
            csv: false,
            chart: false,
            jobs: None,
        };
        for f in flags {
            match *f {
                Flag::Apps(d) => o.apps = d.to_vec(),
                Flag::Pressures(d) => o.pressures = d.to_vec(),
                Flag::Size(d) => o.size = d,
                Flag::Jobs | Flag::Csv | Flag::Chart => {}
            }
        }
        o
    }

    /// The effective worker count: `--jobs` > `ASCOMA_JOBS` >
    /// available parallelism.
    pub fn jobs(&self) -> usize {
        effective_jobs(self.jobs)
    }

    /// Parse `args` against `flags`, starting from their defaults.  An
    /// explicit value always wins; a flag not in `flags` is an error.
    pub fn parse(
        flags: &[Flag],
        args: impl IntoIterator<Item = String>,
    ) -> Result<Options, String> {
        let mut o = Options::defaults(flags);
        let mut args = args.into_iter();
        while let Some(a) = args.next() {
            let Some(&flag) = flags.iter().find(|f| f.names().contains(&a.as_str())) else {
                let takes: Vec<&str> = flags.iter().map(|f| f.names()[0]).collect();
                return Err(if takes.is_empty() {
                    format!("unknown option '{a}' (this experiment takes no options)")
                } else {
                    format!("unknown option '{a}' (takes {})", takes.join(" "))
                });
            };
            let mut arg = || args.next().ok_or_else(|| format!("{a} needs a value"));
            match flag {
                Flag::Apps(_) => {
                    o.apps = split(&arg()?, App::parse, "app")?;
                }
                Flag::Pressures(_) => o.pressures = split(&arg()?, pressure, "pressure")?,
                Flag::Size(_) => {
                    let v = arg()?;
                    o.size = SizeClass::parse(&v).ok_or_else(|| format!("unknown size '{v}'"))?;
                }
                Flag::Jobs => {
                    let v = arg()?;
                    o.jobs = Some(jobs(&v).ok_or_else(|| format!("bad job count '{v}'"))?);
                }
                Flag::Csv => o.csv = true,
                Flag::Chart => o.chart = true,
            }
        }
        Ok(o)
    }
}

/// Print `error: {msg}` and exit 2: the usage-error exit of every
/// command line in this crate.
pub fn die(msg: &str) -> ! {
    eprintln!("error: {msg}");
    std::process::exit(2);
}

/// The value after `flag` in `args`, converted by `parse`; a missing or
/// unparsable value [`die`]s naming the flag.
pub fn value<T>(
    args: &mut impl Iterator<Item = String>,
    flag: &str,
    parse: impl FnOnce(&str) -> Option<T>,
) -> T {
    let v = args
        .next()
        .unwrap_or_else(|| die(&format!("{flag} needs a value")));
    parse(&v).unwrap_or_else(|| die(&format!("bad {flag} '{v}'")))
}

/// `s` as a number, for [`value`].
pub fn num<T: std::str::FromStr>(s: &str) -> Option<T> {
    s.trim().parse().ok()
}

/// `s` itself, for [`value`].
pub fn text(s: &str) -> Option<String> {
    Some(s.to_string())
}

/// `s` as a memory pressure in [[`SimConfig::MIN_PRESSURE`], 1].
pub fn pressure(s: &str) -> Option<f64> {
    num(s).filter(|p: &f64| (SimConfig::MIN_PRESSURE..=1.0).contains(p))
}

/// `s` as a worker count (at least 1).
pub fn jobs(s: &str) -> Option<usize> {
    num(s).filter(|n| *n >= 1)
}

/// `name`'s usage text: one line per honoured flag.
pub fn usage(name: &str, flags: &[Flag]) -> String {
    let opts = if flags.is_empty() { "" } else { " [options]" };
    let mut s = format!("usage: {name}{opts}\n");
    for f in flags {
        let _ = writeln!(s, "  {}", f.usage());
    }
    s
}

/// Parse a comma-separated list, naming the first bad item.
fn split<T>(v: &str, item: impl Fn(&str) -> Option<T>, what: &str) -> Result<Vec<T>, String> {
    v.split(',')
        .map(|s| item(s.trim()).ok_or_else(|| format!("bad {what} '{s}'")))
        .collect()
}

/// Build each app's trace exactly once, across up to `jobs` workers.
pub fn build_traces(apps: &[App], size: SizeClass, base: &SimConfig, jobs: usize) -> Vec<Trace> {
    let page_bytes = base.geometry.page_bytes();
    run_indexed(apps.len(), jobs, |i| apps[i].build(size, page_bytes))
}

#[cfg(test)]
mod tests {
    use super::*;
    use experiments::SWEEP;

    fn parse(flags: &[Flag], s: &str) -> Result<Options, String> {
        Options::parse(flags, s.split_whitespace().map(String::from))
    }

    #[test]
    fn defaults_cover_all_apps_and_paper_pressures() {
        let o = Options::defaults(&[]);
        assert_eq!(o.apps.len(), 6);
        assert_eq!(o.pressures.len(), 5);
        assert_eq!(o.size, SizeClass::Default);
    }

    #[test]
    fn parse_apps_and_pressures() {
        let flags = [SWEEP, &[Flag::Csv]].concat();
        let o = parse(
            &flags,
            "--app em3d,radix --pressure 0.1,0.9 --size tiny --csv",
        )
        .unwrap();
        assert_eq!(o.apps, vec![App::Em3d, App::Radix]);
        assert_eq!(o.pressures, vec![0.1, 0.9]);
        assert_eq!(o.size, SizeClass::Tiny);
        assert!(o.csv);
        assert_eq!(o.jobs, None);
    }

    #[test]
    fn parse_jobs_flag() {
        let o = parse(SWEEP, "--jobs 3").unwrap();
        assert_eq!(o.jobs, Some(3));
        assert_eq!(o.jobs(), 3);
        assert!(parse(SWEEP, "--jobs 0").is_err());
    }

    #[test]
    fn malformed_values_are_errors() {
        assert!(parse(SWEEP, "--app nope").unwrap_err().contains("'nope'"));
        assert!(parse(SWEEP, "--pressure 1.5").is_err());
        assert!(parse(SWEEP, "--size huge").is_err());
        assert!(parse(SWEEP, "--size")
            .unwrap_err()
            .contains("needs a value"));
    }

    #[test]
    fn undeclared_flags_are_rejected() {
        let e = parse(SWEEP, "--csv").unwrap_err();
        assert!(e.contains("unknown option '--csv'"), "{e}");
        let e = parse(&[], "--app em3d").unwrap_err();
        assert!(e.contains("takes no options"), "{e}");
    }

    #[test]
    fn usage_lists_each_flag_with_its_default() {
        let u = usage(
            "demo",
            &[Flag::Apps(&[App::Em3d]), Flag::Pressures(&[0.3, 0.9])],
        );
        assert!(u.contains("(default em3d)"), "{u}");
        assert!(u.contains("(default 0.3,0.9)"), "{u}");
        assert_eq!(usage("bare", &[]), "usage: bare\n");
    }

    #[test]
    fn parallel_sweep_produces_one_figure_per_app() {
        let o = Options {
            apps: vec![App::Ocean, App::Lu],
            pressures: vec![0.5],
            size: SizeClass::Tiny,
            jobs: Some(2),
            ..Options::defaults(&[])
        };
        let figs = experiments::figure_data(&o);
        assert_eq!(figs.len(), 2);
        assert_eq!(figs[0].app, "ocean");
        assert_eq!(figs[1].app, "lu");
    }

    #[test]
    fn cell_parallel_figures_match_serial_per_app() {
        let o = Options {
            apps: vec![App::Em3d, App::Fft],
            pressures: vec![0.1, 0.9],
            size: SizeClass::Tiny,
            jobs: Some(4),
            ..Options::defaults(&[])
        };
        for (app, fig) in o.apps.iter().zip(experiments::figure_data(&o)) {
            let one = Options {
                apps: vec![*app],
                jobs: Some(1),
                ..o.clone()
            };
            let serial = &experiments::figure_data(&one)[0];
            assert_eq!(fig.app, serial.app);
            assert_eq!(fig.bars.len(), serial.bars.len());
            for (a, b) in fig.bars.iter().zip(&serial.bars) {
                assert_eq!((&a.run, a.relative_time), (&b.run, b.relative_time));
            }
        }
    }
}
