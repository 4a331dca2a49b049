//! Shared experiment harness for the per-figure binaries.
//!
//! Every binary in `src/bin/` regenerates one table or figure of the
//! paper's evaluation section (the `DESIGN.md` experiment index maps
//! IDs to binaries). This library holds the common setup so that every
//! figure runs the *same* trace, plan, and seeds — mirroring the
//! paper's methodology of applying "the same cluster provisioning
//! result, Wikipedia data and Wikipedia workload to all 4 different
//! scenarios".

// `deny` rather than `forbid`: the allocation-tracking module needs a
// scoped `allow` for its `GlobalAlloc` impl; everything else stays
// unsafe-free.
#![deny(unsafe_code)]
#![warn(missing_docs)]

#[allow(unsafe_code)]
pub mod alloc_track;

use std::io::Write;
use std::path::{Path, PathBuf};

use proteus_core::{ClusterConfig, ClusterReport, ClusterSim, ProvisioningPlan, Scenario};
use proteus_workload::Trace;

/// The shared seed for trace synthesis across all figures.
pub const TRACE_SEED: u64 = 42;
/// The shared seed for simulation randomness across all figures.
pub const SIM_SEED: u64 = 7;
/// The mean request rate (req/s) of the standard evaluation workload.
pub const MEAN_RATE: f64 = 3000.0;
/// Minimum active cache servers the planner may choose.
pub const MIN_SERVERS: usize = 4;

/// The standard evaluation setup: paper-scale configuration, one
/// shared trace, and the load-proportional plan derived from it.
#[derive(Debug, Clone)]
pub struct Evaluation {
    /// Cluster configuration (paper scale, 60:1 time compression).
    pub config: ClusterConfig,
    /// The shared request trace.
    pub trace: Trace,
    /// The shared provisioning plan (Fig. 4's n(t) curve).
    pub plan: ProvisioningPlan,
}

impl Evaluation {
    /// Builds the standard evaluation setup.
    #[must_use]
    pub fn standard() -> Self {
        Self::with_rate(MEAN_RATE)
    }

    /// Builds the setup at a custom mean request rate.
    #[must_use]
    pub fn with_rate(mean_rate: f64) -> Self {
        Self::from_config(ClusterConfig::paper_scale(), mean_rate)
    }

    /// A half-day (24-slot) setup at the standard rate — used by the
    /// ablation sweeps, which run many configurations.
    #[must_use]
    pub fn short() -> Self {
        let mut config = ClusterConfig::paper_scale();
        config.slots = 24;
        Self::from_config(config, MEAN_RATE)
    }

    /// Builds the trace and plan for an explicit configuration.
    fn from_config(config: ClusterConfig, mean_rate: f64) -> Self {
        let trace = Trace::synthesize(&config.trace_config(mean_rate), TRACE_SEED);
        let plan = ProvisioningPlan::load_proportional(
            &trace.requests_per_slot(config.slot, config.slots),
            config.cache_servers,
            MIN_SERVERS,
        );
        Evaluation {
            config,
            trace,
            plan,
        }
    }

    /// Runs one scenario over the shared workload.
    #[must_use]
    pub fn run(&self, scenario: Scenario) -> ClusterReport {
        ClusterSim::new(
            self.config.clone(),
            scenario,
            &self.trace,
            &self.plan,
            SIM_SEED,
        )
        .run()
    }

    /// Runs all four Table II scenarios.
    #[must_use]
    pub fn run_all(&self) -> Vec<(Scenario, ClusterReport)> {
        Scenario::all()
            .into_iter()
            .map(|sc| {
                eprintln!("  running scenario {} ...", sc.name());
                (sc, self.run(sc))
            })
            .collect()
    }

    /// Per-slot request volumes of the shared trace.
    #[must_use]
    pub fn volumes(&self) -> Vec<u64> {
        self.trace
            .requests_per_slot(self.config.slot, self.config.slots)
    }
}

/// Renders a row-per-slot table column for a report series.
#[must_use]
pub fn fmt_opt_ms(value: Option<proteus_sim::SimDuration>) -> String {
    value.map_or_else(
        || "      -".to_string(),
        |d| format!("{:7.1}", d.as_millis_f64()),
    )
}

/// Renders an optional ratio.
#[must_use]
pub fn fmt_opt_ratio(value: Option<f64>) -> String {
    value.map_or_else(|| "     -".to_string(), |r| format!("{r:6.3}"))
}

/// Writes an experiment's data as CSV under `target/experiments/`,
/// returning the file path. Figure binaries call this so the printed
/// tables can also be plotted externally.
///
/// # Errors
///
/// Propagates filesystem errors.
pub fn write_csv<R, F>(name: &str, header: &[&str], rows: R) -> std::io::Result<PathBuf>
where
    R: IntoIterator<Item = Vec<F>>,
    F: std::fmt::Display,
{
    write_csv_in(Path::new("target/experiments"), name, header, rows)
}

fn write_csv_in<R, F>(dir: &Path, name: &str, header: &[&str], rows: R) -> std::io::Result<PathBuf>
where
    R: IntoIterator<Item = Vec<F>>,
    F: std::fmt::Display,
{
    std::fs::create_dir_all(dir)?;
    let path = dir.join(format!("{name}.csv"));
    let mut file = std::io::BufWriter::new(std::fs::File::create(&path)?);
    writeln!(file, "{}", header.join(","))?;
    for row in rows {
        let cells: Vec<String> = row.into_iter().map(|c| c.to_string()).collect();
        writeln!(file, "{}", cells.join(","))?;
    }
    file.flush()?;
    Ok(path)
}

/// A crude ASCII sparkline over a series (log scale for latencies).
#[must_use]
pub fn sparkline(values: &[f64], log: bool) -> String {
    const GLYPHS: [char; 8] = ['.', ':', '-', '=', '+', '*', '#', '@'];
    let transform = |v: f64| if log { (v.max(1e-9)).ln() } else { v };
    let lo = values
        .iter()
        .copied()
        .map(transform)
        .fold(f64::INFINITY, f64::min);
    let hi = values
        .iter()
        .copied()
        .map(transform)
        .fold(f64::NEG_INFINITY, f64::max);
    values
        .iter()
        .map(|&v| {
            let t = transform(v);
            let idx = if hi > lo {
                (((t - lo) / (hi - lo)) * (GLYPHS.len() - 1) as f64).round() as usize
            } else {
                0
            };
            GLYPHS[idx]
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn standard_setup_is_consistent() {
        let eval = Evaluation::with_rate(100.0);
        assert_eq!(eval.plan.slots(), eval.config.slots);
        assert_eq!(eval.volumes().len(), eval.config.slots);
        assert!(!eval.trace.is_empty());
    }

    #[test]
    fn sparkline_has_one_glyph_per_value() {
        let s = sparkline(&[1.0, 10.0, 100.0], true);
        assert_eq!(s.chars().count(), 3);
        assert!(s.starts_with('.'));
        assert!(s.ends_with('@'));
    }

    #[test]
    fn write_csv_roundtrips() {
        let dir = std::env::temp_dir().join(format!("proteus-bench-csv-{}", std::process::id()));
        let path = write_csv_in(
            &dir,
            "unit-test",
            &["a", "b"],
            vec![vec![1.0, 2.0], vec![3.5, 4.25]],
        )
        .unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        assert_eq!(text, "a,b\n1,2\n3.5,4.25\n");
        std::fs::remove_dir_all(dir).unwrap();
    }

    #[test]
    fn formatters_handle_missing_values() {
        assert!(fmt_opt_ms(None).contains('-'));
        assert!(fmt_opt_ratio(None).contains('-'));
        assert_eq!(fmt_opt_ratio(Some(0.5)), " 0.500");
    }
}
