//! Figure 3-1: percentage of direct-mapped cache misses due to conflicts.

use jouppi_cache::MissBreakdown;
use jouppi_report::{percent, Table};
use jouppi_workloads::Benchmark;

use crate::common::{average, baseline_l1, classify_side, record_traces, ExperimentConfig, Side};
use crate::sweep;

/// Per-benchmark conflict-miss fractions for 4KB I and D caches.
#[derive(Clone, Debug, PartialEq)]
pub struct Fig31 {
    /// `(benchmark, instruction breakdown, data breakdown)`.
    pub rows: Vec<(Benchmark, MissBreakdown, MissBreakdown)>,
}

/// Classifies every benchmark's baseline misses.
///
/// The 12 (benchmark × side) cells fan over the sweep engine (small
/// traces run sequentially — see [`sweep::map_jobs_sized`]); rows are
/// assembled in benchmark order regardless of completion order.
pub fn run(cfg: &ExperimentConfig) -> Fig31 {
    let geom = baseline_l1();
    let traces = record_traces(cfg);
    let jobs = traces.len() * 2;
    let total: u64 = traces.iter().map(|(_, t)| t.len() as u64).sum();
    let cells = sweep::map_jobs_sized(jobs, total / jobs as u64, |job| {
        let (_, trace) = &traces[job / 2];
        let side = Side::BOTH[job % 2];
        let (_, breakdown) = classify_side(trace, side, geom);
        breakdown
    });
    let rows = traces
        .iter()
        .enumerate()
        .map(|(i, (b, _))| (*b, cells[2 * i], cells[2 * i + 1]))
        .collect();
    Fig31 { rows }
}

impl Fig31 {
    /// Average fraction of instruction misses due to conflicts (the paper
    /// reports 29%).
    pub fn avg_instr_conflict_fraction(&self) -> f64 {
        average(
            &self
                .rows
                .iter()
                .map(|(_, i, _)| i.conflict_fraction())
                .collect::<Vec<_>>(),
        )
    }

    /// Average fraction of data misses due to conflicts (the paper
    /// reports 39%).
    pub fn avg_data_conflict_fraction(&self) -> f64 {
        average(
            &self
                .rows
                .iter()
                .map(|(_, _, d)| d.conflict_fraction())
                .collect::<Vec<_>>(),
        )
    }

    /// The benchmark with the highest data conflict fraction (the paper:
    /// `met`, "by far the highest").
    pub fn highest_data_conflict(&self) -> Benchmark {
        self.rows
            .iter()
            .max_by(|a, b| a.2.conflict_fraction().total_cmp(&b.2.conflict_fraction()))
            .expect("six benchmarks")
            .0
    }

    /// Renders the per-benchmark conflict percentages.
    pub fn render(&self) -> String {
        let mut t = Table::new(["program", "I-conflict %", "D-conflict %"]);
        for (b, i, d) in &self.rows {
            t.row([
                b.name().to_owned(),
                percent(i.conflict_fraction()),
                percent(d.conflict_fraction()),
            ]);
        }
        t.row([
            "average".to_owned(),
            percent(self.avg_instr_conflict_fraction()),
            percent(self.avg_data_conflict_fraction()),
        ]);
        format!(
            "Figure 3-1: conflict misses, 4KB I and D caches, 16B lines (paper avg: 29% I, 39% D)\n{t}"
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conflict_fractions_match_paper_shape() {
        let cfg = ExperimentConfig::with_scale(80_000);
        let f = run(&cfg);
        // Paper: on average 39% of data misses and 29% of instruction
        // misses are conflicts; allow generous bands.
        let d = f.avg_data_conflict_fraction();
        let i = f.avg_instr_conflict_fraction();
        assert!((0.2..0.65).contains(&d), "data conflict avg {d}");
        assert!((0.1..0.5).contains(&i), "instr conflict avg {i}");
        // met has by far the highest data conflict ratio.
        assert_eq!(f.highest_data_conflict(), Benchmark::Met);
        assert!(f.render().contains("average"));
    }

    #[test]
    fn breakdowns_partition() {
        let cfg = ExperimentConfig::with_scale(30_000);
        let f = run(&cfg);
        for (b, i, d) in &f.rows {
            assert!(i.total() > 0 || d.total() > 0, "{b} had no misses at all");
            assert_eq!(
                i.total(),
                i.compulsory + i.capacity + i.conflict,
                "partition broken"
            );
            let _ = d;
        }
    }
}
