//! Correctness checks. Each compares a result against a count taken
//! independently of the simulator (the generated workload, the disk
//! stations) or against a property the method must have. None compares
//! against a stored copy of earlier output.

use std::collections::HashMap;

use ioworkload::{Op, Workload};
use lap_core::SimReport;

/// A cell's metrics registry as `name → value`, the shape both
/// `SimReport::obs` and the `experiments --obs` CSVs export.
pub type Metrics = HashMap<String, f64>;

/// Operations attempted and the failures among them. An operation is
/// one simulation cell or one check.
#[derive(Debug, Default)]
pub struct Tally {
    pub attempted: u64,
    pub failures: Vec<String>,
}

impl Tally {
    /// Count one operation; record `what` when it failed.
    pub fn op(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failures.push(what());
        }
    }

    pub fn failed(&self) -> u64 {
        self.failures.len() as u64
    }
}

/// Read and write requests counted straight from a generated workload.
#[derive(Clone, Copy, Debug)]
pub struct OpCounts {
    pub reads: u64,
    pub writes: u64,
}

impl OpCounts {
    pub fn of(wl: &Workload) -> Self {
        let mut c = OpCounts {
            reads: 0,
            writes: 0,
        };
        for op in wl.processes.iter().flat_map(|p| &p.ops) {
            match op {
                Op::Read { .. } => c.reads += 1,
                Op::Write { .. } => c.writes += 1,
                Op::Compute(_) => {}
            }
        }
        c
    }
}

/// Parse the `name,value` lines of a registry CSV export. Text
/// entries, which have no numeric value, are skipped.
pub fn parse_metrics<'a>(lines: impl Iterator<Item = &'a str>) -> Metrics {
    lines
        .filter_map(|l| {
            let (name, value) = l.rsplit_once(',')?;
            Some((name.to_string(), value.parse().ok()?))
        })
        .collect()
}

/// The registry of a report, as [`Metrics`].
pub fn report_metrics(report: &SimReport) -> Metrics {
    parse_metrics(report.obs.to_csv().lines().skip(1))
}

fn get(m: &Metrics, name: &str) -> f64 {
    m.get(name).copied().unwrap_or(f64::NAN)
}

/// The ten span components of a read's latency.
const SPANS: [&str; 10] = [
    "cache_lookup",
    "queue",
    "seek",
    "rotation",
    "disk_transfer",
    "transfer",
    "coordination",
    "network",
    "retry",
    "failover",
];

/// The checks every cell gets. `warmup_writes` is known only for cells
/// run in this process: the registry does not carry it.
pub fn cell(
    t: &mut Tally,
    label: &str,
    m: &Metrics,
    wl: OpCounts,
    warmup_writes: Option<u64>,
    is_np: bool,
) {
    let reads = get(m, "read.latency_ms.count") + get(m, "read.warmup_latency_ms.count");
    let writes = warmup_writes.map(|w| get(m, "write.latency_ms.count") + w as f64);
    t.op(
        reads == wl.reads as f64 && writes.is_none_or(|w| w == wl.writes as f64),
        || {
            format!(
                "{label}: warm + warm-up reads/writes {reads}/{writes:?} != workload's {}/{}",
                wl.reads, wl.writes
            )
        },
    );

    let spans: f64 = SPANS
        .iter()
        .map(|s| get(m, &format!("span.{s}_us.mean_us")))
        .sum();
    let mean = get(m, "read.latency_us.mean_us");
    t.op((spans - mean).abs() <= 1e-9 * mean.abs().max(1.0), || {
        format!("{label}: span components sum to {spans} us, mean read is {mean} us")
    });

    // Core counts disk accesses as it issues them; the stations count
    // the jobs they complete. Warm plus warm-up must match.
    let accesses =
        get(m, "disk.reads_demand") + get(m, "disk.reads_prefetch") + get(m, "disk.writes");
    let completed: f64 = m
        .iter()
        .filter(|(k, _)| k.starts_with("disk") && k.ends_with(".completed"))
        .map(|(_, v)| v)
        .sum();
    let warmup = get(m, "disk.warmup_ops");
    t.op(accesses + warmup == completed, || {
        format!("{label}: disk accesses {accesses} + warm-up {warmup} != {completed} completed by the disks")
    });

    if is_np {
        let issued = get(m, "prefetch.issued");
        let pf_reads = get(m, "disk.reads_prefetch");
        t.op(issued == 0.0 && pf_reads == 0.0, || {
            format!("{label}: NP issued {issued} prefetches, {pf_reads} prefetch disk reads")
        });
    }
}

/// Warm demand reads of a cell.
pub fn warm_reads(m: &Metrics) -> f64 {
    get(m, "read.latency_ms.count")
}

/// Mean read time of a cell, in ms.
pub fn avg_read_ms(m: &Metrics) -> f64 {
    get(m, "read.latency_ms.mean")
}

/// Disk reads, demand plus prefetch, of a cell.
pub fn disk_reads(m: &Metrics) -> f64 {
    get(m, "disk.reads_demand") + get(m, "disk.reads_prefetch")
}
