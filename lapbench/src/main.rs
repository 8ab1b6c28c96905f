//! `lapbench`: the simulator-side half of the benchmark (`run.py` is
//! the other half, which times whole processes).
//!
//! ```text
//! lapbench round   <workload> --seed N
//! lapbench traced  <workload> --seed N
//! lapbench setup   <workload> --seed N
//! lapbench figures <dir>      --seed N
//! lapbench seed sprite-figures --seed N
//! lapbench self-test <dir>    --seed N
//! lapbench probe
//! ```
//!
//! `<workload>` is `charisma-xfs` or `sprite-figures`, and every command
//! but `self-test` runs at paper scale. `round` simulates one round of
//! `charisma-xfs`'s cells, untraced, and checks the results. `traced`
//! simulates every cell of a workload twice, untraced and under a
//! [`LayerRecorder`], and reports the per-layer counts and host times.
//! `setup` times one set-up: input generation plus construction of the
//! first simulator. `figures` checks the CSVs of an `experiments fig6
//! fig10 --obs --out <dir>` run. `seed` prints the generator seed of the
//! Sprite input, for `experiments --seed`. `self-test` runs every check
//! at small scale and shows that each can fail. `probe` samples the
//! host's speed until its standard input closes (see [`probe`]). Each
//! command prints one JSON object on stdout.

mod checks;
mod figures;
mod layers;
mod probe;

use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

use bench::{algorithms, build_config, build_workload, experiment, Scale, WorkloadKind, CACHE_MBS};
use lap_core::{CacheSystem, SimReport, Simulation};
use lapobs::TraceRecorder;
use prefetch::PrefetchConfig;

use checks::{Metrics, OpCounts, Tally};
use figures::{FigCell, Figure};
use layers::{Layer, LayerRecorder};

/// The benchmark's workloads, plus Figure 4's CHARISMA/PAFS cells, which
/// only `self-test` runs (at small scale, for the Figure 4 check).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Workload {
    CharismaPafs,
    CharismaXfs,
    SpriteFigures,
}

impl Workload {
    fn parse(name: &str) -> Option<Self> {
        Some(match name {
            "charisma-xfs" => Workload::CharismaXfs,
            "sprite-figures" => Workload::SpriteFigures,
            _ => return None,
        })
    }

    fn kind(self) -> WorkloadKind {
        match self {
            Workload::SpriteFigures => WorkloadKind::SpriteNow,
            _ => WorkloadKind::CharismaPm,
        }
    }

    /// The cells of one round, grouped into grids that share one
    /// generated workload, as `experiments` groups a figure's cells.
    fn grids(self) -> Vec<Vec<Cell>> {
        let at_1mb = |system, pfs: &[PrefetchConfig]| {
            pfs.iter()
                .map(|&pf| Cell {
                    system,
                    pf,
                    cache_mb: 1,
                })
                .collect::<Vec<_>>()
        };
        match self {
            Workload::CharismaPafs => vec![at_1mb(
                CacheSystem::Pafs,
                &[
                    PrefetchConfig::np(),
                    PrefetchConfig::ln_agr_is_ppm(1),
                    PrefetchConfig::ln_agr_is_ppm(3),
                ],
            )],
            Workload::CharismaXfs => vec![at_1mb(
                CacheSystem::Xfs,
                &[PrefetchConfig::np(), PrefetchConfig::ln_agr_is_ppm(1)],
            )],
            Workload::SpriteFigures => ["fig6", "fig10"]
                .iter()
                .map(|id| {
                    let exp = experiment(id).expect("the paper's figures are registered");
                    algorithms(exp.aggressive_only)
                        .into_iter()
                        .flat_map(|pf| {
                            CACHE_MBS.iter().map(move |&cache_mb| Cell {
                                system: exp.system,
                                pf,
                                cache_mb,
                            })
                        })
                        .collect()
                })
                .collect(),
        }
    }
}

/// Generator seed of every CHARISMA input: the first seed whose
/// paper-scale trace reads within 1% of the median read volume of
/// generator seeds 0-299 (2.44M against 2.42M blocks). Its 16
/// applications make CHARISMA's size swing 3x between generator seeds
/// (1.2M-4.1M blocks from the 10th to the 90th percentile), so the
/// benchmark seed varies the trace's placement instead; see
/// [`Input::of`].
const CHARISMA_SEED: u64 = 4;

/// Median read blocks and write requests of the paper-scale Sprite
/// trace over generator seeds 0-299. Sprite inputs are held within 2%
/// of both; see [`sprite_seed`].
const SPRITE_MEDIAN: (u64, u64) = (106_917, 26_995);

fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The generator seed of the Sprite input for benchmark seed `seed`:
/// the first of a sequence of candidates drawn from `seed` whose trace
/// reads and writes within 2% of [`SPRITE_MEDIAN`], so every benchmark
/// seed simulates about the same amount of work. At small scale the
/// benchmark seed is used as it is.
fn sprite_seed(scale: Scale, seed: u64) -> u64 {
    if scale == Scale::Small {
        return seed;
    }
    let near = |v: u64, median: u64| v.abs_diff(median) * 50 <= median;
    (0u64..)
        .map(|k| splitmix64(seed ^ splitmix64(k)))
        .find(|&s| {
            let wl = build_workload(WorkloadKind::SpriteNow, scale, s);
            let ops = OpCounts::of(&wl);
            let blocks: u64 = wl
                .processes
                .iter()
                .flat_map(|p| &p.ops)
                .map(|op| match op {
                    ioworkload::Op::Read { len, .. } => len.div_ceil(wl.block_size),
                    _ => 0,
                })
                .sum();
            near(blocks, SPRITE_MEDIAN.0) && near(ops.writes, SPRITE_MEDIAN.1)
        })
        .expect("some candidate seed lands near the median")
}

/// What a benchmark seed selects: the generator seed of the trace and
/// how far its processes are moved along the machine.
#[derive(Clone, Copy, Debug)]
struct Input {
    generator_seed: u64,
    rotate: u64,
}

impl Input {
    /// The input of workload `w` for benchmark seed `seed`. Sprite: the
    /// trace of [`sprite_seed`], as `experiments --seed` generates it.
    /// CHARISMA: the trace of [`CHARISMA_SEED`] with every process moved
    /// `splitmix64(seed) mod nodes` nodes along the machine, so the
    /// applications keep their partitions' shape and size while their
    /// placement against the file servers and disks changes.
    fn of(w: Workload, scale: Scale, seed: u64) -> Self {
        match w.kind() {
            WorkloadKind::SpriteNow => Input {
                generator_seed: sprite_seed(scale, seed),
                rotate: 0,
            },
            WorkloadKind::CharismaPm => Input {
                generator_seed: CHARISMA_SEED,
                rotate: splitmix64(seed),
            },
        }
    }

    /// Generate the trace: the first half of every set-up.
    fn generate(self, w: Workload, scale: Scale) -> ioworkload::Workload {
        let mut wl = build_workload(w.kind(), scale, self.generator_seed);
        let nodes = wl.nodes;
        let shift = (self.rotate % u64::from(nodes)) as u32;
        for p in &mut wl.processes {
            p.node.0 = (p.node.0 + shift) % nodes;
        }
        wl
    }
}

/// One simulation: an algorithm at a cache size under a system.
#[derive(Clone, Copy, Debug)]
struct Cell {
    system: CacheSystem,
    pf: PrefetchConfig,
    cache_mb: u64,
}

impl Cell {
    fn label(&self) -> String {
        format!(
            "{:?}/{} @ {}MB",
            self.system,
            self.pf.paper_name(),
            self.cache_mb
        )
    }

    fn build(&self, w: Workload, scale: Scale) -> lap_core::SimConfig {
        build_config(w.kind(), scale, self.system, self.pf, self.cache_mb)
    }
}

/// A simulated cell with its metrics.
struct Done {
    cell: Cell,
    metrics: Metrics,
}

/// Checks that compare cells of one workload with each other (the
/// paper's qualitative claims).
fn workload_checks(w: Workload, t: &mut Tally, done: &[Done]) {
    let np = |mb: u64| {
        done.iter()
            .find(|d| !d.cell.pf.prefetches() && d.cell.cache_mb == mb)
            .map(|d| &d.metrics)
    };
    for d in done.iter().filter(|d| d.cell.pf.is_aggressive()) {
        let Some(base) = np(d.cell.cache_mb) else {
            continue;
        };
        match w {
            // Figure 4: linear aggressive prefetching beats NP.
            Workload::CharismaPafs => {
                let (a, b) = (checks::avg_read_ms(&d.metrics), checks::avg_read_ms(base));
                t.op(a < b, || {
                    format!("{}: {a} ms is not below NP's {b} ms", d.cell.label())
                });
            }
            // Figure 9: aggressive prefetching reads the disk more.
            Workload::CharismaXfs => {
                let (a, b) = (checks::disk_reads(&d.metrics), checks::disk_reads(base));
                t.op(a > b, || {
                    format!("{}: {a} disk reads is not above NP's {b}", d.cell.label())
                });
            }
            Workload::SpriteFigures => {}
        }
    }
}

/// Checks of the Sprite figures: every cell's own checks, IS_PPM:1
/// beats NP at every cache size in fig6 (Figure 6), and every fig10
/// cell repeats its fig6 cell.
fn figure_checks(t: &mut Tally, fig6: &Figure, fig10: &Figure, wl: OpCounts) {
    for (id, fig, expect) in [("fig6", fig6, 35), ("fig10", fig10, 20)] {
        t.op(fig.len() == expect, || {
            format!("{id}: {} cells, expected {expect}", fig.len())
        });
        for ((algo, mb), c) in fig {
            let label = format!("{id} {algo} @ {mb}MB");
            t.op(!c.metrics.is_empty(), || format!("{label}: no metrics"));
            checks::cell(t, &label, &c.metrics, wl, None, algo == "NP");
        }
    }
    let is_ppm1 = PrefetchConfig::is_ppm(1).paper_name();
    for mb in CACHE_MBS {
        let avg =
            |algo: &str| figures::find(fig6, algo, mb).map(|c| checks::avg_read_ms(&c.metrics));
        let (a, b) = (avg(&is_ppm1), avg("NP"));
        t.op(matches!((a, b), (Some(a), Some(b)) if a < b), || {
            format!("fig6 @ {mb}MB: {is_ppm1} {a:?} ms is not below NP {b:?} ms")
        });
    }
    for ((algo, mb), c10) in fig10 {
        let same = figures::find(fig6, algo, *mb).is_some_and(|c6| {
            let mut r6 = c6.row.clone();
            let mut r10 = c10.row.clone();
            r6.remove("experiment");
            r10.remove("experiment");
            r6 == r10 && c6.metrics == c10.metrics
        });
        t.op(same, || format!("fig10 {algo} @ {mb}MB differs from fig6"));
    }
}

/// Build a [`Figure`] from cells simulated in this process, through the
/// same CSV rendering `experiments` uses.
fn figure_of(id: &str, done: &[Done], reports: &[SimReport]) -> Figure {
    let exp = experiment(id).expect("the paper's figures are registered");
    let cells: Vec<bench::Cell> = done
        .iter()
        .zip(reports)
        .map(|(d, r)| bench::Cell {
            algorithm: d.cell.pf.paper_name(),
            cache_mb: d.cell.cache_mb,
            report: r.clone(),
        })
        .collect();
    figures::rows(&bench::render_csv(exp, &cells))
        .into_iter()
        .zip(done)
        .map(|(row, d)| {
            (
                (d.cell.pf.paper_name(), d.cell.cache_mb),
                FigCell {
                    row,
                    metrics: d.metrics.clone(),
                },
            )
        })
        .collect()
}

/// `round`: one untraced round of a CHARISMA workload.
fn round(w: Workload, scale: Scale, seed: u64) -> (String, Tally) {
    let mut t = Tally::default();
    let mut reads = 0.0;
    let input = Input::of(w, scale, seed);
    for grid in w.grids() {
        let wl = Arc::new(input.generate(w, scale));
        let ops = OpCounts::of(&wl);
        let mut done = Vec::new();
        for cell in grid {
            let report = Simulation::new_shared(cell.build(w, scale), Arc::clone(&wl)).run();
            t.op(true, String::new);
            let metrics = checks::report_metrics(&report);
            reads += checks::warm_reads(&metrics);
            let label = cell.label();
            let np = !cell.pf.prefetches();
            checks::cell(
                &mut t,
                &label,
                &metrics,
                ops,
                Some(report.warmup_writes),
                np,
            );
            done.push(Done { cell, metrics });
        }
        workload_checks(w, &mut t, &done);
    }
    (format!("{{\"reads\": {reads}, {}}}", tally_json(&t)), t)
}

/// `setup`: one set-up as a user pays it in a fresh process: generate
/// the workload's input and construct the simulator of its first cell,
/// up to the first event.
fn setup(w: Workload, scale: Scale, seed: u64) -> (String, Tally) {
    let input = Input::of(w, scale, seed);
    let cell = w.grids()[0][0];
    let t0 = Instant::now();
    let wl = input.generate(w, scale);
    let sim = Simulation::new(cell.build(w, scale), wl);
    let elapsed = t0.elapsed();
    drop(sim);
    (
        format!("{{\"setup_s\": {}}}", elapsed.as_secs_f64()),
        Tally::default(),
    )
}

/// Per-layer sums over the cells of a traced run.
#[derive(Default)]
struct LayerSums {
    counters: lap_core::ProfileCounters,
    host: [Duration; 4],
    recorder_events: u64,
    event_loop: Duration,
    report: Duration,
    setup: Duration,
    generate: Duration,
    ops: u64,
    reads: u64,
    writes: u64,
    traced: Duration,
    untraced: Duration,
    export: Duration,
    export_bytes: usize,
    registry: Metrics,
}

impl LayerSums {
    fn add_registry(&mut self, m: &Metrics) {
        for (k, v) in m {
            *self.registry.entry(k.clone()).or_default() += v;
        }
    }

    fn reg(&self, name: &str) -> f64 {
        self.registry.get(name).copied().unwrap_or(0.0)
    }

    /// Sum of `disk<N>.<field>` over every disk.
    fn disks(&self, field: &str) -> f64 {
        self.registry
            .iter()
            .filter(|(k, _)| {
                k.strip_prefix("disk")
                    .and_then(|r| r.strip_suffix(field))
                    .and_then(|r| r.strip_suffix('.'))
                    .is_some_and(|n| !n.is_empty() && n.bytes().all(|b| b.is_ascii_digit()))
            })
            .map(|(_, v)| v)
            .sum()
    }

    fn metrics(&self) -> Vec<(&'static str, f64)> {
        let c = &self.counters;
        let reads = self.reads as f64;
        let host = |l: Layer| self.host[l as usize].as_secs_f64();
        let attributed: Duration = self.host.iter().sum();
        let inserts = self.reg("cache.prefetch_inserts");
        vec![
            ("simkit.events", c.events as f64),
            ("simkit.events_per_read", c.events as f64 / reads),
            ("simkit.station_dispatches", c.station_dispatches as f64),
            ("simkit.peak_queue_depth", c.peak_queue_depth as f64),
            ("simkit.mean_queue_depth", c.mean_queue_depth()),
            ("simkit.host_s", host(Layer::Simkit)),
            ("devmodel.disk_ops", self.disks("completed")),
            ("devmodel.disk_busy_s", self.disks("busy_s")),
            ("devmodel.disk_wait_s", self.disks("waited_s")),
            ("predict.lookups", c.pred_lookups as f64),
            ("predict.updates", c.pred_updates as f64),
            ("predict.lookups_per_read", c.pred_lookups as f64 / reads),
            ("prefetch.issued", self.reg("prefetch.issued")),
            (
                "prefetch.already_cached",
                self.reg("prefetch.already_cached"),
            ),
            ("prefetch.restarts", self.reg("prefetch.restarts")),
            (
                "prefetch.useful_ratio",
                if inserts > 0.0 {
                    self.reg("cache.prefetch_used") / inserts
                } else {
                    0.0
                },
            ),
            ("prefetch.host_s", host(Layer::Prefetch)),
            ("coopcache.probes", c.cache_probes as f64),
            ("coopcache.local_hits", self.reg("cache.local_hits")),
            ("coopcache.remote_hits", self.reg("cache.remote_hits")),
            ("coopcache.misses", self.reg("cache.misses")),
            ("coopcache.evictions", self.reg("cache.evictions")),
            ("coopcache.forwards", self.reg("cache.forwards")),
            ("coopcache.invalidations", self.reg("cache.invalidations")),
            ("coopcache.host_s", host(Layer::Coopcache)),
            ("core.reads", reads),
            ("core.writes", self.writes as f64),
            ("core.setup_s", self.setup.as_secs_f64()),
            ("core.event_loop_s", self.event_loop.as_secs_f64()),
            ("core.report_s", self.report.as_secs_f64()),
            ("core.host_s", host(Layer::Core)),
            ("ioworkload.generate_s", self.generate.as_secs_f64()),
            ("ioworkload.ops", self.ops as f64),
            ("obs.recorder_events", self.recorder_events as f64),
            (
                "obs.trace_overhead_s",
                self.traced.as_secs_f64() - self.untraced.as_secs_f64(),
            ),
            ("obs.export_s", self.export.as_secs_f64()),
            ("obs.export_mb", self.export_bytes as f64 / 1e6),
            (
                "unattributed.host_s",
                self.event_loop.as_secs_f64() - attributed.as_secs_f64(),
            ),
        ]
    }
}

/// `traced`: every cell of a workload untraced, then under a
/// [`LayerRecorder`]; the first cell once more under a
/// [`TraceRecorder`] for the Chrome-trace export.
fn traced(w: Workload, scale: Scale, seed: u64) -> (String, Tally) {
    let mut t = Tally::default();
    let mut s = LayerSums::default();
    let mut figs: Vec<Figure> = Vec::new();
    let mut ops = OpCounts {
        reads: 0,
        writes: 0,
    };
    let grids = w.grids();
    let simulations: usize = grids.iter().map(Vec::len).sum();
    let input = Input::of(w, scale, seed);
    for (g, grid) in grids.into_iter().enumerate() {
        let t0 = Instant::now();
        let wl = Arc::new(input.generate(w, scale));
        s.generate += t0.elapsed();
        s.ops += wl.io_ops() as u64;
        ops = OpCounts::of(&wl);
        let mut done = Vec::new();
        let mut reports = Vec::new();
        for (i, cell) in grid.iter().enumerate() {
            let label = cell.label();
            let c0 = Instant::now();
            let untraced = Simulation::new_shared(cell.build(w, scale), Arc::clone(&wl)).run();
            s.untraced += c0.elapsed();

            let c0 = Instant::now();
            let sim = Simulation::with_recorder(
                cell.build(w, scale),
                Arc::clone(&wl),
                LayerRecorder::default(),
            );
            s.setup += c0.elapsed();
            let (report, rec, profile) = sim.run_profiled();
            s.traced += c0.elapsed();
            t.op(true, String::new);
            t.op(report == untraced, || {
                format!("{label}: traced report differs from the untraced one")
            });

            let c = &profile.counters;
            s.counters.events += c.events;
            s.counters.peak_queue_depth = s.counters.peak_queue_depth.max(c.peak_queue_depth);
            s.counters.queue_depth_ticks += c.queue_depth_ticks;
            s.counters.station_dispatches += c.station_dispatches;
            s.counters.pred_lookups += c.pred_lookups;
            s.counters.pred_updates += c.pred_updates;
            s.counters.cache_probes += c.cache_probes;
            for l in Layer::ALL {
                s.host[l as usize] += rec.host(l);
            }
            s.recorder_events += rec.events();
            s.event_loop += profile.wall.event_loop;
            s.report += profile.wall.report;
            s.reads += report.reads + report.warmup_reads;
            s.writes += report.writes + report.warmup_writes;
            let metrics = checks::report_metrics(&report);
            s.add_registry(&metrics);

            if g == 0 && i == 0 {
                let sim = Simulation::with_recorder(
                    cell.build(w, scale),
                    Arc::clone(&wl),
                    TraceRecorder::new(),
                );
                let (exported, rec) = sim.run_traced();
                t.op(exported == untraced, || {
                    format!(
                        "{label}: report under the trace recorder differs from the untraced one"
                    )
                });
                let e0 = Instant::now();
                let json = lapobs::chrome::export(rec.events());
                s.export = e0.elapsed();
                s.export_bytes = json.len();
            }
            checks::cell(
                &mut t,
                &label,
                &metrics,
                ops,
                Some(report.warmup_writes),
                !cell.pf.prefetches(),
            );
            done.push(Done {
                cell: *cell,
                metrics,
            });
            reports.push(report);
        }
        workload_checks(w, &mut t, &done);
        if w == Workload::SpriteFigures {
            figs.push(figure_of(
                if g == 0 { "fig6" } else { "fig10" },
                &done,
                &reports,
            ));
        }
    }
    if let [fig6, fig10] = &figs[..] {
        figure_checks(&mut t, fig6, fig10, ops);
    }
    let mut metrics: Vec<String> = s
        .metrics()
        .into_iter()
        .map(|(k, v)| format!("{}: {}", json_str(k), json_num(v)))
        .collect();
    metrics.push(format!("\"bench.simulations\": {simulations}"));
    let json = format!(
        "{{\"metrics\": {{{}}}, {}}}",
        metrics.join(", "),
        tally_json(&t)
    );
    (json, t)
}

/// `figures`: check an `experiments fig6 fig10 --obs` output directory.
/// Fig6's first cell also runs here, for the write-conservation check
/// the CSVs cannot support: they do not carry warm-up writes.
fn figures_cmd(dir: &Path, scale: Scale, seed: u64) -> (String, Tally) {
    let w = Workload::SpriteFigures;
    let mut t = Tally::default();
    let first = w.grids()[0][0];
    let wl = Input::of(w, scale, seed).generate(w, scale);
    let ops = OpCounts::of(&wl);
    let report = Simulation::new(first.build(w, scale), wl).run();
    t.op(true, String::new);
    checks::cell(
        &mut t,
        &first.label(),
        &checks::report_metrics(&report),
        ops,
        Some(report.warmup_writes),
        !first.pf.prefetches(),
    );

    let mut reads = 0.0;
    match (figures::read(dir, "fig6"), figures::read(dir, "fig10")) {
        (Ok(fig6), Ok(fig10)) => {
            for (_, c) in fig6.iter().chain(&fig10) {
                t.op(true, String::new);
                reads += checks::warm_reads(&c.metrics);
            }
            figure_checks(&mut t, &fig6, &fig10, ops);
        }
        (a, b) => {
            for e in [a.err(), b.err()].into_iter().flatten() {
                t.op(false, || e);
            }
        }
    }
    let json = format!("{{\"reads\": {reads}, {}}}", tally_json(&t));
    (json, t)
}

/// `self-test`: every check at small scale must pass on real output,
/// and each corrupted result below must be caught.
fn self_test(dir: &Path, seed: u64) -> bool {
    let mut ok = true;
    let mut report = |name: &str, pass: bool, detail: &[String]| {
        println!("{} {name}", if pass { "ok  " } else { "FAIL" });
        for d in detail {
            println!("       {d}");
        }
        ok &= pass;
    };
    for w in [Workload::CharismaPafs, Workload::CharismaXfs] {
        let (_, t) = round(w, Scale::Small, seed);
        report(
            &format!("{w:?} round: {} operations", t.attempted),
            t.failures.is_empty(),
            &t.failures,
        );
    }
    for w in [Workload::CharismaXfs, Workload::SpriteFigures] {
        let (_, t) = traced(w, Scale::Small, seed);
        report(
            &format!("{w:?} traced: {} operations", t.attempted),
            t.failures.is_empty(),
            &t.failures,
        );
    }
    let (_, t) = figures_cmd(dir, Scale::Small, seed);
    report(
        &format!("experiments figures: {} operations", t.attempted),
        t.failures.is_empty(),
        &t.failures,
    );

    // Corruptions: each must make at least one check fail.
    let caught = |t: Tally| !t.failures.is_empty();
    let w = Workload::CharismaPafs;
    let wl = Input::of(w, Scale::Small, seed).generate(w, Scale::Small);
    let ops = OpCounts::of(&wl);
    let cell = w.grids()[0][0];
    let base = Simulation::new(cell.build(w, Scale::Small), wl).run();
    let metrics = checks::report_metrics(&base);
    let cell_check = |edit: &dyn Fn(&mut Metrics)| {
        let mut m = metrics.clone();
        edit(&mut m);
        let mut t = Tally::default();
        checks::cell(&mut t, "corrupted", &m, ops, Some(base.warmup_writes), true);
        caught(t)
    };
    let bump =
        |name: &'static str, by: f64| move |m: &mut Metrics| *m.get_mut(name).expect(name) += by;
    report(
        "dropped read is caught",
        cell_check(&bump("read.latency_ms.count", -1.0)),
        &[],
    );
    report(
        "span drift is caught",
        cell_check(&bump("span.queue_us.mean_us", 1.0)),
        &[],
    );
    report(
        "lost disk write is caught",
        cell_check(&bump("disk.writes", -1.0)),
        &[],
    );
    report(
        "NP prefetch is caught",
        cell_check(&bump("prefetch.issued", 1.0)),
        &[],
    );
    let mut t = Tally::default();
    checks::cell(
        &mut t,
        "corrupted",
        &metrics,
        ops,
        Some(base.warmup_writes + 1),
        true,
    );
    report("dropped write is caught", caught(t), &[]);

    let np = Done {
        cell,
        metrics: metrics.clone(),
    };
    let mut agr_m = metrics.clone();
    *agr_m.get_mut("read.latency_ms.mean").expect("mean read") += 1.0;
    let agr = Done {
        cell: w.grids()[0][1],
        metrics: agr_m,
    };
    let mut t = Tally::default();
    workload_checks(Workload::CharismaPafs, &mut t, &[np, agr]);
    report("Ln_Agr slower than NP is caught", caught(t), &[]);

    if let (Ok(fig6), Ok(mut fig10)) = (figures::read(dir, "fig6"), figures::read(dir, "fig10")) {
        let w = Workload::SpriteFigures;
        let ops = OpCounts::of(&Input::of(w, Scale::Small, seed).generate(w, Scale::Small));
        if let Some((_, c)) = fig10.first_mut() {
            let v = c.row.get_mut("avg_read_ms").expect("avg_read_ms column");
            v.push('1');
        }
        let mut t = Tally::default();
        figure_checks(&mut t, &fig6, &fig10, ops);
        report("fig10 differing from fig6 is caught", caught(t), &[]);
    } else {
        report("figures readable", false, &[]);
    }
    ok
}

fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".into()
    }
}

fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn tally_json(t: &Tally) -> String {
    let failures: Vec<String> = t.failures.iter().map(|f| json_str(f)).collect();
    format!(
        "\"attempted\": {}, \"failed\": {}, \"failures\": [{}]",
        t.attempted,
        t.failed(),
        failures.join(", ")
    )
}

fn usage() -> ! {
    eprintln!(
        "usage: lapbench round charisma-xfs --seed N\n\
         \x20      lapbench traced|setup <workload> --seed N\n\
         \x20      lapbench figures <dir> --seed N\n\
         \x20      lapbench seed sprite-figures --seed N\n\
         \x20      lapbench self-test <dir> --seed N\n\
         \x20      lapbench probe\n\
         workloads: charisma-xfs, sprite-figures"
    );
    std::process::exit(2)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args == ["probe"] {
        return probe::run();
    }
    let (Some(cmd), Some(target)) = (args.first(), args.get(1)) else {
        usage()
    };
    let seed: u64 = match &args[2..] {
        [flag, value] if flag == "--seed" => value.parse().unwrap_or_else(|_| usage()),
        _ => usage(),
    };
    let scale = Scale::Paper;
    let workload = || Workload::parse(target).unwrap_or_else(|| usage());
    let (json, t) = match cmd.as_str() {
        "round" if workload() != Workload::SpriteFigures => round(workload(), scale, seed),
        "traced" => traced(workload(), scale, seed),
        "setup" => setup(workload(), scale, seed),
        "figures" => figures_cmd(Path::new(target), scale, seed),
        "seed" if workload() == Workload::SpriteFigures => {
            let seed = Input::of(workload(), scale, seed).generator_seed;
            (format!("{{\"seed\": {seed}}}"), Tally::default())
        }
        "self-test" => std::process::exit(if self_test(Path::new(target), seed) {
            0
        } else {
            1
        }),
        _ => usage(),
    };
    println!("{json}");
    for f in &t.failures {
        eprintln!("check failed: {f}");
    }
}
