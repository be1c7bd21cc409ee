//! Workload profiles and the round loop.
//!
//! Every workload runs the same stages each round — build, sample, AGS,
//! serve, replicate — so every metric is measured in every workload. The
//! profiles differ in input size, codec, storage path and how much work
//! each stage does, which is what points each workload at its layers (see
//! README.md for why each profile looks the way it does).

use crate::checks::{self, Estimate};
use crate::layers;
use crate::serve::{Leader, ServeLog, Shape};
use crate::stats::{median, quantile};
use crate::trace::span;
use crate::{Ledger, Metrics};
use cc_baseline::{cc_build, CcBuild, CcSampler};
use motivo_core::{
    ags, build_urn, naive_estimates, AgsConfig, AgsResult, BuildConfig, RecordCodec, SampleConfig,
    Sampler, Urn,
};
use motivo_graph::{generators, io as graph_io, Graph};
use motivo_graphlet::{Graphlet, GraphletRegistry};
use motivo_store::{StoreUrn, UrnId, UrnStore};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

/// Set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 3;
/// Edges each new vertex attaches with in the preferential-attachment
/// generator (hub-heavy degree distribution, ~3n edges).
const BA_ATTACH: u32 = 3;
/// Naive sampling is timed in chunks of this many samples (two of the
/// sampler's 4096-sample shards, so both cores work on every chunk); the
/// reported rate is the median chunk's, which a passing burst of load
/// elsewhere on the machine does not move.
const NAIVE_CHUNK: u64 = 8_192;
/// Graphlet size of every workload.
pub const K: u32 = 5;
/// Copies drawn through `Sampler` and checked each round.
const COPY_CHECKS: u64 = 2_000;

/// The fixed AGS instance of `count`. It does not depend on `--seed`:
/// its accuracy checks fail on the current code (README.md, "Known
/// fault"), and a fixed input keeps the number of failed checks the same
/// in every run.
mod fixed_ags {
    pub const NODES: u32 = 3_000;
    pub const GRAPH_SEED: u64 = 424_242;
    pub const COLORING_SEED: u64 = 8;
    pub const AGS_SEED: u64 = 11;
    pub const REFERENCE_SAMPLES: u64 = 80_000;
    pub const REFERENCE_SEED: u64 = 7;
}

pub enum BuildPath {
    /// `build_urn` into memory with the profile's codec.
    Memory(RecordCodec),
    /// `UrnStore::build_or_get`: default storage and codec when the
    /// budget is `None`, block storage under a memtable budget otherwise.
    Store(Option<usize>),
}

pub enum AgsInput {
    /// The fixed instance above, with accuracy checks.
    Fixed,
    /// The leader's first serving urn (its coloring does not depend on
    /// `--seed`), with structural checks.
    Serving,
}

pub struct Profile {
    pub name: &'static str,
    pub nodes: u32,
    /// Seed of the workload's graph. The graph is fixed per workload, like
    /// a dataset; `--seed` draws the colorings and all sampling and
    /// request seeds.
    pub graph_seed: u64,
    pub build: BuildPath,
    pub naive_samples: u64,
    pub cc_samples: u64,
    pub ags_input: AgsInput,
    pub ags_samples: u64,
    pub serve: Shape,
}

impl Profile {
    pub fn named(name: &str) -> Option<Profile> {
        match name {
            "count" => Some(Profile {
                name: "count",
                nodes: 20_000,
                graph_seed: 20_000,
                build: BuildPath::Memory(RecordCodec::Succinct),
                naive_samples: 4 * NAIVE_CHUNK,
                cc_samples: 6_000,
                ags_input: AgsInput::Fixed,
                ags_samples: 30_000,
                serve: Shape {
                    serving_urns: 2,
                    lru_urns: 1,
                    cold: 32,
                    cold_samples: 500,
                    hits: 6_000,
                    hit_samples: 1_000,
                    repl_reads: 4,
                },
            }),
            "serve" => Some(Profile {
                name: "serve",
                nodes: 5_000,
                graph_seed: 5_000,
                build: BuildPath::Store(None),
                naive_samples: 2 * NAIVE_CHUNK,
                cc_samples: 8_000,
                ags_input: AgsInput::Serving,
                ags_samples: 10_000,
                serve: Shape {
                    serving_urns: 4,
                    lru_urns: 2,
                    cold: 256,
                    cold_samples: 4,
                    hits: 10_000,
                    hit_samples: 2_000,
                    repl_reads: 4,
                },
            }),
            "ooc-replicate" => Some(Profile {
                name: "ooc-replicate",
                nodes: 10_000,
                graph_seed: 10_000,
                build: BuildPath::Store(Some(256 << 10)),
                naive_samples: 2 * NAIVE_CHUNK,
                cc_samples: 8_000,
                ags_input: AgsInput::Serving,
                ags_samples: 10_000,
                serve: Shape {
                    serving_urns: 2,
                    lru_urns: 1,
                    cold: 32,
                    cold_samples: 500,
                    hits: 6_000,
                    hit_samples: 1_000,
                    repl_reads: 16,
                },
            }),
            _ => None,
        }
    }

    fn store_build_cfg(&self, seed: u64) -> BuildConfig {
        let cfg = BuildConfig::new(K).seed(seed);
        match self.build {
            // The store rewrites the directory to the urn's own.
            BuildPath::Store(Some(budget)) => cfg.build_mem_bytes("unused", budget),
            _ => cfg,
        }
    }
}

pub struct Output {
    pub ledger: Ledger,
    pub metrics: Metrics,
}

/// Raw measurements of one run.
#[derive(Default)]
pub struct Log {
    pub setup_s: Vec<f64>,
    pub build_s: Vec<f64>,
    pub table_bytes: Vec<f64>,
    pub peak_rss_bytes: f64,
    pub naive_rate: Vec<f64>,
    pub ags_s: Vec<f64>,
    pub ags_last: Option<(u64, u64, usize)>,
    pub serve: ServeLog,
    /// Per-layer probe results (traced runs only).
    pub layers: Metrics,
}

/// The urn a round built, in memory or through the store.
enum Built<'g> {
    Memory(Box<Urn<'g>>),
    Store(UrnId, Arc<StoreUrn>),
}

impl Built<'_> {
    fn urn(&self) -> &Urn<'_> {
        match self {
            Built::Memory(u) => u,
            Built::Store(_, s) => s.urn(),
        }
    }
}

/// The fixed AGS instance with its naive reference estimates.
struct FixedAgs<'g> {
    urn: Urn<'g>,
    reference: Vec<Estimate>,
}

pub fn run(p: &Profile, seed: u64, seconds: u64) -> Output {
    let dir = PathBuf::from(".perfbench").join(format!("run-{}-{}", p.name, std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).expect("create run directory");
    let mut ledger = Ledger::default();
    let mut log = Log {
        peak_rss_bytes: first_build_peak_rss(p, seed, &dir),
        ..Log::default()
    };
    let (g, mut leader) = setup(p, &dir, &mut log);
    // The reference of the known-fault checks: check work, computed once
    // and not timed, like the CC baseline.
    let fixed_graph = matches!(p.ags_input, AgsInput::Fixed)
        .then(|| generators::barabasi_albert(fixed_ags::NODES, BA_ATTACH, fixed_ags::GRAPH_SEED));
    let fixed = fixed_graph.as_ref().map(prepare_fixed);

    // The first round sets how many rounds fit in `seconds`; every run
    // then makes whole rounds of the same checks.
    let mut measured = 0.0;
    let mut rounds = 1u64;
    let mut round = 0u64;
    while round < rounds {
        let t_round = Instant::now();
        let coloring_seed = seed.wrapping_mul(1_000).wrapping_add(round);
        let built = build_stage(p, &g, &leader, coloring_seed, &mut log);
        let cc = check_build(p, &built, &mut ledger);
        sample_stage(p, built.urn(), &cc, coloring_seed, &mut ledger, &mut log);
        drop(cc);
        match &fixed {
            Some(f) => ags_fixed_stage(p, f, round == 0, &mut ledger, &mut log),
            None => {
                let serving = leader.store.get(leader.urns[0]).expect("serving urn");
                ags_serving_stage(p, serving.urn(), &mut ledger, &mut log)
            }
        }
        leader.serve_round(&p.serve, round, seed, &mut ledger, &mut log.serve);
        leader.replicate_round(&dir, &p.serve, round, seed, &mut ledger, &mut log.serve);

        if round == 0 {
            rounds = ((seconds as f64 / t_round.elapsed().as_secs_f64()) as u64).max(1);
        }
        if round + 1 == rounds && crate::trace::enabled() {
            layers::probe(p, &g, built.urn(), &mut leader, &dir, &mut log);
        }
        if let Built::Store(id, urn) = built {
            drop(urn);
            leader.store.remove(id).expect("remove round urn");
        }
        measured += t_round.elapsed().as_secs_f64();
        round += 1;
        eprintln!(
            "perfbench: {} round {round} of {rounds} done, {measured:.1} s measured",
            p.name
        );
    }

    let all = end_to_end(&log);
    let metrics = if crate::trace::enabled() {
        // The traced run's end-to-end figures, for the tracing overhead.
        for (name, (v, unit)) in &all.0 {
            eprintln!("perfbench: traced end-to-end {name} = {v} {unit}");
        }
        layers::metrics(&log, &mut leader)
    } else {
        all
    };
    leader.close();
    std::fs::remove_dir_all(&dir).ok();
    Output { ledger, metrics }
}

/// One build of the workload's kind, before anything else in the process,
/// so that the resident-set high-water mark read after it is the build's
/// (plus the graph's).
fn first_build_peak_rss(p: &Profile, seed: u64, dir: &Path) -> f64 {
    let g = generators::barabasi_albert(p.nodes, BA_ATTACH, p.graph_seed);
    let coloring_seed = seed.wrapping_mul(1_000).wrapping_add(999);
    match p.build {
        BuildPath::Memory(codec) => {
            let cfg = BuildConfig::new(K).seed(coloring_seed).codec(codec);
            drop(build_urn(&g, &cfg).expect("build urn"));
        }
        BuildPath::Store(_) => {
            let store = UrnStore::open(dir.join("rss")).expect("open store");
            let h = store
                .build_or_get(&g, &p.store_build_cfg(coloring_seed))
                .expect("enqueue build");
            drop(h.wait().expect("store build"));
        }
    }
    let peak = layers::peak_rss_bytes();
    std::fs::remove_dir_all(dir.join("rss")).ok();
    peak
}

/// Sets the workload up `SETUP_REPS` times and keeps the last set-up. One
/// set-up is what a run needs before it can measure: generate, save and
/// load the workload graph, build the serving urns into a fresh leader
/// store, reopen it with its LRU budget, bind the loopback server and
/// connect the clients. Closing a previous set-up is not timed.
fn setup(p: &Profile, dir: &Path, log: &mut Log) -> (Graph, Leader) {
    let path = dir.join("graph.mtvg");
    let leader_dir = dir.join("leader");
    let mut last: Option<(Graph, Leader)> = None;
    for _ in 0..SETUP_REPS {
        if let Some((_, mut leader)) = last.take() {
            leader.close();
        }
        std::fs::remove_dir_all(&leader_dir).ok();
        let t0 = Instant::now();
        let g = {
            let _s = span("graph.generate", 0);
            generators::barabasi_albert(p.nodes, BA_ATTACH, p.graph_seed)
        };
        {
            let _s = span("graph.save", 0);
            graph_io::save_binary(&g, &path).expect("save graph");
        }
        drop(g);
        let g = {
            let _s = span("graph.load", 0);
            graph_io::load_binary(&path).expect("load graph")
        };
        let leader = Leader::open(&leader_dir, &g, &p.serve, |i| {
            p.store_build_cfg(u64::MAX - i)
        });
        log.setup_s.push(t0.elapsed().as_secs_f64());
        last = Some((g, leader));
    }
    last.expect("at least one set-up")
}

fn build_stage<'g>(
    p: &Profile,
    g: &'g Graph,
    leader: &Leader,
    coloring_seed: u64,
    log: &mut Log,
) -> Built<'g> {
    let t0 = Instant::now();
    let built = match p.build {
        BuildPath::Memory(codec) => {
            let _s = span("core.build_urn", coloring_seed);
            let cfg = BuildConfig::new(K).seed(coloring_seed).codec(codec);
            Built::Memory(Box::new(build_urn(g, &cfg).expect("build urn")))
        }
        BuildPath::Store(_) => {
            let _s = span("store.build", coloring_seed);
            let store = &leader.store;
            let h = store
                .build_or_get(g, &p.store_build_cfg(coloring_seed))
                .expect("enqueue build");
            let urn = h.wait().expect("store build");
            Built::Store(h.id(), urn)
        }
    };
    log.build_s.push(t0.elapsed().as_secs_f64());
    log.table_bytes
        .push(built.urn().build_stats().table_bytes as f64);
    built
}

/// DP total against the CC baseline on the same coloring (and, for a
/// budgeted build, that it really spilled). Returns the baseline tables
/// for the sampling check.
fn check_build(p: &Profile, built: &Built<'_>, ledger: &mut Ledger) -> CcBuild {
    let urn = built.urn();
    let cc = {
        let _s = span("check.cc_build", 0);
        cc_build(urn.graph(), urn.coloring(), K)
    };
    let (ours, theirs) = (urn.total_treelets(), cc.total_rooted());
    ledger.check(
        "DP total equals the CC baseline's",
        checks::dp_totals_match(ours, K, theirs),
        false,
        || format!("motivo {ours} × {} vs baseline {theirs}", K),
    );
    if let BuildPath::Store(Some(_)) = p.build {
        let spills = urn.build_stats().spill_runs;
        ledger.check(
            "budgeted build spilled at least 2 runs",
            checks::spilled_enough(spills),
            false,
            || format!("{spills} spill runs"),
        );
    }
    cc
}

fn sample_stage(
    p: &Profile,
    urn: &Urn<'_>,
    cc: &CcBuild,
    seed: u64,
    ledger: &mut Ledger,
    log: &mut Log,
) {
    let g = urn.graph();
    let mut registry = GraphletRegistry::with_enumeration(K as u8);
    let mut ours = vec![0u64; registry.len()];
    for c in 0..p.naive_samples / NAIVE_CHUNK {
        let t0 = Instant::now();
        let est = {
            let _s = span("core.naive_estimates", seed);
            naive_estimates(
                urn,
                &mut registry,
                NAIVE_CHUNK,
                &SampleConfig::seeded(seed ^ (c << 40)),
            )
        };
        log.naive_rate
            .push(NAIVE_CHUNK as f64 / t0.elapsed().as_secs_f64());
        for e in &est.per_graphlet {
            ours[e.index] += e.occurrences;
        }
    }

    // Every copy the sampler draws is a valid colorful k-graphlet copy.
    {
        let _s = span("check.copies", seed);
        let mut sampler = Sampler::new(urn, SampleConfig::seeded(seed ^ 0x5eed));
        let mut verts = Vec::new();
        let mut bad = None;
        for _ in 0..COPY_CHECKS {
            sampler.sample_copy_into(&mut verts);
            if let Err(e) = checks::copy_is_valid(g, urn.coloring(), K, &verts) {
                bad = Some(e);
                break;
            }
        }
        ledger.check(
            "sampled copies are k distinct, connected, colorful",
            bad.is_none(),
            false,
            || bad.unwrap_or_default(),
        );
    }

    // Per class, naive estimates agree with CC's sampler on the same urn.
    let _s = span("check.cc_sampler", seed);
    let mut occ = vec![0u64; registry.len()];
    let mut sampler = CcSampler::new(cc, g, seed ^ 0xcc);
    let mut rows = Vec::new();
    for _ in 0..p.cc_samples {
        let verts = sampler.sample_copy();
        g.induced_rows_into(&verts, &mut rows);
        occ[registry.classify(&Graphlet::from_rows(&rows))] += 1;
    }
    let t_ours = urn.total_treelets() as f64;
    let t_cc = cc.total_rooted() as f64 / K as f64;
    for (i, &cc_occ) in occ.iter().enumerate() {
        let sigma = registry.info(i).spanning_trees as f64;
        let a = Estimate::uniform(ours[i], p.naive_samples, t_ours / sigma);
        let b = Estimate::uniform(cc_occ, p.cc_samples, t_cc / sigma);
        ledger.check(
            "naive estimate agrees with CC's sampler",
            checks::agree(a, b),
            false,
            || {
                format!(
                    "class {i}: {:.4e} vs {:.4e}, z = {:.1}",
                    a.value,
                    b.value,
                    checks::z_score(a, b)
                )
            },
        );
    }
}

fn prepare_fixed(g: &Graph) -> FixedAgs<'_> {
    let _s = span("prep.fixed_ags", 0);
    let urn =
        build_urn(g, &BuildConfig::new(K).seed(fixed_ags::COLORING_SEED)).expect("fixed AGS urn");
    let mut registry = GraphletRegistry::with_enumeration(K as u8);
    let n = fixed_ags::REFERENCE_SAMPLES;
    let est = naive_estimates(
        &urn,
        &mut registry,
        n,
        &SampleConfig::seeded(fixed_ags::REFERENCE_SEED),
    );
    let t = urn.total_treelets() as f64;
    let reference = (0..registry.len())
        .map(|i| {
            let occ = est.get(i).map_or(0, |e| e.occurrences);
            Estimate::uniform(occ, n, t / registry.info(i).spanning_trees as f64)
        })
        .collect();
    FixedAgs { urn, reference }
}

fn ags_config(samples: u64, seed: u64) -> AgsConfig {
    AgsConfig {
        max_samples: samples,
        sample: SampleConfig::seeded(seed),
        ..AgsConfig::default()
    }
}

fn timed_ags(
    urn: &Urn<'_>,
    registry: &mut GraphletRegistry,
    cfg: &AgsConfig,
    log: &mut Log,
) -> AgsResult {
    let t0 = Instant::now();
    let res = {
        let _s = span("core.ags", cfg.sample.seed);
        ags(urn, registry, cfg)
    };
    log.ags_s.push(t0.elapsed().as_secs_f64());
    log.ags_last = Some((res.estimates.samples, res.switches, res.covered));
    res
}

/// AGS on the fixed instance: for each class AGS covered, its colorful
/// estimate must agree with the naive reference on the same urn. These
/// checks fail on the current code (known fault).
fn ags_fixed_stage(
    p: &Profile,
    f: &FixedAgs<'_>,
    report: bool,
    ledger: &mut Ledger,
    log: &mut Log,
) {
    let mut registry = GraphletRegistry::with_enumeration(K as u8);
    let cfg = ags_config(p.ags_samples, fixed_ags::AGS_SEED);
    let res = timed_ags(&f.urn, &mut registry, &cfg, log);
    for e in res
        .estimates
        .per_graphlet
        .iter()
        .filter(|e| e.occurrences >= cfg.c_bar)
    {
        let a = Estimate::weighted(e.colorful, e.occurrences);
        let b = f.reference[e.index];
        let z = checks::z_score(a, b);
        if report {
            eprintln!(
                "perfbench: AGS class {:>2} ({} hits): colorful {:.4e} vs naive {:.4e}, rel. error {:+.3}, z = {:.1}",
                e.index,
                e.occurrences,
                a.value,
                b.value,
                a.value / b.value - 1.0,
                z
            );
        }
        ledger.check(
            "AGS estimate of a covered class agrees with naive",
            checks::agree(a, b),
            true,
            || {
                format!(
                    "class {}: rel. error {:+.3}, z = {z:.1}",
                    e.index,
                    a.value / b.value - 1.0
                )
            },
        );
    }
}

/// AGS on a serving urn with a fixed seed: how long AGS runs depends on
/// the coloring (each shape switch rebuilds an alias table), so the
/// input is kept the same in every run. The run must account for every
/// sample and give finite positive estimates.
fn ags_serving_stage(p: &Profile, urn: &Urn<'_>, ledger: &mut Ledger, log: &mut Log) {
    let mut registry = GraphletRegistry::with_enumeration(K as u8);
    let res = timed_ags(
        urn,
        &mut registry,
        &ags_config(p.ags_samples, fixed_ags::AGS_SEED),
        log,
    );
    let used: u64 = res.shape_usage.iter().sum();
    let ok = used == res.estimates.samples
        && res.estimates.samples <= p.ags_samples
        && res.covered <= res.estimates.per_graphlet.len()
        && res
            .estimates
            .per_graphlet
            .iter()
            .all(|e| e.colorful.is_finite() && e.colorful > 0.0);
    ledger.check(
        "AGS accounts for its samples with finite estimates",
        ok,
        false,
        || {
            format!(
                "{} samples, usage {used}, covered {}",
                res.estimates.samples, res.covered
            )
        },
    );
}

fn end_to_end(log: &Log) -> Metrics {
    let s = &log.serve;
    let mut m = Metrics::default();
    m.set("setup_s", median(&log.setup_s), "s");
    m.set("build_s", median(&log.build_s), "s");
    m.set("peak_rss_mb", log.peak_rss_bytes / (1 << 20) as f64, "MiB");
    m.set(
        "table_mb",
        median(&log.table_bytes) / (1 << 20) as f64,
        "MiB",
    );
    m.set("naive_samples_per_s", median(&log.naive_rate), "1/s");
    m.set("ags_s", median(&log.ags_s), "s");
    m.set("cold_p50_ms", quantile(&s.cold_lat, 0.5) * 1e3, "ms");
    m.set("cold_p90_ms", quantile(&s.cold_lat, 0.9) * 1e3, "ms");
    m.set("cold_qps", median(&s.cold_qps), "1/s");
    m.set("hit_p50_us", quantile(&s.hit_lat, 0.5) * 1e6, "us");
    m.set("hit_qps", median(&s.hit_qps), "1/s");
    m.set("reload_p50_ms", quantile(&s.reload_lat, 0.5) * 1e3, "ms");
    m.set("catchup_s", median(&s.catchup_s), "s");
    m
}
