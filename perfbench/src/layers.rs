//! Per-layer metrics of the traced run: timed calls into each layer's
//! public functions, made from the benchmark's own code on the
//! workload's own urn, store and frames, plus self times of the spans the
//! rounds recorded.

use crate::pipeline::{BuildPath, Log, Profile, K};
use crate::serve::Leader;
use crate::stats::{median, quantile};
use crate::trace::{self, span};
use crate::Metrics;
use motivo_core::{
    build_urn, load_urn, sample_tally, save_urn, BuildConfig, SampleConfig, Sampler, SoaTally, Urn,
};
use motivo_graph::Graph;
use motivo_graphlet::{Graphlet, GraphletRegistry};
use motivo_server::{proto, Response};
use motivo_store::StoreQuery;
use motivo_table::storage::StorageKind;
use motivo_table::AliasTable;
use rand::rngs::SmallRng;
use rand::SeedableRng;
use serde_json::Value;
use std::hint::black_box;
use std::path::Path;
use std::time::Instant;

/// Copies drawn by the single-thread sampler probes.
const PROBE_COPIES: usize = 20_000;
/// Root draws timed by the alias probe.
const ALIAS_DRAWS: usize = 2_000_000;
/// Samples per thread setting in the speed-up probe.
const SPEEDUP_SAMPLES: u64 = 20_000;
const PERSIST_REPS: usize = 3;
/// Shortest time a kernel loop is timed for.
const MIN_PROBE_SECS: f64 = 0.1;

/// Process-wide resident-set high-water mark (`VmHWM`) in bytes; 0 where
/// `/proc` is unavailable.
pub fn peak_rss_bytes() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kb| kb * 1024.0)
}

fn secs(t0: Instant) -> f64 {
    t0.elapsed().as_secs_f64()
}

/// Runs every layer probe once, at the end of the last traced round.
pub fn probe(
    p: &Profile,
    g: &Graph,
    urn: &Urn<'_>,
    leader: &mut Leader,
    dir: &Path,
    log: &mut Log,
) {
    let m = &mut log.layers;
    build_probe(p, g, dir, m);
    kernel_probes(urn, m);
    store_probes(leader, m);
    proto_probes(leader, &log.serve.frames, p.serve.cold_samples, m);
}

/// A direct build with the workload's storage path: per-level DP times,
/// merge work, storage layout, and a save/load round trip.
fn build_probe(p: &Profile, g: &Graph, dir: &Path, m: &mut Metrics) {
    let build_dir = dir.join("probe-build");
    let cfg = BuildConfig::new(K).seed(0xb0);
    let cfg = match p.build {
        BuildPath::Memory(codec) => cfg.codec(codec),
        BuildPath::Store(None) => cfg.storage(StorageKind::Disk {
            dir: build_dir.clone(),
        }),
        BuildPath::Store(Some(budget)) => cfg.build_mem_bytes(&build_dir, budget),
    };
    let urn = {
        let _s = span("probe.build_urn", 0);
        build_urn(g, &cfg).expect("probe build")
    };
    let st = urn.build_stats();
    for (i, d) in st.per_level.iter().enumerate() {
        m.set(format!("build.level_s.{}", i + 2), d.as_secs_f64(), "s");
    }
    m.set("build.merge_ops", st.merge_ops as f64, "count");
    m.set(
        "build.merge_ops_per_s",
        st.merge_ops as f64 / st.total.as_secs_f64(),
        "1/s",
    );
    m.set("build.records", st.records as f64, "count");
    m.set("storage.spill_runs", st.spill_runs as f64, "count");
    m.set("storage.peak_memtable_bytes", st.peak_mem_bytes as f64, "B");
    let blocks: u32 = (1..=K).map(|h| urn.table().level(h).profile().blocks).sum();
    m.set("storage.blocks", blocks as f64, "count");
    m.set(
        "table.bits_per_node",
        st.table_bytes as f64 * 8.0 / g.num_nodes() as f64,
        "bit",
    );

    let (mut save, mut load) = (Vec::new(), Vec::new());
    for i in 0..PERSIST_REPS {
        let to = dir.join(format!("probe-saved-{i}"));
        let t0 = Instant::now();
        {
            let _s = span("persist.save_urn", 0);
            save_urn(&urn, &to).expect("save urn");
        }
        save.push(secs(t0));
        let t0 = Instant::now();
        {
            let _s = span("persist.load_urn", 0);
            black_box(load_urn(g, &to).expect("load urn"));
        }
        load.push(secs(t0));
        std::fs::remove_dir_all(&to).ok();
    }
    m.set("persist.save_s", median(&save), "s");
    m.set("persist.load_s", median(&load), "s");
    drop(urn);
    std::fs::remove_dir_all(&build_dir).ok();
}

/// Decode, alias, sampler, classify, tally and parallel-speed-up timings
/// on the round's urn.
fn kernel_probes(urn: &Urn<'_>, m: &mut Metrics) {
    let k = urn.k();
    let t0 = Instant::now();
    let mut entries = 0u64;
    {
        let _s = span("probe.table_decode", 0);
        while secs(t0) < MIN_PROBE_SECS {
            for item in urn.table().level(k).scan() {
                let (_, rec) = item.expect("level scan");
                for e in rec.iter() {
                    black_box(e);
                    entries += 1;
                }
            }
        }
    }
    m.set(
        "table.decode_entries_per_s",
        entries as f64 / secs(t0),
        "1/s",
    );

    let mut rng = SmallRng::seed_from_u64(0xa1);
    let alias = urn.root_alias();
    let t0 = Instant::now();
    {
        let _s = span("probe.alias_sample", 0);
        for _ in 0..ALIAS_DRAWS {
            black_box(alias.sample(&mut rng));
        }
    }
    m.set("alias.draws_per_s", ALIAS_DRAWS as f64 / secs(t0), "1/s");

    let mut sampler = Sampler::new(urn, SampleConfig::seeded(0x5a));
    let mut copies: Vec<Vec<u32>> = (0..PROBE_COPIES)
        .map(|_| Vec::with_capacity(k as usize))
        .collect();
    let t0 = Instant::now();
    {
        let _s = span("probe.sample_copy_into", 0);
        for c in copies.iter_mut() {
            sampler.sample_copy_into(c);
        }
    }
    m.set("sample.copy_us", secs(t0) * 1e6 / PROBE_COPIES as f64, "us");

    let j = (0..urn.shapes().len())
        .max_by_key(|&j| urn.shape_total(j))
        .expect("at least one shape");
    let shape = urn.shapes()[j];
    let shape_alias = AliasTable::from_u128(&urn.shape_vertex_totals(shape));
    let mut out = Vec::with_capacity(k as usize);
    let t0 = Instant::now();
    {
        let _s = span("probe.sample_copy_of_shape_into", 0);
        for _ in 0..PROBE_COPIES {
            sampler.sample_copy_of_shape_into(shape, &shape_alias, &mut out);
            black_box(&out);
        }
    }
    m.set(
        "sample.shape_copy_us",
        secs(t0) * 1e6 / PROBE_COPIES as f64,
        "us",
    );

    let g = urn.graph();
    let mut registry = GraphletRegistry::new(k as u8);
    let mut rows = Vec::with_capacity(k as usize);
    let mut raws = Vec::with_capacity(PROBE_COPIES);
    let (t0, mut n) = (Instant::now(), 0usize);
    {
        let _s = span("probe.classify", 0);
        while n == 0 || secs(t0) < MIN_PROBE_SECS {
            raws.clear();
            for c in &copies {
                g.induced_rows_into(c, &mut rows);
                let raw = Graphlet::from_rows(&rows);
                black_box(registry.canonical_code(&raw));
                raws.push(raw);
            }
            n += copies.len();
        }
    }
    m.set("graphlet.classify_ns", secs(t0) * 1e9 / n as f64, "ns");

    let (t0, mut n) = (Instant::now(), 0usize);
    {
        let _s = span("probe.tally_add", 0);
        while n == 0 || secs(t0) < MIN_PROBE_SECS {
            let mut tally = SoaTally::new(k as u8);
            for raw in &raws {
                tally.add(raw);
            }
            black_box(tally.distinct_raw());
            n += raws.len();
        }
    }
    m.set("tally.add_ns", secs(t0) * 1e9 / n as f64, "ns");

    let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    let rate = |t: usize| {
        let _s = span("probe.sample_tally", t as u64);
        let t0 = Instant::now();
        black_box(sample_tally(
            urn,
            SPEEDUP_SAMPLES,
            &SampleConfig::seeded(0x7a).threads(t),
        ));
        SPEEDUP_SAMPLES as f64 / secs(t0)
    };
    let one = rate(1);
    m.set("parallel.speedup", rate(threads) / one, "x");
    m.set("parallel.threads", threads as f64, "count");
}

/// Store cache timings: a resident `get`, and a `get` after eviction.
fn store_probes(leader: &Leader, m: &mut Metrics) {
    let store = &leader.store;
    let id = leader.urns[0];
    store.get(id).expect("warm urn");
    let n = 1_000;
    let t0 = Instant::now();
    {
        let _s = span("probe.store_get_resident", 0);
        for _ in 0..n {
            black_box(store.get(id).expect("resident get"));
        }
    }
    m.set("store.get_resident_us", secs(t0) * 1e6 / n as f64, "us");
    let mut evicted = Vec::new();
    for _ in 0..5 {
        store.evict(id);
        let _s = span("probe.store_get_evicted", 0);
        let t0 = Instant::now();
        black_box(store.get(id).expect("reload get"));
        evicted.push(secs(t0));
    }
    m.set("store.get_evicted_ms", median(&evicted) * 1e3, "ms");
}

/// Protocol parse/encode on the workload's own frames, and the inline
/// ping round trip.
fn proto_probes(leader: &mut Leader, served: &[String], samples: u64, m: &mut Metrics) {
    let reps = 20;
    let t0 = Instant::now();
    {
        let _s = span("probe.proto_parse", 0);
        for _ in 0..reps {
            for f in served {
                let v: Value = serde_json::from_str(f).expect("served frame parses");
                let ok = v.get("ok").expect("ok envelope");
                black_box(Response::parse("NaiveEstimates", &ok).expect("typed reply"));
            }
        }
    }
    m.set(
        "proto.parse_us",
        secs(t0) * 1e6 / (reps * served.len().max(1)) as f64,
        "us",
    );

    let mut registry = GraphletRegistry::new(K as u8);
    let est = StoreQuery::new(&leader.store)
        .naive_estimates(
            leader.urns[0],
            &mut registry,
            samples,
            &SampleConfig::seeded(0xe0),
        )
        .expect("in-process estimates");
    let n = 2_000;
    let t0 = Instant::now();
    {
        let _s = span("probe.proto_encode", 0);
        for _ in 0..n {
            black_box(
                serde_json::to_string(&proto::estimates_json(&est, &registry)).expect("encode"),
            );
        }
    }
    m.set("proto.encode_us", secs(t0) * 1e6 / n as f64, "us");

    let mut ping = Vec::new();
    for _ in 0..500 {
        let _s = span("probe.ping", 0);
        let t0 = Instant::now();
        leader.clients[0].ping().expect("ping");
        ping.push(secs(t0));
    }
    m.set("server.ping_rtt_us", median(&ping) * 1e6, "us");
}

/// Assembles the per-layer metrics after the last traced round.
pub fn metrics(log: &Log, leader: &mut Leader) -> Metrics {
    let mut m = Metrics::default();
    for (name, (v, unit)) in &log.layers.0 {
        m.set(name.clone(), *v, unit);
    }
    let self_times = trace::self_times(&trace::spans());
    let span_median = |name: &str| self_times.get(name).map_or(f64::NAN, |v| median(v));
    m.set("graph.load_s", span_median("graph.load"), "s");
    m.set("store.build_s", span_median("store.build"), "s");

    let s = &log.serve;
    let hit_p50 = quantile(&s.hit_lat, 0.5) * 1e6;
    m.set("server.hit_p99_us", quantile(&s.hit_lat, 0.99) * 1e6, "us");
    let ping = m.0.get("server.ping_rtt_us").map_or(f64::NAN, |v| v.0);
    m.set("server.worker_hop_us", hit_p50 - ping, "us");
    let metrics = leader.clients[0].metrics().ok();
    let p50 = |key: &str| {
        metrics
            .as_ref()
            .and_then(|v| v.get(key))
            .and_then(|h| h.get("p50_us"))
            .and_then(|x| x.as_u64())
            .map_or(f64::NAN, |x| x as f64)
    };
    m.set("server.queue_wait_us", p50("queue_wait"), "us");
    m.set("server.service_us", p50("service"), "us");
    let stats = leader.clients[0].stats(None).ok();
    let qc = |key: &str| {
        stats
            .as_ref()
            .and_then(|v| v.get("query_cache"))
            .and_then(|q| q.get(key))
            .and_then(|x| x.as_u64())
            .map_or(f64::NAN, |x| x as f64)
    };
    m.set("server.cache_hits", qc("hits"), "count");
    m.set("server.cache_misses", qc("misses"), "count");
    m.set("store.lru_hits", median(&s.lru_hits), "count");
    m.set("store.lru_misses", median(&s.lru_misses), "count");
    m.set("repl.connect_s", median(&s.connect_s), "s");
    m.set("repl.files_fetched", median(&s.files_fetched), "count");
    m.set("repl.bytes_fetched", median(&s.bytes_fetched), "B");
    if let Some((samples, switches, covered)) = log.ags_last {
        m.set("ags.samples", samples as f64, "count");
        m.set("ags.switches", switches as f64, "count");
        m.set("ags.covered", covered as f64, "count");
    }
    m
}
