//! The serving and replication stages: a loopback leader `Server` over an
//! `UrnStore`, driven by closed-loop clients, and an empty replica that
//! catches up from it each round.

use crate::checks;
use crate::pipeline::K;
use crate::trace::{span, span_under};
use crate::Ledger;
use motivo_core::{BuildConfig, SampleConfig};
use motivo_graph::Graph;
use motivo_graphlet::GraphletRegistry;
use motivo_server::{proto, Client, ServeOptions, Server};
use motivo_store::{BuildStatus, StoreOptions, StoreQuery, UrnId, UrnStore};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Closed-loop clients; each waits for its reply before sending again.
const CLIENTS: usize = 2;
/// The cold and hit phases are each sent in this many bursts per round;
/// their rates are the median burst's, which a passing burst of load
/// elsewhere on the machine does not move.
const BURSTS: u64 = 4;
const CATCHUP_TIMEOUT: Duration = Duration::from_secs(60);
/// Requests of the reload phase per round, and their samples.
const RELOADS: u64 = 24;
const RELOAD_SAMPLES: u64 = 200;
/// Samples of each replica read.
const REPL_SAMPLES: u64 = 500;

/// How much each serving phase sends per round.
pub struct Shape {
    /// Urns built into the leader store before the first round.
    pub serving_urns: usize,
    /// Urns the store's LRU budget holds (fewer than `serving_urns`, so a
    /// round-robin over all of them reloads on every request).
    pub lru_urns: usize,
    pub cold: u64,
    pub cold_samples: u64,
    pub hits: u64,
    pub hit_samples: u64,
    pub repl_reads: u64,
}

/// Raw serving measurements, pooled over rounds.
#[derive(Default)]
pub struct ServeLog {
    pub cold_lat: Vec<f64>,
    pub cold_qps: Vec<f64>,
    pub hit_lat: Vec<f64>,
    pub hit_qps: Vec<f64>,
    pub reload_lat: Vec<f64>,
    pub catchup_s: Vec<f64>,
    pub connect_s: Vec<f64>,
    pub files_fetched: Vec<f64>,
    pub bytes_fetched: Vec<f64>,
    /// The leader store's LRU hits and misses during each round's serving
    /// phases (the checks' own in-process lookups excluded).
    pub lru_hits: Vec<f64>,
    pub lru_misses: Vec<f64>,
    /// A few served response envelopes, kept for the per-layer protocol
    /// timings.
    pub frames: Vec<String>,
}

struct Req {
    id: u64,
    urn: UrnId,
    samples: u64,
    seed: u64,
}

impl Req {
    fn text(&self) -> String {
        format!(
            "{{\"id\":{},\"type\":\"NaiveEstimates\",\"urn\":{},\"samples\":{},\"seed\":{}}}",
            self.id, self.urn.0, self.samples, self.seed
        )
    }
}

struct Reply {
    id: u64,
    secs: f64,
    envelope: Result<String, String>,
}

/// The leader: store, loopback server and its connected clients.
pub struct Leader {
    pub store: Arc<UrnStore>,
    server: Option<Server>,
    pub clients: Vec<Client>,
    pub urns: Vec<UrnId>,
    next_id: u64,
}

impl Leader {
    /// Builds `shape.serving_urns` urns into a fresh store under `dir`
    /// with `cfg(i)`, then reopens the store with an LRU budget that holds
    /// `shape.lru_urns` of them and starts a loopback server.
    pub fn open(dir: &Path, g: &Graph, shape: &Shape, cfg: impl Fn(u64) -> BuildConfig) -> Leader {
        let (urns, bytes) = {
            let store = UrnStore::open(dir).expect("open leader store");
            let mut urns = Vec::new();
            for i in 0..shape.serving_urns as u64 {
                let _s = span("store.build", 0);
                let h = store
                    .build_or_get(g, &cfg(i))
                    .expect("enqueue serving build");
                h.wait().expect("serving build");
                urns.push(h.id());
            }
            let bytes = store.get(urns[0]).expect("serving urn").bytes();
            (urns, bytes)
        };
        let opts = StoreOptions {
            cache_bytes: bytes * shape.lru_urns + bytes / 2,
            ..StoreOptions::default()
        };
        let store = Arc::new(UrnStore::open_with(dir, opts).expect("reopen leader store"));
        let server = Server::bind(
            store.clone(),
            "127.0.0.1:0",
            ServeOptions::builder()
                .queue_depth(64)
                .build()
                .expect("serve options"),
        )
        .expect("bind leader");
        let clients = (0..CLIENTS)
            .map(|_| Client::connect(server.addr()).expect("connect leader"))
            .collect();
        Leader {
            store,
            server: Some(server),
            clients,
            urns,
            next_id: 1,
        }
    }

    fn addr(&self) -> String {
        self.server
            .as_ref()
            .expect("server running")
            .addr()
            .to_string()
    }

    fn req(&mut self, urn: UrnId, samples: u64, seed: u64) -> Req {
        self.next_id += 1;
        Req {
            id: self.next_id,
            urn,
            samples,
            seed,
        }
    }

    /// Sends `reqs` spread over the clients; returns the replies and the
    /// phase's wall time.
    fn phase(&mut self, name: &'static str, reqs: &[Req]) -> (Vec<Reply>, f64) {
        let guard = span(name, 0);
        let parent = guard.id();
        let t0 = Instant::now();
        let n = self.clients.len();
        let mut replies: Vec<Reply> = std::thread::scope(|s| {
            let handles: Vec<_> = self
                .clients
                .iter_mut()
                .enumerate()
                .map(|(ci, client)| {
                    let mine: Vec<(u64, String)> = reqs
                        .iter()
                        .skip(ci)
                        .step_by(n)
                        .map(|r| (r.id, r.text()))
                        .collect();
                    s.spawn(move || {
                        let mut out = Vec::with_capacity(mine.len());
                        for (id, text) in mine {
                            let _s = span_under("client.request", id, parent);
                            let r0 = Instant::now();
                            let envelope = client.send_raw(&text).map_err(|e| e.to_string());
                            out.push(Reply {
                                id,
                                secs: r0.elapsed().as_secs_f64(),
                                envelope,
                            });
                        }
                        out
                    })
                })
                .collect();
            handles
                .into_iter()
                .flat_map(|h| h.join().expect("client thread"))
                .collect()
        });
        let wall = t0.elapsed().as_secs_f64();
        replies.sort_by_key(|r| r.id);
        (replies, wall)
    }

    /// Sends `reqs` in `BURSTS` phases, logging each phase's request rate.
    fn bursts(&mut self, name: &'static str, reqs: &[Req], qps: &mut Vec<f64>) -> Vec<Reply> {
        let size = reqs.len().div_ceil(BURSTS as usize).max(1);
        let mut replies = Vec::with_capacity(reqs.len());
        for burst in reqs.chunks(size) {
            let (r, wall) = self.phase(name, burst);
            qps.push(burst.len() as f64 / wall);
            replies.extend(r);
        }
        replies
    }

    /// The in-process answer to the same request, serialized the way the
    /// server serializes it.
    fn reference(&self, r: &Req) -> Result<String, String> {
        let _s = span("check.in_process", r.id);
        let mut registry = GraphletRegistry::new(K as u8);
        let est = StoreQuery::new(&self.store)
            .naive_estimates(
                r.urn,
                &mut registry,
                r.samples,
                &SampleConfig::seeded(r.seed),
            )
            .map_err(|e| e.to_string())?;
        Ok(serde_json::to_string(&proto::estimates_json(&est, &registry)).expect("serialize"))
    }

    fn query_cache_hits(&mut self) -> Option<u64> {
        let stats = self.clients[0].stats(None).ok()?;
        stats.get("query_cache")?.get("hits")?.as_u64()
    }

    /// One round of the three serving phases: cold requests with distinct
    /// seeds, repeats of one request (query-cache hits), and a round-robin
    /// over more urns than the LRU holds (urn reloads). Every reply is
    /// checked after the phases, untimed.
    pub fn serve_round(
        &mut self,
        shape: &Shape,
        round: u64,
        seed: u64,
        ledger: &mut Ledger,
        log: &mut ServeLog,
    ) {
        let base = seed.wrapping_mul(1_000_003).wrapping_add(round << 24);
        let urn0 = self.urns[0];
        let lru_before = self.store.cache_stats();
        // Warm-up: loads urn 0 and fills the cache entry the hit phase reads.
        let warm = self.req(urn0, shape.hit_samples, base);
        let (warm_reply, _) = self.phase("serve.warm", std::slice::from_ref(&warm));

        let cold: Vec<Req> = (0..shape.cold)
            .map(|i| self.req(urn0, shape.cold_samples, base + 1 + i))
            .collect();
        let cold_replies = self.bursts("serve.cold", &cold, &mut log.cold_qps);
        log.cold_lat.extend(cold_replies.iter().map(|r| r.secs));

        let hits_before = self.query_cache_hits();
        let hits: Vec<Req> = (0..shape.hits)
            .map(|_| self.req(urn0, shape.hit_samples, base))
            .collect();
        let hit_replies = self.bursts("serve.hit", &hits, &mut log.hit_qps);
        log.hit_lat.extend(hit_replies.iter().map(|r| r.secs));
        let hits_after = self.query_cache_hits();

        let ring: Vec<UrnId> = self
            .urns
            .iter()
            .cycle()
            .skip(1)
            .take(self.urns.len())
            .copied()
            .collect();
        let reloads: Vec<Req> = (0..RELOADS)
            .map(|i| {
                let urn = ring[i as usize % ring.len()];
                self.req(urn, RELOAD_SAMPLES, base + 1 + shape.cold + i)
            })
            .collect();
        let (reload_replies, _) = self.phase("serve.reload", &reloads);
        log.reload_lat.extend(reload_replies.iter().map(|r| r.secs));
        let lru_after = self.store.cache_stats();
        log.lru_hits.push((lru_after.hits - lru_before.hits) as f64);
        log.lru_misses
            .push((lru_after.misses - lru_before.misses) as f64);

        // Checks.
        let warm_payload = self.check_reply(&warm, &warm_reply[0], ledger, log);
        for (r, reply) in cold.iter().zip(&cold_replies) {
            self.check_reply(r, reply, ledger, log);
        }
        for (r, reply) in reloads.iter().zip(&reload_replies) {
            self.check_reply(r, reply, ledger, log);
        }
        for (r, reply) in hits.iter().zip(&hit_replies) {
            let served = reply
                .envelope
                .as_deref()
                .ok()
                .and_then(|e| checks::ok_payload(e, r.id));
            let ok = matches!((served, &warm_payload), (Some(s), Some(w)) if checks::payload_matches(s, w));
            ledger.check("hit payload equals its cold payload", ok, false, || {
                format!(
                    "request {}: {:?}",
                    r.id,
                    reply.envelope.as_ref().map(|e| e.len())
                )
            });
        }
        let hit = matches!((hits_before, hits_after), (Some(a), Some(b)) if b >= a + shape.hits);
        ledger.check(
            "Stats shows the hit phase hit the query cache",
            hit,
            false,
            || {
                format!(
                    "query_cache.hits {hits_before:?} -> {hits_after:?}, {} hits sent",
                    shape.hits
                )
            },
        );
    }

    /// Checks one estimate reply against the in-process reference; returns
    /// the served payload if it was an `ok` envelope.
    fn check_reply(
        &self,
        r: &Req,
        reply: &Reply,
        ledger: &mut Ledger,
        log: &mut ServeLog,
    ) -> Option<String> {
        let reference = self.reference(r);
        let served = reply
            .envelope
            .as_deref()
            .ok()
            .and_then(|e| checks::ok_payload(e, r.id))
            .map(str::to_string);
        let ok = match (&served, &reference) {
            (Some(s), Ok(want)) => {
                checks::payload_matches(s, want)
                    && serde_json::from_str(s)
                        .map(|v| checks::occurrences_sum_to(&v, r.samples))
                        .unwrap_or(false)
            }
            _ => false,
        };
        ledger.check(
            "served payload equals in-process estimates",
            ok,
            false,
            || {
                format!(
                    "request {} urn {} seed {}: served {:?}",
                    r.id, r.urn, r.seed, reply.envelope
                )
            },
        );
        if let (Ok(env), true) = (&reply.envelope, log.frames.len() < 32) {
            log.frames.push(env.clone());
        }
        served
    }

    /// Starts an empty replica of this leader, waits until it has caught
    /// up with every built urn, checks its files and reads against the
    /// leader's, then stops it.
    pub fn replicate_round(
        &mut self,
        dir: &Path,
        shape: &Shape,
        round: u64,
        seed: u64,
        ledger: &mut Ledger,
        log: &mut ServeLog,
    ) {
        let rdir: PathBuf = dir.join(format!("replica-{round}"));
        let built: Vec<UrnId> = self
            .store
            .list()
            .into_iter()
            .filter(|m| m.status == BuildStatus::Built)
            .map(|m| m.id)
            .collect();
        let catchup = span("repl.catchup", round);
        let t0 = Instant::now();
        let rstore = Arc::new(
            UrnStore::open_replica(&rdir, StoreOptions::default()).expect("open replica store"),
        );
        let replica = Server::bind(
            rstore.clone(),
            "127.0.0.1:0",
            ServeOptions::builder()
                .replica_of(self.addr())
                .repl_poll_ms(2)
                .build()
                .expect("replica options"),
        )
        .expect("bind replica");
        let mut client = Client::connect(replica.addr()).expect("connect replica");
        let mut connected_at = None;
        let mut files_fetched = 0u64;
        let caught_up = loop {
            let status = client.repl_status().ok();
            let sync = status.as_ref().and_then(|s| s.get("sync"));
            let flag = |key: &str| {
                sync.as_ref()
                    .and_then(|s| s.get(key))
                    .and_then(|v| v.as_bool())
                    == Some(true)
            };
            if connected_at.is_none() && flag("connected") {
                connected_at = Some(t0.elapsed().as_secs_f64());
            }
            if flag("caught_up") {
                let held = client
                    .list_urns()
                    .map(|u| u.urns.iter().filter(|row| row.status == "built").count())
                    .unwrap_or(0);
                if held == built.len() {
                    files_fetched = sync
                        .as_ref()
                        .and_then(|s| s.get("files_fetched"))
                        .and_then(|v| v.as_u64())
                        .unwrap_or(0);
                    break true;
                }
            }
            if t0.elapsed() > CATCHUP_TIMEOUT {
                break false;
            }
            std::thread::sleep(Duration::from_micros(500));
        };
        let secs = t0.elapsed().as_secs_f64();
        drop(catchup);
        ledger.check("replica catches up", caught_up, false, || {
            format!("not caught up after {secs:.1} s")
        });
        log.catchup_s.push(secs);
        log.connect_s.push(connected_at.unwrap_or(secs));
        log.files_fetched.push(files_fetched as f64);

        let mut bytes = 0u64;
        for &id in &built {
            let leader = self.store.urn_file_list(id).unwrap_or_default();
            let mirror = rstore.urn_file_list(id).unwrap_or_default();
            bytes += mirror.iter().map(|f| f.len).sum::<u64>();
            ledger.check(
                "replica urn files equal the leader's",
                checks::file_lists_match(&leader, &mirror),
                false,
                || format!("{id}: leader {leader:?} replica {mirror:?}"),
            );
        }
        log.bytes_fetched.push(bytes as f64);

        let base = seed.wrapping_mul(1_000_003).wrapping_add(round << 24) + (1 << 20);
        for i in 0..shape.repl_reads {
            let r = self.req(built[i as usize % built.len()], REPL_SAMPLES, base + i);
            let text = r.text();
            let from_leader = self.clients[0].send_raw(&text).map_err(|e| e.to_string());
            let from_replica = client.send_raw(&text).map_err(|e| e.to_string());
            let ok = match (&from_leader, &from_replica) {
                (Ok(a), Ok(b)) => {
                    checks::ok_payload(a, r.id).is_some() && checks::payload_matches(a, b)
                }
                _ => false,
            };
            ledger.check("replica read equals the leader's", ok, false, || {
                format!(
                    "request {}: leader {from_leader:?} replica {from_replica:?}",
                    r.id
                )
            });
        }
        drop(client);
        replica.shutdown();
        replica.join();
        drop(rstore);
        std::fs::remove_dir_all(&rdir).ok();
    }

    /// Stops the server and waits for it.
    pub fn close(&mut self) {
        self.clients.clear();
        if let Some(server) = self.server.take() {
            server.shutdown();
            server.join();
        }
    }
}
