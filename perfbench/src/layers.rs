//! The traced run's per-layer measurements. Every figure is timed or
//! counted around a public call, from outside the program: the service
//! call itself, the same request served by each underlying `Engine`, its
//! bare enumeration, and side copies of the database, representation,
//! shard engines and WAL fed the same deltas.

use crate::client::{Read, Samples};
use crate::fleet::{data_dir, Fleet};
use crate::inputs::{self, Inputs, PATTERN, QUERY, STRATEGY, VIEW};
use crate::sink::{FirstAnswer, Gaps};
use crate::stats::{median, quantile};
use crate::trace::{self_times, Tracer};
use cqc_common::error::Result;
use cqc_common::metrics::{self, BuildPhaseSnapshot};
use cqc_common::Value;
use cqc_core::{CompressedView, MaintainOutcome, Strategy};
use cqc_durable::DurableStore;
use cqc_engine::{BlockService, Engine};
use cqc_query::parser::parse_adorned;
use cqc_query::AdornedView;
use cqc_storage::{Database, Delta, Epoch};
use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Side copies of `sharded-write`'s shards: one engine per shard with its
/// own data directory (the slowest per-shard `Engine::update`), and one
/// bare WAL store per shard (`DurableStore::log`).
struct SideShards {
    engines: Vec<Engine>,
    stores: Vec<DurableStore>,
    dir: PathBuf,
}

/// Per-layer samples and the side state they are measured on.
pub struct Layers {
    tracer: Arc<Tracer>,
    view: AdornedView,
    side_db: Database,
    side_view: CompressedView,
    side_shards: Option<SideShards>,
    op_span: u64,
    builds_before: u64,
    wire_before: u64,
    wal_before: u64,
    updates: u64,

    build: BuildPhaseSnapshot,
    split_db_ms: f64,

    enum_us: Vec<f64>,
    enum_ttfa_us: Vec<f64>,
    enum_delay_us: Vec<f64>,
    enum_answers: u64,
    enum_requests: u64,
    trie_seeks: u64,
    dict_lookups: u64,
    serve_us: Vec<f64>,
    overhead_us: Vec<f64>,
    builds_during_reads: u64,
    engine_update_ms: Vec<f64>,
    maintained: u64,
    rebuilt: u64,
    restamped: u64,
    shard_ttfa_us: Vec<f64>,
    merge_us: Vec<f64>,
    fanout_ms: Vec<f64>,
    apply_ms: Vec<f64>,
    split_delta_us: Vec<f64>,
    maintain_ms: Vec<f64>,
    log_us: Vec<f64>,
    server_serve_us: Vec<f64>,
    client_overhead_us: Vec<f64>,
    ttfa_added_us: Vec<f64>,
    wire_bytes: u64,
    wire_answers: u64,
    net_update_ms: Vec<f64>,
}

fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

fn tau_strategy() -> Strategy {
    Strategy::Tradeoff {
        tau: 1000.0,
        weights: None,
    }
}

/// The bare enumeration of one request on `engine`, timed with a
/// first-answer sink: (wall, ttfa, answers, seeks, dictionary lookups).
fn enumerate(engine: &Engine, bound: &[Value]) -> Result<(Duration, Duration, usize, u64, u64)> {
    let m0 = metrics::snapshot();
    let mut sink = FirstAnswer::default();
    let t0 = Instant::now();
    engine.with_view_enumerator(VIEW, |e| e.answer_into(bound, &mut sink))??;
    let t1 = Instant::now();
    let m = metrics::snapshot().delta_since(&m0);
    let ttfa = sink.first.unwrap_or(t1) - t0;
    Ok((t1 - t0, ttfa, sink.count, m.trie_seeks, m.dict_lookups))
}

/// The bare enumeration's §2.3 delay.
fn enumerate_delay(engine: &Engine, bound: &[Value]) -> Result<Duration> {
    let t0 = Instant::now();
    let mut sink = Gaps::new(t0);
    engine.with_view_enumerator(VIEW, |e| e.answer_into(bound, &mut sink))??;
    Ok(sink.finish(Instant::now()))
}

fn p(values: &[f64], q: f64) -> f64 {
    quantile(&mut values.to_vec(), q).unwrap_or(0.0)
}

impl Layers {
    /// Sets up the side copies, at the state the fleet reached after
    /// `applied` updates, and measures the set-up layers.
    pub fn new(
        fleet: &Fleet,
        inputs: &Inputs,
        tracer: Arc<Tracer>,
        applied: usize,
    ) -> Result<Layers> {
        let view = parse_adorned(QUERY, PATTERN)?;
        let mut side_db = inputs::database(&inputs.r, &inputs.s);
        // The write cycle returns to the start, so the fleet's state after
        // `applied` updates is the one after the first `applied % len`.
        for delta in &inputs.deltas[..applied % inputs.deltas.len()] {
            side_db.apply(delta)?;
        }
        // Build phases are thread-local: register once on this thread.
        let b0 = metrics::build_phases();
        Engine::new(side_db.clone()).register_view(VIEW, QUERY, PATTERN, STRATEGY)?;
        let build = metrics::build_phases().delta_since(&b0);
        let side_view = CompressedView::build(&view, &side_db, tau_strategy())?;
        let mut split_db_ms = 0.0;
        if let Some(part) = fleet.partitioning() {
            let mut times = Vec::new();
            for _ in 0..5 {
                let t0 = Instant::now();
                std::hint::black_box(part.split_database(&side_db)?);
                times.push(ms(t0.elapsed()));
            }
            split_db_ms = median(&mut times);
        }
        let side_shards = match fleet {
            Fleet::Sharded { engine, .. } => {
                let dir = data_dir("side");
                let _ = std::fs::remove_dir_all(&dir);
                let mut engines = Vec::new();
                let mut stores = Vec::new();
                for (s, db) in engine
                    .partitioning()
                    .split_database(&side_db)?
                    .into_iter()
                    .enumerate()
                {
                    let mut e = Engine::new(db);
                    e.attach_durable(dir.join(format!("engine{s}")))?;
                    e.register_view(VIEW, QUERY, PATTERN, STRATEGY)?;
                    let store = DurableStore::create(&dir.join(format!("log{s}")))?;
                    store.checkpoint(&e.db())?;
                    engines.push(e);
                    stores.push(store);
                }
                Some(SideShards {
                    engines,
                    stores,
                    dir,
                })
            }
            _ => None,
        };
        let wal_before = wal_bytes(fleet);
        Ok(Layers {
            tracer,
            view,
            side_db,
            side_view,
            side_shards,
            op_span: 0,
            builds_before: 0,
            wire_before: 0,
            wal_before,
            updates: 0,
            build,
            split_db_ms,
            enum_us: Vec::new(),
            enum_ttfa_us: Vec::new(),
            enum_delay_us: Vec::new(),
            enum_answers: 0,
            enum_requests: 0,
            trie_seeks: 0,
            dict_lookups: 0,
            serve_us: Vec::new(),
            overhead_us: Vec::new(),
            builds_during_reads: 0,
            engine_update_ms: Vec::new(),
            maintained: 0,
            rebuilt: 0,
            restamped: 0,
            shard_ttfa_us: Vec::new(),
            merge_us: Vec::new(),
            fanout_ms: Vec::new(),
            apply_ms: Vec::new(),
            split_delta_us: Vec::new(),
            maintain_ms: Vec::new(),
            log_us: Vec::new(),
            server_serve_us: Vec::new(),
            client_overhead_us: Vec::new(),
            ttfa_added_us: Vec::new(),
            wire_bytes: 0,
            wire_answers: 0,
            net_update_ms: Vec::new(),
        })
    }

    /// Times `f` as a root span of the current operation.
    fn span<T>(&self, name: &'static str, f: impl FnOnce() -> T) -> (T, Duration) {
        let t0 = Instant::now();
        let out = f();
        let t1 = Instant::now();
        self.tracer.root(self.tracer.id(), name, t0, t1);
        (out, t1 - t0)
    }

    /// Opens request `i`: its service call becomes the root span that
    /// server-side spans hang under.
    pub fn before_request(&mut self, fleet: &Fleet, i: u64) {
        self.tracer.begin(2 * i);
        self.op_span = self.tracer.id();
        self.tracer.set_parent(self.op_span);
        self.builds_before = fleet.builds();
        if let Fleet::Remote { router, .. } = fleet {
            self.wire_before = router.wire_bytes().0;
        }
    }

    fn close_op(&self, name: &'static str, t0: Instant, t1: Instant) {
        self.tracer.set_parent(0);
        self.tracer.root(self.op_span, name, t0, t1);
    }

    /// Closes a delay request (one timed with the per-answer sink); its
    /// span is kept apart from the latency requests'.
    pub fn after_delay_request(&self, t0: Instant, t1: Instant) {
        self.close_op("service.serve_into.gaps", t0, t1);
    }

    /// Closes a latency request that was answered correctly, then probes
    /// the layers under it with the same bound.
    pub fn after_request(
        &mut self,
        fleet: &Fleet,
        x: Value,
        read: &Read,
        t0: Instant,
        t1: Instant,
        first: Option<Instant>,
    ) {
        self.close_op("service.serve_into", t0, t1);
        let bound = [x];
        if let Fleet::Remote { router, .. } = fleet {
            self.wire_bytes += router.wire_bytes().0 - self.wire_before;
            self.wire_answers += read.answers as u64;
        }
        let wall = Duration::from_nanos(read.wall_ns);
        // The engine-level serve of this request: the call itself locally,
        // the slowest shard's `Engine::serve_into` when sharded, the
        // slowest server-side serve when remote.
        let engine_serve = match fleet {
            Fleet::Local(_) => Some(wall),
            Fleet::Sharded { engine, .. } => {
                let slowest = (0..engine.num_shards())
                    .filter_map(|s| {
                        let mut sink = FirstAnswer::default();
                        let (r, d) = self.span("engine.serve_into", || {
                            engine.shard(s).serve_into(VIEW, &bound, &mut sink)
                        });
                        r.ok().map(|_| d)
                    })
                    .max();
                if let Some(slowest) = slowest {
                    self.merge_us.push(us(wall.saturating_sub(slowest)));
                    self.shard_ttfa_us.push(read.ttfa_ns as f64 / 1e3);
                }
                slowest
            }
            Fleet::Remote { probes, .. } => {
                let obs: Vec<_> = probes.iter().filter_map(|p| p.take().serve).collect();
                let slowest = obs.iter().map(|(a, _, b)| *b - *a).max();
                let earliest = obs.iter().filter_map(|(_, f, _)| *f).min();
                if let Some(slowest) = slowest {
                    self.server_serve_us.push(us(slowest));
                    self.client_overhead_us
                        .push(us(wall.saturating_sub(slowest)));
                }
                if let (Some(client), Some(server)) = (first, earliest) {
                    self.ttfa_added_us
                        .push(us(client.saturating_duration_since(server)));
                }
                slowest
            }
        };
        // Bare enumeration on every engine holding the data; a request
        // through shards waits for the slowest one.
        let mut slowest = (Duration::ZERO, Duration::ZERO, Duration::ZERO);
        for engine in fleet.engines() {
            let (r, _) = self.span("core.enumerate", || enumerate(engine, &bound));
            if let Ok((wall, ttfa, answers, seeks, lookups)) = r {
                slowest.0 = slowest.0.max(wall);
                slowest.1 = slowest.1.max(ttfa);
                self.enum_answers += answers as u64;
                self.trie_seeks += seeks;
                self.dict_lookups += lookups;
            }
            if let Ok(d) = enumerate_delay(engine, &bound) {
                slowest.2 = slowest.2.max(d);
            }
        }
        self.enum_requests += 1;
        self.enum_us.push(us(slowest.0));
        self.enum_ttfa_us.push(us(slowest.1));
        self.enum_delay_us.push(us(slowest.2));
        if let Some(serve) = engine_serve {
            self.serve_us.push(us(serve));
            self.overhead_us.push(us(serve) - us(slowest.0));
        }
        self.builds_during_reads += fleet.builds() - self.builds_before;
    }

    /// Applies update `u` through the fleet's service, as a traced
    /// operation, then feeds the same delta to the side copies.
    pub fn update(&mut self, fleet: &Fleet, u: u64, delta: &Delta) -> Result<Vec<Epoch>> {
        self.tracer.begin(2 * u + 1);
        self.op_span = self.tracer.id();
        self.tracer.set_parent(self.op_span);
        self.updates += 1;
        let t0 = Instant::now();
        let result = match fleet {
            Fleet::Local(engine) => engine.update(delta).map(|r| {
                self.engine_update_ms.push(ms(t0.elapsed()));
                self.maintained += r.maintained as u64;
                self.rebuilt += r.rebuilt as u64;
                self.restamped += r.restamped as u64;
                vec![r.epoch]
            }),
            Fleet::Sharded { engine, .. } => engine.update(delta).map(|r| {
                self.maintained += r.maintained as u64;
                self.rebuilt += r.rebuilt as u64;
                self.restamped += r.restamped as u64;
                r.epochs
            }),
            Fleet::Remote { router, probes, .. } => router.apply_update(delta).inspect(|_| {
                self.net_update_ms.push(ms(t0.elapsed()));
                let obs: Vec<_> = probes.iter().filter_map(|p| p.take().update).collect();
                if let Some(slowest) = obs.iter().map(|(d, _)| *d).max() {
                    self.engine_update_ms.push(ms(slowest));
                }
                for (_, r) in obs {
                    self.maintained += r.maintained as u64;
                    self.rebuilt += r.rebuilt as u64;
                    self.restamped += r.restamped as u64;
                }
            }),
        };
        let t1 = Instant::now();
        self.close_op("service.apply_update", t0, t1);
        self.side_update(fleet, delta, t1 - t0)?;
        result
    }

    fn side_update(
        &mut self,
        fleet: &Fleet,
        delta: &Delta,
        service_update: Duration,
    ) -> Result<()> {
        let mut next = self.side_db.clone();
        let (applied, d) = self.span("storage.apply", || next.apply(delta));
        applied?;
        self.apply_ms.push(ms(d));
        let (outcome, d) = self.span("core.maintain", || {
            self.side_view.maintain(&self.view, &next, delta)
        });
        self.maintain_ms.push(ms(d));
        match outcome? {
            MaintainOutcome::Maintained { view, .. } => self.side_view = *view,
            MaintainOutcome::Unaffected => {}
            MaintainOutcome::NeedsRebuild { .. } => {
                self.side_view = CompressedView::build(&self.view, &next, tau_strategy())?;
            }
        }
        self.side_db = next;
        let Some(part) = fleet.partitioning() else {
            return Ok(());
        };
        let (split, d) = self.span("storage.split_delta", || part.split_delta(delta));
        let split = split?;
        self.split_delta_us.push(us(d));
        if let Some(side) = self.side_shards.take() {
            let mut slowest = Duration::ZERO;
            for (s, d) in split.iter().enumerate().filter(|(_, d)| !d.is_empty()) {
                let (report, t) = self.span("engine.update", || side.engines[s].update(d));
                let report = report?;
                slowest = slowest.max(t);
                let (logged, t) = self.span("durable.log", || side.stores[s].log(report.epoch, d));
                logged?;
                self.log_us.push(us(t));
            }
            self.engine_update_ms.push(ms(slowest));
            self.fanout_ms
                .push(ms(service_update.saturating_sub(slowest)));
            self.side_shards = Some(side);
        }
        Ok(())
    }

    /// The per-layer metrics, with the tracing overhead measured against
    /// the run's untraced phase `plain`, and the spans written to `csv`.
    pub fn report(
        self,
        fleet: &Fleet,
        plain: &Samples,
        traced: &Samples,
        csv: &std::path::Path,
    ) -> Vec<(&'static str, f64, &'static str)> {
        let spans = self.tracer.spans();
        if let Err(e) = crate::trace::write_csv(csv, &spans) {
            eprintln!("perfbench: could not write {}: {e}", csv.display());
        }
        let mut serve_self = Vec::new();
        let mut update_self = Vec::new();
        for (name, ns) in self_times(&spans) {
            match name {
                "service.serve_into" => serve_self.push(ns as f64 / 1e3),
                "service.apply_update" => update_self.push(ns as f64 / 1e6),
                _ => {}
            }
        }
        let req_p50 = |s: &Samples| {
            s.end_to_end()
                .into_iter()
                .find(|m| m.0 == "req_p50_us")
                .map_or(0.0, |m| m.1)
        };
        let (plain_p50, traced_p50) = (req_p50(plain), req_p50(traced));
        let overhead_pct = if plain_p50 > 0.0 {
            100.0 * (traced_p50 - plain_p50) / plain_p50
        } else {
            0.0
        };
        let (admitted, shed) = match fleet {
            Fleet::Remote { servers, .. } => servers.iter().fold((0, 0), |(a, s), h| {
                let st = h.admission_stats();
                (a + st.admitted, s + st.shed_total())
            }),
            _ => (0, 0),
        };
        let per = |n: u64, d: u64| if d == 0 { 0.0 } else { n as f64 / d as f64 };
        let mut registers: Vec<f64> = plain
            .registers_ns
            .iter()
            .chain(&traced.registers_ns)
            .map(|&ns| ns as f64 / 1e6)
            .collect();
        let wal = wal_bytes(fleet).saturating_sub(self.wal_before);
        if let Some(side) = &self.side_shards {
            let _ = std::fs::remove_dir_all(&side.dir);
        }
        vec![
            ("core.enum_us_p50", p(&self.enum_us, 0.5), "us"),
            ("core.enum_ttfa_us_p50", p(&self.enum_ttfa_us, 0.5), "us"),
            ("core.enum_delay_us_p50", p(&self.enum_delay_us, 0.5), "us"),
            (
                "join.trie_seeks_per_answer",
                per(self.trie_seeks, self.enum_answers),
                "seeks/answer",
            ),
            (
                "core.dict_lookups_per_req",
                per(self.dict_lookups, self.enum_requests),
                "lookups/req",
            ),
            ("core.maintain_ms_p50", p(&self.maintain_ms, 0.5), "ms"),
            ("engine.serve_us_p50", p(&self.serve_us, 0.5), "us"),
            ("engine.overhead_us_p50", p(&self.overhead_us, 0.5), "us"),
            (
                "engine.catalog_builds_during_reads",
                self.builds_during_reads as f64,
                "count",
            ),
            ("engine.update_ms_p50", p(&self.engine_update_ms, 0.5), "ms"),
            ("engine.maintained", self.maintained as f64, "count"),
            ("engine.rebuilt", self.rebuilt as f64, "count"),
            ("engine.restamped", self.restamped as f64, "count"),
            ("shard.ttfa_us_p50", p(&self.shard_ttfa_us, 0.5), "us"),
            ("shard.merge_us_p50", p(&self.merge_us, 0.5), "us"),
            ("shard.update_fanout_ms_p50", p(&self.fanout_ms, 0.5), "ms"),
            ("storage.apply_ms_p50", p(&self.apply_ms, 0.5), "ms"),
            (
                "storage.split_delta_us_p50",
                p(&self.split_delta_us, 0.5),
                "us",
            ),
            ("storage.split_db_ms", self.split_db_ms, "ms"),
            ("build.register_ms", median(&mut registers), "ms"),
            ("build.sort_ms", self.build.sort_ns as f64 / 1e6, "ms"),
            ("build.index_ms", self.build.index_ns as f64 / 1e6, "ms"),
            ("build.dict_ms", self.build.dict_ns as f64 / 1e6, "ms"),
            ("build.lp_ms", self.build.lp_ns as f64 / 1e6, "ms"),
            ("durable.log_us_p50", p(&self.log_us, 0.5), "us"),
            ("durable.log_us_p90", p(&self.log_us, 0.9), "us"),
            (
                "durable.wal_bytes_per_update",
                per(wal, self.updates),
                "B/update",
            ),
            (
                "net.server_serve_us_p50",
                p(&self.server_serve_us, 0.5),
                "us",
            ),
            (
                "net.client_overhead_us_p50",
                p(&self.client_overhead_us, 0.5),
                "us",
            ),
            ("net.ttfa_added_us_p50", p(&self.ttfa_added_us, 0.5), "us"),
            (
                "net.wire_bytes_per_answer",
                per(self.wire_bytes, self.wire_answers),
                "B/answer",
            ),
            ("net.admission_admitted", admitted as f64, "count"),
            ("net.admission_shed", shed as f64, "count"),
            ("net.update_ms_p50", p(&self.net_update_ms, 0.5), "ms"),
            ("trace.serve_self_us_p50", p(&serve_self, 0.5), "us"),
            ("trace.update_self_ms_p50", p(&update_self, 0.5), "ms"),
            ("trace.spans", spans.len() as f64, "count"),
            ("trace.overhead_pct", overhead_pct, "%"),
        ]
    }
}

/// Bytes in the WAL of every shard of a durable fleet.
fn wal_bytes(fleet: &Fleet) -> u64 {
    fleet
        .engines()
        .iter()
        .filter_map(|e| e.durable_store().map(|s| s.wal_offset()))
        .sum()
}
