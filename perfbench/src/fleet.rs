//! The three services under test, each built from the generated rows and
//! served through the `BlockService` trait, plus the server-side decorator
//! the traced run spawns remote servers over.

use crate::inputs::{self, Inputs, PATTERN, QUERY, STRATEGY, VIEW};
use crate::trace::Tracer;
use cqc_common::error::Result;
use cqc_common::{AnswerSink, FnSink, Value};
use cqc_engine::{
    spec_for_view, BlockService, Engine, EngineConfig, ShardedEngine, ShardedEngineConfig,
    UpdateReport,
};
use cqc_net::{ClientConfig, NetServer, NetServerConfig, Router, ServerHandle};
use cqc_query::parser::parse_adorned;
use cqc_storage::{Delta, Epoch, Partitioning};
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Shards of `remote-scan` and `sharded-write` (one per core of the
/// reference host).
pub const SHARDS: usize = 2;

/// Where runs keep their data directories and trace files, relative to
/// the repository root the benchmark runs from.
pub const OUT_DIR: &str = "perfbench/out";

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// One in-process `Engine`, a rare write.
    LocalScan,
    /// A `Router` over two loopback `NetServer`s, a rare write.
    RemoteScan,
    /// A durable two-shard `ShardedEngine`, a write every few requests.
    ShardedWrite,
}

impl Workload {
    /// Parses a workload name.
    pub fn parse(name: &str) -> Option<Workload> {
        match name {
            "local-scan" => Some(Workload::LocalScan),
            "remote-scan" => Some(Workload::RemoteScan),
            "sharded-write" => Some(Workload::ShardedWrite),
            _ => None,
        }
    }

    /// The workload's name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::LocalScan => "local-scan",
            Workload::RemoteScan => "remote-scan",
            Workload::ShardedWrite => "sharded-write",
        }
    }

    /// Requests per write: one round of the closed loop.
    pub fn reads_per_write(self) -> usize {
        match self {
            Workload::LocalScan | Workload::RemoteScan => 100,
            Workload::ShardedWrite => 8,
        }
    }
}

/// What a server-side decorator saw of the last call.
#[derive(Debug, Clone, Copy, Default)]
pub struct ServerObs {
    /// The last serve: call, first answer, return.
    pub serve: Option<(Instant, Option<Instant>, Instant)>,
    /// The last update: wall time and what it did to the catalog.
    pub update: Option<(Duration, UpdateReport)>,
}

/// Times the server side of a remote serve or update: spawned in place of
/// the shard's `Engine` in the traced run, it records a span per call and
/// keeps the last call's timestamps for the client to read back.
#[derive(Debug)]
pub struct ServerProbe {
    engine: Arc<Engine>,
    tracer: Arc<Tracer>,
    last: Mutex<ServerObs>,
}

impl ServerProbe {
    /// Takes the last observation, leaving none behind.
    pub fn take(&self) -> ServerObs {
        std::mem::take(&mut *self.last.lock().expect("probe lock poisoned"))
    }
}

impl BlockService for ServerProbe {
    fn register_view(
        &self,
        name: &str,
        query_text: &str,
        pattern: &str,
        strategy: &str,
    ) -> Result<Vec<Epoch>> {
        self.engine
            .register_view(name, query_text, pattern, strategy)
    }

    fn serve_into(&self, view: &str, bound: &[Value], sink: &mut dyn AnswerSink) -> Result<usize> {
        let start = Instant::now();
        let mut first = None;
        let result = {
            let mut stamped = FnSink(|t: &[Value]| {
                if first.is_none() {
                    first = Some(Instant::now());
                }
                sink.push(t)
            });
            self.engine.serve_into(view, bound, &mut stamped)
        };
        let end = Instant::now();
        self.tracer.child("server.serve_into", start, end);
        self.last.lock().expect("probe lock poisoned").serve = Some((start, first, end));
        result
    }

    fn apply_update(&self, delta: &Delta) -> Result<Vec<Epoch>> {
        let start = Instant::now();
        let report = self.engine.update(delta)?;
        let end = Instant::now();
        self.tracer.child("server.apply_update", start, end);
        self.last.lock().expect("probe lock poisoned").update = Some((end - start, report));
        Ok(vec![report.epoch])
    }

    fn version(&self) -> Vec<Epoch> {
        vec![self.engine.epoch()]
    }

    fn serve_cost_ns(&self, view: &str) -> Option<u64> {
        self.engine.serve_cost_ns(view)
    }
}

/// A service under test, ready to serve.
pub enum Fleet {
    /// `local-scan`.
    Local(Arc<Engine>),
    /// `remote-scan`. The router is declared first so it hangs up before
    /// the servers stop.
    Remote {
        /// The client.
        router: Router,
        /// The loopback servers, one per shard.
        servers: Vec<ServerHandle>,
        /// Each server's engine.
        engines: Vec<Arc<Engine>>,
        /// The server-side decorators (traced run only).
        probes: Vec<Arc<ServerProbe>>,
        /// How the data was split.
        partitioning: Partitioning,
    },
    /// `sharded-write`, with its data directory.
    Sharded {
        /// The sharded engine.
        engine: ShardedEngine,
        /// Its WAL and snapshot directory.
        dir: PathBuf,
    },
}

impl Fleet {
    /// The service every request and update goes through.
    pub fn service(&self) -> &dyn BlockService {
        match self {
            Fleet::Local(e) => &**e,
            Fleet::Remote { router, .. } => router,
            Fleet::Sharded { engine, .. } => engine,
        }
    }

    /// The engines that hold the registered representations.
    pub fn engines(&self) -> Vec<&Engine> {
        match self {
            Fleet::Local(e) => vec![&**e],
            Fleet::Remote { engines, .. } => engines.iter().map(|e| &**e).collect(),
            Fleet::Sharded { engine, .. } => {
                (0..engine.num_shards()).map(|s| engine.shard(s)).collect()
            }
        }
    }

    /// Resident bytes of the registered representations, summed over
    /// every engine, shard and server.
    pub fn resident_bytes(&self) -> usize {
        self.engines()
            .iter()
            .map(|e| e.catalog_stats().resident_bytes)
            .sum()
    }

    /// Representation builds so far, summed over every engine.
    pub fn builds(&self) -> u64 {
        self.engines()
            .iter()
            .map(|e| e.catalog_stats().builds)
            .sum()
    }

    /// How the data is split, for the workloads that split it.
    pub fn partitioning(&self) -> Option<&Partitioning> {
        match self {
            Fleet::Local(_) => None,
            Fleet::Remote { partitioning, .. } => Some(partitioning),
            Fleet::Sharded { engine, .. } => Some(engine.partitioning()),
        }
    }

    /// Stops the servers and removes the data directory.
    pub fn close(self) {
        if let Fleet::Sharded { engine, dir } = self {
            drop(engine);
            let _ = std::fs::remove_dir_all(dir);
        }
    }
}

/// A data directory of this process under [`OUT_DIR`].
pub fn data_dir(tag: &str) -> PathBuf {
    Path::new(OUT_DIR).join(format!("{tag}-{}", std::process::id()))
}

fn timed<T>(f: impl FnOnce() -> Result<T>) -> Result<(T, Duration)> {
    let t0 = Instant::now();
    let out = f()?;
    Ok((out, t0.elapsed()))
}

/// One set-up: from the generated rows to ready-to-serve. Returns the
/// service, the whole set-up time and the `register_view` time.
/// `attempt` keeps the data directories of successive set-ups apart.
pub fn set_up(
    workload: Workload,
    inputs: &Inputs,
    tracer: Option<&Arc<Tracer>>,
    attempt: usize,
) -> Result<(Fleet, Duration, Duration)> {
    let t0 = Instant::now();
    let db = inputs::database(&inputs.r, &inputs.s);
    let (fleet, register) = match workload {
        Workload::LocalScan => {
            let engine = Arc::new(Engine::new(db));
            let (_, register) = timed(|| engine.register_view(VIEW, QUERY, PATTERN, STRATEGY))?;
            (Fleet::Local(engine), register)
        }
        Workload::RemoteScan => {
            let spec = spec_for_view(&parse_adorned(QUERY, PATTERN)?, &db);
            let partitioning = Partitioning::new(spec.clone(), SHARDS)?;
            let mut servers = Vec::with_capacity(SHARDS);
            let mut engines = Vec::with_capacity(SHARDS);
            let mut probes = Vec::new();
            for slice in partitioning.split_database(&db)? {
                let engine = Arc::new(Engine::new(slice));
                let service: Arc<dyn BlockService> = match tracer {
                    Some(tracer) => {
                        let probe = Arc::new(ServerProbe {
                            engine: Arc::clone(&engine),
                            tracer: Arc::clone(tracer),
                            last: Mutex::default(),
                        });
                        probes.push(Arc::clone(&probe));
                        probe
                    }
                    None => Arc::clone(&engine) as Arc<dyn BlockService>,
                };
                servers.push(NetServer::spawn(
                    service,
                    "127.0.0.1:0",
                    NetServerConfig::default(),
                )?);
                engines.push(engine);
            }
            let addrs: Vec<String> = servers.iter().map(|s| s.addr().to_string()).collect();
            let router = Router::connect(&addrs, spec, ClientConfig::default())?;
            let (_, register) = timed(|| router.register_view(VIEW, QUERY, PATTERN, STRATEGY))?;
            let fleet = Fleet::Remote {
                router,
                servers,
                engines,
                probes,
                partitioning,
            };
            (fleet, register)
        }
        Workload::ShardedWrite => {
            let spec = spec_for_view(&parse_adorned(QUERY, PATTERN)?, &db);
            let config = ShardedEngineConfig {
                shards: SHARDS,
                engine: EngineConfig::default(),
            };
            let mut engine = ShardedEngine::new(db, spec, config)?;
            let dir = data_dir(&format!("wal{attempt}"));
            let _ = std::fs::remove_dir_all(&dir);
            engine.attach_durable(&dir)?;
            let (_, register) =
                timed(|| BlockService::register_view(&engine, VIEW, QUERY, PATTERN, STRATEGY))?;
            (Fleet::Sharded { engine, dir }, register)
        }
    };
    Ok((fleet, t0.elapsed(), register))
}
