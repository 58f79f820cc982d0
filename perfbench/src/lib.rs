//! End-to-end benchmark of the `disassoc serve` daemon, split by layer.
//!
//! One load-generator process drives an in-process
//! [`disassoc_serve::Server`] over loopback through one of three workloads
//! ([`Workload`]) and reports the end-to-end metrics with tracing off
//! ([`e2e`]).  A separate traced run ([`replay`]) replays the workload's
//! operations by calling each layer's public functions from this crate,
//! with a span around every call, and reports the per-layer metrics.
//! README.md gives the reason for each workload and the layer-metric →
//! end-to-end-metric table.

pub mod checks;
pub mod data;
pub mod e2e;
pub mod replay;
pub mod stats;
pub mod trace;
pub mod wire;

use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Anonymization parameters every workload uses.
pub const K: usize = 5;
/// The `m` of the k^m guarantee.
pub const M: usize = 2;
/// The dataset name the benchmark drives.
pub const DATASET: &str = "bench";

/// The three traffic mixes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Closed loop of back-to-back `POST /anonymize` on a 50k-record store.
    Publish,
    /// Closed loop of `POST /append` (500 fresh records each) onto 50k.
    Append,
    /// Open loop of ingests and reads against a 10k-record publication.
    ServeMix,
}

impl Workload {
    /// Every workload, in report order.
    pub const ALL: [Workload; 3] = [Workload::Publish, Workload::Append, Workload::ServeMix];

    /// The command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Publish => "publish",
            Workload::Append => "append",
            Workload::ServeMix => "serve-mix",
        }
    }

    /// Parses a command-line name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Input sizes and fixed sample counts of a run.
#[derive(Debug, Clone)]
pub struct Scale {
    /// Base records of `publish` and `append`.
    pub records: usize,
    /// Base records of `serve-mix`.
    pub mix_records: usize,
    /// Records per set-up `POST /records` body.
    pub ingest_body: usize,
    /// Records per `POST /append` body.
    pub append_records: usize,
    /// Records per `serve-mix` ingest body.
    pub mix_body: usize,
    /// Offered `serve-mix` rate, requests per second.
    pub mix_rate: f64,
    /// Set-ups per run (`setup_s` is their median).
    pub setups: usize,
    /// Requests per route a workload's own mix does not drive, sent after
    /// its loop so every workload reports every end-to-end metric.
    pub probes: usize,
    /// Daemon pipeline batch size.
    pub batch_size: usize,
    /// Records in the Quest population every input is drawn from.
    pub population: usize,
}

impl Scale {
    /// The benchmark's scale.
    pub fn full() -> Scale {
        Scale {
            records: 50_000,
            mix_records: 10_000,
            ingest_body: 1_250,
            append_records: 500,
            mix_body: 100,
            mix_rate: 20.0,
            setups: 3,
            probes: 3,
            batch_size: disassoc_serve::ServeConfig::default().batch_size,
            population: 100_000,
        }
    }

    /// A tiny scale for the smoke test: every code path, seconds of work.
    pub fn tiny() -> Scale {
        Scale {
            records: 1_500,
            mix_records: 600,
            ingest_body: 500,
            append_records: 50,
            mix_body: 20,
            mix_rate: 40.0,
            setups: 2,
            probes: 2,
            batch_size: 512,
            population: 4_000,
        }
    }
}

/// One run's settings.
#[derive(Debug, Clone)]
pub struct Options {
    /// The traffic mix.
    pub workload: Workload,
    /// Seed of every generated input.
    pub seed: u64,
    /// Length of the measured loop, seconds.
    pub seconds: f64,
    /// Traced replay (per-layer metrics) instead of the end-to-end run.
    pub trace: bool,
    /// Input sizes.
    pub scale: Scale,
    /// Scratch directory for daemon data and reference stores, emptied
    /// before the run.
    pub work_dir: PathBuf,
    /// Where the traced run writes its spans (JSON lines).
    pub trace_file: PathBuf,
}

/// One reported metric.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Name, as listed in BENCHMARK.json.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Value (finite).
    pub value: f64,
    /// Samples the value summarizes.
    pub samples: usize,
}

/// One output check.
#[derive(Debug, Clone)]
pub struct Check {
    /// What was checked.
    pub name: String,
    /// Whether it held.
    pub ok: bool,
}

/// Everything a run reports.
#[derive(Debug, Default)]
pub struct Report {
    /// Run header: scale, parameters, machine and build.
    pub header: Vec<(&'static str, String)>,
    /// Metrics in report order.
    pub metrics: Vec<Metric>,
    /// Output checks.
    pub checks: Vec<Check>,
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed (refused, errored, or failed a check).
    pub failed: u64,
    /// Free-form lines printed with the report.
    pub notes: Vec<String>,
}

impl Report {
    /// Whether every check held and no operation failed.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.checks.iter().all(|c| c.ok)
    }

    /// Records a check.
    pub fn check(&mut self, name: impl Into<String>, ok: bool) {
        self.checks.push(Check {
            name: name.into(),
            ok,
        });
    }

    /// Adds a metric; a refused request makes a latency infinite, which is
    /// reported as 1e9 (beyond any limit) since JSON has no infinity.
    pub fn metric(&mut self, name: &'static str, unit: &'static str, value: f64, samples: usize) {
        let value = if value.is_finite() { value } else { 1e9 };
        self.metrics.push(Metric {
            name,
            unit,
            value,
            samples,
        });
    }

    /// The final result line.
    pub fn json_line(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name, m.value, m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted.max(1),
            self.failed,
            metrics.join(", ")
        )
    }
}

/// Runs one workload, end to end or traced.
pub fn run(options: &Options) -> Result<Report, String> {
    let dir = &options.work_dir;
    std::fs::remove_dir_all(dir).ok();
    std::fs::create_dir_all(dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
    let mut report = if options.trace {
        replay::run(options)?
    } else {
        e2e::run(options)?
    };
    let mut header = header(options);
    header.append(&mut report.header);
    report.header = header;
    Ok(report)
}

fn header(options: &Options) -> Vec<(&'static str, String)> {
    let s = &options.scale;
    let (records, body) = match options.workload {
        Workload::ServeMix => (s.mix_records, s.mix_body),
        _ => (s.records, s.ingest_body),
    };
    vec![
        ("workload", options.workload.name().to_owned()),
        (
            "mode",
            if options.trace {
                "traced"
            } else {
                "end-to-end"
            }
            .to_owned(),
        ),
        ("seed", options.seed.to_string()),
        ("seconds", options.seconds.to_string()),
        ("base_records", records.to_string()),
        ("ingest_body_records", body.to_string()),
        ("append_records", s.append_records.to_string()),
        ("batch_size", s.batch_size.to_string()),
        ("k", K.to_string()),
        ("m", M.to_string()),
        (
            "available_parallelism",
            std::thread::available_parallelism()
                .map_or(0, |n| n.get())
                .to_string(),
        ),
        (
            "build_profile",
            if cfg!(debug_assertions) {
                "debug"
            } else {
                "release"
            }
            .to_owned(),
        ),
        ("git_commit", git_commit()),
    ]
}

/// The checkout's commit, read from `.git` in the working directory
/// without running git; "unknown" outside a git checkout.
fn git_commit() -> String {
    let read = |p: &str| std::fs::read_to_string(p).ok().map(|s| s.trim().to_owned());
    match read(".git/HEAD") {
        Some(head) => match head.strip_prefix("ref: ") {
            Some(r) => read(&format!(".git/{r}")).unwrap_or_else(|| "unknown".to_owned()),
            None => head,
        },
        None => "unknown".to_owned(),
    }
}

/// An in-process daemon on an ephemeral loopback port.
pub struct Daemon {
    /// Where it listens.
    pub addr: SocketAddr,
    /// Its data directory.
    pub dir: PathBuf,
    shutdown: disassoc_serve::ShutdownHandle,
    join: std::thread::JoinHandle<std::io::Result<()>>,
}

impl Daemon {
    /// Binds and starts serving `dir` with the default configuration at
    /// pipeline batch size `batch_size`.
    pub fn start(dir: &Path, batch_size: usize) -> Result<Daemon, String> {
        let config = disassoc_serve::ServeConfig {
            batch_size,
            ..Default::default()
        };
        let server = disassoc_serve::Server::bind("127.0.0.1:0", dir, config)
            .map_err(|e| format!("binding the daemon: {e}"))?;
        let addr = server.local_addr().map_err(|e| e.to_string())?;
        let shutdown = server.shutdown_handle();
        let join = std::thread::spawn(move || server.run());
        Ok(Daemon {
            addr,
            dir: dir.to_path_buf(),
            shutdown,
            join,
        })
    }

    /// The benchmark dataset's directory.
    pub fn dataset_dir(&self) -> PathBuf {
        self.dir.join(DATASET)
    }

    /// Drains and stops the daemon, waiting for every thread it started.
    pub fn stop(self) -> Result<(), String> {
        self.shutdown.shutdown();
        match self.join.join() {
            Ok(Ok(())) => Ok(()),
            Ok(Err(e)) => Err(format!("daemon failed: {e}")),
            Err(_) => Err("daemon thread panicked".to_owned()),
        }
    }

    /// Sends one request and times it.
    pub fn call(&self, method: &str, target: &str, body: &[u8]) -> (wire::Reply, f64) {
        let started = Instant::now();
        let reply = wire::call(self.addr, method, target, body).unwrap_or(wire::Reply {
            status: 0,
            body: wire::Digest::default(),
            small_body: Vec::new(),
        });
        (reply, started.elapsed().as_secs_f64())
    }
}

/// Route targets on the benchmark dataset.
pub mod routes {
    /// Ingest.
    pub fn records() -> String {
        format!("/datasets/{}/records", super::DATASET)
    }
    /// Full anonymization.
    pub fn anonymize() -> String {
        format!(
            "/datasets/{}/anonymize?k={}&m={}",
            super::DATASET,
            super::K,
            super::M
        )
    }
    /// Incremental append.
    pub fn append() -> String {
        format!(
            "/datasets/{}/append?k={}&m={}",
            super::DATASET,
            super::K,
            super::M
        )
    }
    /// The full publication, or its clusters mentioning `term`.
    pub fn chunks(term: Option<u32>) -> String {
        match term {
            Some(t) => format!("/datasets/{}/chunks?term={t}", super::DATASET),
            None => format!("/datasets/{}/chunks", super::DATASET),
        }
    }
}

/// The configuration the daemon builds from `?k=5&m=2`.
pub fn config() -> disassociation::DisassociationConfig {
    disassociation::DisassociationConfig {
        k: K,
        m: M,
        ..Default::default()
    }
}

/// Peak resident set of this process (daemon and load generator), MiB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}
