//! The traced run: the workload's operations replayed by calling each
//! layer's public functions from this crate, with a span around every call.
//!
//! The replay keeps its own store and chunk directory, holding the same
//! records as the daemon's, and runs every step of the daemon's request
//! path in the daemon's order: HTTP parse, record parse, store scan,
//! HORPART/VERPART/REFINE in the order `Disassociator::anonymize_owned`
//! uses them, chunk staging and commit, serialization and the response
//! write.  Its publications are compared byte for byte with the daemon's,
//! so the layer split covers the same work.  Ops alternate between traced
//! and untraced; the ratio of their medians is the tracing overhead.

use crate::checks;
use crate::data::{self, Corpus};
use crate::e2e::{mix_plan, MixOp};
use crate::stats::{median, quantile};
use crate::trace::{layer_totals, unattributed_share, Tracer};
use crate::wire::{digest, Digest};
use crate::{routes, Daemon, Options, Report, Workload};
use disassoc_obs::metrics::{counters, Counter};
use disassoc_serve::http::{parse_request, Request, Response};
use disassoc_store::{ChunkDir, Store};
use disassociation::horpart::{horizontal_partition, merge_small_clusters};
use disassociation::model::DisassociatedDataset;
use disassociation::pipeline::JsonChunksSink;
use disassociation::refine::{refine, RefineOptions, WorkCluster, WorkNode};
use disassociation::verify::verify_structure;
use disassociation::verpart::{vertical_partition_with_supports, VerPartOptions};
use disassociation::{
    AppendOptions, BatchOutput, ChunkSink, DisassociationConfig, DisassociationOutput,
    IncrementalPipeline, PhaseTimings, RecordSource, SinkError, SourceError,
};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::BTreeMap;
use std::io::BufWriter;
use std::net::{TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;
use transact::io::RecordReader;
use transact::{Dataset, Record, SupportMap, TermId};

/// An op whose child spans leave more than this share of its time
/// unexplained is flagged: some layer is missing from the split.
pub const RECONCILE_TOLERANCE: f64 = 0.10;

/// The per-layer metrics, in report order, with their units.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("serve.healthz_ms", "ms"),
    ("serve.parse_us", "us"),
    ("serve.write_ms", "ms"),
    ("serve.job_wait_ms", "ms"),
    ("transact.parse_us", "us"),
    ("store.wal.append_p50_ms", "ms"),
    ("store.wal.append_p99_ms", "ms"),
    ("store.wal.bytes_per_record", "B/record"),
    ("store.flush_ms", "ms"),
    ("store.scan_s", "s"),
    ("store.scan.records_per_s", "1/s"),
    ("store.publish.stage_s", "s"),
    ("store.publish.chunks_skipped", "count"),
    ("store.publish.commit_ms", "ms"),
    ("store.read.filtered_ms", "ms"),
    ("store.read.render_ms", "ms"),
    ("store.read.match_ratio", "ratio"),
    ("core.horpart_s", "s"),
    ("core.verpart_s", "s"),
    ("core.refine_s", "s"),
    ("core.refine.passes", "count"),
    ("core.refine.join_attempts", "count"),
    ("core.refine.join_accept_ratio", "ratio"),
    ("core.checker_trials_m2", "count"),
    ("core.serialize_s", "s"),
    ("core.serialize.bytes_per_record", "B/record"),
    ("core.verify_s", "s"),
    ("incremental.build_s", "s"),
    ("incremental.append_s", "s"),
    ("incremental.dirty_fraction", "ratio"),
    ("incremental.publish_dirty_s", "s"),
    ("incremental.flat_render_s", "s"),
    ("unattributed_share.anonymize", "ratio"),
    ("unattributed_share.append", "ratio"),
    ("unattributed_share.ingest", "ratio"),
    ("unattributed_share.read_term", "ratio"),
    ("unattributed_share.read_full", "ratio"),
    ("trace_overhead.anonymize", "ratio"),
    ("trace_overhead.append", "ratio"),
    ("trace_overhead.ingest", "ratio"),
    ("trace_overhead.read_term", "ratio"),
    ("trace_overhead.read_full", "ratio"),
    ("reconcile.flagged_ops", "count"),
];

/// Each op kind with its `unattributed_share` and `trace_overhead` names.
const OP_KINDS: [(&str, &str, &str); 5] = [
    (
        "anonymize",
        "unattributed_share.anonymize",
        "trace_overhead.anonymize",
    ),
    (
        "append",
        "unattributed_share.append",
        "trace_overhead.append",
    ),
    (
        "ingest",
        "unattributed_share.ingest",
        "trace_overhead.ingest",
    ),
    (
        "read_term",
        "unattributed_share.read_term",
        "trace_overhead.read_term",
    ),
    (
        "read_full",
        "unattributed_share.read_full",
        "trace_overhead.read_full",
    ),
];

fn text<E: std::fmt::Display>(e: E) -> String {
    e.to_string()
}

/// The bytes a client sends for one request.
fn request_bytes(method: &str, target: &str, body: &[u8]) -> Vec<u8> {
    let mut bytes = format!(
        "{method} {target} HTTP/1.1\r\nHost: 127.0.0.1\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    )
    .into_bytes();
    bytes.extend_from_slice(body);
    bytes
}

/// A loopback connection the replay writes its responses to, drained by a
/// thread, as the daemon writes to its client's socket.
struct Wire {
    stream: TcpStream,
    drain: std::thread::JoinHandle<std::io::Result<u64>>,
}

impl Wire {
    fn open() -> std::io::Result<Wire> {
        let listener = TcpListener::bind("127.0.0.1:0")?;
        let stream = TcpStream::connect(listener.local_addr()?)?;
        stream.set_nodelay(true)?;
        let (mut peer, _) = listener.accept()?;
        let drain = std::thread::spawn(move || std::io::copy(&mut peer, &mut std::io::sink()));
        Ok(Wire { stream, drain })
    }

    fn write(&self, response: &Response) -> std::io::Result<()> {
        response.write_to(&mut BufWriter::new(&self.stream))
    }

    fn close(self) -> Result<(), String> {
        self.stream
            .shutdown(std::net::Shutdown::Write)
            .map_err(text)?;
        match self.drain.join() {
            Ok(result) => result.map(|_| ()).map_err(text),
            Err(_) => Err("the response drain panicked".to_owned()),
        }
    }
}

/// A record source that spans every batch it pulls (`store.scan`).
struct TimedSource<'t, S> {
    t: &'t Tracer,
    inner: S,
}

impl<S: RecordSource> RecordSource for TimedSource<'_, S> {
    fn next_batch(&mut self) -> Result<Option<Vec<Record>>, SourceError> {
        let t = self.t;
        t.span("store.scan", || {
            let batch = self.inner.next_batch();
            if let Ok(Some(records)) = &batch {
                t.count(records.len() as u64);
            }
            batch
        })
    }
}

/// A chunk sink that spans `accept` and `finish` under the given names,
/// counting the change of `counter` across each call.
struct TimedSink<'t, K> {
    t: &'t Tracer,
    inner: K,
    accept: &'static str,
    finish: &'static str,
    counter: Option<&'static Counter>,
}

impl<K: ChunkSink> TimedSink<'_, K> {
    fn counted<T>(&mut self, name: &'static str, f: impl FnOnce(&mut K) -> T) -> T {
        let t = self.t;
        let counter = self.counter;
        let inner = &mut self.inner;
        t.span(name, || {
            let before = counter.map_or(0, Counter::get);
            let value = f(inner);
            t.count(counter.map_or(0, Counter::get) - before);
            value
        })
    }
}

impl<K: ChunkSink> ChunkSink for TimedSink<'_, K> {
    fn accept(&mut self, batch: BatchOutput) -> Result<(), SinkError> {
        let name = self.accept;
        self.counted(name, |k| k.accept(batch))
    }
    fn finish(&mut self) -> Result<(), SinkError> {
        let name = self.finish;
        self.counted(name, |k| k.finish())
    }
}

/// One batch through HORPART → VERPART → REFINE, exactly as
/// `Disassociator::anonymize_owned` runs it (same seeds, same order, the
/// same parallel VERPART), one span per phase.
fn anonymize_batch(
    t: &Tracer,
    cfg: &DisassociationConfig,
    records: Vec<Record>,
) -> DisassociationOutput {
    let dataset = Dataset::from_records(records);
    let partition = t.span("core.horpart", || {
        let mut p = horizontal_partition(
            &dataset,
            cfg.effective_max_cluster_size(),
            &cfg.sensitive_terms,
        );
        merge_small_clusters(&mut p, cfg.k);
        p
    });
    let clusters = t.span("core.verpart", || {
        let mut slots: Vec<Option<Record>> = dataset.into_records().into_iter().map(Some).collect();
        let inputs: Vec<Mutex<Option<Vec<Record>>>> = partition
            .clusters
            .iter()
            .map(|indices| {
                let records = indices
                    .iter()
                    .map(|&i| slots[i].take().expect("each record is in one cluster"))
                    .collect();
                Mutex::new(Some(records))
            })
            .collect();
        let options = VerPartOptions {
            forced_term_chunk: cfg.sensitive_terms.clone(),
            shuffle: true,
        };
        let results: Vec<Mutex<Option<WorkCluster>>> =
            inputs.iter().map(|_| Mutex::new(None)).collect();
        let one = |i: usize| {
            let records = inputs[i]
                .lock()
                .expect("no verpart worker panicked")
                .take()
                .expect("each cluster is partitioned once");
            let mut rng =
                StdRng::seed_from_u64(cfg.seed ^ (i as u64).wrapping_mul(0x9E3779B97F4A7C15));
            let supports = SupportMap::from_records(records.iter());
            let cluster = vertical_partition_with_supports(
                &records, &supports, cfg.k, cfg.m, &options, &mut rng,
            );
            let work = WorkCluster::with_supports(
                partition.clusters[i].clone(),
                records,
                cluster,
                &supports,
            );
            *results[i].lock().expect("no verpart worker panicked") = Some(work);
        };
        let n = partition.clusters.len();
        if cfg.parallel && n > 1 {
            let threads = std::thread::available_parallelism()
                .map_or(4, |p| p.get())
                .min(n);
            let next = AtomicUsize::new(0);
            std::thread::scope(|scope| {
                for _ in 0..threads {
                    scope.spawn(|| loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= n {
                            break;
                        }
                        one(i);
                    });
                }
            });
        } else {
            (0..n).for_each(one);
        }
        results
            .into_iter()
            .map(|m| {
                m.into_inner()
                    .expect("no verpart worker panicked")
                    .expect("every cluster was partitioned")
            })
            .collect::<Vec<_>>()
    });
    let outcome = t.span("core.refine", || {
        let nodes: Vec<WorkNode> = clusters.into_iter().map(WorkNode::Simple).collect();
        let mut rng = StdRng::seed_from_u64(cfg.seed ^ 0x5EED_2EF1);
        let mut options = RefineOptions {
            excluded_terms: cfg.sensitive_terms.clone(),
            ..RefineOptions::default()
        };
        if cfg.refine_max_passes > 0 {
            options.max_passes = cfg.refine_max_passes;
        }
        refine(nodes, cfg.k, cfg.m, &options, &mut rng)
    });
    t.span("core.assemble", || {
        let mut cluster_assignment = Vec::new();
        for node in &outcome.nodes {
            for wc in node.simple_clusters() {
                cluster_assignment.push(wc.record_indices.clone());
            }
        }
        DisassociationOutput {
            dataset: DisassociatedDataset {
                k: cfg.k,
                m: cfg.m,
                clusters: outcome
                    .nodes
                    .into_iter()
                    .map(WorkNode::into_cluster_node)
                    .collect(),
            },
            cluster_assignment,
            phases: PhaseTimings::default(),
            refine_passes: outcome.passes_used,
            refine_converged: outcome.converged,
        }
    })
}

/// The replay's dataset: a store, its chunk directory and flat file.
struct Replay<'t> {
    t: &'t Tracer,
    store: Store,
    chunks: ChunkDir,
    flat: PathBuf,
    partial: PathBuf,
    config: DisassociationConfig,
    batch_size: usize,
    wire: Wire,
    /// Values measured at a layer boundary that are not durations, per op.
    side: BTreeMap<&'static str, Vec<f64>>,
}

impl<'t> Replay<'t> {
    fn parse(&self, request: &[u8]) -> Result<Request, String> {
        self.t.span("serve.parse", || {
            let mut reader = request;
            match parse_request(&mut reader, 64 << 20) {
                Ok(Some(r)) => Ok(r),
                _ => Err("the replayed request does not parse".to_owned()),
            }
        })
    }

    fn records(&self, body: &[u8]) -> Result<Vec<Record>, String> {
        let t = self.t;
        t.span("transact.parse", || {
            let mut reader = RecordReader::new(body);
            let mut records = Vec::new();
            loop {
                let batch = reader.next_batch(4096).map_err(text)?;
                if batch.is_empty() {
                    t.count(records.len() as u64);
                    return Ok(records);
                }
                records.extend(batch);
            }
        })
    }

    fn wal_append(&mut self, records: &[Record]) -> Result<(), String> {
        let t = self.t;
        let before = counters::STORE_WAL_APPEND_BYTES.get();
        let store = &mut self.store;
        t.span("store.wal.append", || store.append_batch(records))
            .map_err(text)?;
        let bytes = counters::STORE_WAL_APPEND_BYTES.get() - before;
        self.note(
            "store.wal.bytes_per_record",
            bytes as f64 / records.len().max(1) as f64,
        );
        Ok(())
    }

    /// Writes a 200 JSON response; returns it so the caller can drop (or
    /// check) it outside the op.
    fn respond(&self, body: String) -> Result<Response, String> {
        let wire = &self.wire;
        let response = Response::json(200, body);
        self.t
            .span("serve.write", || wire.write(&response))
            .map_err(text)?;
        Ok(response)
    }

    fn note(&mut self, name: &'static str, value: f64) {
        self.side.entry(name).or_default().push(value);
    }

    fn commit_flat(&self) -> Result<(), String> {
        let (partial, flat) = (&self.partial, &self.flat);
        self.t
            .span("store.publish.commit", || std::fs::rename(partial, flat))
            .map_err(text)
    }

    fn note_flat_size(&mut self) -> Result<(), String> {
        let bytes = std::fs::metadata(&self.flat).map_err(text)?.len();
        let records = self.store.len().max(1);
        self.note(
            "core.serialize.bytes_per_record",
            bytes as f64 / records as f64,
        );
        Ok(())
    }

    /// `POST /anonymize`: scan, anonymize per batch, stage and serialize,
    /// commit both views.
    fn anonymize(&mut self, request: &[u8]) -> Result<(), String> {
        let t = self.t;
        t.op("anonymize", || {
            self.parse(request)?;
            let mut file = JsonChunksSink::create(&self.partial, &self.config).map_err(text)?;
            {
                let mut source = TimedSource {
                    t,
                    inner: self.store.source(self.batch_size),
                };
                let mut staged = TimedSink {
                    t,
                    inner: &mut self.chunks,
                    accept: "store.publish.stage",
                    finish: "store.publish.commit",
                    counter: Some(&counters::STORE_CHUNKS_SKIPPED),
                };
                let mut serialized = TimedSink {
                    t,
                    inner: &mut file,
                    accept: "core.serialize",
                    finish: "core.serialize",
                    counter: None,
                };
                let (mut batch_index, mut record_offset) = (0, 0);
                while let Some(records) = source.next_batch().map_err(text)? {
                    if records.is_empty() {
                        continue;
                    }
                    let len = records.len();
                    let output = anonymize_batch(t, &self.config, records);
                    let batch = BatchOutput {
                        batch_index,
                        record_offset,
                        output,
                    };
                    let copy = t.span("core.sink_tee", || batch.clone());
                    staged.accept(copy).map_err(text)?;
                    serialized.accept(batch).map_err(text)?;
                    batch_index += 1;
                    record_offset += len;
                }
                staged.finish().map_err(text)?;
                serialized.finish().map_err(text)?;
            }
            drop(file);
            self.commit_flat()?;
            self.respond(format!("{{\"records\":{}}}", self.store.len()))
        })?;
        self.note_flat_size()
    }

    /// `POST /append`: rebuild from the store, append, persist, republish
    /// dirty chunks and re-render the flat file — the daemon's job body.
    fn append(&mut self, request: &[u8]) -> Result<IncrementalPipeline, String> {
        let t = self.t;
        let pipeline = t.op("append", || {
            let request = self.parse(request)?;
            let records = self.records(&request.body)?;
            let mut pipeline = t
                .span("incremental.build", || {
                    let mut source = TimedSource {
                        t,
                        inner: self.store.source(self.batch_size),
                    };
                    IncrementalPipeline::build(self.config.clone(), &mut source)
                })
                .map_err(text)?;
            let options = AppendOptions {
                max_dirty_fraction: 1.0,
            };
            let outcome = t.span("incremental.append", || {
                pipeline.append_with(&records, &options)
            });
            self.note("incremental.dirty_fraction", outcome.dirty_fraction());
            // The rebuild and append run HORPART/VERPART/REFINE inside
            // `IncrementalRun`, which has no per-phase entry points; its
            // own phase timer gives the core split of this op.
            let mut phases = PhaseTimings::default();
            for run in pipeline.batches() {
                phases.accumulate(run.phases());
            }
            self.note("core.horpart_s", phases.horpart);
            self.note("core.verpart_s", phases.verpart);
            self.note("core.refine_s", phases.refine);
            self.wal_append(&records)?;
            let store = &mut self.store;
            t.span("store.flush", || store.flush()).map_err(text)?;
            let chunks = &mut self.chunks;
            t.span("incremental.publish_dirty", || {
                let empty = chunks.is_empty();
                let mut sink = TimedSink {
                    t,
                    inner: chunks,
                    accept: "store.publish.stage",
                    finish: "store.publish.commit",
                    counter: Some(&counters::STORE_CHUNKS_SKIPPED),
                };
                if empty {
                    pipeline.publish_all(&mut sink)
                } else {
                    pipeline.publish_dirty(&mut sink)
                }
            })
            .map_err(text)?;
            let (partial, config) = (&self.partial, &self.config);
            t.span("incremental.flat_render", || -> Result<(), String> {
                let file = JsonChunksSink::create(partial, config).map_err(text)?;
                let mut sink = TimedSink {
                    t,
                    inner: file,
                    accept: "core.serialize",
                    finish: "core.serialize",
                    counter: None,
                };
                pipeline.publish_all(&mut sink).map_err(text)?;
                Ok(())
            })?;
            self.commit_flat()?;
            self.respond(format!("{{\"appended\":{}}}", records.len()))?;
            Ok::<_, String>(pipeline)
        })?;
        self.note_flat_size()?;
        Ok(pipeline)
    }

    /// `POST /records`.
    fn ingest(&mut self, request: &[u8]) -> Result<Response, String> {
        let t = self.t;
        t.op("ingest", || {
            let request = self.parse(request)?;
            let records = self.records(&request.body)?;
            self.wal_append(&records)?;
            self.respond(format!(
                "{{\"appended\":{},\"total\":{}}}",
                records.len(),
                self.store.len()
            ))
        })
    }

    /// `GET /chunks?term=`; returns the digest of the response body.
    fn read_term(&mut self, request: &[u8], total_clusters: usize) -> Result<Digest, String> {
        let t = self.t;
        let (body, returned) = t.op("read_term", || {
            let request = self.parse(request)?;
            let term: u32 = request
                .query_param("term")
                .and_then(|v| v.parse().ok())
                .ok_or("the replayed read names no term")?;
            let chunks = &self.chunks;
            let filtered = t
                .span("store.read.filtered", || {
                    let filtered = chunks.combined_filtered(TermId::new(term));
                    if let Ok(Some(d)) = &filtered {
                        t.count(d.clusters.len() as u64);
                    }
                    filtered
                })
                .map_err(text)?
                .ok_or("nothing is published")?;
            let body = t
                .span("store.read.render", || {
                    serde_json::to_string_pretty(&filtered)
                })
                .map_err(text)?;
            // Both large values leave the op, so freeing them is not
            // charged to it.
            Ok::<_, String>((self.respond(body)?, filtered))
        })?;
        self.note(
            "store.read.match_ratio",
            returned.clusters.len() as f64 / total_clusters.max(1) as f64,
        );
        Ok(digest(&body.body))
    }

    /// `GET /chunks`.
    fn read_full(&mut self, request: &[u8]) -> Result<(), String> {
        let t = self.t;
        t.op("read_full", || {
            self.parse(request)?;
            let flat = &self.flat;
            let body = t
                .span("store.read.flat", || std::fs::read(flat))
                .map_err(text)?;
            let wire = &self.wire;
            t.span("serve.write", || {
                wire.write(&Response {
                    status: 200,
                    content_type: "application/json",
                    body,
                    extra_headers: Vec::new(),
                })
            })
            .map_err(text)
        })
    }

    /// `verify_structure` over a publication, timed (not on the request
    /// path; it prices verify-on-commit).
    fn verify(&mut self, publication: &DisassociatedDataset) -> bool {
        let started = Instant::now();
        let ok = verify_structure(publication).is_ok();
        self.note("core.verify_s", started.elapsed().as_secs_f64());
        ok
    }
}

/// Reads the daemon's counters from `GET /metrics`.
fn daemon_counters(d: &Daemon) -> Result<BTreeMap<String, f64>, String> {
    let (reply, _) = d.call("GET", "/metrics", b"");
    let value: serde_json::Value = serde_json::from_slice(&reply.small_body).map_err(text)?;
    let counters = value
        .get("counters")
        .and_then(|c| c.as_object())
        .ok_or("GET /metrics has no counters")?;
    Ok(counters
        .iter()
        .filter_map(|(k, v)| match v {
            serde_json::Value::Int(i) => Some((k.clone(), *i as f64)),
            _ => None,
        })
        .collect())
}

/// Runs one traced replay.
pub fn run(o: &Options) -> Result<Report, String> {
    let s = &o.scale;
    let w = o.workload;
    let mut report = Report::default();
    let base_records = match w {
        Workload::ServeMix => s.mix_records,
        _ => s.records,
    };
    let mut corpus = Corpus::new(o.seed, s.population, base_records);
    let base = corpus.base().to_vec();
    let batches: Vec<Vec<Record>> = base.chunks(s.ingest_body).map(<[Record]>::to_vec).collect();
    let mut attempted = 0u64;
    let mut failed = 0u64;
    let mut expect_ok = |status: u16| {
        attempted += 1;
        failed += u64::from(status != 200);
    };

    // The daemon, set up as in the end-to-end run.
    let d = Daemon::start(&o.work_dir.join("daemon"), s.batch_size)?;
    for records in &batches {
        expect_ok(
            d.call("POST", &routes::records(), &data::body(records))
                .0
                .status,
        );
    }
    if w != Workload::Publish {
        expect_ok(d.call("POST", &routes::anonymize(), b"").0.status);
    }
    let healthz: Vec<f64> = (0..20)
        .map(|_| d.call("GET", "/healthz", b"").1 * 1e3)
        .collect();

    // Daemon jobs, bracketed by /metrics snapshots for the core counters.
    let mut job = BTreeMap::<&str, Vec<f64>>::new();
    let mut deltas: Vec<Vec<Record>> = Vec::new();
    let daemon_jobs = if w == Workload::ServeMix { 0 } else { 2 };
    for _ in 0..daemon_jobs {
        let before = daemon_counters(&d)?;
        let (reply, secs) = if w == Workload::Publish {
            d.call("POST", &routes::anonymize(), b"")
        } else {
            let delta = corpus.take(s.append_records);
            let reply = d.call("POST", &routes::append(), &data::body(&delta));
            deltas.push(delta);
            reply
        };
        expect_ok(reply.status);
        let after = daemon_counters(&d)?;
        let delta = |name: &str| after.get(name).unwrap_or(&0.0) - before.get(name).unwrap_or(&0.0);
        let job_seconds = reply
            .number("seconds")
            .ok_or("the job reply has no seconds")?;
        let mut push = |k, v| job.entry(k).or_default().push(v);
        push("serve.job_wait_ms", (secs - job_seconds) * 1e3);
        push("core.refine.passes", delta("core.refine_passes"));
        push("core.refine.join_attempts", delta("core.join_attempts"));
        push(
            "core.refine.join_accept_ratio",
            delta("core.joins_accepted") / delta("core.join_attempts").max(1.0),
        );
        push(
            "core.checker_trials_m2",
            delta("core.checker_trials_m2_triangle") + delta("core.checker_trials_m2_sparse"),
        );
    }
    let served_flat = d.call("GET", &routes::chunks(None), b"").0;
    expect_ok(served_flat.status);

    // The replay's own dataset, holding the same records.
    let tracer = Tracer::default();
    let dir = o.work_dir.join("replay");
    let store = checks::reference_store(&dir.join("store"), &batches)?;
    let mut replay = Replay {
        t: &tracer,
        store,
        chunks: ChunkDir::open(dir.join("chunks")).map_err(text)?,
        flat: dir.join("publication.chunks.json"),
        partial: dir.join("publication.chunks.json.partial"),
        config: crate::config(),
        batch_size: s.batch_size,
        wire: Wire::open().map_err(text)?,
        side: BTreeMap::new(),
    };
    let anonymize_request = request_bytes("POST", &routes::anonymize(), b"");
    let mut plan = Vec::new();
    let mut total_clusters = 0;
    if w != Workload::Publish {
        tracer.set_enabled(false);
        replay.anonymize(&anonymize_request)?;
        let publication =
            replay
                .chunks
                .combined_dataset()
                .map_err(text)?
                .unwrap_or(DisassociatedDataset {
                    k: crate::K,
                    m: crate::M,
                    clusters: Vec::new(),
                });
        total_clusters = publication.clusters.len();
        let ok = replay.verify(&publication);
        report.check(
            "verify_structure holds on the replayed set-up publication",
            ok,
        );
        tracer.clear();
    }
    if w == Workload::ServeMix {
        let same = checks::file_digest(&replay.flat)? == served_flat.body;
        report.check(
            "the replayed set-up publication equals the daemon's bytes",
            same,
        );
        plan = mix_plan(o.seed, o.seconds * 3.0, s, &mut corpus, &base);
        if let Some((MixOp::ReadTerm(term), _)) =
            plan.iter().find(|(op, _)| matches!(op, MixOp::ReadTerm(_)))
        {
            let served = d.call("GET", &routes::chunks(Some(*term)), b"").0;
            expect_ok(served.status);
            let request = request_bytes("GET", &routes::chunks(Some(*term)), b"");
            tracer.set_enabled(false);
            let replayed = replay.read_term(&request, total_clusters)?;
            tracer.clear();
            report.check(
                "a replayed term read equals the daemon's bytes",
                replayed == served.body,
            );
        }
    }
    d.stop()?;

    // The replay loop: ops alternate traced / untraced.
    let started = Instant::now();
    let mut i = 0usize;
    let mut verified_flat: Option<Digest> = None;
    while i < 4 || started.elapsed().as_secs_f64() < o.seconds {
        tracer.set_enabled(i.is_multiple_of(2));
        match w {
            Workload::Publish => {
                replay.anonymize(&anonymize_request)?;
                let flat = checks::file_digest(&replay.flat)?;
                if i == 0 {
                    report.check(
                        "the replayed publication equals the daemon's bytes",
                        flat == served_flat.body,
                    );
                }
                if verified_flat != Some(flat) {
                    let publication = replay
                        .chunks
                        .combined_dataset()
                        .map_err(text)?
                        .ok_or("nothing published")?;
                    total_clusters = publication.clusters.len();
                    if replay.verify(&publication) {
                        verified_flat = Some(flat);
                    } else {
                        failed += 1;
                    }
                }
            }
            Workload::Append => {
                if i >= deltas.len() {
                    deltas.push(corpus.take(s.append_records));
                }
                let request = request_bytes("POST", &routes::append(), &data::body(&deltas[i]));
                let pipeline = replay.append(&request)?;
                if i + 1 == daemon_jobs {
                    let flat = checks::file_digest(&replay.flat)?;
                    report.check(
                        "the replayed appends publish the daemon's bytes",
                        flat == served_flat.body,
                    );
                }
                if !replay.verify(&pipeline.combined_output().dataset) {
                    failed += 1;
                }
            }
            Workload::ServeMix => {
                let (op, planned) = &plan[i % plan.len()];
                let request = request_bytes(planned.method, &planned.target, &planned.body);
                match op {
                    MixOp::Ingest => {
                        replay.ingest(&request)?;
                    }
                    MixOp::ReadTerm(_) => {
                        replay.read_term(&request, total_clusters)?;
                    }
                    MixOp::ReadFull => replay.read_full(&request)?,
                }
            }
        }
        i += 1;
    }
    let side = std::mem::take(&mut replay.side);
    replay.wire.close()?;
    report.check("every replayed publication verifies", failed == 0);

    // Per-layer metrics from the traced ops.
    let spans = tracer.spans();
    let ops = tracer.ops();
    let traced: Vec<(&str, usize)> = ops
        .iter()
        .filter_map(|op| op.root.map(|r| (op.kind, r)))
        .collect();
    let totals: Vec<_> = traced
        .iter()
        .map(|&(_, root)| layer_totals(&spans, root))
        .collect();
    let per_op = |name: &str, scale: f64| -> Vec<f64> {
        totals
            .iter()
            .filter_map(|t| t.get(name).map(|v| v.0 * scale))
            .collect()
    };
    let per_op_count = |name: &str| -> Vec<f64> {
        totals
            .iter()
            .filter_map(|t| t.get(name).map(|v| v.1 as f64))
            .collect()
    };
    let mut values: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
    values.insert("serve.healthz_ms", healthz);
    values.insert("serve.parse_us", per_op("serve.parse", 1e6));
    values.insert("serve.write_ms", per_op("serve.write", 1e3));
    values.insert("transact.parse_us", per_op("transact.parse", 1e6));
    values.insert("store.flush_ms", per_op("store.flush", 1e3));
    values.insert("store.scan_s", per_op("store.scan", 1.0));
    values.insert(
        "store.scan.records_per_s",
        totals
            .iter()
            .filter_map(|t| t.get("store.scan").map(|v| v.1 as f64 / v.0))
            .collect(),
    );
    values.insert("store.publish.stage_s", per_op("store.publish.stage", 1.0));
    values.insert(
        "store.publish.chunks_skipped",
        per_op_count("store.publish.stage"),
    );
    values.insert(
        "store.publish.commit_ms",
        per_op("store.publish.commit", 1e3),
    );
    values.insert("store.read.filtered_ms", per_op("store.read.filtered", 1e3));
    values.insert("store.read.render_ms", per_op("store.read.render", 1e3));
    values.insert("core.horpart_s", per_op("core.horpart", 1.0));
    values.insert("core.verpart_s", per_op("core.verpart", 1.0));
    values.insert("core.refine_s", per_op("core.refine", 1.0));
    values.insert("core.serialize_s", per_op("core.serialize", 1.0));
    values.insert("incremental.build_s", per_op("incremental.build", 1.0));
    values.insert("incremental.append_s", per_op("incremental.append", 1.0));
    values.insert(
        "incremental.publish_dirty_s",
        per_op("incremental.publish_dirty", 1.0),
    );
    values.insert(
        "incremental.flat_render_s",
        per_op("incremental.flat_render", 1.0),
    );
    values.extend(side);
    values.extend(job);
    let mut flagged = Vec::new();
    for (kind, unattributed, overhead) in OP_KINDS {
        let shares: Vec<f64> = traced
            .iter()
            .filter(|(k, _)| *k == kind)
            .map(|&(_, root)| {
                let share = unattributed_share(&spans, root);
                if share > RECONCILE_TOLERANCE {
                    flagged.push((spans[root].op, kind, share));
                }
                share
            })
            .collect();
        let seconds = |traced: bool| -> Vec<f64> {
            ops.iter()
                .filter(|op| op.kind == kind && op.root.is_some() == traced)
                .map(|op| op.seconds)
                .collect()
        };
        if let (Some(on), Some(off)) = (median(&seconds(true)), median(&seconds(false))) {
            values.insert(overhead, vec![on / off]);
            report.notes.push(format!(
                "{kind}: {} traced / {} untraced ops, median {:.3} ms / {:.3} ms",
                seconds(true).len(),
                seconds(false).len(),
                on * 1e3,
                off * 1e3
            ));
        }
        values.insert(unattributed, shares);
    }
    for (op, kind, share) in flagged.iter().take(10) {
        report.notes.push(format!(
            "reconciliation: op {op} ({kind}) leaves {:.1}% of its time outside any layer span (tolerance {:.0}%)",
            share * 100.0,
            RECONCILE_TOLERANCE * 100.0
        ));
    }
    values.insert("reconcile.flagged_ops", vec![flagged.len() as f64]);
    let wal: Vec<f64> = spans
        .iter()
        .filter(|s| s.name == "store.wal.append")
        .map(|s| s.seconds() * 1e3)
        .collect();
    for (name, unit) in PER_LAYER {
        let (value, samples) = match *name {
            "store.wal.append_p50_ms" => (quantile(&wal, 0.5), wal.len()),
            "store.wal.append_p99_ms" => (quantile(&wal, 0.99), wal.len()),
            _ => values.get(name).map_or((None, 0), |v| (median(v), v.len())),
        };
        report.metric(name, unit, value.unwrap_or(0.0), samples);
    }

    std::fs::create_dir_all(o.trace_file.parent().unwrap_or(&o.work_dir)).map_err(text)?;
    let mut out = BufWriter::new(std::fs::File::create(&o.trace_file).map_err(text)?);
    tracer.write_jsonl(&mut out).map_err(text)?;
    std::io::Write::flush(&mut out).map_err(text)?;
    report.notes.push(format!(
        "{} spans written to {}",
        spans.len(),
        o.trace_file.display()
    ));
    report.header.push(("client_threads", "1".to_owned()));
    report.header.push(("replayed_ops", i.to_string()));
    report.attempted = attempted + i as u64;
    report.failed = failed;
    Ok(report)
}
