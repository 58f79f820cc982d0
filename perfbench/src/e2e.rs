//! The end-to-end run: tracing off, every request over loopback.
//!
//! Each run sets up several times (`setup_s` is the median), runs its
//! workload's loop for the requested seconds, then sends a fixed number of
//! probe requests on the routes its own mix does not drive, so every
//! workload reports every end-to-end metric.  Output checks run after the
//! loop, on copies taken while it ran.

use crate::checks::{self, Publications};
use crate::data::{self, Corpus, TermDraw};
use crate::stats::{median, quantile};
use crate::wire::{self, Digest, Planned, Reply};
use crate::{peak_rss_mb, routes, Daemon, Options, Report, Scale, Workload};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use std::collections::BTreeMap;
use std::time::{Duration, Instant};
use transact::{Dataset, Record};

/// The open loop is invalid when its generator sends the 99th-percentile
/// request later behind schedule than this share of the mean gap between
/// requests: past it, the generator rather than the daemon sets the pace.
pub const LATENESS_LIMIT: f64 = 0.5;

/// One request of the `serve-mix` schedule.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MixOp {
    /// `POST /records` with a fresh body.
    Ingest,
    /// `GET /chunks?term=`.
    ReadTerm(u32),
    /// `GET /chunks`.
    ReadFull,
}

/// The `serve-mix` schedule for `seconds`: 70% ingests of fresh records,
/// 20% term reads (terms drawn by support over `published`), 10% full
/// reads.  Every block of ten consecutive requests holds exactly seven
/// ingests, two term reads and one full read in a seeded order, so runs
/// differ in order, not in mix.  Inter-arrival times are uniform in ±50% of
/// the mean, which also keeps the requests from locking onto the accept
/// loop's poll period.  The schedule depends on the seed and the length
/// only, never on how fast the daemon answers.
pub fn mix_plan(
    seed: u64,
    seconds: f64,
    scale: &Scale,
    corpus: &mut Corpus,
    published: &[Record],
) -> Vec<(MixOp, Planned)> {
    let draw = TermDraw::new(published);
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5E27_E0A1_0B5E_55ED);
    let mut plan = Vec::new();
    let mut block: Vec<u8> = Vec::new();
    let mut at = 0.02;
    while at < seconds {
        if block.is_empty() {
            block = vec![0, 0, 0, 0, 0, 0, 0, 1, 1, 2];
            block.shuffle(&mut rng);
        }
        let due = Duration::from_secs_f64(at);
        let (op, method, target, body) = match block.pop() {
            Some(0) => {
                let records = corpus.take(scale.mix_body);
                (
                    MixOp::Ingest,
                    "POST",
                    routes::records(),
                    data::body(&records),
                )
            }
            Some(1) => {
                let term = draw.draw(&mut rng);
                (
                    MixOp::ReadTerm(term),
                    "GET",
                    routes::chunks(Some(term)),
                    Vec::new(),
                )
            }
            _ => (MixOp::ReadFull, "GET", routes::chunks(None), Vec::new()),
        };
        plan.push((
            op,
            Planned {
                due,
                method,
                target,
                body,
            },
        ));
        at += rng.gen_range(0.5..1.5) / scale.mix_rate;
    }
    plan
}

/// The `n` terms of highest support in `records` (ties to the lower id).
fn top_terms(records: &[Record], n: usize) -> Vec<u32> {
    let mut support: BTreeMap<u32, usize> = BTreeMap::new();
    for term in records.iter().flat_map(|r| r.iter()) {
        *support.entry(term.raw()).or_default() += 1;
    }
    let mut terms: Vec<(usize, u32)> = support.into_iter().map(|(t, s)| (s, t)).collect();
    terms.sort_by(|a, b| b.0.cmp(&a.0).then(a.1.cmp(&b.1)));
    terms.into_iter().take(n).map(|(_, t)| t).collect()
}

/// Latency samples per route, seconds; a refused request is infinite.
#[derive(Default)]
struct Samples {
    setup: Vec<f64>,
    anonymize: Vec<f64>,
    append: Vec<f64>,
    ingest: Vec<f64>,
    read_term: Vec<f64>,
    read_full: Vec<f64>,
}

/// Counts requests and turns a refusal into an infinite latency.
#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
}

impl Tally {
    fn sample(&mut self, reply: &Reply, seconds: f64) -> f64 {
        self.attempted += 1;
        if reply.status == 200 {
            seconds
        } else {
            self.failed += 1;
            f64::INFINITY
        }
    }
}

/// Wall time of each phase of a run, for the report.
struct Phases(Vec<String>, Instant);

impl Default for Phases {
    fn default() -> Self {
        Phases(Vec::new(), Instant::now())
    }
}

impl Phases {
    fn mark(&mut self, phase: &str) {
        self.0
            .push(format!("{phase} {:.1} s", self.1.elapsed().as_secs_f64()));
        self.1 = Instant::now();
    }
}

/// A read whose response is checked after the loop: a term read against
/// the publication it saw, a full read against the flat file it saw.
struct Read {
    term: Option<u32>,
    body: Digest,
    flat: Option<Digest>,
}

/// Runs one end-to-end measurement.
pub fn run(o: &Options) -> Result<Report, String> {
    let s = &o.scale;
    let w = o.workload;
    let mut report = Report::default();
    let mut samples = Samples::default();
    let mut tally = Tally::default();
    let base_records = match w {
        Workload::ServeMix => s.mix_records,
        _ => s.records,
    };
    let mut corpus = Corpus::new(o.seed, s.population, base_records);
    let base = corpus.base().to_vec();
    let batches: Vec<Vec<Record>> = base.chunks(s.ingest_body).map(<[Record]>::to_vec).collect();
    let bodies: Vec<Vec<u8>> = batches.iter().map(|b| data::body(b)).collect();
    let mut pubs = Publications::new(o.work_dir.join("publications"))?;
    let mut phases = Phases::default();

    // Set-up: a fresh daemon and data directory each time; the last one
    // serves the loop.
    let mut daemon: Option<Daemon> = None;
    for i in 0..s.setups.max(1) {
        if let Some(old) = daemon.take() {
            let dir = old.dir.clone();
            old.stop()?;
            std::fs::remove_dir_all(dir).ok();
        }
        let started = Instant::now();
        let d = Daemon::start(&o.work_dir.join(format!("daemon{i}")), s.batch_size)?;
        for body in &bodies {
            let (reply, secs) = d.call("POST", &routes::records(), body);
            let secs = tally.sample(&reply, secs);
            if w != Workload::ServeMix {
                samples.ingest.push(secs);
            }
        }
        if w != Workload::Publish {
            let (reply, secs) = d.call("POST", &routes::anonymize(), b"");
            samples.anonymize.push(tally.sample(&reply, secs));
        }
        samples.setup.push(started.elapsed().as_secs_f64());
        daemon = Some(d);
    }
    let d = daemon.expect("at least one set-up ran");
    let setup_pub = match w {
        Workload::Publish => None,
        _ => Some(pubs.record(&d.dataset_dir())?),
    };

    phases.mark("set-up");

    // The measured loop.  The closed loops read between jobs, so their
    // read samples spread over the whole loop instead of one burst after
    // it: a full read after every job and, on `publish`, whose publication
    // never changes, a read of one of the most supported terms.
    let mut loop_pubs: Vec<(usize, Digest)> = Vec::new();
    let mut first_delta: Option<Vec<Record>> = None;
    let mut reads: Vec<Read> = Vec::new();
    let top = top_terms(&base, s.probes);
    let started = Instant::now();
    match w {
        Workload::Publish | Workload::Append => loop {
            let (reply, secs) = if w == Workload::Publish {
                d.call("POST", &routes::anonymize(), b"")
            } else {
                // The first append carries the same records in every run,
                // so the publication `tlost` is taken on does not depend
                // on the seed.
                let delta = match first_delta {
                    None => corpus.after_base(s.append_records),
                    Some(_) => corpus.take(s.append_records),
                };
                let reply = d.call("POST", &routes::append(), &data::body(&delta));
                first_delta.get_or_insert(delta);
                reply
            };
            let secs = tally.sample(&reply, secs);
            if w == Workload::Publish {
                samples.anonymize.push(secs);
            } else {
                samples.append.push(secs);
            }
            if reply.status == 200 {
                let (index, flat) = pubs.record(&d.dataset_dir())?;
                loop_pubs.push((index, flat));
                let (reply, secs) = d.call("GET", &routes::chunks(None), b"");
                samples.read_full.push(tally.sample(&reply, secs));
                reads.push(Read {
                    term: None,
                    body: reply.body,
                    flat: Some(flat),
                });
                if w == Workload::Publish {
                    let term = top[loop_pubs.len() % top.len()];
                    let (reply, secs) = d.call("GET", &routes::chunks(Some(term)), b"");
                    samples.read_term.push(tally.sample(&reply, secs));
                    reads.push(Read {
                        term: Some(term),
                        body: reply.body,
                        flat: None,
                    });
                }
            }
            if started.elapsed().as_secs_f64() >= o.seconds {
                break;
            }
        },
        Workload::ServeMix => {
            let (ops, plan): (Vec<MixOp>, Vec<Planned>) =
                mix_plan(o.seed, o.seconds, s, &mut corpus, &base)
                    .into_iter()
                    .unzip();
            let sent = wire::open_loop(d.addr, &plan, Duration::from_secs(60));
            let mut late = Vec::new();
            for (op, sent) in ops.iter().zip(&sent) {
                let secs = tally.sample(&sent.reply, sent.latency.as_secs_f64());
                late.push(sent.late.as_secs_f64() * 1e3);
                match op {
                    MixOp::Ingest => samples.ingest.push(secs),
                    MixOp::ReadTerm(term) => {
                        samples.read_term.push(secs);
                        reads.push(Read {
                            term: Some(*term),
                            body: sent.reply.body,
                            flat: None,
                        });
                    }
                    MixOp::ReadFull => {
                        samples.read_full.push(secs);
                        reads.push(Read {
                            term: None,
                            body: sent.reply.body,
                            flat: setup_pub.map(|(_, flat)| flat),
                        });
                    }
                }
            }
            let late_p99 = quantile(&late, 0.99).unwrap_or(0.0);
            let limit_ms = LATENESS_LIMIT * 1e3 / s.mix_rate;
            let offered = plan.len() as f64 / o.seconds;
            report
                .header
                .push(("offered_rate_per_s", format!("{offered:.2}")));
            report.header.push(("client_threads", "1".to_owned()));
            report.notes.push(format!(
                "generator lateness: p99 {late_p99:.3} ms, max {:.3} ms behind schedule (limit {limit_ms} ms at p99)",
                quantile(&late, 1.0).unwrap_or(0.0)
            ));
            report.check(
                "open loop: generator kept its schedule",
                late_p99 <= limit_ms,
            );
        }
    }
    if w != Workload::ServeMix {
        report.header.push(("client_threads", "1".to_owned()));
        report
            .header
            .push(("offered_rate_per_s", "closed loop".to_owned()));
    }
    let peak_rss = peak_rss_mb();
    phases.mark("loop");

    // On `append`, whose publication changes with every job, the term
    // reads come after the loop, on the publication it left: the most
    // supported terms, whose reads return the most clusters.
    if w == Workload::Append {
        for &term in &top {
            let (reply, secs) = d.call("GET", &routes::chunks(Some(term)), b"");
            samples.read_term.push(tally.sample(&reply, secs));
            reads.push(Read {
                term: Some(term),
                body: reply.body,
                flat: None,
            });
        }
    }

    // Probes of the job routes the mix does not drive.
    if w != Workload::Append {
        for _ in 0..s.probes {
            let delta = corpus.take(s.append_records);
            let (reply, secs) = d.call("POST", &routes::append(), &data::body(&delta));
            samples.append.push(tally.sample(&reply, secs));
            if reply.status == 200 {
                pubs.record(&d.dataset_dir())?;
            }
        }
    }
    let dataset_dir = d.dataset_dir();
    d.stop()?;
    phases.mark("probes");

    // Output checks, with the daemon stopped: verification runs beside
    // the reference pipeline, one core each.
    let mut failed_checks = 0u64;
    let (bad, reference) = std::thread::scope(|scope| {
        let verify = scope.spawn(|| pubs.verify());
        let reference =
            checks::reference_store(&o.work_dir.join("reference"), &batches).and_then(|store| {
                let (flat, publication) = checks::reference_publication(&store, s.batch_size)?;
                Ok((store, flat, publication))
            });
        (
            verify
                .join()
                .expect("the verification thread does not panic"),
            reference,
        )
    });
    let bad = bad?;
    let (store, ref_flat, ref_pub) = reference?;
    failed_checks += bad.len() as u64;
    report.check(
        "verify_structure holds on every anonymize/append publication",
        bad.is_empty(),
    );
    let tlost = match w {
        Workload::Publish => {
            let mismatched = loop_pubs
                .iter()
                .filter(|(_, flat)| *flat != ref_flat)
                .count();
            failed_checks += mismatched as u64;
            report.check(
                "every POST /anonymize published the in-process Pipeline's bytes",
                mismatched == 0 && !loop_pubs.is_empty(),
            );
            metrics::tlost(&Dataset::from_records(base.clone()), &ref_pub)
        }
        Workload::Append | Workload::ServeMix => {
            let (_, setup_flat) = setup_pub.expect("set-up published");
            report.check(
                "the set-up publication equals the in-process Pipeline's bytes",
                setup_flat == ref_flat,
            );
            failed_checks += u64::from(setup_flat != ref_flat);
            if w == Workload::ServeMix {
                metrics::tlost(&Dataset::from_records(base.clone()), &ref_pub)
            } else {
                // The probes read after the last append, not the set-up
                // publication; the read check loads that state below.
                let delta = first_delta.ok_or("no append ran")?;
                let (expected, after_first) =
                    checks::reference_append(&store, s.batch_size, &delta)?;
                // The state after the first append: the set-up's batch files
                // overridden by the ones the append rewrote.
                let mut served: BTreeMap<usize, Digest> =
                    pubs.written_batches(0)?.into_iter().collect();
                let (first, _) = loop_pubs.first().ok_or("no append succeeded")?;
                served.extend(pubs.written_batches(*first)?);
                let same = served == expected.into_iter().collect();
                failed_checks += u64::from(!same);
                report.check(
                    "the first POST /append published the in-process IncrementalPipeline's chunks",
                    same,
                );
                let mut records = base.clone();
                records.extend(delta);
                metrics::tlost(&Dataset::from_records(records), &after_first)
            }
        }
    };
    // Reads saw the reference publication on `publish` and `serve-mix`;
    // on `append` they saw the committed chunk files after the last append.
    let read_pub = match w {
        Workload::Append => checks::load_publication(&dataset_dir)?,
        _ => ref_pub,
    };
    let mut term_reads = checks::TermReads::new(&read_pub);
    let mut wrong_reads = 0;
    for read in &reads {
        let want = match (read.term, read.flat) {
            (Some(t), _) => term_reads.expected(t),
            (None, flat) => flat.ok_or("a full read without its publication")?,
        };
        if read.body != want {
            wrong_reads += 1;
        }
    }
    failed_checks += wrong_reads;
    report.check(
        "every term read is the publication's clusters mentioning the term, every full read the publication",
        wrong_reads == 0,
    );

    phases.mark("checks");
    report
        .notes
        .push(format!("phases: {}", phases.0.join(", ")));
    report.attempted = tally.attempted;
    report.failed = tally.failed + failed_checks;
    let ms = 1e3;
    let m = |v: &[f64], q: f64| quantile(v, q).ok_or("a route has no samples".to_owned());
    let setup_s = median(&samples.setup).ok_or("no set-up")?;
    report.metric("setup_s", "s", setup_s, samples.setup.len());
    report.metric(
        "anonymize_p50_s",
        "s",
        m(&samples.anonymize, 0.5)?,
        samples.anonymize.len(),
    );
    report.metric(
        "append_p50_s",
        "s",
        m(&samples.append, 0.5)?,
        samples.append.len(),
    );
    report.metric(
        "ingest_p50_ms",
        "ms",
        m(&samples.ingest, 0.5)? * ms,
        samples.ingest.len(),
    );
    report.metric(
        "ingest_p95_ms",
        "ms",
        m(&samples.ingest, 0.95)? * ms,
        samples.ingest.len(),
    );
    report.metric(
        "read_term_p50_ms",
        "ms",
        m(&samples.read_term, 0.5)? * ms,
        samples.read_term.len(),
    );
    report.metric(
        "read_term_p90_ms",
        "ms",
        m(&samples.read_term, 0.9)? * ms,
        samples.read_term.len(),
    );
    report.metric(
        "read_full_p50_ms",
        "ms",
        m(&samples.read_full, 0.5)? * ms,
        samples.read_full.len(),
    );
    report.metric(
        "read_full_p90_ms",
        "ms",
        m(&samples.read_full, 0.9)? * ms,
        samples.read_full.len(),
    );
    report.metric("peak_rss_mb", "MiB", peak_rss, 1);
    report.metric("tlost", "ratio", tlost, 1);
    drop(store);
    std::fs::remove_dir_all(dataset_dir).ok();
    Ok(report)
}
