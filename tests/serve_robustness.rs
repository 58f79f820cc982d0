//! Serve-layer robustness under injected store faults (in-process daemon):
//!
//! 1. **Graceful degradation with blast-radius one**: a persistent write
//!    failure scoped to one dataset flips that dataset — and only that
//!    dataset — to read-only.  Its writes answer 503 + `Retry-After`, its
//!    reads keep serving the last committed publication, and every other
//!    dataset keeps full read-write service.
//! 2. **The counters tell the story**: `faults.injected`,
//!    `serve.job_retries`, and `serve.datasets_degraded` all surface in
//!    `GET /metrics`, and `GET /healthz` names the degraded dataset.
//! 3. **Per-job wall-clock timeouts**: a job that outlives
//!    `ServeConfig::job_reply_timeout` answers 504 without wedging the
//!    daemon.
//! 4. **The flat publication commits through the seam**: a fault at the
//!    flat file's rename fails the job (503 degraded after its retries)
//!    while the previous publication keeps serving byte-for-byte.
//! 5. **A failed append leaves nothing stale behind**: an append whose flat
//!    commit fails built through the memo of the previous append; after
//!    the restart a degraded dataset needs, the next append publishes the
//!    bytes of the CLI's rebuild-then-append on the same records.
//!
//! The failpoint registry and the obs counters are process-global, so the
//! tests serialize on one mutex, reset both on entry, and scope every armed
//! fault to a dataset path under their own temp directory.

use datagen::{QuestConfig, QuestGenerator};
use disassoc_faults as faults;
use disassoc_serve::{client, ServeConfig, Server, ShutdownHandle};
use disassoc_store::failpoints;
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::sync::{Mutex, MutexGuard};
use std::time::Duration;
use transact::Dataset;

static LOCK: Mutex<()> = Mutex::new(());

fn guard() -> MutexGuard<'static, ()> {
    let g = LOCK.lock().unwrap_or_else(|p| p.into_inner());
    faults::disarm_all();
    // Counters are process-global too: each test asserts on its own.
    disassoc_obs::metrics::reset_all();
    g
}

fn tmpdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("serve_robust_{tag}_{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn quest(records: usize, domain: usize, seed: u64) -> Dataset {
    QuestGenerator::generate_with(QuestConfig {
        num_transactions: records,
        domain_size: domain,
        avg_transaction_len: 6.0,
        seed,
        ..QuestConfig::default()
    })
}

fn numeric_body(dataset: &Dataset) -> Vec<u8> {
    let mut body = Vec::new();
    transact::io::write_numeric_transactions(dataset, &mut body).unwrap();
    body
}

fn spawn_server(
    data_dir: &Path,
    config: ServeConfig,
) -> (
    SocketAddr,
    ShutdownHandle,
    std::thread::JoinHandle<std::io::Result<()>>,
) {
    let server = Server::bind("127.0.0.1:0", data_dir.to_path_buf(), config).unwrap();
    let addr = server.local_addr().unwrap();
    let shutdown = server.shutdown_handle();
    let join = std::thread::spawn(move || server.run());
    (addr, shutdown, join)
}

/// Pulls one counter's value out of the `/metrics` JSON body.
fn counter_value(metrics_json: &str, name: &str) -> u64 {
    let needle = format!("\"{name}\": ");
    let at = metrics_json
        .find(&needle)
        .unwrap_or_else(|| panic!("counter {name} missing from /metrics:\n{metrics_json}"));
    metrics_json[at + needle.len()..]
        .chars()
        .take_while(|c| c.is_ascii_digit())
        .collect::<String>()
        .parse()
        .unwrap()
}

#[test]
fn persistent_write_failure_degrades_one_dataset_and_spares_the_rest() {
    let _g = guard();
    let data_dir = tmpdir("degrade");
    let (addr, shutdown, join) = spawn_server(&data_dir, ServeConfig::default());

    // Two healthy datasets, both published.
    let body_a = numeric_body(&quest(300, 60, 5));
    let body_b = numeric_body(&quest(300, 60, 6));
    for (name, body) in [("dsa", &body_a), ("dsb", &body_b)] {
        let ingest = client::post(addr, &format!("/datasets/{name}/records"), body).unwrap();
        assert_eq!(ingest.status, 200, "{}", ingest.text());
        let anon = client::post(addr, &format!("/datasets/{name}/anonymize?k=3&m=2"), b"").unwrap();
        assert_eq!(anon.status, 200, "{}", anon.text());
    }
    let published_a = client::get(addr, "/datasets/dsa/chunks").unwrap();
    assert_eq!(published_a.status, 200);

    // Simulated stuck disk under dsa only: every WAL append in its store
    // directory fails, forever.  The path filter is the blast radius.
    faults::arm(
        failpoints::WAL_APPEND,
        faults::Policy::disk_full().when_path_contains("/dsa/"),
    );

    // Writes to dsa: retried (transient as far as the server knows), then
    // the dataset degrades to read-only and answers 503 + Retry-After.
    let write = client::post(addr, "/datasets/dsa/records", &body_a).unwrap();
    assert_eq!(write.status, 503, "{}", write.text());
    assert!(write.header("Retry-After").is_some());
    assert!(write.text().contains("read-only"), "{}", write.text());

    // Once degraded, further writes bounce immediately (no fresh retries),
    // including anonymize jobs.
    let again = client::post(addr, "/datasets/dsa/records", &body_a).unwrap();
    assert_eq!(again.status, 503);
    let anon = client::post(addr, "/datasets/dsa/anonymize?k=3&m=2", b"").unwrap();
    assert_eq!(anon.status, 503, "{}", anon.text());

    // Reads of dsa keep serving the committed publication.
    let read = client::get(addr, "/datasets/dsa/chunks").unwrap();
    assert_eq!(read.status, 200);
    assert_eq!(read.body, published_a.body, "publication must be unchanged");

    // dsb is untouched: full read-write service.
    let write_b = client::post(addr, "/datasets/dsb/records", &body_b).unwrap();
    assert_eq!(write_b.status, 200, "{}", write_b.text());
    let anon_b = client::post(addr, "/datasets/dsb/anonymize?k=3&m=2", b"").unwrap();
    assert_eq!(anon_b.status, 200, "{}", anon_b.text());
    let read_b = client::get(addr, "/datasets/dsb/chunks").unwrap();
    assert_eq!(read_b.status, 200);

    // healthz names the casualty; the dataset summary flags it.
    let health = client::get(addr, "/healthz").unwrap();
    assert_eq!(health.status, 200);
    let health_text = health.text();
    assert!(health_text.contains("\"degraded\""), "{health_text}");
    assert!(health_text.contains("dsa"), "{health_text}");
    assert!(!health_text.contains("dsb\"]"), "{health_text}");
    let summary = client::get(addr, "/datasets/dsa").unwrap();
    assert!(
        summary.text().contains("\"degraded\":true"),
        "{}",
        summary.text()
    );

    // The counters surface the whole story in /metrics.
    let metrics = client::get(addr, "/metrics").unwrap();
    let text = metrics.text();
    assert!(counter_value(&text, "faults.injected") >= 1);
    assert!(counter_value(&text, "serve.job_retries") >= 2);
    assert_eq!(counter_value(&text, "serve.datasets_degraded"), 1);

    // A retrying client sees the degraded 503s surface after its attempts
    // are exhausted — deterministically, honouring Retry-After.
    let policy = client::RetryPolicy {
        max_attempts: 2,
        base_delay: Duration::from_millis(1),
        max_delay: Duration::from_millis(2),
    };
    let resp = client::post_with_retry(addr, "/datasets/dsa/records", &body_a, &policy).unwrap();
    assert_eq!(resp.status, 503);

    // Disarm before the drain so shutdown's store flushes stay healthy.
    faults::disarm_all();
    shutdown.shutdown();
    join.join().unwrap().unwrap();
    std::fs::remove_dir_all(&data_dir).ok();
}

#[test]
fn jobs_past_the_wall_clock_timeout_answer_504() {
    let _g = guard();
    let data_dir = tmpdir("timeout");
    let config = ServeConfig {
        job_reply_timeout: Duration::from_millis(1),
        ..ServeConfig::default()
    };
    let (addr, shutdown, join) = spawn_server(&data_dir, config);

    // A dataset big enough that anonymization cannot finish in a
    // millisecond, by a wide margin.
    let body = numeric_body(&quest(8_000, 150, 7));
    let ingest = client::post(addr, "/datasets/slow/records", &body).unwrap();
    assert_eq!(ingest.status, 200, "{}", ingest.text());
    let anon = client::post(addr, "/datasets/slow/anonymize?k=3&m=2", b"").unwrap();
    assert_eq!(anon.status, 504, "{}", anon.text());
    assert!(anon.text().contains("still running"), "{}", anon.text());

    // The daemon is not wedged: admin routes answer, and the drain (which
    // lets the job finish) exits cleanly.
    let health = client::get(addr, "/healthz").unwrap();
    assert_eq!(health.status, 200);
    shutdown.shutdown();
    join.join().unwrap().unwrap();
    std::fs::remove_dir_all(&data_dir).ok();
}

#[test]
fn a_failed_flat_commit_degrades_and_keeps_the_previous_publication() {
    let _g = guard();
    let data_dir = tmpdir("flat_commit");
    let (addr, shutdown, join) = spawn_server(&data_dir, ServeConfig::default());

    let body = numeric_body(&quest(300, 60, 8));
    let ingest = client::post(addr, "/datasets/flat/records", &body).unwrap();
    assert_eq!(ingest.status, 200, "{}", ingest.text());
    let anon = client::post(addr, "/datasets/flat/anonymize?k=3&m=2", b"").unwrap();
    assert_eq!(anon.status, 200, "{}", anon.text());
    let published = client::get(addr, "/datasets/flat/chunks").unwrap();
    assert_eq!(published.status, 200);

    // Every flat-file commit under this test's data directory fails.
    faults::arm(
        failpoints::PUBLISH_FLAT_RENAME,
        faults::Policy::error().when_path_contains(data_dir.to_str().unwrap()),
    );
    let again = client::post(addr, "/datasets/flat/anonymize?k=3&m=2", b"").unwrap();
    assert_eq!(again.status, 503, "{}", again.text());
    assert!(again.text().contains("read-only"), "{}", again.text());
    let stats = faults::site_stats(failpoints::PUBLISH_FLAT_RENAME).unwrap();
    assert!(stats.triggers >= 1, "{stats:?}");
    faults::disarm_all();

    // The first publication still serves, byte-for-byte, and the failed
    // commit left no staged file behind.
    let read = client::get(addr, "/datasets/flat/chunks").unwrap();
    assert_eq!(read.status, 200);
    assert_eq!(read.body, published.body, "publication must be unchanged");
    assert!(!data_dir
        .join("flat/publication.chunks.json.partial")
        .exists());

    shutdown.shutdown();
    join.join().unwrap().unwrap();
    std::fs::remove_dir_all(&data_dir).ok();
}

/// Runs one `disassoc` command line in process.
fn run_cli(line: &str) {
    let args: Vec<String> = line.split_whitespace().map(String::from).collect();
    let cmd = disassoc_cli::Command::parse(&args).expect("valid command line");
    cmd.run(&mut Vec::new()).expect("command succeeds");
}

#[test]
fn an_append_after_a_failed_append_publishes_the_bytes_of_a_rebuild() {
    let _g = guard();
    let data_dir = tmpdir("failed_append");
    let base = quest(450, 60, 9);
    let deltas: Vec<Dataset> = (10..13).map(|seed| quest(30, 60, seed)).collect();
    let route = "/datasets/fa/append?k=3&m=2&batch-size=100";
    let (addr, shutdown, join) = spawn_server(&data_dir, ServeConfig::default());
    let ingest = client::post(addr, "/datasets/fa/records", &numeric_body(&base)).unwrap();
    assert_eq!(ingest.status, 200, "{}", ingest.text());
    let first = client::post(addr, route, &numeric_body(&deltas[0])).unwrap();
    assert_eq!(first.status, 200, "{}", first.text());

    // The second append persists its records, then fails to commit the
    // flat file; its job degrades the dataset.
    faults::arm(
        failpoints::PUBLISH_FLAT_RENAME,
        faults::Policy::error().when_path_contains(data_dir.to_str().unwrap()),
    );
    let failed = client::post(addr, route, &numeric_body(&deltas[1])).unwrap();
    assert_eq!(failed.status, 503, "{}", failed.text());
    faults::disarm_all();
    // It built through the memo of the first append: 450 records at batch
    // size 100 leave 4 full batches to reuse.
    let metrics = client::get(addr, "/metrics").unwrap().text();
    assert_eq!(counter_value(&metrics, "incr.batches_reused"), 4);
    // A degraded dataset takes writes again only after a restart.
    shutdown.shutdown();
    join.join().unwrap().unwrap();

    let (addr, shutdown, join) = spawn_server(&data_dir, ServeConfig::default());
    let next = client::post(addr, route, &numeric_body(&deltas[2])).unwrap();
    assert_eq!(next.status, 200, "{}", next.text());
    let served = client::get(addr, "/datasets/fa/chunks").unwrap();
    assert_eq!(served.status, 200);
    shutdown.shutdown();
    join.join().unwrap().unwrap();

    // The CLI rebuilds from the store on every append: the same records
    // (the failed append's included) give the same bytes.
    let cli_dir = data_dir.join("cli");
    std::fs::create_dir_all(&cli_dir).unwrap();
    let store = cli_dir.join("store");
    let prefix = cli_dir.join("published");
    let input = |name: &str, dataset: &Dataset| {
        let path = cli_dir.join(name);
        transact::io::write_numeric_transactions_path(dataset, &path).unwrap();
        path.display().to_string()
    };
    run_cli(&format!(
        "ingest --input {} --store {}",
        input("base.dat", &base),
        store.display()
    ));
    for (i, delta) in deltas.iter().enumerate() {
        run_cli(&format!(
            "append --input {} --store {} --k 3 --m 2 --batch-size 100 \
             --max-dirty-frac 1 --out-prefix {}",
            input(&format!("delta{i}.dat"), delta),
            store.display(),
            prefix.display()
        ));
    }
    let cli_bytes = std::fs::read(prefix.with_extension("chunks.json")).unwrap();
    assert!(
        served.body == cli_bytes,
        "the append after a failed one must publish the bytes of a rebuild"
    );
    std::fs::remove_dir_all(&data_dir).ok();
}
