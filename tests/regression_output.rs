//! Output-bytes regression tests: the anonymity engine may change *speed*,
//! never *results*.
//!
//! The pinned fixture and hashes below were produced by the pre-dense-engine
//! (Itemset-based) implementation.  Any engine change that alters a greedy
//! accept/reject decision, a projection, a shuffle consumption order, or the
//! JSON serialization shows up here as a byte difference.  The compact batch
//! files and the daemon's term-read body are pinned alongside the pretty flat
//! file, so both directions of the JSON layer (render and parse) are covered.

use datagen::{QuestConfig, QuestGenerator};
use disassoc_serve::{client, ServeConfig, Server};
use disassoc_store::ChunkDir;
use disassociation::pipeline::{DatasetSource, JsonChunksSink, Pipeline};
use disassociation::DisassociationConfig;
use transact::{Dataset, Record, TermId};

/// FNV-1a 64-bit over a byte slice (enough to pin a deterministic artifact;
/// the repo intentionally has no cryptographic-hash dependency).
fn fnv64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Runs the same monolithic-batch pipeline the CLI uses for file input and
/// returns the `.chunks.json` bytes.
fn published_bytes(dataset: &Dataset, config: DisassociationConfig) -> Vec<u8> {
    let dir = std::env::temp_dir().join(format!(
        "disassoc_regression_{}_{}",
        std::process::id(),
        dataset.len()
    ));
    std::fs::create_dir_all(&dir).expect("creating the scratch directory");
    let path = dir.join("out.chunks.json");
    {
        let mut source = DatasetSource::new(dataset, dataset.len().max(1));
        let mut sink = JsonChunksSink::create(&path, &config).expect("creating the chunk sink");
        Pipeline::new(config)
            .source(&mut source)
            .sink(&mut sink)
            .threads(1)
            .run()
            .expect("anonymization succeeds");
    }
    let bytes = std::fs::read(&path).expect("reading the published chunks");
    std::fs::remove_dir_all(&dir).ok();
    bytes
}

fn fresh_dir(tag: &str) -> std::path::PathBuf {
    let dir =
        std::env::temp_dir().join(format!("disassoc_regression_{tag}_{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).expect("creating the test directory");
    dir
}

fn quest(records: usize, domain: usize, seed: u64) -> Dataset {
    QuestGenerator::generate_with(QuestConfig {
        num_transactions: records,
        domain_size: domain,
        avg_transaction_len: 10.0,
        seed,
        ..QuestConfig::default()
    })
}

/// The Figure 2 running example, anonymized with k=3, m=2 and
/// max_cluster_size 6, must serialize to the committed fixture byte for byte.
#[test]
fn figure2_output_is_byte_identical_to_fixture() {
    let rec = |ids: &[u32]| Record::from_ids(ids.iter().map(|&i| TermId::new(i)));
    let dataset = Dataset::from_records(vec![
        rec(&[0, 1, 2, 5, 7]),
        rec(&[2, 1, 6, 7, 3, 4]),
        rec(&[0, 2, 3, 5, 4]),
        rec(&[0, 1, 6]),
        rec(&[0, 1, 2, 3, 4]),
        rec(&[2, 8, 9, 10]),
        rec(&[11, 2, 5, 7]),
        rec(&[11, 8, 2, 10]),
        rec(&[11, 8, 9]),
        rec(&[11, 8, 2, 5, 7]),
    ]);
    let bytes = published_bytes(
        &dataset,
        DisassociationConfig {
            k: 3,
            m: 2,
            max_cluster_size: 6,
            ..Default::default()
        },
    );
    let fixture = std::fs::read(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../tests/fixtures/figure2_k3_m2.chunks.json"
    ))
    .expect("reading the committed fixture");
    assert_eq!(
        bytes, fixture,
        "published figure-2 chunks changed — the engine must change speed, not results"
    );
}

/// A 400-record Quest workload (k=3, m=2): pinned to the legacy engine's
/// output hash.
#[test]
fn quest_400_output_hash_is_pinned() {
    let bytes = published_bytes(
        &quest(400, 120, 7),
        DisassociationConfig {
            k: 3,
            m: 2,
            ..Default::default()
        },
    );
    assert_eq!(
        fnv64(&bytes),
        0xbd69_c19e_6a7d_eda0,
        "quest-400 published bytes changed"
    );
}

/// A 2000-record Quest workload at the paper's default k=5, m=2: pinned to
/// the legacy engine's output hash.
#[test]
fn quest_2000_output_hash_is_pinned() {
    let bytes = published_bytes(
        &quest(2_000, 300, 42),
        DisassociationConfig {
            k: 5,
            m: 2,
            ..Default::default()
        },
    );
    assert_eq!(
        fnv64(&bytes),
        0x003d_39d1_7d98_2d14,
        "quest-2000 published bytes changed"
    );
}

/// The compact batch files of a `ChunkDir` publication (Quest-400, k=3,
/// m=2, two 200-record batches) are pinned too: `ChunkDir` skips a rewrite
/// only when a batch's bytes are unchanged, so a drift in the compact JSON
/// encoding would silently rewrite every batch on the next append.
#[test]
fn quest_400_batch_files_hash_is_pinned() {
    let dataset = quest(400, 120, 7);
    let dir = fresh_dir("batches");
    let mut chunks = ChunkDir::open(&dir).expect("opening the chunk dir");
    let mut source = DatasetSource::new(&dataset, 200);
    Pipeline::new(DisassociationConfig {
        k: 3,
        m: 2,
        ..Default::default()
    })
    .source(&mut source)
    .sink(&mut chunks)
    .threads(1)
    .run()
    .expect("anonymization succeeds");
    let hashes: Vec<u64> = chunks
        .manifest()
        .batches
        .iter()
        .map(|entry| fnv64(&std::fs::read(dir.join(&entry.file)).expect("reading a batch file")))
        .collect();
    std::fs::remove_dir_all(&dir).ok();
    assert_eq!(
        hashes,
        vec![0x7d1f_e636_6c45_ca99, 0xb24e_4453_9f71_3b85],
        "quest-400 batch files changed"
    );
}

/// The pretty `GET /datasets/{name}/chunks?term=` body of a daemon-served
/// Quest-400 publication (k=3, m=2, 100-record batches) is pinned: the term
/// read parses the committed batch files and renders the matching clusters.
#[test]
fn quest_400_term_read_body_hash_is_pinned() {
    let dataset = quest(400, 120, 7);
    let mut body = Vec::new();
    transact::io::write_numeric_transactions(&dataset, &mut body).expect("encoding the records");
    let dir = fresh_dir("term_read");
    let server = Server::bind("127.0.0.1:0", dir.clone(), ServeConfig::default())
        .expect("binding the daemon");
    let addr = server.local_addr().expect("reading the bound address");
    let shutdown = server.shutdown_handle();
    let join = std::thread::spawn(move || server.run());
    let ingest = client::post(addr, "/datasets/q/records", &body).expect("ingest");
    assert_eq!(ingest.status, 200, "{}", ingest.text());
    let anon =
        client::post(addr, "/datasets/q/anonymize?k=3&m=2&batch-size=100", b"").expect("anonymize");
    assert_eq!(anon.status, 200, "{}", anon.text());
    let read = client::get(addr, "/datasets/q/chunks?term=40").expect("term read");
    let full = client::get(addr, "/datasets/q/chunks").expect("full read");
    shutdown.shutdown();
    join.join().expect("server thread").expect("server run");
    std::fs::remove_dir_all(&dir).ok();
    assert_eq!(read.status, 200, "{}", read.text());
    assert!(
        read.body.len() > 200 && read.body.len() < full.body.len(),
        "the term read keeps some clusters, not all"
    );
    assert_eq!(
        fnv64(&read.body),
        0xef52_2539_a66c_f1f0,
        "quest-400 term-read body changed"
    );
}
