//! Dataset operations shared by the CLI and the daemon: anonymize and append.
//!
//! Both front ends publish only through these two functions, so the
//! workspace has one place that stages and commits a flat `.chunks.json`
//! publication.  The flat file streams into `<final>.partial` (teed with an
//! optional [`ChunkDir`] by one [`MultiSink`]), is committed only through
//! [`publish::commit_flat_file`] behind the `store.publish.flat.*`
//! failpoints, and the partial is removed on every error path.

use crate::{publish, ChunkDir, Store, StoreError};
use disassociation::pipeline::{
    ChunkFileStats, ChunkSink, JsonChunksSink, MultiSink, Pipeline, RecordSource, RunSummary,
};
use disassociation::{AppendOptions, AppendOutcome, DisassociationConfig, IncrementalPipeline};
use std::path::{Path, PathBuf};
use transact::Record;

/// Why a dataset operation failed.  Front ends map each variant exactly as
/// they map the wrapped error.
#[derive(Debug)]
pub enum OpsError {
    /// The pipeline failed: configuration, source or sink.
    Pipeline(disassociation::Error),
    /// The store or the publication commit failed.
    Store(StoreError),
}

impl OpsError {
    fn inner(&self) -> &(dyn std::error::Error + 'static) {
        match self {
            OpsError::Pipeline(e) => e,
            OpsError::Store(e) => e,
        }
    }
}

impl std::fmt::Display for OpsError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.inner())
    }
}

impl std::error::Error for OpsError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        // Display already shows the wrapped error's own line.
        self.inner().source()
    }
}

impl From<disassociation::Error> for OpsError {
    fn from(e: disassociation::Error) -> Self {
        OpsError::Pipeline(e)
    }
}

impl From<StoreError> for OpsError {
    fn from(e: StoreError) -> Self {
        OpsError::Store(e)
    }
}

/// Anonymizes `source` on `threads` workers into the flat file at
/// `flat_path` and, when given, `chunk_dir`.  The bytes do not depend on
/// `threads`.
pub fn anonymize(
    source: &mut dyn RecordSource,
    config: &DisassociationConfig,
    threads: usize,
    chunk_dir: Option<&mut ChunkDir>,
    flat_path: &Path,
) -> Result<(RunSummary, ChunkFileStats), OpsError> {
    publish_flat(flat_path, config, chunk_dir, |sinks| {
        Pipeline::new(config.clone())
            .source(source)
            .sink(sinks)
            .threads(threads)
            .run()
    })
}

/// Builds the incremental state from `store` in `batch_size`-record
/// batches, routes `records` into it, persists them, then republishes every
/// batch in one pass to `chunk_dir` and `flat_path` (each optional).  Every
/// batch is delivered, and [`ChunkDir`] skips batches whose bytes did not
/// change, so clean chunk files stay untouched.
///
/// `memo` carries the build across calls: the build moves over every run of
/// the previous one that a fresh build would reproduce (see
/// [`IncrementalPipeline::build_reusing`]), so over an append-only store
/// only the tail batch is rebuilt.  The append changes one batch; a copy of
/// its run is taken before and put back after the publication commits, so
/// the memo left behind is exactly the build of the store as it was before
/// this append.  On any error the memo is dropped and the next call
/// rebuilds everything.  Pass `&mut None` to build from scratch.
#[allow(clippy::too_many_arguments)]
pub fn append(
    store: &mut Store,
    config: &DisassociationConfig,
    batch_size: usize,
    records: &[Record],
    options: &AppendOptions,
    chunk_dir: Option<&mut ChunkDir>,
    flat_path: Option<&Path>,
    memo: &mut Option<IncrementalPipeline>,
) -> Result<AppendOutcome, OpsError> {
    let mut source = store.source(batch_size);
    let mut pipeline =
        IncrementalPipeline::build_reusing(config.clone(), &mut source, memo.take())?;
    let base = pipeline
        .append_target(records)
        .map(|i| (i, pipeline.batches()[i].clone()));
    let outcome = pipeline.append_with(records, options);
    store.append_batch(records)?;
    store.flush()?;
    if let Some(path) = flat_path {
        publish_flat(path, config, chunk_dir, |sinks| pipeline.publish_all(sinks))?;
    } else if let Some(dir) = chunk_dir {
        dir.begin_full_publish();
        pipeline.publish_all(dir)?;
    }
    if let Some((i, run)) = base {
        pipeline.replace_batch(i, run);
        *memo = Some(pipeline);
    }
    Ok(outcome)
}

/// Runs `publish` into `<flat_path>.partial` (teed with `chunk_dir`, as a
/// full publication: see [`ChunkDir::begin_full_publish`]), then commits the
/// flat file; removes the partial on error.
fn publish_flat<T>(
    flat_path: &Path,
    config: &DisassociationConfig,
    chunk_dir: Option<&mut ChunkDir>,
    publish: impl FnOnce(&mut dyn ChunkSink) -> Result<T, disassociation::Error>,
) -> Result<(T, ChunkFileStats), OpsError> {
    let partial = partial_path(flat_path);
    let result = (|| {
        let mut flat =
            JsonChunksSink::create(&partial, config).map_err(disassociation::Error::Sink)?;
        let mut sinks = MultiSink::new();
        if let Some(dir) = chunk_dir {
            dir.begin_full_publish();
            sinks.push(dir);
        }
        sinks.push(&mut flat);
        let value = publish(&mut sinks)?;
        let stats = *flat.stats();
        drop(flat);
        publish::commit_flat_file(&partial, flat_path)?;
        Ok((value, stats))
    })();
    if result.is_err() {
        std::fs::remove_file(&partial).ok();
    }
    result
}

/// `<final>.partial`: the staging sibling of a flat publication.
fn partial_path(final_path: &Path) -> PathBuf {
    let mut name = final_path.as_os_str().to_owned();
    name.push(".partial");
    PathBuf::from(name)
}

#[cfg(test)]
mod tests {
    use super::*;
    use disassociation::pipeline::{CollectSink, DatasetSource};
    use transact::{Dataset, TermId};

    fn tmpdir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("disassoc_ops_{name}_{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn dataset(n: u32) -> Dataset {
        Dataset::from_records(
            (0..n)
                .map(|i| {
                    Record::from_ids([i % 5, 5 + i % 3, 10 + i % 7].into_iter().map(TermId::new))
                })
                .collect(),
        )
    }

    fn config() -> DisassociationConfig {
        DisassociationConfig {
            k: 3,
            m: 2,
            ..Default::default()
        }
    }

    fn pretty(d: &Dataset, batch: usize) -> Vec<u8> {
        let mut sink = CollectSink::for_config(&config());
        Pipeline::new(config())
            .source(&mut DatasetSource::new(d, batch))
            .sink(&mut sink)
            .run()
            .unwrap();
        serde_json::to_vec_pretty(&sink.into_output().dataset).unwrap()
    }

    #[test]
    fn partial_path_appends_the_suffix() {
        assert_eq!(
            partial_path(Path::new("out/pub.chunks.json")),
            PathBuf::from("out/pub.chunks.json.partial")
        );
    }

    #[test]
    fn anonymize_commits_the_flat_file_and_the_chunk_dir() {
        let dir = tmpdir("anonymize");
        let flat = dir.join("pub.chunks.json");
        let d = dataset(60);
        let mut chunks = ChunkDir::open(dir.join("chunks")).unwrap();
        let mut source = DatasetSource::new(&d, 20);
        let (summary, stats) =
            anonymize(&mut source, &config(), 2, Some(&mut chunks), &flat).unwrap();
        assert_eq!((summary.records, summary.batches), (60, 3));
        assert_eq!(stats.records, 60);
        assert_eq!(std::fs::read(&flat).unwrap(), pretty(&d, 20));
        assert_eq!(chunks.manifest().batches.len(), 3);
        assert!(!partial_path(&flat).exists());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn a_failed_anonymize_keeps_the_old_file_and_removes_the_partial() {
        let dir = tmpdir("failed");
        let flat = dir.join("pub.chunks.json");
        std::fs::write(&flat, b"old").unwrap();
        let bad = DisassociationConfig { k: 1, ..config() };
        let d = dataset(10);
        let err = anonymize(&mut DatasetSource::new(&d, 0), &bad, 1, None, &flat).unwrap_err();
        assert!(matches!(
            err,
            OpsError::Pipeline(disassociation::Error::Config(_))
        ));
        assert_eq!(std::fs::read(&flat).unwrap(), b"old");
        assert!(!partial_path(&flat).exists());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn append_persists_records_and_republishes_both_views() {
        let dir = tmpdir("append");
        let mut store = Store::open(dir.join("store"), crate::StoreConfig::default()).unwrap();
        let d = dataset(40);
        store.append_batch(d.records()).unwrap();
        let mut chunks = ChunkDir::open(dir.join("chunks")).unwrap();
        let flat = dir.join("incr.chunks.json");
        let delta: Vec<Record> = dataset(5).records().to_vec();
        let outcome = append(
            &mut store,
            &config(),
            20,
            &delta,
            &AppendOptions::default(),
            Some(&mut chunks),
            Some(&flat),
            &mut None,
        )
        .unwrap();
        assert_eq!(outcome.appended_records, 5);
        assert_eq!(store.len(), 45);
        let published: disassociation::DisassociatedDataset =
            serde_json::from_slice(&std::fs::read(&flat).unwrap()).unwrap();
        assert_eq!(published.total_records(), 45);
        assert_eq!(chunks.combined_dataset().unwrap().unwrap(), published);
        assert!(!partial_path(&flat).exists());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn a_full_publish_with_fewer_batches_drops_the_stale_ones() {
        let dir = tmpdir("fewer_batches");
        let flat = dir.join("pub.chunks.json");
        let d = dataset(60);
        let mut chunks = ChunkDir::open(dir.join("chunks")).unwrap();
        for batch in [20, 60] {
            let mut source = DatasetSource::new(&d, batch);
            anonymize(&mut source, &config(), 1, Some(&mut chunks), &flat).unwrap();
        }
        assert_eq!(chunks.manifest().batches.len(), 1);
        let published: disassociation::DisassociatedDataset =
            serde_json::from_slice(&std::fs::read(&flat).unwrap()).unwrap();
        assert_eq!(chunks.combined_dataset().unwrap().unwrap(), published);
        let reopened = ChunkDir::open(dir.join("chunks")).unwrap();
        assert_eq!(reopened.manifest(), chunks.manifest());
        std::fs::remove_dir_all(&dir).ok();
    }

    /// One store per side: appends through a memo on the left, from
    /// scratch on the right.
    fn twin_stores(dir: &Path, base: &Dataset) -> (Store, Store) {
        let open = |name: &str| {
            let mut store = Store::open(dir.join(name), crate::StoreConfig::default()).unwrap();
            store.append_batch(base.records()).unwrap();
            store
        };
        (open("memo"), open("fresh"))
    }

    fn append_flat(
        store: &mut Store,
        records: &[Record],
        flat: &Path,
        memo: &mut Option<IncrementalPipeline>,
    ) -> Result<Vec<u8>, OpsError> {
        let options = AppendOptions::default();
        append(
            store,
            &config(),
            20,
            records,
            &options,
            None,
            Some(flat),
            memo,
        )?;
        Ok(std::fs::read(flat).unwrap())
    }

    #[test]
    fn appends_through_the_memo_publish_the_bytes_of_a_fresh_build() {
        let dir = tmpdir("memo");
        let (mut left, mut right) = twin_stores(&dir, &dataset(70));
        let mut memo = None;
        for round in 0..4u32 {
            let delta: Vec<Record> = dataset(7 + round).records().to_vec();
            let got = append_flat(&mut left, &delta, &dir.join("l.json"), &mut memo).unwrap();
            let want = append_flat(&mut right, &delta, &dir.join("r.json"), &mut None).unwrap();
            assert_eq!(got, want, "round {round}");
            let memo = memo.as_ref().expect("a successful append keeps the memo");
            assert!(memo.batches().iter().all(|run| run.generation() == 0));
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn a_failed_append_drops_the_memo() {
        let dir = tmpdir("memo_failed");
        let (mut left, mut right) = twin_stores(&dir, &dataset(50));
        let (l, r) = (dir.join("l.json"), dir.join("r.json"));
        let delta: Vec<Record> = dataset(6).records().to_vec();
        let mut memo = None;
        append_flat(&mut left, &delta, &l, &mut memo).unwrap();
        append_flat(&mut right, &delta, &r, &mut None).unwrap();
        assert!(memo.is_some());

        disassoc_faults::arm(
            crate::failpoints::PUBLISH_FLAT_RENAME,
            disassoc_faults::Policy::error()
                .once()
                .when_path_contains(dir.to_str().unwrap()),
        );
        let failed = append_flat(&mut left, &delta, &l, &mut memo);
        disassoc_faults::disarm(crate::failpoints::PUBLISH_FLAT_RENAME);
        assert!(matches!(failed, Err(OpsError::Store(_))), "{failed:?}");
        assert!(memo.is_none(), "a failed append must drop the memo");
        // The failed append persisted its records before the commit failed.
        right.append_batch(&delta).unwrap();

        let again: Vec<Record> = dataset(9).records().to_vec();
        assert_eq!(
            append_flat(&mut left, &again, &l, &mut memo).unwrap(),
            append_flat(&mut right, &again, &r, &mut None).unwrap()
        );
        std::fs::remove_dir_all(&dir).ok();
    }
}
