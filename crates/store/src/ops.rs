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

/// Rebuilds the incremental state from `store` in `batch_size`-record
/// batches, routes `records` into it, persists them, then republishes every
/// batch in one pass to `chunk_dir` and `flat_path` (each optional).  The
/// rebuild marks every batch dirty, and [`ChunkDir`] skips batches whose
/// bytes did not change, so clean chunk files stay untouched.
pub fn append(
    store: &mut Store,
    config: &DisassociationConfig,
    batch_size: usize,
    records: &[Record],
    options: &AppendOptions,
    chunk_dir: Option<&mut ChunkDir>,
    flat_path: Option<&Path>,
) -> Result<AppendOutcome, OpsError> {
    let mut pipeline = IncrementalPipeline::build(config.clone(), &mut store.source(batch_size))?;
    let outcome = pipeline.append_with(records, options);
    store.append_batch(records)?;
    store.flush()?;
    if let Some(path) = flat_path {
        publish_flat(path, config, chunk_dir, |sinks| pipeline.publish_all(sinks))?;
    } else if let Some(dir) = chunk_dir {
        pipeline.publish_all(dir)?;
    }
    Ok(outcome)
}

/// Runs `publish` into `<flat_path>.partial` (teed with `chunk_dir`), then
/// commits the flat file; removes the partial on error.
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
}
