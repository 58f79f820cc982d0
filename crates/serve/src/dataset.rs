//! Named datasets: one locked store + one chunk publication per name.
//!
//! Layout under the service data directory:
//!
//! ```text
//! data/
//!   <name>/
//!     store/                    crash-recoverable record store (WAL, segments)
//!     chunks/                   atomic ChunkDir publication (batch files + manifest)
//!     publication.chunks.json   flat single-file view, byte-identical to
//!                               `disassoc anonymize --out <prefix>` on the
//!                               same records and batch size
//! ```
//!
//! The job bodies publish both views through [`disassoc_store::ops`], which
//! stages the flat file beside its final path and commits it with an fsync
//! and a seam-covered rename.
//!
//! The append job keeps the last incremental build of each dataset in
//! memory (the *memo*, see [`disassoc_store::ops::append`]), so an append
//! rebuilds only the store's tail batch instead of every batch.  The memo
//! lives beside the open [`Store`], under the same lock, and costs about one
//! incremental build of the dataset: its records plus their published
//! clusters.
//!
//! The [`Store`] and [`ChunkDir`] are opened lazily on first use and then
//! held open for the daemon's lifetime, so the store's advisory `LOCK` file
//! (→ [`disassoc_store::StoreError::Locked`]) excludes any other process — a second daemon
//! or a concurrent `disassoc ingest` — for as long as the dataset is served.
//! Lock ordering is store-then-publication everywhere, which makes the pair
//! deadlock-free.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};

use crate::error::ServeError;
use disassoc_store::{ChunkDir, Store, StoreConfig};
use disassociation::IncrementalPipeline;

/// Recovers from a poisoned mutex: a panicking worker must degrade that one
/// job to a 500, not wedge the dataset for the rest of the daemon's life.
fn lock_unpoisoned<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// An open store and the append memo built from it.
struct OpenStore {
    store: Store,
    memo: Option<IncrementalPipeline>,
}

/// One served dataset: its directories, lazily-opened handles, and the
/// pending-job counter backing the per-dataset backpressure bound.
pub struct DatasetHandle {
    name: String,
    dir: PathBuf,
    store: Mutex<Option<OpenStore>>,
    publication: Mutex<Option<ChunkDir>>,
    pending_jobs: AtomicUsize,
    degraded: Mutex<Option<String>>,
}

impl DatasetHandle {
    fn new(name: &str, dir: PathBuf) -> DatasetHandle {
        DatasetHandle {
            name: name.to_owned(),
            dir,
            store: Mutex::new(None),
            publication: Mutex::new(None),
            pending_jobs: AtomicUsize::new(0),
            degraded: Mutex::new(None),
        }
    }

    /// The dataset name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The store directory (exists once something was ingested).
    pub fn store_dir(&self) -> PathBuf {
        self.dir.join("store")
    }

    /// The chunk-publication directory.
    pub fn chunks_dir(&self) -> PathBuf {
        self.dir.join("chunks")
    }

    /// The flat single-file publication path.
    pub fn publication_path(&self) -> PathBuf {
        self.dir.join("publication.chunks.json")
    }

    /// Jobs currently queued or running against this dataset.
    pub fn pending_jobs(&self) -> usize {
        self.pending_jobs.load(Ordering::Acquire)
    }

    /// Claims a job slot if fewer than `depth` are pending; the caller must
    /// pair a successful claim with [`end_job`](Self::end_job).
    pub fn try_begin_job(&self, depth: usize) -> bool {
        self.pending_jobs
            .fetch_update(Ordering::AcqRel, Ordering::Acquire, |n| {
                (n < depth).then_some(n + 1)
            })
            .is_ok()
    }

    /// Releases a job slot claimed by [`try_begin_job`](Self::try_begin_job).
    pub fn end_job(&self) {
        self.pending_jobs.fetch_sub(1, Ordering::AcqRel);
    }

    /// Flips the dataset to degraded read-only mode after a persistent
    /// write failure.  Returns `true` when this call made the transition
    /// (so the caller can count it exactly once); the first reason sticks.
    /// Degraded mode lasts until the daemon restarts: the cause (a full
    /// disk, a sick device) needs operator attention, and reads — which
    /// keep serving the last complete publication — are unaffected.
    pub fn degrade(&self, reason: &str) -> bool {
        let mut guard = lock_unpoisoned(&self.degraded);
        if guard.is_some() {
            return false;
        }
        *guard = Some(reason.to_owned());
        true
    }

    /// The degradation reason, or `None` while the dataset accepts writes.
    pub fn degraded_reason(&self) -> Option<String> {
        lock_unpoisoned(&self.degraded).clone()
    }

    /// Whether the dataset is in degraded read-only mode.
    pub fn is_degraded(&self) -> bool {
        lock_unpoisoned(&self.degraded).is_some()
    }

    /// Runs `f` with the dataset's store, opening (and creating) it on
    /// first use and holding it — and its advisory lock — open afterwards.
    pub fn with_store<T>(
        &self,
        f: impl FnOnce(&mut Store) -> Result<T, ServeError>,
    ) -> Result<T, ServeError> {
        self.with_store_and_memo(|store, _| f(store))
    }

    /// Like [`with_store`](Self::with_store), also lending the append memo:
    /// the last incremental build of this store, read and replaced only
    /// under the store lock.
    pub fn with_store_and_memo<T>(
        &self,
        f: impl FnOnce(&mut Store, &mut Option<IncrementalPipeline>) -> Result<T, ServeError>,
    ) -> Result<T, ServeError> {
        let mut guard = lock_unpoisoned(&self.store);
        if guard.is_none() {
            std::fs::create_dir_all(&self.dir).map_err(ServeError::from)?;
            *guard = Some(OpenStore {
                store: Store::open(self.store_dir(), StoreConfig::default())?,
                memo: None,
            });
        }
        // lint:allow(panic, "the guard was filled two lines up under the same lock")
        let open = guard.as_mut().expect("store opened above");
        f(&mut open.store, &mut open.memo)
    }

    /// Like [`with_store`](Self::with_store) but never blocks: `None` when
    /// another request or job currently holds the store (or it cannot be
    /// opened).  A store that exists on disk but was not touched yet this
    /// run — a dataset rediscovered after a restart — is opened here, so
    /// the admin surface reports real record counts, not `null`.
    pub fn try_with_store<T>(&self, f: impl FnOnce(&mut Store) -> T) -> Option<T> {
        let mut guard = match self.store.try_lock() {
            Ok(guard) => guard,
            Err(std::sync::TryLockError::Poisoned(poisoned)) => poisoned.into_inner(),
            Err(std::sync::TryLockError::WouldBlock) => return None,
        };
        if guard.is_none() {
            if !self.store_exists() {
                return None;
            }
            *guard = Some(OpenStore {
                store: Store::open(self.store_dir(), StoreConfig::default()).ok()?,
                memo: None,
            });
        }
        guard.as_mut().map(|open| f(&mut open.store))
    }

    /// Whether the store has ever been materialized on disk (ingested into),
    /// by this process or a previous one.
    pub fn store_exists(&self) -> bool {
        Store::exists(self.store_dir())
    }

    /// Runs `f` with the dataset's [`ChunkDir`], opening it on first use.
    /// All publication access — staging, committing, reading — goes through
    /// this single long-lived instance, so readers can never garbage-collect
    /// a concurrent job's staged-but-uncommitted batch files.
    pub fn with_publication<T>(
        &self,
        f: impl FnOnce(&mut ChunkDir) -> Result<T, ServeError>,
    ) -> Result<T, ServeError> {
        let mut guard = lock_unpoisoned(&self.publication);
        if guard.is_none() {
            std::fs::create_dir_all(&self.dir).map_err(ServeError::from)?;
            *guard = Some(ChunkDir::open(self.chunks_dir())?);
        }
        // lint:allow(panic, "the guard was filled two lines up under the same lock")
        f(guard.as_mut().expect("publication opened above"))
    }

    /// Flushes and closes the store (if open) so a graceful shutdown leaves
    /// nothing in the memtable that the WAL has not already made
    /// recoverable — and releases the advisory lock, letting a successor
    /// (next daemon, CLI) take the dataset over immediately.  The append
    /// memo is dropped with the store.
    pub fn shutdown_flush(&self) -> Result<(), ServeError> {
        let mut guard = lock_unpoisoned(&self.store);
        let flushed = match guard.as_mut() {
            Some(open) => open.store.flush().map_err(ServeError::from),
            None => Ok(()),
        };
        // Close (and unlock) even when the flush failed: everything
        // acknowledged is already in the WAL, and holding the lock would
        // only block the successor's recovery.
        *guard = None;
        *lock_unpoisoned(&self.publication) = None;
        flushed
    }
}

/// Validates a dataset name: it becomes a directory name, so the alphabet
/// is conservative and traversal is impossible by construction.
pub fn validate_name(name: &str) -> Result<(), ServeError> {
    if name.is_empty() || name.len() > 64 {
        return Err(ServeError::BadRequest(format!(
            "dataset name must be 1..=64 characters, got {}",
            name.len()
        )));
    }
    if !name
        .bytes()
        .all(|b| b.is_ascii_alphanumeric() || b == b'-' || b == b'_' || b == b'.')
    {
        return Err(ServeError::BadRequest(format!(
            "dataset name {name:?} may only contain [A-Za-z0-9._-]"
        )));
    }
    if name.starts_with('.') {
        return Err(ServeError::BadRequest(format!(
            "dataset name {name:?} may not start with '.'"
        )));
    }
    Ok(())
}

/// The set of served datasets, keyed by name.
pub struct Registry {
    data_dir: PathBuf,
    datasets: Mutex<BTreeMap<String, Arc<DatasetHandle>>>,
}

impl Registry {
    /// Opens (creating if needed) the service data directory and registers
    /// every subdirectory that already holds a store or a publication.
    pub fn open(data_dir: impl Into<PathBuf>) -> std::io::Result<Registry> {
        let data_dir = data_dir.into();
        std::fs::create_dir_all(&data_dir)?;
        let mut datasets = BTreeMap::new();
        for entry in std::fs::read_dir(&data_dir)? {
            let entry = entry?;
            if !entry.file_type()?.is_dir() {
                continue;
            }
            let name = match entry.file_name().into_string() {
                Ok(n) => n,
                Err(_) => continue,
            };
            if validate_name(&name).is_err() {
                continue;
            }
            let dir = entry.path();
            if Store::exists(dir.join("store")) || dir.join("chunks").is_dir() {
                datasets.insert(name.clone(), Arc::new(DatasetHandle::new(&name, dir)));
            }
        }
        Ok(Registry {
            data_dir,
            datasets: Mutex::new(datasets),
        })
    }

    /// The service data directory.
    pub fn data_dir(&self) -> &Path {
        &self.data_dir
    }

    /// The handle for `name`, if the dataset exists.
    pub fn get(&self, name: &str) -> Option<Arc<DatasetHandle>> {
        lock_unpoisoned(&self.datasets).get(name).cloned()
    }

    /// The handle for `name`, creating the dataset if it does not exist yet
    /// (the ingest route's behaviour; read routes use [`get`](Self::get)).
    pub fn get_or_create(&self, name: &str) -> Result<Arc<DatasetHandle>, ServeError> {
        validate_name(name)?;
        let mut guard = lock_unpoisoned(&self.datasets);
        if let Some(handle) = guard.get(name) {
            return Ok(Arc::clone(handle));
        }
        let handle = Arc::new(DatasetHandle::new(name, self.data_dir.join(name)));
        guard.insert(name.to_owned(), Arc::clone(&handle));
        Ok(handle)
    }

    /// All registered datasets, in name order.
    pub fn list(&self) -> Vec<Arc<DatasetHandle>> {
        lock_unpoisoned(&self.datasets).values().cloned().collect()
    }

    /// Flushes every open store; called once during graceful shutdown.
    pub fn shutdown_flush(&self) {
        for handle in self.list() {
            // A failed flush must not abort the drain of the others; the
            // WAL already holds everything acknowledged, so even a skipped
            // flush loses nothing on restart.
            let _ = handle.shutdown_flush();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmpdir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "disassoc_serve_registry_{tag}_{}",
            std::process::id()
        ));
        std::fs::remove_dir_all(&dir).ok();
        dir
    }

    #[test]
    fn names_are_validated() {
        assert!(validate_name("transactions-2026_v1.a").is_ok());
        assert!(validate_name("").is_err());
        assert!(validate_name("../escape").is_err());
        assert!(validate_name("a/b").is_err());
        assert!(validate_name(".hidden").is_err());
        assert!(validate_name(&"x".repeat(65)).is_err());
    }

    #[test]
    fn get_or_create_reuses_one_handle_per_name() {
        let reg = Registry::open(tmpdir("reuse")).unwrap();
        let a = reg.get_or_create("a").unwrap();
        let b = reg.get_or_create("a").unwrap();
        assert!(Arc::ptr_eq(&a, &b));
        assert!(reg.get("missing").is_none());
    }

    #[test]
    fn job_slots_are_bounded() {
        let reg = Registry::open(tmpdir("slots")).unwrap();
        let h = reg.get_or_create("a").unwrap();
        assert!(h.try_begin_job(2));
        assert!(h.try_begin_job(2));
        assert!(!h.try_begin_job(2));
        h.end_job();
        assert!(h.try_begin_job(2));
        assert_eq!(h.pending_jobs(), 2);
    }

    #[test]
    fn existing_datasets_are_discovered_on_open() {
        let dir = tmpdir("discover");
        {
            let reg = Registry::open(&dir).unwrap();
            let h = reg.get_or_create("found").unwrap();
            h.with_store(|st| {
                st.append_batch(&[transact::Record::from_ids([transact::TermId::new(1)])])?;
                st.flush()?;
                Ok(())
            })
            .unwrap();
            // Dropping the registry (and its open store) releases the lock.
        }
        let reg = Registry::open(&dir).unwrap();
        let h = reg.get("found").expect("rediscovered from disk");
        let len = h.with_store(|st| Ok(st.len())).unwrap();
        assert_eq!(len, 1);
        std::fs::remove_dir_all(&dir).ok();
    }
}
