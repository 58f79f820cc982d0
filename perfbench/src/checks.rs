//! Output checks: every publication the daemon commits is verified, and
//! what it serves is compared with references computed in process.

use crate::wire::{digest, Digest, Hasher};
use disassoc_store::{BatchChunks, ChunkManifest, Store, StoreConfig};
use disassociation::model::DisassociatedDataset;
use disassociation::pipeline::{CollectSink, FnSink, JsonChunksSink, MultiSink};
use disassociation::verify::verify_structure;
use disassociation::{AppendOptions, IncrementalPipeline, Pipeline};
use std::collections::BTreeMap;
use std::io::Read;
use std::path::{Path, PathBuf};
use transact::{Record, TermId};

fn read_manifest(chunks_dir: &Path) -> Result<ChunkManifest, String> {
    let path = chunks_dir.join("CHUNKS.json");
    let text = std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    serde_json::from_str(&text).map_err(|e| format!("{}: {e}", path.display()))
}

fn read_batch(path: &Path) -> Result<BatchChunks, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    serde_json::from_str(&text).map_err(|e| format!("{}: {e}", path.display()))
}

/// Digest of a file, streamed so no buffer grows with the file.
pub fn file_digest(path: &Path) -> Result<Digest, String> {
    let mut file = std::fs::File::open(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let mut hasher = Hasher::default();
    let mut buf = vec![0u8; 1 << 20];
    loop {
        match file.read(&mut buf) {
            Ok(0) => return Ok(hasher.digest()),
            Ok(n) => hasher.update(&buf[..n]),
            Err(e) => return Err(format!("{}: {e}", path.display())),
        }
    }
}

/// The publications a daemon committed during a run, kept for
/// verification after the timed loop.
///
/// A commit writes only the batch files whose content changed, each tagged
/// with the new manifest generation (a republish of identical content
/// writes nothing); copying exactly the files newer than the last recorded
/// generation after every anonymize or append keeps every published batch,
/// so each publication is verified in full without pausing the loop to
/// parse it.
pub struct Publications {
    dir: PathBuf,
    copies: Vec<(usize, usize, PathBuf)>,
    count: usize,
    generation: u64,
}

impl Publications {
    /// Keeps copies under `dir`.
    pub fn new(dir: PathBuf) -> Result<Publications, String> {
        std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        Ok(Publications {
            dir,
            copies: Vec::new(),
            count: 0,
            generation: 0,
        })
    }

    /// Records the publication just committed in `dataset_dir`; returns its
    /// index and the digest of its flat file.
    pub fn record(&mut self, dataset_dir: &Path) -> Result<(usize, Digest), String> {
        let index = self.count;
        self.count += 1;
        let chunks = dataset_dir.join("chunks");
        let manifest = read_manifest(&chunks)?;
        for entry in manifest
            .batches
            .iter()
            .filter(|b| b.generation > self.generation)
        {
            let copy = self.dir.join(format!("p{index}-{}", entry.file));
            std::fs::copy(chunks.join(&entry.file), &copy)
                .map_err(|e| format!("copying {}: {e}", entry.file))?;
            self.copies.push((index, entry.batch_index, copy));
        }
        self.generation = manifest.generation;
        let flat = file_digest(&dataset_dir.join("publication.chunks.json"))?;
        Ok((index, flat))
    }

    /// Runs `verify_structure` on every kept batch; returns the indices of
    /// the publications with a violation (empty when all verify).
    pub fn verify(&self) -> Result<Vec<usize>, String> {
        let mut bad = Vec::new();
        for (index, _, path) in &self.copies {
            if !verify_structure(&read_batch(path)?.dataset).is_ok() {
                bad.push(*index);
            }
        }
        bad.dedup();
        Ok(bad)
    }

    /// (batch index, digest of the file bytes) of the batches publication
    /// `index` wrote.
    pub fn written_batches(&self, index: usize) -> Result<Vec<(usize, Digest)>, String> {
        self.copies
            .iter()
            .filter(|(i, _, _)| *i == index)
            .map(|(_, batch, path)| {
                std::fs::read(path)
                    .map(|bytes| (*batch, digest(&bytes)))
                    .map_err(|e| format!("{}: {e}", path.display()))
            })
            .collect()
    }
}

/// The committed chunk publication in `dataset_dir`, read from its files.
pub fn load_publication(dataset_dir: &Path) -> Result<DisassociatedDataset, String> {
    let chunks = dataset_dir.join("chunks");
    let manifest = read_manifest(&chunks)?;
    let mut combined = DisassociatedDataset {
        k: crate::K,
        m: crate::M,
        clusters: Vec::new(),
    };
    for entry in &manifest.batches {
        combined
            .clusters
            .extend(read_batch(&chunks.join(&entry.file))?.dataset.clusters);
    }
    Ok(combined)
}

/// The responses `GET /chunks?term=` must return for a publication: its
/// clusters that mention the term, pretty-printed.  By construction each is
/// a subset of the publication and every cluster in it mentions the term.
/// Terms selecting the same clusters share one rendering.
pub struct TermReads<'p> {
    publication: &'p DisassociatedDataset,
    rendered: BTreeMap<Vec<usize>, Digest>,
}

impl<'p> TermReads<'p> {
    /// Expectations over `publication`.
    pub fn new(publication: &'p DisassociatedDataset) -> TermReads<'p> {
        TermReads {
            publication,
            rendered: BTreeMap::new(),
        }
    }

    /// The digest of the response for `term`.
    pub fn expected(&mut self, term: u32) -> Digest {
        let term = TermId::new(term);
        let p = self.publication;
        let selected: Vec<usize> = (0..p.clusters.len())
            .filter(|&i| p.clusters[i].mentions_term(term))
            .collect();
        *self
            .rendered
            .entry(selected)
            .or_insert_with_key(|selected| {
                let filtered = DisassociatedDataset {
                    k: p.k,
                    m: p.m,
                    clusters: selected.iter().map(|&i| p.clusters[i].clone()).collect(),
                };
                digest(
                    serde_json::to_string_pretty(&filtered)
                        .expect("a publication always serializes")
                        .as_bytes(),
                )
            })
    }
}

/// A store holding the same records, in the same order, as the daemon's.
pub fn reference_store(dir: &Path, bodies: &[Vec<Record>]) -> Result<Store, String> {
    let mut store = Store::open(dir, StoreConfig::default()).map_err(|e| e.to_string())?;
    for records in bodies {
        store.append_batch(records).map_err(|e| e.to_string())?;
    }
    store.flush().map_err(|e| e.to_string())?;
    Ok(store)
}

/// What `POST /anonymize` must publish for `store`: an in-process
/// `Pipeline` run (`StoreSource` → `JsonChunksSink`, same batch size, k
/// and m).  Returns the flat file's digest and the publication.
pub fn reference_publication(
    store: &Store,
    batch_size: usize,
) -> Result<(Digest, DisassociatedDataset), String> {
    let config = crate::config();
    let mut json = JsonChunksSink::numeric(Hasher::default(), &config);
    let mut collect = CollectSink::for_config(&config);
    {
        let mut sinks = MultiSink::new();
        sinks.push(&mut json);
        sinks.push(&mut collect);
        let mut source = store.source(batch_size);
        Pipeline::new(config.clone())
            .source(&mut source)
            .sink(&mut sinks)
            .threads(1)
            .run()
            .map_err(|e| e.to_string())?;
    }
    Ok((json.into_writer().digest(), collect.into_output().dataset))
}

/// What the first `POST /append` of `delta` onto `store` must publish:
/// the daemon's job body run in process (rebuild from the store, append,
/// republish).  Returns the digest of every batch file and the publication.
pub fn reference_append(
    store: &Store,
    batch_size: usize,
    delta: &[Record],
) -> Result<(Vec<(usize, Digest)>, DisassociatedDataset), String> {
    let config = crate::config();
    let mut pipeline = IncrementalPipeline::build(config, &mut store.source(batch_size))
        .map_err(|e| e.to_string())?;
    pipeline.append_with(
        delta,
        &AppendOptions {
            max_dirty_fraction: 1.0,
        },
    );
    let mut batches = Vec::new();
    let mut publication = DisassociatedDataset {
        k: crate::K,
        m: crate::M,
        clusters: Vec::new(),
    };
    pipeline
        .publish_all(&mut FnSink::new(|batch: disassociation::BatchOutput| {
            let file = BatchChunks {
                batch_index: batch.batch_index,
                record_offset: batch.record_offset,
                dataset: batch.output.dataset,
            };
            let bytes = serde_json::to_vec(&file).expect("a publication always serializes");
            batches.push((file.batch_index, digest(&bytes)));
            publication.clusters.extend(file.dataset.clusters);
        }))
        .map_err(|e| e.to_string())?;
    Ok((batches, publication))
}
