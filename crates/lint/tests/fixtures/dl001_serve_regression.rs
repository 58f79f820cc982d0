//! DL001 regression fixture: the pre-fix shape of the daemon's flat-file
//! publication (condensed from `crates/serve/src/server.rs` before the
//! dataset-operations layer).  Both job bodies committed the flat file with
//! a raw `fs::rename` — no fsync and no failpoint, so no armed fault could
//! ever crash the commit point.  The rule must flag both renames.

fn anonymize_job(handle: &DatasetHandle, config: &Config) -> Result<Response, ServeError> {
    handle.with_store(|store| {
        handle.with_publication(|chunk_dir| {
            let partial = handle.dir().join("publication.chunks.json.partial");
            let result = run_into(store, chunk_dir, &partial, config);
            match result {
                Ok(ok) => {
                    std::fs::rename(&partial, handle.publication_path())?; // finding
                    Ok(ok)
                }
                Err(e) => {
                    std::fs::remove_file(&partial).ok();
                    Err(e)
                }
            }
        })
    })
}

fn append_job(handle: &DatasetHandle, config: &Config) -> Result<Response, ServeError> {
    handle.with_store(|store| {
        let partial = handle.dir().join("publication.chunks.json.partial");
        match publish_into(store, &partial, config) {
            Ok(()) => std::fs::rename(&partial, handle.publication_path())?, // finding
            Err(e) => {
                std::fs::remove_file(&partial).ok();
                return Err(e);
            }
        }
        Ok(Response::ok())
    })
}
