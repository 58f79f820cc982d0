//! The service-layer error type and its mapping onto HTTP statuses.

use crate::http::Response;
use disassoc_store::ops::OpsError;
use disassoc_store::StoreError;
use disassociation::error::render_chain;

/// Everything a request handler or worker job can fail with, shaped by the
/// HTTP status it must produce.  Lower-layer errors ([`StoreError`],
/// [`disassociation::Error`], I/O) convert in with their rendered cause
/// chains preserved in the message.
#[derive(Debug)]
pub enum ServeError {
    /// The client sent something unparseable or invalid → 400.
    BadRequest(String),
    /// The named dataset (or publication) does not exist → 404.
    NotFound(String),
    /// The dataset's store directory is locked by another process → 409.
    Conflict(String),
    /// The per-dataset job queue is full, or the server is draining → 503.
    Busy {
        /// Suggested client back-off, seconds (`Retry-After`).
        retry_after_seconds: u64,
    },
    /// The dataset is in degraded read-only mode after persistent write
    /// failures → 503 for writes (reads are unaffected and never raise
    /// this).  Carries a `Retry-After` since the condition may clear on
    /// restart after operator intervention.
    Degraded {
        /// The dataset flipped to read-only.
        dataset: String,
        /// Why it was degraded (the first persistent failure).
        reason: String,
    },
    /// Anything else → 500 (the body carries the rendered cause chain).
    Internal(String),
}

impl ServeError {
    /// The HTTP response this error maps to.
    pub fn into_response(self) -> Response {
        match self {
            ServeError::BadRequest(msg) => Response::error(400, &msg),
            ServeError::NotFound(msg) => Response::error(404, &msg),
            ServeError::Conflict(msg) => Response::error(409, &msg),
            ServeError::Busy {
                retry_after_seconds,
            } => Response::error(503, "busy: the dataset's job queue is full")
                .with_header("Retry-After", retry_after_seconds.to_string()),
            ServeError::Degraded { dataset, reason } => Response::error(
                503,
                &format!("dataset {dataset:?} is degraded to read-only: {reason}"),
            )
            .with_header("Retry-After", "30"),
            ServeError::Internal(msg) => Response::error(500, &msg),
        }
    }
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::BadRequest(m) => write!(f, "bad request: {m}"),
            ServeError::NotFound(m) => write!(f, "not found: {m}"),
            ServeError::Conflict(m) => write!(f, "conflict: {m}"),
            ServeError::Busy { .. } => write!(f, "busy"),
            ServeError::Degraded { dataset, reason } => {
                write!(f, "dataset {dataset:?} degraded to read-only: {reason}")
            }
            ServeError::Internal(m) => write!(f, "internal error: {m}"),
        }
    }
}

impl std::error::Error for ServeError {}

impl From<StoreError> for ServeError {
    fn from(e: StoreError) -> Self {
        match e {
            StoreError::Locked { ref dir } => ServeError::Conflict(format!(
                "store directory {dir} is locked by another process"
            )),
            other => ServeError::Internal(render_chain(&other)),
        }
    }
}

impl From<OpsError> for ServeError {
    fn from(e: OpsError) -> Self {
        match e {
            OpsError::Pipeline(e) => ServeError::from(e),
            OpsError::Store(e) => ServeError::from(e),
        }
    }
}

impl From<disassociation::Error> for ServeError {
    fn from(e: disassociation::Error) -> Self {
        match e {
            disassociation::Error::Config(c) => ServeError::BadRequest(c.to_string()),
            other => ServeError::Internal(render_chain(&other)),
        }
    }
}

impl From<disassociation::ConfigError> for ServeError {
    fn from(e: disassociation::ConfigError) -> Self {
        ServeError::BadRequest(e.to_string())
    }
}

impl From<std::io::Error> for ServeError {
    fn from(e: std::io::Error) -> Self {
        ServeError::Internal(e.to_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn statuses_match_variants() {
        assert_eq!(
            ServeError::BadRequest("x".into()).into_response().status,
            400
        );
        assert_eq!(ServeError::NotFound("x".into()).into_response().status, 404);
        assert_eq!(ServeError::Conflict("x".into()).into_response().status, 409);
        assert_eq!(ServeError::Internal("x".into()).into_response().status, 500);
        let busy = ServeError::Busy {
            retry_after_seconds: 2,
        }
        .into_response();
        assert_eq!(busy.status, 503);
        assert!(busy
            .extra_headers
            .iter()
            .any(|(k, v)| *k == "Retry-After" && v == "2"));
        let degraded = ServeError::Degraded {
            dataset: "d".into(),
            reason: "disk full".into(),
        }
        .into_response();
        assert_eq!(degraded.status, 503);
        assert!(degraded
            .extra_headers
            .iter()
            .any(|(k, _)| *k == "Retry-After"));
        assert!(String::from_utf8_lossy(&degraded.body).contains("read-only"));
    }

    #[test]
    fn locked_store_is_a_conflict() {
        let e = ServeError::from(StoreError::Locked {
            dir: "/tmp/x".into(),
        });
        assert!(matches!(e, ServeError::Conflict(_)), "{e:?}");
    }

    #[test]
    fn config_error_is_a_bad_request() {
        let e = ServeError::from(disassociation::Error::Config(
            disassociation::ConfigError::MIsZero,
        ));
        assert!(matches!(e, ServeError::BadRequest(_)), "{e:?}");
    }
}
