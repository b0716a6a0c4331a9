//! The workspace error taxonomy for the inference core.
//!
//! Every recoverable failure a pipeline can hit on a robot — an empty
//! reference catalog, a degenerate crop, an undersized network input —
//! is a value of [`Error`], not a panic. Each operation has one entry
//! point, a `try_*` function returning [`Result`], and the caller
//! decides its own degradation policy.

use std::fmt;

use taor_features::FeatureError;
use taor_imgproc::error::ImgError;
use taor_nn::TensorError;

/// Errors produced by the recognition pipelines.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Error {
    /// A reference set (views, catalog, or descriptor index) was empty.
    /// The payload names the missing collection, so callers can
    /// pattern-match on it.
    EmptyReference(&'static str),
    /// A required input collection was empty (e.g. a background model
    /// with zero frames).
    EmptyInput(&'static str),
    /// Query and reference descriptor indices were built with different
    /// descriptor kinds.
    KindMismatch { query: &'static str, reference: &'static str },
    /// A numeric parameter was outside its valid range.
    InvalidParameter { name: &'static str, msg: String },
    /// An image-processing operation failed.
    Img(ImgError),
    /// A feature-extraction or matching operation failed.
    Feature(FeatureError),
    /// A neural-network operation failed.
    Nn(TensorError),
    /// A wire-format crop buffer was malformed (service boundary).
    Wire(crate::wire::WireError),
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            // The payload is the message ("reference set is empty",
            // "reference catalog is empty", ...) verbatim.
            Error::EmptyReference(what) => write!(f, "{what}"),
            Error::EmptyInput(what) => write!(f, "empty input: {what}"),
            Error::KindMismatch { query, reference } => {
                write!(f, "descriptor kinds must match: query {query} vs reference {reference}")
            }
            Error::InvalidParameter { name, msg } => {
                write!(f, "invalid parameter `{name}`: {msg}")
            }
            Error::Img(e) => write!(f, "image processing: {e}"),
            Error::Feature(e) => write!(f, "feature extraction: {e}"),
            Error::Nn(e) => write!(f, "network: {e}"),
            Error::Wire(e) => write!(f, "wire: {e}"),
        }
    }
}

impl std::error::Error for Error {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Error::Img(e) => Some(e),
            Error::Feature(e) => Some(e),
            Error::Nn(e) => Some(e),
            Error::Wire(e) => Some(e),
            _ => None,
        }
    }
}

impl From<ImgError> for Error {
    fn from(e: ImgError) -> Self {
        Error::Img(e)
    }
}

impl From<FeatureError> for Error {
    fn from(e: FeatureError) -> Self {
        Error::Feature(e)
    }
}

impl From<TensorError> for Error {
    fn from(e: TensorError) -> Self {
        Error::Nn(e)
    }
}

impl From<crate::wire::WireError> for Error {
    fn from(e: crate::wire::WireError) -> Self {
        Error::Wire(e)
    }
}

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, Error>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages_are_stable() {
        // Binaries print `Error`'s Display output (`repro` reports
        // "error: table 4 failed: …"), so these strings are part of
        // their output.
        assert_eq!(
            Error::EmptyReference("reference set is empty").to_string(),
            "reference set is empty"
        );
        assert_eq!(
            Error::EmptyReference("reference catalog is empty").to_string(),
            "reference catalog is empty"
        );
        assert!(Error::KindMismatch { query: "Sift", reference: "Orb" }
            .to_string()
            .contains("descriptor kinds must match"));
    }

    #[test]
    fn wrapped_errors_expose_source() {
        use std::error::Error as _;
        let e = Error::from(TensorError::InputTooSmall { width: 1, height: 1 });
        assert!(e.source().is_some());
        assert!(e.to_string().contains("too small"));
        let e = Error::from(ImgError::InvalidDimensions { width: 0, height: 0 });
        assert!(e.source().is_some());
        let e = Error::from(FeatureError::DescriptorWidthMismatch { left: 64, right: 128 });
        assert!(e.source().is_some());
    }
}
