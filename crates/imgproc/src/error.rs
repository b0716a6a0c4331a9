//! Error types shared by the image-processing substrate.

use std::fmt;

/// Errors produced by image operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ImgError {
    /// An image dimension was zero or exceeded the supported maximum.
    InvalidDimensions { width: u32, height: u32 },
    /// A rectangle did not fit inside the image it was applied to.
    InvalidRect { msg: String },
    /// A numeric parameter was outside its valid range.
    InvalidParameter { name: &'static str, msg: String },
}

impl fmt::Display for ImgError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ImgError::InvalidDimensions { width, height } => {
                write!(f, "invalid image dimensions {width}x{height}")
            }
            ImgError::InvalidRect { msg } => write!(f, "invalid rectangle: {msg}"),
            ImgError::InvalidParameter { name, msg } => {
                write!(f, "invalid parameter `{name}`: {msg}")
            }
        }
    }
}

impl std::error::Error for ImgError {}

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, ImgError>;
