// taor-lint: allow(panic::index) — dense numeric kernel: indices are derived from dimensions validated at the public boundary and bounded by the enclosing loops.
//! Keypoints and descriptor containers.

/// A detected interest point.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct KeyPoint {
    /// Sub-pixel x coordinate in the original image.
    pub x: f32,
    /// Sub-pixel y coordinate in the original image.
    pub y: f32,
    /// Characteristic scale (diameter-ish, detector-specific units).
    pub size: f32,
    /// Dominant orientation in radians, `[0, 2π)`; `0.0` when undefined.
    pub angle: f32,
    /// Detector response (higher = stronger).
    pub response: f32,
    /// Octave / pyramid level the point was detected in.
    pub octave: i32,
}

impl KeyPoint {
    /// A keypoint at `(x, y)` with defaults elsewhere.
    pub fn at(x: f32, y: f32) -> Self {
        KeyPoint { x, y, size: 1.0, angle: 0.0, response: 0.0, octave: 0 }
    }
}

/// A row-major matrix of float descriptors: `len` rows × `width` columns.
///
/// Caches per-row squared norms (the `‖t‖²` term of the GEMM matcher's
/// `‖q−t‖² = ‖q‖² + ‖t‖² − 2q·t` expansion) lazily on first use, so a
/// reference index computes them once per build, not once per query
/// image. The cache is invalidated by `push` and ignored by equality.
#[derive(Debug, Clone, Default)]
pub struct FloatDescriptors {
    width: usize,
    data: Vec<f32>,
    norms: std::sync::OnceLock<Vec<f32>>,
}

impl PartialEq for FloatDescriptors {
    fn eq(&self, other: &Self) -> bool {
        self.width == other.width && self.data == other.data
    }
}

impl FloatDescriptors {
    /// Create an empty container for descriptors of the given width.
    pub fn new(width: usize) -> Self {
        FloatDescriptors { width, data: Vec::new(), norms: std::sync::OnceLock::new() }
    }

    /// Append one descriptor; `desc.len()` must equal the width.
    pub fn push(&mut self, desc: &[f32]) {
        assert_eq!(desc.len(), self.width, "descriptor width mismatch");
        self.data.extend_from_slice(desc);
        self.norms = std::sync::OnceLock::new();
    }

    /// Number of descriptors.
    pub fn len(&self) -> usize {
        self.data.len().checked_div(self.width).unwrap_or(0)
    }

    /// Whether the container is empty.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Descriptor width (dimensionality).
    pub fn width(&self) -> usize {
        self.width
    }

    /// Borrow descriptor `i`.
    pub fn row(&self, i: usize) -> &[f32] {
        &self.data[i * self.width..(i + 1) * self.width]
    }

    /// Iterate over all descriptors.
    pub fn iter(&self) -> impl Iterator<Item = &[f32]> {
        self.data.chunks_exact(self.width.max(1))
    }

    /// The whole matrix as one contiguous row-major slice (GEMM operand).
    pub fn as_slice(&self) -> &[f32] {
        &self.data
    }

    /// Per-row squared L2 norms, computed once and cached (thread-safe).
    pub fn norms_sq(&self) -> &[f32] {
        self.norms.get_or_init(|| self.iter().map(|row| row.iter().map(|&v| v * v).sum()).collect())
    }
}

/// A row-major matrix of binary descriptors, each `width_bytes` bytes
/// (ORB uses 32 bytes = 256 bits).
///
/// Caches a zero-padded `u64` repacking of every row (lazily, like the
/// float norms) so the Hamming matcher runs word-wide `count_ones`
/// instead of byte-wide: equal padding XORs to zero, so distances are
/// unchanged. Invalidated by `push`, ignored by equality.
#[derive(Debug, Clone, Default)]
pub struct BinaryDescriptors {
    width_bytes: usize,
    data: Vec<u8>,
    words: std::sync::OnceLock<Vec<u64>>,
}

impl PartialEq for BinaryDescriptors {
    fn eq(&self, other: &Self) -> bool {
        self.width_bytes == other.width_bytes && self.data == other.data
    }
}

impl BinaryDescriptors {
    /// Create an empty container for descriptors of the given byte width.
    pub fn new(width_bytes: usize) -> Self {
        BinaryDescriptors { width_bytes, data: Vec::new(), words: std::sync::OnceLock::new() }
    }

    /// Append one descriptor; `desc.len()` must equal the byte width.
    pub fn push(&mut self, desc: &[u8]) {
        assert_eq!(desc.len(), self.width_bytes, "descriptor width mismatch");
        self.data.extend_from_slice(desc);
        self.words = std::sync::OnceLock::new();
    }

    /// Number of descriptors.
    pub fn len(&self) -> usize {
        self.data.len().checked_div(self.width_bytes).unwrap_or(0)
    }

    /// Whether the container is empty.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Descriptor width in bytes.
    pub fn width_bytes(&self) -> usize {
        self.width_bytes
    }

    /// Borrow descriptor `i`.
    pub fn row(&self, i: usize) -> &[u8] {
        &self.data[i * self.width_bytes..(i + 1) * self.width_bytes]
    }

    /// `u64` words per packed row: `ceil(width_bytes / 8)`.
    pub fn words_per_row(&self) -> usize {
        self.width_bytes.div_ceil(8)
    }

    /// All rows repacked as little-endian `u64` words, zero-padded to a
    /// whole word; computed once and cached (thread-safe).
    pub fn packed_words(&self) -> &[u64] {
        self.words.get_or_init(|| {
            let wpr = self.words_per_row();
            let mut out = Vec::with_capacity(self.len() * wpr);
            for i in 0..self.len() {
                let row = self.row(i);
                for chunk in row.chunks(8) {
                    let mut bytes = [0u8; 8];
                    bytes[..chunk.len()].copy_from_slice(chunk);
                    out.push(u64::from_le_bytes(bytes));
                }
            }
            out
        })
    }
}

/// Hamming distance between two equal-length byte strings.
#[inline]
pub fn hamming(a: &[u8], b: &[u8]) -> u32 {
    debug_assert_eq!(a.len(), b.len());
    a.iter().zip(b).map(|(&x, &y)| (x ^ y).count_ones()).sum()
}

/// Hamming distance between two equal-length `u64`-packed descriptors.
#[inline]
pub fn hamming_words(a: &[u64], b: &[u64]) -> u32 {
    debug_assert_eq!(a.len(), b.len());
    a.iter().zip(b).map(|(&x, &y)| (x ^ y).count_ones()).sum()
}

/// Squared Euclidean distance between two equal-length float vectors.
#[inline]
pub fn l2_sq(a: &[f32], b: &[f32]) -> f32 {
    debug_assert_eq!(a.len(), b.len());
    a.iter().zip(b).map(|(&x, &y)| (x - y) * (x - y)).sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn float_descriptor_roundtrip() {
        let mut d = FloatDescriptors::new(3);
        d.push(&[1.0, 2.0, 3.0]);
        d.push(&[4.0, 5.0, 6.0]);
        assert_eq!(d.len(), 2);
        assert_eq!(d.row(1), &[4.0, 5.0, 6.0]);
        assert_eq!(d.iter().count(), 2);
    }

    #[test]
    #[should_panic(expected = "descriptor width mismatch")]
    fn float_push_wrong_width_panics() {
        let mut d = FloatDescriptors::new(4);
        d.push(&[1.0]);
    }

    #[test]
    fn binary_descriptor_roundtrip() {
        let mut d = BinaryDescriptors::new(2);
        d.push(&[0xFF, 0x00]);
        d.push(&[0x0F, 0xF0]);
        assert_eq!(d.len(), 2);
        assert_eq!(d.row(0), &[0xFF, 0x00]);
    }

    #[test]
    fn hamming_distance_counts_bits() {
        assert_eq!(hamming(&[0xFF], &[0x00]), 8);
        assert_eq!(hamming(&[0b1010], &[0b0101]), 4);
        assert_eq!(hamming(&[1, 2, 3], &[1, 2, 3]), 0);
    }

    #[test]
    fn l2_sq_basic() {
        assert_eq!(l2_sq(&[0.0, 0.0], &[3.0, 4.0]), 25.0);
        assert_eq!(l2_sq(&[1.0], &[1.0]), 0.0);
    }

    #[test]
    fn empty_containers() {
        let d = FloatDescriptors::new(8);
        assert!(d.is_empty());
        assert_eq!(d.len(), 0);
        let b = BinaryDescriptors::new(32);
        assert!(b.is_empty());
    }
}
