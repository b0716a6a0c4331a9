// taor-lint: allow(panic::index) — dense hashing kernel: bucket offsets and row ids are produced in-bounds at build time and bounded by the arrays they index.
//! Multi-index hashing for binary descriptors (Norouzi, Punjani & Fleet,
//! "Fast Search in Hamming Space with Multi-Index Hashing", CVPR 2012).
//!
//! The code is split into `m` disjoint substrings of `b` bits, each
//! indexed in its own table. A query probes every table at growing
//! Hamming radius `r`; by the pigeonhole principle any code within full
//! distance `m·(r+1) − 1` of the query differs from it by at most `r`
//! bits in *some* substring, so once the radius-`r` sweep finishes, every
//! unseen code is at distance `≥ m·(r+1)`. The search stops as soon as
//! that bound exceeds the current second-best — which makes MIH an
//! **exact** kNN algorithm: results are bit-identical to the brute-force
//! [`knn_match_binary`], just reached sub-linearly.
//!
//! Candidate verification rides the cached `u64` packings of
//! [`BinaryDescriptors::packed_words`] with a popcount kernel.
//!
//! **Determinism.** Buckets are sorted `(key, row)` arrays probed by
//! binary search — no hash-map iteration anywhere — and the lexicographic
//! `(distance, index)` order maintained during verification is exactly
//! the order the naive ascending scan produces, so results are identical
//! across `TAOR_THREADS` widths and repeated spawns.
//!
//! [`knn_match_binary`]: crate::matcher::knn_match_binary

use rayon::prelude::*;

use crate::error::{FeatureError, Result};
use crate::keypoint::{hamming_words, BinaryDescriptors};
use crate::matcher::{DMatch, RatioMatch};

/// MIH build knobs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MihParams {
    /// Bits per substring (1..=32). 16 splits ORB's 256 bits into 16
    /// tables of 65,536 buckets — the paper's recommended `b ≈ log₂ n`
    /// regime for galleries in the 10⁴–10⁵ range. Results are exact at
    /// any width, but beware going much wider: the radius-`r` sweep
    /// enumerates `C(substring_bits, r)` keys per table, so wide
    /// substrings paired with distant queries degrade towards
    /// exhaustive key enumeration rather than a bucket scan.
    pub substring_bits: u32,
}

impl Default for MihParams {
    fn default() -> Self {
        MihParams { substring_bits: 16 }
    }
}

/// One substring table: parallel `(key, row)` arrays sorted
/// lexicographically, probed via `partition_point`.
#[derive(Debug)]
struct Table {
    bit_lo: u32,
    bit_len: u32,
    keys: Vec<u32>,
    rows: Vec<u32>,
}

impl Table {
    /// Iterate the rows bucketed under `key`.
    fn bucket(&self, key: u32) -> &[u32] {
        let lo = self.keys.partition_point(|&k| k < key);
        let hi = lo + self.keys[lo..].partition_point(|&k| k == key);
        &self.rows[lo..hi]
    }
}

/// Extract `len ≤ 32` bits starting at bit `lo` from a little-endian
/// word-packed row (bit `j` of the code is bit `j % 64` of word `j / 64`,
/// matching [`BinaryDescriptors::packed_words`]).
fn substring(words: &[u64], lo: u32, len: u32) -> u32 {
    let w = (lo / 64) as usize;
    let off = lo % 64;
    let mut v = words[w] >> off;
    if off + len > 64 && w + 1 < words.len() {
        // len ≤ 32 ⇒ off > 32 here, so the shift below is < 64.
        v |= words[w + 1] << (64 - off);
    }
    (v & ((1u64 << len) - 1)) as u32
}

/// Visit every `len`-bit key at Hamming distance exactly `r` from `key`,
/// in deterministic ascending-bit-position order.
fn for_each_flip(key: u32, len: u32, r: u32, start: u32, f: &mut impl FnMut(u32)) {
    if r == 0 {
        f(key);
        return;
    }
    for p in start..=(len - r) {
        for_each_flip(key ^ (1 << p), len, r - 1, p + 1, f);
    }
}

/// An owned multi-index-hashing index over a binary descriptor matrix.
#[derive(Debug)]
pub struct MihIndex {
    descs: BinaryDescriptors,
    params: MihParams,
    tables: Vec<Table>,
}

impl MihIndex {
    /// Build an index owning `descs`.
    pub fn build(descs: BinaryDescriptors, params: MihParams) -> Result<Self> {
        if params.substring_bits == 0 || params.substring_bits > 32 {
            return Err(FeatureError::InvalidParameter {
                name: "substring_bits",
                msg: "must be in 1..=32".into(),
            });
        }
        let bits_total = (descs.width_bytes() * 8) as u32;
        let b = params.substring_bits;
        let wpr = descs.words_per_row();
        let packed = descs.packed_words();
        let n = descs.len();
        let mut tables = Vec::new();
        let mut lo = 0u32;
        while lo < bits_total {
            let len = b.min(bits_total - lo);
            let mut entries: Vec<(u32, u32)> = (0..n)
                .map(|i| (substring(&packed[i * wpr..(i + 1) * wpr], lo, len), i as u32))
                .collect();
            entries.sort_unstable();
            tables.push(Table {
                bit_lo: lo,
                bit_len: len,
                keys: entries.iter().map(|e| e.0).collect(),
                rows: entries.iter().map(|e| e.1).collect(),
            });
            lo += len;
        }
        Ok(MihIndex { descs, params, tables })
    }

    /// Number of indexed rows.
    pub fn len(&self) -> usize {
        self.descs.len()
    }

    /// Whether the underlying matrix is empty.
    pub fn is_empty(&self) -> bool {
        self.descs.is_empty()
    }

    /// Descriptor width in bytes.
    pub fn width_bytes(&self) -> usize {
        self.descs.width_bytes()
    }

    /// The build knobs.
    pub fn params(&self) -> MihParams {
        self.params
    }

    /// Borrow the indexed descriptors.
    pub fn descriptors(&self) -> &BinaryDescriptors {
        &self.descs
    }

    /// Exact `k` nearest neighbours of a word-packed query as
    /// `(row index, Hamming distance)`, sorted ascending by
    /// `(distance, index)`.
    pub fn search_words(&self, qwords: &[u64], k: usize) -> Vec<(usize, u32)> {
        let n = self.descs.len();
        if n == 0 || k == 0 {
            return Vec::new();
        }
        let m = self.tables.len() as u32;
        let wpr = self.descs.words_per_row();
        let packed = self.descs.packed_words();
        let mut checked = vec![0u64; n.div_ceil(64)];
        let mut seen = 0usize;
        // Lexicographic (distance, row) top-k, kept sorted; k is 2 for the
        // matcher and small in `bench_ann`, so insertion is cheap.
        let mut top: Vec<(u32, u32)> = Vec::with_capacity(k + 1);
        let qkeys: Vec<u32> =
            self.tables.iter().map(|t| substring(qwords, t.bit_lo, t.bit_len)).collect();
        let max_len = self.tables.iter().map(|t| t.bit_len).max().unwrap_or(0);
        for r in 0..=max_len {
            for (t, &qkey) in self.tables.iter().zip(&qkeys) {
                if r > t.bit_len {
                    continue;
                }
                for_each_flip(qkey, t.bit_len, r, 0, &mut |key| {
                    for &row in t.bucket(key) {
                        let word = row as usize / 64;
                        let bit = 1u64 << (row as usize % 64);
                        if checked[word] & bit != 0 {
                            continue;
                        }
                        checked[word] |= bit;
                        seen += 1;
                        let d = hamming_words(
                            qwords,
                            &packed[row as usize * wpr..(row as usize + 1) * wpr],
                        );
                        let cand = (d, row);
                        if top.len() < k || cand < top[k - 1] {
                            let at = top.partition_point(|&t| t < cand);
                            top.insert(at, cand);
                            top.truncate(k);
                        }
                    }
                });
            }
            // Pigeonhole: every unseen row is at distance ≥ m·(r+1); once
            // the kth kept distance is strictly below that, no unseen row
            // can lexicographically displace anything.
            if seen >= n {
                break;
            }
            if top.len() >= k.min(n) {
                if let Some(&(d, _)) = top.last() {
                    if d < m * (r + 1) {
                        break;
                    }
                }
            }
        }
        top.iter().map(|&(d, row)| (row as usize, d)).collect()
    }

    /// 2-NN match every query row against the index, mirroring
    /// [`crate::matcher::knn_match_binary`]'s output shape. Exact: output
    /// is bit-identical to it.
    /// Queries run in parallel with an ordered collect.
    pub fn knn_match(&self, query: &BinaryDescriptors) -> Result<Vec<RatioMatch>> {
        if query.is_empty() || self.descs.is_empty() {
            return Ok(Vec::new());
        }
        if query.width_bytes() != self.descs.width_bytes() {
            return Err(FeatureError::DescriptorWidthMismatch {
                left: query.width_bytes(),
                right: self.descs.width_bytes(),
            });
        }
        let wpr = query.words_per_row();
        let qw = query.packed_words();
        Ok((0..query.len())
            .into_par_iter()
            .map(|qi| {
                let top = self.search_words(&qw[qi * wpr..(qi + 1) * wpr], 2);
                // Hamming distances are always finite, so for n ≥ 1 the
                // lexicographic top-2 coincide with the oracle's
                // ascending-scan (best, second) pair.
                let best = match top.first() {
                    Some(&(ti, d)) => DMatch { query_idx: qi, train_idx: ti, distance: d as f32 },
                    None => DMatch { query_idx: qi, train_idx: 0, distance: f32::INFINITY },
                };
                let second = top.get(1).map(|&(ti, d)| DMatch {
                    query_idx: qi,
                    train_idx: ti,
                    distance: d as f32,
                });
                RatioMatch { best, second }
            })
            .collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};
    use taor_testkit::oracle::hamming;

    fn random_bdescs(n: usize, wb: usize, seed: u64) -> BinaryDescriptors {
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut d = BinaryDescriptors::new(wb);
        let mut row = vec![0u8; wb];
        for _ in 0..n {
            for b in &mut row {
                *b = rng.gen();
            }
            d.push(&row);
        }
        d
    }

    #[test]
    fn substring_extraction_crosses_word_boundaries() {
        // Bits 0..64 set in word 0; word 1 all zeros except bit 64 (bit 0
        // of word 1).
        let words = [u64::MAX, 1u64];
        assert_eq!(substring(&words, 0, 16), 0xFFFF);
        assert_eq!(substring(&words, 60, 8), 0b0001_1111);
        assert_eq!(substring(&words, 62, 4), 0b0111);
    }

    #[test]
    fn search_k_is_exact_topk() {
        let train = random_bdescs(200, 32, 9);
        let query = random_bdescs(1, 32, 10);
        let index = MihIndex::build(train.clone(), MihParams::default()).unwrap();
        let got = index.search_words(query.packed_words(), 10);
        // Brute-force oracle.
        let mut all: Vec<(u32, usize)> =
            (0..train.len()).map(|i| (hamming(query.row(0), train.row(i)), i)).collect();
        all.sort_unstable_by(|a, b| a.0.cmp(&b.0).then(a.1.cmp(&b.1)));
        let want: Vec<(usize, u32)> = all.iter().take(10).map(|&(d, i)| (i, d)).collect();
        assert_eq!(got, want);
    }

    #[test]
    fn empty_inputs_and_width_mismatch() {
        let empty = BinaryDescriptors::new(32);
        let index = MihIndex::build(empty, MihParams::default()).unwrap();
        assert!(index.knn_match(&random_bdescs(2, 32, 1)).unwrap().is_empty());
        assert!(index.search_words(&[0u64; 4], 2).is_empty());
        let index = MihIndex::build(random_bdescs(5, 32, 2), MihParams::default()).unwrap();
        assert!(index.knn_match(&BinaryDescriptors::new(32)).unwrap().is_empty());
        assert!(index.knn_match(&random_bdescs(2, 16, 3)).is_err());
        assert!(MihIndex::build(random_bdescs(2, 32, 4), MihParams { substring_bits: 0 }).is_err());
        assert!(MihIndex::build(random_bdescs(2, 32, 4), MihParams { substring_bits: 33 }).is_err());
    }
}
