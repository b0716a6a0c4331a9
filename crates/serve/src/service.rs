//! The recognition service: precomputed gallery artifacts behind a
//! deterministic, degradable `recognize` entry point.
//!
//! Everything immutable is built once at startup and `Arc`-shared from
//! then on: the preprocessed reference views (histograms, Hu moments,
//! contours) inside the fallback [`Recognizer`], the seeded
//! Normalized-X-Corr network, and the gallery's prepared NCC panels
//! ([`PreparedGallery`], built from the views' tower embeddings). A
//! request therefore costs one crop decode, one (optionally
//! micro-batched) tower forward and one head sweep of the query across
//! the gallery — never a re-preparation of the reference set.
//!
//! The degrade ladder: the Siamese pipeline is the primary answer;
//! when it fails with a typed error (or is deliberately skipped
//! because the request's remaining deadline budget is too small), the
//! service answers from the cheap histogram/Hu pipelines instead and
//! labels the response `degraded: true`. Every fallback is counted in
//! the shared [`Diagnostics`] ledger.

use taor_core::prelude::*;
use taor_core::wire::{decode_crop, DecodeStats};
use taor_core::{Error, Result};
use taor_data::{shapenet_set1, Dataset, ObjectClass};
use taor_features::{
    BinaryDescriptors, FloatDescriptors, HnswIndex, HnswParams, MihIndex, MihParams,
};
use taor_imgproc::cmp::nan_last_f64;
use taor_imgproc::image::RgbImage;
use taor_nn::{NetConfig, NormXCorrNet, PreparedGallery, Tensor, TensorError};

/// How the service is assembled.
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// Seed for the reference gallery and the network init.
    pub seed: u64,
    /// The cheap fallback pipeline (and the primary one when
    /// `use_siamese` is off).
    pub method: Method,
    /// Whether the Siamese pipeline is the primary answer.
    pub use_siamese: bool,
    /// Network architecture. The default is a small deterministic net
    /// sized for service latency, not accuracy.
    pub net: NetConfig,
    /// Chaos knob: force the Siamese step to fail with a typed error,
    /// exercising the degrade ladder deterministically.
    pub chaos_siamese_error: bool,
    /// Gallery index for the Siamese path. `Flat` runs the head over
    /// every gallery view (the original behaviour); `Hnsw` shortlists by
    /// embedding L2 via a graph index; `Mih` shortlists by Hamming
    /// distance over sign-projected embedding bits. Non-flat modes score
    /// only the shortlist — classes absent from it keep an infinite
    /// distance and rank last.
    pub index: AnnIndexMode,
    /// How many gallery views a non-flat index hands to the head.
    pub shortlist: usize,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            seed: 2019,
            method: Method::default(),
            use_siamese: true,
            net: NetConfig {
                height: 32,
                width: 24,
                c1: 4,
                c2: 4,
                c3: 4,
                dense: 8,
                ..NetConfig::default()
            },
            chaos_siamese_error: false,
            index: AnnIndexMode::Flat,
            shortlist: 16,
        }
    }
}

/// One recognition answer, as serialised into the response body.
///
/// Deliberately free of timing fields: identical crop bytes must yield
/// byte-identical bodies across thread widths and server spawns.
#[derive(Debug, Clone, serde::Serialize)]
pub struct ServiceResponse {
    /// Top-1 class name.
    pub class: String,
    /// WordNet synset id of the top-1 class.
    pub synset: String,
    /// Softmin-margin confidence in `[0, 1]`.
    pub confidence: f64,
    /// Full hypothesis ranking, best first.
    pub ranking: Vec<String>,
    /// Which pipeline answered: `siamese`, `hybrid`, `shape`, `color`.
    pub pipeline: String,
    /// Whether this answer came from a fallback path.
    pub degraded: bool,
    /// Non-finite samples quarantined while decoding the crop.
    pub quarantined_samples: u64,
}

/// The shared immutable artifacts plus the per-run ledger.
pub struct RecognizerService {
    fallback: Recognizer,
    /// The network and the gallery prepared for its head, when the
    /// Siamese pipeline is on.
    siamese: Option<(NormXCorrNet, PreparedGallery)>,
    /// Class of each gallery view, in gallery row order.
    ref_classes: Vec<ObjectClass>,
    /// The shortlist index over the gallery embeddings.
    gallery_index: GalleryIndex,
    cfg: ServiceConfig,
    diag: Diagnostics,
}

/// The built form of [`ServiceConfig::index`].
enum GalleryIndex {
    Flat,
    Hnsw(Box<HnswIndex>),
    Mih(Box<MihIndex>),
}

/// Bits in the sign-projection signature the MIH mode hashes.
const SIG_BITS: usize = 256;
const SIG_BYTES: usize = SIG_BITS / 8;

fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// SimHash-style signature: each bit is the sign of the embedding's dot
/// product with a seeded Rademacher (±1) vector. Nearby embeddings agree
/// on most bits, so Hamming shortlists approximate L2 shortlists. Purely
/// a function of `(row, seed)` — bit-stable across spawns and widths.
fn sign_signature(row: &[f32], seed: u64) -> Vec<u8> {
    let mut out = vec![0u8; SIG_BYTES];
    for bit in 0..SIG_BITS {
        let mut acc = 0.0f64;
        for (i, &v) in row.iter().enumerate() {
            let h = splitmix64(seed ^ (((bit as u64) << 32) | i as u64));
            let w = if h & 1 == 1 { 1.0 } else { -1.0 };
            acc += w * f64::from(v);
        }
        if acc > 0.0 {
            if let Some(byte) = out.get_mut(bit / 8) {
                *byte |= 1 << (bit % 8);
            }
        }
    }
    out
}

fn method_label(method: &Method) -> &'static str {
    match method {
        Method::Shape(_) => "shape",
        Method::Color(_) => "color",
        Method::Hybrid(_) => "hybrid",
    }
}

/// The seeded network and the tower embeddings of every gallery view,
/// stacked `[N, …]` in catalog order.
fn embed_gallery(cfg: &ServiceConfig, catalog: &Dataset) -> Result<(NormXCorrNet, Tensor)> {
    let mut net_cfg = cfg.net.clone();
    net_cfg.seed = cfg.seed;
    let net = NormXCorrNet::new(net_cfg.clone())?;
    let tensors: Vec<Tensor> =
        catalog.images.iter().map(|li| image_to_tensor(&li.image, &net_cfg)).collect();
    let views: Vec<&Tensor> = tensors.iter().collect();
    let embeds = net.tower_embed(&Tensor::stack_batch(&views)?)?;
    Ok((net, embeds))
}

impl RecognizerService {
    /// Build every immutable artifact once: reference views, network,
    /// prepared gallery, shortlist index.
    pub fn new(cfg: ServiceConfig) -> Result<Self> {
        let catalog = shapenet_set1(cfg.seed);
        let fallback = Recognizer::try_new(&catalog, cfg.method, Background::Black)?;
        if !cfg.use_siamese {
            return Ok(RecognizerService {
                fallback,
                siamese: None,
                ref_classes: Vec::new(),
                gallery_index: GalleryIndex::Flat,
                cfg,
                diag: Diagnostics::new(),
            });
        }
        let (net, embeds) = embed_gallery(&cfg, &catalog)?;
        let gallery = net.prepare_gallery(&embeds)?;
        let ref_classes = catalog.images.iter().map(|li| li.class).collect();
        let row_len = (embeds.len() / gallery.views().max(1)).max(1);
        let rows = embeds.data().chunks_exact(row_len);
        let gallery_index = match cfg.index {
            AnnIndexMode::Flat => GalleryIndex::Flat,
            AnnIndexMode::Hnsw => {
                let mut descs = FloatDescriptors::new(row_len);
                rows.for_each(|row| descs.push(row));
                let params = HnswParams { seed: cfg.seed, ..HnswParams::default() };
                GalleryIndex::Hnsw(Box::new(HnswIndex::build(descs, params).map_err(Error::from)?))
            }
            AnnIndexMode::Mih => {
                let mut descs = BinaryDescriptors::new(SIG_BYTES);
                rows.for_each(|row| descs.push(&sign_signature(row, cfg.seed)));
                let index = MihIndex::build(descs, MihParams::default()).map_err(Error::from)?;
                GalleryIndex::Mih(Box::new(index))
            }
        };
        Ok(RecognizerService {
            fallback,
            siamese: Some((net, gallery)),
            ref_classes,
            gallery_index,
            cfg,
            diag: Diagnostics::new(),
        })
    }

    /// A service over the same gallery artifacts and the same ledger.
    /// `Recognizer` is `Arc`-shared internally, so this is cheap; the
    /// network weights are cloned (small, immutable after init).
    pub fn config(&self) -> &ServiceConfig {
        &self.cfg
    }

    /// Number of reference views in the gallery.
    pub fn reference_count(&self) -> usize {
        self.fallback.reference_count()
    }

    /// Number of views the active gallery (Siamese embeddings when that
    /// pipeline is on, otherwise the fallback reference set) holds.
    pub fn gallery_size(&self) -> usize {
        if self.ref_classes.is_empty() {
            self.fallback.reference_count()
        } else {
            self.ref_classes.len()
        }
    }

    /// The index actually built over the gallery (`flat` when the
    /// Siamese pipeline is off, whatever the config asked for).
    pub fn index_label(&self) -> &'static str {
        match &self.gallery_index {
            GalleryIndex::Flat => "flat",
            GalleryIndex::Hnsw(_) => "hnsw",
            GalleryIndex::Mih(_) => "mih",
        }
    }

    /// Decode a wire crop (typed errors for malformed buffers).
    pub fn decode(&self, bytes: &[u8]) -> Result<(RgbImage, DecodeStats)> {
        decode_crop(bytes)
    }

    /// Merged degradation ledger: the fallback recogniser's counters
    /// plus the service-level ones (shed, timeouts, siamese fallbacks).
    pub fn diagnostics(&self) -> DiagnosticsReport {
        let merged = Diagnostics::new();
        merged.merge(&self.diag);
        let r = self.fallback.diagnostics();
        merged.record_nan_scores(r.nan_scores);
        merged.record_degraded(r.degraded);
        merged.record_shed(r.shed);
        merged.record_timeouts(r.timeouts);
        merged.report()
    }

    /// Record a request shed at the admission boundary.
    pub fn record_shed(&self) {
        self.diag.record_shed(1);
    }

    /// Record a request that missed its deadline.
    pub fn record_timeout(&self) {
        self.diag.record_timeouts(1);
    }

    /// Recognise one decoded crop. `allow_expensive` gates the Siamese
    /// pipeline: overload control passes `false` to drop straight to
    /// the cheap pipelines (a labelled degradation, not an error).
    pub fn recognize_image(
        &self,
        img: &RgbImage,
        stats: DecodeStats,
        allow_expensive: bool,
    ) -> ServiceResponse {
        self.recognize_batch(&[(img.clone(), stats, allow_expensive)])
            .into_iter()
            .next()
            .unwrap_or_else(|| self.fallback_response(img, stats, true))
    }

    /// Recognise a micro-batch. All crops that may use the Siamese
    /// pipeline share one batched tower forward; per-item results are
    /// bit-identical regardless of how requests were grouped, so
    /// batching never shows in the bodies.
    pub fn recognize_batch(&self, items: &[(RgbImage, DecodeStats, bool)]) -> Vec<ServiceResponse> {
        // Embed the expensive-path crops in one batched tower forward.
        let mut embeds: Vec<Option<Tensor>> = vec![None; items.len()];
        if let Some((net, _)) = &self.siamese {
            let expensive: Vec<usize> = items
                .iter()
                .enumerate()
                .filter(|(_, (_, _, allow))| *allow && !self.cfg.chaos_siamese_error)
                .map(|(i, _)| i)
                .collect();
            if !expensive.is_empty() {
                let tensors: Vec<Tensor> = expensive
                    .iter()
                    .filter_map(|&i| items.get(i))
                    .map(|(img, _, _)| image_to_tensor(img, &net.config))
                    .collect();
                let views: Vec<&Tensor> = tensors.iter().collect();
                if let Ok(batch_embed) = Tensor::stack_batch(&views).and_then(|b| {
                    let e = net.tower_embed(&b)?;
                    e.split_batch()
                }) {
                    for (&i, e) in expensive.iter().zip(batch_embed) {
                        if let Some(slot) = embeds.get_mut(i) {
                            *slot = Some(e);
                        }
                    }
                }
            }
        }

        items
            .iter()
            .zip(embeds)
            .map(|((img, stats, allow), embed)| {
                if self.siamese.is_some() && *allow {
                    match self.siamese_answer(embed, *stats) {
                        Ok(resp) => resp,
                        Err(_) => {
                            // Typed pipeline failure: degrade to the
                            // cheap pipelines, labelled and counted.
                            self.diag.record_degraded(1);
                            self.fallback_response(img, *stats, true)
                        }
                    }
                } else if *allow {
                    // The cheap pipeline IS the configured primary: a
                    // normal answer, not a degradation.
                    self.fallback_response(img, *stats, false)
                } else {
                    // Overload control skipped the expensive pipeline.
                    self.diag.record_degraded(1);
                    self.fallback_response(img, *stats, true)
                }
            })
            .collect()
    }

    /// Score one embedded query against the gallery (all of it, or the
    /// index's shortlist) and rank per-class minima.
    fn siamese_answer(&self, embed: Option<Tensor>, stats: DecodeStats) -> Result<ServiceResponse> {
        if self.cfg.chaos_siamese_error {
            return Err(Error::Nn(TensorError::EmptyTrainingSet));
        }
        let Some((net, gallery)) = &self.siamese else {
            return Err(Error::EmptyReference("siamese gallery is not built"));
        };
        let embed = embed.ok_or(Error::Nn(TensorError::EmptyTrainingSet))?;
        let (rows, probs) = match self.shortlist(&embed) {
            None => ((0..gallery.views()).collect(), net.predict_similar_gallery(&embed, gallery)?),
            Some(rows) if rows.is_empty() => {
                // A fully quarantined query (or an empty gallery)
                // shortlists nothing: degrade down the ladder.
                return Err(Error::EmptyReference("gallery shortlist is empty"));
            }
            Some(rows) => {
                let probs = net.predict_similar_gallery(&embed, &gallery.subset(&rows)?)?;
                (rows, probs)
            }
        };
        Ok(self.rank_answer(&rows, &probs, stats))
    }

    /// The gallery rows a non-flat index hands to the head, sorted
    /// ascending so the sweep order — and therefore the bytes — never
    /// depend on the index's traversal order; `None` in flat mode.
    fn shortlist(&self, embed: &Tensor) -> Option<Vec<usize>> {
        let k = self.cfg.shortlist.max(1);
        let mut rows: Vec<usize> = match &self.gallery_index {
            GalleryIndex::Flat => return None,
            GalleryIndex::Hnsw(ix) => {
                ix.search(embed.data(), k).into_iter().map(|(i, _)| i).collect()
            }
            GalleryIndex::Mih(ix) => {
                let sig = sign_signature(embed.data(), self.cfg.seed);
                ix.search(&sig, k).into_iter().map(|(i, _)| i).collect()
            }
        };
        rows.sort_unstable();
        Some(rows)
    }

    /// The response for head probabilities `probs` of gallery `rows`:
    /// per-class best distance `1 − p`, ranked.
    fn rank_answer(&self, rows: &[usize], probs: &[f32], stats: DecodeStats) -> ServiceResponse {
        let mut best = [f64::INFINITY; ObjectClass::COUNT];
        let mut nan_seen = 0u64;
        for (class, p) in rows.iter().filter_map(|&i| self.ref_classes.get(i)).zip(probs) {
            let d = 1.0 - f64::from(*p);
            if d.is_nan() {
                nan_seen += 1;
            } else {
                let slot = best.get_mut(class.index());
                if let Some(slot) = slot {
                    if d < *slot {
                        *slot = d;
                    }
                }
            }
        }
        self.diag.record_nan_scores(nan_seen);
        let (ranking, confidence, degraded) = rank_distances(&best);
        if degraded {
            self.diag.record_degraded(1);
        }
        let class = ranking.first().copied().unwrap_or(ObjectClass::Box);
        ServiceResponse {
            class: class.name().to_string(),
            synset: class.synset().id.to_string(),
            confidence,
            ranking: ranking.iter().map(|c| c.name().to_string()).collect(),
            pipeline: "siamese".to_string(),
            degraded,
            quarantined_samples: stats.nan_pixels,
        }
    }

    /// The cheap-pipeline answer (histograms/Hu via the shared
    /// [`Recognizer`]).
    fn fallback_response(
        &self,
        img: &RgbImage,
        stats: DecodeStats,
        degraded_by_ladder: bool,
    ) -> ServiceResponse {
        let rec = self.fallback.recognize(img);
        ServiceResponse {
            class: rec.class.name().to_string(),
            synset: rec.synset.id.to_string(),
            confidence: rec.confidence,
            ranking: rec.ranking.iter().map(|c| c.name().to_string()).collect(),
            pipeline: method_label(&self.cfg.method).to_string(),
            degraded: degraded_by_ladder || rec.degraded,
            quarantined_samples: stats.nan_pixels,
        }
    }
}

/// Ranking + softmin-margin confidence from per-class best distances —
/// the same conventions as `Recognizer::recognize`, shared here for the
/// siamese path. Returns `(ranking, confidence, degraded)`.
fn rank_distances(best: &[f64; ObjectClass::COUNT]) -> (Vec<ObjectClass>, f64, bool) {
    let mut order: Vec<usize> = (0..ObjectClass::COUNT).collect();
    order.sort_by(|&a, &b| {
        let (da, db) = (best.get(a), best.get(b));
        match (da, db) {
            (Some(x), Some(y)) => nan_last_f64(*x, *y),
            _ => std::cmp::Ordering::Equal,
        }
    });
    let ranking: Vec<ObjectClass> =
        order.iter().copied().filter_map(ObjectClass::from_index).collect();
    let d1 = order.first().and_then(|&i| best.get(i)).copied().unwrap_or(f64::INFINITY);
    let d2 = order.get(1).and_then(|&i| best.get(i)).copied().unwrap_or(f64::INFINITY);
    if !d1.is_finite() {
        (ranking, 1.0 / ObjectClass::COUNT as f64, true)
    } else if !d2.is_finite() {
        (ranking, 1.0, false)
    } else {
        let gap = (d2 - d1).max(0.0);
        let scale = d1.abs().max(1e-6);
        (ranking, 1.0 - 0.5 * (-gap / scale).exp(), false)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use taor_core::wire::encode_rgb8;
    use taor_data::nyu_set_subsampled;

    fn service(use_siamese: bool) -> RecognizerService {
        RecognizerService::new(ServiceConfig { use_siamese, ..ServiceConfig::default() })
            .expect("gallery builds")
    }

    fn crop() -> RgbImage {
        nyu_set_subsampled(2019, 1).images[0].image.clone()
    }

    #[test]
    fn siamese_answer_is_full_and_deterministic() {
        let s = service(true);
        let (img, stats) = s.decode(&encode_rgb8(&crop())).unwrap();
        let a = s.recognize_image(&img, stats, true);
        let b = s.recognize_image(&img, stats, true);
        assert_eq!(a.pipeline, "siamese");
        assert!(!a.degraded);
        assert_eq!(a.ranking.len(), ObjectClass::COUNT);
        assert_eq!(serde_json::to_string(&a).unwrap(), serde_json::to_string(&b).unwrap());
    }

    #[test]
    fn batched_and_single_answers_are_identical() {
        let s = service(true);
        let crops = nyu_set_subsampled(2019, 1);
        let items: Vec<(RgbImage, DecodeStats, bool)> = crops
            .images
            .iter()
            .take(4)
            .map(|li| (li.image.clone(), DecodeStats::default(), true))
            .collect();
        let batched = s.recognize_batch(&items);
        for (item, batched_resp) in items.iter().zip(&batched) {
            let single = s.recognize_image(&item.0, item.1, true);
            assert_eq!(
                serde_json::to_string(&single).unwrap(),
                serde_json::to_string(batched_resp).unwrap(),
                "micro-batching must not change the answer"
            );
        }
    }

    #[test]
    fn chaos_knob_degrades_with_a_label() {
        let s = RecognizerService::new(ServiceConfig {
            chaos_siamese_error: true,
            ..ServiceConfig::default()
        })
        .unwrap();
        let resp = s.recognize_image(&crop(), DecodeStats::default(), true);
        assert!(resp.degraded, "forced siamese failure must be labelled");
        assert_eq!(resp.pipeline, "hybrid");
        assert!(s.diagnostics().degraded >= 1);
    }

    #[test]
    fn overload_skip_degrades_with_a_label() {
        let s = service(true);
        let resp = s.recognize_image(&crop(), DecodeStats::default(), false);
        assert!(resp.degraded);
        assert_eq!(resp.pipeline, "hybrid");
    }

    #[test]
    fn no_siamese_config_answers_with_the_cheap_pipeline() {
        let s = service(false);
        let resp = s.recognize_image(&crop(), DecodeStats::default(), true);
        assert_eq!(resp.pipeline, "hybrid");
        assert!(!resp.degraded, "the configured primary pipeline is not a degradation");
    }

    #[test]
    fn hnsw_shortlist_covering_the_gallery_matches_flat() {
        // With the shortlist at least as large as the gallery, the HNSW
        // path scores every view the flat path scores, so the answer
        // must be byte-identical (the head is per-pair).
        let flat = service(true);
        let hnsw = RecognizerService::new(ServiceConfig {
            index: AnnIndexMode::Hnsw,
            shortlist: 1024,
            ..ServiceConfig::default()
        })
        .expect("hnsw gallery builds");
        assert_eq!(hnsw.index_label(), "hnsw");
        assert_eq!(hnsw.gallery_size(), flat.gallery_size());
        for li in nyu_set_subsampled(2019, 1).images.iter().take(3) {
            let a = flat.recognize_image(&li.image, DecodeStats::default(), true);
            let b = hnsw.recognize_image(&li.image, DecodeStats::default(), true);
            assert_eq!(
                serde_json::to_string(&a).unwrap(),
                serde_json::to_string(&b).unwrap(),
                "a gallery-covering shortlist must reproduce the flat answer"
            );
        }
    }

    #[test]
    fn small_shortlist_still_answers_siamese_deterministically() {
        for index in [AnnIndexMode::Hnsw, AnnIndexMode::Mih] {
            let s = RecognizerService::new(ServiceConfig {
                index,
                shortlist: 8,
                ..ServiceConfig::default()
            })
            .expect("indexed gallery builds");
            assert_eq!(s.index_label(), index.label());
            let a = s.recognize_image(&crop(), DecodeStats::default(), true);
            let b = s.recognize_image(&crop(), DecodeStats::default(), true);
            assert_eq!(a.pipeline, "siamese");
            assert!(!a.degraded, "a shortlisted answer is not a degradation");
            assert_eq!(a.ranking.len(), ObjectClass::COUNT);
            assert_eq!(serde_json::to_string(&a).unwrap(), serde_json::to_string(&b).unwrap());
        }
    }

    #[test]
    fn shortlists_through_the_prepared_gallery_match_the_pairwise_head() {
        // The reference: the query repeated once per shortlisted row
        // against those rows' embeddings, through the pairwise head.
        let cfg = ServiceConfig::default();
        let (net, embeds) = embed_gallery(&cfg, &shapenet_set1(cfg.seed)).unwrap();
        let views = embeds.split_batch().unwrap();
        for index in [AnnIndexMode::Flat, AnnIndexMode::Hnsw, AnnIndexMode::Mih] {
            let s = RecognizerService::new(ServiceConfig { index, shortlist: 8, ..cfg.clone() })
                .expect("indexed gallery builds");
            for li in nyu_set_subsampled(2019, 1).images.iter().take(4) {
                let stats = DecodeStats::default();
                let tensor = image_to_tensor(&li.image, &net.config);
                let embed = net.tower_embed(&tensor).unwrap();
                let rows = s.shortlist(&embed).unwrap_or_else(|| (0..views.len()).collect());
                assert_eq!(rows.len(), if index == AnnIndexMode::Flat { views.len() } else { 8 });
                let refs: Vec<&Tensor> = rows.iter().map(|&r| &views[r]).collect();
                let query = Tensor::stack_batch(&vec![&embed; rows.len()]).unwrap();
                let probs = net
                    .predict_similar_features(&query, &Tensor::stack_batch(&refs).unwrap())
                    .unwrap();
                let want = s.rank_answer(&rows, &probs, stats);
                let got = s.recognize_image(&li.image, stats, true);
                assert_eq!(
                    serde_json::to_string(&got).unwrap(),
                    serde_json::to_string(&want).unwrap(),
                    "{index:?}: the prepared gallery must answer like the pairwise head"
                );
            }
        }
    }

    #[test]
    fn index_without_siamese_stays_flat() {
        let s = RecognizerService::new(ServiceConfig {
            use_siamese: false,
            index: AnnIndexMode::Hnsw,
            ..ServiceConfig::default()
        })
        .expect("cheap gallery builds");
        assert_eq!(s.index_label(), "flat", "no embeddings means no index to build");
        assert!(s.gallery_size() > 0);
    }

    #[test]
    fn shed_and_timeout_counters_reach_the_merged_report() {
        let s = service(false);
        s.record_shed();
        s.record_shed();
        s.record_timeout();
        let d = s.diagnostics();
        assert_eq!(d.shed, 2);
        assert_eq!(d.timeouts, 1);
    }
}
