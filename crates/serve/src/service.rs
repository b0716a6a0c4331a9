//! The recognition service: precomputed gallery artifacts behind a
//! deterministic, degradable `recognize` entry point.
//!
//! Everything immutable is built once at startup and `Arc`-shared from
//! then on: the preprocessed reference views (histograms, Hu moments,
//! contours) inside the fallback [`Recognizer`], the seeded
//! Normalized-X-Corr network, and the gallery's prepared NCC panels
//! ([`PreparedGallery`], built from the views' tower embeddings). A
//! request therefore costs one crop decode, one tower forward and one
//! head sweep of the query across the gallery — never a re-preparation
//! of the reference set.
//!
//! The degrade ladder: the Siamese pipeline is the primary answer;
//! when it fails with a typed error (or is deliberately skipped
//! because the request's remaining deadline budget is too small), the
//! service answers from the cheap histogram/Hu pipelines instead and
//! labels the response `degraded: true`. Every fallback is counted in
//! the shared [`Diagnostics`] ledger.

use taor_core::prelude::*;
use taor_core::recognizer::rank_scores;
use taor_core::wire::{decode_crop, DecodeStats};
use taor_core::{Error, Result};
use taor_data::{shapenet_set1, Dataset, ObjectClass};
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
    cfg: ServiceConfig,
    diag: Diagnostics,
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
    /// prepared gallery.
    pub fn new(cfg: ServiceConfig) -> Result<Self> {
        let catalog = shapenet_set1(cfg.seed);
        let fallback = Recognizer::try_new(&catalog, cfg.method, Background::Black)?;
        if !cfg.use_siamese {
            return Ok(RecognizerService {
                fallback,
                siamese: None,
                ref_classes: Vec::new(),
                cfg,
                diag: Diagnostics::new(),
            });
        }
        let (net, embeds) = embed_gallery(&cfg, &catalog)?;
        let gallery = net.prepare_gallery(&embeds)?;
        let ref_classes = catalog.images.iter().map(|li| li.class).collect();
        Ok(RecognizerService {
            fallback,
            siamese: Some((net, gallery)),
            ref_classes,
            cfg,
            diag: Diagnostics::new(),
        })
    }

    /// The configuration the service was built from.
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
    /// the cheap pipelines.
    pub fn recognize(
        &self,
        crop: &RgbImage,
        stats: DecodeStats,
        allow_expensive: bool,
    ) -> ServiceResponse {
        if !allow_expensive {
            // Overload control skipped the expensive pipeline.
            self.diag.record_degraded(1);
            return self.fallback_response(crop, stats, true);
        }
        if self.siamese.is_none() {
            // The cheap pipeline IS the configured primary: a normal
            // answer, not a degradation.
            return self.fallback_response(crop, stats, false);
        }
        self.siamese_answer(crop, stats).unwrap_or_else(|_| {
            // Typed pipeline failure: degrade to the cheap pipelines,
            // labelled and counted.
            self.diag.record_degraded(1);
            self.fallback_response(crop, stats, true)
        })
    }

    /// [`Self::recognize`] for each item, in order. Kept because the
    /// benchmark (`perfbench/`) calls it by name; the server recognises
    /// one crop per call.
    pub fn recognize_batch(&self, items: &[(RgbImage, DecodeStats, bool)]) -> Vec<ServiceResponse> {
        items.iter().map(|(crop, stats, allow)| self.recognize(crop, *stats, *allow)).collect()
    }

    /// Embed `crop` as a batch of one, score it against every gallery
    /// view and rank per-class minima.
    fn siamese_answer(&self, crop: &RgbImage, stats: DecodeStats) -> Result<ServiceResponse> {
        if self.cfg.chaos_siamese_error {
            return Err(Error::Nn(TensorError::EmptyTrainingSet));
        }
        let Some((net, gallery)) = &self.siamese else {
            return Err(Error::EmptyReference("siamese gallery is not built"));
        };
        let embed = net.tower_embed(&image_to_tensor(crop, &net.config))?;
        let probs = net.predict_similar_gallery(&embed, gallery)?;
        Ok(self.rank_answer(&probs, stats))
    }

    /// The response for head probabilities `probs`, one per gallery
    /// view in row order: per-class best distance `1 − p`, ranked.
    fn rank_answer(&self, probs: &[f32], stats: DecodeStats) -> ServiceResponse {
        let scores = self.ref_classes.iter().zip(probs).map(|(c, p)| (*c, 1.0 - f64::from(*p)));
        let rec = rank_scores(scores, &self.diag);
        response(&rec, "siamese", rec.degraded, stats)
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
        let degraded = degraded_by_ladder || rec.degraded;
        response(&rec, method_label(&self.cfg.method), degraded, stats)
    }
}

/// The response body for `rec`, answered by `pipeline`.
fn response(
    rec: &Recognition,
    pipeline: &str,
    degraded: bool,
    stats: DecodeStats,
) -> ServiceResponse {
    ServiceResponse {
        class: rec.class.name().to_string(),
        synset: rec.synset.id.to_string(),
        confidence: rec.confidence,
        ranking: rec.ranking.iter().map(|c| c.name().to_string()).collect(),
        pipeline: pipeline.to_string(),
        degraded,
        quarantined_samples: stats.nan_pixels,
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
        let a = s.recognize(&img, stats, true);
        let b = s.recognize(&img, stats, true);
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
            let single = s.recognize(&item.0, item.1, true);
            assert_eq!(
                serde_json::to_string(&single).unwrap(),
                serde_json::to_string(batched_resp).unwrap(),
                "recognize_batch must answer like single calls"
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
        let resp = s.recognize(&crop(), DecodeStats::default(), true);
        assert!(resp.degraded, "forced siamese failure must be labelled");
        assert_eq!(resp.pipeline, "hybrid");
        assert!(s.diagnostics().degraded >= 1);
    }

    #[test]
    fn overload_skip_degrades_with_a_label() {
        let s = service(true);
        let resp = s.recognize(&crop(), DecodeStats::default(), false);
        assert!(resp.degraded);
        assert_eq!(resp.pipeline, "hybrid");
    }

    #[test]
    fn no_siamese_config_answers_with_the_cheap_pipeline() {
        let s = service(false);
        let resp = s.recognize(&crop(), DecodeStats::default(), true);
        assert_eq!(resp.pipeline, "hybrid");
        assert!(!resp.degraded, "the configured primary pipeline is not a degradation");
        assert_eq!(s.gallery_size(), s.reference_count());
    }

    #[test]
    fn shortlists_through_the_prepared_gallery_match_the_pairwise_head() {
        // The reference: the query repeated once per gallery view against
        // every view's embedding, through the pairwise head.
        let s = service(true);
        let (net, embeds) = embed_gallery(s.config(), &shapenet_set1(s.config().seed)).unwrap();
        let views = embeds.shape()[0];
        assert_eq!(views, s.gallery_size());
        for li in nyu_set_subsampled(2019, 1).images.iter().take(4) {
            let stats = DecodeStats::default();
            let embed = net.tower_embed(&image_to_tensor(&li.image, &net.config)).unwrap();
            let query = Tensor::stack_batch(&vec![&embed; views]).unwrap();
            let probs = net.predict_similar_features(&query, &embeds).unwrap();
            let want = s.rank_answer(&probs, stats);
            let got = s.recognize(&li.image, stats, true);
            assert_eq!(
                serde_json::to_string(&got).unwrap(),
                serde_json::to_string(&want).unwrap(),
                "the prepared gallery must answer like the pairwise head"
            );
        }
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
