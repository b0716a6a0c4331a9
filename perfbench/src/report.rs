//! Metric names, statistics helpers and the result format.
//!
//! The end-to-end and per-layer lists here are the ones `BENCHMARK.json`
//! declares (a unit test keeps them in step). Every workload reports
//! every metric of the list its run prints; a per-layer metric that a
//! workload does not exercise reads 0.

use serde_json::Value;

/// End-to-end metrics of untraced runs: (name, unit).
pub const END_TO_END: [(&str, &str); 4] =
    [("setup_s", "s"), ("wall_s", "s"), ("lat_p50_ms", "ms"), ("peak_rss_mb", "MiB")];

/// Per-layer metrics of traced runs: (name, unit).
pub const PER_LAYER: [(&str, &str); 74] = [
    // taor-serve
    ("serve.http.parse_us", "us"),
    ("serve.http.parse.n", "count"),
    ("serve.http.write_us", "us"),
    ("serve.http.write.n", "count"),
    ("serve.recognize_batch_us.b1", "us"),
    ("serve.recognize_batch.b1.n", "count"),
    ("serve.recognize_batch_us.b4", "us"),
    ("serve.recognize_batch.b4.n", "count"),
    ("serve.reconnects", "count"),
    ("serve.healthz.shed", "count"),
    ("serve.healthz.timeouts", "count"),
    ("serve.healthz.degraded", "count"),
    ("serve.client_p50_ms", "ms"),
    ("serve.unattributed_ms", "ms"),
    // taor-core
    ("core.wire.decode_us", "us"),
    ("core.wire.decode.n", "count"),
    ("core.wire.rejects", "count"),
    ("core.image_to_tensor_us", "us"),
    ("core.image_to_tensor.n", "count"),
    ("core.fallback.recognize_us", "us"),
    ("core.fallback.recognize.n", "count"),
    ("core.prepare_views_s.sns1", "s"),
    ("core.prepare_views_s.sns2", "s"),
    ("core.prepare_views_s.nyu", "s"),
    ("core.classify_per_view_s", "s"),
    ("core.classify_per_view.n", "count"),
    ("core.pairs_per_s", "1/s"),
    ("core.classify_hybrid_s", "s"),
    ("core.classify_hybrid.n", "count"),
    ("core.extract_index_s.sift", "s"),
    ("core.extract_index_s.surf", "s"),
    ("core.extract_index_s.orb", "s"),
    ("core.extract_index.rows.sift", "count"),
    ("core.extract_index.rows.surf", "count"),
    ("core.extract_index.rows.orb", "count"),
    ("core.classify_descriptors_s.sift", "s"),
    ("core.classify_descriptors_s.surf", "s"),
    ("core.classify_descriptors_s.orb", "s"),
    ("core.train_siamese_s", "s"),
    ("core.evaluate_siamese_s", "s"),
    ("core.evaluate_siamese.n", "count"),
    // taor-nn
    ("nn.tower_embed_us.b1", "us"),
    ("nn.tower_embed.b1.n", "count"),
    ("nn.tower_embed_us.b4", "us"),
    ("nn.tower_embed.b4.n", "count"),
    ("nn.head_us", "us"),
    ("nn.head.n", "count"),
    ("nn.epoch_s", "s"),
    ("nn.epochs", "count"),
    ("nn.train_pairs_per_s", "1/s"),
    // taor-features
    ("features.mih.build_ms", "ms"),
    ("features.mih.search_us", "us"),
    ("features.mih.search.n", "count"),
    ("features.knn_float_us", "us"),
    ("features.knn_float.n", "count"),
    // taor-data
    ("data.render_s.sns1", "s"),
    ("data.render_s.sns2", "s"),
    ("data.render_s.nyu", "s"),
    ("data.render.images", "count"),
    ("data.pairs_s", "s"),
    // taor-imgproc
    ("imgproc.resize_us", "us"),
    ("imgproc.resize.n", "count"),
    // pool and load generator
    ("pool.width", "count"),
    ("loadgen.late_ms.p99", "ms"),
    // layer self times and trace coherence
    ("layer.serve_s", "s"),
    ("layer.core_s", "s"),
    ("layer.nn_s", "s"),
    ("layer.features_s", "s"),
    ("layer.data_s", "s"),
    ("layer.imgproc_s", "s"),
    ("trace.wall_s", "s"),
    ("trace.unattributed_s", "s"),
    ("trace.stage_sum_s", "s"),
    ("trace.overhead_pct", "%"),
];

/// One reported figure.
#[derive(Debug, Clone, PartialEq)]
pub struct Figure {
    pub name: String,
    pub value: f64,
    pub unit: String,
    /// Samples behind the value (1 for a single measurement or count).
    pub n: u64,
}

/// The figures of one run, in insertion order.
#[derive(Debug, Clone, Default)]
pub struct Figures(pub Vec<Figure>);

impl Figures {
    /// Add or overwrite a figure.
    pub fn set(&mut self, name: &str, value: f64, unit: &str, n: u64) {
        let fig = Figure { name: name.to_string(), value, unit: unit.to_string(), n };
        match self.0.iter_mut().find(|f| f.name == name) {
            Some(slot) => *slot = fig,
            None => self.0.push(fig),
        }
    }

    pub fn get(&self, name: &str) -> Option<&Figure> {
        self.0.iter().find(|f| f.name == name)
    }
}

/// Median of unsorted values (0 for none).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Nearest-rank percentile `q` (0..=100) of unsorted values.
pub fn percentile(values: &[f64], q: f64) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    if v.is_empty() {
        return 0.0;
    }
    let rank = ((q / 100.0) * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// The estimate a timing metric reports from its samples in one run: the
/// lower quartile (nearest rank; the fastest of up to four samples).
/// The host's slow spells only lengthen samples, so the run's faster
/// samples move with the code and much less with the neighbours.
pub fn lower_quartile(values: &[f64]) -> f64 {
    percentile(values, 25.0)
}

/// The highest of the usual percentiles with at least ten samples above
/// it, as a label (`p99`, `p95`, `p90`, `p50`); `max` when even the
/// median has fewer than ten samples above it.
pub fn supported_percentile(n: usize) -> &'static str {
    for (q, label) in [(99.0, "p99"), (95.0, "p95"), (90.0, "p90"), (50.0, "p50")] {
        let rank = ((q / 100.0) * n as f64).ceil() as usize;
        if n >= 1 && n - rank.min(n) >= 10 {
            return label;
        }
    }
    "max"
}

/// 64-bit FNV-1a, the digest recorded for expected outputs.
pub fn fnv64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0100_0000_01b3);
    }
    h
}

/// A JSON object with the given members, in order.
pub fn object<K: Into<String>>(members: impl IntoIterator<Item = (K, Value)>) -> Value {
    Value::Map(members.into_iter().map(|(k, v)| (k.into(), v)).collect())
}

/// `{"name": {"value": v, "unit": u}, ...}` over the named figures, in
/// the given order (with each figure's sample count if `with_n`);
/// missing names read 0.
pub fn metrics_json(figs: &Figures, names: &[(&str, &str)], with_n: bool) -> Value {
    object(names.iter().map(|&(name, unit)| {
        let (value, n) = figs.get(name).map_or((0.0, 0), |f| (f.value, f.n));
        let mut m = vec![("value", Value::Float(value)), ("unit", Value::Str(unit.into()))];
        if with_n {
            m.push(("n", Value::UInt(n)));
        }
        (name, object(m))
    }))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_and_medians() {
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 500.0);
        assert_eq!(percentile(&v, 99.0), 990.0);
        assert_eq!(percentile(&[3.0], 99.0), 3.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(supported_percentile(1000), "p99");
        assert_eq!(supported_percentile(999), "p95");
        assert_eq!(supported_percentile(8), "max");
        assert_eq!(lower_quartile(&[4.0, 1.0, 3.0, 2.0]), 1.0);
        assert_eq!(lower_quartile(&v), 250.0);
    }

    #[test]
    fn metric_lists_match_benchmark_json() {
        let bench: Value =
            serde_json::from_str(include_str!("../../BENCHMARK.json")).expect("valid JSON");
        let Value::Map(top) = &bench else { panic!("BENCHMARK.json is an object") };
        let section = |key: &str| -> Vec<(String, String)> {
            let Some(Value::Seq(items)) = serde::field(top, key) else { panic!("no {key}") };
            items
                .iter()
                .map(|item| {
                    let Value::Map(m) = item else { panic!("{key}: not an object") };
                    let text = |f: &str| match serde::field(m, f) {
                        Some(Value::Str(s)) => s.clone(),
                        other => panic!("{key}.{f}: {other:?}"),
                    };
                    (text("name"), text("unit"))
                })
                .collect()
        };
        let owned = |l: &[(&str, &str)]| -> Vec<(String, String)> {
            l.iter().map(|(n, u)| (n.to_string(), u.to_string())).collect()
        };
        assert_eq!(section("end_to_end"), owned(&END_TO_END));
        assert_eq!(section("per_layer"), owned(&PER_LAYER));
    }

    #[test]
    fn json_output_is_well_formed() {
        let mut f = Figures::default();
        f.set("wall_s", 1.5, "s", 3);
        let j = metrics_json(&f, &[("wall_s", "s"), ("setup_s", "s")], false);
        assert_eq!(
            serde_json::to_string(&j).expect("serialises"),
            "{\"wall_s\":{\"value\":1.5,\"unit\":\"s\"},\"setup_s\":{\"value\":0.0,\"unit\":\"s\"}}"
        );
    }
}
