//! Roofline attribution: every kernel variant of the ladder placed on
//! the SW26010 core-group roofline —
//!
//! ```text
//! attainable GFLOP/s = min(CG_PEAK_GFLOPS, AI * DMA_PEAK_GBS)
//! ```
//!
//! where `AI` (arithmetic intensity) is flops per main-memory byte
//! moved (DMA + gld/gst). A kernel left of the ridge point is
//! **bandwidth-bound** — more SIMD lanes won't help, fewer bytes will;
//! right of it, **compute-bound**. That classification is the paper's
//! optimization story in one number: the gld-naive port drowns in
//! latency-priced bytes, and each ladder rung (packages, LDM cache,
//! vectorization, Bit-Map reduction) either removes traffic or raises
//! useful flops until the kernel climbs the roof.
//!
//! Every variant runs on the same seeded workload; its
//! [`sw26010::PerfCounters`] — total and per-phase
//! (`init`/`calc`/`reduce`) — yield flops, moved bytes, and achieved
//! GFLOP/s. All numbers are simulated, so the report ([`collect`] +
//! [`render_json`] / [`render_ascii`], the `swlens` bin) is a pure
//! function of the workload: `results/baselines/roofline.json` is
//! checked by its exact bytes.

use sw26010::params;
use sw26010::perf::PerfCounters;
use swgmx::check::{run_variant, Variant};
use swprof::json;

/// The machine envelope the rows are placed against.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Envelope {
    /// Flat roof: peak compute, GFLOP/s.
    pub peak_gflops: f64,
    /// Slanted roof: peak main-memory bandwidth, GB/s.
    pub peak_gbs: f64,
}

impl Envelope {
    /// One SW26010 core group (the unit every kernel here runs on).
    pub fn sw26010_cg() -> Self {
        Envelope {
            peak_gflops: params::CG_PEAK_GFLOPS,
            peak_gbs: params::DMA_PEAK_GBS,
        }
    }

    /// Ridge point in flop/byte: where the two roofs meet.
    pub fn ridge(&self) -> f64 {
        self.peak_gflops / self.peak_gbs
    }

    /// Attainable GFLOP/s at arithmetic intensity `ai`.
    pub fn attainable(&self, ai: f64) -> f64 {
        (ai * self.peak_gbs).min(self.peak_gflops)
    }
}

/// Which roof caps a region.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Bound {
    /// Left of the ridge: bytes are the budget.
    Bandwidth,
    /// Right of the ridge (or no memory traffic at all): flops are.
    Compute,
}

impl Bound {
    /// Stable name used in the JSON report.
    pub fn name(self) -> &'static str {
        match self {
            Bound::Bandwidth => "bandwidth",
            Bound::Compute => "compute",
        }
    }
}

/// One (version, region) placement on the roofline.
#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    /// Kernel variant name (`ori`, `gldnaive`, `rma`, `rca`, `ustc`).
    pub version: &'static str,
    /// `total` or a phase label (`init`, `calc`, `reduce`).
    pub region: String,
    /// Simulated cycles of the region.
    pub cycles: u64,
    /// Floating-point operations (scalar + SIMD lane-flops).
    pub flops: u64,
    /// Bytes moved by DMA.
    pub dma_bytes: u64,
    /// Bytes moved by gld/gst.
    pub gld_bytes: u64,
    /// Arithmetic intensity, flop/byte (`None`: no memory traffic).
    pub ai: Option<f64>,
    /// Achieved GFLOP/s over the region's simulated time.
    pub achieved_gflops: f64,
    /// Roofline ceiling at this AI (`None` when AI is undefined).
    pub attainable_gflops: Option<f64>,
    /// Which roof caps the region.
    pub bound: Bound,
}

/// Place one counter set on the roofline.
pub fn classify(version: &'static str, region: &str, perf: &PerfCounters, env: &Envelope) -> Row {
    let ai = perf.arithmetic_intensity();
    let bound = match ai {
        // A region that never touches main memory cannot be capped by
        // the bandwidth roof.
        None => Bound::Compute,
        Some(ai) if ai >= env.ridge() => Bound::Compute,
        Some(_) => Bound::Bandwidth,
    };
    Row {
        version,
        region: region.to_string(),
        cycles: perf.cycles,
        flops: perf.flops(),
        dma_bytes: perf.dma_bytes,
        gld_bytes: perf.gld_bytes,
        ai,
        achieved_gflops: perf.achieved_gflops(),
        attainable_gflops: ai.map(|ai| env.attainable(ai)),
        bound,
    }
}

/// Run every kernel variant on a seeded water box of `n_mol` molecules
/// and return its roofline rows: one `total` row per variant plus one
/// row per recorded phase, in ladder order.
pub fn collect(n_mol: usize, seed: u64, env: &Envelope) -> Vec<Row> {
    let mut rows = Vec::new();
    for variant in Variant::ALL {
        let result = run_variant(variant, n_mol, seed);
        rows.push(classify(variant.name(), "total", &result.total, env));
        for (label, perf) in result.phases.iter() {
            rows.push(classify(variant.name(), label, perf, env));
        }
    }
    rows
}

fn opt_num(v: Option<f64>) -> String {
    match v {
        Some(v) => json::number(v),
        None => "null".to_string(),
    }
}

/// Render rows as the deterministic JSON report.
pub fn render_json(rows: &[Row], env: &Envelope, n_mol: usize, seed: u64) -> String {
    let mut out = String::from("{\n  \"envelope\": {");
    out.push_str(&format!(
        "\"peak_gflops\": {}, \"peak_gbs\": {}, \"ridge_flop_per_byte\": {}",
        json::number(env.peak_gflops),
        json::number(env.peak_gbs),
        json::number(env.ridge()),
    ));
    out.push_str("},\n  \"config\": {");
    out.push_str(&format!("\"n_mol\": {n_mol}, \"seed\": {seed}"));
    out.push_str("},\n  \"rows\": [");
    for (i, r) in rows.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str("\n    {");
        out.push_str(&format!(
            "\"version\": {}, \"region\": {}, \"cycles\": {}, \"flops\": {}, \
             \"dma_bytes\": {}, \"gld_bytes\": {}, \"ai\": {}, \
             \"achieved_gflops\": {}, \"attainable_gflops\": {}, \"bound\": \"{}\"",
            json::escaped(r.version),
            json::escaped(&r.region),
            r.cycles,
            r.flops,
            r.dma_bytes,
            r.gld_bytes,
            opt_num(r.ai),
            json::number(r.achieved_gflops),
            opt_num(r.attainable_gflops),
            r.bound.name(),
        ));
        out.push('}');
    }
    out.push_str("\n  ]\n}\n");
    out
}

/// Render rows as the human-readable ASCII report.
pub fn render_ascii(rows: &[Row], env: &Envelope) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "SW26010 CG roofline: peak {} GFLOP/s, {} GB/s, ridge {} flop/B\n\n",
        json::number(env.peak_gflops),
        json::number(env.peak_gbs),
        json::number(env.ridge()),
    ));
    out.push_str(&format!(
        "{:<10} {:<8} {:>14} {:>14} {:>12} {:>10} {:>9} {:>10}  bound\n",
        "version", "region", "cycles", "flops", "bytes", "flop/B", "GFLOP/s", "roof"
    ));
    out.push_str(&"-".repeat(102));
    out.push('\n');
    for r in rows {
        let bytes = r.dma_bytes + r.gld_bytes;
        let (ai, roof) = match r.ai {
            Some(ai) => (
                format!("{ai:.3}"),
                format!("{:.1}", r.attainable_gflops.unwrap_or(0.0)),
            ),
            None => ("-".to_string(), "-".to_string()),
        };
        out.push_str(&format!(
            "{:<10} {:<8} {:>14} {:>14} {:>12} {:>10} {:>9.2} {:>10}  {}\n",
            r.version,
            r.region,
            r.cycles,
            r.flops,
            bytes,
            ai,
            r.achieved_gflops,
            roof,
            r.bound.name(),
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn perf(flops: u64, dma: u64, gld: u64, cycles: u64) -> PerfCounters {
        PerfCounters {
            cycles,
            scalar_flops: flops,
            dma_bytes: dma,
            gld_bytes: gld,
            ..Default::default()
        }
    }

    #[test]
    fn envelope_matches_params() {
        let env = Envelope::sw26010_cg();
        assert_eq!(env.peak_gflops, params::CG_PEAK_GFLOPS);
        assert_eq!(env.peak_gbs, params::DMA_PEAK_GBS);
        assert!((env.ridge() - params::ridge_flop_per_byte()).abs() < 1e-12);
        // Below the ridge the roof is slanted, above it flat.
        assert!(env.attainable(0.1) < env.peak_gflops);
        assert_eq!(env.attainable(1e6), env.peak_gflops);
    }

    #[test]
    fn classification_splits_at_the_ridge() {
        let env = Envelope::sw26010_cg();
        // 1 flop/byte: far left of the ~25 flop/B ridge.
        let low = classify("x", "total", &perf(1000, 1000, 0, 10), &env);
        assert_eq!(low.bound, Bound::Bandwidth);
        assert_eq!(low.ai, Some(1.0));
        // 100 flop/byte: right of it.
        let high = classify("x", "total", &perf(100_000, 1000, 0, 10), &env);
        assert_eq!(high.bound, Bound::Compute);
        // No traffic at all: compute by definition, AI undefined.
        let pure = classify("x", "total", &perf(1000, 0, 0, 10), &env);
        assert_eq!(pure.bound, Bound::Compute);
        assert_eq!(pure.ai, None);
        assert_eq!(pure.attainable_gflops, None);
    }

    #[test]
    fn json_report_parses_and_is_deterministic() {
        let env = Envelope::sw26010_cg();
        let rows = vec![classify("a", "total", &perf(1000, 1000, 0, 10), &env)];
        let doc = render_json(&rows, &env, 100, 7);
        assert_eq!(doc, render_json(&rows, &env, 100, 7));
        let v = json::parse(&doc).unwrap();
        assert_eq!(
            v.get("rows").unwrap().as_arr().unwrap()[0]
                .get("bound")
                .unwrap()
                .as_str(),
            Some("bandwidth")
        );
        assert!(render_ascii(&rows, &env).contains("bandwidth"));
    }
}
