//! The table-driven layout kernel (`scalesim::layout_slowdown_for_gemm`)
//! must reproduce the seed kernel (`scalesim_bench::layout_reference`)
//! exactly: same compute, layout and bandwidth cycles for every layer.
//!
//! No report carries layout numbers, so this suite and the
//! `layout.LAYOUT_ANALYSIS.csv` golden are what pin the §VI results.

use scalesim::{layout_slowdown_for_gemm, LayoutIntegration};
use scalesim_bench::layout_reference;
use scalesim_layout::LayoutSpec;
use scalesim_systolic::{ArrayShape, Dataflow, GemmShape};

/// SplitMix64: a tiny seeded generator, enough to draw configurations.
struct SplitMix(u64);

impl SplitMix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `lo..=hi`.
    fn range(&mut self, lo: usize, hi: usize) -> usize {
        lo + (self.next() % (hi - lo + 1) as u64) as usize
    }

    fn pick<T: Copy>(&mut self, items: &[T]) -> T {
        items[self.range(0, items.len() - 1)]
    }
}

fn assert_same(array: ArrayShape, df: Dataflow, gemm: GemmShape, cfg: &LayoutIntegration) {
    let want = layout_reference::layout_slowdown_for_gemm(array, df, gemm, cfg);
    let got = layout_slowdown_for_gemm(array, df, gemm, cfg);
    assert_eq!(got, want, "{array:?} {df} {gemm:?} {cfg:?}");
}

/// One of the layout families the suite covers, sized to the line width.
fn layout(rng: &mut SplitMix, line_elems: usize) -> LayoutSpec {
    match rng.range(0, 3) {
        0 => LayoutSpec::row_major(line_elems),
        1 => LayoutSpec::column_major(line_elems),
        2 => LayoutSpec::new(rng.range(2, 4), rng.range(2, 8), rng.range(2, 8)),
        _ => LayoutSpec::new(1, rng.range(1, 6), rng.range(1, 12)),
    }
}

#[test]
fn seeded_configurations_match_the_reference() {
    let mut rng = SplitMix(0x5CA1_E51A);
    for case in 0..150 {
        let df = rng.pick(&Dataflow::ALL);
        let array = ArrayShape::new(rng.range(1, 16), rng.range(1, 16));
        // Ragged shapes, with one case in five an M = 1 decode GEMM.
        let m = if case % 5 == 0 { 1 } else { rng.range(1, 90) };
        let gemm = GemmShape::new(m, rng.range(1, 90), rng.range(1, 90));
        // 100 over 16 banks (and the like) leaves a line wider than the
        // banks, so `col / bandwidth_per_bank` wraps past the last bank.
        let bandwidth = rng.pick(&[8, 16, 32, 64, 100, 128]);
        let banks = rng.range(1, 16);
        let mut cfg = if rng.range(0, 3) == 0 {
            LayoutIntegration::matched(df, bandwidth, banks)
        } else {
            let mut cfg = LayoutIntegration::row_major(bandwidth, banks);
            cfg.ifmap_layout = layout(&mut rng, bandwidth);
            cfg.filter_layout = layout(&mut rng, bandwidth);
            cfg.ofmap_layout = layout(&mut rng, bandwidth);
            cfg
        };
        cfg.ports_per_bank = rng.range(1, 3);
        cfg.line_buffer_cycles = rng.pick(&[0, 1, 5, 64]);
        assert_same(array, df, gemm, &cfg);
    }
}

#[test]
fn every_dataflow_and_layout_family_matches() {
    let array = ArrayShape::new(8, 8);
    let gemm = GemmShape::new(37, 29, 41);
    for df in Dataflow::ALL {
        for (bandwidth, banks) in [(64, 4), (100, 16), (16, 1), (256, 16)] {
            let custom = LayoutSpec::new(2, 4, 3);
            let mut cfgs = vec![
                LayoutIntegration::row_major(bandwidth, banks),
                LayoutIntegration::matched(df, bandwidth, banks),
            ];
            let mut col = LayoutIntegration::row_major(bandwidth, banks);
            col.ifmap_layout = LayoutSpec::column_major(bandwidth);
            col.filter_layout = LayoutSpec::column_major(bandwidth);
            col.ofmap_layout = LayoutSpec::column_major(bandwidth);
            cfgs.push(col);
            let mut custom_cfg = LayoutIntegration::row_major(bandwidth, banks);
            custom_cfg.ifmap_layout = custom;
            custom_cfg.filter_layout = LayoutSpec::fig11();
            custom_cfg.ofmap_layout = custom;
            cfgs.push(custom_cfg);
            for mut cfg in cfgs {
                for ports in 1..=3 {
                    for window in [0, 1, 5, 64] {
                        cfg.ports_per_bank = ports;
                        cfg.line_buffer_cycles = window;
                        assert_same(array, df, gemm, &cfg);
                    }
                }
            }
        }
    }
}

#[test]
fn decode_shapes_match() {
    let cfg = LayoutIntegration::row_major(64, 4);
    for df in Dataflow::ALL {
        for gemm in [
            GemmShape::new(1, 512, 300),
            GemmShape::new(1, 1, 1),
            GemmShape::new(1, 77, 1),
        ] {
            assert_same(ArrayShape::new(32, 32), df, gemm, &cfg);
        }
    }
}

#[test]
fn operand_past_the_reference_cache_bound_matches() {
    // Row-major 64-element lines over 16 banks put the 1024x1024 ofmap
    // on 16 Ki lines x 16 banks = 256 Ki keys, so the reference's line
    // cache passes its 65,536-entry bound and prunes itself. Over 4 banks
    // it holds exactly 65,536 ofmap keys, the bound itself.
    for banks in [16, 4] {
        let mut cfg = LayoutIntegration::row_major(64, banks);
        cfg.line_buffer_cycles = 5;
        assert_same(
            ArrayShape::new(32, 32),
            Dataflow::OutputStationary,
            GemmShape::new(1024, 32, 1024),
            &cfg,
        );
    }
}
