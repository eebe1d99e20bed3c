//! The seed layout bank-conflict kernel, kept verbatim as a reference.
//!
//! This is the per-cycle §VI kernel the simulator shipped before the
//! table-driven rewrite in `scalesim::layout_analysis`: it divides each
//! address back into a row and column, places it with
//! [`LayoutSpec::place_banked`], sorts and dedups the cycle's
//! `(bank, line)` keys and tracks line-buffer recency in a `HashMap`
//! bounded by a 65,536-entry `retain`. It is not used by the simulator;
//! the `layout_equivalence` test and the `layout_microbench` bench
//! compare the shipping kernel against it, result for result.

use scalesim::{LayoutAnalysis, LayoutIntegration};
use scalesim_layout::{BankModel, LayoutSpec, TensorDims};
use scalesim_systolic::{
    ArrayShape, CycleDemand, Dataflow, DemandGenerator, DemandSink, GemmShape, OperandMap,
};

struct LayoutSink {
    map: OperandMap,
    model: BankModel,
    ifmap: (LayoutSpec, TensorDims),
    filter: (LayoutSpec, TensorDims),
    ofmap: (LayoutSpec, TensorDims),
    layout_cycles: u64,
    bandwidth_cycles: u64,
    cycles: u64,
    line_buffer_cycles: u64,
    /// Per-operand line-buffer recency: `(bank<<40|line) → last fetch cycle`.
    line_cache: [std::collections::HashMap<u64, u64>; 3],
    key_scratch: Vec<u64>,
    bank_new: Vec<u64>,
}

impl LayoutSink {
    /// Cost of one operand's accesses this cycle: distinct lines touched,
    /// minus those still resident in the array-edge line buffers (fetched
    /// within `line_buffer_cycles`), grouped per bank.
    fn operand_cost(&mut self, which: usize, addrs: &[u64], extra: Option<&[u64]>) -> (u64, u64) {
        let (spec, dims) = match which {
            0 => self.ifmap,
            1 => self.filter,
            _ => self.ofmap,
        };
        self.key_scratch.clear();
        let mut elems = 0usize;
        for &a in addrs.iter().chain(extra.into_iter().flatten()) {
            elems += 1;
            let (r, c) = match which {
                0 => self.map.ifmap_coords(a),
                1 => self.map.filter_coords(a),
                _ => self.map.ofmap_coords(a),
            };
            let p = spec.place_banked(
                dims,
                0,
                r,
                c,
                self.model.bandwidth_per_bank(),
                self.model.num_banks(),
            );
            self.key_scratch
                .push(((p.bank as u64) << 40) | p.line as u64);
        }
        if elems == 0 {
            return (0, 0);
        }
        self.key_scratch.sort_unstable();
        self.key_scratch.dedup();
        let cycle = self.cycles;
        let window = self.line_buffer_cycles;
        self.bank_new.clear();
        self.bank_new.resize(self.model.num_banks(), 0);
        let cache = &mut self.line_cache[which];
        for &key in self.key_scratch.iter() {
            let fresh =
                matches!(cache.get(&key), Some(&last) if cycle.saturating_sub(last) <= window);
            if !fresh {
                self.bank_new[(key >> 40) as usize] += 1;
            }
            cache.insert(key, cycle);
        }
        // Bound the cache (stale entries are dead weight).
        if cache.len() > 1 << 16 {
            cache.retain(|_, &mut last| cycle.saturating_sub(last) <= window);
        }
        let lc = self
            .bank_new
            .iter()
            .map(|&n| n.div_ceil(self.model.ports_per_bank() as u64))
            .max()
            .unwrap_or(0);
        let bc = self.model.bandwidth_model_cycles(elems);
        (lc.max(1), bc)
    }
}

impl DemandSink for LayoutSink {
    fn on_cycle(&mut self, d: &CycleDemand) {
        self.cycles += 1;
        let (li, bi) = self.operand_cost(0, &d.ifmap_reads, None);
        let (lf, bf) = self.operand_cost(1, &d.filter_reads, None);
        let (lo, bo) = self.operand_cost(2, &d.ofmap_reads, Some(&d.ofmap_writes));
        // The three SRAMs serve in parallel; the slowest gates the cycle.
        self.layout_cycles += li.max(lf).max(lo).max(1);
        self.bandwidth_cycles += bi.max(bf).max(bo).max(1);
    }
}

/// Streams a GEMM's demand through the seed layout evaluator.
pub fn layout_slowdown_for_gemm(
    array: ArrayShape,
    dataflow: Dataflow,
    gemm: GemmShape,
    cfg: &LayoutIntegration,
) -> LayoutAnalysis {
    let model =
        BankModel::from_total_bandwidth(cfg.total_bandwidth, cfg.num_banks, cfg.ports_per_bank);
    let mut sink = LayoutSink {
        map: OperandMap::new(gemm),
        model,
        ifmap: (cfg.ifmap_layout, TensorDims::matrix(gemm.m, gemm.k)),
        filter: (cfg.filter_layout, TensorDims::matrix(gemm.k, gemm.n)),
        ofmap: (cfg.ofmap_layout, TensorDims::matrix(gemm.m, gemm.n)),
        layout_cycles: 0,
        bandwidth_cycles: 0,
        cycles: 0,
        line_buffer_cycles: cfg.line_buffer_cycles,
        line_cache: Default::default(),
        key_scratch: Vec::new(),
        bank_new: Vec::new(),
    };
    DemandGenerator::new(array, dataflow, gemm).run(&mut sink);
    LayoutAnalysis {
        compute_cycles: sink.cycles,
        layout_cycles: sink.layout_cycles,
        bandwidth_cycles: sink.bandwidth_cycles,
    }
}
