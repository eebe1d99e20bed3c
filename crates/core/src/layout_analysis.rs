//! Layout bank-conflict analysis of a layer's demand stream (§VI).
//!
//! Each operand lives in its own multi-bank SRAM with its own
//! [`LayoutSpec`]. For every compute cycle, the cost is the worst operand's
//! bank-conflict cost that cycle (the SRAMs operate in parallel; the
//! slowest one gates the array). The same stream is costed under the flat
//! bandwidth model, and the relative difference is the Figs. 12–13 metric.
//!
//! The per-cycle kernel is table-driven. Each access is placed by three
//! lookups in the operand's [`PlacementTable`] (no runtime division in
//! the §VI equations), and line-buffer recency lives in a dense array of
//! last-fetch cycles, one `u64` per reachable `(line, bank)` pair —
//! about `elements · 8 / bandwidth_per_bank` bytes per operand. A stamp
//! equal to the current cycle marks a line already counted this cycle,
//! so no per-cycle sort or dedup is needed.

use crate::config::LayoutIntegration;
use scalesim_layout::{BankModel, LayoutSpec, PlacementTable};
use scalesim_systolic::{
    ArrayShape, CycleDemand, Dataflow, DemandGenerator, DemandSink, GemmShape, OperandMap,
};

/// Accumulated layout-vs-bandwidth comparison for one layer.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LayoutAnalysis {
    /// Demand-stream length (compute cycles).
    pub compute_cycles: u64,
    /// Total cycles charged by the banked layout model.
    pub layout_cycles: u64,
    /// Total cycles charged by the flat-bandwidth model.
    pub bandwidth_cycles: u64,
}

impl LayoutAnalysis {
    /// Relative slowdown (`layout/bandwidth − 1`); negative when banking
    /// outperforms the flat model.
    pub fn relative_slowdown(&self) -> f64 {
        if self.bandwidth_cycles == 0 {
            0.0
        } else {
            self.layout_cycles as f64 / self.bandwidth_cycles as f64 - 1.0
        }
    }
}

/// One operand's SRAM: its placement table and the line-buffer recency
/// of every `(line, bank)` pair it can touch.
struct OperandBanks {
    table: PlacementTable,
    /// First address of the operand's region.
    base: u64,
    /// Matrix columns: `offset = row · cols + col`.
    cols: u64,
    /// Last fetch cycle per `line · banks + bank`; [`NEVER`] if unfetched.
    stamps: Vec<u64>,
    /// New lines per bank in the current cycle.
    bank_new: Vec<u64>,
}

/// Stamp of a `(line, bank)` pair that was never fetched. Cycles count
/// from 1, so no real fetch carries it.
const NEVER: u64 = 0;

impl OperandBanks {
    fn new(layout: &LayoutSpec, base: u64, rows: usize, cols: usize, model: &BankModel) -> Self {
        let table = PlacementTable::matrix(layout, rows, cols, model);
        Self {
            stamps: vec![NEVER; table.lines() * table.banks()],
            bank_new: vec![0; table.banks()],
            table,
            base,
            cols: cols as u64,
        }
    }

    /// Worst bank's new-line count for this operand's accesses in
    /// `cycle`: distinct lines touched, minus those still resident in the
    /// array-edge line buffers (fetched within `window` cycles).
    fn new_lines(&mut self, cycle: u64, window: u64, parts: [&[u64]; 2]) -> u64 {
        self.bank_new.fill(0);
        let banks = self.bank_new.len();
        for part in parts {
            for &a in part {
                let off = a - self.base;
                let r = off / self.cols;
                let p = self.table.place(r as usize, (off - r * self.cols) as usize);
                let slot = p.line * banks + p.bank;
                let last = self.stamps[slot];
                // A stamp equal to `cycle` means an earlier access this
                // cycle already counted the line.
                if last != cycle {
                    if last == NEVER || cycle - last > window {
                        self.bank_new[p.bank] += 1;
                    }
                    self.stamps[slot] = cycle;
                }
            }
        }
        self.bank_new.iter().copied().max().unwrap_or(0)
    }
}

struct LayoutSink {
    model: BankModel,
    operands: [OperandBanks; 3],
    layout_cycles: u64,
    bandwidth_cycles: u64,
    cycles: u64,
    line_buffer_cycles: u64,
}

impl LayoutSink {
    /// `(layout, bandwidth)` cycles of one operand's accesses this cycle;
    /// `(0, 0)` when it has none.
    fn operand_cost(&mut self, which: usize, parts: [&[u64]; 2]) -> (u64, u64) {
        let elems = parts[0].len() + parts[1].len();
        if elems == 0 {
            return (0, 0);
        }
        let new_lines = self.operands[which].new_lines(self.cycles, self.line_buffer_cycles, parts);
        let lc = new_lines.div_ceil(self.model.ports_per_bank() as u64);
        (lc.max(1), self.model.bandwidth_model_cycles(elems))
    }
}

impl DemandSink for LayoutSink {
    fn on_cycle(&mut self, d: &CycleDemand) {
        self.cycles += 1;
        let (li, bi) = self.operand_cost(0, [&d.ifmap_reads, &[]]);
        let (lf, bf) = self.operand_cost(1, [&d.filter_reads, &[]]);
        let (lo, bo) = self.operand_cost(2, [&d.ofmap_reads, &d.ofmap_writes]);
        // The three SRAMs serve in parallel; the slowest gates the cycle.
        self.layout_cycles += li.max(lf).max(lo).max(1);
        self.bandwidth_cycles += bi.max(bf).max(bo).max(1);
    }
}

/// Streams a GEMM's demand through the layout evaluator.
pub fn layout_slowdown_for_gemm(
    array: ArrayShape,
    dataflow: Dataflow,
    gemm: GemmShape,
    cfg: &LayoutIntegration,
) -> LayoutAnalysis {
    let model =
        BankModel::from_total_bandwidth(cfg.total_bandwidth, cfg.num_banks, cfg.ports_per_bank);
    let map = OperandMap::new(gemm);
    let (m, k, n) = (gemm.m, gemm.k, gemm.n);
    let mut sink = LayoutSink {
        model,
        operands: [
            OperandBanks::new(&cfg.ifmap_layout, map.ifmap(0, 0), m, k, &model),
            OperandBanks::new(&cfg.filter_layout, map.filter(0, 0), k, n, &model),
            OperandBanks::new(&cfg.ofmap_layout, map.ofmap(0, 0), m, n, &model),
        ],
        layout_cycles: 0,
        bandwidth_cycles: 0,
        cycles: 0,
        line_buffer_cycles: cfg.line_buffer_cycles,
    };
    DemandGenerator::new(array, dataflow, gemm).run(&mut sink);
    LayoutAnalysis {
        compute_cycles: sink.cycles,
        layout_cycles: sink.layout_cycles,
        bandwidth_cycles: sink.bandwidth_cycles,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg(banks: usize) -> LayoutIntegration {
        LayoutIntegration::row_major(64, banks)
    }

    #[test]
    fn analysis_runs_and_bounds_hold() {
        for df in Dataflow::ALL {
            let a = layout_slowdown_for_gemm(
                ArrayShape::new(8, 8),
                df,
                GemmShape::new(32, 32, 32),
                &cfg(4),
            );
            assert!(a.layout_cycles >= a.compute_cycles, "{df}");
            assert!(a.bandwidth_cycles >= a.compute_cycles, "{df}");
            assert!(a.relative_slowdown() >= -1.0, "{df}");
        }
    }

    #[test]
    fn more_banks_reduce_slowdown() {
        // WS streams the ifmap column-wise — a row-major layout conflicts,
        // and extra banks must relieve it (the Figs. 12–13 trend).
        let few = layout_slowdown_for_gemm(
            ArrayShape::new(16, 16),
            Dataflow::WeightStationary,
            GemmShape::new(64, 64, 64),
            &cfg(1),
        );
        let many = layout_slowdown_for_gemm(
            ArrayShape::new(16, 16),
            Dataflow::WeightStationary,
            GemmShape::new(64, 64, 64),
            &cfg(16),
        );
        assert!(
            many.relative_slowdown() <= few.relative_slowdown(),
            "16 banks {} vs 1 bank {}",
            many.relative_slowdown(),
            few.relative_slowdown()
        );
    }

    #[test]
    fn ws_suffers_more_than_os_under_row_major() {
        // OS streams A row-wise (layout friendly); WS streams A down the K
        // columns (row-major hostile): WS slowdown ≥ OS slowdown.
        let os = layout_slowdown_for_gemm(
            ArrayShape::new(16, 16),
            Dataflow::OutputStationary,
            GemmShape::new(64, 64, 64),
            &cfg(2),
        );
        let ws = layout_slowdown_for_gemm(
            ArrayShape::new(16, 16),
            Dataflow::WeightStationary,
            GemmShape::new(64, 64, 64),
            &cfg(2),
        );
        assert!(
            ws.relative_slowdown() >= os.relative_slowdown() - 1e-9,
            "ws {} vs os {}",
            ws.relative_slowdown(),
            os.relative_slowdown()
        );
    }
}
