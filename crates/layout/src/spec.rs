//! Layout specification: nested-loop dimension orders and the
//! line/column/bank index equations of paper §VI-B.

use crate::conflict::BankModel;

/// Dimensions of a `C × H × W` tensor stored in the on-chip memory.
///
/// Matrices are handled as `C = 1` tensors (`H` = rows, `W` = cols) or any
/// other convenient assignment — the equations are agnostic.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TensorDims {
    /// Channel extent.
    pub c: usize,
    /// Height extent.
    pub h: usize,
    /// Width extent.
    pub w: usize,
}

impl TensorDims {
    /// Creates tensor dimensions.
    ///
    /// # Panics
    ///
    /// Panics if any extent is zero.
    pub fn new(c: usize, h: usize, w: usize) -> Self {
        assert!(c > 0 && h > 0 && w > 0, "tensor extents must be non-zero");
        Self { c, h, w }
    }

    /// For a matrix: rows map to `h`, columns to `w`.
    pub fn matrix(rows: usize, cols: usize) -> Self {
        Self::new(1, rows, cols)
    }

    /// Total elements.
    pub fn len(&self) -> usize {
        self.c * self.h * self.w
    }

    /// Whether the tensor has no elements (never true by construction).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Where one element lives in the 2D multi-bank abstraction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Placement {
    /// Line (row of the 2D array; same index across all banks).
    pub line: usize,
    /// Column within the aggregated line.
    pub col: usize,
    /// Bank serving that column.
    pub bank: usize,
}

/// A data layout: the inter-line dimension steps (how many consecutive
/// elements of each dimension share a line) — Fig. 11's
/// `C64 H8 W8 _ W2 H4 C16` notation keeps `w1_step = 2`, `h1_step = 4`,
/// `c1_step = 16` elements of each dimension per line.
///
/// Intra-line order is fixed to `w → h → c` (outer to inner), matching the
/// figure; the *steps* are what change behaviour.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct LayoutSpec {
    /// Channels per line tile (`c1_step`).
    pub c1_step: usize,
    /// Rows per line tile (`h1_step`).
    pub h1_step: usize,
    /// Columns per line tile (`w1_step`).
    pub w1_step: usize,
}

impl LayoutSpec {
    /// Creates a layout from the three inter-line steps.
    ///
    /// # Panics
    ///
    /// Panics if any step is zero.
    pub fn new(c1_step: usize, h1_step: usize, w1_step: usize) -> Self {
        assert!(
            c1_step > 0 && h1_step > 0 && w1_step > 0,
            "layout steps must be non-zero"
        );
        Self {
            c1_step,
            h1_step,
            w1_step,
        }
    }

    /// The worked example of Fig. 11: `C64 H8 W8 _ W2 H4 C16`.
    pub fn fig11() -> Self {
        Self::new(16, 4, 2)
    }

    /// Channel-major layout: a full line of consecutive channels
    /// (common for NHWC activations).
    pub fn channel_major(line_elems: usize) -> Self {
        Self::new(line_elems.max(1), 1, 1)
    }

    /// Row-major matrix layout: `line_elems` consecutive columns per line.
    pub fn row_major(line_elems: usize) -> Self {
        Self::new(1, 1, line_elems.max(1))
    }

    /// Column-major matrix layout: `line_elems` consecutive rows per line.
    pub fn column_major(line_elems: usize) -> Self {
        Self::new(1, line_elems.max(1), 1)
    }

    /// Elements per line (across all banks).
    pub fn line_elems(&self) -> usize {
        self.c1_step * self.h1_step * self.w1_step
    }

    /// The `(line, col)` of element `(c, h, w)` per the paper's equations:
    ///
    /// ```text
    /// line = ⌊c/c1⌋·⌈H/h1⌉·⌈W/w1⌉ + ⌊h/h1⌋·⌈W/w1⌉ + ⌊w/w1⌋
    /// col  = (w mod w1)·h1·c1 + (h mod h1)·c1 + (c mod c1)
    /// ```
    #[inline]
    pub fn place(&self, dims: TensorDims, c: usize, h: usize, w: usize) -> (usize, usize) {
        debug_assert!(
            c < dims.c && h < dims.h && w < dims.w,
            "coords out of range"
        );
        let h_tiles = dims.h.div_ceil(self.h1_step);
        let w_tiles = dims.w.div_ceil(self.w1_step);
        let line = (c / self.c1_step) * h_tiles * w_tiles
            + (h / self.h1_step) * w_tiles
            + (w / self.w1_step);
        let col = (w % self.w1_step) * self.h1_step * self.c1_step
            + (h % self.h1_step) * self.c1_step
            + (c % self.c1_step);
        (line, col)
    }

    /// Full placement including the bank, given the per-bank line width:
    /// `bank = ⌊col / bandwidth_per_bank⌋`.
    #[inline]
    pub fn place_banked(
        &self,
        dims: TensorDims,
        c: usize,
        h: usize,
        w: usize,
        bandwidth_per_bank: usize,
        num_banks: usize,
    ) -> Placement {
        let (line, col) = self.place(dims, c, h, w);
        Placement {
            line,
            col,
            bank: (col / bandwidth_per_bank.max(1)) % num_banks.max(1),
        }
    }

    /// Number of lines the tensor occupies.
    pub fn lines_needed(&self, dims: TensorDims) -> usize {
        dims.c.div_ceil(self.c1_step)
            * dims.h.div_ceil(self.h1_step)
            * dims.w.div_ceil(self.w1_step)
    }
}

/// [`LayoutSpec::place_banked`] for a matrix, precomputed as lookups.
///
/// For a matrix (`C = 1`, rows on `h`, columns on `w`) the §VI equations
/// split into a row part plus a column part:
///
/// ```text
/// line = row_line[r] + col_line[c]   row_line[r] = ⌊r/h1⌋·⌈W/w1⌉   col_line[c] = ⌊c/w1⌋
/// col  = row_col[r]  + col_col[c]    row_col[r]  = (r mod h1)·c1   col_col[c]  = (c mod w1)·h1·c1
/// bank = bank_of_col[col]            bank_of_col[x] = ⌊x/bandwidth_per_bank⌋ mod banks
/// ```
///
/// so a placement costs three lookups and two adds instead of the runtime
/// divisions of `place_banked`. The tables hold `rows + cols` pairs plus
/// one bank per reachable column.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PlacementTable {
    /// `(row_line, row_col)` per matrix row.
    rows: Vec<(usize, usize)>,
    /// `(col_line, col_col)` per matrix column.
    cols: Vec<(usize, usize)>,
    /// Bank of every column a placement can reach.
    bank_of_col: Vec<usize>,
    lines: usize,
    banks: usize,
}

impl PlacementTable {
    /// Builds the table of a `rows × cols` matrix stored under `layout`
    /// in the banks of `model`.
    ///
    /// # Panics
    ///
    /// Panics if `rows` or `cols` is zero.
    pub fn matrix(layout: &LayoutSpec, rows: usize, cols: usize, model: &BankModel) -> Self {
        let dims = TensorDims::matrix(rows, cols);
        let (h1, w1, c1) = (layout.h1_step, layout.w1_step, layout.c1_step);
        let w_tiles = cols.div_ceil(w1);
        let rows: Vec<_> = (0..rows)
            .map(|r| ((r / h1) * w_tiles, (r % h1) * c1))
            .collect();
        let cols: Vec<_> = (0..cols).map(|c| (c / w1, (c % w1) * h1 * c1)).collect();
        let max_col = |part: &[(usize, usize)]| part.iter().map(|&(_, col)| col).max();
        let reachable = max_col(&rows).unwrap_or(0) + max_col(&cols).unwrap_or(0) + 1;
        let bank_of_col: Vec<_> = (0..reachable)
            .map(|x| (x / model.bandwidth_per_bank()) % model.num_banks())
            .collect();
        let banks = bank_of_col.iter().max().map_or(1, |&b| b + 1);
        Self {
            rows,
            cols,
            bank_of_col,
            lines: layout.lines_needed(dims),
            banks,
        }
    }

    /// The placement of element `(r, c)`; equals
    /// `layout.place_banked(dims, 0, r, c, ..)` for the table's matrix.
    #[inline]
    pub fn place(&self, r: usize, c: usize) -> Placement {
        let (row_line, row_col) = self.rows[r];
        let (col_line, col_col) = self.cols[c];
        let col = row_col + col_col;
        Placement {
            line: row_line + col_line,
            col,
            bank: self.bank_of_col[col],
        }
    }

    /// Lines the matrix occupies; every placed `line` is below this.
    pub fn lines(&self) -> usize {
        self.lines
    }

    /// Banks a placement can reach (at most the model's bank count);
    /// every placed `bank` is below this.
    pub fn banks(&self) -> usize {
        self.banks
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    #[allow(clippy::identity_op)] // spelled-out factors mirror the worked example
    fn fig11_worked_example() {
        // C=64, H=8, W=8 with C64 H8 W8 _ W2 H4 C16.
        let dims = TensorDims::new(64, 8, 8);
        let l = LayoutSpec::fig11();
        assert_eq!(l.line_elems(), 128);
        // First line holds W0:1 × H0:3 × C0:15 (see Fig. 11 detail view).
        let (line0, col0) = l.place(dims, 0, 0, 0);
        assert_eq!((line0, col0), (0, 0));
        let (line, col) = l.place(dims, 15, 3, 1);
        assert_eq!(line, 0);
        assert_eq!(col, 1 * 4 * 16 + 3 * 16 + 15); // = 127, last column
                                                   // W0 H0 C16 starts a new line tile in the c1 direction: line jumps
                                                   // by H-tiles × W-tiles = 2 × 4 = 8.
        let (line_c16, _) = l.place(dims, 16, 0, 0);
        assert_eq!(line_c16, 8);
        // Next h tile: line + W-tiles.
        let (line_h4, _) = l.place(dims, 0, 4, 0);
        assert_eq!(line_h4, 4);
        // Next w tile: line + 1.
        let (line_w2, _) = l.place(dims, 0, 0, 2);
        assert_eq!(line_w2, 1);
    }

    #[test]
    fn fig11_bank_assignment() {
        // 16 banks × 8 elements per bank-line = 128-element lines.
        let dims = TensorDims::new(64, 8, 8);
        let l = LayoutSpec::fig11();
        let p = l.place_banked(dims, 0, 0, 0, 8, 16);
        assert_eq!(p.bank, 0);
        let p = l.place_banked(dims, 15, 3, 1, 8, 16);
        assert_eq!(p.bank, 15, "column 127 → bank 15 (Fig. 11)");
        let p = l.place_banked(dims, 8, 0, 0, 8, 16);
        assert_eq!(p.bank, 1, "column 8 starts bank 1");
    }

    #[test]
    fn placement_is_a_bijection() {
        let dims = TensorDims::new(8, 6, 10);
        let l = LayoutSpec::new(4, 3, 5);
        let mut seen = std::collections::HashSet::new();
        for c in 0..dims.c {
            for h in 0..dims.h {
                for w in 0..dims.w {
                    let (line, col) = l.place(dims, c, h, w);
                    assert!(col < l.line_elems());
                    assert!(line < l.lines_needed(dims));
                    assert!(seen.insert((line, col)), "collision at ({line},{col})");
                }
            }
        }
        assert_eq!(seen.len(), dims.len());
    }

    #[test]
    fn matrix_helpers() {
        let dims = TensorDims::matrix(4, 8);
        let rm = LayoutSpec::row_major(8);
        // One matrix row per line.
        let (l0, _) = rm.place(dims, 0, 0, 7);
        let (l1, _) = rm.place(dims, 0, 1, 0);
        assert_eq!(l0, 0);
        assert_eq!(l1, 1);
        let cm = LayoutSpec::column_major(4);
        // One matrix column per line.
        let (lc, _) = cm.place(dims, 0, 3, 0);
        let (lc2, _) = cm.place(dims, 0, 0, 1);
        assert_eq!(lc, 0);
        assert_eq!(lc2, 1);
    }

    #[test]
    fn placement_table_matches_place_banked() {
        let layouts = [
            LayoutSpec::row_major(64),
            LayoutSpec::column_major(64),
            LayoutSpec::row_major(100),
            LayoutSpec::new(4, 3, 5),
            LayoutSpec::new(2, 8, 1),
            LayoutSpec::fig11(),
        ];
        // (total bandwidth, banks): 100 over 16 banks leaves bandwidth 6
        // per bank, so a 100-wide line wraps past the last bank.
        let models = [(64, 4), (100, 16), (16, 1), (8, 32), (256, 16)];
        for layout in &layouts {
            for &(bandwidth, banks) in &models {
                let model = BankModel::from_total_bandwidth(bandwidth, banks, 1);
                for (rows, cols) in [(1, 1), (1, 37), (13, 7), (70, 130), (5, 200)] {
                    let dims = TensorDims::matrix(rows, cols);
                    let table = PlacementTable::matrix(layout, rows, cols, &model);
                    for r in 0..rows {
                        for c in 0..cols {
                            let want = layout.place_banked(
                                dims,
                                0,
                                r,
                                c,
                                model.bandwidth_per_bank(),
                                model.num_banks(),
                            );
                            let got = table.place(r, c);
                            assert_eq!(got, want, "{layout:?} {model:?} {rows}x{cols} ({r},{c})");
                            assert!(got.line < table.lines() && got.bank < table.banks());
                        }
                    }
                    assert!(table.banks() <= banks);
                }
            }
        }
    }

    #[test]
    fn placement_table_counts_only_reachable_banks() {
        // A 3-column row-major matrix fills 3 columns of each 64-wide
        // line: only bank 0 of 4 is ever touched.
        let model = BankModel::from_total_bandwidth(64, 4, 1);
        let table = PlacementTable::matrix(&LayoutSpec::row_major(64), 10, 3, &model);
        assert_eq!((table.lines(), table.banks()), (10, 1));
    }

    #[test]
    fn lines_needed_counts_partial_tiles() {
        let dims = TensorDims::new(5, 5, 5);
        let l = LayoutSpec::new(2, 2, 2);
        assert_eq!(l.lines_needed(dims), 3 * 3 * 3);
    }
}
