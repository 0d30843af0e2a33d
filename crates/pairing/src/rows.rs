//! Packed query rows: a ciphertext and its expected payload as canonical
//! limbs, and flat slabs of such rows.
//!
//! A row holds the `2l + 3` operands of one HVE query check: `C'`,
//! `C_0`, the `2l` components `(C_{i,1}, C_{i,2})`, and the payload the
//! check must recover, in that order. Each operand is its **canonical**
//! discrete log, little-endian, zero-extended to `K` limbs, so a row is
//! `(2l + 3)·K` limbs with no pointer and no heap allocation per
//! operand. [`QueryRows`] lays rows end to end in one `Vec<u64>` at a
//! fixed stride, which is what the Service Provider keeps per store
//! shard and what [`BilinearGroup::match_query_rows`] sweeps in place.
//!
//! Canonical operands need no residue-domain lift before a pairing:
//! against a token key held as a Montgomery residue `k·R`, one CIOS pass
//! gives `mont_mul(c, k·R) = c·k mod N`, the canonical log of
//! `e(C, K)`. They are also what the durable codec writes, so a row
//! encodes and decodes without any domain conversion.
//!
//! [`BilinearGroup::match_query_rows`]: crate::BilinearGroup::match_query_rows

use crate::{GElem, GtElem};
use sla_bigint::BigUint;

/// The layout of a packed row: `2l + 3` operands of `limbs` limbs each.
///
/// Operand order: [`RowShape::C_PRIME`], [`RowShape::C0`], then
/// [`RowShape::component`] `(i, 0)` and `(i, 1)` for each attribute
/// position `i`, and last [`RowShape::expected`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RowShape {
    /// HVE width `l` (attribute positions).
    pub width: usize,
    /// Limbs per operand, `K` (at least one).
    pub limbs: usize,
}

impl RowShape {
    /// Operand index of `C'`.
    pub const C_PRIME: usize = 0;
    /// Operand index of `C_0`.
    pub const C0: usize = 1;

    /// Operand index of `C_{i,j+1}` (`j` is 0 or 1).
    pub fn component(i: usize, j: usize) -> usize {
        2 + 2 * i + j
    }

    /// Operand index of the expected payload.
    pub fn expected(self) -> usize {
        2 * self.width + 2
    }

    /// Operands per row, `2l + 3`.
    pub fn operands(self) -> usize {
        2 * self.width + 3
    }

    /// Limbs per row, `(2l + 3)·K`.
    pub fn stride(self) -> usize {
        self.operands() * self.limbs
    }
}

/// One ciphertext and its expected payload, packed as a row of
/// canonical limbs (see the module docs for the layout).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PackedRow {
    shape: RowShape,
    limbs: Vec<u64>,
}

impl PackedRow {
    /// A row of `shape` whose operands are all zero (identity elements),
    /// to be filled through [`Self::operand_mut`].
    ///
    /// # Panics
    /// Panics if `shape.limbs` is zero.
    pub fn zeroed(shape: RowShape) -> Self {
        assert!(shape.limbs > 0, "an operand holds at least one limb");
        PackedRow {
            shape,
            limbs: vec![0; shape.stride()],
        }
    }

    /// Packs `(C', C_0, [(C_{i,1}, C_{i,2})], expected)` at the width of
    /// its widest canonical log (at least one limb). Logs are taken as
    /// they are, not reduced: [`Self::fit`] brings a row to a group.
    pub fn from_elements(
        c_prime: &GtElem,
        c0: &GElem,
        c: &[(GElem, GElem)],
        expected: &GtElem,
    ) -> Self {
        let logs: Vec<BigUint> = std::iter::once(c_prime.discrete_log())
            .chain(std::iter::once(c0.discrete_log()))
            .chain(
                c.iter()
                    .flat_map(|(c1, c2)| [c1.discrete_log(), c2.discrete_log()]),
            )
            .chain(std::iter::once(expected.discrete_log()))
            .collect();
        let limbs = logs.iter().map(|l| l.limbs().len()).max().unwrap_or(0);
        let mut row = PackedRow::zeroed(RowShape {
            width: c.len(),
            limbs: limbs.max(1),
        });
        for (idx, log) in logs.iter().enumerate() {
            row.operand_mut(idx)[..log.limbs().len()].copy_from_slice(log.limbs());
        }
        row
    }

    /// Packs `(C', C_0, [(C_{i,1}, C_{i,2})], expected)` for the group of
    /// order `n`: each canonical log reduced mod `n`, at `n`'s limb
    /// count — the row [`Self::from_elements`] and [`Self::fit`] give,
    /// written in place without an intermediate integer per operand
    /// below `n`.
    pub fn pack(
        c_prime: &GtElem,
        c0: &GElem,
        c: &[(GElem, GElem)],
        expected: &GtElem,
        n: &BigUint,
    ) -> Self {
        let shape = RowShape {
            width: c.len(),
            limbs: n.limbs().len(),
        };
        let mut row = PackedRow::zeroed(shape);
        let mut put = |idx: usize, log| write_reduced(log, n, row.operand_mut(idx));
        put(RowShape::C_PRIME, &c_prime.0);
        put(RowShape::C0, &c0.0);
        for (i, (c1, c2)) in c.iter().enumerate() {
            put(RowShape::component(i, 0), &c1.0);
            put(RowShape::component(i, 1), &c2.0);
        }
        put(shape.expected(), &expected.0);
        row
    }

    /// The row's layout.
    pub fn shape(&self) -> RowShape {
        self.shape
    }

    /// The row's limbs, operand after operand.
    pub fn limbs(&self) -> &[u64] {
        &self.limbs
    }

    /// Operand `idx` (see [`RowShape`] for the order), `K` limbs.
    pub fn operand(&self, idx: usize) -> &[u64] {
        let k = self.shape.limbs;
        &self.limbs[idx * k..(idx + 1) * k]
    }

    /// Operand `idx`, mutably.
    pub fn operand_mut(&mut self, idx: usize) -> &mut [u64] {
        let k = self.shape.limbs;
        &mut self.limbs[idx * k..(idx + 1) * k]
    }

    /// Brings the row to the group of order `n`: every operand that is
    /// not below `n` is reduced mod `n`, and the row is re-strided to
    /// `n`'s limb count.
    pub fn fit(&mut self, n: &BigUint) {
        fit_limbs(&mut self.shape, &mut self.limbs, n);
    }
}

/// Rows of one shape laid end to end at a fixed stride: the slab a
/// store shard keeps and the matcher sweeps. Row `i` occupies limbs
/// `i·stride .. (i+1)·stride`; the slab always holds exactly
/// `len() · stride` limbs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QueryRows {
    shape: RowShape,
    limbs: Vec<u64>,
}

impl Default for QueryRows {
    fn default() -> Self {
        Self::new()
    }
}

impl QueryRows {
    /// An empty slab. It takes the width of the first row pushed and
    /// widens to the widest operand it is given.
    pub fn new() -> Self {
        QueryRows {
            shape: RowShape { width: 0, limbs: 1 },
            limbs: Vec::new(),
        }
    }

    /// The layout every row of the slab has.
    pub fn shape(&self) -> RowShape {
        self.shape
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.limbs.len() / self.shape.stride()
    }

    /// `true` iff the slab holds no row.
    pub fn is_empty(&self) -> bool {
        self.limbs.is_empty()
    }

    /// The whole slab, row after row.
    pub fn as_limbs(&self) -> &[u64] {
        &self.limbs
    }

    /// Row `i`'s limbs.
    pub fn row(&self, i: usize) -> &[u64] {
        let stride = self.shape.stride();
        &self.limbs[i * stride..(i + 1) * stride]
    }

    /// Row `i` as an owned [`PackedRow`] at the slab's width.
    pub fn packed(&self, i: usize) -> PackedRow {
        PackedRow {
            shape: self.shape,
            limbs: self.row(i).to_vec(),
        }
    }

    /// Appends `row`, zero-extending it to the slab's limb width, or
    /// widening the slab first when `row` is wider. An empty slab takes
    /// `row`'s HVE width.
    ///
    /// # Panics
    /// Panics if the slab is not empty and `row`'s HVE width differs.
    pub fn push(&mut self, row: &PackedRow) {
        self.admit(row.shape);
        if row.shape.limbs == self.shape.limbs {
            self.limbs.extend_from_slice(&row.limbs);
        } else {
            let at = self.limbs.len();
            self.limbs.resize(at + self.shape.stride(), 0);
            copy_row(row, self.shape.limbs, &mut self.limbs[at..]);
        }
    }

    /// Overwrites row `i` with `row` (widening as [`Self::push`] does).
    ///
    /// # Panics
    /// Panics if `i` is out of range or `row`'s HVE width differs.
    pub fn replace(&mut self, i: usize, row: &PackedRow) {
        assert!(i < self.len(), "row {i} out of range");
        self.admit(row.shape);
        let stride = self.shape.stride();
        copy_row(
            row,
            self.shape.limbs,
            &mut self.limbs[i * stride..][..stride],
        );
    }

    /// Removes row `i`, moving the last row into its slot (the order
    /// `Vec::swap_remove` leaves).
    ///
    /// # Panics
    /// Panics if `i` is out of range.
    pub fn swap_remove(&mut self, i: usize) {
        let stride = self.shape.stride();
        let last = self
            .len()
            .checked_sub(1)
            .expect("swap_remove on an empty slab");
        assert!(i <= last, "row {i} out of range");
        if i != last {
            self.limbs.copy_within(last * stride.., i * stride);
        }
        self.limbs.truncate(last * stride);
    }

    /// Keeps exactly the rows `i` for which `keep(i)` holds, in order
    /// (the order `Vec::retain` leaves).
    pub fn retain(&mut self, mut keep: impl FnMut(usize) -> bool) {
        let stride = self.shape.stride();
        let mut kept = 0;
        for i in 0..self.len() {
            if keep(i) {
                if kept != i {
                    self.limbs
                        .copy_within(i * stride..(i + 1) * stride, kept * stride);
                }
                kept += 1;
            }
        }
        self.limbs.truncate(kept * stride);
    }

    /// Brings every row to the group of order `n` (see
    /// [`PackedRow::fit`]).
    pub fn fit(&mut self, n: &BigUint) {
        fit_limbs(&mut self.shape, &mut self.limbs, n);
    }

    /// Checks `incoming` against the slab's shape: an empty slab adopts
    /// its HVE width, and a wider operand widens the slab.
    fn admit(&mut self, incoming: RowShape) {
        if self.is_empty() {
            self.shape.width = incoming.width;
        }
        assert_eq!(
            self.shape.width, incoming.width,
            "a slab holds rows of one HVE width"
        );
        if incoming.limbs > self.shape.limbs {
            restride(&mut self.shape, &mut self.limbs, incoming.limbs);
        }
    }
}

/// Copies `row` into `out`, one slab slot of operands `k ≥ row` limbs
/// wide, zero-extending each operand.
fn copy_row(row: &PackedRow, k: usize, out: &mut [u64]) {
    let from = row.shape.limbs;
    if from == k {
        out.copy_from_slice(&row.limbs);
        return;
    }
    for (src, dst) in row.limbs.chunks_exact(from).zip(out.chunks_exact_mut(k)) {
        dst[..from].copy_from_slice(src);
        dst[from..].fill(0);
    }
}

/// Re-lays `limbs` (rows of `shape`) at `k` limbs per operand. Narrowing
/// drops high limbs, so callers narrow only operands known to fit.
fn restride(shape: &mut RowShape, limbs: &mut Vec<u64>, k: usize) {
    let from = shape.limbs;
    if k == from {
        return;
    }
    let operands = limbs.len() / from;
    let mut out = vec![0u64; operands * k];
    let keep = from.min(k);
    for (src, dst) in limbs.chunks_exact(from).zip(out.chunks_exact_mut(k)) {
        dst[..keep].copy_from_slice(&src[..keep]);
    }
    *limbs = out;
    shape.limbs = k;
}

/// Reduces every operand of `limbs` that is not below `n`, then
/// re-strides to `n`'s limb count (every operand then fits).
fn fit_limbs(shape: &mut RowShape, limbs: &mut Vec<u64>, n: &BigUint) {
    let nl = n.limbs();
    assert!(!nl.is_empty(), "a group order is positive");
    for operand in limbs.chunks_exact_mut(shape.limbs) {
        if !below(operand, nl) {
            let reduced = &BigUint::from_limbs(operand.to_vec()) % n;
            operand.fill(0);
            operand[..reduced.limbs().len()].copy_from_slice(reduced.limbs());
        }
    }
    restride(shape, limbs, nl.len());
}

/// Writes `log mod n` into `out`, which is `n`'s limb count wide: one
/// copy for a log below `n`, a division otherwise.
pub(crate) fn write_reduced(log: &BigUint, n: &BigUint, out: &mut [u64]) {
    let reduced;
    let log = if below(log.limbs(), n.limbs()) {
        log
    } else {
        reduced = log % n;
        &reduced
    };
    out.fill(0);
    out[..log.limbs().len()].copy_from_slice(log.limbs());
}

/// `a < n` for little-endian `a` of any width against normalized `n`.
#[inline]
pub(crate) fn below(a: &[u64], n: &[u64]) -> bool {
    if a.iter().skip(n.len()).any(|&l| l != 0) {
        return false;
    }
    for i in (0..n.len()).rev() {
        let x = a.get(i).copied().unwrap_or(0);
        if x != n[i] {
            return x < n[i];
        }
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;

    fn row(width: usize, logs: &[u64]) -> PackedRow {
        assert_eq!(logs.len(), 2 * width + 3);
        let c: Vec<(GElem, GElem)> = (0..width)
            .map(|i| {
                (
                    GElem::from_canonical_log(BigUint::from_u64(logs[2 + 2 * i])),
                    GElem::from_canonical_log(BigUint::from_u64(logs[3 + 2 * i])),
                )
            })
            .collect();
        PackedRow::from_elements(
            &GtElem::from_canonical_log(BigUint::from_u64(logs[0])),
            &GElem::from_canonical_log(BigUint::from_u64(logs[1])),
            &c,
            &GtElem::from_canonical_log(BigUint::from_u64(logs[2 * width + 2])),
        )
    }

    #[test]
    fn pack_equals_from_elements_then_fit() {
        use crate::{BilinearGroup, SimulatedGroup};
        use rand::rngs::StdRng;
        use rand::SeedableRng;

        let mut rng = StdRng::seed_from_u64(5);
        for bits in [20, 48, 80] {
            let grp = SimulatedGroup::generate(bits, &mut rng);
            let other = SimulatedGroup::generate(bits, &mut rng);
            let n = grp.order();
            // Logs of this group and of another, logs below and not
            // below N, and identities.
            let c_prime = grp.pair(&grp.g(), &grp.random_gp(&mut rng));
            let c0 = GElem::from_canonical_log(n + &BigUint::from_u64(3));
            let c = vec![
                (other.random_gp(&mut rng), GElem::identity()),
                (
                    grp.random_gq(&mut rng),
                    GElem::from_canonical_log(n - &BigUint::one()),
                ),
            ];
            let expected = GtElem::from_canonical_log(BigUint::from_u64(9));
            let mut want = PackedRow::from_elements(&c_prime, &c0, &c, &expected);
            want.fit(n);
            assert_eq!(PackedRow::pack(&c_prime, &c0, &c, &expected, n), want);
        }
    }

    #[test]
    fn packing_lays_operands_out_in_row_order() {
        let r = row(1, &[10, 11, 12, 13, 14]);
        assert_eq!(r.shape(), RowShape { width: 1, limbs: 1 });
        assert_eq!(r.limbs(), &[10, 11, 12, 13, 14]);
        assert_eq!(r.operand(RowShape::component(0, 1)), &[13]);
        assert_eq!(r.operand(r.shape().expected()), &[14]);
        // All-identity rows still take one limb per operand.
        assert_eq!(row(0, &[0, 0, 0]).shape().limbs, 1);
    }

    #[test]
    fn slab_widens_and_zero_extends() {
        let mut slab = QueryRows::new();
        slab.push(&row(1, &[1, 2, 3, 4, 5]));
        let mut wide = PackedRow::zeroed(RowShape { width: 1, limbs: 2 });
        wide.operand_mut(0).copy_from_slice(&[7, 9]);
        slab.push(&wide);
        assert_eq!(slab.shape().limbs, 2);
        assert_eq!(slab.row(0), &[1, 0, 2, 0, 3, 0, 4, 0, 5, 0]);
        assert_eq!(slab.row(1), &[7, 9, 0, 0, 0, 0, 0, 0, 0, 0]);
        slab.push(&row(1, &[6, 6, 6, 6, 6]));
        assert_eq!(slab.len(), 3);
        assert_eq!(slab.as_limbs().len(), 3 * slab.shape().stride());
    }

    #[test]
    fn swap_remove_and_retain_match_vec_order() {
        let mut slab = QueryRows::new();
        let mut model = Vec::new();
        for v in 1..=6u64 {
            slab.push(&row(0, &[v, v, v]));
            model.push(v);
        }
        slab.swap_remove(1);
        model.swap_remove(1);
        slab.retain(|i| i % 2 == 0);
        let mut i = 0;
        model.retain(|_| {
            i += 1;
            (i - 1) % 2 == 0
        });
        let got: Vec<u64> = (0..slab.len()).map(|i| slab.row(i)[0]).collect();
        assert_eq!(got, model);
        assert_eq!(slab.as_limbs().len(), model.len() * 3);
        slab.swap_remove(slab.len() - 1);
        assert_eq!(slab.len(), model.len() - 1);
    }

    #[test]
    fn fit_reduces_operands_not_below_n_and_restrides() {
        let n = &BigUint::from_u128(1 << 70) + &BigUint::from_u64(5);
        let mut r = row(0, &[3, u64::MAX, 0]);
        // An operand of three limbs, far above N.
        let mut big = PackedRow::zeroed(RowShape { width: 0, limbs: 3 });
        big.operand_mut(0).copy_from_slice(&[1, 2, 3]);
        big.operand_mut(2)[..2].copy_from_slice(n.limbs());
        big.fit(&n);
        assert_eq!(big.shape().limbs, 2);
        let want = &BigUint::from_limbs(vec![1, 2, 3]) % &n;
        assert_eq!(BigUint::from_limbs(big.operand(0).to_vec()), want);
        assert_eq!(big.operand(2), &[0, 0], "N itself reduces to zero");
        r.fit(&n);
        assert_eq!(r.limbs(), &[3, 0, u64::MAX, 0, 0, 0]);
        assert!(below(&[u64::MAX, (1 << 6) - 1], n.limbs()));
        assert!(!below(n.limbs(), n.limbs()));
    }
}
