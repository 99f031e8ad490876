//! The [`Stripe`] buffer: one flat allocation of `n·r` equal sectors.

use ppm_codes::{FailureScenario, StripeLayout};
use std::slice::ChunksMut;

/// Sector sizes must be a multiple of this, so that every GF(2^w) word
/// width (1, 2 or 4 bytes) and the 64-bit XOR fast path divide evenly.
pub const SECTOR_ALIGN: usize = 8;

/// A stripe's worth of sector buffers.
#[derive(Clone, PartialEq, Eq)]
pub struct Stripe {
    layout: StripeLayout,
    sector_bytes: usize,
    data: Vec<u8>,
}

impl Stripe {
    /// An all-zero stripe with `sector_bytes` per sector.
    ///
    /// # Panics
    /// Panics unless `sector_bytes` is a positive multiple of
    /// [`SECTOR_ALIGN`].
    pub fn zeroed(layout: StripeLayout, sector_bytes: usize) -> Self {
        assert!(
            sector_bytes > 0 && sector_bytes.is_multiple_of(SECTOR_ALIGN),
            "sector size {sector_bytes} must be a positive multiple of {SECTOR_ALIGN}"
        );
        Stripe {
            layout,
            sector_bytes,
            data: vec![0u8; layout.sectors() * sector_bytes],
        }
    }

    /// An all-zero stripe sized so the whole stripe occupies (close to)
    /// `total_bytes`, the way the paper parameterizes its figures
    /// ("stripe size = 32 MB"). The per-sector size is rounded down to the
    /// alignment.
    ///
    /// # Errors
    /// Returns [`StripeSizeError`] when `total_bytes` cannot fit even one
    /// [`SECTOR_ALIGN`]-byte unit per sector — allocating more than the
    /// requested budget would silently distort byte-budgeted experiments.
    pub fn with_stripe_size(
        layout: StripeLayout,
        total_bytes: usize,
    ) -> Result<Self, StripeSizeError> {
        let raw = total_bytes / layout.sectors();
        let sector_bytes = raw / SECTOR_ALIGN * SECTOR_ALIGN;
        if sector_bytes == 0 {
            return Err(StripeSizeError {
                total_bytes,
                sectors: layout.sectors(),
            });
        }
        Ok(Self::zeroed(layout, sector_bytes))
    }

    /// The stripe geometry.
    pub fn layout(&self) -> StripeLayout {
        self.layout
    }

    /// Bytes per sector.
    pub fn sector_bytes(&self) -> usize {
        self.sector_bytes
    }

    /// Total payload bytes (`n·r · sector_bytes`).
    pub fn total_bytes(&self) -> usize {
        self.data.len()
    }

    /// Read-only view of sector `l`.
    pub fn sector(&self, l: usize) -> &[u8] {
        let off = self.offset(l);
        &self.data[off..off + self.sector_bytes]
    }

    /// Mutable view of sector `l`.
    pub fn sector_mut(&mut self, l: usize) -> &mut [u8] {
        let off = self.offset(l);
        let sb = self.sector_bytes;
        &mut self.data[off..off + sb]
    }

    /// Overwrites sector `l` with `bytes`.
    ///
    /// # Panics
    /// Panics if `bytes` is not exactly one sector long.
    pub fn write_sector(&mut self, l: usize, bytes: &[u8]) {
        assert_eq!(
            bytes.len(),
            self.sector_bytes,
            "sector {l}: length mismatch"
        );
        self.sector_mut(l).copy_from_slice(bytes);
    }

    /// Zeroes every faulty sector of `scenario`, simulating the loss.
    pub fn erase(&mut self, scenario: &FailureScenario) {
        for &l in scenario.faulty() {
            self.sector_mut(l).fill(0);
        }
    }

    /// True if the given sectors have identical contents in `self` and
    /// `other` (same geometry required).
    pub fn sectors_eq(&self, other: &Stripe, sectors: &[usize]) -> bool {
        assert_eq!(self.layout, other.layout);
        assert_eq!(self.sector_bytes, other.sector_bytes);
        sectors.iter().all(|&l| self.sector(l) == other.sector(l))
    }

    /// Cuts every sector into consecutive `span_bytes`-byte ranges (the
    /// last one shorter when `span_bytes` does not divide the sector) and
    /// yields one [`StripeSpan`] per range: span `k` holds bytes
    /// `k·span_bytes..` of every sector. The spans are disjoint, so they
    /// can be handed to different threads.
    ///
    /// # Panics
    /// Panics if `span_bytes` is zero.
    pub fn spans_mut(&mut self, span_bytes: usize) -> SpansMut<'_> {
        assert!(span_bytes > 0, "span size must be positive");
        SpansMut {
            left: self.sector_bytes.div_ceil(span_bytes),
            sectors: self
                .data
                .chunks_exact_mut(self.sector_bytes)
                .map(|sector| sector.chunks_mut(span_bytes))
                .collect(),
        }
    }

    fn offset(&self, l: usize) -> usize {
        assert!(l < self.layout.sectors(), "sector {l} out of range");
        l * self.sector_bytes
    }
}

/// The iterator [`Stripe::spans_mut`] returns: exact-size, and `Send`, so
/// a thread pool can pull spans from it. Each span's sector views are
/// cut when the span is pulled.
#[derive(Debug)]
pub struct SpansMut<'a> {
    sectors: Vec<ChunksMut<'a, u8>>,
    left: usize,
}

impl<'a> Iterator for SpansMut<'a> {
    type Item = StripeSpan<'a>;

    fn next(&mut self) -> Option<StripeSpan<'a>> {
        if self.left == 0 {
            return None;
        }
        let sectors = self
            .sectors
            .iter_mut()
            .map(Iterator::next)
            .collect::<Option<Vec<_>>>()?;
        self.left -= 1;
        Some(StripeSpan { sectors })
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.left, Some(self.left))
    }
}

impl ExactSizeIterator for SpansMut<'_> {}

/// One byte range of every sector of a stripe, borrowed mutably (see
/// [`Stripe::spans_mut`]). Sector `l` of the span is the same byte range
/// of the stripe's sector `l`.
#[derive(Debug)]
pub struct StripeSpan<'a> {
    sectors: Vec<&'a mut [u8]>,
}

impl StripeSpan<'_> {
    /// Bytes of each sector this span holds.
    pub fn sector_bytes(&self) -> usize {
        self.sectors.first().map_or(0, |s| s.len())
    }

    /// Read-only view of this span's range of sector `l`.
    ///
    /// # Panics
    /// Panics if `l` is not a sector of the stripe.
    pub fn sector(&self, l: usize) -> &[u8] {
        self.sectors[l]
    }

    /// Mutable view of this span's range of sector `l`.
    ///
    /// # Panics
    /// Panics if `l` is not a sector of the stripe.
    pub fn sector_mut(&mut self, l: usize) -> &mut [u8] {
        self.sectors[l]
    }
}

/// A stripe-size budget too small for its geometry: `total_bytes` cannot
/// give every one of the `sectors` sectors a single aligned unit.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct StripeSizeError {
    /// The requested whole-stripe byte budget.
    pub total_bytes: usize,
    /// Sectors the geometry requires.
    pub sectors: usize,
}

impl std::fmt::Display for StripeSizeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "stripe budget of {} bytes is too small: {} sectors need at least {} bytes ({} per sector)",
            self.total_bytes,
            self.sectors,
            self.sectors * SECTOR_ALIGN,
            SECTOR_ALIGN
        )
    }
}

impl std::error::Error for StripeSizeError {}

impl std::fmt::Debug for Stripe {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Stripe")
            .field("n", &self.layout.n)
            .field("r", &self.layout.r)
            .field("sector_bytes", &self.sector_bytes)
            .field("total_bytes", &self.total_bytes())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn layout() -> StripeLayout {
        StripeLayout::new(4, 4)
    }

    #[test]
    fn zeroed_has_right_shape() {
        let s = Stripe::zeroed(layout(), 16);
        assert_eq!(s.total_bytes(), 16 * 16);
        assert_eq!(s.sector(5).len(), 16);
        assert!(s.sector(5).iter().all(|&b| b == 0));
    }

    #[test]
    fn with_stripe_size_divides_and_aligns() {
        let s = Stripe::with_stripe_size(layout(), 1 << 20).unwrap();
        assert_eq!(s.sector_bytes(), (1 << 20) / 16);
        // Odd total: rounds down to the alignment.
        let s = Stripe::with_stripe_size(layout(), 1000).unwrap();
        assert_eq!(s.sector_bytes(), 56); // 1000/16 = 62 -> 56
    }

    #[test]
    fn with_stripe_size_rejects_tiny_budget() {
        // 16 sectors need 16 * SECTOR_ALIGN = 128 bytes minimum; anything
        // below must error rather than over-allocate past the budget.
        let err = Stripe::with_stripe_size(layout(), 10).unwrap_err();
        assert_eq!(err.total_bytes, 10);
        assert_eq!(err.sectors, 16);
        assert!(err.to_string().contains("too small"), "{err}");
        assert!(Stripe::with_stripe_size(layout(), 127).is_err());
        // The exact minimum is accepted.
        let s = Stripe::with_stripe_size(layout(), 16 * SECTOR_ALIGN).unwrap();
        assert_eq!(s.sector_bytes(), SECTOR_ALIGN);
    }

    #[test]
    fn sectors_are_disjoint_regions() {
        let mut s = Stripe::zeroed(layout(), 8);
        s.sector_mut(3).fill(0xAA);
        assert!(s.sector(2).iter().all(|&b| b == 0));
        assert!(s.sector(4).iter().all(|&b| b == 0));
        assert!(s.sector(3).iter().all(|&b| b == 0xAA));
    }

    #[test]
    fn write_and_erase() {
        let mut s = Stripe::zeroed(layout(), 8);
        s.write_sector(2, &[7u8; 8]);
        s.write_sector(6, &[9u8; 8]);
        let sc = FailureScenario::new(vec![2]);
        s.erase(&sc);
        assert!(s.sector(2).iter().all(|&b| b == 0));
        assert!(s.sector(6).iter().all(|&b| b == 9));
    }

    #[test]
    fn sectors_eq_compares_selected() {
        let mut a = Stripe::zeroed(layout(), 8);
        let b = Stripe::zeroed(layout(), 8);
        a.write_sector(1, &[1u8; 8]);
        assert!(!a.sectors_eq(&b, &[0, 1]));
        assert!(a.sectors_eq(&b, &[0, 2, 3]));
    }

    #[test]
    fn spans_cover_every_sector_once_in_order() {
        let mut s = Stripe::zeroed(layout(), 40);
        for l in 0..16 {
            let bytes: Vec<u8> = (0..40).map(|b| (l * 40 + b) as u8).collect();
            s.write_sector(l, &bytes);
        }
        let pristine = s.clone();
        for span_bytes in [8, 16, 40, 64] {
            let spans = s.spans_mut(span_bytes);
            assert_eq!(spans.len(), 40usize.div_ceil(span_bytes));
            let mut offset = 0;
            for mut span in spans {
                let len = span.sector_bytes();
                assert_eq!(len, span_bytes.min(40 - offset));
                for l in 0..16 {
                    assert_eq!(span.sector(l), &pristine.sector(l)[offset..offset + len]);
                    span.sector_mut(l).fill(0xEE);
                }
                offset += len;
            }
            assert_eq!(offset, 40);
            assert!((0..16).all(|l| s.sector(l).iter().all(|&b| b == 0xEE)));
            s = pristine.clone();
        }
    }

    #[test]
    fn spans_are_send() {
        fn is_send<T: Send>(_: &T) {}
        let mut s = Stripe::zeroed(layout(), 16);
        let mut spans = s.spans_mut(8);
        is_send(&spans);
        is_send(&spans.next().unwrap());
    }

    #[test]
    #[should_panic(expected = "multiple of 8")]
    fn misaligned_sector_size_panics() {
        let _ = Stripe::zeroed(layout(), 12);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn sector_out_of_range_panics() {
        let s = Stripe::zeroed(layout(), 8);
        let _ = s.sector(16);
    }
}
