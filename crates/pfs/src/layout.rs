//! Stripe layout math: mapping a file's byte ranges onto OSTs.
//!
//! Lustre stripes a file round-robin over `stripe_count` OSTs starting at
//! `start_ost`, in units of `stripe_size` bytes. A read of an arbitrary
//! byte range therefore touches up to `stripe_count` OSTs; we merge all
//! stripes a single OST serves for one request into one segment, because
//! they are read sequentially from that disk (one seek, one stream).

/// Placement of one file across OSTs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct StripeLayout {
    /// Stripe unit in bytes (Lustre default 1 MiB; scaled datasets use a
    /// proportionally smaller unit so segment counts stay realistic).
    pub stripe_size: usize,
    /// Number of OSTs this file spreads over.
    pub stripe_count: usize,
    /// First OST (global index) of stripe 0.
    pub start_ost: usize,
}

/// A contiguous portion of a request served by one OST.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Segment {
    /// Global OST index.
    pub ost: usize,
    /// Bytes of the request this OST serves.
    pub len: usize,
    /// Number of distinct stripes contributing (≥1 seek amortized over
    /// sequential stripe reads is charged once per segment).
    pub stripes: usize,
}

impl StripeLayout {
    /// Validate and construct.
    pub fn new(stripe_size: usize, stripe_count: usize, start_ost: usize) -> StripeLayout {
        assert!(stripe_size > 0, "stripe size must be positive");
        assert!(stripe_count > 0, "stripe count must be positive");
        StripeLayout {
            stripe_size,
            stripe_count,
            start_ost,
        }
    }

    /// OST (global index) serving byte `offset`, given `n_osts` in the pool:
    /// the one-byte reference `segments` is tested against.
    #[cfg(test)]
    fn ost_of(&self, offset: usize, n_osts: usize) -> usize {
        let stripe = offset / self.stripe_size;
        (self.start_ost + stripe % self.stripe_count) % n_osts
    }

    /// Split the byte range `[offset, offset + len)` into per-OST segments.
    /// Segments are returned in ascending OST order; disjoint requests to
    /// the same OST are merged.
    pub fn segments(&self, offset: usize, len: usize, n_osts: usize) -> Vec<Segment> {
        assert!(n_osts > 0);
        if len == 0 {
            return Vec::new();
        }
        // bytes and stripe-count per OST slot (0..stripe_count)
        let mut per_slot: Vec<(usize, usize)> = vec![(0, 0); self.stripe_count];
        let mut pos = offset;
        let end = offset + len;
        while pos < end {
            let stripe = pos / self.stripe_size;
            let stripe_end = (stripe + 1) * self.stripe_size;
            let take = stripe_end.min(end) - pos;
            if let Some((bytes, stripes)) = per_slot.get_mut(stripe % self.stripe_count) {
                *bytes += take;
                *stripes += 1;
            }
            pos += take;
        }
        let mut out: Vec<Segment> = per_slot
            .iter()
            .enumerate()
            .filter(|(_, &(bytes, _))| bytes > 0)
            .map(|(slot, &(bytes, stripes))| Segment {
                ost: (self.start_ost + slot) % n_osts,
                len: bytes,
                stripes,
            })
            .collect();
        out.sort_by_key(|s| s.ost);
        // Merge slots that landed on the same OST (stripe_count > n_osts).
        let mut merged: Vec<Segment> = Vec::with_capacity(out.len());
        for s in out {
            match merged.last_mut() {
                Some(last) if last.ost == s.ost => {
                    last.len += s.len;
                    last.stripes += s.stripes;
                }
                _ => merged.push(s),
            }
        }
        merged
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use scirng::Rng;

    #[test]
    fn single_stripe_single_segment() {
        let l = StripeLayout::new(1024, 4, 0);
        let segs = l.segments(0, 512, 8);
        assert_eq!(
            segs,
            vec![Segment {
                ost: 0,
                len: 512,
                stripes: 1
            }]
        );
    }

    #[test]
    fn round_robin_across_osts() {
        let l = StripeLayout::new(100, 3, 2);
        let segs = l.segments(0, 300, 8);
        assert_eq!(segs.len(), 3);
        let osts: Vec<usize> = segs.iter().map(|s| s.ost).collect();
        assert_eq!(osts, vec![2, 3, 4]);
        assert!(segs.iter().all(|s| s.len == 100));
    }

    #[test]
    fn unaligned_range() {
        // Stripe 100, count 2, read [150, 350): stripe1 50B(ost1),
        // stripe2 100B(ost0), stripe3 50B(ost1).
        let l = StripeLayout::new(100, 2, 0);
        let segs = l.segments(150, 200, 4);
        assert_eq!(segs.len(), 2);
        assert_eq!(
            segs[0],
            Segment {
                ost: 0,
                len: 100,
                stripes: 1
            }
        );
        assert_eq!(
            segs[1],
            Segment {
                ost: 1,
                len: 100,
                stripes: 2
            }
        );
    }

    #[test]
    fn wraps_when_count_exceeds_pool() {
        let l = StripeLayout::new(10, 6, 0);
        let segs = l.segments(0, 60, 3);
        // 6 slots over 3 OSTs → 2 slots merge per OST.
        assert_eq!(segs.len(), 3);
        assert!(segs.iter().all(|s| s.len == 20 && s.stripes == 2));
    }

    #[test]
    fn zero_length_is_empty() {
        let l = StripeLayout::new(100, 2, 0);
        assert!(l.segments(500, 0, 4).is_empty());
    }

    #[test]
    fn ost_of_matches_segments() {
        let l = StripeLayout::new(64, 5, 3);
        for off in [0usize, 63, 64, 320, 1000] {
            let ost = l.ost_of(off, 7);
            let segs = l.segments(off, 1, 7);
            assert_eq!(segs.len(), 1);
            assert_eq!(segs[0].ost, ost);
        }
    }

    /// Segment byte totals always equal the request length, and no OST
    /// appears twice (seeded replacement of the former proptest case).
    #[test]
    fn segments_partition_request() {
        let mut rng = Rng::seed_from_u64(0x5eed);
        for case in 0..128 {
            let stripe_size = 1 + rng.below(511);
            let stripe_count = 1 + rng.below(11);
            let start = rng.below(12);
            let offset = rng.below(4096);
            let len = rng.below(8192);
            let n_osts = 1 + rng.below(11);
            let l = StripeLayout::new(stripe_size, stripe_count, start);
            let segs = l.segments(offset, len, n_osts);
            let total: usize = segs.iter().map(|s| s.len).sum();
            assert_eq!(total, len, "case {case}");
            let mut osts: Vec<usize> = segs.iter().map(|s| s.ost).collect();
            let n = osts.len();
            osts.dedup();
            assert_eq!(osts.len(), n, "duplicate OST in segment list, case {case}");
            assert!(segs.iter().all(|s| s.ost < n_osts), "case {case}");
        }
    }
}
