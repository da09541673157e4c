//! Empirical estimators of path-level probabilities.
//!
//! Everything the tomography algorithms need from the measurements is a
//! probability of some *path-level* event, estimated as a relative
//! frequency over the snapshots of an experiment:
//!
//! * `P(Y_i = 0)` — path `P_i` is good (single-path equations, Eq. 9);
//! * `P(Y_i = 0, Y_j = 0)` — paths `P_i` and `P_j` are both good
//!   (path-pair equations, Eq. 10);
//! * `P(ψ(S) = ∅)` — all paths are good (Eq. 3 / Eq. 14);
//! * `P(ψ(S) = ψ(A))` — the paths covered by a correlation subset `A` are
//!   exactly the congested paths (the left-hand side of Eq. 18, used by the
//!   exact theorem algorithm).
//!
//! [`ProbabilityEstimator`] answers all four from path-major packed lanes
//! ([`BitLanesView`]) that it *borrows*: the lanes of a heap-owned
//! [`PathObservations`], a v3 binary block parsed in place
//! ([`ProbabilityEstimator::parse`]) or a memory-mapped v3 file
//! ([`crate::MappedObservations::view`]) all go through the same code.
//! Joint-good queries AND the complemented lanes and popcount the result
//! (64 snapshots per word) through the SIMD kernel ladder in
//! [`crate::bitset::simd`]; all-good and exact-state queries AND every
//! lane, complementing the lanes outside the target pattern, and stop
//! reading lanes for a word as soon as none of its snapshots can still
//! match. The batch entry
//! points ([`ProbabilityEstimator::log_prob_pairs_good`],
//! [`ProbabilityEstimator::prob_exactly_congested_batch`]) exist so the
//! equation builder and the theorem algorithm issue *one* call for all
//! their queries.
//!
//! Estimated probabilities of zero are problematic for the log-linear
//! equations (log 0 = −∞), so [`ProbabilityEstimator::log_prob_paths_good`]
//! clamps frequencies to a floor of `1/(2·N)` where `N` is the number of
//! snapshots — the usual "half a count" correction for unobserved events.
//!
//! Every probability is an integer count divided by `N`, so answers are
//! bit-identical whichever storage tier backs the lanes. The scalar
//! implementation survives as the executable specification in
//! [`crate::reference`]; the differential property tests assert bit-exact
//! agreement between the two on random observation matrices.

use std::collections::BTreeSet;

use netcorr_topology::path::PathId;

use crate::bitset::{simd, BitLanesView};
use crate::error::MeasureError;
use crate::observation::{binary_from_segments, PathObservations};

/// Empirical probability estimator over borrowed packed lanes: one lane
/// per path, one bit per snapshot.
#[derive(Debug, Clone, Copy)]
pub struct ProbabilityEstimator<'a> {
    lanes: BitLanesView<'a>,
}

impl<'a> ProbabilityEstimator<'a> {
    /// Creates an estimator over a heap-owned observation store.
    ///
    /// Returns an error if no snapshots have been recorded.
    pub fn new(observations: &'a PathObservations) -> Result<Self, MeasureError> {
        if observations.is_empty() {
            return Err(MeasureError::NoSnapshots);
        }
        Ok(observations.view())
    }

    /// Wraps a validated lane view. An empty view is allowed: its count
    /// methods return zero and its probability methods return
    /// [`MeasureError::NoSnapshots`].
    pub fn from_lanes(lanes: BitLanesView<'a>) -> Self {
        ProbabilityEstimator { lanes }
    }

    /// Parses a v3 binary observation block **in place**: the header is
    /// validated, the lane-word region is reinterpreted as little-endian
    /// `u64`s without copying, and the zero-tail invariant is checked per
    /// lane. The bytes must keep the words 8-byte aligned (a mapped file
    /// or any allocation whose word region starts at a multiple of 8);
    /// misaligned buffers are rejected — copy through
    /// [`PathObservations::from_binary`] instead.
    ///
    /// Only available on little-endian hosts, where the wire byte order
    /// *is* the in-memory byte order.
    #[cfg(target_endian = "little")]
    #[allow(unsafe_code)]
    pub fn parse(bytes: &'a [u8]) -> Result<Self, MeasureError> {
        use crate::observation::{parse_binary_header, BINARY_HEADER_LEN};
        let (num_paths, num_snapshots) = parse_binary_header(bytes)?;
        let region = &bytes[BINARY_HEADER_LEN..];
        // SAFETY: every bit pattern is a valid `u64`; `align_to` returns
        // word-aligned, in-bounds subslices by contract. The empty
        // prefix/suffix check below guarantees the whole region was
        // reinterpreted.
        let (prefix, words, suffix) = unsafe { region.align_to::<u64>() };
        if !prefix.is_empty() || !suffix.is_empty() {
            return Err(MeasureError::Wire(format!(
                "lane region is not 8-byte aligned (offset {}): zero-copy parse needs an \
                 aligned buffer",
                prefix.len()
            )));
        }
        let lanes = BitLanesView::try_from_lane_words(num_paths, num_snapshots, words)?;
        Ok(ProbabilityEstimator { lanes })
    }

    /// Number of paths per snapshot.
    pub fn num_paths(&self) -> usize {
        self.lanes.num_lanes()
    }

    /// Number of snapshots backing every estimate.
    pub fn num_snapshots(&self) -> usize {
        self.lanes.num_slots()
    }

    /// Returns `true` if the estimator covers no snapshots.
    pub fn is_empty(&self) -> bool {
        self.num_snapshots() == 0
    }

    /// The underlying lane view.
    pub fn lanes(&self) -> BitLanesView<'a> {
        self.lanes
    }

    /// The probability floor used when clamping zero frequencies before
    /// taking logarithms: `1 / (2 N)`.
    pub fn probability_floor(&self) -> f64 {
        1.0 / (2.0 * self.num_snapshots() as f64)
    }

    /// `N` as the divisor of every probability, or
    /// [`MeasureError::NoSnapshots`].
    fn snapshot_total(&self) -> Result<f64, MeasureError> {
        if self.is_empty() {
            return Err(MeasureError::NoSnapshots);
        }
        Ok(self.num_snapshots() as f64)
    }

    fn check_path(&self, path: PathId) -> Result<(), MeasureError> {
        if path.index() >= self.num_paths() {
            return Err(MeasureError::UnknownPath {
                index: path.index(),
                num_paths: self.num_paths(),
            });
        }
        Ok(())
    }

    /// Number of snapshots in which `path` was congested.
    pub fn congested_count(&self, path: PathId) -> Result<usize, MeasureError> {
        self.check_path(path)?;
        Ok(self.lanes.count_ones(path.index()))
    }

    /// Number of snapshots in which *all* the given paths were good:
    /// popcount of the AND of the complemented lanes (the tail of the last
    /// word is masked because complementing turns the zero padding into
    /// ones), dispatched to the SIMD kernel ladder.
    pub fn all_good_count(&self, paths: &[PathId]) -> Result<usize, MeasureError> {
        for &p in paths {
            self.check_path(p)?;
        }
        let mask = self.lanes.last_word_mask();
        if let [a, b] = paths {
            return Ok(simd::pair_good_count(
                self.lanes.lane(a.index()),
                self.lanes.lane(b.index()),
                mask,
            ));
        }
        let lane_refs: Vec<&[u64]> = paths.iter().map(|&p| self.lanes.lane(p.index())).collect();
        Ok(simd::all_good_count(
            &lane_refs,
            self.lanes.used_words(),
            mask,
        ))
    }

    /// Number of snapshots in which every path was good.
    pub fn all_paths_good_count(&self) -> usize {
        self.count_matching(&vec![false; self.num_paths()])
    }

    /// Number of snapshots in which the congested paths were *exactly*
    /// the given set.
    pub fn pattern_count(&self, congested: &BTreeSet<PathId>) -> Result<usize, MeasureError> {
        for &p in congested {
            self.check_path(p)?;
        }
        let mut member = vec![false; self.num_paths()];
        for p in congested {
            member[p.index()] = true;
        }
        Ok(self.count_matching(&member))
    }

    /// Number of snapshots whose bit in lane `p` equals `member[p]` for
    /// every lane: an AND sweep over all lanes, complementing the lanes
    /// outside the pattern, one word (64 snapshots) at a time. A word is
    /// left as soon as none of its snapshots can still match, so on dense
    /// data most words read only a few lanes.
    fn count_matching(&self, member: &[bool]) -> usize {
        let used = self.lanes.used_words();
        let mask = self.lanes.last_word_mask();
        let lanes: Vec<&[u64]> = (0..self.num_paths()).map(|p| self.lanes.lane(p)).collect();
        let mut count = 0usize;
        for w in 0..used {
            let mut acc = if w + 1 == used { mask } else { !0u64 };
            for (lane, &is_member) in lanes.iter().zip(member) {
                let word = lane[w];
                acc &= if is_member { word } else { !word };
                if acc == 0 {
                    break;
                }
            }
            count += acc.count_ones() as usize;
        }
        count
    }

    /// Empirical `P(Y_i = 1)`.
    pub fn prob_path_congested(&self, path: PathId) -> Result<f64, MeasureError> {
        let n = self.snapshot_total()?;
        Ok(self.congested_count(path)? as f64 / n)
    }

    /// Empirical `P(Y_i = 0)`: the fraction of snapshots in which `path`
    /// was good.
    pub fn prob_path_good(&self, path: PathId) -> Result<f64, MeasureError> {
        Ok(1.0 - self.prob_path_congested(path)?)
    }

    /// Empirical probability that *all* the given paths were good in the
    /// same snapshot (`P(Y_{i1} = 0, ..., Y_{ik} = 0)`).
    pub fn prob_paths_good(&self, paths: &[PathId]) -> Result<f64, MeasureError> {
        let n = self.snapshot_total()?;
        Ok(self.all_good_count(paths)? as f64 / n)
    }

    /// Batch form of the path-pair query: one `P(Y_i = 0, Y_j = 0)` per
    /// pair, validated once up front. This is the equation builder's hot
    /// path — each pair costs one AND/popcount sweep over two packed lanes
    /// (`⌈N/64⌉` words), never a rescan of the full observation matrix.
    pub fn prob_pairs_good(&self, pairs: &[(PathId, PathId)]) -> Result<Vec<f64>, MeasureError> {
        let n = self.snapshot_total()?;
        for &(a, b) in pairs {
            self.check_path(a)?;
            self.check_path(b)?;
        }
        let mask = self.lanes.last_word_mask();
        Ok(pairs
            .iter()
            .map(|&(a, b)| {
                let count = simd::pair_good_count(
                    self.lanes.lane(a.index()),
                    self.lanes.lane(b.index()),
                    mask,
                );
                count as f64 / n
            })
            .collect())
    }

    /// Batch form of [`ProbabilityEstimator::log_prob_paths_good`] over
    /// path pairs: clamped `log P(Y_i = 0, Y_j = 0)` per pair.
    pub fn log_prob_pairs_good(
        &self,
        pairs: &[(PathId, PathId)],
    ) -> Result<Vec<f64>, MeasureError> {
        let floor = self.probability_floor();
        Ok(self
            .prob_pairs_good(pairs)?
            .into_iter()
            .map(|p| p.max(floor).ln())
            .collect())
    }

    /// `log P(all given paths good)`, clamped below by the probability
    /// floor so the result is always finite. This is the right-hand side
    /// `y` of the log-linear equations in Section 4.
    pub fn log_prob_paths_good(&self, paths: &[PathId]) -> Result<f64, MeasureError> {
        let p = self.prob_paths_good(paths)?;
        Ok(p.max(self.probability_floor()).ln())
    }

    /// Empirical `P(ψ(S) = ∅)`: the fraction of snapshots in which every
    /// path was good.
    pub fn prob_all_paths_good(&self) -> Result<f64, MeasureError> {
        let n = self.snapshot_total()?;
        Ok(self.all_paths_good_count() as f64 / n)
    }

    /// Empirical `P(ψ(S) = ψ(A))`: the fraction of snapshots in which the
    /// congested paths were *exactly* the given set.
    pub fn prob_exactly_congested(
        &self,
        congested: &BTreeSet<PathId>,
    ) -> Result<f64, MeasureError> {
        let n = self.snapshot_total()?;
        Ok(self.pattern_count(congested)? as f64 / n)
    }

    /// Batch form of [`ProbabilityEstimator::prob_exactly_congested`]: one
    /// probability per target pattern (the theorem algorithm queries
    /// every correlation subset's coverage this way).
    pub fn prob_exactly_congested_batch(
        &self,
        patterns: &[BTreeSet<PathId>],
    ) -> Result<Vec<f64>, MeasureError> {
        patterns
            .iter()
            .map(|pattern| self.prob_exactly_congested(pattern))
            .collect()
    }

    /// Paths that were congested during at least one snapshot.
    pub fn ever_congested_paths(&self) -> Vec<PathId> {
        (0..self.num_paths())
            .filter(|&p| self.lanes.lane(p).iter().any(|&w| w != 0))
            .map(PathId)
            .collect()
    }

    /// Copies the lanes into an owned [`PathObservations`] — the
    /// promotion back to the heap tier.
    pub fn to_observations(&self) -> PathObservations {
        PathObservations::from(self.lanes.to_owned_lanes())
    }

    /// Serializes these lanes followed by `delta` as one v3 binary block
    /// in a single pass — the full-history serialization of a streaming
    /// estimator whose base segment is these lanes. When the snapshot
    /// count is not a multiple of 64 the delta words are shift-merged
    /// into the base lanes' tail words.
    pub fn merged_binary(&self, delta: &PathObservations) -> Result<Vec<u8>, MeasureError> {
        binary_from_segments(self.num_paths(), &[self.lanes, delta.lanes().as_view()])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// 8 snapshots over 3 paths with a known pattern.
    fn observations() -> PathObservations {
        let mut obs = PathObservations::new(3);
        let snapshots = [
            [false, false, false],
            [true, false, false],
            [true, true, false],
            [false, false, false],
            [false, true, false],
            [true, true, false],
            [false, false, false],
            [false, false, true],
        ];
        for s in &snapshots {
            obs.record_snapshot(s).unwrap();
        }
        obs
    }

    fn sample(paths: usize, snapshots: usize) -> PathObservations {
        let mut obs = PathObservations::new(paths);
        let mut row = vec![false; paths];
        for s in 0..snapshots {
            for (p, bit) in row.iter_mut().enumerate() {
                *bit = (s * 7 + p * 13) % 5 == 0 || (s + p) % 11 == 0;
            }
            obs.record_snapshot(&row).unwrap();
        }
        obs
    }

    /// Copies `block` into a `u64`-backed buffer so its word region is
    /// 8-byte aligned, whatever the allocator does for `Vec<u8>`.
    fn aligned(block: &[u8]) -> Vec<u64> {
        let mut words = vec![0u64; block.len().div_ceil(8)];
        for (i, &byte) in block.iter().enumerate() {
            words[i / 8] |= u64::from(byte) << (8 * (i % 8));
        }
        words
    }

    #[allow(unsafe_code)]
    fn as_bytes(words: &[u64], len: usize) -> &[u8] {
        // SAFETY: any `u64` buffer is a valid byte buffer of 8× the length.
        unsafe { &words.align_to::<u8>().1[..len] }
    }

    #[test]
    fn single_path_probabilities() {
        let obs = observations();
        let est = ProbabilityEstimator::new(&obs).unwrap();
        assert_eq!(est.num_snapshots(), 8);
        // Path 0 congested in 3 of 8 snapshots.
        assert!((est.prob_path_congested(PathId(0)).unwrap() - 3.0 / 8.0).abs() < 1e-12);
        assert!((est.prob_path_good(PathId(0)).unwrap() - 5.0 / 8.0).abs() < 1e-12);
        assert!((est.prob_path_good(PathId(2)).unwrap() - 7.0 / 8.0).abs() < 1e-12);
    }

    #[test]
    fn joint_probabilities() {
        let obs = observations();
        let est = ProbabilityEstimator::new(&obs).unwrap();
        // Paths 0 and 1 both good in snapshots 0, 3, 6, 7 -> 4/8.
        assert!((est.prob_paths_good(&[PathId(0), PathId(1)]).unwrap() - 0.5).abs() < 1e-12);
        // All three paths good in snapshots 0, 3, 6 -> 3/8.
        assert!(
            (est.prob_paths_good(&[PathId(0), PathId(1), PathId(2)])
                .unwrap()
                - 3.0 / 8.0)
                .abs()
                < 1e-12
        );
        assert!((est.prob_all_paths_good().unwrap() - 3.0 / 8.0).abs() < 1e-12);
        // The joint probability with an empty path list is 1 (vacuous).
        assert_eq!(est.prob_paths_good(&[]).unwrap(), 1.0);
    }

    #[test]
    fn batch_pair_queries_match_the_single_query() {
        let obs = observations();
        let est = ProbabilityEstimator::new(&obs).unwrap();
        let pairs = [
            (PathId(0), PathId(1)),
            (PathId(0), PathId(2)),
            (PathId(1), PathId(2)),
            (PathId(2), PathId(2)),
        ];
        let batch = est.prob_pairs_good(&pairs).unwrap();
        for (i, &(a, b)) in pairs.iter().enumerate() {
            assert_eq!(batch[i], est.prob_paths_good(&[a, b]).unwrap());
        }
        let logs = est.log_prob_pairs_good(&pairs).unwrap();
        for (i, &(a, b)) in pairs.iter().enumerate() {
            assert_eq!(logs[i], est.log_prob_paths_good(&[a, b]).unwrap());
        }
        assert!(est.prob_pairs_good(&[(PathId(0), PathId(9))]).is_err());
    }

    #[test]
    fn exact_congestion_pattern_probabilities() {
        let obs = observations();
        let est = ProbabilityEstimator::new(&obs).unwrap();
        // Exactly {P1} congested: snapshot 1 only -> 1/8.
        let p = est
            .prob_exactly_congested(&BTreeSet::from([PathId(0)]))
            .unwrap();
        assert!((p - 1.0 / 8.0).abs() < 1e-12);
        // Exactly {P1, P2}: snapshots 2 and 5 -> 2/8.
        let p = est
            .prob_exactly_congested(&BTreeSet::from([PathId(0), PathId(1)]))
            .unwrap();
        assert!((p - 2.0 / 8.0).abs() < 1e-12);
        // Exactly nothing congested: snapshots 0, 3, 6 -> 3/8, matching
        // prob_all_paths_good.
        let p = est.prob_exactly_congested(&BTreeSet::new()).unwrap();
        assert!((p - est.prob_all_paths_good().unwrap()).abs() < 1e-12);
        // A pattern that never occurred.
        let p = est
            .prob_exactly_congested(&BTreeSet::from([PathId(2), PathId(1)]))
            .unwrap();
        assert_eq!(p, 0.0);
    }

    #[test]
    fn batch_exact_queries_match_the_single_query() {
        let obs = observations();
        let est = ProbabilityEstimator::new(&obs).unwrap();
        let patterns = vec![
            BTreeSet::new(),
            BTreeSet::from([PathId(0)]),
            BTreeSet::from([PathId(0), PathId(1)]),
            BTreeSet::from([PathId(1), PathId(2)]),
        ];
        let batch = est.prob_exactly_congested_batch(&patterns).unwrap();
        for (i, pattern) in patterns.iter().enumerate() {
            assert_eq!(batch[i], est.prob_exactly_congested(pattern).unwrap());
        }
        assert!(est
            .prob_exactly_congested_batch(&[BTreeSet::from([PathId(9)])])
            .is_err());
    }

    #[test]
    fn log_probabilities_are_clamped() {
        let mut obs = PathObservations::new(2);
        for _ in 0..10 {
            obs.record_snapshot(&[true, false]).unwrap();
        }
        let est = ProbabilityEstimator::new(&obs).unwrap();
        // Path 0 was never good: probability 0 must be clamped to 1/(2N).
        let log_p = est.log_prob_paths_good(&[PathId(0)]).unwrap();
        assert!((log_p - (1.0 / 20.0f64).ln()).abs() < 1e-12);
        assert!(log_p.is_finite());
        // Path 1 was always good: log 1 = 0.
        assert_eq!(est.log_prob_paths_good(&[PathId(1)]).unwrap(), 0.0);
        assert!((est.probability_floor() - 0.05).abs() < 1e-12);
    }

    #[test]
    fn errors_on_empty_or_unknown() {
        let empty = PathObservations::new(2);
        assert_eq!(
            ProbabilityEstimator::new(&empty).unwrap_err(),
            MeasureError::NoSnapshots
        );
        let obs = observations();
        let est = ProbabilityEstimator::new(&obs).unwrap();
        assert!(est.prob_path_good(PathId(9)).is_err());
        assert!(est.prob_paths_good(&[PathId(9)]).is_err());
        assert!(est
            .prob_exactly_congested(&BTreeSet::from([PathId(9)]))
            .is_err());
    }

    #[test]
    fn ever_congested_paths_passthrough() {
        let obs = observations();
        let est = ProbabilityEstimator::new(&obs).unwrap();
        assert_eq!(
            est.ever_congested_paths(),
            vec![PathId(0), PathId(1), PathId(2)]
        );
    }

    #[test]
    fn queries_cross_word_boundaries_correctly() {
        // 130 snapshots (> 2 words) with a deterministic pattern.
        let mut obs = PathObservations::new(2);
        let mut good_both = 0;
        let mut all_good = 0;
        for i in 0..130 {
            let a = i % 3 == 0;
            let b = i % 5 == 0;
            obs.record_snapshot(&[a, b]).unwrap();
            if !a && !b {
                good_both += 1;
                all_good += 1;
            }
        }
        let est = ProbabilityEstimator::new(&obs).unwrap();
        let p = est.prob_paths_good(&[PathId(0), PathId(1)]).unwrap();
        assert_eq!(p, good_both as f64 / 130.0);
        assert_eq!(est.prob_all_paths_good().unwrap(), all_good as f64 / 130.0);
    }

    #[test]
    fn borrowed_lanes_match_owned_bits() {
        let obs = sample(4, 150);
        let est = obs.view();
        assert_eq!(est.num_paths(), 4);
        assert_eq!(est.num_snapshots(), 150);
        for p in 0..4 {
            assert_eq!(est.lanes().count_ones(p), obs.lanes().count_ones(p));
            for s in 0..150 {
                assert_eq!(est.lanes().get(p, s), obs.lanes().get(p, s));
            }
        }
        assert_eq!(est.ever_congested_paths(), obs.ever_congested_paths());
        assert_eq!(est.to_observations(), obs);
    }

    #[cfg(target_endian = "little")]
    #[test]
    fn zero_copy_parse_round_trips() {
        let obs = sample(5, 203);
        let block = obs.to_binary();
        let words = aligned(&block);
        let est = ProbabilityEstimator::parse(as_bytes(&words, block.len())).unwrap();
        assert_eq!(est.num_paths(), 5);
        assert_eq!(est.num_snapshots(), 203);
        assert_eq!(est.to_observations(), obs);
    }

    #[cfg(target_endian = "little")]
    #[test]
    fn zero_copy_parse_rejects_corruption() {
        use crate::observation::BINARY_HEADER_LEN;
        let obs = sample(3, 70);
        let mut block = obs.to_binary();
        // Dirty tail: set a bit beyond snapshot 70 in lane 0's last word.
        block[BINARY_HEADER_LEN + 15] |= 0x80;
        let words = aligned(&block);
        let err = ProbabilityEstimator::parse(as_bytes(&words, block.len())).unwrap_err();
        assert!(err.to_string().contains("beyond slot"), "got: {err}");
        // Misaligned region: start one byte into an aligned buffer.
        block[BINARY_HEADER_LEN + 15] &= !0x80;
        let mut shifted = vec![0u8];
        shifted.extend_from_slice(&block);
        let words = aligned(&shifted);
        let err = ProbabilityEstimator::parse(&as_bytes(&words, shifted.len())[1..]).unwrap_err();
        assert!(err.to_string().contains("aligned"), "got: {err}");
    }

    #[test]
    fn empty_views_error_instead_of_dividing_by_zero() {
        let obs = PathObservations::new(3);
        let est = obs.view();
        assert!(est.is_empty());
        assert_eq!(
            est.prob_path_good(PathId(0)).unwrap_err(),
            MeasureError::NoSnapshots
        );
        assert_eq!(
            est.prob_all_paths_good().unwrap_err(),
            MeasureError::NoSnapshots
        );
        assert_eq!(
            est.prob_exactly_congested(&BTreeSet::new()).unwrap_err(),
            MeasureError::NoSnapshots
        );
        // Counts need no snapshots.
        assert_eq!(est.all_paths_good_count(), 0);
        assert_eq!(est.pattern_count(&BTreeSet::new()).unwrap(), 0);
        assert_eq!(est.all_good_count(&[PathId(0), PathId(1)]).unwrap(), 0);
    }
}
