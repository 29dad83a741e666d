//! Aggregate and statistical queries (§V-B): COUNT, SUM, AVG, MAX, MIN
//! over the attributes of the entities in a probability ball, with the
//! martingale (Azuma) deviation bound of Theorem 4.
//!
//! The relevant entities lie in the S₁ ball of radius `r_τ = d_min/p_τ`
//! around the query center; their probabilities decrease from 1 at the
//! center (inverse-distance model). The estimator accesses only the `a`
//! most-probable of the `b` ball members and scales up per Equation (3)
//! (COUNT/SUM/AVG) or Equation (4) (MAX/MIN).
//!
//! The `estimate_*` functions and [`deviation_bound`] take one slice
//! each; [`estimate_ball`] is all of them over a ball in one pass, to the
//! bit, and is what a query runs.

use super::probability::inverse_distance_probability;

/// Which aggregate to compute.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AggregateKind {
    /// Expected number of relevant entities.
    Count,
    /// Expected sum of an attribute.
    Sum,
    /// Expected average of an attribute.
    Avg,
    /// Expected maximum of an attribute.
    Max,
    /// Expected minimum of an attribute.
    Min,
}

/// Specification of one aggregate query.
#[derive(Debug, Clone, PartialEq)]
pub struct AggregateSpec {
    /// The aggregate to compute.
    pub kind: AggregateKind,
    /// Attribute name (ignored for COUNT).
    pub attribute: Option<String>,
    /// Probability threshold `p_τ` delimiting the ball (paper example:
    /// 0.05; ground truth in §VI uses 0.01).
    pub p_tau: f64,
    /// How many of the closest points to access (`a`); `None` = all.
    pub sample_size: Option<usize>,
}

impl AggregateSpec {
    /// COUNT with threshold `p_τ`.
    pub fn count(p_tau: f64) -> Self {
        Self {
            kind: AggregateKind::Count,
            attribute: None,
            p_tau,
            sample_size: None,
        }
    }

    /// An attribute aggregate with threshold `p_τ`.
    pub fn of(kind: AggregateKind, attribute: &str, p_tau: f64) -> Self {
        Self {
            kind,
            attribute: Some(attribute.to_owned()),
            p_tau,
            sample_size: None,
        }
    }

    /// Restricts the estimator to the `a` most-probable entities.
    pub fn with_sample(mut self, a: usize) -> Self {
        self.sample_size = Some(a);
        self
    }
}

/// The Theorem 4 deviation bound attached to an estimate.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DeviationBound {
    /// The estimate μ the bound is relative to.
    pub mu: f64,
    /// `Σ_{i≤a} vᵢ² + (b−a)·v_m²` — the martingale increment mass.
    pub increment_mass: f64,
}

impl DeviationBound {
    /// `Pr[|S − μ| ≥ δμ] ≤ 2·exp(−2δ²μ² / (Σ vᵢ² + (b−a)v_m²))`.
    pub fn tail_probability(&self, delta: f64) -> f64 {
        assert!(delta >= 0.0, "δ must be non-negative");
        if self.increment_mass <= 0.0 {
            // No unaccessed mass and zero accessed values: the estimate is
            // exact.
            return if delta == 0.0 { 1.0 } else { 0.0 };
        }
        (2.0 * (-2.0 * delta * delta * self.mu * self.mu / self.increment_mass).exp()).min(1.0)
    }

    /// The smallest relative error δ guaranteed with probability at least
    /// `confidence` (inverts the tail bound).
    pub fn delta_for_confidence(&self, confidence: f64) -> f64 {
        assert!(
            (0.0..1.0).contains(&confidence),
            "confidence must be in [0, 1), got {confidence}"
        );
        if self.increment_mass <= 0.0 || self.mu == 0.0 {
            return 0.0;
        }
        let tail = 1.0 - confidence;
        ((self.increment_mass * (2.0 / tail).ln()) / (2.0 * self.mu * self.mu)).sqrt()
    }
}

/// Result of one aggregate query.
#[derive(Debug, Clone)]
pub struct AggregateResult {
    /// The expected aggregate value.
    pub estimate: f64,
    /// Number of entities accessed (`a`).
    pub accessed: usize,
    /// Total entities in the ball (`b`).
    pub ball_size: usize,
    /// The Theorem 4 deviation bound (meaningful for COUNT/SUM/AVG; for
    /// MAX/MIN it is the analogous bound sketched at the end of §V-B).
    pub bound: DeviationBound,
}

impl AggregateResult {
    /// The aggregate over an empty ball: nothing was predictable around
    /// the query center, so nothing was accessed and nothing deviates.
    pub fn empty() -> Self {
        AggregateResult {
            estimate: 0.0,
            accessed: 0,
            ball_size: 0,
            bound: DeviationBound {
                mu: 0.0,
                increment_mass: 0.0,
            },
        }
    }
}

/// Equation (3): expected SUM from the `a` accessed `(value, probability)`
/// pairs and the probabilities of **all** `b` ball members
/// (`probs_all[i]` descending; the first `values.len()` entries align
/// with `values`).
pub fn estimate_sum(values: &[f64], probs_all: &[f64]) -> f64 {
    let a = values.len();
    assert!(a <= probs_all.len(), "more values than ball members");
    if a == 0 {
        return 0.0;
    }
    let weighted: f64 = values.iter().zip(probs_all).map(|(v, p)| v * p).sum();
    let sum_a: f64 = probs_all[..a].iter().sum();
    let sum_b: f64 = probs_all.iter().sum();
    if sum_a <= 0.0 {
        return 0.0;
    }
    weighted * (sum_b / sum_a)
}

/// COUNT = SUM over the constant 1: `Σ_{i≤b} pᵢ` (independent of `a`
/// because the index already knows every ball member's probability).
pub fn estimate_count(probs_all: &[f64]) -> f64 {
    probs_all.iter().sum()
}

/// AVG = SUM/COUNT: the probability-weighted mean of the accessed values.
pub fn estimate_avg(values: &[f64], probs_all: &[f64]) -> f64 {
    let a = values.len();
    assert!(a <= probs_all.len(), "more values than ball members");
    if a == 0 {
        return 0.0;
    }
    let weighted: f64 = values.iter().zip(probs_all).map(|(v, p)| v * p).sum();
    let sum_a: f64 = probs_all[..a].iter().sum();
    if sum_a <= 0.0 {
        return 0.0;
    }
    weighted / sum_a
}

/// Equation (4): expected MAX from the accessed sample.
///
/// `E[M_S] = Σ uᵢ·pᵢ·∏_{j<i}(1−pⱼ)` with values re-sorted descending, then
/// the sample-maximum correction
/// `E[M] = (E[M_S] − min v)(1 + 1/Σ pᵢ) + min v`.
pub fn estimate_max(values: &[f64], probs: &[f64]) -> f64 {
    assert_eq!(values.len(), probs.len(), "values/probs length mismatch");
    let pairs: Vec<(f64, f64)> = values.iter().copied().zip(probs.iter().copied()).collect();
    let min_v = values.iter().copied().fold(f64::INFINITY, f64::min);
    max_of_sample(pairs, min_v, probs.iter().sum())
}

/// [`estimate_max`] over its `(value, probability)` pairs in access
/// order, given the smallest value `min_v` and the probability sum
/// `sum_p`, each folded over the pairs in that order.
fn max_of_sample(pairs: Vec<(f64, f64)>, min_v: f64, sum_p: f64) -> f64 {
    if pairs.is_empty() {
        return 0.0;
    }
    let expected_sample_max = sample_max_of(pairs);
    if sum_p <= 0.0 {
        return expected_sample_max;
    }
    // The sample-maximum correction of [19] assumes an effective sample
    // size Σpᵢ of at least one draw; with less probability mass than one
    // relevant point there is no basis for extrapolating beyond the
    // sample, so the factor is clamped (and the result never drops below
    // the uncorrected expectation — Eq. (4) can otherwise swing negative
    // when E[M_S] < min v).
    let effective_n = sum_p.max(1.0);
    let corrected = (expected_sample_max - min_v) * (1.0 + 1.0 / effective_n) + min_v;
    corrected.max(expected_sample_max)
}

/// `E[M_S] = Σ uᵢ·pᵢ·∏_{j<i}(1−pⱼ)` over `pairs` sorted by value
/// descending, bit for bit the plain left-to-right loop, and how many
/// terms it added.
///
/// The loop stops once no later term can move the sum. With every
/// probability in [0, 1] the running product `∏(1−pⱼ)` never grows (a
/// rounded `1 − p` is at most 1, and rounding is monotone), so a later
/// term is at most `|u|·∏` in magnitude with `|u|` at most the larger of
/// the remaining values' first and last; a term below a quarter of the
/// sum's ulp rounds back to the sum, in either direction, even where the
/// sum is a power of two (whose lower neighbour is half an ulp away).
/// The sum then stands still, so every later term is as small. Without
/// the stop a long tail of such terms runs through subnormal products —
/// the negated values of a MIN put the largest last — at many times the
/// cost of a normal multiply.
fn expected_sample_max(pairs: &[(f64, f64)]) -> (f64, usize) {
    // A probability outside [0, 1] (or NaN) voids the bound: no stop.
    let bounded = pairs.iter().all(|&(_, p)| (0.0..=1.0).contains(&p));
    let last = pairs.last().map_or(0.0, |&(u, _)| u.abs());
    sample_max_loop(pairs, bounded, last)
}

/// The loop of [`expected_sample_max`] over the first pairs of the
/// order, given whether every probability of the whole order is in
/// [0, 1] (`bounded`) and its last value's magnitude (`last`). Fewer
/// terms than pairs means it stopped, with the whole order's sum.
fn sample_max_loop(pairs: &[(f64, f64)], bounded: bool, last: f64) -> (f64, usize) {
    let mut sum = 0.0;
    let mut none_before = 1.0;
    for (i, &(u, p)) in pairs.iter().enumerate() {
        sum += u * none_before * p;
        none_before *= 1.0 - p;
        let Some(&(next, _)) = pairs.get(i + 1) else {
            return (sum, pairs.len());
        };
        // NaN or ±∞ anywhere here fails the comparison: no stop.
        let margin = 1.0 + 4.0 * f64::EPSILON;
        let quarter = quarter_ulp(sum);
        if bounded
            && next.abs() * none_before * margin < quarter
            && last * none_before * margin < quarter
        {
            return (sum, i + 1);
        }
    }
    (sum, pairs.len())
}

/// How many pairs of the value order [`sample_max_of`] sorts first.
const HEAD: usize = 2048;

/// `E[M_S]` of `(value, probability)` pairs in access order:
/// [`expected_sample_max`] over them sorted by value descending, ties in
/// input order — `sort_by_key_stable` by the negated value.
///
/// The loop stops after a few hundred terms on a ball's values, so a
/// long input is cut to the head of that order first: one counting pass
/// over [`RADIX`] buckets of the negated value (monotone, so a bucket
/// precedes the next in the order) finds the first buckets holding more
/// than [`HEAD`] pairs, and those pairs, sorted, are the order's first.
/// If the loop stops inside them, that is its sum; otherwise everything
/// is sorted and the loop runs from the start.
fn sample_max_of(mut pairs: Vec<(f64, f64)>) -> f64 {
    if pairs.len() > 4 * HEAD {
        if let Some(sum) = sample_max_from_head(&pairs) {
            return sum;
        }
    }
    sort_by_key_stable(&mut pairs, |x| -x.0);
    expected_sample_max(&pairs).0
}

/// [`sample_max_of`] from the head of the order, or `None` when the
/// head is not a proper one or the loop runs through it.
fn sample_max_from_head(pairs: &[(f64, f64)]) -> Option<f64> {
    let (mut lo, mut hi, mut finite, mut bounded) = (f64::INFINITY, f64::NEG_INFINITY, true, true);
    for &(u, p) in pairs {
        let key = -u;
        finite &= key.is_finite();
        if key < lo {
            lo = key;
        }
        if key > hi {
            hi = key;
        }
        bounded &= (0.0..=1.0).contains(&p);
    }
    let map = BucketMap::new(lo, hi, RADIX);
    if !finite || map.last == 0 {
        return None;
    }
    let mut counts = vec![0usize; map.last + 1];
    for x in pairs {
        counts[map.of(-x.0)] += 1;
    }
    let mut held = 0;
    let cut = counts.iter().position(|&count| {
        held += count;
        held > HEAD
    })?;
    let mut head: Vec<(f64, f64)> = pairs
        .iter()
        .filter(|x| map.of(-x.0) <= cut)
        .copied()
        .collect();
    if head.len() == pairs.len() {
        return None;
    }
    sort_by_key_stable(&mut head, |x| -x.0);
    // The order's last pair holds the largest key, −u: its |u| is |hi|.
    let (sum, terms) = sample_max_loop(&head, bounded, hi.abs());
    (terms < head.len()).then_some(sum)
}

/// A quarter of the spacing of the floats at `x`'s binade (its ulp), or
/// 0 where that is not a normal float — a subnormal or zero sum, whose
/// terms the stop in [`expected_sample_max`] then never skips — and NaN
/// for a non-finite `x`.
fn quarter_ulp(x: f64) -> f64 {
    // The biased exponent; an ulp is 2^(exponent − 1075), a quarter of
    // it 2^(exponent − 1077), whose own biased exponent is
    // exponent − 54.
    let exponent = (x.to_bits() >> 52) & 0x7ff;
    match exponent {
        0x7ff => f64::NAN,
        e if e > 54 => f64::from_bits((e - 54) << 52),
        _ => 0.0,
    }
}

/// MIN via negation: `MIN(v) = −MAX(−v)`.
pub fn estimate_min(values: &[f64], probs: &[f64]) -> f64 {
    let negated: Vec<f64> = values.iter().map(|v| -v).collect();
    -estimate_max(&negated, probs)
}

/// [`sort_by_key_stable`] hands shorter inputs to `sort_by` whole.
const DIRECT_SORT: usize = 256;

/// Bits of one digit of a bucket index: a counting pass keeps 2¹¹
/// places to write at, few enough for the caches.
const DIGIT_BITS: usize = 11;

/// Most buckets of a bucket sort: two digits.
const MAX_BUCKETS: usize = 1 << (2 * DIGIT_BITS);

/// One digit's values.
const RADIX: usize = 1 << DIGIT_BITS;

/// Sorts `items` ascending by `key` under [`f64::total_cmp`], ties in
/// input order: exactly the permutation of the stable
/// `items.sort_by(|a, b| key(a).total_cmp(&key(b)))`. (Descending is the
/// negated key: negation reverses the total order.)
///
/// A long input with finite keys not all equal is bucket-sorted over
/// `[lo, hi]` of its keys: a bucket index monotone in the key, two
/// stable counting passes on its digits, one insertion pass. Anything
/// else is one `sort_by`.
pub fn sort_by_key_stable<T: Copy>(items: &mut Vec<T>, key: impl Fn(&T) -> f64) {
    let n = items.len();
    if n < DIRECT_SORT {
        items.sort_by(|a, b| key(a).total_cmp(&key(b)));
        return;
    }
    // Comparisons, not `f64::min`: a NaN fails `finite` anyway.
    let (mut lo, mut hi, mut finite) = (f64::INFINITY, f64::NEG_INFINITY, true);
    for k in items.iter().map(&key) {
        finite &= k.is_finite();
        if k < lo {
            lo = k;
        }
        if k > hi {
            hi = k;
        }
    }
    let map = BucketMap::new(lo, hi, n);
    if !finite || map.last == 0 {
        items.sort_by(|a, b| key(a).total_cmp(&key(b)));
        return;
    }
    let mut digits = Digits::default();
    for x in items.iter() {
        digits.count(map.of(key(x)));
    }
    *items = bucket_sorted(std::mem::take(items), key, map, &digits);
}

/// The bucket of a key: `((key − lo) · scale) as usize`, saturating at
/// both ends — a key below `lo` is bucket 0. Monotone in the key, as
/// IEEE subtraction, multiplication by a positive constant and
/// truncation are.
#[derive(Debug, Clone, Copy)]
struct BucketMap {
    lo: f64,
    scale: f64,
    last: usize,
}

impl BucketMap {
    /// Up to [`MAX_BUCKETS`] buckets, `n` at most, over `[lo, hi]`; one
    /// (`last` = 0) for a range of no width.
    fn new(lo: f64, hi: f64, n: usize) -> Self {
        let buckets = n.clamp(1, MAX_BUCKETS);
        let scale = (buckets - 1) as f64 / (hi - lo);
        let last = if scale.is_finite() && scale > 0.0 {
            buckets - 1
        } else {
            0
        };
        Self { lo, scale, last }
    }

    fn of(self, key: f64) -> usize {
        (((key - self.lo) * self.scale) as usize).min(self.last)
    }
}

/// The histograms of a bucket index's low and high digit.
#[derive(Debug)]
struct Digits(Box<[[u32; RADIX]; 2]>);

impl Default for Digits {
    fn default() -> Self {
        Self(Box::new([[0; RADIX]; 2]))
    }
}

impl Digits {
    fn count(&mut self, bucket: usize) {
        self.0[0][low_digit(bucket)] += 1;
        self.0[1][high_digit(bucket)] += 1;
    }
}

fn low_digit(bucket: usize) -> usize {
    bucket & (RADIX - 1)
}

fn high_digit(bucket: usize) -> usize {
    (bucket >> DIGIT_BITS) & (RADIX - 1)
}

/// `items` stably sorted by `key` under [`f64::total_cmp`], given a
/// bucket map monotone in the key and the digit histograms of their
/// buckets: two stable counting passes (low digit first) put them in
/// bucket order, ties in input order, and an insertion sort finishes
/// each bucket. A pass writes to at most [`RADIX`] places at a time, so
/// an input far beyond the caches is read and written in streams.
/// Should the buckets be so full that the insertion sort runs past a few
/// moves per item, a stable `sort_by` finishes instead; every step
/// before it kept ties in input order.
fn bucket_sorted<T: Copy>(
    mut items: Vec<T>,
    key: impl Fn(&T) -> f64,
    map: BucketMap,
    digits: &Digits,
) -> Vec<T> {
    let n = items.len();
    let mut spare = items.clone();
    digit_pass(&items, &mut spare, &digits.0[0], |x| {
        low_digit(map.of(key(x)))
    });
    digit_pass(&spare, &mut items, &digits.0[1], |x| {
        high_digit(map.of(key(x)))
    });
    // `last` is the key of `items[i − 1]`, the largest so far: a shifted
    // item leaves it there.
    let (mut moves, mut last) = (0, items.first().map_or(0.0, &key));
    for i in 1..n {
        let x = items[i];
        let k = key(&x);
        if !last.total_cmp(&k).is_gt() {
            last = k;
            continue;
        }
        let mut at = i;
        while at > 0 && key(&items[at - 1]).total_cmp(&k).is_gt() {
            items[at] = items[at - 1];
            at -= 1;
        }
        items[at] = x;
        moves += i - at;
        if moves > 8 * n {
            items.sort_by(|a, b| key(a).total_cmp(&key(b)));
            break;
        }
    }
    items
}

/// One stable counting pass: `from` into `to` by `digit`, whose
/// histogram is `counts`.
fn digit_pass<T: Copy>(
    from: &[T],
    to: &mut [T],
    counts: &[u32; RADIX],
    digit: impl Fn(&T) -> usize,
) {
    let mut at = vec![0usize; RADIX];
    let mut start = 0;
    for (at, &count) in at.iter_mut().zip(counts) {
        (*at, start) = (start, start + count as usize);
    }
    for x in from {
        let slot = &mut at[digit(x)];
        to[*slot] = *x;
        *slot += 1;
    }
}

/// A ball's `(distance, value)` members sorted by distance as
/// [`sort_by_key_stable`] sorts them, with the histogram counted as they
/// arrive: the buckets span a range `[lo, hi]` fixed before the first
/// member — an S₁ ball's anchor distance and radius — and a member
/// outside it lands in the first or last. The bucket map is monotone in
/// the distance whatever the range, so the order is the stable sort's.
#[derive(Debug)]
pub(crate) struct DistanceSort {
    map: BucketMap,
    digits: Digits,
    members: Vec<(f64, f64)>,
}

impl DistanceSort {
    /// Room for up to `capacity` members in `[lo, hi]`; fewer than
    /// [`DIRECT_SORT`], or a range with no width, sorts in one bucket.
    /// Otherwise the range gets [`MAX_BUCKETS`]: the distances of a ball
    /// crowd into a narrow shell of it, and buckets cost nothing but the
    /// scale.
    pub(crate) fn new(lo: f64, hi: f64, capacity: usize) -> Self {
        let buckets = if capacity < DIRECT_SORT {
            1
        } else {
            MAX_BUCKETS
        };
        Self {
            map: BucketMap::new(lo, hi, buckets),
            digits: Digits::default(),
            members: Vec::with_capacity(capacity),
        }
    }

    /// Adds a member at distance `d` (not NaN).
    pub(crate) fn push(&mut self, d: f64, value: f64) {
        self.digits.count(self.map.of(d));
        self.members.push((d, value));
    }

    /// The members by distance, ties in arrival order.
    pub(crate) fn into_sorted(mut self) -> Vec<(f64, f64)> {
        if self.map.last == 0 {
            self.members.sort_by(|a, b| a.0.total_cmp(&b.0));
            return self.members;
        }
        bucket_sorted(self.members, |m| m.0, self.map, &self.digits)
    }
}

/// Builds the Theorem 4 deviation bound.
///
/// * `mu` — the estimate.
/// * `accessed_values` — the `a` accessed attribute values (1s for COUNT).
/// * `unaccessed_probs` — the `b − a` estimated inclusion probabilities of
///   the unaccessed points (only their count enters the mass: the Azuma
///   increment of an unrevealed member is its full value range `v_m`,
///   whatever its inclusion probability).
/// * `v_max_unaccessed` — (an upper estimate of) the largest |value| among
///   the unaccessed points. The paper suggests R-tree statistics or the
///   sample-max inflation of Eq. (4); callers pick.
pub fn deviation_bound(
    mu: f64,
    accessed_values: &[f64],
    unaccessed_probs: &[f64],
    v_max_unaccessed: f64,
) -> DeviationBound {
    let mass: f64 = accessed_values.iter().map(|v| v * v).sum::<f64>()
        + unaccessed_probs.len() as f64 * v_max_unaccessed * v_max_unaccessed;
    DeviationBound {
        mu,
        increment_mass: mass,
    }
}

/// The start of `Iterator::sum` over `f64`, which the folds of
/// [`estimate_ball`] start from so that they add what it adds.
fn sum_start() -> f64 {
    std::iter::empty::<f64>().sum()
}

/// Steps 3–4 of an aggregate over its ball in one pass: the Eq. 3/4
/// estimate of `kind` and its Theorem 4 bound, to the bit what
/// [`inverse_distance_probabilities`](super::probability::inverse_distance_probabilities),
/// the `estimate_*` function of `kind` and [`deviation_bound`] give.
///
/// * `accessed` — the `a` accessed `(S₁ distance, value)` members sorted
///   by distance (values are 1 for COUNT); the first is the closest, the
///   probability reference.
/// * `unaccessed` — the other `b − a` members as runs of `(proxy
///   distance, count)`: members sharing an element's proxy, in the order
///   their probabilities are summed.
/// * `d_min` — the anchor's distance, the reference when `a = 0`.
///
/// Every sum starts where `Iterator::sum` starts and adds in its order:
/// the accessed members first, then the unaccessed, so COUNT's `Σ pᵢ`
/// over all `b` continues SUM's `Σ_{i≤a} pᵢ`. MAX and MIN keep their
/// value sort; AVG's bound takes a second pass over the values, which it
/// divides by the count the first pass sums.
pub fn estimate_ball(
    kind: AggregateKind,
    accessed: &[(f64, f64)],
    unaccessed: &[(f64, usize)],
    d_min: f64,
) -> AggregateResult {
    let start = sum_start();
    let closest = accessed.first().map(|m| m.0);
    // The minimum `inverse_distance_probabilities` folds is the first of
    // the sorted distances.
    let nearest = closest.unwrap_or(f64::INFINITY);
    let sampled_extreme = matches!(kind, AggregateKind::Max | AggregateKind::Min);
    let mut sample: Vec<(f64, f64)> = Vec::new();
    let mut min_u = f64::INFINITY;
    let (mut sum_a, mut weighted, mut sum_sq, mut v_max) = (start, start, start, 0.0f64);
    for &(d, v) in accessed {
        let p = inverse_distance_probability(d, nearest);
        sum_a += p;
        weighted += v * p;
        sum_sq += v * v;
        v_max = v_max.max(v.abs());
        if sampled_extreme {
            // MIN is −MAX of the negated values.
            let u = if kind == AggregateKind::Min { -v } else { v };
            min_u = min_u.min(u);
            sample.push((u, p));
        }
    }
    let ref_d = closest.unwrap_or(d_min).max(1e-12);
    let (mut sum_b, mut rest) = (sum_a, 0);
    for &(d, count) in unaccessed {
        let p = (ref_d / d.max(ref_d)).min(1.0);
        for _ in 0..count {
            sum_b += p;
        }
        rest += count;
    }
    let empty = accessed.is_empty();
    let estimate = match kind {
        AggregateKind::Count => sum_b,
        AggregateKind::Sum | AggregateKind::Avg if empty || sum_a <= 0.0 => 0.0,
        AggregateKind::Sum => weighted * (sum_b / sum_a),
        AggregateKind::Avg => weighted / sum_a,
        AggregateKind::Max => max_of_sample(sample, min_u, sum_a),
        AggregateKind::Min => -max_of_sample(sample, min_u, sum_a),
    };
    // v_m for the unaccessed points, estimated from the sample (the
    // paper's no-domain-knowledge alternative). For AVG the paper divides
    // both μ and the martingale increments by the count, so the
    // increment values are vᵢ / E[count].
    let b = accessed.len() + rest;
    let rest = rest as f64;
    let increment_mass = if kind == AggregateKind::Avg {
        let count = sum_b.max(1.0);
        let scaled_sq: f64 = accessed
            .iter()
            .map(|&(_, v)| v / count)
            .map(|v| v * v)
            .sum();
        let v_m = v_max / count;
        scaled_sq + rest * v_m * v_m
    } else {
        sum_sq + rest * v_max * v_max
    };
    AggregateResult {
        estimate,
        accessed: accessed.len(),
        ball_size: b,
        bound: DeviationBound {
            mu: estimate,
            increment_mass,
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sum_with_full_access_is_expected_value() {
        // Full access (a = b): E[s] = Σ vᵢpᵢ · (Σp/Σp) = Σ vᵢpᵢ.
        let values = [10.0, 20.0, 30.0];
        let probs = [1.0, 0.5, 0.25];
        let e = estimate_sum(&values, &probs);
        assert!((e - (10.0 + 10.0 + 7.5)).abs() < 1e-12);
    }

    #[test]
    fn sum_scales_partial_sample() {
        // Access only the first of two identical points: estimator must
        // scale up by Σ_b p / Σ_a p = 1.5/1.0.
        let e = estimate_sum(&[10.0], &[1.0, 0.5]);
        assert!((e - 15.0).abs() < 1e-12);
    }

    #[test]
    fn count_sums_probabilities() {
        assert!((estimate_count(&[1.0, 0.5, 0.25, 0.05]) - 1.8).abs() < 1e-12);
        assert_eq!(estimate_count(&[]), 0.0);
    }

    #[test]
    fn avg_is_weighted_mean() {
        let e = estimate_avg(&[10.0, 30.0], &[1.0, 0.5]);
        assert!((e - (10.0 + 15.0) / 1.5).abs() < 1e-12);
        // Constant values → AVG equals the constant regardless of probs.
        let c = estimate_avg(&[7.0, 7.0, 7.0], &[1.0, 0.3, 0.1]);
        assert!((c - 7.0).abs() < 1e-12);
    }

    #[test]
    fn avg_unaffected_by_unaccessed_probability_mass() {
        let partial = estimate_avg(&[10.0, 30.0], &[1.0, 0.5, 0.4, 0.3]);
        let full_probs = estimate_avg(&[10.0, 30.0], &[1.0, 0.5]);
        assert!((partial - full_probs).abs() < 1e-12);
    }

    #[test]
    fn max_with_certain_point_is_that_point_dominated() {
        // Single certain value: E[M_S] = v; correction (v−v)(1+1/1)+v = v.
        let e = estimate_max(&[42.0], &[1.0]);
        assert!((e - 42.0).abs() < 1e-12);
    }

    #[test]
    fn max_correction_extrapolates_beyond_sample() {
        // Uniform sample far from its own max → estimator exceeds the
        // sample max (the (1 + 1/n) correction of [19]).
        let values = [1.0, 2.0, 3.0, 4.0];
        let probs = [1.0, 1.0, 1.0, 1.0];
        let e = estimate_max(&values, &probs);
        assert!(e > 4.0, "estimate {e} should exceed the sample max");
        assert!(e < 6.0, "estimate {e} unreasonably large");
    }

    #[test]
    fn max_weighs_improbable_large_values_less() {
        let certain = estimate_max(&[10.0, 100.0], &[1.0, 1.0]);
        let unlikely = estimate_max(&[10.0, 100.0], &[1.0, 0.01]);
        assert!(unlikely < certain);
    }

    #[test]
    fn min_mirrors_max() {
        let values = [3.0, 9.0, 1.0];
        let probs = [1.0, 0.5, 0.8];
        let min = estimate_min(&values, &probs);
        let neg: Vec<f64> = values.iter().map(|v| -v).collect();
        let max_of_neg = estimate_max(&neg, &probs);
        assert!((min + max_of_neg).abs() < 1e-12);
        assert!(min < 3.0, "min estimate {min} should be pulled low");
    }

    /// The sample-max loop as Eq. (4) writes it, term by term to the end.
    fn naive_expected_sample_max(pairs: &[(f64, f64)]) -> f64 {
        let mut sum = 0.0;
        let mut none_before = 1.0;
        for &(u, p) in pairs {
            sum += u * none_before * p;
            none_before *= 1.0 - p;
        }
        sum
    }

    /// The early stop changes no bit of `E[M_S]`, on inputs built to
    /// break it: ties, p = 1 (the product drops to zero at once), mixed
    /// signs, huge and tiny values, a sum at a power of two, subnormal
    /// products, non-finite values and probabilities outside [0, 1] —
    /// and on the inputs a served MIN gives it, it stops long before the
    /// end.
    #[test]
    fn early_stop_of_the_sample_max_loop_is_bit_exact() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let sorted = |mut pairs: Vec<(f64, f64)>| {
            sort_by_key_stable(&mut pairs, |x| -x.0);
            pairs
        };
        let mut cases: Vec<Vec<(f64, f64)>> = vec![
            vec![],
            vec![(3.0, 1.0), (2.0, 1.0), (1.0, 0.5)],
            vec![(5.0, 0.5); 200],
            vec![(1e300, 0.9), (-1e300, 0.9), (1e-300, 0.5), (-1e-300, 1.0)],
            vec![(1.0, 0.75), (1e-17, 1.0), (-1e-17, 0.5), (-5e-17, 0.5)],
            vec![(0.5, 1.0), (-1e-16, 0.5), (-1e-16, 0.5), (-1e-16, 0.5)],
            vec![(f64::INFINITY, 0.5), (1.0, 0.5), (f64::NEG_INFINITY, 0.5)],
            vec![(2.0, 0.999), (1.0, 0.999), (f64::NAN, 0.5)],
            vec![(2.0, 0.9), (1.0, 1.5), (0.5, -0.5), (0.25, 0.9)],
            vec![(2.0, 0.9), (1.0, f64::NAN), (0.5, 0.9)],
            vec![(0.0, 0.5), (-0.0, 0.5), (0.0, 1.0)],
            vec![(1e-310, 0.5), (1e-315, 0.9), (-1e-320, 0.5)],
        ];
        let mut rng = StdRng::seed_from_u64(11);
        for round in 0..400 {
            let n = rng.gen_range(1..300);
            let scale = [1.0, 1e-300, 1e300, 1e-5][round % 4];
            cases.push(
                (0..n)
                    .map(|_| {
                        let u = match rng.gen_range(0..4) {
                            0 => rng.gen_range(-1.0..1.0) * scale,
                            1 => rng.gen_range(0..4) as f64,
                            2 => -rng.gen_range(0.0f64..10.0),
                            _ => rng.gen_range(2000.0..2020.0),
                        };
                        let p = match rng.gen_range(0..4) {
                            0 => 1.0,
                            1 => rng.gen_range(0.0..1e-3),
                            _ => rng.gen_range(0.0..=1.0),
                        };
                        (u, p)
                    })
                    .collect(),
            );
        }
        for pairs in cases.into_iter().map(sorted) {
            let (fast, _) = expected_sample_max(&pairs);
            let naive = naive_expected_sample_max(&pairs);
            assert_eq!(fast.to_bits(), naive.to_bits(), "{pairs:?}");
        }

        // A served MIN: negated attribute values in ascending order of
        // the value, with inverse-distance probabilities, so the product
        // runs down through the subnormals unless the loop stops.
        let mut rng = StdRng::seed_from_u64(5);
        let pairs = sorted(
            (0..20_000)
                .map(|_| {
                    let d: f64 = rng.gen_range(1.0..20.0);
                    (-rng.gen_range(1900.0f64..2020.0), 1.0 / d)
                })
                .collect(),
        );
        let (fast, terms) = expected_sample_max(&pairs);
        assert_eq!(fast.to_bits(), naive_expected_sample_max(&pairs).to_bits());
        assert!(terms < pairs.len() / 10, "stopped after {terms} terms");
    }

    /// Cut to the head of the value order or not, `E[M_S]` is the loop
    /// over the whole sorted order, bit for bit: served-like balls (where
    /// the loop stops in the head), probabilities that never let it stop,
    /// ties across the cut, ±0.0, a value range of no width, and inputs
    /// with a probability outside [0, 1] or a non-finite value.
    #[test]
    fn sample_max_from_the_head_is_the_whole_loop() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(8);
        let mut cases: Vec<Vec<(f64, f64)>> = Vec::new();
        for round in 0..24 {
            let n = [4 * HEAD + 1, 20_000, 70_000][round % 3];
            let pairs = (0..n)
                .map(|i| {
                    let u = match round / 3 % 4 {
                        0 => f64::from(rng.gen_range(0..3000u32).pow(2) / 1000),
                        1 => rng.gen_range(-5.0..5.0),
                        2 => [0.0, -0.0, 1.0][i % 3],
                        _ => -f64::from(rng.gen_range(1900..2020)),
                    };
                    let p = match round / 12 {
                        0 => 1.0 / rng.gen_range(1.0..20.0),
                        _ => [0.0, 1e-9][i % 2],
                    };
                    (u, p)
                })
                .collect();
            cases.push(pairs);
        }
        cases.push(vec![(3.0, 0.5); 9000]);
        let mut odd: Vec<(f64, f64)> = (0..9000).map(|i| (f64::from(i), 0.2)).collect();
        odd[17].1 = 1.5;
        cases.push(odd.clone());
        odd[17] = (f64::INFINITY, 0.2);
        cases.push(odd);
        let mut heads = 0;
        for (i, pairs) in cases.into_iter().enumerate() {
            heads += usize::from(sample_max_from_head(&pairs).is_some());
            let mut sorted = pairs.clone();
            sorted.sort_by(|a, b| (-a.0).total_cmp(&-b.0));
            let want = naive_expected_sample_max(&sorted);
            assert_eq!(sample_max_of(pairs).to_bits(), want.to_bits(), "case {i}");
        }
        assert!(heads >= 10, "the head answered {heads} cases");
    }

    #[test]
    fn quarter_ulp_is_a_quarter_of_the_spacing() {
        for x in [1.0, 1.5, -3.0, 1e300, 1e-290, f64::MAX] {
            let up = f64::from_bits(x.abs().to_bits() + 1);
            let ulp = if up.is_finite() {
                up - x.abs()
            } else {
                2f64.powi(971)
            };
            assert_eq!(quarter_ulp(x), ulp / 4.0, "{x}");
        }
        // Where a quarter ulp would be subnormal, 0: no term is skipped.
        for x in [0.0, -0.0, 1e-300, 1e-310] {
            assert_eq!(quarter_ulp(x), 0.0, "{x}");
        }
        assert!(quarter_ulp(f64::INFINITY).is_nan());
        assert!(quarter_ulp(f64::NAN).is_nan());
    }

    /// A [`DistanceSort`] gives the stable `sort_by` permutation: members
    /// below and above its range, ties, ±0.0, a range of no width, one
    /// bucket past the insertion limit, and inputs too short to bucket.
    #[test]
    fn distance_sort_is_the_stable_sort() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(3);
        let mut cases: Vec<(f64, f64, Vec<f64>)> = vec![
            (1.0, 2.0, vec![]),
            (1.0, 2.0, vec![1.5; 300]),
            (1.0, 1.0, (0..400).map(|i| f64::from(i % 7)).collect()),
            (0.0, 1.0, vec![0.0, -0.0, 0.5, -0.0, 0.0, 1.0, 0.5]),
            (
                0.5,
                4.0,
                (0..1000).map(|i| [0.0, -0.0, 0.1, 9.0][i % 4]).collect(),
            ),
            // One bucket, descending: the insertion sort gives up.
            (
                0.0,
                1e3,
                (0..2000).map(|i| 1.0 - f64::from(i / 2) * 1e-6).collect(),
            ),
        ];
        for round in 0..200 {
            let n = [10, 300, 2000][round % 3];
            let (lo, hi): (f64, f64) = (rng.gen_range(0.0..1.0), rng.gen_range(1.0..3.0));
            let keys = (0..n)
                .map(|_| match rng.gen_range(0..5) {
                    0 => rng.gen_range(0..8) as f64 * 0.25,
                    1 => rng.gen_range(hi..hi * 2.0),
                    2 => rng.gen_range(0.0..lo.max(1e-9)),
                    3 => lo + (hi - lo) * 0.5,
                    _ => rng.gen_range(lo..hi),
                })
                .collect();
            cases.push((lo, hi, keys));
        }
        for (i, (lo, hi, keys)) in cases.into_iter().enumerate() {
            let mut sort = DistanceSort::new(lo, hi, keys.len() + i % 3);
            let members: Vec<(f64, f64)> =
                keys.iter().zip(0..).map(|(&d, j)| (d, j as f64)).collect();
            for &(d, v) in &members {
                sort.push(d, v);
            }
            let mut want = members;
            want.sort_by(|a, b| a.0.total_cmp(&b.0));
            let got = sort.into_sorted();
            let bits = |v: &[(f64, f64)]| -> Vec<(u64, u64)> {
                v.iter().map(|m| (m.0.to_bits(), m.1.to_bits())).collect()
            };
            assert_eq!(bits(&got), bits(&want), "case {i}: [{lo}, {hi}]");
        }
    }

    /// [`sort_by_key_stable`] gives the stable `sort_by` permutation,
    /// on keys spread evenly, piled into one bucket by an outlier (where
    /// the insertion sort gives up), with ties, ±0.0 and non-finite keys.
    #[test]
    fn sort_by_key_stable_is_the_stable_sort() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(4);
        let mut cases: Vec<Vec<f64>> = vec![
            (0..3000).map(|i| -f64::from(i / 3)).chain([1e12]).collect(),
            (0..500).map(|i| [0.0, -0.0, 2.0][i % 3]).collect(),
            (0..500).map(|i| [1.0, f64::INFINITY, 2.0][i % 3]).collect(),
            (0..500).map(|i| [1.0, f64::NAN, -2.0][i % 3]).collect(),
        ];
        for n in [255, 256, 1000, 70_000] {
            cases.push(
                (0..n)
                    .map(|_| f64::from(rng.gen_range(-50..50)) * 0.5)
                    .collect(),
            );
            cases.push((0..n).map(|_| rng.gen_range(-1e3..1e3)).collect());
        }
        for (i, keys) in cases.into_iter().enumerate() {
            let mut got: Vec<(f64, usize)> = keys.into_iter().zip(0..).collect();
            let mut want = got.clone();
            want.sort_by(|a, b| a.0.total_cmp(&b.0));
            sort_by_key_stable(&mut got, |x| x.0);
            let bits = |v: &[(f64, usize)]| -> Vec<(u64, usize)> {
                v.iter().map(|m| (m.0.to_bits(), m.1)).collect()
            };
            assert_eq!(bits(&got), bits(&want), "case {i}");
        }
    }

    /// The one-pass estimator against the estimators and the bound it
    /// folds, bit for bit: every kind, with and without unaccessed
    /// members, no accessed member, zero distances and values of both
    /// signs.
    #[test]
    fn estimate_ball_is_the_separate_passes() {
        use super::super::probability::inverse_distance_probabilities;
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(9);
        let kinds = [
            AggregateKind::Count,
            AggregateKind::Sum,
            AggregateKind::Avg,
            AggregateKind::Max,
            AggregateKind::Min,
        ];
        for round in 0..300 {
            let a = [0, 1, 2, 20, 500][round % 5];
            let b = a + [0, 3, 1000][round / 5 % 3];
            let mut accessed: Vec<(f64, f64)> = (0..a)
                .map(|_| {
                    let d = if rng.gen_range(0..10) == 0 {
                        0.0
                    } else {
                        rng.gen_range(0.0..5.0)
                    };
                    (
                        d,
                        rng.gen_range(-3.0..3.0) * [1.0, 1e-300, 1e200][round % 3],
                    )
                })
                .collect();
            accessed.sort_by(|x, y| x.0.total_cmp(&y.0));
            let mut unaccessed: Vec<(f64, usize)> = Vec::new();
            let mut left = b - a;
            while left > 0 {
                let count = rng.gen_range(0..=left.min(40));
                unaccessed.push((rng.gen_range(0.0..6.0), count));
                left -= count;
            }
            let d_min = rng.gen_range(0.0..1.0);
            for kind in kinds {
                let got = estimate_ball(kind, &accessed, &unaccessed, d_min);

                let distances: Vec<f64> = accessed.iter().map(|m| m.0).collect();
                let values: Vec<f64> = accessed.iter().map(|m| m.1).collect();
                let ref_d = distances.first().copied().unwrap_or(d_min).max(1e-12);
                let mut probs = inverse_distance_probabilities(&distances);
                let expanded = unaccessed
                    .iter()
                    .flat_map(|&(d, n)| std::iter::repeat_n(d, n));
                probs.extend(expanded.map(|d| (ref_d / d.max(ref_d)).min(1.0)));
                let estimate = match kind {
                    AggregateKind::Count => estimate_count(&probs),
                    AggregateKind::Sum => estimate_sum(&values, &probs),
                    AggregateKind::Avg => estimate_avg(&values, &probs),
                    AggregateKind::Max => estimate_max(&values, &probs[..a]),
                    AggregateKind::Min => estimate_min(&values, &probs[..a]),
                };
                let v_max = values.iter().fold(0.0f64, |m, v| m.max(v.abs()));
                let bound = if kind == AggregateKind::Avg {
                    let count = estimate_count(&probs).max(1.0);
                    let scaled: Vec<f64> = values.iter().map(|v| v / count).collect();
                    deviation_bound(estimate, &scaled, &probs[a..], v_max / count)
                } else {
                    deviation_bound(estimate, &values, &probs[a..], v_max)
                };
                assert_eq!(
                    (
                        got.estimate.to_bits(),
                        got.bound.mu.to_bits(),
                        got.bound.increment_mass.to_bits(),
                        got.accessed,
                        got.ball_size,
                    ),
                    (
                        estimate.to_bits(),
                        bound.mu.to_bits(),
                        bound.increment_mass.to_bits(),
                        a,
                        b,
                    ),
                    "round {round} {kind:?}"
                );
            }
        }
    }

    #[test]
    fn empty_inputs() {
        assert_eq!(estimate_sum(&[], &[]), 0.0);
        assert_eq!(estimate_avg(&[], &[]), 0.0);
        assert_eq!(estimate_max(&[], &[]), 0.0);
        assert_eq!(estimate_min(&[], &[]), 0.0);
    }

    #[test]
    fn deviation_bound_monotone_in_delta() {
        let b = deviation_bound(100.0, &[5.0, 5.0, 5.0], &[1.0; 10], 5.0);
        let mut prev = f64::INFINITY;
        for d in [0.01, 0.05, 0.1, 0.5, 1.0] {
            let p = b.tail_probability(d);
            assert!(p <= prev);
            assert!((0.0..=1.0).contains(&p));
            prev = p;
        }
    }

    #[test]
    fn deviation_bound_tightens_with_more_access() {
        // Accessing more points moves mass from (b−a)v_m² to Σ v² with
        // smaller values → smaller increment mass → tighter bound.
        let loose = deviation_bound(100.0, &[5.0], &[1.0; 20], 10.0);
        let tight = deviation_bound(100.0, &[5.0; 15], &[1.0; 6], 10.0);
        assert!(tight.increment_mass < loose.increment_mass);
        assert!(tight.tail_probability(0.1) <= loose.tail_probability(0.1));
    }

    #[test]
    fn confidence_inversion_roundtrip() {
        let b = deviation_bound(50.0, &[2.0; 10], &[1.0; 5], 3.0);
        for conf in [0.5, 0.9, 0.99] {
            let delta = b.delta_for_confidence(conf);
            let tail = b.tail_probability(delta);
            assert!(
                tail <= 1.0 - conf + 1e-9,
                "conf {conf}: δ {delta} gives tail {tail}"
            );
        }
    }

    #[test]
    fn exact_estimate_has_zero_tail() {
        let b = deviation_bound(10.0, &[], &[], 0.0);
        assert_eq!(b.tail_probability(0.5), 0.0);
        assert_eq!(b.delta_for_confidence(0.99), 0.0);
    }

    #[test]
    fn spec_builders() {
        let c = AggregateSpec::count(0.05);
        assert_eq!(c.kind, AggregateKind::Count);
        assert!(c.attribute.is_none());
        let s = AggregateSpec::of(AggregateKind::Avg, "year", 0.01).with_sample(100);
        assert_eq!(s.kind, AggregateKind::Avg);
        assert_eq!(s.attribute.as_deref(), Some("year"));
        assert_eq!(s.sample_size, Some(100));
    }
}
