//! Target-steered reduction schedules.
//!
//! A [`Steerer`] generalizes Dadda: every stage but the last follows the
//! Dadda height bounds, while the last stage consumes columns down to a
//! requested 1/2 profile where bit availability and same-stage carries
//! permit — always respecting the paper's Eq. (4) (no compressor at the
//! leftmost column, so the BCV length never grows) unless the modular
//! rule is asked for.
//!
//! Targets are clamped to `1..=2` in every stage, and a stage with `r ≥ 1`
//! stages after it aims at the Dadda bound `wallace_height_bound(r) ≥ 3`,
//! so no stage before the last depends on the target.
//! [`Steerer::new`] runs those stages once; [`Steerer::toward`] runs only
//! the last one, in `O(n)`, into reused buffers. Target search steers
//! hundreds of targets against one matrix this way.
//! [`schedule_toward_target`] and [`schedule_toward_target_modular`] are
//! the one-target forms.
//!
//! [`required_stages`] returns the smallest stage count for which a full
//! reduction under that rule exists. For AND-array matrices this equals
//! the Wallace stage count; some Booth-style profiles need one extra stage
//! because their top column may not absorb an incoming carry while
//! holding more than one bit.

use crate::bcv::{min_stages, wallace_height_bound, Bcv};
use crate::schedule::{CompressionSchedule, StageCounts};

/// The steered generator for one matrix and stage count, with its
/// target-independent stages already run.
#[derive(Debug, Clone)]
pub struct Steerer {
    modular: bool,
    /// Every stage but the last (all `s − 1` of them follow Dadda bounds).
    head: CompressionSchedule,
    /// 3:2 and 2:2 totals over `head`.
    head_full: u64,
    head_half: u64,
    /// The BCV `head` leaves: `V_{s−1}`, or `V₀` when `s = 0`.
    mid: Vec<u32>,
    /// The last stage of the latest [`toward`](Self::toward), reused
    /// between calls; `None` when `s = 0`.
    last: Option<StageCounts>,
    /// 3:2 and 2:2 totals over `last`.
    last_full: u64,
    last_half: u64,
    /// The BCV `last` leaves (the achieved `V_s`), reused between calls.
    achieved: Vec<u32>,
}

impl Steerer {
    /// Runs the target-independent stages of an `s`-stage reduction of
    /// `v0`. With `modular`, compressors may sit at the leftmost column,
    /// growing the BCV by one column per stage if carries demand it (see
    /// [`schedule_toward_target_modular`]).
    pub fn new(v0: &Bcv, s: usize, modular: bool) -> Steerer {
        let mut head = CompressionSchedule::new();
        let mut v = v0.clone();
        for stage_no in 1..s {
            let bound = wallace_height_bound((s - stage_no) as u32) as u32;
            let mut stage = StageCounts::default();
            steer_stage(v.counts(), |_| bound, modular, &mut stage);
            v = CompressionSchedule::apply_stage(head.stages.len(), &stage, &v)
                .expect("a steered stage never over-subscribes a column");
            head.stages.push(stage);
        }
        Steerer {
            modular,
            head_full: head.num_full(),
            head_half: head.num_half(),
            head,
            mid: v.counts().to_vec(),
            last: (s > 0).then(StageCounts::default),
            last_full: 0,
            last_half: 0,
            achieved: Vec::new(),
        }
    }

    /// Runs the last stage toward `target` (entries clamped to `1..=2`;
    /// columns past its end aim at 2): each column is consumed down to its
    /// target where bit availability and same-stage carries permit.
    ///
    /// Returns `None` when the achieved BCV is not a valid CPA input (some
    /// column above 2 bits, or an empty column). The achieved BCV may
    /// differ from `target` where a same-stage carry makes height 1
    /// impossible; read it from [`Steered::achieved`].
    pub fn toward(&mut self, target: &[u32]) -> Option<Steered<'_>> {
        self.achieved.clear();
        match self.last.as_mut() {
            None => self.achieved.extend_from_slice(&self.mid),
            Some(last) => {
                let goal = |j: usize| target.get(j).copied().unwrap_or(2).clamp(1, 2);
                steer_stage(&self.mid, goal, self.modular, last);
                // Eq. (7) for one stage, as `CompressionSchedule::apply_stage`.
                let mut carry_in = 0;
                for (j, &bits) in self.mid.iter().enumerate() {
                    let (f, h) = (last.full[j], last.half[j]);
                    self.achieved.push(bits - 2 * f - h + carry_in);
                    carry_in = f + h;
                }
                if carry_in > 0 {
                    self.achieved.push(carry_in);
                }
                self.last_full = last.full.iter().map(|&f| f as u64).sum();
                self.last_half = last.half.iter().map(|&h| h as u64).sum();
            }
        }
        let valid = self.achieved.iter().all(|c| (1..=2).contains(c));
        valid.then_some(Steered { steerer: self })
    }
}

/// One steered reduction: a [`Steerer`]'s shared stages plus the last
/// stage of its latest [`Steerer::toward`].
#[derive(Debug, Clone, Copy)]
pub struct Steered<'a> {
    steerer: &'a Steerer,
}

impl Steered<'_> {
    /// The achieved final column heights (LSB first, each 1 or 2).
    pub fn achieved(&self) -> &[u32] {
        &self.steerer.achieved
    }

    /// The last stage's compressor counts; `None` for a 0-stage schedule.
    pub fn last_stage(&self) -> Option<&StageCounts> {
        self.steerer.last.as_ref()
    }

    /// The CT cost `α·F + β·H` of the whole schedule, equal to
    /// [`CompressionSchedule::cost`] on [`schedule`](Self::schedule).
    pub fn ct_cost(&self, alpha: f64, beta: f64) -> f64 {
        let st = self.steerer;
        alpha * (st.head_full + st.last_full) as f64 + beta * (st.head_half + st.last_half) as f64
    }

    /// The whole schedule: the shared stages, then the last one.
    pub fn schedule(&self) -> CompressionSchedule {
        let mut sched = self.steerer.head.clone();
        sched.stages.extend(self.last_stage().cloned());
        sched
    }

    /// The achieved final BCV.
    pub fn bcv(&self) -> Bcv {
        Bcv::new(self.achieved().to_vec())
    }
}

/// Fills `stage` with one steered stage over `v`: each column takes as
/// many 3:2s, then 2:2s, as bring its height (bits plus same-stage
/// carries in) down to `goal(j)` without over-subscribing its bits. The
/// leftmost column hosts no compressor unless `modular` (Eq. 4).
fn steer_stage(v: &[u32], goal: impl Fn(usize) -> u32, modular: bool, stage: &mut StageCounts) {
    let w = v.len();
    stage.full.clear();
    stage.half.clear();
    let mut carry_in = 0u32;
    for (j, &bits) in v.iter().enumerate() {
        let goal = goal(j);
        let mut height = bits + carry_in;
        let mut f = 0u32;
        let mut h = 0u32;
        if j + 1 < w || modular {
            while height > goal && 3 * (f + 1) <= bits && height >= goal + 2 {
                f += 1;
                height -= 2;
            }
            while height > goal && 3 * f + 2 * (h + 1) <= bits {
                h += 1;
                height -= 1;
            }
        }
        stage.full.push(f);
        stage.half.push(h);
        carry_in = f + h;
    }
}

/// Builds a compression schedule that steers the final BCV toward
/// `target` (entries clamped to `1..=2`) within `s` stages, under the
/// strict rule (Eq. 4). One-target form of [`Steerer::toward`].
///
/// Returns `None` when the matrix cannot be reduced to height ≤ 2 in `s`
/// stages this way. The *achieved* BCV may differ from `target` where a
/// same-stage carry makes height 1 impossible; it is returned alongside.
pub fn schedule_toward_target(
    v0: &Bcv,
    s: usize,
    target: &[u32],
) -> Option<(CompressionSchedule, Bcv)> {
    steer_once(v0, s, target, false)
}

/// Like [`schedule_toward_target`] but *modular*: compressors may be
/// applied at the leftmost column, growing the BCV by one column per
/// stage if carries demand it. Sound whenever the matrix width equals the
/// full product width (Booth and Baugh-Wooley matrices are `2m` wide), as
/// the extra column's weight is `2^{2m} ≡ 0` and gets truncated. Some
/// Booth radix-8 profiles are unreducible under the strict rule and need
/// this.
pub fn schedule_toward_target_modular(
    v0: &Bcv,
    s: usize,
    target: &[u32],
) -> Option<(CompressionSchedule, Bcv)> {
    steer_once(v0, s, target, true)
}

fn steer_once(
    v0: &Bcv,
    s: usize,
    target: &[u32],
    modular: bool,
) -> Option<(CompressionSchedule, Bcv)> {
    let mut steerer = Steerer::new(v0, s, modular);
    let steered = steerer.toward(target)?;
    Some((steered.schedule(), steered.bcv()))
}

/// The smallest stage count that can fully reduce `v0` under the strict
/// no-leftmost-compressor rule (Eq. 4), or `None` when no such reduction
/// exists at all — e.g. a Booth radix-8 profile whose top column cannot
/// absorb the carry a taller neighbour must emit.
pub fn try_required_stages(v0: &Bcv) -> Option<usize> {
    let base = min_stages(v0.height()) as usize;
    let all2 = vec![2u32; v0.len()];
    (base..=base + 4)
        .find(|&s| v0.is_reduced() || schedule_toward_target(v0, s.max(1), &all2).is_some())
}

/// The smallest stage count that can fully reduce `v0` under the strict
/// no-leftmost-compressor rule; at least the Wallace stage count.
///
/// # Panics
///
/// Panics if no strict reduction exists (see [`try_required_stages`]).
pub fn required_stages(v0: &Bcv) -> usize {
    try_required_stages(v0).unwrap_or_else(|| panic!("no leftmost-free schedule exists for {v0}"))
}

/// The smallest stage count that fully reduces `v0` when leftmost-column
/// compressors (and the resulting width growth) are allowed — always
/// exists.
///
/// # Panics
///
/// Panics only on internal inconsistency (the modular rule can always
/// reduce within `min_stages + 5`).
pub fn required_stages_modular(v0: &Bcv) -> usize {
    let base = min_stages(v0.height()) as usize;
    let all2 = vec![2u32; v0.len() + 8];
    (base..=base + 5)
        .find(|&s| v0.is_reduced() || schedule_toward_target_modular(v0, s.max(1), &all2).is_some())
        .unwrap_or_else(|| panic!("modular reduction failed for {v0} (internal error)"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn and_ppg_needs_exactly_wallace_stages() {
        for m in [4usize, 8, 16, 32, 64] {
            let v0 = Bcv::and_ppg(m);
            assert_eq!(required_stages(&v0) as u32, min_stages(m as u32), "m={m}");
        }
    }

    #[test]
    fn top_column_of_height_three_is_strictly_unreducible() {
        // A top column of height 3 can never be compressed under Eq. 4 —
        // no stage count helps; only the modular rule reduces it.
        let v0 = Bcv::new(vec![3, 3, 3]);
        assert_eq!(try_required_stages(&v0), None);
        let s = required_stages_modular(&v0);
        let all2 = vec![2u32; 8];
        let (sched, vs) = schedule_toward_target_modular(&v0, s, &all2).unwrap();
        assert!(vs.is_reduced());
        assert_eq!(sched.final_bcv(&v0).unwrap(), vs);
    }

    #[test]
    fn reduced_matrices_need_zero_stages() {
        assert_eq!(required_stages(&Bcv::new(vec![1, 2, 2])), 0);
    }

    #[test]
    fn strictly_unreducible_profile_is_detected_and_modular_handles_it() {
        // Top column height 2 next to a height-3 column: any compressor at
        // the neighbour pushes the top to 3, which may never be compressed
        // under Eq. 4 — strictly unreducible.
        // LSB-first; the top (last) column holds 2 bits next to a
        // height-3 column — the profile the radix-8 Booth PPG emits at
        // m = 6.
        let v0 = Bcv::new(vec![2, 1, 1, 3, 2, 2, 2, 2, 2, 3, 2, 2]);
        assert_eq!(try_required_stages(&v0), None);
        let s = required_stages_modular(&v0);
        let all2 = vec![2u32; v0.len() + 4];
        let (sched, vs) = schedule_toward_target_modular(&v0, s, &all2).unwrap();
        assert!(vs.is_reduced());
        assert_eq!(sched.final_bcv(&v0).unwrap(), vs);
        assert!(vs.len() > v0.len(), "width must have grown");
    }
}
