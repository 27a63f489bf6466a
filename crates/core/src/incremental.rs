//! Incremental selection maintenance for streaming corpora.
//!
//! Review streams never stop; §4.1.1 notes every target product is an
//! independent problem instance, but *within* an instance a new review
//! changes the item's candidate set and its target vector τᵢ (and Γ when
//! the target item grows). Re-solving everything per arriving review is
//! wasteful: [`IncrementalSession`] keeps a solved instance alive and,
//! on arrival,
//!
//! 1. appends the review and refreshes τᵢ (and Γ if `i == 0`);
//! 2. re-runs Integer-Regression for the affected item only, against the
//!    other items' *current* selections (one step of Algorithm 1);
//! 3. optionally runs a full refresh sweep when drift accumulates.
//!
//! The affected-item update touches `O(m³ + |ℛᵢ|·m)` work instead of the
//! full `O((m³ + |ℛ̄|·m)·n)` resolve, and the session tracks objective
//! drift so callers can trigger [`IncrementalSession::refresh`] on a
//! budget.

use crate::comparesets::{or_single_review, plus_step, solve_comparesets_plus_with};
use crate::instance::{InstanceContext, ReviewFeature, Selection};
use crate::objective::comparesets_plus_objective;
use crate::{SelectParams, SolveOptions};
use comparesets_data::ReviewId;
use comparesets_linalg::NompWorkspace;

/// One corpus mutation addressed to a session item — the in-memory twin
/// of `comparesets_data::ReviewEvent`, carrying the already-extracted
/// [`ReviewFeature`] instead of raw dataset annotations.
#[derive(Debug, Clone)]
pub enum SessionEvent {
    /// Append a new review to item `item`.
    Add {
        /// Session item index (0 = target).
        item: usize,
        /// Dataset review id of the new review.
        id: ReviewId,
        /// Its extracted annotation feature.
        feature: ReviewFeature,
    },
    /// Replace the feature of an existing review.
    Edit {
        /// Session item index (0 = target).
        item: usize,
        /// Dataset review id to edit.
        id: ReviewId,
        /// The replacement feature.
        feature: ReviewFeature,
    },
    /// Remove a review from its item's candidate set.
    Delete {
        /// Session item index (0 = target).
        item: usize,
        /// Dataset review id to remove.
        id: ReviewId,
    },
}

/// A live selection over one comparison instance.
#[derive(Debug, Clone)]
pub struct IncrementalSession {
    ctx: InstanceContext,
    params: SelectParams,
    opts: SolveOptions,
    selections: Vec<Selection>,
    updates_since_refresh: usize,
    /// Pursuit scratch reused by every per-review update and refresh.
    workspace: NompWorkspace,
}

impl IncrementalSession {
    /// Solve the instance from scratch and start a session.
    pub fn new(ctx: InstanceContext, params: SelectParams) -> Self {
        IncrementalSession::with_options(ctx, params, SolveOptions::default())
    }

    /// [`IncrementalSession::new`] with execution options; the options
    /// apply to the initial solve and every [`IncrementalSession::refresh`].
    pub fn with_options(ctx: InstanceContext, params: SelectParams, opts: SolveOptions) -> Self {
        let selections = solve_comparesets_plus_with(&ctx, &params, &opts);
        IncrementalSession {
            ctx,
            params,
            opts,
            selections,
            updates_since_refresh: 0,
            workspace: NompWorkspace::new(),
        }
    }

    /// Current selections (aligned with the context's items).
    pub fn selections(&self) -> &[Selection] {
        &self.selections
    }

    /// The live instance context.
    pub fn context(&self) -> &InstanceContext {
        &self.ctx
    }

    /// Current Equation-5 objective.
    pub fn objective(&self) -> f64 {
        comparesets_plus_objective(
            &self.ctx,
            &self.selections,
            self.params.lambda,
            self.params.mu,
        )
    }

    /// Number of single-item updates applied since the last full refresh.
    pub fn updates_since_refresh(&self) -> usize {
        self.updates_since_refresh
    }

    /// Ingest a new review for item `i` and re-select that item.
    ///
    /// # Panics
    /// Panics when `i` is out of range.
    pub fn add_review(&mut self, i: usize, id: ReviewId, feature: ReviewFeature) {
        assert!(i < self.ctx.num_items(), "item index out of range");
        self.ctx.push_review(i, id, feature);
        self.reselect_item(i);
        self.updates_since_refresh += 1;
    }

    /// Replace review `id`'s annotations on item `i` and re-select that
    /// item. Selection indices stay valid (positions are unchanged); the
    /// item's targets and candidate matrix are rebuilt.
    ///
    /// # Panics
    /// Panics when `i` is out of range or `id` is not one of item `i`'s
    /// reviews.
    pub fn edit_review(&mut self, i: usize, id: ReviewId, feature: ReviewFeature) {
        assert!(i < self.ctx.num_items(), "item index out of range");
        self.ctx.edit_review(i, id, feature);
        self.reselect_item(i);
        self.updates_since_refresh += 1;
    }

    /// Remove review `id` from item `i` and re-select that item. The
    /// current selection's indices are remapped first (the deleted
    /// position drops out, later positions shift down), so the kept
    /// selection stays a valid subset of the shrunken candidate set.
    ///
    /// # Panics
    /// Panics when `i` is out of range, `id` is not one of item `i`'s
    /// reviews, or the delete would leave the item with no reviews (a
    /// solvable item needs at least one candidate).
    pub fn delete_review(&mut self, i: usize, id: ReviewId) {
        assert!(i < self.ctx.num_items(), "item index out of range");
        assert!(
            self.ctx.item(i).num_reviews() > 1,
            "cannot delete the last review of an item"
        );
        let Some(pos) = self.ctx.position_of(i, id) else {
            panic!("review {id:?} is not part of item {i}");
        };
        self.ctx.remove_review(i, id);
        let old = std::mem::take(&mut self.selections[i].indices);
        self.selections[i].indices = old
            .into_iter()
            .filter(|&r| r != pos)
            .map(|r| if r > pos { r - 1 } else { r })
            .collect();
        if self.selections[i].is_empty() {
            // The whole selection was deleted; seed a valid placeholder
            // so the better-of-old-new comparison below has a feasible
            // incumbent.
            self.selections[i] = Selection::new(vec![0]);
        }
        self.reselect_item(i);
        self.updates_since_refresh += 1;
    }

    /// Apply one [`SessionEvent`] — the dispatcher the streaming replay
    /// path uses.
    ///
    /// # Panics
    /// As for [`add_review`](Self::add_review),
    /// [`edit_review`](Self::edit_review), and
    /// [`delete_review`](Self::delete_review).
    pub fn apply_event(&mut self, event: &SessionEvent) {
        match event {
            SessionEvent::Add { item, id, feature } => {
                self.add_review(*item, *id, feature.clone());
            }
            SessionEvent::Edit { item, id, feature } => {
                self.edit_review(*item, *id, feature.clone());
            }
            SessionEvent::Delete { item, id } => self.delete_review(*item, *id),
        }
    }

    /// Rebuild a session from durable state: a context recovered from a
    /// snapshot plus the WAL-tail events that post-date it. All events
    /// are folded into the context *first*, then one cold solve runs —
    /// so the recovered session is byte-identical to a session started
    /// cold on the final corpus (the crash-recovery identity the
    /// streaming tests pin).
    ///
    /// # Panics
    /// As for [`apply_event`](Self::apply_event), for events that do not
    /// apply to the snapshot state.
    pub fn replay(
        mut ctx: InstanceContext,
        params: SelectParams,
        opts: SolveOptions,
        events: &[SessionEvent],
    ) -> Self {
        for event in events {
            ctx.apply_session_event(event);
        }
        IncrementalSession::with_options(ctx, params, opts)
    }

    /// One step of Algorithm 1 for item `i` against the other items'
    /// current selections; keeps the better of old/new selection. (The
    /// old selection's indices are valid by construction: appends and
    /// edits leave positions unchanged, deletes remap first.)
    ///
    /// The step runs without an answer memo: it only ever follows a
    /// mutation of item `i`, after which a memo of that item would have
    /// to be dropped anyway.
    fn reselect_item(&mut self, i: usize) {
        // A fired session token skips the re-selection entirely: the old
        // selection stays valid and is the anytime iterate.
        if self.opts.ctl().is_cancelled() {
            return;
        }
        let ctx = &self.ctx;
        let others: Vec<Vec<f64>> = (0..ctx.num_items())
            .filter(|&j| j != i)
            .map(|j| ctx.space().phi(ctx.item(j), &self.selections[j].indices))
            .collect();
        let other_phis: Vec<&[f64]> = others.iter().map(Vec::as_slice).collect();
        let (solved, cost) = plus_step(
            ctx,
            i,
            &other_phis,
            &self.params,
            &self.opts,
            &mut self.workspace,
            None,
        );
        let candidate = or_single_review(solved, ctx.item(i), self.params.m, &cost);
        if cost(&candidate) < cost(&self.selections[i]) {
            self.selections[i] = candidate;
        }
    }

    /// Full re-solve (CompaReSetS + one Algorithm-1 sweep); adopts the
    /// result only when it improves the Equation-5 objective, and resets
    /// the drift counter either way.
    pub fn refresh(&mut self) {
        let fresh = solve_comparesets_plus_with(&self.ctx, &self.params, &self.opts);
        let current = self.objective();
        let candidate =
            comparesets_plus_objective(&self.ctx, &fresh, self.params.lambda, self.params.mu);
        if candidate < current {
            self.selections = fresh;
        }
        self.updates_since_refresh = 0;
    }
}

impl InstanceContext {
    /// Append a review to item `i`, refreshing τᵢ (and Γ when the target
    /// item grows). Selections indexing earlier reviews stay valid.
    ///
    /// # Panics
    /// Panics when `i` is out of range.
    pub fn push_review(&mut self, i: usize, id: ReviewId, feature: ReviewFeature) {
        let n = self.num_items();
        assert!(i < n, "item index out of range");
        self.push_review_internal(i, id, feature);
    }

    /// Replace review `id`'s feature on item `i`, refreshing τᵢ (and Γ
    /// when `i` is the target). Positions are unchanged, so selections
    /// stay valid.
    ///
    /// # Panics
    /// Panics when `i` is out of range or `id` is not one of item `i`'s
    /// reviews.
    pub fn edit_review(&mut self, i: usize, id: ReviewId, feature: ReviewFeature) {
        assert!(i < self.num_items(), "item index out of range");
        let Some(pos) = self.position_of(i, id) else {
            panic!("review {id:?} is not part of item {i}");
        };
        self.edit_review_internal(i, pos, feature);
    }

    /// Remove review `id` from item `i`, refreshing τᵢ (and Γ when `i`
    /// is the target). Later positions shift down by one — callers
    /// holding selections must remap them (see
    /// [`IncrementalSession::delete_review`]).
    ///
    /// # Panics
    /// Panics when `i` is out of range, `id` is not one of item `i`'s
    /// reviews, or the item would be left with no reviews.
    pub fn remove_review(&mut self, i: usize, id: ReviewId) {
        assert!(i < self.num_items(), "item index out of range");
        assert!(
            self.item(i).num_reviews() > 1,
            "cannot delete the last review of an item"
        );
        let Some(pos) = self.position_of(i, id) else {
            panic!("review {id:?} is not part of item {i}");
        };
        self.remove_review_internal(i, pos);
    }

    /// Fold one [`SessionEvent`] into the context *without* re-selecting
    /// anything — the replay fast path: apply the whole WAL tail, then
    /// solve once.
    ///
    /// # Panics
    /// As for [`push_review`](Self::push_review),
    /// [`edit_review`](Self::edit_review), and
    /// [`remove_review`](Self::remove_review).
    pub fn apply_session_event(&mut self, event: &SessionEvent) {
        match event {
            SessionEvent::Add { item, id, feature } => {
                self.push_review(*item, *id, feature.clone());
            }
            SessionEvent::Edit { item, id, feature } => {
                self.edit_review(*item, *id, feature.clone());
            }
            SessionEvent::Delete { item, id } => self.remove_review(*item, *id),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::comparesets::solve_comparesets_plus;
    use crate::space::OpinionScheme;
    use comparesets_data::{CategoryPreset, Polarity};

    fn session() -> IncrementalSession {
        let d = CategoryPreset::Cellphone.config(60, 21).generate();
        let inst = d.instances().into_iter().next().unwrap().truncated(3);
        let ctx = InstanceContext::build(&d, &inst, OpinionScheme::Binary);
        IncrementalSession::new(ctx, SelectParams::default())
    }

    fn feature(aspect: usize, pol: Polarity) -> ReviewFeature {
        ReviewFeature::new(vec![(aspect, pol)])
    }

    #[test]
    fn add_review_grows_item_and_keeps_valid_selection() {
        let mut s = session();
        let before = s.context().item(1).num_reviews();
        s.add_review(1, ReviewId(900_001), feature(0, Polarity::Positive));
        assert_eq!(s.context().item(1).num_reviews(), before + 1);
        assert_eq!(s.updates_since_refresh(), 1);
        for (i, sel) in s.selections().iter().enumerate() {
            assert!(!sel.is_empty());
            assert!(sel.len() <= 3);
            assert!(sel
                .indices
                .iter()
                .all(|&r| r < s.context().item(i).num_reviews()));
        }
    }

    #[test]
    fn target_growth_refreshes_gamma() {
        let mut s = session();
        // An aspect the target never mentioned: its Γ entry starts at 0.
        let z = s.context().space().num_aspects();
        let absent = (0..z)
            .find(|&a| s.context().gamma()[a] == 0.0)
            .expect("some absent aspect");
        for k in 0..7 {
            s.add_review(
                0,
                ReviewId(900_100 + k),
                feature(absent, Polarity::Positive),
            );
        }
        assert!(
            s.context().gamma()[absent] > 0.0,
            "gamma must track the target's new aspect"
        );
    }

    #[test]
    fn incremental_tracks_scratch_solution_quality() {
        let mut s = session();
        // Stream a batch of reviews into the target item.
        for k in 0..5 {
            s.add_review(
                0,
                ReviewId(901_000 + k),
                feature((k % 3) as usize, Polarity::Negative),
            );
        }
        let incremental_obj = s.objective();
        // From-scratch resolve on the grown context.
        let scratch = solve_comparesets_plus(s.context(), &SelectParams::default());
        let scratch_obj = comparesets_plus_objective(s.context(), &scratch, 1.0, 0.1);
        // The incremental solution may lag the scratch one, but not by
        // much — and never the other way by construction of refresh().
        assert!(
            incremental_obj <= scratch_obj * 1.5 + 0.5,
            "incremental {incremental_obj} vs scratch {scratch_obj}"
        );
        s.refresh();
        assert!(s.objective() <= incremental_obj + 1e-9);
        assert_eq!(s.updates_since_refresh(), 0);
    }

    #[test]
    fn refresh_never_worsens_objective() {
        let mut s = session();
        for k in 0..3 {
            s.add_review(1, ReviewId(902_000 + k), feature(1, Polarity::Positive));
        }
        let before = s.objective();
        s.refresh();
        assert!(s.objective() <= before + 1e-9);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn bad_item_index_panics() {
        let mut s = session();
        s.add_review(99, ReviewId(1), feature(0, Polarity::Positive));
    }
}
