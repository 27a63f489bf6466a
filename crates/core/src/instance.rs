//! Problem-instance preparation.
//!
//! The solvers operate on a compact, dataset-independent view of one
//! comparison instance: every item carries its reviews as
//! [`ReviewFeature`]s (deduplicated `(aspect, polarity)` mentions), and
//! [`InstanceContext`] precomputes the optimisation targets —
//! `τᵢ = π(ℛᵢ)` per item and `Γ = φ(ℛ₁)` from the target item (§4.1.4).

use comparesets_data::{ComparisonInstance, Dataset, Polarity, ProductId, ReviewId};

use crate::space::{OpinionScheme, VectorSpace};

/// The annotations of one review, reduced to what the selection algorithms
/// consume: a sorted, deduplicated list of `(aspect index, polarity)`.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct ReviewFeature {
    /// Sorted, deduplicated aspect mentions.
    pub mentions: Vec<(usize, Polarity)>,
}

impl ReviewFeature {
    /// Normalise raw mentions: sort and deduplicate.
    pub fn new(mut mentions: Vec<(usize, Polarity)>) -> Self {
        mentions.sort_by_key(|&(a, p)| (a, polarity_rank(p)));
        mentions.dedup();
        ReviewFeature { mentions }
    }
}

fn polarity_rank(p: Polarity) -> u8 {
    match p {
        Polarity::Positive => 0,
        Polarity::Negative => 1,
        Polarity::Neutral => 2,
    }
}

/// One item of an instance: a product with its candidate reviews.
#[derive(Debug, Clone)]
pub struct Item {
    /// The product this item represents.
    pub product: ProductId,
    /// The dataset review ids, parallel to `features`.
    pub review_ids: Vec<ReviewId>,
    /// Per-review annotation features.
    pub features: Vec<ReviewFeature>,
}

impl Item {
    /// Build an item directly from `(review id, mentions)` pairs — used by
    /// tests and synthetic micro-examples.
    pub fn from_mentions(
        product: ProductId,
        reviews: Vec<(ReviewId, Vec<(usize, Polarity)>)>,
    ) -> Self {
        let mut review_ids = Vec::with_capacity(reviews.len());
        let mut features = Vec::with_capacity(reviews.len());
        for (id, mentions) in reviews {
            review_ids.push(id);
            features.push(ReviewFeature::new(mentions));
        }
        Item {
            product,
            review_ids,
            features,
        }
    }

    /// Number of candidate reviews |ℛᵢ|.
    pub fn num_reviews(&self) -> usize {
        self.features.len()
    }
}

/// A selected review subset Sᵢ ⊆ ℛᵢ, as indices into the item's reviews.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Selection {
    /// Sorted indices of selected reviews.
    pub indices: Vec<usize>,
}

impl Selection {
    /// A selection from (possibly unsorted) indices.
    pub fn new(mut indices: Vec<usize>) -> Self {
        indices.sort_unstable();
        indices.dedup();
        Selection { indices }
    }

    /// Number of selected reviews |Sᵢ|.
    pub fn len(&self) -> usize {
        self.indices.len()
    }

    /// True when no review is selected.
    pub fn is_empty(&self) -> bool {
        self.indices.is_empty()
    }

    /// Map back to dataset review ids.
    pub fn review_ids(&self, item: &Item) -> Vec<ReviewId> {
        self.indices.iter().map(|&i| item.review_ids[i]).collect()
    }
}

/// A fully prepared problem instance: items plus optimisation targets.
///
/// A context is fixed once built; a changed corpus builds a new one. The
/// solvers read its items as immutable for a whole solve, and the serving
/// daemon shares one context between concurrent solves.
#[derive(Debug, Clone)]
pub struct InstanceContext {
    space: VectorSpace,
    items: Vec<Item>,
    /// τᵢ = π(ℛᵢ) for every item.
    taus: Vec<Vec<f64>>,
    /// Γ = φ(ℛ₁), the target item's aspect distribution.
    gamma: Vec<f64>,
}

impl InstanceContext {
    /// Prepare an instance from a dataset. `instance.items[0]` is the
    /// target item; all items must have at least one review.
    pub fn build(dataset: &Dataset, instance: &ComparisonInstance, scheme: OpinionScheme) -> Self {
        let items: Vec<Item> = instance
            .items
            .iter()
            .map(|&pid| {
                let review_ids = dataset.reviews_of(pid).to_vec();
                let features = review_ids
                    .iter()
                    .map(|&rid| {
                        let r = dataset.review(rid);
                        ReviewFeature::new(
                            r.mentions
                                .iter()
                                .map(|m| (m.aspect.0 as usize, m.polarity))
                                .collect(),
                        )
                    })
                    .collect();
                Item {
                    product: pid,
                    review_ids,
                    features,
                }
            })
            .collect();
        Self::from_items(dataset.num_aspects(), items, scheme)
    }

    /// Prepare an instance from already-built items (first = target).
    ///
    /// # Panics
    /// Panics when `items` is empty.
    pub fn from_items(z: usize, items: Vec<Item>, scheme: OpinionScheme) -> Self {
        assert!(!items.is_empty(), "an instance needs a target item");
        let space = VectorSpace::new(z, scheme);
        let taus = items
            .iter()
            .map(|item| {
                let all: Vec<usize> = (0..item.num_reviews()).collect();
                space.pi(item, &all)
            })
            .collect();
        let all0: Vec<usize> = (0..items[0].num_reviews()).collect();
        let gamma = space.phi(&items[0], &all0);
        InstanceContext {
            space,
            items,
            taus,
            gamma,
        }
    }

    /// Prepare an instance with *caller-supplied* optimisation targets —
    /// the extension point for learned aspect-level preference vectors
    /// (§4.2.3's future-work suggestion, implemented by the
    /// `comparesets-efm` crate): `taus[i]` replaces π(ℛᵢ) and `gamma`
    /// replaces φ(ℛ₁).
    ///
    /// # Panics
    /// Panics when `items` is empty, `taus` does not align with `items`,
    /// or any target has the wrong dimension for the scheme.
    pub fn with_targets(
        z: usize,
        items: Vec<Item>,
        scheme: OpinionScheme,
        taus: Vec<Vec<f64>>,
        gamma: Vec<f64>,
    ) -> Self {
        assert!(!items.is_empty(), "an instance needs a target item");
        assert_eq!(taus.len(), items.len(), "one tau per item");
        let space = VectorSpace::new(z, scheme);
        for tau in &taus {
            assert_eq!(tau.len(), space.opinion_dim(), "tau dimension");
        }
        assert_eq!(gamma.len(), z, "gamma dimension");
        InstanceContext {
            space,
            items,
            taus,
            gamma,
        }
    }

    /// The vector space (z + opinion scheme).
    pub fn space(&self) -> &VectorSpace {
        &self.space
    }

    /// All items; index 0 is the target.
    pub fn items(&self) -> &[Item] {
        &self.items
    }

    /// Item `i`.
    pub fn item(&self, i: usize) -> &Item {
        &self.items[i]
    }

    /// Number of items n (target + comparatives).
    pub fn num_items(&self) -> usize {
        self.items.len()
    }

    /// τᵢ — the target opinion vector of item `i` (π over all reviews).
    pub fn tau(&self, i: usize) -> &[f64] {
        &self.taus[i]
    }

    /// Γ — the target aspect vector (φ over the target item's reviews).
    pub fn gamma(&self) -> &[f64] {
        &self.gamma
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use comparesets_data::CategoryPreset;

    #[test]
    fn review_feature_sorts_and_dedups() {
        let f = ReviewFeature::new(vec![
            (3, Polarity::Negative),
            (1, Polarity::Positive),
            (3, Polarity::Negative),
            (1, Polarity::Negative),
        ]);
        assert_eq!(
            f.mentions,
            vec![
                (1, Polarity::Positive),
                (1, Polarity::Negative),
                (3, Polarity::Negative)
            ]
        );
    }

    #[test]
    fn selection_normalises() {
        let s = Selection::new(vec![4, 1, 4, 2]);
        assert_eq!(s.indices, vec![1, 2, 4]);
        assert_eq!(s.len(), 3);
        assert!(!s.is_empty());
        assert!(Selection::default().is_empty());
    }

    #[test]
    fn build_from_dataset() {
        let d = CategoryPreset::Cellphone.config(60, 3).generate();
        let inst = d.instances().into_iter().next().unwrap().truncated(4);
        let ctx = InstanceContext::build(&d, &inst, OpinionScheme::Binary);
        assert_eq!(ctx.num_items(), inst.len());
        assert_eq!(ctx.space().num_aspects(), d.num_aspects());
        // τ dimensions match the scheme.
        for i in 0..ctx.num_items() {
            assert_eq!(ctx.tau(i).len(), ctx.space().opinion_dim());
            assert!(ctx.item(i).num_reviews() >= 1);
        }
        assert_eq!(ctx.gamma().len(), d.num_aspects());
        // Γ is a max-normalised distribution: max entry is exactly 1.
        let max = ctx.gamma().iter().copied().fold(0.0_f64, f64::max);
        assert!((max - 1.0).abs() < 1e-12);
    }

    #[test]
    fn selection_maps_to_review_ids() {
        let d = CategoryPreset::Toy.config(40, 5).generate();
        let inst = d.instances().into_iter().next().unwrap().truncated(2);
        let ctx = InstanceContext::build(&d, &inst, OpinionScheme::Binary);
        let item = ctx.item(0);
        let sel = Selection::new(vec![0]);
        let ids = sel.review_ids(item);
        assert_eq!(ids, vec![item.review_ids[0]]);
        // Mapped ids really belong to the product.
        assert_eq!(d.review(ids[0]).product, item.product);
    }

    #[test]
    #[should_panic(expected = "target item")]
    fn empty_instance_panics() {
        let _ = InstanceContext::from_items(3, vec![], OpinionScheme::Binary);
    }
}
