//! The daemon's private request glue, restated against public types.
//!
//! `comparesets-serve` keeps query resolution, wire-event stamping and
//! answer shaping private to `server.rs`. The traced replay and the
//! correctness checks need the same steps, so they are restated here,
//! line for line with the daemon's defaults. A drift shows up at once:
//! the replay-fidelity check compares cache and solver counters exactly,
//! and the answer check compares every served answer.

use comparesets_core::{InstanceContext, OpinionScheme, SelectParams, Selection};
use comparesets_data::wal::{EventKind, ReviewEvent};
use comparesets_data::{ComparisonInstance, Dataset, ProductId, ReviewId};
use comparesets_serve::{IngestEvent, ItemSelection, Request};

/// A solve request after the daemon's defaulting.
#[derive(Debug, Clone)]
pub struct Query {
    pub items: Vec<u32>,
    pub params: SelectParams,
    pub sweeps: usize,
    pub scheme: OpinionScheme,
    pub scheme_name: &'static str,
}

impl Query {
    pub fn instance(&self) -> ComparisonInstance {
        ComparisonInstance {
            items: self.items.iter().map(|&id| ProductId(id)).collect(),
        }
    }
}

/// Resolve a solve request the way the daemon does (defaults m = 3,
/// λ = 1, μ = 0.1, sweeps = 1, binary scheme, 12 comparatives). The
/// benchmark only generates valid requests, so anything else is `None`.
pub fn resolve(dataset: &Dataset, request: &Request) -> Option<Query> {
    let (scheme, scheme_name) = match request.scheme.as_deref().unwrap_or("binary") {
        "binary" => (OpinionScheme::Binary, "binary"),
        "3-polarity" => (OpinionScheme::ThreePolarity, "3-polarity"),
        "unary-scale" => (OpinionScheme::UnaryScale, "unary-scale"),
        _ => return None,
    };
    let items = match (&request.items, request.target) {
        (Some(items), _) => items.clone(),
        (None, Some(target)) => {
            let mut items = vec![target];
            items.extend(
                dataset
                    .product(ProductId(target))
                    .also_bought
                    .iter()
                    .filter(|c| !dataset.reviews_of(**c).is_empty())
                    .take(request.max_comparatives.unwrap_or(12))
                    .map(|c| c.0),
            );
            items
        }
        (None, None) => return None,
    };
    Some(Query {
        items,
        params: SelectParams {
            m: request.m.unwrap_or(3),
            lambda: request.lambda.unwrap_or(1.0),
            mu: request.mu.unwrap_or(0.1),
        },
        sweeps: request.sweeps.unwrap_or(1),
        scheme,
        scheme_name,
    })
}

/// Stamp a wire event against the staged corpus, as the daemon does:
/// `add` takes the next review id and reviewer index, `edit` keeps the
/// fields it does not name.
pub fn stamp(staged: &Dataset, seq: u64, wire: &IngestEvent) -> Option<ReviewEvent> {
    let product = ProductId(wire.product);
    Some(match wire.op.as_str() {
        "add" => ReviewEvent {
            seq,
            kind: EventKind::Add,
            product,
            review: ReviewId(staged.reviews.len() as u32),
            reviewer: staged.num_reviewers,
            rating: wire.rating.unwrap_or(4),
            text: wire.text.clone().unwrap_or_default(),
            mentions: wire.mentions.clone().unwrap_or_default(),
        },
        "edit" => {
            let review = ReviewId(wire.review?);
            let current = staged.reviews.get(review.0 as usize)?;
            ReviewEvent {
                seq,
                kind: EventKind::Edit,
                product,
                review,
                reviewer: current.reviewer,
                rating: wire.rating.unwrap_or(current.rating),
                text: wire.text.clone().unwrap_or_else(|| current.text.clone()),
                mentions: wire
                    .mentions
                    .clone()
                    .unwrap_or_else(|| current.mentions.clone()),
            }
        }
        "delete" => ReviewEvent {
            seq,
            kind: EventKind::Delete,
            product,
            review: ReviewId(wire.review?),
            reviewer: 0,
            rating: 0,
            text: String::new(),
            mentions: Vec::new(),
        },
        _ => return None,
    })
}

/// Solver selections in the wire shape.
pub fn wire_selections(ctx: &InstanceContext, selections: &[Selection]) -> Vec<ItemSelection> {
    selections
        .iter()
        .enumerate()
        .map(|(i, sel)| {
            let item = ctx.item(i);
            ItemSelection {
                product: item.product.0,
                indices: sel.indices.clone(),
                review_ids: sel.review_ids(item).iter().map(|r| r.0).collect(),
            }
        })
        .collect()
}
