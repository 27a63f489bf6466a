//! Integration: the consumer-facing presentation layer (comparison table
//! + extractive summaries) over a fully solved instance.

use comparesets::core::{
    solve_comparesets_plus, ComparisonTable, InstanceContext, OpinionScheme, SelectParams,
};
use comparesets::data::CategoryPreset;
use comparesets::graph::{solve_exact, ExactOptions, SimilarityGraph};
use comparesets::text::{summarize, SummaryConfig};

#[test]
fn full_pipeline_to_comparison_table_and_summaries() {
    let dataset = CategoryPreset::Cellphone.config(120, 4).generate();
    let instance = dataset
        .instances()
        .into_iter()
        .find(|i| i.len() >= 5)
        .expect("large instance")
        .truncated(6);
    let ctx = InstanceContext::build(&dataset, &instance, OpinionScheme::Binary);
    let params = SelectParams::default();
    let selections = solve_comparesets_plus(&ctx, &params);
    let graph = SimilarityGraph::from_selections(&ctx, &selections, params.lambda, params.mu);
    let core = solve_exact(&graph, 0, 3, &ExactOptions::default()).vertices;

    // Comparison table over the core list.
    let table = ComparisonTable::build(&ctx, &selections, Some(&core));
    assert_eq!(table.products.len(), 3);
    assert!(
        !table.rows.is_empty(),
        "selected reviews must mention aspects"
    );
    // Row coverage is within bounds and sorted descending.
    let mut prev = usize::MAX;
    for row in &table.rows {
        assert!(row.coverage >= 1 && row.coverage <= 3);
        assert!(row.coverage <= prev);
        prev = row.coverage;
        assert_eq!(row.cells.len(), 3);
        // Star scores, when present, are within the scale.
        for cell in &row.cells {
            if let Some(s) = cell.stars() {
                assert!((1.0..=5.0).contains(&s));
            }
        }
    }
    // Rendering resolves aspect names without panicking.
    let text = table.render(&dataset.aspects);
    assert!(text.contains("Aspect"));

    // Summaries of each core item's selected reviews.
    for &i in &core {
        let item = ctx.item(i);
        let texts: Vec<&str> = selections[i]
            .indices
            .iter()
            .map(|&r| dataset.review(item.review_ids[r]).text.as_str())
            .collect();
        let summary = summarize(&texts, SummaryConfig::default());
        assert!(
            !summary.is_empty(),
            "non-empty reviews summarise to something"
        );
        assert!(summary.len() <= 2);
        // Extractive: every summary sentence appears in some source text.
        for s in &summary {
            assert!(
                texts.iter().any(|t| t.contains(s.as_str())),
                "summary sentence {s:?} not found in sources"
            );
        }
    }
}

/// A live corpus is served by folding each `ReviewEvent` into the
/// dataset and solving a context rebuilt from it: after every add, edit
/// and delete, the context reflects the event and every selection is a
/// valid subset of its item's listed reviews.
#[test]
fn streaming_session_stays_consistent_over_many_arrivals() {
    use comparesets::core::{comparesets_plus_objective, ReviewFeature};
    use comparesets::data::{AspectId, AspectMention, EventKind, Polarity, ReviewEvent, ReviewId};

    let mut dataset = CategoryPreset::Toy.config(80, 9).generate();
    let instance = dataset
        .instances()
        .into_iter()
        .find(|i| i.len() >= 3)
        .unwrap()
        .truncated(3);
    let params = SelectParams::default();
    let z = dataset.num_aspects() as u32;
    for step in 0..12u32 {
        // Each item in turn takes an add, an edit and a delete.
        let item = (step / 3) as usize % instance.len();
        let product = instance.items[item];
        let polarity = if step % 3 == 0 {
            Polarity::Negative
        } else {
            Polarity::Positive
        };
        let mentions = vec![AspectMention {
            aspect: AspectId((step * 7) % z),
            polarity,
        }];
        let listed = dataset.reviews_of(product).to_vec();
        // A delete never empties an item.
        let kind = match step % 3 {
            0 => EventKind::Add,
            1 => EventKind::Edit,
            _ if listed.len() > 1 => EventKind::Delete,
            _ => EventKind::Add,
        };
        let (review, reviewer) = match kind {
            EventKind::Add => (
                ReviewId(dataset.reviews.len() as u32),
                dataset.num_reviewers,
            ),
            _ => (listed[step as usize % listed.len()], 0),
        };
        let event = ReviewEvent {
            seq: u64::from(step) + 1,
            kind,
            product,
            review,
            reviewer,
            rating: 4,
            text: format!("streamed review {step}"),
            mentions,
        };
        dataset.apply_event(&event).unwrap();

        let ctx = InstanceContext::build(&dataset, &instance, OpinionScheme::Binary);
        let reviews = &ctx.item(item).review_ids;
        let position = reviews.iter().position(|&r| r == review);
        match kind {
            EventKind::Add => assert_eq!(position, Some(reviews.len() - 1)),
            EventKind::Edit => {
                let expected = ReviewFeature::new(
                    event
                        .mentions
                        .iter()
                        .map(|m| (m.aspect.0 as usize, m.polarity))
                        .collect(),
                );
                assert_eq!(ctx.item(item).features[position.unwrap()], expected);
            }
            EventKind::Delete => assert_eq!(position, None),
        }

        let selections = solve_comparesets_plus(&ctx, &params);
        assert_eq!(selections.len(), ctx.num_items());
        for (i, sel) in selections.iter().enumerate() {
            assert!(!sel.is_empty(), "step {step}: item {i} selected nothing");
            assert!(sel.len() <= params.m);
            assert!(sel.indices.iter().all(|&r| r < ctx.item(i).num_reviews()));
            let listed = dataset.reviews_of(ctx.item(i).product);
            for id in sel.review_ids(ctx.item(i)) {
                assert!(listed.contains(&id), "step {step}: {id:?} is not listed");
            }
        }
        let objective = comparesets_plus_objective(&ctx, &selections, params.lambda, params.mu);
        assert!(objective.is_finite() && objective >= 0.0);
    }
}
