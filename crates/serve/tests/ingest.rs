//! Live-corpus serving tests: ingest semantics over real sockets, the
//! cache-freshness guarantee (no hit ever predates an item's last
//! mutation), and durable restart from the WAL + snapshot pair.

#![allow(clippy::unwrap_used, clippy::expect_used)]

use comparesets_core::{
    comparesets_plus_objective, solve_comparesets_plus_sweeps_with, InstanceContext, OpinionScheme,
    SelectParams, SolveOptions, SolverMetrics,
};
use comparesets_data::wal::{EventKind, ReviewEvent};
use comparesets_data::{
    AspectId, AspectMention, CategoryPreset, ComparisonInstance, Dataset, Polarity, ProductId,
    ReviewId, TempDir,
};
use comparesets_serve::{
    Client, IngestEvent, ItemSelection, Request, Server, ServerConfig, Status,
};
use std::net::SocketAddr;
use std::sync::Arc;

fn corpus() -> Dataset {
    CategoryPreset::Toy.config(60, 13).generate()
}

fn items_of(dataset: &Dataset) -> Vec<u32> {
    let inst = dataset.instances().into_iter().next().unwrap().truncated(3);
    inst.items.iter().map(|p| p.0).collect()
}

fn spawn(
    dataset: Dataset,
    config: ServerConfig,
) -> (
    SocketAddr,
    std::thread::JoinHandle<comparesets_serve::ServeSummary>,
    Arc<SolverMetrics>,
) {
    let metrics = Arc::new(SolverMetrics::new());
    let server = Server::bind(
        "127.0.0.1:0",
        vec![("main".to_string(), dataset)],
        Arc::clone(&metrics),
        config,
    )
    .expect("bind");
    let addr = server.local_addr();
    let handle = std::thread::spawn(move || server.run().expect("serve"));
    (addr, handle, metrics)
}

fn mentions(aspect: u32) -> Vec<AspectMention> {
    vec![AspectMention {
        aspect: AspectId(aspect),
        polarity: Polarity::Positive,
    }]
}

/// Mirror the server's `add` resolution onto a local dataset copy, so
/// tests can compute the expected post-ingest corpus independently.
fn mirror_add(dataset: &mut Dataset, product: u32, mentions: Vec<AspectMention>) {
    let ev = ReviewEvent {
        seq: 1, // seq is irrelevant to direct application
        kind: EventKind::Add,
        product: ProductId(product),
        review: ReviewId(dataset.reviews.len() as u32),
        reviewer: dataset.num_reviewers,
        rating: 4,
        text: String::new(),
        mentions,
    };
    dataset.apply_event(&ev).unwrap();
}

/// Cold in-process reference solve rendered to the wire shape.
fn cold_reference(dataset: &Dataset, items: &[u32]) -> (Vec<ItemSelection>, f64) {
    let params = SelectParams::default();
    let instance = ComparisonInstance {
        items: items.iter().map(|&id| ProductId(id)).collect(),
    };
    let ctx = InstanceContext::build(dataset, &instance, OpinionScheme::Binary);
    let selections = solve_comparesets_plus_sweeps_with(&ctx, &params, 1, &SolveOptions::default());
    let objective = comparesets_plus_objective(&ctx, &selections, params.lambda, params.mu);
    let wire = selections
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
        .collect();
    (wire, objective)
}

fn assert_matches_reference(
    response: &comparesets_serve::Response,
    reference: &(Vec<ItemSelection>, f64),
) {
    assert_eq!(response.status, Status::Ok, "{response:?}");
    assert_eq!(response.selections, reference.0, "selections diverged");
    assert_eq!(
        response.objective.map(f64::to_bits),
        Some(reference.1.to_bits()),
        "objective diverged"
    );
}

#[test]
fn a_cache_hit_never_predates_an_items_last_mutation() {
    let dataset = corpus();
    let items = items_of(&dataset);
    let target = items[0];
    let (addr, handle, metrics) = spawn(dataset.clone(), ServerConfig::default());
    let mut client = Client::connect(addr).unwrap();
    let request = Request::solve_items(items.clone());

    // Prime every cache layer, then verify the exact-repeat full hit.
    client.call(&request).unwrap();
    let full = client.call(&request).unwrap();
    assert_eq!(full.cache.as_deref(), Some("full"));

    // Mutate the target item. The memoized answer must become
    // unreachable: the next solve may not be a full hit and must equal
    // a cold solve over the *mutated* corpus bit-for-bit.
    let ack = client
        .call(&Request::ingest(vec![IngestEvent::add(
            target,
            mentions(0),
        )]))
        .unwrap();
    assert_eq!(ack.status, Status::Ok, "{ack:?}");
    assert_eq!(ack.ingested, Some(1));

    let mut mutated = dataset.clone();
    mirror_add(&mut mutated, target, mentions(0));
    let fresh = client.call(&request).unwrap();
    assert_ne!(fresh.cache.as_deref(), Some("full"), "stale full hit");
    assert_ne!(fresh.cache.as_deref(), Some("warm"), "stale warm hit");
    assert_matches_reference(&fresh, &cold_reference(&mutated, &items));

    // An ingest on a product *outside* the item set leaves the freshly
    // memoized answer reachable — versions of the queried items are
    // unchanged.
    let outside = (0..dataset.products.len() as u32)
        .find(|id| !items.contains(id))
        .unwrap();
    client
        .call(&Request::ingest(vec![IngestEvent::add(
            outside,
            mentions(1),
        )]))
        .unwrap();
    let again = client.call(&request).unwrap();
    assert_eq!(again.cache.as_deref(), Some("full"));
    assert_matches_reference(&again, &cold_reference(&mutated, &items));

    assert!(metrics.snapshot().cache_invalidations > 0);
    drop(client);
    Client::connect(addr).unwrap().shutdown().unwrap();
    handle.join().unwrap();
}

#[test]
fn edits_and_deletes_apply_atomically_in_one_batch() {
    let dataset = corpus();
    let items = items_of(&dataset);
    let target = items[0];
    let victim = dataset.reviews_of(ProductId(target))[0];
    let (addr, handle, _metrics) = spawn(dataset.clone(), ServerConfig::default());
    let mut client = Client::connect(addr).unwrap();

    let batch = vec![
        IngestEvent::add(target, mentions(0)),
        IngestEvent::edit(target, victim.0, mentions(2)),
        IngestEvent::delete(target, victim.0),
    ];
    let ack = client.call(&Request::ingest(batch)).unwrap();
    assert_eq!(ack.status, Status::Ok, "{ack:?}");
    assert_eq!(ack.ingested, Some(3));
    assert_eq!(ack.last_seq, Some(3));

    let mut mutated = dataset.clone();
    mirror_add(&mut mutated, target, mentions(0));
    mutated
        .apply_event(&ReviewEvent {
            seq: 2,
            kind: EventKind::Edit,
            product: ProductId(target),
            review: victim,
            reviewer: mutated.reviews[victim.0 as usize].reviewer,
            rating: mutated.reviews[victim.0 as usize].rating,
            text: mutated.reviews[victim.0 as usize].text.clone(),
            mentions: mentions(2),
        })
        .unwrap();
    mutated
        .apply_event(&ReviewEvent {
            seq: 3,
            kind: EventKind::Delete,
            product: ProductId(target),
            review: victim,
            reviewer: 0,
            rating: 0,
            text: String::new(),
            mentions: Vec::new(),
        })
        .unwrap();
    let response = client.call(&Request::solve_items(items.clone())).unwrap();
    assert_matches_reference(&response, &cold_reference(&mutated, &items));

    client.shutdown().unwrap();
    handle.join().unwrap();
}

#[test]
fn invalid_ingests_reject_the_whole_batch_untouched() {
    let dataset = corpus();
    let items = items_of(&dataset);
    let (addr, handle, _metrics) = spawn(dataset.clone(), ServerConfig::default());
    let mut client = Client::connect(addr).unwrap();

    let lonely = ProductId(items[0]);
    let keep_one: Vec<IngestEvent> = dataset.reviews_of(lonely)[1..]
        .iter()
        .map(|r| IngestEvent::delete(items[0], r.0))
        .collect();
    client.call(&Request::ingest(keep_one)).unwrap();
    let last = dataset.reviews_of(lonely)[0].0;

    let cases: Vec<(Request, &str, &str)> = vec![
        (Request::bare("ingest"), "usage", "non-empty events"),
        (Request::ingest(vec![]), "usage", "non-empty events"),
        (
            Request::ingest(vec![IngestEvent {
                op: "frob".to_string(),
                ..IngestEvent::add(0, vec![])
            }]),
            "usage",
            "unknown ingest op",
        ),
        (
            Request::ingest(vec![IngestEvent {
                review: None,
                ..IngestEvent::delete(0, 0)
            }]),
            "usage",
            "needs a review id",
        ),
        (
            Request::ingest(vec![IngestEvent::add(u32::MAX, vec![])]),
            "data",
            "out of range",
        ),
        // A good add followed by a bad delete: nothing applies.
        (
            Request::ingest(vec![
                IngestEvent::add(items[1], mentions(0)),
                IngestEvent::delete(items[0], last),
            ]),
            "data",
            "last review",
        ),
    ];
    for (request, code, needle) in cases {
        let response = client.call(&request).unwrap();
        assert_eq!(
            response.status,
            Status::Error,
            "{request:?} -> {response:?}"
        );
        assert_eq!(response.code.as_deref(), Some(code), "{request:?}");
        assert!(
            response.error.as_deref().unwrap_or("").contains(needle),
            "{request:?} -> {response:?}"
        );
    }

    // The rejected add above must not have leaked into the corpus: a
    // solve over an untouched item set still matches the pristine
    // reference (items[1] saw only rejected events).
    let untouched: Vec<u32> = items.clone();
    let response = client
        .call(&Request::solve_items(untouched.clone()))
        .unwrap();
    // items[0] lost reviews to the setup deletes, so compute the
    // reference over the same surviving corpus.
    let mut survived = dataset.clone();
    for r in dataset.reviews_of(lonely)[1..].iter() {
        survived
            .apply_event(&ReviewEvent {
                seq: 1,
                kind: EventKind::Delete,
                product: lonely,
                review: *r,
                reviewer: 0,
                rating: 0,
                text: String::new(),
                mentions: Vec::new(),
            })
            .unwrap();
    }
    assert_matches_reference(&response, &cold_reference(&survived, &untouched));

    client.shutdown().unwrap();
    handle.join().unwrap();
}

#[test]
fn restarting_from_the_data_dir_resumes_every_acknowledged_ingest() {
    let dataset = corpus();
    let items = items_of(&dataset);
    let target = items[0];
    let dir = TempDir::new("ingest_restart").unwrap();

    let config = ServerConfig {
        data_dir: Some(dir.join("data")),
        snapshot_every: 2, // force a snapshot + compaction mid-run
        ..ServerConfig::default()
    };
    let (addr, handle, metrics) = spawn(dataset.clone(), config.clone());
    let mut client = Client::connect(addr).unwrap();
    for k in 0..3u32 {
        let ack = client
            .call(&Request::ingest(vec![IngestEvent::add(
                target,
                mentions(k),
            )]))
            .unwrap();
        assert_eq!(ack.status, Status::Ok, "{ack:?}");
        assert_eq!(ack.last_seq, Some(u64::from(k) + 1));
    }
    let snapshot = metrics.snapshot();
    assert_eq!(snapshot.wal_appends, 3);
    assert_eq!(snapshot.wal_fsyncs, 3);
    assert!(snapshot.snapshot_writes >= 1, "{snapshot:?}");
    client.shutdown().unwrap();
    handle.join().unwrap();

    // Restart against the same data dir, passing the *original* seed:
    // the recovered store must win, so solves see all three adds.
    let (addr, handle, _metrics) = spawn(dataset.clone(), config);
    let mut client = Client::connect(addr).unwrap();
    let mut mutated = dataset.clone();
    for k in 0..3u32 {
        mirror_add(&mut mutated, target, mentions(k));
    }
    let response = client.call(&Request::solve_items(items.clone())).unwrap();
    assert_matches_reference(&response, &cold_reference(&mutated, &items));

    // And the restarted store keeps accepting durable appends at the
    // recovered sequence.
    let ack = client
        .call(&Request::ingest(vec![IngestEvent::add(
            target,
            mentions(0),
        )]))
        .unwrap();
    assert_eq!(ack.last_seq, Some(4));

    client.shutdown().unwrap();
    handle.join().unwrap();
}
