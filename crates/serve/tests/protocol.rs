//! Wire-protocol tests: frame round-trips, message round-trips, and
//! fuzz-style malformed-frame cases. Everything runs over in-memory
//! byte buffers — no sockets.

#![allow(clippy::unwrap_used, clippy::expect_used)]

use comparesets_serve::protocol::{
    decode, read_frame, read_message, write_frame, write_message, IngestEvent, ProtocolError,
    Request, Response, Status, MAX_FRAME_LEN,
};
use rand::prelude::*;
use rand_chacha::ChaCha8Rng;
use std::io::Cursor;

#[test]
fn frame_layout_is_length_prefix_then_payload() {
    let mut wire = Vec::new();
    write_frame(&mut wire, b"hello").unwrap();
    assert_eq!(&wire[..4], &5u32.to_be_bytes());
    assert_eq!(&wire[4..], b"hello");
}

#[test]
fn a_frame_goes_out_in_one_write() {
    /// Records each `write` call separately.
    struct Writes(Vec<Vec<u8>>);
    impl std::io::Write for Writes {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.0.push(buf.to_vec());
            Ok(buf.len())
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }
    let mut w = Writes(Vec::new());
    write_frame(&mut w, b"hello").unwrap();
    assert_eq!(w.0, [b"\x00\x00\x00\x05hello".to_vec()]);
    let ping = Request::bare("ping");
    write_message(&mut w, &ping).unwrap();
    assert_eq!(w.0.len(), 2);
    assert_eq!(
        &w.0[1][4..],
        serde_json::to_string(&ping).unwrap().as_bytes()
    );
}

#[test]
fn frames_round_trip_including_empty() {
    for payload in [&b""[..], b"x", b"{\"op\":\"ping\"}", &[0u8; 1000]] {
        let mut wire = Vec::new();
        write_frame(&mut wire, payload).unwrap();
        let back = read_frame(&mut Cursor::new(&wire)).unwrap().unwrap();
        assert_eq!(back, payload);
    }
}

#[test]
fn multiple_frames_read_in_order_then_clean_eof() {
    let mut wire = Vec::new();
    write_frame(&mut wire, b"one").unwrap();
    write_frame(&mut wire, b"two").unwrap();
    let mut cursor = Cursor::new(&wire);
    assert_eq!(read_frame(&mut cursor).unwrap().unwrap(), b"one");
    assert_eq!(read_frame(&mut cursor).unwrap().unwrap(), b"two");
    assert!(read_frame(&mut cursor).unwrap().is_none());
}

#[test]
fn oversize_length_is_rejected_before_allocation() {
    let mut wire = Vec::new();
    wire.extend_from_slice(&(MAX_FRAME_LEN + 1).to_be_bytes());
    // No payload follows: if the reader tried to allocate/read it first,
    // this would be Truncated instead of FrameTooLarge.
    match read_frame(&mut Cursor::new(&wire)) {
        Err(ProtocolError::FrameTooLarge(n)) => assert_eq!(n, MAX_FRAME_LEN + 1),
        other => panic!("expected FrameTooLarge, got {other:?}"),
    }
}

#[test]
fn oversize_write_is_rejected() {
    let payload = vec![0u8; MAX_FRAME_LEN as usize + 1];
    let mut sink = Vec::new();
    assert!(matches!(
        write_frame(&mut sink, &payload),
        Err(ProtocolError::FrameTooLarge(_))
    ));
    assert!(sink.is_empty(), "nothing may be written before the check");
}

#[test]
fn truncated_frames_are_classified() {
    // Mid-length-prefix.
    let wire = [0u8, 0];
    assert!(matches!(
        read_frame(&mut Cursor::new(&wire[..])),
        Err(ProtocolError::Truncated)
    ));
    // Mid-payload.
    let mut wire = Vec::new();
    write_frame(&mut wire, b"full payload").unwrap();
    wire.truncate(wire.len() - 3);
    assert!(matches!(
        read_frame(&mut Cursor::new(&wire)),
        Err(ProtocolError::Truncated)
    ));
}

#[test]
fn malformed_payloads_are_classified_not_panics() {
    // Fuzz-style: random byte soup, random truncations of valid frames,
    // and targeted near-valid JSON. The decoder must answer every one
    // with a classified error (or a valid message), never a panic.
    let mut rng = ChaCha8Rng::seed_from_u64(0x5EED);
    for _ in 0..500 {
        let len = rng.random_range(0..64);
        let bytes: Vec<u8> = (0..len).map(|_| rng.next_u32() as u8).collect();
        let _ = decode::<Request>(&bytes); // must not panic
        let mut wire = Vec::new();
        write_frame(&mut wire, &bytes).unwrap();
        let cut = rng.random_range(0..=wire.len());
        let _ = read_message::<Request>(&mut Cursor::new(&wire[..cut])); // must not panic
    }
    for bad in [
        &b"not json"[..],
        b"\xff\xfe\x00",
        b"{",
        b"[]",
        b"42",
        b"{\"op\":7}",                     // wrong type for op
        b"{\"shard\":\"s\"}",              // missing required op
        b"{\"op\":\"solve\",\"m\":\"x\"}", // wrong type for m
        b"{\"op\":\"solve\",\"m\":-1}",    // out of range for usize
    ] {
        match decode::<Request>(bad) {
            Err(ProtocolError::Malformed(_)) => {}
            other => panic!("{:?}: expected Malformed, got {other:?}", bad),
        }
    }
}

#[test]
fn unknown_fields_are_ignored_for_forward_compat() {
    let req: Request = decode(b"{\"op\":\"ping\",\"from_the_future\":true}").unwrap();
    assert_eq!(req, Request::bare("ping"));
}

#[test]
fn request_messages_round_trip() {
    let mut rng = ChaCha8Rng::seed_from_u64(7);
    for _ in 0..200 {
        let request = Request {
            op: ["ping", "solve", "metrics", "shutdown"][rng.random_range(0..4)].to_string(),
            shard: if rng.random_bool(0.5) {
                String::new()
            } else {
                format!("shard{}", rng.random_range(0..5))
            },
            target: rng.random_bool(0.5).then(|| rng.next_u32()),
            items: rng.random_bool(0.5).then(|| {
                (0..rng.random_range(1..6))
                    .map(|_| rng.next_u32())
                    .collect()
            }),
            max_comparatives: rng.random_bool(0.3).then(|| rng.random_range(1..20)),
            m: rng.random_bool(0.5).then(|| rng.random_range(1..10)),
            lambda: rng.random_bool(0.5).then(|| rng.random_range(0.0..1.0)),
            mu: rng.random_bool(0.5).then(|| rng.random_range(0.0..1.0)),
            sweeps: rng.random_bool(0.5).then(|| rng.random_range(1..5)),
            scheme: rng.random_bool(0.3).then(|| "binary".to_string()),
            timeout_ms: rng.random_bool(0.3).then(|| rng.random_range(1..10_000)),
            events: rng.random_bool(0.3).then(|| {
                (0..rng.random_range(1..4))
                    .map(|_| IngestEvent {
                        op: ["add", "edit", "delete"][rng.random_range(0..3)].to_string(),
                        product: rng.next_u32(),
                        review: rng.random_bool(0.5).then(|| rng.next_u32()),
                        rating: rng.random_bool(0.5).then(|| rng.random_range(1..=5)),
                        text: rng.random_bool(0.5).then(|| "streamed".to_string()),
                        mentions: rng.random_bool(0.5).then(Vec::new),
                    })
                    .collect()
            }),
        };
        let mut wire = Vec::new();
        write_message(&mut wire, &request).unwrap();
        let back: Request = read_message(&mut Cursor::new(&wire)).unwrap().unwrap();
        assert_eq!(back, request);
    }
}

#[test]
fn response_messages_round_trip() {
    use comparesets_serve::protocol::ItemSelection;
    let response = Response {
        status: Status::Degraded,
        error: None,
        code: None,
        selections: vec![ItemSelection {
            product: 3,
            indices: vec![0, 4, 9],
            review_ids: vec![17, 2, 400],
        }],
        objective: Some(1.25),
        cache: Some("warm".to_string()),
        pong: None,
        info: None,
        ingested: Some(3),
        last_seq: Some(41),
        retry_after_ms: Some(1500),
        health: Some("ready".to_string()),
        wal_lag: Some(2),
        resident_bytes: Some(4096),
    };
    let mut wire = Vec::new();
    write_message(&mut wire, &response).unwrap();
    let back: Response = read_message(&mut Cursor::new(&wire)).unwrap().unwrap();
    assert_eq!(back, response);

    for status in [Status::Ok, Status::Degraded, Status::Error] {
        let r = Response {
            status,
            ..Response::ok()
        };
        let mut wire = Vec::new();
        write_message(&mut wire, &r).unwrap();
        let back: Response = read_message(&mut Cursor::new(&wire)).unwrap().unwrap();
        assert_eq!(back.status, status);
    }
}

#[test]
fn error_responses_carry_class_and_cause() {
    let r = Response::error("usage", "unknown op \"frob\"");
    assert_eq!(r.status, Status::Error);
    assert_eq!(r.code.as_deref(), Some("usage"));
    assert!(r.error.as_deref().unwrap().contains("frob"));
}
