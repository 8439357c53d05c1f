//! A frame's length prefix buys no memory on its own, counted exactly.
//!
//! `read_frame` accepts prefixes up to `MAX_FRAME` (64 MiB). It grows the
//! body as bytes arrive, so a peer that claims the cap and then sends a
//! few bytes costs the reader no chunk-sized allocation at all.

mod common;

use common::counted;
use fbf::core::daemon::{read_frame, MAX_FRAME};
use std::io::{Cursor, ErrorKind};
use std::sync::atomic::AtomicBool;

#[test]
fn a_claimed_length_is_not_allocated_before_its_bytes_arrive() {
    let mut wire = (MAX_FRAME as u32).to_be_bytes().to_vec();
    wire.extend_from_slice(&[b'x'; 16]);
    let (result, calls) = counted(|| read_frame(&mut Cursor::new(wire), &AtomicBool::new(false)));
    let err = result.expect_err("16 bytes of a 64 MiB frame, then EOF");
    assert_eq!(err.kind(), ErrorKind::UnexpectedEof, "{err}");
    assert_eq!(calls.large, 0, "{calls:?}");
}

#[test]
fn a_large_frame_still_reads_whole() {
    let body = "y".repeat(3 * 100_000 + 7);
    let mut wire = Vec::new();
    fbf::core::daemon::write_frame(&mut wire, &body).unwrap();
    let read = read_frame(&mut Cursor::new(wire), &AtomicBool::new(false)).unwrap();
    assert_eq!(read.as_deref(), Some(body.as_str()));
}
