//! The byte queues under a [`crate::tcp::TcpConn`].
//!
//! The send side is a flat ring (`VecDeque<u8>`: small writes coalesce and
//! a segment at any offset is O(1) to find); [`copy_range`] lifts a segment
//! out of it with at most two slice copies. The receive side is a
//! [`RecvQueue`] of the received payload views themselves, so a read that
//! one segment satisfies hands the application the bytes that came off the
//! wire, uncopied.

use std::collections::VecDeque;

use bytes::{Buf, Bytes};

/// Copy `n` bytes starting `start` bytes into `q`.
///
/// # Panics
/// If `start + n` exceeds `q.len()`.
pub fn copy_range(q: &VecDeque<u8>, start: usize, n: usize) -> Bytes {
    let (head, tail) = q.as_slices();
    let end = start + n;
    if end <= head.len() {
        Bytes::copy_from_slice(&head[start..end])
    } else if start >= head.len() {
        Bytes::copy_from_slice(&tail[start - head.len()..end - head.len()])
    } else {
        // The range straddles the ring's seam.
        let mut v = Vec::with_capacity(n);
        v.extend_from_slice(&head[start..]);
        v.extend_from_slice(&tail[..end - head.len()]);
        Bytes::from(v)
    }
}

/// Pieces shorter than this are copied into the queue instead of held as
/// views. A view pins the whole frame it arrived in (up to the tunnel MTU
/// plus overlay framing, ~1.4 KB), so holding one for a few fresh bytes
/// would let a peer pin a frame per byte; with the threshold the queue
/// pins at most ~6 bytes of storage per byte it reports.
const HOLD_VIEW_MIN: usize = 256;

/// In-order received bytes awaiting `read`, kept as the chunks they
/// arrived in. The owner enforces the byte capacity; the chunk count is at
/// most one per byte of it.
#[derive(Debug, Default)]
pub struct RecvQueue {
    chunks: VecDeque<Bytes>,
    len: usize,
}

impl RecvQueue {
    /// An empty queue.
    pub fn new() -> Self {
        RecvQueue::default()
    }

    /// Bytes queued.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether nothing is queued.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Append `chunk` (a view of a received payload).
    pub fn push(&mut self, chunk: Bytes) {
        if chunk.is_empty() {
            return;
        }
        self.len += chunk.len();
        self.chunks.push_back(if chunk.len() < HOLD_VIEW_MIN {
            Bytes::copy_from_slice(&chunk)
        } else {
            chunk
        });
    }

    /// Remove and return the first `max.min(len)` bytes: the front chunk's
    /// own view when it covers the request, one gathered copy otherwise.
    pub fn pop(&mut self, max: usize) -> Bytes {
        let n = max.min(self.len);
        if n == 0 {
            return Bytes::new();
        }
        self.len -= n;
        let front = self.chunks.front_mut().expect("len counts queued bytes");
        if n < front.len() {
            return front.split_to(n);
        }
        if n == front.len() {
            return self.chunks.pop_front().expect("front exists");
        }
        let mut out = Vec::with_capacity(n);
        while out.len() < n {
            let mut chunk = self.chunks.pop_front().expect("len counts queued bytes");
            let take = chunk.len().min(n - out.len());
            out.extend_from_slice(&chunk[..take]);
            if take < chunk.len() {
                chunk.advance(take);
                self.chunks.push_front(chunk);
            }
        }
        Bytes::from(out)
    }
}
