//! How frames move between a coordinator and a worker.
//!
//! [`Transport`] is deliberately tiny — send a frame, receive a frame,
//! optionally receive with a deadline — so the protocol layer above it
//! is transport-agnostic. [`ChannelTransport`] moves frames over
//! in-process `mpsc` channels (what [`run_sim`](crate::run_sim) uses);
//! [`StreamTransport`] runs the same protocol over any
//! `io::Read`/`io::Write` pair, which is exactly the shape of a
//! `TcpStream` and its `try_clone`.

use crate::frame::{read_frame, write_frame};
use std::io::{self, Read, Write};
use std::sync::mpsc::{self, Receiver, RecvTimeoutError, Sender};
use std::sync::Mutex;
use std::time::Duration;

/// A bidirectional, frame-oriented link to one peer.
///
/// Both methods take `&self`: transports sit behind shared references
/// on both sides of a thread boundary. Implementations serialize
/// internally.
pub trait Transport: Send {
    /// Delivers one frame to the peer.
    fn send(&self, frame: Vec<u8>) -> io::Result<()>;
    /// Blocks until the peer's next frame arrives.
    fn recv(&self) -> io::Result<Vec<u8>>;
    /// Waits up to `timeout` for the peer's next frame; `Ok(None)`
    /// means the deadline elapsed quietly. The default implementation
    /// ignores the deadline and blocks — transports that cannot
    /// interrupt a read (a bare `Read` stream) keep that blocking
    /// behaviour, and supervision over them degrades to blocking waits.
    fn recv_timeout(&self, timeout: Duration) -> io::Result<Option<Vec<u8>>> {
        let _ = timeout;
        self.recv().map(Some)
    }
}

/// Strips a poisoned-lock error: the data behind these locks is a frame
/// queue or stream handle, still structurally valid after a panicking
/// holder.
fn lock<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// In-process transport: one end of a pair of `mpsc` channels.
pub struct ChannelTransport {
    tx: Sender<Vec<u8>>,
    rx: Mutex<Receiver<Vec<u8>>>,
}

/// Creates two connected [`ChannelTransport`] ends: everything sent on
/// one is received by the other, in order.
pub fn channel_pair() -> (ChannelTransport, ChannelTransport) {
    let (tx_ab, rx_ab) = mpsc::channel();
    let (tx_ba, rx_ba) = mpsc::channel();
    (
        ChannelTransport {
            tx: tx_ab,
            rx: Mutex::new(rx_ba),
        },
        ChannelTransport {
            tx: tx_ba,
            rx: Mutex::new(rx_ab),
        },
    )
}

impl Transport for ChannelTransport {
    fn send(&self, frame: Vec<u8>) -> io::Result<()> {
        self.tx
            .send(frame)
            .map_err(|_| io::Error::new(io::ErrorKind::BrokenPipe, "peer hung up"))
    }

    fn recv(&self) -> io::Result<Vec<u8>> {
        lock(&self.rx)
            .recv()
            .map_err(|_| io::Error::new(io::ErrorKind::UnexpectedEof, "peer hung up"))
    }

    fn recv_timeout(&self, timeout: Duration) -> io::Result<Option<Vec<u8>>> {
        match lock(&self.rx).recv_timeout(timeout) {
            Ok(frame) => Ok(Some(frame)),
            Err(RecvTimeoutError::Timeout) => Ok(None),
            Err(RecvTimeoutError::Disconnected) => {
                Err(io::Error::new(io::ErrorKind::UnexpectedEof, "peer hung up"))
            }
        }
    }
}

/// Stream transport: frames over any `Read`/`Write` pair via
/// [`read_frame`]/[`write_frame`]. For TCP:
/// `StreamTransport::new(stream.try_clone()?, stream)`.
///
/// The writer mutex is held across the *entire* frame (prefix plus
/// payload), so concurrent senders through one shared transport can
/// never interleave bytes mid-frame — a property the adversarial tests
/// below pin down.
pub struct StreamTransport<R: Read + Send, W: Write + Send> {
    reader: Mutex<R>,
    writer: Mutex<W>,
}

impl<R: Read + Send, W: Write + Send> StreamTransport<R, W> {
    /// Wraps a reader/writer pair as a transport.
    pub fn new(reader: R, writer: W) -> Self {
        StreamTransport {
            reader: Mutex::new(reader),
            writer: Mutex::new(writer),
        }
    }
}

impl<R: Read + Send, W: Write + Send> Transport for StreamTransport<R, W> {
    fn send(&self, frame: Vec<u8>) -> io::Result<()> {
        write_frame(&mut *lock(&self.writer), &frame)
    }

    fn recv(&self) -> io::Result<Vec<u8>> {
        read_frame(&mut *lock(&self.reader))
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used)]

    use super::*;
    use crate::frame::{seal_v2, unseal, FRAME_V2_MAGIC};
    use std::sync::Arc;

    #[test]
    fn channel_pair_is_bidirectional_and_ordered() {
        let (a, b) = channel_pair();
        a.send(vec![1]).unwrap();
        a.send(vec![2, 2]).unwrap();
        b.send(vec![3]).unwrap();
        assert_eq!(b.recv().unwrap(), vec![1]);
        assert_eq!(b.recv().unwrap(), vec![2, 2]);
        assert_eq!(a.recv().unwrap(), vec![3]);
    }

    #[test]
    fn dropped_peer_surfaces_as_io_error() {
        let (a, b) = channel_pair();
        drop(b);
        assert!(a.send(vec![1]).is_err());
        assert!(a.recv().is_err());
    }

    #[test]
    fn recv_timeout_times_out_quietly_and_still_delivers() {
        let (a, b) = channel_pair();
        // Nothing pending: a short deadline elapses with Ok(None).
        assert_eq!(a.recv_timeout(Duration::from_millis(5)).unwrap(), None);
        // A pending frame is delivered immediately.
        b.send(vec![42]).unwrap();
        assert_eq!(
            a.recv_timeout(Duration::from_millis(5)).unwrap(),
            Some(vec![42])
        );
        // A dropped peer is an error, not a timeout.
        drop(b);
        assert!(a.recv_timeout(Duration::from_millis(5)).is_err());
    }

    #[test]
    fn stream_transport_round_trips_over_shared_buffers() {
        // One direction of a stream link: a sends into a Vec, b reads a
        // cursor over those bytes.
        let mut wire = Vec::new();
        {
            let a = StreamTransport::new(std::io::empty(), &mut wire);
            a.send(vec![9, 9, 9]).unwrap();
            a.send(vec![4]).unwrap();
        }
        let b = StreamTransport::new(std::io::Cursor::new(wire), std::io::sink());
        assert_eq!(b.recv().unwrap(), vec![9, 9, 9]);
        assert_eq!(b.recv().unwrap(), vec![4]);
    }

    /// A `Write` both test threads can share, standing in for one
    /// socket.
    #[derive(Clone, Default)]
    struct SharedBuf(Arc<Mutex<Vec<u8>>>);

    impl Write for SharedBuf {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.0.lock().unwrap().extend_from_slice(buf);
            Ok(buf.len())
        }
        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn concurrent_senders_never_interleave_mid_frame() {
        // Two threads hammer one shared StreamTransport. Because the
        // writer mutex is held across the whole frame, the byte stream
        // must parse back into exactly the frames that were sent — any
        // interleaving would corrupt a length prefix and shred the rest
        // of the stream.
        let wire = SharedBuf::default();
        let transport = Arc::new(StreamTransport::new(std::io::empty(), wire.clone()));
        const PER_THREAD: usize = 200;
        let mut handles = Vec::new();
        for marker in [0xAAu8, 0xBB] {
            let t = Arc::clone(&transport);
            handles.push(std::thread::spawn(move || {
                for i in 0..PER_THREAD {
                    // Variable-length payloads so a torn write cannot
                    // hide behind uniform sizes.
                    let frame = vec![marker; 1 + (i % 97)];
                    t.send(frame).unwrap();
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }

        let bytes = wire.0.lock().unwrap().clone();
        let mut r = std::io::Cursor::new(bytes);
        let mut counts = std::collections::HashMap::new();
        for _ in 0..2 * PER_THREAD {
            let frame = read_frame(&mut r).expect("every frame intact");
            assert!(!frame.is_empty());
            // A torn frame would mix markers; an intact one is uniform.
            assert!(
                frame.iter().all(|&b| b == frame[0]),
                "interleaved frame: {frame:?}"
            );
            *counts.entry(frame[0]).or_insert(0usize) += 1;
        }
        assert_eq!(counts.get(&0xAA), Some(&PER_THREAD));
        assert_eq!(counts.get(&0xBB), Some(&PER_THREAD));
        // And the stream is fully consumed.
        assert!(read_frame(&mut r).is_err());
    }

    #[test]
    fn mid_frame_truncation_is_an_error_not_a_hang_or_garbage() {
        // Cut a stream at every possible byte offset inside the second
        // frame: the first frame must always arrive intact, the second
        // must always fail with UnexpectedEof.
        let mut wire = Vec::new();
        {
            let a = StreamTransport::new(std::io::empty(), &mut wire);
            a.send(b"first".to_vec()).unwrap();
            a.send(vec![7u8; 64]).unwrap();
        }
        let first_end = 4 + 5;
        for cut in first_end..wire.len() - 1 {
            let b =
                StreamTransport::new(std::io::Cursor::new(wire[..cut].to_vec()), std::io::sink());
            assert_eq!(b.recv().unwrap(), b"first");
            let err = b.recv().expect_err("truncated frame");
            assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof, "cut at {cut}");
        }
    }

    #[test]
    fn corrupted_v2_frame_over_a_stream_is_detected() {
        let mut wire = Vec::new();
        {
            let a = StreamTransport::new(std::io::empty(), &mut wire);
            a.send(seal_v2(9, b"precious sectors")).unwrap();
        }
        // Flip one payload byte on the wire (inside the framed envelope:
        // skip the 4-byte length prefix and the 10-byte header).
        wire[4 + 12] ^= 0x40;
        let b = StreamTransport::new(std::io::Cursor::new(wire), std::io::sink());
        let frame = b.recv().unwrap();
        assert_eq!(frame[0], FRAME_V2_MAGIC);
        assert!(unseal(frame).is_err(), "flip must fail the CRC");
    }
}
