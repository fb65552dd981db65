//! Offline stand-in for the `crossbeam` crate.
//!
//! Provides the `crossbeam::channel` MPSC surface the transmitter uses,
//! backed by `std::sync::mpsc`. Semantics match where it matters: `bounded`
//! channels block senders when full, receivers support timeouts and
//! non-blocking polls, and dropping all senders disconnects the receiver.

pub mod channel {
    use std::sync::mpsc;
    use std::time::Duration;

    pub use std::sync::mpsc::{RecvTimeoutError, SendError, TryRecvError};

    /// Sending half of a bounded channel (clonable).
    pub struct Sender<T>(mpsc::SyncSender<T>);

    impl<T> Clone for Sender<T> {
        fn clone(&self) -> Self {
            Sender(self.0.clone())
        }
    }

    impl<T> Sender<T> {
        /// Blocks until the value is enqueued (or the receiver is gone).
        pub fn send(&self, value: T) -> Result<(), SendError<T>> {
            self.0.send(value)
        }
    }

    /// Receiving half of a bounded channel.
    pub struct Receiver<T>(mpsc::Receiver<T>);

    impl<T> Receiver<T> {
        /// Blocks until a value arrives or all senders are dropped.
        pub fn recv(&self) -> Result<T, mpsc::RecvError> {
            self.0.recv()
        }

        /// Blocks up to `timeout`.
        pub fn recv_timeout(&self, timeout: Duration) -> Result<T, RecvTimeoutError> {
            self.0.recv_timeout(timeout)
        }

        /// Non-blocking poll.
        pub fn try_recv(&self) -> Result<T, TryRecvError> {
            self.0.try_recv()
        }
    }

    /// Creates a bounded channel with capacity `cap`.
    pub fn bounded<T>(cap: usize) -> (Sender<T>, Receiver<T>) {
        let (tx, rx) = mpsc::sync_channel(cap);
        (Sender(tx), Receiver(rx))
    }

    #[cfg(test)]
    mod tests {
        use super::*;

        #[test]
        fn bounded_roundtrip_and_timeout() {
            let (tx, rx) = bounded::<u32>(2);
            tx.send(1).unwrap();
            tx.send(2).unwrap();
            assert_eq!(rx.recv().unwrap(), 1);
            assert_eq!(rx.try_recv().unwrap(), 2);
            assert_eq!(
                rx.recv_timeout(Duration::from_millis(5)),
                Err(RecvTimeoutError::Timeout)
            );
            drop(tx);
            assert_eq!(rx.try_recv(), Err(TryRecvError::Disconnected));
        }
    }
}
