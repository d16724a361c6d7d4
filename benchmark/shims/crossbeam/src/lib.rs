//! Stand-in for `crossbeam`: `channel::{bounded, unbounded}` as a multi-producer,
//! multi-consumer queue on one `Mutex` and two `Condvar`s.
//!
//! `bounded(0)` is a queue of capacity 1, not a rendezvous: no ig-* crate builds
//! a zero-capacity channel outside its tests.

pub mod channel {
    use std::collections::VecDeque;
    use std::fmt;
    use std::sync::{Arc, Condvar, Mutex, MutexGuard};
    use std::time::{Duration, Instant};

    struct State<T> {
        queue: VecDeque<T>,
        senders: usize,
        receivers: usize,
    }

    struct Chan<T> {
        state: Mutex<State<T>>,
        cap: Option<usize>,
        not_empty: Condvar,
        not_full: Condvar,
    }

    impl<T> Chan<T> {
        /// Every update leaves the queue and the counts valid, so a panic in
        /// another holder does not invalidate them.
        fn lock(&self) -> MutexGuard<'_, State<T>> {
            self.state.lock().unwrap_or_else(|e| e.into_inner())
        }

        fn is_full(&self, state: &State<T>) -> bool {
            self.cap.is_some_and(|cap| state.queue.len() >= cap)
        }
    }

    pub struct Sender<T>(Arc<Chan<T>>);
    pub struct Receiver<T>(Arc<Chan<T>>);

    #[derive(PartialEq, Eq, Clone, Copy)]
    pub struct SendError<T>(pub T);

    #[derive(PartialEq, Eq, Clone, Copy)]
    pub enum TrySendError<T> {
        Full(T),
        Disconnected(T),
    }

    #[derive(Debug, PartialEq, Eq, Clone, Copy)]
    pub struct RecvError;

    #[derive(Debug, PartialEq, Eq, Clone, Copy)]
    pub enum TryRecvError {
        Empty,
        Disconnected,
    }

    #[derive(Debug, PartialEq, Eq, Clone, Copy)]
    pub enum RecvTimeoutError {
        Timeout,
        Disconnected,
    }

    impl<T> fmt::Debug for SendError<T> {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            f.write_str("SendError(..)")
        }
    }

    impl<T> fmt::Debug for TrySendError<T> {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            f.write_str(match self {
                TrySendError::Full(_) => "Full(..)",
                TrySendError::Disconnected(_) => "Disconnected(..)",
            })
        }
    }

    impl<T> fmt::Display for SendError<T> {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            f.write_str("sending on a disconnected channel")
        }
    }

    impl fmt::Display for RecvError {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            f.write_str("receiving on an empty and disconnected channel")
        }
    }

    impl<T> std::error::Error for SendError<T> {}
    impl std::error::Error for RecvError {}

    fn channel<T>(cap: Option<usize>) -> (Sender<T>, Receiver<T>) {
        let chan = Arc::new(Chan {
            state: Mutex::new(State {
                queue: VecDeque::new(),
                senders: 1,
                receivers: 1,
            }),
            cap,
            not_empty: Condvar::new(),
            not_full: Condvar::new(),
        });
        (Sender(Arc::clone(&chan)), Receiver(chan))
    }

    pub fn bounded<T>(cap: usize) -> (Sender<T>, Receiver<T>) {
        channel(Some(cap.max(1)))
    }

    pub fn unbounded<T>() -> (Sender<T>, Receiver<T>) {
        channel(None)
    }

    impl<T> Sender<T> {
        pub fn send(&self, msg: T) -> Result<(), SendError<T>> {
            let chan = &*self.0;
            let mut state = chan.lock();
            while state.receivers > 0 && chan.is_full(&state) {
                state = chan.not_full.wait(state).unwrap_or_else(|e| e.into_inner());
            }
            if state.receivers == 0 {
                return Err(SendError(msg));
            }
            state.queue.push_back(msg);
            drop(state);
            chan.not_empty.notify_one();
            Ok(())
        }

        pub fn try_send(&self, msg: T) -> Result<(), TrySendError<T>> {
            let chan = &*self.0;
            let mut state = chan.lock();
            if state.receivers == 0 {
                return Err(TrySendError::Disconnected(msg));
            }
            if chan.is_full(&state) {
                return Err(TrySendError::Full(msg));
            }
            state.queue.push_back(msg);
            drop(state);
            chan.not_empty.notify_one();
            Ok(())
        }

        pub fn len(&self) -> usize {
            self.0.lock().queue.len()
        }

        pub fn is_empty(&self) -> bool {
            self.len() == 0
        }
    }

    impl<T> Receiver<T> {
        fn pop(&self, state: &mut State<T>) -> Option<T> {
            let msg = state.queue.pop_front();
            if msg.is_some() {
                self.0.not_full.notify_one();
            }
            msg
        }

        pub fn recv(&self) -> Result<T, RecvError> {
            let mut state = self.0.lock();
            loop {
                if let Some(msg) = self.pop(&mut state) {
                    return Ok(msg);
                }
                if state.senders == 0 {
                    return Err(RecvError);
                }
                state = self
                    .0
                    .not_empty
                    .wait(state)
                    .unwrap_or_else(|e| e.into_inner());
            }
        }

        pub fn try_recv(&self) -> Result<T, TryRecvError> {
            let mut state = self.0.lock();
            match self.pop(&mut state) {
                Some(msg) => Ok(msg),
                None if state.senders == 0 => Err(TryRecvError::Disconnected),
                None => Err(TryRecvError::Empty),
            }
        }

        pub fn recv_timeout(&self, timeout: Duration) -> Result<T, RecvTimeoutError> {
            let deadline = Instant::now() + timeout;
            let mut state = self.0.lock();
            loop {
                if let Some(msg) = self.pop(&mut state) {
                    return Ok(msg);
                }
                if state.senders == 0 {
                    return Err(RecvTimeoutError::Disconnected);
                }
                let left = deadline.saturating_duration_since(Instant::now());
                if left.is_zero() {
                    return Err(RecvTimeoutError::Timeout);
                }
                state = self
                    .0
                    .not_empty
                    .wait_timeout(state, left)
                    .unwrap_or_else(|e| e.into_inner())
                    .0;
            }
        }
    }

    impl<T> Clone for Sender<T> {
        fn clone(&self) -> Self {
            self.0.lock().senders += 1;
            Sender(Arc::clone(&self.0))
        }
    }

    impl<T> Clone for Receiver<T> {
        fn clone(&self) -> Self {
            self.0.lock().receivers += 1;
            Receiver(Arc::clone(&self.0))
        }
    }

    impl<T> Drop for Sender<T> {
        fn drop(&mut self) {
            let mut state = self.0.lock();
            state.senders -= 1;
            if state.senders == 0 {
                drop(state);
                self.0.not_empty.notify_all();
            }
        }
    }

    impl<T> Drop for Receiver<T> {
        fn drop(&mut self) {
            let mut state = self.0.lock();
            state.receivers -= 1;
            if state.receivers == 0 {
                // Nobody can take what is queued: release it and wake senders.
                state.queue.clear();
                drop(state);
                self.0.not_full.notify_all();
            }
        }
    }

    impl<T> fmt::Debug for Sender<T> {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            f.write_str("Sender { .. }")
        }
    }

    impl<T> fmt::Debug for Receiver<T> {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            f.write_str("Receiver { .. }")
        }
    }

    #[cfg(test)]
    mod tests {
        use super::*;

        #[test]
        fn bounded_blocks_then_drains_in_order_across_threads() {
            let (tx, rx) = bounded::<u32>(2);
            let rx2 = rx.clone();
            let producer = std::thread::spawn(move || {
                for i in 0..1000 {
                    tx.send(i).unwrap();
                }
            });
            let mut got: Vec<u32> = std::iter::from_fn(|| rx.recv().ok()).collect();
            producer.join().unwrap();
            got.sort_unstable();
            assert_eq!(got, (0..1000).collect::<Vec<_>>());
            assert_eq!(rx2.try_recv(), Err(TryRecvError::Disconnected));
        }

        #[test]
        fn full_timeout_and_disconnect_are_reported() {
            let (tx, rx) = bounded::<u8>(1);
            tx.try_send(1).unwrap();
            assert!(matches!(tx.try_send(2), Err(TrySendError::Full(2))));
            assert_eq!(rx.recv(), Ok(1));
            assert_eq!(
                rx.recv_timeout(Duration::from_millis(5)),
                Err(RecvTimeoutError::Timeout)
            );
            drop(rx);
            assert!(matches!(tx.send(3), Err(SendError(3))));
            let (tx, rx) = unbounded::<u8>();
            drop(tx);
            assert_eq!(rx.recv(), Err(RecvError));
        }
    }
}
