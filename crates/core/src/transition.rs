//! The smooth-provisioning transition window (Section IV) and the two
//! sans-IO functions every Algorithm 2 driver evaluates against it:
//! [`TransitionManager::probe_target`] (whether to ask the old server)
//! and [`fetch_class`] (what the answers amount to).

use std::error::Error;
use std::fmt;

use proteus_bloom::BloomFilter;
use proteus_ring::ServerId;

use crate::metrics::FetchClass;
use crate::power::PowerState;
use crate::router::Router;

/// [`TransitionManager::begin`] was called while a window is open.
///
/// Algorithm 2 assumes a single old/new mapping pair: chaining 4→3→2
/// without closing the first window would overwrite the old mapping and
/// the digest broadcast, stranding keys that only live on the first old
/// server. Callers drive one window at a time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TransitionOverlap;

impl fmt::Display for TransitionOverlap {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("a provisioning transition is already in progress")
    }
}

impl Error for TransitionOverlap {}

/// What one lookup at a cache server observed — the input of
/// [`fetch_class`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Probe {
    /// The server returned the value.
    Hit,
    /// The server answered and does not hold the key.
    Miss,
    /// The server could not be reached. Only drivers with real sockets
    /// ever observe this.
    Down,
}

impl Probe {
    /// The observation of a lookup that reached its server.
    #[must_use]
    pub fn answered(found: bool) -> Self {
        if found {
            Probe::Hit
        } else {
            Probe::Miss
        }
    }
}

/// Algorithm 2's outcome table: the class of a fetch whose new-mapping
/// server answered `new` and whose old-mapping server — asked only when
/// [`TransitionManager::probe_target`] named one — answered `old`.
/// Every class but `NewHit` and `Migrated` reads the value from the
/// database; every class but `NewHit` installs it at the new server.
#[must_use]
pub fn fetch_class(new: Probe, old: Option<Probe>) -> FetchClass {
    match (new, old) {
        (Probe::Hit, _) => FetchClass::NewHit,
        (Probe::Down, _) => FetchClass::Degraded,
        (Probe::Miss, None) => FetchClass::Database,
        (Probe::Miss, Some(Probe::Hit)) => FetchClass::Migrated,
        (Probe::Miss, Some(Probe::Miss)) => FetchClass::DatabaseFalsePositive,
        (Probe::Miss, Some(Probe::Down)) => FetchClass::Degraded,
    }
}

/// The provisioning window state machine of the cache tier: which
/// servers are on/draining/off, the old and new key mappings while a
/// window is open, and the digest snapshots broadcast to the web tier
/// when it opened. It holds no clock: whoever drives it decides when
/// the drain is over and calls [`finalize`](Self::finalize).
///
/// Protocol (Section IV): when `n(t) → n(t+1)`,
///
/// 1. digests of the servers active under the *old* mapping are
///    snapshot and broadcast ("at the beginning of the transition
///    stage, digests will be broadcasted to all web servers");
/// 2. for `TTL` seconds both mappings are live: requests go to the new
///    server first, then (digest permitting) to the old one
///    (Algorithm 2);
/// 3. after `TTL`, any departing server is safely powered off — every
///    hot item has been migrated on demand, every cold item may be
///    dropped.
///
/// # Example
///
/// ```
/// use proteus_bloom::{BloomConfig, BloomFilter};
/// use proteus_core::{TransitionManager, TransitionOverlap};
///
/// let mut tm = TransitionManager::new(4, 4);
/// let digest = || Some(BloomFilter::new(BloomConfig::new(64, 1, 2)));
/// tm.begin(3, (0..4).map(|_| digest())).unwrap();
/// assert!(tm.is_open());
/// assert_eq!((tm.previous_active(), tm.active()), (4, 3));
/// assert_eq!(tm.begin(2, (0..3).map(|_| digest())), Err(TransitionOverlap));
/// assert_eq!(tm.finalize(), vec![3]);
/// ```
#[derive(Debug)]
pub struct TransitionManager {
    active: usize,
    /// Differs from `active` exactly while a window is open.
    previous_active: usize,
    states: Vec<PowerState>,
    digests: Vec<Option<BloomFilter>>,
}

impl TransitionManager {
    /// Creates the manager with `initial_active` of `total` servers on.
    ///
    /// # Panics
    ///
    /// Panics unless `1 <= initial_active <= total`.
    #[must_use]
    pub fn new(total: usize, initial_active: usize) -> Self {
        assert!(
            (1..=total).contains(&initial_active),
            "initial active count {initial_active} outside 1..={total}"
        );
        let mut states = vec![PowerState::Off; total];
        states[..initial_active].fill(PowerState::On);
        TransitionManager {
            active: initial_active,
            previous_active: initial_active,
            states,
            digests: vec![None; total],
        }
    }

    /// Active servers under the *new* (current) mapping.
    #[must_use]
    pub fn active(&self) -> usize {
        self.active
    }

    /// Active servers under the *old* mapping (equal to
    /// [`active`](Self::active) while no window is open).
    #[must_use]
    pub fn previous_active(&self) -> usize {
        self.previous_active
    }

    /// The power state of server `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    #[must_use]
    pub fn state(&self, i: usize) -> PowerState {
        self.states[i]
    }

    /// Whether a transition window is open.
    #[must_use]
    pub fn is_open(&self) -> bool {
        self.previous_active != self.active
    }

    /// The digest snapshot of server `i` taken when the current window
    /// opened; `None` if no window is open, `i` was not active under
    /// the old mapping, or its digest could not be obtained.
    #[must_use]
    pub fn digest(&self, i: usize) -> Option<&BloomFilter> {
        self.digests.get(i).and_then(Option::as_ref)
    }

    /// Opens a transition window to `new_active` servers. `digests`
    /// yields the broadcast in server order, one entry per server
    /// active under the old mapping; `None` (or running out early)
    /// records a server whose digest could not be obtained — keys that
    /// only live there fall through to the database.
    ///
    /// Calling with `new_active == active` is a no-op that does not
    /// consume `digests`.
    ///
    /// # Errors
    ///
    /// Returns [`TransitionOverlap`] if a window is already open.
    ///
    /// # Panics
    ///
    /// Panics if `new_active` is outside `1..=total`.
    pub fn begin(
        &mut self,
        new_active: usize,
        digests: impl IntoIterator<Item = Option<BloomFilter>>,
    ) -> Result<(), TransitionOverlap> {
        assert!(
            (1..=self.states.len()).contains(&new_active),
            "new active count {new_active} outside 1..={}",
            self.states.len()
        );
        if new_active == self.active {
            return Ok(());
        }
        if self.is_open() {
            return Err(TransitionOverlap);
        }
        let old_active = self.active;
        for (slot, digest) in self.digests[..old_active].iter_mut().zip(digests) {
            *slot = digest;
        }
        if new_active < old_active {
            self.states[new_active..old_active].fill(PowerState::Draining);
        } else {
            self.states[old_active..new_active].fill(PowerState::On);
        }
        self.previous_active = old_active;
        self.active = new_active;
        Ok(())
    }

    /// Closes the current window: draining servers power off, digests
    /// are dropped, and the old mapping is retired. Returns the servers
    /// that powered off (their caches should be cleared); empty when no
    /// window was open.
    pub fn finalize(&mut self) -> Vec<usize> {
        let mut powered_off = Vec::new();
        for (i, s) in self.states.iter_mut().enumerate() {
            if *s == PowerState::Draining {
                *s = PowerState::Off;
                powered_off.push(i);
            }
        }
        self.digests.iter_mut().for_each(|d| *d = None);
        self.previous_active = self.active;
        powered_off
    }

    /// Immediate (non-smooth) switch, as the Naive and Consistent
    /// scenarios do: a window with no digests that closes at once, so
    /// the mapping changes and departing servers power off on the spot,
    /// losing their contents. A still-open smooth window is finalized
    /// first (its draining servers power off too). Returns all
    /// powered-off servers.
    ///
    /// # Panics
    ///
    /// Panics if `new_active` is outside `1..=total`.
    pub fn switch_abrupt(&mut self, new_active: usize) -> Vec<usize> {
        let mut powered_off = self.finalize();
        self.begin(new_active, [])
            .expect("the open window was just finalized");
        powered_off.extend(self.finalize());
        powered_off
    }

    /// Algorithm 2 line 6, the routing decision: after `key` missed at
    /// its new-mapping server `new`, the old server to ask — or `None`,
    /// in which case the database is next. A server is named only when
    /// a window is open, the key's mapping changed (`old ≠ new`), the
    /// old server's digest was obtained, and that digest vouches for
    /// the key.
    #[must_use]
    pub fn probe_target(&self, router: &Router, key: &[u8], new: ServerId) -> Option<ServerId> {
        if !self.is_open() {
            return None;
        }
        let old = router.server_for(key, self.previous_active);
        let vouched = old != new && self.digest(old.index())?.contains(key);
        vouched.then_some(old)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proteus_bloom::{BloomConfig, CountingBloomFilter};

    fn digest_with(keys: &[&[u8]]) -> Option<BloomFilter> {
        let mut c = CountingBloomFilter::new(BloomConfig::new(1024, 4, 4));
        for k in keys {
            c.insert(k);
        }
        Some(c.snapshot())
    }

    fn empty_digests(n: usize) -> impl Iterator<Item = Option<BloomFilter>> {
        (0..n).map(|_| digest_with(&[]))
    }

    #[test]
    fn initial_states_follow_prefix() {
        let tm = TransitionManager::new(6, 4);
        for i in 0..4 {
            assert_eq!(tm.state(i), PowerState::On);
        }
        for i in 4..6 {
            assert_eq!(tm.state(i), PowerState::Off);
        }
        assert!(!tm.is_open());
        assert_eq!(tm.digest(0), None);
    }

    #[test]
    fn scale_down_opens_window_with_digests() {
        let mut tm = TransitionManager::new(4, 4);
        tm.begin(
            2,
            (0..4).map(|i| digest_with(&[format!("server{i}").as_bytes()])),
        )
        .unwrap();
        assert_eq!(tm.active(), 2);
        assert_eq!(tm.previous_active(), 4);
        assert_eq!(tm.state(2), PowerState::Draining);
        assert_eq!(tm.state(3), PowerState::Draining);
        assert!(tm.is_open());
        // Digests exist for all four old-config servers.
        for i in 0..4 {
            assert!(tm.digest(i).is_some(), "digest {i}");
        }
        assert!(tm.digest(0).unwrap().contains(b"server0"));
    }

    #[test]
    fn finalize_powers_off_draining_servers() {
        let mut tm = TransitionManager::new(4, 4);
        tm.begin(3, empty_digests(4)).unwrap();
        assert_eq!(tm.finalize(), vec![3]);
        assert_eq!(tm.state(3), PowerState::Off);
        assert_eq!(tm.previous_active(), 3);
        assert_eq!(tm.digest(0), None, "digests dropped");
        assert!(!tm.is_open());
        assert!(tm.finalize().is_empty(), "nothing left to close");
    }

    #[test]
    fn scale_up_turns_servers_on_and_keeps_old_digests() {
        let mut tm = TransitionManager::new(5, 2);
        tm.begin(
            4,
            (0..5).map(|i| digest_with(&[format!("s{i}").as_bytes()])),
        )
        .unwrap();
        assert_eq!(tm.state(2), PowerState::On);
        assert_eq!(tm.state(3), PowerState::On);
        assert_eq!(tm.previous_active(), 2);
        // Only the two old-config servers have digests, however many
        // the broadcast offered.
        assert!(tm.digest(0).is_some() && tm.digest(1).is_some());
        assert!(tm.digest(2).is_none() && tm.digest(3).is_none());
    }

    #[test]
    fn missing_digests_stay_missing() {
        let mut tm = TransitionManager::new(4, 4);
        tm.begin(3, [digest_with(&[]), None]).unwrap();
        assert!(tm.digest(0).is_some());
        assert!(tm.digest(1).is_none(), "reported missing");
        assert!(tm.digest(3).is_none(), "broadcast ran out early");
    }

    #[test]
    fn overlapping_transition_is_rejected() {
        let mut tm = TransitionManager::new(6, 6);
        tm.begin(5, empty_digests(6)).unwrap();
        // Second transition before the first drain ends.
        assert_eq!(tm.begin(4, empty_digests(5)), Err(TransitionOverlap));
        assert_eq!(
            (tm.previous_active(), tm.active()),
            (6, 5),
            "rejected call must not move state"
        );
        assert_eq!(tm.state(5), PowerState::Draining);
        assert_eq!(tm.state(4), PowerState::On);
        // One window at a time chains cleanly.
        assert_eq!(tm.finalize(), vec![5]);
        tm.begin(4, empty_digests(5)).unwrap();
        assert_eq!(tm.state(4), PowerState::Draining);
    }

    #[test]
    fn no_op_transition_changes_nothing() {
        let mut tm = TransitionManager::new(4, 3);
        let never = std::iter::from_fn(|| panic!("digests must not be taken for a no-op"));
        tm.begin(3, never).unwrap();
        assert!(!tm.is_open());
        assert_eq!(tm.active(), 3);
    }

    #[test]
    fn abrupt_switch_has_no_window() {
        let mut tm = TransitionManager::new(4, 4);
        let off = tm.switch_abrupt(2);
        assert_eq!(off, vec![2, 3]);
        // An abrupt switch closes any open smooth window first.
        let mut tm2 = TransitionManager::new(4, 4);
        tm2.begin(3, empty_digests(4)).unwrap();
        let off = tm2.switch_abrupt(3);
        assert_eq!(off, vec![3], "draining server powered off by abrupt switch");
        assert_eq!(tm2.state(3), PowerState::Off);
        assert!(!tm.is_open());
        assert_eq!(tm.previous_active(), 2);
        let off = tm.switch_abrupt(3);
        assert!(off.is_empty());
        assert_eq!(tm.state(2), PowerState::On);
    }

    #[test]
    #[should_panic(expected = "outside 1..=4")]
    fn begin_validates_range() {
        let mut tm = TransitionManager::new(4, 2);
        let _ = tm.begin(5, empty_digests(2));
    }
}
