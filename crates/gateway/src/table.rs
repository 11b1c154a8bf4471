//! The flat session table: an open-addressed `sensor id → slot` index
//! over sessions stored by value, in slot order, in fixed-size blocks.
//!
//! A lookup reads one index entry (16 bytes, four to a cache line) and
//! then the session itself, whose ChaCha20 receiver is inline. Sessions
//! are never removed (re-provisioning overwrites in place), so the slot
//! a sensor gets on first provisioning is its slot for the table's
//! lifetime and the live slots are exactly `0..len`.
//!
//! Storage grows a block at a time instead of doubling one vector: each
//! block is allocated once at its final size, so provisioning neither
//! moves sessions nor pays for the discarded halves of a doubling
//! vector. The index does double; between its 7/8 load ceiling and the
//! next doubling it holds 18–37 bytes per session, against the
//! session's own 168.

use crate::session::Session;

/// Sessions per storage block.
const BLOCK: usize = 64;

/// The slot field of an index entry that holds no session.
const VACANT: usize = usize::MAX;

/// The smallest non-empty index (a power of two).
const MIN_INDEX: usize = 16;

/// 2^64 / φ, rounded to odd: Fibonacci hashing's multiplier.
const FIBONACCI: u64 = 0x9e37_79b9_7f4a_7c15;

/// One shard's sessions, keyed by sensor id.
#[derive(Default)]
pub(crate) struct SessionTable {
    /// `(sensor id, slot)` entries, `slot == VACANT` when empty. Its
    /// length is 0 or a power of two, and at most 7/8 of it is filled,
    /// so every probe meets a vacant entry.
    index: Vec<(u64, usize)>,
    /// Slot `s` is `blocks[s / BLOCK][s % BLOCK]`; every block but the
    /// last is full.
    blocks: Vec<Vec<Session>>,
    len: usize,
}

impl SessionTable {
    /// Provisioned sessions.
    pub(crate) fn len(&self) -> usize {
        self.len
    }

    /// The session of `sensor_id`, if it has one.
    pub(crate) fn get_mut(&mut self, sensor_id: u64) -> Option<&mut Session> {
        let slot = self.slot_of(sensor_id)?;
        self.blocks.get_mut(slot / BLOCK)?.get_mut(slot % BLOCK)
    }

    /// Stores `session` under `sensor_id` and returns the session it
    /// replaced. A replacement keeps the old session's slot (and its
    /// nonce ledger, see [`Session::reprovision`]).
    pub(crate) fn insert(&mut self, sensor_id: u64, session: Session) -> Option<Session> {
        if let Some(old) = self.get_mut(sensor_id) {
            return Some(old.reprovision(session));
        }
        if (self.len + 1) * 8 > self.index.len() * 7 {
            self.grow();
        }
        let slot = self.len;
        match self.blocks.last_mut() {
            Some(block) if block.len() < BLOCK => block.push(session),
            _ => {
                let mut block = Vec::with_capacity(BLOCK);
                block.push(session);
                self.blocks.push(block);
            }
        }
        place(&mut self.index, sensor_id, slot);
        self.len += 1;
        None
    }

    /// Every session, once each, in slot order.
    pub(crate) fn iter(&self) -> impl Iterator<Item = &Session> {
        self.blocks.iter().flatten()
    }

    /// Every `(sensor id, session)` pair, once each, in index order.
    pub(crate) fn entries(&self) -> impl Iterator<Item = (u64, &Session)> {
        self.index.iter().filter_map(|&(sensor_id, slot)| {
            if slot == VACANT {
                return None;
            }
            let session = self.blocks.get(slot / BLOCK)?.get(slot % BLOCK)?;
            Some((sensor_id, session))
        })
    }

    /// The slot of `sensor_id`, if it has one.
    fn slot_of(&self, sensor_id: u64) -> Option<usize> {
        let &(_, slot) = self.index.get(probe(&self.index, sensor_id)?)?;
        (slot != VACANT).then_some(slot)
    }

    /// Doubles the index (or creates it) and re-places every entry.
    fn grow(&mut self) {
        let capacity = (self.index.len() * 2).max(MIN_INDEX);
        let old = std::mem::replace(&mut self.index, vec![(0, VACANT); capacity]);
        for (sensor_id, slot) in old {
            if slot != VACANT {
                place(&mut self.index, sensor_id, slot);
            }
        }
    }
}

/// Where `sensor_id`'s probe stops in `index`: at its entry, or at the
/// vacant entry where it would go. `None` only for an empty index (or a
/// full one, which the load ceiling rules out).
///
/// The home position is the top bits of a Fibonacci multiply of the raw
/// id. It must not come from the shard router's `mix(id)`: every id in a
/// shard shares `mix(id) % shards`, so those low bits are constant there.
fn probe(index: &[(u64, usize)], sensor_id: u64) -> Option<usize> {
    let mask = index.len().checked_sub(1)?;
    let bits = index.len().trailing_zeros();
    let mut pos = sensor_id.wrapping_mul(FIBONACCI).checked_shr(64 - bits)? as usize;
    for _ in 0..index.len() {
        let &(key, slot) = index.get(pos)?;
        if slot == VACANT || key == sensor_id {
            return Some(pos);
        }
        pos = (pos + 1) & mask;
    }
    None
}

/// Points `sensor_id`'s entry at `slot`.
fn place(index: &mut [(u64, usize)], sensor_id: u64, slot: usize) {
    if let Some(entry) = probe(index, sensor_id).and_then(|pos| index.get_mut(pos)) {
        *entry = (sensor_id, slot);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::route::shard_of;

    fn session(tag: usize) -> Session {
        Session::new([7; 32], tag)
    }

    fn tags(table: &SessionTable) -> Vec<usize> {
        table.iter().map(|s| s.cohort).collect()
    }

    #[test]
    fn ids_sharing_one_shard_spread_over_the_index() {
        // Every id here routes to shard 0 of 4: the router's hash bits
        // are constant across them, and an index hashed on them would
        // pile every id into a few runs.
        let ids: Vec<u64> = (0..100_000u64)
            .filter(|&id| shard_of(id, 4) == 0)
            .take(4096)
            .collect();
        let mut table = SessionTable::default();
        for (i, &id) in ids.iter().enumerate() {
            assert!(table.insert(id, session(i)).is_none());
        }
        let mask = table.index.len() - 1;
        let bits = table.index.len().trailing_zeros();
        let displacement: usize = ids
            .iter()
            .map(|&id| {
                let home = (id.wrapping_mul(FIBONACCI) >> (64 - bits)) as usize;
                let pos = probe(&table.index, id).unwrap();
                pos.wrapping_sub(home) & mask
            })
            .sum();
        let mean = displacement as f64 / ids.len() as f64;
        assert!(mean < 4.0, "mean probe displacement {mean:.2}");
        for (i, &id) in ids.iter().enumerate() {
            assert_eq!(table.get_mut(id).map(|s| s.cohort), Some(i));
        }
    }

    #[test]
    fn reinserting_an_id_keeps_its_slot() {
        let mut table = SessionTable::default();
        for id in 0..200u64 {
            table.insert(id * 3, session(id as usize));
        }
        let slot = table.slot_of(150).unwrap();
        let old = table.insert(150, session(9_999)).unwrap();
        assert_eq!(old.cohort, 50);
        assert_eq!(table.len(), 200);
        assert_eq!(table.slot_of(150), Some(slot));
        assert_eq!(tags(&table)[slot], 9_999);
    }

    #[test]
    fn absent_ids_miss_in_a_table_at_its_load_ceiling() {
        let mut table = SessionTable::default();
        let mut id = 0u64;
        // Fill until one more insert would grow the index.
        while (table.len() + 1) * 8 <= table.index.len() * 7 || table.len() < 1000 {
            table.insert(id, session(0));
            id += 1;
        }
        let capacity = table.index.len();
        assert_eq!(table.len() * 8, capacity * 7, "the index is at its ceiling");
        for absent in id..id + 10_000 {
            assert!(table.get_mut(absent).is_none());
        }
        assert!(table.get_mut(u64::MAX).is_none());
        assert_eq!(table.index.len(), capacity, "lookups never grow the index");
        assert!(SessionTable::default().get_mut(3).is_none());
    }

    #[test]
    fn iteration_visits_every_session_once() {
        for n in [0usize, 1, BLOCK - 1, BLOCK, BLOCK + 1, 5 * BLOCK + 7] {
            let mut table = SessionTable::default();
            for i in 0..n {
                table.insert((i as u64).wrapping_mul(0x1234_5678_9abc_def1), session(i));
            }
            // Re-provisioning moves nothing and adds nothing.
            for i in (0..n).step_by(3) {
                table.insert((i as u64).wrapping_mul(0x1234_5678_9abc_def1), session(i));
            }
            assert_eq!(table.len(), n);
            assert_eq!(tags(&table), (0..n).collect::<Vec<_>>());
            let mut pairs: Vec<(u64, usize)> =
                table.entries().map(|(id, s)| (id, s.cohort)).collect();
            pairs.sort_unstable_by_key(|&(_, tag)| tag);
            let expected: Vec<(u64, usize)> = (0..n)
                .map(|i| ((i as u64).wrapping_mul(0x1234_5678_9abc_def1), i))
                .collect();
            assert_eq!(pairs, expected);
            assert!(table.blocks.iter().all(|b| b.capacity() == BLOCK));
        }
    }
}
